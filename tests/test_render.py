import random
from decimal import Context, localcontext
from fractions import Fraction

from portview import render
from portview.mincover import build_coverage, min_cover
from portview.render import decimal_text, fmt_pct, fmt_sig, frac_str
from portview.runstore import format_duration, format_rational
from portview.tradeoff import best_subsets
from randgen import make_dataset
from reference import reference_fmt_pct, reference_fmt_sig, reference_frac_str


def test_decimal_text_examples():
    cases = {
        (0, 0): "0", (0, 3): "0.000", (7, 0): "7", (-7, 0): "-7", (5, -2): "500",
        (-5, 3): "-0.005", (361, 1): "36.1", (100000, 5): "1.00000", (123457, -1): "1234570",
    }
    for (digits, places), text in cases.items():
        assert decimal_text(digits, places) == text
    assert decimal_text(0, 1, True) == "-0.0"
    assert decimal_text(-3, 1, True) == "-0.3"


def _split_points():
    """Integers at 4,096 bits, where conversion starts to split, and at 8,192, where it splits twice."""
    for k in (*range(4093, 4100), *range(8189, 8196)):
        yield from (2**k - 1, 2**k)
    for k in (1232, 1233, 1234, 2465, 2466, 2467):  # 10**1233 has 4,096 bits, 10**2466 8,192
        yield from (10**k - 1, 10**k, 10**k + 1)


def test_frac_str_matches_the_direct_conversion():
    rng = random.Random(28)
    values = [Fraction(0), Fraction(1), Fraction(-1)]
    values += [Fraction(n) * sign for n in _split_points() for sign in (1, -1)]
    values += [Fraction(1, n) for n in _split_points()]
    for _ in range(12):
        num, den = (rng.getrandbits(rng.randint(4000, 300000)) for _ in range(2))
        values.append(Fraction(num * rng.choice((1, -1)), den + 1))
    for value in values:
        assert frac_str(value) == reference_frac_str(value)


def test_exact_text_does_not_depend_on_the_callers_decimal_context():
    values = [Fraction(0), Fraction(-2, 3), Fraction(1234567), Fraction(1, 10**9),
              Fraction(-1, 10**6), Fraction(-123456789, 1000), Fraction(3, 8),
              Fraction(10**40, 7), Fraction(2**9000 + 1, 2**9000)]
    funcs = (fmt_sig, fmt_pct, frac_str, format_rational, format_duration)
    expected = [[func(value) for func in funcs] for value in values]
    with localcontext(Context(prec=3, Emax=10)):
        assert [[func(value) for func in funcs] for value in values] == expected
    assert expected[1] == ["-0.666667", "-66.7%", "-2/3", "-2/3", "-0.667"]
    assert expected[5] == ["-123457", "-12345678.9%", "-123456789/1000", "-123456.789",
                           "-123456.789"]


def test_fmt_sig_examples():
    cases = {
        Fraction(0): "0",
        Fraction(1, 4): "0.25",
        Fraction(5): "5",
        Fraction(1234567): "1234570",
        Fraction(-2, 3): "-0.666667",
        Fraction(9999995, 10**7): "1.00000",
        Fraction(1, 10**9): "0.000000001",
    }
    for value, text in cases.items():
        assert fmt_sig(value) == text


def _grid(rng: random.Random):
    """Fractions near every rounding case: ties, carries, exact short values, huge terms."""
    yield from (Fraction(p, q) for p in range(-40, 41) for q in range(1, 41))
    for digits in (99999, 100000, 123456, 999999):
        for last in (0, 4, 5, 6, 15, 25, 50):
            for e in range(-9, 10):
                yield Fraction(digits * 100 + last, 100) * Fraction(10) ** e
    for _ in range(2000):
        num = rng.getrandbits(rng.randint(1, 4000)) * rng.choice((1, -1))
        yield Fraction(num, rng.getrandbits(rng.randint(1, 4000)) + 1)


def test_fmt_sig_matches_decimal_division():
    for value in _grid(random.Random(2026)):
        assert fmt_sig(value) == reference_fmt_sig(value), value


def test_fmt_pct_matches_decimal_on_small_denominators():
    """Ties, carries and signs, where the 28-digit ``Decimal`` quotient rounds once."""
    grid = [Fraction(p, q) for p in range(-3000, 3001, 7) for q in (1, 2, 3, 7, 8, 16, 40, 2000)]
    grid += [Fraction(p, 2000) for p in range(-20, 21)] + [Fraction(10**20 + 1, 4)]
    for value in grid:
        assert fmt_pct(value) == reference_fmt_pct(value), value
    assert fmt_pct(Fraction(0)) == "0.0%"
    assert fmt_pct(Fraction(-1, 10**6)) == "-0.0%"
    assert fmt_pct(Fraction(1, 2000)) == "0.0%"  # 0.05% is a tie: half-even keeps 0
    assert fmt_pct(Fraction(3, 2000)) == "0.2%"


def test_fmt_pct_rounds_the_exact_value_once():
    """12.3499...% is below the tie; a 28-digit quotient first rounds it up to 12.35."""
    value = Fraction(123499999999999999999999999999999, 10**33)
    assert fmt_pct(value) == "12.3%"


def test_fmt_pct_renders_any_size():
    assert fmt_pct(Fraction(10**30)) == "1" + "0" * 32 + ".0%"
    assert fmt_pct(Fraction(-(10**4299))) == "-1" + "0" * 4301 + ".0%"


def test_one_progress_interval_meters_both_searches(monkeypatch, verbose):
    """``render.PROGRESS_EVERY`` alone sets how often both searches write progress."""
    monkeypatch.setattr(render, "PROGRESS_EVERY", 1)
    ds = make_dataset(random.Random(5), n_solvers=6, n_instances=8, solve_all_solver=True)
    verbose()
    min_cover(build_coverage(ds))
    best_subsets(ds, ds.solver_ids, ds.solver_ids)
    lines = verbose()
    for search in ("min_cover", "best_subsets"):
        nodes = [int(line.split()[1]) for line in lines if line.startswith(f"{search}: ")]
        assert nodes and nodes == list(range(1, len(nodes) + 1)), search
