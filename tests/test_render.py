import random
from fractions import Fraction

from portview.render import fmt_pct, fmt_sig
from reference import reference_fmt_pct, reference_fmt_sig


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
