"""Command-line front end tying the analyses into one reporting pipeline.

Exit codes: 0 on success, 1 on validation errors (bad data, bad usage), 2 on
internal errors. ``report`` runs the whole pipeline (ingest, scenario filter,
Borda, oracle ratio, minimum cover, attribution over the cover, trade-off
curve with the cover as search space) and writes one deterministic bundle:
delimited tables, an aligned-text report, and a JSON sidecar carrying every
number as an exact rational. Its subcommands run the same helper per analysis,
so they time and name the same stages; every command writes as stage ``write``.
``_FLAGS`` declares each flag once and ``_COMMANDS`` each subcommand; option
defaults are ``ReportConfig``'s class attributes alone.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import render
from .convert import convert_table, load_mapping
from .mincover import build_coverage, min_cover
from .pairscore import ScoreMatrix, borda
from .portfolio import perf
from .render import align_table, csv_text, fmt_pct, fmt_sig, frac_str, log
from .runstore import (
    DataError,
    Dataset,
    filter_solvers,
    format_rational,
    ingest,
    parse_rational,
    save_canonical,
    write_canonical,
)
from .shapley import ShapleyMode, shapley_exact, shapley_sampled
from .tradeoff import best_subsets, thresholds

SCENARIOS = ("participants", "all")
MODES = tuple(mode.value for mode in ShapleyMode)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{cause}")
        self.stage = stage


@contextlib.contextmanager
def _stage(name: str):
    """Run the block as stage ``name``: log its wall time (shown under ``-v``, on stderr),
    and let a ``DataError`` or ``OSError`` leave as a ``StageError`` naming the stage."""
    started = time.perf_counter()
    try:
        yield
    except (DataError, OSError) as exc:
        raise StageError(name, exc) from exc
    finally:
        log("stage %s: %.3f s", name, time.perf_counter() - started)


def _dataset(cfg) -> tuple[Dataset, tuple[str, ...]]:
    with _stage("ingest"):
        ds = ingest(cfg.data)
    with _stage("filter"):
        if cfg.scenario == "participants" and not ds.participant_ids:
            raise DataError("scenario 'participants' selected but no solver is flagged as one")
        return ds, ds.participant_ids if cfg.scenario == "participants" else ds.solver_ids


def _borda_over(ds: Dataset, solvers) -> ScoreMatrix:
    """Borda over ``solvers``; over ``ds`` itself, uncopied, when they are all of its solvers."""
    with _stage("borda"):
        return borda(ds if set(solvers) == ds.solvers.keys() else filter_solvers(ds, solvers))


def _portfolio_borda(ds: Dataset, portfolio, matrix: ScoreMatrix) -> ScoreMatrix:
    """Borda over ``portfolio``: ``matrix`` itself when it scores exactly its solvers."""
    if set(portfolio) == matrix.totals.keys():
        return matrix
    with _stage("portfolio_borda"):
        return borda(filter_solvers(ds, portfolio))


def _oracle(ds: Dataset):
    with _stage("oracle"):
        return perf(ds, ds.participant_ids, ds.solver_ids)


def _mincover(ds: Dataset, solvers, cfg):
    with _stage("mincover"):
        coverage = build_coverage(ds, solvers, cfg.epsilon)
        return coverage, min_cover(coverage, cfg.cap)


def _cover_or_full(ds: Dataset, solvers, cfg, choice: str):
    return solvers if choice == "full" else _mincover(ds, solvers, cfg)[1].portfolios[0]


def _shapley(ds: Dataset, portfolio, baseline, cfg):
    with _stage("shapley"):
        if ShapleyMode(cfg.mode) is ShapleyMode.SAMPLED:
            return shapley_sampled(ds, portfolio, baseline, cfg.samples, cfg.seed)
        return shapley_exact(ds, portfolio, baseline, ShapleyMode(cfg.mode))


def _tradeoff(ds: Dataset, space, baseline, cfg):
    """Stages ``tradeoff`` and ``thresholds``: the best subset per size, the size per level."""
    with _stage("tradeoff"):
        curve = best_subsets(ds, space, baseline)
    with _stage("thresholds"):
        return curve, thresholds(curve, list(cfg.levels))


def _emit(text: str, out: str | None) -> None:
    with _stage("write"):
        if out:
            Path(out).write_text(text, encoding="utf-8")
            return
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:  # raised before a byte is written; data is never escaped
            raise DataError(f"stdout cannot encode the output ({exc}); "
                            "use --out FILE, which writes UTF-8") from None


def _print_warnings(ds_warnings: Sequence[str]) -> None:
    for line in ds_warnings:
        print(f"warning: {line}", file=sys.stderr)


# ---------------------------------------------------------------------------
# table builders: one per analysis, each returning (header, rows)


def _borda_table(matrix: ScoreMatrix):
    rows = [
        [sid, fmt_sig(matrix.totals[sid]), fmt_sig(matrix.averages[sid]), str(rank)]
        for rank, sid in matrix.ranking()
    ]
    return ("solver", "total", "average", "rank"), rows


def _oracle_table(results):
    """One row per (label, participant count, solver count, participant-oracle ratio)."""
    rows = [
        [label, str(participants), str(solvers), fmt_sig(ratio.value), fmt_pct(ratio.value)]
        for label, participants, solvers, ratio in results
    ]
    return ("dataset", "participants", "solvers", "ratio", "percent"), rows


def _mincover_table(ds: Dataset, portfolio):
    rows = [[sid, "participant" if ds.solvers[sid] else "non-participant"] for sid in portfolio]
    return ("solver", "role"), rows


def _tradeoff_table(curve):
    rows = [
        [str(e.k), fmt_pct(e.value), fmt_sig(e.value), " ".join(e.subset)]
        for e in curve.entries
    ]
    return ("k", "percent", "ratio", "subset"), rows


def _thresholds_table(levels, reached):
    rows = [
        [fmt_pct(level), str(reached[level]) if level in reached else "unreached"]
        for level in levels
    ]
    return ("level", "smallest_k"), rows


def _shapley_table(attribution, all_borda: ScoreMatrix, portfolio_borda: ScoreMatrix):
    rows = [
        [sid, _fmt_value(attribution.values[sid]), fmt_sig(all_borda.averages[sid]),
         fmt_sig(portfolio_borda.averages[sid])]
        for sid in attribution.portfolio
    ]
    return ("solver", "attribution", "borda_avg_all", "borda_avg_portfolio"), rows


def _render(fmt: str, *tables) -> str:
    """Tables as consecutive CSV blocks, or as aligned text separated by a blank line."""
    if fmt == "csv":
        return "".join(csv_text(header, rows) for header, rows in tables)
    return "\n".join(align_table(header, rows) for header, rows in tables)


# ---------------------------------------------------------------------------
# simple subcommands


def cmd_ingest(args) -> None:
    ds = ingest(args.data, delimiter=args.delimiter)
    _print_warnings(ds.warnings)
    if args.out:
        with _stage("write"):
            save_canonical(ds, args.out)  # line by line
    else:
        _emit(write_canonical(ds), None)  # one write: an id stdout cannot encode writes nothing


def cmd_convert(args) -> None:
    text, warnings = convert_table(args.data, load_mapping(args.mapping) if args.mapping else None)
    _print_warnings(warnings)
    _emit(text, args.out)


def cmd_borda(args) -> None:
    ds, solvers = _dataset(_config(args))
    _emit(_render(args.format, _borda_table(_borda_over(ds, solvers))), args.out)


def cmd_oracle(args) -> None:
    results = []
    for path in args.data:
        with _stage("ingest"):
            ds = ingest(path)
        results.append((Path(path).stem, len(ds.participant_ids), len(ds.solvers), _oracle(ds)))
        del ds  # the table needs only the counts and the ratio: free it before the next ingest
    _emit(_render(args.format, _oracle_table(results)), args.out)
    for label, _, _, ratio in results:
        if ratio.tied_unsolved:
            print(
                f"note: {label}: {ratio.tied_unsolved} instance(s) unsolved by both "
                "oracles scored as symmetric ties",
                file=sys.stderr,
            )


def cmd_mincover(args) -> None:
    cfg = _config(args)
    ds, solvers = _dataset(cfg)
    coverage, solution = _mincover(ds, solvers, cfg)
    table = _mincover_table(ds, solution.portfolios[0])
    if args.format == "csv":
        text = _render("csv", table)
    else:
        size_ratio = Fraction(solution.size, len(solvers))
        summary = [
            f"solvers considered: {len(solvers)}",
            f"minimum portfolio size: {solution.size}",
            f"size ratio: {fmt_sig(size_ratio)} ({fmt_pct(size_ratio)})",
            f"optimal portfolios: {len(solution.portfolios)}"
            + (" (cap reached)" if solution.cap_reached else ""),
            f"unique optimum: {'yes' if solution.is_unique else 'no'}",
            f"instances unsolved by every solver: {len(coverage.unsolvable)}",
        ]
        text = "\n".join(summary) + "\n\n" + _render("text", table)
    _emit(text, args.out)


def cmd_tradeoff(args) -> None:
    cfg = _config(args)
    ds, solvers = _dataset(cfg)
    curve, reached = _tradeoff(ds, _cover_or_full(ds, solvers, cfg, args.space), solvers, cfg)
    text = _render(args.format, _tradeoff_table(curve), _thresholds_table(cfg.levels, reached))
    _emit(text, args.out)


def cmd_shapley(args) -> None:
    cfg = _config(args)
    ds, solvers = _dataset(cfg)
    portfolio = _cover_or_full(ds, solvers, cfg, args.portfolio)
    attribution = _shapley(ds, portfolio, solvers, cfg)
    all_borda = _borda_over(ds, solvers)
    core_borda = _portfolio_borda(ds, portfolio, all_borda)
    _emit(_render(args.format, _shapley_table(attribution, all_borda, core_borda)), args.out)


def _fmt_value(value) -> str:
    if isinstance(value, Fraction):
        return fmt_sig(value)
    return f"{value:.6g}"


def _parse_levels(text: str) -> tuple[Fraction, ...]:
    levels = [parse_rational(part, what="level") for part in text.split(",") if part.strip()]
    if not levels:
        raise DataError("no threshold levels given")
    if levels != sorted(set(levels)):
        raise DataError("threshold levels must be strictly ascending")
    return tuple(levels)


# ---------------------------------------------------------------------------
# full pipeline


class ReportConfig:
    """One analysis run: ``data``, ``out_dir`` and the annotated options by keyword.

    Each option's default is its class attribute and nowhere else: the CLI flags
    have none, so an option left off the command line or the constructor keeps
    it. An unknown keyword raises ``TypeError``, and an unknown scenario, mode
    or format ``DataError``. An instance is immutable, so what is checked runs.
    """

    scenario: str = "participants"
    epsilon: Fraction = Fraction(0)
    cap: int = 1000
    mode: str = "exact"
    samples: int = 10000
    seed: int = 0
    levels: tuple[Fraction, ...] = (Fraction(4, 5), Fraction(9, 10), Fraction(19, 20))
    formats: tuple[str, ...] = ("csv", "text", "json")  # every known format

    def __init__(self, data: str, out_dir: str, **options) -> None:
        unknown = options.keys() - ReportConfig.__annotations__
        if unknown:
            raise TypeError(f"ReportConfig got unexpected keyword arguments {sorted(unknown)}")
        vars(self).update(options, data=data, out_dir=out_dir)
        checks = [("scenario", self.scenario, SCENARIOS), ("mode", self.mode, MODES)]
        checks += [("output format", fmt, ReportConfig.formats) for fmt in self.formats]
        for option, value, known in checks:
            if value not in known:
                raise DataError(f"unknown {option} {value!r}")

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"a ReportConfig is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _config(args) -> ReportConfig:
    """The options given on a parsed command line; one not given (``None``) keeps its default."""
    parse = {"epsilon": lambda text: parse_rational(text, what="epsilon"),
             "levels": _parse_levels, "formats": lambda text: tuple(text.split(","))}
    options = {name: parse.get(name, lambda value: value)(value)
               for name, value in vars(args).items()
               if name in ReportConfig.__annotations__ and value is not None}
    return ReportConfig(data=args.data, out_dir=args.out, **options)


def run_pipeline(cfg: ReportConfig) -> dict[str, str]:
    """Execute all stages and return the report bundle as {filename: content}.

    Nothing is written here, so a failing stage leaves no partial output; any
    stage failure is re-raised as a StageError naming the stage.
    """
    ds, solvers = _dataset(cfg)
    matrix = _borda_over(ds, solvers)
    oracle = _oracle(ds)
    coverage, solution = _mincover(ds, solvers, cfg)
    core = solution.portfolios[0]
    # attribution first: exact mode's cost guard then fails before the trade-off search
    attribution = _shapley(ds, core, solvers, cfg)
    curve, reached = _tradeoff(ds, core, solvers, cfg)

    tabular = "csv" in cfg.formats or "text" in cfg.formats
    core_borda = _portfolio_borda(ds, core, matrix) if tabular else None
    files: dict[str, str] = {}
    with _stage("serialize"):
        if tabular:
            tables = {
                "borda": _borda_table(matrix),
                "oracle": _oracle_table(
                    [(Path(cfg.data).stem, len(ds.participant_ids), len(ds.solvers), oracle)]
                ),
                "mincover": _mincover_table(ds, core),
                "tradeoff": _tradeoff_table(curve),
                "thresholds": _thresholds_table(cfg.levels, reached),
                "shapley": _shapley_table(attribution, matrix, core_borda),
            }
        if "csv" in cfg.formats:
            for name, table in tables.items():
                files[f"{name}.csv"] = _render("csv", table)
        if "text" in cfg.formats:
            files["report.txt"] = _text_report(
                cfg, ds, matrix, oracle, coverage.unsolvable, solution, attribution, tables
            )
        if "json" in cfg.formats:
            files["exact.json"] = _json_sidecar(
                cfg, ds, matrix, oracle, solution, curve, reached, attribution
            )
    return files


def _text_report(cfg, ds, matrix, oracle, unsolvable, solution, attribution, tables) -> str:
    _, _, _, ratio, percent = tables["oracle"][1][0]
    n_solvers = len(matrix.totals)
    mode_note = {
        "exact": "weighted average over coalitions",
        "sum": "unweighted sum over coalitions",
        "sampled": f"sampled over {attribution.sample_count} permutations, seed {cfg.seed}",
    }[cfg.mode]
    sections = [
        f"dataset: {cfg.data}\n"
        f"scenario: {cfg.scenario}\n"
        f"solvers: {len(ds.solver_ids)} ({len(ds.participant_ids)} participants)\n"
        f"instances: {len(ds.instance_ids)}\n"
        f"ingestion warnings: {len(ds.warnings)}\n",
        "participant-oracle vs oracle\n"
        + align_table(
            ("ratio", "percent", "tied_unsolved"), [[ratio, percent, str(oracle.tied_unsolved)]]
        ),
        "borda ranking\n" + _render("text", tables["borda"]),
        "minimum oracle-equivalent portfolio\n"
        f"size {solution.size} of {n_solvers} "
        f"({fmt_pct(Fraction(solution.size, n_solvers))}), "
        f"optima {len(solution.portfolios)}"
        + (" (cap reached)" if solution.cap_reached else "")
        + f", unique {'yes' if solution.is_unique else 'no'}, "
        f"uncoverable instances {len(unsolvable)}\n"
        + _render("text", tables["mincover"]),
        "size/performance trade-off\n"
        + _render("text", tables["tradeoff"], tables["thresholds"]),
        f"solver attribution ({mode_note})\n" + _render("text", tables["shapley"]),
    ]
    return "\n".join(sections)


def _json_sidecar(cfg, ds, matrix, oracle, solution, curve, reached, attribution) -> str:
    import json  # here alone: a run that writes no sidecar never loads it

    payload = {
        "dataset": {
            "path": cfg.data,
            "scenario": cfg.scenario,
            "solvers": len(ds.solver_ids),
            "participants": len(ds.participant_ids),
            "instances": len(ds.instance_ids),
        },
        "oracle": {
            "numerator": frac_str(oracle.numerator),
            "denominator": frac_str(oracle.denominator),
            "value": frac_str(oracle.value),
            "tied_unsolved": oracle.tied_unsolved,
        },
        "borda": {
            "totals": {sid: frac_str(v) for sid, v in sorted(matrix.totals.items())},
            "averages": {sid: frac_str(v) for sid, v in sorted(matrix.averages.items())},
        },
        "mincover": {
            "size": solution.size,
            "unique": solution.is_unique,
            "cap_reached": solution.cap_reached,
            "optima": [list(p) for p in solution.portfolios],
            "epsilon": frac_str(cfg.epsilon),
        },
        "tradeoff": {
            "search_space": list(curve.search_space),
            "baseline": list(curve.baseline),
            "entries": [
                {
                    "k": e.k,
                    "subset": list(e.subset),
                    "numerator": frac_str(e.ratio.numerator),
                    "denominator": frac_str(e.ratio.denominator),
                    "value": frac_str(e.value),
                }
                for e in curve.entries
            ],
            "thresholds": {
                frac_str(level): reached.get(level) for level in cfg.levels
            },
        },
        "attribution": {
            "mode": attribution.mode.value,
            "samples": attribution.sample_count,
            "values": {
                sid: frac_str(v) if isinstance(v, Fraction) else v
                for sid, v in sorted(attribution.values.items())
            },
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_report(args) -> None:
    files = run_pipeline(_config(args))

    out_dir = Path(args.out)
    created: list[Path] = []  # directories this run makes, deepest first
    written: list[Path] = []
    with _stage("write"):
        try:
            for directory in (out_dir, *out_dir.parents):
                if directory.exists():
                    break
                created.append(directory)
            out_dir.mkdir(parents=True, exist_ok=True)
            for name in sorted(files):
                path = out_dir / name
                path.write_text(files[name], encoding="utf-8")
                written.append(path)
        except OSError:
            for path in written:
                path.unlink(missing_ok=True)
            for directory in created:
                with contextlib.suppress(OSError):  # never made, or no longer empty: left as it is
                    directory.rmdir()
            raise
    summary = f"wrote {len(written)} files to {out_dir}\n"
    try:
        sys.stdout.write(summary)
    except UnicodeEncodeError as exc:  # escaped as on stderr: the bundle is already written
        sys.stdout.write(summary.encode(exc.encoding, "backslashreplace").decode(exc.encoding))


# ---------------------------------------------------------------------------
# argument parsing


# Each flag's argparse keywords. A ReportConfig option's flag has no default, so an option
# left off keeps its class attribute (``_config``), which ends the flag's help.
_FLAGS = {
    "--data": dict(required=True, help="canonical dataset file"),
    "--out": dict(help="output file (default: stdout)"),
    "--format": dict(choices=("text", "csv"), default="text"),
    "--scenario": dict(choices=SCENARIOS, help="solvers to analyse"),
    "--epsilon": dict(help="time-tie tolerance in seconds"),
    "--cap": dict(type=int, help="max optima to enumerate"),
    "--space": dict(choices=("cover", "full"), default="cover"),
    "--portfolio": dict(choices=("cover", "full"), default="cover"),
    "--mode": dict(choices=MODES, help="Shapley value computation"),
    "--samples": dict(type=int, help="sampled permutations"),
    "--seed": dict(type=int, help="sampling seed"),
    "--levels": dict(help="ascending oracle-ratio thresholds, comma-separated"),
    "--formats": dict(help="bundle formats, comma-separated"),
    "--delimiter": dict(default=","),
    "--mapping": dict(help="JSON column-mapping config"),
}
_COMMON = ("--data", "--out", "--format", "--scenario")
_COVER = ("--epsilon", "--cap")

# Each subcommand's function, help and flags, in --help order; a (flag, keywords)
# pair overrides some of that flag's keywords.
_COMMANDS = {
    "ingest": (cmd_ingest, "validate and canonicalize a dataset", ("--data", "--out", "--delimiter")),
    "convert": (cmd_convert, "adapt an external results table",
                (("--data", dict(help="external results table")), "--out", "--mapping")),
    "borda": (cmd_borda, "pairwise-score ranking table", _COMMON),
    "oracle": (cmd_oracle, "participant-oracle vs oracle ratio",
               (("--data", dict(nargs="+", help="canonical dataset files")), "--out", "--format")),
    "mincover": (cmd_mincover, "minimum oracle-equivalent portfolios", (*_COMMON, *_COVER)),
    "tradeoff": (cmd_tradeoff, "best subset per portfolio size",
                 (*_COMMON, *_COVER, "--space", "--levels")),
    "shapley": (cmd_shapley, "per-solver contribution values",
                (*_COMMON, *_COVER, "--portfolio", "--mode", "--samples", "--seed")),
    "report": (cmd_report, "run the full pipeline into a bundle",
               ("--data", ("--out", dict(required=True, help="output directory")), "--scenario",
                *_COVER, "--mode", "--samples", "--seed", "--levels", "--formats")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portview",
        description="Portfolio-viewpoint analysis of solver competition results.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, override in ((f, {}) if isinstance(f, str) else f for f in flags):
            keywords = {**_FLAGS[flag], **override}
            if flag[2:] in ReportConfig.__annotations__:  # the default, as it would be typed
                value = getattr(ReportConfig, flag[2:])
                text = ",".join(v if isinstance(v, str) else format_rational(v)
                                for v in (value if isinstance(value, tuple) else (value,)))
                keywords["help"] += f" (default: {text})".replace("%", "%%")
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    render.verbose = args.verbose
    try:
        args.func(args)
    except StageError as exc:
        print(f"error at stage {exc.stage}: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
