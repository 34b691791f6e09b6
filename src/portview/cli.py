"""Command-line front end tying the analyses into one reporting pipeline.

Subcommands: ingest, borda, oracle, mincover, tradeoff, shapley, report,
convert. Exit codes: 0 on success, 1 on validation errors (bad data, bad
usage), 2 on internal errors. ``report`` runs the whole pipeline (ingest,
scenario filter, Borda, oracle ratio, minimum cover, trade-off curve with the
cover as search space, attribution over the cover) and writes one
deterministic bundle: delimited tables, an aligned-text report, and a JSON
sidecar carrying every number as an exact rational.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .convert import convert_table, load_mapping
from .mincover import build_coverage, min_cover
from .pairscore import ScoreMatrix, borda
from .portfolio import perf
from .render import align_table, csv_text, fmt_pct, fmt_sig, frac_str
from .runstore import (
    DataError,
    Dataset,
    filter_solvers,
    format_rational,
    ingest,
    parse_rational,
    write_canonical,
)
from .shapley import ShapleyMode, shapley_exact, shapley_sampled
from .tradeoff import best_subsets, thresholds

log = logging.getLogger(__name__)

SCENARIOS = ("participants", "all")
DEFAULT_LEVELS = (Fraction(4, 5), Fraction(9, 10), Fraction(19, 20))


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{cause}")
        self.stage = stage


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DataError as exc:
        raise StageError(name, exc) from exc


def _scenario_solvers(ds: Dataset, scenario: str) -> tuple[str, ...]:
    if scenario == "participants":
        chosen = ds.participant_ids
        if not chosen:
            raise DataError("scenario 'participants' selected but no solver is flagged as one")
        return chosen
    return ds.solver_ids


def _scenario_dataset(ds: Dataset, scenario: str) -> Dataset:
    return filter_solvers(ds, _scenario_solvers(ds, scenario))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


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
    """One row per (label, dataset, participant-oracle ratio) triple."""
    rows = [
        [label, str(len(ds.participant_ids)), str(len(ds.solver_ids)),
         fmt_sig(ratio.value), fmt_pct(ratio.value)]
        for label, ds, ratio in results
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


def cmd_ingest(args) -> int:
    ds = ingest(args.data, delimiter=args.delimiter)
    _print_warnings(ds.warnings)
    _emit(write_canonical(ds), args.out)
    return 0


def cmd_convert(args) -> int:
    text, warnings = convert_table(args.data, load_mapping(args.mapping) if args.mapping else None)
    _print_warnings(warnings)
    _emit(text, args.out)
    return 0


def cmd_borda(args) -> int:
    ds = _scenario_dataset(ingest(args.data), args.scenario)
    _emit(_render(args.format, _borda_table(borda(ds))), args.out)
    return 0


def cmd_oracle(args) -> int:
    results = []
    for path in args.data:
        ds = ingest(path)
        results.append((Path(path).stem, ds, perf(ds, ds.participant_ids, ds.solver_ids)))
    _emit(_render(args.format, _oracle_table(results)), args.out)
    for label, _, ratio in results:
        if ratio.tied_unsolved:
            print(
                f"note: {label}: {ratio.tied_unsolved} instance(s) unsolved by both "
                "oracles scored as symmetric ties",
                file=sys.stderr,
            )
    return 0


def _cover_for(ds: Dataset, solvers: tuple[str, ...], epsilon: Fraction, cap: int):
    coverage = build_coverage(ds, solvers, epsilon)
    return coverage, min_cover(coverage, cap)


def cmd_mincover(args) -> int:
    ds = ingest(args.data)
    solvers = _scenario_solvers(ds, args.scenario)
    epsilon = parse_rational(args.epsilon, what="epsilon")
    coverage, solution = _cover_for(ds, solvers, epsilon, args.cap)
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
    return 0


def _cover_or_full(args, ds: Dataset, solvers: tuple[str, ...], choice: str):
    """The first minimum cover of ``solvers`` for choice ``cover``, else all of them."""
    epsilon = parse_rational(args.epsilon, what="epsilon")
    if choice == "full":
        return solvers
    _, solution = _cover_for(ds, solvers, epsilon, args.cap)
    return solution.portfolios[0]


def cmd_tradeoff(args) -> int:
    ds = ingest(args.data)
    solvers = _scenario_solvers(ds, args.scenario)
    curve = best_subsets(ds, _cover_or_full(args, ds, solvers, args.space), solvers)
    levels = _parse_levels(args.levels)
    reached = thresholds(curve, levels)
    text = _render(args.format, _tradeoff_table(curve), _thresholds_table(levels, reached))
    _emit(text, args.out)
    return 0


def cmd_shapley(args) -> int:
    ds = ingest(args.data)
    solvers = _scenario_solvers(ds, args.scenario)
    portfolio = _cover_or_full(args, ds, solvers, args.portfolio)
    report = _attribution(ds, portfolio, solvers, args.mode, args.samples, args.seed)
    table = _shapley_table(
        report, borda(filter_solvers(ds, solvers)), borda(filter_solvers(ds, portfolio))
    )
    _emit(_render(args.format, table), args.out)
    return 0


def _attribution(ds, portfolio, baseline, mode: str, samples: int, seed: int):
    if ShapleyMode(mode) is ShapleyMode.SAMPLED:
        return shapley_sampled(ds, portfolio, baseline, samples, seed)
    return shapley_exact(ds, portfolio, baseline, ShapleyMode(mode))


def _fmt_value(value) -> str:
    if isinstance(value, Fraction):
        return fmt_sig(value)
    return f"{value:.6g}"


def _parse_levels(text: str) -> list[Fraction]:
    levels = [parse_rational(part, what="level") for part in text.split(",") if part.strip()]
    if not levels:
        raise DataError("no threshold levels given")
    if levels != sorted(levels):
        raise DataError("threshold levels must be ascending")
    return levels


# ---------------------------------------------------------------------------
# full pipeline


@dataclass
class ReportConfig:
    data: str
    out_dir: str
    scenario: str = "participants"
    epsilon: Fraction = Fraction(0)
    cap: int = 1000
    mode: str = "exact"
    samples: int = 10000
    seed: int = 0
    levels: tuple[Fraction, ...] = DEFAULT_LEVELS
    formats: tuple[str, ...] = ("csv", "text", "json")


def run_pipeline(cfg: ReportConfig) -> dict[str, str]:
    """Execute all stages and return the report bundle as {filename: content}.

    Nothing is written here, so a failing stage leaves no partial output; any
    stage failure is re-raised as a StageError naming the stage.
    """
    ds = _stage("ingest", ingest, cfg.data)
    scenario_ds = _stage("filter", _scenario_dataset, ds, cfg.scenario)
    solvers = scenario_ds.solver_ids

    matrix = _stage("borda", borda, scenario_ds)
    oracle = _stage("oracle", perf, ds, ds.participant_ids, ds.solver_ids)
    coverage, solution = _stage("mincover", _cover_for, ds, solvers, cfg.epsilon, cfg.cap)
    core = solution.portfolios[0]
    curve = _stage("tradeoff", best_subsets, ds, core, solvers)
    reached = _stage("tradeoff", thresholds, curve, list(cfg.levels))
    attribution = _stage(
        "shapley", _attribution, ds, core, solvers, cfg.mode, cfg.samples, cfg.seed
    )

    files: dict[str, str] = {}
    if "csv" in cfg.formats or "text" in cfg.formats:
        core_borda = _stage("shapley", lambda: borda(filter_solvers(ds, core)))
        tables = {
            "borda": _borda_table(matrix),
            "oracle": _oracle_table([(Path(cfg.data).stem, ds, oracle)]),
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


def cmd_report(args) -> int:
    cfg = ReportConfig(
        data=args.data,
        out_dir=args.out,
        scenario=args.scenario,
        epsilon=parse_rational(args.epsilon, what="epsilon"),
        cap=args.cap,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        levels=tuple(_parse_levels(args.levels)),
        formats=tuple(args.formats.split(",")),
    )
    for fmt in cfg.formats:
        if fmt not in ("csv", "text", "json"):
            raise DataError(f"unknown output format {fmt!r}")
    files = run_pipeline(cfg)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name in sorted(files):
            path = out_dir / name
            path.write_text(files[name], encoding="utf-8")
            written.append(path)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        raise StageError("write", exc) from exc
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# Flags that several subcommands take; report defaults come from ReportConfig.
_SHARED_FLAGS = {
    "--format": dict(choices=("text", "csv"), default="text"),
    "--scenario": dict(choices=SCENARIOS, default=ReportConfig.scenario),
    "--epsilon": dict(
        default=format_rational(ReportConfig.epsilon), help="time-tie tolerance in seconds"
    ),
    "--cap": dict(type=int, default=ReportConfig.cap, help="max optima to enumerate"),
    "--mode": dict(choices=[m.value for m in ShapleyMode], default=ReportConfig.mode),
    "--samples": dict(type=int, default=ReportConfig.samples),
    "--seed": dict(type=int, default=ReportConfig.seed),
    "--levels": dict(default=",".join(map(format_rational, DEFAULT_LEVELS))),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """``--data``, ``--out``, ``--format`` and ``--scenario``, then the given shared flags."""
    p.add_argument("--data", required=True, help="canonical dataset file")
    p.add_argument("--out", help="output file (default: stdout)")
    _add_shared(p, "--format", "--scenario", *flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portview",
        description="Portfolio-viewpoint analysis of solver competition results.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--delimiter", default=",")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("convert", help="adapt an external results table")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--mapping", help="JSON column-mapping config")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("borda", help="pairwise-score ranking table")
    _add_common(p)
    p.set_defaults(func=cmd_borda)

    p = sub.add_parser("oracle", help="participant-oracle vs oracle ratio")
    p.add_argument("--data", required=True, nargs="+")
    p.add_argument("--out")
    _add_shared(p, "--format")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("mincover", help="minimum oracle-equivalent portfolios")
    _add_common(p, "--epsilon", "--cap")
    p.set_defaults(func=cmd_mincover)

    p = sub.add_parser("tradeoff", help="best subset per portfolio size")
    _add_common(p, "--epsilon", "--cap")
    p.add_argument("--space", choices=("cover", "full"), default="cover")
    _add_shared(p, "--levels")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("shapley", help="per-solver contribution values")
    _add_common(p, "--epsilon", "--cap")
    p.add_argument("--portfolio", choices=("cover", "full"), default="cover")
    _add_shared(p, "--mode", "--samples", "--seed")
    p.set_defaults(func=cmd_shapley)

    p = sub.add_parser("report", help="run the full pipeline into a bundle")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_shared(p, "--scenario", "--epsilon", "--cap", "--mode", "--samples", "--seed", "--levels")
    p.add_argument("--formats", default=",".join(ReportConfig.formats))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING, format="%(message)s"
    )
    try:
        return args.func(args) or 0
    except StageError as exc:
        print(f"error at stage {exc.stage}: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
