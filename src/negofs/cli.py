"""Benchmark harness: repeated permuted runs with mistake/time aggregation.

Algorithms are named ``single:<VARIANT>`` for a lone learner, ``BANOFS``
for two-party negotiation (a perceptron-truncation learner against the
random-mask learner), ``MANOFS`` for the full roster negotiating the whole
stream, and ``MOANOFS`` for the two-level pipeline with trust election.

Each run r is built by ``system.run_single`` (a lone learner) or
``system.run_moanofs`` with seed ``base*1000003 + r``; this module only
dispatches it and reports its mistake and instance counts and the CPU time
(``time.process_time``) of the whole run: permutation, learner set-up, steps
and merges.
``--no-timing`` freezes all time measurements at zero so output files are
byte-reproducible. Every run executes in the calling process, one after
another.
"""

from __future__ import annotations

import argparse
import csv
import io
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .data import Dataset, SyntheticSpec, budget, generate_synthetic, load_sparse_text
from .learners import VARIANTS, LearnerConfig
from .negotiation import MIN_ERROR, MIN_UTILITY
from .system import SystemConfig, run_moanofs, run_single
from .trust import TrustParams
from .utility import IssueWeightProfile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3

# Learner line-up used by the negotiated systems.
DEFAULT_ROSTER = ("PETRUN", "ROMMA", "ALMA", "OGD", "PA", "SOP", "CW", "AROW", "SCW")
BANOFS_ROSTER = ("PETRUN", "RAND")

# Every negotiated system runs through run_moanofs; this maps its name to
# its SystemConfig, derived from the template that one run's options hold.
SYSTEMS = {
    "BANOFS": lambda opts: replace(
        opts.system,
        roster=[replace(opts.system.roster[0], variant=v) for v in BANOFS_ROSTER],
        k=len(BANOFS_ROSTER),
        conflict_rule=MIN_ERROR,
    ),
    "MANOFS": lambda opts: replace(opts.system, conflict_rule=MIN_ERROR),
    "MOANOFS": lambda opts: replace(opts.system, k=opts.k),
}
CSV_HEADER = "algorithm,dataset,B,runs,mean_mistakes,std_mistakes,mean_error_rate,mean_time_s"


class ConfigError(ValueError):
    pass


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    dataset: str
    B: int
    runs: int
    mean_mistakes: float
    std_mistakes: float
    mean_error_rate: float
    mean_time_s: float


def derive_run_seed(base_seed: int, run_index: int) -> int:
    return base_seed * 1000003 + run_index


def valid_algorithm_names() -> list[str]:
    return [f"single:{v}" for v in VARIANTS] + list(SYSTEMS)


def parse_algorithms(raw: str) -> list[str]:
    names = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        upper = token.upper()
        name = f"single:{upper.split(':', 1)[1]}" if upper.startswith("SINGLE:") else upper
        if name not in valid_algorithm_names():
            raise ConfigError(
                f"unknown algorithm {token!r}; valid names: "
                + ", ".join(valid_algorithm_names())
            )
        if name in names:
            raise ConfigError(f"algorithm {name} is listed twice")
        names.append(name)
    if not names:
        raise ConfigError("at least one algorithm is required")
    return names


def parse_synthetic(raw: str, default_seed: int | None) -> SyntheticSpec:
    """Parse a --synthetic spec; with default_seed None, a seed key is refused."""
    keys = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if not value:
            raise ConfigError(f"synthetic spec entry {part!r} is not key=value")
        key = key.strip()
        if key in keys:
            raise ConfigError(f"synthetic spec key {key!r} is given twice")
        keys[key] = value.strip()
    if default_seed is None and "seed" in keys:
        raise ConfigError("recover takes each run's data seed from --seed; "
                          "drop seed= from --synthetic")
    try:
        spec = SyntheticSpec(
            d=int(keys.pop("d")),
            n_samples=int(keys.pop("n")),
            n_relevant=int(keys.pop("relevant")),
            density=float(keys.pop("density", 0.1)),
            label_noise=float(keys.pop("noise", 0.0)),
            seed=int(keys.pop("seed", default_seed or 0)),
        )
    except KeyError as missing:
        raise ConfigError(f"synthetic spec is missing {missing}") from None
    except ValueError as bad:
        raise ConfigError(f"bad synthetic spec: {bad}") from None
    if keys:
        raise ConfigError(f"unknown synthetic spec keys: {', '.join(sorted(keys))}")
    return spec


def parse_roster(raw: str) -> tuple[str, ...]:
    variants = []
    for token in raw.split(","):
        token = token.strip().upper()
        if not token:
            continue
        if token not in VARIANTS:
            raise ConfigError(
                f"unknown roster variant {token!r}; valid: {', '.join(VARIANTS)}"
            )
        variants.append(token)
    if len(variants) < 2:
        raise ConfigError("the roster needs at least 2 variants")
    return tuple(variants)


def parse_issue_weights(raw: str) -> IssueWeightProfile:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigError("--issue-weights expects three comma-separated reals")
    try:
        t, e, c = (float(p) for p in parts)
        return IssueWeightProfile(t, e, c)
    except ValueError as bad:
        raise ConfigError(f"bad issue weights: {bad}") from None


@dataclass(frozen=True)
class RunOptions:
    """Everything ``execute_run`` needs to execute a single (algorithm, run).

    ``system`` is the template every run's config derives from: the whole
    roster negotiating (k = roster size) under the requested conflict rule.
    ``k`` is the number MOANOFS elects; only MOANOFS reads it.
    """

    system: SystemConfig
    k: int


@dataclass(frozen=True)
class RunOutcome:
    algorithm: str
    mistakes: int
    instances: int
    cpu_seconds: float


def execute_run(algorithm: str, dataset: Dataset, run_seed: int, opts: RunOptions) -> RunOutcome:
    """One algorithm on one permuted pass; CPU time covers just the run."""
    cpu_start = time.process_time()
    if algorithm.startswith("single:"):
        config = replace(opts.system.roster[0], variant=algorithm.split(":", 1)[1])
        report = run_single(dataset, config, replace(opts.system, seed=run_seed))
    elif algorithm in SYSTEMS:
        report = run_moanofs(dataset, replace(SYSTEMS[algorithm](opts), seed=run_seed))
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    cpu = time.process_time() - cpu_start if opts.system.measure_time else 0.0
    return RunOutcome(algorithm, report.system_mistakes, report.system_instances, cpu)


def run_experiment(
    algorithms: list[str],
    dataset: Dataset,
    runs: int,
    base_seed: int,
    opts: RunOptions,
) -> tuple[list[ResultRow], dict[str, list[RunOutcome]]]:
    B = budget(dataset.dimension, opts.system.budget_fraction)
    rows = []
    by_algorithm: dict[str, list[RunOutcome]] = {}
    for algorithm in algorithms:
        results = by_algorithm[algorithm] = [
            execute_run(algorithm, dataset, derive_run_seed(base_seed, r), opts)
            for r in range(1, runs + 1)
        ]
        mistake_counts = [float(o.mistakes) for o in results]
        rows.append(
            ResultRow(
                algorithm=algorithm,
                dataset=dataset.name,
                B=B,
                runs=runs,
                mean_mistakes=statistics.fmean(mistake_counts),
                std_mistakes=statistics.stdev(mistake_counts) if runs > 1 else 0.0,
                mean_error_rate=statistics.fmean(o.mistakes / o.instances for o in results),
                mean_time_s=statistics.fmean(o.cpu_seconds for o in results),
            )
        )
    return rows, by_algorithm


def format_csv(rows: list[ResultRow]) -> str:
    """The header and one line per row; a dataset name holding , or " is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(
        (row.algorithm, row.dataset, row.B, row.runs, f"{row.mean_mistakes:.6f}",
         f"{row.std_mistakes:.6f}", f"{row.mean_error_rate:.6f}", f"{row.mean_time_s:.6f}")
        for row in rows
    )
    return out.getvalue()


def format_markdown(rows: list[ResultRow]) -> str:
    """Comparison table; the minimum-error row(s) are flagged in bold."""
    best = min(row.mean_error_rate for row in rows)
    dataset = rows[0].dataset.replace("|", r"\|").replace("\r", " ").replace("\n", " ")
    lines = [
        f"| Algorithm | {dataset} (B={rows[0].B}, runs={rows[0].runs}) | Error rate |",
        "| --- | --- | --- |",
    ]
    for row in rows:
        name = f"**{row.algorithm}**" if row.mean_error_rate == best else row.algorithm
        cell = f"{row.mean_mistakes:.1f} ± {row.std_mistakes:.1f} ({row.mean_time_s:.3f}s)"
        lines.append(f"| {name} | {cell} | {row.mean_error_rate:.6f} |")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    """Write text to the --output path, or to stdout without one."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write --output {output}: {err.strerror or err}") from None


def load_dataset(args) -> Dataset:
    if bool(args.dataset) == bool(args.synthetic):
        raise ConfigError("exactly one of --dataset and --synthetic is required")
    if args.synthetic:
        if args.dim is not None:
            raise ConfigError("--dim applies to --dataset only")
        spec = parse_synthetic(args.synthetic, args.seed)
        dataset, _ = generate_synthetic(spec)
        return dataset
    try:
        return load_sparse_text(args.dataset, dimension=args.dim)
    except OSError as err:
        raise DatasetError(f"cannot read dataset: {err}") from err
    except ValueError as err:
        raise DatasetError(f"cannot parse dataset: {err}") from err


def options_from(args) -> RunOptions:
    """Check every flag but --k and build the run template from them."""
    if args.output and not Path(args.output).parent.is_dir():
        raise ConfigError(f"--output {args.output}: no directory {Path(args.output).parent}")
    roster = [
        LearnerConfig(
            v,
            eta=args.eta,
            lam=args.lam,
            r=args.r,
            confidence=args.confidence,
            C=args.C,
            alpha_margin=args.alpha_margin,
        )
        for v in parse_roster(args.roster)
    ]
    system = SystemConfig(
        roster=roster,
        k=len(roster),
        budget_fraction=args.budget_fraction,
        t_max=args.tmax,
        calibration_fraction=args.calibration,
        issue_weights=parse_issue_weights(args.issue_weights),
        trust_params=TrustParams(c=args.trust_c),
        conflict_rule=MIN_UTILITY if args.conflict_rule == "min-utility" else MIN_ERROR,
        epsilon=args.epsilon,
        measure_time=not args.no_timing,
    )
    return RunOptions(system, args.k)


def benchmark_options(args) -> tuple[list[str], RunOptions]:
    """The algorithms and run template of run and compare, checked before any data is read."""
    algorithms = parse_algorithms(args.algorithms)
    if args.conflict_rule == "min-utility" and "MOANOFS" not in algorithms:
        raise ConfigError("--conflict-rule min-utility applies to MOANOFS only; "
                          "add MOANOFS to --algorithms")
    opts = options_from(args)
    for algorithm in algorithms:  # build each system's config once: a bad --k fails here
        if algorithm in SYSTEMS:
            SYSTEMS[algorithm](opts)
    return algorithms, opts


def cmd_run(args) -> int:
    algorithms, opts = benchmark_options(args)
    dataset = load_dataset(args)
    rows, _ = run_experiment(algorithms, dataset, args.runs, args.seed, opts)
    text = format_markdown(rows) if args.format == "markdown" else format_csv(rows)
    _emit(text, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    algorithms, opts = benchmark_options(args)
    if len(algorithms) < 2:
        raise ConfigError("compare needs at least 2 algorithms")
    dataset = load_dataset(args)
    rows, _ = run_experiment(algorithms, dataset, args.runs, args.seed, opts)
    sys.stdout.write(format_markdown(rows) if args.format != "csv" else format_csv(rows))
    if args.output:
        _emit(format_csv(rows), args.output)
    return EXIT_OK


def cmd_recover(args) -> int:
    base_spec = parse_synthetic(args.synthetic, None)
    system = SYSTEMS["MOANOFS"](options_from(args))

    lines = ["run,seed,precision,recall,selected,planted"]
    precisions, recalls = [], []
    for r in range(1, args.runs + 1):
        seed = derive_run_seed(args.seed, r)
        spec = replace(base_spec, seed=seed)
        dataset, planted = generate_synthetic(spec)
        report = run_moanofs(dataset, replace(system, seed=seed))
        selected = set(report.merged.indices())
        hit = len(selected & planted)
        precision = hit / len(selected) if selected else 0.0
        recall = hit / len(planted) if planted else 0.0
        precisions.append(precision)
        recalls.append(recall)
        lines.append(
            f"{r},{seed},{precision:.6f},{recall:.6f},{len(selected)},{len(planted)}"
        )

    text = "\n".join(lines) + "\n"
    summary = (
        f"mean_precision={statistics.fmean(precisions):.6f} "
        f"mean_recall={statistics.fmean(recalls):.6f}\n"
    )
    _emit(text, args.output)  # without --output the table precedes the summary
    sys.stdout.write(summary)
    return EXIT_OK


def positive_int(raw: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negofs-bench",
        description="Benchmark negotiating online feature selection systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synthetic_help = "synthetic spec, e.g. d=200,relevant=10,n=5000,density=0.1,noise=0.05"

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-fraction", type=float, default=SystemConfig.budget_fraction)
        p.add_argument("--runs", type=positive_int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--k", type=int, default=3,
                       help="learners elected into the second level (MOANOFS)")
        p.add_argument("--roster", default=",".join(DEFAULT_ROSTER),
                       help="variants negotiating in MANOFS/MOANOFS")
        p.add_argument("--tmax", type=positive_int, default=SystemConfig.t_max,
                       help="chunks per stream: trials per level, and a single run's chunks")
        p.add_argument("--calibration", type=float, default=SystemConfig.calibration_fraction,
                       help="fraction of the stream used for trust election")
        p.add_argument("--issue-weights",
                       default=",".join(map(str, IssueWeightProfile().as_tuple())),
                       help="trust,error,cost-time weights summing to 1")
        p.add_argument("--conflict-rule", choices=("min-error", "min-utility"),
                       default="min-error",
                       help="conflict rule for MOANOFS; min-utility needs MOANOFS among "
                            "--algorithms (BANOFS/MANOFS always use min-error)")
        p.add_argument("--trust-c", type=float, default=TrustParams.c,
                       help=f"trust reaction weight, in (0, {1.0 - TrustParams.threshold}]")
        p.add_argument("--epsilon", type=float, default=SystemConfig.epsilon,
                       help="feature-trust increment; default 1/participants")
        p.add_argument("--eta", type=float, default=LearnerConfig.eta)
        p.add_argument("--lambda", dest="lam", type=float, default=LearnerConfig.lam)
        p.add_argument("--r", type=float, default=LearnerConfig.r)
        p.add_argument("--C", type=float, default=LearnerConfig.C)
        p.add_argument("--confidence", type=float, default=LearnerConfig.confidence)
        p.add_argument("--alpha-margin", type=float, default=LearnerConfig.alpha_margin)
        p.add_argument("--output", default=None, help="write results to this path")
        p.add_argument("--no-timing", action="store_true",
                       help="freeze all time measurements at zero (reproducible output)")

    def benchmark(p: argparse.ArgumentParser) -> None:
        # run and compare: a data source and the algorithms to run on it
        p.add_argument("--dataset", help="sparse text dataset path")
        p.add_argument("--synthetic", help=synthetic_help)
        p.add_argument("--algorithms", default="MOANOFS",
                       help="comma-separated list, e.g. single:PETRUN,MANOFS,MOANOFS")
        p.add_argument("--dim", type=positive_int, default=None,
                       help="override the inferred dimension of --dataset")
        p.add_argument("--format", choices=("csv", "markdown"), default=None)
        common(p)

    run_p = sub.add_parser("run", help="run algorithms and emit a CSV of aggregates")
    benchmark(run_p)
    run_p.set_defaults(func=cmd_run, format="csv")

    cmp_p = sub.add_parser("compare", help="compare algorithms in a markdown table")
    benchmark(cmp_p)
    cmp_p.set_defaults(func=cmd_compare, format="markdown")

    rec_p = sub.add_parser("recover", help="score recovery of planted features by MOANOFS")
    rec_p.add_argument("--synthetic", required=True, help=synthetic_help)
    common(rec_p)
    rec_p.set_defaults(func=cmd_recover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DatasetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATASET
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
