"""Benchmark harness: repeated permuted runs with mistake/time aggregation.

Algorithms are named ``single:<VARIANT>`` for a lone learner, ``BANOFS``
for two-party negotiation (a perceptron-truncation learner against the
random-mask learner), ``MANOFS`` for the full roster negotiating the whole
stream, and ``MOANOFS`` for the two-level pipeline with trust election.

Each run r permutes the dataset with seed ``base*1000003 + r`` and reports
the mistake count, error rate and the CPU time spent in update/merge code.
``--no-timing`` freezes all time measurements at zero so output files are
byte-reproducible. ``NEGOFS_THREADS`` caps how many runs execute in
parallel worker processes.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .data import Dataset, SyntheticSpec, budget, generate_synthetic, load_sparse_text, permute, stream_of
from .learners import VARIANTS, Learner, LearnerConfig
from .negotiation import MIN_ERROR, MIN_UTILITY
from .system import SystemConfig, run_moanofs
from .trust import TrustParams
from .utility import IssueWeightProfile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3

# Learner line-up used by the negotiated systems.
DEFAULT_ROSTER = ("PETRUN", "ROMMA", "ALMA", "OGD", "PA", "SOP", "CW", "AROW", "SCW")
BANOFS_ROSTER = ("PETRUN", "RAND")

# Every negotiated system runs through run_moanofs; this maps its name to
# (roster, k, conflict rule) for one run's options.
SYSTEMS = {
    "BANOFS": lambda opts: (BANOFS_ROSTER, len(BANOFS_ROSTER), MIN_ERROR),
    "MANOFS": lambda opts: (opts.roster, len(opts.roster), MIN_ERROR),
    "MOANOFS": lambda opts: (opts.roster, opts.k, opts.conflict_rule),
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

    def csv(self) -> str:
        return (
            f"{self.algorithm},{self.dataset},{self.B},{self.runs},"
            f"{self.mean_mistakes:.6f},{self.std_mistakes:.6f},"
            f"{self.mean_error_rate:.6f},{self.mean_time_s:.6f}"
        )


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
        if upper.startswith("SINGLE:"):
            variant = upper.split(":", 1)[1]
            if variant not in VARIANTS:
                raise ConfigError(
                    f"unknown algorithm {token!r}; valid names: "
                    + ", ".join(valid_algorithm_names())
                )
            names.append(f"single:{variant}")
        elif upper in SYSTEMS:
            names.append(upper)
        else:
            raise ConfigError(
                f"unknown algorithm {token!r}; valid names: "
                + ", ".join(valid_algorithm_names())
            )
    if not names:
        raise ConfigError("at least one algorithm is required")
    return names


def parse_synthetic(raw: str, default_seed: int) -> SyntheticSpec:
    keys = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if not value:
            raise ConfigError(f"synthetic spec entry {part!r} is not key=value")
        keys[key.strip()] = value.strip()
    try:
        spec = SyntheticSpec(
            d=int(keys.pop("d")),
            n_samples=int(keys.pop("n")),
            n_relevant=int(keys.pop("relevant")),
            density=float(keys.pop("density", 0.1)),
            label_noise=float(keys.pop("noise", 0.0)),
            seed=int(keys.pop("seed", default_seed)),
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
    """Everything one worker needs to execute a single (algorithm, run)."""

    budget_fraction: float = 0.1
    k: int = 3
    t_max: int = 10
    calibration: float = 0.2
    issue_weights: IssueWeightProfile = IssueWeightProfile()
    conflict_rule: str = MIN_ERROR
    trust_c: float = 0.5
    epsilon: float | None = None
    eta: float = 0.2
    lam: float = 0.01
    r: float = 1.0
    C: float = 1.0
    confidence: float = 0.7
    alpha_margin: float = 0.9
    timing: bool = True
    roster: tuple[str, ...] = DEFAULT_ROSTER

    def learner_config(self, variant: str, B: int | None = None, seed: int = 0) -> LearnerConfig:
        return LearnerConfig(
            variant=variant,
            B=B,
            eta=self.eta,
            lam=self.lam,
            r=self.r,
            confidence=self.confidence,
            C=self.C,
            alpha_margin=self.alpha_margin,
            seed=seed,
            measure_time=self.timing,
        )

    def trust_params(self) -> TrustParams:
        return TrustParams(c=self.trust_c)

    def system_config(self, algorithm: str, seed: int) -> SystemConfig:
        roster_variants, k, conflict_rule = SYSTEMS[algorithm](self)
        return SystemConfig(
            roster=[self.learner_config(v) for v in roster_variants],
            k=k,
            budget_fraction=self.budget_fraction,
            t_max=self.t_max,
            calibration_fraction=self.calibration,
            issue_weights=self.issue_weights,
            trust_params=self.trust_params(),
            conflict_rule=conflict_rule,
            seed=seed,
            epsilon=self.epsilon,
        )


@dataclass(frozen=True)
class RunOutcome:
    algorithm: str
    run_index: int
    mistakes: int
    instances: int
    error_rate: float
    cpu_seconds: float


def execute_run(algorithm: str, dataset: Dataset, run_seed: int, opts: RunOptions) -> RunOutcome:
    """One algorithm on one permuted pass; CPU time covers just the run."""
    cpu_start = time.process_time()
    if algorithm.startswith("single:"):
        variant = algorithm.split(":", 1)[1]
        B = budget(dataset.dimension, opts.budget_fraction)
        learner = Learner(
            opts.learner_config(variant, B=B, seed=run_seed), dataset.dimension
        )
        for x, y in stream_of(dataset, permute(dataset, run_seed)):
            learner.step(x, y)
        mistakes, instances = learner.mistakes, learner.instances
    elif algorithm in SYSTEMS:
        report = run_moanofs(dataset, opts.system_config(algorithm, run_seed))
        mistakes, instances = report.system_mistakes, report.system_instances
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    cpu = time.process_time() - cpu_start if opts.timing else 0.0
    error_rate = mistakes / instances if instances else 0.0
    return RunOutcome(algorithm, 0, mistakes, instances, error_rate, cpu)


def _run_one(payload) -> RunOutcome:
    algorithm, dataset, run_index, run_seed, opts = payload
    outcome = execute_run(algorithm, dataset, run_seed, opts)
    return replace(outcome, run_index=run_index)


def thread_cap() -> int:
    raw = os.environ.get("NEGOFS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_experiment(
    algorithms: list[str],
    dataset: Dataset,
    runs: int,
    base_seed: int,
    opts: RunOptions,
) -> tuple[list[ResultRow], dict[str, list[RunOutcome]]]:
    payloads = [
        (algorithm, dataset, r, derive_run_seed(base_seed, r), opts)
        for algorithm in algorithms
        for r in range(1, runs + 1)
    ]
    workers = min(thread_cap(), len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, payloads))
    else:
        outcomes = [_run_one(p) for p in payloads]

    by_algorithm: dict[str, list[RunOutcome]] = {a: [] for a in algorithms}
    for outcome in outcomes:
        by_algorithm[outcome.algorithm].append(outcome)
    for results in by_algorithm.values():
        results.sort(key=lambda o: o.run_index)

    B = budget(dataset.dimension, opts.budget_fraction)
    rows = []
    for algorithm in algorithms:
        results = by_algorithm[algorithm]
        mistake_counts = [float(o.mistakes) for o in results]
        rows.append(
            ResultRow(
                algorithm=algorithm,
                dataset=dataset.name,
                B=B,
                runs=runs,
                mean_mistakes=statistics.fmean(mistake_counts),
                std_mistakes=statistics.stdev(mistake_counts) if runs > 1 else 0.0,
                mean_error_rate=statistics.fmean(o.error_rate for o in results),
                mean_time_s=statistics.fmean(o.cpu_seconds for o in results),
            )
        )
    return rows, by_algorithm


def format_csv(rows: list[ResultRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n"


def format_markdown(rows: list[ResultRow]) -> str:
    """Comparison table; the minimum-error row(s) are flagged in bold."""
    best = min(row.mean_error_rate for row in rows)
    lines = [
        f"| Algorithm | {rows[0].dataset} (B={rows[0].B}, runs={rows[0].runs}) | Error rate |",
        "| --- | --- | --- |",
    ]
    for row in rows:
        name = f"**{row.algorithm}**" if row.mean_error_rate == best else row.algorithm
        cell = f"{row.mean_mistakes:.1f} ± {row.std_mistakes:.1f} ({row.mean_time_s:.3f}s)"
        lines.append(f"| {name} | {cell} | {row.mean_error_rate:.6f} |")
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def load_dataset(args) -> Dataset:
    if bool(args.dataset) == bool(args.synthetic):
        raise ConfigError("exactly one of --dataset and --synthetic is required")
    if args.synthetic:
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
    return RunOptions(
        budget_fraction=args.budget_fraction,
        k=args.k,
        t_max=args.tmax,
        calibration=args.calibration,
        issue_weights=parse_issue_weights(args.issue_weights),
        conflict_rule=MIN_UTILITY if args.conflict_rule == "min-utility" else MIN_ERROR,
        trust_c=args.trust_c,
        epsilon=args.epsilon,
        eta=args.eta,
        lam=args.lam,
        r=args.r,
        C=args.C,
        confidence=args.confidence,
        alpha_margin=args.alpha_margin,
        timing=not args.no_timing,
        roster=parse_roster(args.roster),
    )


def cmd_run(args) -> int:
    dataset = load_dataset(args)
    algorithms = parse_algorithms(args.algorithms)
    opts = options_from(args)
    rows, _ = run_experiment(algorithms, dataset, args.runs, args.seed, opts)
    text = format_markdown(rows) if args.format == "markdown" else format_csv(rows)
    _emit(text, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    algorithms = parse_algorithms(args.algorithms)
    if len(algorithms) < 2:
        raise ConfigError("compare needs at least 2 algorithms")
    dataset = load_dataset(args)
    opts = options_from(args)
    rows, _ = run_experiment(algorithms, dataset, args.runs, args.seed, opts)
    sys.stdout.write(format_markdown(rows) if args.format != "csv" else format_csv(rows))
    if args.output:
        Path(args.output).write_text(format_csv(rows), encoding="utf-8")
    return EXIT_OK


def cmd_recover(args) -> int:
    if not args.synthetic:
        raise ConfigError("recover requires --synthetic")
    if parse_algorithms(args.algorithms) != ["MOANOFS"]:
        raise ConfigError(f"recover runs MOANOFS only, got --algorithms {args.algorithms!r}")
    base_spec = parse_synthetic(args.synthetic, args.seed)
    opts = options_from(args)

    lines = ["run,seed,precision,recall,selected,planted"]
    precisions, recalls = [], []
    for r in range(1, args.runs + 1):
        seed = derive_run_seed(args.seed, r)
        spec = replace(base_spec, seed=seed)
        dataset, planted = generate_synthetic(spec)
        report = run_moanofs(dataset, opts.system_config("MOANOFS", seed))
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
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text + summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negofs-bench",
        description="Benchmark negotiating online feature selection systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", help="sparse text dataset path")
        p.add_argument("--synthetic",
                       help="synthetic spec, e.g. d=200,relevant=10,n=5000,density=0.1,noise=0.05")
        p.add_argument("--algorithms", default="MOANOFS",
                       help="comma-separated list, e.g. single:PETRUN,MANOFS,MOANOFS")
        p.add_argument("--budget-fraction", type=float, default=0.1)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--k", type=int, default=3,
                       help="learners elected into the second level (MOANOFS)")
        p.add_argument("--roster", default=",".join(DEFAULT_ROSTER),
                       help="variants negotiating in MANOFS/MOANOFS")
        p.add_argument("--tmax", type=int, default=10, help="negotiation trials")
        p.add_argument("--calibration", type=float, default=0.2,
                       help="fraction of the stream used for trust election")
        p.add_argument("--issue-weights", default="0.2,0.5,0.3",
                       help="trust,error,cost-time weights summing to 1")
        p.add_argument("--conflict-rule", choices=("min-error", "min-utility"),
                       default="min-error",
                       help="conflict rule for MOANOFS (BANOFS/MANOFS always use min-error)")
        p.add_argument("--trust-c", type=float, default=0.5)
        p.add_argument("--epsilon", type=float, default=None,
                       help="feature-trust increment; default 1/participants")
        p.add_argument("--eta", type=float, default=0.2)
        p.add_argument("--lambda", dest="lam", type=float, default=0.01)
        p.add_argument("--r", type=float, default=1.0)
        p.add_argument("--C", type=float, default=1.0)
        p.add_argument("--confidence", type=float, default=0.7)
        p.add_argument("--alpha-margin", type=float, default=0.9)
        p.add_argument("--dim", type=int, default=None,
                       help="override the inferred dataset dimension")
        p.add_argument("--output", default=None, help="write results to this path")
        p.add_argument("--format", choices=("csv", "markdown"), default=None)
        p.add_argument("--no-timing", action="store_true",
                       help="freeze all time measurements at zero (reproducible output)")

    run_p = sub.add_parser("run", help="run algorithms and emit a CSV of aggregates")
    common(run_p)
    run_p.set_defaults(func=cmd_run, format="csv")

    cmp_p = sub.add_parser("compare", help="compare algorithms in a markdown table")
    common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare, format="markdown")

    rec_p = sub.add_parser("recover", help="score recovery of planted features")
    common(rec_p)
    rec_p.set_defaults(func=cmd_recover, format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATASET
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
