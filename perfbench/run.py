"""negofs benchmark: seeded workloads through `cli.run_experiment`.

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from `src/`. With
`--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced pass. Every pass is checked against the
mistake counts recorded in `reference.json`; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import LAYERS, STEP_VARIANTS, Tracer, layer_metrics, median_metrics
from workloads import INPUTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# Before each pass, set-up is repeated at least this often, and until the
# pass's share of this many seconds has passed.
SETUP_REPEATS = 2
SETUP_SECONDS = 6.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "instances/s",
    "cpu_us_per_instance": "us",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}

PER_LAYER_UNITS = {
    "data.generate_s": "s",
    "data.load_s": "s",
    "data.load_bytes_per_s": "B/s",
    "data.stream_s": "s",
    **{f"sparse.{op}.{kind}": unit
       for op in ("new", "dot", "add_scaled", "scale", "truncate")
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "sparse.new.entries": "count",
    "sparse.truncate.cuts": "count",
    "sparse.entries_per_input_nnz": "ratio",
    "learners.step.calls": "count",
    "learners.step.self_s": "s",
    **{f"learners.step_us.{v}": "us" for v in STEP_VARIANTS},
    "learners.update_ratio": "ratio",
    "trust.update.calls": "count",
    "trust.update.self_s": "s",
    "utility.offer_cost.calls": "count",
    "utility.offer_cost.self_s": "s",
    "negotiation.trials": "count",
    "negotiation.merge.calls": "count",
    "negotiation.merge.self_s": "s",
    "negotiation.merge.entries_in": "count",
    "negotiation.merge.entries_cut": "count",
    "negotiation.accept_ratio": "ratio",
    "negotiation.cfp.self_s": "s",
    "negotiation.broadcast.self_s": "s",
    "negotiation.run.self_s": "s",
    "negotiation.transcript.messages": "count",
    "system.run.self_s": "s",
    "system.calibrate.self_s": "s",
    "system.elect.self_s": "s",
    "cli.run_experiment.self_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


class Program:
    """The negofs modules of this checkout, imported from `src/`."""

    def __init__(self):
        if not (SRC / "negofs" / "__init__.py").is_file():
            raise FileNotFoundError(f"no negofs sources under {SRC}")
        sys.path.insert(0, str(SRC))
        from negofs import cli, data

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"negofs was imported from {cli.__file__}, not {SRC}")
        self.cli, self.data = cli, data


class Input:
    """One workload at one recorded input, ready to set up and run."""

    def __init__(self, program: Program, workload, k: int, workdir: Path):
        self.program = program
        self.workload = workload
        os.environ["NEGOFS_THREADS"] = "1"
        cli = program.cli
        self.text_path = None
        if workload.via_text:
            self.text_path = workdir / f"{workload.name}-{k}.txt"
            source = cli.build_parser().parse_args(["run", "--synthetic", workload.synthetic_spec(k)])
            program.data.save_sparse_text(cli.load_dataset(source), self.text_path)
        self.args = cli.build_parser().parse_args(workload.argv(k, str(self.text_path or "")))
        self.algorithms = cli.parse_algorithms(self.args.algorithms)
        self.options = cli.options_from(self.args)
        self.dataset = None

    def setup(self) -> float:
        self.dataset = None  # never hold two datasets at once
        start = time.perf_counter()
        self.dataset = self.program.cli.load_dataset(self.args)
        return time.perf_counter() - start

    @property
    def instances(self) -> int:
        return len(self.algorithms) * self.args.runs * len(self.dataset)

    def run_pass(self):
        """One `run_experiment` pass: (result rows, wall seconds, CPU seconds).

        The garbage collector is emptied first, so every pass starts from the
        same heap and its collections fall at the same points.
        """
        gc.collect()
        wall, cpu = time.perf_counter(), time.process_time()
        rows, _ = self.program.cli.run_experiment(
            self.algorithms, self.dataset, self.args.runs, self.args.seed, self.options)
        return rows, time.perf_counter() - wall, time.process_time() - cpu


class Checker:
    """Counts runs and failures; a run fails when it raised or its mistakes differ."""

    def __init__(self, expected: dict[str, int]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, rows) -> None:
        for row in rows:
            self.attempted += 1
            want = self.expected.get(row.algorithm)
            if row.mean_mistakes != want or not 0.0 <= row.mean_error_rate <= 1.0:
                self.fail(f"{row.algorithm}: {row.mean_mistakes} mistakes, reference {want}")

    def fail(self, problem: str, runs: int = 0) -> None:
        self.attempted += runs
        self.failed += max(runs, 1)
        self.problems.append(problem)


def measure_end_to_end(inp: Input, seconds: float, checker: Checker) -> dict[str, float]:
    passes = inp.workload.passes(seconds)
    setups, walls, cpus, error_rates = [], [], [], []
    for _ in range(passes):
        # Set-ups are spread over the run, so that their median samples all of it.
        until = time.perf_counter() + SETUP_SECONDS / passes
        for _ in range(SETUP_REPEATS):
            setups.append(inp.setup())
        while time.perf_counter() < until:
            setups.append(inp.setup())
        rows, wall, cpu = inp.run_pass()
        checker.check(rows)
        walls.append(wall)
        cpus.append(cpu)
        error_rates.append(statistics.fmean(row.mean_error_rate for row in rows))
    print(f"# {passes} passes, wall s: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"# {len(setups)} set-ups, s: min {min(setups):.4f}, "
          f"median {statistics.median(setups):.4f}, max {max(setups):.4f}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "instances_per_s": inp.instances / min(walls),
        "cpu_us_per_instance": 1e6 * min(cpus) / inp.instances,
        "peak_rss_mb": rss_kb / 1024.0,
        "error_rate": statistics.median(error_rates),
    }


def measure_layers(inp: Input, seconds: float, checker: Checker) -> dict[str, float]:
    with Tracer() as tracer:
        inp.setup()
    setup = tracer.aggregate()
    load_s = setup["incl_s"].get("data.load", 0.0)
    size = inp.text_path.stat().st_size if inp.text_path else 0
    passes, plain_walls, traced_walls = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        rows, wall, _ = inp.run_pass()
        checker.check(rows)
        plain_walls.append(wall)
        with Tracer() as tracer:
            rows, wall, _ = inp.run_pass()
        traced = tracer.aggregate()
        checker.check(rows)
        if traced["violations"]:
            checker.fail(f"{traced['violations']} invariant violations: "
                         + "; ".join(traced["messages"]))
        traced_walls.append(wall)
        passes.append(layer_metrics(traced))
        del tracer, traced  # free the spans before the next untraced pass
    metrics = {
        "data.generate_s": setup["incl_s"].get("data.generate", 0.0),
        "data.load_s": load_s,
        "data.load_bytes_per_s": size / load_s if load_s else 0.0,
        **median_metrics(passes),
        "trace.overhead_ratio": min(traced_walls) / min(plain_walls),
    }
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def machine_facts() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "cpu": cpu,
        "git": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" (export without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference(workload, k: int) -> dict[str, int]:
    recorded = json.loads(REFERENCE.read_text())
    return recorded["mistakes"][workload.name][str(k)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"input index is seed mod {INPUTS}; 0 gives the default seeds")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measurement time; with the workload it fixes the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = Program()
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    k = args.seed % INPUTS
    checker = Checker(load_reference(workload, k))
    workdir = HERE / f".work-{os.getpid()}"
    facts = machine_facts()
    print(f"# workload {workload.name}, seed {args.seed} -> input {k}, "
          + ", ".join(f"{key} {value}" for key, value in facts.items()))
    print(f"# equivalent: {workload.command_line(k)}")
    inp = None
    try:
        workdir.mkdir(exist_ok=True)
        inp = Input(program, workload, k, workdir)
        if args.trace:
            metrics = measure_layers(inp, args.seconds, checker)
            units = PER_LAYER_UNITS
        else:
            metrics = measure_end_to_end(inp, args.seconds, checker)
            units = END_TO_END_UNITS
    except Exception as err:  # a raising pass fails all its runs, reported below
        traceback.print_exc()
        checker.fail(f"{type(err).__name__}: {err}", runs=len(inp.algorithms) if inp else 1)
        metrics, units = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:40s} {value:>18.6f} {units[name]}")
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{'failed_run_share':40s} {share:>18.6f} ratio "
          f"({checker.failed} of {checker.attempted} runs)")
    for problem in checker.problems:
        print(f"# FAILED: {problem}")
    correct = checker.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
