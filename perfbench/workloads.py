"""The benchmark's seeded workloads, each written as a `negofs-bench run` line.

A workload is the argument list a user would give `negofs-bench run` for one
pass (`--runs 1`), so the benchmark drives exactly the path the CLI takes.
`--seed` of the benchmark picks one of `INPUTS` recorded inputs: input k
shifts the synthetic data seed and the base run seed by k, so input 0 is the
workload with its default seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

# Number of distinct inputs per workload; reference.json records every one.
INPUTS = 32
# A run of the end-to-end metrics times at least this many passes.
MIN_PASSES = 3

BASE_SEED = 42
ENSEMBLE_ROSTER = ("ROMMA", "OGD", "PA", "SOP", "CW", "AROW", "SCW")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synthetic: dict[str, float]     # spec keys of `--synthetic`, without the seed
    data_seed: int
    flags: tuple[str, ...]          # remaining CLI flags; "{n}" is the stream length
    pass_s: float                   # seconds of one pass on the machine the benchmark was tuned on
    via_text: bool = False          # save the stream as sparse text, time loading it

    def passes(self, seconds: float) -> int:
        """Passes a run of `seconds` times: fixed by the workload, never by how
        fast the program is, so every commit takes its best of the same count."""
        return max(MIN_PASSES, round(seconds / self.pass_s))

    def synthetic_spec(self, k: int) -> str:
        keys = dict(self.synthetic, seed=self.data_seed + k)
        return ",".join(f"{key}={value}" for key, value in keys.items())

    def argv(self, k: int, text_path: str = "") -> list[str]:
        """`negofs-bench` arguments for input k; text workloads read text_path."""
        if self.via_text:
            source = ["--dataset", text_path, "--dim", str(self.synthetic["d"])]
        else:
            source = ["--synthetic", self.synthetic_spec(k)]
        flags = [f.format(n=self.synthetic["n"]) for f in self.flags]
        return ["run", *source, *flags, "--runs", "1",
                "--seed", str(BASE_SEED + k), "--no-timing"]

    def command_line(self, k: int) -> str:
        """The shell line that reproduces one pass of input k by hand."""
        prefix = "NEGOFS_THREADS=1 negofs-bench "
        if not self.via_text:
            return prefix + " ".join(self.argv(k))
        path = f"{self.name}-{k}.txt"
        make = (
            "python3 -c 'from negofs import cli, data; "
            f"ds = cli.load_dataset(cli.build_parser().parse_args([\"run\", \"--synthetic\", "
            f"\"{self.synthetic_spec(k)}\"])); data.save_sparse_text(ds, \"{path}\")'"
        )
        return make + " && " + prefix + " ".join(self.argv(k, path))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble",
            why="headline 7-learner comparison on tiny vectors: per-call cost in learners and "
                "sparse; the only one that elects. Its 2-process variant is dropped: too unsteady",
            synthetic={"d": 57, "n": 4601, "relevant": 8, "density": 0.35, "noise": 0.03},
            data_seed=2025,
            pass_s=3.0,
            flags=(
                "--algorithms",
                ",".join([f"single:{v}" for v in ENSEMBLE_ROSTER] + ["MANOFS", "MOANOFS"]),
                "--roster", ",".join(ENSEMBLE_ROSTER),
                "--tmax", "16", "--k", "3",
            ),
        ),
        Workload(
            name="text-scale",
            why="d=1e5, 50 nonzeros, B=1e4 loaded from sparse text: few large SparseVector "
                "rebuilds and sorts; no negotiation",
            synthetic={"d": 100000, "n": 500, "relevant": 10000, "density": 0.0005, "noise": 0.05},
            data_seed=7,
            pass_s=10.0,
            flags=("--algorithms", "single:PETRUN,single:AROW"),
            via_text=True,
        ),
        Workload(
            name="negotiate-every-instance",
            why="9 learners negotiate after every instance under min-utility: merge, trust, "
                "utility and a 20k-message transcript",
            synthetic={"d": 2000, "n": 1000, "relevant": 10, "density": 0.01, "noise": 0.05},
            data_seed=1001,
            pass_s=5.0,
            flags=("--algorithms", "MOANOFS", "--k", "9", "--tmax", "{n}",
                   "--conflict-rule", "min-utility"),
        ),
    )
}
