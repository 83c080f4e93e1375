"""Record the mistake counts every benchmark input must reproduce.

    python3 perfbench/record_reference.py

Runs one pass of each workload for every input index, one worker process per
available CPU, and writes reference.json next to this file. Run it only when
the program's results are meant to change.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import run
from workloads import INPUTS, WORKLOADS


def record(job: tuple[str, int]) -> tuple[str, int, dict[str, int]]:
    name, k = job
    program = run.Program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as workdir:
        inp = run.Input(program, WORKLOADS[name], k, Path(workdir))
        inp.setup()
        rows, _, _ = inp.run_pass()
    return name, k, {row.algorithm: int(row.mean_mistakes) for row in rows}


def main() -> None:
    jobs = [(name, k) for name in WORKLOADS for k in range(INPUTS)]
    mistakes: dict[str, dict[str, dict[str, int]]] = {name: {} for name in WORKLOADS}
    with ProcessPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for name, k, counts in pool.map(record, jobs):
            mistakes[name][str(k)] = counts
    run.REFERENCE.write_text(
        json.dumps({"inputs": INPUTS, "mistakes": mistakes}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
