import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dense_oracle import DenseLearner
from negofs.cli import (
    EXIT_CONFIG,
    EXIT_DATASET,
    ResultRow,
    RunOptions,
    derive_run_seed,
    main,
    parse_algorithms,
    parse_issue_weights,
    parse_synthetic,
    run_experiment,
)
from negofs.data import SyntheticSpec, generate_synthetic, load_sparse_text, permute
from negofs.learners import LearnerConfig
from negofs.system import SystemConfig, run_moanofs

GOLDEN = Path(__file__).parent / "golden"

SYNTH = "d=40,relevant=6,n=400,density=0.25,noise=0.05,seed=3"


def run_flags(tmp_path, name="out.csv", **extra):
    out = tmp_path / name
    argv = [
        "run", "--synthetic", SYNTH,
        "--algorithms", extra.pop("algorithms", "single:PETRUN"),
        "--runs", str(extra.pop("runs", 2)),
        "--seed", str(extra.pop("seed", 5)),
        "--tmax", "5", "--no-timing", "--output", str(out),
    ]
    for key, value in extra.items():
        argv.extend([key, str(value)])
    return argv, out


# -- flag parsing -----------------------------------------------------------------

def test_parse_algorithms_case_insensitive():
    assert parse_algorithms("single:petrun,manofs") == ["single:PETRUN", "MANOFS"]


def test_parse_algorithms_unknown_name_lists_valid():
    with pytest.raises(ValueError) as err:
        parse_algorithms("single:FOO")
    assert "MOANOFS" in str(err.value)
    assert "single:PETRUN" in str(err.value)


def test_parse_synthetic_requires_core_keys():
    with pytest.raises(ValueError, match="missing"):
        parse_synthetic("d=10,n=100", default_seed=0)
    with pytest.raises(ValueError, match="unknown"):
        parse_synthetic("d=10,n=100,relevant=2,bogus=1", default_seed=0)


def test_parse_issue_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        parse_issue_weights("0.2,0.5,0.4")
    profile = parse_issue_weights("0.2,0.5,0.3")
    assert profile.as_tuple() == (0.2, 0.5, 0.3)


def test_seed_derivation():
    assert derive_run_seed(5, 1) == 5 * 1000003 + 1
    assert derive_run_seed(5, 2) != derive_run_seed(5, 1)


# -- exit codes -----------------------------------------------------------------------

def test_unknown_algorithm_exits_2(tmp_path, capsys):
    argv, _ = run_flags(tmp_path, algorithms="single:NOPE")
    assert main(argv) == EXIT_CONFIG
    assert "valid names" in capsys.readouterr().err


def test_missing_dataset_exits_3(tmp_path, capsys):
    argv = ["run", "--dataset", str(tmp_path / "absent.txt"),
            "--algorithms", "single:PETRUN"]
    assert main(argv) == EXIT_DATASET


def test_malformed_dataset_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("+1 2:1.0 1:3.0\n", encoding="utf-8")
    argv = ["run", "--dataset", str(bad), "--algorithms", "single:PETRUN"]
    assert main(argv) == EXIT_DATASET
    assert "non-ascending" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["inf 1:1.0\n", "+1 1:1e400\n"])
def test_non_finite_dataset_exits_3(tmp_path, capsys, text):
    bad = tmp_path / "bad.txt"
    bad.write_text("-1 2:1.0\n" + text, encoding="utf-8")
    argv = ["run", "--dataset", str(bad), "--algorithms", "single:PETRUN"]
    assert main(argv) == EXIT_DATASET
    assert "line 2" in capsys.readouterr().err


def test_dataset_and_synthetic_are_exclusive(tmp_path, capsys):
    argv = ["run", "--synthetic", SYNTH, "--dataset", "x.txt",
            "--algorithms", "single:PETRUN"]
    assert main(argv) == EXIT_CONFIG


def test_compare_needs_two_algorithms(tmp_path, capsys):
    argv = ["compare", "--synthetic", SYNTH, "--algorithms", "single:PETRUN"]
    assert main(argv) == EXIT_CONFIG


# -- cmd_run ------------------------------------------------------------------------------

def test_single_petrun_matches_hand_trace(tmp_path):
    # three-instance dataset traced through the dense reference learner
    data = tmp_path / "hand.txt"
    data.write_text("+1 1:1.0\n-1 2:1.0\n+1 1:1.0 2:1.0\n", encoding="utf-8")
    out = tmp_path / "res.csv"
    argv = ["run", "--dataset", str(data), "--algorithms", "single:PETRUN",
            "--runs", "1", "--seed", "5", "--no-timing", "--output", str(out)]
    assert main(argv) == 0

    ds = load_sparse_text(data)
    order = permute(len(ds), derive_run_seed(5, 1))
    oracle = DenseLearner("PETRUN", ds.dimension, B=1)
    for idx in order:
        x, y = ds.instances[idx]
        oracle.step([x.get(i) for i in range(ds.dimension)], y)

    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "single:PETRUN"
    assert float(row[4]) == oracle.mistakes


def test_csv_deterministic_across_invocations(tmp_path):
    argv1, out1 = run_flags(tmp_path, "a.csv", algorithms="single:PETRUN,MOANOFS")
    argv2, out2 = run_flags(tmp_path, "b.csv", algorithms="single:PETRUN,MOANOFS")
    assert main(argv1) == 0
    assert main(argv2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_schema_and_bounds(tmp_path):
    argv, out = run_flags(tmp_path, algorithms="single:OGD,MANOFS", runs=2)
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,dataset,B,runs,mean_mistakes,std_mistakes,mean_error_rate,mean_time_s"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[2]) == 4  # round(0.1 * 40)
        assert int(fields[3]) == 2
        assert 0.0 <= float(fields[6]) <= 1.0
        assert float(fields[4]) <= 400  # mean mistakes bounded by N


def test_reported_std_is_sample_standard_deviation():
    from negofs.data import SyntheticSpec, generate_synthetic

    ds, _ = generate_synthetic(SyntheticSpec(d=30, n_samples=150, n_relevant=5,
                                             density=0.3, label_noise=0.05, seed=2))
    opts = RunOptions(timing=False, t_max=5)
    rows, outcomes = run_experiment(["single:PETRUN"], ds, runs=4, base_seed=9, opts=opts)
    per_run = [o.mistakes for o in outcomes["single:PETRUN"]]
    mean = sum(per_run) / len(per_run)
    expected_std = math.sqrt(sum((m - mean) ** 2 for m in per_run) / (len(per_run) - 1))
    assert rows[0].std_mistakes == pytest.approx(expected_std, rel=1e-12)
    assert rows[0].mean_mistakes == pytest.approx(mean, rel=1e-12)


def test_single_run_reports_zero_std(tmp_path):
    argv, out = run_flags(tmp_path, runs=1)
    assert main(argv) == 0
    assert out.read_text().splitlines()[1].split(",")[5] == "0.000000"


def test_markdown_format_for_run(tmp_path, capsys):
    argv = ["run", "--synthetic", SYNTH, "--algorithms", "single:PETRUN",
            "--runs", "1", "--seed", "5", "--no-timing", "--format", "markdown"]
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert output.startswith("| Algorithm |")


def test_parallel_runs_match_sequential(tmp_path, monkeypatch):
    argv1, out1 = run_flags(tmp_path, "seq.csv", algorithms="single:PA", runs=3)
    monkeypatch.setenv("NEGOFS_THREADS", "1")
    assert main(argv1) == 0
    argv2, out2 = run_flags(tmp_path, "par.csv", algorithms="single:PA", runs=3)
    monkeypatch.setenv("NEGOFS_THREADS", "3")
    assert main(argv2) == 0
    assert out1.read_text() == out2.read_text()


# -- cmd_compare -----------------------------------------------------------------------------

def test_compare_row_count_and_header(tmp_path, capsys):
    argv = ["compare", "--synthetic", SYNTH,
            "--algorithms", "single:PETRUN,single:OGD,single:PA",
            "--runs", "1", "--seed", "5", "--tmax", "5", "--no-timing"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # header + separator + 3 rows
    assert lines[0].startswith("| Algorithm |")


def test_compare_flags_all_tied_minimum_rows(capsys):
    # two copies of the same algorithm tie exactly; both rows get flagged
    argv = ["compare", "--synthetic", SYNTH,
            "--algorithms", "single:OGD,single:OGD",
            "--runs", "1", "--seed", "5", "--tmax", "5", "--no-timing"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("| **single:OGD**")
    assert lines[3].startswith("| **single:OGD**")


def test_compare_golden_bytes(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    argv = ["compare",
            "--synthetic", "d=40,relevant=6,n=400,density=0.25,noise=0.05,seed=3",
            "--algorithms", "single:PETRUN,single:AROW,MANOFS,MOANOFS",
            "--runs", "3", "--seed", "5", "--tmax", "5", "--k", "3", "--no-timing",
            "--output", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout == (GOLDEN / "compare.md").read_text(encoding="utf-8")
    assert out.read_bytes() == (GOLDEN / "compare.csv").read_bytes()


# -- cmd_recover -------------------------------------------------------------------------------

def test_recover_reports_precision_and_recall(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    argv = ["recover", "--synthetic", "d=60,relevant=6,n=600,density=0.15,noise=0.02",
            "--runs", "2", "--seed", "5", "--tmax", "5", "--no-timing",
            "--output", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "run,seed,precision,recall,selected,planted"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert 0.0 <= float(fields[2]) <= 1.0
        assert 0.0 <= float(fields[3]) <= 1.0
    assert "mean_recall=" in capsys.readouterr().out


def test_recover_honours_roster_and_k(tmp_path):
    out = tmp_path / "rec.csv"
    argv = ["recover", "--synthetic", "d=40,relevant=5,n=300,density=0.25,noise=0.02",
            "--roster", "PETRUN,OGD", "--k", "2",
            "--runs", "2", "--seed", "5", "--tmax", "5", "--no-timing",
            "--output", str(out)]
    assert main(argv) == 0
    expected = []
    for r in (1, 2):
        seed = derive_run_seed(5, r)
        dataset, planted = generate_synthetic(SyntheticSpec(
            d=40, n_samples=300, n_relevant=5, density=0.25, label_noise=0.02, seed=seed))
        cfg = SystemConfig(roster=[LearnerConfig(v, measure_time=False) for v in ("PETRUN", "OGD")],
                           k=2, t_max=5, seed=seed)
        selected = set(run_moanofs(dataset, cfg).merged.indices())
        hit = len(selected & planted)
        expected.append(f"{r},{seed},{hit / len(selected):.6f},{hit / len(planted):.6f},"
                        f"{len(selected)},{len(planted)}")
    assert out.read_text().splitlines()[1:] == expected


@pytest.mark.parametrize("algorithms", ["MANOFS", "single:PETRUN", "MOANOFS,BANOFS"])
def test_recover_rejects_other_algorithms(capsys, algorithms):
    argv = ["recover", "--synthetic", "d=40,relevant=5,n=300", "--algorithms", algorithms]
    assert main(argv) == EXIT_CONFIG
    assert "MOANOFS only" in capsys.readouterr().err


def test_recover_requires_synthetic(capsys):
    argv = ["recover", "--dataset", "whatever.txt"]
    assert main(argv) == EXIT_CONFIG


# -- console entry point ------------------------------------------------------------------------

def test_subprocess_invocations_byte_identical(tmp_path):
    # full process isolation: hash randomization must not leak into output
    outputs = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        cmd = [sys.executable, "-m", "negofs.cli", "run",
               "--synthetic", "d=30,relevant=4,n=200,density=0.3,noise=0.02",
               "--algorithms", "single:PETRUN,MOANOFS", "--runs", "2",
               "--seed", "7", "--tmax", "5", "--no-timing", "--output", str(out)]
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
