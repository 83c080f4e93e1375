import csv
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dense_oracle import DenseLearner
from negofs import cli, system
from negofs.cli import (
    CSV_HEADER,
    DEFAULT_ROSTER,
    EXIT_CONFIG,
    EXIT_DATASET,
    ConfigError,
    ResultRow,
    RunOptions,
    build_parser,
    derive_run_seed,
    execute_run,
    main,
    options_from,
    parse_algorithms,
    parse_issue_weights,
    parse_synthetic,
    run_experiment,
)
from negofs.data import SyntheticSpec, generate_synthetic, load_sparse_text, permute
from negofs.learners import VARIANTS, LearnerConfig
from negofs.negotiation import NegotiationTranscript
from negofs.system import SystemConfig, run_moanofs

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

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
    with pytest.raises(ConfigError, match="^unknown algorithm 'FOO'; valid names: single:PETRUN, "):
        parse_algorithms("MOANOFS,FOO")


def test_parse_synthetic_requires_core_keys():
    with pytest.raises(ValueError, match="missing"):
        parse_synthetic("d=10,n=100", default_seed=0)
    with pytest.raises(ValueError, match="unknown"):
        parse_synthetic("d=10,n=100,relevant=2,bogus=1", default_seed=0)
    with pytest.raises(ConfigError, match="^synthetic spec key 'd' is given twice$"):
        parse_synthetic("d=20,relevant=3,n=50,d=40", default_seed=0)
    with pytest.raises(ConfigError, match="^synthetic spec entry 'seed' is not key=value$"):
        parse_synthetic("d=10,n=100,relevant=2,,seed", default_seed=0)
    with pytest.raises(ConfigError, match="^bad synthetic spec: invalid literal for int"):
        parse_synthetic("d=ten,n=100,relevant=2", default_seed=0)


def test_parse_issue_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        parse_issue_weights("0.2,0.5,0.4")
    profile = parse_issue_weights("0.2,0.5,0.3")
    assert profile.as_tuple() == (0.2, 0.5, 0.3)


def test_flag_defaults_are_the_library_defaults():
    opts = options_from(build_parser().parse_args(["run", "--synthetic", SYNTH]))
    assert opts.system == SystemConfig(
        roster=[LearnerConfig(v) for v in DEFAULT_ROSTER], k=len(DEFAULT_ROSTER))


def test_seed_derivation():
    assert derive_run_seed(5, 1) == 5 * 1000003 + 1
    assert derive_run_seed(5, 2) != derive_run_seed(5, 1)


# -- exit codes -----------------------------------------------------------------------

def test_unknown_algorithm_exits_2(tmp_path, capsys):
    argv, _ = run_flags(tmp_path, algorithms="single:NOPE")
    assert main(argv) == EXIT_CONFIG
    assert "valid names" in capsys.readouterr().err


@pytest.mark.parametrize("algorithms, message", [
    ("FOO", "unknown algorithm 'FOO'; valid names: "),
    (" , ", "at least one algorithm is required"),
    ("single:PETRUN,single:petrun", "algorithm single:PETRUN is listed twice"),
    ("MOANOFS,single:OGD,moanofs", "algorithm MOANOFS is listed twice"),
], ids=["unknown-system", "empty", "repeated-single", "repeated-system"])
def test_bad_algorithm_list_fails_before_the_dataset_is_read(tmp_path, capsys,
                                                             algorithms, message):
    argv = ["run", "--dataset", str(tmp_path / "absent.txt"), "--algorithms", algorithms]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("command, algorithms", [
    ("run", "single:PETRUN"), ("compare", "single:PETRUN,single:OGD"),
    # recover always runs MOANOFS and takes no --algorithms
    pytest.param("recover", None, id="recover-MOANOFS"),
])
@pytest.mark.parametrize("flag", ["--runs", "--tmax"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_count_flags_below_one_exit_2(capsys, command, algorithms, flag, value):
    argv = [command, "--synthetic", SYNTH, flag, value]
    if algorithms:
        argv += ["--algorithms", algorithms]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err


def test_count_flag_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--synthetic", SYNTH, "--runs", "x"])
    assert exit_info.value.code == EXIT_CONFIG
    assert "argument --runs: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("algorithms, flag, value, message", [
    ("single:PETRUN,MOANOFS", "--k", "99", "k must lie in [2, 9], got 99"),
    ("single:PETRUN,MANOFS", "--epsilon", "-1", "epsilon must be positive"),
    ("single:PETRUN", "--epsilon", "0", "epsilon must be positive"),
    ("single:PETRUN", "--calibration", "1.0", "calibration_fraction must lie in (0, 1)"),
    ("single:PETRUN", "--trust-c", "1.5", "c must lie in (0, 1 - threshold] = (0, 0.75], got 1.5"),
    ("single:PETRUN", "--trust-c", "0.8", "c must lie in (0, 1 - threshold] = (0, 0.75], got 0.8"),
    ("MANOFS", "--conflict-rule", "min-utility",
     "--conflict-rule min-utility applies to MOANOFS only; add MOANOFS to --algorithms"),
    ("single:PETRUN,BANOFS", "--conflict-rule", "min-utility",
     "--conflict-rule min-utility applies to MOANOFS only; add MOANOFS to --algorithms"),
    ("single:OGD,MOANOFS", "--eta", "nan", "eta must be strictly positive and finite, got nan"),
    ("single:OGD,MOANOFS", "--eta", "inf", "eta must be strictly positive and finite, got inf"),
    ("single:OGD,MOANOFS", "--lambda", "nan", "lam must be strictly positive and finite"),
    ("single:OGD,MOANOFS", "--r", "nan", "r must be strictly positive and finite"),
    ("single:OGD,MOANOFS", "--C", "nan", "C must be strictly positive and finite"),
    ("single:OGD,MOANOFS", "--epsilon", "nan", "epsilon must be positive and finite, got nan"),
    ("single:OGD,MOANOFS", "--epsilon", "inf", "epsilon must be positive and finite, got inf"),
    ("single:OGD,MOANOFS", "--issue-weights", "nan,0.5,0.5",
     "issue weight trust must be finite and >= 0, got nan"),
    ("single:OGD,MOANOFS", "--issue-weights", "0.5,0.5",
     "--issue-weights expects three comma-separated reals"),
    ("single:PETRUN,MANOFS", "--roster", "PETRUN,nope",
     "unknown roster variant 'NOPE'; valid: " + ", ".join(VARIANTS)),
    ("single:PETRUN,MANOFS", "--roster", "PETRUN,,", "the roster needs at least 2 variants"),
], ids=["k-moanofs", "epsilon-manofs", "epsilon-single", "calibration-single", "trust-c-single",
        "trust-c-cap", "min-utility-manofs", "min-utility-banofs", "eta-nan", "eta-inf",
        "lambda-nan", "r-nan", "C-nan", "epsilon-nan", "epsilon-inf", "issue-weights-nan",
        "issue-weights-two", "roster-unknown", "roster-one"])
def test_bad_flag_fails_before_any_run(tmp_path, capsys, monkeypatch,
                                       algorithms, flag, value, message):
    ran = []
    monkeypatch.setattr(cli, "execute_run", lambda *args: ran.append(args))
    argv, out = run_flags(tmp_path, algorithms=algorithms, **{flag: value})
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("command, algorithms", [
    ("run", "single:PETRUN"), ("compare", "single:PETRUN,single:OGD"),
])
def test_bad_flag_is_reported_before_the_dataset_is_read(tmp_path, capsys, command, algorithms):
    argv = [command, "--dataset", str(tmp_path / "absent.txt"),
            "--algorithms", algorithms, "--epsilon", "-1"]
    assert main(argv) == EXIT_CONFIG
    assert "epsilon must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, algorithms", [
    ("run", "single:PETRUN"), ("compare", "single:PETRUN,single:OGD")])
@pytest.mark.parametrize("value", ["0", "-4"])
def test_bad_dim_is_reported_before_the_dataset_is_read(tmp_path, capsys, command,
                                                        algorithms, value):
    argv = [command, "--dataset", str(tmp_path / "absent.txt"),
            "--algorithms", algorithms, "--dim", value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert f"argument --dim: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command, algorithms", [
    ("run", "MOANOFS"), ("compare", "single:PETRUN,MOANOFS")])
def test_bad_k_is_reported_before_the_dataset_is_read(tmp_path, capsys, command, algorithms):
    argv = [command, "--dataset", str(tmp_path / "absent.txt"),
            "--algorithms", algorithms, "--k", "99"]
    assert main(argv) == EXIT_CONFIG
    assert "error: k must lie in [2, 9], got 99" in capsys.readouterr().err


def test_min_utility_without_moanofs_fails_before_the_dataset_is_read(tmp_path, capsys):
    argv = ["compare", "--dataset", str(tmp_path / "absent.txt"),
            "--algorithms", "single:PETRUN,MANOFS", "--conflict-rule", "min-utility"]
    assert main(argv) == EXIT_CONFIG
    assert "add MOANOFS to --algorithms" in capsys.readouterr().err


def test_min_utility_runs_when_moanofs_is_requested(tmp_path):
    argv, out = run_flags(tmp_path, algorithms="MANOFS,MOANOFS", runs=1,
                          **{"--conflict-rule": "min-utility"})
    assert main(argv) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [
        "MANOFS", "MOANOFS"]


def test_dim_with_synthetic_exits_2(tmp_path, capsys):
    argv, out = run_flags(tmp_path, **{"--dim": 5})
    assert main(argv) == EXIT_CONFIG
    assert "--dim applies to --dataset only" in capsys.readouterr().err
    assert not out.exists()


def test_k_is_unchecked_without_moanofs(tmp_path):
    # Only MOANOFS reads --k: a two-learner MANOFS roster with the default k=3 is valid.
    argv, out = run_flags(tmp_path, algorithms="single:PETRUN,MANOFS",
                          **{"--roster": "PETRUN,OGD"})
    assert main(argv) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [
        "single:PETRUN", "MANOFS"]


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
    order = permute(ds, derive_run_seed(5, 1))
    oracle = DenseLearner("PETRUN", ds.dimension, B=1)
    for idx in order:
        x, y = ds.instances[idx]
        oracle.step([dict(x.items()).get(i, 0.0) for i in range(ds.dimension)], y)

    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "single:PETRUN"
    assert float(row[4]) == oracle.mistakes


def test_csv_deterministic_across_invocations(tmp_path):
    argv1, out1 = run_flags(tmp_path, "a.csv", algorithms="single:PETRUN,MOANOFS")
    argv2, out2 = run_flags(tmp_path, "b.csv", algorithms="single:PETRUN,MOANOFS")
    assert main(argv1) == 0
    assert main(argv2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_negative_seed_runs_every_algorithm(tmp_path):
    argv1, out1 = run_flags(tmp_path, "a.csv", seed=-5,
                            algorithms="single:PETRUN,single:RAND,MOANOFS")
    argv2, out2 = run_flags(tmp_path, "b.csv", seed=-5,
                            algorithms="single:PETRUN,single:RAND,MOANOFS")
    assert main(argv1) == 0
    assert main(argv2) == 0
    assert len(out1.read_text().splitlines()) == 4
    assert out1.read_bytes() == out2.read_bytes()


def test_tmax_never_changes_a_single_row(tmp_path, monkeypatch):
    # A lone learner steps through every instance in order however the stream
    # is chunked; past n chunks the run stops at the first empty one, so its
    # cost does not grow with --tmax.
    singles = ",".join(f"single:{v}" for v in VARIANTS)
    argv1, out1 = run_flags(tmp_path, "few.csv", algorithms=singles)
    argv2, out2 = run_flags(tmp_path, "many.csv", algorithms=singles)
    argv1[argv1.index("--tmax") + 1] = "1"
    argv2[argv2.index("--tmax") + 1] = "1000000"
    assert main(argv1) == 0

    chunks = {}
    score_chunk = system.score_chunk

    def counting(p, chunk, settings, first_margin=None):
        chunks.setdefault(id(p), [p, 0])[1] += 1  # p is kept, so ids stay distinct
        score_chunk(p, chunk, settings, first_margin)

    monkeypatch.setattr(system, "score_chunk", counting)
    assert main(argv2) == 0
    assert out2.read_bytes() == out1.read_bytes()
    n = parse_synthetic(SYNTH, 0).n_samples
    assert len(chunks) == 2 * len(VARIANTS)
    assert all(count <= n for _, count in chunks.values())


def test_execute_run_rejects_an_unknown_algorithm():
    dataset, _ = generate_synthetic(SyntheticSpec(d=10, n_samples=20, n_relevant=2))
    opts = options_from(build_parser().parse_args(["run", "--synthetic", SYNTH]))
    with pytest.raises(ConfigError, match="^unknown algorithm 'NOPE'$"):
        execute_run("NOPE", dataset, 1, opts)


def test_execute_run_records_no_transcript(monkeypatch):
    def refuse(self, message):
        raise AssertionError(f"the CLI recorded {message}")

    monkeypatch.setattr(NegotiationTranscript, "append", refuse)
    args = build_parser().parse_args(["run", "--synthetic", SYNTH, "--tmax", "40",
                                      "--conflict-rule", "min-utility", "--no-timing"])
    outcome = cli.execute_run("MOANOFS", cli.load_dataset(args), 7, options_from(args))
    assert outcome.instances > 0


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
    roster = [LearnerConfig(v) for v in DEFAULT_ROSTER]
    opts = RunOptions(SystemConfig(roster=roster, k=len(roster), t_max=5, measure_time=False),
                      k=3)
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


def test_timing_follows_the_run_level_switch(tmp_path):
    untimed, out = run_flags(tmp_path, algorithms="single:PETRUN,MOANOFS", runs=1)
    timed = [arg for arg in untimed if arg != "--no-timing"]
    assert main(timed) == 0
    assert all(float(line.split(",")[7]) > 0.0 for line in out.read_text().splitlines()[1:])
    assert main(untimed) == 0
    assert [line.split(",")[7] for line in out.read_text().splitlines()[1:]] == ["0.000000"] * 2


def test_markdown_format_for_run(tmp_path, capsys):
    argv = ["run", "--synthetic", SYNTH, "--algorithms", "single:PETRUN",
            "--runs", "1", "--seed", "5", "--no-timing", "--format", "markdown"]
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert output.startswith("| Algorithm |")


HAND_DATA = "+1 1:1.0\n-1 2:1.0\n+1 1:1.0 2:1.0\n"


@pytest.mark.parametrize("stem", ["a,b", 'a,"b"'])
def test_csv_quotes_a_dataset_name_with_a_comma_or_quote(tmp_path, capsys, stem):
    data = tmp_path / f"{stem}.txt"
    data.write_text(HAND_DATA, encoding="utf-8")
    argv = ["run", "--dataset", str(data), "--algorithms", "single:PETRUN,single:OGD",
            "--runs", "1", "--no-timing"]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [8, 8, 8]
    assert [row[1] for row in rows[1:]] == [stem, stem]


def test_markdown_escapes_a_bar_in_the_dataset_name(tmp_path, capsys):
    # A line break in the name is written as a space: the header stays one line.
    for name, header in [("x|y.txt", r"| Algorithm | x\|y (B="),
                         ("x\ny\rz.txt", "| Algorithm | x y z (B=")]:
        data = tmp_path / name
        data.write_text(HAND_DATA, encoding="utf-8")
        argv = ["compare", "--dataset", str(data), "--algorithms", "single:PETRUN,single:OGD",
                "--runs", "1", "--no-timing"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [len(re.split(r"(?<!\\)\|", line)) - 2 for line in lines] == [3, 3, 3, 3]
        assert lines[0].startswith(header)


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
    # CW and SCW make the same 155 mistakes on this stream; both rows get flagged
    argv = ["compare", "--synthetic", SYNTH,
            "--algorithms", "single:CW,single:SCW,single:SOP",
            "--runs", "1", "--seed", "5", "--tmax", "5", "--no-timing"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("| **single:CW** | 155.0 ")
    assert lines[3].startswith("| **single:SCW** | 155.0 ")
    assert lines[4].startswith("| single:SOP |")


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


def test_run_golden_bytes(capsys):
    # The console-script argv CI diffs; BANOFS is the only golden run of RAND.
    argv = ["run", "--synthetic", "d=20,relevant=3,n=100,seed=1",
            "--algorithms", "single:PETRUN,BANOFS,MOANOFS",
            "--runs", "1", "--tmax", "5", "--no-timing"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "run.csv").read_text(encoding="utf-8")


def test_min_utility_golden_bytes(capsys):
    # The console-script argv CI diffs; its 10 trials reject 4 offers, so
    # the concession threshold decides the bytes.
    argv = ["run", "--synthetic", "d=20,relevant=3,n=100,seed=1",
            "--algorithms", "MOANOFS", "--conflict-rule", "min-utility",
            "--runs", "2", "--tmax", "5", "--no-timing"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "min_utility.csv").read_text(encoding="utf-8")


def test_projection_golden_bytes(capsys):
    # The console-script argv CI diffs; the only golden run of ALMA's and
    # FOFS's L2-ball step through the CLI.
    argv = ["run", "--synthetic", "d=20,relevant=3,n=100,seed=1",
            "--algorithms", "single:ALMA,single:FOFS", "--runs", "2", "--no-timing"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "projection.csv").read_text(encoding="utf-8")


# -- cmd_recover -------------------------------------------------------------------------------

def test_recover_golden_bytes(capsys):
    # The console-script argv CI diffs; recover draws its data on every run.
    argv = ["recover", "--synthetic", "d=20,relevant=3,n=100",
            "--runs", "1", "--tmax", "5", "--no-timing"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "recover.csv").read_text(encoding="utf-8")


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
    summary = capsys.readouterr().out
    assert summary.startswith("mean_precision=")
    assert "mean_recall=" in summary
    # Without --output the table and the summary both go to stdout.
    assert main(argv[:-2]) == 0
    assert capsys.readouterr().out == out.read_text() + summary


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
        cfg = SystemConfig(roster=[LearnerConfig(v) for v in ("PETRUN", "OGD")],
                           k=2, t_max=5, seed=seed, measure_time=False)
        selected = set(run_moanofs(dataset, cfg).merged.indices())
        hit = len(selected & planted)
        expected.append(f"{r},{seed},{hit / len(selected):.6f},{hit / len(planted):.6f},"
                        f"{len(selected)},{len(planted)}")
    assert out.read_text().splitlines()[1:] == expected


@pytest.mark.parametrize("algorithms", ["MANOFS", "single:PETRUN", "MOANOFS,BANOFS"])
def test_recover_rejects_other_algorithms(capsys, algorithms):
    argv = ["recover", "--synthetic", "d=40,relevant=5,n=300", "--algorithms", algorithms]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --algorithms" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--format", "markdown"), ("--dim", "99")])
def test_recover_rejects_flags_it_never_reads(capsys, flag, value):
    argv = ["recover", "--synthetic", "d=40,relevant=5,n=300", "--runs", "1", flag, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("spec, flags, message", [
    ("d=20,relevant=3,n=100", ["--k", "99"], "k must lie in [2, 9], got 99"),
    # Each run draws its data seed from --seed and the run index, so seed= would be dropped.
    ("d=20,relevant=3,n=100,seed=7", [],
     "recover takes each run's data seed from --seed; drop seed= from --synthetic"),
], ids=["k", "seed-key"])
def test_recover_checks_flags_before_generating_data(capsys, monkeypatch, spec, flags, message):
    generated = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda spec: generated.append(spec))
    argv = ["recover", "--synthetic", spec, *flags, "--runs", "1"]
    assert main(argv) == EXIT_CONFIG
    assert f"error: {message}" in capsys.readouterr().err
    assert generated == []


def test_recover_requires_synthetic(capsys):
    argv = ["recover", "--dataset", "whatever.txt"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert "the following arguments are required: --synthetic" in capsys.readouterr().err


OUTPUT_ARGV = {
    "run": ["run", "--synthetic", "d=20,relevant=3,n=100,seed=1", "--algorithms", "single:PETRUN"],
    "compare": ["compare", "--synthetic", "d=20,relevant=3,n=100,seed=1",
                "--algorithms", "single:PETRUN,single:OGD"],
    "recover": ["recover", "--synthetic", "d=20,relevant=3,n=100"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
def test_output_without_a_directory_fails_before_any_run(tmp_path, capsys, monkeypatch, command):
    generated = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda spec: generated.append(spec))
    out = tmp_path / "absent" / "x.csv"
    argv = OUTPUT_ARGV[command] + ["--runs", "1", "--tmax", "5", "--output", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --output {out}: no directory {tmp_path / 'absent'}\n")
    assert generated == []


@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
def test_output_that_cannot_be_written_is_one_error_line(tmp_path, capsys, command):
    # The directory exists, so the flag passes its check; writing to it fails.
    argv = OUTPUT_ARGV[command] + ["--runs", "1", "--tmax", "5", "--no-timing",
                                   "--output", str(tmp_path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --output {tmp_path}: ")
    assert err.count("\n") == 1


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
        # The child imports negofs from this checkout whether or not it is installed.
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(cmd, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_single_process_run_loads_no_pool_modules(tmp_path):
    # A fresh interpreter, so no other test's imports are in sys.modules.
    out = tmp_path / "one.csv"
    argv = ["run", "--synthetic", "d=30,relevant=4,n=200,density=0.3,noise=0.02",
            "--algorithms", "single:PETRUN,MOANOFS", "--runs", "2",
            "--seed", "7", "--tmax", "5", "--no-timing", "--output", str(out)]
    script = (
        "import sys\n"
        "from negofs.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    # A NEGOFS_THREADS above 1 must not bring a worker pool back.
    env = dict(os.environ, NEGOFS_THREADS="3")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert out.read_text().startswith(CSV_HEADER)
    assert proc.stdout.decode().split() == []
