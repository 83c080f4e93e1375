"""The benchmark's own checks: self time, restoration of patched names, and a
tiny run of every workload that must emit every metric.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys

import pytest

import run
from layers import LAYERS, Span, Tracer, self_times
from workloads import WORKLOADS

PROGRAM = run.Program()


def test_self_time_is_span_minus_children():
    spans = [
        Span("cli.run_experiment", 0.0, 10.0, -1),
        Span("system.run", 1.0, 9.0, 0),
        Span("sparse.dot", 2.0, 3.0, 1),
        Span("learners.step", 3.0, 7.0, 1),
        Span("sparse.dot", 4.0, 4.5, 3),
        Span("sparse.new", 5.0, 6.0, 3),
        Span("sparse.dot", 9.5, 10.0, 0),
    ]
    assert self_times(spans) == pytest.approx({
        "cli.run_experiment": 10.0 - 8.0 - 0.5,
        "system.run": 8.0 - 1.0 - 4.0,
        "sparse.dot": 1.0 + 0.5 + 0.5,
        "learners.step": 4.0 - 0.5 - 1.0,
        "sparse.new": 1.0,
    })


def _namespaces():
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "negofs" or name.startswith("negofs.")]
    owners += [getattr(m, name) for m in owners for name, obj in vars(m).items()
               if isinstance(obj, type) and obj.__module__ == m.__name__]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_every_patched_name_is_restored(tmp_path):
    before = _namespaces()
    inp = run.Input(PROGRAM, _tiny(WORKLOADS["ensemble"]), 0, tmp_path)
    inp.setup()
    with Tracer() as tracer:
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        inp.run_pass()
    assert len(patched) > 40
    assert tracer.spans
    for owner, namespace in before.values():
        current = vars(owner)
        for attr, obj in namespace.items():
            assert current[attr] is obj, f"{owner!r}.{attr} not restored"


def _tiny(workload):
    return dataclasses.replace(workload, synthetic={**workload.synthetic, "n": 40})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, tmp_path):
    inp = run.Input(PROGRAM, _tiny(WORKLOADS[name]), 0, tmp_path)
    inp.setup()
    rows, _, _ = inp.run_pass()
    checker = run.Checker({row.algorithm: row.mean_mistakes for row in rows})

    end_to_end = run.measure_end_to_end(inp, 0.0, checker)
    layers = run.measure_layers(inp, 0.0, checker)

    assert checker.failed == 0, checker.problems
    assert set(end_to_end) == set(run.END_TO_END_UNITS)
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert all(v > 0 for v in end_to_end.values())
    assert sum(layers[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(1.0)
    assert layers["learners.step.calls"] > 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_reference_covers_every_input():
    recorded = json.loads(run.REFERENCE.read_text())
    for workload in WORKLOADS.values():
        inputs = recorded["mistakes"][workload.name]
        assert sorted(map(int, inputs)) == list(range(recorded["inputs"]))


def test_passes_repeat(tmp_path):
    inp = run.Input(PROGRAM, _tiny(WORKLOADS["negotiate-every-instance"]), 0, tmp_path)
    inp.setup()
    first, wall, cpu = inp.run_pass()
    second, _, _ = inp.run_pass()
    assert wall > 0.0 and cpu > 0.0
    assert [r.mean_mistakes for r in first] == [r.mean_mistakes for r in second]
