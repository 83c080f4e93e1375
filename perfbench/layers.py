"""Outside-in tracing of the eight negofs modules, without touching `src/`.

`Tracer` replaces every public function of each module, at every negofs
module that bound it, plus four hot methods, with a wrapper that records a
span (name, start, end, parent) in memory. Self time is a span's duration
minus that of its child spans. Hooks on a few boundaries count work and
check invariants; a violated invariant is recorded, never raised, so the
traced pass finishes and the benchmark reports it. Only calls made in this
process are traced: the benchmark runs every workload with one process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from typing import NamedTuple

LAYERS = ("data", "sparse", "learners", "trust", "utility", "negotiation", "system", "cli")

# Public functions whose span carries a name other than "<layer>.<function>".
RENAMED = {
    "generate_synthetic": "data.generate",
    "load_sparse_text": "data.load",
    "update_trust": "trust.update",
    "call_for_proposals": "negotiation.cfp",
    "merge_multilateral": "negotiation.merge",
    "run_negotiation": "negotiation.run",
    "run_moanofs": "system.run",
    "run_manofs": "system.run",
    "elect_trustful": "system.elect",
}

# (layer, class, method, span name)
METHODS = (
    ("sparse", "SparseVector", "__init__", "sparse.new"),
    ("learners", "Learner", "step", "learners.step"),
    ("negotiation", "Participant", "make_offer", "negotiation.make_offer"),
    ("negotiation", "NegotiationTranscript", "append", "negotiation.transcript"),
)

# Variants that some workload runs; each gets a learners.step_us metric.
STEP_VARIANTS = ("PETRUN", "ROMMA", "ALMA", "OGD", "PA", "SOP", "CW", "AROW", "SCW")

_MAX_VIOLATION_MESSAGES = 20


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root


def self_times(spans) -> Counter:
    """Per span name: the sum of duration minus the duration of child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    out = Counter()
    for span, covered in zip(spans, child):
        out[span.name] += span.end - span.start - covered
    return out


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# -- hooks: (tracer, result, args, kwargs, duration) --------------------------

def _on_new(tracer, result, args, kwargs, duration):
    tracer.counts["sparse.new.entries"] += len(args[0])


def _on_truncate(tracer, result, args, kwargs, duration):
    w, B = _arg(args, kwargs, 0, "w"), _arg(args, kwargs, 1, "B")
    tracer.counts["sparse.truncate.cuts"] += len(w) - len(result)
    if len(result) > B:
        tracer.violation(f"truncate kept {len(result)} entries over budget {B}")


def _on_step(tracer, result, args, kwargs, duration):
    learner, x = args[0], _arg(args, kwargs, 1, "x")
    variant = learner.config.variant
    counts = tracer.counts
    counts["learners.input_nnz"] += len(x)
    counts["learners.step_s." + variant] += duration
    counts["learners.steps." + variant] += 1
    tracer.learners[id(learner)] = learner
    if learner.mistakes > learner.instances:
        tracer.violation(f"{variant}: {learner.mistakes} mistakes in {learner.instances} instances")


def _on_update_trust(tracer, result, args, kwargs, duration):
    if not 0.0 <= result.sat <= 1.0:
        tracer.violation(f"update_trust gave trust {result.sat} outside [0, 1]")


def _on_cfp(tracer, result, args, kwargs, duration):
    tracer.counts["negotiation.offers_proposed"] += len(result)


def _on_merge(tracer, result, args, kwargs, duration):
    offers, cfg = _arg(args, kwargs, 0, "offers"), _arg(args, kwargs, 2, "cfg")
    merged = result[0]
    union = set()
    for offer in offers:
        union.update(offer.w.indices())
    counts = tracer.counts
    counts["negotiation.offers_merged"] += len(offers)
    counts["negotiation.merge.entries_in"] += sum(len(o.w) for o in offers)
    counts["negotiation.merge.entries_cut"] += len(union) - len(merged)
    if len(merged) > cfg.merged_budget:
        tracer.violation(f"merge kept {len(merged)} entries over budget {cfg.merged_budget}")


def _on_run_negotiation(tracer, result, args, kwargs, duration):
    tracer.counts["negotiation.trials"] += len(result[2])


def _on_execute_run(tracer, result, args, kwargs, duration):
    if result.mistakes > result.instances:
        tracer.violation(
            f"{result.algorithm}: {result.mistakes} mistakes in {result.instances} instances"
        )


HOOKS = {
    "sparse.new": _on_new,
    "sparse.truncate": _on_truncate,
    "learners.step": _on_step,
    "trust.update": _on_update_trust,
    "negotiation.cfp": _on_cfp,
    "negotiation.merge": _on_merge,
    "negotiation.run": _on_run_negotiation,
    "cli.execute_run": _on_execute_run,
}


class Tracer:
    """Context manager: patches negofs on enter, restores every name on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.learners: dict[int, object] = {}
        self.violations = 0
        self.messages: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def violation(self, message: str) -> None:
        self.violations += 1
        if len(self.messages) < _MAX_VIOLATION_MESSAGES:
            self.messages.append(message)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, stack[-1] if stack else -1)
            if hook is not None:
                hook(tracer, result, args, kwargs, end - start)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"negofs.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(RENAMED.get(attr, f"{layer}.{attr}"), obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "negofs" and not module_name.startswith("negofs."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
        return self

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Self/inclusive time and calls per span name, counters and checks."""
        incl, calls = Counter(), Counter()
        for span in self.spans:
            incl[span.name] += span.end - span.start
            calls[span.name] += 1
        counts = Counter(self.counts)
        for learner in self.learners.values():
            counts["learners.updates"] += learner.updates
            counts["learners.instances"] += learner.instances
        return {
            "self_s": dict(self_times(self.spans)),
            "incl_s": dict(incl),
            "calls": dict(calls),
            "counts": dict(counts),
            "violations": self.violations,
            "messages": list(self.messages),
        }


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (data setup metrics excluded)."""
    self_s, calls, counts = agg["self_s"], agg["calls"], agg["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {"data.stream_s": self_s.get("data.permute", 0.0) + self_s.get("data.stream_of", 0.0)}
    for op in ("new", "dot", "add_scaled", "scale", "truncate"):
        m[f"sparse.{op}.calls"] = calls.get(f"sparse.{op}", 0)
        m[f"sparse.{op}.self_s"] = self_s.get(f"sparse.{op}", 0.0)
    m["sparse.new.entries"] = counts.get("sparse.new.entries", 0)
    m["sparse.truncate.cuts"] = counts.get("sparse.truncate.cuts", 0)
    m["sparse.entries_per_input_nnz"] = ratio(
        counts.get("sparse.new.entries", 0), counts.get("learners.input_nnz", 0))
    m["learners.step.calls"] = calls.get("learners.step", 0)
    m["learners.step.self_s"] = self_s.get("learners.step", 0.0)
    for variant in STEP_VARIANTS:
        m[f"learners.step_us.{variant}"] = 1e6 * ratio(
            counts.get(f"learners.step_s.{variant}", 0.0), counts.get(f"learners.steps.{variant}", 0))
    m["learners.update_ratio"] = ratio(
        counts.get("learners.updates", 0), counts.get("learners.instances", 0))
    for name in ("trust.update", "utility.offer_cost", "negotiation.merge"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["negotiation.trials"] = counts.get("negotiation.trials", 0)
    m["negotiation.merge.entries_in"] = counts.get("negotiation.merge.entries_in", 0)
    m["negotiation.merge.entries_cut"] = counts.get("negotiation.merge.entries_cut", 0)
    m["negotiation.accept_ratio"] = ratio(
        counts.get("negotiation.offers_merged", 0), counts.get("negotiation.offers_proposed", 0))
    for name in ("negotiation.cfp", "negotiation.broadcast", "negotiation.run",
                 "system.run", "system.calibrate", "system.elect", "cli.run_experiment"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["negotiation.transcript.messages"] = calls.get("negotiation.transcript", 0)
    total = sum(self_s.values())
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_share"] = ratio(share, total)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
