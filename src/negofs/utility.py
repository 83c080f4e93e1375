"""Issue weights, issue badness and the concession curve for scoring offers.

Offers are judged on three issues: the proposer's trust, its error rate and
its cost time, the seconds its learner spent stepping through its chunks
(0.0 in an untimed run). negotiation.offer_costs scores each issue into
[0, 1] within the round's observed range (issue_badness) and sums the
scores, weighted by an IssueWeightProfile, into a scalar cost (lower is
better).
time_dependent_value is the time-dependent tactic of Faratin, Sierra and
Jennings (1998), a value conceded from f1 toward f2 as t runs from t_init to
t_max. It is the initiator's one concession curve: under min-utility the
tactic runs from 1 at t = 0 to 0 at the last trial, and a trial accepts the
offers whose cost is at most 1 minus its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .sparse import _check_field_types


@dataclass(frozen=True)
class IssueWeightProfile:
    """Relative importance of the Trust, Error and CostTime issues; sums to 1."""

    trust: float = 0.2
    error: float = 0.5
    cost_time: float = 0.3

    def __post_init__(self):
        _check_field_types(self, reals=("trust", "error", "cost_time"))
        for name, w in zip(("trust", "error", "cost_time"), self.as_tuple()):
            if not 0 <= w < math.inf:
                raise ValueError(f"issue weight {name} must be finite and >= 0, got {w}")
        total = self.trust + self.error + self.cost_time
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"issue weights must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.trust, self.error, self.cost_time)


@dataclass(frozen=True)
class TimeStrategyParams:
    """Parameters of the time-dependent issue-value strategy."""

    f1: float
    f2: float
    t_init: float
    t_max: float
    beta: float = 1.0

    def __post_init__(self):
        _check_field_types(self, reals=("f1", "f2", "t_init", "t_max", "beta"))
        for name in ("f1", "f2", "t_init", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t_init < self.t_max:
            raise ValueError(f"t_init must precede t_max ({self.t_init} >= {self.t_max})")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


def issue_badness(values: Sequence[float]) -> list[float]:
    """Each of one round's issue values scored within the round's range.

    The lowest value scores 0 and the highest 1. When all offers tie, the
    issue carries no information and every value scores 0.
    """
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0.0:
        return [0.0] * len(values)
    return [1.0 - (hi - v) / span for v in values]


def time_dependent_value(t: float, p: TimeStrategyParams) -> float:
    """Issue value conceded from f1 toward f2 as t runs from t_init to t_max."""
    t = min(max(t, p.t_init), p.t_max)
    frac = (t - p.t_init) / (p.t_max - p.t_init)
    return p.f1 + frac ** (1.0 / p.beta) * (p.f2 - p.f1)
