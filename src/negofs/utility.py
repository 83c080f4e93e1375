"""Issue scoring, weighted multi-objective offer utility, and time pressure.

Offers are judged on three issues: the proposer's trust, its error rate and
its cost time, the seconds its learner spent stepping through its chunks
(0.0 in an untimed run). Each issue is scored into [0, 1] and the weighted
sum gives a scalar cost (lower is better). Time-dependent decision functions
model how an initiator concedes as a negotiation approaches its deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .negotiation import Offer


@dataclass(frozen=True)
class IssueDomain:
    """Acceptable value interval for one issue; lower values are better."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"degenerate domain [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class IssueWeightProfile:
    """Relative importance of the Trust, Error and CostTime issues; sums to 1."""

    trust: float = 0.2
    error: float = 0.5
    cost_time: float = 0.3

    def __post_init__(self):
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
        for name in ("f1", "f2", "t_init", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.t_init < self.t_max:
            raise ValueError(f"t_init must precede t_max ({self.t_init} >= {self.t_max})")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


@dataclass(frozen=True)
class DeadlineParams:
    """Deadline (absolute time or round count) and concession attitude."""

    t_d: float
    beta: float = 1.0

    def __post_init__(self):
        for name in ("t_d", "beta"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


def linear_score(value: float, domain: IssueDomain) -> float:
    """Score an issue value into [0, 1], 1 at the lower end; out-of-range values clamp."""
    v = min(max(value, domain.lower), domain.upper)
    return (domain.upper - v) / (domain.upper - domain.lower)


def aggregate_utility(profile: IssueWeightProfile, scores: Sequence[float]) -> float:
    """Weighted sum of per-issue scores, ordered (trust, error, cost_time)."""
    weights = profile.as_tuple()
    if len(scores) != len(weights):
        raise ValueError(f"expected {len(weights)} scores, got {len(scores)}")
    total = 0.0
    for w, s in zip(weights, scores):
        total += w * s
    return total


def _costs(
    profile: IssueWeightProfile,
    issues: Iterable[tuple[float, float, float]],
    error_domain: Optional[IssueDomain],
    time_domain: Optional[IssueDomain],
) -> list[float]:
    """offer_cost for each (trust, error rate, cost time), all in one loop.

    Lower raw values are better for error and time, so their badness is one
    minus linear_score, written inline. A missing domain means every offer
    tied this round and the issue carries no information.
    """
    w_trust, w_error, w_time = profile.as_tuple()
    costs = []
    for trust, err_rate, cost_time in issues:
        err_bad = time_bad = 0.0
        if error_domain is not None:
            lo, hi = error_domain.lower, error_domain.upper
            err_bad = 1.0 - (hi - min(max(err_rate, lo), hi)) / (hi - lo)
        if time_domain is not None:
            lo, hi = time_domain.lower, time_domain.upper
            time_bad = 1.0 - (hi - min(max(cost_time, lo), hi)) / (hi - lo)
        costs.append(w_trust * (1.0 - trust) + w_error * err_bad + w_time * time_bad)
    return costs


def offer_cost(
    offer: "Offer",
    profile: IssueWeightProfile,
    error_domain: Optional[IssueDomain],
    time_domain: Optional[IssueDomain],
) -> float:
    """Composite cost of an offer in [0, 1]; the best offer minimizes it.

    Trust contributes (1 - trust); error rate and cost time contribute their
    normalized badness within the round's observed ranges.
    """
    err_rate = offer.err_count / offer.instances if offer.instances > 0 else 0.0
    issues = ((offer.trust, err_rate, offer.cost_time),)
    return _costs(profile, issues, error_domain, time_domain)[0]


def round_domain(values: Sequence[float]) -> Optional[IssueDomain]:
    """Domain spanning one round's observed issue values.

    Returns None when all offers tie, in which case the issue is scored as
    zero badness for everyone.
    """
    lo, hi = min(values), max(values)
    if hi - lo <= 0.0:
        return None
    return IssueDomain(lo, hi)


def time_dependent_value(t: float, p: TimeStrategyParams) -> float:
    """Issue value conceded from f1 toward f2 as t runs from t_init to t_max."""
    t = min(max(t, p.t_init), p.t_max)
    frac = (t - p.t_init) / (p.t_max - p.t_init)
    return p.f1 + frac ** (1.0 / p.beta) * (p.f2 - p.f1)


def time_pressure(t: float, p: DeadlineParams) -> float:
    """Polynomial pressure decaying from 1 at t=0 to 0 at the deadline."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return 1.0 - (min(t, p.t_d) / p.t_d) ** (1.0 / p.beta)
