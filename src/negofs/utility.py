"""Issue weights, issue badness and the concession curve for scoring offers.

Offers are judged on three issues: the proposer's trust, its error rate and
its cost time, the seconds its learner spent stepping through its chunks
(0.0 in an untimed run). negotiation.offer_costs scores each issue into
[0, 1] within the round's observed range (issue_badness) and sums the
scores, weighted by an IssueWeightProfile, into a scalar cost (lower is
better).
acceptance_threshold is the initiator's one concession curve: the linear
member of the time-dependent tactics of Faratin, Sierra and Jennings (1998),
whose value runs from 1 at trial 0 to 0 at t_max. Under min-utility a trial
accepts the offers whose cost is at most 1 minus that value.
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


def acceptance_threshold(trial: int, t_max: int) -> float:
    """The highest offer cost the initiator accepts at a trial, 0 <= trial <= t_max.

    It rises from 0 at trial 0 to 1 at t_max. It is computed as one minus
    the tactic's value 1 - trial/t_max, so its bits equal those of the
    general form at f1 = 1, f2 = 0, t_init = 0 and beta = 1.
    """
    return 1.0 - (1.0 - trial / t_max)
