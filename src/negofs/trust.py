"""Direct-trust recurrence used to score each learner's reliability.

Trust is an exponentially averaged satisfaction value. The averaging weight
alpha adapts to the deviation between the newest satisfaction and the
running value: large surprises move trust faster, while the accumulated
deviation xi damps reaction to oscillating behaviour. A threshold keeps
alpha from collapsing to a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TrustParams:
    c: float = 0.5            # reaction weight for the most recent deviation
    threshold: float = 0.25   # floor that keeps alpha from saturating
    sat_initial: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must lie in (0, 1), got {self.c}")
        if not 0.0 < self.threshold <= 1.0 - self.c:
            raise ValueError(
                f"threshold must lie in (0, 1 - c] = (0, {1.0 - self.c}], got {self.threshold}"
            )
        if not 0.0 <= self.sat_initial <= 1.0:
            raise ValueError(f"sat_initial must lie in [0, 1], got {self.sat_initial}")


@dataclass(frozen=True)
class TrustState:
    """Satisfaction/deviation state for one (evaluator, target) pair."""

    sat: float = 0.0   # running satisfaction, equals the direct trust value
    xi: float = 0.0    # accumulated deviation
    n: int = 0         # transactions seen

    @property
    def first_done(self) -> bool:
        return self.n > 0


def satisfaction_of_window(correct: int, total: int) -> float:
    """Satisfaction of one transaction window: fraction of correct predictions."""
    if total <= 0:
        raise ValueError(f"window total must be positive, got {total}")
    if not 0 <= correct <= total:
        raise ValueError(f"correct must lie in [0, {total}], got {correct}")
    return correct / total


def update_trust(state: TrustState, sat_cur: float, params: TrustParams) -> TrustState:
    """Fold one transaction's satisfaction into the running trust value.

    Per transaction: delta = |sat - sat_cur|, then xi is exponentially
    averaged with weight c, then alpha = threshold + c*delta/(1 + xi)
    (forced to 1 on the very first transaction), then
    sat = alpha*sat_cur + (1 - alpha)*sat.
    """
    if not 0.0 <= sat_cur <= 1.0:
        raise ValueError(f"sat_cur must lie in [0, 1], got {sat_cur}")
    delta = abs(state.sat - sat_cur)
    xi = params.c * delta + (1.0 - params.c) * state.xi
    if not state.first_done:
        alpha = 1.0
    else:
        alpha = params.threshold + params.c * delta / (1.0 + xi)
    sat = alpha * sat_cur + (1.0 - alpha) * state.sat
    return replace(state, sat=sat, xi=xi, n=state.n + 1)


def direct_trust(state: TrustState) -> float:
    """Direct trust is the running satisfaction itself."""
    return state.sat
