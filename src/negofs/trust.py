"""Direct-trust recurrence used to score each learner's reliability.

Trust is an exponentially averaged satisfaction value. The averaging weight
alpha adapts to the deviation between the newest satisfaction and the
running value: large surprises move trust faster, while the accumulated
deviation xi damps reaction to oscillating behaviour. A threshold keeps
alpha from collapsing to a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sparse import _check_field_types


@dataclass(frozen=True)
class TrustParams:
    c: float = 0.5            # reaction weight for the most recent deviation
    threshold: float = 0.25   # floor that keeps alpha from saturating

    def __post_init__(self):
        _check_field_types(self, reals=("c", "threshold"))
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not 0.0 < self.c <= 1.0 - self.threshold:
            raise ValueError(
                f"c must lie in (0, 1 - threshold] = (0, {1.0 - self.threshold}], got {self.c}"
            )


@dataclass(frozen=True)
class TrustState:
    """Satisfaction/deviation state for one (evaluator, target) pair."""

    sat: float = 0.0   # running satisfaction, equals the direct trust value
    xi: float = 0.0    # accumulated deviation
    n: int = 0         # transactions seen


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
    if state.n == 0:
        alpha = 1.0
    else:
        alpha = params.threshold + params.c * delta / (1.0 + xi)
    sat = alpha * sat_cur + (1.0 - alpha) * state.sat
    return TrustState(sat, xi, state.n + 1)

