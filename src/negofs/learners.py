"""Truncation-based online learners that act as negotiating agents.

Every variant consumes a labelled stream one instance at a time: predict
with the current weights, count a mistake when the predicted sign differs
from the label, then apply the variant's update and re-impose the feature
budget by magnitude truncation.

First-order variants: PETRUN (perceptron + truncation), RAND (perceptron +
random index mask), FOFS (decayed perceptron step + L2-ball projection +
truncation), OGD, PA, ROMMA, ALMA. Second-order variants keep a diagonal
per-dimension scale sigma alongside the weights: SOP, CW, AROW, SCW.

Conventions shared by all variants:
  * sgn(0) = -1, so the zero model predicts -1.
  * an all-zero instance is predicted as -1 and never triggers an update
    (every closed form would divide by ||x||^2 or x'Sigma x).
  * mistakes count sign disagreements; update triggers are the variant's
    own rule (the perceptron family fires on y*margin <= 0, which includes
    the zero-margin case even when the sign happened to be correct).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

from .sparse import SparseVector, add_scaled, check_budget, dot, project_l2_ball, scale, truncate

FIRST_ORDER_VARIANTS = ("PETRUN", "RAND", "FOFS", "OGD", "PA", "ROMMA", "ALMA")
SECOND_ORDER_VARIANTS = ("SOP", "CW", "AROW", "SCW")
VARIANTS = FIRST_ORDER_VARIANTS + SECOND_ORDER_VARIANTS

# Guard for ROMMA's denominator ||x||^2*||w||^2 - (w'x)^2, which vanishes
# when w is zero or parallel to x; those cases fall back to a perceptron step.
_ROMMA_DEGENERATE = 1e-12


class Prediction(NamedTuple):
    sign: int
    margin: float


def sign_of(margin: float) -> int:
    return 1 if margin > 0 else -1


@dataclass(frozen=True)
class LearnerConfig:
    variant: str
    B: int | None = None          # feature budget; filled in from the dataset when None
    eta: float = 0.2              # learning rate (OGD, FOFS)
    lam: float = 0.01             # regularization (FOFS projection radius 1/sqrt(lam))
    r: float = 1.0                # second-order regularizer (SOP, AROW)
    confidence: float = 0.7       # CW/SCW probability constraint, in (0.5, 1)
    C: float = 1.0                # aggressiveness cap (PA, SCW)
    alpha_margin: float = 0.9     # ALMA approximation parameter, in (0, 1]
    seed: int = 0
    measure_time: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; valid: {', '.join(VARIANTS)}")
        for name in ("eta", "lam", "r", "C"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.5 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0.5, 1), got {self.confidence}")
        if not 0.0 < self.alpha_margin <= 1.0:
            raise ValueError(f"alpha_margin must lie in (0, 1], got {self.alpha_margin}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class Learner:
    """One agent-learner: weights, optional diagonal scale, and counters."""

    def __init__(self, config: LearnerConfig, dimension: int):
        if config.B is None:
            raise ValueError("LearnerConfig.B must be set before building a learner")
        check_budget(config.B, dimension)
        self.config = config
        self.dimension = dimension
        self.B = config.B
        self.w = SparseVector(dimension)
        self.sigma: dict[int, float] = {}  # second-order scale, 1.0 where unstored
        self.mistakes = 0
        self.cumulative_time = 0.0
        self.updates = 0           # updates actually applied to w
        self.instances = 0
        self.rng = random.Random(config.seed)
        self._alma_k = 1
        self._phi = NormalDist().inv_cdf(config.confidence)

    # -- prediction ---------------------------------------------------------

    def predict(self, x: SparseVector) -> Prediction:
        margin = dot(self.w, x)
        return Prediction(sign_of(margin), margin)

    def sigma_at(self, i: int) -> float:
        return self.sigma.get(i, 1.0)

    @property
    def error_rate(self) -> float:
        return self.mistakes / self.instances if self.instances else 0.0

    # -- stream consumption -------------------------------------------------

    def step(self, x: SparseVector, y: int) -> Prediction:
        """Predict, count the mistake, apply the timed update."""
        pred = self.predict(x)
        if self.config.measure_time:
            start = time.perf_counter()
            self.update(x, y, margin=pred.margin)
            self.cumulative_time += time.perf_counter() - start
        else:
            self.update(x, y, margin=pred.margin)
        self.instances += 1
        return pred

    def update(self, x: SparseVector, y: int, margin: float | None = None) -> None:
        """Apply the variant's update for one labelled instance."""
        if y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {y}")
        if margin is None:
            margin = dot(self.w, x)
        if sign_of(margin) != y:
            self.mistakes += 1
        if len(x) == 0:
            return
        getattr(self, f"_update_{self.config.variant.lower()}")(x, y, margin)

    def _set_weights(self, w: SparseVector) -> None:
        self.w = truncate(w, self.B)
        self.updates += 1

    # -- perceptron-with-truncation family ------------------------------------

    def _update_petrun(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin <= 0:
            self._set_weights(add_scaled(self.w, float(y), x))

    def _update_rand(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin <= 0:
            w_hat = add_scaled(self.w, float(y), x)
            perm = list(range(self.dimension))
            self.rng.shuffle(perm)
            keep = set(perm[: self.B])
            masked = SparseVector(
                self.dimension, {i: v for i, v in w_hat.items() if i in keep}
            )
            self.w = masked
            self.updates += 1

    def _update_fofs(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin <= 0.0:
            cfg = self.config
            w_tilde = add_scaled(scale(self.w, 1.0 - cfg.lam * cfg.eta), cfg.eta * y, x)
            self._set_weights(project_l2_ball(w_tilde, cfg.lam))

    # -- other first-order variants -------------------------------------------

    def _update_ogd(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin < 1.0:
            self._set_weights(add_scaled(self.w, self.config.eta * y, x))

    def _update_pa(self, x: SparseVector, y: int, margin: float) -> None:
        loss = max(0.0, 1.0 - y * margin)
        if loss > 0.0:
            tau = min(self.config.C, loss / x.norm_l2_sq())
            self._set_weights(add_scaled(self.w, tau * y, x))

    def _update_romma(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin > 0:
            return
        w_sq = self.w.norm_l2_sq()
        x_sq = x.norm_l2_sq()
        denom = x_sq * w_sq - margin * margin
        if denom <= _ROMMA_DEGENERATE * max(1.0, x_sq * w_sq):
            self._set_weights(add_scaled(self.w, float(y), x))
            return
        c = (x_sq * w_sq - y * margin) / denom
        d = w_sq * (1.0 - y * margin) / denom
        self._set_weights(add_scaled(scale(self.w, c), d * y, x))

    def _update_alma(self, x: SparseVector, y: int, margin: float) -> None:
        alpha = self.config.alpha_margin
        x_norm = x.norm_l2()
        margin_hat = margin / x_norm
        gamma = (1.0 / alpha) / math.sqrt(self._alma_k)
        if y * margin_hat <= (1.0 - alpha) * gamma:
            eta_k = math.sqrt(2.0) / math.sqrt(self._alma_k)
            w_next = add_scaled(self.w, eta_k * y / x_norm, x)
            norm = w_next.norm_l2()
            if norm > 1.0:
                w_next = scale(w_next, 1.0 / norm)
            self._set_weights(w_next)
            self._alma_k += 1

    # -- diagonal second-order variants ----------------------------------------

    def _confidence(self, x: SparseVector) -> float:
        return sum(self.sigma_at(i) * v * v for i, v in x.items())

    def _scaled_step(self, x: SparseVector, coeff: float) -> None:
        out = self.w.to_dict()
        for i, v in x.items():
            out[i] = out.get(i, 0.0) + coeff * self.sigma_at(i) * v
        self._set_weights(SparseVector(self.dimension, out))

    def _update_sop(self, x: SparseVector, y: int, margin: float) -> None:
        # Whitened perceptron: on a mistake, fold x into the per-dimension
        # correlation, then step along sigma*x.
        if y * margin <= 0:
            r = self.config.r
            for i, v in x.items():
                s = self.sigma_at(i)
                self.sigma[i] = s * r / (r + s * v * v)
            self._scaled_step(x, float(y))

    def _shrink_sigma(self, x: SparseVector, beta: float) -> None:
        for i, v in x.items():
            s = self.sigma_at(i)
            self.sigma[i] = s - beta * s * s * v * v

    def _update_arow(self, x: SparseVector, y: int, margin: float) -> None:
        v_conf = self._confidence(x)
        beta = 1.0 / (v_conf + self.config.r)
        loss = max(0.0, 1.0 - y * margin)
        alpha = loss * beta
        if alpha > 0.0:
            self._scaled_step(x, alpha * y)
        # Confidence tightens on every informative instance, update or not.
        self._shrink_sigma(x, beta)

    def _cw_alpha(self, m: float, v_conf: float) -> float:
        phi = self._phi
        psi = 1.0 + phi * phi / 2.0
        zeta = 1.0 + phi * phi
        root = math.sqrt(m * m * phi ** 4 / 4.0 + v_conf * phi * phi * zeta)
        return max(0.0, (-m * psi + root) / (v_conf * zeta))

    def _cw_apply(self, x: SparseVector, y: int, alpha: float, v_conf: float) -> None:
        phi = self._phi
        avp = alpha * v_conf * phi
        u = 0.25 * (-avp + math.sqrt(avp * avp + 4.0 * v_conf)) ** 2
        beta = alpha * phi / (math.sqrt(u) + avp)
        self._scaled_step(x, alpha * y)
        self._shrink_sigma(x, beta)

    def _update_cw(self, x: SparseVector, y: int, margin: float) -> None:
        v_conf = self._confidence(x)
        alpha = self._cw_alpha(y * margin, v_conf)
        if alpha > 0.0:
            self._cw_apply(x, y, alpha, v_conf)

    def _update_scw(self, x: SparseVector, y: int, margin: float) -> None:
        v_conf = self._confidence(x)
        alpha = min(self.config.C, self._cw_alpha(y * margin, v_conf))
        if alpha > 0.0:
            self._cw_apply(x, y, alpha, v_conf)
