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
from dataclasses import dataclass
from statistics import NormalDist

from .sparse import (
    SparseVector,
    _add_cut,
    _check_field_types,
    _restrict,
    check_budget,
    dot,
)

FIRST_ORDER_VARIANTS = ("PETRUN", "RAND", "FOFS", "OGD", "PA", "ROMMA", "ALMA")
SECOND_ORDER_VARIANTS = ("SOP", "CW", "AROW", "SCW")
VARIANTS = FIRST_ORDER_VARIANTS + SECOND_ORDER_VARIANTS

# Guard for ROMMA's denominator ||x||^2*||w||^2 - (w'x)^2: where it vanishes (w zero
# or parallel to x) or is NaN (inf*0), ROMMA takes the perceptron step.
_ROMMA_DEGENERATE = 1e-12


def sign_of(margin: float) -> int:
    return 1 if margin > 0 else -1


@dataclass(frozen=True)
class LearnerConfig:
    variant: str
    eta: float = 0.2              # learning rate (OGD, FOFS)
    lam: float = 0.01             # regularization (FOFS projection radius 1/sqrt(lam))
    r: float = 1.0                # second-order regularizer (SOP, AROW)
    confidence: float = 0.7       # CW/SCW probability constraint, in (0.5, 1)
    C: float = 1.0                # aggressiveness cap (PA, SCW)
    alpha_margin: float = 0.9     # ALMA approximation parameter, in (0, 1]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; valid: {', '.join(VARIANTS)}")
        _check_field_types(self, reals=("eta", "lam", "r", "confidence", "C", "alpha_margin"))
        for name in ("eta", "lam", "r", "C"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0.5 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0.5, 1), got {self.confidence}")
        if not 0.0 < self.alpha_margin <= 1.0:
            raise ValueError(f"alpha_margin must lie in (0, 1], got {self.alpha_margin}")


class Learner:
    """One agent-learner: weights, optional diagonal scale, and counters.

    B is the feature budget; seed drives RAND's random mask.
    """

    def __init__(self, config: LearnerConfig, dimension: int, B: int, seed: int = 0):
        check_budget(B, dimension)
        self.config = config
        self.dimension = dimension
        self.B = B
        self.w = SparseVector(dimension)
        self.sigma: dict[int, float] = {}  # second-order scale, 1.0 where unstored
        self.mistakes = 0
        self.updates = 0           # updates actually applied to w
        self.instances = 0
        self.rng = random.Random(seed)
        self._phi = NormalDist().inv_cdf(config.confidence)
        self._update_variant = getattr(self, f"_update_{config.variant.lower()}")

    # -- stream consumption -------------------------------------------------

    def step(self, x: SparseVector, y: int, margin: float | None = None) -> None:
        """Predict, count the mistake in self.mistakes, apply the variant's update.

        margin, when given, must equal dot(self.w, x): a caller that already
        computed it for the same two vectors passes it instead.
        """
        if y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {y}")
        if margin is None:
            margin = dot(self.w, x)
        if sign_of(margin) != y:
            self.mistakes += 1
        if len(x):
            self._update_variant(x, y, margin)
        self.instances += 1

    def _add_step(self, coeff: float, x: SparseVector, beta: float | None = None,
                  lam: float | None = None, s: float = 1.0) -> None:
        """Set w to s*w + coeff*sigma*x cut to B; a given beta also shrinks sigma on x,
        and a given lam first scales the sum into the L2 ball of radius 1/sqrt(lam)."""
        self.w = _add_cut(self.w, coeff, x, self.B, self.sigma, beta, lam, s)
        self.updates += 1

    # -- perceptron-with-truncation family ------------------------------------

    def _update_petrun(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin <= 0:
            self._add_step(float(y), x)

    def _update_rand(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin <= 0:
            perm = list(range(self.dimension))
            self.rng.shuffle(perm)
            keep = set(perm[: self.B])
            # With B = d, _add_cut never cuts: the random mask alone selects.
            self.w = _restrict(_add_cut(self.w, float(y), x, self.dimension, self.sigma), keep)
            self.updates += 1

    def _update_fofs(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin <= 0.0:
            cfg = self.config
            self._add_step(cfg.eta * y, x, lam=cfg.lam, s=1.0 - cfg.lam * cfg.eta)

    # -- other first-order variants -------------------------------------------

    def _update_ogd(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin < 1.0:
            self._add_step(self.config.eta * y, x)

    def _update_pa(self, x: SparseVector, y: int, margin: float) -> None:
        loss = max(0.0, 1.0 - y * margin)
        if loss > 0.0:
            tau = min(self.config.C, loss / x.norm_l2_sq())
            self._add_step(tau * y, x)

    def _update_romma(self, x: SparseVector, y: int, margin: float) -> None:
        if y * margin > 0:
            return
        w_sq = self.w.norm_l2_sq()
        x_sq = x.norm_l2_sq()
        denom = x_sq * w_sq - margin * margin
        c = d = 1.0
        if denom > _ROMMA_DEGENERATE * max(1.0, x_sq * w_sq):
            c = (x_sq * w_sq - y * margin) / denom
            d = w_sq * (1.0 - y * margin) / denom
            if d == math.inf:  # the product overflowed; the quotient need not
                d = w_sq / denom * (1.0 - y * margin)
        self._add_step(d * y, x, s=c)

    def _update_alma(self, x: SparseVector, y: int, margin: float) -> None:
        alpha = self.config.alpha_margin
        x_norm = x.norm_l2()
        margin_hat = margin / x_norm
        k = self.updates + 1
        gamma = (1.0 / alpha) / math.sqrt(k)
        if y * margin_hat <= (1.0 - alpha) * gamma:
            eta_k = math.sqrt(2.0) / math.sqrt(k)
            self._add_step(eta_k * y / x_norm, x, lam=1.0)

    # -- diagonal second-order variants ----------------------------------------

    def _confidence(self, x: SparseVector) -> float:
        get = self.sigma.get
        total = 0.0
        for i, v in x.items():
            total += get(i, 1.0) * v * v
        return total

    def _update_sop(self, x: SparseVector, y: int, margin: float) -> None:
        # Whitened perceptron: on a mistake, fold x into the per-dimension
        # correlation, then step along sigma*x.
        if y * margin <= 0:
            r = self.config.r
            sigma = self.sigma
            for i, v in x.items():
                s = sigma.get(i, 1.0)
                sigma[i] = s * r / (r + s * v * v)
            self._add_step(float(y), x)

    def _shrink_sigma(self, x: SparseVector, beta: float) -> None:
        sigma = self.sigma
        for i, v in x.items():
            s = sigma.get(i, 1.0)
            sigma[i] = s - beta * s * s * v * v

    def _update_arow(self, x: SparseVector, y: int, margin: float) -> None:
        v_conf = self._confidence(x)
        beta = 1.0 / (v_conf + self.config.r)
        loss = max(0.0, 1.0 - y * margin)
        alpha = loss * beta
        # Confidence tightens on every informative instance, update or not.
        if alpha > 0.0:
            self._add_step(alpha * y, x, beta)
        else:
            self._shrink_sigma(x, beta)

    def _cw_alpha(self, m: float, v_conf: float) -> float:
        if v_conf <= 0.0:
            # sigma has shrunk to zero on x's support: the step sigma*x is zero.
            return 0.0
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
        self._add_step(alpha * y, x, beta)

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
