"""Independent dense reference implementations used as test oracles.

Everything here works on plain Python lists indexed 0..d-1, or on
{index: value} dicts and floats, and is written straight from the update
equations, deliberately sharing no code with the package under test (the
only shared contract is the RNG discipline of the random-mask learner: one
shuffle of range(d) per triggered update, drawn from random.Random(seed)).
The synthetic-stream reference is one exception: it wraps each instance
through the package's validating SparseVector constructor, which the
generator under test skips. The two-level pipeline reference is the other:
it reads its stream, its budget and its permutation from negofs.data, and
seeds each learner as system.build_learners does.
"""

import math
import random
from statistics import NormalDist


def _total(terms):
    """The terms added left to right, as the package adds its float sums.

    sum() compensates its float additions from CPython 3.12 on, so it can
    round differently from the package's loops.
    """
    total = 0.0
    for t in terms:
        total += t
    return total


def dense_dot(a, b):
    return _total(x * y for x, y in zip(a, b))


def dense_truncate(w, B):
    """Keep the B largest-magnitude entries; ties keep the lower index."""
    nz = [i for i, v in enumerate(w) if v != 0.0]
    if len(nz) <= B:
        return list(w)
    ranked = sorted(nz, key=lambda i: (-abs(w[i]), i))
    keep = set(ranked[:B])
    return [v if i in keep else 0.0 for i, v in enumerate(w)]


def _drop_tiny(w):
    return [0.0 if abs(v) < 1e-15 else v for v in w]


def l2_norm_reference(values):
    """||values||, the squares added left to right in index order.

    When their sum overflows, the norm is m*sqrt(sum((v/m)**2)), m the
    largest magnitude.
    """
    sq = 0.0
    for v in values:
        sq += v * v
    if sq < math.inf:
        return math.sqrt(sq)
    m = max(abs(v) for v in values)
    scaled = 0.0
    for v in values:
        scaled += (v / m) * (v / m)
    return m * math.sqrt(scaled)


class DenseLearner:
    """Dense mirror of every learner variant, one update rule per method."""

    def __init__(self, variant, d, B, eta=0.2, lam=0.01, r=1.0, confidence=0.7,
                 C=1.0, alpha_margin=0.9, seed=0):
        self.variant = variant
        self.d = d
        self.B = B
        self.eta = eta
        self.lam = lam
        self.r = r
        self.C = C
        self.alpha_margin = alpha_margin
        self.w = [0.0] * d
        self.sigma = [1.0] * d
        self.mistakes = 0
        self.rng = random.Random(seed)
        self.alma_k = 1
        self.phi = NormalDist().inv_cdf(confidence)

    def step(self, x, y):
        margin = dense_dot(self.w, x)
        sign = 1 if margin > 0 else -1
        if sign != y:
            self.mistakes += 1
        if all(v == 0.0 for v in x):
            return
        getattr(self, "up_" + self.variant.lower())(x, y, margin)

    # first-order

    def up_petrun(self, x, y, margin):
        if y * margin <= 0:
            w = _drop_tiny([wi + y * xi for wi, xi in zip(self.w, x)])
            self.w = dense_truncate(w, self.B)

    def up_rand(self, x, y, margin):
        if y * margin <= 0:
            w = _drop_tiny([wi + y * xi for wi, xi in zip(self.w, x)])
            perm = list(range(self.d))
            self.rng.shuffle(perm)
            keep = set(perm[: self.B])
            self.w = [v if i in keep else 0.0 for i, v in enumerate(w)]

    def up_fofs(self, x, y, margin):
        if y * margin <= 0:
            decay = 1.0 - self.lam * self.eta
            w = _drop_tiny([decay * wi + self.eta * y * xi for wi, xi in zip(self.w, x)])
            norm = l2_norm_reference(w)
            if norm > 0:
                factor = min(1.0, 1.0 / (math.sqrt(self.lam) * norm))
                w = [factor * v for v in w]
            self.w = dense_truncate(_drop_tiny(w), self.B)

    def up_ogd(self, x, y, margin):
        if y * margin < 1.0:
            w = _drop_tiny([wi + self.eta * y * xi for wi, xi in zip(self.w, x)])
            self.w = dense_truncate(w, self.B)

    def up_pa(self, x, y, margin):
        loss = max(0.0, 1.0 - y * margin)
        if loss > 0:
            x_sq = _total(v * v for v in x)
            tau = min(self.C, loss / x_sq)
            w = _drop_tiny([wi + tau * y * xi for wi, xi in zip(self.w, x)])
            self.w = dense_truncate(w, self.B)

    def up_romma(self, x, y, margin):
        if y * margin > 0:
            return
        w_sq = _total(v * v for v in self.w)
        x_sq = _total(v * v for v in x)
        denom = x_sq * w_sq - margin * margin
        # A NaN denominator (inf*0 when ||x||^2 overflows and w is zero) fails
        # the test as a vanishing one does.
        if not denom > 1e-12 * max(1.0, x_sq * w_sq):
            w = [wi + y * xi for wi, xi in zip(self.w, x)]
        else:
            c = (x_sq * w_sq - y * margin) / denom
            dd = w_sq * (1.0 - y * margin) / denom
            if dd == math.inf:  # w_sq*(1 - y*margin) overflowed: divide first
                dd = w_sq / denom * (1.0 - y * margin)
            w = [c * wi + dd * y * xi for wi, xi in zip(self.w, x)]
        self.w = dense_truncate(_drop_tiny(w), self.B)

    def up_alma(self, x, y, margin):
        alpha = self.alpha_margin
        x_norm = l2_norm_reference(x)
        gamma = (1.0 / alpha) / math.sqrt(self.alma_k)
        if y * margin / x_norm <= (1.0 - alpha) * gamma:
            eta_k = math.sqrt(2.0) / math.sqrt(self.alma_k)
            # The step coefficient eta_k*y/||x|| and the scale 1/||w|| onto the
            # unit ball are each rounded once, as the package rounds them.
            coeff = eta_k * y / x_norm
            w = _drop_tiny([wi + coeff * xi for wi, xi in zip(self.w, x)])
            norm = l2_norm_reference(w)
            if norm > 1.0:
                w = [(1.0 / norm) * v for v in w]
            self.w = dense_truncate(_drop_tiny(w), self.B)
            self.alma_k += 1

    # second-order (diagonal)

    def up_sop(self, x, y, margin):
        if y * margin <= 0:
            for i, xi in enumerate(x):
                if xi != 0.0:
                    s = self.sigma[i]
                    self.sigma[i] = s * self.r / (self.r + s * xi * xi)
            w = _drop_tiny([wi + y * si * xi
                            for wi, si, xi in zip(self.w, self.sigma, x)])
            self.w = dense_truncate(w, self.B)

    def up_arow(self, x, y, margin):
        v_conf = _total(s * xi * xi for s, xi in zip(self.sigma, x))
        beta = 1.0 / (v_conf + self.r)
        loss = max(0.0, 1.0 - y * margin)
        alpha = loss * beta
        if alpha > 0:
            w = _drop_tiny([wi + alpha * y * si * xi
                            for wi, si, xi in zip(self.w, self.sigma, x)])
            self.w = dense_truncate(w, self.B)
        self.sigma = [s - beta * s * s * xi * xi for s, xi in zip(self.sigma, x)]

    def _cw_alpha(self, m, v_conf):
        phi = self.phi
        psi = 1.0 + phi * phi / 2.0
        zeta = 1.0 + phi * phi
        root = math.sqrt(m * m * phi ** 4 / 4.0 + v_conf * phi * phi * zeta)
        return max(0.0, (-m * psi + root) / (v_conf * zeta))

    def _cw_apply(self, x, y, alpha, v_conf):
        phi = self.phi
        avp = alpha * v_conf * phi
        u = 0.25 * (-avp + math.sqrt(avp * avp + 4.0 * v_conf)) ** 2
        beta = alpha * phi / (math.sqrt(u) + avp)
        w = _drop_tiny([wi + alpha * y * si * xi
                        for wi, si, xi in zip(self.w, self.sigma, x)])
        self.w = dense_truncate(w, self.B)
        self.sigma = [s - beta * s * s * xi * xi for s, xi in zip(self.sigma, x)]

    def up_cw(self, x, y, margin):
        v_conf = _total(s * xi * xi for s, xi in zip(self.sigma, x))
        alpha = self._cw_alpha(y * margin, v_conf)
        if alpha > 0:
            self._cw_apply(x, y, alpha, v_conf)

    def up_scw(self, x, y, margin):
        v_conf = _total(s * xi * xi for s, xi in zip(self.sigma, x))
        alpha = min(self.C, self._cw_alpha(y * margin, v_conf))
        if alpha > 0:
            self._cw_apply(x, y, alpha, v_conf)


def merge_offers_reference(offers, conflict_key):
    """Per-feature reference merge over dense views of the offers.

    offers: list of (participant_id, dense_w, err_count); conflict_key maps a
    participant id to its comparison key (lower wins, id breaks ties).
    """
    d = len(offers[0][1])
    merged = [0.0] * d
    for i in range(d):
        selecting = [(pid, w[i]) for pid, w, _ in offers if w[i] != 0.0]
        if not selecting:
            continue
        if len(selecting) == 1:
            merged[i] = selecting[0][1]
        else:
            pid, value = min(selecting, key=lambda pv: (conflict_key(pv[0]), pv[0]))
            merged[i] = value
    return merged


# -- sparse references on {index: value} dicts ---------------------------------

def sparse_reference(raw, c=1.0):
    """The entries a vector of c*raw holds: ascending indices, |value| >= 1e-15 only."""
    return {i: c * raw[i] for i in sorted(raw) if abs(c * raw[i]) >= 1e-15}


def truncate_reference(w, B):
    """The B entries of w of largest magnitude, ties to the lower index, in index order."""
    ranked = sorted(w.items(), key=lambda iv: (-abs(iv[1]), iv[0]))
    return dict(sorted(ranked[:B]))


def project_l2_ball_reference(w, lam):
    """w scaled by min(1, 1/(sqrt(lam)*||w||)); the zero vector is a fixed point."""
    norm = l2_norm_reference([w[i] for i in sorted(w)])
    if norm == 0.0:
        return sparse_reference(w)
    return sparse_reference(w, min(1.0, 1.0 / (math.sqrt(lam) * norm)))


# -- offer scoring references on plain floats ----------------------------------

def issue_domain_reference(lower, upper):
    """An issue's value interval as a (lower, upper) pair; lower must lie below upper."""
    if not lower < upper:
        raise ValueError(f"degenerate domain [{lower}, {upper}]")
    return lower, upper


def linear_score_reference(value, domain):
    """value scored into [0, 1] over domain, 1 at its lower end; outside values clamp."""
    lower, upper = domain
    v = min(max(value, lower), upper)
    return (upper - v) / (upper - lower)


def aggregate_utility_reference(weights, scores):
    """Weighted sum of the (trust, error, cost time) scores, added left to right."""
    if len(scores) != len(weights):
        raise ValueError(f"expected {len(weights)} scores, got {len(scores)}")
    total = 0.0
    for w, s in zip(weights, scores):
        total += w * s
    return total


def offer_cost_reference(weights, trust, err_rate, cost_time, error_domain, time_domain):
    """Composite cost of one offer: trust scores 1 - trust, error and time their badness.

    A badness is 1 - linear score within the round's domain, or 0 when the
    domain is None because every offer tied on that issue.
    """
    def badness(value, domain):
        return 0.0 if domain is None else 1.0 - linear_score_reference(value, domain)

    scores = (1.0 - trust, badness(err_rate, error_domain), badness(cost_time, time_domain))
    return aggregate_utility_reference(weights, scores)


# -- the two-level pipeline on dense lists -------------------------------------

def trust_reference(state, sat_cur, c, threshold):
    """One transaction folded into a (sat, xi, n) trust state, as trust.py states it."""
    sat, xi, n = state
    delta = abs(sat - sat_cur)
    xi = c * delta + (1.0 - c) * xi
    alpha = 1.0 if n == 0 else threshold + c * delta / (1.0 + xi)
    return alpha * sat_cur + (1.0 - alpha) * sat, xi, n + 1


def time_dependent_value_reference(t, f1, f2, t_init, t_max, beta=1.0):
    """The time-dependent tactic of Faratin, Sierra and Jennings (1998).

    Its value is conceded from f1 at t_init toward f2 at t_max, along
    frac ** (1 / beta) for the elapsed fraction frac of the time; t is
    clamped to [t_init, t_max].
    """
    t = min(max(t, t_init), t_max)
    frac = (t - t_init) / (t_max - t_init)
    return f1 + frac ** (1.0 / beta) * (f2 - f1)


def concession_threshold_reference(r, t_max):
    """1 - value(r) of the time-dependent tactic with f1 = 1, f2 = 0, t_init = 0, beta = 1."""
    return 1.0 - time_dependent_value_reference(r, 1.0, 0.0, 0.0, t_max, 1.0)


class _DenseAgent:
    """One learner of the pipeline with its id, instance count and trust state."""

    def __init__(self, pid, learner):
        self.id = pid
        self.learner = learner
        self.instances = 0
        self.trust = (0.0, 0.0, 0)

    def score(self, chunk, params):
        """Step through a chunk, then fold its accuracy into the trust; skip an empty one."""
        if not chunk:
            return
        before = self.learner.mistakes
        for x, y in chunk:
            self.learner.step(x, y)
        self.instances += len(chunk)
        correct = len(chunk) - (self.learner.mistakes - before)
        self.trust = trust_reference(self.trust, correct / len(chunk), params.c, params.threshold)


def dense_moanofs(dataset, cfg):
    """The two-level pipeline of system.run_moanofs, untimed, on dense lists.

    Both levels cut their stream into t_max contiguous chunks of
    ceil(len / t_max) instances; each non-empty chunk steps every agent and
    folds its accuracy into the agent's trust. With k below the roster size,
    the first int(calibration_fraction * n) instances calibrate every learner
    and the k first by (-trust, mistakes, id) are elected. Each negotiation
    trial counts the system's mistakes with the merged vector it starts
    from, scores the chunk, merges the offers and broadcasts the result.

    Under min-utility each offer is scored once per trial, over all of the
    trial's offers, by offer_cost_reference, its error rate covering every
    instance its learner has seen. The trial accepts the offers costing at
    most the concession threshold, or else the two cheapest, and ranks
    their conflicts by the same costs. Each selected feature's trust starts
    at 0.05 and gains epsilon times its selection count once per merge,
    capped at 1; the budget cut keeps features by (trust, |v|, index).

    Returns a dict of the elected ids, one (system mistakes, accepted ids
    best first) pair per trial, the final merged vector, and each learner's
    mistakes, instances and trust in roster order.
    """
    from negofs.data import budget, permute, stream_of

    if cfg.measure_time:
        raise ValueError("the reference runs untimed configs only: every cost time is 0.0")
    d = dataset.dimension
    B = budget(d, cfg.budget_fraction)
    stream = []
    for x, y in stream_of(dataset, permute(dataset, cfg.seed)):
        dense = [0.0] * d
        for i, v in x.items():
            dense[i] = v
        stream.append((dense, y))
    agents = [
        _DenseAgent(i, DenseLearner(lc.variant, d, B, eta=lc.eta, lam=lc.lam, r=lc.r,
                                    confidence=lc.confidence, C=lc.C,
                                    alpha_margin=lc.alpha_margin,
                                    seed=(cfg.seed * 100003 + i * 7919) % 2 ** 32))
        for i, lc in enumerate(cfg.roster)
    ]

    def chunks(part):
        size = math.ceil(len(part) / cfg.t_max)
        return [part[i * size:(i + 1) * size] for i in range(cfg.t_max)]

    n_cal, elected = 0, agents
    if cfg.k < len(agents):
        n_cal = int(cfg.calibration_fraction * len(stream))
        for chunk in chunks(stream[:n_cal]):
            for a in agents:
                a.score(chunk, cfg.trust_params)
        elected = sorted(agents, key=lambda a: (-a.trust[0], a.learner.mistakes, a.id))[:cfg.k]

    epsilon = cfg.epsilon if cfg.epsilon is not None else 1.0 / len(elected)
    profile = cfg.issue_weights
    weights = (profile.trust, profile.error, profile.cost_time)
    feature_trust = [0.05] * d
    merged = [0.0] * d
    trials = []
    for r, chunk in enumerate(chunks(stream[n_cal:]), 1):
        system_mistakes = sum((1 if dense_dot(merged, x) > 0 else -1) != y for x, y in chunk)
        for a in elected:
            a.score(chunk, cfg.trust_params)

        accepted, key = elected, {a.id: a.learner.mistakes for a in elected}
        if cfg.conflict_rule == "MIN_UTILITY":
            rates = [a.learner.mistakes / a.instances if a.instances > 0 else 0.0
                     for a in elected]
            error_domain = (min(rates), max(rates)) if min(rates) < max(rates) else None
            key = {a.id: offer_cost_reference(weights, a.trust[0], rate, 0.0, error_domain, None)
                   for a, rate in zip(elected, rates)}
            threshold = concession_threshold_reference(float(r), float(cfg.t_max))
            accepted = [a for a in elected if key[a.id] <= threshold]
            if len(accepted) < 2:
                accepted = sorted(elected, key=lambda a: (key[a.id], a.id))[:2]
        # Best first, by (mistakes, id) or (cost, id): the order the trial merges them in.
        accepted = sorted(accepted, key=lambda a: (key[a.id], a.id))

        union = merge_offers_reference(
            [(a.id, a.learner.w, a.learner.mistakes) for a in accepted], key.__getitem__)
        for i in range(d):
            count = sum(a.learner.w[i] != 0.0 for a in accepted)
            if count:
                feature_trust[i] = min(1.0, feature_trust[i] + epsilon * count)
        ranked = sorted((i for i in range(d) if union[i] != 0.0),
                        key=lambda i: (-feature_trust[i], -abs(union[i]), i))
        kept = set(ranked[:B])
        merged = [v if i in kept else 0.0 for i, v in enumerate(union)]
        for a in elected:
            a.learner.w = list(merged)
        trials.append((system_mistakes, [a.id for a in accepted]))

    return {
        "elected": [a.id for a in elected],
        "trials": trials,
        "merged": merged,
        "learners": [(a.learner.mistakes, a.instances, a.trust[0]) for a in agents],
    }


# -- the synthetic stream through random.Random's own sample, choice and gauss --

def synthetic_reference(spec):
    """(instances, planted support) drawn with random.Random's sample, choice and gauss.

    Each instance is a (SparseVector, label) pair built by the validating
    constructor; generate_synthetic must reproduce it bit for bit.
    """
    from negofs.sparse import SparseVector

    rng = random.Random(spec.seed)
    planted_indices = sorted(rng.sample(range(spec.d), spec.n_relevant))
    planted = {i: float(rng.choice((-1, 1))) for i in planted_indices}

    nnz = max(1, math.floor(spec.density * spec.d + 0.5))
    instances = []
    for _ in range(spec.n_samples):
        idx = sorted(rng.sample(range(spec.d), nnz))
        pairs = [(i, rng.gauss(0.0, 1.0)) for i in idx]
        margin = 0.0
        for i, v in pairs:
            margin += planted.get(i, 0.0) * v
        y = 1 if margin > 0 else -1
        if spec.label_noise > 0 and rng.random() < spec.label_noise:
            y = -y
        instances.append((SparseVector(spec.d, pairs), y))
    return instances, frozenset(planted_indices)
