"""Analytical convergence bound and aggregation-error variance formulas.

The bound tracks E||theta_PS(t) - theta*||^2 through a one-step recursion
dist(t) <= X(t-1) * dist(t-1) + Y(t-1), where X is a contraction factor
driven by strong convexity and Y collects six drift sources: signal
distortion and inter-user interference from the fading uplink, receiver
noise, and three local-drift terms from running tau SGD steps between
aggregations.  Iteration indices here are 1-based: dist(1) is the initial
distance and schedules are evaluated at a = 1..T-1.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import learner, protocol

Y_TERMS = ("signal_distortion", "interference", "noise",
           "drift_curvature", "drift_variance", "drift_heterogeneity")


@dataclass
class BoundParams:
    """Everything the bound recursion needs.

    betas has shape (C, M); for flat OTA configurations use C=1 and put all
    users in one row.  Schedules follow eta(a) = max(lr_base - lr_slope*a, 0)
    and P(a) = power_base + power_slope*a with 1-based a.
    """

    L: float
    mu: float
    G2: float
    Gamma: float
    init_dist: float
    N: int
    tau: int
    I: int
    T: int
    K: int
    sigma_z2: float
    sigma_h2: float
    betas: np.ndarray
    lr_base: float
    lr_slope: float = 0.0
    power_base: float = 1.0
    power_slope: float = 0.0
    label: str = ""
    M: int = field(init=False)
    C: int = field(init=False)

    def __post_init__(self):
        self.betas = np.atleast_2d(np.asarray(self.betas, dtype=np.float64))
        if np.any(self.betas <= 0):
            raise ValueError("large-scale gains must be positive")
        self.C, self.M = self.betas.shape
        for name in ("L", "mu", "G2", "init_dist", "sigma_h2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.Gamma < 0 or self.sigma_z2 < 0:
            raise ValueError("Gamma and sigma_z2 must be nonnegative")
        for name in ("N", "tau", "I", "T", "K"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    @property
    def beta_bar(self) -> np.ndarray:
        return self.betas.sum(axis=1)

    def eta(self, a: int) -> float:
        return protocol.lr_schedule(a, self.lr_base, self.lr_slope)

    def power(self, a: int) -> float:
        return protocol.power_schedule(a, self.power_base, self.power_slope)


def a1_term(beta_1, beta_bar_1, beta_2, beta_bar_2) -> float:
    """Cross-user distortion weight (1 - b1/bbar1)(1 - b2/bbar2), expanded."""
    return (1.0 - beta_1 / beta_bar_1 - beta_2 / beta_bar_2
            + beta_1 * beta_2 / (beta_bar_1 * beta_bar_2))


def contraction_x(eta, mu, tau, I) -> float:
    """Per-iteration contraction 1 - mu*eta*I*(tau - eta*(tau - 1)).

    Valid only for 0 <= eta <= min(1, 1/(mu*tau*I)); outside that range the
    recursion's derivation breaks down, so this raises.
    """
    limit = min(1.0, 1.0 / (mu * tau * I))
    if not 0.0 <= eta <= limit + 1e-15:
        raise ValueError(f"eta={eta} outside [0, {limit}] where the "
                         "contraction factor is valid")
    return 1.0 - mu * eta * I * (tau - eta * (tau - 1))


def _a1_matrix(p: BoundParams) -> np.ndarray:
    """(C*M, C*M) matrix of a1_term over all ordered user pairs."""
    ratio = (p.betas / p.beta_bar[:, None]).reshape(-1)
    return np.outer(1.0 - ratio, 1.0 - ratio)


def drift_y_terms(eta, p_a, p: BoundParams) -> dict:
    """The six additive drift contributions for one iteration.

    eta and p_a are the learning rate and transmit power at that iteration.
    Channel terms assume every user difference is at the worst case
    eta^2 * tau^2 * G2 (aligned across users for the cross terms).
    """
    bb = p.beta_bar
    M2C2 = (p.M * p.C) ** 2
    g_worst = eta * eta * p.tau * p.tau * p.G2

    diag = float((p.betas ** 2 / (p.K * bb[:, None] ** 2)).sum())
    cross = float(_a1_matrix(p).sum()) * p.I
    sig = g_worst * p.I / M2C2 * (diag + cross)

    prod = np.array([np.outer(p.betas[c], p.betas[c]).sum()
                     - (p.betas[c] ** 2).sum() for c in range(p.C)])
    itf = g_worst * p.I / (M2C2 * p.K) * float((prod / bb ** 2).sum())

    noi = (p.sigma_z2 * p.I * p.N / (p_a ** 2 * M2C2 * p.K * p.sigma_h2)
           * float((p.betas / bb[:, None] ** 2).sum()))

    tau = p.tau
    curv = ((1.0 + p.mu * (1.0 - eta)) * eta * eta * p.I * p.G2
            * tau * (tau - 1) * (2 * tau - 1) / 6.0)
    var = eta * eta * p.I * (tau * tau + tau - 1) * p.G2
    het = 2.0 * eta * p.I * (tau - 1) * p.Gamma

    return {"signal_distortion": sig, "interference": itf, "noise": noi,
            "drift_curvature": curv, "drift_variance": var,
            "drift_heterogeneity": het}


def drift_y(p: BoundParams, a: int) -> float:
    """Total per-iteration drift Y(a) (sum of drift_y_terms at eta(a), P(a))."""
    return float(sum(drift_y_terms(p.eta(a), p.power(a), p).values()))


def distance_bound_trajectory(p: BoundParams) -> np.ndarray:
    """Bound on E||theta_PS(t) - theta*||^2 for t = 1..T.

    dist(1) = init_dist; dist(t) = X(t-1)*dist(t-1) + Y(t-1).
    """
    out = np.empty(p.T)
    out[0] = p.init_dist
    for t in range(2, p.T + 1):
        a = t - 1
        x = contraction_x(p.eta(a), p.mu, p.tau, p.I)
        out[t - 1] = x * out[t - 2] + drift_y(p, a)
    return out


def distance_bound_closed_form(p: BoundParams, t: int) -> float:
    """Unrolled form of the recursion at a single iteration t >= 1.

    (prod_{a=1}^{t-1} X(a)) * init_dist
      + sum_{b=1}^{t-1} Y(b) * prod_{a=b+1}^{t-1} X(a),
    with empty products = 1 and empty sums = 0.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    xs = {a: contraction_x(p.eta(a), p.mu, p.tau, p.I) for a in range(1, t)}
    total = p.init_dist * float(np.prod([xs[a] for a in range(1, t)]))
    for b in range(1, t):
        total += drift_y(p, b) * float(np.prod([xs[a] for a in range(b + 1, t)]))
    return total


def bound_trajectory(p: BoundParams) -> np.ndarray:
    """Optimality-gap bound (L/2) * distance bound, t = 1..T."""
    return 0.5 * p.L * distance_bound_trajectory(p)


def bound_to_csv(p: BoundParams, path):
    """One row per iteration, matching the RunMetrics column conventions."""
    traj = bound_trajectory(p)
    label = p.label or "bound"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,bound_value,config_label\n")
        for t in range(1, p.T + 1):
            fh.write("%d,%.10g,%s\n" % (t, traj[t - 1], label))


# ---------------------------------------------------------------------------
# variance oracles for the three aggregation-error components

def lemma_variance_oracle(which: str, p: BoundParams, a: Optional[int] = None,
                          diffs: Optional[np.ndarray] = None) -> float:
    """Exact (or worst-case) value of one aggregation-error component.

    which: one of 'signal_distortion', 'interference', 'noise'.

    With recorded user differences diffs of shape (C, I, M, 2N) the signal
    and interference formulas are evaluated exactly; with diffs=None every
    squared norm is replaced by the worst case eta(a)^2 * tau^2 * G2 and
    the result matches the corresponding drift_y_terms entry.  The noise
    component never needs diffs but needs the iteration index a for the
    power schedule.
    """
    bb = p.beta_bar
    M2C2 = (p.M * p.C) ** 2

    if which == "noise":
        if a is None:
            raise ValueError("noise oracle needs the iteration index a")
        return (p.sigma_z2 * p.I * p.N
                / (p.power(a) ** 2 * M2C2 * p.K * p.sigma_h2)
                * float((p.betas / bb[:, None] ** 2).sum()))

    if which not in ("signal_distortion", "interference"):
        raise ValueError(f"unknown component {which!r}")

    if diffs is None:
        if a is None:
            raise ValueError("worst-case mode needs the iteration index a")
        eta = p.eta(a)
        return drift_y_terms(eta, p.power(a), p)[which]

    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.shape[:3] != (p.C, p.I, p.M):
        raise ValueError(f"diffs must have shape (C, I, M, dim) = "
                         f"({p.C}, {p.I}, {p.M}, ...), got {diffs.shape}")
    sq = (diffs ** 2).sum(axis=3)                       # (C, I, M)

    if which == "interference":
        w = np.array([(bb[c] * p.betas[c] - p.betas[c] ** 2) / bb[c] ** 2
                      for c in range(p.C)])             # (C, M): sum_{m!=m'} b_m
        return float((w[:, None, :] * sq).sum()) / (M2C2 * p.K)

    # signal distortion: per-user diagonal plus A1-weighted cross products
    diag_w = (p.betas ** 2 / (p.K * bb[:, None] ** 2))  # (C, M)
    diag = float((diag_w[:, None, :] * sq).sum())
    # the a1_term weights factor, so the cross sum collapses to a norm:
    # sum_{u1,i1,u2,i2} (1-r1)(1-r2) <d_{u1,i1}, d_{u2,i2}>
    #   = || sum_u (1 - r_u) * sum_i d_{u,i} ||^2
    flat = diffs.transpose(0, 2, 1, 3).reshape(p.C * p.M, p.I, -1)
    ratio = 1.0 - (p.betas / bb[:, None]).reshape(-1)
    s = (ratio[:, None] * flat.sum(axis=1)).sum(axis=0)
    cross = float(s @ s)
    return (diag + cross) / M2C2


# ---------------------------------------------------------------------------
# measuring problem constants for bound-vs-simulation comparisons

def measure_problem_constants(shards, num_classes: int, l2: float,
                              tol: float = 1e-10, max_iters: int = 200_000):
    """Smoothness L, strong convexity mu, and the global minimizer.

    shards is a flat list of per-user Datasets; the global objective is the
    uniform average of the per-user regularized softmax losses.  L comes
    from the softmax Hessian bound 0.5 * lambda_max(Gram/n) plus l2, taken
    over shards; mu = l2 (from the ridge term).  theta* is found by
    full-batch gradient descent at step 1/L until the gradient norm drops
    below tol.  Returns (L, mu, theta_star, f_star).
    """
    if l2 <= 0:
        raise ValueError("need l2 > 0 for strong convexity")
    lam_max = 0.0
    for s in shards:
        aug = np.hstack([s.features, np.ones((len(s), 1))])
        gram = aug.T @ aug / len(s)
        lam_max = max(lam_max, float(np.linalg.eigvalsh(gram)[-1]))
    L = l2 + 0.5 * lam_max
    mu = l2

    d = shards[0].feature_dim
    theta = learner.zero_model(d, num_classes)
    for _ in range(max_iters):
        loss = 0.0
        grad = np.zeros_like(theta)
        for s in shards:
            lo, g = learner.loss_and_gradient(theta, s.features, s.labels,
                                              num_classes, l2)
            loss += lo
            grad += g
        loss /= len(shards)
        grad /= len(shards)
        if float(np.linalg.norm(grad)) < tol:
            return L, mu, theta, loss
        theta -= grad / L
    raise RuntimeError(f"gradient descent did not reach tol={tol} in "
                       f"{max_iters} iterations")


def measure_gradient_bound(shards, num_classes: int, l2: float, theta_samples,
                           batch_size: int, rng, draws_per_shard: int = 50,
                           safety: float = 1.5) -> float:
    """Empirical bound G2 on squared stochastic gradient norms.

    Samples random batches at the supplied model iterates and returns
    safety * max ||grad||^2.
    """
    worst = 0.0
    for theta in theta_samples:
        for s in shards:
            for _ in range(draws_per_shard):
                idx = rng.choice(len(s), size=min(batch_size, len(s)),
                                 replace=False)
                _, g = learner.loss_and_gradient(theta, s.features[idx],
                                                 s.labels[idx], num_classes,
                                                 l2)
                worst = max(worst, float(g @ g))
    return safety * worst
