"""Analytical convergence bound and aggregation-error variance formulas.

The bound tracks E||theta_PS(t) - theta*||^2 through a one-step recursion
dist(t) <= X(t-1) * dist(t-1) + Y(t-1), where X is a contraction factor
driven by strong convexity and Y collects six drift sources: signal
distortion and inter-user interference from the fading uplink, receiver
noise, and three local-drift terms from running tau SGD steps between
aggregations.  Iteration indices here are 1-based: dist(1) is the initial
distance and schedules are evaluated at a = 1..T-1.  The step from dist(a)
to dist(a + 1) is the run's 0-based iteration a - 1, which runs at
eta(a - 1) and P(a - 1): the bound reads each schedule one index ahead of
the run (the same at zero slopes).  Oracle callers pass the run's t as a.
The module reads and writes no files.
"""

import numbers
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import protocol

Y_TERMS = ("signal_distortion", "interference", "noise",
           "drift_curvature", "drift_variance", "drift_heterogeneity")


@dataclass(frozen=True, eq=False)
class BoundParams:
    """Everything the bound recursion needs, checked when built.

    betas holds real numbers, not bools, in shape (C, M), a 1-D array
    being one cluster.  A read-only float64 copy is kept, so a later write
    to the caller's array cannot reach the bound; C and M are its shape,
    and params compare by identity.  protocol.run_plan maps a run's
    scenario onto C, M, I, the betas and the power schedule.  Schedules:
    eta(a) = max(lr_base - lr_slope*a, 0), P(a) = power_base +
    power_slope*a, a >= 1.
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

    def __post_init__(self):
        if not all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                   for b in np.asarray(self.betas, dtype=object).flat):
            raise ValueError(f"betas must be real numbers, got {self.betas!r}")
        betas = np.array(self.betas, dtype=np.float64, ndmin=2)
        if betas.ndim != 2:
            raise ValueError(f"betas must be 2-D (C, M), got {betas.shape}")
        if betas.size == 0 or not np.all((betas > 0) & np.isfinite(betas)):
            raise ValueError("betas must be non-empty, positive and finite")
        betas.flags.writeable = False
        object.__setattr__(self, "betas", betas)
        protocol.check_fields(
            self, positive=("L", "mu", "G2", "init_dist", "sigma_h2"),
            nonnegative=("Gamma", "sigma_z2", "lr_base"))
        # the recursion evaluates both schedules at a = 1..T-1; each is
        # monotone in a, so its two ends bound every value it takes
        for a in ((1, self.T - 1) if self.T > 1 else ()):
            self.power(a)    # raises if non-positive
            contraction_x(self, a)
        # the label names the output CSV and fills its last column
        if not re.fullmatch(r"([A-Za-z0-9_-][A-Za-z0-9_.-]*)?", self.label):
            raise ValueError(f"label must be a plain file stem (letters, "
                             f"digits, '_', '-', '.', no leading '.'), "
                             f"got {self.label!r}")

    @property
    def C(self) -> int:
        return self.betas.shape[0]

    @property
    def M(self) -> int:
        return self.betas.shape[1]

    @property
    def beta_bar(self) -> np.ndarray:
        return self.betas.sum(axis=1)

    def eta(self, a: int) -> float:
        return protocol.lr_schedule(a, self.lr_base, self.lr_slope)

    def power(self, a: int) -> float:
        return protocol.power_schedule(a, self.power_base, self.power_slope)


def contraction_x(p: BoundParams, a: int) -> float:
    """Contraction 1 - mu*eta*I*(tau - eta*(tau - 1)) at eta = eta(a).

    Valid only for eta <= min(1, 1/(mu*tau*I)) (eta(a) >= 0 always);
    above that the recursion's derivation breaks down, so this raises.
    """
    eta, tau = p.eta(a), p.tau
    limit = min(1.0, 1.0 / (p.mu * tau * p.I))
    if not eta <= limit + 1e-15:
        raise ValueError(f"eta={eta} outside [0, {limit}] where the "
                         "contraction factor is valid")
    return 1.0 - p.mu * eta * p.I * (tau - eta * (tau - 1))


def _distortion_and_interference(p: BoundParams, sq, cross):
    """Signal-distortion and interference variances of the OTA aggregation.

    sq: (C, I, M) squared norms of the user differences d_{c,i,m}.  cross:
    ||sum_u (1 - beta_u/beta_bar_u) sum_i d_{u,i}||^2 over all C*M users,
    the sum of <d_{u1,i1}, d_{u2,i2}> weighted by the cross-user factor
    (1 - beta_u1/beta_bar_u1)(1 - beta_u2/beta_bar_u2).
    """
    bb = p.beta_bar[:, None]
    M2C2 = (p.M * p.C) ** 2
    diag_w = p.betas ** 2 / (p.K * bb ** 2)             # (C, M)
    itf_w = (bb * p.betas - p.betas ** 2) / bb ** 2     # sum_{m'!=m} b_m b_m'
    sig = (float((diag_w[:, None, :] * sq).sum()) + cross) / M2C2
    itf = float((itf_w[:, None, :] * sq).sum()) / (M2C2 * p.K)
    return sig, itf


def drift_y_terms(p: BoundParams, a: int) -> dict:
    """The six additive drift contributions Y(a), by Y_TERMS.

    They read the learning rate eta(a) and the transmit power P(a).  Signal
    distortion and interference are the lemma variances with every user
    difference at the worst case eta^2 * tau^2 * G2, all aligned.  The
    noise term is 0 at sigma_z2 = 0 for any P(a); otherwise it is float64,
    so a P(a)^2 that overflows gives 0 noise and one that underflows a
    non-finite term, not a Python exception.
    """
    eta, p_a = p.eta(a), np.float64(p.power(a))
    g_worst = eta * eta * p.tau * p.tau * p.G2
    ratio_sum = float((1.0 - p.betas / p.beta_bar[:, None]).sum())
    sig, itf = _distortion_and_interference(
        p, np.full((p.C, p.I, p.M), g_worst),
        g_worst * (p.I * ratio_sum) ** 2)
    noi = 0.0 if p.sigma_z2 == 0 else (
        p.sigma_z2 * p.I * p.N
        / (p_a ** 2 * (p.M * p.C) ** 2 * p.K * p.sigma_h2)
        * float((p.betas / p.beta_bar[:, None] ** 2).sum()))

    tau = p.tau
    curv = ((1.0 + p.mu * (1.0 - eta)) * eta * eta * p.I * p.G2
            * tau * (tau - 1) * (2 * tau - 1) / 6.0)
    var = eta * eta * p.I * (tau * tau + tau - 1) * p.G2
    het = 2.0 * eta * p.I * (tau - 1) * p.Gamma
    return dict(zip(Y_TERMS, (sig, itf, noi, curv, var, het)))


def drift_y(p: BoundParams, a: int) -> float:
    """Total per-iteration drift Y(a), the sum of drift_y_terms(p, a)."""
    return float(sum(drift_y_terms(p, a).values()))


def distance_bound_trajectory(p: BoundParams) -> np.ndarray:
    """Bound on E||theta_PS(t) - theta*||^2 for t = 1..T.

    dist(1) = init_dist; dist(t) = X(t-1)*dist(t-1) + Y(t-1).
    """
    out = np.empty(p.T)
    out[0] = p.init_dist
    for t in range(2, p.T + 1):
        out[t - 1] = contraction_x(p, t - 1) * out[t - 2] + drift_y(p, t - 1)
    return out


def bound_trajectory(p: BoundParams) -> np.ndarray:
    """Optimality-gap bound (L/2) * distance bound, t = 1..T.

    Raises ValueError naming the first t whose bound is not finite.
    """
    with np.errstate(**protocol.QUIET):
        traj = 0.5 * p.L * distance_bound_trajectory(p)
    bad = ~np.isfinite(traj)
    if bad.any():
        raise ValueError(f"bound is not finite at t={bad.argmax() + 1}")
    return traj


# ---------------------------------------------------------------------------
# variance oracles for the three aggregation-error components

def lemma_variance_oracle(which: str, p: BoundParams, a: Optional[int] = None,
                          diffs: Optional[np.ndarray] = None) -> float:
    """Exact value of one aggregation-error component.

    which: one of 'signal_distortion', 'interference', 'noise'.

    The signal and interference formulas are evaluated on the recorded user
    differences diffs of shape (C, I, M, 2N).  The noise component never
    needs diffs but needs the iteration index a for the power schedule; it
    is evaluated under bound_trajectory's error state, so a P(a)^2 that
    overflows gives 0 without a numpy warning.
    """
    if which not in Y_TERMS[:3]:
        raise ValueError(f"unknown component {which!r}")
    if which == "noise":
        if a is None:
            raise ValueError("the noise oracle needs the index a")
        with np.errstate(**protocol.QUIET):
            return drift_y_terms(p, a)["noise"]

    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.shape[:3] != (p.C, p.I, p.M):
        raise ValueError(f"diffs must have shape (C, I, M, dim) = "
                         f"({p.C}, {p.I}, {p.M}, ...), got {diffs.shape}")
    flat = diffs.transpose(0, 2, 1, 3).reshape(p.C * p.M, p.I, -1)
    ratio = 1.0 - (p.betas / p.beta_bar[:, None]).reshape(-1)
    s = (ratio[:, None] * flat.sum(axis=1)).sum(axis=0)
    sig, itf = _distortion_and_interference(p, (diffs ** 2).sum(axis=3),
                                            float(s @ s))
    return sig if which == "signal_distortion" else itf
