"""Cluster/user geometry, large-scale fading, and the closeness metric.

Users sit inside non-overlapping clusters, each served by one intermediate
server (IS) with K receive antennas; every user also has a direct distance
to the parameter server (PS).  Large-scale fading is pure path loss,
beta = d**-p.  The closeness ratio alpha compares total user-to-IS distance
against total user-to-PS distance.
"""

from dataclasses import dataclass, field

import numpy as np

# placement bounds for user-to-IS and user-to-PS distances
IS_DIST_LO, IS_DIST_HI = 0.5, 1.0
PS_DIST_LO, PS_DIST_HI = 0.5, 3.0


class PlacementError(RuntimeError):
    """Raised when rejection sampling cannot hit the target alpha."""


def path_loss(d: float, p: float) -> float:
    """Large-scale fading gain d**-p for distance d and path-loss exponent p."""
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    if p < 0:
        raise ValueError(f"path-loss exponent must be nonnegative, got {p}")
    return float(d) ** (-float(p))


@dataclass(frozen=True)
class SystemTopology:
    """Immutable cluster/user geometry with derived fading coefficients.

    d_is has shape (C, M): distance of user m in cluster c to its IS.
    d_ps has shape (C*M,): distance of each user to the PS, flat index
    c*M + m.  beta and beta_bar are derived from d_is and the exponent.
    """

    num_clusters: int
    users_per_cluster: int
    antennas_per_is: int
    d_is: np.ndarray
    d_ps: np.ndarray
    path_loss_exp: float
    beta: np.ndarray = field(init=False)
    beta_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        C, M = self.num_clusters, self.users_per_cluster
        if C < 1 or M < 1 or self.antennas_per_is < 1:
            raise ValueError("C, M, K must be positive")
        d_is = np.asarray(self.d_is, dtype=np.float64).reshape(C, M)
        d_ps = np.asarray(self.d_ps, dtype=np.float64).reshape(C * M)
        if np.any(d_is <= 0) or np.any(d_ps <= 0):
            raise ValueError("all distances must be strictly positive")
        beta = d_is ** (-self.path_loss_exp)
        beta_bar = beta.sum(axis=1)
        for name, arr in (("d_is", d_is), ("d_ps", d_ps),
                          ("beta", beta), ("beta_bar", beta_bar)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def ps_beta(self) -> np.ndarray:
        """Large-scale gains of the direct user-to-PS links, flat index."""
        out = self.d_ps ** (-self.path_loss_exp)
        out.flags.writeable = False
        return out


def closeness_ratio(topo: SystemTopology) -> float:
    """Sum of user-to-IS distances over sum of user-to-PS distances."""
    return float(topo.d_is.sum() / topo.d_ps.sum())


def place_users(C, M, K, path_loss_exp, target_alpha, tolerance, rng,
                max_retries: int = 10_000) -> SystemTopology:
    """Rejection-sample a placement until the closeness ratio hits target_alpha.

    Distances are uniform in [0.5, 1] (to the IS) and [0.5, 3] (to the PS);
    the whole placement is redrawn until |alpha - target| <= tolerance.
    Deterministic given the generator state.
    """
    if not 0 < target_alpha < 1:
        raise ValueError(f"target_alpha must be in (0, 1), got {target_alpha}")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    for _ in range(max_retries):
        d_is = rng.uniform(IS_DIST_LO, IS_DIST_HI, size=(C, M))
        d_ps = rng.uniform(PS_DIST_LO, PS_DIST_HI, size=C * M)
        alpha = d_is.sum() / d_ps.sum()
        if abs(alpha - target_alpha) <= tolerance:
            return SystemTopology(C, M, K, d_is, d_ps, path_loss_exp)
    raise PlacementError(
        f"no placement with |alpha - {target_alpha}| <= {tolerance} "
        f"after {max_retries} attempts")


def dump_topology(topo: SystemTopology) -> str:
    """Serialize a topology as a flat human-readable key-value block."""
    lines = [
        f"C = {topo.num_clusters}",
        f"M = {topo.users_per_cluster}",
        f"K = {topo.antennas_per_is}",
        f"p = {topo.path_loss_exp:.17g}",
    ]
    for c in range(topo.num_clusters):
        for m in range(topo.users_per_cluster):
            lines.append(f"d_is.{c}.{m} = {topo.d_is[c, m]:.17g}")
    for i in range(topo.d_ps.size):
        lines.append(f"d_ps.{i} = {topo.d_ps[i]:.17g}")
    return "\n".join(lines) + "\n"


def load_topology(text: str) -> SystemTopology:
    """Inverse of dump_topology."""
    kv = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()
    C = int(kv.pop("C"))
    M = int(kv.pop("M"))
    K = int(kv.pop("K"))
    p = float(kv.pop("p"))
    d_is = np.empty((C, M))
    d_ps = np.empty(C * M)
    for c in range(C):
        for m in range(M):
            d_is[c, m] = float(kv.pop(f"d_is.{c}.{m}"))
    for i in range(C * M):
        d_ps[i] = float(kv.pop(f"d_ps.{i}"))
    if kv:
        raise ValueError(f"unrecognized topology keys: {sorted(kv)}")
    return SystemTopology(C, M, K, d_is, d_ps, p)
