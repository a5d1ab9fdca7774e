"""Cluster/user geometry, large-scale fading, and the closeness metric.

Users sit inside non-overlapping clusters, each served by one intermediate
server (IS); every user also has a direct distance to the parameter server
(PS).  Large-scale fading is pure path loss, beta = d**-p.  The closeness
ratio alpha compares total user-to-IS distance against total user-to-PS
distance; a placement is one uniform draw whose PS distances are scaled by
one common factor when its alpha misses the target, so it cannot fail.

C, M, path_loss_exp >= 0, target_alpha in (0, 1) and a positive tolerance
come from a ScenarioConfig, which checked them when it was built, and
place_users draws positive distances; nothing here checks them again.
SystemTopology refuses a path_loss_exp so large that a gain overflows.
"""

from dataclasses import dataclass, field

import numpy as np

# drawing ranges for user-to-IS and user-to-PS distances
IS_DIST_LO, IS_DIST_HI = 0.5, 1.0
PS_DIST_LO, PS_DIST_HI = 0.5, 3.0


@dataclass(frozen=True, eq=False)
class SystemTopology:
    """Immutable cluster/user geometry with derived fading coefficients.

    d_is has shape (C, M): distance of user m in cluster c to its IS.
    d_ps holds the C*M distances of the users to the PS, flat index
    c*M + m.  beta (C, M) and ps_beta (C*M,) are the gains d**-p of the
    user-to-IS and user-to-PS links; a gain that is not finite (d**-p
    overflows at a large path_loss_exp) raises ValueError.  Compared by id.
    """

    d_is: np.ndarray
    d_ps: np.ndarray
    path_loss_exp: float
    beta: np.ndarray = field(init=False)
    ps_beta: np.ndarray = field(init=False)

    def __post_init__(self):
        d_is = np.array(self.d_is, dtype=np.float64)
        d_ps = np.array(self.d_ps, dtype=np.float64).reshape(-1)
        p = self.path_loss_exp
        with np.errstate(over="ignore", divide="ignore"):
            beta, ps_beta = d_is ** (-p), d_ps ** (-p)
        if not (np.isfinite(beta).all() and np.isfinite(ps_beta).all()):
            raise ValueError(f"path_loss_exp = {p:g} gives a path-loss gain "
                             "d**-p that is not finite")
        for name, arr in (("d_is", d_is), ("d_ps", d_ps),
                          ("beta", beta), ("ps_beta", ps_beta)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def closeness_ratio(d_is, d_ps) -> float:
    """alpha: sum of user-to-IS distances over sum of user-to-PS distances."""
    return float(np.sum(d_is) / np.sum(d_ps))


def place_users(C, M, path_loss_exp, target_alpha, tolerance,
                rng) -> SystemTopology:
    """One placement draw, scaled onto target_alpha if it misses it.

    Distances are drawn uniform in [0.5, 1] (to the IS) and [0.5, 3] (to
    the PS).  A draw with |alpha - target_alpha| <= tolerance is kept as
    drawn.  Otherwise every PS distance is multiplied by the common factor
    s = alpha / target_alpha, which puts alpha on the target up to rounding
    and keeps the ratios between the users' PS gains; the PS distances then
    lie in [0.5 s, 3 s].  Deterministic given the generator state.
    """
    d_is = rng.uniform(IS_DIST_LO, IS_DIST_HI, size=(C, M))
    d_ps = rng.uniform(PS_DIST_LO, PS_DIST_HI, size=C * M)
    alpha = closeness_ratio(d_is, d_ps)
    if abs(alpha - target_alpha) > tolerance:
        d_ps *= alpha / target_alpha
    return SystemTopology(d_is, d_ps, path_loss_exp)
