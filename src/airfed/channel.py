"""Over-the-air uplink: complex packing, fading, superposition, MRC, recovery.

Model-difference vectors of even length 2N are packed into N complex
symbols, all users in a cluster transmit simultaneously through i.i.d.
Rayleigh fading to the K-antenna IS, the IS combines antennas with the
conjugated channel sum, and the cluster update is recovered by dividing
out the nominal combining gain p_t * M * sigma_h2 * beta_bar.

The combined output of a symbol depends on its (M, K) channel only through
S = sum_k conj(a_k) c_k and R = sum_k |a_k|^2, with a_k = sum_m h[m, k] and
c_k = sum_m h[m, k] x_m.  The pairs (a_k, c_k) are i.i.d. complex Gaussian
over k, so ota_aggregate draws (S, R) from their 2x2 Wishart law
(draw_mrc_statistic) for every M and K, and never draws the channel.  The
full-tensor chain draw_channels_from_betas -> draw_noise ->
uplink_and_combine is the reference that draw is tested against.

A built ScenarioConfig guarantees sigma_h2 > 0, sigma_z2 >= 0, an even
model length and p_t > 0 (linear in t, checked at its first and last t),
and the gains d**-p of a topology are positive; nothing here checks them
again, except the reference path's _check_shapes.
"""

import numpy as np


def pack_complex(delta: np.ndarray) -> np.ndarray:
    """First half -> real parts, second half -> imaginary (last axis)."""
    n = delta.shape[-1] // 2
    return delta[..., :n] + 1j * delta[..., n:]


def unpack_complex(symbols: np.ndarray) -> np.ndarray:
    """Exact inverse of pack_complex."""
    return np.concatenate([symbols.real, symbols.imag], axis=-1)


def draw_channels_from_betas(betas, K, N, sigma_h2, rng) -> np.ndarray:
    """Draw an (M, K, N) complex fading tensor for per-user gains betas.

    h[m, k, n] = sqrt(beta_m) * g with g ~ CN(0, sigma_h2), redrawn per
    user, antenna and symbol.
    """
    betas = np.asarray(betas, dtype=np.float64)
    raw = rng.standard_normal((betas.size, K, N, 2))
    raw *= np.sqrt(sigma_h2 / 2.0)
    h = raw.view(np.complex128)[..., 0]
    h *= np.sqrt(betas)[:, None, None]      # in place: one (M, K, N) buffer
    return h


def draw_noise(K, N, sigma_z2, rng) -> np.ndarray:
    """i.i.d. CN(0, sigma_z2) receiver noise, or exact zeros for sigma_z2=0."""
    if sigma_z2 == 0:
        return np.zeros((K, N), dtype=np.complex128)
    raw = rng.standard_normal((K, N, 2)) * np.sqrt(sigma_z2 / 2.0)
    return raw.view(np.complex128)[..., 0]


def _check_shapes(symbols, h, z):
    """(M, N) complex symbols and (K, N) noise matching the (M, K, N) h."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    M, K, N = h.shape
    if symbols.shape != (M, N):
        raise ValueError(f"need (M, N) = ({M}, {N}) symbols, "
                         f"got {symbols.shape}")
    if np.shape(z) != (K, N):
        raise ValueError(f"need (K, N) = ({K}, {N}) noise draws, "
                         f"got {np.shape(z)}")
    return symbols


def uplink_and_combine(symbols, h, p_t, z):
    """Superpose all users' symbols over the channel and MRC-combine.

    symbols: (M, N) transmit symbols, h: (M, K, N) fading from
    draw_channels_from_betas, z: (K, N) receiver noise from draw_noise.
    The IS receives y[k, n] = p_t * sum_m h[m,k,n] * x[m,n] + z[k,n] and
    returns, per symbol, (1/K) * sum_k conj(sum_m h[m,k,n]) * y[k,n].
    """
    x = _check_shapes(symbols, h, z)
    if p_t <= 0:
        raise ValueError("transmit power must be positive")
    y = p_t * np.einsum("mkn,mn->kn", h, x) + z
    hs = h.sum(axis=0)
    return (np.conj(hs) * y).sum(axis=0) / h.shape[1]


def recover_cluster_update(combined, p_t, M, sigma_h2, beta_bar) -> np.ndarray:
    """Divide out the nominal gain and unpack back to a 2N real vector."""
    denom = p_t * M * sigma_h2 * beta_bar
    return unpack_complex(combined) / denom


def draw_mrc_statistic(betas, K, x, sigma_h2, rng):
    """Draw each symbol's (S, R) for the (M, N) symbols x, exactly in law.

    With b = sigma_h2 * betas, (a_k, c_k) has covariance [[s_aa, s_ac],
    [conj(s_ac), s_cc]], s_aa = sum b, s_ac = sum b x, s_cc = sum b |x|^2,
    and the 2x2 Bartlett decomposition gives R = s_aa * g and
    S = s_ac * g + sqrt(l2 * R) * n, with g ~ Gamma(K), n ~ CN(0, 1) and
    l2 = s_cc - |s_ac|^2 / s_aa (clamped at 0 against rounding).
    """
    b = sigma_h2 * betas
    s_aa = b.sum()
    s_ac = (b @ x.real) + 1j * (b @ x.imag)   # float @ complex is far slower
    s_cc = b @ (x.real ** 2 + x.imag ** 2)
    l2 = np.maximum(s_cc - (s_ac.real ** 2 + s_ac.imag ** 2) / s_aa, 0.0)
    N = x.shape[1]
    g = rng.standard_gamma(K, size=N)
    raw = rng.standard_normal((N, 2))
    raw *= np.sqrt(0.5)
    R = s_aa * g
    return s_ac * g + np.sqrt(l2 * R) * raw.view(np.complex128)[:, 0], R


def ota_aggregate(diffs, betas, p_t, K, sigma_h2, sigma_z2, fading_rng,
                  noise_rng):
    """Aggregate the (M, 2N) user diffs of one cluster over the air.

    Returns (update, tx_energy = p_t^2 * sum |x|^2, symbols_sent).  Each
    symbol's combined output is (p_t * S + CN(0, sigma_z2 * R)) / K with
    (S, R) from draw_mrc_statistic, which is called through the module's
    globals, so a test or a profiler can swap it.
    """
    x = pack_complex(diffs)
    M, N = x.shape
    S, R = draw_mrc_statistic(betas, K, x, sigma_h2, fading_rng)
    combined = p_t * S
    if sigma_z2 > 0:
        raw = noise_rng.standard_normal((N, 2))
        combined += raw.view(np.complex128)[:, 0] * np.sqrt(sigma_z2 / 2.0 * R)
    combined /= K
    update = recover_cluster_update(combined, p_t, M, sigma_h2, betas.sum())
    tx_energy = p_t * p_t * float((x.real ** 2 + x.imag ** 2).sum())
    return update, tx_energy, x.size
