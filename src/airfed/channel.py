"""Over-the-air uplink: fading, superposition, MRC and recovery.

A model difference of even length 2N travels as N complex symbols, its
first half the real parts and its second half the imaginary parts.  All
users in a cluster transmit simultaneously through i.i.d. Rayleigh fading
to the K-antenna IS, the IS combines antennas with the conjugated channel
sum, and the cluster update is recovered by dividing out the nominal
combining gain p_t * M * sigma_h2 * beta_bar.

The combined output of a symbol depends on its (M, K) channel only through
S = sum_k conj(a_k) c_k and R = sum_k |a_k|^2, with a_k = sum_m h[m, k] and
c_k = sum_m h[m, k] x_m.  The pairs (a_k, c_k) are i.i.d. complex Gaussian
over k, so ota_aggregate draws (S, R) from their 2x2 Wishart law
(draw_mrc_statistic) for every M and K, never draws the channel, and
costs the same at every K.  Its sums over users run in user order with
einsum and call no BLAS, so its bits do not depend on the OpenBLAS kernel
(a numpy build whose einsum loops fuse the multiply and the add could still
give other bits on some CPUs).  A run computes on the (M, 2, N) real view
diffs.reshape(M, 2, -1) of the halves and builds no complex array; only the
full-tensor reference chain pack_complex -> draw_channels_from_betas ->
draw_noise -> uplink_and_combine -> recover_cluster_update is complex.  No
run calls that chain: the tests check the draw against it in distribution,
and acceptance criterion 2 checks the lemma variances against it.

A built ScenarioConfig guarantees sigma_h2 > 0, sigma_z2 >= 0, an even
model length and p_t > 0 (linear in t, checked at its first and last t),
and the gains d**-p of a topology are positive.  Nothing here checks them
again; the reference chain, which only tests call, checks no shape or
power either.
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
    """i.i.d. CN(0, sigma_z2) receiver noise; sigma_z2 = 0 scales the draw
    by zero, as ota_aggregate does."""
    raw = rng.standard_normal((K, N, 2)) * np.sqrt(sigma_z2 / 2.0)
    return raw.view(np.complex128)[..., 0]


def uplink_and_combine(symbols, h, p_t, z):
    """Superpose all users' symbols over the channel and MRC-combine.

    symbols: (M, N) transmit symbols, h: (M, K, N) fading from
    draw_channels_from_betas, z: (K, N) receiver noise from draw_noise.
    The IS receives y[k, n] = p_t * sum_m h[m,k,n] * x[m,n] + z[k,n] and
    returns, per symbol, (1/K) * sum_k conj(sum_m h[m,k,n]) * y[k,n].
    """
    y = p_t * np.einsum("mkn,mn->kn", h, symbols) + z
    hs = h.sum(axis=0)
    return (np.conj(hs) * y).sum(axis=0) / h.shape[1]


def recover_cluster_update(combined, p_t, M, sigma_h2, beta_bar) -> np.ndarray:
    """Divide out the nominal gain and unpack back to a 2N real vector."""
    denom = p_t * M * sigma_h2 * beta_bar
    return unpack_complex(combined) / denom


def draw_mrc_statistic(betas, K, x, sigma_h2, rng):
    """Draw each symbol's (S, R) for the (M, 2, N) symbols x, exactly in law.

    x[m, 0] and x[m, 1] hold the real and imaginary parts of user m's N
    symbols; S comes back as (2, N), real parts then imaginary parts.
    With b = sigma_h2 * betas, (a_k, c_k) has covariance [[s_aa, s_ac],
    [conj(s_ac), s_cc]], s_aa = sum b, s_ac = sum b x, s_cc = sum b |x|^2,
    and the 2x2 Bartlett decomposition gives R = s_aa * g and
    S = s_ac * g + sqrt(l2 * R) * n, with g ~ Gamma(K), n ~ CN(0, 1) and
    l2 = s_cc - |s_ac|^2 / s_aa (clamped at 0 against rounding).
    """
    b = sigma_h2 * betas
    s_aa = b.sum()
    # both sums take the users in order, without BLAS: kernel-free bits
    s_ac = np.einsum("m,mkn->kn", b, x)
    s_cc = np.einsum("m,mn->n", b, x[:, 0] ** 2 + x[:, 1] ** 2)
    l2 = np.maximum(s_cc - (s_ac[0] ** 2 + s_ac[1] ** 2) / s_aa, 0.0)
    N = x.shape[2]
    g = rng.standard_gamma(K, size=N)
    n = rng.standard_normal((N, 2)).T
    n *= np.sqrt(0.5)
    R = s_aa * g
    return s_ac * g + np.sqrt(l2 * R) * n, R


def ota_aggregate(diffs, betas, p_t, K, sigma_h2, sigma_z2, fading_rng,
                  noise_rng):
    """Aggregate the (M, 2N) user diffs of one cluster over the air.

    Returns (update, tx_energy = p_t^2 * sum |x|^2).  Each symbol's
    combined output is (p_t * S + CN(0, sigma_z2 * R)) / K with (S, R)
    from draw_mrc_statistic, which is called through the module's globals,
    so a test or a profiler can swap it.  The noise is drawn at every
    sigma_z2, and sigma_z2 = 0 scales it by zero.

    The estimate is biased towards the users with the larger gains and
    shrunk by 1/M: with user differences d_m and beta_bar = sum_m beta_m,
    E[update] = (1/M) sum_m (beta_m / beta_bar) d_m, because the combined
    output has mean p_t sigma_h2 sum_m beta_m x_m and recovery divides by
    p_t M sigma_h2 beta_bar.  At equal gains that is 1/M of the ideal mean.
    """
    M = diffs.shape[0]
    x = diffs.reshape(M, 2, -1)
    S, R = draw_mrc_statistic(betas, K, x, sigma_h2, fading_rng)
    noise = noise_rng.standard_normal((x.shape[2], 2)).T
    combined = p_t * S + noise * np.sqrt(sigma_z2 / 2.0 * R)
    combined *= 1.0 / K        # as complex division by K does (Smith's)
    update = combined.reshape(-1) / (p_t * M * sigma_h2 * betas.sum())
    tx_energy = p_t * p_t * float((x[:, 0] ** 2 + x[:, 1] ** 2).sum())
    return update, tx_energy
