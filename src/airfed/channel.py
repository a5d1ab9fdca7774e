"""Over-the-air uplink: complex packing, fading, superposition, MRC, recovery.

Model-difference vectors of even length 2N are packed into N complex
symbols, all users in a cluster transmit simultaneously through i.i.d.
Rayleigh fading to the K-antenna IS, the IS combines antennas with the
conjugated channel sum, and the cluster update is recovered by dividing
out the nominal combining gain p_t * M * sigma_h2 * beta_bar.

The combined output of a symbol depends on its (M, K) channel H only
through the Gram matrix W = H H^H, which is complex Wishart(K,
sigma_h2 * diag(beta)).  When K >= M, ota_aggregate draws W's Bartlett
factor instead of H, so its cost does not grow with K.

sigma_h2 and sigma_z2 arrive from a ScenarioConfig, which checked them
when it was built; nothing here checks them again.
"""

import numpy as np


def pack_complex(delta: np.ndarray) -> np.ndarray:
    """First half -> real parts, second half -> imaginary (last axis)."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 0 or delta.shape[-1] % 2 != 0:
        raise ValueError(f"model vectors must have even length, "
                         f"got shape {delta.shape}")
    n = delta.shape[-1] // 2
    return delta[..., :n] + 1j * delta[..., n:]


def unpack_complex(symbols: np.ndarray) -> np.ndarray:
    """Exact inverse of pack_complex."""
    symbols = np.asarray(symbols, dtype=np.complex128)
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


def draw_gram_factor(betas, K, N, sigma_h2, rng) -> np.ndarray:
    """Draw the (N, M, M) Bartlett factor G of each symbol's W = H H^H.

    For H drawn as draw_channels_from_betas draws it, W = G G^H in
    distribution with G = diag(sqrt(sigma_h2 * betas)) L, L lower
    triangular, |L_ii|^2 ~ Gamma(K - i) for i = 0..M-1 and CN(0, 1) entries
    below the diagonal (Goodman 1963; Edelman 1989).  Needs K >= M.
    """
    betas = np.asarray(betas, dtype=np.float64)
    M = betas.size
    if K < M:
        raise ValueError(f"the Bartlett factor needs K >= M, got K={K}, M={M}")
    diag = np.arange(M)
    g = np.zeros((N, M, M), dtype=np.complex128)
    g[:, diag, diag] = np.sqrt(rng.standard_gamma(K - diag, size=(N, M)))
    rows, cols = np.tril_indices(M, -1)
    raw = rng.standard_normal((N, rows.size, 2))
    raw *= np.sqrt(0.5)
    g[:, rows, cols] = raw.view(np.complex128)[..., 0]
    g *= np.sqrt(sigma_h2 * betas)[:, None]
    return g


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
    if denom <= 0:
        raise ValueError("recovery denominator must be positive")
    return unpack_complex(np.asarray(combined, dtype=np.complex128)) / denom


def ota_aggregate(diffs, betas, p_t, K, sigma_h2, sigma_z2, fading_rng,
                  noise_rng):
    """Aggregate the (M, 2N) user diffs of one cluster over the air.

    Returns (update, tx_energy = p_t^2 * sum |x|^2, symbols_sent).  With
    K >= M each symbol's combined output is drawn from the Bartlett factor
    G of its Gram matrix: p_t * r.u / K with u = G^T x and r = conj(1^T G),
    plus CN(0, sigma_z2 * |r|^2) / K receiver noise.  With K < M the full
    (M, K, N) channel and (K, N) noise are drawn and combined.  The helpers
    are called through the module's globals, so a test or a profiler can
    swap any of them.
    """
    x = pack_complex(diffs)
    M, N = x.shape
    if K >= M:
        g = draw_gram_factor(betas, K, N, sigma_h2, fading_rng)
        u = np.einsum("nij,in->nj", g, x)
        r = np.conj(g.sum(axis=1))
        combined = p_t * (r * u).sum(axis=1) / K
        if sigma_z2 > 0:
            raw = noise_rng.standard_normal((N, 2))
            scale = np.sqrt(sigma_z2 / 2.0 * (np.abs(r) ** 2).sum(axis=1)) / K
            combined += raw.view(np.complex128)[:, 0] * scale
    else:
        h = draw_channels_from_betas(betas, K, N, sigma_h2, fading_rng)
        z = draw_noise(K, N, sigma_z2, noise_rng)
        combined = uplink_and_combine(x, h, p_t, z)
    update = recover_cluster_update(combined, p_t, M, sigma_h2, betas.sum())
    tx_energy = p_t * p_t * float((x.real ** 2 + x.imag ** 2).sum())
    return update, tx_energy, x.size
