import warnings

import numpy as np
import pytest

from airfed import channel, rng
from oracles import coherent_mrc_statistic, decompose_terms
from test_protocol import _AGGREGATE_DIGESTS, _aggregate_digest


def test_pack_complex_example():
    out = channel.pack_complex(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(out, np.array([1 + 3j, 2 + 4j]))
    # a stack of user vectors packs row by row
    out = channel.pack_complex(np.array([[1.0, 2.0, 3.0, 4.0],
                                         [5.0, 6.0, 7.0, 8.0]]))
    assert np.array_equal(out, np.array([[1 + 3j, 2 + 4j], [5 + 7j, 6 + 8j]]))


def test_pack_rejects_odd_length():
    with pytest.raises(ValueError):
        channel.pack_complex(np.ones(5))


def test_unpack_complex_example():
    assert np.array_equal(channel.unpack_complex(np.array([1 + 3j, 2 + 4j])),
                          np.array([1.0, 2.0, 3.0, 4.0]))
    real_only = channel.unpack_complex(np.array([2.0 + 0j, 5.0 + 0j]))
    assert np.array_equal(real_only[2:], np.zeros(2))


def test_pack_unpack_round_trip():
    v = rng.substream(0, 1).standard_normal(64)
    assert np.array_equal(channel.unpack_complex(channel.pack_complex(v)), v)
    stack = v.reshape(4, 16)
    assert np.array_equal(
        channel.unpack_complex(channel.pack_complex(stack)), stack)


def test_draw_channels_moment_oracle():
    betas = np.array([0.5, 2.0, 8.0])
    sh2 = 1.7
    gen = rng.substream(2, rng.CHANNEL)
    ch = channel.draw_channels_from_betas(betas, 25, 2000, sh2, gen)
    est = (np.abs(ch) ** 2).mean(axis=(1, 2))
    assert est == pytest.approx(betas * sh2, rel=0.01)


def test_draw_channels_deterministic_and_unit():
    betas = np.array([1.0, 4.0])
    a = channel.draw_channels_from_betas(betas, 3, 5, 1.0, rng.substream(7, 0))
    b = channel.draw_channels_from_betas(betas, 3, 5, 1.0, rng.substream(7, 0))
    assert np.array_equal(a, b)
    # unit gains draw the same small-scale fading, scaled by sqrt(beta)
    u = channel.draw_channels_from_betas(np.ones(2), 3, 5, 1.0,
                                         rng.substream(7, 0))
    assert np.array_equal(a, np.sqrt(betas)[:, None, None] * u)


def _const_channel(M, K, N, c=1.0):
    return np.full((M, K, N), c, dtype=np.complex128)


def test_ota_uplink_identity_channel():
    # M=1, K=1, h=1, no noise: the combined output is the transmitted symbol
    x = np.array([[1 + 2j, 3 - 1j]])
    ch = _const_channel(1, 1, 2)
    z = np.zeros((1, 2), complex)
    assert np.array_equal(channel.uplink_and_combine(x, ch, 1.0, z), x[0])


def test_ota_uplink_zero_signal_and_errors():
    ch = _const_channel(2, 3, 4)
    z = np.zeros((3, 4), complex)
    out = channel.uplink_and_combine(np.zeros((2, 4), dtype=complex), ch,
                                     2.0, z)
    assert out.shape == (4,) and not out.any()


def test_noise_variance_oracle():
    gen = rng.substream(5, rng.NOISE)
    z = channel.draw_noise(100, 1000, 3.0, gen)
    var = (np.abs(z) ** 2).mean()
    assert var == pytest.approx(3.0, rel=0.02)
    assert not channel.draw_noise(4, 4, 0.0, gen).any()


def test_mrc_combine_identity_and_constant():
    # K=1, M=1, h=1, zero signal: the combined output is the noise v
    v = np.array([1 + 1j, 2 - 3j])
    ch = _const_channel(1, 1, 2)
    out = channel.uplink_and_combine(np.zeros((1, 2), dtype=complex), ch, 1.0,
                                     v.reshape(1, 2))
    assert np.allclose(out, v)
    # h = c real constant, M users, zero signal, noise w on every antenna
    # -> M*c*w
    c, M, K = 1.5, 3, 4
    w = np.array([2 + 1j, -1 + 0.5j])
    ch = _const_channel(M, K, 2, c)
    out = channel.uplink_and_combine(np.zeros((M, 2), dtype=complex), ch, 1.0,
                                     np.tile(w, (K, 1)))
    assert np.allclose(out, M * c * w)
    # the same channel with symbols s from every user and no noise
    # -> p * M^2 * c^2 * s
    s = np.array([0.5 - 1j, 3 + 2j])
    out = channel.uplink_and_combine(np.tile(s, (M, 1)), ch, 2.0,
                                     np.zeros((K, 2), dtype=complex))
    assert np.allclose(out, 2.0 * M * M * c * c * s)


def _random_setup(M=3, K=5, N=8, seed=0):
    gen = rng.substream(seed, 9)
    betas = gen.uniform(0.5, 8.0, M)
    ch = channel.draw_channels_from_betas(betas, K, N, 1.3, gen)
    x = (gen.standard_normal((M, N, 2))).view(np.complex128)[..., 0]
    return ch, x


def test_decompose_single_user_no_interference():
    ch, x = _random_setup(M=1)
    sig, itf, noi = decompose_terms(x, ch, 1.0,
                                    np.zeros((5, 8), dtype=complex))
    assert np.max(np.abs(itf)) == 0.0
    assert np.max(np.abs(noi)) == 0.0


def test_fused_uplink_matches_reference_path():
    h, x = _random_setup(M=2, K=6, N=10, seed=5)
    z = channel.draw_noise(6, 10, 0.5, rng.substream(8, rng.NOISE))
    combined = channel.uplink_and_combine(x, h, 1.2, z)
    # per-antenna reference: receive on antenna k, weight by the conjugated
    # channel sum of antenna k, average over antennas
    ref = np.zeros(10, dtype=complex)
    for k in range(6):
        y_k = 1.2 * (h[:, k, :] * x).sum(axis=0) + z[k]
        ref += np.conj(h[:, k, :].sum(axis=0)) * y_k
    ref /= 6
    assert np.max(np.abs(combined - ref)) < 1e-10


def test_recover_scaling_inverse():
    p_t, M, sh2, bbar = 1.3, 4, 1.1, 6.0
    combined = np.full(5, p_t * M * sh2 * bbar * (1 + 1j))
    out = channel.recover_cluster_update(combined, p_t, M, sh2, bbar)
    assert np.allclose(out, np.ones(10))


def test_recover_hand_example_unit_channels(monkeypatch):
    # two users, unit channels, diffs [2] and [4] (N=1): recovered value 3
    diffs = np.array([[2.0, 0.0], [4.0, 0.0]])
    x = channel.pack_complex(diffs)
    ch = _const_channel(2, 3, 1)
    z = np.zeros((3, 1), complex)
    combined = channel.uplink_and_combine(x, ch, 1.5, z)
    out = channel.recover_cluster_update(combined, 1.5, 2, 1.0, 2.0)
    assert np.allclose(out, [3.0, 0.0])
    # the same aggregation in one call: tx energy 1.5^2 * (2^2 + 4^2)
    monkeypatch.setattr(channel, "draw_mrc_statistic", coherent_mrc_statistic)
    update, energy = channel.ota_aggregate(diffs, np.ones(2), 1.5, 3, 1.0,
                                           0.0, None, rng.substream(0, 0))
    assert np.allclose(update, [3.0, 0.0])
    assert energy == pytest.approx(45.0)


def test_noiseless_uplink_ignores_noise_stream():
    # at sigma_z2 = 0 the drawn noise is scaled by zero: two different
    # noise streams give bit-equal updates (and differ at sigma_z2 = 1)
    gen = rng.substream(45, 0)
    diffs = gen.standard_normal((4, 16))
    betas = gen.uniform(0.5, 8.0, 4)

    def update(sigma_z2, key):
        return channel.ota_aggregate(diffs, betas, 1.3, 8, 1.2, sigma_z2,
                                     rng.substream(45, 1),
                                     rng.substream(45, key))[0]

    assert np.array_equal(update(0.0, 2), update(0.0, 3))
    assert not np.array_equal(update(1.0, 2), update(1.0, 3))


def test_recovery_error_decreases_with_K():
    gen = rng.substream(77, 0)
    betas = np.array([1.0, 3.0, 6.0])
    diffs = gen.standard_normal((3, 8))
    target = diffs.mean(axis=0)
    errs = []
    for K in (4, 8, 16):
        sq = 0.0
        for rep in range(200):
            rec, _ = channel.ota_aggregate(
                diffs, betas, 1.0, K, 1.0, 1.0, rng.substream(77, 1, K, rep),
                rng.substream(77, 2, K, rep))
            sq += float(((rec - target) ** 2).sum())
        errs.append(sq / 200)
    assert errs[0] > errs[1] > errs[2]



def _aggregate_replications(x, betas, K, reps, full_tensor, key):
    """(reps, 2N) updates of reps independent aggregations of the (M, N)
    symbols x, p_t = 1.3, sigma_h2 = 1.2 and the paper's sigma_z2 = 10.

    Every symbol's channel and noise are drawn independently, so one call
    with the symbols repeated r times gives r replications.  full_tensor
    chains draw_channels_from_betas, draw_noise and uplink_and_combine;
    otherwise ota_aggregate runs.
    """
    M, N = x.shape
    chunk = 250                  # replications per call: <= 64 MB of h
    out = []
    for start in range(0, reps, chunk):
        xs = np.tile(x, chunk)
        fading = rng.substream(41, rng.CHANNEL, *key, start)
        noise = rng.substream(41, rng.NOISE, *key, start)
        if full_tensor:
            h = channel.draw_channels_from_betas(betas, K, xs.shape[1], 1.2,
                                                 fading)
            z = channel.draw_noise(K, xs.shape[1], 10.0, noise)
            combined = channel.uplink_and_combine(xs, h, 1.3, z)
            update = channel.recover_cluster_update(combined, 1.3, M, 1.2,
                                                    betas.sum())
        else:
            update, _ = channel.ota_aggregate(
                channel.unpack_complex(xs), betas, 1.3, K, 1.2, 10.0, fading,
                noise)
        # update = [real parts, imaginary parts] of chunk * N symbols
        out.append(update.reshape(2, chunk, N).transpose(1, 0, 2)
                   .reshape(chunk, 2 * N))
    return np.concatenate(out)


# antenna counts per user count: K = M, K = 100 and, for M > 1, K < M
GATE_KS = {1: (1, 100), 5: (1, 2, 5, 100), 20: (5, 20, 100)}


@pytest.mark.parametrize("M", (1, 5, 20))
def test_ota_aggregate_matches_full_tensor(M):
    # ota_aggregate's MRC-statistic draw against the full (M, K, N) tensor
    # path, N = 8 fixed symbols, 4000 replications of each.  Tolerances:
    # every coordinate's mean differs by at most 4 standard errors, and the
    # ratio of the total variance (the aggregation error energy summed
    # over the 2N coordinates) lies in [0.9, 1.1]
    reps = 4000
    gen = rng.substream(41, M)
    betas = gen.uniform(0.5, 8.0, M)
    x = gen.standard_normal((M, 8, 2)).view(np.complex128)[..., 0]
    for K in GATE_KS[M]:
        fast = _aggregate_replications(x, betas, K, reps, False, (M, K, 0))
        ref = _aggregate_replications(x, betas, K, reps, True, (M, K, 1))
        var_f, var_r = fast.var(axis=0, ddof=1), ref.var(axis=0, ddof=1)
        z = (fast.mean(axis=0) - ref.mean(axis=0)) / np.sqrt(
            (var_f + var_r) / reps)
        assert np.abs(z).max() <= 4.0, (K, z)
        assert 0.9 <= var_f.sum() / var_r.sum() <= 1.1, (K, var_f, var_r)


def test_ota_aggregate_mean_in_closed_form():
    # E[update] = (1/M) sum_m (beta_m / sum(beta)) d_m: the combined output
    # has mean p_t sigma_h2 sum_m beta_m x_m, and recovery divides by
    # p_t M sigma_h2 sum(beta).  Tolerance: every coordinate of the mean of
    # 4000 replications within 4 standard errors
    reps, M = 4000, 5
    gen = rng.substream(43, M)
    betas = gen.uniform(0.5, 8.0, M)
    x = gen.standard_normal((M, 8, 2)).view(np.complex128)[..., 0]
    d = channel.unpack_complex(x)
    expect = betas @ d / (M * betas.sum())
    for K in (2, 100):
        up = _aggregate_replications(x, betas, K, reps, False, (M, K, 2))
        z = (up.mean(axis=0) - expect) / (up.std(axis=0, ddof=1)
                                          / np.sqrt(reps))
        assert np.abs(z).max() <= 4.0, (K, z)


def test_ota_aggregate_finite_when_symbols_are_collinear():
    # one user, or users sending identical symbols, make
    # s_cc - |s_ac|^2 / s_aa zero up to rounding, which can fall below 0
    gen = rng.substream(44, 0)
    one = gen.standard_normal((1, 2000))
    same = np.tile(gen.standard_normal(2000), (5, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for diffs in (one, same):
            betas = gen.uniform(0.5, 8.0, diffs.shape[0])
            update, _ = channel.ota_aggregate(
                diffs, betas, 1.3, 4, 1.2, 10.0, rng.substream(44, 1),
                rng.substream(44, 2))
            assert np.isfinite(update).all()


@pytest.mark.parametrize("M, sigma_z2", sorted(_AGGREGATE_DIGESTS))
def test_ota_aggregate_digests(M, sigma_z2):
    # in this process, on every CPU; tests/test_protocol.py's
    # test_pinned_digests checks the table under each forced kernel
    assert _aggregate_digest(M, sigma_z2) == _AGGREGATE_DIGESTS[M, sigma_z2]
