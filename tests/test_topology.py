import numpy as np
import pytest

from airfed import rng, topology


def _topo():
    d_is = np.array([[0.5, 1.0], [0.8, 0.6]])
    d_ps = np.array([1.0, 2.0, 1.5, 2.5])
    return topology.SystemTopology(d_is, d_ps, 4.0)


def test_derived_betas():
    topo = _topo()
    assert topo.beta == pytest.approx(topo.d_is ** -4.0)
    assert topo.ps_beta == pytest.approx(topo.d_ps ** -4.0)


def test_gain_overflow_names_path_loss_exp():
    # the nearest user sits at d = 0.5, whose gain 2**p overflows from
    # p = 1024; the check runs with numpy's overflow warning off
    d_is, d_ps = _topo().d_is, _topo().d_ps
    assert topology.SystemTopology(d_is, d_ps, 1023.0).beta[0, 0] == 2.0 ** 1023
    with pytest.raises(ValueError, match=r"^path_loss_exp = 1024 gives a "
                       r"path-loss gain d\*\*-p that is not finite$"):
        topology.SystemTopology(d_is, d_ps, 1024.0)


def test_topology_arrays_read_only():
    topo = _topo()
    with pytest.raises(ValueError):
        topo.d_is[0, 0] = 2.0
    with pytest.raises(ValueError):
        topo.beta[0, 0] = 2.0


def test_closeness_ratio():
    topo = _topo()
    alpha = topology.closeness_ratio(topo.d_is, topo.d_ps)
    assert alpha == pytest.approx(2.9 / 7.0)


def _first_draw(C, M, gen):
    """The d_is and d_ps a placement draws before any scaling."""
    return gen.uniform(0.5, 1.0, size=(C, M)), gen.uniform(0.5, 3.0, C * M)


def test_place_users_hits_target_alpha():
    gen = rng.substream(3, rng.TOPOLOGY)
    topo = topology.place_users(4, 5, 4.0, 0.4, 0.02, gen)
    assert abs(topology.closeness_ratio(topo.d_is, topo.d_ps) - 0.4) <= 0.02
    assert np.all((topo.d_is >= 0.5) & (topo.d_is <= 1.0))
    assert topo.d_ps.max() / topo.d_ps.min() <= 6


def test_place_users_keeps_draw_in_band():
    # the first draw has alpha = 0.4108, inside 0.4 +- 0.02
    d_is, d_ps = _first_draw(4, 5, rng.substream(2, rng.TOPOLOGY))
    assert abs(topology.closeness_ratio(d_is, d_ps) - 0.4108) < 1e-4
    topo = topology.place_users(4, 5, 4.0, 0.4, 0.02,
                                rng.substream(2, rng.TOPOLOGY))
    assert np.array_equal(topo.d_is, d_is)
    assert np.array_equal(topo.d_ps, d_ps)


def test_place_users_scales_ps_distances_off_band():
    # the first draw has alpha = 0.5185: d_is stays, d_ps takes one factor
    d_is, d_ps = _first_draw(4, 5, rng.substream(3, rng.TOPOLOGY))
    alpha = topology.closeness_ratio(d_is, d_ps)
    assert abs(alpha - 0.5185) < 1e-4
    topo = topology.place_users(4, 5, 4.0, 0.4, 0.02,
                                rng.substream(3, rng.TOPOLOGY))
    assert np.array_equal(topo.d_is, d_is)
    factor = topo.d_ps / d_ps
    assert factor == pytest.approx(np.full(20, alpha / 0.4), rel=1e-15)


def test_place_users_deterministic():
    a = topology.place_users(2, 3, 4.0, 0.4, 0.02, rng.substream(9, 0))
    b = topology.place_users(2, 3, 4.0, 0.4, 0.02, rng.substream(9, 0))
    assert np.array_equal(a.d_is, b.d_is)
    assert np.array_equal(a.d_ps, b.d_ps)


def test_place_users_far_target_alpha():
    # far outside what uniform draws reach (alpha ~ 0.43 +- 0.05 at 4x5,
    # +- 0.002 at 100x100), so the PS distances are scaled onto the target
    for C, M, target in ((4, 5, 0.1), (4, 5, 0.25), (4, 5, 0.6),
                         (4, 5, 0.99), (100, 100, 0.4)):
        topo = topology.place_users(C, M, 4.0, target, 0.02,
                                    rng.substream(1, rng.TOPOLOGY))
        alpha = topology.closeness_ratio(topo.d_is, topo.d_ps)
        assert abs(alpha - target) <= 1e-12
        assert np.all((topo.d_is >= 0.5) & (topo.d_is <= 1.0))
        assert topo.d_ps.max() / topo.d_ps.min() <= 6

