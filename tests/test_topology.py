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


def test_topology_arrays_read_only():
    topo = _topo()
    with pytest.raises(ValueError):
        topo.d_is[0, 0] = 2.0
    with pytest.raises(ValueError):
        topo.beta[0, 0] = 2.0


def test_topology_rejects_nonpositive_distance():
    with pytest.raises(ValueError, match="distances"):
        topology.SystemTopology([[1.0, 0.0]], [1.0, 1.0], 4.0)
    with pytest.raises(ValueError, match="distances"):
        topology.SystemTopology([[1.0, 1.0]], [1.0, -1.0], 4.0)
    with pytest.raises(ValueError, match="exponent"):
        topology.SystemTopology([[1.0, 1.0]], [1.0, 1.0], -2.0)
    # C and M come from d_is, and d_ps must hold C*M distances
    with pytest.raises(ValueError, match="d_is"):
        topology.SystemTopology(np.ones((0, 2)), [], 4.0)
    with pytest.raises(ValueError, match="d_is"):
        topology.SystemTopology([1.0, 1.0], [1.0, 1.0], 4.0)
    with pytest.raises(ValueError, match="C\\*M = 4"):
        topology.SystemTopology(np.ones((2, 2)), np.ones(3), 4.0)


def test_closeness_ratio():
    topo = _topo()
    alpha = topology.closeness_ratio(topo.d_is, topo.d_ps)
    assert alpha == pytest.approx(2.9 / 7.0)


def test_place_users_hits_target_alpha():
    gen = rng.substream(3, rng.TOPOLOGY)
    topo = topology.place_users(4, 5, 4.0, 0.4, 0.02, gen)
    assert abs(topology.closeness_ratio(topo.d_is, topo.d_ps) - 0.4) <= 0.02
    assert np.all((topo.d_is >= 0.5) & (topo.d_is <= 1.0))
    assert np.all((topo.d_ps >= 0.5) & (topo.d_ps <= 3.0))


def test_place_users_deterministic():
    a = topology.place_users(2, 3, 4.0, 0.4, 0.02, rng.substream(9, 0))
    b = topology.place_users(2, 3, 4.0, 0.4, 0.02, rng.substream(9, 0))
    assert np.array_equal(a.d_is, b.d_is)
    assert np.array_equal(a.d_ps, b.d_ps)


def test_place_users_unreachable_alpha():
    with pytest.raises(topology.PlacementError):
        topology.place_users(2, 2, 4.0, 0.99, 1e-6, rng.substream(1, 0))


def test_place_users_validates_target():
    with pytest.raises(ValueError):
        topology.place_users(2, 2, 4.0, 1.5, 0.02, rng.substream(1, 0))
    with pytest.raises(ValueError):
        topology.place_users(2, 2, 4.0, 0.4, -0.1, rng.substream(1, 0))
