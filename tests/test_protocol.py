import ast
import ctypes
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from dataclasses import FrozenInstanceError, fields, replace
from typing import Literal, Optional, get_args, get_origin

from airfed import bounds, channel, learner, protocol, rng, topology
from oracles import bound_params_for_run
from test_bounds import _params
from test_learner import _write_idx


def _cfg(**kw):
    base = dict(scenario="hotafl", C=2, M=2, K=4, tau=1, I=1, T=6,
                sigma_z2=1.0, power_base=1.0, power_slope=0.01,
                lr_base=0.05, lr_slope=2e-5, dataset="synthetic",
                partition="iid", feature_dim=9, num_classes=4,
                train_samples=400, test_samples=100, batch_size=20, seed=3)
    base.update(kw)
    return protocol.ScenarioConfig(**base)


def test_power_schedule_examples():
    assert protocol.power_schedule(0, 1.0, 0.01) == 1.0
    assert protocol.power_schedule(100, 1.5, 0.01) == 2.5
    assert protocol.power_schedule(123, 0.7, 0.0) == 0.7
    with pytest.raises(ValueError):
        protocol.power_schedule(10, 0.5, -0.1)


def test_lr_schedule_examples():
    assert protocol.lr_schedule(0, 0.05, 2e-5) == 0.05
    assert protocol.lr_schedule(199, 0.05, 2e-5) == pytest.approx(0.04602)
    assert protocol.lr_schedule(5, 0.03, 0.0) == 0.03
    assert protocol.lr_schedule(1000, 0.01, 1.0) == 0.0


def test_config_validation_errors():
    with pytest.raises(ValueError, match="tau"):
        _cfg(tau=0)
    with pytest.raises(ValueError, match="scenario"):
        _cfg(scenario="bogus")
    with pytest.raises(ValueError):
        _cfg(power_base=-1.0)
    with pytest.raises(ValueError, match="even"):
        _cfg(feature_dim=8, num_classes=3)  # dim 27, odd
    with pytest.raises(ValueError, match=r"^5 label groups \(5\*C\*M\) "
                       "cannot cover 10 classes$"):
        _cfg(C=1, M=1, partition="noniid", num_classes=10)
    # ideal runs tolerate odd model dimensions
    _cfg(scenario="ideal_hier", feature_dim=8, num_classes=3)


def _wrong_types(f):
    """(value, rule) cases of a value of the wrong type for field f: an int
    at 2.5 and True, a float at True and '1', a str or Literal at 3, betas
    at a bool entry and text, and a field that is not Optional at None."""
    kind = get_args(f.type)[0] if f.type in (Optional[int],
                                            Optional[float]) else f.type
    if get_origin(kind) is Literal:
        rule, values = f"one of {get_args(kind)}", [3]
    else:
        rule, values = {
            int: ("an integer", [2.5, True]),
            float: ("a real number", [True, "1"]),
            str: ("a string", [3]),
            np.ndarray: ("real numbers", [[[True, 3.0]], "3"])}[kind]
    if kind is f.type:
        values.append(None)
    return [(v, f"{rule}, got {v!r}") for v in values]


# the float fields of both config types whose sign is checked
_POSITIVE = {"sigma_h2", "alpha_tolerance", "L", "mu", "G2", "init_dist"}
_NONNEGATIVE = {"sigma_z2", "path_loss_exp", "l2_reg", "lr_base", "Gamma"}


def _number_cases():
    """One case per number or choice field of both config types: a float
    at nan, a seed at -1, any other int at 0 and a Literal at 'bogus'; every
    sign-checked float at -1; every number field at 10**400, an int too
    large for a float; and the _wrong_types cases of every field."""
    cases = []
    for build, cls in ((_cfg, protocol.ScenarioConfig),
                       (_params, bounds.BoundParams)):
        for f in fields(cls):
            if f.type in (float, Optional[float]):
                value, rule = float("nan"), "finite"
            elif f.name in ("seed", "data_seed"):
                value, rule = -1, "nonnegative"
            elif f.type in (int, Optional[int]):
                value, rule = 0, "a positive integer"
            elif get_origin(f.type) is Literal:
                value = "bogus"
                rule = f"one of {get_args(f.type)}, got {value!r}"
            else:
                value = None
            if value is not None:
                cases.append(pytest.param(build, f.name, value,
                                          f"{f.name} must be {rule}",
                                          id=f"{cls.__name__}-{f.name}"))
            if f.name in _POSITIVE | _NONNEGATIVE:
                rule = "positive" if f.name in _POSITIVE else "nonnegative"
                cases.append(pytest.param(
                    build, f.name, -1.0, f"{f.name} must be {rule}",
                    id=f"{cls.__name__}-{f.name}-negative"))
            if f.type in (int, float, Optional[int], Optional[float]):
                cases.append(pytest.param(build, f.name, 10**400,
                                          f"{f.name} must be finite",
                                          id=f"{cls.__name__}-{f.name}-huge"))
            for value, rule in _wrong_types(f):
                cases.append(pytest.param(
                    build, f.name, value, f"{f.name} must be {rule}",
                    id=f"{cls.__name__}-{f.name}={value!r}"))
    return cases


@pytest.mark.parametrize("build, name, value, message", _number_cases())
def test_every_number_field_is_range_checked(build, name, value, message):
    with pytest.raises(ValueError) as err:
        build(**{name: value})
    assert str(err.value) == message


def test_optional_fields_take_none():
    cfg = _cfg(K=None, flat_power_base=None, flat_power_slope=None,
               data_seed=None)
    assert (cfg.K, cfg.flat_power_base, cfg.data_seed) == (20, 1.0, None)


def test_array_holding_values_compare_by_identity():
    # an array field has no one truth value: the generated __eq__ raised
    # and hash() failed, so these compare and hash as objects
    p = _params()
    topo = protocol.build_topology(_cfg())
    data = learner.Dataset(np.zeros((2, 3), np.float32),
                           np.zeros(2, np.int64), 2)
    for value in (p, topo, data):
        copy = replace(value)
        assert value == value and value != copy
        assert hash(value) == hash(value) and len({value, copy}) == 2
    # a run config keeps its value equality
    assert _cfg() == _cfg() and hash(_cfg()) == hash(_cfg())


def test_config_checked_when_built_and_frozen():
    with pytest.raises(ValueError, match="tau must"):
        protocol.ScenarioConfig(scenario="hotafl", tau=0)
    cfg = _cfg()
    # every copy is checked too, such as run_scenario's flat remap
    with pytest.raises(ValueError, match="tau must"):
        replace(cfg, tau=0)
    with pytest.raises(FrozenInstanceError):
        cfg.tau = 0


def test_default_antennas_and_flat_power():
    cfg = protocol.ScenarioConfig(scenario="hotafl", C=3, M=4)
    assert cfg.K == 60
    assert cfg.flat_power_base == cfg.power_base
    cfg2 = _cfg(flat_power_base=1.5)
    assert cfg2.flat_power_base == 1.5


def test_run_deterministic_bitwise():
    a = protocol.run_scenario(_cfg())
    b = protocol.run_scenario(_cfg())
    assert a.final_checksum == b.final_checksum
    assert np.array_equal(a.train_loss, b.train_loss)
    assert np.array_equal(a.test_acc, b.test_acc)


def test_zero_lr_freezes_model():
    m = protocol.run_scenario(_cfg(scenario="ideal_hier", lr_base=0.0,
                                   lr_slope=0.0))
    assert np.unique(m.test_acc).size == 1
    assert np.unique(m.train_loss).size == 1
    assert not m.final_model.any()


def test_ideal_matches_centralized_sgd():
    cfg = _cfg(scenario="ideal_hier", C=1, M=1, tau=1, I=1, T=10,
               train_samples=200)
    m = protocol.run_scenario(cfg, record_models=True)

    train, _ = protocol.load_run_data(cfg)
    rows = protocol.partition_for_run(cfg, train)[0]
    batch_rows = learner.batches(
        rows, cfg.batch_size, rng.substream(cfg.seed, rng.BATCH, 0, 0))
    theta = learner.zero_model(cfg.feature_dim, cfg.num_classes)
    for t in range(cfg.T):
        eta = protocol.lr_schedule(t, cfg.lr_base, cfg.lr_slope)
        theta = learner.sgd_user_iterations(train, batch_rows, theta, 1, eta)
        assert np.array_equal(theta, m.models[t])


# Seed and band fixed before the first run.  The per-iteration ratio of the
# measured to the predicted error pins the power, K and noise the engine
# hands to channel.ota_aggregate: without the noise it reads about 0.016,
# and with K/2 it leaves the band (1.3-2.1) in every sigma_z2 = 1 case but
# hotafl at K = 10^4.  Where the noise is small, the recovery bias, which
# does not depend on K, dominates.  It does not pin which betas row a
# cluster gets: rotating the rows across clusters stays in the band.
_AGG_ERR_BAND = (0.85, 1.15)


@pytest.mark.parametrize("K", [10, 100, 1000, 10_000])
@pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
@pytest.mark.parametrize("scenario, I", [
    ("hotafl", 1), ("flat_ota", 1), ("hotafl", 2), ("flat_ota", 2)],
    ids=["hotafl", "flat_ota", "hotafl-I2", "flat_ota-I2"])
def test_aggregation_error_matches_lemma_oracle(scenario, I, sigma_z2, K):
    # flat runs at one local iteration whatever cfg.I says
    cfg = protocol.ScenarioConfig(
        scenario=scenario, C=2, M=3, K=K, I=I, T=6, sigma_z2=sigma_z2,
        feature_dim=64, train_samples=3000, test_samples=300, batch_size=50,
        seed=3)
    m = protocol.run_scenario(cfg, record_models=True, collect_diffs=True)
    p = bound_params_for_run(cfg, L=1.0, mu=1.0, G2=1.0, Gamma=0.0,
                             init_dist=1.0)
    lo, hi = _AGG_ERR_BAND
    prev = np.zeros_like(m.final_model)
    for t, (model, diffs) in enumerate(zip(m.models, m.user_diffs)):
        # the ideal update: the sum over i of the users' mean difference
        err = model - prev - diffs.sum(axis=1).mean(axis=(0, 1))
        # a = t: the oracle's power schedule is the engine's 0-based one
        predicted = sum(bounds.lemma_variance_oracle(w, p, a=t, diffs=diffs)
                        for w in bounds.Y_TERMS[:3])
        ratio = float(err @ err) / predicted
        assert lo <= ratio <= hi, f"t={t + 1}: ratio {ratio:.3f}"
        prev = model


def test_flat_is_one_level_specialization(monkeypatch):
    cfg = _cfg(scenario="flat_ota", C=2, M=3, K=12, tau=2, I=1, T=6,
               flat_power_base=1.5, train_samples=600)
    topo = protocol.build_topology(cfg)
    a = protocol.run_scenario(cfg)

    topo_flat = topology.SystemTopology(topo.d_ps.reshape(1, 6), topo.d_ps,
                                        cfg.path_loss_exp)
    cfg_flat = replace(cfg, scenario="hotafl", C=1, M=6, power_base=1.5,
                       data_seed=cfg.seed)
    monkeypatch.setattr(protocol, "build_topology", lambda cfg: topo_flat)
    b = protocol.run_scenario(cfg_flat)
    assert a.final_checksum == b.final_checksum
    assert np.array_equal(a.test_acc, b.test_acc)


def test_setup_calls_once_per_run(monkeypatch):
    # perfbench/run.py times setup and iterations from the protocol and
    # learner calls, and each channel layer from the module attribute that
    # channel.ota_aggregate calls once per cluster aggregation: the MRC
    # statistic for every K.  The complex full-tensor reference chain,
    # packing and recovery included, is never called: a run aggregates on
    # the real halves of the differences
    targets = ((protocol, "load_run_data"), (protocol, "partition_for_run"),
               (protocol, "build_topology"), (channel, "draw_mrc_statistic"),
               (channel, "pack_complex"),
               (channel, "draw_channels_from_betas"), (channel, "draw_noise"),
               (channel, "uplink_and_combine"),
               (channel, "recover_cluster_update"),
               (channel, "unpack_complex"), (learner, "evaluate"))
    names = [name for _, name in targets]
    calls = dict.fromkeys(names, 0)
    for module, name in targets:
        def counted(*args, _name=name, _fn=getattr(module, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(module, name, counted)

    def counts(cfg):
        calls.update(dict.fromkeys(names, 0))
        protocol.run_scenario(cfg)
        return tuple(calls[n] for n in names)

    cfg = _cfg(T=2, I=2)          # K=4: K >= M for hotafl (M=2), flat (M=4)
    hier = (8,) + (0,) * 6 + (2,)     # C*I*T aggregations, T evaluations
    flat = (2,) + (0,) * 6 + (2,)     # one cluster and I=1: T aggregations
    ideal = (0,) * 7 + (2,)
    assert counts(cfg) == (1, 1, 1) + hier
    assert counts(replace(cfg, scenario="flat_ota")) == (1, 1, 1) + flat
    assert counts(replace(cfg, scenario="ideal_hier")) == (1, 1, 0) + ideal
    few = replace(cfg, K=1)       # K < M: the same draw
    assert counts(few) == (1, 1, 1) + hier
    assert counts(replace(few, scenario="flat_ota")) == (1, 1, 1) + flat


def test_metrics_shape_and_csv(tmp_path):
    cfg = _cfg(T=4)
    m = protocol.run_scenario(cfg)
    assert m.t.tolist() == [1, 2, 3, 4]
    assert np.all((m.test_acc >= 0) & (m.test_acc <= 1))
    assert np.all(m.avg_tx_power > 0)
    assert m.eta[0] == 0.05 and m.power[0] == 1.0
    path = tmp_path / "m.csv"
    m.to_csv(str(path))
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "t,scenario,train_loss,test_acc,avg_tx_power,eta,power"
    assert len([l for l in lines if l]) == 5
    assert lines[1].split(",")[1] == "hotafl"
    assert b"\r" not in path.read_bytes()


@pytest.mark.parametrize("scenario", ["hotafl", "flat_ota"])
def test_tx_power_is_energy_per_symbol(scenario):
    # avg_tx_power[t] = p_t^2 * (sum of the squared user diffs) / (symbols
    # sent), the C*I*M user sends packing dim/2 symbols each; flat runs
    # at C=1, I=1 whatever the config says.  Tolerance fixed before the
    # first run
    m = protocol.run_scenario(_cfg(scenario=scenario, I=2, T=4),
                              collect_diffs=True)
    for t, d in enumerate(m.user_diffs):
        expect = m.power[t] ** 2 * float((d ** 2).sum()) / (d.size / 2)
        assert m.avg_tx_power[t] == pytest.approx(expect, rel=1e-12)


def test_tx_energy_is_added_in_cluster_order(monkeypatch):
    # a local step's C aggregations run as pool tasks; the run adds their
    # energies in order i, then c = 0..C-1, as a loop over them does
    cfg = _cfg(C=3, I=2, T=3)
    betas = protocol.build_topology(cfg).beta
    ota = channel.ota_aggregate
    energies = {}       # (p_t, c): the energy of each local step, in order

    def recorded(diffs, beta, p_t, *args):
        update, energy = ota(diffs, beta, p_t, *args)
        c = next(c for c, row in enumerate(betas) if np.array_equal(beta, row))
        energies.setdefault((p_t, c), []).append(energy)
        return update, energy

    monkeypatch.setattr(channel, "ota_aggregate", recorded)
    m = protocol.run_scenario(cfg)
    symbols = cfg.C * cfg.I * cfg.M * m.final_model.size // 2
    for t, p_t in enumerate(m.power):
        tx = 0.0
        for i in range(cfg.I):
            for c in range(cfg.C):
                tx += energies[p_t, c][i]
        assert m.avg_tx_power[t] == tx / symbols, f"t={t + 1}"


def test_ideal_reports_zero_tx_power():
    m = protocol.run_scenario(_cfg(scenario="ideal_hier", T=3))
    assert not m.avg_tx_power.any()


def test_data_seed_pins_dataset():
    cfg_a = _cfg(seed=3, data_seed=3)
    cfg_b = _cfg(seed=4, data_seed=3)
    ta, _ = protocol.load_run_data(cfg_a)
    protocol._RUN_DATA.clear()      # draw cfg_b's data, not reuse cfg_a's
    tb, _ = protocol.load_run_data(cfg_b)
    assert np.array_equal(ta.features, tb.features)
    tc, _ = protocol.load_run_data(_cfg(seed=4))
    assert not np.array_equal(ta.features, tc.features)


def test_mnist_requires_env(monkeypatch):
    monkeypatch.delenv(protocol.MNIST_DIR_ENV, raising=False)
    with pytest.raises(FileNotFoundError):
        protocol.load_run_data(_cfg(dataset="mnist"))


def test_run_data_is_read_only():
    # every user's shard and the train-loss sample read the one train matrix
    train, test = protocol.load_run_data(_cfg())
    for data in (train, test):
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.labels[0] = 0
        with pytest.raises(FrozenInstanceError):   # runs share the Dataset
            data.features = data.features.copy()
    assert train.features.base is test.features.base  # views of one matrix


def _mnist_dir(path, seed):
    """A new directory of MNIST-style IDX files: 30 train and 10 test
    images of 4 x 4 pixels drawn from seed, labels 0..9 in turn."""
    gen = rng.substream(seed, 0)
    path.mkdir()
    for prefix, n in (("train", 30), ("t10k", 10)):
        _write_idx(path / f"{prefix}-images-idx3-ubyte", 0x803,
                   gen.integers(0, 256, size=(n, 4, 4)), (n, 4, 4))
        _write_idx(path / f"{prefix}-labels-idx1-ubyte", 0x801,
                   np.arange(n) % 10, (n,))
    return str(path)


def _variants(base):
    """{field: config} with, for every ScenarioConfig field, a valid config
    that differs from base in that field only."""
    out = {}
    for f in fields(protocol.ScenarioConfig):
        value = getattr(base, f.name)
        if get_origin(f.type) is Literal:
            candidates = [c for c in get_args(f.type) if c != value]
        elif f.type in (int, Optional[int]):
            candidates = [(value or 0) + 1, (value or 0) + 2]
        elif f.type in (float, Optional[float]):
            candidates = [(value or 0.0) + 0.25]
        else:
            raise AssertionError(f"no variant rule for field {f.name}")
        for candidate in candidates:
            try:
                out[f.name] = replace(base, **{f.name: candidate})
                break
            except ValueError:
                continue
        else:
            raise AssertionError(f"no valid variant of {f.name}")
    return out


# 16 features and 10 classes: the shape of _mnist_dir's sets
_KEY_BASE = dict(feature_dim=16, num_classes=10)


def test_run_data_is_never_stale(tmp_path, monkeypatch):
    # a config loaded right after another gets the data of its own cold
    # build, whichever field (or MNIST directory) the two differ in
    def same_as_cold(first, second, mnist_dir=None):
        protocol.load_run_data(first)
        if mnist_dir:
            monkeypatch.setenv(protocol.MNIST_DIR_ENV, mnist_dir)
        got = protocol.load_run_data(second)
        protocol._RUN_DATA.clear()
        want = protocol.load_run_data(second)
        return all(np.array_equal(g.features, w.features)
                   and np.array_equal(g.labels, w.labels)
                   and g.num_classes == w.num_classes
                   for g, w in zip(got, want))

    monkeypatch.setenv(protocol.MNIST_DIR_ENV, _mnist_dir(tmp_path / "a", 0))
    base = _cfg(**_KEY_BASE)
    for name, variant in _variants(base).items():
        assert same_as_cold(base, variant), name
    mnist = replace(base, dataset="mnist")
    assert same_as_cold(mnist, mnist, _mnist_dir(tmp_path / "b", 1))


def test_run_data_holds_one_key(monkeypatch):
    # a new data key drops the kept data before it draws its own, so a
    # sweep over data keys never holds two datasets at once
    base = _cfg(**_KEY_BASE)
    variants = _variants(base)
    draw = learner.make_synthetic
    for name in ("seed", "data_seed", "train_samples", "test_samples",
                 "feature_dim", "num_classes"):
        protocol._RUN_DATA.clear()
        old = weakref.ref(protocol.load_run_data(base)[0].features.base)
        alive = []      # whether the old data lived, at each draw

        def watched(*args, **kw):
            alive.append(old() is not None)
            return draw(*args, **kw)

        monkeypatch.setattr(learner, "make_synthetic", watched)
        protocol.load_run_data(variants[name])
        monkeypatch.setattr(learner, "make_synthetic", draw)
        assert alive == [False], name
    # fields the draw does not read share the kept pair
    kept = protocol.load_run_data(base)
    for name in ("scenario", "T", "partition", "batch_size"):
        assert protocol.load_run_data(variants[name]) is kept, name


# A run whose data (11000 x 64 float32) dominates its memory; scenarios
# that cover both partitions, both aggregation paths and I > 1, where the
# order of the engine's local-step and cluster loops could show.
_DATA_SHAPE = dict(C=2, M=2, K=8, T=2, train_samples=10000,
                   test_samples=1000, feature_dim=64, batch_size=50, seed=3)
_DATA_RUNS = {
    "hotafl_iid": dict(scenario="hotafl", partition="iid"),
    "flat_iid": dict(scenario="flat_ota", partition="iid"),
    "ideal_noniid_tau3": dict(scenario="ideal_hier", partition="noniid",
                              tau=3),
    "hotafl_iid_I3": dict(scenario="hotafl", partition="iid", I=3),
    "ideal_noniid_tau3_I2": dict(scenario="ideal_hier", partition="noniid",
                                 tau=3, I=2),
}


@pytest.mark.parametrize("name", sorted(_DATA_RUNS))
def test_run_holds_its_data_once(name):
    cfg = protocol.ScenarioConfig(**_DATA_SHAPE, **_DATA_RUNS[name])
    data_bytes = protocol.load_run_data(cfg)[0].features.itemsize * (
        (cfg.train_samples + cfg.test_samples) * cfg.feature_dim)
    protocol._RUN_DATA.clear()      # the first run below builds its data
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            protocol.run_scenario(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] / data_bytes)
        finally:
            tracemalloc.stop()
    # a run that builds the data peaks near 1.5-1.6x (about 1.4 MB of fixed
    # overhead, mostly the 2000-row eval copy); a second copy would read
    # about 2.5x.  The second run reuses the first one's data: about 0.5x
    assert peaks[0] <= 1.75, f"cold run peak {peaks[0]:.2f}x the data"
    assert peaks[1] <= 0.75, f"warm run peak {peaks[1]:.2f}x the data"


def test_load_run_data_leaves_no_threads():
    cfg = protocol.ScenarioConfig(**_DATA_SHAPE, **_DATA_RUNS["hotafl_iid"])
    protocol._RUN_DATA.clear()      # build, so the draw's pool starts
    before = threading.active_count()
    protocol.load_run_data(cfg)
    assert threading.active_count() == before


def _openblas_core():
    """The name of the CPU kernel numpy's bundled OpenBLAS runs (its build
    is DYNAMIC_ARCH, so it picks one at load time, or takes
    OPENBLAS_CORETYPE), or None where learner does not find the library."""
    lib = learner._openblas()
    if lib is None:
        return None
    corename = lib.scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _pinned(digests, name):
    """name's digest under the OpenBLAS kernel this process runs, from
    digests = {kernel: {name: digest}}; skips where the library is not
    found or no digest is pinned for its kernel."""
    core = _openblas_core()
    if core is None:
        pytest.skip(_NO_BLAS_SETTER)
    if core not in digests:
        pytest.skip(f"no digests pinned for OpenBLAS's {core} kernel")
    return digests[core][name]


# The digests are not in the test ids, so a re-pin keeps the test names.
# The bits are those of the OpenBLAS kernel the products run on: Haswell
# and Zen (AVX2) give the same bits, SkylakeX (AVX-512) and Sandybridge
# (AVX) each give others.
_GOLDEN_CHECKSUMS = {
    "SkylakeX": {
        "hotafl_iid":
            "da13732de2f03a266a6cdce6b3cb210b79a290e22fcb86a3369292a5aa34f048",
        "flat_iid":
            "f7ebc0996d7cf4bb5daa83099e8930566d5884a0b7a9523a8345d70d113b91ba",
        "ideal_noniid_tau3":
            "1d4f96c58cc9367325810e62f96f85d4c4334682e75cb1b0b9e6ea2ec7af1455",
        "hotafl_iid_I3":
            "81f524a7493963d84e2d68165a42f5d174b6ef125bf9ea9865800518948b17fe",
        "ideal_noniid_tau3_I2":
            "9e7f9079ddfd5b6cba4e9a6f8659b5057a299f737d122ae118facb53e0b9c4ff",
    },
    "Haswell": {
        "hotafl_iid":
            "02824426495bce499499cb5816b1bafb6021e8311f37c35db8b1cfe4dd4ade79",
        "flat_iid":
            "27e828095a30cc6775f4ff212f42b8ac75274871171872f8b87bfb6746b2c8c9",
        "ideal_noniid_tau3":
            "223b2df9359cba45a6844ee160834174dd24325edbbd4dbd22a159080b67883d",
        "hotafl_iid_I3":
            "85a3f9da3e8e87d9ec7a9a6997d43d6fad2bfe7363c36fbc0b10fab290c24dec",
        "ideal_noniid_tau3_I2":
            "09f126cd0c6e86114e83f4a66885e4bc9ee24c133e5c8087b4083da05730d9f2",
    },
    "Sandybridge": {
        "hotafl_iid":
            "47650c22a9b7351b34377272dba0c06683741e295b781834d0a81e68522d82b4",
        "flat_iid":
            "2bf3931a6509ab1a650de6a95a4036e0cecffb5d87ff0296534c6ca51598d360",
        "ideal_noniid_tau3":
            "be559b49b515c0c509af34781fc55d6bbf5e746f5b0e0e9dc2bf4db0c31d851f",
        "hotafl_iid_I3":
            "d735c51628d469c5c70277337a747cda8a569a5c3e535c0d6b946f4710c7e421",
        "ideal_noniid_tau3_I2":
            "8823f6967d1fe076b8067c6379d76e1e969036a32405bef36e75e4c134550119",
    },
}
_GOLDEN_CHECKSUMS["Zen"] = _GOLDEN_CHECKSUMS["Haswell"]


@pytest.mark.parametrize("name", sorted(_GOLDEN_CHECKSUMS["SkylakeX"]))
def test_golden_checksums(name):
    # pinned at 0.8.0; a change here changes every output of the scenario
    digest = _pinned(_GOLDEN_CHECKSUMS, name)
    cfg = protocol.ScenarioConfig(**_DATA_SHAPE, **_DATA_RUNS[name])
    assert protocol.run_scenario(cfg).final_checksum == digest


# One gradient of this shape, 400 * 257 * 10 multiply-adds, reaches
# learner.SGD_POOL_MIN_MACS, so its local steps run on the user pool.
_POOL_SHAPE = dict(C=2, M=2, K=8, tau=2, I=2, T=2, feature_dim=256,
                   batch_size=400, train_samples=2000, test_samples=500,
                   seed=4)
_NO_BLAS_SETTER = "numpy's bundled OpenBLAS thread setter not found"


# The run below the pool's threshold runs at the criteria-4s width (64
# features), so its local steps get one worker whatever the CPU count.
@pytest.mark.parametrize("scenario, shape", [
    ("hotafl", _POOL_SHAPE), ("ideal_hier", _POOL_SHAPE),
    ("hotafl", _DATA_SHAPE)], ids=["hotafl", "ideal_hier", "one_worker"])
def test_outputs_independent_of_worker_count(scenario, shape, monkeypatch):
    cfg = protocol.ScenarioConfig(scenario=scenario, **shape)
    pinned = learner._openblas() is not None
    pooled = pinned and shape is _POOL_SHAPE
    caller = threading.get_ident()
    threads = set()     # the threads of every SGD, scoring and uplink call

    def traced(fn):
        def call(*args, **kw):
            threads.add(threading.get_ident())
            return fn(*args, **kw)
        return call

    for module, name in ((learner, "sgd_user_iterations"), (learner, "loss"),
                         (learner, "evaluate"), (channel, "ota_aggregate")):
        monkeypatch.setattr(module, name, traced(getattr(module, name)))
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the workers finely
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(learner, "_cpu_count", lambda: cpus)
            threads.clear()
            before = threading.active_count()
            runs.append(protocol.run_scenario(cfg))
            assert threading.active_count() == before   # the pool is joined
            assert len(threads) == (cpus if pooled else 1)
            assert caller not in threads    # one path: always the pool
    finally:
        sys.setswitchinterval(interval)
    for m in runs[1:]:
        assert m.final_checksum == runs[0].final_checksum
        for key in ("train_loss", "test_acc", "avg_tx_power"):
            assert np.array_equal(getattr(m, key), getattr(runs[0], key))

    monkeypatch.setattr(learner, "_cpu_count", lambda: 2)
    assert learner.sgd_workers(20, 500, 784, 10) == (2 if pinned else 1)
    assert learner.sgd_workers(20, 500, 160, 10) == (2 if pinned else 1)
    assert learner.sgd_workers(20, 100, 64, 10) == 1   # criteria 4s and 5s


def test_stalled_worker_holds_up_one_user(monkeypatch):
    # The first user of the one local step stalls until every other user
    # is trained: the other worker must take all C*M - 1 of them.  A fixed
    # split of the users over the two workers never finishes them.
    if learner._openblas() is None:
        pytest.skip(_NO_BLAS_SETTER)
    monkeypatch.setattr(learner, "_cpu_count", lambda: 2)
    cfg = protocol.ScenarioConfig(scenario="ideal_hier",
                                  **dict(_POOL_SHAPE, T=1, I=1))
    n_users = cfg.C * cfg.M
    sgd = learner.sgd_user_iterations
    lock, others_done = threading.Lock(), threading.Event()
    stalled, done = [], []      # thread of the stalled call; of each return

    def stall_first(*args, **kw):
        with lock:
            first = not stalled
            if first:
                stalled.append(threading.get_ident())
        if first and not others_done.wait(timeout=10):
            raise AssertionError("the other users waited for the stalled one")
        out = sgd(*args, **kw)
        with lock:
            done.append(threading.get_ident())
            if len(done) == n_users - 1 and not first:
                others_done.set()
        return out

    monkeypatch.setattr(learner, "sgd_user_iterations", stall_first)
    protocol.run_scenario(cfg)
    assert len(done) == n_users
    assert sum(t != stalled[0] for t in done) == n_users - 1


def test_each_model_is_scored_once_on_the_pool(monkeypatch):
    # theta_PS(t) is scored on the pool while t+1 trains: the k-th call of
    # evaluate and of loss must get the k-th model and fill row k
    monkeypatch.setattr(learner, "_cpu_count", lambda: 2)
    caller = threading.get_ident()
    calls = {"evaluate": [], "loss": []}    # (thread, model, value) of each

    for name in calls:
        def traced(model, *args, _name=name, _fn=getattr(learner, name)):
            value = _fn(model, *args)
            calls[_name].append((threading.get_ident(), model.copy(), value))
            return value
        monkeypatch.setattr(learner, name, traced)

    for scenario in ("hotafl", "ideal_hier"):
        for T in (4, 1):
            cfg = protocol.ScenarioConfig(scenario=scenario,
                                          **dict(_POOL_SHAPE, T=T))
            for made in calls.values():
                made.clear()
            m = protocol.run_scenario(cfg, record_models=True)
            for name, row in (("evaluate", m.test_acc),
                              ("loss", m.train_loss)):
                threads, models, values = zip(*calls[name])
                assert len(models) == T, name
                assert caller not in threads, name
                for got, want in zip(models, m.models):
                    assert np.array_equal(got, want), name
                assert row.tolist() == list(values), name


def test_scores_lag_without_changing_the_first_error(monkeypatch):
    # t=1's train loss is checked after t=2's local steps but before t=2's
    # update checks, so a non-finite loss at t=1 is still the error reported
    cfg = _cfg(T=4)
    loss, ota = learner.loss, channel.ota_aggregate
    losses = []

    def inf_first(*args):
        losses.append(args)
        return np.inf if len(losses) == 1 else loss(*args)

    def nan_from_t2(diffs, betas, p_t, *args):
        update, energy = ota(diffs, betas, p_t, *args)
        if p_t != cfg.power_base:       # t >= 2: power_slope > 0
            update = np.full_like(update, np.nan)
        return update, energy

    monkeypatch.setattr(learner, "loss", inf_first)
    monkeypatch.setattr(channel, "ota_aggregate", nan_from_t2)
    with pytest.raises(ValueError, match="^train loss is not finite at t=1$"):
        protocol.run_scenario(cfg)

    # a non-finite update at t=1 ends the run before anything is scored
    evaluated = []
    monkeypatch.setattr(learner, "evaluate", lambda *a: evaluated.append(a))
    monkeypatch.setattr(channel, "ota_aggregate", lambda diffs, *a: (
        np.full(diffs.shape[1], np.nan), 0.0))
    with pytest.raises(ValueError,
                       match="^cluster 0 update is not finite at t=1$"):
        protocol.run_scenario(cfg)
    assert evaluated == []


def test_run_holds_blas_at_one_thread_and_restores_it(monkeypatch):
    lib = learner._openblas()
    if lib is None:
        pytest.skip(_NO_BLAS_SETTER)
    get = lib.scipy_openblas_get_num_threads64_
    set_threads = lib.scipy_openblas_set_num_threads64_
    seen = []
    evaluate = learner.evaluate

    def watched(*args):
        seen.append(get())
        return evaluate(*args)

    monkeypatch.setattr(learner, "evaluate", watched)
    monkeypatch.setattr(learner, "_cpu_count", lambda: 2)
    cfg = protocol.ScenarioConfig(scenario="hotafl", **_POOL_SHAPE)
    # P_t = 1e-310 overflows the recovered update inside the pooled run
    blowup = replace(cfg, sigma_z2=100.0, power_base=1e-310, power_slope=0)
    saved = get()
    set_threads(2)
    try:
        protocol.run_scenario(cfg)
        assert seen == [1, 1] and get() == 2
        with pytest.raises(ValueError, match="update is not finite at t=1"):
            protocol.run_scenario(blowup)
        assert get() == 2
        # without the setter the run leaves BLAS as it is
        monkeypatch.setattr(learner, "_openblas", lambda: None)
        seen.clear()
        protocol.run_scenario(cfg)
        assert seen == [2, 2] and get() == 2
    finally:
        set_threads(saved)


def test_caller_error_state_neither_reaches_nor_leaves_the_run(monkeypatch):
    monkeypatch.setattr(learner, "_cpu_count", lambda: 2)
    # the CLI's loss-overflow run: P_t = 1e-6 against sigma_z2 = 100
    overflow = protocol.ScenarioConfig(
        scenario="hotafl", C=2, M=2, K=8, T=4, sigma_z2=100.0,
        power_base=1e-6, power_slope=0, feature_dim=9, num_classes=4,
        train_samples=300, test_samples=60, batch_size=20, seed=5)
    pooled = protocol.ScenarioConfig(scenario="hotafl", **_POOL_SHAPE)
    with np.errstate(all="raise"):
        state, threads = np.geterr(), threading.active_count()
        with pytest.raises(ValueError,
                           match="^train loss is not finite at t=1$"):
            protocol.run_scenario(overflow)
        assert np.geterr() == state
        assert threading.active_count() == threads
        assert np.isfinite(protocol.run_scenario(pooled).train_loss).all()
        assert np.geterr() == state
        assert threading.active_count() == threads


_BLAS_RUN = """
import sys
from airfed import protocol
cfg = protocol.ScenarioConfig(scenario="hotafl", C=2, M=1, K=4, T=2,
                              feature_dim=784, batch_size=500,
                              train_samples=1000, test_samples=1000, seed=1)
m = protocol.run_scenario(cfg)
m.to_csv(sys.argv[1])
print(m.final_checksum)
"""


def test_paper_width_outputs_independent_of_blas_threads(tmp_path):
    # 784 features and batch 500: above OpenBLAS's threading threshold, so
    # without the pin the products' bits depend on the thread count
    if learner._openblas() is None:
        pytest.skip(_NO_BLAS_SETTER)
    src = os.path.dirname(os.path.dirname(protocol.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        csv = tmp_path / f"{threads}.csv"
        done = subprocess.run([sys.executable, "-c", _BLAS_RUN, str(csv)],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=300)
        outs.append((done.stdout, csv.read_bytes()))
    assert outs[0] == outs[1]


def _paper_shape():
    """The keywords of perfbench/run.py's PAPER = dict(...), read without
    importing the script, which sets OPENBLAS_NUM_THREADS."""
    run = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    tree = ast.parse(run.read_text(encoding="utf-8"))
    call = next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "PAPER")
    return {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}


# README's paper-shape checksums (perfbench's PAPER shape, T=3, seed 1),
# keyed by kernel as _GOLDEN_CHECKSUMS is.  At 784 features the products'
# bits hold only with BLAS at one thread.
_PAPER_RUNS = {
    "hotafl": dict(scenario="hotafl", partition="iid"),
    "flat": dict(scenario="flat_ota", partition="iid"),
    "ideal_noniid_tau3": dict(scenario="ideal_hier", partition="noniid",
                              tau=3),
}
_PAPER_CHECKSUMS = {
    "SkylakeX": {
        "hotafl":
            "c6c2b57263602810eda0661d4ad0390827ed07862c4cd41d649cc38bca0fd480",
        "flat":
            "cdc3e38df2e797d6008dc6e31e61948636f9ced5649e11b33a79337de43081e1",
        "ideal_noniid_tau3":
            "c0a86980278a8097ac29df4af1e82c30ea87965195480ae461b86236bac14d40",
    },
    "Haswell": {
        "hotafl":
            "89b820b2531cb8482fc998e84505612ef66ca26b814cb8748fc935515f4c6be4",
        "flat":
            "98a2ce9b96f086f5ef27fec1e6ebb6400603748fa04af8e397eeb0b374bff268",
        "ideal_noniid_tau3":
            "6a08a8dd0aab7b48bc94e3a1baf338b48a8eb44860824f10785c3d94b8891a8c",
    },
    "Sandybridge": {
        "hotafl":
            "91285185ddb3aa12ba43442b455cfba3293b26b4c7bfa74eb0b4fb75abdd5f98",
        "flat":
            "f34e13364f8e2891b8f3756ed0b637d75f6420775af94d0f9c4744e19e423c81",
        "ideal_noniid_tau3":
            "b607b85e2f57a590f50959d6354d2331c412c42753f790880c5e2656fc0f6562",
    },
}
_PAPER_CHECKSUMS["Zen"] = _PAPER_CHECKSUMS["Haswell"]


@pytest.mark.parametrize("name", sorted(_PAPER_RUNS))
def test_paper_shape_checksums(name):
    digest = _pinned(_PAPER_CHECKSUMS, name)
    cfg = protocol.ScenarioConfig(**_paper_shape(), **_PAPER_RUNS[name],
                                  T=3, seed=1)
    assert protocol.run_scenario(cfg).final_checksum == digest
