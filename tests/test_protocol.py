import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dataclasses import FrozenInstanceError, replace

from airfed import bounds, channel, learner, protocol, rng, topology


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
    rows = protocol.partition_for_run(cfg, train)[0][0]
    state = learner.UserLearnerState(
        train, rows, cfg.batch_size, rng.substream(cfg.seed, rng.BATCH, 0, 0))
    theta = learner.zero_model(cfg.feature_dim, cfg.num_classes)
    for t in range(cfg.T):
        eta = protocol.lr_schedule(t, cfg.lr_base, cfg.lr_slope)
        theta = learner.sgd_user_iterations(state, theta, 1, eta)
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
@pytest.mark.parametrize("scenario", ["hotafl", "flat_ota"])
def test_aggregation_error_matches_lemma_oracle(scenario, sigma_z2, K):
    cfg = protocol.ScenarioConfig(
        scenario=scenario, C=2, M=3, K=K, T=6, sigma_z2=sigma_z2,
        feature_dim=64, train_samples=3000, test_samples=300, batch_size=50,
        seed=3)
    m = protocol.run_scenario(cfg, record_models=True, collect_diffs=True)
    topo = protocol.build_topology(cfg)
    if scenario == "hotafl":
        betas, I, base, slope = (topo.beta, cfg.I, cfg.power_base,
                                 cfg.power_slope)
    else:                       # one cluster of all users, as run_scenario
        betas, I, base, slope = (topo.ps_beta.reshape(1, -1), 1,
                                 cfg.flat_power_base, cfg.flat_power_slope)
    p = bounds.BoundParams(
        L=1.0, mu=1.0, G2=1.0, Gamma=0.0, init_dist=1.0,
        N=m.final_model.size // 2, tau=cfg.tau, I=I, T=cfg.T, K=cfg.K,
        sigma_z2=cfg.sigma_z2, sigma_h2=cfg.sigma_h2, betas=betas,
        lr_base=cfg.lr_base, lr_slope=cfg.lr_slope, power_base=base,
        power_slope=slope)
    lo, hi = _AGG_ERR_BAND
    prev = np.zeros_like(m.final_model)
    for t, (model, diffs) in enumerate(zip(m.models, m.user_diffs)):
        err = model - prev - diffs.mean(axis=(0, 1, 2))
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
    # statistic for every K; the full-tensor reference chain is never called
    targets = ((protocol, "load_run_data"), (protocol, "partition_for_run"),
               (protocol, "build_topology"), (channel, "draw_mrc_statistic"),
               (channel, "draw_channels_from_betas"), (channel, "draw_noise"),
               (channel, "uplink_and_combine"),
               (channel, "recover_cluster_update"), (learner, "evaluate"))
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
    hier = (8,) + (0,) * 3 + (8, 2)   # C*I*T aggregations, T evaluations
    flat = (2,) + (0,) * 3 + (2, 2)   # one cluster and I=1: T aggregations
    ideal = (0,) * 5 + (2,)
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


def test_ideal_reports_zero_tx_power():
    m = protocol.run_scenario(_cfg(scenario="ideal_hier", T=3))
    assert not m.avg_tx_power.any()


def test_data_seed_pins_dataset():
    cfg_a = _cfg(seed=3, data_seed=3)
    cfg_b = _cfg(seed=4, data_seed=3)
    ta, _ = protocol.load_run_data(cfg_a)
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
    assert train.features.base is test.features.base  # views of one matrix


# A run whose data (11000 x 64 float64) dominates its memory; scenarios
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
    data_bytes = (cfg.train_samples + cfg.test_samples) * cfg.feature_dim * 8
    tracemalloc.start()
    try:
        protocol.run_scenario(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * data_bytes, f"peak {peak / data_bytes:.2f}x the data"


def test_load_run_data_leaves_no_threads():
    cfg = protocol.ScenarioConfig(**_DATA_SHAPE, **_DATA_RUNS["hotafl_iid"])
    before = threading.active_count()
    protocol.load_run_data(cfg)
    assert threading.active_count() == before


# The digests are not in the test ids, so a re-pin keeps the test names.
_GOLDEN_CHECKSUMS = {
    "hotafl_iid":
        "a086f1bcfb134b032f7fa089499f763bcca8671c8f5d5dbe6952690f50859414",
    "flat_iid":
        "e518088381f183bbde1b29517049a2a02fc9bd97f6f471e652e44647cf311ebf",
    "ideal_noniid_tau3":
        "f8c7b7c23ebfa0230c1e696ccae5ff9a6d78036e2b93508a0f29e58f642ee3c3",
    "hotafl_iid_I3":
        "d17efc3a32d73f1d3bc7e4172e2005974d2051e677d0d19b6f94132c52c7c6a8",
    "ideal_noniid_tau3_I2":
        "cade99dc21843cf4bec21e5d04d1b6bce9715887a5c2aea11687f5f3f3a49b6e",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CHECKSUMS))
def test_golden_checksums(name):
    # pinned at 0.5.0; a change here changes every output of the scenario
    cfg = protocol.ScenarioConfig(**_DATA_SHAPE, **_DATA_RUNS[name])
    assert protocol.run_scenario(cfg).final_checksum == _GOLDEN_CHECKSUMS[name]


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
    pinned = learner._openblas_threads() is not None
    pooled = pinned and shape is _POOL_SHAPE
    caller = threading.get_ident()
    threads = set()     # the threads of every SGD and train-loss call

    def traced(fn):
        def call(*args, **kw):
            threads.add(threading.get_ident())
            return fn(*args, **kw)
        return call

    for name in ("sgd_user_iterations", "loss"):
        monkeypatch.setattr(learner, name, traced(getattr(learner, name)))
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
    assert learner.sgd_workers(20, 100, 64, 10) == 1   # criteria 4s and 5s


def test_run_holds_blas_at_one_thread_and_restores_it(monkeypatch):
    api = learner._openblas_threads()
    if api is None:
        pytest.skip(_NO_BLAS_SETTER)
    get, set_threads = api
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
        monkeypatch.setattr(learner, "_openblas_threads", lambda: None)
        seen.clear()
        protocol.run_scenario(cfg)
        assert seen == [2, 2] and get() == 2
    finally:
        set_threads(saved)


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
    if learner._openblas_threads() is None:
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
