"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 need the MNIST IDX files (AIRFED_MNIST_DIR); without them
they are skipped and synthetic stand-ins exercise the same ordering
properties at a comparable operating point.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from airfed import bounds, channel, cli, learner, protocol, rng, topology
from oracles import (a1_term, coherent_mrc_statistic, decompose_terms,
                     distance_bound_closed_form, measure_gradient_bound,
                     measure_problem_constants)

MNIST_DIR = os.environ.get(protocol.MNIST_DIR_ENV)


def _report(num, desc, ok, failed=()):
    print(f"\n[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}" + "".join(
        f"; {name}" for name in failed)


# ---------------------------------------------------------------------------
# 1. equation-level unit suite

def test_criterion_1_equation_suite():
    checks = {}
    v = rng.substream(0, 1).standard_normal(128)
    checks["pack/unpack round trip"] = np.array_equal(
        channel.unpack_complex(channel.pack_complex(v)), v)

    cfg = protocol.ScenarioConfig(
        scenario="ideal_hier", C=2, M=3, K=4, tau=2, I=2, T=5,
        sigma_z2=1.0, dataset="synthetic", feature_dim=9, num_classes=4,
        train_samples=600, test_samples=100, batch_size=20, seed=3)
    m = protocol.run_scenario(cfg, record_models=True, collect_diffs=True)
    prev = learner.zero_model(9, 4)
    ok = True
    for t in range(cfg.T):
        flat = m.user_diffs[t].sum(axis=(0, 1, 2)) / (cfg.M * cfg.C)
        ok &= np.max(np.abs((m.models[t] - prev) - flat)) <= 1e-10
        prev = m.models[t]
    checks["nested-vs-flat recursion identity (<= 1e-10)"] = ok

    gen = rng.substream(1, 9)
    betas = gen.uniform(0.5, 8.0, 3)
    ch = channel.draw_channels_from_betas(betas, 5, 8, 1.3, gen)
    x = gen.standard_normal((3, 8, 2)).view(np.complex128)[..., 0]
    z = channel.draw_noise(5, 8, 2.0, rng.substream(1, 4))
    combined = channel.uplink_and_combine(x, ch, 1.7, z)
    sig, itf, noi = decompose_terms(x, ch, 1.7, z)
    checks["three-term decomposition (<= 1e-12)"] = np.max(
        np.abs(sig + itf + noi - combined)) <= 1e-12

    ok = True
    for _ in range(100):
        b1, b2 = gen.uniform(0.1, 5, 2)
        bb1, bb2 = b1 + gen.uniform(0.1, 5), b2 + gen.uniform(0.1, 5)
        ok &= abs(a1_term(b1, bb1, b2, bb2)
                  - (1 - b1 / bb1) * (1 - b2 / bb2)) <= 1e-14
    checks["cross-user weight, factored vs expanded (<= 1e-14)"] = ok

    p = bounds.BoundParams(L=10, mu=1, G2=1, Gamma=1, init_dist=1e3, N=100,
                           tau=2, I=2, T=30, K=16, sigma_z2=2.0, sigma_h2=1.0,
                           betas=gen.uniform(0.5, 6, (2, 3)), lr_base=0.02,
                           lr_slope=1e-4, power_base=1.0, power_slope=0.01)
    traj = bounds.distance_bound_trajectory(p)
    ok = True
    for t in (1, 2, 11, 30):
        cf = distance_bound_closed_form(p, t)
        ok &= abs(traj[t - 1] - cf) <= 1e-12 * max(1.0, abs(cf))
    checks["bound recursion vs closed form (<= 1e-12)"] = ok
    failed = [name for name, passed in checks.items() if not passed]
    _report(1, "equation-level unit suite", not failed, failed)


# ---------------------------------------------------------------------------
# 2. statistical channel suite

def test_criterion_2_statistical_channel_suite():
    gen = np.random.default_rng(42)
    M, K, N = 3, 2, 4
    betas = np.array([1.5, 4.0, 9.0])
    bbar = betas.sum()
    sh2, sz2, p_t = 1.3, 0.7, 1.2
    diffs = gen.standard_normal((M, 2 * N))
    x = np.array([channel.pack_complex(d) for d in diffs])
    denom = p_t * M * sh2 * bbar

    def terms(KK, D):
        """Combined output and its three summands of D independent uplinks
        of x through the full-tensor reference chain, each (D, 2N) and
        divided by the nominal gain.  Every symbol draws its own channel
        and noise, so the D replications are x repeated D times."""
        h = channel.draw_channels_from_betas(betas, KK, D * N, sh2, gen)
        z = channel.draw_noise(KK, D * N, sz2, gen)
        xs = np.tile(x, D)
        out = (channel.uplink_and_combine(xs, h, p_t, z),
               *decompose_terms(xs, h, p_t, z))
        return [channel.unpack_complex(c.reshape(D, N)) / denom for c in out]

    ok = True
    D = 100_000
    rec, sig, itf, noi = terms(K, D)
    # recovered-update expectation: beta-weighted mean, 3 standard errors
    target = (betas[:, None] * diffs).sum(axis=0) / (M * bbar)
    se = rec.std(axis=0, ddof=1) / np.sqrt(D)
    ok &= np.max(np.abs(rec.mean(axis=0) - target) / se) <= 3.0

    p = bounds.BoundParams(L=1, mu=0.5, G2=1, Gamma=0, init_dist=1, N=N,
                           tau=1, I=1, T=2, K=K, sigma_z2=sz2, sigma_h2=sh2,
                           betas=betas.reshape(1, M), lr_base=0.01,
                           power_base=p_t)
    d4 = diffs.reshape(1, 1, M, 2 * N)

    # interference / noise second moments vs closed forms, 3 standard errors
    for which, term, dd in (("interference", itf, d4), ("noise", noi, None)):
        sq = (term ** 2).sum(axis=1)
        oracle = bounds.lemma_variance_oracle(which, p, a=1, diffs=dd)
        z_score = abs(sq.mean() - oracle) / (sq.std(ddof=1) / np.sqrt(D))
        ok &= z_score <= 3.0
    # signal-distortion second moment around the uniform mean
    sq = ((sig - diffs.mean(axis=0)) ** 2).sum(axis=1)
    oracle = bounds.lemma_variance_oracle("signal_distortion", p, diffs=d4)
    ok &= abs(sq.mean() - oracle) / (sq.std(ddof=1) / np.sqrt(D)) <= 3.0

    # log-log variance-vs-K slope = -1 +/- 0.1 over K in {2..256}
    Ks = [2, 4, 8, 16, 32, 64, 128, 256]
    vs_i, vs_n = [], []
    D2 = 3000
    for kk in Ks:
        _, _, it, nz = terms(kk, D2)
        vs_i.append(it.var(ddof=1))
        vs_n.append(nz.var(ddof=1))
    for vs in (vs_i, vs_n):
        slope = np.polyfit(np.log(Ks), np.log(vs), 1)[0]
        ok &= abs(slope + 1.0) <= 0.1
    _report(2, "statistical channel suite", bool(ok))


# ---------------------------------------------------------------------------
# 3. degenerate-channel equivalence

def test_criterion_3_degenerate_channel_equivalence(monkeypatch):
    # every fading coefficient is the constant sqrt(beta)
    monkeypatch.setattr(channel, "draw_mrc_statistic", coherent_mrc_statistic)
    cfg = protocol.ScenarioConfig(
        scenario="hotafl", C=2, M=2, K=4, tau=2, I=2, T=20, sigma_z2=0.0,
        power_base=1.0, power_slope=0.0,
        lr_base=0.05, lr_slope=2e-5, dataset="synthetic", feature_dim=7,
        num_classes=5, train_samples=400, test_samples=100, batch_size=20,
        seed=3)
    topo = topology.SystemTopology(np.ones((2, 2)), np.ones(4), 4.0)
    monkeypatch.setattr(protocol, "build_topology", lambda cfg: topo)
    a = protocol.run_scenario(replace(cfg, scenario="ideal_hier"))
    b = protocol.run_scenario(cfg)
    ok = (a.final_checksum == b.final_checksum
          and np.array_equal(a.train_loss, b.train_loss)
          and np.array_equal(a.test_acc, b.test_acc)
          and np.array_equal(a.final_model, b.final_model))
    _report(3, "degenerate-channel equivalence (bit-for-bit, 20 iters)", ok)


# ---------------------------------------------------------------------------
# 4/5. scenario ordering (MNIST when available, synthetic stand-ins always)

def _ordering_cfg(**kw):
    base = dict(scenario="hotafl", C=4, M=5, K=100, tau=1, I=1,
                T=60, sigma_z2=1.0, power_base=1.0,
                power_slope=0.01, flat_power_base=1.5, lr_base=0.05,
                lr_slope=2e-5, dataset="synthetic", partition="iid",
                feature_dim=64, num_classes=10, train_samples=20000,
                test_samples=4000, batch_size=100)
    base.update(kw)
    return protocol.ScenarioConfig(**base)


def _final_accs(cfg, seeds, scenarios):
    out = {name: [] for name in scenarios}
    for seed in seeds:
        for name, scenario in scenarios.items():
            m = protocol.run_scenario(replace(cfg, seed=seed,
                                              scenario=scenario))
            out[name].append(float(m.test_acc[-1]))
    return {name: float(np.mean(v)) for name, v in out.items()}


def _mnist_cfg(**kw):
    base = dict(scenario="hotafl", C=4, M=5, K=100, tau=1, I=1,
                T=200, sigma_z2=10.0, power_base=1.0,
                power_slope=0.01, flat_power_base=1.5, lr_base=0.05,
                lr_slope=2e-5, dataset="mnist", partition="iid",
                feature_dim=784, num_classes=10, batch_size=500)
    base.update(kw)
    return protocol.ScenarioConfig(**base)


@pytest.mark.skipif(not MNIST_DIR, reason="MNIST IDX files unavailable "
                    "(set AIRFED_MNIST_DIR)")
def test_criterion_4_mnist_scenario_ordering():
    accs = _final_accs(_mnist_cfg(), range(1, 6),
                       {"ideal": "ideal_hier", "hotafl": "hotafl",
                        "flat": "flat_ota"})
    ok = (accs["ideal"] >= accs["hotafl"] - 0.005
          and accs["hotafl"] >= accs["flat"] - 0.005
          and accs["ideal"] - accs["hotafl"] <= 0.03)
    print(f"\nmnist 5-seed means: {accs}")
    _report(4, "MNIST i.i.d. scenario ordering", ok)


def test_criterion_4_standin_synthetic_ordering():
    accs = _final_accs(_ordering_cfg(), range(1, 6),
                       {"ideal": "ideal_hier", "hotafl": "hotafl",
                        "flat": "flat_ota"})
    ok = (accs["ideal"] >= accs["hotafl"] - 0.005
          and accs["hotafl"] >= accs["flat"] - 0.005
          and accs["ideal"] - accs["hotafl"] <= 0.03)
    print(f"\nsynthetic 5-seed means: {accs}")
    _report("4s", "synthetic stand-in scenario ordering", ok)


@pytest.mark.skipif(not MNIST_DIR, reason="MNIST IDX files unavailable "
                    "(set AIRFED_MNIST_DIR)")
def test_criterion_5_mnist_noniid_ordering():
    cfg = _mnist_cfg(tau=3, partition="noniid")
    accs = _final_accs(cfg, range(1, 6),
                       {"ideal": "ideal_hier", "hotafl": "hotafl"})
    ok = accs["ideal"] >= accs["hotafl"] - 0.005
    print(f"\nmnist noniid 5-seed means: {accs}")
    _report(5, "MNIST non-i.i.d. ordering (tau=3)", ok)


def test_criterion_5_standin_noniid_ordering():
    cfg = _ordering_cfg(tau=3, partition="noniid")
    accs = _final_accs(cfg, range(1, 6),
                       {"ideal": "ideal_hier", "hotafl": "hotafl"})
    ok = accs["ideal"] >= accs["hotafl"] - 0.005
    print(f"\nsynthetic noniid 5-seed means: {accs}")
    _report("5s", "synthetic stand-in non-i.i.d. ordering (tau=3)", ok)


# ---------------------------------------------------------------------------
# 6. bound curves

def test_criterion_6_bound_curves():
    def params(C, M, I, beta, power_base, label):
        return bounds.BoundParams(
            L=10, mu=1, G2=1, Gamma=1, init_dist=1e3, N=3925, tau=1, I=I,
            T=200, K=100, sigma_z2=10.0, sigma_h2=1.0,
            betas=np.full((C, M), beta), lr_base=0.05, lr_slope=2e-5,
            power_base=power_base, power_slope=0.01, label=label)

    hot = bounds.bound_trajectory(params(4, 5, 1, 3.0, 1.0, "hotafl"))
    hot5 = bounds.bound_trajectory(params(4, 5, 5, 3.0, 1.0, "hotafl_I5"))
    flat = bounds.bound_trajectory(params(1, 20, 1, 3.0 * 0.4 ** 4, 1.5,
                                          "flat"))
    ok = (np.all(np.isfinite(hot)) and np.all(np.isfinite(flat))
          and np.all(np.isfinite(hot5)))
    # eventually non-increasing
    ok &= bool(np.all(np.diff(hot)[1:] <= 1e-12))
    ok &= bool(np.all(np.diff(flat)[1:] <= 1e-12))
    # flat configuration dominates the hierarchical one for all t
    ok &= bool(np.all(flat >= hot - 1e-12))
    # more local iterations does not worsen the bound at t = 200
    ok &= bool(hot5[-1] <= hot[-1] + 1e-12)
    _report(6, "bound curves: finiteness, monotone tail, ordering", bool(ok))


# ---------------------------------------------------------------------------
# 7. bound vs simulation

def test_criterion_7_bound_vs_simulation():
    cfg = protocol.ScenarioConfig(
        scenario="hotafl", C=2, M=2, K=32, tau=1, I=1, T=100, sigma_z2=0.01,
        power_base=1.0, power_slope=0.0, lr_base=0.04, lr_slope=0.0,
        dataset="synthetic", partition="iid", feature_dim=15, num_classes=4,
        train_samples=2000, test_samples=400, batch_size=50, l2_reg=0.1,
        seed=100, data_seed=100)
    topo = protocol.build_topology(cfg)
    train, _ = protocol.load_run_data(cfg)
    shards = [train.subset(rows)
              for row in protocol.partition_for_run(cfg, train)
              for rows in row]
    L, mu, theta_star, _ = measure_problem_constants(
        shards, cfg.num_classes, cfg.l2_reg)

    cal = protocol.run_scenario(cfg, record_models=True)
    samples = ([learner.zero_model(cfg.feature_dim, cfg.num_classes)]
               + cal.models[::10])
    g2 = measure_gradient_bound(
        shards, cfg.num_classes, cfg.l2_reg, samples, cfg.batch_size,
        rng.substream(999, 7), draws_per_shard=30)

    p = bounds.BoundParams(
        L=L, mu=mu, G2=g2, Gamma=0.0,
        init_dist=float(theta_star @ theta_star),
        N=learner.model_dim(cfg.feature_dim, cfg.num_classes) // 2,
        tau=1, I=1, T=cfg.T + 1, K=cfg.K, sigma_z2=cfg.sigma_z2,
        sigma_h2=1.0, betas=topo.beta, lr_base=cfg.lr_base,
        power_base=1.0)
    bound = bounds.distance_bound_trajectory(p)

    # data_seed pins the topology (and data) while seed varies each run
    dists = np.zeros(cfg.T)
    for k in range(10):
        m = protocol.run_scenario(replace(cfg, seed=cfg.seed + k),
                                  record_models=True)
        dists += [float(np.sum((th - theta_star) ** 2)) for th in m.models]
    dists /= 10
    ratio = float(np.max(dists / bound[1:]))
    print(f"\nmax simulated/bound distance ratio: {ratio:.4f}")
    _report(7, "10-seed mean distance never exceeds the bound", ratio <= 1.0)


# ---------------------------------------------------------------------------
# 8. gradient check

def test_criterion_8_gradient_check():
    gen = rng.substream(21, 0)
    worst = 0.0
    for case in range(100):
        d = int(gen.integers(2, 8))
        k = int(gen.integers(2, 6))
        n = int(gen.integers(2, 12))
        feats = gen.standard_normal((n, d))
        labels = gen.integers(0, k, n)
        l2 = float(gen.uniform(0, 0.5))
        theta = gen.standard_normal(learner.model_dim(d, k))
        _, grad = learner.loss_and_gradient(theta, feats, labels, k, l2)
        i = int(gen.integers(0, theta.size))
        eps = 1e-6
        up, dn = theta.copy(), theta.copy()
        up[i] += eps
        dn[i] -= eps
        lu, _ = learner.loss_and_gradient(up, feats, labels, k, l2)
        ld, _ = learner.loss_and_gradient(dn, feats, labels, k, l2)
        fd = (lu - ld) / (2 * eps)
        worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(fd)))
    print(f"\nworst finite-difference relative error: {worst:.2e}")
    _report(8, "analytic vs finite-difference gradients (100 cases)",
            worst < 1e-5)


# ---------------------------------------------------------------------------
# 9. reproducibility

def test_criterion_9_reproducibility(tmp_path):
    cfg_text = (
        "scenario = hotafl\nC = 2\nM = 2\nK = 8\nT = 5\nsigma_z2 = 1\n"
        "dataset = synthetic\nfeature_dim = 9\nnum_classes = 4\n"
        "train_samples = 300\ntest_samples = 60\nbatch_size = 20\nseed = 5\n")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(cfg_text)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    ok = cli.main(["run", "--config", str(cfg_path), "--out", out1]) == 0
    ok &= cli.main(["run", "--config", os.path.join(out1, "manifest.json"),
                    "--out", out2]) == 0
    for name in sorted(os.listdir(out1)):
        if name.endswith(".csv"):
            ok &= (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    # in-process reruns of one config are bit-identical
    cfg = cli.parse_config(str(cfg_path))
    r1 = protocol.run_scenario(cfg)
    r2 = protocol.run_scenario(cfg)
    ok &= r1.final_checksum == r2.final_checksum
    _report(9, "manifest re-run byte-identical; in-process re-run identical",
            bool(ok))
