import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from airfed import bounds, learner, protocol, rng
from oracles import (a1_term, measure_gradient_bound,
                     measure_problem_constants)
from test_acceptance import _config


def _params(**kw):
    base = dict(L=10.0, mu=1.0, G2=1.0, Gamma=1.0, init_dist=1e3, N=3925,
                tau=1, I=1, T=200, K=100, sigma_z2=10.0, sigma_h2=1.0,
                betas=np.full((4, 5), 3.0), lr_base=0.05, lr_slope=2e-5,
                power_base=1.0, power_slope=0.01)
    base.update(kw)
    return bounds.BoundParams(**base)


def test_params_are_a_checked_value():
    # the params keep their own read-only betas and cannot be changed
    # after the check, so a later write cannot reach the bound
    b = np.full((4, 5), 3.0)
    p = _params(betas=b)
    b[0, 0] = -5.0
    assert p.betas[0, 0] == 3.0 and not np.shares_memory(p.betas, b)
    with pytest.raises(ValueError, match="read-only"):
        p.betas[0, 0] = 1.0
    for name, value in (("lr_base", 5.0), ("T", 0), ("betas", b)):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, value)
    with pytest.raises(ValueError, match="^T must be a positive integer$"):
        replace(p, T=0)
    assert (p.C, p.M) == b.shape
    # a 1-D betas is one cluster, as before; more dimensions are refused
    assert _params(betas=np.full(5, 3.0)).betas.shape == (1, 5)
    with pytest.raises(ValueError, match=r"^betas must be 2-D \(C, M\), "):
        _params(betas=np.full((1, 4, 5), 3.0))


def test_a1_equal_beta_cluster():
    # all M users share beta: A1 = (1 - 1/M)^2
    for M in (2, 5):
        bbar = M * 3.0
        assert a1_term(3.0, bbar, 3.0, bbar) == \
            pytest.approx((1 - 1 / M) ** 2)


def test_a1_single_user_cluster_is_zero():
    assert a1_term(2.0, 2.0, 2.0, 2.0) == pytest.approx(0.0)


def test_contraction_examples():
    def x(eta, mu, tau, I):
        return bounds.contraction_x(_params(lr_base=eta, lr_slope=0.0, mu=mu,
                                            tau=tau, I=I), 1)

    assert x(1.0, 1.0, 1, 1) == 0.0
    assert x(0.0, 1.0, 3, 2) == 1.0
    assert x(0.1, 1.0, 2, 3) == pytest.approx(0.43)
    with pytest.raises(ValueError, match=r"^eta=0.6 outside \[0, 0.5\] "):
        x(0.6, 1.0, 2, 1)   # limit 1/(1*2*1) = 0.5, checked when built
    # a rising schedule is checked at a = 1..T-1, and raises beyond them
    p = _params(lr_base=0.1, lr_slope=-0.1, T=3)   # eta(a) = 0.1 + 0.1 a
    assert bounds.contraction_x(p, 2) == pytest.approx(0.7)
    with pytest.raises(ValueError, match=r"^eta=1.1 outside \[0, 1.0\] "):
        bounds.contraction_x(p, 10)


def test_drift_y_zero_eta_leaves_noise_only():
    p = _params(betas=np.ones((1, 1)), N=1, K=1, sigma_z2=1.0, sigma_h2=1.0,
                Gamma=1.0, G2=1.0, lr_base=0.0, lr_slope=0.0,
                power_base=1.0, power_slope=0.0)
    assert bounds.drift_y(p, 1) == pytest.approx(1.0)
    terms = bounds.drift_y_terms(p, 1)
    assert terms["noise"] == pytest.approx(1.0)
    assert sum(v for k, v in terms.items() if k != "noise") == 0.0


def test_drift_y_gamma_vanishes_at_tau_one():
    a = bounds.drift_y(_params(tau=1, Gamma=0.0), 3)
    b = bounds.drift_y(_params(tau=1, Gamma=5.0), 3)
    assert a == pytest.approx(b)
    c = bounds.drift_y(_params(tau=2, Gamma=5.0), 3)
    d = bounds.drift_y(_params(tau=2, Gamma=0.0), 3)
    eta = _params(tau=2).eta(3)
    assert c - d == pytest.approx(2 * eta * 1 * (2 - 1) * 5.0)


def _drift_y_reference(eta, p_a, p):
    """Independent term-by-term evaluation with explicit loops."""
    C, M = p.C, p.M
    bb = p.beta_bar
    total = 0.0
    # signal distortion
    for c1 in range(C):
        for m1 in range(M):
            inner = p.betas[c1, m1] ** 2 / (p.K * bb[c1] ** 2)
            s = 0.0
            for c2 in range(C):
                for m2 in range(M):
                    s += a1_term(p.betas[c1, m1], bb[c1],
                                 p.betas[c2, m2], bb[c2])
            total += (eta ** 2 * p.tau ** 2 * p.G2 * p.I / (M * C) ** 2
                      * (inner + s * p.I))
    # interference
    for c in range(C):
        for m in range(M):
            for mp in range(M):
                if mp == m:
                    continue
                total += (eta ** 2 * p.tau ** 2 * p.G2 * p.I
                          * p.betas[c, m] * p.betas[c, mp]
                          / ((M * C) ** 2 * p.K * bb[c] ** 2))
    # noise
    s = sum(p.betas[c, m] / bb[c] ** 2 for c in range(C) for m in range(M))
    total += (p.sigma_z2 * p.I * p.N
              / (p_a ** 2 * (M * C) ** 2 * p.K * p.sigma_h2) * s)
    # local drift terms
    tau = p.tau
    total += ((1 + p.mu * (1 - eta)) * eta ** 2 * p.I * p.G2
              * tau * (tau - 1) * (2 * tau - 1) / 6)
    total += eta ** 2 * p.I * (tau ** 2 + tau - 1) * p.G2
    total += 2 * eta * p.I * (tau - 1) * p.Gamma
    return total


def test_drift_y_dual_implementation():
    gen = rng.substream(10, 0)
    for trial in range(5):
        C, M = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        p = _params(betas=gen.uniform(0.5, 6, (C, M)), tau=int(gen.integers(1, 4)),
                    I=int(gen.integers(1, 4)), K=int(gen.integers(1, 50)),
                    N=int(gen.integers(1, 100)), G2=gen.uniform(0.5, 3),
                    Gamma=gen.uniform(0, 2), sigma_z2=gen.uniform(0, 5),
                    lr_base=0.02, lr_slope=0.0)
        a = int(gen.integers(1, 10))
        ref = _drift_y_reference(p.eta(a), p.power(a), p)
        assert bounds.drift_y(p, a) == pytest.approx(ref, rel=1e-12)


def test_drift_y_decreasing_in_K():
    ys = [bounds.drift_y(_params(K=K), 1) for K in (2, 8, 32, 128)]
    assert all(a > b for a, b in zip(ys, ys[1:]))


def test_bound_trajectory_base_case_and_full_contraction():
    p = _params(T=1)
    assert bounds.bound_trajectory(p)[0] == pytest.approx(0.5 * p.L * p.init_dist)
    # eta = 1 with mu = tau = I = 1 gives X = 0
    p0 = _params(mu=1.0, tau=1, I=1, T=3, lr_base=1.0, lr_slope=0.0)
    traj = bounds.distance_bound_trajectory(p0)
    assert traj[1] == pytest.approx(bounds.drift_y(p0, 1))
    assert traj[2] == pytest.approx(bounds.drift_y(p0, 2))


def test_bound_gap_grows_as_alpha_falls():
    # flat's users sit 1/alpha times farther from the PS than from their
    # IS, so its gain is HOTAFL's beta times alpha^4 (path-loss exponent 4)
    hot = bounds.bound_trajectory(_config("bound_fig4_hotafl"))[-1]
    gaps = [bounds.bound_trajectory(_config(
                "bound_fig4_flat", betas=np.full((1, 20), 3 * alpha ** 4)))[-1]
            - hot for alpha in (0.25, 0.4, 0.6, 0.9)]
    print("\nflat - hotafl bound at t=200, alpha 0.25/0.4/0.6/0.9:",
          ", ".join(f"{g:.4g}" for g in gaps))
    # no sign is asserted: from alpha = 0.6 flat's bound lies below
    # HOTAFL's, since flat transmits at 1.5 times the power
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_bound_precondition_violation_raises():
    with pytest.raises(ValueError):
        bounds.distance_bound_trajectory(_params(mu=100.0, lr_base=0.05))


def test_noise_floor_with_vanishing_eta():
    p = _params(lr_base=0.0, lr_slope=0.0, power_slope=0.0)
    y = bounds.drift_y(p, 1)
    assert y == pytest.approx(
        bounds.lemma_variance_oracle("noise", p, a=1))
    assert y > 0


def test_variance_oracle_trivial_cases():
    p1 = _params(betas=np.ones((1, 1)), N=1, K=1, sigma_z2=1.0,
                 power_base=1.0, power_slope=0.0)
    assert bounds.lemma_variance_oracle("noise", p1, a=1) == pytest.approx(1.0)
    single = _params(betas=np.full((2, 1), 2.0))
    d = np.zeros((2, 1, 1, 4))
    assert bounds.lemma_variance_oracle("interference", single,
                                        diffs=d) == 0.0
    with pytest.raises(ValueError):
        bounds.lemma_variance_oracle("bogus", p1, a=1)
    with pytest.raises(ValueError):
        bounds.lemma_variance_oracle("signal_distortion", p1)
    with pytest.raises(ValueError,
                       match="^the noise oracle needs the index a$"):
        bounds.lemma_variance_oracle("noise", p1)


def test_noise_oracle_at_overflowing_power_is_quiet():
    # P(a)^2 overflows to inf: the noise term is 0, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bounds.lemma_variance_oracle(
            "noise", _params(power_base=1e200), a=1) == 0.0


def test_variance_oracle_worst_case_matches_drift_terms():
    # the drift terms are the oracle at the worst case: every user
    # difference aligned, with squared norm eta^2 * tau^2 * G2
    p = _params()
    a = 4
    terms = bounds.drift_y_terms(p, a)
    g_worst = p.eta(a) ** 2 * p.tau ** 2 * p.G2
    diffs = np.zeros((p.C, p.I, p.M, 4))
    diffs[..., 0] = np.sqrt(g_worst)
    for which in ("signal_distortion", "interference"):
        assert bounds.lemma_variance_oracle(which, p, diffs=diffs) == \
            pytest.approx(terms[which])


def test_signal_oracle_matches_quadruple_sum():
    gen = rng.substream(12, 0)
    C, M, I, dim = 2, 3, 2, 6
    p = _params(betas=gen.uniform(0.5, 6, (C, M)), I=I, K=7, N=dim // 2)
    diffs = gen.standard_normal((C, I, M, dim))
    bb = p.beta_bar
    ref = 0.0
    for c1 in range(C):
        for m1 in range(M):
            for i1 in range(I):
                ref += (p.betas[c1, m1] ** 2 / (p.K * bb[c1] ** 2)
                        * float(diffs[c1, i1, m1] @ diffs[c1, i1, m1]))
                for c2 in range(C):
                    for m2 in range(M):
                        for i2 in range(I):
                            ref += (a1_term(p.betas[c1, m1], bb[c1],
                                            p.betas[c2, m2], bb[c2])
                                    * float(diffs[c1, i1, m1]
                                            @ diffs[c2, i2, m2]))
    ref /= (M * C) ** 2
    got = bounds.lemma_variance_oracle("signal_distortion", p, diffs=diffs)
    assert got == pytest.approx(ref, rel=1e-10)


def test_measure_problem_constants():
    cfg = protocol.ScenarioConfig(
        scenario="ideal_hier", C=2, M=2, K=4, T=1, dataset="synthetic",
        feature_dim=9, num_classes=4, train_samples=400, test_samples=100,
        batch_size=20, l2_reg=0.1, seed=5)
    train, _ = protocol.load_run_data(cfg)
    shards = [train.subset(rows)
              for rows in protocol.partition_for_run(cfg, train)]
    L, mu, theta_star, f_star = measure_problem_constants(shards, 0.1)
    assert mu == 0.1 and L > mu
    # the float64 problem the oracle solved (exact copies of the data)
    grads = [learner.loss_and_gradient(theta_star,
                                       s.features.astype(np.float64),
                                       s.labels, 0.1)[1] for s in shards]
    assert np.linalg.norm(np.mean(grads, axis=0)) < 1e-9
    with pytest.raises(ValueError):
        measure_problem_constants(shards, 0.0)


def test_measure_gradient_bound_dominates_observations():
    cfg = protocol.ScenarioConfig(
        scenario="ideal_hier", C=1, M=2, K=4, T=1, dataset="synthetic",
        feature_dim=9, num_classes=4, train_samples=200, test_samples=50,
        batch_size=20, l2_reg=0.1, seed=5)
    train, _ = protocol.load_run_data(cfg)
    shards = [train.subset(rows)
              for rows in protocol.partition_for_run(cfg, train)]
    samples = [learner.zero_model(9, 4)]
    g2 = measure_gradient_bound(shards, 0.1, samples, 20, rng.substream(8, 0))
    _, g = learner.loss_and_gradient(samples[0], shards[0].features[:20],
                                     shards[0].labels[:20], 0.1)
    assert g2 >= float(g @ g)
