"""Reference forms the tests pin the package against.

The package evaluates these quantities in factored or recursive form; the
expanded, unrolled and measured forms here are independent checks on them
(and measure the problem constants the bound-vs-simulation check needs).
"""

import numpy as np

from airfed import bounds, learner, protocol


def a1_term(beta_1, beta_bar_1, beta_2, beta_bar_2) -> float:
    """Cross-user distortion weight (1 - b1/bbar1)(1 - b2/bbar2), expanded."""
    return (1.0 - beta_1 / beta_bar_1 - beta_2 / beta_bar_2
            + beta_1 * beta_2 / (beta_bar_1 * beta_bar_2))


def distance_bound_closed_form(p: bounds.BoundParams, t: int) -> float:
    """Unrolled form of the recursion at a single iteration t >= 1.

    (prod_{a=1}^{t-1} X(a)) * init_dist
      + sum_{b=1}^{t-1} Y(b) * prod_{a=b+1}^{t-1} X(a),
    with empty products = 1 and empty sums = 0.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    xs = {a: bounds.contraction_x(p, a) for a in range(1, t)}
    total = p.init_dist * float(np.prod([xs[a] for a in range(1, t)]))
    for b in range(1, t):
        total += bounds.drift_y(p, b) * float(
            np.prod([xs[a] for a in range(b + 1, t)]))
    return total


def bound_params_for_run(cfg, *, L, mu, G2, Gamma, init_dist):
    """BoundParams of the system a run of cfg simulates: C, M, I, betas and
    power schedule as protocol.run_plan maps cfg.scenario (hotafl or
    flat_ota), and T = cfg.T + 1, the initial distance plus one per
    iteration."""
    run, betas = protocol.run_plan(cfg)
    return bounds.BoundParams(
        L=L, mu=mu, G2=G2, Gamma=Gamma, init_dist=init_dist,
        N=learner.model_dim(run.feature_dim, run.num_classes) // 2,
        tau=run.tau, I=run.I, T=run.T + 1, K=run.K, sigma_z2=run.sigma_z2,
        sigma_h2=run.sigma_h2, betas=betas, lr_base=run.lr_base,
        lr_slope=run.lr_slope, power_base=run.power_base,
        power_slope=run.power_slope)


def make_synthetic_reference(num_samples, feature_dim, num_classes, rng):
    """learner.make_synthetic drawn serially: the float32 blocks one after
    another, each from its rng.spawn child, with every class centre
    gathered per row and added in float64 before the sum is rounded to
    float32."""
    dirs = rng.standard_normal((num_classes, feature_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    labels = np.arange(num_samples) % num_classes
    step = learner.SYNTHETIC_BLOCK_ROWS
    starts = range(0, num_samples, step)
    noise = np.concatenate([
        gen.standard_normal((min(step, num_samples - s), feature_dim),
                            dtype=np.float32)
        for s, gen in zip(starts, rng.spawn(len(starts)))])
    feats = (4.0 * dirs[labels] + noise).astype(np.float32)
    return learner.Dataset(feats, labels, num_classes)


# ---------------------------------------------------------------------------
# measuring problem constants for bound-vs-simulation comparisons

def measure_problem_constants(shards, l2: float, tol: float = 1e-10,
                              max_iters: int = 200_000):
    """Smoothness L, strong convexity mu, and the global minimizer.

    shards is a flat list of per-user Datasets; the global objective is the
    uniform average of the per-user regularized softmax losses.  L comes
    from the softmax Hessian bound 0.5 * lambda_max(Gram/n) plus l2, taken
    over shards; mu = l2 (from the ridge term).  theta* is found by
    full-batch gradient descent at step 1/L until the gradient norm drops
    below tol.  Returns (L, mu, theta_star, f_star).

    Everything runs on float64 copies of the shards' features: float32
    values are exact in float64, so the problem is the same, and float64
    products let the descent reach tol.
    """
    if l2 <= 0:
        raise ValueError("need l2 > 0 for strong convexity")
    shards = [learner.Dataset(s.features.astype(np.float64), s.labels,
                              s.num_classes) for s in shards]
    lam_max = 0.0
    for s in shards:
        aug = np.hstack([s.features, np.ones((len(s), 1))])
        gram = aug.T @ aug / len(s)
        lam_max = max(lam_max, float(np.linalg.eigvalsh(gram)[-1]))
    L = l2 + 0.5 * lam_max
    mu = l2

    d = shards[0].feature_dim
    theta = learner.zero_model(d, shards[0].num_classes)
    for _ in range(max_iters):
        loss = 0.0
        grad = np.zeros_like(theta)
        for s in shards:
            lo, g = learner.loss_and_gradient(theta, s.features, s.labels,
                                              l2)
            loss += lo
            grad += g
        loss /= len(shards)
        grad /= len(shards)
        if float(np.linalg.norm(grad)) < tol:
            return L, mu, theta, loss
        theta -= grad / L
    raise RuntimeError(f"gradient descent did not reach tol={tol} in "
                       f"{max_iters} iterations")


def measure_gradient_bound(shards, l2: float, theta_samples, batch_size: int,
                           rng, draws_per_shard: int = 50,
                           safety: float = 1.5) -> float:
    """Empirical bound G2 on squared stochastic gradient norms.

    Samples random batches at the supplied model iterates and returns
    safety * max ||grad||^2.
    """
    worst = 0.0
    for theta in theta_samples:
        for s in shards:
            for _ in range(draws_per_shard):
                idx = rng.choice(len(s), size=min(batch_size, len(s)),
                                 replace=False)
                _, g = learner.loss_and_gradient(theta, s.features[idx],
                                                 s.labels[idx], l2)
                worst = max(worst, float(g @ g))
    return safety * worst


# ---------------------------------------------------------------------------
# the over-the-air combiner output split into its three summands

def decompose_terms(symbols, h, p_t, noise):
    """Signal, interference, and noise summands of the combined output.

    Given the same noise draws, signal + interference + noise equals
    uplink_and_combine(symbols, h, p_t, noise).
    """
    x = np.asarray(symbols, dtype=np.complex128)
    p_t = float(p_t)
    z = np.asarray(noise, dtype=np.complex128)
    K = h.shape[1]
    gain = (h.real ** 2 + h.imag ** 2).sum(axis=1) / K   # (M, N)
    sig = p_t * (gain * x).sum(axis=0)
    hs = h.sum(axis=0)
    sx = np.einsum("mkn,mn->kn", h, x)
    if h.shape[0] == 1:          # single user: no cross terms at all
        itf = np.zeros(h.shape[2], dtype=np.complex128)
    else:
        itf = p_t * ((np.conj(hs) * sx).sum(axis=0) / K
                     - (gain * x).sum(axis=0))
    noi = (np.conj(hs) * z).sum(axis=0) / K
    return sig, itf, noi


def coherent_mrc_statistic(betas, K, x, sigma_h2, rng):
    """(S, R) of the constant channel h[m, k, n] = sqrt(beta_m).

    A fake for channel.draw_mrc_statistic (sigma_h2 and rng are unused),
    on the same (M, 2, N) real halves x and (2, N) layout of S:
    S = K (sum sqrt(beta)) (sum sqrt(beta) x), R = K (sum sqrt(beta))^2.
    """
    r = np.sqrt(np.asarray(betas, dtype=np.float64))
    a = r.sum()
    S = K * a * np.einsum("m,mkn->kn", r, x)
    return S, np.full(x.shape[2], K * a * a)
