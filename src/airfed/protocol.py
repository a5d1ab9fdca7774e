"""Scenario orchestration: ideal hierarchical FL, HOTAFL, and flat OTA FL.

One engine drives all three scenarios.  A global iteration t broadcasts the
PS model to every cluster, runs I local iterations i (each: tau SGD steps
by user m of each cluster c, then a local aggregation per cluster that is
either an exact mean or an over-the-air uplink), and averages the cluster
updates at the PS over an error-free link.  The loops run t -> i -> c, the
C*M users of a local step running on a thread pool; batch streams are
keyed by (c, m) and channel and noise streams by (t, i, c), so neither the
order nor the worker count can change the outputs.  Flat OTA FL is the
C=1, I=1 specialization with gains from the direct user-to-PS distances.
"""

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from . import channel, learner, rng, topology

SCENARIOS = ("ideal_hier", "hotafl", "flat_ota")
DATASETS = ("mnist", "synthetic")
PARTITIONS = ("iid", "noniid")

MNIST_DIR_ENV = "AIRFED_MNIST_DIR"
# training samples the per-iteration train loss is evaluated on
EVAL_TRAIN_SAMPLES = 2000


def power_schedule(t, base, slope) -> float:
    """Transmit power multiplier base + slope * t (0-based iteration index)."""
    p = base + slope * t
    if not p > 0:
        raise ValueError(f"power schedule non-positive at t={t}: {p}")
    return p


def lr_schedule(t, base, slope) -> float:
    """Learning rate max(base - slope * t, 0)."""
    return max(base - slope * t, 0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one run, checked when built."""

    scenario: str
    C: int = 4
    M: int = 5
    K: int = 0                   # 0 -> default 5*M*C
    tau: int = 1
    I: int = 1
    T: int = 200
    sigma_h2: float = 1.0
    sigma_z2: float = 10.0
    power_base: float = 1.0
    power_slope: float = 0.01
    flat_power_base: Optional[float] = None   # default: power_base
    flat_power_slope: Optional[float] = None  # default: power_slope
    lr_base: float = 0.05
    lr_slope: float = 2e-5
    dataset: str = "synthetic"
    partition: str = "iid"
    batch_size: int = 500
    seed: int = 0
    data_seed: Optional[int] = None   # default: seed; pins data/topology
                                      # while seed varies the run randomness
    target_alpha: float = 0.4
    alpha_tolerance: float = 0.02
    path_loss_exp: float = 4.0
    train_samples: int = 20000
    test_samples: int = 4000
    feature_dim: int = 784
    num_classes: int = 10
    l2_reg: float = 0.0

    def __post_init__(self):
        if self.K == 0:
            object.__setattr__(self, "K", 5 * self.M * self.C)
        if self.flat_power_base is None:
            object.__setattr__(self, "flat_power_base", self.power_base)
        if self.flat_power_slope is None:
            object.__setattr__(self, "flat_power_slope", self.power_slope)
        self.validate()

    @property
    def effective_data_seed(self) -> int:
        return self.seed if self.data_seed is None else self.data_seed

    def validate(self):
        for name, choices in (("scenario", SCENARIOS), ("dataset", DATASETS),
                              ("partition", PARTITIONS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}, "
                                 f"got {getattr(self, name)!r}")
        for name in ("C", "M", "K", "tau", "I", "T", "batch_size",
                     "train_samples", "test_samples", "feature_dim",
                     "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        for f in fields(self):
            if f.type in (float, Optional[float]) \
                    and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("sigma_h2", "alpha_tolerance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("seed", "data_seed", "sigma_z2", "path_loss_exp",
                     "l2_reg"):
            if (getattr(self, name) or 0) < 0:    # data_seed may be None
                raise ValueError(f"{name} must be nonnegative")
        groups = 5 * self.C * self.M
        if self.partition == "noniid" and groups < self.num_classes:
            raise ValueError(f"{groups} label groups (5*C*M) cannot cover "
                             f"{self.num_classes} classes")
        if not 0 < self.target_alpha < 1:
            raise ValueError("target_alpha must be in (0, 1)")
        for base, slope in ((self.power_base, self.power_slope),
                            (self.flat_power_base, self.flat_power_slope)):
            for t in (0, self.T - 1):
                power_schedule(t, base, slope)  # raises if non-positive
        dim = learner.model_dim(self.feature_dim, self.num_classes)
        if self.scenario != "ideal_hier" and dim % 2 != 0:
            raise ValueError(f"model dimension {dim} must be even for "
                             "over-the-air packing")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunMetrics:
    """Per-global-iteration records for one run."""

    scenario: str
    t: np.ndarray               # 1..T
    train_loss: np.ndarray
    test_acc: np.ndarray
    avg_tx_power: np.ndarray
    eta: np.ndarray
    power: np.ndarray
    final_model: np.ndarray
    final_checksum: str
    models: Optional[list] = field(default=None, repr=False)
    user_diffs: Optional[list] = field(default=None, repr=False)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,scenario,train_loss,test_acc,avg_tx_power,eta,power\n")
            for i in range(self.t.size):
                fh.write("%d,%s,%.10g,%.10g,%.10g,%.10g,%.10g\n" % (
                    self.t[i], self.scenario, self.train_loss[i],
                    self.test_acc[i], self.avg_tx_power[i], self.eta[i],
                    self.power[i]))


# ---------------------------------------------------------------------------
# data plumbing

def load_run_data(cfg: ScenarioConfig):
    """(train, test) read-only datasets for a config; deterministic given
    cfg.effective_data_seed.  Synthetic train and test are views of one
    matrix; MNIST sets must match the config's feature_dim and num_classes."""
    if cfg.dataset == "mnist":
        data_dir = os.environ.get(MNIST_DIR_ENV)
        if not data_dir:
            raise FileNotFoundError(
                f"dataset=mnist needs the {MNIST_DIR_ENV} environment "
                "variable pointing at the IDX files")
        sets = []
        for split in ("train", "test"):
            data = _read_only(learner.load_mnist(data_dir, split))
            for key in ("feature_dim", "num_classes"):
                got, want = getattr(data, key), getattr(cfg, key)
                if got != want:
                    raise ValueError(f"MNIST {split} set under {data_dir} "
                                     f"has {key} {got}, the config has "
                                     f"{key} = {want}")
            sets.append(data)
        return tuple(sets)
    gen = rng.substream(cfg.effective_data_seed, rng.DATA, 0)
    full = _read_only(learner.make_synthetic(
        cfg.train_samples + cfg.test_samples, cfg.feature_dim,
        cfg.num_classes, gen))
    n = cfg.train_samples
    return full.subset(slice(None, n)), full.subset(slice(n, None))


def _read_only(data):
    """data with its arrays locked: every user's shard reads from them."""
    data.features.flags.writeable = False
    data.labels.flags.writeable = False
    return data


def partition_for_run(cfg: ScenarioConfig, train):
    """C x M user shards as row-index arrays into train; flat runs flatten
    the same shards row-major."""
    gen = rng.substream(cfg.effective_data_seed, rng.DATA, 1)
    if cfg.partition == "iid":
        return learner.partition_iid(train, cfg.C, cfg.M, gen)
    return learner.partition_noniid(train, cfg.C, cfg.M, gen)


def build_topology(cfg: ScenarioConfig) -> topology.SystemTopology:
    gen = rng.substream(cfg.effective_data_seed, rng.TOPOLOGY)
    return topology.place_users(cfg.C, cfg.M, cfg.path_loss_exp,
                                cfg.target_alpha, cfg.alpha_tolerance, gen)


# ---------------------------------------------------------------------------
# engine

# Overflow and log(0) are reported by the finiteness checks below, which
# name the iteration and cluster, not as numpy warnings.  numpy's error
# state is per thread, so the pool's tasks set it too.
_QUIET = dict(over="ignore", divide="ignore", invalid="ignore")


@np.errstate(**_QUIET)
def _run_engine(cfg, shards, betas, train, test, record_models,
                collect_diffs):
    """Shared loop for all scenarios, in the order t -> i -> c.

    shards: nested (cfg.C, cfg.M) list of row-index arrays into train.
    betas: (cfg.C, cfg.M) large-scale gains for over-the-air local
    aggregation, or None for exact means.  User (c, m) draws its batches
    from substream (seed, BATCH, c, m) and aggregation (t, i, c) from
    (seed, CHANNEL | NOISE, t, i, c), so no loop order changes the outputs.

    A local step's C*M users run on a pool of learner.sgd_workers threads
    (one at small shapes), worker k taking users k, k + workers, ... of the
    row-major list, so each user's state is only touched by one thread.
    The pool also computes the train loss while this thread runs
    learner.evaluate.  BLAS is held at one thread for the whole loop
    (learner.blas_single_thread).
    """
    C, M, I = cfg.C, cfg.M, cfg.I

    states = [[learner.UserLearnerState(
        train, shards[c][m], cfg.batch_size,
        rng.substream(cfg.seed, rng.BATCH, c, m))
        for m in range(M)] for c in range(C)]
    users = [(c, m) for c in range(C) for m in range(M)]
    workers = learner.sgd_workers(C * M, cfg.batch_size, cfg.feature_dim,
                                  cfg.num_classes)
    groups = [users[k::workers] for k in range(workers)]

    eval_gen = rng.substream(cfg.effective_data_seed, rng.EVAL)
    n_eval = min(EVAL_TRAIN_SAMPLES, len(train))
    eval_idx = np.sort(eval_gen.choice(len(train), size=n_eval, replace=False))
    eval_feats = train.features[eval_idx]
    eval_labels = train.labels[eval_idx]

    theta_ps = learner.zero_model(cfg.feature_dim, cfg.num_classes)
    theta_is = np.empty((C, theta_ps.size))     # the C IS models
    diffs = np.empty((C, I, M, theta_ps.size))  # one iteration's user diffs
    out = {k: np.empty(cfg.T) for k in
           ("train_loss", "test_acc", "avg_tx_power", "eta", "power")}
    models = [] if record_models else None
    all_diffs = [] if collect_diffs else None

    def train_users(group, i, eta):
        with np.errstate(**_QUIET):
            for c, m in group:
                end = learner.sgd_user_iterations(
                    states[c][m], theta_is[c], cfg.tau, eta, l2=cfg.l2_reg)
                diffs[c, i, m] = end - theta_is[c]

    def train_loss(model):
        with np.errstate(**_QUIET):
            return learner.loss(model, eval_feats, eval_labels,
                                cfg.num_classes, cfg.l2_reg)

    with learner.blas_single_thread(), ThreadPoolExecutor(workers) as pool:
        for t in range(cfg.T):
            eta = lr_schedule(t, cfg.lr_base, cfg.lr_slope)
            p_t = power_schedule(t, cfg.power_base, cfg.power_slope)
            tx_energy, tx_count = 0.0, 0
            theta_is[:] = theta_ps

            for i in range(I):
                list(pool.map(partial(train_users, i=i, eta=eta), groups))
                if betas is None:
                    theta_is += diffs[:, i].sum(axis=1) / M
                    continue
                for c in range(C):
                    update, energy, sent = channel.ota_aggregate(
                        diffs[c, i], betas[c], p_t, cfg.K, cfg.sigma_h2,
                        cfg.sigma_z2,
                        rng.substream(cfg.seed, rng.CHANNEL, t, i, c),
                        rng.substream(cfg.seed, rng.NOISE, t, i, c))
                    theta_is[c] += update
                    tx_energy += energy
                    tx_count += sent

            delta = theta_is - theta_ps
            bad = ~np.isfinite(delta).all(axis=1)
            if bad.any():
                raise ValueError(f"cluster {bad.argmax()} update is not "
                                 f"finite at t={t + 1}")
            theta_ps = theta_ps + delta.sum(axis=0) / C

            # evaluate stays in this thread: a profiler may clock on it
            pending = pool.submit(train_loss, theta_ps)
            out["test_acc"][t] = learner.evaluate(theta_ps, test)
            loss = pending.result()
            if not np.isfinite(loss):
                raise ValueError(f"train loss is not finite at t={t + 1}")
            out["train_loss"][t] = loss
            out["avg_tx_power"][t] = tx_energy / tx_count if tx_count else 0.0
            out["eta"][t] = eta
            out["power"][t] = p_t
            if record_models:
                models.append(theta_ps)  # rebound above, never written in place
            if collect_diffs:
                all_diffs.append(diffs.copy())

    checksum = hashlib.sha256(np.ascontiguousarray(theta_ps).tobytes()).hexdigest()
    return RunMetrics(cfg.scenario, np.arange(1, cfg.T + 1), out["train_loss"],
                      out["test_acc"], out["avg_tx_power"], out["eta"],
                      out["power"], theta_ps, checksum, models, all_diffs)


def run_scenario(cfg: ScenarioConfig, record_models=False,
                 collect_diffs=False) -> RunMetrics:
    """Run cfg.scenario on the shared engine.

    ideal_hier takes exact means and no topology.  hotafl aggregates over
    the air with the user-to-IS gains of build_topology(cfg).  flat_ota is
    the one-cluster case: the same C*M shards in one row (flattened
    row-major), the user-to-PS gains, I=1 and the flat_power_* schedule.
    """
    topo = None if cfg.scenario == "ideal_hier" else build_topology(cfg)
    train, test = load_run_data(cfg)
    shards = partition_for_run(cfg, train)
    betas = None
    if cfg.scenario == "hotafl":
        betas = topo.beta
    elif cfg.scenario == "flat_ota":
        shards = [[s for row in shards for s in row]]
        betas = topo.ps_beta.reshape(1, -1)
        cfg = replace(cfg, C=1, M=cfg.C * cfg.M, I=1,
                      power_base=cfg.flat_power_base,
                      power_slope=cfg.flat_power_slope)
    return _run_engine(cfg, shards, betas, train, test, record_models,
                       collect_diffs)
