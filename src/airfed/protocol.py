"""Scenario orchestration: ideal hierarchical FL, HOTAFL, and flat OTA FL.

One engine drives all three scenarios.  A global iteration broadcasts the
PS model to every cluster, runs I local iterations (each: tau user SGD
steps per user, then a local aggregation that is either an exact mean or
an over-the-air uplink), and averages the cluster updates at the PS over
an error-free link.  Flat OTA FL is the C=1, I=1 specialization with
large-scale gains taken from the direct user-to-PS distances.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import channel, learner, rng, topology

SCENARIOS = ("ideal_hier", "hotafl", "flat_ota")
DATASETS = ("mnist", "synthetic")
PARTITIONS = ("iid", "noniid")
CHANNEL_MODES = ("rayleigh", "unit")

MNIST_DIR_ENV = "AIRFED_MNIST_DIR"


def power_schedule(t, base, slope) -> float:
    """Transmit power multiplier base + slope * t (0-based iteration index)."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    p = base + slope * t
    if p <= 0:
        raise ValueError(f"power schedule non-positive at t={t}: {p}")
    return p


def lr_schedule(t, base, slope) -> float:
    """Learning rate max(base - slope * t, 0)."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    return max(base - slope * t, 0.0)


@dataclass
class ScenarioConfig:
    """Full experiment description for one run."""

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
    channel_mode: str = "rayleigh"
    optimizer: str = "sgd"
    train_samples: int = 20000
    test_samples: int = 4000
    feature_dim: int = 784
    num_classes: int = 10
    l2_reg: float = 0.0
    eval_train_samples: int = 2000
    max_place_retries: int = 10000

    def __post_init__(self):
        if self.K == 0:
            self.K = 5 * self.M * self.C
        if self.flat_power_base is None:
            self.flat_power_base = self.power_base
        if self.flat_power_slope is None:
            self.flat_power_slope = self.power_slope

    @property
    def effective_data_seed(self) -> int:
        return self.seed if self.data_seed is None else self.data_seed

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, "
                             f"got {self.scenario!r}")
        for name in ("C", "M", "K", "tau", "I", "T", "batch_size",
                     "train_samples", "test_samples", "feature_dim",
                     "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.sigma_h2 <= 0:
            raise ValueError("sigma_h2 must be positive")
        if self.sigma_z2 < 0:
            raise ValueError("sigma_z2 must be nonnegative")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}")
        if self.partition not in PARTITIONS:
            raise ValueError(f"partition must be one of {PARTITIONS}")
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(f"channel_mode must be one of {CHANNEL_MODES}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if not 0 < self.target_alpha < 1:
            raise ValueError("target_alpha must be in (0, 1)")
        if self.alpha_tolerance <= 0:
            raise ValueError("alpha_tolerance must be positive")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be nonnegative")
        for base, slope in ((self.power_base, self.power_slope),
                            (self.flat_power_base, self.flat_power_slope)):
            for t in (0, self.T - 1):
                power_schedule(t, base, slope)  # raises if non-positive
        dim = learner.model_dim(self.feature_dim, self.num_classes)
        if self.scenario != "ideal_hier" and dim % 2 != 0:
            raise ValueError(f"model dimension {dim} must be even for "
                             "over-the-air packing")
        return self

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


def ideal_local_aggregate(diffs) -> np.ndarray:
    """Uniform mean of the user model differences in one cluster."""
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.ndim != 2 or diffs.shape[0] == 0:
        raise ValueError("need a non-empty (M, dim) stack of differences")
    return diffs.sum(axis=0) / diffs.shape[0]


def ideal_global_aggregate(cluster_diffs) -> np.ndarray:
    """Uniform mean of per-cluster model updates at the PS."""
    return ideal_local_aggregate(cluster_diffs)


# ---------------------------------------------------------------------------
# data plumbing

def load_run_data(cfg: ScenarioConfig):
    """(train, test) datasets for a config; deterministic given cfg.seed."""
    if cfg.dataset == "mnist":
        data_dir = os.environ.get(MNIST_DIR_ENV)
        if not data_dir:
            raise FileNotFoundError(
                f"dataset=mnist needs the {MNIST_DIR_ENV} environment "
                "variable pointing at the IDX files")
        return (learner.load_mnist(data_dir, "train"),
                learner.load_mnist(data_dir, "test"))
    gen = rng.substream(cfg.effective_data_seed, rng.DATA, 0)
    full = learner.make_synthetic(cfg.train_samples + cfg.test_samples,
                                  cfg.feature_dim, cfg.num_classes, gen)
    train_idx = np.arange(cfg.train_samples)
    test_idx = np.arange(cfg.train_samples, len(full))
    return full.subset(train_idx), full.subset(test_idx)


def partition_for_run(cfg: ScenarioConfig, train):
    """C x M user shards; flat runs flatten the same shards row-major."""
    gen = rng.substream(cfg.effective_data_seed, rng.DATA, 1)
    if cfg.partition == "iid":
        return learner.partition_iid(train, cfg.C, cfg.M, gen)
    return learner.partition_noniid(train, cfg.C, cfg.M, gen)


def build_topology(cfg: ScenarioConfig) -> topology.SystemTopology:
    gen = rng.substream(cfg.effective_data_seed, rng.TOPOLOGY)
    return topology.place_users(cfg.C, cfg.M, cfg.K, cfg.path_loss_exp,
                                cfg.target_alpha, cfg.alpha_tolerance, gen,
                                cfg.max_place_retries)


# ---------------------------------------------------------------------------
# engine

# Overflow and log(0) are reported by the finiteness checks below, which
# name the iteration and cluster, not as numpy warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _run_engine(cfg, scenario, shards, user_keys, betas, beta_bars,
                power_base, power_slope, train, test, ota,
                record_models=False, collect_diffs=False, cluster_order=None):
    """Shared loop for all scenarios.

    shards: nested (C_eff, M_eff) list of Datasets; user_keys parallel
    nested list of (c, m) batch-stream keys; betas: (C_eff, M_eff) or None
    for ideal runs.
    """
    C_eff = len(shards)
    M_eff = len(shards[0])
    dim = learner.model_dim(cfg.feature_dim, cfg.num_classes)
    n_sym = dim // 2 if ota else 0
    unit = cfg.channel_mode == "unit"

    states = [[learner.UserLearnerState(
        shards[c][m], cfg.batch_size,
        rng.substream(cfg.seed, rng.BATCH, *user_keys[c][m]))
        for m in range(M_eff)] for c in range(C_eff)]
    adam_states = [[{} for _ in range(M_eff)] for _ in range(C_eff)]

    eval_gen = rng.substream(cfg.effective_data_seed, rng.EVAL)
    n_eval = min(cfg.eval_train_samples, len(train))
    eval_idx = np.sort(eval_gen.choice(len(train), size=n_eval, replace=False))
    eval_feats = train.features[eval_idx]
    eval_labels = train.labels[eval_idx]

    theta_ps = learner.zero_model(cfg.feature_dim, cfg.num_classes)
    out = {k: np.empty(cfg.T) for k in
           ("train_loss", "test_acc", "avg_tx_power", "eta", "power")}
    models = [] if record_models else None
    all_diffs = [] if collect_diffs else None
    order = list(range(C_eff)) if cluster_order is None else list(cluster_order)

    for t in range(cfg.T):
        eta = lr_schedule(t, cfg.lr_base, cfg.lr_slope)
        p_t = power_schedule(t, power_base, power_slope)
        cluster_delta = np.empty((C_eff, dim))
        tx_energy = 0.0
        tx_count = 0
        diffs_t = np.empty((C_eff, cfg.I, M_eff, dim)) if collect_diffs else None

        for c in order:
            theta_is = theta_ps.copy()
            for i in range(cfg.I):
                diffs = np.empty((M_eff, dim))
                for m in range(M_eff):
                    end = learner.sgd_user_iterations(
                        states[c][m], theta_is, cfg.tau, eta,
                        l2=cfg.l2_reg, optimizer=cfg.optimizer,
                        adam_state=adam_states[c][m])
                    diffs[m] = learner.model_difference(end, theta_is)
                if collect_diffs:
                    diffs_t[c, i] = diffs
                if ota:
                    x = np.empty((M_eff, n_sym), dtype=np.complex128)
                    for m in range(M_eff):
                        x[m] = channel.pack_complex(diffs[m])
                    ch = channel.draw_channels_from_betas(
                        betas[c], cfg.K, n_sym, cfg.sigma_h2,
                        rng.substream(cfg.seed, rng.CHANNEL, t, i, c),
                        unit=unit)
                    z = channel.draw_noise(
                        cfg.K, n_sym, cfg.sigma_z2,
                        rng.substream(cfg.seed, rng.NOISE, t, i, c))
                    combined = channel.uplink_and_combine(x, ch, p_t, z)
                    update = channel.recover_cluster_update(
                        combined, p_t, M_eff, cfg.sigma_h2, beta_bars[c])
                    tx_energy += p_t * p_t * float(
                        (x.real ** 2 + x.imag ** 2).sum())
                    tx_count += x.size
                else:
                    update = diffs.sum(axis=0) / M_eff
                theta_is = theta_is + update
            delta_c = theta_is - theta_ps
            if not np.isfinite(delta_c).all():
                raise ValueError(f"cluster {c} update is not finite at "
                                 f"t={t + 1}")
            cluster_delta[c] = delta_c

        theta_ps = theta_ps + cluster_delta.sum(axis=0) / C_eff

        loss, _ = learner.loss_and_gradient(theta_ps, eval_feats, eval_labels,
                                            cfg.num_classes, cfg.l2_reg)
        if not np.isfinite(loss):
            raise ValueError(f"train loss is not finite at t={t + 1}")
        out["train_loss"][t] = loss
        out["test_acc"][t] = learner.evaluate(theta_ps, test)
        out["avg_tx_power"][t] = tx_energy / tx_count if tx_count else 0.0
        out["eta"][t] = eta
        out["power"][t] = p_t
        if record_models:
            models.append(theta_ps.copy())
        if collect_diffs:
            all_diffs.append(diffs_t)

    checksum = hashlib.sha256(np.ascontiguousarray(theta_ps).tobytes()).hexdigest()
    return RunMetrics(scenario, np.arange(1, cfg.T + 1), out["train_loss"],
                      out["test_acc"], out["avg_tx_power"], out["eta"],
                      out["power"], theta_ps, checksum, models, all_diffs)


def _hier_keys(C, M):
    return [[(c, m) for m in range(M)] for c in range(C)]


def run_ideal_hierarchical(cfg: ScenarioConfig, topo=None, **kw) -> RunMetrics:
    """Error-free hierarchical FL (exact means at IS and PS)."""
    cfg = replace(cfg, scenario="ideal_hier").validate()
    train, test = load_run_data(cfg)
    shards = partition_for_run(cfg, train)
    return _run_engine(cfg, "ideal_hier", shards, _hier_keys(cfg.C, cfg.M),
                       None, None, cfg.power_base, cfg.power_slope,
                       train, test, ota=False, **kw)


def run_hotafl(cfg: ScenarioConfig, topo=None, **kw) -> RunMetrics:
    """Hierarchical FL with over-the-air local aggregation."""
    cfg = replace(cfg, scenario="hotafl").validate()
    if topo is None:
        topo = build_topology(cfg)
    train, test = load_run_data(cfg)
    shards = partition_for_run(cfg, train)
    return _run_engine(cfg, "hotafl", shards, _hier_keys(cfg.C, cfg.M),
                       topo.beta, topo.beta_bar, cfg.power_base,
                       cfg.power_slope, train, test, ota=True, **kw)


def run_flat_ota(cfg: ScenarioConfig, topo=None, **kw) -> RunMetrics:
    """Single-level OTA FL: all C*M users transmit straight to the PS.

    Realized as the C=1, I=1 specialization of the hierarchical engine with
    large-scale gains from the user-to-PS distances and the conventional-FL
    power schedule.
    """
    cfg = replace(cfg, scenario="flat_ota").validate()
    if topo is None:
        topo = build_topology(cfg)
    train, test = load_run_data(cfg)
    shards = partition_for_run(cfg, train)
    flat_shards = [[shards[c][m] for c in range(cfg.C) for m in range(cfg.M)]]
    flat_keys = _hier_keys(1, cfg.C * cfg.M)
    betas = topo.ps_beta.reshape(1, -1)
    flat_cfg = replace(cfg, C=1, M=cfg.C * cfg.M, I=1, K=cfg.K)
    return _run_engine(flat_cfg, "flat_ota", flat_shards, flat_keys,
                       betas, betas.sum(axis=1), cfg.flat_power_base,
                       cfg.flat_power_slope, train, test, ota=True, **kw)


_RUNNERS = {"ideal_hier": run_ideal_hierarchical, "hotafl": run_hotafl,
            "flat_ota": run_flat_ota}


def run_scenario(cfg: ScenarioConfig, topo=None, **kw) -> RunMetrics:
    cfg.validate()
    return _RUNNERS[cfg.scenario](cfg, topo=topo, **kw)
