"""Scenario orchestration: ideal hierarchical FL, HOTAFL, and flat OTA FL.

One function, run_scenario, sets up and runs all three scenarios.  A global
iteration t broadcasts the PS model to every cluster, runs I local
iterations i (each: tau SGD steps by user m of each cluster c, then a local
aggregation per cluster that is either an exact mean or an over-the-air
uplink), and averages the cluster updates at the PS over an error-free
link.  The C clusters' uplinks are independent, so they run in parallel,
and each PS model is scored while the next iteration trains.  run_plan
says how each scenario maps onto that loop, and run_scenario's docstring
why neither the loop order nor the worker count changes the outputs.
"""

import hashlib
import numbers
import os
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Literal, Optional, Union, get_args, get_origin

import numpy as np

from . import channel, learner, rng, topology

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


def check_fields(cfg, positive=(), nonnegative=()):
    """Checks of a config dataclass's fields by their annotations: an int
    takes an integer and a float a real number (no bool, none past a float's
    range), a str a string, a Literal one of its choices and None only an
    Optional.  An int must be at least 1, except that the fields in positive
    must be > 0 and those in nonnegative >= 0.  Other types are the class's
    own."""
    kinds = {int: ("an integer", numbers.Integral),
             float: ("a real number", numbers.Real), str: ("a string", str)}
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), f.type
        if get_origin(kind) is Union:      # Optional[X] is Union[X, None]
            if value is None:
                continue
            kind = get_args(kind)[0]
        if get_origin(kind) is Literal:
            what, ok = f"one of {get_args(kind)}", value in get_args(kind)
        elif kind in kinds:
            what, of = kinds[kind]
            ok = isinstance(value, of) and not isinstance(value, bool)
        else:
            continue
        if not ok:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
        # not math.isfinite, which overflows on an int past a float
        if kind in (int, float) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be finite")
        if f.name in positive:
            if value <= 0:
                raise ValueError(f"{f.name} must be positive")
        elif f.name in nonnegative:
            if value < 0:
                raise ValueError(f"{f.name} must be nonnegative")
        elif kind is int and value < 1:
            raise ValueError(f"{f.name} must be a positive integer")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description for one run, checked when built.

    Compared by value.  A derived default (K, flat_power_*) is None until
    __post_init__ fills it in, and dataclasses.replace copies it as it was
    filled rather than deriving it again.
    """

    scenario: Literal["ideal_hier", "hotafl", "flat_ota"]
    C: int = 4
    M: int = 5
    K: Optional[int] = None      # default: 5*M*C
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
    dataset: Literal["mnist", "synthetic"] = "synthetic"
    partition: Literal["iid", "noniid"] = "iid"
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
        check_fields(self, positive=("sigma_h2", "alpha_tolerance"),
                     nonnegative=("seed", "data_seed", "sigma_z2",
                                  "path_loss_exp", "l2_reg", "lr_base"))
        for name, default in (("K", 5 * self.M * self.C),
                              ("flat_power_base", self.power_base),
                              ("flat_power_slope", self.power_slope)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        self.validate()

    @property
    def effective_data_seed(self) -> int:
        return self.seed if self.data_seed is None else self.data_seed

    def validate(self):
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
            raise ValueError(f"model dimension {dim} must be even: its "
                             "halves are the real and imaginary parts of "
                             "the over-the-air symbols")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the scenarios in the order airfed run and summarize list them
SCENARIOS = get_args(ScenarioConfig.__annotations__["scenario"])


@dataclass
class RunMetrics:
    """Per-global-iteration records for one run."""

    scenario: str
    t: np.ndarray               # 1..T
    train_loss: np.ndarray
    test_acc: np.ndarray
    avg_tx_power: np.ndarray    # transmit energy per symbol sent
    eta: np.ndarray
    power: np.ndarray
    final_model: np.ndarray
    final_checksum: str
    models: Optional[list] = field(default=None, repr=False)
    user_diffs: Optional[list] = field(default=None, repr=False)

    def to_csv(self, path):
        write_csv(path,
                  "t,scenario,train_loss,test_acc,avg_tx_power,eta,power",
                  zip(self.t, [self.scenario] * self.t.size, self.train_loss,
                      self.test_acc, self.avg_tx_power, self.eta, self.power))


def write_text(path, text):
    """The one writer of airfed's files: text as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    """A CSV: the header line, then rows with every number as %.10g."""
    write_text(path, "".join(
        ",".join(v if isinstance(v, str) else "%.10g" % v for v in row) + "\n"
        for row in [header.split(","), *rows]))


# ---------------------------------------------------------------------------
# data plumbing

# {data key: (train, test)} of the last data key load_run_data built: at
# most one entry, so one process holds at most one dataset.
_RUN_DATA = {}


def load_run_data(cfg: ScenarioConfig):
    """(train, test) read-only datasets for a config; deterministic given
    cfg.effective_data_seed.

    The data key is (builder, *its arguments): _read_mnist of the MNIST
    directory or _draw_synthetic of the data seed and sizes, with
    feature_dim and num_classes.  It holds exactly what the build reads,
    since the build is key[0](*key[1:]).  The pair is kept for the last
    key and returned again to every later call with that key, so runs on
    one key share one dataset and the MNIST files of a directory are read
    once per process while it stays the key.  A new key drops the kept
    pair before it builds: one process holds at most one dataset, the
    last data key's, and an airfed run sweep draws its data once per data
    seed.  train_samples and test_samples size the synthetic data only;
    MNIST is the whole IDX train and test sets."""
    if cfg.dataset == "mnist":
        key = (_read_mnist, os.environ.get(MNIST_DIR_ENV), cfg.feature_dim,
               cfg.num_classes)
    else:
        key = (_draw_synthetic, cfg.effective_data_seed, cfg.train_samples,
               cfg.test_samples, cfg.feature_dim, cfg.num_classes)
    data = _RUN_DATA.get(key)
    if data is None:
        _RUN_DATA.clear()
        data = _RUN_DATA[key] = key[0](*key[1:])
    return data


def _read_mnist(data_dir, feature_dim, num_classes):
    """The MNIST (train, test) sets under data_dir, which must match the
    config's feature_dim and num_classes."""
    if not data_dir:
        raise FileNotFoundError(
            f"dataset=mnist needs the {MNIST_DIR_ENV} environment "
            "variable pointing at the IDX files")
    sets = []
    for split in ("train", "test"):
        data = _read_only(learner.load_mnist(data_dir, split))
        for key, want in (("feature_dim", feature_dim),
                          ("num_classes", num_classes)):
            got = getattr(data, key)
            if got != want:
                raise ValueError(f"MNIST {split} set under {data_dir} "
                                 f"has {key} {got}, the config has "
                                 f"{key} = {want}")
        sets.append(data)
    return tuple(sets)


def _draw_synthetic(seed, n_train, n_test, feature_dim, num_classes):
    """Synthetic (train, test) sets: views of one matrix drawn from the
    data seed's DATA substream 0."""
    full = _read_only(learner.make_synthetic(
        n_train + n_test, feature_dim, num_classes,
        rng.substream(seed, rng.DATA, 0)))
    return full.subset(slice(None, n_train)), full.subset(slice(n_train, None))


def _read_only(data):
    """data with its arrays locked: every user's shard, and every run on
    the data key, reads from them."""
    data.features.flags.writeable = False
    data.labels.flags.writeable = False
    return data


def partition_for_run(cfg: ScenarioConfig, train):
    """The cfg.C * cfg.M user shards as row-index arrays into train, one
    list that every scenario of the config trains on."""
    gen = rng.substream(cfg.effective_data_seed, rng.DATA, 1)
    if cfg.partition == "iid":
        return learner.partition_iid(train, cfg.C * cfg.M, gen)
    return learner.partition_noniid(train, cfg.C * cfg.M, gen)


def build_topology(cfg: ScenarioConfig) -> topology.SystemTopology:
    """The placement of the config's data seed.  run_plan calls it through
    the module, so a test can patch in a hand-built topology."""
    gen = rng.substream(cfg.effective_data_seed, rng.TOPOLOGY)
    return topology.place_users(cfg.C, cfg.M, cfg.path_loss_exp,
                                cfg.target_alpha, cfg.alpha_tolerance, gen)


def run_plan(cfg: ScenarioConfig):
    """(cfg as run, betas): the one mapping of cfg.scenario onto the loop.

    ideal_hier takes exact means (betas None) and builds no topology.
    hotafl aggregates over the air with the user-to-IS gains of
    build_topology(cfg).  flat_ota is the one-cluster case: the same C*M
    shards as one cluster of C*M users with the user-to-PS gains as its
    one row of betas, I=1 and the flat_power_* schedule as its power.
    That replace keeps cfg's K and flat_power_*, which it does not derive
    again.
    """
    if cfg.scenario == "ideal_hier":
        return cfg, None
    topo = build_topology(cfg)
    if cfg.scenario == "hotafl":
        return cfg, topo.beta
    return (replace(cfg, C=1, M=cfg.C * cfg.M, I=1,
                    power_base=cfg.flat_power_base,
                    power_slope=cfg.flat_power_slope),
            topo.ps_beta.reshape(1, -1))


# ---------------------------------------------------------------------------
# engine

# Overflow and log(0) are reported by finiteness checks that name where
# they happened (the run's iteration and cluster, the bound's t), not as
# numpy warnings.  numpy's error state is per thread: the run's loop enters
# it, each pool worker sets it at start, and bounds enters it too.
QUIET = dict(over="ignore", divide="ignore", invalid="ignore")


def run_scenario(cfg: ScenarioConfig, record_models=False,
                 collect_diffs=False) -> RunMetrics:
    """Run cfg.scenario: map it with run_plan, take its data from
    load_run_data (shared with the runs before it on the same data key),
    build its users, then loop t -> i -> c.  The run only reads the data.

    Entry u of partition_for_run's list is user m of cluster c for
    (c, m) = divmod(u, M).  User u draws its batches from substream
    (seed, BATCH, 0, u), so the scenarios of one seed share batches, and
    aggregation (t, i, c) its channel and noise from (seed, CHANNEL |
    NOISE, t, i, c): no loop order changes the outputs.  A local step's
    C*M users run on a pool of learner.sgd_workers threads (one at small
    shapes) that lives for this call and is joined before it returns.  Each
    worker takes the next user left in the step's queue, so a worker on a
    slowed core holds up the one user it is training, not a fixed share of
    them, and a user's batch stream (a generator, which raises if two
    threads resume it at once) is resumed by one thread at a time.  The
    step's C over-the-air aggregations are pool tasks too:
    task c reads its cluster's diffs and writes only theta_is[c], and this
    thread adds the energies in order c = 0..C-1.  Each new theta_PS(t) is
    scored (test accuracy and train loss) on the pool ahead of t+1's users;
    t's row and its loss check are taken after t+1's local steps and before
    t+1's update checks, so the first error is the one a serial loop meets
    first.  theta_PS is rebound, never written in place, so a pending score
    reads a stable array.  BLAS is held at one thread for the whole loop
    (learner.blas_single_thread).
    """
    cfg, betas = run_plan(cfg)      # betas None: exact means
    train, test = load_run_data(cfg)
    shards = partition_for_run(cfg, train)
    C, M, I = cfg.C, cfg.M, cfg.I

    users = [(*divmod(u, M), learner.batches(      # (c, m, batch stream)
        rows, cfg.batch_size, rng.substream(cfg.seed, rng.BATCH, 0, u)))
        for u, rows in enumerate(shards)]
    workers = learner.sgd_workers(len(users), cfg.batch_size,
                                  cfg.feature_dim, cfg.num_classes)

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

    def train_users(todo, i, eta):
        while True:
            try:
                c, m, batch_rows = todo.get_nowait()
            except queue.Empty:
                return
            end = learner.sgd_user_iterations(
                train, batch_rows, theta_is[c], cfg.tau, eta, l2=cfg.l2_reg)
            diffs[c, i, m] = end - theta_is[c]

    def aggregate(c, t, i, p_t):
        update, energy = channel.ota_aggregate(
            diffs[c, i], betas[c], p_t, cfg.K, cfg.sigma_h2, cfg.sigma_z2,
            rng.substream(cfg.seed, rng.CHANNEL, t, i, c),
            rng.substream(cfg.seed, rng.NOISE, t, i, c))
        theta_is[c] += update
        return energy

    def record_scores(t, test_acc, train_loss):
        out["test_acc"][t] = test_acc.result()
        loss = train_loss.result()
        if not np.isfinite(loss):
            raise ValueError(f"train loss is not finite at t={t + 1}")
        out["train_loss"][t] = loss

    scores = None   # (t, test accuracy, train loss) futures of theta_ps
    pool = ThreadPoolExecutor(workers,
                              initializer=partial(np.seterr, **QUIET))
    with learner.blas_single_thread(), pool, np.errstate(**QUIET):
        for t in range(cfg.T):
            eta = lr_schedule(t, cfg.lr_base, cfg.lr_slope)
            p_t = power_schedule(t, cfg.power_base, cfg.power_slope)
            tx_energy = 0.0
            theta_is[:] = theta_ps

            for i in range(I):
                todo = queue.SimpleQueue()     # the step's users, in order
                for user in users:
                    todo.put(user)
                list(pool.map(partial(train_users, i=i, eta=eta),
                              [todo] * workers))
                if betas is None:
                    theta_is += diffs[:, i].sum(axis=1) / M
                    continue
                for energy in pool.map(partial(aggregate, t=t, i=i, p_t=p_t),
                                       range(C)):
                    tx_energy += energy         # in order c = 0..C-1

            if scores is not None:              # t-1's, before t's checks
                record_scores(*scores)
            delta = theta_is - theta_ps
            bad = ~np.isfinite(delta).all(axis=1)
            if bad.any():
                raise ValueError(f"cluster {bad.argmax()} update is not "
                                 f"finite at t={t + 1}")
            if not np.isfinite(tx_energy):      # p_t^2 * sum |x|^2 overflowed
                raise ValueError(f"transmit power is not finite at t={t + 1}")
            theta_ps = theta_ps + delta.sum(axis=0) / C

            # evaluate is called once per t through the module attribute: a
            # profiler may clock iterations on its returns
            scores = (t, pool.submit(learner.evaluate, theta_ps, test),
                      pool.submit(learner.loss, theta_ps, eval_feats,
                                  eval_labels, cfg.l2_reg))
            # per symbol: C*I*M sends of dim/2 symbols each
            out["avg_tx_power"][t] = tx_energy / (diffs.size // 2)
            out["eta"][t] = eta
            out["power"][t] = p_t
            if record_models:
                models.append(theta_ps)  # rebound above, never written in place
            if collect_diffs:
                all_diffs.append(diffs.copy())
        record_scores(*scores)

    checksum = hashlib.sha256(np.ascontiguousarray(theta_ps).tobytes()).hexdigest()
    return RunMetrics(cfg.scenario, np.arange(1, cfg.T + 1), out["train_loss"],
                      out["test_acc"], out["avg_tx_power"], out["eta"],
                      out["power"], theta_ps, checksum, models, all_diffs)
