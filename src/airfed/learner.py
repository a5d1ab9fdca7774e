"""Model, losses, datasets, partitioning, and user-side SGD.

The model is a multinomial logistic regression stored as one flat real
vector of length (feature_dim + 1) * num_classes (weights then a bias row,
laid out as an augmented-input weight matrix).  The flat vector is what
travels over the air, so its length must be even for complex packing.
"""

import ctypes
import functools
import glob
import gzip
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Feature matrix plus integer labels."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self):
        return self.features.shape[0]

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def model_dim(feature_dim: int, num_classes: int) -> int:
    return (feature_dim + 1) * num_classes


def zero_model(feature_dim: int, num_classes: int) -> np.ndarray:
    return np.zeros(model_dim(feature_dim, num_classes))


def _unflatten(model, feature_dim, num_classes):
    return model.reshape(feature_dim + 1, num_classes)


def _softmax_loss(model, features, labels, num_classes, l2):
    """(W, probs, loss) of the linear softmax classifier on one batch."""
    if features.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    W = _unflatten(model, features.shape[1], num_classes)
    logits = features @ W[:-1] + W[-1]
    logits -= logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    probs = expz / expz.sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(features.shape[0]), labels]).mean()
    if l2:
        loss += 0.5 * l2 * float(model @ model)
    return W, probs, float(loss)


def loss(model, features, labels, num_classes, l2: float = 0.0) -> float:
    """The loss of loss_and_gradient, without computing the gradient."""
    return _softmax_loss(model, features, labels, num_classes, l2)[2]


def loss_and_gradient(model, features, labels, num_classes, l2: float = 0.0):
    """Mean cross-entropy of the linear softmax classifier and its gradient.

    With l2 > 0 the objective gains (l2/2)*||model||^2, which makes every
    per-user loss l2-strongly convex.
    """
    W, delta, value = _softmax_loss(model, features, labels, num_classes, l2)
    n = features.shape[0]
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad = np.empty_like(W)
    grad[:-1] = features.T @ delta
    grad[-1] = delta.sum(axis=0)
    if l2:
        grad += l2 * W
    return value, grad.reshape(-1)


def evaluate(model, test: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    if len(test) == 0:
        raise ValueError("test set must be non-empty")
    W = _unflatten(model, test.feature_dim, test.num_classes)
    logits = test.features @ W[:-1] + W[-1]
    return float(np.mean(np.argmax(logits, axis=1) == test.labels))


# ---------------------------------------------------------------------------
# partitioning

def partition_iid(data: Dataset, C: int, M: int, rng):
    """Shuffle and split into C*M disjoint shards, sizes differing by <= 1.

    Returns a (C, M) nested list of sorted row-index arrays into data;
    flattening it row-major gives the same shards a flat C=1, M=C*M split
    would, so hierarchical and flat runs see identical user data.
    """
    n_users = C * M
    if len(data) < n_users:
        raise ValueError(f"{len(data)} samples cannot cover {n_users} users")
    order = rng.permutation(len(data))
    splits = np.array_split(order, n_users)
    return [[np.sort(splits[c * M + m]) for m in range(M)] for c in range(C)]


def partition_noniid(data: Dataset, C: int, M: int, rng):
    """Label-sorted shard assignment: 5*M*C single-label groups, 5 per user.

    Groups are allocated to labels proportionally to label frequency
    (largest remainder), each label's samples are split into near-equal
    single-label groups, and a random permutation deals 5 groups to every
    user.  Returns a (C, M) nested list of sorted row-index arrays into data.
    ScenarioConfig checks that there are at least as many groups as classes.
    """
    n_groups = 5 * M * C
    counts = np.bincount(data.labels, minlength=data.num_classes)
    if np.any(counts == 0):
        raise ValueError("every class needs at least one sample")
    if len(data) < n_groups:
        raise ValueError("fewer samples than groups")
    # largest-remainder apportionment of groups to labels
    quota = counts / counts.sum() * n_groups
    alloc = np.floor(quota).astype(int)
    alloc = np.maximum(alloc, 1)
    while alloc.sum() > n_groups:
        alloc[np.argmax(alloc - quota)] -= 1
    rem = n_groups - alloc.sum()
    if rem > 0:
        order = np.argsort(-(quota - alloc))
        alloc[order[:rem]] += 1
    if np.any(alloc > counts):
        raise ValueError("a class has fewer samples than its group count")

    groups = []
    for label in range(data.num_classes):
        idx = np.flatnonzero(data.labels == label)
        idx = rng.permutation(idx)
        groups.extend(np.array_split(idx, alloc[label]))
    assert len(groups) == n_groups
    deal = rng.permutation(n_groups)
    users = [np.sort(np.concatenate([groups[g] for g in picked]))
             for picked in deal.reshape(C * M, 5)]
    return [users[c * M:(c + 1) * M] for c in range(C)]


# ---------------------------------------------------------------------------
# user-side SGD

class UserLearnerState:
    """One user's shard (rows of a shared dataset), batch cursor, and
    private RNG stream.

    Batches are sampled without replacement within an epoch and the shard is
    reshuffled whenever fewer than batch_size samples remain.
    """

    def __init__(self, data: Dataset, rows, batch_size: int, rng):
        if batch_size < 1 or batch_size > len(rows):
            raise ValueError(f"batch_size {batch_size} not in [1, {len(rows)}]")
        self.data = data
        self.rows = rows
        self.batch_size = batch_size
        self.rng = rng
        self._order = self.rng.permutation(len(rows))
        self._cursor = 0

    def next_batch(self):
        """Rows of data in the next batch."""
        if self._cursor + self.batch_size > len(self.rows):
            self._order = self.rng.permutation(len(self.rows))
            self._cursor = 0
        idx = self._order[self._cursor:self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.rows[idx]


def sgd_user_iterations(state: UserLearnerState, start, tau: int, eta: float,
                        l2: float = 0.0):
    """Run tau SGD steps theta <- theta - eta * grad from `start`, each on a
    freshly sampled batch."""
    theta = np.array(start, dtype=np.float64, copy=True)
    data = state.data
    for _ in range(tau):
        batch = state.next_batch()
        _, grad = loss_and_gradient(theta, data.features[batch],
                                    data.labels[batch], data.num_classes, l2)
        theta -= eta * grad
    return theta


# ---------------------------------------------------------------------------
# threads

def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    bundle in numpy.libs (scipy-openblas), or None when it is not found.
    Opening the file numpy already loaded returns that same library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*scipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
    return None


@contextmanager
def blas_single_thread():
    """Hold numpy's bundled OpenBLAS at one thread, then restore the count
    it had, also on an exception.  Without that library BLAS is left as it
    is.  At one thread a matrix product's bits do not depend on the core
    count, and concurrent SGD calls do not oversubscribe the CPUs."""
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, set_threads = api
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


# One gradient's multiply-adds (batch_size * (feature_dim + 1) *
# num_classes) from which a local step's users run on more than one
# worker.  An ideal_hier engine run (C*M = 20, tau = 1, T = 8, BLAS at
# one thread) on 2 workers took, as a median multiple of the serial run
# over 5 pairs on 2 cores (numpy 2.4.6): 1.09-1.10 at 64 features and
# batch 100, 1.04-1.09 at 128 x 500 (0.65e6), 0.87 at 192 x 500
# (0.96e6), 0.75-0.77 at 256 x 500 and 0.62-0.65 at 784 x 500 (the
# paper's width).
SGD_POOL_MIN_MACS = 1_000_000


def sgd_workers(n_users: int, batch_size: int, feature_dim: int,
                num_classes: int) -> int:
    """Threads for one local step's n_users SGD calls: one per usable CPU
    when BLAS can be held at one thread and one gradient reaches
    SGD_POOL_MIN_MACS, else 1 (the calls run on one worker thread)."""
    macs = batch_size * model_dim(feature_dim, num_classes)
    if _openblas_threads() is None or macs < SGD_POOL_MIN_MACS:
        return 1
    return min(_cpu_count(), n_users)


# ---------------------------------------------------------------------------
# data sources

# Rows per block of the synthetic draw.  The values depend on this and
# never on how many threads fill the blocks.
SYNTHETIC_BLOCK_ROWS = 2048


def make_synthetic(num_samples: int, feature_dim: int, num_classes: int,
                   rng) -> Dataset:
    """Linearly separable Gaussian blobs with round-robin labels.

    Each class centre lies at distance 4 from the origin along a random unit
    direction drawn from rng; the noise is standard normal.  The rows are
    split into blocks of SYNTHETIC_BLOCK_ROWS, and block b is filled in
    place by child b of rng.spawn(n_blocks), which then adds each class
    centre to that block's rows of the class.  A thread pool of one worker
    per usable CPU fills the blocks (numpy's fill releases the GIL).  The
    workers call only Generator methods and numpy, never an airfed
    function, so a profiler that wraps module attributes sees no calls
    from other threads.
    """
    dirs = rng.standard_normal((num_classes, feature_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centres = 4.0 * dirs
    labels = np.arange(num_samples) % num_classes
    feats = np.empty((num_samples, feature_dim))
    starts = range(0, num_samples, SYNTHETIC_BLOCK_ROWS)
    children = rng.spawn(len(starts))

    def fill(start, gen):
        rows = feats[start:start + SYNTHETIC_BLOCK_ROWS]
        gen.standard_normal(out=rows)
        for c in range(num_classes):
            rows[(c - start) % num_classes::num_classes] += centres[c]

    workers = min(_cpu_count(), len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, starts, children))
    return Dataset(feats, labels, num_classes)


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path):
    """(magic, (n, rows*cols) images or (n,) labels) of one IDX file."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        buf = fh.read()
    magic = int.from_bytes(buf[:4], "big")
    ndim = {_IDX_IMAGES_MAGIC: 3, _IDX_LABELS_MAGIC: 1}.get(magic, 0)
    start = 4 + 4 * ndim
    if len(buf) < start:
        raise ValueError(f"{path}: truncated IDX header")
    if not ndim:
        raise ValueError(f"{path}: unrecognized IDX magic 0x{magic:08x}")
    dims = struct.unpack_from(f">{ndim}I", buf, 4)
    count = int(np.prod(dims))
    if len(buf) - start < count:
        raise ValueError(f"{path}: IDX payload has {len(buf) - start} "
                         f"bytes, its header says {count}")
    data = np.frombuffer(buf, dtype=np.uint8, count=count, offset=start)
    if ndim == 3:
        data = data.reshape(dims[0], dims[1] * dims[2])
    return magic, data


def load_mnist(data_dir: str, split: str = "train") -> Dataset:
    """Load MNIST IDX files (optionally gzipped) with pixels scaled to [0, 1]."""
    prefix = {"train": "train", "test": "t10k"}[split]
    img_path = lbl_path = None
    for suffix in ("", ".gz"):
        ip = os.path.join(data_dir, f"{prefix}-images-idx3-ubyte{suffix}")
        lp = os.path.join(data_dir, f"{prefix}-labels-idx1-ubyte{suffix}")
        if os.path.exists(ip) and os.path.exists(lp):
            img_path, lbl_path = ip, lp
            break
    if img_path is None:
        raise FileNotFoundError(f"no MNIST {split} IDX files under {data_dir}")
    magic_i, images = _read_idx(img_path)
    magic_l, labels = _read_idx(lbl_path)
    if magic_i != _IDX_IMAGES_MAGIC or magic_l != _IDX_LABELS_MAGIC:
        raise ValueError("image/label files swapped or corrupt")
    return Dataset(images.astype(np.float64) / 255.0,
                   labels.astype(np.int64), 10)
