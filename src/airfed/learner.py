"""Model, losses, datasets, partitioning, and user-side SGD.

The model is a multinomial logistic regression stored as one flat real
vector of length (feature_dim + 1) * num_classes (weights then a bias row,
laid out as an augmented-input weight matrix).  The flat vector is what
travels over the air, so its length must be even: its first half holds
the symbols' real parts, its second half their imaginary parts.

The values this module takes were checked where they entered: a batch
and a test set are never empty, because batches checks 1 <= batch_size
<= len(rows) when a run builds its users, test_samples is at least 1 and
load_mnist refuses a file with no images.
"""

import ctypes
import functools
import glob
import gzip
import math
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix plus integer labels in [0, num_classes), one per row,
    held as the producer (make_synthetic, load_mnist, subset) built them.
    Frozen: runs on one data key share one train and one test Dataset.
    Compared by identity, as an array has no one truth value."""

    features: np.ndarray  # (n, d) float32
    labels: np.ndarray    # (n,) int64
    num_classes: int

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


def _logits(model, features):
    """(n, num_classes) float64 scores of the flat model, for loss,
    loss_and_gradient and evaluate alike.  The model is read as the
    augmented (feature_dim + 1, num_classes) weight matrix whose last row is
    the bias, so its length fixes num_classes.  The product runs in the
    features' dtype, to which the weights are cast here; the bias is added
    in float64."""
    W = model.reshape(features.shape[1] + 1, -1)
    scores = features @ W[:-1].astype(features.dtype, copy=False)
    return scores.astype(np.float64) + W[-1]


def _softmax_loss(model, features, labels, l2):
    """(probs, loss) of the linear softmax classifier on one batch."""
    logits = _logits(model, features)
    logits -= logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    probs = expz / expz.sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(features.shape[0]), labels]).mean()
    if l2:
        loss += 0.5 * l2 * float(model @ model)
    return probs, float(loss)


def loss(model, features, labels, l2: float = 0.0) -> float:
    """The loss of loss_and_gradient, without computing the gradient."""
    return _softmax_loss(model, features, labels, l2)[1]


def loss_and_gradient(model, features, labels, l2: float = 0.0):
    """Mean cross-entropy of the linear softmax classifier and its float64
    gradient.  The softmax and the loss are float64; the residual goes back
    to the features' dtype for the product with the features.

    With l2 > 0 the objective gains (l2/2)*||model||^2, which makes every
    per-user loss l2-strongly convex.
    """
    delta, value = _softmax_loss(model, features, labels, l2)
    n, d = features.shape
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad = np.empty((d + 1, delta.shape[1]))
    grad[:-1] = features.T @ delta.astype(features.dtype, copy=False)
    grad[-1] = delta.sum(axis=0)
    grad = grad.reshape(-1)
    if l2:
        grad += l2 * model
    return value, grad


def evaluate(model, test: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    logits = _logits(model, test.features)
    return float(np.mean(np.argmax(logits, axis=1) == test.labels))


# ---------------------------------------------------------------------------
# partitioning

def partition_iid(data: Dataset, users: int, rng):
    """Shuffle and split into `users` disjoint shards, sizes differing by
    <= 1: a list of sorted row-index arrays into data, one per user."""
    if len(data) < users:
        raise ValueError(f"{len(data)} samples cannot cover {users} users")
    order = rng.permutation(len(data))
    return [np.sort(rows) for rows in np.array_split(order, users)]


def partition_noniid(data: Dataset, users: int, rng):
    """Label-sorted shard assignment: 5*users single-label groups, 5 per user.

    Groups are allocated to labels proportionally to label frequency
    (largest remainder, at least one per label), each label's samples are
    split into near-equal single-label groups, and a random permutation
    deals 5 groups to every user.  Returns a list of sorted row-index arrays
    into data, one per user.  ScenarioConfig checks that there are at least
    as many groups as classes.
    """
    n_groups = 5 * users
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
        alloc[np.argmax(np.where(alloc > 1, alloc - quota, -np.inf))] -= 1
    order = np.argsort(-(quota - alloc))
    alloc[order[:n_groups - alloc.sum()]] += 1

    groups = []
    for label in range(data.num_classes):
        idx = np.flatnonzero(data.labels == label)
        idx = rng.permutation(idx)
        groups.extend(np.array_split(idx, alloc[label]))
    assert len(groups) == n_groups
    deal = rng.permutation(n_groups)
    return [np.sort(np.concatenate([groups[g] for g in picked]))
            for picked in deal.reshape(users, 5)]


# ---------------------------------------------------------------------------
# user-side SGD

def batches(rows, batch_size: int, rng):
    """Endless stream of the batches of one user's shard `rows` (row
    indices into a shared dataset), checking batch_size at this call.  Each
    epoch draws one rng.permutation of the shard and yields its full
    batches, so the shard is reshuffled once fewer than batch_size remain."""
    if batch_size < 1 or batch_size > len(rows):
        raise ValueError(f"batch_size {batch_size} not in [1, {len(rows)}]")

    def stream():
        while True:
            order = rng.permutation(len(rows))
            for s in range(0, len(rows) - batch_size + 1, batch_size):
                yield rows[order[s:s + batch_size]]
    return stream()


def sgd_user_iterations(data: Dataset, batch_rows, start, tau: int,
                        eta: float, l2: float = 0.0):
    """Run tau SGD steps theta <- theta - eta * grad from `start`, each on
    the batch of data's rows that next(batch_rows) gives, gathered from data
    at the step, so no per-user copy of the data exists."""
    theta = np.array(start, dtype=np.float64, copy=True)
    for _ in range(tau):
        batch = next(batch_rows)
        _, grad = loss_and_gradient(theta, data.features[batch],
                                    data.labels[batch], l2)
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
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas, in numpy.libs) when it has
    the thread-count getter and setter, else None.  Opening the file numpy
    already loaded returns that same library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*scipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_get_num_threads64_") \
                and hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


@contextmanager
def blas_single_thread():
    """Hold numpy's bundled OpenBLAS at one thread, then restore the count
    it had, also on an exception.  Without that library BLAS is left as it
    is.  At one thread a matrix product's bits do not depend on the core
    count, and concurrent SGD calls do not oversubscribe the CPUs."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


# One gradient's multiply-adds (batch_size * (feature_dim + 1) *
# num_classes) from which a local step's users run on more than one
# worker: the measured crossover.  An ideal_hier run (C*M = 20, tau = 1,
# T = 8, BLAS at one thread, setup excluded) on 2 workers took, as a
# median multiple of the serial run over two sessions of 7 alternating
# pairs on 2 cores (numpy 2.4.6, float32 features): 1.05-1.06 at 64
# features and batch 100, 1.01-1.06 at 128 x 500 (0.65e6), 0.92 at
# 160 x 500 (0.80e6), 0.85-0.88 at 192 x 500 (0.96e6), 0.85-0.86 at
# 256 x 500 and 0.71-0.77 at 784 x 500 (the paper's width).
SGD_POOL_MIN_MACS = 800_000


def sgd_workers(n_users: int, batch_size: int, feature_dim: int,
                num_classes: int) -> int:
    """Threads for one local step's n_users SGD calls: one per usable CPU
    when BLAS can be held at one thread and one gradient reaches
    SGD_POOL_MIN_MACS, else 1 (the calls run on one worker thread)."""
    macs = batch_size * model_dim(feature_dim, num_classes)
    if _openblas() is None or macs < SGD_POOL_MIN_MACS:
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
    direction drawn from rng; the noise is standard normal.  The features
    are float32: the noise is drawn as float32, and each row's sum with its
    centre is taken in float64 and rounded to float32.  The rows are split
    into blocks of SYNTHETIC_BLOCK_ROWS, and block b is filled in place by
    child b of rng.spawn(n_blocks), which then adds each class centre to
    that block's rows of the class.  A thread pool of one worker
    per usable CPU fills the blocks (numpy's fill releases the GIL).  The
    workers call only Generator methods and numpy, never an airfed
    function, so a profiler that wraps module attributes sees no calls
    from other threads.
    """
    dirs = rng.standard_normal((num_classes, feature_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centres = 4.0 * dirs
    labels = np.arange(num_samples) % num_classes
    feats = np.empty((num_samples, feature_dim), dtype=np.float32)
    starts = range(0, num_samples, SYNTHETIC_BLOCK_ROWS)
    children = rng.spawn(len(starts))

    def fill(start, gen):
        rows = feats[start:start + SYNTHETIC_BLOCK_ROWS]
        gen.standard_normal(out=rows, dtype=np.float32)
        for c in range(num_classes):
            rows[(c - start) % num_classes::num_classes] += centres[c]

    workers = min(_cpu_count(), len(starts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, starts, children))
    return Dataset(feats, labels, num_classes)


def _read_idx(path, ndim):
    """(n, rows*cols) images (ndim 3) or (n,) labels (ndim 1) of an IDX
    file of unsigned bytes, whose magic number must then be 0x800 + ndim.
    A .gz file that does not decode fails naming path."""
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            buf = fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ValueError(f"{path}: {exc}")
    magic, want = int.from_bytes(buf[:4], "big"), 0x800 + ndim
    if len(buf) >= 4 and magic != want:
        raise ValueError(f"{path}: IDX magic 0x{magic:08x}, expected "
                         f"0x{want:08x}")
    start = 4 + 4 * ndim
    if len(buf) < start:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack_from(f">{ndim}I", buf, 4)
    count = math.prod(dims)
    if len(buf) - start < count:
        raise ValueError(f"{path}: IDX payload has {len(buf) - start} "
                         f"bytes, its header says {count}")
    data = np.frombuffer(buf, dtype=np.uint8, count=count, offset=start)
    if ndim == 3:
        data = data.reshape(dims[0], dims[1] * dims[2])
    return data


def load_mnist(data_dir: str, split: str = "train") -> Dataset:
    """Load MNIST IDX files (optionally gzipped) with pixels scaled by
    1/255 into float32."""
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
    images = _read_idx(img_path, 3)
    if not len(images):
        raise ValueError(f"{img_path}: IDX file holds no images")
    labels = _read_idx(lbl_path, 1)
    if len(labels) != len(images):
        raise ValueError(f"{lbl_path}: {len(labels)} labels for the "
                         f"{len(images)} images of {img_path}")
    if labels.size and labels.max() > 9:
        raise ValueError(f"{lbl_path}: label {labels.max()}, MNIST labels "
                         "are 0 to 9")
    features = images.astype(np.float32)
    features /= 255
    return Dataset(features, labels.astype(np.int64), 10)
