import dataclasses
import gzip
import re
import struct

import numpy as np
import pytest

from airfed import learner, protocol, rng
from oracles import make_synthetic_reference


def _data(n=60, d=6, k=3, seed=0):
    return learner.make_synthetic(n, d, k, rng.substream(seed, 1))


def test_model_dim_and_zero_model():
    assert learner.model_dim(784, 10) == 7850
    theta = learner.zero_model(4, 3)
    assert theta.shape == (15,)
    assert not theta.any()


def test_loss_gradient_finite_difference():
    gen = rng.substream(11, 0)
    data = _data(seed=2)
    # float64 products on an exact copy of the float32 data: an eps of 1e-6
    # needs more digits than float32 products keep
    data = dataclasses.replace(data, features=data.features.astype(np.float64))
    theta = gen.standard_normal(learner.model_dim(6, 3))
    loss, grad = learner.loss_and_gradient(theta, data.features, data.labels,
                                           l2=0.05)
    eps = 1e-6
    for i in gen.choice(theta.size, 10, replace=False):
        up, dn = theta.copy(), theta.copy()
        up[i] += eps
        dn[i] -= eps
        lu, _ = learner.loss_and_gradient(up, data.features, data.labels, 0.05)
        ld, _ = learner.loss_and_gradient(dn, data.features, data.labels, 0.05)
        fd = (lu - ld) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd))


# Relative errors of float32 products to float64 ones, fixed before the
# first run; measured at most 2.8e-7 (gradient) and 2.2e-9 (loss) on
# 2 cores with numpy 2.4.6 and OpenBLAS 0.3.31.
_GRAD_RTOL, _LOSS_RTOL = 1e-5, 1e-6


def test_float32_products_match_float64(tmp_path):
    gen = rng.substream(11, 2)
    # the paper's width (one 500-sample batch) and the tests' 6-feature shape
    for n, d, k in ((500, 784, 10), (60, 6, 3)):
        data = learner.make_synthetic(n, d, k, rng.substream(4, 1))
        assert data.features.dtype == np.float32
        theta = 0.05 * gen.standard_normal(learner.model_dim(d, k))
        lo, g = learner.loss_and_gradient(theta, data.features, data.labels)
        lo64, g64 = learner.loss_and_gradient(
            theta, data.features.astype(np.float64), data.labels)
        assert g.dtype == np.float64
        assert np.linalg.norm(g - g64) <= _GRAD_RTOL * np.linalg.norm(g64)
        assert abs(lo - lo64) <= _LOSS_RTOL * abs(lo64)

    batch_rows = learner.batches(np.arange(len(data)), 8, rng.substream(5, 6))
    end = learner.sgd_user_iterations(data, batch_rows, theta, 2, 0.1)
    assert end.dtype == np.float64

    cfg = protocol.ScenarioConfig(
        scenario="ideal_hier", C=1, M=2, K=4, T=1, feature_dim=9,
        num_classes=4, train_samples=200, test_samples=50, batch_size=20)
    for part in protocol.load_run_data(cfg):
        assert part.features.dtype == np.float32

    imgs = gen.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    _write_idx(tmp_path / "train-images-idx3-ubyte", 0x803, imgs, (3, 28, 28))
    _write_idx(tmp_path / "train-labels-idx1-ubyte", 0x801,
               np.arange(3), (3,))
    mnist = learner.load_mnist(str(tmp_path), "train")
    assert mnist.features.dtype == np.float32
    assert np.array_equal(mnist.features * 255, imgs.reshape(3, 784))


def test_loss_is_the_loss_of_loss_and_gradient():
    gen = rng.substream(11, 1)
    data = _data(seed=3)
    theta = gen.standard_normal(learner.model_dim(6, 3))
    for l2 in (0.0, 0.05):
        got = learner.loss(theta, data.features, data.labels, l2)
        assert got == learner.loss_and_gradient(theta, data.features,
                                                data.labels, l2)[0]


def test_loss_uniform_at_zero_model():
    data = _data()
    loss, _ = learner.loss_and_gradient(learner.zero_model(6, 3),
                                        data.features, data.labels)
    assert loss == pytest.approx(np.log(3))


def test_evaluate_bounds_and_perfect_model():
    data = _data(n=90)
    acc = learner.evaluate(learner.zero_model(6, 3), data)
    assert 0.0 <= acc <= 1.0
    # a strongly trained model on separable blobs should be near-perfect
    theta = learner.zero_model(6, 3)
    for _ in range(300):
        _, g = learner.loss_and_gradient(theta, data.features, data.labels)
        theta -= 0.5 * g
    assert learner.evaluate(theta, data) >= 0.95


def test_partition_iid_shapes_and_disjoint():
    data = _data(n=61)
    rows = learner.partition_iid(data, 6, rng.substream(4, 2))
    sizes = [len(r) for r in rows]
    assert max(sizes) - min(sizes) <= 1
    assert all(np.array_equal(r, np.sort(r)) for r in rows)
    # disjoint and covering: the shards together are every row exactly once
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(61))
    # fewer samples than users
    with pytest.raises(ValueError, match="^5 samples cannot cover 6 users$"):
        learner.partition_iid(_data(n=5), 6, rng.substream(4, 2))


def test_partition_noniid_label_concentration():
    data = _data(n=2000, d=4, k=10, seed=9)
    total = 0
    for rows in learner.partition_noniid(data, 4, rng.substream(7, 2)):
        total += len(rows)
        assert np.unique(data.labels[rows]).size <= 5
    assert total == 2000


# (label counts, users, groups per label): MNIST's train set, which takes
# the remainder branch, and two long tails where a class raised to one
# group must keep it
_NONIID_SPLITS = [
    ([5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949], 20,
     [10, 11, 10, 10, 10, 9, 10, 10, 10, 10]),
    ([59000] + [100] * 9, 20, [91] + [1] * 9),
    ([5000] + [10] * 9, 2, [1] * 10)]


@pytest.mark.parametrize("counts, n_users, alloc", _NONIID_SPLITS,
                         ids=["mnist-train", "long-tail-100", "long-tail-10"])
def test_partition_noniid_groups_per_label(counts, n_users, alloc):
    labels = np.repeat(np.arange(len(counts)), counts)
    data = learner.Dataset(np.zeros((labels.size, 1)), labels, len(counts))
    users = learner.partition_noniid(data, n_users, rng.substream(0, 2))
    # label l's groups hold counts[l] // alloc[l] rows or one more, so a
    # user's rows of l are k such groups for k = rows // that size
    held = np.zeros((len(users), len(counts)), dtype=int)
    for u, rows in enumerate(users):
        for label, n in enumerate(np.bincount(labels[rows],
                                              minlength=len(counts))):
            size = counts[label] // alloc[label]
            held[u, label] = n // size
            assert n <= held[u, label] * (size + 1)
    assert held.sum(axis=0).tolist() == alloc
    assert (held.sum(axis=1) == 5).all()
    assert np.array_equal(np.sort(np.concatenate(users)),
                          np.arange(labels.size))


def test_partition_noniid_rejects_missing_class():
    data = learner.Dataset(np.zeros((50, 2)), np.zeros(50, dtype=int), 3)
    with pytest.raises(ValueError):
        learner.partition_noniid(data, 4, rng.substream(0, 0))


def test_user_state_epoch_reshuffle():
    rows = np.arange(10)
    batch_rows = learner.batches(rows, 4, rng.substream(3, 3))
    seen = np.concatenate([next(batch_rows) for _ in range(2)])
    assert np.unique(seen).size == 8  # within one epoch, no repeats
    next(batch_rows)                 # triggers reshuffle (only 2 left)
    with pytest.raises(ValueError):  # at the call, before any next()
        learner.batches(rows, 11, rng.substream(3, 3))


def test_sgd_matches_manual_steps():
    data = _data(n=40)
    rows = np.arange(40)
    theta0 = learner.zero_model(6, 3)
    batch_rows = learner.batches(rows, 8, rng.substream(5, 6))
    end = learner.sgd_user_iterations(data, batch_rows, theta0, 3, 0.1)

    batch_rows2 = learner.batches(rows, 8, rng.substream(5, 6))
    theta = theta0.copy()
    for _ in range(3):
        idx = next(batch_rows2)
        _, g = learner.loss_and_gradient(theta, data.features[idx],
                                         data.labels[idx])
        theta -= 0.1 * g
    assert np.array_equal(end, theta)


def test_sgd_on_rows_matches_copied_shard():
    # a shard of row indices takes the steps a copied shard took, reshuffles
    # included: batch k is shard row order[k], which is data row rows[order[k]]
    data = _data(n=60)
    rows = np.sort(rng.substream(2, 2).permutation(60)[:20])
    batch_rows = learner.batches(rows, 8, rng.substream(5, 6))
    end = learner.sgd_user_iterations(data, batch_rows,
                                      learner.zero_model(6, 3), 5, 0.1)

    shard = data.subset(rows)
    gen = rng.substream(5, 6)
    order = gen.permutation(len(rows))
    theta = learner.zero_model(6, 3)
    cursor = 0
    for _ in range(5):
        if cursor + 8 > len(rows):
            order, cursor = gen.permutation(len(rows)), 0
        idx = order[cursor:cursor + 8]
        cursor += 8
        _, g = learner.loss_and_gradient(theta, shard.features[idx],
                                         shard.labels[idx])
        theta -= 0.1 * g
    assert np.array_equal(end, theta)


def test_make_synthetic_deterministic_and_balanced():
    a = _data(n=33, seed=8)
    b = _data(n=33, seed=8)
    assert np.array_equal(a.features, b.features)
    counts = np.bincount(a.labels, minlength=3)
    assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize("n, k", [
    (60, 10), (23, 10),
    # three blocks, a short last one, and a block start (2048) that is not
    # a multiple of the class count
    (2 * learner.SYNTHETIC_BLOCK_ROWS + 7, 7),
])
def test_make_synthetic_matches_reference(n, k, monkeypatch):
    ref = make_synthetic_reference(n, 5, k, rng.substream(6, 1))
    for cpus in (None, 1, 3):   # the usable CPUs, then 1 and 3 workers
        if cpus:
            monkeypatch.setattr(learner, "_cpu_count", lambda: cpus)
        got = learner.make_synthetic(n, 5, k, rng.substream(6, 1))
        assert np.array_equal(got.features, ref.features)
        assert np.array_equal(got.labels, ref.labels)


def _write_idx(path, magic, arr, dims, gz=False):
    opener = gzip.open if gz else open
    with opener(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        fh.write(struct.pack(f">{len(dims)}I", *dims))
        fh.write(arr.astype(np.uint8).tobytes())


def test_load_mnist_idx_round_trip(tmp_path):
    gen = rng.substream(1, 0)
    imgs = gen.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    labels = gen.integers(0, 10, size=7, dtype=np.uint8)
    _write_idx(tmp_path / "train-images-idx3-ubyte", 0x803,
               imgs, (7, 28, 28))
    _write_idx(tmp_path / "train-labels-idx1-ubyte", 0x801, labels, (7,))
    data = learner.load_mnist(str(tmp_path), "train")
    assert data.features.shape == (7, 784)
    assert data.features.max() <= 1.0
    assert np.array_equal(data.labels, labels)


def test_load_mnist_gzip_and_missing(tmp_path):
    gen = rng.substream(2, 0)
    imgs = gen.integers(0, 256, size=(3, 28, 28), dtype=np.uint8)
    labels = gen.integers(0, 10, size=3, dtype=np.uint8)
    _write_idx(str(tmp_path / "t10k-images-idx3-ubyte.gz"), 0x803,
               imgs, (3, 28, 28), gz=True)
    _write_idx(str(tmp_path / "t10k-labels-idx1-ubyte.gz"), 0x801,
               labels, (3,), gz=True)
    data = learner.load_mnist(str(tmp_path), "test")
    assert len(data) == 3
    with pytest.raises(FileNotFoundError):
        learner.load_mnist(str(tmp_path), "train")


def test_load_mnist_truncated_idx_names_the_file(tmp_path):
    images = tmp_path / "train-images-idx3-ubyte"
    labels = np.zeros(10, dtype=np.uint8)
    _write_idx(tmp_path / "train-labels-idx1-ubyte", 0x801, labels, (10,))
    for payload, dims, reason in (
            (None, None, "truncated IDX header"),
            (np.zeros(0), (10,), "truncated IDX header"),
            (np.zeros(100), (10, 28, 28),
             "IDX payload has 100 bytes, its header says 7840")):
        if payload is None:
            images.write_bytes(b"")
        else:
            _write_idx(images, 0x803, payload, dims)
        with pytest.raises(ValueError) as err:
            learner.load_mnist(str(tmp_path), "train")
        assert str(err.value) == f"{images}: {reason}"

    # gzip streams cut in half, with a flipped CRC byte and, after a bare
    # 10-byte header, with a reserved deflate block type
    gz = tmp_path / "gz"
    gz.mkdir()
    images = gz / "train-images-idx3-ubyte.gz"
    _write_idx(gz / "train-labels-idx1-ubyte.gz", 0x801, labels, (10,), True)
    _write_idx(images, 0x803, rng.substream(3, 0).integers(0, 256, 7840),
               (10, 28, 28), True)
    blob = images.read_bytes()
    for damaged, reason in (
            (blob[:len(blob) // 2], "Compressed file ended before the "
             "end-of-stream marker was reached"),
            (blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:],
             "CRC check failed 0x[0-9a-f]+ != 0x[0-9a-f]+"),
            (gzip.compress(b"")[:10] + b"\xff" * 20,
             "Error -3 while decompressing data: invalid block type")):
        images.write_bytes(damaged)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(images))}: {reason}$"):
            learner.load_mnist(str(gz), "train")


# (images file, labels file, error), each file as (magic, payload, dims);
# {images} and {labels} in the error stand for the two files' paths
_LABELS = (0x801, np.arange(2) % 10, (2,))
_IMAGES = (0x803, np.zeros(8), (2, 2, 2))
_BAD_IDX = [
    # header products that wrap to 0 and to a negative number in int64
    ((0x803, np.zeros(16), (2**21, 2**21, 2**22)), _LABELS,
     "{images}: IDX payload has 16 bytes, its header says "
     "18446744073709551616"),
    ((0x803, np.zeros(16), (2, 2**31, 2**31)), _LABELS,
     "{images}: IDX payload has 16 bytes, its header says "
     "9223372036854775808"),
    (_LABELS, _IMAGES, "{images}: IDX magic 0x00000801, expected 0x00000803"),
    (_IMAGES, (0x801, np.array([3, 10]), (2,)),
     "{labels}: label 10, MNIST labels are 0 to 9"),
    (_IMAGES, (0x801, np.arange(3), (3,)),
     "{labels}: 3 labels for the 2 images of {images}"),
    ((0x803, np.zeros(0), (0, 2, 2)), (0x801, np.zeros(0), (0,)),
     "{images}: IDX file holds no images")]


@pytest.mark.parametrize("images, labels, reason", _BAD_IDX,
                         ids=["dims-wrap-zero", "dims-wrap-negative",
                              "swapped", "label-10", "count-mismatch",
                              "empty"])
def test_load_mnist_bad_idx(tmp_path, images, labels, reason):
    paths = [tmp_path / "train-images-idx3-ubyte",
             tmp_path / "train-labels-idx1-ubyte"]
    for path, (magic, arr, dims) in zip(paths, (images, labels)):
        _write_idx(path, magic, arr, dims)
    with pytest.raises(ValueError) as err:
        learner.load_mnist(str(tmp_path), "train")
    assert str(err.value) == reason.format(images=paths[0], labels=paths[1])
