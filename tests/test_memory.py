import copy
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem.errors import (ContractError, EmptyMemoryError,
                               StructuralError)
from gesturemem.memory import (MemoryQueue, address, address_batch, off_unit_norm,
                               recall, recall_batch_backward, recall_batch_with_grad,
                               recall_for_query)

from helpers import (assert_same_bits, fd_grad, insertion_order, rel_error,
                     random_unit_rows)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_enqueue_single():
    q = MemoryQueue(4, 3, dtype=np.float64)
    f = unit([1.0, 2.0, 3.0])
    q.enqueue_batch([f], [2])
    assert q.fill == 1 and q.head == 1
    assert np.array_equal(q.features[0], f)
    assert q.labels[0] == 2


def test_fifo_eviction_keeps_newest():
    q = MemoryQueue(2, 2, dtype=np.float64)
    f1, f2, f3 = unit([1, 0]), unit([0, 1]), unit([1, 1])
    for i, f in enumerate([f1, f2, f3]):
        q.enqueue_batch([f], [i])
    feats, labels = insertion_order(q)
    assert np.array_equal(feats, np.stack([f2, f3]))
    assert list(labels) == [1, 2]


def test_overfill_keeps_last_k_in_order():
    k = 8
    q = MemoryQueue(k, 4, dtype=np.float64)
    rng = np.random.default_rng(0)
    feats = random_unit_rows(rng, k + 5, 4)
    for i, f in enumerate(feats):
        q.enqueue_batch([f], [i])
    snap_feats, snap_labels = insertion_order(q)
    assert q.fill == k
    assert np.array_equal(snap_feats, feats[5:])
    assert list(snap_labels) == list(range(5, k + 5))


def test_enqueue_contract_checks():
    q = MemoryQueue(4, 3, dtype=np.float64)
    with pytest.raises(ContractError):
        q.enqueue_batch([np.array([2.0, 0.0, 0.0])], [0])
    with pytest.raises(ContractError):  # too large to square: no overflow warning
        q.enqueue_batch([np.array([1e200, 0.0, 0.0])], [0])
    with pytest.raises(ContractError):
        q.enqueue_batch([unit([1, 1, 1])], [-1])
    with pytest.raises(StructuralError):
        q.enqueue_batch([unit([1, 1])], [0])


@pytest.mark.parametrize("row", [[np.nan] * 3, [1.0, 0.0, np.nan]],
                         ids=["nan_row", "nan_norm_row"])
def test_enqueue_batch_rejects_nan_rows(row):
    """A NaN norm compares false with any tolerance, so it must not pass as
    a norm within it."""
    q = MemoryQueue(4, 3, dtype=np.float64)
    q.enqueue_batch([unit([1, 2, 3])], [0])
    before = copy.deepcopy(q)
    with pytest.raises(ContractError):
        q.enqueue_batch(np.array([unit([0, 1, 0]), row]), [1, 2])
    assert_same_queue(q, before)


@pytest.mark.parametrize("label", [2.7, np.nan, np.inf, 1e30, -0.5],
                         ids=["fraction", "nan", "inf", "beyond_int64", "negative_fraction"])
def test_enqueue_batch_rejects_labels_that_are_not_whole_numbers(label):
    q = MemoryQueue(4, 3, dtype=np.float64)
    q.enqueue_batch([unit([1, 2, 3])], [0.0])
    before = copy.deepcopy(q)
    with pytest.raises(ContractError, match="whole number"):
        q.enqueue_batch([unit([0, 1, 0]), unit([1, 0, 0])], [2.0, label])
    assert_same_queue(q, before)
    q.enqueue_batch([unit([0, 1, 0])], [2.0])
    assert list(q.filled_labels) == [0, 2]


def prefilled(capacity, prefill, seed):
    q = MemoryQueue(capacity, 3, dtype=np.float64)
    for f in random_unit_rows(np.random.default_rng(seed), prefill, 3):
        q.enqueue_batch([f], [1])
    return q


def assert_same_queue(a, b):
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert (a.head, a.fill) == (b.head, b.fill)


@given(st.sampled_from([1, 2, 7, 64]), st.integers(0, 150), st.integers(0, 70),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_enqueue_batch_matches_per_row_enqueue(capacity, n, prefill, seed):
    batched = prefilled(capacity, prefill, seed)
    per_row = prefilled(capacity, prefill, seed)
    rng = np.random.default_rng(seed + 1)
    feats = random_unit_rows(rng, n, 3)
    labels = rng.integers(0, 5, size=n)
    batched.enqueue_batch(feats, labels)
    for f, y in zip(feats, labels):
        per_row.enqueue_batch([f], [y])
    assert_same_queue(batched, per_row)


@given(st.sampled_from([1, 2, 7, 64]), st.integers(1, 150), st.integers(0, 70),
       st.sampled_from(["norm", "label"]), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_enqueue_batch_bad_row_leaves_queue_unchanged(capacity, n, prefill, kind, seed):
    q = prefilled(capacity, prefill, seed)
    rng = np.random.default_rng(seed + 1)
    feats = random_unit_rows(rng, n, 3)
    labels = rng.integers(0, 5, size=n)
    bad = int(rng.integers(0, n))
    if kind == "norm":
        feats[bad] *= 1.01
    else:
        labels[bad] = -1
    before = copy.deepcopy(q)
    with pytest.raises(ContractError):
        q.enqueue_batch(feats, labels)
    assert_same_queue(q, before)


def test_enqueue_batch_shape_checks():
    q = MemoryQueue(4, 3, dtype=np.float64)
    with pytest.raises(StructuralError):
        q.enqueue_batch(np.ones((2, 2)) / np.sqrt(2), [0, 0])
    with pytest.raises(StructuralError):
        q.enqueue_batch(random_unit_rows(np.random.default_rng(0), 2, 3), [0])
    assert (q.head, q.fill) == (0, 0)


@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 7, 64]))
@settings(max_examples=40, deadline=None)
def test_fifo_matches_deque_reference(seed, capacity):
    rng = np.random.default_rng(seed)
    q = MemoryQueue(capacity, 3, dtype=np.float64)
    reference = deque(maxlen=capacity)
    for step in range(200):
        f = random_unit_rows(rng, 1, 3)[0]
        label = int(rng.integers(0, 5))
        q.enqueue_batch([f], [label])
        reference.append((f, label))
        feats, labels = insertion_order(q)
        assert np.array_equal(feats, np.stack([r[0] for r in reference]))
        assert list(labels) == [r[1] for r in reference]


def test_address_single_slot_is_one():
    q = MemoryQueue(4, 3, dtype=np.float64)
    q.enqueue_batch([unit([1, 0, 0])], [0])
    assert np.array_equal(address(q, unit([0, 1, 0])), [1.0])


def test_address_equal_features_uniform():
    q = MemoryQueue(8, 3, dtype=np.float64)
    f = unit([1, 2, 2])
    for _ in range(5):
        q.enqueue_batch([f], [0])
    weights = address(q, unit([3, 1, 0]))
    assert np.allclose(weights, 0.2, atol=1e-12)


def test_address_two_slot_closed_form():
    # logits 1 and 0 -> softmax [e/(e+1), 1/(e+1)]
    q = MemoryQueue(2, 2, dtype=np.float64)
    q.enqueue_batch([np.array([1.0, 0.0])], [0])
    q.enqueue_batch([np.array([0.0, 1.0])], [1])
    weights = address(q, np.array([1.0, 0.0]))
    e = math.e
    assert weights[0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert weights[1] == pytest.approx(1 / (e + 1), abs=1e-12)
    assert weights[0] == pytest.approx(0.7311, abs=1e-4)


def test_address_empty_queue_raises():
    q = MemoryQueue(4, 3, dtype=np.float64)
    with pytest.raises(EmptyMemoryError):
        address(q, unit([1, 0, 0]))


def test_address_shift_invariance_in_logit_space():
    # adding a constant to every similarity logit leaves the softmax unchanged;
    # realized by an extra query component against a constant slot coordinate
    rng = np.random.default_rng(1)
    slots = random_unit_rows(rng, 6, 4)
    raw = rng.normal(size=4)
    q = MemoryQueue(6, 4, dtype=np.float64)
    q.features[:6] = slots
    q.fill = 6
    logits = slots @ raw
    shifted = logits + 3.7
    def softmax(x):
        e = np.exp(x - x.max())
        return e / e.sum()
    assert np.allclose(softmax(logits), softmax(shifted), atol=1e-12)
    assert np.allclose(address(q, raw), softmax(logits), atol=1e-12)


def test_address_naive_vs_stabilized_agreement():
    # logits in [-30, 30]: naive exponentiation agrees with the stabilized path
    rng = np.random.default_rng(2)
    q = MemoryQueue(16, 8, dtype=np.float64)
    slots = random_unit_rows(rng, 16, 8)
    q.features[:] = slots
    q.fill = 16
    query = rng.uniform(-30, 30, size=8)
    logits = slots @ query
    assert np.all(np.abs(logits) <= 30 * 8)
    naive = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(address(q, query), naive, atol=1e-10)


def test_recall_one_hot_returns_slot():
    rng = np.random.default_rng(3)
    q = MemoryQueue(8, 5, dtype=np.float64)
    slots = random_unit_rows(rng, 4, 5)
    q.enqueue_batch(slots, [0, 1, 2, 3])
    a = np.zeros(4)
    a[2] = 1.0
    assert np.array_equal(recall(q, a), slots[2])


def test_recall_antipodal_features_cancel():
    q = MemoryQueue(2, 3, dtype=np.float64)
    f = unit([1, 2, -1])
    q.enqueue_batch([f], [0])
    q.enqueue_batch([-f], [1])
    assert np.allclose(recall(q, [0.5, 0.5]), 0.0, atol=1e-15)


def test_recall_matches_per_coordinate_oracle():
    rng = np.random.default_rng(4)
    slots = random_unit_rows(rng, 7, 6)
    q = MemoryQueue(7, 6, dtype=np.float64)
    q.enqueue_batch(slots, range(7))
    a = rng.dirichlet(np.ones(7))
    mine = recall(q, a)
    oracle = np.array([sum(a[j] * slots[j, d] for j in range(7)) for d in range(6)])
    assert np.allclose(mine, oracle, atol=1e-12)


def test_recall_length_mismatch():
    q = MemoryQueue(4, 3, dtype=np.float64)
    q.enqueue_batch([unit([1, 0, 0])], [0])
    with pytest.raises(StructuralError):
        recall(q, [0.5, 0.5])


def test_recall_for_query_cold_start_and_single_slot():
    q = MemoryQueue(4, 3, dtype=np.float64)
    query = unit([1, 1, 0])
    assert np.array_equal(recall_for_query(q, query), np.zeros(3))
    slot = unit([0, 1, 1])
    q.enqueue_batch([slot], [0])
    assert np.allclose(recall_for_query(q, query), slot, atol=1e-15)


def test_recall_query_gradient_matches_fd_and_slots_frozen():
    rng = np.random.default_rng(5)
    slots = random_unit_rows(rng, 9, 4)
    q = MemoryQueue(9, 4, dtype=np.float64)
    q.enqueue_batch(slots, rng.integers(0, 3, size=9))
    probe = rng.normal(size=4)
    queries = random_unit_rows(rng, 2, 4)

    recalled, cache = recall_batch_with_grad(q, queries)
    grad = recall_batch_backward(cache, np.tile(probe, (2, 1)))

    def scalar(qv):
        out, _ = recall_batch_with_grad(q, qv)
        return float((out * probe).sum())

    fd = fd_grad(scalar, queries)
    assert rel_error(grad, fd) < 1e-4
    before = q.features.copy()
    recall_batch_with_grad(q, queries)
    assert np.array_equal(q.features, before)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_addressing_properties_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 65))
    fill = int(rng.integers(1, k + 1))
    c = int(rng.integers(2, 9))
    q = MemoryQueue(k, c, dtype=np.float64)
    q.enqueue_batch(random_unit_rows(rng, fill, c), rng.integers(0, 4, size=fill))
    query = random_unit_rows(rng, 1, c)[0]
    weights = address(q, query)
    assert weights.shape == (fill,)
    assert abs(weights.sum() - 1.0) < 1e-6
    assert np.all(weights > 0.0) and np.all(weights <= 1.0)
    recalled = recall(q, weights)
    slots = q.filled_features
    assert np.all(recalled >= slots.min(axis=0) - 1e-12)
    assert np.all(recalled <= slots.max(axis=0) + 1e-12)


def test_address_batch_matches_single():
    rng = np.random.default_rng(6)
    q = MemoryQueue(12, 5, dtype=np.float64)
    q.enqueue_batch(random_unit_rows(rng, 10, 5), rng.integers(0, 3, size=10))
    queries = random_unit_rows(rng, 4, 5)
    batch = address_batch(q, queries)
    for i, query in enumerate(queries):
        assert np.allclose(batch[i], address(q, query), atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_norm_check_and_recall_backward_are_their_formulas_bitwise(dtype):
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(40, 8)).astype(dtype)
    bad, norms = off_unit_norm(rows)
    assert_same_bits(norms, np.linalg.norm(rows, axis=1), "norms")
    queue = MemoryQueue(64, 8, dtype=dtype)
    queue.enqueue_batch(random_unit_rows(rng, 50, 8, dtype), rng.integers(0, 3, size=50))
    queries = random_unit_rows(rng, 16, 8, dtype)
    _, cache = recall_batch_with_grad(queue, queries)
    g = rng.normal(size=(16, 8)).astype(dtype)
    weights, mem = cache["weights"], cache["mem"]
    s = g @ mem.T
    want = (weights * (s - (weights * s).sum(axis=1, keepdims=True))) @ mem
    assert_same_bits(recall_batch_backward(cache, g), want, "query gradient")
