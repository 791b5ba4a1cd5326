"""External feature memory: a FIFO queue with softmax similarity addressing.

Each slot stores an L2-normalized feature vector plus its class label. Queries
are matched against all filled slots by exponentiated dot-product similarity
(the addressing vector); recall is the addressing-weighted average of stored
features. Stored features are constants with respect to back-propagation: the
gradient helpers only ever produce gradients for the query.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, EmptyMemoryError, StructuralError

NORM_TOL = 1e-3


class MemoryQueue:
    """Ring buffer of ``capacity`` (feature, label) slots with FIFO eviction."""

    def __init__(self, capacity, feature_dim, dtype=np.float32):
        if capacity < 1 or feature_dim < 1:
            raise ConfigError("capacity and feature_dim must be >= 1")
        self.capacity = int(capacity)
        self.feature_dim = int(feature_dim)
        self.features = np.zeros((self.capacity, self.feature_dim), dtype=dtype)
        self.labels = np.zeros(self.capacity, dtype=np.int64)
        self.fill = 0
        self.head = 0

    def __len__(self):
        return self.fill

    def enqueue(self, feature, label):
        """Write one slot at the head, evicting the oldest entry once full."""
        self.enqueue_batch(np.asarray(feature)[None], [label])

    def enqueue_batch(self, features, labels):
        """Write rows in order, leaving the slots, ``head`` and ``fill`` that
        one :meth:`enqueue` per row would leave.

        All or nothing: the whole batch is checked before any slot is written
        (:class:`StructuralError` for shapes, :class:`ContractError` for a
        norm off 1 by more than ``NORM_TOL`` or a negative label), so a bad
        row leaves the queue unchanged. A batch longer than ``capacity``
        keeps only its last ``capacity`` rows.
        """
        features = np.asarray(features)
        labels = np.asarray(labels).astype(np.int64, copy=False)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise StructuralError(
                f"expected features [n, {self.feature_dim}], got shape {features.shape}")
        n = features.shape[0]
        if labels.shape != (n,):
            raise StructuralError(f"{labels.shape} labels for {n} features")
        norms = np.linalg.norm(features, axis=1)
        bad = np.abs(norms - 1.0) > NORM_TOL
        if bad.any():
            raise ContractError(
                f"enqueued feature norm {norms[bad][0]:.6f} deviates from 1")
        if (labels < 0).any():
            raise ContractError(f"negative class label {labels[labels < 0][0]}")
        # rows that a longer batch would overwrite never need writing
        keep = min(n, self.capacity)
        start = (self.head + n - keep) % self.capacity
        first = min(keep, self.capacity - start)
        self.features[start:start + first] = features[n - keep:n - keep + first]
        self.labels[start:start + first] = labels[n - keep:n - keep + first]
        self.features[:keep - first] = features[n - keep + first:]
        self.labels[:keep - first] = labels[n - keep + first:]
        self.head = (self.head + n) % self.capacity
        self.fill = min(self.fill + n, self.capacity)

    @property
    def filled_features(self):
        """Filled slots in storage order (the order addressing vectors use)."""
        return self.features[:self.fill]

    @property
    def filled_labels(self):
        return self.labels[:self.fill]


def address(queue, query):
    """Softmax-normalized similarity of a query against all filled slots.

    Computed with max-subtraction stabilization; entries are positive and sum
    to one. Raises :class:`EmptyMemoryError` on an empty queue so the caller
    can apply its cold-start policy.
    """
    if queue.fill == 0:
        raise EmptyMemoryError("cannot address an empty memory queue")
    logits = queue.filled_features @ query
    m = logits.max()
    w = np.exp(logits - m)
    return w / w.sum()


def address_batch(queue, queries):
    """Addressing vectors [B, fill] of queries [B, c]: each row is what
    :func:`address` gives for its query, up to rounding."""
    if queue.fill == 0:
        raise EmptyMemoryError("cannot address an empty memory queue")
    logits = queries @ queue.filled_features.T
    m = logits.max(axis=1, keepdims=True)
    w = np.exp(logits - m)
    return w / w.sum(axis=1, keepdims=True)


def recall(queue, weights):
    """Addressing-weighted average of stored features (convex combination)."""
    weights = np.asarray(weights)
    if weights.shape != (queue.fill,):
        raise StructuralError(
            f"addressing vector length {weights.shape} != fill {queue.fill}")
    return weights @ queue.filled_features


def recall_for_query(queue, query):
    """Recall against a query with the cold-start policy: empty queue -> zeros."""
    if queue.fill == 0:
        return np.zeros(queue.feature_dim, dtype=np.asarray(query).dtype)
    return recall(queue, address(queue, query))


def recall_batch_with_grad(queue, queries):
    """Batched recall returning a cache for the query-side backward pass.

    queries: [B, c]. Returns (recalled [B, c], cache). With an empty queue the
    recalled features are zero and the backward pass is a no-op.
    """
    if queue.fill == 0:
        return np.zeros_like(queries), None
    mem = queue.filled_features
    weights = address_batch(queue, queries)
    return weights @ mem, {"weights": weights, "mem": mem}


def recall_batch_backward(cache, grad_recalled):
    """Gradient of recalled features w.r.t. the queries only (slots are frozen)."""
    if cache is None:
        return np.zeros_like(grad_recalled)
    weights, mem = cache["weights"], cache["mem"]
    s = grad_recalled @ mem.T                       # dL/d(weights)
    g_logits = weights * (s - (weights * s).sum(axis=1, keepdims=True))
    return g_logits @ mem
