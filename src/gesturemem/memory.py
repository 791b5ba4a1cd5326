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

    def enqueue_batch(self, features, labels):
        """Write rows in order at the head, evicting the oldest slots once
        full; a batch longer than ``capacity`` keeps only its last
        ``capacity`` rows.

        All or nothing: the whole batch is checked before any slot is written
        (:class:`StructuralError` for shapes, :class:`ContractError` for a
        norm off 1 by more than ``NORM_TOL``, a non-finite one, or a label
        that is not a non-negative whole number), so a bad row leaves the
        queue unchanged.
        """
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise StructuralError(
                f"expected features [n, {self.feature_dim}], got shape {features.shape}")
        n = features.shape[0]
        if labels.shape != (n,):
            raise StructuralError(f"{labels.shape} labels for {n} features")
        bad, norms = off_unit_norm(features)
        if bad.any():
            raise ContractError(
                f"enqueued feature norm {norms[bad][0]:.6f} deviates from 1")
        if labels.dtype.kind == "f":  # before the cast, which truncates or wraps
            bad = ~((np.abs(labels) < 2.0 ** 63) & (labels == np.trunc(labels)))
            if bad.any():
                raise ContractError(
                    f"class label {labels[bad][0]} is not a finite whole number")
        labels = labels.astype(np.int64, copy=False)
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


def off_unit_norm(rows):
    """(mask of the rows whose L2 norm is off 1 by more than ``NORM_TOL``,
    the norms). A NaN or infinite norm is off too, and so is a row too large
    to square, whose norm overflows to inf without a warning."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1))   # np.linalg.norm's sum
    return ~(np.abs(norms - 1.0) <= NORM_TOL), norms


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
    """Addressing vectors [B, fill] of queries [B, c], a softmax made in place:
    each row is what :func:`address` gives for its query, up to rounding."""
    if queue.fill == 0:
        raise EmptyMemoryError("cannot address an empty memory queue")
    w = queries @ queue.filled_features.T
    w -= np.maximum.reduce(w, axis=1, keepdims=True)
    w /= np.add.reduce(np.exp(w, out=w), axis=1, keepdims=True)
    return w


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
    s -= np.add.reduce(weights * s, axis=1, keepdims=True)
    s *= weights                                    # dL/d(logits)
    return s @ mem
