"""Classification and contrastive losses with explicit gradients.

Two contrastive terms are provided. The memory-augmented loss contrasts each
anchor feature against the frozen memory queue: positives are slots sharing the
anchor's class, and the denominator covers only the different-class slots, so
the loss is not bounded below by zero. The batch-views supervised contrastive
loss is the in-batch baseline over two augmented views per sample. Both reduce
by summation over anchors; the cross-entropy term averages over the batch.
Their ``cfg`` is the training config
(:class:`~gesturemem.training.TrainConfig`), of which both read only the
``temperature``.

An anchor counts when it has a positive and a non-empty denominator. Both
losses run one softmax over the whole [B, K] similarity arrays, exponentiated
and normalized in place, and then zero the rows of the anchors that do not
count. Every operation works row by row, so a row's loss and gradient do not
depend on the other rows.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, StructuralError
from .memory import off_unit_norm


def softmax_cross_entropy_batch(logits, labels):
    """Mean cross-entropy over a batch of logits.

    Returns ``(loss, grad_logits, probs)`` with the gradient already divided by
    the batch size.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    rows = np.arange(n)
    logp = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logp -= np.log(np.add.reduce(np.exp(logp), axis=1, keepdims=True))
    loss = float(-(np.add.reduce(logp[rows, labels]) / n))   # .mean()'s sum and divide
    probs = np.exp(logp)
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad, probs


def _check_normalized(features, what):
    bad, norms = off_unit_norm(features)
    if bad.any():
        raise ContractError(f"{what} norm {norms[bad][0]:.6f} deviates from 1")


def _anchor_loss_and_coeff(sims, pos_mask, den_mask):
    """Shared core: per-anchor loss rows and the softmax-minus-positives matrix.

    sims: [B, K] similarities already divided by the temperature. Anchors with
    no positives or an empty denominator contribute zero loss and gradient.
    Returns (loss_rows [B] float64, coeff [B, K]) with coeff rows zeroed for
    skipped anchors; the feature gradient of anchor i is
    ``coeff[i] @ contrast / tau``. The softmax runs on the whole arrays, in
    place in one fresh array that becomes ``coeff``; the rows of skipped
    anchors, NaN where a count is zero, are then overwritten with zeros.
    """
    pos_cnt = np.add.reduce(pos_mask, axis=1)
    valid = (pos_cnt > 0) & np.logical_or.reduce(den_mask, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.where(den_mask, sims, -np.inf)
        m = np.maximum.reduce(e, axis=1, keepdims=True)
        e -= m
        np.exp(e, out=e)
        denom = np.add.reduce(e, axis=1, keepdims=True)
        lse = (m + np.log(denom))[:, 0]
        mean_pos = np.add.reduce(sims * pos_mask, axis=1) / pos_cnt
        e /= denom
        e -= pos_mask * (1.0 / pos_cnt)[:, None]    # pos_mask / pos_cnt, in float64
    loss_rows = lse - mean_pos
    if not valid.all():
        loss_rows[~valid] = 0.0
        e[~valid] = 0.0
    return loss_rows, e


def memory_augmented_loss_with_grad(features, labels, queue, cfg):
    """Contrastive loss of anchor features against the frozen memory queue.

    Summed over anchors. Gradients flow only into ``features``; slot contents
    are treated as constants. Returns ``(loss, grad_features)``.
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise StructuralError("features must be [B, c] with one label per row")
    if queue.fill == 0:
        return 0.0, np.zeros_like(features)
    _check_normalized(features, "anchor feature")
    mem = queue.filled_features.astype(features.dtype, copy=False)
    mem_labels = queue.filled_labels
    sims = features @ mem.T
    sims /= cfg.temperature
    pos_mask = mem_labels[None, :] == labels[:, None]
    loss_rows, coeff = _anchor_loss_and_coeff(sims, pos_mask, ~pos_mask)
    grad = coeff @ mem
    grad /= cfg.temperature
    return float(loss_rows.sum()), grad.astype(features.dtype, copy=False)


def supervised_contrastive_loss_with_grad(features, labels, cfg):
    """In-batch supervised contrastive loss over a multiview batch.

    Positives are same-class batch members other than the anchor; the
    denominator is everyone but the anchor. Anchors without positives are
    skipped. Summed over anchors; gradients cover every appearance of a
    feature (as anchor and as contrast element).
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise StructuralError("features must be [N, c] with one label per row")
    n = features.shape[0]
    if n < 2:
        return 0.0, np.zeros_like(features)
    _check_normalized(features, "batch feature")
    sims = features @ features.T / cfg.temperature
    not_self = ~np.eye(n, dtype=bool)
    pos_mask = (labels[None, :] == labels[:, None]) & not_self
    loss_rows, coeff = _anchor_loss_and_coeff(sims, pos_mask, not_self)
    grad = ((coeff + coeff.T) @ features) / cfg.temperature
    return float(loss_rows.sum()), grad.astype(features.dtype, copy=False)
