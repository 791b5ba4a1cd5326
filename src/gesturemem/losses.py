"""Classification and contrastive losses with explicit gradients.

Two contrastive terms are provided. The memory-augmented loss contrasts each
anchor feature against the frozen memory queue: positives are slots sharing the
anchor's class, and the denominator covers (by default) only the
different-class slots, so the loss is not bounded below by zero. The
batch-views supervised contrastive loss is the in-batch baseline over two
augmented views per sample. Both reduce by summation over anchors; the
cross-entropy term averages over the batch.

An anchor counts when it has a positive and a non-empty denominator. A
training step against a filled memory of every class has only such anchors;
then both losses work on the whole [B, K] similarity arrays, with the softmax
exponentiated and normalized in place, and gather nothing. Otherwise they
work on a gather of the anchors that count, with the same arithmetic, so a
row's loss and gradient do not depend on which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, StructuralError

DENOMINATOR_MODES = ("negatives", "all")


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.07
    mal_weight: float = 1.0
    denominator_mode: str = "negatives"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.mal_weight < 0:
            raise ConfigError(f"mal_weight must be >= 0, got {self.mal_weight}")
        if self.denominator_mode not in DENOMINATOR_MODES:
            raise ConfigError(
                f"denominator_mode must be one of {DENOMINATOR_MODES}, "
                f"got {self.denominator_mode!r}")


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
    norms = np.sqrt((features * features).sum(axis=1))
    worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    if worst > 1e-3:
        raise ContractError(f"{what} must be L2-normalized (worst deviation {worst:.2e})")


def _anchor_loss_and_coeff(sims, pos_mask, den_mask):
    """Shared core: per-anchor loss rows and the softmax-minus-positives matrix.

    sims: [B, K] similarities already divided by the temperature. Anchors with
    no positives or an empty denominator contribute zero loss and gradient.
    Returns (loss_rows [B], coeff [B, K]) with coeff rows zeroed for skipped
    anchors; the feature gradient of anchor i is ``coeff[i] @ contrast / tau``.
    When every anchor counts, as in a training step against a filled memory,
    the whole arrays go straight to :func:`_valid_anchor_loss_and_coeff`;
    otherwise only a gather of the valid anchors does.
    """
    b = sims.shape[0]
    pos_cnt = np.add.reduce(pos_mask, axis=1)
    valid = (pos_cnt > 0) & np.logical_or.reduce(den_mask, axis=1)
    if b and valid.all():
        return _valid_anchor_loss_and_coeff(sims, pos_mask, den_mask, pos_cnt)
    loss_rows = np.zeros(b, dtype=np.float64)
    coeff = np.zeros_like(sims)
    if valid.any():
        v = np.flatnonzero(valid)
        loss_rows[v], coeff[v] = _valid_anchor_loss_and_coeff(
            sims[v], pos_mask[v], den_mask[v], pos_cnt[v])
    return loss_rows, coeff


def _valid_anchor_loss_and_coeff(sims, pos_mask, den_mask, pos_cnt):
    """:func:`_anchor_loss_and_coeff` of anchors that all have a positive and
    a non-empty denominator; ``pos_cnt`` counts each row's positives. The
    softmax is exponentiated and normalized in place in one fresh array,
    which becomes ``coeff``."""
    e = np.where(den_mask, sims, -np.inf)
    m = np.maximum.reduce(e, axis=1, keepdims=True)
    e -= m
    np.exp(e, out=e)
    denom = np.add.reduce(e, axis=1, keepdims=True)
    lse = (m + np.log(denom))[:, 0]
    mean_pos = np.add.reduce(sims * pos_mask, axis=1) / pos_cnt
    e /= denom
    e -= pos_mask * (1.0 / pos_cnt)[:, None]    # pos_mask / pos_cnt, in float64
    return lse - mean_pos, e


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
    _check_normalized(features, "anchor features")
    mem = queue.filled_features.astype(features.dtype, copy=False)
    mem_labels = queue.filled_labels
    sims = features @ mem.T
    sims /= cfg.temperature
    pos_mask = mem_labels[None, :] == labels[:, None]
    if cfg.denominator_mode == "negatives":
        den_mask = ~pos_mask
    else:
        den_mask = np.ones_like(pos_mask)
    loss_rows, coeff = _anchor_loss_and_coeff(sims, pos_mask, den_mask)
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
    _check_normalized(features, "batch features")
    sims = features @ features.T / cfg.temperature
    not_self = ~np.eye(n, dtype=bool)
    pos_mask = (labels[None, :] == labels[:, None]) & not_self
    loss_rows, coeff = _anchor_loss_and_coeff(sims, pos_mask, not_self)
    grad = ((coeff + coeff.T) @ features) / cfg.temperature
    return float(loss_rows.sum()), grad.astype(features.dtype, copy=False)


def total_loss(ce, mal, cfg):
    """Combined objective: cross-entropy plus the weighted contrastive term."""
    return ce + cfg.mal_weight * mal
