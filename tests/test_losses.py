import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem import losses
from gesturemem.errors import ConfigError, ContractError
from gesturemem.losses import (memory_augmented_loss_with_grad,
                               softmax_cross_entropy_batch,
                               supervised_contrastive_loss_with_grad)
from gesturemem.memory import MemoryQueue
from gesturemem.training import TrainConfig

from helpers import (assert_same_bits, fd_grad, oracle_anchor_loss_and_coeff,
                     oracle_memory_augmented_loss,
                     oracle_supervised_contrastive_loss, rel_error, random_unit_rows)

CFG = TrainConfig(temperature=0.07)


def make_queue(features, labels):
    q = MemoryQueue(len(features), features.shape[1], dtype=np.float64)
    q.enqueue_batch(features, labels)
    return q


def brute_force_mal(features, labels, mem, mem_labels, cfg):
    """Direct double-sum over (anchor, positive) with an explicit denominator."""
    total = 0.0
    for i in range(len(features)):
        pos = [p for p in range(len(mem)) if mem_labels[p] == labels[i]]
        if cfg.denominator_mode == "negatives":
            den = [a for a in range(len(mem)) if mem_labels[a] != labels[i]]
        else:
            den = list(range(len(mem)))
        if not pos or not den:
            continue
        denom = sum(math.exp(float(features[i] @ mem[a]) / cfg.temperature)
                    for a in den)
        for p in pos:
            num = math.exp(float(features[i] @ mem[p]) / cfg.temperature)
            total += -math.log(num / denom) / len(pos)
    return total


def brute_force_scl(features, labels, cfg):
    total = 0.0
    n = len(features)
    for i in range(n):
        pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        den = [a for a in range(n) if a != i]
        if not pos or not den:
            continue
        denom = sum(math.exp(float(features[i] @ features[a]) / cfg.temperature)
                    for a in den)
        for p in pos:
            num = math.exp(float(features[i] @ features[p]) / cfg.temperature)
            total += -math.log(num / denom) / len(pos)
    return total


# --- cross entropy ---------------------------------------------------------------

def test_cross_entropy_one_hot():
    loss, _, probs = softmax_cross_entropy_batch(np.array([[0.0, 0.0, 100.0, 0.0]]), [2])
    assert loss <= 1e-12 and probs[0, 2] == pytest.approx(1.0, abs=1e-12)


def test_cross_entropy_closed_forms():
    loss, _, _ = softmax_cross_entropy_batch(np.zeros((1, 11)), [3])
    assert loss == pytest.approx(math.log(11), abs=1e-12)
    logits = np.log([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    loss, _, _ = softmax_cross_entropy_batch(logits, [0, 1])
    assert loss == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_is_its_formula_bitwise(dtype):
    rng = np.random.default_rng(8)
    logits = (rng.normal(size=(16, 5)) * 4).astype(dtype)
    labels = rng.integers(0, 5, size=16)
    loss, grad, probs = softmax_cross_entropy_batch(logits, labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert loss == float(-logp[np.arange(16), labels].mean())
    assert_same_bits(probs, np.exp(logp), "probabilities")
    want = np.exp(logp)
    want[np.arange(16), labels] -= 1.0
    assert_same_bits(grad, want / 16, "gradient")


def test_softmax_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    _, grad, _ = softmax_cross_entropy_batch(logits, labels)
    fd = fd_grad(lambda lg: softmax_cross_entropy_batch(lg, labels)[0], logits)
    assert rel_error(grad, fd) < 1e-6


# --- memory augmented loss -------------------------------------------------------

def test_mal_empty_queue_is_zero():
    rng = np.random.default_rng(1)
    feats = random_unit_rows(rng, 3, 8)
    q = MemoryQueue(16, 8, dtype=np.float64)
    loss, grad = memory_augmented_loss_with_grad(feats, [0, 1, 2], q, CFG)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(feats))


def test_mal_all_same_class_slots_skipped():
    # denominator (different-class slots) is empty -> anchors contribute zero
    rng = np.random.default_rng(2)
    feats = random_unit_rows(rng, 2, 8)
    q = make_queue(random_unit_rows(rng, 5, 8), [3] * 5)
    loss = memory_augmented_loss_with_grad(feats, [3, 3], q, CFG)[0]
    assert loss == 0.0


def test_mal_single_anchor_closed_form():
    rng = np.random.default_rng(3)
    f = random_unit_rows(rng, 1, 3)
    slots = random_unit_rows(rng, 2, 3)
    q = make_queue(slots, [0, 1])
    loss = memory_augmented_loss_with_grad(f, [0], q, CFG)[0]
    expected = -(float(f[0] @ slots[0]) / CFG.temperature
                 - float(f[0] @ slots[1]) / CFG.temperature)
    assert loss == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("mode", ["negatives", "all"])
def test_mal_matches_brute_force_oracle(mode):
    cfg = TrainConfig(temperature=0.07, denominator_mode=mode)
    rng = np.random.default_rng(4)
    for _ in range(200):
        b = int(rng.integers(1, 9))
        k = int(rng.integers(1, 17))
        c = int(rng.integers(2, 6))
        n_classes = int(rng.integers(1, 5))
        feats = random_unit_rows(rng, b, c)
        labels = rng.integers(0, n_classes, size=b)
        slots = random_unit_rows(rng, k, c)
        slot_labels = rng.integers(0, n_classes, size=k)
        q = make_queue(slots, slot_labels)
        mine = memory_augmented_loss_with_grad(feats, labels, q, cfg)[0]
        oracle = brute_force_mal(feats, labels, slots, slot_labels, cfg)
        assert mine == pytest.approx(oracle, abs=1e-10)


def test_mal_gradient_matches_fd_and_is_zero_for_slots():
    rng = np.random.default_rng(5)
    feats = random_unit_rows(rng, 4, 6)
    labels = np.array([0, 1, 0, 2])
    slots = random_unit_rows(rng, 10, 6)
    slot_labels = rng.integers(0, 3, size=10)
    q = make_queue(slots, slot_labels)
    loss, grad = memory_augmented_loss_with_grad(feats, labels, q, CFG)

    fd = fd_grad(lambda f: brute_force_mal(f, labels, q.filled_features,
                                           q.filled_labels, CFG), feats)
    assert rel_error(grad, fd) < 1e-4
    # perturbing slots changes the mathematical loss, but the implementation
    # exposes no slot gradient: slots are constants under the stop-gradient
    before = q.features.copy()
    memory_augmented_loss_with_grad(feats, labels, q, CFG)
    assert np.array_equal(q.features, before)


def test_mal_can_be_negative_without_clamping():
    # one positive far more similar than the lone negative
    f = np.zeros((1, 3))
    f[0, 0] = 1.0
    slots = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    q = make_queue(slots, [0, 1])
    loss = memory_augmented_loss_with_grad(f, [0], q, CFG)[0]
    assert loss < 0.0


def test_mal_rotation_invariance():
    rng = np.random.default_rng(6)
    feats = random_unit_rows(rng, 3, 5)
    labels = [0, 1, 1]
    slots = random_unit_rows(rng, 8, 5)
    slot_labels = rng.integers(0, 2, size=8)
    base, _ = memory_augmented_loss_with_grad(feats, labels,
                                              make_queue(slots, slot_labels), CFG)
    rot, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rotated, _ = memory_augmented_loss_with_grad(
        feats @ rot.T, labels, make_queue(slots @ rot.T, slot_labels), CFG)
    assert rotated == pytest.approx(base, abs=1e-9)


def test_mal_monotone_in_positive_similarity():
    # rotating the anchor toward its sole positive strictly decreases the loss
    positive = np.array([1.0, 0.0])
    negative = np.array([0.0, 1.0])
    q = make_queue(np.stack([positive, negative]), [0, 1])
    losses = []
    for angle in (1.2, 0.9, 0.6, 0.3, 0.05):
        f = np.array([[math.cos(angle), math.sin(angle)]])
        losses.append(memory_augmented_loss_with_grad(f, [0], q, CFG)[0])
    assert all(a > b for a, b in zip(losses, losses[1:]))


OFF_UNIT_ROWS = [pytest.param([2.0, 0.0], id="long"), pytest.param([np.nan, 0.0], id="nan"),
                 pytest.param([np.inf, 0.0], id="inf"),
                 pytest.param([1e200, 0.0], id="too_large_to_square")]


@pytest.mark.parametrize("row", OFF_UNIT_ROWS)
def test_mal_rejects_unnormalized_features(row):
    q = make_queue(np.array([[1.0, 0.0]]), [0])
    with pytest.raises(ContractError, match="anchor feature norm .* deviates from 1"):
        memory_augmented_loss_with_grad(np.array([row, [1.0, 0.0]]), [0, 0], q, CFG)


# --- supervised contrastive loss -------------------------------------------------

def test_scl_all_unique_classes_is_zero():
    rng = np.random.default_rng(7)
    feats = random_unit_rows(rng, 4, 5)
    loss = supervised_contrastive_loss_with_grad(feats, [0, 1, 2, 3], CFG)[0]
    assert loss == 0.0


def test_scl_two_identical_same_class_is_zero():
    f = random_unit_rows(np.random.default_rng(8), 1, 4)
    feats = np.vstack([f, f])
    loss = supervised_contrastive_loss_with_grad(feats, [1, 1], CFG)[0]
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_scl_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        c = int(rng.integers(2, 6))
        feats = random_unit_rows(rng, n, c)
        labels = rng.integers(0, 3, size=n)
        mine = supervised_contrastive_loss_with_grad(feats, labels, CFG)[0]
        oracle = brute_force_scl(feats, labels, CFG)
        assert mine == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("row", OFF_UNIT_ROWS)
def test_scl_rejects_unnormalized_features(row):
    with pytest.raises(ContractError, match="batch feature norm .* deviates from 1"):
        supervised_contrastive_loss_with_grad(np.array([[1.0, 0.0], row]), [0, 0], CFG)


def test_scl_gradient_matches_fd():
    rng = np.random.default_rng(10)
    feats = random_unit_rows(rng, 6, 4)
    labels = np.array([0, 0, 1, 1, 2, 0])
    _, grad = supervised_contrastive_loss_with_grad(feats, labels, CFG)
    fd = fd_grad(lambda f: brute_force_scl(f, labels, CFG), feats)
    assert rel_error(grad, fd) < 1e-4


# --- the loss fields of the training config --------------------------------------

def test_loss_config_validation():
    with pytest.raises(ConfigError, match="temperature must be positive"):
        TrainConfig(temperature=0.0)
    with pytest.raises(ConfigError, match="mal_weight must be >= 0"):
        TrainConfig(mal_weight=-1.0)
    with pytest.raises(ConfigError, match="denominator_mode must be one of"):
        TrainConfig(denominator_mode="sometimes")


# --- bitwise agreement with the gathered-anchor oracle --------------------------


@st.composite
def contrast_cases(draw):
    """Unit anchors, their labels and a filled queue where all, some or none of
    the anchors have a positive slot (and, under "negatives", a negative one)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    validity = draw(st.sampled_from(["all", "some", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(0, 24))
    k = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 8))
    if validity == "all":        # slots of classes 0-2; anchors of classes 0-2
        slot_labels = np.r_[0, 1, 2, rng.integers(0, 3, size=k)]
        labels = rng.integers(0, 3, size=b)
    elif validity == "some":     # slots of classes 0-1; anchors of 0-3
        slot_labels = rng.integers(0, 2, size=k)
        labels = rng.integers(0, 4, size=b)
    else:                        # no anchor class among the slots
        slot_labels = rng.integers(0, 2, size=k)
        labels = rng.integers(2, 5, size=b)
    queue = MemoryQueue(len(slot_labels), dim, dtype=dtype)
    queue.enqueue_batch(random_unit_rows(rng, len(slot_labels), dim, dtype), slot_labels)
    features = random_unit_rows(rng, b, dim, dtype)
    cfg = TrainConfig(temperature=draw(st.sampled_from([0.07, 0.5, 1.0])),
                      denominator_mode=draw(st.sampled_from(["negatives", "all"])))
    return features, labels, queue, cfg, validity


@given(contrast_cases())
@settings(max_examples=200, deadline=None)
def test_contrastive_losses_match_the_oracle_bitwise(case):
    features, labels, queue, cfg, validity = case
    loss, grad = memory_augmented_loss_with_grad(features, labels, queue, cfg)
    loss_o, grad_o = oracle_memory_augmented_loss(features, labels, queue, cfg)
    assert_same_bits(loss, loss_o, "MAL loss")
    assert_same_bits(grad, grad_o, "MAL gradient")

    # the core itself, on the MAL's masks and on SupCon's
    sims = features @ queue.filled_features.T / cfg.temperature
    pos_mask = queue.filled_labels[None, :] == labels[:, None]
    den_mask = ~pos_mask if cfg.denominator_mode == "negatives" else np.ones_like(pos_mask)
    out = losses._anchor_loss_and_coeff(sims, pos_mask, den_mask)
    out_o = oracle_anchor_loss_and_coeff(sims, pos_mask, den_mask)
    for a, a_o, what in zip(out, out_o, ("loss rows", "coeff")):
        assert_same_bits(a, a_o, what)
    if validity == "none" and len(labels):
        assert not out[1].any()

    # SupCon over the anchors and the slots as one batch: every anchor of a
    # repeated class is valid, a singleton is not
    batch = np.concatenate([features, queue.filled_features])
    batch_labels = np.concatenate([labels, queue.filled_labels])
    if len(batch) >= 2:
        loss, grad = supervised_contrastive_loss_with_grad(batch, batch_labels, cfg)
        loss_o, grad_o = oracle_supervised_contrastive_loss(batch, batch_labels, cfg)
        assert_same_bits(loss, loss_o, "SupCon loss")
        assert_same_bits(grad, grad_o, "SupCon gradient")
