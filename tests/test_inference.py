import dataclasses
import io
import json
import logging
import math
import socket
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem import encoder as enc
from gesturemem import inference
from gesturemem.dataset import (SplitSpec, SynthesisConfig, preprocess,
                                synthesize_recordings, window_dataset)
from gesturemem.errors import ConfigError, ContractError, NonFiniteError, StructuralError
from gesturemem.memory import recall_for_query
from gesturemem.inference import (FrozenModel, StreamSession, latency_estimate,
                                  predict, predict_batch, serve_connection,
                                  window_features)
from gesturemem.training import TrainConfig, init_state, train

from helpers import oracle_predict, query_basis, random_unit_rows

SPLIT = SplitSpec.from_lists(["s00", "s01", "s02"], ["s03", "s04"])


def untrained_model(use_recall=True, seed=0, n_classes=3, **overrides):
    base = dict(short_len=6, window_scale=2, queue_capacity=16, feature_dim=8,
                width=4, batch_size=4, epochs=0, seed=seed, use_recall=use_recall,
                dtype="float64")
    base.update(overrides)
    config = TrainConfig(**base)
    state = init_state(config, [f"g{i}" for i in range(n_classes)])
    return FrozenModel.from_state(state), state


def trained_model(epochs=2):
    recordings, label_map = synthesize_recordings(
        SynthesisConfig(classes=("standing", "walking", "jumping"), subjects=5,
                        frames_per_class=60), 0)
    config = TrainConfig(short_len=6, window_scale=2, stride=3, queue_capacity=64,
                         feature_dim=8, width=4, batch_size=8, epochs=epochs,
                         learning_rate=0.01, seed=0)
    result = train(config, recordings, label_map, SPLIT)
    return FrozenModel.from_state(result.state), recordings, label_map


def test_latency_estimate_paper_settings():
    assert latency_estimate(6, 30, 12) == 192.0
    assert latency_estimate(10, 30, 12) == 312.0
    assert latency_estimate(1, 0, 0) == 0.0


def test_latency_estimate_rejects_negative():
    with pytest.raises(StructuralError):
        latency_estimate(-1, 30, 12)


def test_predict_cold_start_reduces_to_decoder_path():
    model, state = untrained_model(use_recall=True)
    assert model.queue.fill == 0
    x = np.random.default_rng(1).normal(size=(3, 6, 3))
    cls, probs = predict(model, x)
    feature, _ = enc.encode_forward(model.params, x[None], model.adjacency,
                                    model.encoder_cfg)
    direct = enc.classify(model.decoder, feature[0])
    assert np.array_equal(probs, direct)
    assert cls == int(direct.argmax())


def test_predict_deterministic_and_tie_break():
    model, state = untrained_model()
    x = np.random.default_rng(2).normal(size=(3, 6, 3))
    c1, p1 = predict(model, x)
    c2, p2 = predict(model, x)
    assert c1 == c2 and np.array_equal(p1, p2)
    # ties break toward the lowest class index
    state.decoder["w"][:] = 0.0
    state.decoder["b"][:] = 0.0
    cls, probs = predict(FrozenModel.from_state(state), x)
    assert cls == 0 and np.allclose(probs, 1.0 / len(probs))


def test_predict_validation():
    model, _ = untrained_model()
    with pytest.raises(StructuralError):
        predict(model, np.zeros((3, 5, 3)))  # wrong T
    bad = np.zeros((3, 6, 3))
    bad[1, 2, 0] = np.inf
    with pytest.raises(NonFiniteError):
        predict(model, bad)


def test_predict_uses_memory_when_filled():
    _, state = untrained_model(use_recall=True)
    rng = np.random.default_rng(3)
    state.queue.enqueue_batch(random_unit_rows(rng, 5, 8), [0] * 5)
    model = FrozenModel.from_state(state)
    x = rng.normal(size=(3, 6, 3))
    _, probs_with = predict(model, x)
    _, state_no = untrained_model(use_recall=False)
    state_no.queue.enqueue_batch(random_unit_rows(np.random.default_rng(3), 5, 8),
                                 [0] * 5)
    model_no = FrozenModel.from_state(state_no)
    assert model.queue.fill == model_no.queue.fill == 5
    _, probs_without = predict(model_no, x)
    assert not np.allclose(probs_with, probs_without)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_predict_bitwise_equals_raw_params_path(dtype, blocks, k):
    """predict gives exactly the bits of the single-window oracle: raw-dict
    encode, decoder logits, single-query addressing times the decoder folded
    into the memory, sum and softmax; with recall on and off, against an empty
    and a filled queue."""
    rng = np.random.default_rng(blocks * 10 + k)
    for use_recall in (True, False):
        model, state = untrained_model(use_recall=use_recall, dtype=dtype,
                                       blocks=blocks, temporal_kernel=k,
                                       center=True, input_scale=1000.0)
        for filled in (False, True):
            if filled:
                state.queue.enqueue_batch(
                    random_unit_rows(rng, 12, 8, dtype=model.dtype),
                    rng.integers(0, 3, size=12))
                model = FrozenModel.from_state(state)
            assert (model.queue.fill > 0) == filled
            for _ in range(3):
                window = rng.normal(size=(3, 6, 3))
                cls, probs = predict(model, window)
                ref_cls, ref = oracle_predict(model, window)
                assert probs.dtype == model.dtype
                assert np.array_equal(probs, ref) and cls == ref_cls


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
def test_predict_batch_matches_per_window_predict(dtype, tol):
    """A batch reorders the BLAS sums, so it is close to, not bitwise, predict."""
    _, state = untrained_model(dtype=dtype, center=True, input_scale=1000.0)
    rng = np.random.default_rng(13)
    state.queue.enqueue_batch(random_unit_rows(rng, 12, 8, dtype=state.config.np_dtype),
                              rng.integers(0, 3, size=12))
    model = FrozenModel.from_state(state)
    assert model.queue.fill == 12
    windows = rng.normal(size=(7, 3, 6, 3))
    classes, probs = predict_batch(model, windows)
    assert probs.shape == (7, 3) and probs.dtype == model.dtype
    for i, window in enumerate(windows):
        cls, p = predict(model, window)
        assert np.abs(probs[i] - p).max() <= tol
        assert classes[i] == cls


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
def test_folded_readout_matches_recall_then_classify(dtype, tol):
    """Decoding the recall through the model's readout reorders the sums of
    recall, ``+`` and ``classify``: close to that unfolded path, never a class
    apart."""
    _, state = untrained_model(dtype=dtype, center=True, input_scale=1000.0)
    rng = np.random.default_rng(16)
    state.queue.enqueue_batch(random_unit_rows(rng, 16, 8, dtype=state.config.np_dtype),
                              rng.integers(0, 3, size=16))
    model = FrozenModel.from_state(state)
    windows = rng.normal(size=(120, 3, 6, 3))
    for window in windows:
        cls, probs = predict(model, window)
        f = window_features(model, window[None])[0]
        unfolded = enc.classify(model.decoder, f + recall_for_query(model.queue, f))
        assert np.abs(probs - unfolded).max() <= tol
        assert cls == int(unfolded.argmax())


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
@pytest.mark.parametrize("slots", ["query", "negated", "mixed", "equal"])
def test_folded_readout_bound_on_a_big_adversarial_queue(dtype, tol, slots):
    """The served memory read (no max pass, the normalizer from the readout's
    ones row) stays within the bound of the max-subtracted unfolded path on
    4096 slots at the ends of the logit range: every slot a copy of the
    query (all logits 1) or of its negation (all -1), random slots with a
    quarter of each, and one random slot repeated throughout."""
    _, state = untrained_model(dtype=dtype, center=True, input_scale=1000.0,
                               queue_capacity=4096)
    rng = np.random.default_rng(22)
    plain = FrozenModel.from_state(state)
    labels = rng.integers(0, 3, size=4096)
    for window in rng.normal(size=(6, 3, 6, 3)):
        f = window_features(plain, window[None])[0]  # the query predict makes
        if slots == "query":
            rows = np.repeat(f[None], 4096, axis=0)
        elif slots == "negated":
            rows = np.repeat(-f[None], 4096, axis=0)
        elif slots == "mixed":
            rows = random_unit_rows(rng, 4096, 8, dtype=f.dtype)
            rows[rng.permutation(4096)[:2048]] = np.r_[[f] * 1024, [-f] * 1024]
        else:
            rows = np.repeat(random_unit_rows(rng, 1, 8, dtype=f.dtype), 4096, axis=0)
        state.queue.enqueue_batch(rows, labels)
        model = FrozenModel.from_state(state)
        assert model.queue.fill == 4096
        cls, probs = predict(model, window)
        unfolded = enc.classify(model.decoder, f + recall_for_query(model.queue, f))
        assert np.abs(probs - unfolded).max() <= tol
        # the negated query cancels f exactly: the logits are the bias, a tie
        assert unfolded.max() - unfolded[cls] <= tol


def softmax64(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# float32 rounds a probability by up to eps/2; the memory read's float32 sums
# over 65536 slots may add a few eps more. Fixed before the run at 32 eps
# (3.8e-6); a half-query, half-negation queue measured 9.6e-7.
PAPER_SCALE_TOL = 32 * float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("slots", ["random", "query_and_negation"])
def test_predict_precision_on_a_paper_scale_float32_queue(slots):
    """predict on a 65536-slot float32 queue stays within PAPER_SCALE_TOL of a
    float64 evaluation of the same inputs: the float32 features and slots,
    upcast, read with a max-subtracted softmax and decoded in float64."""
    n = 65536
    _, state = untrained_model(dtype="float32", center=True, input_scale=1000.0,
                               queue_capacity=n)
    rng = np.random.default_rng(23)
    plain = FrozenModel.from_state(state)
    labels = rng.integers(0, 3, size=n)
    w64 = state.decoder["w"].astype(np.float64)
    b64 = state.decoder["b"].astype(np.float64)
    worst = 0.0
    for window in rng.normal(size=(4, 3, 6, 3)):
        f = window_features(plain, window[None])[0]  # the query predict makes
        if slots == "random":
            rows = random_unit_rows(rng, n, 8, dtype=np.float32)
        else:
            rows = np.r_[np.repeat(f[None], n // 2, axis=0),
                         np.repeat(-f[None], n // 2, axis=0)]
        state.queue.enqueue_batch(rows, labels)
        model = FrozenModel.from_state(state)
        assert model.queue.fill == n and model.keys.dtype == np.float32
        _, probs = predict(model, window)
        f64 = f.astype(np.float64)
        mem64 = model.queue.filled_features.astype(np.float64)
        recalled = softmax64(mem64 @ f64) @ mem64
        exact = softmax64((f64 + recalled) @ w64.T + b64)
        worst = max(worst, float(np.abs(probs - exact).max()))
    assert PAPER_SCALE_TOL <= 4e-6
    assert worst <= PAPER_SCALE_TOL, worst


def biased_projection_model(dtype, feature_dim=8, width=4, capacity=16):
    """An untrained centering model, and its state, whose projection bias is
    random, not zero, so that the queries span all of ``[proj.w | proj.b]``."""
    _, state = untrained_model(dtype=dtype, feature_dim=feature_dim, width=width,
                               queue_capacity=capacity, center=True,
                               input_scale=1000.0)
    rng = np.random.default_rng(31)
    state.params_s["proj.b"] = rng.normal(size=feature_dim).astype(dtype)
    return FrozenModel.from_state(state), state


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("feature_dim,width", [(8, 4), (5, 4), (4, 4)])
def test_query_basis_is_orthonormal_and_holds_every_query(dtype, feature_dim, width):
    """The model's basis has min(width + 1, feature_dim) orthonormal columns,
    and projecting a feature onto their span gives it back within a few eps."""
    model, _ = biased_projection_model(dtype, feature_dim, width)
    r = min(width + 1, feature_dim)
    eps = float(np.finfo(dtype).eps)
    basis = model.basis.astype(np.float64)
    assert basis.shape == (feature_dim, r) and model.basis.dtype == model.dtype
    assert np.array_equal(model.basis, query_basis(model.params).astype(dtype))
    assert np.abs(basis.T @ basis - np.eye(r)).max() <= 4 * eps
    windows = np.random.default_rng(32).normal(size=(64, 3, 6, 3))
    f = window_features(model, windows).astype(np.float64)
    assert np.abs(f @ basis @ basis.T - f).max() <= 8 * eps


def slots_off_the_query_span(rng, basis, n, inside_share):
    """``n`` unit rows whose squared length inside span(basis) is ``inside_share``."""
    d, r = basis.shape
    complement = np.linalg.qr(basis, mode="complete")[0][:, r:]
    rows = (np.sqrt(inside_share) * random_unit_rows(rng, n, r) @ basis.T
            + np.sqrt(1.0 - inside_share) * random_unit_rows(rng, n, d - r) @ complement.T)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("feature_dim,slots", [(8, "orthogonal"), (8, "half_inside"),
                                               (4, "random"), (4, "query_and_negation")])
def test_subspace_read_keeps_the_logit_bound_and_precision(feature_dim, slots):
    """Slots orthogonal to the query's subspace, or half inside it, keep every
    logit the scan computes within [-1.001, 1.001], and predict within
    PAPER_SCALE_TOL of a float64 evaluation of the unprojected read; so does
    a model whose subspace is the whole feature space (width + 1 >= feature_dim)."""
    n = 65536
    plain, state = biased_projection_model("float32", feature_dim, width=4, capacity=n)
    basis64 = query_basis(plain.params)
    rng = np.random.default_rng(33)
    labels = rng.integers(0, 3, size=n)
    w64 = state.decoder["w"].astype(np.float64)
    b64 = state.decoder["b"].astype(np.float64)
    worst = 0.0
    for window in rng.normal(size=(4, 3, 6, 3)):
        f = window_features(plain, window[None])[0]
        if slots == "orthogonal":
            rows = slots_off_the_query_span(rng, basis64, n, 0.0)
        elif slots == "half_inside":
            rows = slots_off_the_query_span(rng, basis64, n, 0.5)
        elif slots == "random":
            rows = random_unit_rows(rng, n, feature_dim)
        else:
            rows = np.r_[np.repeat(f[None], n // 2, axis=0),
                         np.repeat(-f[None], n // 2, axis=0)]
        state.queue.enqueue_batch(rows.astype(np.float32), labels)
        model = dataclasses.replace(plain, queue=state.queue)
        assert model.keys.shape == (min(5, feature_dim), n)
        logits = (f @ model.basis) @ model.keys
        assert np.abs(logits).max() <= 1.001
        _, probs = predict(model, window)
        f64 = f.astype(np.float64)
        mem64 = model.queue.filled_features.astype(np.float64)
        recalled = softmax64(mem64 @ f64) @ mem64
        exact = softmax64((f64 + recalled) @ w64.T + b64)
        worst = max(worst, float(np.abs(probs - exact).max()))
    assert worst <= PAPER_SCALE_TOL, worst


@pytest.mark.parametrize("fault", ["nan", "inf", "scaled", "zero"])
def test_model_rejects_a_slot_off_unit_norm(fault):
    """Prediction's bounded logits need unit-norm slots, so a model is not
    made from a queue holding anything else, directly or by replace."""
    state = filled_state()
    model = FrozenModel.from_state(state)
    queue = filled_state(fill=16, seed=23).queue
    queue.features[5] = {"nan": [np.nan] + [0.0] * 7, "inf": [np.inf] + [0.0] * 7,
                         "scaled": queue.features[5] * 1.01,
                         "zero": np.zeros(8)}[fault]
    state.queue = queue
    with pytest.raises(ContractError, match="slot 5"):
        FrozenModel.from_state(state)
    with pytest.raises(ContractError, match="slot 5"):
        dataclasses.replace(model, queue=queue)
    queue.fill = 5  # a slot past the fill is never read
    assert FrozenModel.from_state(state).queue.fill == 5


def test_empty_batch_gives_empty_results():
    model, _ = untrained_model(dtype="float32")
    x = np.zeros((0, 3, 6, 3), dtype=np.float32)
    f, _ = enc.encode_forward(model.operands, x, model.adjacency, model.encoder_cfg)
    assert f.shape == (0, 8) and f.dtype == np.float32
    assert window_features(model, x).shape == (0, 8)
    for m in (model, FrozenModel.from_state(filled_state(dtype="float32"))):
        classes, probs = predict_batch(m, x)
        assert classes.shape == (0,) and probs.shape == (0, 3)
        assert probs.dtype == np.float32


def test_window_features_validation():
    model, _ = untrained_model()
    rng = np.random.default_rng(14)
    for shape in ((3, 6, 3), (2, 3, 5, 3), (2, 4, 6, 3), (2, 3, 6, 2)):
        with pytest.raises(StructuralError):
            window_features(model, rng.normal(size=shape))
    bad = rng.normal(size=(2, 3, 6, 3))
    bad[1, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        window_features(model, bad)
    f = window_features(model, list(bad[:1]))
    assert f.shape == (1, 8)
    assert np.allclose(np.linalg.norm(f, axis=1), 1.0)


@pytest.mark.parametrize("batch", ["empty", "one", "one tile", "one tile + 1"])
@pytest.mark.parametrize("input_scale", [1.0, 1000.0])
@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_served_features_are_encode_forward_of_preprocess_bitwise(
        monkeypatch, dtype, center, input_scale, batch):
    """The served forward (one transform into channels-last frames, the
    model's operands, pooling vector and tile count) gives the bits of
    ``encode_forward`` on the raw parameters of ``preprocess``'s output, for
    every batch size: none, one window, one whole tile and one tile plus one
    window, whose two tiles run on the calling thread and a helper."""
    _, state = untrained_model(dtype=dtype, center=center, input_scale=input_scale)
    rng = np.random.default_rng(31)
    for name, p in state.params_s.items():  # biases too, which start at zero
        p[...] = rng.normal(scale=0.5, size=p.shape)
    model = FrozenModel.from_state(state)
    per_tile = model.tile_windows
    b = {"empty": 0, "one": 1, "one tile": per_tile, "one tile + 1": per_tile + 1}[batch]
    # meter-scale positions with centimeter-scale motion, as the sensors give
    windows = 1.5 + 0.02 * rng.normal(size=(b, 3, model.short_len, 3))
    monkeypatch.setattr(enc, "TILE_THREADS", 2)
    tiles = []
    kernel = enc._forward

    def spy(ops, frames, *args):
        tiles.append((ops is model.operands, frames.shape[0], threading.get_ident()))
        return kernel(ops, frames, *args)

    monkeypatch.setattr(enc, "_forward", spy)
    served = window_features(model, windows)
    x = preprocess(windows, center, input_scale, model.dtype)
    expect, _ = enc.encode_forward(dict(model.params), x, model.adjacency,
                                   model.encoder_cfg)
    assert served.dtype == expect.dtype == np.dtype(dtype) and served.shape == (b, 8)
    assert served.tobytes() == expect.tobytes()
    served_tiles = [(size, ident) for on_model, size, ident in tiles if on_model]
    if b > per_tile:
        assert sorted(size for size, _ in served_tiles) == [1, per_tile]
        assert len({ident for _, ident in served_tiles}) == 2
    else:
        assert [size for size, _ in served_tiles] == [b]


@pytest.mark.parametrize("center", [True, False])
@pytest.mark.parametrize("big", [1e36, 1e306])
def test_a_window_the_scale_takes_past_the_dtype_is_refused_without_warning(center, big):
    """A finite coordinate that the scaling (1e306 * 1000 in float64) or the
    float32 cast (1e36 * 1000) takes past the float range is the encoder
    input's NonFiniteError, and no RuntimeWarning leaves the served forward."""
    model, _ = untrained_model(dtype="float32", input_scale=1000.0, center=center)
    windows = np.zeros((2, 3, model.short_len, 3))
    windows[1, 2, 3, 0] = big
    assert np.isfinite(windows).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (window_features, predict_batch):
            with pytest.raises(NonFiniteError, match="^non-finite value in encoder input$"):
                call(model, windows)
        with pytest.raises(NonFiniteError, match="^non-finite value in encoder input$"):
            predict(model, windows[1])


def test_model_refuses_a_window_shorter_than_the_temporal_kernel():
    model, _ = untrained_model()
    with pytest.raises(StructuralError, match="shorter than the temporal kernel"):
        dataclasses.replace(model, short_len=model.encoder_cfg.temporal_kernel - 1)


def filled_state(fill=10, seed=17, **overrides):
    _, state = untrained_model(**overrides)
    rng = np.random.default_rng(seed)
    state.queue.enqueue_batch(
        random_unit_rows(rng, fill, 8, dtype=state.config.np_dtype),
        rng.integers(0, 3, size=fill))
    return state


def test_model_is_a_snapshot_of_the_encoder():
    model, state = untrained_model()
    x = np.random.default_rng(11).normal(size=(3, 6, 3))
    _, before = predict(model, x)
    for p in state.params_s.values():
        p += 0.5
    state.graph.normalized[:] = np.eye(3)
    _, after = predict(model, x)
    assert np.array_equal(before, after)
    arrays = list(model.params.values()) + [model.adjacency]
    arrays += [a for block in model.operands.blocks for a in block]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.params = state.params_s


def test_model_is_a_snapshot_of_the_state():
    state = filled_state()
    model = FrozenModel.from_state(state)
    x = np.random.default_rng(18).normal(size=(3, 6, 3))
    _, before = predict(model, x)
    rng = np.random.default_rng(19)
    state.queue.enqueue_batch(random_unit_rows(rng, 4, 8), [1] * 4)
    state.decoder["w"] += 0.5
    state.decoder["b"] -= 0.5
    _, after = predict(model, x)
    assert np.array_equal(before, after)
    assert model.queue.fill == 10 and state.queue.fill == 14
    with pytest.raises(ValueError):
        model.queue.enqueue_batch(random_unit_rows(rng, 1, 8), [0])
    assert model.queue.fill == 10 and model.queue.head == 10
    arrays = list(model.decoder.values()) + [model.queue.features,
                                             model.queue.labels, model.keys,
                                             model.readout, model.readout_mean]
    assert not any(a.flags.writeable for a in arrays)
    assert model.readout.shape == (4, 10) and model.readout.flags.c_contiguous
    assert np.array_equal(model.readout[-1], np.ones(10))
    # keys: the slots' coordinates Bᵀ memᵀ in the query's subspace, r = width + 1
    basis = query_basis(model.params)
    assert model.keys.shape == (5, 10) and model.keys.flags.c_contiguous
    mem_t = np.ascontiguousarray(model.queue.filled_features.T)
    assert np.array_equal(model.keys, basis.T @ mem_t)
    assert np.array_equal(model.basis, basis) and not model.basis.flags.writeable
    # a queue swapped in by replace is snapshotted and folded again
    queue = filled_state(fill=16, seed=20).queue
    replaced = dataclasses.replace(model, queue=queue)
    unchanged = filled_state()  # the state as the model was made from it
    unchanged.queue = queue
    fresh = FrozenModel.from_state(unchanged)
    assert replaced.readout.shape == (4, 16) and replaced.keys.shape == (5, 16)
    assert np.array_equal(predict(replaced, x)[1], predict(fresh, x)[1])
    assert not np.array_equal(predict(replaced, x)[1], before)


def test_replace_params_predicts_like_a_fresh_model():
    model, state = untrained_model()
    other = enc.init_encoder_params(model.encoder_cfg, np.random.default_rng(5),
                                    np.float64)
    replaced = dataclasses.replace(model, params=other)
    state.params_s = other
    fresh = FrozenModel.from_state(state)
    x = np.random.default_rng(12).normal(size=(3, 6, 3))
    assert np.array_equal(predict(replaced, x)[1], predict(fresh, x)[1])
    assert not np.array_equal(predict(replaced, x)[1], predict(model, x)[1])


# --- streaming protocol -----------------------------------------------------------

def frame_line(t, joints):
    return json.dumps({"t": t, "joints": [list(map(float, j)) for j in joints]})


def test_stream_warmup_emits_nothing():
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=180.0)
    rng = np.random.default_rng(4)
    outs = [session.handle_line(frame_line(i * 33.0, rng.normal(size=(3, 3))))
            for i in range(model.short_len - 1)]
    assert outs == [None] * (model.short_len - 1)


def test_stream_exactly_one_prediction_after_t_frames():
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=180.0)
    rng = np.random.default_rng(5)
    outs = [session.handle_line(frame_line(i * 33.0, rng.normal(size=(3, 3))))
            for i in range(model.short_len)]
    predictions = [o for o in outs if o is not None]
    assert len(predictions) == 1
    out = predictions[0]
    assert set(out) == {"t", "class", "name", "probs"}
    assert out["name"] == model.label_names[out["class"]]
    assert abs(sum(out["probs"]) - 1.0) < 1e-9


def test_stream_respects_stride():
    model, _ = untrained_model()
    t_frames = model.short_len
    session = StreamSession(model, stride_ms=100.0)
    rng = np.random.default_rng(6)
    outs = [session.handle_line(frame_line(i * 50.0, rng.normal(size=(3, 3))))
            for i in range(t_frames + 4)]
    emitted_ts = [o["t"] for o in outs if o is not None]
    # first at buffer-full, then every 100 ms (every second 50 ms frame)
    assert emitted_ts == [250.0, 350.0, 450.0]


def test_stream_error_objects_keep_session_alive():
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0)
    assert "error" in session.handle_line("{not json")
    assert "error" in session.handle_line(json.dumps({"t": 0}))
    assert "error" in session.handle_line(
        json.dumps({"t": 0, "joints": [[0, 0, 0]] * 2}))
    row = [0.0, 0.0, 0.0]
    for bad in ['{"t": 0, "joints": [[0, 0, null], [0, 0, 0], [0, 0, 0]]}',
                json.dumps({"t": 0, "joints": [["x", "y", "z"], row, row]}),
                json.dumps({"t": 0, "joints": [row, row[:2], row]}),
                json.dumps({"t": 0, "joints": {"a": 1}}),
                json.dumps({"t": 0, "joints": [["1", "2", "3"], row, row]}),
                json.dumps({"t": 0, "joints": [[True, 0, 0], [0, 0, 0], [0, 0, 0]]}),
                json.dumps({"t": 0, "joints": [[True, 0.5, 0], row, row]}),
                json.dumps({"t": 0, "joints": [row, row, [0, 0, False]]}),
                json.dumps({"t": True, "joints": [row] * 3}),
                json.dumps({"t": "5", "joints": [row] * 3}),
                json.dumps({"t": 10 ** 400, "joints": [row] * 3}),
                '{"t": ' + "1" * 5000 + ', "joints": []}',
                "[" * 100000]:
        assert "error" in session.handle_line(bad), bad
    rng = np.random.default_rng(7)
    outs = [session.handle_line(frame_line(i * 33.0, rng.normal(size=(3, 3))))
            for i in range(model.short_len)]
    assert outs[-1] is not None  # valid frames still produce a prediction


def test_stream_rejects_backward_timestamps():
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0)
    rng = np.random.default_rng(15)
    frames = rng.normal(size=(model.short_len + 1, 3, 3))
    for i in range(model.short_len - 1):
        assert session.handle_frame(100.0 * i, frames[i]) is None
    last = 100.0 * (model.short_len - 2)
    out = session.handle_frame(last - 50.0, frames[-1])
    assert out == {"error": "timestamp went backwards", "t": last - 50.0}
    assert len(session.buffer) == model.short_len - 1  # not buffered
    out = session.handle_line(frame_line(last - 1.0, frames[-1]))
    assert out == {"error": "timestamp went backwards", "t": last - 1.0}
    # an equal timestamp is valid; the window fills and predicts at once
    out = session.handle_frame(last, frames[-2])
    assert out["t"] == last and "class" in out
    window = np.concatenate([frames[:model.short_len - 1], frames[-2:-1]])
    assert out["class"] == predict(model, window.transpose(2, 0, 1))[0]


def test_stream_missing_timestamp_uses_frame_counter():
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0, frame_hz=30.0)
    rng = np.random.default_rng(8)
    out = None
    for _ in range(model.short_len):
        out = session.handle_line(json.dumps(
            {"joints": rng.normal(size=(3, 3)).tolist()}))
    assert out is not None
    assert out["t"] == pytest.approx((model.short_len - 1) * 1000.0 / 30.0)


def test_stream_omitted_timestamp_follows_the_last_accepted_frame():
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0, frame_hz=25.0)
    rng = np.random.default_rng(21)
    row = lambda: rng.normal(size=(3, 3)).tolist()  # noqa: E731
    assert session.handle_line(json.dumps({"joints": row()})) is None
    assert session.last_t == 0.0
    assert session.handle_line(json.dumps({"t": 5000, "joints": row()})) is None
    for i in range(1, model.short_len - 2):
        assert session.handle_line(json.dumps({"joints": row()})) is None
        assert session.last_t == pytest.approx(5000.0 + 40.0 * i)
    out = session.handle_line(json.dumps({"joints": row()}))  # the window is full
    assert out["t"] == pytest.approx(5000.0 + 40.0 * (model.short_len - 2))
    # a rejected frame does not advance the clock
    assert "error" in session.handle_line(json.dumps({"joints": [[0, 0]]}))
    out = session.handle_line(json.dumps({"joints": row()}))
    assert out["t"] == pytest.approx(5000.0 + 40.0 * (model.short_len - 1))


@pytest.mark.parametrize("joints", [
    [[True, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0.5, 0, 0], [0, 0, 0], [0, 0, False]],
    ((0, 0, 0), (0, np.True_, 0), (0, 0, 0)),
])
def test_handle_frame_rejects_booleans_mixed_with_numbers(joints):
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0)
    out = session.handle_frame(0.0, joints)
    assert out == {"error": "non-numeric joint coordinate", "t": 0.0}
    assert len(session.buffer) == 0 and session.last_t is None
    assert session.handle_frame(0.0, [[0, 0.5, 1]] * 3) is None  # numbers pass
    assert len(session.buffer) == 1


T_ERROR = {"error": "malformed frame: 't' must be a finite number"}


@pytest.mark.parametrize("t,accepted", [
    (math.nan, False), (math.inf, False), (-math.inf, False), ("abc", False),
    (True, False), (10 ** 400, False),
    (np.float64(250.0), True), (np.int64(250), True), (250, True)],
    ids=["nan", "inf", "-inf", "str", "bool", "int_past_float", "np_float64",
         "np_int64", "int"])
def test_handle_frame_applies_the_t_rule(t, accepted):
    """A ``t`` that is not a finite real number gets the error object and
    leaves the session as it was, so the next frame predicts; numpy scalars
    and ints are accepted and emitted as floats."""
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0)
    frames = np.random.default_rng(25).normal(size=(model.short_len, 3, 3))
    for i, frame in enumerate(frames[:-1]):
        assert session.handle_frame(10.0 * i, frame) is None
    out = session.handle_frame(t, frames[-1])
    if not accepted:
        assert out == T_ERROR
        assert len(session.buffer) == model.short_len - 1
        assert session.last_t == 10.0 * (model.short_len - 2)
        out = session.handle_frame(250.0, frames[-1])
    assert out["t"] == 250.0 and type(out["t"]) is float and "class" in out
    json.dumps(out, allow_nan=False)


def test_serve_connection_caps_line_length():
    model, _ = untrained_model()
    rng = np.random.default_rng(22)
    lines = [frame_line(i * 33.0, rng.normal(size=(3, 3))).encode()
             for i in range(model.short_len)]
    padded = b" " * (inference.MAX_LINE_BYTES - len(lines[0])) + lines[0]
    assert len(padded) == inference.MAX_LINE_BYTES  # at the cap: accepted
    too_long = b'{"t": 0, "joints": [' + b" " * (3 * inference.MAX_LINE_BYTES) + b"]}"
    source = b"\n".join([padded, too_long, b"x" * (inference.MAX_LINE_BYTES + 1)]
                        + lines[1:]) + b"\n"
    sink = io.BytesIO()
    session = inference.serve_connection(model, io.BytesIO(source), sink, stride_ms=0.0)
    outs = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert outs[:2] == [{"error": "line too long"}] * 2
    assert len(outs) == 3 and outs[2]["class"] == predict(
        model, np.stack([json.loads(line)["joints"] for line in lines]).transpose(2, 0, 1))[0]
    assert len(session.buffer) == model.short_len
    # an over-long last line without a newline
    sink = io.BytesIO()
    inference.serve_connection(model, io.BytesIO(b"y" * (2 * inference.MAX_LINE_BYTES)),
                               sink)
    assert sink.getvalue() == b'{"error": "line too long"}\n'


def test_tcp_server_caps_open_sessions(monkeypatch):
    model, _ = untrained_model()
    monkeypatch.setattr(inference, "MAX_SESSIONS", 1)
    server = inference.tcp_server(model, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = server.server_address
    try:
        with socket.create_connection(address, timeout=10) as held, \
                held.makefile("rwb") as stream:
            # a reply shows the session holds the one slot
            stream.write(b"not json\n")
            stream.flush()
            assert "error" in json.loads(stream.readline())
            with socket.create_connection(address, timeout=10) as extra, \
                    extra.makefile("rb") as refused:
                assert json.loads(refused.readline()) == {"error": "server busy"}
                assert refused.readline() == b""  # closed by the server
        # the held session's slot frees once its thread sees the close
        deadline = time.monotonic() + 10
        while True:
            with socket.create_connection(address, timeout=10) as conn, \
                    conn.makefile("rwb") as stream:
                stream.write(b"not json\n")
                stream.flush()
                reply = json.loads(stream.readline())
            if reply != {"error": "server busy"} or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert reply["error"] != "server busy"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_tcp_server_closes_idle_sessions(monkeypatch):
    model, _ = untrained_model()
    monkeypatch.setattr(inference, "MAX_SESSIONS", 1)
    monkeypatch.setattr(inference, "IDLE_TIMEOUT_S", 0.2)
    server = inference.tcp_server(model, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = server.server_address
    try:
        with socket.create_connection(address, timeout=10) as idle, \
                idle.makefile("rb") as idle_in:
            # client A sends nothing: it is told so, closed, and its slot freed
            assert json.loads(idle_in.readline()) == {"error": "idle timeout"}
            assert idle_in.readline() == b""
            deadline = time.monotonic() + 10
            while True:
                with socket.create_connection(address, timeout=10) as conn, \
                        conn.makefile("rwb") as stream:
                    stream.write(b"not json\n")
                    stream.flush()
                    reply = json.loads(stream.readline())
                if reply != {"error": "server busy"} or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
            # client B, while A is still connected on its side, is served
            assert "error" in reply and reply["error"] != "server busy"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_non_finite_window_of_a_centering_model_is_rejected():
    model, _ = untrained_model(center=True, input_scale=1000.0, dtype="float32")
    for value in (np.nan, np.inf, -np.inf):
        bad = np.zeros((2, 3, 6, 3))
        bad[1, 2, 3, 0] = value
        # centering turns an inf into inf - inf, for which numpy warns
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            window_features(model, bad)


def test_window_overflowing_the_feature_norm_gets_an_error_object():
    """A finite frame whose features overflow float32 in the norm answers
    ``cannot predict``, not a uniform prediction, and lets no numpy warning
    escape (the suite turns RuntimeWarnings into errors)."""
    model, _ = untrained_model(center=True, input_scale=1000.0, dtype="float32")
    session = StreamSession(model, stride_ms=0.0)
    zeros = [[0.0] * 3] * 3
    for i in range(model.short_len - 1):
        assert session.handle_line(frame_line(i * 33.0, zeros)) is None
    big = [[0.0] * 3, [0.0] * 3, [0.0, 0.0, 7.657517846804133e18]]
    out = session.handle_line(frame_line(200.0, big))
    assert out["error"].startswith("cannot predict: non-finite encoder feature norm")
    assert out["t"] == 200.0 and session.last_emit_t is None
    # the session goes on: once the frame has left the window, it predicts
    outs = [session.handle_line(frame_line(233.0 + i, zeros))
            for i in range(model.short_len)]
    assert all("error" in o for o in outs[:-1]) and "probs" in outs[-1]


def offline_windows(recording, short_len):
    starts = range(len(recording) - short_len + 1)
    return [recording.joints[s:s + short_len].transpose(2, 0, 1) for s in starts]


def test_stream_offline_online_equivalence():
    model, recordings, _ = trained_model(epochs=1)
    rec = recordings[3]  # a test subject
    n = len(rec)
    period = 1000.0 / 30.0
    session = StreamSession(model, stride_ms=period)
    streamed = []
    for i in range(n):
        out = session.handle_frame(i * period, rec.joints[i])
        if out is not None:
            streamed.append(out)
    windows = offline_windows(rec, model.short_len)
    assert len(streamed) == len(windows)
    for out, window in zip(streamed, windows):
        cls, probs = predict(model, window)
        assert out["class"] == cls
        assert out["probs"] == [float(p) for p in probs]


def test_serve_connection_over_byte_pipes():
    model, _ = untrained_model()
    rng = np.random.default_rng(9)
    lines = [frame_line(i * 33.0, rng.normal(size=(3, 3)))
             for i in range(model.short_len + 2)]
    source = io.BytesIO(("\n".join(lines) + "\n").encode())

    class Sink(io.BytesIO):
        flushed = 0

        def flush(self):
            self.flushed += 1

    sink = Sink()
    serve_connection(model, source, sink, stride_ms=0.0)
    outs = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(outs) == 3  # one per frame once the buffer is full
    assert all(set(o) == {"t", "class", "name", "probs"} for o in outs)
    assert sink.flushed == 3  # each line leaves as it is written


def test_stream_error_when_window_overflows_model_dtype():
    model, _ = untrained_model(dtype="float32", input_scale=1000.0)
    session = StreamSession(model, stride_ms=0.0)
    outs = [session.handle_frame(i * 33.0, np.full((3, 3), 1e300 * (i % 2)))
            for i in range(model.short_len)]
    assert outs[:-1] == [None] * (model.short_len - 1)
    assert "error" in outs[-1]


@pytest.mark.parametrize("big", [1e36, 1e306])
def test_handle_line_answers_a_coordinate_past_the_float_range(big):
    """A finite coordinate that the float32 cast (1e36) or the float64
    scaling (1e306 * 1000) takes past the float range gets an error object,
    with no numpy warning escaping (the suite turns RuntimeWarning into an
    error)."""
    model, _ = untrained_model(dtype="float32", input_scale=1000.0, center=True)
    session = StreamSession(model, stride_ms=0.0)
    zeros = [[0, 0, 0]] * 3
    for i in range(model.short_len - 1):
        assert session.handle_line(json.dumps({"t": i * 33.0, "joints": zeros})) is None
    out = session.handle_line(json.dumps(
        {"t": 1000.0, "joints": [[0, 0, 0], [0, 0, 0], [0, 0, big]]}))
    assert out == {"error": "cannot predict: non-finite value in encoder input",
                   "t": 1000.0}


@pytest.mark.parametrize("name, value", [
    ("frame_hz", 0.0), ("frame_hz", -30.0), ("frame_hz", float("nan")),
    ("frame_hz", float("inf")), ("stride_ms", -1.0), ("stride_ms", float("nan")),
    ("stride_ms", float("inf"))])
def test_session_refuses_bad_frame_rate_and_stride(monkeypatch, name, value):
    model, _ = untrained_model()
    with pytest.raises(ConfigError, match=name):
        StreamSession(model, **{name: value})

    def bind(*args):
        raise AssertionError("bound a server for a session it refuses")

    monkeypatch.setattr(inference, "_SessionServer", bind)
    with pytest.raises(ConfigError, match=name):
        inference.tcp_server(model, "127.0.0.1", 0, **{name: value})


def test_stream_emit_logs_and_times_only_at_debug(monkeypatch, caplog):
    model, _ = untrained_model()
    rng = np.random.default_rng(10)

    def emit(session):
        for i in range(model.short_len):
            out = session.handle_frame(i * 33.0, rng.normal(size=(3, 3)))
        assert "class" in out

    def no_clock():
        raise AssertionError("emit path read the clock with DEBUG off")

    caplog.set_level(logging.INFO, logger=inference.log.name)
    monkeypatch.setattr(inference, "time", types.SimpleNamespace(perf_counter=no_clock))
    emit(StreamSession(model, stride_ms=0.0))
    assert caplog.records == []
    monkeypatch.undo()
    caplog.set_level(logging.DEBUG, logger=inference.log.name)
    emit(StreamSession(model, stride_ms=0.0))
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "inference" in caplog.records[0].getMessage()


# JSON values of every kind, as json.loads returns them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)
COORD = st.floats() | st.integers() | st.booleans() | st.none() | st.text(max_size=2)
JOINTS = JSON_VALUES | st.lists(st.lists(COORD, min_size=2, max_size=4),
                                min_size=2, max_size=4)
LINES = (st.text()
         | st.builds(lambda t, j: json.dumps({"t": t, "joints": j}), JSON_VALUES, JOINTS)
         | st.builds(lambda j: json.dumps({"joints": j}), JOINTS))


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, min_size=1, max_size=8))
def test_handle_line_never_raises(lines):
    """Every line gets None, an error object or a prediction; the session goes on."""
    model, _ = untrained_model(dtype="float32", input_scale=1000.0, center=True)
    session = StreamSession(model, stride_ms=0.0)
    rng = np.random.default_rng(0)
    for i in range(model.short_len - 1):  # the next valid frame predicts
        session.handle_frame(-1e3 + i, rng.normal(size=(3, 3)))
    for line in lines:
        out = session.handle_line(line)
        assert out is None or "error" in out or "class" in out
    late = sys.float_info.max  # no earlier timestamp can hold back this emission
    outs = [session.handle_line(json.dumps({"t": late, "joints": [[0.0] * 3] * 3}))
            for _ in range(model.short_len)]
    assert "class" in outs[-1]


ABSENT = object()
TIMES = (st.just(ABSENT) | st.floats(-1e3, 1e3) | st.integers(10 ** 308, 10 ** 400)
         | st.sampled_from([math.inf, -math.inf, math.nan]) | JSON_VALUES)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TIMES, JOINTS), min_size=1, max_size=8))
def test_handle_line_is_handle_frame_on_the_decoded_object(frames):
    """A line and its decoded ``t`` and ``joints`` get the same output and
    leave the same session state; every output is valid JSON."""
    model, _ = untrained_model(dtype="float32", input_scale=1000.0, center=True)
    by_line, by_frame = (StreamSession(model, stride_ms=0.0) for _ in range(2))
    warmup = np.random.default_rng(0).normal(size=(model.short_len - 1, 3, 3))
    for session in (by_line, by_frame):
        for i, frame in enumerate(warmup):  # the next valid frame predicts
            session.handle_frame(-1e3 + i, frame)
    for t, joints in frames:
        obj = {"joints": joints} if t is ABSENT else {"t": t, "joints": joints}
        out = by_line.handle_line(json.dumps(obj))
        assert repr(out) == repr(by_frame.handle_frame(obj.get("t"), joints)), obj
        json.dumps(out, allow_nan=False)
        for name in ("buffer", "last_t", "last_emit_t"):
            assert repr(getattr(by_line, name)) == repr(getattr(by_frame, name)), obj


def assert_routes_agree(lines, dtype="float32"):
    """Two sessions, one with the plain-float route off, answer every line
    alike: the same error texts, the same probabilities bit for bit (repr
    tells -0.0 from 0.0) and the same buffered coordinates. A line that
    json.loads rejects gets json.loads's message."""
    model, _ = untrained_model(dtype=dtype, input_scale=1000.0, center=True)
    both, numpy_only = (StreamSession(model, stride_ms=0.0) for _ in range(2))
    frames = np.random.default_rng(0).normal(size=(model.short_len - 1, 3, 3))
    for session in (both, numpy_only):
        for i, frame in enumerate(frames):  # the next valid frame predicts
            session.handle_frame(-1e3 + i, frame)
    for line in lines:
        out = both.handle_line(line)
        with pytest.MonkeyPatch.context() as mp:  # the plain-float route off
            mp.setattr(inference, "_plain_frame", lambda joints: None)
            expected = numpy_only.handle_line(line)
        assert repr(out) == repr(expected), line
        assert repr(list(both.buffer)) == repr(list(numpy_only.buffer)), line
        try:
            json.loads(line.strip() or "null")  # a blank line is skipped
        except json.JSONDecodeError as e:
            assert out == {"error": f"malformed frame: {e.msg}"}, line
        except (ValueError, RecursionError):
            pass


@settings(max_examples=200, deadline=None)
@given(st.lists(LINES, min_size=1, max_size=8))
def test_plain_and_numpy_routes_agree_on_any_line(lines):
    assert_routes_agree(lines)


# coordinate tokens as a line spells them: floats of every kind (json.dumps
# writes NaN, Infinity and -Infinity), integers, and literals past the float
# range or below the normal one
TOKENS = (st.floats().map(json.dumps)
          | st.integers(-10 ** 20, 10 ** 20).map(str)
          | st.sampled_from(["1e400", "-1e400", "-0.0", "-0", "0.0", "5e-324",
                             "-2.5e-320", "2.2250738585072014e-308", "1E2", "3.0"]))
FLOAT_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(json.dumps)


def token_line(tokens, t):
    rows = ", ".join("[" + ", ".join(tokens[3 * i:3 * i + 3]) + "]" for i in range(3))
    stamp = "" if t is None else f'"t": {t}, '
    return "{" + stamp + '"joints": [' + rows + "]}"


# coordinates near the float range overflow the model's arithmetic on both
# routes alike; numpy warns, and the emission is an error object
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(FLOAT_TOKENS | TOKENS, min_size=9, max_size=9),
                          st.none() | st.floats(-1e3, 1e3)),
                min_size=1, max_size=8),
       st.sampled_from(["float32", "float64"]))
def test_plain_and_numpy_routes_agree_on_spelled_out_frames(frames, dtype):
    assert_routes_agree([token_line(tokens, t) for tokens, t in frames], dtype)


def test_plain_and_numpy_routes_agree_on_bom_and_trailing_data():
    frame = token_line(["0.5", "-0.0", "5e-324", "1.0", "2.0", "3.0", "4.0", "5.0", "6.0"],
                       None)
    lines = [frame, "﻿" + frame, "﻿", " ﻿" + frame + " ",
             frame + " x", frame + "{}", frame + " 1", frame + frame, frame + "]",
             "[1] [2]", '{"joints": 1}  {', frame + "\t\n", frame]
    assert_routes_agree(lines)
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=0.0)
    assert session.handle_line("﻿" + frame) == {
        "error": "malformed frame: Unexpected UTF-8 BOM (decode using utf-8-sig)"}
    assert session.handle_line(frame + " x") == {"error": "malformed frame: Extra data"}
    assert session.handle_line(frame + "\t\n") is None


class AttributeRecorder:
    """Stands in for a module and records each attribute looked up on it."""

    def __init__(self, module):
        self.module = module
        self.looked_up = []

    def __getattr__(self, name):
        self.looked_up.append(name)
        return getattr(self.module, name)


def test_non_emitting_plain_frames_touch_no_numpy(monkeypatch):
    model, _ = untrained_model()
    session = StreamSession(model, stride_ms=100.0, frame_hz=20.0)
    rng = np.random.default_rng(24)
    recorder = AttributeRecorder(np)
    monkeypatch.setattr(inference, "np", recorder)
    lines = [frame_line(i * 50.0, rng.normal(size=(3, 3)))
             for i in range(model.short_len)]
    lines[1] = json.dumps({"joints": rng.normal(size=(3, 3)).tolist()})  # t omitted
    for line in lines[:-1]:
        assert session.handle_line(line) is None
        assert recorder.looked_up == [], (line, recorder.looked_up)
    out = session.handle_line(lines[-1])  # the window is full: it predicts
    assert "class" in out and "fromiter" in recorder.looked_up
    window = np.array([json.loads(line)["joints"] for line in lines]).transpose(2, 0, 1)
    assert out["probs"] == predict(model, window)[1].tolist()
    recorder.looked_up.clear()  # the next frame falls within the stride
    assert session.handle_line(frame_line(300.0, rng.normal(size=(3, 3)))) is None
    assert recorder.looked_up == []
    out = session.handle_line(frame_line(350.0, rng.normal(size=(3, 3))))
    assert "class" in out and "fromiter" in recorder.looked_up
