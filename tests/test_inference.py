import dataclasses
import io
import json
import logging
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem import encoder as enc
from gesturemem import inference
from gesturemem.dataset import (LabelMap, SplitSpec, SynthesisConfig,
                                synthesize_recordings, window_dataset)
from gesturemem.errors import NonFiniteError, StructuralError
from gesturemem.inference import (FrozenModel, StreamSession, latency_estimate,
                                  predict, predict_batch, serve_stream,
                                  window_features)
from gesturemem.training import TrainConfig, init_state, train

from helpers import oracle_predict, random_unit_rows

SPLIT = SplitSpec.from_lists(["s00", "s01", "s02"], ["s03", "s04"])


def untrained_model(use_recall=True, seed=0, n_classes=3, **overrides):
    base = dict(short_len=6, window_scale=2, queue_capacity=16, feature_dim=8,
                width=4, batch_size=4, epochs=0, seed=seed, use_recall=use_recall,
                dtype="float64")
    base.update(overrides)
    config = TrainConfig(**base)
    state = init_state(config, LabelMap(names=[f"g{i}" for i in range(n_classes)]))
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
    model, _ = untrained_model()
    x = np.random.default_rng(2).normal(size=(3, 6, 3))
    c1, p1 = predict(model, x)
    c2, p2 = predict(model, x)
    assert c1 == c2 and np.array_equal(p1, p2)
    # ties break toward the lowest class index
    model.decoder["w"][:] = 0.0
    model.decoder["b"][:] = 0.0
    cls, probs = predict(model, x)
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
    model, state = untrained_model(use_recall=True)
    rng = np.random.default_rng(3)
    state.queue.enqueue_batch(random_unit_rows(rng, 5, 8), [0] * 5)
    x = rng.normal(size=(3, 6, 3))
    _, probs_with = predict(model, x)
    model_no, state_no = untrained_model(use_recall=False)
    state_no.queue.enqueue_batch(random_unit_rows(np.random.default_rng(3), 5, 8),
                                 [0] * 5)
    _, probs_without = predict(model_no, x)
    assert not np.allclose(probs_with, probs_without)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_predict_bitwise_equals_raw_params_path(dtype, blocks, k):
    """predict gives exactly the bits of the single-window oracle: raw-dict
    encode, single-query recall, sum and classify; with recall on and off,
    against an empty and a filled queue."""
    rng = np.random.default_rng(blocks * 10 + k)
    for use_recall in (True, False):
        model, state = untrained_model(use_recall=use_recall, dtype=dtype,
                                       blocks=blocks, temporal_kernel=k,
                                       center=True, input_scale=1000.0)
        for _ in range(2):  # empty queue, then filled
            for _ in range(3):
                window = rng.normal(size=(3, 6, 3))
                cls, probs = predict(model, window)
                ref_cls, ref = oracle_predict(model, window)
                assert probs.dtype == model.dtype
                assert np.array_equal(probs, ref) and cls == ref_cls
            state.queue.enqueue_batch(random_unit_rows(rng, 12, 8, dtype=model.dtype),
                                      rng.integers(0, 3, size=12))


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
def test_predict_batch_matches_per_window_predict(dtype, tol):
    """A batch reorders the BLAS sums, so it is close to, not bitwise, predict."""
    model, state = untrained_model(dtype=dtype, center=True, input_scale=1000.0)
    rng = np.random.default_rng(13)
    state.queue.enqueue_batch(random_unit_rows(rng, 12, 8, dtype=model.dtype),
                              rng.integers(0, 3, size=12))
    windows = rng.normal(size=(7, 3, 6, 3))
    classes, probs = predict_batch(model, windows)
    assert probs.shape == (7, 3) and probs.dtype == model.dtype
    for i, window in enumerate(windows):
        cls, p = predict(model, window)
        assert np.abs(probs[i] - p).max() <= tol
        assert classes[i] == cls


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


def test_serve_stream_over_text_pipes():
    model, _ = untrained_model()
    rng = np.random.default_rng(9)
    lines = [frame_line(i * 33.0, rng.normal(size=(3, 3)))
             for i in range(model.short_len + 2)]
    source = io.StringIO("\n".join(lines) + "\n")
    sink = io.StringIO()
    serve_stream(model, source, sink, stride_ms=0.0)
    outs = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(outs) == 3  # one per frame once the buffer is full
    assert all(set(o) == {"t", "class", "name", "probs"} for o in outs)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_stream_error_when_window_overflows_model_dtype():
    model, _ = untrained_model(dtype="float32", input_scale=1000.0)
    session = StreamSession(model, stride_ms=0.0)
    outs = [session.handle_frame(i * 33.0, np.full((3, 3), 1e300 * (i % 2)))
            for i in range(model.short_len)]
    assert outs[:-1] == [None] * (model.short_len - 1)
    assert "error" in outs[-1]


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
