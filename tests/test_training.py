import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem import encoder as enc
from gesturemem import losses
from gesturemem import memory as mem
from gesturemem import training
from gesturemem.dataset import (Recording, SplitSpec, SynthesisConfig,
                                synthesize_recordings)
from gesturemem.errors import (CheckpointError, ConfigError, DataIntegrityError,
                               NonFiniteError, StructuralError, ToolkitError)
from gesturemem.evaluation import evaluate
from gesturemem.inference import FrozenModel, predict
from gesturemem.training import (TrainConfig, _augment_views, _sgd_update,
                                 flat_params, init_state, load_checkpoint,
                                 prepare_data, save_checkpoint, train,
                                 train_step, write_metrics)

from helpers import (assert_same_bits, fd_param_grads, oracle_augment_views,
                     oracle_momentum_update, oracle_train_step, random_unit_rows,
                     ref_prepare_data, rel_error, relu_preactivations)

SPLIT = SplitSpec.from_lists(["s00", "s01", "s02"], ["s03", "s04"])
TESTS_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = pathlib.Path(training.__file__).resolve().parents[1]


def tiny_config(**overrides):
    base = dict(short_len=6, window_scale=2, stride=3, queue_capacity=32,
                feature_dim=8, width=4, batch_size=4, epochs=2, seed=0,
                learning_rate=0.01, weight_decay=1e-3, temperature=0.07,
                eval_every=1)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(subjects=5, frames_per_class=60, seed=0, **cfg_overrides):
    cfg = SynthesisConfig(classes=("standing", "walking", "jumping"),
                          subjects=subjects, frames_per_class=frames_per_class,
                          **cfg_overrides)
    return synthesize_recordings(cfg, seed)


def make_batch(config, rng, batch=4, n_classes=3):
    t, s = config.short_len, config.window_scale
    x_s = rng.normal(size=(batch, 3, t, 3)).astype(config.np_dtype)
    x_l = rng.normal(size=(batch, 3, s * t, 3)).astype(config.np_dtype)
    y = rng.integers(0, n_classes, size=batch)
    return x_s, x_l, y


def prefill_queue(state, rng, n, n_classes=3):
    feats = random_unit_rows(rng, n, state.config.feature_dim,
                             dtype=state.config.np_dtype)
    state.queue.enqueue_batch(feats, rng.integers(0, n_classes, size=n))


# --- single-step semantics --------------------------------------------------------

def test_train_step_momentum_zero_copies_params():
    config = tiny_config(momentum_coef=0.0, dtype="float64")

    state = init_state(config, ("a", "b", "c"))
    rng = np.random.default_rng(1)
    prefill_queue(state, rng, 8)
    train_step(state, *make_batch(config, rng))
    for k in state.params_s:
        assert np.array_equal(state.params_l[k], state.params_s[k])


def test_train_step_matches_finite_difference_oracle():
    # hand-rolled oracle: finite differences of the full objective against the
    # pre-step queue, then one SGD step with weight decay
    config = tiny_config(dtype="float64", use_recall=True, use_mal=True)

    state = init_state(config, ("a", "b", "c"))
    rng = np.random.default_rng(2)
    prefill_queue(state, rng, 12)
    x_s, x_l, y = make_batch(config, rng)

    adj = state.graph.normalized
    enc_cfg = config.encoder_config()
    frozen_queue = copy.deepcopy(state.queue)

    def objective(params_s, decoder):
        feats, _ = enc.encode_forward(params_s, x_s, adj, enc_cfg)
        recalled, _ = mem.recall_batch_with_grad(frozen_queue, feats)
        fused = feats + recalled
        logits = fused @ decoder["w"].T + decoder["b"]
        ce, _, _ = losses.softmax_cross_entropy_batch(logits, y)
        mal, _ = losses.memory_augmented_loss_with_grad(feats, y, frozen_queue, config)
        return ce + config.mal_weight * mal

    params0 = copy.deepcopy(state.params_s)
    decoder0 = copy.deepcopy(state.decoder)
    # zero biases leave some block-1 spatial pre-activations at exactly 0.0
    # (sample 2, frame 0); the oracle differentiates there from the side where
    # they are off, as the analytic rule ``pre > 0`` does
    at_kink = relu_preactivations(params0, x_s, adj, enc_cfg) == 0
    assert at_kink.any()

    def kinks(p):
        return relu_preactivations(p, x_s, adj, enc_cfg)[at_kink]

    fd_enc = fd_param_grads(lambda p: objective(p, decoder0), params0, kinks=kinks)
    fd_dec = fd_param_grads(lambda d: objective(params0, d), decoder0)

    lr, wd = config.learning_rate, config.weight_decay
    expected_s = {k: params0[k] - lr * (fd_enc[k] + wd * params0[k]) for k in params0}
    expected_d = {k: decoder0[k] - lr * (fd_dec[k] + wd * decoder0[k]) for k in decoder0}

    train_step(state, x_s, x_l, y)
    for k in expected_s:
        assert rel_error(state.params_s[k], expected_s[k]) < 1e-6, k
    for k in expected_d:
        assert rel_error(state.decoder[k], expected_d[k]) < 1e-6, k


def test_train_step_never_backpropagates_into_long_encoder_or_slots():
    config = tiny_config(dtype="float64")

    state = init_state(config, ("a", "b", "c"))
    rng = np.random.default_rng(3)
    prefill_queue(state, rng, 10)
    slots_before = state.queue.features[:10].copy()
    params_l_before = copy.deepcopy(state.params_l)

    x_s, x_l, y = make_batch(config, rng)
    train_step(state, x_s, x_l, y)

    # pre-existing slots only change by FIFO eviction, never by gradients
    assert np.array_equal(state.queue.features[:10], slots_before)
    # the long-term encoder moved exactly along the momentum recursion
    expected = oracle_momentum_update(params_l_before, state.params_s,
                                      config.momentum_coef)
    for k in expected:
        assert np.array_equal(state.params_l[k], expected[k])


def test_weight_decay_contracts_with_zero_gradient():
    config = tiny_config(dtype="float64", learning_rate=0.1, weight_decay=0.01)

    state = init_state(config, ("a", "b"))
    before = copy.deepcopy(state.params_s)
    flat = flat_params(state)
    _sgd_update(flat, np.zeros_like(flat.trained), config)
    factor = 1.0 - config.learning_rate * config.weight_decay
    for k in before:
        assert np.allclose(state.params_s[k], factor * before[k], rtol=0, atol=1e-18)


def test_queue_fill_formula():
    config = tiny_config(queue_capacity=10, batch_size=4, dtype="float64")

    state = init_state(config, ("a", "b", "c"))
    rng = np.random.default_rng(4)
    for step in range(1, 6):
        train_step(state, *make_batch(config, rng))
        assert state.queue.fill == min(step * 4, 10)


def test_long_encoder_follows_exact_recursion_over_steps():
    config = tiny_config(dtype="float64", momentum_coef=0.9)

    state = init_state(config, ("a", "b", "c"))
    rng = np.random.default_rng(5)
    replay = copy.deepcopy(state.params_l)
    for _ in range(4):
        train_step(state, *make_batch(config, rng))
        replay = oracle_momentum_update(replay, state.params_s, config.momentum_coef)
    for k in replay:
        assert np.array_equal(replay[k], state.params_l[k])


# --- flat parameter buffers -------------------------------------------------------

def assert_same_state(got, want):
    """Every parameter, queue slot and cursor, and the RNG, bit for bit."""
    for name in ("params_s", "params_l", "decoder"):
        g, w = getattr(got, name), getattr(want, name)
        assert set(g) == set(w), name
        for k in w:
            assert_same_bits(g[k], w[k], (name, k))
    assert_same_bits(got.queue.features, want.queue.features, "queue features")
    assert_same_bits(got.queue.labels, want.queue.labels, "queue labels")
    assert (got.queue.fill, got.queue.head) == (want.queue.fill, want.queue.head)
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def assert_packed(state):
    """Every parameter array of ``state`` is a view into its own flat buffers."""
    flat = state.flat
    for params, buf in ((state.params_s, flat.trained), (state.decoder, flat.trained),
                        (state.params_l, flat.long)):
        for k, v in params.items():
            assert v.base is buf, k


def packed_pair(config, seed=0):
    """Two identical states with the queue half filled, and three batches."""
    states = []
    for _ in range(2):
        state = init_state(config, ("a", "b", "c"))
        prefill_queue(state, np.random.default_rng(seed), 16)
        states.append(state)
    rng = np.random.default_rng(seed + 1)
    return states, [make_batch(config, rng) for _ in range(3)]


@pytest.mark.parametrize("contrast_loss, mal_weight", [
    pytest.param("memory", 1.0, id="memory"), pytest.param("views", 1.0, id="views"),
    pytest.param("memory", 0.5, id="memory-mal_weight0.5")])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_step_matches_the_per_tensor_update_bitwise(dtype, contrast_loss, mal_weight):
    config = tiny_config(dtype=dtype, mal_weight=mal_weight, contrast_loss=contrast_loss,
                         momentum_coef=0.9)
    (state, oracle), batches = packed_pair(config)
    for batch in batches:
        assert train_step(state, *batch) == oracle_train_step(oracle, *batch)
        assert_same_state(state, oracle)
        assert_packed(state)


def test_a_step_packs_the_buffers_anew_when_an_array_is_not_their_view(tmp_path):
    config = tiny_config(dtype="float32", momentum_coef=0.9)
    (state, oracle), batches = packed_pair(config, seed=3)
    train_step(state, *batches[0])
    oracle_train_step(oracle, *batches[0])
    # (a) a deep copy holds copies, not views: it packs its own buffers
    twin = copy.deepcopy(state)
    # (b) an assigned entry and an assigned dict are trained with their values
    bias = np.linspace(-1, 1, config.feature_dim).astype(np.float32)
    for st in (state, oracle):
        st.params_s["proj.b"] = bias.copy()
        st.decoder = {k: v + 0.5 for k, v in st.decoder.items()}
    twin.params_s["proj.b"] = bias.copy()
    twin.decoder = {k: v + 0.5 for k, v in twin.decoder.items()}
    held = state.params_s["block0.spatial.w"]
    for st in (state, twin):
        train_step(st, *batches[1])
    oracle_train_step(oracle, *batches[1])
    assert_same_state(state, oracle)
    assert_same_state(twin, oracle)
    assert_packed(state)
    assert_packed(twin)
    assert twin.flat.trained is not state.flat.trained
    assert held.base is not state.flat.trained  # re-packing copied it
    held = state.params_s["block0.spatial.w"]
    train_step(state, *batches[2])
    assert held is state.params_s["block0.spatial.w"]  # updated in place
    # (c) a saved and loaded state steps like the one it was saved from
    path = save_checkpoint(state, tmp_path / "mid.ckpt")
    loaded = load_checkpoint(path)
    for st in (state, loaded):
        train_step(st, *batches[0])
    assert_same_state(loaded, state)
    assert_packed(loaded)


def test_a_long_encoder_unlike_the_short_one_is_refused():
    config = tiny_config()
    state = init_state(config, ("a", "b", "c"))
    batch = make_batch(config, np.random.default_rng(0))
    state.params_l = {k: v for k, v in state.params_l.items() if k != "proj.b"}
    with pytest.raises(StructuralError):
        train_step(state, *batch)
    state.params_l = {k: v.T for k, v in state.params_s.items()}
    with pytest.raises(StructuralError):
        train_step(state, *batch)


@pytest.mark.parametrize("jitter_sigma", [0.0, 0.01])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_augment_views_matches_the_per_sample_crops(dtype, jitter_sigma):
    x = np.random.default_rng(9).normal(size=(7, 3, 10, 3)).astype(dtype)
    for min_len in (3, 8, 10):
        rng, rng_o = np.random.default_rng(min_len), np.random.default_rng(min_len)
        views = _augment_views(x, rng, jitter_sigma, min_len)
        assert_same_bits(views, oracle_augment_views(x, rng_o, jitter_sigma, min_len),
                         min_len)
        assert rng.bit_generator.state == rng_o.bit_generator.state


# --- full runs --------------------------------------------------------------------

def test_train_zero_epochs_equals_initialization():
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=0)
    result = train(config, recordings, label_map, SPLIT)
    fresh = init_state(config, label_map)
    for k in fresh.params_s:
        assert np.array_equal(result.state.params_s[k], fresh.params_s[k])
    assert result.state.queue.fill == 0
    assert result.metrics == []


@pytest.mark.parametrize("fault", ["past the names", "negative"])
def test_train_refuses_a_label_that_names_no_class_before_any_step(monkeypatch, fault):
    recordings, names = tiny_dataset(subjects=2)
    if fault == "negative":
        recordings[1].labels[7] = -1
        rec, label = recordings[1], -1
    else:
        names = names[:2]
        rec, label = recordings[0], 2

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(training, "train_step", no_step)
    with pytest.raises(DataIntegrityError) as err:
        train(tiny_config(), recordings, names, SplitSpec.from_lists(["s00"], ["s01"]))
    assert str(err.value) == (f"recording {rec.recording_id!r} has label {label}, "
                              f"which is no class id")


def test_train_same_seed_reproduces_metrics(tmp_path):
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=2)
    r1 = train(config, recordings, label_map, SPLIT, log_path=tmp_path / "a.jsonl")
    r2 = train(config, recordings, label_map, SPLIT, log_path=tmp_path / "b.jsonl")
    assert r1.metrics == r2.metrics
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_train_views_loss_runs_and_is_deterministic():
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=1, contrast_loss="views")
    r1 = train(config, recordings, label_map, SPLIT)
    r2 = train(config, recordings, label_map, SPLIT)
    assert r1.metrics == r2.metrics
    assert any(m["contrast"] != 0.0 for m in r1.metrics if m["split"] == "train")


def test_metrics_log_schema(tmp_path):
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=1)
    train(config, recordings, label_map, SPLIT, log_path=tmp_path / "m.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "m.jsonl").read_text().splitlines()]
    train_rows = [r for r in rows if r["split"] == "train"]
    test_rows = [r for r in rows if r["split"] == "test"]
    assert len(train_rows) == 1 and len(test_rows) == 1
    assert {"epoch", "split", "loss", "ce", "contrast", "accuracy"} <= set(train_rows[0])
    assert {"epoch", "split", "accuracy"} <= set(test_rows[0])


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_in_training_accuracy_equals_evaluate(dtype):
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=2, dtype=dtype)
    result = train(config, recordings, label_map, SPLIT)
    samples = prepare_data(config, recordings, label_map, SPLIT)["test_samples"]
    assert result.state.queue.fill > 0 and len(samples) > 0
    last = [m for m in result.metrics if m["split"] == "test"][-1]["accuracy"]
    assert last == evaluate(FrozenModel.from_state(result.state), samples).accuracy


@pytest.mark.parametrize("field,value", [
    ("short_len", 6.0), ("width", 16.0), ("queue_capacity", 512.0),
    ("eval_stride", 2.0), ("epochs", True), ("input_scale", True),
    ("learning_rate", "0.1"), ("use_recall", 1), ("center", "no"),
    ("dtype", None), ("contrast_loss", 0), ("window_scale", 0),
    # values of the right type that training cannot run
    ("eval_every", -3), ("short_len", 2),
    # a long window past training.MAX_WINDOW_FRAMES
    ("short_len", 2**70), ("window_scale", 2**16)])
def test_config_fields_are_type_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["learning_rate", "temperature", "weight_decay",
                                   "mal_weight", "input_scale", "jitter_sigma"])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_config_rejects_negative_jitter_sigma():
    with pytest.raises(ConfigError, match="jitter_sigma"):
        TrainConfig(jitter_sigma=-0.01)


@pytest.mark.parametrize("field", ["short_len", "window_scale", "stride", "batch_size",
                                   "width", "blocks", "temporal_kernel", "feature_dim",
                                   "queue_capacity"])
def test_config_refuses_zero_sizes(field):
    with pytest.raises(ConfigError, match=f"^{field} must be >= 1$"):
        TrainConfig(**{field: 0})


def test_config_accepts_ints_for_floats_and_none_eval_stride():
    config = TrainConfig(input_scale=1000, temperature=1, eval_stride=None)
    assert config.input_scale == 1000 and config.eval_stride is None
    assert TrainConfig(eval_stride=3).eval_stride == 3
    assert TrainConfig(short_len=training.MAX_WINDOW_FRAMES, window_scale=1).window_scale == 1


# --- checkpointing ----------------------------------------------------------------

def trained_state(tmp_path=None, epochs=2):
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=epochs)
    return train(config, recordings, label_map, SPLIT).state


def test_checkpoint_round_trip_bitwise(tmp_path):
    state = trained_state()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for k in state.params_s:
        assert np.array_equal(loaded.params_s[k], state.params_s[k])
    assert loaded.queue.fill == state.queue.fill
    assert loaded.queue.head == state.queue.head
    assert np.array_equal(loaded.queue.labels, state.queue.labels)
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state


def test_float64_checkpoint_round_trips_bitwise(tmp_path):
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=1, dtype="float64")
    state = train(config, recordings, label_map, SPLIT).state
    path = tmp_path / "f64.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    for name in ("params_s", "params_l", "decoder"):
        want, got = getattr(state, name), getattr(loaded, name)
        assert set(got) == set(want)
        for k in want:
            assert got[k].dtype == np.float64
            assert np.array_equal(got[k], want[k]), (name, k)
    assert loaded.queue.features.dtype == np.float64
    assert np.array_equal(loaded.queue.features, state.queue.features)
    assert np.array_equal(loaded.queue.labels, state.queue.labels)
    assert (loaded.queue.fill, loaded.queue.head) == (state.queue.fill, state.queue.head)


def test_checkpoint_detects_corruption(tmp_path):
    state = trained_state()
    path = tmp_path / "c.ckpt"
    save_checkpoint(state, path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 99])
def test_checkpoint_rejects_unknown_version(tmp_path, version):
    state = trained_state()
    path = tmp_path / "v.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    header["version"] = version
    path.write_bytes(json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="no migration path"):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    state = trained_state()
    path = tmp_path / "t.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


DROP = "<drop>"  # a value for _set that deletes the entry


def _set(path, value):
    def mutate(header):
        *keys, last = path
        node = header
        for k in keys:
            node = node[k]
        if value == DROP:
            del node[last]
        else:
            node[last] = value
    return mutate


def _write_mutant(path, header, payload, mutate):
    """Write ``payload`` under a copy of ``header`` that ``mutate`` edited."""
    mutant = copy.deepcopy(header)
    mutate(mutant)
    path.write_bytes(json.dumps(mutant).encode() + b"\n" + payload)


def _manifest(mutate_entries):
    return lambda header: mutate_entries(header["tensors"])


def _proj_bias_offsets(edit):
    """A fault that sets the offsets of ``encoder_s/proj.b`` and
    ``encoder_l/proj.b``, tensors of one shape, to ``edit(short, long)``."""
    def mutate(header):
        s, l = (next(e for e in header["tensors"] if e["name"] == f"encoder_{k}/proj.b")
                for k in "sl")
        s["offset"], l["offset"] = edit(s["offset"], l["offset"])
    return mutate


HEADER_FAULTS = {
    **{f"no_{key}": (lambda key: lambda h: h.pop(key))(key)
       for key in ("payload_sha256", "tensors", "memory", "labels", "config",
                   "rng_state", "epoch")},
    "unknown_config_key": lambda h: h["config"].update(bogus=1),
    "invalid_config_value": _set(["config", "dtype"], "float16"),
    # wrong-typed values that every range and shape check lets through
    "float_short_len": _set(["config", "short_len"], 6.0),
    "float_width": _set(["config", "width"], 4.0),
    "float_queue_capacity": _set(["config", "queue_capacity"], 32.0),
    "int_use_recall": _set(["config", "use_recall"], 1),
    "str_center": _set(["config", "center"], "yes"),
    "config_not_object": _set(["config"], [1, 2]),
    # json writes these as NaN and Infinity, and reads them back as floats
    **{f"{value}_{field}": _set(["config", field], float(value))
       for field in ("learning_rate", "temperature", "weight_decay", "mal_weight",
                     "input_scale", "jitter_sigma")
       for value in ("nan", "inf")},
    "negative_jitter_sigma": _set(["config", "jitter_sigma"], -0.01),
    "negative_eval_every": _set(["config", "eval_every"], -3),
    "negative_seed": _set(["config", "seed"], -1),
    "short_len_below_temporal_kernel": _set(["config", "short_len"], 2),
    "short_len_past_the_window_bound": _set(["config", "short_len"], 2**70),
    **{f"zero_{field}": _set(["config", field], 0)
       for field in ("width", "blocks", "temporal_kernel", "feature_dim", "queue_capacity")},
    "labels_not_names": _set(["labels"], "abc"),
    "labels_repeat_name": _set(["labels"], ["a", "a", "c"]),
    "fill_past_capacity": _set(["memory", "fill"], 33),
    "head_not_integer": _set(["memory", "head"], 1.5),
    "negative_step": _set(["step"], -1),
    "rng_state_garbage": _set(["rng_state", "state"], "x"),
    # numpy's PCG64 state setter raises OverflowError for these
    "rng_negative_inc": _set(["rng_state", "state", "inc"], -1),
    "rng_negative_uinteger": _set(["rng_state", "uinteger"], -1),
    "rng_huge_uinteger": _set(["rng_state", "uinteger"], 2**70),
    "rng_huge_has_uint32": _set(["rng_state", "has_uint32"], 2**70),
    "manifest_not_list": _set(["tensors"], {}),
    "entry_not_object": _manifest(lambda t: t.__setitem__(0, "decoder/b")),
    "entry_lacks_shape": _manifest(lambda t: t[0].pop("shape")),
    "entry_negative_offset": _manifest(lambda t: t[1].update(offset=-4)),
    "entry_float_nbytes": _manifest(lambda t: t[0].update(nbytes=12.0)),
    "entry_shape_not_nbytes": _manifest(lambda t: t[0].update(shape=[999])),
    "entry_duplicate_name": _manifest(lambda t: t[1].update(name=t[0]["name"])),
    "entry_dropped": _manifest(lambda t: t.pop(0)),
    "entry_transposed": _manifest(
        lambda t: next(e for e in t if e["name"] == "decoder/w")["shape"].reverse()),
    # every entry well formed, but not where save_checkpoint puts its tensor
    "entry_offsets_swapped": _proj_bias_offsets(lambda s, l: (l, s)),
    "entry_offsets_aliased": _proj_bias_offsets(lambda s, l: (s, s)),
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_malformed_checkpoint_header_is_checkpoint_error(tmp_path, fault):
    state = init_state(tiny_config(), ("a", "b", "c"))
    path = tmp_path / "m.ckpt"
    save_checkpoint(state, path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    _write_mutant(path, json.loads(header_line), payload, HEADER_FAULTS[fault])
    with pytest.raises(CheckpointError):
        FrozenModel.from_state(load_checkpoint(path))


def _node_paths(node, path=()):
    """The path of every value in a JSON document, nested ones included."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _node_paths(value, path + (key,))


MUTANT_VALUES = (-1, 0, 2**70, True, None, "x", 1.5)


def header_mutations_refuse_or_predict():
    """Each header value set to one of MUTANT_VALUES, or dropped, loads to a
    model that predicts, or is refused with a ToolkitError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "m.ckpt")
        _filled_checkpoint(path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        window = np.random.default_rng(0).normal(size=(3, 6, 3))

        @given(st.sampled_from(list(_node_paths(header))),
               st.sampled_from(MUTANT_VALUES + (DROP,)))
        @settings(max_examples=1000, deadline=None, database=None)
        def check(node, value):
            _write_mutant(path, header, payload, _set(node, value))
            try:
                model = FrozenModel.from_state(load_checkpoint(path))
                predict(model, window[:, :model.short_len])
            except ToolkitError:
                pass

        check()


def huge_block_counts_are_refused():
    """A block count far past the manifest's is refused before its layout is built."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "m.ckpt")
        _filled_checkpoint(path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        for blocks in (10**6, 2**70):
            _write_mutant(path, json.loads(header_line), payload,
                          _set(["config", "blocks"], blocks))
            with pytest.raises(CheckpointError, match="not the layout"):
                load_checkpoint(path)


@pytest.mark.parametrize("check", ["header_mutations_refuse_or_predict",
                                   "huge_block_counts_are_refused"])
def test_checkpoint_header_check_under_a_memory_cap(check):
    """Runs ``check`` in a child python whose address space is capped at 2 GiB,
    so a header that makes the loader allocate without bound fails the test
    instead of exhausting the machine. One BLAS thread keeps the buffers
    numpy reserves at import far below the cap."""
    pytest.importorskip("resource")
    cap = 2 << 30
    code = ("import resource, sys, warnings\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "warnings.simplefilter('error', RuntimeWarning)\n"
            f"sys.path[:0] = {[str(TESTS_DIR), str(SRC_DIR)]!r}\n"
            f"import test_training\ntest_training.{check}()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


def _filled_checkpoint(path, fill=10, **overrides):
    """A checkpoint of a fresh state (``tiny_config(**overrides)``) whose
    queue holds ``fill`` unit slots."""
    state = init_state(tiny_config(**overrides), ("a", "b", "c"))
    rng = np.random.default_rng(7)
    state.queue.enqueue_batch(random_unit_rows(rng, fill, 8, dtype=state.config.np_dtype),
                              rng.integers(0, 3, size=fill))
    save_checkpoint(state, path)


# SHA-256 of _filled_checkpoint files, by dtype, in the version-2 format. A
# change that moves one changes the format, and so bumps CHECKPOINT_VERSION.
GOLDEN_CHECKPOINTS = {
    "float32": "bf4417d53b0aac466d67bc88cfa878bd8bce9dc18ebb98dd91941d3e869a6573",
    "float64": "4f7b4aabc500629f9c33e372f13316d6d2a17cfa02613916eec50c225562c281",
}


@pytest.mark.parametrize("dtype", sorted(GOLDEN_CHECKPOINTS))
def test_checkpoint_bytes_are_pinned(tmp_path, dtype):
    path = tmp_path / "g.ckpt"
    _filled_checkpoint(path, dtype=dtype)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CHECKPOINTS[dtype]
    assert load_checkpoint(path).config.dtype == dtype


# edits that leave a state unlike its config's layout
STATE_FAULTS = {
    "decoder_tensor_missing": lambda s: s.decoder.pop("b"),
    "decoder_tensor_misshapen": lambda s: s.decoder.update(w=s.decoder["w"][:2]),
    "encoder_tensor_extra": lambda s: s.params_s.update(extra=np.zeros(3)),
    "encoder_blocks_unlike_config": lambda s: setattr(
        s, "config", dataclasses.replace(s.config, blocks=3)),
}


@pytest.mark.parametrize("fault", sorted(STATE_FAULTS))
def test_save_refuses_a_state_unlike_its_config_layout(tmp_path, fault):
    """save writes only what load accepts: a state missing, adding or
    misshaping a tensor of its config's layout is refused, and no file made."""
    state = init_state(tiny_config(), ("a", "b", "c"))
    STATE_FAULTS[fault](state)
    path = tmp_path / "s.ckpt"
    with pytest.raises(StructuralError):
        save_checkpoint(state, path)
    assert not path.exists()


PAYLOAD_RESIZES = {"longer": lambda p: p + bytes(64), "shorter": lambda p: p[:-4]}


@pytest.mark.parametrize("resize", sorted(PAYLOAD_RESIZES))
def test_checkpoint_payload_unlike_its_manifest_is_checkpoint_error(tmp_path, resize):
    """A re-signed payload longer or shorter than its manifest is refused."""
    path = tmp_path / "p.ckpt"
    _filled_checkpoint(path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    payload = PAYLOAD_RESIZES[resize](payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="payload holds"):
        load_checkpoint(path)


def _rewrite_tensor(path, name, edit):
    """Apply ``edit`` to one tensor of a checkpoint's payload in place and
    re-sign the payload, so only the checks on its values can catch it."""
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    entry = next(e for e in header["tensors"] if e["name"] == name)
    lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
    a = np.frombuffer(payload[lo:hi], dtype="<f4").reshape(entry["shape"]).copy()
    edit(a)
    payload = payload[:lo] + a.tobytes() + payload[hi:]
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


PAYLOAD_FAULTS = {
    "nan_slot": ("memory/features", lambda a: a[2].__setitem__(0, np.nan)),
    "inf_slot": ("memory/features", lambda a: a[2].__setitem__(0, np.inf)),
    "scaled_slot": ("memory/features", lambda a: a[2].__imul__(1e6)),
    "slot_too_large_to_square": ("memory/features",
                                 lambda a: a[2].__setitem__(0, 1e30)),
    "nan_label": ("memory/labels", lambda a: a.__setitem__(2, np.nan)),
    "fractional_label": ("memory/labels", lambda a: a.__setitem__(2, 1.5)),
    "negative_label": ("memory/labels", lambda a: a.__setitem__(2, -3)),
    "label_past_classes": ("memory/labels", lambda a: a.__setitem__(2, 99)),
    "nan_decoder_weight": ("decoder/w", lambda a: a.__setitem__((0, 0), np.nan)),
    "inf_encoder_weight": ("encoder_l/block0.temporal.w",
                           lambda a: a.reshape(-1).__setitem__(0, -np.inf)),
}


@pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
def test_checkpoint_payload_no_state_holds_is_checkpoint_error(tmp_path, fault):
    """A payload with a valid checksum but values no training state holds is
    refused, not loaded to predict NaN or read labels past the classes."""
    path = tmp_path / "p.ckpt"
    _filled_checkpoint(path)
    _rewrite_tensor(path, *PAYLOAD_FAULTS[fault])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_slot_past_the_fill_is_not_checked(tmp_path):
    path = tmp_path / "p.ckpt"
    _filled_checkpoint(path)
    _rewrite_tensor(path, "memory/features", lambda a: a[12].__setitem__(0, 3.0))
    loaded = load_checkpoint(path)
    assert loaded.queue.fill == 10 and loaded.queue.features[12, 0] == 3.0
    FrozenModel.from_state(loaded)


def test_resume_equals_uninterrupted_run(tmp_path):
    recordings, label_map = tiny_dataset()
    full_cfg = tiny_config(epochs=4)
    full = train(full_cfg, recordings, label_map, SPLIT)
    save_checkpoint(full.state, tmp_path / "full.ckpt")

    half = train(tiny_config(epochs=2), recordings, label_map, SPLIT)
    save_checkpoint(half.state, tmp_path / "half.ckpt")
    resumed = train(full_cfg, recordings, label_map, SPLIT,
                    resume_from=tmp_path / "half.ckpt")
    save_checkpoint(resumed.state, tmp_path / "resumed.ckpt")

    assert (tmp_path / "full.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()
    assert resumed.metrics == full.metrics[len(half.metrics):]


def test_resume_rejects_config_mismatch(tmp_path):
    recordings, label_map = tiny_dataset()
    state = train(tiny_config(epochs=1), recordings, label_map, SPLIT).state
    save_checkpoint(state, tmp_path / "x.ckpt")
    with pytest.raises(ConfigError):
        train(tiny_config(epochs=2, learning_rate=0.5), recordings, label_map,
              SPLIT, resume_from=tmp_path / "x.ckpt")


def test_resume_rejects_other_classes(tmp_path):
    recordings, label_map = tiny_dataset()
    state = train(tiny_config(epochs=1), recordings, label_map, SPLIT).state
    save_checkpoint(state, tmp_path / "x.ckpt")
    reordered = label_map[::-1]
    with pytest.raises(ConfigError, match="standing, walking, jumping do not "
                                          "match the data's classes jumping, "):
        train(tiny_config(epochs=2), recordings, reordered, SPLIT,
              resume_from=tmp_path / "x.ckpt")


def test_init_state_keeps_its_own_tuple_of_class_names(tmp_path):
    names = ["a", "b"]
    state = init_state(tiny_config(), names)
    names.append("c")  # the caller's list is not the state's
    assert state.label_names == ("a", "b")
    assert state.decoder["w"].shape[0] == 2
    save_checkpoint(state, tmp_path / "m.ckpt")


def test_model_shares_the_state_class_names():
    state = init_state(tiny_config(), ("a", "b", "c"))
    assert FrozenModel.from_state(state).label_names is state.label_names


def test_checkpoint_round_trip_gives_a_tuple_of_class_names(tmp_path):
    save_checkpoint(init_state(tiny_config(), ["a", "b", "c"]), tmp_path / "m.ckpt")
    assert load_checkpoint(tmp_path / "m.ckpt").label_names == ("a", "b", "c")


def test_resume_accepts_a_list_of_the_same_class_names(tmp_path):
    recordings, label_map = tiny_dataset()
    state = train(tiny_config(epochs=1), recordings, label_map, SPLIT).state
    save_checkpoint(state, tmp_path / "x.ckpt")
    resumed = train(tiny_config(epochs=2), recordings, list(label_map), SPLIT,
                    resume_from=tmp_path / "x.ckpt")
    assert resumed.state.epoch == 2 and resumed.state.label_names == label_map


@pytest.mark.parametrize("center", [False, True])
def test_input_scale_past_the_float_range_is_a_non_finite_error(center):
    # the training arrays, like preprocess, turn the overflow into inf
    # without a warning, and the first step's input check refuses it
    recordings, label_map = tiny_dataset()
    with pytest.raises(NonFiniteError, match="encoder input"):
        train(tiny_config(center=center, input_scale=1e308), recordings, label_map, SPLIT)


def test_prepare_data_drops_samples_without_long_windows():
    recordings, label_map = tiny_dataset(frames_per_class=60)
    config = tiny_config()
    data = prepare_data(config, recordings, label_map, SPLIT)
    # every retained pair is label-pure over the full long window by policy
    assert data["x_long"].shape[1:] == (3, config.window_scale * config.short_len, 3)
    assert data["x_short"].shape[0] == data["x_long"].shape[0]
    assert data["x_short"].shape[0] > 0


@pytest.mark.parametrize("labels,scale,pairs", [
    ([0] * 12, 1, {s: s for s in range(10)}),  # S=1: the short window itself
    ([0] * 20, 2, {6: 3}),  # floor(S/2)*T frames earlier: start 6 spans [3, 9)
    ([0] * 20, 4, {0: 0}),  # clamped at the left edge
    ([0] * 15, 4, {12: 3}),  # clamped at the right edge
    ([0] * 5, 2, {}),  # the recording cannot hold S*T frames: no pair at all
    ([0] * 6 + [1] * 6, 2, {6: None, 9: 6}),  # [3, 9) mixes labels
], ids=["scale_one", "centered", "left_clamp", "right_clamp", "too_short", "impure"])
def test_prepare_data_long_windows(labels, scale, pairs):
    """``pairs`` maps a short window's start (T=3, stride 1) to its long
    window's start, or to None when the pair is dropped."""
    rec = Recording("r0", "s0", np.random.default_rng(1).normal(size=(len(labels), 3, 3)),
                    np.asarray(labels, dtype=np.int64))
    config = TrainConfig(short_len=3, window_scale=scale, stride=1, center=False,
                         input_scale=1.0, dtype="float64")
    build = lambda: prepare_data(config, [rec], ("a", "b"),
                                 SplitSpec.from_lists(["s0"], ["s1"]))
    if not pairs:
        with pytest.raises(ConfigError, match="long-term window"):
            build()
        return
    data = build()
    window = lambda start, length: rec.joints[start:start + length].transpose(2, 0, 1)
    for short, long in pairs.items():
        rows = [i for i, x in enumerate(data["x_short"])
                if np.array_equal(x, window(short, 3))]
        assert len(rows) == (long is not None)
        for i in rows:
            assert np.array_equal(data["x_long"][i], window(long, 3 * scale))
            assert data["y_train"][i] == labels[short]


# --- training data against the per-window reference ------------------------------

def prepared_or_error(config, recordings, label_map, split, build):
    """What ``build`` returns, with each array and test sample as its bits and
    fields, or the message of the ConfigError it raises."""
    try:
        data = build(config, recordings, label_map, split)
    except ConfigError as e:
        return str(e)
    arrays = {k: (data[k].dtype, data[k].shape, data[k].flags.c_contiguous,
                  data[k].tobytes()) for k in ("x_short", "x_long", "y_train")}
    samples = [(type(s), s.data.dtype, s.data.shape, s.data.tobytes(), type(s.label),
                s.label, s.recording_id, s.start_frame) for s in data["test_samples"]]
    return arrays, samples


@st.composite
def subject_recordings(draw):
    """1-4 recordings built from label runs, 0 frames up, so some are shorter
    than T or than S*T; subjects s0-s2 train or test, s3 sometimes in neither."""
    recs = []
    for k in range(draw(st.integers(1, 4))):
        runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 40)), max_size=5))
        labels = np.repeat([lab for lab, _ in runs], [n for _, n in runs]).astype(np.int64)
        joints = np.random.default_rng(len(labels) + k).normal(size=(len(labels), 3, 3))
        joints += draw(st.sampled_from([0.0, 1.5]))
        joints[:draw(st.integers(0, len(labels)))] = -0.0  # numpy's sum of -0.0s is +0.0
        subject = draw(st.sampled_from(["s0", "s0", "s1", "s1", "s2", "s2", "s3"]))
        recs.append(Recording(f"r{k}", subject, joints, labels,
                              first_frame_index=draw(st.integers(0, 50))))
    return recs


@given(subject_recordings(), st.integers(1, 6), st.integers(1, 3), st.integers(1, 10),
       st.sampled_from([None, 1, 3]), st.booleans(),
       st.sampled_from([1.0, 1000.0]), st.sampled_from(["float32", "float64"]),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_prepare_data_equals_sample_reference(recordings, short_len, stride, scale,
                                              eval_stride, center, input_scale, dtype,
                                              split_s1):
    # windowing reads no temporal_kernel; 1 admits every short_len drawn
    config = TrainConfig(short_len=short_len, window_scale=scale, stride=stride,
                         eval_stride=eval_stride, center=center, input_scale=input_scale,
                         dtype=dtype, temporal_kernel=1)
    split = SplitSpec.from_lists(["s0", "s1"] if split_s1 else ["s0"],
                                 ["s2"] if split_s1 else ["s1", "s2"])
    label_map = ("a", "b", "c")
    got = prepared_or_error(config, recordings, label_map, split, prepare_data)
    assert got == prepared_or_error(config, recordings, label_map, split,
                                    ref_prepare_data)


def test_prepare_data_errors_match_reference():
    recordings, label_map = tiny_dataset(frames_per_class=60)
    cases = [
        # no recording holds a long window
        (tiny_config(window_scale=40), SPLIT),
        # s04 is in neither list
        (tiny_config(), SplitSpec.from_lists(["s00", "s01", "s02"], ["s03"])),
        # both: the split error comes first
        (tiny_config(window_scale=40), SplitSpec.from_lists(["s00"], ["s01"])),
    ]
    for config, split in cases:
        want = prepared_or_error(config, recordings, label_map, split, ref_prepare_data)
        assert isinstance(want, str)
        assert prepared_or_error(config, recordings, label_map, split, prepare_data) == want


def test_stray_window_found_only_at_the_eval_stride_fails_the_split():
    # s2 holds no pure 3-frame window at stride 2 (starts 0, 2, 4) but one at
    # the eval stride 3 (start 3), after the training arrays are built
    rng = np.random.default_rng(0)
    recordings = [Recording(f"r{k}", subject, rng.normal(size=(len(labels), 3, 3)),
                            np.asarray(labels, dtype=np.int64))
                  for k, (subject, labels) in enumerate((("s0", [0] * 12), ("s1", [0] * 12),
                                                         ("s2", [0, 0, 1, 0, 0, 0, 1])))]
    config = TrainConfig(short_len=3, stride=2, window_scale=2)
    split = SplitSpec.from_lists(["s0"], ["s1"])
    label_map = ("a", "b")
    for build in (prepare_data, ref_prepare_data):
        with pytest.raises(ConfigError) as err:
            build(config, recordings, label_map, split)
        assert str(err.value) == "subjects not covered by the split: ['s2']"
