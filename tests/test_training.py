import copy
import dataclasses
import json

import numpy as np
import pytest

from gesturemem import encoder as enc
from gesturemem import losses
from gesturemem import memory as mem
from gesturemem.dataset import (LabelMap, SplitSpec, SynthesisConfig,
                                synthesize_recordings)
from gesturemem.errors import CheckpointError, ConfigError
from gesturemem.evaluation import evaluate
from gesturemem.inference import FrozenModel
from gesturemem.training import (TrainConfig, _sgd_apply, init_state,
                                 load_checkpoint, prepare_data,
                                 save_checkpoint, train, train_step,
                                 write_metrics)

from helpers import (fd_param_grads, random_unit_rows, rel_error,
                     relu_preactivations)

SPLIT = SplitSpec.from_lists(["s00", "s01", "s02"], ["s03", "s04"])


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
    from gesturemem.dataset import LabelMap

    state = init_state(config, LabelMap(names=["a", "b", "c"]))
    rng = np.random.default_rng(1)
    prefill_queue(state, rng, 8)
    train_step(state, *make_batch(config, rng))
    for k in state.params_s:
        assert np.array_equal(state.params_l[k], state.params_s[k])


def test_train_step_matches_finite_difference_oracle():
    # hand-rolled oracle: finite differences of the full objective against the
    # pre-step queue, then one SGD step with weight decay
    config = tiny_config(dtype="float64", use_recall=True, use_mal=True)
    from gesturemem.dataset import LabelMap

    state = init_state(config, LabelMap(names=["a", "b", "c"]))
    rng = np.random.default_rng(2)
    prefill_queue(state, rng, 12)
    x_s, x_l, y = make_batch(config, rng)

    adj = state.graph.normalized
    enc_cfg = config.encoder_config()
    loss_cfg = config.loss_config()
    frozen_queue = copy.deepcopy(state.queue)

    def objective(params_s, decoder):
        feats, _ = enc.encode_forward(params_s, x_s, adj, enc_cfg)
        recalled, _ = mem.recall_batch_with_grad(frozen_queue, feats)
        fused = feats + recalled
        logits = fused @ decoder["w"].T + decoder["b"]
        ce, _, _ = losses.softmax_cross_entropy_batch(logits, y)
        mal, _ = losses.memory_augmented_loss_with_grad(feats, y, frozen_queue, loss_cfg)
        return losses.total_loss(ce, mal, loss_cfg)

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
    from gesturemem.dataset import LabelMap

    state = init_state(config, LabelMap(names=["a", "b", "c"]))
    rng = np.random.default_rng(3)
    prefill_queue(state, rng, 10)
    slots_before = state.queue.features[:10].copy()
    params_l_before = copy.deepcopy(state.params_l)

    x_s, x_l, y = make_batch(config, rng)
    train_step(state, x_s, x_l, y)

    # pre-existing slots only change by FIFO eviction, never by gradients
    assert np.array_equal(state.queue.features[:10], slots_before)
    # the long-term encoder moved exactly along the momentum recursion
    expected = enc.momentum_update(params_l_before, state.params_s,
                                   config.momentum_coef)
    for k in expected:
        assert np.array_equal(state.params_l[k], expected[k])


def test_weight_decay_contracts_with_zero_gradient():
    config = tiny_config(dtype="float64", learning_rate=0.1, weight_decay=0.01)
    from gesturemem.dataset import LabelMap

    state = init_state(config, LabelMap(names=["a", "b"]))
    before = copy.deepcopy(state.params_s)
    zero_grads = {f"encoder_s/{k}": np.zeros_like(v) for k, v in state.params_s.items()}
    zero_grads.update({f"decoder/{k}": np.zeros_like(v)
                       for k, v in state.decoder.items()})
    _sgd_apply(state, zero_grads)
    factor = 1.0 - config.learning_rate * config.weight_decay
    for k in before:
        assert np.allclose(state.params_s[k], factor * before[k], rtol=0, atol=1e-18)


def test_queue_fill_formula():
    config = tiny_config(queue_capacity=10, batch_size=4, dtype="float64")
    from gesturemem.dataset import LabelMap

    state = init_state(config, LabelMap(names=["a", "b", "c"]))
    rng = np.random.default_rng(4)
    for step in range(1, 6):
        train_step(state, *make_batch(config, rng))
        assert state.queue.fill == min(step * 4, 10)


def test_long_encoder_follows_exact_recursion_over_steps():
    config = tiny_config(dtype="float64", momentum_coef=0.9)
    from gesturemem.dataset import LabelMap

    state = init_state(config, LabelMap(names=["a", "b", "c"]))
    rng = np.random.default_rng(5)
    replay = copy.deepcopy(state.params_l)
    for _ in range(4):
        train_step(state, *make_batch(config, rng))
        replay = enc.momentum_update(replay, state.params_s, config.momentum_coef)
    for k in replay:
        assert np.array_equal(replay[k], state.params_l[k])


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
    ("dtype", None), ("contrast_loss", 0)])
def test_config_fields_are_type_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_config_accepts_ints_for_floats_and_none_eval_stride():
    config = TrainConfig(input_scale=1000, temperature=1, eval_stride=None)
    assert config.input_scale == 1000 and config.eval_stride is None
    assert TrainConfig(eval_stride=3).eval_stride == 3


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
    config = tiny_config(epochs=1, dtype="float64", sgd_momentum=0.9)
    state = train(config, recordings, label_map, SPLIT).state
    path = tmp_path / "f64.ckpt"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    for name in ("params_s", "params_l", "decoder", "velocities"):
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


def test_checkpoint_rejects_unknown_version(tmp_path):
    state = trained_state()
    path = tmp_path / "v.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    header["version"] = 99
    path.write_bytes(json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    state = trained_state()
    path = tmp_path / "t.ckpt"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _set(path, value):
    def mutate(header):
        *keys, last = path
        node = header
        for k in keys:
            node = node[k]
        node[last] = value
    return mutate


def _manifest(mutate_entries):
    return lambda header: mutate_entries(header["tensors"])


HEADER_FAULTS = {
    **{f"no_{key}": (lambda key: lambda h: h.pop(key))(key)
       for key in ("payload_sha256", "tensors", "memory", "labels", "config",
                   "has_velocities", "rng_state", "epoch")},
    "unknown_config_key": lambda h: h["config"].update(bogus=1),
    "invalid_config_value": _set(["config", "dtype"], "float16"),
    # wrong-typed values that every range and shape check lets through
    "float_short_len": _set(["config", "short_len"], 6.0),
    "float_width": _set(["config", "width"], 4.0),
    "float_queue_capacity": _set(["config", "queue_capacity"], 32.0),
    "int_use_recall": _set(["config", "use_recall"], 1),
    "str_center": _set(["config", "center"], "yes"),
    "config_not_object": _set(["config"], [1, 2]),
    "labels_not_names": _set(["labels"], "abc"),
    "has_velocities_disagrees": _set(["has_velocities"], False),
    "fill_past_capacity": _set(["memory", "fill"], 33),
    "head_not_integer": _set(["memory", "head"], 1.5),
    "negative_step": _set(["step"], -1),
    "rng_state_garbage": _set(["rng_state", "state"], "x"),
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
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS))
def test_malformed_checkpoint_header_is_checkpoint_error(tmp_path, fault):
    state = init_state(tiny_config(sgd_momentum=0.5), LabelMap(names=["a", "b", "c"]))
    path = tmp_path / "m.ckpt"
    save_checkpoint(state, path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    HEADER_FAULTS[fault](header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointError):
        FrozenModel.from_state(load_checkpoint(path))


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


def test_prepare_data_drops_samples_without_long_windows():
    recordings, label_map = tiny_dataset(frames_per_class=60)
    config = tiny_config()
    data = prepare_data(config, recordings, label_map, SPLIT)
    # every retained pair is label-pure over the full long window by policy
    assert data["x_long"].shape[1:] == (3, config.window_scale * config.short_len, 3)
    assert data["x_short"].shape[0] == data["x_long"].shape[0]
    assert data["x_short"].shape[0] > 0


def test_sgd_momentum_velocity_is_checkpointed(tmp_path):
    recordings, label_map = tiny_dataset()
    config = tiny_config(epochs=1, sgd_momentum=0.9)
    result = train(config, recordings, label_map, SPLIT)
    assert result.state.velocities is not None
    path = tmp_path / "m.ckpt"
    save_checkpoint(result.state, path)
    loaded = load_checkpoint(path)
    for k, v in result.state.velocities.items():
        assert np.array_equal(loaded.velocities[k], v)
