"""Training loop: paired short/long forward passes, recall fusion, contrastive
losses, SGD on the short-term encoder and decoder, momentum tracking of the
long-term encoder, FIFO enqueueing, and binary checkpoints.

Per step: encode the short windows (with gradients) and the long windows
(without); add the recall against the pre-step queue; classify; combine
cross-entropy with the configured contrastive term; apply SGD with weight decay
to the short-term encoder and decoder only; momentum-update the long-term
encoder; then enqueue the batch's long-term features. Only the enqueue mutates
the queue, so a sample never recalls features produced by its own batch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import memory as mem
from . import losses
from .dataset import LabelMap, split_subjects, window_dataset, window_starts
from .errors import CheckpointError, ConfigError, NonFiniteError
from .inference import FrozenModel, predict_batch

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1
DTYPES = {"float32": np.float32, "float64": np.float64}
CONTRAST_KINDS = ("memory", "views")
# Python types a TrainConfig field accepts, by its annotation (a string under
# ``from __future__ import annotations``); booleans only where it says bool.
FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "int | None": (int, type(None))}


@dataclass
class TrainConfig:
    """Full training configuration; defaults are the paper-scale settings."""

    # windowing
    short_len: int = 6
    window_scale: int = 10
    stride: int = 1
    eval_stride: int | None = None      # None -> non-overlapping (short_len)
    purity_required: bool = True
    center: bool = False
    input_scale: float = 1.0
    # encoder / decoder
    width: int = 32
    blocks: int = 2
    temporal_kernel: int = 3
    feature_dim: int = 128
    # memory queue
    queue_capacity: int = 65536
    momentum_coef: float = 0.99
    # losses
    temperature: float = 0.07
    mal_weight: float = 1.0
    denominator_mode: str = "negatives"
    # optimization
    learning_rate: float = 0.005
    weight_decay: float = 1e-4
    sgd_momentum: float = 0.0
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    # ablation / loss selection
    use_recall: bool = True
    use_mal: bool = True
    contrast_loss: str = "memory"
    jitter_sigma: float = 0.01
    # numerics / logging cadence
    dtype: str = "float32"
    eval_every: int = 1

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, FIELD_TYPES[f.type])
                    and isinstance(value, bool) == (f.type == "bool")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.short_len < 1 or self.window_scale < 1 or self.stride < 1:
            raise ConfigError("short_len, window_scale, and stride must be >= 1")
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ConfigError("eval_stride must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (0.0 <= self.momentum_coef < 1.0):
            raise ConfigError("momentum_coef must be in [0, 1)")
        if self.contrast_loss not in CONTRAST_KINDS:
            raise ConfigError(f"contrast_loss must be one of {CONTRAST_KINDS}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(DTYPES)}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigError("learning_rate must be > 0 and weight_decay >= 0")
        if self.input_scale <= 0:
            raise ConfigError("input_scale must be positive")
        if not (0.0 <= self.sgd_momentum < 1.0):
            raise ConfigError("sgd_momentum must be in [0, 1)")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")
        self.loss_config()  # validates temperature / weight / mode

    @classmethod
    def desk_profile(cls, **overrides):
        """Small-scale profile for laptop-CPU experiments and the test suite.

        Centers each window per joint and rescales so the encoder sees O(1)
        signals: raw meter-scale coordinates carry centimeter-scale motion that
        this small network would otherwise contract into the normalization
        epsilon regime.
        """
        base = dict(short_len=6, window_scale=10, stride=2, queue_capacity=512,
                    feature_dim=32, width=16, batch_size=16, epochs=30,
                    center=True, input_scale=1000.0)
        base.update(overrides)
        return cls(**base)

    def encoder_config(self):
        return enc.EncoderConfig(blocks=self.blocks, width=self.width,
                                 temporal_kernel=self.temporal_kernel,
                                 feature_dim=self.feature_dim)

    def loss_config(self):
        return losses.LossConfig(temperature=self.temperature,
                                 mal_weight=self.mal_weight,
                                 denominator_mode=self.denominator_mode)

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class TrainState:
    """Everything a training run mutates, plus what checkpoints persist."""

    config: TrainConfig
    label_map: LabelMap
    graph: enc.SkeletonGraph
    params_s: dict
    params_l: dict
    decoder: dict
    queue: mem.MemoryQueue
    velocities: dict | None
    rng: np.random.Generator
    epoch: int = 0
    step: int = 0


def init_state(config, label_map):
    if label_map.num_classes < 2:
        raise ConfigError("need at least 2 classes to train")
    if config.queue_capacity < config.batch_size:
        log.warning("queue capacity %d is smaller than batch size %d; "
                    "each step overwrites the whole queue",
                    config.queue_capacity, config.batch_size)
    rng = np.random.default_rng(config.seed)
    dtype = config.np_dtype
    params_s, params_l, decoder = enc.init_encoders(
        config.encoder_config(), label_map.num_classes, rng, dtype)
    queue = mem.MemoryQueue(config.queue_capacity, config.feature_dim, dtype=dtype)
    velocities = None
    if config.sgd_momentum > 0:
        velocities = {f"encoder_s/{k}": np.zeros_like(v) for k, v in params_s.items()}
        velocities.update({f"decoder/{k}": np.zeros_like(v) for k, v in decoder.items()})
    return TrainState(config=config, label_map=label_map, graph=enc.skeleton_graph(),
                      params_s=params_s, params_l=params_l, decoder=decoder,
                      queue=queue, velocities=velocities, rng=rng)


def _augment_views(x, rng, jitter_sigma, min_len):
    """Two augmented views per sample: random temporal crop-and-pad plus jitter."""
    b, c, t, v = x.shape
    views = np.empty((2 * b, c, t, v), dtype=x.dtype)
    for view in range(2):
        for i in range(b):
            length = int(rng.integers(min_len, t + 1))
            start = int(rng.integers(0, t - length + 1))
            crop = x[i, :, start:start + length, :]
            if length < t:
                pad = np.repeat(crop[:, -1:, :], t - length, axis=1)
                crop = np.concatenate([crop, pad], axis=1)
            views[view * b + i] = crop
    if jitter_sigma > 0:
        views += rng.normal(0.0, jitter_sigma, size=views.shape).astype(x.dtype)
    return views


def _sgd_apply(state, grads):
    """SGD with coupled weight decay over the short-term encoder and decoder.

    ``grads`` keys are prefixed parameter names (``encoder_s/...``,
    ``decoder/...``). With zero data gradient a parameter contracts by exactly
    (1 - lr * weight_decay) per step.
    """
    cfg = state.config
    lr, wd, momentum = cfg.learning_rate, cfg.weight_decay, cfg.sgd_momentum
    for name, g in grads.items():
        group, key = name.split("/", 1)
        params = state.params_s if group == "encoder_s" else state.decoder
        p = params[key]
        step_dir = g + wd * p
        if momentum > 0:
            vel = state.velocities[name]
            vel *= momentum
            vel += step_dir
            step_dir = vel
        params[key] = p - lr * step_dir


def train_step(state, x_short, x_long, labels):
    """One optimization step on a batch of (short window, long window, label).

    Mutates ``state`` in place and returns the step metrics. ``x_short`` is
    [B, C, T, V], ``x_long`` is [B, C, S*T, V].
    """
    cfg = state.config
    enc_cfg = cfg.encoder_config()
    loss_cfg = cfg.loss_config()
    adj = state.graph.normalized
    labels = np.asarray(labels)

    # built once: the views loss runs the short encoder on the same operands
    ops_s = enc.GemmOperands.build(state.params_s, adj, x_short.dtype, enc_cfg.blocks)
    feats_s, cache_s = enc.encode_forward(ops_s, x_short, adj, enc_cfg, want_cache=True)
    feats_l, _ = enc.encode_forward(state.params_l, x_long, adj, enc_cfg)

    if cfg.use_recall:
        recalled, recall_cache = mem.recall_batch_with_grad(state.queue, feats_s)
        combined = feats_s + recalled
    else:
        recall_cache = None
        combined = feats_s

    logits = combined @ state.decoder["w"].T + state.decoder["b"]
    ce, g_logits, probs = losses.softmax_cross_entropy_batch(logits, labels)
    accuracy = float((probs.argmax(axis=1) == labels).mean())

    g_combined = g_logits @ state.decoder["w"]
    g_feats = g_combined.copy()
    if cfg.use_recall:
        g_feats += mem.recall_batch_backward(recall_cache, g_combined)

    contrast = 0.0
    aug_cache = None
    g_aug = None
    if cfg.use_mal:
        if cfg.contrast_loss == "memory":
            contrast, g_con = losses.memory_augmented_loss_with_grad(
                feats_s, labels, state.queue, loss_cfg)
            g_feats += loss_cfg.mal_weight * g_con
        else:
            views = _augment_views(x_short, state.rng, cfg.jitter_sigma,
                                   min_len=max(cfg.temporal_kernel, x_short.shape[2] - 2))
            view_labels = np.concatenate([labels, labels])
            view_feats, aug_cache = enc.encode_forward(ops_s, views, adj, enc_cfg,
                                                       want_cache=True)
            contrast, g_views = losses.supervised_contrastive_loss_with_grad(
                view_feats, view_labels, loss_cfg)
            g_aug = loss_cfg.mal_weight * g_views

    total = losses.total_loss(ce, contrast, loss_cfg)
    if not np.isfinite(total):
        raise NonFiniteError(
            f"non-finite loss at step {state.step}: ce={ce!r} contrast={contrast!r}")

    param_grads, _ = enc.encode_backward(cache_s, g_feats)
    if g_aug is not None:
        aug_grads, _ = enc.encode_backward(aug_cache, g_aug)
        for k, v in aug_grads.items():
            param_grads[k] = param_grads[k] + v

    grads = {f"encoder_s/{k}": v for k, v in param_grads.items()}
    grads["decoder/w"] = g_logits.T @ combined
    grads["decoder/b"] = g_logits.sum(axis=0)

    _sgd_apply(state, grads)
    state.params_l = enc.momentum_update(state.params_l, state.params_s,
                                         cfg.momentum_coef)
    state.queue.enqueue_batch(feats_l, labels)
    state.step += 1
    return {"loss": float(total), "ce": float(ce), "contrast": float(contrast),
            "accuracy": accuracy}


@dataclass
class TrainResult:
    state: TrainState
    metrics: list = field(default_factory=list)
    test_samples: list = field(default_factory=list)  # prepare_data's held-out windows


def _pair_windows(frames, starts, length, config):
    """:func:`dataset.preprocess` of the windows ``frames[s:s + length]``, ``s``
    in ``starts``, as one [N, C, length, V] block, bit for bit. Its mean over T
    is a running sum from zero in frame order (numpy sums pairwise only along
    the innermost axis); so is the mean over the outer axis of the gather."""
    windows = frames[np.arange(length)[:, None] + starts]
    if config.center:
        windows -= windows.mean(axis=0)
    if config.input_scale != 1.0:
        windows *= config.input_scale
    return np.ascontiguousarray(windows.transpose(1, 3, 0, 2), dtype=config.np_dtype)


def prepare_data(config, recordings, label_map, split):
    """Window recordings into training pairs and a non-overlapping test set.

    Training keeps only samples whose long-term context window exists (and is
    label-pure when required). Returns a dict of the preprocessed training
    arrays ``x_short``, ``x_long`` and ``y_train``, plus the held-out
    ``test_samples``, raw windows that prediction preprocesses itself. The
    arrays are gathered from the training frames in one pass, with no sample
    objects; held-out subjects are windowed for testing only.
    """
    short_len, scale = config.short_len, config.window_scale
    stray = [r for r in recordings
             if r.subject_id not in split.train_subjects | split.test_subjects]
    if stray:  # one with windows fails the split
        split_subjects(window_dataset(stray, label_map, short_len, stride=config.stride),
                       split)
    train_recs = [r for r in recordings
                  if r.subject_id in split.train_subjects and len(r) >= scale * short_len]
    shorts, longs, offset = [], [], 0
    for rec in train_recs:
        at, pure = window_starts(rec, short_len, config.stride)
        at = at[pure]
        starts, keep = window_starts(rec, short_len, window_scale=scale, at=at,
                                     purity_required=config.purity_required)
        shorts.append(offset + at[keep])
        longs.append(offset + starts[keep])
        offset += len(rec)
    if not sum(map(len, shorts)):
        raise ConfigError("no training samples with a constructible long-term window")
    shorts = np.concatenate(shorts)
    frames = np.concatenate([r.joints for r in train_recs], dtype=np.float64)
    held_out = [r for r in recordings if r.subject_id not in split.train_subjects]
    eval_set = window_dataset(held_out, label_map, short_len,
                              stride=config.eval_stride or short_len)
    _, test_idx = split_subjects(eval_set, split)
    return {"x_short": _pair_windows(frames, shorts, short_len, config),
            "x_long": _pair_windows(frames, np.concatenate(longs), scale * short_len, config),
            "y_train": np.concatenate([r.labels for r in train_recs])[shorts].astype(np.int64),
            "test_samples": [eval_set.shorts[i] for i in test_idx]}


def train(config, recordings, label_map, split, log_path=None, resume_from=None):
    """Run (or resume) a full training run; returns the final state and metrics.

    Deterministic for a fixed config and seed: data order, augmentation, and
    initialization all derive from one seeded generator whose state rides along
    in checkpoints.
    """
    data = prepare_data(config, recordings, label_map, split)
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        resumed = dataclasses.asdict(state.config)
        target = dataclasses.asdict(config)
        resumed.pop("epochs"), target.pop("epochs")
        if resumed != target:
            raise ConfigError("checkpoint config does not match the resume config")
        state.config = config
    else:
        state = init_state(config, label_map)

    x_short, x_long, y_train = data["x_short"], data["x_long"], data["y_train"]
    test_windows = np.asarray([s.data for s in data["test_samples"]])
    test_labels = np.asarray([s.label for s in data["test_samples"]])
    n = x_short.shape[0]
    metrics = []
    for epoch in range(state.epoch + 1, config.epochs + 1):
        order = state.rng.permutation(n)
        sums = {"loss": 0.0, "ce": 0.0, "contrast": 0.0, "accuracy": 0.0}
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            step_metrics = train_step(state, x_short[idx], x_long[idx], y_train[idx])
            for k in sums:
                sums[k] += step_metrics[k] * len(idx)
        state.epoch = epoch
        row = {"epoch": epoch, "split": "train"}
        row.update({k: sums[k] / n for k in sums})
        metrics.append(row)
        if config.eval_every and epoch % config.eval_every == 0 and len(test_labels):
            # held-out accuracy against the current (frozen) queue
            model = FrozenModel.from_state(state)
            classes = np.concatenate([predict_batch(model, test_windows[lo:lo + 256])[0]
                                      for lo in range(0, len(test_labels), 256)])
            metrics.append({"epoch": epoch, "split": "test",
                            "accuracy": float((classes == test_labels).mean())})
        log.info("epoch %d: train acc %.4f loss %.4f", epoch, row["accuracy"], row["loss"])

    if log_path is not None:
        write_metrics(log_path, metrics)
    return TrainResult(state=state, metrics=metrics, test_samples=data["test_samples"])


def write_metrics(path, metrics):
    with open(path, "w", encoding="utf-8") as fh:
        for row in metrics:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# --- checkpoint format -----------------------------------------------------------
#
# One JSON header line (version, config, epoch/step counters, RNG state, queue
# cursors, label names, tensor manifest with shapes/offsets, payload SHA-256),
# then raw little-endian tensor payloads in manifest order, in the configured
# dtype (``<f4`` for float32, ``<f8`` for float64).


def _wire_dtype(config):
    return np.dtype(config.np_dtype).newbyteorder("<")


def _state_tensors(state):
    tensors = {}
    for k, v in sorted(state.params_s.items()):
        tensors[f"encoder_s/{k}"] = v
    for k, v in sorted(state.params_l.items()):
        tensors[f"encoder_l/{k}"] = v
    for k, v in sorted(state.decoder.items()):
        tensors[f"decoder/{k}"] = v
    tensors["memory/features"] = state.queue.features
    tensors["memory/labels"] = state.queue.labels
    if state.velocities is not None:
        for k, v in sorted(state.velocities.items()):
            tensors[f"velocity/{k}"] = v
    return tensors


def save_checkpoint(state, path):
    """Serialize a training state; the byte stream round-trips exactly."""
    tensors = _state_tensors(state)
    wire = _wire_dtype(state.config)
    manifest = []
    chunks = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name]).astype(wire)
        raw = arr.tobytes()
        manifest.append({"name": name, "shape": list(tensors[name].shape),
                         "offset": offset, "nbytes": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    payload = b"".join(chunks)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_dict(),
        "epoch": state.epoch,
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "memory": {"fill": state.queue.fill, "head": state.queue.head},
        "labels": list(state.label_map.names),
        "has_velocities": state.velocities is not None,
        "tensors": manifest,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(payload)
    return path


HEADER_KEYS = ("config", "epoch", "step", "rng_state", "memory", "labels",
               "has_velocities", "tensors", "payload_sha256")


def _is_count(v):
    return type(v) is int and v >= 0


def _read_tensors(manifest, payload, wire):
    """Tensor name -> array of the ``wire`` dtype for every manifest entry."""
    if not isinstance(manifest, list):
        raise CheckpointError("checkpoint tensor manifest is not a list")
    arrays = {}
    for i, entry in enumerate(manifest):
        try:
            name, shape = entry["name"], entry["shape"]
            lo, nbytes = entry["offset"], entry["nbytes"]
        except (TypeError, KeyError):
            raise CheckpointError(f"manifest entry {i} lacks name, shape, offset "
                                  "or nbytes") from None
        if not (isinstance(name, str) and name not in arrays and _is_count(lo)
                and _is_count(nbytes) and isinstance(shape, list)
                and all(_is_count(d) for d in shape)):
            raise CheckpointError(f"malformed manifest entry {i}")
        if lo + nbytes > len(payload):
            raise CheckpointError(f"tensor {name} overruns the payload")
        if nbytes != wire.itemsize * math.prod(shape):
            raise CheckpointError(f"tensor {name}: {nbytes} bytes do not hold "
                                  f"shape {shape}")
        arrays[name] = np.frombuffer(payload[lo:lo + nbytes], dtype=wire).reshape(shape)
    return arrays


def _expected_shapes(config, n_classes):
    """Name -> shape of every tensor a checkpoint of ``config`` holds."""
    params = enc.param_shapes(config.encoder_config())
    shapes = {"decoder/w": (n_classes, config.feature_dim), "decoder/b": (n_classes,)}
    shapes.update({f"encoder_s/{k}": v for k, v in params.items()})
    if config.sgd_momentum > 0:
        shapes.update({f"velocity/{k}": v for k, v in shapes.items()})
    shapes.update({f"encoder_l/{k}": v for k, v in params.items()})
    shapes["memory/features"] = (config.queue_capacity, config.feature_dim)
    shapes["memory/labels"] = (config.queue_capacity,)
    return shapes


def load_checkpoint(path):
    """Rebuild a TrainState from :func:`save_checkpoint` output.

    A header, manifest or payload that is not what :func:`save_checkpoint`
    writes for the stored configuration raises :class:`CheckpointError`, and
    so does a payload no training state holds: a non-finite tensor, a filled
    memory slot off unit norm (``memory.NORM_TOL``), or a memory label that
    is not a class index.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as e:
        raise CheckpointError(f"unreadable checkpoint header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {header.get('version')!r} is not supported "
            f"(expected {CHECKPOINT_VERSION}); no migration path")
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"checkpoint header lacks {', '.join(missing)}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError("payload checksum mismatch: checkpoint is corrupt")

    labels, memory = header["labels"], header["memory"]
    if not (isinstance(labels, list) and all(isinstance(n, str) for n in labels)):
        raise CheckpointError("checkpoint labels are not a list of names")
    try:
        config = TrainConfig.from_dict(header["config"])
        expected = _expected_shapes(config, len(labels))
    except (TypeError, ValueError, ConfigError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from None
    if header["has_velocities"] is not (config.sgd_momentum > 0):
        raise CheckpointError("has_velocities disagrees with the config's sgd_momentum")
    if not (isinstance(memory, dict) and _is_count(memory.get("fill"))
            and _is_count(memory.get("head"))
            and memory["fill"] <= config.queue_capacity
            and memory["head"] < config.queue_capacity):
        raise CheckpointError(f"invalid memory cursors {memory!r}")
    if not (_is_count(header["epoch"]) and _is_count(header["step"])):
        raise CheckpointError("epoch and step must be non-negative integers")
    arrays = _read_tensors(header["tensors"], payload, _wire_dtype(config))
    shapes = {name: a.shape for name, a in arrays.items()}
    if shapes != expected:
        wrong = sorted(set(shapes) ^ set(expected)
                       | {n for n in set(shapes) & set(expected) if shapes[n] != expected[n]})
        raise CheckpointError(f"tensors missing, unexpected or misshapen for the "
                              f"config: {', '.join(wrong)}")
    bad = [name for name in sorted(arrays) if not np.isfinite(arrays[name]).all()]
    if bad:
        raise CheckpointError(f"non-finite values in {', '.join(bad)}")
    with np.errstate(over="ignore"):  # a slot too large to square is off too
        off = mem.off_unit_norm(arrays["memory/features"][:memory["fill"]])[0]
    if off.any():
        raise CheckpointError("a filled memory slot is off unit norm")
    slot_labels = arrays["memory/labels"]
    if not ((slot_labels == np.rint(slot_labels)) & (slot_labels >= 0)
            & (slot_labels < len(labels))).all():
        raise CheckpointError(f"memory labels are not class indices in "
                              f"[0, {len(labels)})")

    dtype = config.np_dtype

    def group(prefix, cast):
        return {name[len(prefix):]: arrays[name].astype(cast)
                for name in arrays if name.startswith(prefix)}

    params_s = group("encoder_s/", dtype)
    params_l = group("encoder_l/", dtype)
    decoder = group("decoder/", dtype)
    label_map = LabelMap(names=list(labels))

    queue = mem.MemoryQueue(config.queue_capacity, config.feature_dim, dtype=dtype)
    queue.features[:] = arrays["memory/features"].astype(dtype)
    queue.labels[:] = np.rint(arrays["memory/labels"]).astype(np.int64)
    queue.fill = memory["fill"]
    queue.head = memory["head"]

    velocities = group("velocity/", dtype) if header["has_velocities"] else None

    bitgen = np.random.PCG64()
    try:
        bitgen.state = header["rng_state"]
    except (TypeError, ValueError, KeyError) as e:
        raise CheckpointError(f"invalid RNG state: {e}") from None
    rng = np.random.Generator(bitgen)
    return TrainState(config=config, label_map=label_map, graph=enc.skeleton_graph(),
                      params_s=params_s, params_l=params_l, decoder=decoder,
                      queue=queue, velocities=velocities, rng=rng,
                      epoch=header["epoch"], step=header["step"])
