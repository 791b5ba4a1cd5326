"""Training loop: paired short/long forward passes, recall fusion, contrastive
losses, SGD on the short-term encoder and decoder, momentum tracking of the
long-term encoder, FIFO enqueueing, and binary checkpoints.

Per step: encode the short windows (with gradients) and the long windows
(without); add the recall against the pre-step queue; classify; combine
cross-entropy with the configured contrastive term; apply SGD with weight decay
to the short-term encoder and decoder only; momentum-update the long-term
encoder; then enqueue the batch's long-term features. Only the enqueue mutates
the queue, so a sample never recalls features produced by its own batch.

The parameters a step changes live in flat buffers (:class:`FlatParams`): the
short encoder and the decoder in one, the long encoder in another. The state's
parameter dicts hold views into them, so checkpoints, :class:`FrozenModel` and
the encoder read plain dicts, while the update is a handful of whole-buffer
operations that change the arrays in place: an array held across a step sees
the step's update. Each float goes through the same elementwise operations as
a per-tensor update would.
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
from .config import check_field_types
from .dataset import refuse_unnamed_labels, window_dataset, window_starts
from .errors import CheckpointError, ConfigError, NonFiniteError, StructuralError
from .inference import FrozenModel, predict_batch

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 2
DTYPES = {"float32": np.float32, "float64": np.float64}
CONTRAST_KINDS = ("memory", "views")
DENOMINATOR_MODES = ("negatives", "all")
# Most frames a long window (short_len * window_scale) may span
MAX_WINDOW_FRAMES = 1 << 16


@dataclass
class TrainConfig:
    """Full training configuration; defaults are the paper-scale settings."""

    # windowing
    short_len: int = 6
    window_scale: int = 10
    stride: int = 1
    eval_stride: int | None = None      # None -> non-overlapping (short_len)
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
        check_field_types(self)
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ConfigError("eval_stride must be >= 1")
        for name in ("short_len", "window_scale", "stride", "batch_size", "width", "blocks",
                     "temporal_kernel", "feature_dim", "queue_capacity"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("epochs", "eval_every", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.short_len * self.window_scale > MAX_WINDOW_FRAMES:
            raise ConfigError(f"short_len * window_scale must be at most {MAX_WINDOW_FRAMES}, "
                              f"got {self.short_len} * {self.window_scale}")
        if self.short_len < self.temporal_kernel:
            raise ConfigError(f"short_len ({self.short_len}) must be >= temporal_kernel "
                              f"({self.temporal_kernel})")
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
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be >= 0")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if self.mal_weight < 0:
            raise ConfigError(f"mal_weight must be >= 0, got {self.mal_weight}")
        if self.denominator_mode not in DENOMINATOR_MODES:
            raise ConfigError(
                f"denominator_mode must be one of {DENOMINATOR_MODES}, "
                f"got {self.denominator_mode!r}")

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

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]


@dataclass
class TrainState:
    """Everything a training run mutates, plus what checkpoints persist.

    ``params_s``, ``params_l`` and ``decoder`` are dicts of arrays. After a
    step their arrays are views into ``flat``'s buffers, which each step
    updates in place; assigning a dict or an entry is safe, as the next step
    packs the buffers anew (see :func:`flat_params`).
    """

    config: TrainConfig
    label_names: tuple
    graph: enc.SkeletonGraph
    params_s: dict
    params_l: dict
    decoder: dict
    queue: mem.MemoryQueue
    rng: np.random.Generator
    epoch: int = 0
    step: int = 0
    flat: FlatParams | None = field(default=None, repr=False, compare=False)


def init_state(config, label_names):
    """A fresh state for ``config`` over the classes ``label_names``, which it
    keeps as a tuple: the state's class list cannot change under it."""
    label_names = tuple(label_names)
    if len(label_names) < 2:
        raise ConfigError("need at least 2 classes to train")
    if config.queue_capacity < config.batch_size:
        log.warning("queue capacity %d is smaller than batch size %d; "
                    "each step overwrites the whole queue",
                    config.queue_capacity, config.batch_size)
    rng = np.random.default_rng(config.seed)
    dtype = config.np_dtype
    params_s, params_l, decoder = enc.init_encoders(
        config.encoder_config(), len(label_names), rng, dtype)
    queue = mem.MemoryQueue(config.queue_capacity, config.feature_dim, dtype=dtype)
    return TrainState(config=config, label_names=label_names, graph=enc.skeleton_graph(),
                      params_s=params_s, params_l=params_l, decoder=decoder,
                      queue=queue, rng=rng)


def _augment_views(x, rng, jitter_sigma, min_len):
    """Two augmented views per sample: random temporal crop-and-pad plus jitter.

    View ``n`` (sample ``n % B``) crops ``length`` frames from ``start``, both
    drawn per view, and pads with its last frame: its frame ``j`` is the
    sample's frame ``start + min(j, length - 1)``. All 2B views are one gather.
    """
    b, c, t, v = x.shape
    bounds = np.empty((2 * b, 2), dtype=np.int64)
    for n in range(2 * b):
        length = int(rng.integers(min_len, t + 1))
        bounds[n] = int(rng.integers(0, t - length + 1)), length - 1
    frames = bounds[:, :1] + np.minimum(np.arange(t), bounds[:, 1:])     # [2B, T]
    sample = np.tile(np.arange(b), 2)
    views = x[sample[:, None, None], np.arange(c)[:, None], frames[:, None, :]]
    if jitter_sigma > 0:
        views += rng.normal(0.0, jitter_sigma, size=views.shape).astype(x.dtype)
    return views


def _pack(entries, dtype):
    """One new buffer holding the arrays ``d[k]`` of the (dict, key)
    ``entries`` back to back, in ``dtype``; each ``d[k]`` becomes its view."""
    arrays = [d[k] for d, k in entries]
    buf = np.concatenate(arrays, axis=None, dtype=dtype)
    lo = 0
    for (d, k), a in zip(entries, arrays):
        d[k] = buf[lo:lo + a.size].reshape(a.shape)
        lo += a.size
    return buf


@dataclass
class FlatParams:
    """A state's training parameters as contiguous buffers of the config dtype.

    ``trained`` holds the short encoder (``encoder``, a view of its head) and
    then the decoder, in the order of ``encoder_keys`` and ``decoder_keys``,
    and ``long`` the long encoder in the short encoder's layout. The state's
    ``params_s``, ``decoder`` and ``params_l`` hold views into these buffers.
    """

    trained: np.ndarray
    encoder: np.ndarray
    long: np.ndarray
    encoder_keys: tuple
    decoder_keys: tuple

    @classmethod
    def pack(cls, state):
        """Copy ``state``'s parameters into new buffers and make its dict
        entries views into them."""
        params_s, params_l = state.params_s, state.params_l
        if ({k: v.shape for k, v in params_l.items()}
                != {k: v.shape for k, v in params_s.items()}):
            raise StructuralError("the long and short encoders differ in structure")
        enc_keys, dec_keys = tuple(params_s), tuple(state.decoder)
        dtype = state.config.np_dtype
        trained = _pack([(params_s, k) for k in enc_keys]
                        + [(state.decoder, k) for k in dec_keys], dtype)
        long = _pack([(params_l, k) for k in enc_keys], dtype)
        return cls(trained=trained, encoder=trained[:long.size], long=long,
                   encoder_keys=enc_keys, decoder_keys=dec_keys)

    def holds(self, state):
        """Whether every parameter array of ``state`` is a view into these buffers."""
        groups = [(state.params_s, self.trained), (state.decoder, self.trained),
                  (state.params_l, self.long)]
        return all(v.base is buf for d, buf in groups for v in d.values())


def flat_params(state):
    """``state.flat``, packed anew first unless every parameter array of the
    state is a view into it: a fresh or loaded state, a deep copy (whose
    arrays are copies) and a state whose dict or dict entry was assigned all
    pack on their next step."""
    if state.flat is None or not state.flat.holds(state):
        state.flat = FlatParams.pack(state)
    return state.flat


def _sgd_update(flat, grad, cfg):
    """SGD with coupled weight decay, in place on ``flat.trained``, from the
    gradient ``grad`` in its layout (which it overwrites). With zero data
    gradient a parameter contracts by exactly (1 - lr * weight_decay)."""
    grad += cfg.weight_decay * flat.trained
    flat.trained -= cfg.learning_rate * grad


def train_step(state, x_short, x_long, labels):
    """One optimization step on a batch of (short window, long window, label).

    Mutates ``state`` in place and returns the step metrics. ``x_short`` is
    [B, C, T, V], ``x_long`` is [B, C, S*T, V].
    """
    cfg = state.config
    enc_cfg = cfg.encoder_config()
    adj = state.graph.normalized
    labels = np.asarray(labels)
    flat = flat_params(state)

    feats_s, cache_s = enc.encode_forward(state.params_s, x_short, adj, enc_cfg,
                                          want_cache=True)
    feats_l, _ = enc.encode_forward(state.params_l, x_long, adj, enc_cfg)

    if cfg.use_recall:
        recalled, recall_cache = mem.recall_batch_with_grad(state.queue, feats_s)
        combined = feats_s + recalled
    else:
        recall_cache = None
        combined = feats_s

    logits = combined @ state.decoder["w"].T + state.decoder["b"]
    ce, g_logits, probs = losses.softmax_cross_entropy_batch(logits, labels)
    accuracy = np.count_nonzero(probs.argmax(axis=1) == labels) / len(labels)

    g_combined = g_logits @ state.decoder["w"]
    g_feats = g_combined
    if cfg.use_recall:
        g_feats = g_combined + mem.recall_batch_backward(recall_cache, g_combined)

    contrast = 0.0
    aug_cache = None
    g_aug = None
    if cfg.use_mal:
        if cfg.contrast_loss == "memory":
            contrast, g_con = losses.memory_augmented_loss_with_grad(
                feats_s, labels, state.queue, cfg)
            g_feats += cfg.mal_weight * g_con
        else:
            views = _augment_views(x_short, state.rng, cfg.jitter_sigma,
                                   min_len=max(cfg.temporal_kernel, x_short.shape[2] - 2))
            view_labels = np.concatenate([labels, labels])
            view_feats, aug_cache = enc.encode_forward(state.params_s, views, adj,
                                                       enc_cfg, want_cache=True)
            contrast, g_views = losses.supervised_contrastive_loss_with_grad(
                view_feats, view_labels, cfg)
            g_aug = cfg.mal_weight * g_views

    total = ce + cfg.mal_weight * contrast
    if not np.isfinite(total):
        raise NonFiniteError(
            f"non-finite loss at step {state.step}: ce={ce!r} contrast={contrast!r}")

    param_grads = enc.encode_backward(cache_s, g_feats)
    dec_grads = {"w": g_logits.T @ combined, "b": g_logits.sum(axis=0)}
    grad = np.concatenate([param_grads[k] for k in flat.encoder_keys]
                          + [dec_grads[k] for k in flat.decoder_keys], axis=None)
    if g_aug is not None:
        aug_grads = enc.encode_backward(aug_cache, g_aug)
        grad[:flat.encoder.size] += np.concatenate(
            [aug_grads[k] for k in flat.encoder_keys], axis=None)

    _sgd_update(flat, grad, cfg)
    enc.momentum_update(flat.long, flat.encoder, cfg.momentum_coef)
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
    the innermost axis); so is the mean over the outer axis of the gather.
    Like that transform, a value taken past the float range becomes inf
    without a warning, and the first step's input check rejects it."""
    windows = frames[np.arange(length)[:, None] + starts]
    with np.errstate(over="ignore"):
        if config.center:
            windows -= windows.mean(axis=0)
        if config.input_scale != 1.0:
            windows *= config.input_scale
        return np.ascontiguousarray(windows.transpose(1, 3, 0, 2), dtype=config.np_dtype)


def _refuse_stray(stray, short_len, stride):
    """Refuse the split when a recording of ``stray``, whose subject is on
    neither side of it, holds a label-pure window at ``stride``."""
    uncovered = sorted({r.subject_id for r in stray
                        if window_starts(r, short_len, stride)[1].any()})
    if uncovered:
        raise ConfigError(f"subjects not covered by the split: {uncovered}")


def prepare_data(config, recordings, label_names, split):
    """Window recordings into training pairs and a non-overlapping test set.

    Training keeps only samples whose long-term context window exists and is
    label-pure. Returns a dict of the preprocessed training arrays
    ``x_short``, ``x_long`` and ``y_train``, plus the held-out
    ``test_samples``, raw windows that prediction preprocesses itself. The
    split selects recordings before any windowing: the arrays are gathered
    from the training subjects' frames in one pass, with no sample objects,
    and the test subjects' recordings are windowed at the eval stride.
    Nothing reads ``label_names``; the parameter stays because the benchmark
    in ``perfbench/`` passes it by position.
    """
    short_len, scale = config.short_len, config.window_scale
    eval_stride = config.eval_stride or short_len
    stray = [r for r in recordings
             if r.subject_id not in split.train_subjects | split.test_subjects]
    _refuse_stray(stray, short_len, config.stride)
    train_recs = [r for r in recordings
                  if r.subject_id in split.train_subjects and len(r) >= scale * short_len]
    shorts, longs, offset = [], [], 0
    for rec in train_recs:
        at, pure = window_starts(rec, short_len, config.stride)
        at = at[pure]
        starts, keep = window_starts(rec, short_len, window_scale=scale, at=at)
        shorts.append(offset + at[keep])
        longs.append(offset + starts[keep])
        offset += len(rec)
    if not sum(map(len, shorts)):
        raise ConfigError("no training samples with a constructible long-term window")
    _refuse_stray(stray, short_len, eval_stride)
    shorts = np.concatenate(shorts)
    frames = np.concatenate([r.joints for r in train_recs], dtype=np.float64)
    test_recs = [r for r in recordings if r.subject_id in split.test_subjects]
    return {"x_short": _pair_windows(frames, shorts, short_len, config),
            "x_long": _pair_windows(frames, np.concatenate(longs), scale * short_len, config),
            "y_train": np.concatenate([r.labels for r in train_recs])[shorts].astype(np.int64),
            "test_samples": window_dataset(test_recs, label_names, short_len,
                                           stride=eval_stride).shorts}


def train(config, recordings, label_names, split, log_path=None, resume_from=None):
    """Run (or resume) a full training run; returns the final state and metrics.

    Deterministic for a fixed config and seed: data order, augmentation, and
    initialization all derive from one seeded generator whose state rides along
    in checkpoints. A label of the split's recordings that names no class of
    ``label_names`` is a :class:`DataIntegrityError` before any step.
    """
    subjects = split.train_subjects | split.test_subjects
    refuse_unnamed_labels([r for r in recordings if r.subject_id in subjects],
                          len(label_names))
    data = prepare_data(config, recordings, label_names, split)
    if resume_from is not None:
        state = load_checkpoint(resume_from)
        resumed = dataclasses.asdict(state.config)
        target = dataclasses.asdict(config)
        resumed.pop("epochs"), target.pop("epochs")
        if resumed != target:
            raise ConfigError("checkpoint config does not match the resume config")
        if state.label_names != tuple(label_names):
            raise ConfigError(f"checkpoint classes {', '.join(state.label_names)} do not "
                              f"match the data's classes {', '.join(label_names)}")
        state.config = config
    else:
        state = init_state(config, label_names)

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
# dtype (``<f4`` for float32, ``<f8`` for float64). The config and the label
# count fix the manifest: :func:`_layout` names and shapes every tensor, and
# :func:`_manifest` lays them back to back in name order. A tensor is named
# ``<group>/<key>``: ``key`` of the TrainState dict STATE_GROUPS maps ``group``
# to, or ``memory/features`` and ``memory/labels``, the queue's arrays.
STATE_GROUPS = {"decoder": "decoder", "encoder_l": "params_l", "encoder_s": "params_s"}


def _wire_dtype(config):
    return np.dtype(config.np_dtype).newbyteorder("<")


def _layout(config, n_classes):
    """Sorted (name, shape) of every tensor a checkpoint of ``config`` holds."""
    params = enc.param_shapes(config.encoder_config())
    shapes = {"decoder/w": (n_classes, config.feature_dim), "decoder/b": (n_classes,)}
    shapes.update({f"encoder_s/{k}": v for k, v in params.items()})
    shapes.update({f"encoder_l/{k}": v for k, v in params.items()})
    shapes["memory/features"] = (config.queue_capacity, config.feature_dim)
    shapes["memory/labels"] = (config.queue_capacity,)
    return sorted(shapes.items())


def _manifest(layout, wire):
    """Manifest entries for ``layout``'s tensors laid back to back in the
    ``wire`` dtype, and the payload length in bytes."""
    entries, offset = [], 0
    for name, shape in layout:
        nbytes = wire.itemsize * math.prod(shape)
        entries.append({"name": name, "shape": list(shape), "offset": offset,
                        "nbytes": nbytes})
        offset += nbytes
    return entries, offset


def save_checkpoint(state, path):
    """Serialize a training state; the byte stream round-trips exactly. A state
    whose tensors are not :func:`_layout`'s for its config and labels is a
    :class:`StructuralError`, and no file is written."""
    config = state.config
    tensors = {f"{group}/{key}": a for group, field in STATE_GROUPS.items()
               for key, a in getattr(state, field).items()}
    tensors.update({"memory/features": state.queue.features,
                    "memory/labels": state.queue.labels})
    layout = _layout(config, len(state.label_names))
    wrong = set(layout) ^ {(name, np.shape(a)) for name, a in tensors.items()}
    if wrong:
        raise StructuralError(f"{min(wrong)[0]} is missing, extra or misshapen "
                              f"for the state's config")
    wire = _wire_dtype(config)
    manifest, _ = _manifest(layout, wire)
    payload = b"".join(tensors[name].astype(wire).tobytes() for name, _ in layout)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(config),
        "epoch": state.epoch,
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "memory": {"fill": state.queue.fill, "head": state.queue.head},
        "labels": state.label_names,
        "tensors": manifest,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(payload)
    return path


HEADER_KEYS = ("config", "epoch", "step", "rng_state", "memory", "labels", "tensors",
               "payload_sha256")


def _is_count(v):
    return type(v) is int and v >= 0


def load_checkpoint(path):
    """Rebuild a TrainState from :func:`save_checkpoint` output.

    A header or payload that is not what :func:`save_checkpoint` writes for
    the stored configuration raises :class:`CheckpointError`. The manifest
    must equal the one the config and labels give, entry for entry and type
    for type (``12.0`` is not ``12``), and the payload must be exactly its
    length; each tensor is read at the offset that manifest gives. A payload
    no training state holds raises it too: a non-finite tensor, a filled
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
    if len(set(labels)) != len(labels):
        raise CheckpointError(f"checkpoint labels {labels} repeat a name")
    try:
        config = TrainConfig(**header["config"])
    except (TypeError, ValueError, ConfigError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from None
    # two encoders of 4 tensors per block and 2 for the projection, the
    # decoder's 2 and the memory's 2: refused before _layout builds them all
    if not (isinstance(header["tensors"], list)
            and len(header["tensors"]) == 8 * config.blocks + 8):
        raise CheckpointError("the tensor manifest is not the layout of the config")
    wire = _wire_dtype(config)
    manifest, size = _manifest(_layout(config, len(labels)), wire)
    if not (isinstance(memory, dict) and _is_count(memory.get("fill"))
            and _is_count(memory.get("head"))
            and memory["fill"] <= config.queue_capacity
            and memory["head"] < config.queue_capacity):
        raise CheckpointError(f"invalid memory cursors {memory!r}")
    if not (_is_count(header["epoch"]) and _is_count(header["step"])):
        raise CheckpointError("epoch and step must be non-negative integers")
    if json.dumps(header["tensors"], sort_keys=True) != json.dumps(manifest, sort_keys=True):
        raise CheckpointError("the tensor manifest is not the layout of the config")
    if len(payload) != size:
        raise CheckpointError(f"the payload holds {len(payload)} bytes, not the "
                              f"manifest's {size}")
    arrays = {e["name"]: np.frombuffer(payload[e["offset"]:e["offset"] + e["nbytes"]],
                                       dtype=wire).reshape(e["shape"])
              for e in manifest}
    bad = [name for name in sorted(arrays) if not np.isfinite(arrays[name]).all()]
    if bad:
        raise CheckpointError(f"non-finite values in {', '.join(bad)}")
    if mem.off_unit_norm(arrays["memory/features"][:memory["fill"]])[0].any():
        raise CheckpointError("a filled memory slot is off unit norm")
    slot_labels = arrays["memory/labels"]
    if not ((slot_labels == np.rint(slot_labels)) & (slot_labels >= 0)
            & (slot_labels < len(labels))).all():
        raise CheckpointError(f"memory labels are not class indices in "
                              f"[0, {len(labels)})")

    dtype = config.np_dtype
    groups = {field: {} for field in STATE_GROUPS.values()}
    for name, a in arrays.items():
        group, key = name.split("/", 1)
        if group in STATE_GROUPS:
            groups[STATE_GROUPS[group]][key] = a.astype(dtype)

    queue = mem.MemoryQueue(config.queue_capacity, config.feature_dim, dtype=dtype)
    queue.features[:] = arrays["memory/features"].astype(dtype)
    queue.labels[:] = np.rint(arrays["memory/labels"]).astype(np.int64)
    queue.fill = memory["fill"]
    queue.head = memory["head"]

    bitgen = np.random.PCG64()
    try:
        bitgen.state = header["rng_state"]
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise CheckpointError(f"invalid RNG state: {e}") from None
    rng = np.random.Generator(bitgen)
    return TrainState(config=config, label_names=tuple(labels),
                      graph=enc.skeleton_graph(), queue=queue, rng=rng,
                      epoch=header["epoch"], step=header["step"], **groups)
