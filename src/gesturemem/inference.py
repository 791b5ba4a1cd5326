"""Prediction and the streaming NDJSON serving protocol.

One batched path serves every prediction: :func:`window_features` checks and
preprocesses [B, C, T, V] windows and encodes them in one forward pass, and
:func:`predict_batch` adds the recalled memory feature and decodes.
:func:`predict` is that path on one window.

Input protocol: one JSON object per line, ``{"t": <ms>, "joints": [[x,y,z]*3]}``
(``t`` optional; synthesized from the frame counter and ``--frame-hz`` when
absent). Output: ``{"t": <ms>, "class": <id>, "name": <gesture>, "probs": [...]}``
once the window buffer holds T frames, at most once per ``stride_ms``.
Malformed input, and a ``t`` earlier than the last accepted frame's, yield an
``{"error": ...}`` object and the session continues.
"""

from __future__ import annotations

import json
import logging
import math
import socketserver
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import memory as mem
from .dataset import NUM_CHANNELS, NUM_JOINTS, preprocess
from .errors import NonFiniteError, StructuralError, ToolkitError

log = logging.getLogger(__name__)

# tolerance when comparing float timestamps against the emission stride, so a
# stride exactly equal to the frame period never misses a frame to rounding
TIME_EPS_MS = 1e-6


@dataclass(frozen=True)
class FrozenModel:
    """Everything prediction needs; immutable, so one model serves every session.

    A model freezes the encoder it was made from: construction copies the
    encoder parameters and the adjacency into read-only arrays and builds the
    encoder's GEMM operands from them once (``dataclasses.replace`` copies and
    builds again). Changing a training state's encoder afterwards, in place or
    by reassignment, does not reach the model. The decoder and the memory queue
    are not copied: the model reads them from the state it was made from. A
    checkpoint becomes a model through
    ``FrozenModel.from_state(training.load_checkpoint(path))``.
    """

    encoder_cfg: enc.EncoderConfig
    adjacency: np.ndarray
    params: dict
    decoder: dict
    queue: mem.MemoryQueue
    label_names: list
    short_len: int
    use_recall: bool
    center: bool
    input_scale: float
    dtype: type
    operands: enc.GemmOperands = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adjacency = _read_only_copy(self.adjacency)
        params = {name: _read_only_copy(p) for name, p in self.params.items()}
        operands = enc.GemmOperands.build(params, adjacency, self.dtype,
                                          self.encoder_cfg.blocks)
        for block in operands.blocks:
            for a in block:
                a.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "operands", operands)

    @classmethod
    def from_state(cls, state):
        cfg = state.config
        return cls(encoder_cfg=cfg.encoder_config(),
                   adjacency=state.graph.normalized,
                   params=state.params_s, decoder=state.decoder, queue=state.queue,
                   label_names=list(state.label_map.names), short_len=cfg.short_len,
                   use_recall=cfg.use_recall, center=cfg.center,
                   input_scale=cfg.input_scale, dtype=cfg.np_dtype)

    @property
    def num_classes(self):
        return len(self.label_names)


def _read_only_copy(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


def window_features(model, windows):
    """Unit-norm encoder features [B, feature_dim] of [B, C, T, V] windows.

    The windows must have the model's length and be finite
    (:class:`StructuralError`, :class:`NonFiniteError`); they are then
    preprocessed as in training and encoded in one forward pass.
    """
    windows = np.asarray(windows)
    shape = (NUM_CHANNELS, model.short_len, NUM_JOINTS)
    if windows.ndim != 4 or windows.shape[1:] != shape:
        raise StructuralError(f"expected [B, C, T, V] windows with (C, T, V) = "
                              f"{shape}, got shape {windows.shape}")
    if not np.isfinite(windows).all():
        raise NonFiniteError("non-finite value in prediction input")
    x = preprocess(windows, model.center, model.input_scale, model.dtype)
    return enc.encode_forward(model.operands, x, model.adjacency, model.encoder_cfg)[0]


def predict_batch(model, windows):
    """Classify [B, C, T, V] windows; returns (classes [B], probabilities [B, K]).

    With recall on, each feature gets its addressing-weighted recall of the
    memory queue added before decoding; an empty queue recalls nothing, so
    prediction reduces to the plain decoder path. Ties break toward the lowest
    class index.
    """
    f = window_features(model, windows)
    if model.use_recall and model.queue.fill > 0:
        f = f + mem.address_batch(model.queue, f) @ model.queue.filled_features
    probs = enc.classify(model.decoder, f)
    return probs.argmax(axis=1), probs


def predict(model, window):
    """Classify one [C, T, V] window as a batch of one; returns (class index,
    probability vector)."""
    classes, probs = predict_batch(model, np.asarray(window)[None])
    return int(classes[0]), probs[0]


def latency_estimate(frames, frame_period_ms, inference_ms):
    """End-to-end latency: window fill time plus single-sample inference time."""
    if frames < 0 or frame_period_ms < 0 or inference_ms < 0:
        raise StructuralError("latency inputs must be non-negative")
    return float(frames * frame_period_ms + inference_ms)


def _holds_bool(value):
    """Whether a parsed JSON value holds a boolean anywhere in its lists."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, bool):
            return True
        if isinstance(v, list):
            stack.extend(v)
    return False


class StreamSession:
    """One client's sliding window over arriving frames.

    Keeps the last T frames; once full, emits a prediction whenever at least
    ``stride_ms`` has elapsed (by frame timestamp) since the previous emission.
    A frame stamped earlier than the last accepted one is rejected, not
    buffered; equal timestamps are accepted.
    """

    def __init__(self, model, stride_ms=180.0, frame_hz=30.0):
        self.model = model
        self.stride_ms = float(stride_ms)
        self.frame_hz = float(frame_hz)
        self.buffer = deque(maxlen=model.short_len)
        self.frames_received = 0
        self.last_t = None
        self.last_emit_t = None
        self.last_prediction = None

    def handle_line(self, line):
        """Process one NDJSON line; returns an output object or None.

        Never raises: any malformed line gets an ``{"error": ...}`` object.
        """
        line = line.strip()
        if not line:
            return None
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            return {"error": f"malformed frame: {e.msg}"}
        except (ValueError, RecursionError):
            # an integer past the digit limit, or nesting past the recursion limit
            return {"error": "malformed frame: unparseable JSON"}
        if not isinstance(obj, dict) or "joints" not in obj:
            return {"error": "malformed frame: expected an object with 'joints'"}
        t = obj.get("t")
        if t is None:
            t = self.frames_received * 1000.0 / self.frame_hz
        else:
            try:
                t = float(t) if type(t) in (int, float) else math.nan  # not bool
            except OverflowError:  # an integer past the float range
                t = math.nan
            if not math.isfinite(t):
                return {"error": "malformed frame: 't' must be a finite number"}
        # numpy reads booleans mixed with numbers as 0/1; only a line that
        # spells one out pays for the scan
        if ("true" in line or "false" in line) and _holds_bool(obj["joints"]):
            return {"error": "non-numeric joint coordinate", "t": t}
        return self.handle_frame(t, obj["joints"])

    def handle_frame(self, t_ms, joints):
        """Append one frame; returns a prediction object when one is due."""
        try:
            joints = np.asarray(joints)
        except ValueError:  # ragged or too deeply nested
            return {"error": f"expected {NUM_JOINTS}x{NUM_CHANNELS} joints, "
                             "got a ragged array", "t": t_ms}
        if joints.dtype.kind not in "iuf":
            return {"error": "non-numeric joint coordinate", "t": t_ms}
        if joints.shape != (NUM_JOINTS, NUM_CHANNELS):
            return {"error": f"expected {NUM_JOINTS}x{NUM_CHANNELS} joints, "
                             f"got shape {list(joints.shape)}", "t": t_ms}
        joints = joints.astype(np.float64, copy=False)
        if not np.isfinite(joints).all():
            return {"error": "non-finite joint coordinate", "t": t_ms}
        if self.last_t is not None and t_ms < self.last_t:
            return {"error": "timestamp went backwards", "t": t_ms}
        self.last_t = t_ms
        self.buffer.append(joints)
        self.frames_received += 1
        if len(self.buffer) < self.model.short_len:
            return None
        if (self.last_emit_t is not None
                and t_ms - self.last_emit_t < self.stride_ms - TIME_EPS_MS):
            return None
        window = np.stack(self.buffer).transpose(2, 0, 1)  # [T,V,C] -> [C,T,V]
        debug = log.isEnabledFor(logging.DEBUG)
        started = time.perf_counter() if debug else 0.0
        try:
            cls, probs = predict(self.model, window)
        except ToolkitError as e:  # e.g. coordinates past the model dtype's range
            return {"error": f"cannot predict: {e}", "t": t_ms}
        if debug:
            log.debug("prediction at t=%.1f ms: class %d (%s), inference %.2f ms",
                      t_ms, cls, self.model.label_names[cls],
                      (time.perf_counter() - started) * 1000.0)
        self.last_emit_t = t_ms
        self.last_prediction = {"t": t_ms, "class": cls,
                                "name": self.model.label_names[cls],
                                "probs": [float(p) for p in probs]}
        return self.last_prediction


def serve_stream(model, source, sink, stride_ms=180.0, frame_hz=30.0):
    """Run one session over text streams (used for --stdin serving and tests)."""
    session = StreamSession(model, stride_ms=stride_ms, frame_hz=frame_hz)
    for line in source:
        out = session.handle_line(line)
        if out is not None:
            sink.write(json.dumps(out) + "\n")
            sink.flush()
    return session


def serve_tcp(model, host, port, stride_ms=180.0, frame_hz=30.0):
    """Serve concurrent NDJSON sessions over TCP; blocks until interrupted."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            session = StreamSession(model, stride_ms=stride_ms, frame_hz=frame_hz)
            for raw in self.rfile:
                out = session.handle_line(raw.decode("utf-8", errors="replace"))
                if out is not None:
                    self.wfile.write((json.dumps(out) + "\n").encode())

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        log.info("serving on %s:%d (stride %.0f ms)", host, port, stride_ms)
        server.serve_forever()
