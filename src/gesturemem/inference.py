"""Prediction and the streaming NDJSON serving protocol.

One batched path serves every prediction: :func:`window_features` is the
served forward, and :func:`predict_batch` addresses the memory and decodes. A
:class:`FrozenModel` snapshots the encoder, the decoder and the memory queue of
the state it is made from, so the decoder folds into the memory once per model:
recall's readout runs on ``W_dec @ memᵀ`` ([classes, fill]), not on the stored
features. :func:`predict` is that path on one window.

The served forward runs under one ``np.errstate``: ``dataset.input_frames``,
the one input transform, writes the channels-last frames that the encoder
kernel reads as [(B*T), V*C] rows, one finiteness check runs on them, and the
encoder's one tile loop runs the kernel on the model's operands, bias rows,
pooling vector and tile count, all built with the model. Every batch size
takes that path, with the bits of ``encoder.encode_forward`` on
``dataset.preprocess``'s output.

A prediction reads the memory once, in three operations: ``e = (f @ B) @
keys``, ``exp(e)`` in place and ``s = e @ readoutᵀ``. Every query is
``f = (proj.w @ pooled + proj.b) / r``, so it lies in the span of
``[proj.w | proj.b]``, a subspace of dimension at most ``width + 1``; ``B`` is
an orthonormal basis of it and ``keys = Bᵀ memᵀ`` the slots' coordinates in
it, so each logit ``(Bᵀf)·(Bᵀm) = f·(BBᵀm) = f·m`` up to rounding, while the
scan reads ``width + 1`` numbers per slot instead of ``feature_dim``. Every
filled slot has unit norm within ``memory.NORM_TOL`` (the model checks this
when it is built) and the encoder's features have norm at most 1; a
projection makes neither longer, so every logit lies in [-1.001, 1.001]: exp
cannot overflow and needs no max pass, and the softmax normalizer is at least
``fill * e^-1.001``. The readout's last row is all ones, so the same product
gives the normalizer, and only the ``classes`` decoded numbers are divided by
it (the online softmax's deferred rescale, Milakov & Gimelshein 2018,
arXiv:1805.02867; FlashAttention, Dao et al. 2022, arXiv:2205.14135).

Input protocol: one JSON object per line, ``{"t": <ms>, "joints": [[x,y,z]*3]}``
(``t`` optional; when absent, one ``--frame-hz`` period after the last accepted
frame's, or 0 for a session's first frame). Output:
``{"t": <ms>, "class": <id>, "name": <gesture>, "probs": [...]}`` once the
window buffer holds T frames, at most once per ``stride_ms``. Malformed input,
a ``t`` earlier than the last accepted frame's, and a line longer than
``MAX_LINE_BYTES`` yield an ``{"error": ...}`` object and the session
continues. A TCP connection beyond ``MAX_SESSIONS`` open sessions gets
``{"error": "server busy"}`` and is closed, and one that sends nothing for
``IDLE_TIMEOUT_S`` seconds gets ``{"error": "idle timeout"}`` and is closed.

Most frames predict nothing, so a frame costs only what checking and buffering
it costs until a window is due. A plain frame, a list of V lists of C finite
JSON floats, is checked in Python and buffered as a flat tuple of its floats
without touching numpy; numpy classifies every other input (integers,
booleans, strings, null, ragged or mis-shaped lists, arrays) and buffers what
it accepts in the same form. An emission builds the [C, T, V] window from the
buffered tuples in one ``np.fromiter``.
"""

from __future__ import annotations

import copy
import itertools
import json
import logging
import math
import numbers
import socketserver
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import encoder as enc
from . import memory as mem
from .dataset import FRAME_HZ, NUM_CHANNELS, NUM_JOINTS, input_frames
from .errors import (ConfigError, ContractError, NonFiniteError, StructuralError,
                     ToolkitError)

log = logging.getLogger(__name__)

# default least time between a session's emissions
STRIDE_MS = 180.0
# tolerance when comparing float timestamps against the emission stride, so a
# stride exactly equal to the frame period never misses a frame to rounding
TIME_EPS_MS = 1e-6
# longest NDJSON line a TCP connection accepts, newline excluded
MAX_LINE_BYTES = 64 * 1024
# most TCP sessions open at once; one more connection is told so and closed
MAX_SESSIONS = 64
# seconds a TCP session may wait for its next bytes before it is closed
IDLE_TIMEOUT_S = 60.0
# json.loads without its BOM and trailing-data checks, which handle_line makes
_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True)
class FrozenModel:
    """Everything prediction needs; immutable, so one model serves every session.

    A model is a read-only snapshot of the state it was made from. Construction
    copies the encoder parameters, the adjacency, the decoder and the memory
    queue (its features, labels, ``fill`` and ``head``) into read-only arrays,
    and builds from them, once, the encoder's GEMM operands for
    ``short_len``-frame windows, ``basis``, ``keys`` and ``readout``
    (``dataclasses.replace`` copies and builds again):

    - ``basis``, ``B`` in the module docstring, [feature_dim, r] with
      ``r = min(width + 1, feature_dim)``, has orthonormal columns spanning
      ``[proj.w | proj.b]`` and so every query. It is the Q factor of a
      float64 QR of that matrix, cast to the queue's dtype.
    - ``keys`` is ``Bᵀ memᵀ`` [r, fill], computed in float64 and cast: the
      filled slots' coordinates in the query's subspace, slot-minor so that
      addressing streams them contiguously. For 65536 float32 slots this is
      4.25 MiB at feature_dim 32 and width 16 (17 rows instead of 32, 8 MiB),
      and 8.25 MiB at the paper's 128 and 32 (33 rows instead of 128, 32 MiB).
      When ``width + 1 >= feature_dim``, ``basis`` is square and the scan
      reads what ``memᵀ`` would.
    - ``readout`` is ``[W_dec @ memᵀ - readout_mean; 1ᵀ]`` [classes + 1,
      fill]: the decoder weight applied to every filled slot, less its mean
      over the slots (``readout_mean`` [classes], added back after the
      divide), then a row of ones that sums the exponentiated logits into
      the softmax normalizer. Taking the mean off makes the rounding that the
      readout's float sums accumulate scale with how far the slots' decoded
      values spread, not with their size: when every slot decodes alike, as
      in a collapsed memory, the decoded recall is exact.

    Every filled slot must be finite with norm within ``memory.NORM_TOL`` of 1,
    else :class:`ContractError`; that bounds the logits, the projected slots'
    as well (see the module docstring). A ``short_len`` shorter than the
    temporal kernel, and a ``dtype`` that is not floating point, are a
    :class:`StructuralError`.

    Changing the state's encoder, decoder or queue afterwards, in place or by
    reassignment, does not reach the model, and writing into the model's own
    queue raises. A checkpoint becomes a model through
    ``FrozenModel.from_state(training.load_checkpoint(path))``.
    """

    encoder_cfg: enc.EncoderConfig
    adjacency: np.ndarray
    params: dict
    decoder: dict
    queue: mem.MemoryQueue
    label_names: tuple
    short_len: int
    use_recall: bool
    center: bool
    input_scale: float
    dtype: type
    operands: enc.GemmOperands = field(init=False, repr=False, compare=False)
    basis: np.ndarray = field(init=False, repr=False, compare=False)
    keys: np.ndarray = field(init=False, repr=False, compare=False)
    readout: np.ndarray = field(init=False, repr=False, compare=False)
    readout_mean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cfg = self.encoder_cfg
        if self.short_len < cfg.temporal_kernel:
            raise StructuralError(
                f"window of {self.short_len} frames is shorter than the temporal "
                f"kernel ({cfg.temporal_kernel})")
        # integer operands would truncate the normalized adjacency
        if np.dtype(self.dtype).kind != "f":
            raise StructuralError(
                f"model dtype must be floating point, got {np.dtype(self.dtype)}")
        adjacency = _read_only_copy(self.adjacency)
        params = {name: _read_only_copy(p) for name, p in self.params.items()}
        operands = enc.GemmOperands.build(params, adjacency, self.dtype, cfg.blocks,
                                          self.short_len)
        for block in operands.blocks + operands.bias_rows + ((operands.pool,),):
            for a in block:
                a.flags.writeable = False
        decoder = {name: _read_only_copy(p) for name, p in self.decoder.items()}
        queue = copy.copy(self.queue)
        queue.features = _read_only_copy(queue.features)
        queue.labels = _read_only_copy(queue.labels)
        bad, norms = mem.off_unit_norm(queue.filled_features)
        if bad.any():
            raise ContractError(f"memory slot {np.flatnonzero(bad)[0]} has norm "
                                f"{norms[bad][0]:.6f}, not 1")
        mem_t = np.ascontiguousarray(queue.filled_features.T)
        basis = np.linalg.qr(np.column_stack([params["proj.w"], params["proj.b"]])
                             .astype(np.float64))[0]
        keys = (basis.T @ mem_t).astype(mem_t.dtype)
        basis = basis.astype(mem_t.dtype)
        # class-major, so the readout GEMM streams K x classes contiguously
        folded = decoder["w"] @ mem_t
        mean = folded.sum(axis=1, dtype=np.float64) / max(queue.fill, 1)
        mean = mean.astype(folded.dtype)
        readout = np.vstack([folded - mean[:, None], np.ones_like(folded[:1])])
        for a in (basis, keys, readout, mean):
            a.flags.writeable = False
        for name, value in (("adjacency", adjacency), ("params", params),
                            ("operands", operands), ("decoder", decoder),
                            ("queue", queue), ("basis", basis), ("keys", keys),
                            ("readout", readout), ("readout_mean", mean)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_state(cls, state):
        cfg = state.config
        return cls(encoder_cfg=cfg.encoder_config(),
                   adjacency=state.graph.normalized,
                   params=state.params_s, decoder=state.decoder, queue=state.queue,
                   label_names=state.label_names, short_len=cfg.short_len,
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
    """Unit-norm encoder features [B, feature_dim] of [B, C, T, V] windows,
    by the served forward (see the module docstring). Windows of another
    length are a :class:`StructuralError`; a window that is non-finite, or
    that the input transform takes past the model dtype's range, is a
    :class:`NonFiniteError`."""
    windows = np.asarray(windows)
    shape = (NUM_CHANNELS, model.short_len, NUM_JOINTS)
    if windows.ndim != 4 or windows.shape[1:] != shape:
        raise StructuralError(f"expected [B, C, T, V] windows with (C, T, V) = "
                              f"{shape}, got shape {windows.shape}")
    # a finite value past the dtype's range becomes inf, refused here or at
    # the feature norm, so numpy need not warn of it
    with np.errstate(over="ignore"):
        frames = input_frames(windows, model.center, model.input_scale, model.dtype)
        if not np.isfinite(frames).all():
            raise NonFiniteError("non-finite value in encoder input")
        z = enc.encode_frames(model.operands, frames, model.encoder_cfg)
        return enc.unit_rows(z)[0]


def exp_logits(model, features):
    """``exp((f @ basis) @ keys)`` [B, fill] of features f: the exponentiated
    addressing logits, read in the query's subspace; ``e / Σe`` is addressing."""
    e = np.dot(np.dot(features, model.basis), model.keys)
    return np.exp(e, out=e)


def predict_batch(model, windows):
    """Classify [B, C, T, V] windows; returns (classes [B], probabilities [B, K]).

    With recall on, each feature's addressing-weighted recall of the memory
    queue is added before decoding. The decoder is affine, so the recall is
    decoded through the model's folded readout and added to the logits:
    ``(f + w @ mem) @ W_decᵀ + b = f @ W_decᵀ + b + w @ (W_dec @ memᵀ)ᵀ``,
    which reads a [classes, fill] matrix in place of the [fill, feature_dim]
    queue. The addressing softmax ``w = e / Σe`` with
    ``e = exp((f @ basis) @ keys)``, the logits ``f·m`` read in the query's
    subspace, is never formed: ``e @ readoutᵀ`` gives the decoded recall's
    ``e``-weighted sums, less the readout mean, and ``Σe`` (the ones row) at
    once; the first is divided by the second and the mean added back.
    An empty queue recalls nothing, so prediction reduces to the plain
    decoder path. Ties break toward the lowest class index.
    """
    f = window_features(model, windows)
    memory_logits = None
    if model.use_recall and model.queue.fill > 0:
        s = np.dot(exp_logits(model, f), model.readout.T)
        memory_logits = s[:, :-1] / s[:, -1:]
        memory_logits += model.readout_mean
    probs = enc.classify(model.decoder, f, memory_logits)
    return probs.argmax(axis=1), probs


def predict(model, window):
    """Classify one [C, T, V] window as a batch of one; returns (class index,
    probability vector)."""
    classes, probs = predict_batch(model, np.asarray(window)[None])
    return int(classes[0]), probs[0]


def latency_estimate(frames, frame_period_ms, inference_ms):
    """End-to-end latency: window fill time plus single-sample inference time.
    Each input is a real number, not a boolean, from 0 to the largest float."""
    inputs = (frames, frame_period_ms, inference_ms)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and 0 <= v <= sys.float_info.max for v in inputs):
        raise StructuralError("latency inputs must be finite and non-negative")
    latency = float(frames) * float(frame_period_ms) + float(inference_ms)
    if latency > sys.float_info.max:
        raise StructuralError("latency estimate overflows the float range")
    return latency


def _holds_bool(value):
    """Whether a value holds a boolean anywhere in its lists or tuples."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (bool, np.bool_)):
            return True
        if isinstance(v, (list, tuple)):
            stack.extend(v)
    return False


def _plain_frame(joints):
    """The coordinates of a list of V lists of C finite floats, as a flat
    tuple, or None for any other input, which :func:`_numpy_frame` classifies."""
    if type(joints) is not list or len(joints) != NUM_JOINTS:
        return None
    frame = []
    for row in joints:
        if type(row) is not list or len(row) != NUM_CHANNELS:
            return None
        frame += row
    for v in frame:
        if type(v) is not float or not math.isfinite(v):  # bool and int are not float
            return None
    return tuple(frame)


def _numpy_frame(joints):
    """The coordinates of a [V, C] array or nested lists as a flat tuple of
    floats, or the error text that rejects them. Booleans among the numbers
    of nested lists, which numpy would read as 0/1, are looked for first."""
    if _holds_bool(joints):
        return "non-numeric joint coordinate"
    try:
        joints = np.asarray(joints)
    except ValueError:  # ragged or too deeply nested
        return f"expected {NUM_JOINTS}x{NUM_CHANNELS} joints, got a ragged array"
    if joints.dtype.kind not in "iuf":
        return "non-numeric joint coordinate"
    if joints.shape != (NUM_JOINTS, NUM_CHANNELS):
        return (f"expected {NUM_JOINTS}x{NUM_CHANNELS} joints, "
                f"got shape {list(joints.shape)}")
    joints = joints.astype(np.float64, copy=False)
    if not np.isfinite(joints).all():
        return "non-finite joint coordinate"
    return tuple(joints.ravel().tolist())


def _session_timing(stride_ms, frame_hz):
    """``(stride_ms, frame_hz)`` as floats; a :class:`ConfigError` unless the
    stride is finite and >= 0 and the frame rate finite and > 0."""
    stride_ms, frame_hz = float(stride_ms), float(frame_hz)
    if not (math.isfinite(frame_hz) and frame_hz > 0):
        raise ConfigError(f"frame_hz must be finite and > 0, got {frame_hz!r}")
    if not (math.isfinite(stride_ms) and stride_ms >= 0):
        raise ConfigError(f"stride_ms must be finite and >= 0, got {stride_ms!r}")
    return stride_ms, frame_hz


class StreamSession:
    """One client's sliding window over arriving frames.

    Keeps the last T frames; once full, emits a prediction whenever at least
    ``stride_ms`` has elapsed (by frame timestamp) since the previous emission.
    A frame stamped earlier than the last accepted one is rejected, not
    buffered; equal timestamps are accepted.

    ``buffer`` holds each accepted frame as a flat tuple of its V*C float
    coordinates, whichever route checked it (see the module docstring): a
    plain frame stays Python floats until a window is due, and both routes
    give the same window and the same error texts.
    """

    def __init__(self, model, stride_ms=STRIDE_MS, frame_hz=FRAME_HZ):
        self.model = model
        self.stride_ms, self.frame_hz = _session_timing(stride_ms, frame_hz)
        self.buffer = deque(maxlen=model.short_len)
        self.last_t = None
        self.last_emit_t = None

    def handle_line(self, line):
        """Decode one NDJSON line and return :meth:`handle_frame`'s output
        for its ``t`` and ``joints``, or None for a blank line. Never raises:
        any malformed line gets an ``{"error": ...}`` object."""
        line = line.strip()
        if not line:
            return None
        if line.startswith("\ufeff"):
            return {"error": "malformed frame: Unexpected UTF-8 BOM "
                             "(decode using utf-8-sig)"}
        try:
            obj, end = _raw_decode(line)
        except json.JSONDecodeError as e:
            return {"error": f"malformed frame: {e.msg}"}
        except (ValueError, RecursionError):
            # an integer past the digit limit, or nesting past the recursion limit
            return {"error": "malformed frame: unparseable JSON"}
        if end != len(line):  # the line is stripped, so the rest is not all whitespace
            return {"error": "malformed frame: Extra data"}
        if not isinstance(obj, dict) or "joints" not in obj:
            return {"error": "malformed frame: expected an object with 'joints'"}
        return self.handle_frame(obj.get("t"), obj["joints"])

    def handle_frame(self, t_ms, joints):
        """Check and buffer one frame; returns a prediction when one is due,
        an ``{"error": ...}`` object for a rejected frame, or None.

        ``t_ms`` is None (one frame period after the last accepted frame, 0
        for a session's first) or a finite real number other than a bool.
        ``joints`` is a [V, C] array or nested lists; booleans among the
        numbers of a list are rejected, not read as 0/1.
        """
        if t_ms is None:
            t_ms = 0.0 if self.last_t is None else self.last_t + 1000.0 / self.frame_hz
        elif type(t_ms) is not float:  # numpy scalars are Real; bool is not a time
            real = isinstance(t_ms, numbers.Real) and not isinstance(t_ms, bool)
            try:
                t_ms = float(t_ms) if real else math.nan
            except OverflowError:  # an integer past the float range
                t_ms = math.nan
        if not math.isfinite(t_ms):
            return {"error": "malformed frame: 't' must be a finite number"}
        frame = _plain_frame(joints) or _numpy_frame(joints)
        if type(frame) is str:
            return {"error": frame, "t": t_ms}
        if self.last_t is not None and t_ms < self.last_t:
            return {"error": "timestamp went backwards", "t": t_ms}
        self.last_t = t_ms
        self.buffer.append(frame)
        length = self.model.short_len
        if len(self.buffer) < length:
            return None
        if (self.last_emit_t is not None
                and t_ms - self.last_emit_t < self.stride_ms - TIME_EPS_MS):
            return None
        window = np.fromiter(itertools.chain.from_iterable(self.buffer), np.float64,
                             length * NUM_JOINTS * NUM_CHANNELS)
        # [T, V, C] -> [C, T, V]
        window = window.reshape(length, NUM_JOINTS, NUM_CHANNELS).transpose(2, 0, 1)
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
        return {"t": t_ms, "class": cls, "name": self.model.label_names[cls],
                "probs": probs.tolist()}


def serve_connection(model, rfile, wfile, stride_ms=STRIDE_MS, frame_hz=FRAME_HZ):
    """Run one session over binary streams until ``rfile`` ends, flushing
    ``wfile`` after each output line; ``serve`` without ``--port`` and each
    TCP connection run one. Bytes that are not UTF-8 decode to U+FFFD, so they
    reach the frame checks and never end the session.

    A line longer than ``MAX_LINE_BYTES`` is never held whole: it gets
    ``{"error": "line too long"}``, the rest of it is read and dropped, and
    the session goes on with the next line.
    """
    session = StreamSession(model, stride_ms=stride_ms, frame_hz=frame_hz)
    while raw := rfile.readline(MAX_LINE_BYTES + 1):
        if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            while raw and not raw.endswith(b"\n"):
                raw = rfile.readline(MAX_LINE_BYTES + 1)
            out = {"error": "line too long"}
        else:
            out = session.handle_line(raw.decode("utf-8", errors="replace"))
        if out is not None:
            wfile.write((json.dumps(out) + "\n").encode())
            wfile.flush()
    return session


class _SessionServer(socketserver.ThreadingTCPServer):
    """One thread per connection, at most ``max_sessions`` of them at once."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, max_sessions):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(max_sessions)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            request.sendall(b'{"error": "server busy"}\n')
            self.shutdown_request(request)
            return
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def tcp_server(model, host, port, stride_ms=STRIDE_MS, frame_hz=FRAME_HZ):
    """A bound, not yet serving, TCP server of NDJSON sessions.

    Each connection is a session of :func:`serve_connection` on its own
    thread. A connection beyond ``MAX_SESSIONS`` open sessions is answered
    ``{"error": "server busy"}`` and closed, and so is one idle for
    ``IDLE_TIMEOUT_S``, with ``{"error": "idle timeout"}``, freeing its slot.
    Run it with ``serve_forever()`` and stop it with ``shutdown()`` and
    ``server_close()``. A stride or frame rate :class:`StreamSession` refuses,
    and a port outside 0..65535, are a :class:`ConfigError` here, before binding.
    """
    _session_timing(stride_ms, frame_hz)
    if not 0 <= port <= 65535:
        raise ConfigError(f"port must be in 0..65535, got {port}")

    class Handler(socketserver.StreamRequestHandler):
        timeout = IDLE_TIMEOUT_S

        def handle(self):
            try:
                serve_connection(model, self.rfile, self.wfile, stride_ms, frame_hz)
            except TimeoutError:
                self.wfile.write(b'{"error": "idle timeout"}\n')

    return _SessionServer((host, port), Handler, MAX_SESSIONS)
