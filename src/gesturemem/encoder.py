"""Spatio-temporal graph encoder pair, decoder head, and momentum coupling.

The encoder maps a [C, T', V] skeleton window to a unit-norm feature vector of
configurable dimension: a stack of blocks, each a spatial graph convolution over
the fixed 3-joint skeleton followed by a same-padded temporal convolution (both
ReLU-activated), then global average pooling over time and joints and an affine
projection. Pooling makes one parameter set accept any T' >= the temporal kernel,
so short windows and their long context windows share an architecture.

Each block is two matrix products on channels-last activations. The kernel
reads channels-last [B, T, V, C] frames as rows [(B*T), V*C]: one row per
frame, its joints side by side, channels innermost. A served model's input
transform writes that layout; :func:`encode_forward` transposes its
[B, C, T, V] input, which the kernel copies into rows once.

- Spatial conv: the 1x1 conv ``w_s`` and the adjacency mix (ST-GCN, Yan et al.
  2018) fold into one [V*C_in, V*C_out] weight, ``kron(adj, w_s.T)``, so the
  conv is a single GEMM over all frames.
- Temporal conv: the spatial ReLU writes into the interior of a zero-padded
  [B, (T+k-1)*V, C] buffer (``pad_l = (k-1)//2`` zero frames on the left,
  the rest on the right). Frame t of a window is its rows t*V .. (t+1)*V, so
  tap kk reads, for every output frame, one contiguous [T*V, C] block of each
  window: rows kk*V .. (kk+T)*V. The conv is one GEMM per tap on its block,
  summed into the output (accumulating kn2row, Anderson et al. 2017,
  arXiv:1709.03395), with the taps ``w_t`` as a [k, C_in, C_out] array: no
  im2col matrix, no k copies of the input. Blocks write only the interior,
  so one buffer serves every block of an uncached pass.
- Biases: each is added over whole windows. A bias tiled T*V times is a
  [T*V, C] block like a window's, so numpy adds it as B runs of T*V*C
  contiguous values instead of B*T*V runs of C.
- Pooling: a ``1/(T*V)`` vector times each window's T*V rows, then the
  projection and :func:`unit_rows`' normalization, under the caller's
  ``np.errstate``: :func:`encode_forward` holds one around the norm, a served
  model one around its whole forward.

:class:`GemmOperands` belong to one window length, fixed when they are
built: they hold that length's bias rows, pooling vector and tile count.
:func:`encode_forward` builds them from a parameter dict on every call; a
served model builds its ``short_len`` ones once, read-only, and runs
:func:`encode_frames` on them.

Without a cache, a batch runs in tiles of whole windows, in the one tile loop
of :func:`encode_frames` that :func:`encode_forward` and the served model share
(Goto & van de Geijn's cache blocking, ACM TOMS 2008, applied to a whole
encoder pass). A window counts ``T*V*k*width*itemsize`` bytes, k activations
of one block: for k = 3 about what a block holds at once (the padded buffer,
a tap product and the output). A tile's count stays within ``TILE_BYTES``, so
its working set stays in a 2 MiB per-core L2 (``GemmOperands.per_tile``).
The cost per window plateaus over a wide range of tile sizes, so the constant
is not tuned per host. A batch that fits runs as one tile. The cached
(training) forward is never tiled: its batches fit anyway, and
:func:`encode_backward` reads whole-batch intermediates.

When BLAS is pinned to one thread (``OPENBLAS_NUM_THREADS``, or where it is
unset or empty ``OMP_NUM_THREADS``, reads exactly ``1``), the tiles of a batch
that spans more than one run on one thread per usable CPU, at most one per
tile: the calling thread and helpers from a thread pool, each taking every
n-th tile. numpy's GEMMs and large ufuncs release the interpreter lock, so the
tiles use the cores BLAS leaves idle. Under a multi-threaded BLAS the two
compete for the cores, so the tiles run one after another on the calling
thread and no thread starts.
The setting is read once, at import, as BLAS reads it when numpy loads;
``MKL_NUM_THREADS`` is not read. The thread count was measured only on 2 CPUs;
whether one thread per CPU pays on larger hosts, or under a CPU quota smaller
than the affinity mask, is unverified. Each tile is the same :func:`_forward`
call on the same slice as in the sequential loop and writes its own rows of
one output array, so the features keep their bits whichever thread runs a
tile. Helpers run under the caller's ``np.errstate`` (numpy before 2.0 keeps
it per thread), and a failing tile's exception reaches the caller. The pool
lives for one call only: a forked child process inherits no pool whose
threads are gone. Starting a helper costs a few hundred microseconds, so the
calling thread takes a share rather than waiting idle.

The projection and :func:`classify`'s decoder product call ``np.dot``, which
costs less per call than ``@`` on their small operands, with the same bits;
the tests' oracles use ``@``, so a numpy where the two differ fails them. The
spatial conv keeps ``@``, which is the faster of the two at a long window's
[960, 48] rows.

The backward pass runs the same products transposed. It lays the output
gradient where tap 0 reads each output frame, with zeros in the (k-1)*V rows
after each window, so each tap's weight and input gradient is one GEMM over
the rows of the whole batch; the spatial weight gradient contracts the joint
pairs against ``adj`` in one more product. Forward and backward passes are
written out explicitly so every gradient path can be verified against finite
differences.

Parameters live in plain dicts of numpy arrays keyed like ``block0.spatial.w``;
the short-term and long-term encoders hold structurally identical dicts. They
keep their conventional shapes (``w_s`` [C_out, C_in], ``w_t`` [C_out, C_in, k]),
so checkpoints and training's flat parameter buffers do not depend on the
activation layout. :meth:`GemmOperands.build` rearranges them into the
kernel's operands, inside each :func:`encode_forward`, since training changes
its parameters every step. A served model, whose parameters never change,
builds them once.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import NUM_CHANNELS, NUM_JOINTS
from .errors import ConfigError, NonFiniteError, StructuralError

NORM_EPS = 1e-12
# Most bytes, counted as T*V*k*width*itemsize per window, in one tile of the
# uncached forward.
TILE_BYTES = 1 << 20


def _tile_threads():
    """Threads for the uncached tiles: one per usable CPU when BLAS is pinned
    to one thread, else 1, the sequential loop (see the module docstring)."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    if blas != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# read once, when numpy (and with it BLAS) has loaded
TILE_THREADS = _tile_threads()


@dataclass(frozen=True)
class SkeletonGraph:
    """Fixed 3-joint skeleton: both thighs attach to the head, plus self-loops."""

    adjacency: np.ndarray      # binary, with self-loops
    normalized: np.ndarray     # D^(-1/2) (A+I) D^(-1/2)


def skeleton_graph():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0  # head - left thigh
    a[0, 2] = a[2, 0] = 1.0  # head - right thigh
    with_loops = a + np.eye(3)
    return SkeletonGraph(adjacency=with_loops, normalized=normalize_adjacency(with_loops))


def normalize_adjacency(adj_with_loops):
    """Symmetric degree normalization of an adjacency matrix with self-loops."""
    deg = adj_with_loops.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return adj_with_loops * inv_sqrt[:, None] * inv_sqrt[None, :]


@dataclass(frozen=True)
class EncoderConfig:
    blocks: int = 2
    width: int = 32
    temporal_kernel: int = 3
    feature_dim: int = 128

    def __post_init__(self):
        if min(self.blocks, self.width, self.temporal_kernel, self.feature_dim) < 1:
            raise ConfigError("all encoder dimensions must be >= 1")


def _uniform(rng, fan_in, shape, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def param_shapes(cfg):
    """Name -> shape of every encoder parameter, in initialization order."""
    shapes = {}
    in_ch = NUM_CHANNELS
    for i in range(cfg.blocks):
        shapes[f"block{i}.spatial.w"] = (cfg.width, in_ch)
        shapes[f"block{i}.spatial.b"] = (cfg.width,)
        shapes[f"block{i}.temporal.w"] = (cfg.width, cfg.width, cfg.temporal_kernel)
        shapes[f"block{i}.temporal.b"] = (cfg.width,)
        in_ch = cfg.width
    shapes["proj.w"] = (cfg.feature_dim, cfg.width)
    shapes["proj.b"] = (cfg.feature_dim,)
    return shapes


def init_encoder_params(cfg, rng, dtype=np.float32):
    """Fan-in-scaled uniform weights; zero biases.

    Zero biases matter here: window signals are centimeter-scale, and random
    biases would swamp them through the normalization, collapsing features
    toward a constant direction at initialization.
    """
    return {name: (np.zeros(shape, dtype) if len(shape) == 1  # a bias
                   else _uniform(rng, math.prod(shape[1:]), shape, dtype))
            for name, shape in param_shapes(cfg).items()}


def init_decoder_params(feature_dim, n_classes, rng, dtype=np.float32):
    return {
        "w": _uniform(rng, feature_dim, (n_classes, feature_dim), dtype),
        "b": np.zeros(n_classes, dtype),
    }


def init_encoders(cfg, n_classes, rng, dtype=np.float32):
    """Create (short-term params, long-term params, decoder params) from ``rng``.

    The long-term encoder starts as an exact copy of the short-term one so the
    momentum coupling starts from a zero parameter gap.
    """
    params_s = init_encoder_params(cfg, rng, dtype)
    params_l = {k: v.copy() for k, v in params_s.items()}
    decoder = init_decoder_params(cfg.feature_dim, n_classes, rng, dtype)
    return params_s, params_l, decoder


def _check_input(x, cfg):
    # integers would truncate the adjacency cast to their dtype
    if x.dtype.kind != "f":
        raise StructuralError(f"encoder input must be floating point, got {x.dtype}")
    if x.ndim != 4:
        raise StructuralError(f"expected [B, C, T, V] input, got shape {x.shape}")
    b, c, t, v = x.shape
    if c != NUM_CHANNELS or v != NUM_JOINTS:
        raise StructuralError(
            f"input shape {x.shape} incompatible with C={NUM_CHANNELS}, V={NUM_JOINTS}")
    if t < cfg.temporal_kernel:
        raise StructuralError(
            f"window of {t} frames is shorter than the temporal kernel "
            f"({cfg.temporal_kernel})")
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite value in encoder input")


def _spatial_weight(w_s, adj):
    """``kron(adj, w_s.T)``: the 1x1 conv and the adjacency mix as one matrix.

    Entry ``[u*C_in + i, v*C_out + o]`` is ``adj[u, v] * w_s[o, i]``, so a row
    of joints-by-channels activations times this matrix is the spatial conv.
    """
    v = adj.shape[0]
    c_out, c_in = w_s.shape
    return (adj[:, None, :, None] * w_s.T[None, :, None, :]).reshape(v * c_in, v * c_out)


def _column_sums(a):
    """Sum over rows as a ones-vector GEMV: blocked BLAS accumulation keeps
    float32 error far below numpy's row-by-row ``sum(axis=0)``."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


@dataclass(frozen=True)
class GemmOperands:
    """An encoder's parameters as the operands of the forward kernel's GEMMs.

    Built for one adjacency array ``adj``, one activation dtype and one
    window length, which only the arrays record. ``blocks`` holds, per
    block, the spatial weight ``kron(adj, w_s.T)`` and the temporal taps
    (``w_t`` as a [k, C_in, C_out] array); the biases and the projection are
    read from ``params``, the dict they were built from. ``bias_rows`` holds,
    per block, the spatial and the temporal bias tiled into a [T*V, C] array,
    the bias of a whole window's block; ``pool`` is the window's mean over
    its T*V rows as a vector, in the dtype the activations take; ``per_tile``
    is the number of windows in one tile of the uncached forward: as many as
    keep ``T*V*k*width*itemsize`` bytes each within ``TILE_BYTES``, and at
    least one.
    """

    params: dict
    adj: np.ndarray
    blocks: tuple
    bias_rows: tuple
    pool: np.ndarray
    per_tile: int

    @classmethod
    def build(cls, params, adj, dtype, n_blocks, window_len):
        """Operands of ``params`` for ``window_len``-frame windows."""
        dtype = np.dtype(dtype)
        adj_d = adj.astype(dtype, copy=False)
        rows = window_len * adj.shape[0]
        blocks, bias_rows = [], []
        for i in range(n_blocks):
            blocks.append(
                (_spatial_weight(params[f"block{i}.spatial.w"], adj_d),
                 np.ascontiguousarray(params[f"block{i}.temporal.w"].transpose(2, 1, 0))))
            # np.repeat costs half what np.tile does on these small arrays
            bias_rows.append(tuple(np.repeat(params[f"block{i}.{conv}.b"][None], rows, 0)
                                   for conv in ("spatial", "temporal")))
        act_dtype = np.result_type(dtype, *(a for block in blocks for a in block))
        k, _, width = blocks[0][1].shape
        return cls(params=params, adj=adj, blocks=tuple(blocks),
                   bias_rows=tuple(bias_rows),
                   pool=np.full(rows, 1.0 / rows, dtype=act_dtype),
                   per_tile=max(1, TILE_BYTES // (rows * k * width * dtype.itemsize)))


def encode_forward(params, x, adj, cfg, want_cache=False):
    """Batched forward pass. x: [B, C, T, V] -> unit-norm features [B, feature_dim].

    ``params`` is a parameter dict; the call builds its operands for ``x``'s
    dtype and window length. With ``want_cache`` the returned cache holds
    every intermediate needed by :func:`encode_backward`, and the batch runs
    as one tile; otherwise it runs in tiles of whole windows (see the module
    docstring).
    """
    _check_input(x, cfg)
    ops = GemmOperands.build(params, adj, x.dtype, cfg.blocks, x.shape[2])
    frames = x.transpose(0, 2, 3, 1)                       # [B, T, V, C], a view
    if want_cache:
        z, cache = _forward(ops, frames, cfg, True)
    else:
        z, cache = encode_frames(ops, frames, cfg), None
    # a finite input far past the dtype's range can overflow the squares or
    # their sum; that is refused, so numpy need not warn of it
    with np.errstate(over="ignore"):
        f, r = unit_rows(z)
    if cache is not None:
        cache.update(f=f, r=r)
    return f, cache


def encode_frames(ops, frames, cfg):
    """Pre-normalization features z [B, feature_dim] of checked channels-last
    [B, T, V, C] windows of the operands' length, ``ops.per_tile`` windows at
    a time (see the module docstring). :func:`unit_rows` turns them into
    features."""
    b, per_tile = frames.shape[0], ops.per_tile
    if per_tile >= b:
        return _forward(ops, frames, cfg, False)[0]
    z = np.empty((b, ops.params["proj.w"].shape[0]),
                 np.result_type(frames, *ops.params.values()))

    def run(starts):
        for lo in starts:
            z[lo:lo + per_tile] = _forward(ops, frames[lo:lo + per_tile], cfg, False)[0]

    starts = range(0, b, per_tile)
    workers = min(TILE_THREADS, len(starts))
    if workers == 1:
        run(starts)
        return z
    err, call = np.geterr(), np.geterrcall()

    def helper(share):
        with np.errstate(call=call, **err):
            run(share)

    # tile i runs on thread i % workers; the calling thread is thread 0
    shares = [starts[i::workers] for i in range(workers)]
    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(helper, share) for share in shares[1:]]
        run(shares[0])
        for future in helpers:
            future.result()
    return z


def unit_rows(z):
    """``(z / r, r)``: each row of z over its norm ``r``, floored at
    ``NORM_EPS``. A norm that is not finite is a :class:`NonFiniteError`;
    the caller holds ``np.errstate(over="ignore")``, so the squares or their
    sum may overflow without a warning."""
    norm = np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))
    if not np.isfinite(norm).all():
        raise NonFiniteError("non-finite encoder feature norm: the input "
                             "overflows the model dtype")
    r = np.maximum(norm, NORM_EPS)
    return z / r, r


def _forward(ops, frames, cfg, want_cache):
    """The forward kernel on checked channels-last [B, T, V, C] windows of
    the operands' length: pre-normalization features and, with
    ``want_cache``, the cache without ``f`` and ``r``."""
    params = ops.params
    b, t, v, c_in = frames.shape
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2
    # explicit sizes, never -1: an empty batch must reshape too. [(B*T), V*C_in]:
    # a view of contiguous frames, a copy of encode_forward's transposed input
    h = frames.reshape(b * t, v * c_in)
    block_caches = []
    xp = None
    for (k_s, taps), (row_s, row_t) in zip(ops.blocks, ops.bias_rows):
        c = k_s.shape[1] // v
        pre_s = (h @ k_s).reshape(b, t * v, c)              # [B, T*V, C]
        pre_s += row_s                                      # [T*V, C], whole windows
        if xp is None or want_cache:
            xp = np.zeros((b, (t + k - 1) * v, c), dtype=pre_s.dtype)
            # tap kk of output frame t reads padded frame t + kk
            shifted = [xp[:, kk * v:(kk + t) * v] for kk in range(k)]
        np.maximum(pre_s, 0.0, out=shifted[pad_l])
        act_t = shifted[0] @ taps[0]                        # [B, T*V, C]
        for kk in range(1, k):
            act_t += shifted[kk] @ taps[kk]
        act_t += row_t
        np.maximum(act_t, 0.0, out=act_t)
        if want_cache:
            block_caches.append((h, k_s, xp, taps, act_t))
        h = act_t.reshape(b * t, v * c)
    pooled = ops.pool @ h.reshape(b, t * v, c)
    z = np.dot(pooled, params["proj.w"].T) + params["proj.b"]
    if not want_cache:
        return z, None
    cache = {
        "params": params, "adj": ops.adj.astype(frames.dtype, copy=False), "cfg": cfg,
        "shape": (b, c_in, t, v), "blocks": block_caches, "pooled": pooled,
    }
    return z, cache


def encode_backward(cache, grad_f):
    """Backward pass for :func:`encode_forward`: the parameter gradients, a
    dict that mirrors the parameter dict. Training never needs the gradient
    of the input, so it is not formed."""
    params = cache["params"]
    adj = cache["adj"]
    cfg = cache["cfg"]
    f, r = cache["f"], cache["r"]
    b, _, t, v = cache["shape"]
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2

    grads = {}
    # through L2 normalization: project out the radial component
    g = (grad_f - f * (f * grad_f).sum(axis=1, keepdims=True)) / r
    grads["proj.w"] = g.T @ cache["pooled"]
    grads["proj.b"] = g.sum(axis=0)
    g_pooled = g @ params["proj.w"]
    # pooling spreads g_pooled / (T*V) evenly over the T*V rows of a window
    g_h = (g_pooled / (t * v))[:, None, :]                 # [B, 1 or T*V, C]

    for i in reversed(range(cfg.blocks)):
        h, k_s, xp, taps, act_t = cache["blocks"][i]
        c = act_t.shape[2]
        # g_t where tap 0 reads each output frame (module docstring)
        g_pad = np.zeros_like(xp)
        # a ReLU output is positive exactly where its pre-activation is
        np.multiply(g_h, act_t > 0, out=g_pad[:, :t * v])
        g_rows = g_pad.reshape(-1, c)[:b * (t + k - 1) * v - (k - 1) * v]
        grads[f"block{i}.temporal.b"] = _column_sums(g_rows)
        x_rows = xp.reshape(-1, c)
        g_xp = np.zeros_like(xp)
        g_x_rows = g_xp.reshape(-1, c)
        g_taps = np.empty_like(taps)                        # [tap, C_in, C_out]
        for kk in range(k):
            tap_rows = slice(kk * v, kk * v + len(g_rows))
            np.matmul(x_rows[tap_rows].T, g_rows, out=g_taps[kk])
            g_x_rows[tap_rows] += g_rows @ taps[kk].T
        grads[f"block{i}.temporal.w"] = np.ascontiguousarray(g_taps.transpose(2, 1, 0))
        interior = slice(pad_l * v, (pad_l + t) * v)
        g_s = (g_xp[:, interior] * (xp[:, interior] > 0)).reshape(b * t, v * c)
        grads[f"block{i}.spatial.b"] = _column_sums(g_s.reshape(-1, c))
        # d kron(adj, w_s.T) -> d w_s: contract the joint pairs against adj
        g_ks = (h.T @ g_s).reshape(v, -1, v, c)
        # the one product np.tensordot(adj, g_ks, axes=([0, 1], [0, 2])) runs
        pairs = g_ks.transpose(0, 2, 1, 3).reshape(v * v, -1)   # [V*V, C_in*C_out]
        g_ws = np.dot(adj.reshape(1, v * v), pairs).reshape(-1, c)
        grads[f"block{i}.spatial.w"] = np.ascontiguousarray(g_ws.T)
        if i:
            g_h = (g_s @ k_s.T).reshape(b, t * v, k_s.shape[0] // v)  # sized: B may be 0
    return grads


def classify(decoder, f, memory_logits=None):
    """Softmax class probabilities for a feature vector (or a batch of them).

    ``memory_logits``, when given, are added to the decoder's logits before
    the softmax: the recalled memory feature already decoded by the weight.
    """
    logits = np.dot(f, decoder["w"].T) + decoder["b"]
    if memory_logits is not None:
        logits += memory_logits
    # the max-subtracted softmax, in place on the fresh logits
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def momentum_update(theta_l, theta_s, coef):
    """Exponential-moving-average update of the long-term encoder, in place.

    ``theta_l`` and ``theta_s`` are arrays of one shape that hold the two
    encoders' parameters in one layout; training passes its flat parameter
    buffers. ``theta_l`` becomes ``theta_s + coef * (theta_l - theta_s)``,
    algebraically ``coef*theta_L + (1-coef)*theta_S`` but exact at coef=0 and
    at ``theta_L == theta_S``, and with exactly geometric gap decay. Returns
    ``theta_l``.
    """
    if not (0.0 <= coef < 1.0):
        raise ConfigError(f"momentum coefficient must be in [0, 1), got {coef}")
    if theta_l.shape != theta_s.shape:
        raise StructuralError(f"shape mismatch: {theta_l.shape} vs {theta_s.shape}")
    theta_l -= theta_s
    theta_l *= coef
    theta_l += theta_s
    return theta_l
