"""Spatio-temporal graph encoder pair, decoder head, and momentum coupling.

The encoder maps a [C, T', V] skeleton window to a unit-norm feature vector of
configurable dimension: a stack of blocks, each a spatial graph convolution over
the fixed 3-joint skeleton followed by a same-padded temporal convolution (both
ReLU-activated), then global average pooling over time and joints and an affine
projection. Pooling makes one parameter set accept any T' >= the temporal kernel,
so short windows and their long context windows share an architecture.

Each block is two matrix products on channels-last activations. A [B, C, T, V]
batch is transposed once into rows [(B*T), V*C]: one row per frame, its joints
side by side, channels innermost.

- Spatial conv: the 1x1 conv ``w_s`` and the adjacency mix (ST-GCN, Yan et al.
  2018) fold into one [V*C_in, V*C_out] weight, ``kron(adj, w_s.T)``, so the
  conv is a single GEMM over all frames.
- Temporal conv: the spatial ReLU writes into the interior of a zero-padded
  [B, T+k-1, V, C] buffer (``pad_l = (k-1)//2`` zero frames on the left, the
  rest on the right). im2col copies its k shifted views into one
  [(B*T*V), k*C] matrix, and one GEMM with ``w_t`` as a [k*C, C_out] matrix
  gives every output frame.
- Pooling: a ones-vector product over each window's T*V rows.

Without a cache, :func:`encode_forward` runs a batch in tiles of whole windows
(Goto & van de Geijn's cache blocking, ACM TOMS 2008, applied to a whole
encoder pass). A tile's im2col matrix, ``T*V*k*width*itemsize`` bytes per
window, stays within ``TILE_BYTES``, so it and the tile's activations stay in
a 2 MiB per-core L2. Untiled, 1024 long windows (T=60, width 16) build a
35 MiB im2col matrix, and the cost per window doubles. Measured on a 2-vCPU
Xeon host with one BLAS thread, per window at T=60: 48 us at B=16, 97-100 us
at B=1024 untiled, and 49-53 us at B=1024 for any tile from 256 KiB to 2 MiB
(width 32: 89-106, 220-234 and 101-112 us). The plateau is wide, so the
constant is not tuned per host. A batch that fits runs as one tile. The
cached (training) forward is never tiled: its batches fit anyway, and
:func:`encode_backward` reads whole-batch intermediates.

The backward pass runs the same products transposed; col2im adds the k tap
gradients back into a padded buffer. Forward and backward passes are written
out explicitly so every gradient path can be verified against finite
differences.

Parameters live in plain dicts of numpy arrays keyed like ``block0.spatial.w``;
the short-term and long-term encoders hold structurally identical dicts. They
keep their conventional shapes (``w_s`` [C_out, C_in], ``w_t`` [C_out, C_in, k]),
so checkpoints, the momentum update and SGD do not depend on the activation
layout. :meth:`GemmOperands.build` rearranges them into the kernel's operands.
Training changes its parameters every step and lets :func:`encode_forward`
build the operands on each call; a served model, whose parameters never
change, builds them once and passes them in place of the dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, StructuralError

NORM_EPS = 1e-12
# Most bytes of im2col matrix in one tile of the uncached forward.
TILE_BYTES = 1 << 20


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
    in_channels: int = 3
    num_joints: int = 3
    blocks: int = 2
    width: int = 32
    temporal_kernel: int = 3
    feature_dim: int = 128

    def __post_init__(self):
        if min(self.in_channels, self.num_joints, self.blocks, self.width,
               self.temporal_kernel, self.feature_dim) < 1:
            raise ConfigError("all encoder dimensions must be >= 1")


def _uniform(rng, fan_in, shape, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def param_shapes(cfg):
    """Name -> shape of every encoder parameter, in initialization order."""
    shapes = {}
    in_ch = cfg.in_channels
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
    if x.ndim != 4:
        raise StructuralError(f"expected [B, C, T, V] input, got shape {x.shape}")
    b, c, t, v = x.shape
    if c != cfg.in_channels or v != cfg.num_joints:
        raise StructuralError(
            f"input shape {x.shape} incompatible with C={cfg.in_channels}, "
            f"V={cfg.num_joints}")
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


def _temporal_weight(w_t):
    """w_t [C_out, C_in, k] as the [k*C_in, C_out] matrix of the im2col GEMM."""
    return w_t.transpose(2, 1, 0).reshape(-1, w_t.shape[0])


def _column_sums(a):
    """Sum over rows as a ones-vector GEMV: blocked BLAS accumulation keeps
    float32 error far below numpy's row-by-row ``sum(axis=0)``."""
    return np.ones(a.shape[0], dtype=a.dtype) @ a


@dataclass(frozen=True)
class GemmOperands:
    """An encoder's parameters as the operands of :func:`encode_forward`'s GEMMs.

    Built for one adjacency array and one activation dtype. ``blocks`` holds,
    per block, the spatial weight ``kron(adj, w_s.T)``, the spatial bias tiled
    over the joints, the im2col temporal weight and the temporal bias; the
    projection is read from ``params``, the dict they were built from.
    """

    params: dict
    adj: np.ndarray
    dtype: np.dtype
    blocks: tuple

    @classmethod
    def build(cls, params, adj, dtype, n_blocks):
        dtype = np.dtype(dtype)
        adj_d = adj.astype(dtype, copy=False)
        v = adj.shape[0]
        blocks = tuple(
            (_spatial_weight(params[f"block{i}.spatial.w"], adj_d),
             np.tile(params[f"block{i}.spatial.b"], v),
             _temporal_weight(params[f"block{i}.temporal.w"]),
             params[f"block{i}.temporal.b"])
            for i in range(n_blocks))
        return cls(params=params, adj=adj, dtype=dtype, blocks=blocks)

    @classmethod
    def for_call(cls, params, adj, dtype, n_blocks):
        """The operands one encode with ``adj`` and ``dtype`` runs on.

        ``params`` is returned as is when it is a :class:`GemmOperands` built
        from this very adjacency array for this dtype and block count; any
        other operands are rebuilt from their ``params``, so they are never
        used with an adjacency or dtype they were not built for. A parameter
        dict is always built.
        """
        if isinstance(params, cls):
            if (params.adj is adj and params.dtype == dtype
                    and len(params.blocks) == n_blocks):
                return params
            params = params.params
        return cls.build(params, adj, dtype, n_blocks)


def encode_forward(params, x, adj, cfg, want_cache=False):
    """Batched forward pass. x: [B, C, T, V] -> unit-norm features [B, feature_dim].

    ``params`` is a parameter dict or the :class:`GemmOperands` built from
    one. With ``want_cache`` the returned cache holds every intermediate
    needed by :func:`encode_backward`, and the batch runs as one tile;
    otherwise it runs in tiles of whole windows (see the module docstring).
    """
    _check_input(x, cfg)
    ops = GemmOperands.for_call(params, adj, x.dtype, cfg.blocks)
    b, _, t, v = x.shape
    window_bytes = t * v * cfg.temporal_kernel * cfg.width * x.itemsize
    per_tile = max(1, TILE_BYTES // window_bytes)
    if want_cache or per_tile >= b:
        return _forward(ops, x, adj, cfg, want_cache)
    tiles = [_forward(ops, x[lo:lo + per_tile], adj, cfg, False)[0]
             for lo in range(0, b, per_tile)]
    return np.concatenate(tiles), None


def _forward(ops, x, adj, cfg, want_cache):
    """The forward kernel of :func:`encode_forward` on checked input and operands."""
    params = ops.params
    b, _, t, v = x.shape
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2
    h = x.transpose(0, 2, 3, 1).reshape(b * t, -1)       # [(B*T), V*C_in]
    block_caches = []
    for k_s, b_s, w_t, b_t in ops.blocks:
        c = k_s.shape[1] // v
        pre_s = h @ k_s                                     # [(B*T), V*C]
        pre_s += b_s
        xp = np.zeros((b, t + k - 1, v, c), dtype=pre_s.dtype)
        np.maximum(pre_s.reshape(b, t, v, c), 0.0, out=xp[:, pad_l:pad_l + t])
        # im2col: row (b, t, v) holds the k taps xp[b, t:t+k, v, :]
        cols = np.empty((b, t, v, k, c), dtype=xp.dtype)
        for kk in range(k):
            cols[:, :, :, kk] = xp[:, kk:kk + t]
        cols = cols.reshape(b * t * v, k * c)
        act_t = cols @ w_t                                  # [(B*T*V), C]
        act_t += b_t
        np.maximum(act_t, 0.0, out=act_t)
        if want_cache:
            block_caches.append((h, k_s, xp, cols, act_t))
        h = act_t.reshape(b * t, -1)
    per_window = h.reshape(b, t * v, -1)
    pooled = np.full(t * v, 1.0 / (t * v), dtype=h.dtype) @ per_window
    z = pooled @ params["proj.w"].T + params["proj.b"]
    norm = np.sqrt((z * z).sum(axis=1, keepdims=True))
    r = np.maximum(norm, NORM_EPS)
    f = z / r
    if not want_cache:
        return f, None
    cache = {
        "params": params, "adj": adj.astype(x.dtype, copy=False), "cfg": cfg,
        "shape": x.shape, "blocks": block_caches, "pooled": pooled, "f": f, "r": r,
    }
    return f, cache


def encode_backward(cache, grad_f):
    """Backward pass for :func:`encode_forward`.

    Returns ``(grads, grad_x)`` where ``grads`` mirrors the parameter dict and
    ``grad_x`` is [B, C, T, V] like the input.
    """
    params = cache["params"]
    adj = cache["adj"]
    cfg = cache["cfg"]
    f, r = cache["f"], cache["r"]
    b, c_in, t, v = cache["shape"]
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
        h, k_s, xp, cols, act_t = cache["blocks"][i]
        w_t = params[f"block{i}.temporal.w"]
        c = w_t.shape[0]
        # a ReLU output is positive exactly where its pre-activation is
        g_t = (g_h * (act_t.reshape(b, t * v, c) > 0)).reshape(-1, c)
        grads[f"block{i}.temporal.b"] = _column_sums(g_t)
        g_wk = (g_t.T @ cols).reshape(c, k, -1)             # [C_out, tap, C_in]
        grads[f"block{i}.temporal.w"] = np.ascontiguousarray(g_wk.transpose(0, 2, 1))
        # col2im: tap kk of output row t read padded row t + kk
        g_cols = (g_t @ _temporal_weight(w_t).T).reshape(b, t, v, k, c)
        g_xp = np.zeros_like(xp)
        for kk in range(k):
            g_xp[:, kk:kk + t] += g_cols[:, :, :, kk]
        act_s = xp[:, pad_l:pad_l + t]
        g_s = (g_xp[:, pad_l:pad_l + t] * (act_s > 0)).reshape(b * t, v * c)
        grads[f"block{i}.spatial.b"] = _column_sums(g_s.reshape(-1, c))
        # d kron(adj, w_s.T) -> d w_s: contract the joint pairs against adj
        g_ks = (h.T @ g_s).reshape(v, -1, v, c)
        g_ws = np.tensordot(adj, g_ks, axes=([0, 1], [0, 2]))  # [C_in, C_out]
        grads[f"block{i}.spatial.w"] = np.ascontiguousarray(g_ws.T)
        g_h = (g_s @ k_s.T).reshape(b, t * v, -1)
    grad_x = g_h.reshape(b, t, v, c_in).transpose(0, 3, 1, 2)
    return grads, np.ascontiguousarray(grad_x)


def classify(decoder, f):
    """Softmax class probabilities for a feature vector (or a batch of them)."""
    logits = f @ decoder["w"].T + decoder["b"]
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=-1, keepdims=True)


def momentum_update(params_l, params_s, coef):
    """Exponential-moving-average update of the long-term encoder.

    Computed as ``theta_S + coef * (theta_L - theta_S)``, algebraically
    ``coef*theta_L + (1-coef)*theta_S`` but exact at coef=0 and at
    ``theta_L == theta_S``, and with exactly geometric gap decay.
    """
    if not (0.0 <= coef < 1.0):
        raise ConfigError(f"momentum coefficient must be in [0, 1), got {coef}")
    if set(params_l) != set(params_s):
        raise StructuralError("encoder parameter sets differ in structure")
    out = {}
    for name, tl in params_l.items():
        ts = params_s[name]
        if tl.shape != ts.shape:
            raise StructuralError(
                f"shape mismatch for {name}: {tl.shape} vs {ts.shape}")
        out[name] = ts + coef * (tl - ts)
    return out
