"""Shared test utilities: finite-difference oracles, a reference encoder, a
single-window prediction oracle, queue inspection and parameter flattening."""

import numpy as np

from gesturemem.encoder import NORM_EPS, _check_input, classify, encode_forward
from gesturemem.memory import recall_for_query


def rel_error(a, b, floor=1e-12):
    """Norm-based relative error between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return np.linalg.norm(a - b) / denom


def fd_grad(fn, x, eps=1e-6, kinks=None):
    """Central finite differences of a scalar function w.r.t. one array.

    Perturbs ``x`` in place (and restores it), so closures over ``x`` observe
    the perturbation; ``x`` must already be float64.

    ``kinks``, if given, returns the ReLU pre-activations that are exactly 0.0
    at the unperturbed point. Where an entry moves them, the function has a
    kink there: central differences would average the two slopes, while the
    analytic rule ``pre > 0`` takes the slope of the side where those units
    are inactive. That entry gets a second-order one-sided difference from
    that side instead, and the moved units must all move the same way.
    """
    x = np.asarray(x)
    assert x.dtype == np.float64, "finite differences need float64 inputs"
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        moved = None if kinks is None else kinks(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        if moved is None or not moved.any():
            gflat[i] = (hi - lo) / (2 * eps)
            continue
        moved = moved[moved != 0]
        assert (moved > 0).all() or (moved < 0).all(), "kink units move both ways"
        side = -1.0 if moved[0] > 0 else 1.0   # the side that switches them off
        flat[i] = orig + 2 * side * eps
        far = fn(x)
        flat[i] = orig
        near = lo if side < 0 else hi
        gflat[i] = side * (4 * near - far - 3 * fn(x)) / (2 * eps)
    return grad


def fd_param_grads(loss_fn, params, eps=1e-6, kinks=None):
    """Finite differences of ``loss_fn(params)`` per parameter tensor.

    ``kinks(params)`` is passed on to :func:`fd_grad`.
    """
    grads = {}
    for name, arr in params.items():
        probe = None if kinks is None else (lambda _a: kinks(params))
        grads[name] = fd_grad(lambda _a, n=name: loss_fn(params), arr, eps, probe)
    return grads


def relu_preactivations(params, x, adj, cfg):
    """Every spatial and temporal pre-activation of the encoder, flattened."""
    _, cache = ref_encode_forward(params, x, adj, cfg)
    return np.concatenate([a.ravel() for _, pre_s, _, pre_t in cache["blocks"]
                           for a in (pre_s, pre_t)])


def param_count(params):
    return sum(v.size for v in params.values())


def random_unit_rows(rng, n, dim, dtype=np.float64):
    x = rng.normal(size=(n, dim)).astype(dtype)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def insertion_order(queue):
    """(features, labels) of a queue's filled slots, oldest first."""
    order = (np.arange(queue.fill) if queue.fill < queue.capacity
             else np.r_[np.arange(queue.head, queue.capacity), np.arange(queue.head)])
    return queue.features[order].copy(), queue.labels[order].copy()


def oracle_predict(model, window):
    """One window's (class, probabilities) the long way: the input transform
    written out, ``encode_forward`` on the raw parameter dict (operands built
    for this call), then single-query ``recall_for_query``, ``+`` and
    ``classify``."""
    x = np.asarray(window, dtype=np.float64)
    if model.center:
        x = x - x.mean(axis=1, keepdims=True)
    x = (x * model.input_scale).astype(model.dtype)
    f, _ = encode_forward(dict(model.params), x[None], model.adjacency,
                          model.encoder_cfg)
    f = f[0]
    if model.use_recall:
        f = f + recall_for_query(model.queue, f)
    probs = classify(model.decoder, f)
    return int(probs.argmax()), probs


# --- reference encoder ---------------------------------------------------------
# The encoder written channels-first, one einsum per adjacency mix and per
# temporal tap, with np.pad for the temporal padding. It is slow but reads
# directly off the definitions, so the GEMM kernels in gesturemem.encoder are
# pinned against it.

def ref_encode_forward(params, x, adj, cfg):
    """Reference forward pass: x [B, C, T, V] -> (features, cache)."""
    _check_input(x, cfg)
    adj = adj.astype(x.dtype, copy=False)
    h = x
    block_caches = []
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2
    pad_r = k - 1 - pad_l
    for i in range(cfg.blocks):
        w_s = params[f"block{i}.spatial.w"]
        b_s = params[f"block{i}.spatial.b"]
        w_t = params[f"block{i}.temporal.w"]
        b_t = params[f"block{i}.temporal.b"]
        xa = np.einsum("bitu,uv->bitv", h, adj)
        pre_s = np.einsum("oi,bitv->botv", w_s, xa) + b_s[None, :, None, None]
        act_s = np.maximum(pre_s, 0.0)
        xp = np.pad(act_s, ((0, 0), (0, 0), (pad_l, pad_r), (0, 0)))
        t_len = act_s.shape[2]
        pre_t = np.einsum("oi,bitv->botv", w_t[:, :, 0], xp[:, :, 0:t_len, :])
        for kk in range(1, k):
            pre_t += np.einsum("oi,bitv->botv", w_t[:, :, kk], xp[:, :, kk:kk + t_len, :])
        pre_t += b_t[None, :, None, None]
        block_caches.append((xa, pre_s, xp, pre_t))
        h = np.maximum(pre_t, 0.0)
    pooled = h.mean(axis=(2, 3))
    z = pooled @ params["proj.w"].T + params["proj.b"]
    r = np.maximum(np.sqrt((z * z).sum(axis=1, keepdims=True)), NORM_EPS)
    f = z / r
    cache = {"params": params, "adj": adj, "cfg": cfg, "blocks": block_caches,
             "last": h, "pooled": pooled, "f": f, "r": r}
    return f, cache


def ref_encode_backward(cache, grad_f):
    """Reference backward pass: returns (grads, grad_x [B, C, T, V])."""
    params, adj, cfg = cache["params"], cache["adj"], cache["cfg"]
    f, r = cache["f"], cache["r"]
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2
    grads = {}
    g = (grad_f - f * (f * grad_f).sum(axis=1, keepdims=True)) / r
    grads["proj.w"] = g.T @ cache["pooled"]
    grads["proj.b"] = g.sum(axis=0)
    g_pooled = g @ params["proj.w"]
    h_last = cache["last"]
    _, _, t_len, v = h_last.shape
    g_h = np.broadcast_to((g_pooled / (t_len * v))[:, :, None, None], h_last.shape)
    for i in reversed(range(cfg.blocks)):
        xa, pre_s, xp, pre_t = cache["blocks"][i]
        w_s = params[f"block{i}.spatial.w"]
        w_t = params[f"block{i}.temporal.w"]
        g_t = g_h * (pre_t > 0)
        grads[f"block{i}.temporal.b"] = g_t.sum(axis=(0, 2, 3))
        g_wt = np.empty_like(w_t)
        g_xp = np.zeros_like(xp)
        for kk in range(k):
            g_wt[:, :, kk] = np.einsum("botv,bitv->oi", g_t, xp[:, :, kk:kk + t_len, :])
            g_xp[:, :, kk:kk + t_len, :] += np.einsum("oi,botv->bitv", w_t[:, :, kk], g_t)
        grads[f"block{i}.temporal.w"] = g_wt
        g_s = g_xp[:, :, pad_l:pad_l + t_len, :] * (pre_s > 0)
        grads[f"block{i}.spatial.b"] = g_s.sum(axis=(0, 2, 3))
        grads[f"block{i}.spatial.w"] = np.einsum("botv,bitv->oi", g_s, xa)
        g_xa = np.einsum("oi,botv->bitv", w_s, g_s)
        g_h = np.einsum("bitv,uv->bitu", g_xa, adj)
    return grads, g_h
