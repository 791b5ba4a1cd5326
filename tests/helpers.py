"""Shared test utilities: finite-difference oracles, a reference encoder,
bitwise oracles of the encoder and contrastive-loss kernels and of the
training step's per-tensor update, a single-window prediction oracle,
reference windowing and training data, queue inspection and parameter
flattening."""

import numpy as np

from gesturemem import encoder as enc
from gesturemem import losses
from gesturemem import memory as mem
from gesturemem.dataset import ShortTermSample, preprocess
from gesturemem.encoder import NORM_EPS, _check_input, encode_forward
from gesturemem.errors import ConfigError


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


def assert_same_bits(a, b, what):
    """Equal dtype, shape and bytes: the same floats, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


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


def query_basis(params):
    """A float64 orthonormal basis [feature_dim, min(width + 1, feature_dim)]
    of the span of ``[proj.w | proj.b]``, which holds every encoder feature:
    the Q factor of that matrix's QR."""
    proj = np.column_stack([params["proj.w"], params["proj.b"]])
    return np.linalg.qr(proj.astype(np.float64))[0]


def oracle_predict(model, window):
    """One window's (class, probabilities) the long way: the input transform
    written out, ``encode_forward`` on the raw parameter dict (operands built
    for this call), the decoder logits, then, with recall on and a filled
    queue, the memory read in the served order: an orthonormal basis ``B`` of
    the projection's span ``[proj.w | proj.b]`` from a float64 QR, the query's
    coordinates ``f @ B`` against the slot-minor keys ``Bᵀ memᵀ`` (computed in
    float64, then cast), exp with no max subtracted, the product with the
    decoder folded into the memory, less its slot mean, plus a ones row,
    ``[W_dec @ memᵀ - mean; 1ᵀ]``, and the decoded recall divided by the
    normalizer that row sums, plus the mean, added to the logits; then
    softmax."""
    x = np.asarray(window, dtype=np.float64)
    if model.center:
        x = x - x.mean(axis=1, keepdims=True)
    x = (x * model.input_scale).astype(model.dtype)
    f, _ = encode_forward(dict(model.params), x[None], model.adjacency,
                          model.encoder_cfg)
    f = f[0]
    w_dec = model.decoder["w"]
    logits = f @ w_dec.T + model.decoder["b"]
    if model.use_recall and model.queue.fill > 0:
        mem_t = np.ascontiguousarray(model.queue.filled_features.T)
        basis = query_basis(model.params)
        keys = (basis.T @ mem_t).astype(mem_t.dtype)
        folded = w_dec @ mem_t
        mean = (folded.sum(axis=1, dtype=np.float64) / mem_t.shape[1]).astype(folded.dtype)
        readout = np.concatenate([folded - mean[:, None],
                                  np.ones((1, mem_t.shape[1]), folded.dtype)])
        e = np.exp((f[None] @ basis.astype(mem_t.dtype)) @ keys)
        s = (e @ readout.T)[0]
        logits = logits + (s[:-1] / s[-1] + mean)
    e = np.exp(logits - logits.max())
    probs = e / e.sum()
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
    """Reference backward pass: returns the parameter gradients."""
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
    return grads


# --- bitwise oracles ---------------------------------------------------------
# The GEMM encoder and the contrastive-loss core in their plainest layout: the
# biases added by broadcasting over each [rows, C] block, the temporal taps
# and weights as np.tile and np.tensordot give them, and every anchor's loss
# computed on a gather of the valid anchors. The fast paths in
# gesturemem.encoder and gesturemem.losses must reproduce these bit for bit.

def oracle_gemm_blocks(params, adj, dtype, n_blocks):
    """Per block: ``kron(adj, w_s.T)``, the spatial bias tiled over the
    joints, the taps as [k, C_in, C_out] and the temporal bias."""
    dtype = np.dtype(dtype)
    adj_d = adj.astype(dtype, copy=False)
    v = adj.shape[0]
    return tuple(
        (enc._spatial_weight(params[f"block{i}.spatial.w"], adj_d),
         np.tile(params[f"block{i}.spatial.b"], v),
         np.ascontiguousarray(params[f"block{i}.temporal.w"].transpose(2, 1, 0)),
         params[f"block{i}.temporal.b"])
        for i in range(n_blocks))


def oracle_encode_forward(params, x, adj, cfg, want_cache=False):
    """``encode_forward`` on a parameter dict: the same tiles of whole windows
    (``enc.TILE_BYTES`` read at call time), each run by
    :func:`oracle_forward_tile`."""
    _check_input(x, cfg)
    blocks = oracle_gemm_blocks(params, adj, x.dtype, cfg.blocks)
    b, _, t, v = x.shape
    window_bytes = t * v * cfg.temporal_kernel * cfg.width * x.itemsize
    per_tile = max(1, enc.TILE_BYTES // window_bytes)
    if want_cache or per_tile >= b:
        return oracle_forward_tile(params, blocks, x, adj, cfg, want_cache)
    tiles = [oracle_forward_tile(params, blocks, x[lo:lo + per_tile], adj, cfg, False)[0]
             for lo in range(0, b, per_tile)]
    return np.concatenate(tiles), None


def oracle_forward_tile(params, blocks, x, adj, cfg, want_cache):
    """One tile of :func:`oracle_encode_forward`; its cache has the layout
    ``encode_backward`` reads."""
    b, c_in, t, v = x.shape
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2
    h = x.transpose(0, 2, 3, 1).reshape(b * t, v * c_in)
    block_caches = []
    xp = None
    for k_s, b_s, taps, b_t in blocks:
        c = k_s.shape[1] // v
        pre_s = h @ k_s
        pre_s += b_s
        if xp is None or want_cache:
            xp = np.zeros((b, (t + k - 1) * v, c), dtype=pre_s.dtype)
            shifted = [xp[:, kk * v:(kk + t) * v] for kk in range(k)]
        np.maximum(pre_s.reshape(b, t * v, c), 0.0, out=shifted[pad_l])
        act_t = shifted[0] @ taps[0]
        for kk in range(1, k):
            act_t += shifted[kk] @ taps[kk]
        act_t += b_t
        np.maximum(act_t, 0.0, out=act_t)
        if want_cache:
            block_caches.append((h, k_s, xp, taps, act_t))
        h = act_t.reshape(b * t, v * c)
    per_window = h.reshape(b, t * v, c)
    pooled = np.full(t * v, 1.0 / (t * v), dtype=h.dtype) @ per_window
    z = pooled @ params["proj.w"].T + params["proj.b"]
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))
    r = np.maximum(norm, NORM_EPS)
    f = z / r
    if not want_cache:
        return f, None
    cache = {
        "params": params, "adj": adj.astype(x.dtype, copy=False), "cfg": cfg,
        "shape": x.shape, "blocks": block_caches, "pooled": pooled, "f": f, "r": r,
    }
    return f, cache


def oracle_encode_backward(cache, grad_f):
    """``encode_backward`` with the spatial weight gradient by np.tensordot."""
    params = cache["params"]
    adj = cache["adj"]
    cfg = cache["cfg"]
    f, r = cache["f"], cache["r"]
    b, _, t, v = cache["shape"]
    k = cfg.temporal_kernel
    pad_l = (k - 1) // 2
    grads = {}
    g = (grad_f - f * (f * grad_f).sum(axis=1, keepdims=True)) / r
    grads["proj.w"] = g.T @ cache["pooled"]
    grads["proj.b"] = g.sum(axis=0)
    g_pooled = g @ params["proj.w"]
    g_h = (g_pooled / (t * v))[:, None, :]
    for i in reversed(range(cfg.blocks)):
        h, k_s, xp, taps, act_t = cache["blocks"][i]
        c = act_t.shape[2]
        g_pad = np.zeros_like(xp)
        np.multiply(g_h, act_t > 0, out=g_pad[:, :t * v])
        g_rows = g_pad.reshape(-1, c)[:b * (t + k - 1) * v - (k - 1) * v]
        grads[f"block{i}.temporal.b"] = enc._column_sums(g_rows)
        x_rows = xp.reshape(-1, c)
        g_xp = np.zeros_like(xp)
        g_x_rows = g_xp.reshape(-1, c)
        g_taps = np.empty_like(taps)
        for kk in range(k):
            tap_rows = slice(kk * v, kk * v + len(g_rows))
            g_taps[kk] = x_rows[tap_rows].T @ g_rows
            g_x_rows[tap_rows] += g_rows @ taps[kk].T
        grads[f"block{i}.temporal.w"] = np.ascontiguousarray(g_taps.transpose(2, 1, 0))
        interior = slice(pad_l * v, (pad_l + t) * v)
        g_s = (g_xp[:, interior] * (xp[:, interior] > 0)).reshape(b * t, v * c)
        grads[f"block{i}.spatial.b"] = enc._column_sums(g_s.reshape(-1, c))
        g_ks = (h.T @ g_s).reshape(v, -1, v, c)
        g_ws = np.tensordot(adj, g_ks, axes=([0, 1], [0, 2]))
        grads[f"block{i}.spatial.w"] = np.ascontiguousarray(g_ws.T)
        g_h = (g_s @ k_s.T).reshape(b, t * v, k_s.shape[0] // v)
    return grads


def oracle_anchor_loss_and_coeff(sims, pos_mask, den_mask):
    """(loss rows [B], coeff [B, K]) of the valid anchors, gathered; skipped
    anchors keep zero rows."""
    b, k = sims.shape
    pos_cnt = pos_mask.sum(axis=1)
    valid = (pos_cnt > 0) & den_mask.any(axis=1)
    loss_rows = np.zeros(b, dtype=np.float64)
    coeff = np.zeros_like(sims)
    if not valid.any():
        return loss_rows, coeff
    v = np.flatnonzero(valid)
    masked = np.where(den_mask[v], sims[v], -np.inf)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    denom = e.sum(axis=1, keepdims=True)
    lse = (m + np.log(denom))[:, 0]
    mean_pos = (sims[v] * pos_mask[v]).sum(axis=1) / pos_cnt[v]
    loss_rows[v] = lse - mean_pos
    coeff[v] = e / denom - pos_mask[v] / pos_cnt[v][:, None]
    return loss_rows, coeff


def oracle_memory_augmented_loss(features, labels, queue, cfg):
    """``memory_augmented_loss_with_grad`` on :func:`oracle_anchor_loss_and_coeff`."""
    mem = queue.filled_features.astype(features.dtype, copy=False)
    sims = features @ mem.T / cfg.temperature
    pos_mask = queue.filled_labels[None, :] == labels[:, None]
    den_mask = ~pos_mask if cfg.denominator_mode == "negatives" else np.ones_like(pos_mask)
    loss_rows, coeff = oracle_anchor_loss_and_coeff(sims, pos_mask, den_mask)
    grad = (coeff @ mem) / cfg.temperature
    return float(loss_rows.sum()), grad.astype(features.dtype, copy=False)


def oracle_supervised_contrastive_loss(features, labels, cfg):
    """``supervised_contrastive_loss_with_grad`` on :func:`oracle_anchor_loss_and_coeff`."""
    n = features.shape[0]
    sims = features @ features.T / cfg.temperature
    not_self = ~np.eye(n, dtype=bool)
    pos_mask = (labels[None, :] == labels[:, None]) & not_self
    loss_rows, coeff = oracle_anchor_loss_and_coeff(sims, pos_mask, not_self)
    grad = ((coeff + coeff.T) @ features) / cfg.temperature
    return float(loss_rows.sum()), grad.astype(features.dtype, copy=False)


# --- per-tensor training update ----------------------------------------------
# The training step with SGD and the momentum update written per tensor, and
# the augmented views cropped one sample at a time: the plainest form of what
# gesturemem.training does on flat buffers and with one gather, which must
# reproduce it bit for bit.

def oracle_sgd_apply(state, grads):
    """SGD with coupled weight decay over the short-term encoder and decoder;
    ``grads`` keys are prefixed parameter names (``encoder_s/...``,
    ``decoder/...``)."""
    cfg = state.config
    lr, wd = cfg.learning_rate, cfg.weight_decay
    for name, g in grads.items():
        group, key = name.split("/", 1)
        params = state.params_s if group == "encoder_s" else state.decoder
        p = params[key]
        params[key] = p - lr * (g + wd * p)


def oracle_momentum_update(params_l, params_s, coef):
    """A new dict: ``theta_S + coef * (theta_L - theta_S)`` per tensor."""
    out = {}
    for name, tl in params_l.items():
        ts = params_s[name]
        gap = tl - ts
        gap *= coef
        gap += ts
        out[name] = gap
    return out


def oracle_augment_views(x, rng, jitter_sigma, min_len):
    """``training._augment_views`` one sample at a time: slice, repeat the
    last frame, concatenate."""
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


def oracle_train_step(state, x_short, x_long, labels):
    """``training.train_step`` with the per-tensor update: the gradients
    summed and applied one tensor at a time, the long encoder replaced by a
    new dict, the views cropped by :func:`oracle_augment_views`."""
    cfg = state.config
    enc_cfg = cfg.encoder_config()
    adj = state.graph.normalized
    labels = np.asarray(labels)
    feats_s, cache_s = enc.encode_forward(state.params_s, x_short, adj, enc_cfg,
                                          want_cache=True)
    feats_l, _ = enc.encode_forward(state.params_l, x_long, adj, enc_cfg)
    combined, recall_cache = feats_s, None
    if cfg.use_recall:
        recalled, recall_cache = mem.recall_batch_with_grad(state.queue, feats_s)
        combined = feats_s + recalled
    logits = combined @ state.decoder["w"].T + state.decoder["b"]
    ce, g_logits, probs = losses.softmax_cross_entropy_batch(logits, labels)
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    g_combined = g_logits @ state.decoder["w"]
    g_feats = g_combined
    if cfg.use_recall:
        g_feats = g_combined + mem.recall_batch_backward(recall_cache, g_combined)
    contrast, g_aug = 0.0, None
    if cfg.use_mal:
        if cfg.contrast_loss == "memory":
            contrast, g_con = losses.memory_augmented_loss_with_grad(
                feats_s, labels, state.queue, cfg)
            g_feats += cfg.mal_weight * g_con
        else:
            views = oracle_augment_views(x_short, state.rng, cfg.jitter_sigma,
                                         min_len=max(cfg.temporal_kernel,
                                                     x_short.shape[2] - 2))
            view_feats, aug_cache = enc.encode_forward(state.params_s, views, adj,
                                                       enc_cfg, want_cache=True)
            contrast, g_views = losses.supervised_contrastive_loss_with_grad(
                view_feats, np.concatenate([labels, labels]), cfg)
            g_aug = cfg.mal_weight * g_views
    total = ce + cfg.mal_weight * contrast
    param_grads = enc.encode_backward(cache_s, g_feats)
    if g_aug is not None:
        for k, v in enc.encode_backward(aug_cache, g_aug).items():
            param_grads[k] = param_grads[k] + v
    grads = {f"encoder_s/{k}": v for k, v in param_grads.items()}
    grads["decoder/w"] = g_logits.T @ combined
    grads["decoder/b"] = g_logits.sum(axis=0)
    oracle_sgd_apply(state, grads)
    state.params_l = oracle_momentum_update(state.params_l, state.params_s,
                                            cfg.momentum_coef)
    state.queue.enqueue_batch(feats_l, labels)
    state.step += 1
    return {"loss": float(total), "ce": float(ce), "contrast": float(contrast),
            "accuracy": accuracy}


# --- reference windowing -------------------------------------------------------
# One window per Python iteration: a label slice, a purity test and a copy, as
# the definitions read. The vectorized windowing of gesturemem.dataset and
# training.prepare_data is pinned against these.

def ref_split_windows(recording, short_len, stride):
    """Label-pure ``short_len``-frame windows at ``stride``, one at a time."""
    samples = []
    n = len(recording)
    labels = recording.labels
    for start in range(0, n - short_len + 1, stride):
        window = labels[start:start + short_len]
        if (window == window[0]).all():
            data = np.ascontiguousarray(
                recording.joints[start:start + short_len].transpose(2, 0, 1))
            samples.append(ShortTermSample(
                data=data, label=int(window[0]), recording_id=recording.recording_id,
                start_frame=recording.first_frame_index + start))
    return samples


def ref_build_long_term(sample, recording, window_scale):
    """The ``window_scale * T``-frame context window [C, S*T, V] of a short
    sample: it starts ``floor(S/2) * T`` frames before the sample, is shifted
    to fit inside the recording, and is None when the recording is too short
    or when it mixes labels."""
    short_len = sample.data.shape[1]
    total = window_scale * short_len
    n = len(recording)
    if n < total:
        return None
    half = window_scale // 2
    start = (sample.start_frame - recording.first_frame_index) - half * short_len
    start = min(max(start, 0), n - total)
    window_labels = recording.labels[start:start + total]
    if not (window_labels == sample.label).all():
        return None
    return np.ascontiguousarray(recording.joints[start:start + total].transpose(2, 0, 1))


def ref_prepare_data(config, recordings, label_map, split):
    """``training.prepare_data`` one window at a time: every recording windowed
    by :func:`ref_split_windows`, the split applied to the samples, each
    training sample paired with its :func:`ref_build_long_term` window, the
    pairs stacked and put through ``preprocess``, then every recording
    windowed again at the eval stride for the held-out samples."""
    def windowed(stride, subjects):
        """The (sample, recording) pairs of ``subjects``, after refusing a
        sample whose subject is on neither side of the split."""
        pairs = [(s, rec) for rec in recordings
                 for s in ref_split_windows(rec, config.short_len, stride)]
        uncovered = sorted({rec.subject_id for _, rec in pairs}
                           - split.train_subjects - split.test_subjects)
        if uncovered:
            raise ConfigError(f"subjects not covered by the split: {uncovered}")
        return [(s, rec) for s, rec in pairs if rec.subject_id in subjects]

    longs = [(short, ref_build_long_term(short, rec, config.window_scale))
             for short, rec in windowed(config.stride, split.train_subjects)]
    longs = [(short, long) for short, long in longs if long is not None]
    if not longs:
        raise ConfigError("no training samples with a constructible long-term window")
    dtype = config.np_dtype
    x_short = preprocess([short.data for short, _ in longs],
                         config.center, config.input_scale, dtype)
    x_long = preprocess([long for _, long in longs], config.center, config.input_scale, dtype)
    y_train = np.asarray([short.label for short, _ in longs], dtype=np.int64)

    test = windowed(config.eval_stride or config.short_len, split.test_subjects)
    return {"x_short": x_short, "x_long": x_long, "y_train": y_train,
            "test_samples": [s for s, _ in test]}
