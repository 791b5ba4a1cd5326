import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem import encoder as enc
from gesturemem.encoder import (EncoderConfig, GemmOperands, classify,
                                encode_backward, encode_forward,
                                init_decoder_params, init_encoders,
                                momentum_update, normalize_adjacency,
                                skeleton_graph)
from gesturemem.dataset import preprocess
from gesturemem.errors import NonFiniteError, StructuralError
from gesturemem.inference import FrozenModel, predict, predict_batch
from gesturemem.training import TrainConfig, init_state

from helpers import (assert_same_bits, fd_param_grads,
                     oracle_encode_backward, oracle_encode_forward,
                     oracle_gemm_blocks, param_count, ref_encode_backward,
                     ref_encode_forward, rel_error, relu_preactivations)

TINY = EncoderConfig(width=4, feature_dim=4, blocks=2, temporal_kernel=3)
GRAPH = skeleton_graph()


def tiny_setup(seed=0, n_classes=3, cfg=TINY):
    params, params_l, decoder = init_encoders(cfg, n_classes,
                                              np.random.default_rng(seed), np.float64)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(2, 3, 6, 3))
    return params, params_l, decoder, x


def test_skeleton_graph_structure():
    g = skeleton_graph()
    expected = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 1]], dtype=float)
    assert np.array_equal(g.adjacency, expected)
    deg = expected.sum(axis=1)
    manual = expected / np.sqrt(deg[:, None] * deg[None, :])
    assert np.allclose(g.normalized, manual)
    assert np.allclose(g.normalized, g.normalized.T)


def test_encode_deterministic_and_unit_norm():
    params, _, _, x = tiny_setup()
    f1, _ = encode_forward(params, x, GRAPH.normalized, TINY)
    f2, _ = encode_forward(params, x.copy(), GRAPH.normalized, TINY)
    assert np.array_equal(f1, f2)
    assert np.allclose(np.linalg.norm(f1, axis=1), 1.0, atol=1e-6)


def test_encode_length_agnostic():
    params, _, _, _ = tiny_setup()
    rng = np.random.default_rng(5)
    for t in (3, 6, 60):
        f, _ = encode_forward(params, rng.normal(size=(1, 3, t, 3)), GRAPH.normalized,
                              TINY)
        assert f.shape == (1, TINY.feature_dim)
        assert abs(np.linalg.norm(f) - 1.0) < 1e-6


def test_operands_are_never_used_with_another_adjacency_or_dtype():
    params, _, _, x = tiny_setup()
    adj = GRAPH.normalized
    ops = GemmOperands.build(params, adj, np.float64, TINY.blocks)
    assert GemmOperands.for_call(ops, adj, np.dtype(np.float64), TINY.blocks) is ops
    f_ops, _ = encode_forward(ops, x, adj, TINY)
    assert np.array_equal(f_ops, encode_forward(params, x, adj, TINY)[0])
    other = normalize_adjacency(np.ones((3, 3)))
    for a, xx in ((other, x), (adj.copy(), x), (adj, x.astype(np.float32))):
        f_ops, _ = encode_forward(ops, xx, a, TINY)
        f_raw, _ = encode_forward(params, xx, a, TINY)
        assert np.array_equal(f_ops, f_raw)
    assert not np.allclose(encode_forward(ops, x, other, TINY)[0], f_ops)


def test_encode_input_validation():
    params, _, _, _ = tiny_setup()
    bad = np.zeros((1, 3, 6, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        encode_forward(params, bad, GRAPH.normalized, TINY)
    for shape in ((3, 6, 3),            # no batch axis
                  (1, 3, 2, 3),         # T < kernel
                  (1, 4, 6, 3)):        # wrong C
        with pytest.raises(StructuralError):
            encode_forward(params, np.zeros(shape), GRAPH.normalized, TINY)


@pytest.mark.parametrize("big", [7.657517846804133e18, 1e25, 1e30])
def test_feature_norm_past_the_dtype_range_is_refused(big):
    """A finite window whose features overflow float32 in the norm's squares
    or their sum raises NonFiniteError, with no numpy warning (the suite turns
    RuntimeWarnings into errors), where it used to give zero features."""
    config = TrainConfig(short_len=6, window_scale=2, queue_capacity=16,
                         feature_dim=8, width=4, batch_size=4, epochs=0, seed=0,
                         dtype="float32", center=True, input_scale=1000.0)
    state = init_state(config, ("a", "b", "c"))
    cfg, adj = config.encoder_config(), state.graph.normalized
    window = np.zeros((1, 3, 6, 3))
    window[0, 2, 5, 2] = big  # the last frame's last joint, channel z
    x = preprocess(window, True, 1000.0, np.float32)
    assert np.isfinite(x).all()
    with pytest.raises(NonFiniteError, match="feature norm"):
        encode_forward(state.params_s, x, adj, cfg)
    window[0, 2, 5, 2] = 1e12  # large, but its squares fit
    f, _ = encode_forward(state.params_s, preprocess(window, True, 1000.0, np.float32),
                          adj, cfg)
    assert np.allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-6)


def check_param_gradients(cfg):
    params, _, _, x = tiny_setup(cfg=cfg)
    assert param_count(params) <= 500
    rng = np.random.default_rng(7)
    probe = rng.normal(size=(x.shape[0], cfg.feature_dim))

    def loss(p):
        f, _ = encode_forward(p, x, GRAPH.normalized, cfg)
        return float((probe * f).sum())

    at_kink = relu_preactivations(params, x, GRAPH.normalized, cfg) == 0

    def kinks(p):
        return relu_preactivations(p, x, GRAPH.normalized, cfg)[at_kink]

    f, cache = encode_forward(params, x, GRAPH.normalized, cfg, want_cache=True)
    grads = encode_backward(cache, probe)
    fd = fd_param_grads(lambda p: loss(p), params, kinks=kinks)
    for name in params:
        assert rel_error(grads[name], fd[name]) < 1e-4, name


def test_encoder_param_gradients_match_finite_differences():
    check_param_gradients(TINY)


# an even kernel pads asymmetrically (no frame on the left, one on the right),
# and a third block chains two hidden-to-hidden blocks. With k=2 the last frame
# sees one real tap, so exact-zero pre-activations occur there and the oracle
# has to handle kinks.
@pytest.mark.parametrize("cfg", [
    EncoderConfig(width=4, feature_dim=4, blocks=2, temporal_kernel=2),
    EncoderConfig(width=4, feature_dim=4, blocks=3, temporal_kernel=3),
], ids=["k2", "blocks3"])
def test_encoder_gradients_match_finite_differences_beyond_tiny(cfg):
    check_param_gradients(cfg)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_gemm_kernels_match_per_tap_reference(blocks, k, dtype, tol):
    cfg = EncoderConfig(width=8, feature_dim=16, blocks=blocks, temporal_kernel=k)
    params, _, _ = init_encoders(cfg, 3, np.random.default_rng(blocks * 10 + k), dtype)
    rng = np.random.default_rng(k)
    for t in sorted({k, 6, 60}):
        for b in (1, 16):
            x = rng.normal(size=(b, 3, t, 3)).astype(dtype)
            grad_f = rng.normal(size=(b, cfg.feature_dim)).astype(dtype)
            f, cache = encode_forward(params, x, GRAPH.normalized, cfg, want_cache=True)
            grads = encode_backward(cache, grad_f)
            f_ref, cache_ref = ref_encode_forward(params, x, GRAPH.normalized, cfg)
            grads_ref = ref_encode_backward(cache_ref, grad_f)
            case = f"T={t} B={b}"
            assert f.dtype == dtype, case
            assert rel_error(f, f_ref) < tol, case
            # the uncached pass shares one padded buffer among its blocks
            f_uncached, _ = encode_forward(params, x, GRAPH.normalized, cfg)
            assert rel_error(f_uncached, f_ref) < tol, case
            assert set(grads) == set(params), case
            for name, p in params.items():
                assert grads[name].shape == p.shape, (case, name)
                assert grads[name].dtype == p.dtype, (case, name)
                assert rel_error(grads[name], grads_ref[name]) < tol, (case, name)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("t", [6, 60])
def test_tiled_forward_matches_one_tile(monkeypatch, t, blocks, dtype, tol):
    cfg = EncoderConfig(width=8, feature_dim=16, blocks=blocks, temporal_kernel=3)
    params, _, _ = init_encoders(cfg, 3, np.random.default_rng(blocks), dtype)
    x = np.random.default_rng(t).normal(size=(7, 3, t, 3)).astype(dtype)
    adj = GRAPH.normalized
    window_bytes = t * 3 * cfg.temporal_kernel * cfg.width * x.itemsize
    assert enc.TILE_BYTES >= 7 * window_bytes  # the default runs one tile
    f_one, _ = encode_forward(params, x, adj, cfg)
    tiles = []
    kernel = enc._forward

    def spy(ops, xs, *args):
        tiles.append(xs.shape[0])
        return kernel(ops, xs, *args)

    monkeypatch.setattr(enc, "_forward", spy)
    # the sequential loop, whose tile order is fixed; the pooled tiles are
    # checked below, whatever BLAS's thread setting
    monkeypatch.setattr(enc, "TILE_THREADS", 1)
    for per_tile, sizes in ((1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1])):
        monkeypatch.setattr(enc, "TILE_BYTES", per_tile * window_bytes + window_bytes // 2)
        tiles.clear()
        f, cache = encode_forward(params, x, adj, cfg)
        assert tiles == sizes and cache is None
        assert f.dtype == dtype and f.shape == f_one.shape
        assert np.abs(f - f_one).max() < tol, per_tile
        tiles.clear()
        f_c, cache = encode_forward(params, x, adj, cfg, want_cache=True)
        assert tiles == [7] and cache["shape"] == x.shape
        assert len(cache["blocks"]) == blocks
        assert all(blk[0].shape[0] == 7 * t for blk in cache["blocks"])
        assert cache["f"].shape == (7, cfg.feature_dim)
        assert np.abs(f_c - f_one).max() < tol


def test_thigh_permutation_invariance():
    # swapping the two thigh joints permutes adjacency rows/cols onto itself
    params, _, _, _ = tiny_setup(seed=9)
    x = np.random.default_rng(13).normal(size=(3, 8, 3))
    perm = [0, 2, 1]
    adj_perm = GRAPH.adjacency[np.ix_(perm, perm)]
    assert np.array_equal(adj_perm, GRAPH.adjacency)
    f, _ = encode_forward(params, x[None], GRAPH.normalized, TINY)
    f_swapped, _ = encode_forward(params, x[None, :, :, perm],
                                  normalize_adjacency(adj_perm), TINY)
    assert np.allclose(f, f_swapped, atol=1e-6)


def test_init_long_term_is_exact_copy_and_seed_determinism():
    s1, l1, d1 = init_encoders(TINY, 4, np.random.default_rng(42))
    s2, l2, d2 = init_encoders(TINY, 4, np.random.default_rng(42))
    s3, _, _ = init_encoders(TINY, 4, np.random.default_rng(43))
    for k in s1:
        assert np.array_equal(s1[k], l1[k])
        assert np.array_equal(s1[k], s2[k])
        assert s1[k] is not l1[k]
    assert np.array_equal(d1["w"], d2["w"])
    assert any(not np.array_equal(s1[k], s3[k]) for k in s1)


def flat(params):
    """A parameter dict as one new flat array, the form training updates."""
    return np.concatenate(list(params.values()), axis=None)


def test_momentum_update_copy_identity_at_zero():
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(1))
    out = momentum_update(flat(l) + 1.0, flat(s), 0.0)
    assert np.array_equal(out, flat(s))


def test_momentum_update_fixed_point():
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(2))
    for coef in (0.0, 0.5, 0.99):
        out = momentum_update(flat(l), flat(s), coef)
        assert np.array_equal(out, flat(s))  # theta_L == theta_S initially


def test_momentum_update_scalar_case():
    out = momentum_update(np.array([1.0]), np.array([0.0]), 0.99)
    assert out[0] == pytest.approx(0.99, abs=0)


# --- bitwise agreement with the plain-layout oracles ----------------------------


@st.composite
def encoder_cases(draw):
    """(config, parameters with every bias non-zero, input, dtype) over
    kernels 1-5, widths 1-8, 1-3 blocks, T from the kernel to 70, B 0-24."""
    k = draw(st.integers(1, 5))
    cfg = EncoderConfig(width=draw(st.integers(1, 8)), feature_dim=draw(st.integers(1, 8)),
                        blocks=draw(st.integers(1, 3)), temporal_kernel=k)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params, _, _ = init_encoders(cfg, 3, rng, dtype)
    for p in params.values():
        p[...] = rng.normal(scale=0.5, size=p.shape)
    x = rng.normal(size=(draw(st.integers(0, 24)), 3, draw(st.integers(k, 70)), 3))
    return cfg, params, x.astype(dtype), dtype


@given(encoder_cases())
@settings(max_examples=60, deadline=None)
def test_gemm_operands_match_the_oracle_bitwise(case):
    cfg, params, x, dtype = case
    t, v = x.shape[2], x.shape[3]
    ops = GemmOperands.build(params, GRAPH.normalized, dtype, cfg.blocks, t)
    oracle = oracle_gemm_blocks(params, GRAPH.normalized, dtype, cfg.blocks)
    assert ops.window_len == t and len(ops.bias_rows) == cfg.blocks
    per_call, pool = ops.window_terms(t + 1)
    other = GemmOperands.build(params, GRAPH.normalized, dtype, cfg.blocks, t + 1)
    # the mean over a window's T*V rows, in the activations' dtype
    for got, n in ((ops.pool, t * v), (pool, (t + 1) * v), (other.pool, (t + 1) * v)):
        assert_same_bits(got, np.full(n, 1.0 / n, dtype=dtype), ("pool", n))
    for i, ((k_s, taps), (row_s, row_t), (k_o, b_s, taps_o, b_t)) in enumerate(
            zip(ops.blocks, ops.bias_rows, oracle)):
        assert_same_bits(k_s, k_o, ("spatial weight", i))
        assert_same_bits(taps, taps_o, ("taps", i))
        # the spatial bias, tiled over the joints, once per frame
        assert_same_bits(row_s.ravel(), np.tile(b_s, t), ("spatial row", i))
        assert_same_bits(row_t.ravel(), np.tile(b_t, t * v), ("temporal row", i))
        for rows in (per_call[i], other.bias_rows[i]):
            assert_same_bits(rows[0].ravel(), np.tile(b_s, t + 1), ("spatial row t+1", i))
            assert_same_bits(rows[1].ravel(), np.tile(b_t, (t + 1) * v),
                             ("temporal row t+1", i))
    rows_t, pool_t = ops.window_terms(t)
    assert rows_t is ops.bias_rows and pool_t is ops.pool
    assert ops.window_len == t  # building terms for another length kept none


@given(encoder_cases(), st.integers(1, 30), st.sampled_from(["dict", "rows", "no rows"]))
@settings(max_examples=120, deadline=None)
def test_forward_and_backward_match_the_oracle_bitwise(case, per_tile, source):
    """Uncached forwards over one or several tiles, and cached forwards with
    their backward, from a dict, from operands holding this length's bias
    rows, and from operands that build them per call."""
    cfg, params, x, dtype = case
    adj = GRAPH.normalized
    b, _, t, v = x.shape
    encoder_in = {"dict": params,
                  "rows": GemmOperands.build(params, adj, dtype, cfg.blocks, t),
                  "no rows": GemmOperands.build(params, adj, dtype, cfg.blocks)}[source]
    window_bytes = t * v * cfg.temporal_kernel * cfg.width * x.itemsize
    with mock.patch.object(enc, "TILE_BYTES", per_tile * window_bytes):
        f, cache = encode_forward(encoder_in, x, adj, cfg)
        f_o, _ = oracle_encode_forward(params, x, adj, cfg)
    assert cache is None
    assert_same_bits(f, f_o, "uncached features")

    f, cache = encode_forward(encoder_in, x, adj, cfg, want_cache=True)
    f_o, cache_o = oracle_encode_forward(params, x, adj, cfg, want_cache=True)
    assert_same_bits(f, f_o, "cached features")
    for key in ("pooled", "f", "r", "adj"):
        assert_same_bits(cache[key], cache_o[key], key)
    for i, (blk, blk_o) in enumerate(zip(cache["blocks"], cache_o["blocks"], strict=True)):
        for name, a, a_o in zip(("h", "k_s", "xp", "taps", "act_t"), blk, blk_o):
            assert_same_bits(a, a_o, (i, name))
    grad_f = np.random.default_rng(t * 31 + b).normal(size=f.shape).astype(dtype)
    grads = encode_backward(cache, grad_f)
    grads_o = oracle_encode_backward(cache_o, grad_f)
    assert set(grads) == set(grads_o) == set(params)
    for name in params:
        assert_same_bits(grads[name], grads_o[name], name)


# --- the thread pool of the uncached tiles -------------------------------------


def thread_spy(seen):
    """A stand-in for ``enc._forward`` that records, per tile, the thread that
    ran it, the overflow mode numpy's errstate had there and its window count."""
    kernel = enc._forward

    def spy(ops, xs, *args):
        seen.append((threading.get_ident(), np.geterr()["over"], xs.shape[0]))
        return kernel(ops, xs, *args)

    return spy


def pooled_setup(monkeypatch, b, dtype=np.float32, x_dtype=None):
    """TINY parameters and a [b, 3, 6, 3] input, with one window per tile and
    two pool workers."""
    params, _, _ = init_encoders(TINY, 3, np.random.default_rng(5), dtype)
    x = np.random.default_rng(b).normal(size=(b, 3, 6, 3)).astype(x_dtype or dtype)
    monkeypatch.setattr(enc, "TILE_BYTES", 6 * 3 * TINY.temporal_kernel * TINY.width
                        * x.itemsize)
    monkeypatch.setattr(enc, "TILE_THREADS", 2)
    return params, x


@given(encoder_cases(), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_pooled_tiles_match_the_oracle_bitwise(case, per_tile):
    cfg, params, x, dtype = case
    b, _, t, v = x.shape
    window_bytes = t * v * cfg.temporal_kernel * cfg.width * x.itemsize
    seen = []
    with mock.patch.object(enc, "TILE_BYTES", per_tile * window_bytes), \
            mock.patch.object(enc, "TILE_THREADS", 2), \
            mock.patch.object(enc, "_forward", thread_spy(seen)):
        f, cache = encode_forward(params, x, GRAPH.normalized, cfg)
        f_o, _ = oracle_encode_forward(params, x, GRAPH.normalized, cfg)
    assert cache is None
    assert_same_bits(f, f_o, "pooled features")
    if b > per_tile:  # several tiles: the calling thread and one helper ran them
        sizes = [min(per_tile, b - lo) for lo in range(0, b, per_tile)]
        assert sorted(size for _, _, size in seen) == sorted(sizes)
        threads = {ident for ident, _, _ in seen}
        assert len(threads) == 2 and threading.get_ident() in threads


@pytest.mark.parametrize("dtype, x_dtype", [(np.float32, np.float64),
                                            (np.float64, np.float32)])
def test_pooled_tiles_keep_the_features_dtype_of_mixed_inputs(monkeypatch, dtype, x_dtype):
    params, x = pooled_setup(monkeypatch, 4, dtype, x_dtype)
    f, _ = encode_forward(params, x, GRAPH.normalized, TINY)
    monkeypatch.setattr(enc, "TILE_BYTES", 1 << 20)
    f_one, _ = encode_forward(params, x, GRAPH.normalized, TINY)
    assert f.dtype == f_one.dtype == np.float64
    assert np.abs(f - f_one).max() < 1e-6


def test_pooled_tiles_run_under_the_callers_errstate(monkeypatch):
    params, x = pooled_setup(monkeypatch, 4)
    kernel = enc._forward
    seen = []
    monkeypatch.setattr(enc, "_forward", thread_spy(seen))
    running = threading.active_count()
    with np.errstate(over="raise"):
        encode_forward(params, x, GRAPH.normalized, TINY)
    # two tiles each on the calling thread and on the helper
    threads = {ident for ident, _, _ in seen}
    assert len(threads) == 2 and threading.get_ident() in threads
    assert [over for _, over, _ in seen] == ["raise"] * 4
    assert threading.active_count() == running
    calls = []
    monkeypatch.setattr(enc, "_forward", lambda *args: calls.append(np.geterrcall())
                        or kernel(*args))
    with np.errstate(over="call", call=print):
        encode_forward(params, x, GRAPH.normalized, TINY)
    assert calls == [print] * 4


@pytest.mark.parametrize("window", [2, 3], ids=["calling thread", "helper"])
def test_a_later_pooled_tiles_error_reaches_the_caller(monkeypatch, window):
    params, x = pooled_setup(monkeypatch, 4)
    f, _ = encode_forward(params, x, GRAPH.normalized, TINY)
    assert np.isfinite(f).all()
    x[window] = 1e30  # finite, but this tile's feature norm overflows float32
    running = threading.active_count()
    with pytest.raises(NonFiniteError, match="feature norm"):
        encode_forward(params, x, GRAPH.normalized, TINY)
    assert threading.active_count() == running


def test_one_tile_batches_start_no_pool(monkeypatch):
    pools = []

    class CountedPool(enc.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(enc, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(enc, "TILE_THREADS", 4)
    config = TrainConfig.desk_profile()
    model = FrozenModel.from_state(init_state(config, ("a", "b", "c")))
    window_bytes = (config.short_len * 3 * config.temporal_kernel * config.width
                    * np.dtype(config.np_dtype).itemsize)
    per_tile = enc.TILE_BYTES // window_bytes
    windows = np.random.default_rng(0).normal(size=(per_tile + 1, 3, config.short_len, 3))
    params = model.operands.params
    for b in (0, 1):
        encode_forward(params, windows[:b].astype(np.float32), model.adjacency,
                       model.encoder_cfg)
    predict(model, windows[0])
    predict_batch(model, windows[:per_tile])
    assert pools == []
    predict_batch(model, windows)  # two tiles: the calling thread and one helper
    # of the four threads allowed
    assert pools == [(1,)]


@pytest.mark.parametrize("openblas, omp, pinned", [
    (None, None, False), ("2", None, False), ("", None, False),
    ("abc", None, False), ("0", None, False), ("-2", None, False),
    (" 1", None, False), ("1", None, True), (None, "1", True), ("", "1", True),
    ("2", "1", False), (None, "4", False), ("1", "4", True),
])
def test_tile_threads_follow_the_blas_thread_setting(monkeypatch, openblas, omp, pinned):
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert enc._tile_threads() == (4 if pinned else 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert enc._tile_threads() == (3 if pinned else 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert enc._tile_threads() == 1


def test_momentum_update_matches_convex_combination():
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(4))
    l = {k: v + np.random.default_rng(5).normal(size=v.shape) for k, v in l.items()}
    out = momentum_update(flat(l), flat(s), 0.7)
    assert np.allclose(out, 0.7 * flat(l) + 0.3 * flat(s), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_momentum_update_is_its_formula_bitwise(dtype):
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(4), dtype)
    rng = np.random.default_rng(5)
    l = {k: (v + rng.normal(size=v.shape)).astype(dtype) for k, v in l.items()}
    theta_l = flat(l)
    out = momentum_update(theta_l, flat(s), 0.37)
    assert out is theta_l  # updated in place
    assert_same_bits(out, flat(s) + 0.37 * (flat(l) - flat(s)), "update")


@given(st.floats(min_value=0.0, max_value=0.999), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_momentum_gap_decays_geometrically(coef, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=7)
    l = rng.normal(size=7)
    gap = np.linalg.norm(l - s)
    for _ in range(4):
        l = momentum_update(l, s, coef)
        new_gap = np.linalg.norm(l - s)
        # exact up to float rounding: one rounding per element plus the
        # absorption of coef*(l-s) into s and the norm accumulation
        assert new_gap == pytest.approx(coef * gap, rel=1e-9, abs=5e-15)
        gap = new_gap


def test_momentum_update_shape_mismatch():
    with pytest.raises(StructuralError):
        momentum_update(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(StructuralError):  # numpy alone would broadcast these
        momentum_update(np.zeros((1, 3)), np.zeros(3), 0.5)


def test_classify_uniform_with_zero_decoder():
    dec = {"w": np.zeros((11, 4)), "b": np.zeros(11)}
    probs = classify(dec, np.ones(4))
    assert np.allclose(probs, 1.0 / 11, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_classify_shift_invariance():
    rng = np.random.default_rng(3)
    dec = init_decoder_params(4, 5, rng, dtype=np.float64)
    f = rng.normal(size=4)
    base = classify(dec, f)
    shifted = dict(dec, b=dec["b"] + 7.5)
    assert np.allclose(classify(shifted, f), base, atol=1e-12)


def test_classify_closed_form():
    dec = {"w": np.zeros((3, 2)), "b": np.log(np.array([1.0, 2.0, 1.0]))}
    probs = classify(dec, np.zeros(2))
    assert np.allclose(probs, [0.25, 0.5, 0.25], atol=1e-12)
