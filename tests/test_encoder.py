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
from gesturemem.errors import NonFiniteError, StructuralError

from helpers import (fd_grad, fd_param_grads, param_count, ref_encode_backward,
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
    grads, _ = encode_backward(cache, probe)
    fd = fd_param_grads(lambda p: loss(p), params, kinks=kinks)
    for name in params:
        assert rel_error(grads[name], fd[name]) < 1e-4, name


def check_input_gradient(cfg):
    params, _, _, x = tiny_setup(seed=3, cfg=cfg)
    probe = np.random.default_rng(11).normal(size=(x.shape[0], cfg.feature_dim))

    def loss(xv):
        f, _ = encode_forward(params, xv, GRAPH.normalized, cfg)
        return float((probe * f).sum())

    at_kink = relu_preactivations(params, x, GRAPH.normalized, cfg) == 0

    def kinks(xv):
        return relu_preactivations(params, xv, GRAPH.normalized, cfg)[at_kink]

    _, cache = encode_forward(params, x, GRAPH.normalized, cfg, want_cache=True)
    _, g_x = encode_backward(cache, probe)
    fd = fd_grad(loss, x, kinks=kinks)
    assert rel_error(g_x, fd) < 1e-4


def test_encoder_param_gradients_match_finite_differences():
    check_param_gradients(TINY)


def test_encoder_input_gradient_matches_finite_differences():
    check_input_gradient(TINY)


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
    check_input_gradient(cfg)


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
            grads, g_x = encode_backward(cache, grad_f)
            f_ref, cache_ref = ref_encode_forward(params, x, GRAPH.normalized, cfg)
            grads_ref, g_x_ref = ref_encode_backward(cache_ref, grad_f)
            case = f"T={t} B={b}"
            assert f.dtype == dtype and g_x.dtype == dtype, case
            assert g_x.shape == x.shape, case
            assert rel_error(f, f_ref) < tol, case
            assert rel_error(g_x, g_x_ref) < tol, case
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


def test_momentum_update_copy_identity_at_zero():
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(1))
    out = momentum_update({k: v + 1.0 for k, v in l.items()}, s, 0.0)
    for k in s:
        assert np.array_equal(out[k], s[k])


def test_momentum_update_fixed_point():
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(2))
    for coef in (0.0, 0.5, 0.99):
        out = momentum_update(l, s, coef)
        for k in s:
            assert np.array_equal(out[k], s[k])  # theta_L == theta_S initially


def test_momentum_update_scalar_case():
    out = momentum_update({"p": np.array([1.0])}, {"p": np.array([0.0])}, 0.99)
    assert out["p"][0] == pytest.approx(0.99, abs=0)


def test_momentum_update_matches_convex_combination():
    s, l, _ = init_encoders(TINY, 3, np.random.default_rng(4))
    l = {k: v + np.random.default_rng(5).normal(size=v.shape) for k, v in l.items()}
    out = momentum_update(l, s, 0.7)
    for k in s:
        assert np.allclose(out[k], 0.7 * l[k] + 0.3 * s[k], atol=1e-12)


@given(st.floats(min_value=0.0, max_value=0.999), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_momentum_gap_decays_geometrically(coef, seed):
    rng = np.random.default_rng(seed)
    s = {"p": rng.normal(size=7)}
    l = {"p": rng.normal(size=7)}
    gap = np.linalg.norm(l["p"] - s["p"])
    for _ in range(4):
        l = momentum_update(l, s, coef)
        new_gap = np.linalg.norm(l["p"] - s["p"])
        # exact up to float rounding: one rounding per element plus the
        # absorption of coef*(l-s) into s and the norm accumulation
        assert new_gap == pytest.approx(coef * gap, rel=1e-9, abs=5e-15)
        gap = new_gap


def test_momentum_update_shape_mismatch():
    with pytest.raises(StructuralError):
        momentum_update({"p": np.zeros(3)}, {"p": np.zeros(4)}, 0.5)
    with pytest.raises(StructuralError):
        momentum_update({"p": np.zeros(3)}, {"q": np.zeros(3)}, 0.5)


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
