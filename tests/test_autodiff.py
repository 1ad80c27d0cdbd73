"""Gradient checks for every differentiable primitive."""

import numpy as np
import pytest

import math
import threading

from gradcheck import check_function, primitive_cases, primitive_checks, relative_error
from memory import peak_traced_bytes
from sqatk import autodiff
from sqatk import transformer as tf
from sqatk.autodiff import Tensor, attention, concat, conv2d, layer_norm, linear, maxpool2d, no_grad

TOL = 1e-3


def test_primitive_suite_passes():
    results = primitive_checks(seed=0)
    assert set(results) >= {
        "linear", "softmax", "layer_norm", "gelu", "relu", "attention",
        "attention_cls", "conv2d", "conv2d_pool", "maxpool", "mse", "gather",
    }
    for name, err in results.items():
        assert err < TOL, f"{name}: {err:.3e}"


def _record_dtypes(monkeypatch):
    """From now on, record the dtype of every op's output and operands,
    and wrap every op's backward closure to record the dtype of each
    gradient it returns; returns (forward dtypes, gradient dtypes), the
    second filled in by backward()."""
    forward, grads = set(), set()
    make = Tensor._make

    def recording_make(self, data, parents, backward):
        def recording(g):
            out = backward(g)
            grads.update(pg.dtype for pg in out if pg is not None)
            return out

        out = make(self, data, parents, recording)
        forward.add(out.data.dtype)
        forward.update(p.data.dtype for p in parents)
        return out

    monkeypatch.setattr(Tensor, "_make", recording_make)
    return forward, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(primitive_cases()))
def test_primitive_keeps_its_input_dtype(name, dtype, monkeypatch):
    """Each gradcheck primitive computes in its inputs' dtype: every
    forward value, every intermediate gradient and every leaf gradient.
    float64 inputs stay float64 throughout, so the FD gradcheck still
    checks the float64 code."""
    build, tensors = primitive_cases(seed=0, dtype=dtype)[name]
    forward, grads = _record_dtypes(monkeypatch)
    out, probe = build()
    leaf_grads = out.backward(probe)
    assert forward == {np.dtype(dtype)}
    assert grads == {np.dtype(dtype)}
    for leaf in tensors.values():
        assert leaf_grads[leaf].dtype == dtype


def _closure_values(fn, seen):
    """Every value fn's closure cells hold, through nested functions."""
    if id(fn) in seen:
        return
    seen.add(id(fn))
    for cell in getattr(fn, "__closure__", None) or ():
        value = cell.cell_contents
        yield value
        if callable(value):
            yield from _closure_values(value, seen)


@pytest.mark.parametrize("name", sorted(primitive_cases()))
def test_recorded_backward_captures_no_tensor(name):
    """No backward closure in a primitive's graph holds a Tensor: each
    keeps only the arrays its backward reads, so no forward value stays
    alive through the graph."""
    build, _ = primitive_cases(seed=0)[name]
    stack, seen, n_nodes = [build()[0]._node], set(), 0
    while stack:
        node = stack.pop()
        if isinstance(node, Tensor) or id(node) in seen:
            continue  # a leaf
        seen.add(id(node))
        n_nodes += 1
        captured = [v for v in _closure_values(node.backward, set()) if isinstance(v, Tensor)]
        assert not captured, f"{node.backward.__qualname__} holds {captured}"
        stack.extend(p for p in node.parents if p is not None)
    assert n_nodes >= 1
    if name == "mse":
        assert n_nodes == 1  # mse_loss records one node


def test_backward_seed_follows_the_output_dtype(monkeypatch):
    x = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
    _, grads = _record_dtypes(monkeypatch)
    y = x * 2.0
    dx = y.backward(grad=[1.0, 2.0, 3.0])[x]
    assert grads == {np.dtype(np.float32)}
    assert dx.dtype == np.float32
    np.testing.assert_array_equal(dx, [2.0, 4.0, 6.0])


def test_tensor_keeps_float32_and_float64_and_casts_the_rest():
    for dtype in (np.float32, np.float64):
        data = np.ones(2, dtype=dtype)
        assert Tensor(data).data is data
    for data in ([1, 2], np.arange(2), np.ones(2, dtype=np.float16), 3.0, np.array([True])):
        assert Tensor(data).data.dtype == np.float64


def test_python_and_array_operands_take_the_tensor_dtype():
    """A scale, Python or NumPy float, keeps the Tensor's dtype. Only a
    Tensor adds to a Tensor, and only a scalar scales one."""
    x = Tensor(np.ones(3, dtype=np.float32))
    for out in (x * 2.0, x * np.float64(2.0), x + x, x.sum()):
        assert out.data.dtype == np.float32
    for operate in (lambda: x + 1.0, lambda: x * np.ones(3), lambda: x * x):
        with pytest.raises((AttributeError, TypeError)):
            operate()


def test_sum_of_params_gradient_all_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    np.testing.assert_array_equal(p.sum().backward()[p], np.ones((2, 3)))


def test_broadcast_add_reduces_grad():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    grads = (a + b).sum().backward()
    np.testing.assert_array_equal(grads[a], np.ones((3, 4)))
    np.testing.assert_array_equal(grads[b], np.full(4, 3.0))


def test_matmul_batched_grad(rng):
    """linear's GEMM with a batched weight and a zero bias."""
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
    no_bias = Tensor(np.zeros(6))
    probe = rng.normal(size=(2, 3, 4, 6))
    err = check_function(lambda: (linear(a, b, no_bias), probe), {"a": a, "b": b})
    assert err < TOL


def test_matmul_shared_weight_grad(rng):
    """linear's GEMM, zero bias, with one weight shared over a batch and
    used twice."""
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    no_bias = Tensor(np.zeros(2))
    probe = rng.normal(size=(3, 4, 2))
    err = check_function(lambda: (linear(x, w, no_bias) + linear(x, w, no_bias), probe), {"x": x, "w": w})
    assert err < TOL


def test_getitem_and_concat_grads(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
    probe = rng.normal(size=(2, 4))

    def loss():
        joined = concat([b, a], axis=1)
        return joined[:, 0, :] + joined[:, 2, :], probe

    assert check_function(loss, {"a": a, "b": b}) < TOL


def _softmax(x):
    """Numerically stable softmax over the last axis, as a composed op:
    the reference for the softmax fused into attention."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return ((g - inner) * out_data,)

    return x._make(out_data, (x,), backward)


def _matmul(a, b):
    """a @ b as a recorded op, with the leading axes broadcast: the
    reference for the GEMMs fused into attention."""
    ad, bd = a.data, b.data

    def backward(g):
        return (autodiff._unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape),
                autodiff._unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))

    return a._make(ad @ bd, (a, b), backward)


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(4, 7)))
    np.testing.assert_allclose(_softmax(x).data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_handles_minus_inf():
    x = Tensor(np.array([[1.0, -np.inf, 2.0]]), requires_grad=True)
    y = _softmax(x)
    assert y.data[0, 1] == 0.0
    assert np.isfinite(y.sum().backward()[x]).all()


def test_softmax_singleton_is_identity_weight():
    # attention over a single element returns exactly that value row
    q = Tensor(np.array([[[0.3]]]))
    v = Tensor(np.array([[[2.5, -1.0]]]))
    attn = _softmax(_matmul(q, q.transpose((0, 2, 1))))
    assert attn.data[0, 0, 0] == 1.0
    out = _matmul(attn, v)
    np.testing.assert_array_equal(out.data, v.data)


# How far attention may lie from the composed scale/softmax/matmul chain,
# as max|diff| / max|ref|: it normalizes after the value GEMM and
# recomputes its probabilities from the row log-sum-exp, so the two
# differ in rounding only.
ATTENTION_TOL = {np.dtype(np.float32): 2e-6, np.dtype(np.float64): 1e-14}


def _assert_within_rounding(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    err = np.abs(got - ref).max() / np.abs(ref).max()
    assert err <= ATTENTION_TOL[ref.dtype], f"{err:.2e}"


def test_attention_with_one_unit_query_and_identity_values_is_softmax(rng):
    """The gradcheck softmax case: a query of ones with dh=1 and identity
    values make attention's output softmax(keys), and its key gradient
    the softmax gradient, to rounding."""
    logits = rng.normal(size=(4, 6))
    g = rng.normal(size=(4, 6))
    results = []
    for op in (
        lambda s: attention(Tensor(np.ones((4, 1, 1, 1))), s.reshape((4, 1, 6, 1)),
                            Tensor(np.broadcast_to(np.eye(6), (4, 1, 6, 6)).copy())),
        _softmax,
    ):
        s = Tensor(logits.copy(), requires_grad=True)
        out = op(s).reshape((4, 6))
        results.append((out.data, out.backward(g)[s]))
    for got, ref in zip(*results):
        _assert_within_rounding(got, ref)


# erf's bound per dtype: the rational's error against the exact erf is
# 4.4e-7 in float32 and 6.5e-8 in float64 on a 2M-point grid over [-6, 6].
ERF_TOL = {np.float32: 5e-7, np.float64: 1e-7}


def _erf_grid(dtype):
    """A dense grid over [-8, 8] plus the points next to +/-4, where the
    rational meets its clip, in dtype."""
    x = np.linspace(-8.0, 8.0, 160_001)
    near4 = 4.0 + np.linspace(-1e-3, 1e-3, 2001)
    x = np.concatenate([x, near4, -near4, [0.0]]).astype(dtype)
    return x, x.astype(np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_erf_matches_math_erf(dtype):
    """GELU's erf stays within ERF_TOL of math.erf, keeps its input's
    dtype and [-1, 1], and is odd bit for bit, -0 included."""
    x, exact_x = _erf_grid(dtype)
    y = autodiff._erf(x)
    assert y.dtype == dtype
    assert np.abs(y.astype(np.float64) - np.vectorize(math.erf)(exact_x)).max() <= ERF_TOL[dtype]
    assert np.abs(y).max() <= 1.0
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    np.testing.assert_array_equal(autodiff._erf(-x).view(bits), (-y).view(bits))
    negative_zero = autodiff._erf(np.array([-0.0], dtype=dtype))
    assert negative_zero[0] == 0.0 and np.signbit(negative_zero[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_gelu_matches_math_erf_gelu(dtype):
    """GELU stays within ERF_TOL * |x| of 0.5 * x * (1 + erf(x / sqrt(2)))
    and keeps its input's dtype."""
    x, exact_x = _erf_grid(dtype)
    y = Tensor(x).gelu().data
    assert y.dtype == dtype
    exact = np.vectorize(lambda v: 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))))(exact_x)
    assert (np.abs(y.astype(np.float64) - exact) <= ERF_TOL[dtype] * np.abs(exact_x)).all()


def test_layer_norm_normalizes(rng):
    x = Tensor(rng.normal(3.0, 2.0, size=(5, 16)))
    gamma = Tensor(np.ones(16))
    beta = Tensor(np.zeros(16))
    y = layer_norm(x, gamma, beta).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)


def test_conv2d_matches_manual(rng):
    x = rng.normal(size=(1, 1, 4, 4))
    w = rng.normal(size=(1, 1, 3, 3))
    out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1))).data
    xp = np.pad(x[0, 0], 1)
    expected = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            expected[i, j] = (xp[i : i + 3, j : j + 3] * w[0, 0]).sum()
    np.testing.assert_allclose(out[0, 0], expected, atol=1e-12)


def test_maxpool_values(rng):
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = maxpool2d(Tensor(x), 2).data
    np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])


# The paths that pool: the maxpool2d op; conv2d's pool stage behind a 1x1
# identity convolution, which passes every value through but makes each
# zero +0; and the shared helpers run one sample at a time, as conv2d
# runs them, which keep signed zeros.
POOL_PATHS = ("maxpool2d", "conv2d", "helpers")


def _pool_along(path, data, factor, g):
    """data, (B,C,H,W), max-pooled by factor along the named path, and
    the upstream gradient g routed back to data's shape: the op's own
    gradient (conv2d's dx), or _unpool's."""
    if path == "helpers":
        out = np.empty(data.shape[:2] + (data.shape[2] // factor, data.shape[3] // factor), dtype=data.dtype)
        grad = np.empty_like(data)
        win = autodiff._slot_map(out.shape, factor)
        for n in range(data.shape[0]):
            autodiff._max_pool(data[n], factor, out[n], win[n])
            autodiff._unpool(g[n], win[n], factor, grad[n])
        return out, grad
    x = Tensor(data, requires_grad=True)
    if path == "maxpool2d":
        out = maxpool2d(x, factor)
    else:
        channels = data.shape[1]
        eye = Tensor(np.eye(channels, dtype=data.dtype).reshape(channels, channels, 1, 1))
        out = conv2d(x, eye, Tensor(np.zeros(channels, dtype=data.dtype)), pool=factor)
    return out.data, out._node.backward(g)[0]


def test_maxpool_ties_route_to_first_slot_in_scan_order():
    """Each window's gradient goes whole to the first slot, row-major,
    that holds the max; the other slots get exactly 0, on every path."""
    windows = np.array([
        [[1.5, 1.5], [1.5, 1.5]],  # all equal: slot 0
        np.maximum([[-1.0, -2.0], [-0.5, -3.0]], 0.0),  # ReLU zeros: slot 0
        [[0.2, 0.9], [0.4, 0.9]],  # tie at slots 1 and 3: slot 1
    ])
    expected = np.zeros((3, 2, 2))
    expected[0, 0, 0] = 2.0
    expected[1, 0, 0] = -3.0
    expected[2, 0, 1] = 0.5
    for path in POOL_PATHS:
        out, grad = _pool_along(path, windows[None], 2, np.array([2.0, -3.0, 0.5]).reshape(1, 3, 1, 1))
        np.testing.assert_array_equal(out.reshape(-1), [1.5, 0.0, 0.9], err_msg=path)
        np.testing.assert_array_equal(grad[0], expected, err_msg=path)
        assert not np.signbit(grad[0][expected == 0.0]).any(), path


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("factor", [2, 3])
def test_maxpool_window_of_equal_slots_routes_to_the_first(dtype, factor):
    """Windows whose factor**2 slots all hold the same value, +0 and -0
    in either order included, send the whole gradient to slot 0; every
    other slot gets +0, also under a negative gradient. Where signed
    zeros survive (not behind conv2d's identity convolution), a window
    of -0s pools to -0."""
    n = factor * factor
    signed_zeros = np.where(np.arange(n) % 2, -0.0, 0.0)
    windows = np.stack([np.full(n, 1.5), np.full(n, -2.0), signed_zeros, -signed_zeros, np.full(n, -0.0)])
    g = np.array([-1.0, 2.0, -3.0, -0.5, 4.0], dtype=dtype)
    expected = np.zeros((5, factor, factor), dtype=dtype)
    expected[:, 0, 0] = g
    for path in POOL_PATHS:
        out, grad = _pool_along(path, windows.reshape(1, 5, factor, factor).astype(dtype), factor,
                                g.reshape(1, 5, 1, 1))
        np.testing.assert_array_equal(out.reshape(-1), [1.5, -2.0, 0.0, 0.0, 0.0], err_msg=path)
        if path != "conv2d":
            assert np.signbit(out.reshape(-1)[4]), path
        assert grad.dtype == dtype
        np.testing.assert_array_equal(grad[0], expected, err_msg=path)
        assert not np.signbit(grad[0][expected == 0.0]).any(), path


def test_maxpool_window_of_more_than_256_slots_routes_to_its_max(rng):
    """A 17 x 17 window has 289 slots, more than a uint8 map can name:
    the gradient still goes whole to the max's slot, on every path."""
    data = rng.normal(size=(2, 1, 17, 18))
    windows = data[:, 0, :, :17].reshape(2, -1)
    expected = np.zeros_like(windows)
    expected[[0, 1], windows.argmax(axis=1)] = [2.0, -3.0]
    for path in POOL_PATHS:
        out, grad = _pool_along(path, data, 17, np.array([2.0, -3.0]).reshape(2, 1, 1, 1))
        np.testing.assert_array_equal(out.reshape(-1), windows.max(axis=1), err_msg=path)
        np.testing.assert_array_equal(grad[:, 0, :, :17].reshape(2, -1), expected, err_msg=path)
        assert not grad[:, :, :, 17].any(), path


def test_maxpool_under_no_grad_records_nothing(rng):
    """Under no_grad max-pool makes no winner map: the call peaks at its
    output plus less than half a uint8 map, and the result records no
    graph. Recorded, it holds its output and one map."""
    x = Tensor(rng.normal(size=(16, 8, 64, 100)).astype(np.float32).transpose(1, 0, 2, 3), requires_grad=True)
    out_bytes = 8 * 16 * 32 * 50 * 4
    map_bytes = out_bytes // 4
    result = []

    def pool():
        with no_grad():
            result.append(maxpool2d(x, 2))

    peak, _ = peak_traced_bytes(pool)
    assert result[0]._node is None and not result[0].requires_grad
    assert peak < out_bytes + map_bytes / 2, f"peak {peak / 2**20:.2f} MiB"
    _, held = peak_traced_bytes(lambda: maxpool2d(x, 2))
    assert out_bytes + map_bytes <= held < out_bytes + 1.5 * map_bytes, f"held {held / 2**20:.2f} MiB"


def test_maxpool_odd_plane_drops_trailing_row_and_column(rng):
    data = rng.normal(size=(2, 3, 5, 7))
    windows = data[:, :, :4, :6].reshape(2, 3, 2, 2, 3, 2)
    g = rng.normal(size=(2, 3, 2, 3))
    for path in POOL_PATHS:
        out, grad = _pool_along(path, data, 2, g)
        assert out.shape == (2, 3, 2, 3)
        np.testing.assert_array_equal(out, windows.max(axis=(3, 5)), err_msg=path)
        assert not grad[:, :, 4, :].any() and not np.signbit(grad[:, :, 4, :]).any(), path
        assert not grad[:, :, :, 6].any() and not np.signbit(grad[:, :, :, 6]).any(), path
        # one nonzero slot per window, holding that window's gradient
        assert np.count_nonzero(grad) == out.size, path
        np.testing.assert_array_equal(np.sort(grad[grad != 0.0]), np.sort(g.reshape(-1)), err_msg=path)


def _maxpool_copyto_backward(x, out, g, factor):
    """The earlier max-pool backward, kept as the reference: a zeroed
    buffer and a masked copy of g into each window slot, first hit in
    scan order wins."""
    out_h, out_w = out.shape[2:]
    full = np.zeros_like(x)
    unclaimed = np.ones(out.shape, dtype=bool)
    for i in range(factor):
        for j in range(factor):
            slot = (slice(None), slice(None), slice(i, out_h * factor, factor), slice(j, out_w * factor, factor))
            hit = x[slot] == out
            hit &= unclaimed
            np.copyto(full[slot], g, where=hit)
            unclaimed ^= hit
    return full


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("factor,height,width", [(2, 13, 21), (2, 16, 24), (3, 11, 17)])
def test_maxpool_backward_is_bit_equal_to_copyto_routing(rng, dtype, factor, height, width):
    """Every gradient bit, signed zeros included, equals the copyto
    routing's, on a channel-major conv-output layout with constant
    floor-padding windows (ties), ReLU zeros, odd planes and negative
    and -0 upstream gradients. Behind conv2d's identity convolution,
    where every zero is +0, the values are equal."""
    data = rng.normal(size=(3, 2, height, width))
    data[:, :, :, width // 2 :] = -13.8  # constant padding windows: every slot ties
    data[0] = np.maximum(data[0], 0.0)  # ReLU zeros tie too
    data = data.astype(dtype).transpose(1, 0, 2, 3)
    g = rng.normal(size=(2, 3, height // factor, width // factor)).astype(dtype)
    g[:, :, ::2] = -np.abs(g[:, :, ::2])
    g[:, 1, 0] = -0.0
    for path in POOL_PATHS:
        out, got = _pool_along(path, data, factor, g)
        ref = _maxpool_copyto_backward(data, out, g, factor)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, ref, err_msg=path)
        if path != "conv2d":
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref), err_msg=path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaf_gradient_keeps_the_ops_negative_zeros(rng, dtype):
    """A leaf's gradient is returned as the op gave it: after one
    backward through maxpool2d, the map holds the op's own gradient bit
    for bit, its -0 entries included."""
    x = Tensor(np.maximum(rng.normal(size=(2, 3, 8, 10)), 0.0).astype(dtype), requires_grad=True)
    out = maxpool2d(x, 2)
    g = rng.normal(size=out.shape).astype(dtype)
    g[:, :, ::2] = -0.0
    dx = out.backward(g)[x]
    (ref,) = out._node.backward(g)
    assert dx.dtype == dtype and np.signbit(dx[dx == 0.0]).any()
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    np.testing.assert_array_equal(dx.view(bits), ref.view(bits))


def test_leaf_used_twice_accumulates_without_touching_the_upstream_gradient():
    """A leaf used twice in one graph gets the sum of both uses, a leaf
    as the root is handed g in its own dtype, and the array passed to
    backward stays as it was, also when two maps are summed."""
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    g = np.array([1.0, 1.0, -0.0])
    np.testing.assert_array_equal((p * 2.0 + p).backward(g)[p], [3.0, 3.0, 0.0])
    assert p.backward(g)[p] is g
    np.testing.assert_array_equal(g, [1.0, 1.0, -0.0])
    for dtype in (np.float64, np.float32):
        q = Tensor(np.zeros(3, dtype=dtype), requires_grad=True)
        total = q.backward(g)[q] + q.backward(g)[q]
        assert total.dtype == dtype
        np.testing.assert_array_equal(total, [2.0, 2.0, 0.0])
        np.testing.assert_array_equal(g, [1.0, 1.0, -0.0])


def _conv2d_loops(x, w, b, g, padding):
    """Direct nested-loop convolution: forward plus dx, dw, db for the
    upstream gradient g."""
    batch, in_ch, height, width = x.shape
    out_ch, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h, out_w = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((batch, out_ch, out_h, out_w))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for n in range(batch):
        for o in range(out_ch):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[n, :, i : i + kh, j : j + kw]
                    out[n, o, i, j] = (patch * w[o]).sum() + b[o]
                    dw[o] += g[n, o, i, j] * patch
                    dxp[n, :, i : i + kh, j : j + kw] += g[n, o, i, j] * w[o]
    dx = dxp[:, :, padding : padding + height, padding : padding + width]
    return out, dx, dw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize("padding", [0, 1])
def test_conv2d_matches_nested_loop_reference(rng, padding):
    """A 1 x 1 kernel pads 0 and a 3 x 3 kernel 1: conv2d pads an odd
    kernel to keep the plane."""
    kernel = 2 * padding + 1
    x = Tensor(rng.normal(size=(2, 3, 5, 7)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, kernel, kernel)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    out = conv2d(x, w, b)
    assert out.shape == (2, 4, 5, 7)
    g = rng.normal(size=out.shape)
    grads = out.backward(g)
    ref_out, ref_dx, ref_dw, ref_db = _conv2d_loops(x.data, w.data, b.data, g, padding)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[x], ref_dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[w], ref_dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[b], ref_db, rtol=0, atol=1e-12)


def test_conv2d_non_contiguous_input_is_bit_equal(rng):
    """A channel-major view gives the same bits as its contiguous copy,
    forward and backward."""
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor(rng.normal(size=4))
    view = rng.normal(size=(3, 2, 5, 7)).transpose(1, 0, 2, 3)
    assert not view.flags.c_contiguous
    g = rng.normal(size=(2, 4, 5, 7))
    results = []
    for data in (view, np.ascontiguousarray(view)):
        x = Tensor(data, requires_grad=True)
        out = conv2d(x, w, b)
        results.append((out.data, out.backward(g)[x]))
    np.testing.assert_array_equal(results[0][0], results[1][0])
    np.testing.assert_array_equal(results[0][1], results[1][1])


def _conv2d_batch_major(x, w, b, g, padding):
    """The earlier batch-major im2col conv2d, kept as the reference for
    the channel-major one: forward plus dx, dw, db for upstream g."""
    batch, in_ch, height, width = x.shape
    out_ch, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = height + 2 * padding - kh + 1
    out_w = width + 2 * padding - kw + 1
    view = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * out_h * out_w, in_ch * kh * kw
    )
    w_mat = w.reshape(out_ch, in_ch * kh * kw)
    out = (cols @ w_mat.T + b).reshape(batch, out_h, out_w, out_ch).transpose(0, 3, 1, 2)
    g_mat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, out_ch)
    dw = (g_mat.T @ cols).reshape(w.shape)
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1 - padding,) * 2, (kw - 1 - padding,) * 2))
    g_view = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
    g_cols = np.ascontiguousarray(g_view.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * height * width, out_ch * kh * kw
    )
    w_flip = w[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(out_ch * kh * kw, in_ch)
    dx = (g_cols @ w_flip).reshape(batch, height, width, in_ch).transpose(0, 3, 1, 2)
    return out, dx, dw, g.sum(axis=(0, 2, 3))


@pytest.mark.parametrize(
    "in_ch,out_ch,height,width",
    [(1, 16, 128, 200), (16, 32, 64, 100), (32, 64, 32, 50), (64, 64, 16, 25)],
)
def test_conv2d_matches_batch_major_im2col_on_desk_layers(rng, in_ch, out_ch, height, width):
    """The desk CNN's four layer shapes at batch 8; deeper layers get a
    channel-major input, as the previous stage hands them."""
    batch = 8
    data = rng.normal(size=(in_ch, batch, height, width)).transpose(1, 0, 2, 3)
    x = Tensor(data, requires_grad=True)
    w = Tensor(rng.normal(size=(out_ch, in_ch, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=out_ch), requires_grad=True)
    out = conv2d(x, w, b)
    g = rng.normal(size=out.shape)
    grads = out.backward(g)
    ref_out, ref_dx, ref_dw, ref_db = _conv2d_batch_major(x.data, w.data, b.data, g, 1)
    np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
    for got, ref in ((grads[x], ref_dx), (grads[w], ref_dw), (grads[b], ref_db)):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_recorded_conv2d_keeps_its_output_not_its_columns(rng):
    """After a recorded forward of the desk CNN's second layer (16 -> 32
    channels, batch 8, 64 x 100, float32), conv2d holds its 6.5 MB
    output and no 29.5 MB im2col matrix: backward rebuilds the columns
    from the input."""
    x = Tensor(rng.normal(size=(16, 8, 64, 100)).astype(np.float32).transpose(1, 0, 2, 3), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    out_bytes = 32 * 8 * 64 * 100 * 4

    def forward():
        out = conv2d(x, w, b)
        assert out.requires_grad and out.data.nbytes == out_bytes
        return out

    _, held = peak_traced_bytes(forward)
    assert held < 1.25 * out_bytes, f"held {held / 2**20:.1f} MiB"


def _conv2d_full_columns(x, w, b, g, padding=1):
    """conv2d over one (C*kh*kw, B*out_h*out_w) im2col matrix, as it was
    before it split its GEMMs, but with each GEMM taken over one
    sample's column slice at a time, in sample order: the output and
    the dcols that col2im scatters slice by slice, and dw as the sum of
    the per-sample GEMMs. Returns the output and dx, dw, db for
    upstream g."""
    batch, in_ch, height, width = x.shape
    out_ch, _, kh, kw = w.shape
    out_h = height + 2 * padding - kh + 1
    out_w = width + 2 * padding - kw + 1
    row_overlap = [autodiff._overlap(u - padding, height, out_h) for u in range(kh)]
    col_overlap = [autodiff._overlap(v - padding, width, out_w) for v in range(kw)]
    taps = [(u * kw + v, *row_overlap[u], *col_overlap[v]) for u in range(kh) for v in range(kw)]
    cols = np.zeros((in_ch, kh * kw, batch, out_h, out_w), dtype=x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for t, rows, src_rows, span, src_span in taps:
        cols[:, t, :, rows, span] = xt[:, :, src_rows, src_span]
    cols = cols.reshape(in_ch * kh * kw, batch * out_h * out_w)
    samples = [slice(n * out_h * out_w, (n + 1) * out_h * out_w) for n in range(batch)]
    w_mat = w.reshape(out_ch, in_ch * kh * kw)
    g_mat = g.transpose(1, 0, 2, 3).reshape(out_ch, batch * out_h * out_w)
    out = np.empty((out_ch, batch * out_h * out_w), dtype=x.dtype)
    dw = np.zeros_like(w_mat)
    dcols = np.empty_like(cols)
    for part in samples:
        out[:, part] = w_mat @ cols[:, part]
        dw += g_mat[:, part] @ cols[:, part].T
        dcols[:, part] = w_mat.T @ g_mat[:, part]
    out = (out + b[:, None]).reshape(out_ch, batch, out_h, out_w).transpose(1, 0, 2, 3)
    dcols = dcols.reshape(in_ch, kh * kw, batch, out_h, out_w)
    dxt = np.zeros((in_ch, batch, height, width), dtype=x.dtype)
    for t, rows, src_rows, span, src_span in taps:
        dxt[:, :, src_rows, src_span] += dcols[:, t, :, rows, span]
    return out, dxt.transpose(1, 0, 2, 3), dw.reshape(w.shape), g.sum(axis=(0, 2, 3))


FULL_COLUMN_SHAPES = [  # in_ch, out_ch, height, width, batch
    (1, 16, 128, 200, 8), (2, 16, 64, 100, 8), (3, 16, 64, 100, 8), (16, 32, 64, 100, 8),
    (32, 64, 32, 50, 8), (64, 64, 16, 25, 8), (32, 8, 24, 17, 8), (4, 8, 12, 17, 8), (4, 8, 12, 17, 2),
]


@pytest.mark.parametrize(
    "in_ch,out_ch,height,width,batch",
    FULL_COLUMN_SHAPES,
    ids=["-".join(map(str, row[:4])) + ("" if row[4] == 8 else f"-batch{row[4]}") for row in FULL_COLUMN_SHAPES],
)
def test_conv2d_is_bit_equal_to_one_full_column_gemm(rng, in_ch, out_ch, height, width, batch):
    """Output, dx, dw and db equal the bits of the full-column reference
    taken one sample's columns at a time, in float32, on the desk CNN's
    four layer shapes, two narrow inputs and three shapes whose columns
    per sample are no multiple of 16 (12 x 17, 24 x 17). Every value is
    a per-sample GEMM at every shape; when the backward split its GEMMs
    by tap group over the whole batch, it matched one whole-batch GEMM
    on the desk shapes only."""
    data = rng.normal(size=(in_ch, batch, height, width)).astype(np.float32).transpose(1, 0, 2, 3)
    x = Tensor(data, requires_grad=True)
    w = Tensor(rng.normal(size=(out_ch, in_ch, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=out_ch).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(out_ch, batch, height, width)).astype(np.float32).transpose(1, 0, 2, 3)
    out = conv2d(x, w, b)
    grads = out.backward(g)
    ref = _conv2d_full_columns(x.data, w.data, b.data, g)
    for got, want in zip((out.data, grads[x], grads[w], grads[b]), ref):
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("pool", [2, 3])
@pytest.mark.parametrize(
    "in_ch,out_ch,height,width,batch",
    FULL_COLUMN_SHAPES,
    ids=["-".join(map(str, row[:4])) + ("" if row[4] == 8 else f"-batch{row[4]}") for row in FULL_COLUMN_SHAPES],
)
def test_conv2d_pool_is_bit_equal_to_full_columns_then_maxpool(rng, in_ch, out_ch, height, width, batch, pool):
    """At pool 2 and 3, the output, dx and dw equal the bits of the
    full-column reference at pool 1, pooled by a reshape max and with
    the pooled gradient routed back by copyto, in float32. db is the
    pooled gradient's sum: the reference sums the routed one, which
    holds the same values and zeros, in another order."""
    data = rng.normal(size=(in_ch, batch, height, width)).astype(np.float32).transpose(1, 0, 2, 3)
    x = Tensor(data, requires_grad=True)
    w = Tensor(rng.normal(size=(out_ch, in_ch, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=out_ch).astype(np.float32), requires_grad=True)
    out_h, out_w = height // pool, width // pool
    g = rng.normal(size=(batch, out_ch, out_h, out_w)).astype(np.float32)
    out = conv2d(x, w, b, pool=pool)
    grads = out.backward(g)
    zero_g = np.zeros((batch, out_ch, height, width), np.float32)
    conv = _conv2d_full_columns(x.data, w.data, b.data, zero_g)[0]  # at pool 1
    windows = conv[:, :, : out_h * pool, : out_w * pool].reshape(batch, out_ch, out_h, pool, out_w, pool)
    ref_out = windows.max(axis=(3, 5))
    routed = _maxpool_copyto_backward(conv, ref_out, g, pool)
    _, ref_dx, ref_dw, ref_db = _conv2d_full_columns(x.data, w.data, b.data, routed)
    for got, want in zip((out.data, grads[x], grads[w]), (ref_out, ref_dx, ref_dw)):
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(_bits(grads[b]), _bits(g.sum(axis=(0, 2, 3))))
    assert np.abs(grads[b] - ref_db).max() <= 1e-6 * np.abs(ref_db).max()


def test_conv2d_pool_makes_no_full_resolution_output_or_gradient(rng):
    """The desk CNN's first stage (1 -> 16 channels, batch 8, 128 x 200,
    float32, pool 2) never holds its 12.5 MiB full-resolution conv
    output or its gradient: one sample's conv output (1.6 MB) is pooled
    before the next sample's GEMM, and the backward routes one sample's
    pooled gradient at a time. The recorded forward peaks at 6.5 MiB:
    the 3.1 MiB pooled output, 0.8 MiB of maps and one sample's conv
    output and columns. The backward peaks at 2.6 MiB; with the
    pooled gradient spread over the whole batch's plane it would need
    12.5 MiB."""
    x = Tensor(rng.normal(size=(8, 1, 128, 200)).astype(np.float32))
    w = Tensor(rng.normal(size=(16, 1, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    g = rng.normal(size=(8, 16, 64, 100)).astype(np.float32)
    full_bytes = 8 * 16 * 128 * 200 * 4
    out = None

    def forward():
        nonlocal out
        out = conv2d(x, w, b, pool=2)

    forward_peak, _ = peak_traced_bytes(forward)
    grads = {}
    backward_peak, _ = peak_traced_bytes(lambda: grads.update(out.backward(g)))
    assert out.shape == (8, 16, 64, 100) and w in grads
    assert forward_peak < 0.75 * full_bytes, f"forward peak {forward_peak / 2**20:.2f} MiB"
    assert backward_peak < 0.25 * full_bytes, f"backward peak {backward_peak / 2**20:.2f} MiB"


def test_conv2d_peaks_under_half_its_columns(rng):
    """On the desk CNN's second layer (16 -> 32 channels, batch 8,
    64 x 100, float32; 29.5 MB of im2col columns) the recorded forward
    and the backward each peak below half the columns: the forward
    builds one sample's columns at a time (9.8 MiB with its 6.5 MB
    output), and so does the backward (6.7 MiB with its 3.3 MB input
    gradient; the full columns peaked at 31.4 MiB)."""
    x = Tensor(rng.normal(size=(16, 8, 64, 100)).astype(np.float32).transpose(1, 0, 2, 3), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    g = rng.normal(size=(32, 8, 64, 100)).astype(np.float32).transpose(1, 0, 2, 3)  # the output's layout
    half_columns = 16 * 9 * 8 * 64 * 100 * 4 / 2
    out = None

    def forward():
        nonlocal out
        out = conv2d(x, w, b)

    forward_peak, _ = peak_traced_bytes(forward)
    backward_peak, _ = peak_traced_bytes(lambda: out.backward(g))
    assert forward_peak < half_columns, f"forward peak {forward_peak / 2**20:.1f} MiB"
    assert backward_peak < half_columns, f"backward peak {backward_peak / 2**20:.1f} MiB"


def test_conv2d_backward_of_the_first_layer_holds_one_samples_columns(rng):
    """The desk CNN's first layer (1 -> 16 channels, batch 8, 128 x 200,
    float32) on an input that needs no gradient: its backward rebuilds
    one sample's 0.9 MB of columns at a time for dw, so it peaks under
    2 MiB; columns over the whole batch (7.4 MB) would not fit."""
    x = Tensor(rng.normal(size=(8, 1, 128, 200)).astype(np.float32))
    w = Tensor(rng.normal(size=(16, 1, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
    out = conv2d(x, w, b)
    g = rng.normal(size=(16, 8, 128, 200)).astype(np.float32).transpose(1, 0, 2, 3)  # the output's layout
    grads = {}
    peak, _ = peak_traced_bytes(lambda: grads.update(out.backward(g)))
    assert w in grads and x not in grads
    assert peak < 2 * 2**20, f"backward peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("shape", [(3, 5), (2, 7, 5)])
def test_linear_is_bit_equal_to_matmul_plus_add(rng, shape):
    """The output and the x, w and b gradients equal NumPy's matmul and
    add on the data, bit for bit, for one row block and a (B,N,D) batch."""
    data = [rng.normal(size=s).astype(np.float32) for s in (shape, (5, 4), (4,))]
    g = rng.normal(size=shape[:-1] + (4,)).astype(np.float32)
    leaves = [Tensor(d, requires_grad=True) for d in data]
    out = linear(*leaves)
    grads = out.backward(g)
    x, w, b = data
    lead = tuple(range(g.ndim - 1))  # the batch and row axes
    dw = x.swapaxes(-1, -2) @ g  # one (5, 4) product per batch entry
    refs = [x @ w + b, g @ w.swapaxes(-1, -2), dw.sum(axis=lead[:-1]), g.sum(axis=lead)]
    for got, want in zip([out.data] + [grads[t] for t in leaves], refs):
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_recorded_attention_keeps_no_probabilities(rng):
    """A recorded desk attention call (batch 8, 4 heads, 229 tokens of a
    2 s clip, dh 16, float32) holds its 0.45 MiB output and none of its
    6.4 MiB of (B,H,N,N) probabilities, which its backward recomputes."""
    batch, n, heads, dh = 8, 229, 4, 16
    leaves = [Tensor(rng.normal(size=(batch, n, heads * dh)).astype(np.float32), requires_grad=True)
              for _ in range(3)]
    q, k, v = (t.reshape((batch, n, heads, dh)).transpose((0, 2, 1, 3)) for t in leaves)
    out_bytes = batch * heads * n * dh * 4

    def forward():
        out = attention(q, k, v)
        assert out.requires_grad and out.data.nbytes == out_bytes
        return out

    _, held = peak_traced_bytes(forward)
    assert held < out_bytes + n * n * 4, f"held {held / 2**20:.2f} MiB"


def test_attention_backward_holds_two_score_buffers(rng):
    """A recorded attention backward over one 12 s clip's 1429 tokens,
    one head, dh 16, float32, peaks under 2.5 of its 8.2 MB Nq x N
    buffers: the recomputed P and the score gradient. Forming the
    gradient through a third, ds * P, peaked at three."""
    n, dh = 1429, 16
    leaves = [Tensor(rng.normal(size=(1, 1, n, dh)).astype(np.float32), requires_grad=True) for _ in range(3)]
    out = attention(*leaves)
    g = rng.normal(size=out.shape).astype(np.float32)
    peak, _ = peak_traced_bytes(lambda: out.backward(g))
    assert peak < 2.5 * n * n * 4, f"backward peak {peak / 2**20:.1f} MiB"


def test_double_backward_accumulates():
    """Two losses' maps sum out of place: the second backward leaves the
    first map's arrays as they were."""
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    first = (p + p).sum().backward()
    second = (p * 3.0).sum().backward()
    np.testing.assert_array_equal(first[p], [2.0, 2.0])
    np.testing.assert_allclose(first[p] + second[p], [2.0 + 3.0, 2.0 + 3.0])


def test_backward_maps_only_the_leaves_it_reached():
    """A result that recorded nothing returns {}; an operand that needs
    no gradient is absent."""
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    const = Tensor(np.array([4.0, 5.0]))
    assert Tensor(np.array([1.0])).backward() == {}
    with no_grad():
        assert (p + p).sum().backward() == {}
    assert list((p + const).sum().backward()) == [p]


def test_relative_error_scales():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(2.0, 1.0) == pytest.approx(0.5)


def test_repeated_fancy_index_accumulates():
    p = Tensor(np.zeros(4), requires_grad=True)
    np.testing.assert_array_equal(p[np.array([1, 1, 2])].sum().backward()[p], [0.0, 2.0, 1.0, 0.0])


def test_no_grad_records_no_graph():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with no_grad():
        y = (p + p).sum()
        with no_grad():
            pass
        z = p * 2.0  # still off after a nested block exits
    for t in (y, z):
        assert t._node is None and not t.requires_grad
    w = (p + p).sum()
    assert w._node.parents and w.requires_grad


def test_no_grad_restores_state_after_exception():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    np.testing.assert_array_equal((p * 3.0).sum().backward()[p], [3.0])


def test_no_grad_is_per_thread():
    p = Tensor(np.array([1.0]), requires_grad=True)
    seen = []
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append((p * 2.0).requires_grad))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [True]


def _attention_composed(q, k, v):
    """The matmul/scale/softmax/matmul chain the fused op replaced, kept
    as its reference."""
    scores = _matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(q.shape[-1]))
    return _matmul(_softmax(scores), v)


def _assert_attention_bit_equal_to_composed_ops(rng, dh, one_query, dtype):
    batch, n, heads = 3, 23, 4
    data = [rng.normal(size=(batch, n, heads, dh)).astype(dtype) for _ in range(3)]
    if one_query:  # the CLS query of the encoder's last block
        data[0] = data[0][:, :1]
    g = rng.normal(size=(batch, heads, data[0].shape[1], dh)).astype(dtype)
    results = []
    for op in (attention, _attention_composed):
        leaves = [Tensor(d, requires_grad=True) for d in data]
        q, k, v = (t.transpose((0, 2, 1, 3)) for t in leaves)
        out = op(q, k, v)
        grads = out.backward(g)
        results.append([out.data] + [grads[t] for t in leaves])
    for got, ref in zip(*results):
        assert got.dtype == ref.dtype == dtype
        _assert_within_rounding(got, ref)


@pytest.mark.parametrize("dh", [16, 12])
@pytest.mark.parametrize("one_query", [False, True])
def test_attention_bit_equal_to_composed_ops(rng, dh, one_query):
    """Output, dq, dk and dv equal the composed ops' to rounding, on
    heads split out of (B,N,H,dh) as the encoder does, for every query
    row or for the first alone."""
    _assert_attention_bit_equal_to_composed_ops(rng, dh, one_query, np.float64)


@pytest.mark.parametrize("dh", [16, 12])
@pytest.mark.parametrize("one_query", [False, True])
def test_attention_bit_equal_to_composed_ops_in_float32(rng, dh, one_query):
    """The same in float32: the scale is a Python float in both, so
    neither computes a step in float64."""
    _assert_attention_bit_equal_to_composed_ops(rng, dh, one_query, np.float32)


def test_attention_under_no_grad_records_no_parents(rng):
    q, k, v = (Tensor(rng.normal(size=(1, 2, 5, 4)), requires_grad=True) for _ in range(3))
    with no_grad():
        out = attention(q, k, v)
    assert out._node is None and not out.requires_grad


def _desk_forward_of_a_12s_clip():
    """A no-grad forward of a 12 s clip (1429 tokens, 4 heads) through
    the desk transformer, built outside the measured call."""
    model = tf.SpectrogramTransformer(tf.desk_config(max_duration_s=12.0), seed=0)
    values = np.random.default_rng(0).normal(-5.0, 2.0, size=(1200, 128))

    def forward():
        with no_grad():
            model.forward_batch(model.prepare(values))

    return forward


def test_attention_scores_a_12s_clip_in_one_score_buffer_per_layer():
    """A no-grad forward of a 12 s desk clip (1429 tokens, 4 heads) holds
    at most one layer's 31 MiB of probabilities at a time; the composed
    ops peaked at 256 MiB."""
    peak, _ = peak_traced_bytes(_desk_forward_of_a_12s_clip())
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_attention_scores_a_12s_clip_one_head_at_a_time():
    """The same forward holds one head's 8 MiB of probabilities at a
    time; all four heads' at once were 31 MiB."""
    peak, _ = peak_traced_bytes(_desk_forward_of_a_12s_clip())
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_attention_scores_a_12s_clip_in_row_blocks():
    """The same forward holds one block of at most 2 * ROW_BLOCK - 1
    query rows' scores at a time: it traces 9.8 MiB; one head's whole
    8.2 MB of scores traced 12.5 MiB."""
    peak, _ = peak_traced_bytes(_desk_forward_of_a_12s_clip())
    assert peak < 11 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _kept_lse(out):
    """The per-row log-sum-exp a recorded attention call keeps for its
    backward, read from the backward's closure."""
    backward = out._node.backward
    cells = dict(zip(backward.__code__.co_freevars, backward.__closure__))
    return cells["lse"].cell_contents


_R = autodiff.ROW_BLOCK


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fewer_keys", [False, True])
@pytest.mark.parametrize("n", [_R - 1, _R, 2 * _R - 1, 2 * _R, 1429])
def test_attention_in_row_blocks_is_bit_equal_to_one_block(rng, monkeypatch, n, dtype, fewer_keys):
    """The output, the kept lse and dq, dk and dv of a forward in row
    blocks equal those of one block over all N query rows, bit for bit:
    a slice of fewer than 2 * ROW_BLOCK rows is one block, and 2 *
    ROW_BLOCK and a 12 s clip's 1429 tokens are more, in float32 and
    float64, over N keys or over the first 2N/3 alone."""
    data = [rng.normal(size=(1, 2, n, 16)).astype(dtype) for _ in range(3)]
    if fewer_keys:
        data[1:] = [d[:, :, : 2 * n // 3] for d in data[1:]]
    g = rng.normal(size=(1, 2, n, 16)).astype(dtype)
    results = []
    for rows in (_R, n):
        monkeypatch.setattr(autodiff, "ROW_BLOCK", rows)
        leaves = [Tensor(d, requires_grad=True) for d in data]
        out = attention(*leaves)
        lse = _kept_lse(out).copy()
        grads = out.backward(g)
        results.append([out.data, lse] + [grads[t] for t in leaves])
    for a, b in zip(*results):
        assert a.dtype == b.dtype == dtype
        np.testing.assert_array_equal(_bits(a), _bits(b))


def _attention_batched(q, k, v):
    """attention's arithmetic over every (batch, head) slice at once, in
    (B,H,Nq,N) buffers, under no_grad too: the reference its per-slice
    loop must match bit for bit."""
    scale = 1.0 / math.sqrt(q.data.shape[-1])
    q_scaled = q.data * scale
    v_ones = np.concatenate([v.data, np.ones_like(v.data[..., :1])], axis=-1)

    def scores():
        return q_scaled @ k.data.swapaxes(-1, -2)

    probs = scores()
    row_max = probs.max(axis=-1, keepdims=True)
    probs -= row_max
    np.exp(probs, out=probs)
    out_sum = probs @ v_ones
    row_sum = out_sum[..., -1:]
    out = out_sum[..., :-1] / row_sum
    lse = row_max + np.log(row_sum)

    def backward(g):
        probs = scores()
        probs -= lse
        np.exp(probs, out=probs)
        dv = probs.swapaxes(-1, -2) @ g
        ds = g @ v.data.swapaxes(-1, -2)
        ds -= (g * out).sum(axis=-1, keepdims=True)
        ds *= probs
        dq = ds @ k.data
        dq *= scale
        dk = (q_scaled.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
        return dq, dk, dv

    return q._make(out, (q, k, v), backward)


def _bits(a):
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def _run_attention(op, leaves, heads, g, record):
    """op's output and, when recorded, the leaves' gradients for an
    upstream g, with heads split out of the leaves as the encoder does."""
    q, k, v = (heads(t) for t in leaves)
    if not record:
        with no_grad():
            return [op(q, k, v).data]
    out = op(q, k, v)
    grads = out.backward(g)
    return [out.data] + [grads[t] for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("one_clip", [False, True])
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("n_q", [29, 1])
def test_per_head_attention_is_bit_equal_to_the_batched_op(rng, dtype, one_clip, record, n_q):
    """Output and dq, dk, dv equal the batched op's bit for bit: float32
    and float64, a batch of three clips and of one, as every forward
    scores, recorded and under no_grad, all queries and the last
    block's one CLS query."""
    batch, n, heads, dh = 1 if one_clip else 3, 29, 4, 16
    data = [rng.normal(size=(batch, n, heads * dh)).astype(dtype) for _ in range(3)]
    data[0] = data[0][:, :n_q]
    g = rng.normal(size=(batch, heads, n_q, dh)).astype(dtype)

    def split(t):
        return t.reshape((batch, t.shape[1], heads, dh)).transpose((0, 2, 1, 3))

    leaves = [Tensor(d, requires_grad=True) for d in data]
    got = _run_attention(attention, leaves, split, g, record)
    ref = _run_attention(_attention_batched, leaves, split, g, record)
    assert len(got) == (4 if record else 1)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("record", [True, False])
def test_per_head_attention_broadcasts_as_the_batched_op(rng, dtype, record):
    """The operands gradcheck and the softmax tests pass: a (4,1,1,1)
    query, (4,1,6,1) keys and the identity value copied out to their
    (4,1) leading axes, which attention does not broadcast."""
    logits = Tensor(rng.normal(size=(4, 6)).astype(dtype), requires_grad=True)
    ones_q = Tensor(np.ones((4, 1, 1, 1), dtype=dtype))
    eye_v = Tensor(np.broadcast_to(np.eye(6, dtype=dtype), (4, 1, 6, 6)).copy())
    g = rng.normal(size=(4, 1, 1, 6)).astype(dtype)
    results = []
    for op in (attention, _attention_batched):
        k = logits.reshape((4, 1, 6, 1))
        if record:
            out = op(ones_q, k, eye_v)
            results.append([out.data, out.backward(g)[logits]])
        else:
            with no_grad():
                results.append([op(ones_q, k, eye_v).data])
    for a, b in zip(*results):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        np.testing.assert_array_equal(_bits(a), _bits(b))


def test_attention_rejects_unequal_leading_axes(rng):
    """q of (2, 3, 4) against k and v of (3, 4) raises at the call, as
    does a v of (3, 4) against q and k of (2, 3, 4): a broadcast forward
    would hand back gradients of the broadcast shape."""
    q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    for args in ((q, k, k), (q, q, k)):
        with pytest.raises(ValueError, match="leading axes"):
            attention(*args)
