"""Gradient checks for every differentiable primitive."""

import numpy as np
import pytest

import threading

from sqatk.autodiff import Tensor, concat, conv2d, layer_norm, maxpool2d, no_grad
from sqatk.gradcheck import check_function, primitive_checks, relative_error

TOL = 1e-3


def test_primitive_suite_passes():
    results = primitive_checks(seed=0)
    assert set(results) >= {
        "linear", "softmax", "layer_norm", "gelu", "relu", "attention",
        "conv2d", "maxpool", "mse", "gather",
    }
    for name, err in results.items():
        assert err < TOL, f"{name}: {err:.3e}"


def test_sum_of_params_gradient_all_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    p.sum().backward()
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))


def test_broadcast_add_reduces_grad():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


def test_matmul_batched_grad(rng):
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 6)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3, 4, 6)))
    err = check_function(lambda: ((a @ b) * probe).sum(), {"a": a, "b": b})
    assert err < TOL


def test_matmul_shared_weight_grad(rng):
    x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    err = check_function(lambda: ((x @ w) * (x @ w)).sum(), {"x": x, "w": w})
    assert err < TOL


def test_getitem_and_concat_grads(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 1, 4)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 4)))

    def loss():
        joined = concat([b, a], axis=1)
        return (joined[:, 0, :] * probe).sum() + (joined[:, 2, :] * probe).sum()

    assert check_function(loss, {"a": a, "b": b}) < TOL


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(size=(4, 7)))
    np.testing.assert_allclose(x.softmax().data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_handles_minus_inf():
    x = Tensor(np.array([[1.0, -np.inf, 2.0]]), requires_grad=True)
    y = x.softmax()
    assert y.data[0, 1] == 0.0
    y.sum().backward()
    assert np.isfinite(x.grad).all()


def test_softmax_singleton_is_identity_weight():
    # attention over a single element returns exactly that value row
    q = Tensor(np.array([[[0.3]]]))
    v = Tensor(np.array([[[2.5, -1.0]]]))
    attn = (q @ q.transpose((0, 2, 1))).softmax()
    assert attn.data[0, 0, 0] == 1.0
    out = attn @ v
    np.testing.assert_array_equal(out.data, v.data)


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


def test_double_backward_accumulates():
    # backward on two separate losses accumulates into the same grads
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (p * p).sum().backward()
    (p * 3.0).sum().backward()
    np.testing.assert_allclose(p.grad, [2.0 + 3.0, 4.0 + 3.0])


def test_relative_error_scales():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(2.0, 1.0) == pytest.approx(0.5)


def test_repeated_fancy_index_accumulates():
    p = Tensor(np.zeros(4), requires_grad=True)
    p[np.array([1, 1, 2])].sum().backward()
    np.testing.assert_array_equal(p.grad, [0.0, 2.0, 1.0, 0.0])


def test_no_grad_records_no_graph():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with no_grad():
        y = (p * p).sum()
        with no_grad():
            pass
        z = p * 2.0  # still off after a nested block exits
    for t in (y, z):
        assert t._parents == () and t._backward is None and not t.requires_grad
    w = (p * p).sum()
    assert w._parents and w.requires_grad


def test_no_grad_restores_state_after_exception():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    (p * 3.0).sum().backward()
    np.testing.assert_array_equal(p.grad, [3.0])


def test_no_grad_is_per_thread():
    p = Tensor(np.array([1.0]), requires_grad=True)
    seen = []
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append((p * 2.0).requires_grad))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [True]
