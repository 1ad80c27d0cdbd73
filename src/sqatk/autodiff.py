"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float32 or float64 ndarray and records the operations
applied to it. The graph is kept apart from the values: a recorded op's
output points to a small node holding its parents' nodes and its
backward closure, and no array; leaves (parameters and inputs created
with requires_grad=True) are their own nodes. Each closure captures the
arrays its backward reads and no Tensor, so an intermediate array lives
only while a caller or a closure holds it. add, sum, indexing and
broadcast_to keep shapes; relu takes its mask from its own output;
layer_norm keeps its normalized input and sigma; linear keeps its
inputs; conv2d keeps its inputs and, when it pools, a map of winning
slots; attention keeps its inputs, its output and each query row's
log-sum-exp, no score matrix; maxpool2d keeps a map of winning slots.

backward() on a result walks the recorded nodes in reverse topological
order, routing gradients through a per-call map, and returns each leaf's
gradient in a map keyed by the leaf that the caller owns; no gradient is
stored on a Tensor. The op set is what the scoring models need: the
broadcast sum of two Tensors, scaling by a Python float, sums, linear
layers, shape ops, layer norm, GELU/ReLU, scaled dot-product attention
(whose softmax is fused into it: five passes over each block of query
rows' scores forward and nine over each head's score matrix backward,
equal to the composed ops to rounding), and convolution zero-padded to
keep an odd kernel's plane, which max-pools each sample's output as it
computes it; maxpool2d pools on its own by the same routing. The
training loss, training.mse_loss, records its own node through _make.
GELU's erf is a rational approximation in the input's dtype, within
5e-7 of the exact erf in float32 and 1e-7 in float64, so the module
needs NumPy alone.

Inside a no_grad() block ops record nothing, so scoring passes hold
only the activations they are still using.

The dtype follows the data: every op computes in its inputs' dtype, so a
model with float32 parameters runs float32 end to end and one with
float64 parameters float64, on the same code. init_from_spec gives
float32 parameters, the dtype a checkpoint stores, so training and
scoring both run in float32; float64 runs only where a caller casts to
it, as the finite-difference gradient checks do. A Tensor keeps float32
and float64 arrays as given and casts any other input to float64. Under
NumPy 2's promotion rules a Python float keeps an array's dtype but a
NumPy float64 scalar or 0-d array promotes float32 to float64, so
constants here are Python floats, and every buffer an op allocates
takes its input's dtype.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

# Python floats: a NumPy float64 scalar would promote float32 arrays.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# erf(x) ~ x * P(x^2) / Q(x^2) on [-4, 4], highest power first: the
# coefficients of Eigen's float32 erf. Its error against the exact erf is
# 4.4e-7 in float32 and 6.5e-8 in float64.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
          -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
          -1.42647390514189e-02)
_LN_EPS = 1e-5  # layer_norm's variance floor
# attention's forward scores query rows in blocks of ROW_BLOCK or more;
# as with frontend.FRAME_BLOCK, the last block takes the remainder, so
# every block has ROW_BLOCK to 2 * ROW_BLOCK - 1 rows and a slice of
# fewer than 2 * ROW_BLOCK queries runs as one block. On OpenBLAS a
# float32 row block's scores have the bits of the whole slice's (checked
# for N of 255 to 3000 at one and two threads), but float64's GEMM sums
# the last N mod 16 key columns in an edge kernel whose bits depend on
# where the block ends. So float64 keys are zero-padded to a multiple of
# KEY_PAD, the padding scored -inf, and no real column reaches that
# kernel; float32's are not, as the padding would slow the scoring
# path's attention about 5%. Nor is one query row, the encoder's last
# block, which is never split: NumPy hands it to gemv. The backward runs
# over the whole slice and pads nothing.
ROW_BLOCK = 256
KEY_PAD = 16


# Parameter name -> (shape, init): init is "zeros", "ones", or the fan-in of
# a uniform +/-1/sqrt(fan_in) draw. Each model's spec lists its parameters.
ParamSpec = dict[str, tuple[tuple[int, ...], int | str]]

# Per thread, so a scoring thread never switches recording off for another.
_grad_mode = threading.local()


@contextmanager
def no_grad():
    """Record no autograd graph inside the block: op results get no
    graph node and do not require grad. The previous mode is restored
    on exit, also when the block raises."""
    previous = getattr(_grad_mode, "enabled", True)
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of x in x's dtype: the odd rational x * P(x^2) / Q(x^2) with x
    clipped to [-4, 4], where erf is within 1.6e-8 of +/-1, and the result
    clipped to [-1, 1]. erf(-x) is -erf(x) bit for bit, -0 included."""
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x

    def horner(coefs):
        acc = x2 * coefs[0]
        for c in coefs[1:-1]:
            acc += c
            acc *= x2
        acc += coefs[-1]
        return acc

    out = horner(_ERF_P)
    out *= x
    out /= horner(_ERF_Q)
    return np.clip(out, -1.0, 1.0, out=out)


def _records(parents) -> bool:
    """Whether an op on these parents records its graph."""
    return getattr(_grad_mode, "enabled", True) and any(p.requires_grad for p in parents)


class _Node:
    """A recorded op: its parents' graph nodes, None for a parent that
    needs no gradient, and backward(g), which returns one gradient (or
    None) per parent. It holds no output array."""

    __slots__ = ("parents", "backward")

    def __init__(self, parents, backward):
        self.parents = parents
        self.backward = backward


def _graph_node(t: Tensor):
    """t's node in the graph: a recorded op's node, t itself for a leaf
    that requires grad, or None."""
    return t._node if t._node is not None else (t if t.requires_grad else None)


class Tensor:
    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype != np.float32:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = requires_grad
        self._node: _Node | None = None  # set on a recorded op's output

    # ------------------------------------------------------------- basics

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _make(self, data, parents, backward):
        """The Tensor of an op's output data. When recording, it points to
        a node of the parents' nodes and backward, which must capture the
        arrays it reads and no Tensor."""
        out = Tensor(data)
        if _records(parents):
            out.requires_grad = True
            out._node = _Node(tuple(_graph_node(p) for p in parents), backward)
        return out

    # --------------------------------------------------------- arithmetic

    def __add__(self, other: Tensor):
        shape_a, shape_b = self.data.shape, other.data.shape

        def backward(g):
            return _unbroadcast(g, shape_a), _unbroadcast(g, shape_b)

        return self._make(self.data + other.data, (self, other), backward)

    def __mul__(self, scale: float):
        scale = float(scale)
        return self._make(self.data * scale, (self,), lambda g: (g * scale,))

    # ---------------------------------------------------------- shape ops

    def reshape(self, shape):
        old_shape = self.data.shape
        return self._make(self.data.reshape(shape), (self,), lambda g: (g.reshape(old_shape),))

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        return self._make(self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),))

    def broadcast_to(self, shape):
        old_shape = self.data.shape
        return self._make(
            np.broadcast_to(self.data, shape).copy(), (self,), lambda g: (_unbroadcast(g, old_shape),)
        )

    def __getitem__(self, idx):
        shape, dtype = self.data.shape, self.data.dtype

        def backward(g):
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, idx, g)  # a repeated index receives the sum of its gradients
            return (full,)

        return self._make(self.data[idx], (self,), backward)

    # --------------------------------------------------------- reductions

    def sum(self, axis=None):
        out_data = self.data.sum(axis=axis)
        shape = self.data.shape

        def backward(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------ nonlinearities

    def relu(self):
        out = np.maximum(self.data, 0.0)  # out > 0 exactly where the input is
        return self._make(out, (self,), lambda g: (g * (out > 0.0),))

    def gelu(self):
        """GELU, 0.5 * x * (1 + erf(x / sqrt(2))), with _erf's rational:
        within 5e-7 * |x| of the exact GELU in float32 and 1e-7 * |x| in
        float64. The backward takes the exact normal pdf."""
        x = self.data
        cdf = _erf(x * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5

        def backward(g):
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
            return (g * (cdf + x * pdf),)

        return self._make(x * cdf, (self,), backward)

    # ------------------------------------------------------------ backward

    def backward(self, grad=None) -> dict[Tensor, np.ndarray]:
        """Backpropagate grad (ones by default) from this result and return
        each leaf it reached, keyed by the leaf itself, mapped to the sum of
        the gradients its consumers sent it; {} if nothing was recorded.
        Two leaves can share one returned array (a + b hands both the same
        g), and an entry can be a view of grad, so callers sum maps out of
        place and never write into them."""
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        root = _graph_node(self)
        if root is None:
            return {}
        # nodes are _Node for recorded ops and the leaf Tensors themselves
        order: list[_Node | Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if isinstance(node, _Node):
                stack.extend((parent, False) for parent in node.parents if parent is not None)

        grad_map: dict[int, np.ndarray] = {id(root): grad}
        leaf_grads: dict[Tensor, np.ndarray] = {}
        for node in reversed(order):
            g = grad_map.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):
                leaf_grads[node] = g
                continue
            for parent, pg in zip(node.parents, node.backward(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                if key in grad_map:
                    grad_map[key] = grad_map[key] + pg
                else:
                    grad_map[key] = pg
        return leaf_grads


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization over the last axis with learnable scale/shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + _LN_EPS)
    xhat = (x.data - mu) / sigma
    gamma_data = gamma.data

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        ghat = g * gamma_data
        m1 = ghat.mean(axis=-1, keepdims=True)
        m2 = (ghat * xhat).mean(axis=-1, keepdims=True)
        return (
            (ghat - m1 - xhat * m2) / sigma,
            (g * xhat).sum(axis=axes),
            g.sum(axis=axes),
        )

    return x._make(xhat * gamma.data + beta.data, (x, gamma, beta), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention of (B,H,Nq,dh) query heads over
    (B,H,N,dh) key and value heads: softmax(q @ k^T / sqrt(dh) + bias) @ v.
    Nq and N may differ; the encoder's last block passes one query row.
    q, k and v must have equal leading axes.

    bias, if given, broadcasts against the (B,H,Nq,N) scores; -inf
    entries get exactly zero probability. The forward runs one (batch,
    head) slice at a time and, within it, one block of ROW_BLOCK to
    2 * ROW_BLOCK - 1 query rows at a time in one reused buffer, in five
    passes: the GEMM of the scaled queries q / sqrt(dh) with k^T (plus
    the bias), the row max, its subtraction, exp, and one GEMM with
    [v | 1], whose last column gives the row sums that divide the Nq x
    dh output (Rabe & Staats 2021). So its scores take one block's
    memory, not Nq x N, and every value has the bits of one whole-slice
    pass. A recorded call keeps its inputs, its output and each row's
    log-sum-exp lse, no Nq x N data. The backward recomputes
    P = exp(scores - lse) over the whole slice, takes dv = P^T @ g and
    dP = g @ v^T, and forms P * (dP - delta) in place, with
    delta = rowsum(g * out) (FlashAttention-2, Dao 2023): nine passes
    over two Nq x N buffers. The values equal the composed
    scale/softmax/matmul ops' to within 1e-14 (float64) and 2e-6
    (float32) of their largest magnitude."""
    qs, ks, vs = q.data, k.data, v.data
    lead = qs.shape[:-2]
    if ks.shape[:-2] != lead or vs.shape[:-2] != lead:
        raise ValueError(f"attention leading axes differ: q {qs.shape}, k {ks.shape}, v {vs.shape}")
    scale = 1.0 / math.sqrt(qs.shape[-1])  # a Python float keeps float32 scores float32
    n_q, n_k, d_v = qs.shape[-2], ks.shape[-2], vs.shape[-1]
    score_dtype = np.result_type(qs, ks)
    n_pad = -(-n_k // KEY_PAD) * KEY_PAD if score_dtype == np.float64 and n_q > 1 else n_k  # see KEY_PAD
    if bias is not None:
        bias = np.broadcast_to(bias, lead + (n_q, n_k))

    def scores(q_scaled, idx, p):
        """Slice idx's scores q / sqrt(dh) @ k^T + bias, written into the
        Nq x N buffer p."""
        np.matmul(q_scaled[idx], ks[idx].swapaxes(-1, -2), out=p)
        if bias is not None:
            p += bias[idx]

    q_scaled = qs * scale
    v_ones = np.concatenate([vs, np.ones(lead + (n_k, 1), dtype=vs.dtype)], axis=-1)
    pad = np.zeros(lead + (n_pad - n_k, ks.shape[-1]), dtype=ks.dtype)
    keys = ks if n_pad == n_k else np.concatenate([ks, pad], axis=-2)  # zero keys up to n_pad
    out_sum = np.empty(lead + (n_q, d_v + 1), dtype=np.result_type(score_dtype, vs))
    lse = np.empty(lead + (n_q, 1), dtype=score_dtype)  # the row max, until the loop ends
    bounds = [*range(0, max(n_q - ROW_BLOCK, 0) + 1, ROW_BLOCK), n_q]
    buffer = np.empty((bounds[-1] - bounds[-2], n_pad), dtype=score_dtype)  # the last block is the widest
    for idx in np.ndindex(*lead):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            p = buffer[: hi - lo]
            np.matmul(q_scaled[idx][lo:hi], keys[idx].swapaxes(-1, -2), out=p)
            p[:, n_k:] = -np.inf  # a padded key's probability is 0
            if bias is not None:
                p[:, :n_k] += bias[idx][lo:hi]
            p -= np.max(p, axis=-1, keepdims=True, out=lse[idx][lo:hi])
            np.exp(p, out=p)
            np.matmul(p[:, :n_k], v_ones[idx], out=out_sum[idx][lo:hi])
    row_sum = out_sum[..., d_v:]
    out = out_sum[..., :d_v] / row_sum
    lse += np.log(row_sum)

    need_dq, need_dk, need_dv = q.requires_grad, k.requires_grad, v.requires_grad

    def backward(g):
        q_scaled = qs * scale
        p = np.empty((n_q, n_k), dtype=score_dtype)
        ds = np.empty((n_q, n_k), dtype=np.result_type(g, vs))
        delta = (g * out).sum(axis=-1, keepdims=True)
        dq = np.empty(qs.shape, dtype=ds.dtype) if need_dq else None
        # dk in the layout of q^T @ ds, handed back as its swapped view
        dkt = np.empty(lead + (ks.shape[-1], n_k), dtype=ds.dtype) if need_dk else None
        dv = np.empty(vs.shape, dtype=ds.dtype) if need_dv else None
        for idx in np.ndindex(*lead):
            scores(q_scaled, idx, p)
            p -= lse[idx]
            np.exp(p, out=p)
            if dv is not None:
                np.matmul(p.swapaxes(-1, -2), g[idx], out=dv[idx])
            np.matmul(g[idx], vs[idx].swapaxes(-1, -2), out=ds)
            ds -= delta[idx]
            ds *= p
            if dq is not None:
                np.matmul(ds, ks[idx], out=dq[idx])
            if dkt is not None:
                np.matmul(q_scaled[idx].swapaxes(-1, -2), ds, out=dkt[idx])
        if dq is not None:
            dq *= scale
        return dq, None if dkt is None else dkt.swapaxes(-1, -2), dv

    return q._make(out, (q, k, v), backward)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            grads.append(g[tuple(idx)])
        return tuple(grads)

    return tensors[0]._make(out_data, tuple(tensors), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: the GEMM's output takes the bias in place,
    so a layer makes one array, and its backward keeps x and w. The
    values and the gradients are those of the matmul and add ops, bit
    for bit."""
    xd, wd, b_shape = x.data, w.data, b.shape
    need_dx, need_dw = x.requires_grad, w.requires_grad
    out = xd @ wd
    out += b.data

    def backward(g):
        dx = _unbroadcast(g @ wd.swapaxes(-1, -2), xd.shape) if need_dx else None
        dw = _unbroadcast(xd.swapaxes(-1, -2) @ g, wd.shape) if need_dw else None
        return dx, dw, _unbroadcast(g, b_shape)

    return x._make(out, (x, w, b), backward)


def _overlap(offset: int, size: int, out_size: int) -> tuple[slice, slice]:
    """For one kernel offset along one axis: the output positions i whose
    input position i + offset lies in [0, size), and those input
    positions. Outside that range a tap reads the zero padding."""
    lo = max(0, -offset)
    hi = max(lo, min(out_size, size - offset))
    return slice(lo, hi), slice(lo + offset, hi + offset)


def _im2col(src: np.ndarray, taps, cols: np.ndarray) -> np.ndarray:
    """Fill cols, (C, len(taps), out_h, out_w), with one shifted copy of
    the (C, H, W) input src per kernel tap, each running along the
    contiguous time axis. A tap copies the part of the input it overlaps
    and zeroes only the border strips that fall on the padding, so no
    padded copy of the input is made. Returns cols as its
    (C*len(taps), out_h*out_w) GEMM matrix."""
    for j, (rows, src_rows, span, src_span) in enumerate(taps):
        tap = cols[:, j]
        tap[..., : rows.start, :] = 0.0
        tap[..., rows.stop :, :] = 0.0
        tap[..., : span.start] = 0.0
        tap[..., span.stop :] = 0.0
        tap[..., rows, span] = src[..., src_rows, src_span]
    return cols.reshape(cols.shape[0] * cols.shape[1], -1)


def _window_slots(factor: int, out_h: int, out_w: int) -> list[tuple]:
    """Per slot of a factor x factor window, in scan order (row-major):
    the index of that slot in every window of a (..., H, W) array."""
    return [(..., slice(i, out_h * factor, factor), slice(j, out_w * factor, factor))
            for i in range(factor) for j in range(factor)]


def _slot_map(shape: tuple[int, ...], factor: int) -> np.ndarray:
    """A map of each window's winning slot, unset: uint8 up to 16 x 16."""
    return np.empty(shape, dtype=np.min_scalar_type(factor * factor - 1))


def _max_pool(src: np.ndarray, factor: int, out: np.ndarray, win: np.ndarray | None) -> None:
    """Max-pool the last two axes of src by `factor` into out, and set
    win, if given, to each window's winning slot; trailing rows and
    columns that fill no window are skipped. The max is a running
    np.maximum over the slots, so a window of -0s pools to -0. Before
    slot k joins it, the windows where k is strictly greater take k in
    the map, so the first max in scan order wins: ties are common after
    ReLU zeros and over the floor padding, and -0 ties +0."""
    slots = _window_slots(factor, *out.shape[-2:])
    np.copyto(out, src[slots[0]])
    if win is not None:
        win.fill(0)
        hit = np.empty_like(win)
    for k, slot in enumerate(slots[1:], 1):
        if win is not None:  # k only grows, so a max with hit * k sets k where hit
            np.greater(src[slot], out, out=hit)
            np.maximum(win, np.multiply(hit, k, out=hit), out=win)
        np.maximum(out, src[slot], out=out)


def _unpool(g: np.ndarray, win: np.ndarray, factor: int, full: np.ndarray) -> np.ndarray:
    """The gradient of _max_pool: route g through win into full, shaped
    as the input, and return full. Each slot is written once, as g's
    bits times the 0/1 mask win == k, so the winning slot gets g exactly,
    -0 included, and the others +0 (a float product would give -0 under
    a negative gradient). Rows and columns no window covers get +0."""
    out_h, out_w = win.shape[-2:]
    bits = np.dtype(f"u{full.dtype.itemsize}")
    full[..., out_h * factor :, :] = 0.0
    full[..., out_w * factor :] = 0.0
    mask = np.empty_like(win, dtype=bool)
    for k, slot in enumerate(_window_slots(factor, out_h, out_w)):
        np.equal(win, k, out=mask)
        np.multiply(g.view(bits), mask, out=full[slot].view(bits))
    return full


def conv2d(x: Tensor, w: Tensor, b: Tensor, pool: int = 1) -> Tensor:
    """2-D convolution, stride 1, zero-padded by kh // 2 rows and kw // 2
    columns, via channel-major im2col + GEMM, then max pooling by `pool`.
    x: (B,C,H,W), w: (O,C,kh,kw), b: (O,); the output is
    (B, O, out_h // pool, out_w // pool), and an odd kernel keeps
    out_h, out_w = H, W.

    The forward runs one sample at a time: the GEMM of the sample's
    (C*kh*kw, out_h*out_w) columns, built in one buffer, writes its
    (O, out_h*out_w) conv output into another, which takes the bias and
    is pooled into the sample's slice of the output (and, recorded, of
    one map of winning slots) while it is still in cache. So the batch's
    full-resolution conv output is never made.

    The backward runs the same loop and keeps no columns between calls:
    for each sample it routes the pooled gradient through the map into
    one full-resolution buffer, rebuilds the columns into a buffer of
    its own, adds g_n @ cols_n.T into dw, then writes w_mat.T @ g_n into
    that buffer and adds its shifted slices (col2im) into the sample's
    slice of an unpadded input gradient, in tap order. db sums the
    pooled gradient.

    So the output and dx take one GEMM per sample, and dw is the sum of
    the per-sample GEMMs in sample order. One GEMM over the whole batch's
    columns can round otherwise: the BLAS may pick another kernel, or sum
    in another order, for a wider matrix. The output, dx and dw are
    those of conv2d at pool 1 and then maxpool2d, bit for bit."""
    batch, in_ch, height, width = x.data.shape
    out_ch, w_in_ch, kh, kw = w.data.shape
    if w_in_ch != in_ch:
        raise ValueError(f"conv2d channel mismatch: input {in_ch}, weight {w_in_ch}")
    pad_h, pad_w = kh // 2, kw // 2
    out_h = height + 2 * pad_h - kh + 1
    out_w = width + 2 * pad_w - kw + 1
    n_taps = kh * kw
    dtype = x.data.dtype
    # per tap, in kernel order: the output rows (columns) it fills from x,
    # and the input rows (columns) it reads
    row_overlap = [_overlap(u - pad_h, height, out_h) for u in range(kh)]
    col_overlap = [_overlap(v - pad_w, width, out_w) for v in range(kw)]
    taps = [(*row_overlap[u], *col_overlap[v]) for u in range(kh) for v in range(kw)]

    xd, wd, bias = x.data, w.data, b.data[:, None]
    need_dx, need_dw = x.requires_grad, w.requires_grad
    w_mat = wd.reshape(out_ch, in_ch * n_taps)
    out_data = np.empty((batch, out_ch, out_h // pool, out_w // pool), dtype=dtype)
    # one slot per window needs no map
    win = _slot_map(out_data.shape, pool) if pool > 1 and _records((x, w, b)) else None
    conv = np.empty((out_ch, out_h * out_w), dtype=dtype)
    cols = np.empty((in_ch, n_taps, out_h, out_w), dtype=dtype)
    for n in range(batch):
        np.matmul(w_mat, _im2col(xd[n], taps, cols), out=conv)
        conv += bias
        _max_pool(conv.reshape(out_ch, out_h, out_w), pool, out_data[n], None if win is None else win[n])

    def backward(g):
        dw = np.zeros_like(w_mat) if need_dw else None
        dx = np.zeros((batch, in_ch, height, width), dtype=dtype) if need_dx else None
        cols = np.empty((in_ch, n_taps, out_h, out_w), dtype=dtype)
        full = np.empty((out_ch, out_h, out_w), dtype=dtype) if pool > 1 else None
        for n in range(batch):
            g_n = g[n] if full is None else _unpool(g[n], win[n], pool, full)
            g_n = g_n.reshape(out_ch, out_h * out_w)
            if dw is not None:
                dw += g_n @ _im2col(xd[n], taps, cols).T
            if dx is not None:
                np.matmul(w_mat.T, g_n, out=cols.reshape(in_ch * n_taps, -1))
                for j, (rows, src_rows, span, src_span) in enumerate(taps):
                    dx[n, :, src_rows, src_span] += cols[:, j, rows, span]
        dw = None if dw is None else dw.reshape(wd.shape)
        return dx, dw, g.sum(axis=(0, 2, 3))

    return x._make(out_data, (x, w, b), backward)


def maxpool2d(x: Tensor, factor: int) -> Tensor:
    """Max pooling by `factor` along both spatial axes, routed as in
    conv2d's pool stage. A recorded call keeps only the map of winning
    slots; under no_grad none is made. The CNN pools inside conv2d; this
    op stays for the tests and for bench/tracer.py, which wraps
    sqatk.cnn.maxpool2d."""
    batch, channels, height, width = x.data.shape
    out_data = np.empty((batch, channels, height // factor, width // factor), dtype=x.data.dtype)
    win = _slot_map(out_data.shape, factor) if _records((x,)) else None
    _max_pool(x.data, factor, out_data, win)
    x_shape, dtype = x.data.shape, x.data.dtype
    return x._make(out_data, (x,), lambda g: (_unpool(g, win, factor, np.empty(x_shape, dtype=dtype)),))


def init_from_spec(spec: ParamSpec, seed: int) -> dict[str, Tensor]:
    """float32 parameters in spec order, the dtype a checkpoint stores.
    The uniform draws are float64 from one generator seeded with seed,
    then rounded, so the random stream does not depend on the dtype."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (shape, init) in spec.items():
        if init == "zeros":
            data = np.zeros(shape, dtype=np.float32)
        elif init == "ones":
            data = np.ones(shape, dtype=np.float32)
        else:
            limit = 1.0 / np.sqrt(init)
            data = rng.uniform(-limit, limit, size=shape).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params
