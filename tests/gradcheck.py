"""Central finite-difference gradient checks for every differentiable
primitive and for the full desk-scale models, run by acceptance
criterion 2 and the autodiff and CNN tests."""

from __future__ import annotations

import numpy as np

from model_fixtures import float64
from sqatk import cnn as cnn_mod
from sqatk import transformer as tf_mod
from sqatk.autodiff import Tensor, attention, concat, conv2d, layer_norm, linear, maxpool2d
from sqatk.quality import TASKS
from sqatk.training import mse_loss


def relative_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-4)
    return abs(a - b) / scale


def probe_loss(build) -> float:
    """The loss sum(out * probe) of build()'s (out, probe)."""
    out, probe = build()
    return float((out.data * probe).sum())


def check_function(build, tensors: dict[str, Tensor], h: float = 1e-5,
                   coords_per_tensor: int = 6, seed: int = 0) -> float:
    """Compare analytic gradients against central differences.

    build() must rebuild its output from the live tensors each call and
    return it with a probe of its shape, 1.0 for a scalar loss: the
    checked loss is sum(out * probe), whose gradient out.backward(probe)
    seeds. Returns the max relative error over sampled coordinates.
    """
    out, probe = build()
    grads = out.backward(probe)
    analytic = {k: grads.get(t, np.zeros_like(t.data)) for k, t in tensors.items()}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, tensor in tensors.items():
        flat = tensor.data.reshape(-1)
        n = flat.size
        picks = range(n) if n <= coords_per_tensor else rng.choice(n, coords_per_tensor, replace=False)
        for idx in picks:
            original = flat[idx]
            flat[idx] = original + h
            up = probe_loss(build)
            flat[idx] = original - h
            down = probe_loss(build)
            flat[idx] = original
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, relative_error(analytic[name].reshape(-1)[idx], numeric))
    return worst


def primitive_cases(seed: int = 0, dtype=np.float64) -> dict[str, tuple]:
    """name -> (build, tensors) for each primitive on small random tensors
    in dtype, build as check_function takes it. The random draws do not
    depend on dtype."""
    rng = np.random.default_rng(seed)

    def leaf(shape, loc=0.0, scale=1.0):
        return Tensor(rng.normal(loc, scale, size=shape).astype(dtype), requires_grad=True)

    def probe(shape):
        return rng.normal(size=shape).astype(dtype)

    cases: dict[str, tuple] = {}

    x = leaf((3, 5))
    w = leaf((5, 4))
    b = leaf((4,))
    lin_probe = probe((3, 4))
    cases["linear"] = (lambda: (linear(x, w, b), lin_probe), {"x": x, "w": w, "b": b})

    # Softmax through the fused attention op: one query of ones, dh=1
    # (scale 1) and identity values make each output row softmax(s).
    s = leaf((4, 6))
    s_probe = probe((4, 6))
    ones_q = Tensor(np.ones((4, 1, 1, 1), dtype=dtype))
    eye_v = Tensor(np.broadcast_to(np.eye(6, dtype=dtype), (4, 1, 6, 6)).copy())
    cases["softmax"] = (
        lambda: (attention(ones_q, s.reshape((4, 1, 6, 1)), eye_v).reshape((4, 6)), s_probe),
        {"s": s},
    )

    ln_x = leaf((3, 8))
    gamma = leaf((8,), 1.0, 0.2)
    beta = leaf((8,))
    ln_probe = probe((3, 8))
    cases["layer_norm"] = (
        lambda: (layer_norm(ln_x, gamma, beta), ln_probe),
        {"x": ln_x, "gamma": gamma, "beta": beta},
    )

    g = leaf((5, 5))
    g_probe = probe((5, 5))
    cases["gelu"] = (lambda: (g.gelu(), g_probe), {"g": g})

    r = leaf((5, 5))
    r_probe = probe((5, 5))
    cases["relu"] = (lambda: (r.relu(), r_probe), {"r": r})

    # Attention: q/k/v projections into one head, fused op.
    att_x = leaf((2, 5, 8))
    wq, wk, wv = (leaf((8, 8)) for _ in range(3))
    no_bias = Tensor(np.zeros(8, dtype=dtype))
    att_probe = probe((2, 5, 8))

    def attention_loss():
        q, k, v = (linear(att_x, w, no_bias).reshape((2, 1, 5, 8)) for w in (wq, wk, wv))
        return attention(q, k, v).reshape((2, 5, 8)), att_probe

    att_tensors = {"x": att_x, "wq": wq, "wk": wk, "wv": wv}
    cases["attention"] = (attention_loss, att_tensors)

    # One query row, as in the CLS-only last encoder block, against the same keys.
    def attention_cls_loss():
        q = linear(att_x[:, :1], wq, no_bias).reshape((2, 1, 1, 8))
        k, v = (linear(att_x, w, no_bias).reshape((2, 1, 5, 8)) for w in (wk, wv))
        return attention(q, k, v).reshape((2, 8)), att_probe[:, 0]

    cases["attention_cls"] = (attention_cls_loss, att_tensors)

    cx = leaf((2, 3, 6, 7))
    cw = leaf((4, 3, 3, 3))
    cb = leaf((4,))
    c_probe = probe((2, 4, 6, 7))
    cases["conv2d"] = (lambda: (conv2d(cx, cw, cb), c_probe), {"x": cx, "w": cw, "b": cb})

    # Max pooling away from ties: distinct values guaranteed by arange jitter.
    base = np.arange(2 * 2 * 6 * 6, dtype=np.float64).reshape(2, 2, 6, 6)
    mp = Tensor((base + rng.uniform(0.0, 0.3, size=base.shape)).astype(dtype), requires_grad=True)
    mp_probe = probe((2, 2, 3, 3))
    cases["maxpool"] = (lambda: (maxpool2d(mp, 2), mp_probe), {"x": mp})

    mse_pred = leaf((6,))
    target = rng.normal(size=6)
    m = np.array([True, False, True, True, False, True])
    cases["mse"] = (lambda: (mse_loss(mse_pred, target, m, int(m.sum())), 1.0), {"pred": mse_pred})

    # Row gather with repeated indices, as in the packed positional lookup.
    table = leaf((4, 3))
    rows = np.array([[1, 1, 2], [0, 2, 2]])
    gather_probe = probe((2, 3, 3))
    cases["gather"] = (lambda: (table[rows], gather_probe), {"table": table})

    # conv2d's pool stage away from ties, at pool 2 on an even plane and
    # pool 3 on an odd one. A 1 x 1 kernel pads nothing, so each output
    # channel is its bias plus +-(the sum of its |weights|) times the
    # input ramp, plus its weights times the jitter, under 0.3 of that
    # sum. A ramp step is 1, so a window's conv outputs lie at least 0.7
    # of that sum apart. The ramp runs up the rows in sample 0 and down
    # them in sample 1, and the weights' sign alternates over output
    # channels, so every slot of a 2 x 2 window wins somewhere.
    signs = np.array([1.0, -1.0, 1.0])[:, None, None, None]
    pw = Tensor((rng.uniform(0.5, 1.5, size=(3, 2, 1, 1)) * signs).astype(dtype), requires_grad=True)
    pb = leaf((3,))

    def ramp(height, width):
        rows, cols = np.mgrid[:height, :width]
        plane = np.stack([rows * width + cols, cols - rows * width])[:, None]
        jitter = rng.uniform(0.0, 0.3, size=(2, 2, height, width))
        return Tensor((plane + jitter).astype(dtype), requires_grad=True)

    px2, px3 = ramp(8, 10), ramp(9, 13)
    p_probe2, p_probe3 = probe((2, 3, 4, 5)), probe((2, 3, 3, 4))
    cases["conv2d_pool"] = (
        lambda: (concat([conv2d(px2, pw, pb, pool=2).reshape((2, -1)),
                         conv2d(px3, pw, pb, pool=3).reshape((2, -1))], axis=1),
                 np.concatenate([p_probe2.reshape(2, -1), p_probe3.reshape(2, -1)], axis=1)),
        {"x2": px2, "x3": px3, "w": pw, "b": pb},
    )

    return cases


def primitive_checks(seed: int = 0) -> dict[str, float]:
    """Max relative FD error for each primitive, in float64."""
    return {name: check_function(loss, tensors) for name, (loss, tensors) in primitive_cases(seed).items()}


def full_model_check(seed: int = 0, h: float = 1e-3, coords_per_tensor: int = 4) -> float:
    """FD check of the complete 2-layer desk transformer loss on two
    clips of different lengths, in float64: central differences with
    these steps need float64's resolution. Each clip runs a forward of
    its own and their losses sum, as train_step's shards do, so the
    pos_grid rows both clips use take both clips' gradients."""
    config = tf_mod.desk_config(max_duration_s=0.6)
    params = float64(tf_mod.init_params(config, seed=seed))
    rng = np.random.default_rng(seed + 1)

    model = tf_mod.SpectrogramTransformer(config, params)
    batch = 2
    frames = rng.integers(30, config.max_frames, size=batch)
    clips = [model.prepare(rng.normal(-5.0, 2.0, size=(int(n), 128))) for n in frames]
    labels = {t: rng.uniform(1.0, 5.0, size=batch) for t in TASKS}
    mask = np.ones(1, dtype=bool)

    def build_loss():
        total = None
        for i, clip in enumerate(clips):
            preds = model.forward_batch(clip)
            for t in TASKS:
                loss = mse_loss(preds[t], labels[t][i : i + 1], mask, batch)
                total = loss if total is None else total + loss
        return total, 1.0

    return check_function(build_loss, params, h=h, coords_per_tensor=coords_per_tensor, seed=seed)


def full_cnn_check(seed: int = 0, h: float = 1e-7, coords_per_tensor: int = 4) -> float:
    """FD check of the CNN baseline loss on a short window of the 128-mel plane.

    The network is piecewise linear (ReLU + max pool), so central
    differences are exact between kinks and the step is kept far below
    the transformer's to stay away from kink crossings: at 1e-4 the
    check failed on 25 of seeds 0-29, at 1e-7 on none (worst error
    4.5e-5).
    Runs in float64, like full_model_check."""
    config = cnn_mod.CnnConfig(channels=(4, 8), pool=(2, 2), max_duration_s=0.4)
    params = float64(cnn_mod.ConvBaseline(config, seed=seed).params)
    rng = np.random.default_rng(seed + 1)
    batch = 2
    x = rng.normal(-5.0, 2.0, size=(batch, 1, 128, config.max_frames))
    labels = {t: rng.uniform(1.0, 5.0, size=batch) for t in TASKS}
    mask = np.ones(batch, dtype=bool)

    def build_loss():
        preds = cnn_mod.cnn_forward_batch(x, params, config)
        total = None
        for t in TASKS:
            loss = mse_loss(preds[t], labels[t], mask, batch)
            total = loss if total is None else total + loss
        return total, 1.0

    return check_function(build_loss, params, h=h, coords_per_tensor=coords_per_tensor, seed=seed)


def run_suite(seed: int = 0) -> dict[str, float]:
    results = primitive_checks(seed)
    results["desk_transformer"] = full_model_check(seed)
    results["desk_cnn"] = full_cnn_check(seed)
    return results
