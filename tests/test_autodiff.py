"""Tape correctness: every primitive against finite differences or a
closed-form oracle, plus the optimizer and batch-norm bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from graphflow import autodiff as ad
from graphflow import flow, rgcn
from graphflow.autodiff import AdamState, BatchNormState, Tape, Tensor


def leaf(data, name=""):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


def _tanh(a):
    # the oracle's own elementwise ops, one tape node each; the program
    # has them only inside its fused encoder-layer and head-MLP nodes
    out = np.tanh(a.data)
    return ad.custom_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def _relu(a):
    return ad.custom_op(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def _sqrt(a):
    out = np.sqrt(a.data)
    return ad.custom_op(out, (a,), lambda g: (g * (0.5 / out),))


def test_scalar_chain_matches_hand_derivative():
    x = leaf(0.7)
    with Tape() as tape:
        y = ad.exp(x) * _tanh(x) + x * x
        tape.backward(y)
    v = 0.7
    expected = np.exp(v) * np.tanh(v) + np.exp(v) / np.cosh(v) ** 2 + 2 * v
    assert abs(x.grad - expected) < 1e-12


def _every_op(x):
    # one output per op, each reading x; the other operands are constants
    k = Tensor(np.full((2, 3), 3.5))
    m = Tensor(np.eye(3))
    return [
        ad.add(x, k), ad.sub(x, k), ad.mul(x, k), ad.div(x, k), ad.matmul(x, m),
        ad.exp(x), ad.log(x), ad.clip(x, 3.2, 3.8),
        ad.minimum(x, k), ad.tensor_sum(x, axis=0), ad.reshape(x, (3, 2)),
        ad.concat([x, k], axis=0), ad.take(x, (np.array([1, 0]),)),
        ad.logsumexp(x, axis=1),
        ad.custom_op(2.0 * x.data, (x,), lambda g: (2.0 * g,)),
    ]


def test_ops_record_only_under_a_tape(monkeypatch):
    recorded = []
    record = ad._record
    monkeypatch.setattr(ad, "_record", lambda *node: (recorded.append(node), record(*node)))
    data = np.random.default_rng(4).uniform(3.0, 4.0, size=(2, 3))
    outside = _every_op(leaf(data))
    assert recorded == []
    assert all(out.requires_grad for out in outside)
    assert not any(out.requires_grad for out in _every_op(Tensor(data)))
    with Tape() as tape:
        inside = _every_op(leaf(data))
        constant = _every_op(Tensor(data))
    assert len(tape.nodes) == len(recorded) == len(inside)
    assert [node[0] for node in tape.nodes] == inside
    assert not any(out.requires_grad for out in constant)
    for a, b in zip(outside, inside):
        assert np.array_equal(a.data, b.data)


def test_grad_check_composite_expression():
    rng = np.random.default_rng(0)
    params = {
        "a": leaf(rng.normal(size=(3, 4))),
        "b": leaf(rng.normal(size=(4, 2))),
        "c": leaf(rng.normal(size=(3, 2))),
    }

    def f():
        h = _tanh(params["a"] @ params["b"]) + params["c"]
        return (ad.exp(h * 0.3) + h * h).sum()

    assert ad.grad_check(f, params, h=1e-6) < 1e-7


def test_broadcast_backward_reduces_correctly():
    a = leaf(np.ones((2, 3)))
    b = leaf(np.arange(3.0))
    with Tape() as tape:
        out = (a * b).sum()
        tape.backward(out)
    # d/d b[j] = sum over the broadcast rows
    assert np.array_equal(b.grad, np.full(3, 2.0))
    assert np.array_equal(a.grad, np.tile(np.arange(3.0), (2, 1)))


def test_div_and_sqrt_gradients():
    params = {"x": leaf([0.5, 1.5, 2.5]), "y": leaf([2.0, 3.0, 0.7])}

    def f():
        return (params["x"] / _sqrt(params["y"])).sum()

    assert ad.grad_check(f, params, h=1e-6) < 1e-8


def test_matmul_three_dim_batch():
    rng = np.random.default_rng(1)
    params = {"a": leaf(rng.normal(size=(4, 3, 2))), "w": leaf(rng.normal(size=(2, 5)))}

    def f():
        return (params["a"] @ params["w"]).sum()

    assert ad.grad_check(f, params, h=1e-6) < 1e-8


def test_relu_gradient_zero_below_kink():
    x = leaf([-1.0, 2.0])
    with Tape() as tape:
        tape.backward(_relu(x).sum())
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_clip_gradient_zero_outside_band():
    x = leaf([-2.0, 0.3, 5.0])
    with Tape() as tape:
        tape.backward(ad.clip(x, -1.0, 1.0).sum())
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_minimum_routes_ties_to_first_argument():
    a = leaf([1.0, 3.0, 2.0])
    b = leaf([1.0, 2.0, 4.0])
    with Tape() as tape:
        tape.backward(ad.minimum(a, b).sum())
    # equal entries send gradient to a, not b
    assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


def test_take_accumulates_duplicate_indices():
    x = leaf(np.arange(5.0))
    idx = np.array([1, 1, 4])
    with Tape() as tape:
        tape.backward(ad.take(x, (idx,)).sum())
    assert np.array_equal(x.grad, [0.0, 2.0, 0.0, 0.0, 1.0])


def test_concat_splits_gradient():
    a = leaf(np.ones((2, 2)))
    b = leaf(np.ones((2, 3)))
    with Tape() as tape:
        out = ad.concat([a, b], axis=1) * np.arange(5.0)
        tape.backward(out.sum())
    assert np.array_equal(a.grad, [[0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(b.grad, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])


def test_logsumexp_matches_scipy_and_gradient():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(4, 6)) * 3
    x = leaf(data)
    with Tape() as tape:
        out = ad.logsumexp(x, axis=1)
        tape.backward(out.sum())
    assert np.allclose(out.data, special.logsumexp(data, axis=1), atol=1e-12)
    # gradient of logsumexp is the softmax
    soft = np.exp(data - special.logsumexp(data, axis=1, keepdims=True))
    assert np.allclose(x.grad, soft, atol=1e-12)


def test_logsumexp_extreme_values_stay_finite():
    x = leaf([[-1000.0, -1001.0], [1000.0, 999.0]])
    with Tape() as tape:
        out = ad.logsumexp(x, axis=1)
        tape.backward(out.sum())
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(x.grad))


def test_gaussian_logpdf_matches_scipy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    mu = rng.normal(size=(5, 2))
    alpha = np.exp(rng.normal(size=(5, 2)) * 0.4)
    out = ad.gaussian_logpdf(Tensor(x), Tensor(mu), Tensor(alpha))
    oracle = stats.norm.logpdf(x, loc=mu, scale=alpha)
    assert np.allclose(out.data, oracle, atol=1e-12)


def test_gaussian_logpdf_gradients():
    rng = np.random.default_rng(4)
    params = {
        "mu": leaf(rng.normal(size=(3, 2))),
        "alpha": leaf(np.exp(rng.normal(size=(3, 2)) * 0.3)),
    }
    x = Tensor(rng.normal(size=(3, 2)))

    def f():
        return ad.gaussian_logpdf(x, params["mu"], params["alpha"]).sum()

    assert ad.grad_check(f, params, h=1e-6) < 1e-7


def test_backward_requires_scalar():
    x = leaf(np.ones(3))
    with Tape() as tape:
        y = x * 2.0
        with pytest.raises(ValueError):
            tape.backward(y)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass


def test_grads_accumulate_across_tapes():
    x = leaf(2.0)
    for _ in range(3):
        with Tape() as tape:
            tape.backward(x * x)
    assert abs(x.grad - 12.0) < 1e-12  # 3 tapes, d(x^2)/dx = 4 each


def test_accumulate_grads_sums_losses_in_order_and_clears_slots():
    x = leaf([1.0, 2.0])
    y = leaf([[3.0]])
    untouched = leaf(np.ones((2, 3)))
    params = {"x": x, "y": y, "untouched": untouched}
    x.grad = np.full(2, 7.0)  # a stale gradient does not leak in
    grads, values = ad.accumulate_grads(
        params, [lambda: (x * x).sum(), lambda: (x * y).sum() * 2.0]
    )
    assert values == [5.0, 18.0]
    assert np.array_equal(grads["x"], [8.0, 10.0])  # 2x + 2y
    assert np.array_equal(grads["y"], [[6.0]])  # 2 * sum(x)
    assert np.array_equal(grads["untouched"], np.zeros((2, 3)))
    assert all(p.grad is None for p in params.values())


def test_zero_grads_clears_slots():
    x = leaf(1.0)
    with Tape() as tape:
        tape.backward(x * 3.0)
    ad.zero_grads({"x": x})
    assert x.grad is None


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_batch_norm_train_normalizes_rows(n, k):
    rng = np.random.default_rng(n * 31 + k)
    x = Tensor(rng.normal(size=(n, k)) * 3 + 1)
    state = BatchNormState.fresh(k)
    # the (n, k) rows as a one-slice stack with every row unmasked
    stacked = ad.batch_norm(
        x.reshape(1, n, k), Tensor(np.ones(k)), Tensor(np.zeros(k)), state, np.ones((1, n, 1))
    )
    out = stacked.reshape(n, k)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
    if n > 1:
        var = out.data.var(axis=0)
        sample_var = x.data.var(axis=0)
        # output variance is var/(var+eps), just below 1
        assert np.allclose(var, sample_var / (sample_var + 1e-5), atol=1e-10)


def test_batch_norm_masked_stats_match_hand_loop():
    rng = np.random.default_rng(7)
    x_data = rng.normal(size=(3, 4, 2))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=np.float64)
    mask = mask[:, :, None]
    x_data = x_data * mask
    gamma, beta = np.array([1.3, 0.8]), np.array([0.2, -0.5])
    state = BatchNormState.fresh(2)
    out = ad.batch_norm(Tensor(x_data), Tensor(gamma), Tensor(beta), state, mask)
    rows = x_data[mask[:, :, 0] > 0]  # every unmasked row across the stack
    mean = rows.mean(axis=0)
    var = rows.var(axis=0)
    expect = (x_data - mean) / np.sqrt(var + 1e-5) * gamma + beta
    keep = mask[:, :, 0] > 0
    assert np.allclose(out.data[keep], expect[keep], atol=1e-12)
    # running buffers folded once with momentum 0.9
    assert np.allclose(state.running_mean, 0.1 * mean, atol=1e-12)
    assert np.allclose(state.running_var, 0.9 + 0.1 * var, atol=1e-12)


def test_batch_norm_eval_uses_buffers_only():
    state = BatchNormState.fresh(2)
    state.running_mean[...] = [1.0, -1.0]
    state.running_var[...] = [4.0, 0.25]
    x = Tensor(np.array([[3.0, 0.0]]))
    out = ad.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state)
    expect = (x.data - state.running_mean) / np.sqrt(state.running_var + 1e-5)
    assert np.allclose(out.data, expect, atol=1e-12)
    assert np.array_equal(state.running_mean, [1.0, -1.0])  # untouched


def test_batch_norm_train_gradients():
    rng = np.random.default_rng(8)
    params = {
        "x": leaf(rng.normal(size=(5, 3))),
        "gamma": leaf(1.0 + 0.2 * rng.normal(size=3)),
        "beta": leaf(0.3 * rng.normal(size=3)),
    }
    target = rng.normal(size=(5, 3))  # breaks symmetry so no gradient is zero

    def f():
        state = BatchNormState.fresh(3)
        out = ad.batch_norm(
            params["x"].reshape(1, 5, 3), params["gamma"], params["beta"], state,
            np.ones((1, 5, 1)),
        ).reshape(5, 3)
        diff = out - target
        return (diff * diff).sum()

    assert ad.grad_check(f, params, h=1e-6) < 1e-6
    # a stack with an all-masked slice
    x, gamma, beta, _, mask = _masked_stack(3)
    assert not mask[0].any()
    weights = np.random.default_rng(9).normal(size=x.shape)

    def g():
        out = ad.batch_norm(x, gamma, beta, BatchNormState.fresh(x.shape[-1]), mask)
        return (out * Tensor(weights)).sum()

    assert ad.grad_check(g, {"x": x, "gamma": gamma, "beta": beta}, h=1e-6) < 1e-6


# --------------------------- fused nodes against their composites


def _value_and_grads(build, leaves, target):
    # output, tape length and every leaf's gradient of sum(build() * target)
    with Tape() as tape:
        out = build()
        tape.backward((out * Tensor(target)).sum())
    grads = [p.grad for p in leaves]
    ad.zero_grads(leaves)
    return out.data, len(tape.nodes), grads


def _check_fused(fused, composite, leaves, seed):
    # one node, bitwise equal to the op-by-op expression in value and in
    # every parent's gradient, and right by finite differences
    target = np.random.default_rng(seed).normal(size=fused().shape)
    value, nodes, grads = _value_and_grads(fused, leaves, target)
    ref_value, ref_nodes, ref_grads = _value_and_grads(composite, leaves, target)
    assert nodes == 3  # the fused node plus the loss's mul and sum
    assert ref_nodes > nodes
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert g is not None and np.array_equal(g, ref)
    def loss():
        return (fused() * Tensor(target)).sum()

    params = {str(i): p for i, p in enumerate(leaves)}
    assert ad.grad_check(loss, params, h=1e-6) < 1e-7


@pytest.mark.parametrize(
    "h_shape, adj_shape",
    [((4, 3), (2, 4, 4)), ((3, 4, 3), (3, 2, 4, 4)), ((4, 3), (3, 2, 4, 4))],
    ids=["single", "stacked", "broadcast"],
)
def test_relation_layer_matches_composite(h_shape, adj_shape):
    rng = np.random.default_rng(len(h_shape) + len(adj_shape))
    adj = rng.uniform(0.0, 1.0, size=adj_shape)
    h = leaf(rng.normal(size=h_shape))
    w = leaf(rng.normal(size=(adj_shape[-3], 3, 3)))
    scale = 1.0 / adj_shape[-3]

    def composite():
        per_relation = h.reshape(h.shape[:-2] + (1,) + h.shape[-2:])
        return _relu(Tensor(adj) @ per_relation @ w).sum(axis=-3) * scale

    _check_fused(lambda: rgcn._relation_layer(adj, h, w, scale), composite, [h, w], 1)


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 1, 4)], ids=["rows", "stacked"])
def test_mlp_matches_composite(x_shape):
    rng = np.random.default_rng(len(x_shape))
    x = leaf(rng.normal(size=x_shape))
    p = flow.MlpParams(
        leaf(rng.normal(size=(4, 3))), leaf(rng.normal(size=3)),
        leaf(rng.normal(size=(3, 2))), leaf(rng.normal(size=2)),
    )

    def composite():
        return _tanh(x @ p.w1 + p.b1) @ p.w2 + p.b2

    leaves = [x, p.w1, p.b1, p.w2, p.b2]
    _check_fused(lambda: flow.mlp_apply(p, x), composite, leaves, 2)


@pytest.mark.parametrize("x_shape", [(5, 3), (2, 4, 3)], ids=["rows", "stacked"])
def test_batch_norm_eval_matches_composite(x_shape):
    rng = np.random.default_rng(len(x_shape))
    state = BatchNormState(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
    x = leaf(rng.normal(size=x_shape))
    gamma, beta = leaf(rng.normal(size=3)), leaf(rng.normal(size=3))

    def fused():
        return ad.batch_norm(x, gamma, beta, state)

    def composite():
        normalized = (x - state.running_mean) / np.sqrt(state.running_var + 1e-5)
        return normalized * gamma + beta

    _check_fused(fused, composite, [x, gamma, beta], 3)



def _batch_norm_composite(x, gamma, beta, state, mask):
    # training-mode batch norm op by op, then the mask multiply that zeroes
    # masked rows: the oracle of the fused training-mode node
    inv_total = 1.0 / mask.sum()
    mean = (x * mask).sum(axis=(0, 1), keepdims=True) * inv_total
    centered = x - mean
    var = (centered * centered * mask).sum(axis=(0, 1), keepdims=True) * inv_total
    state.update(mean.data.reshape(-1), var.data.reshape(-1))
    scale = gamma / _sqrt(var + 1e-5)
    return (centered * scale + beta) * Tensor(mask)


def _masked_stack(seed):
    # a random (S, n, k) stack and 0/1 row mask; odd seeds hold an
    # all-masked slice, and every stack keeps at least one row
    rng = np.random.default_rng(seed)
    s, n, k = int(rng.integers(2, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
    mask = (rng.uniform(size=(s, n, 1)) < 0.6).astype(np.float64)
    if seed % 2:
        mask[0] = 0.0
    mask[-1, 0] = 1.0
    x = leaf(rng.normal(size=(s, n, k)) * 2.0 + 0.5)
    gamma, beta = leaf(1.0 + 0.3 * rng.normal(size=k)), leaf(0.3 * rng.normal(size=k))
    state = BatchNormState(rng.normal(size=k), rng.uniform(0.5, 2.0, size=k))
    return x, gamma, beta, state, mask


def test_batch_norm_train_matches_composite():
    # forward values and running buffers bitwise, gradients to 1e-10 of
    # their largest entry: the closed form sums in another order
    for seed in range(50):
        x, gamma, beta, state, mask = _masked_stack(seed)
        ref_state = BatchNormState(state.running_mean.copy(), state.running_var.copy())
        target = np.random.default_rng(seed + 100).normal(size=x.shape)
        leaves = [x, gamma, beta]
        value, nodes, grads = _value_and_grads(
            lambda: ad.batch_norm(x, gamma, beta, state, mask), leaves, target
        )
        ref_value, _, ref_grads = _value_and_grads(
            lambda: _batch_norm_composite(x, gamma, beta, ref_state, mask), leaves, target
        )
        assert nodes == 3  # the fused node plus the loss's mul and sum
        assert np.array_equal(value, ref_value)
        assert not value[mask[..., 0] == 0.0].any()
        assert np.array_equal(state.running_mean, ref_state.running_mean)
        assert np.array_equal(state.running_var, ref_state.running_var)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-10 * np.abs(ref).max()


def test_elementwise_backward_skips_constant_operands():
    x = leaf([[1.0, 2.0], [3.0, 4.0]])
    c = Tensor([0.5, 2.0])
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        for a, b in ((x, c), (c, x)):
            with Tape() as tape:
                out = op(a, b)
            _, parents, back = tape.nodes[-1]
            grads = back(np.ones_like(out.data))
            assert [g is None for g in grads] == [p is c for p in parents]


def test_adam_first_step_matches_hand_computation():
    p = leaf(np.array([1.0, 2.0]), name="p")
    g = np.array([0.1, -0.2])
    state = AdamState()
    ad.adam_step({"p": p}, {"p": g}, state, lr=0.01)
    # bias-corrected first step is lr * sign-ish update
    m_hat = g  # m/(1-beta1) after one step
    v_hat = g * g
    expect = np.array([1.0, 2.0]) - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(p.data, expect, atol=1e-12)
    assert state.step == 1


def test_adam_rejects_non_finite_gradient():
    p = leaf(np.array([1.0]), name="p")
    with pytest.raises(FloatingPointError):
        ad.adam_step({"p": p}, {"p": np.array([np.nan])}, AdamState(), lr=0.1)


def test_adam_two_steps_stay_deterministic():
    def run():
        p = leaf(np.array([0.5, -0.5]), name="p")
        st_ = AdamState()
        for step in range(2):
            ad.adam_step({"p": p}, {"p": p.data * 0.3 + step}, st_, lr=0.05)
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_grad_check_flags_missing_dependency():
    # part of the value bypasses the tape, so the analytic gradient is
    # wrong by exactly the bypassed term and the check must light up
    x = leaf(1.5)

    def f():
        return x * x + float(x.data) * 3.0

    assert ad.grad_check(f, {"x": x}, h=1e-6) > 1e-2
