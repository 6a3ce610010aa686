"""Tape correctness: every primitive against finite differences or a
closed-form oracle, plus the optimizer and batch-norm bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from graphflow import autodiff as ad
from graphflow import flow, graph, rgcn, rl
from graphflow.autodiff import AdamState, BatchNormState, Tape, Tensor
from graphflow.sampler import SamplerConfig
from oracle_ops import (
    add, clip, concat, div, exp, log, logsumexp, matmul, minimum, mul, relu, reshape, sqrt,
    sub, take, tanh, tensor_sum, weighted_sum,
)


def leaf(data, name=""):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)


def test_scalar_chain_matches_hand_derivative():
    x = leaf(0.7)
    with Tape() as tape:
        y = add(mul(exp(x), tanh(x)), mul(x, x))
        tape.backward(y)
    v = 0.7
    expected = np.exp(v) * np.tanh(v) + np.exp(v) / np.cosh(v) ** 2 + 2 * v
    assert abs(x.grad - expected) < 1e-12


def _every_op(x):
    # one output per op, each reading x; the other operands are constants
    k = Tensor(np.full((2, 3), 3.5))
    m = Tensor(np.eye(3))
    return [
        ad.gaussian_logpdf(x, k, k),
        ad.custom_op(2.0 * x.data, (x,), lambda g: (2.0 * g,)),
        rgcn._embed(np.eye(2), x), rgcn._readout(x),
        # the test-side copies
        add(x, k), sub(x, k), mul(x, k), matmul(x, m), exp(x), clip(x, 3.2, 3.8),
        minimum(x, k), tensor_sum(x, axis=0), concat([x, k], axis=0),
        div(x, k), log(x), reshape(x, (3, 2)), take(x, (np.array([1, 0]),)),
        logsumexp(x, axis=1),
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


def test_backward_runs_only_inside_its_tape():
    # the workspace buffers a backward closure reads are held only until
    # its tape exits, so backward refuses to run on any other tape
    x = leaf([1.0, 2.0])
    with Tape() as tape:
        loss = weighted_sum(x, np.ones(2))
    with pytest.raises(RuntimeError):
        tape.backward(loss)
    with Tape():
        with pytest.raises(RuntimeError):
            tape.backward(loss)
    assert x.grad is None
    with pytest.raises(RuntimeError):
        Tape().backward(loss)


def test_workspace_keeps_backward_buffers_to_tape_exit(monkeypatch):
    # the quadrature keeps y, log Phi(y) and its terms until the tape
    # exits; its backward's slab goes back when the closure returns; the
    # block grows at exit to the most taken at once; no tape, no workspace
    monkeypatch.setattr(Tape, "block", np.empty(0))
    rng = np.random.default_rng(5)
    s_count, d = 6, 4
    mu, alpha = leaf(rng.normal(size=(s_count, d))), leaf(np.exp(rng.normal(size=(s_count, d))))
    actions = rng.integers(0, d, size=s_count)
    u, logw = rl.argmax_region_grid(mu.data, alpha.data, actions)
    base = rl.weight_free_term(u, logw)
    kept = (2 * (d - 1) + 1) * u.size
    with Tape() as tape:
        lp = rl._stacked_action_logprobs(mu, alpha, u, base, actions)
        assert tape.top == tape.kept == tape.need == kept
        tape.backward(weighted_sum(lp, rng.normal(size=s_count)))
        assert (tape.top, tape.kept) == (kept, kept)
        assert tape.need == kept + (d - 1) * u.size
    assert Tape.block.size == tape.need
    assert ad.scratch((3, 2)) is None


def test_poisoned_workspace_changes_no_bit(monkeypatch):
    # NaN over the whole workspace at every tape exit leaves training and
    # fine-tuning bitwise as they were: no op output, gradient or acting
    # log-prob lives in the workspace, and no op reads a buffer before
    # writing it
    def run(poison):
        needs = []
        if poison:
            exit_ = Tape.__exit__

            def poisoned(tape, *exc):
                needs.append((tape.need, Tape.block.size))
                out = exit_(tape, *exc)
                Tape.block.fill(np.nan)
                return out

            monkeypatch.setattr(Tape, "__exit__", poisoned)
        spec = flow.ModelSpec(width=6, layers=2, window=3, max_size=6)
        mols = graph.gen_synthetic_molecules(
            12, 5, spec.vocab, spec.bonds, np.random.default_rng(0)
        )
        params = flow.init_flow_params(spec, np.random.default_rng(1), zero_init_heads=False)
        nll = flow.train(mols, params, spec, flow.TrainConfig(epochs=2, batch_size=8),
                         np.random.default_rng(2))
        scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
        losses = []
        rewards = rl.finetune(
            params, spec, scorer, rl.RewardConfig(), rl.PpoConfig(batch_size=20, updates=2),
            SamplerConfig(temperature=0.8), iterations=1, rng=np.random.default_rng(3),
            log=lambda it, reward, loss: losses.append(loss),
        )
        monkeypatch.undo()
        arrays = [t.data for t in params.named_tensors().values()]
        arrays += list(params.named_buffers().values())
        return [np.asarray(a).tobytes() for a in arrays + [nll, losses, rewards]], needs

    plain, _ = run(poison=False)
    poisoned, needs = run(poison=True)
    assert poisoned == plain
    # most tapes ran wholly inside the (poisoned) block
    assert sum(need <= size for need, size in needs) > len(needs) // 2


def test_grad_check_composite_expression():
    rng = np.random.default_rng(0)
    params = {
        "a": leaf(rng.normal(size=(3, 4))),
        "b": leaf(rng.normal(size=(4, 2))),
        "c": leaf(rng.normal(size=(3, 2))),
    }

    def f():
        h = add(tanh(matmul(params["a"], params["b"])), params["c"])
        return tensor_sum(add(exp(mul(h, 0.3)), mul(h, h)))

    assert ad.grad_check(f, params, h=1e-6) < 1e-7


def test_broadcast_backward_reduces_correctly():
    a = leaf(np.ones((2, 3)))
    b = leaf(np.arange(3.0))
    with Tape() as tape:
        out = tensor_sum(mul(a, b))
        tape.backward(out)
    # d/d b[j] = sum over the broadcast rows
    assert np.array_equal(b.grad, np.full(3, 2.0))
    assert np.array_equal(a.grad, np.tile(np.arange(3.0), (2, 1)))


def test_div_and_sqrt_gradients():
    params = {"x": leaf([0.5, 1.5, 2.5]), "y": leaf([2.0, 3.0, 0.7])}

    def f():
        return tensor_sum(div(params["x"], sqrt(params["y"])))

    assert ad.grad_check(f, params, h=1e-6) < 1e-8


def test_matmul_three_dim_batch():
    rng = np.random.default_rng(1)
    params = {"a": leaf(rng.normal(size=(4, 3, 2))), "w": leaf(rng.normal(size=(2, 5)))}

    def f():
        return tensor_sum(matmul(params["a"], params["w"]))

    assert ad.grad_check(f, params, h=1e-6) < 1e-8


def test_relu_gradient_zero_below_kink():
    x = leaf([-1.0, 2.0])
    with Tape() as tape:
        tape.backward(tensor_sum(relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_clip_gradient_zero_outside_band():
    x = leaf([-2.0, 0.3, 5.0])
    with Tape() as tape:
        tape.backward(tensor_sum(clip(x, -1.0, 1.0)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_minimum_routes_ties_to_first_argument():
    a = leaf([1.0, 3.0, 2.0])
    b = leaf([1.0, 2.0, 4.0])
    with Tape() as tape:
        tape.backward(tensor_sum(minimum(a, b)))
    # equal entries send gradient to a, not b
    assert np.array_equal(a.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(b.grad, [0.0, 1.0, 0.0])


def test_take_accumulates_duplicate_indices():
    x = leaf(np.arange(5.0))
    idx = np.array([1, 1, 4])
    with Tape() as tape:
        tape.backward(tensor_sum(take(x, (idx,))))
    assert np.array_equal(x.grad, [0.0, 2.0, 0.0, 0.0, 1.0])


def test_concat_splits_gradient():
    a = leaf(np.ones((2, 2)))
    b = leaf(np.ones((2, 3)))
    with Tape() as tape:
        out = mul(concat([a, b], axis=1), np.arange(5.0))
        tape.backward(tensor_sum(out))
    assert np.array_equal(a.grad, [[0.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(b.grad, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])


def test_logsumexp_matches_scipy_and_gradient():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(4, 6)) * 3
    x = leaf(data)
    with Tape() as tape:
        out = logsumexp(x, axis=1)
        tape.backward(tensor_sum(out))
    assert np.allclose(out.data, special.logsumexp(data, axis=1), atol=1e-12)
    # gradient of logsumexp is the softmax
    soft = np.exp(data - special.logsumexp(data, axis=1, keepdims=True))
    assert np.allclose(x.grad, soft, atol=1e-12)


def test_logsumexp_extreme_values_stay_finite():
    x = leaf([[-1000.0, -1001.0], [1000.0, 999.0]])
    with Tape() as tape:
        out = logsumexp(x, axis=1)
        tape.backward(tensor_sum(out))
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
        return tensor_sum(ad.gaussian_logpdf(x, params["mu"], params["alpha"]))

    assert ad.grad_check(f, params, h=1e-6) < 1e-7


def test_gaussian_logpdf_rejects_non_positive_scale():
    with pytest.raises(ValueError):
        ad.gaussian_logpdf(Tensor([0.5, 0.5]), Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


def test_backward_requires_scalar():
    x = leaf(np.ones(3))
    with Tape() as tape:
        y = mul(x, 2.0)
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
            tape.backward(mul(x, x))
    assert abs(x.grad - 12.0) < 1e-12  # 3 tapes, d(x^2)/dx = 4 each


def test_accumulate_grads_sums_losses_in_order_and_clears_slots():
    x = leaf([1.0, 2.0])
    y = leaf([[3.0]])
    untouched = leaf(np.ones((2, 3)))
    params = {"x": x, "y": y, "untouched": untouched}
    x.grad = np.full(2, 7.0)  # a stale gradient does not leak in
    grads, values = ad.accumulate_grads(
        params, [lambda: tensor_sum(mul(x, x)), lambda: mul(tensor_sum(mul(x, y)), 2.0)]
    )
    assert values == [5.0, 18.0]
    assert np.array_equal(grads["x"], [8.0, 10.0])  # 2x + 2y
    assert np.array_equal(grads["y"], [[6.0]])  # 2 * sum(x)
    assert np.array_equal(grads["untouched"], np.zeros((2, 3)))
    assert all(p.grad is None for p in params.values())


def test_accumulate_grads_clears_slots_when_a_loss_raises():
    # the first loss's gradient is already in the leaf when the second
    # raises; it must not outlive the call
    w = leaf(np.ones(3))

    def bad():
        raise FloatingPointError("non-finite loss")

    with pytest.raises(FloatingPointError):
        ad.accumulate_grads({"w": w}, [lambda: tensor_sum(mul(w, 2.0)), bad])
    assert w.grad is None


def test_zero_grads_clears_slots():
    x = leaf(1.0)
    with Tape() as tape:
        tape.backward(mul(x, 3.0))
    ad.zero_grads({"x": x})
    assert x.grad is None


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
@settings(max_examples=25, deadline=None)
def test_batch_norm_train_normalizes_rows(n, k):
    rng = np.random.default_rng(n * 31 + k)
    x = Tensor(rng.normal(size=(n, k)) * 3 + 1)
    state = BatchNormState.fresh(k)
    # the (n, k) rows as a one-slice stack with every row unmasked, one segment
    stacked = ad.batch_norm(
        reshape(x, (1, n, k)), Tensor(np.ones(k)), Tensor(np.zeros(k)), state,
        np.ones((1, n, 1)), [slice(None)],
    )
    out = reshape(stacked, (n, k))
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
    out = ad.batch_norm(Tensor(x_data), Tensor(gamma), Tensor(beta), state, mask, [slice(None)])
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
            reshape(params["x"], (1, 5, 3)), params["gamma"], params["beta"], state,
            np.ones((1, 5, 1)), [slice(None)],
        )
        out = reshape(out, (5, 3))
        diff = sub(out, target)
        return tensor_sum(mul(diff, diff))

    assert ad.grad_check(f, params, h=1e-6) < 1e-6
    # a stack with an all-masked slice
    x, gamma, beta, _, mask = _masked_stack(3)
    assert not mask[0].any()
    weights = np.random.default_rng(9).normal(size=x.shape)

    def g():
        out = ad.batch_norm(x, gamma, beta, BatchNormState.fresh(x.shape[-1]), mask, [slice(None)])
        return weighted_sum(out, weights)

    assert ad.grad_check(g, {"x": x, "gamma": gamma, "beta": beta}, h=1e-6) < 1e-6


# --------------------------- fused nodes against their composites


def _value_and_grads(build, leaves, target):
    # output, tape length and every leaf's gradient of sum(build() * target)
    with Tape() as tape:
        out = build()
        tape.backward(weighted_sum(out, target))
    grads = [p.grad for p in leaves]
    ad.zero_grads(leaves)
    return out.data, len(tape.nodes), grads


def _check_bitwise(fused, composite, leaves, seed, one_op=False):
    # one node, bitwise equal to the op-by-op expression in value and in
    # every parent's gradient; a node that stands for a single generic op
    # (one_op) replaces a one-node composite. Returns the loss weights.
    target = np.random.default_rng(seed).normal(size=fused().shape)
    value, nodes, grads = _value_and_grads(fused, leaves, target)
    ref_value, ref_nodes, ref_grads = _value_and_grads(composite, leaves, target)
    assert nodes == 3  # the fused node plus the loss's mul and sum
    assert ref_nodes == nodes if one_op else ref_nodes > nodes
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert g is not None and np.array_equal(g, ref)
    return target


def _check_fused(fused, composite, leaves, seed, one_op=False):
    # _check_bitwise, and right by finite differences
    target = _check_bitwise(fused, composite, leaves, seed, one_op)

    def loss():
        return weighted_sum(fused(), target)

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
        per_relation = reshape(h, h.shape[:-2] + (1,) + h.shape[-2:])
        return mul(tensor_sum(relu(matmul(matmul(adj, per_relation), w)), axis=-3), scale)

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
        return add(matmul(tanh(add(matmul(x, p.w1), p.b1)), p.w2), p.b2)

    leaves = [x, p.w1, p.b1, p.w2, p.b2]
    _check_fused(lambda: flow.mlp_apply(p, x), composite, leaves, 2)


def test_head_input_gather_matches_composite():
    # the edge steps' gather node against three takes and a concat: rows
    # in any order, each once, and two different endpoints per row
    rng = np.random.default_rng(6)
    pooled, h = leaf(rng.normal(size=(6, 3))), leaf(rng.normal(size=(6, 4, 3)))
    emb = rgcn.NodeEmbeddings(H=h, graph_embedding=pooled)
    rows, i, j = np.array([4, 1, 5, 2]), np.array([3, 2, 1, 3]), np.array([0, 1, 0, 2])

    def composite():
        parts = [take(pooled, (rows,)), take(h, (rows, i)), take(h, (rows, j))]
        return concat(parts, axis=-1)

    leaves = [pooled, h]
    _check_fused(lambda: flow._head_inputs(emb, rows, i, j), composite, leaves, 4)


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4)], ids=["rows", "stacked"])
def test_embed_matches_composite(x_shape):
    # one-hot rows whose last two are masked to zero, as in a padded
    # training stack, against the matmul the node replaced: the values,
    # and the embed gradient are bitwise its, and so are the signs of the
    # masked rows' zeros (a row gather times the mask would give -0.0
    # under a negative embed entry)
    rng = np.random.default_rng(len(x_shape) + 10)
    x = np.eye(4)[rng.integers(0, 4, size=x_shape[:-1])]
    x[..., -2:, :] = 0.0
    embed = leaf(rng.normal(size=(4, 3)))

    def fused():
        return rgcn._embed(x, embed)

    def composite():
        return matmul(x, embed)

    _check_fused(fused, composite, [embed], 7, one_op=True)
    out, ref = fused().data, composite().data
    assert not out[..., -2:, :].any()
    assert np.array_equal(np.signbit(out), np.signbit(ref))


@pytest.mark.parametrize("h_shape", [(4, 3), (2, 4, 3)], ids=["one", "stacked"])
def test_readout_matches_composite(h_shape):
    h = leaf(np.random.default_rng(len(h_shape) + 20).normal(size=h_shape))
    _check_fused(lambda: rgcn._readout(h), lambda: tensor_sum(h, axis=-2), [h], 8, one_op=True)


@pytest.mark.parametrize("x_shape", [(6, 4), (3, 2, 4)], ids=["rows", "stacked"])
def test_scale_head_matches_composite(x_shape):
    # raw scales inside the clip band and below it, where the gradient
    # stops, against the head MLP, clip and exp nodes it replaced
    rng = np.random.default_rng(len(x_shape) + 30)
    x = leaf(rng.normal(size=x_shape))
    p = flow.MlpParams(
        leaf(rng.normal(size=(4, 3))), leaf(rng.normal(size=3)),
        leaf(2.0 * rng.normal(size=(3, 2))), leaf(np.array([-8.0, -1.0])),
    )
    raw = flow.mlp_apply(p, x).data
    assert (raw < flow.LOG_ALPHA_MIN).any() and (raw > flow.LOG_ALPHA_MIN).any()

    def composite():
        return exp(clip(flow.mlp_apply(p, x), flow.LOG_ALPHA_MIN, flow.LOG_ALPHA_MAX))

    leaves = [x, p.w1, p.b1, p.w2, p.b2]
    _check_fused(lambda: flow._scale_head(p, x), composite, leaves, 9)
    # above the band too, checked bitwise: exp(7) swamps finite differences
    p.b2.data = np.array([8.0, 1.0])
    assert (flow.mlp_apply(p, x).data > flow.LOG_ALPHA_MAX).any()
    _check_bitwise(lambda: flow._scale_head(p, x), composite, leaves, 9)


def _surrogate_composite(logprobs, gather, acting, adv, weight, clip_ratio, scale):
    # the clipped-ratio surrogate op by op, as rl spelled it before it fused
    ratios = exp(sub(take(concat(logprobs, axis=0), (gather,)), acting))
    unclipped = mul(ratios, adv)
    clipped = mul(clip(ratios, 1.0 - clip_ratio, 1.0 + clip_ratio), adv)
    return mul(tensor_sum(mul(minimum(unclipped, clipped), weight)), scale)


def _exact_log(ratio):
    # some d with np.exp(d) == ratio exactly
    d = np.log(ratio)
    while np.exp(d) != ratio:
        d = np.nextafter(d, np.inf if np.exp(d) < ratio else -np.inf)
    return d


@pytest.mark.parametrize("smooth", [True, False], ids=["smooth", "kinks"])
def test_clipped_surrogate_matches_composite(smooth):
    # two per-kind log-prob tensors over 12 rows, gathered by 16 steps
    # (rows 0, 4, 6 and 11 twice), with ratios exactly at one (where the
    # two terms tie) and exactly on both clip edges. smooth meets each
    # edge from the side where the objective has no kink (the lower edge
    # with a positive advantage, the upper with a negative one), so
    # finite differences hold there; the other side is a kink, where the
    # tie rule and the strict clip interior decide the gradient, checked
    # bitwise only
    rng = np.random.default_rng(40)
    clip_ratio = 0.2
    lo, hi = 1.0 - clip_ratio, 1.0 + clip_ratio
    lp = rng.normal(-1.0, 0.5, size=12)
    acting = lp + rng.normal(0.0, 0.3, size=12)
    adv = rng.normal(size=12)
    acting[:3] = lp[:3]
    lp[3:5], lp[5:7], acting[3:7] = _exact_log(lo), _exact_log(hi), 0.0
    sign = 1.0 if smooth else -1.0
    adv[3:5], adv[5:7] = sign * np.abs(adv[3:5]), -sign * np.abs(adv[5:7])
    gather = np.concatenate([np.arange(12), [0, 4, 6, 11]])
    acting = np.concatenate([acting, lp[gather[12:]] + rng.normal(0.0, 0.3, size=4)])
    adv = np.concatenate([adv, rng.normal(size=4)])
    ratios = np.exp(lp[gather] - acting)
    assert (ratios[:3] == 1.0).all() and (ratios[3:5] == lo).all() and (ratios[5:7] == hi).all()
    parts = [leaf(lp[:5]), leaf(lp[5:])]
    args = (gather, acting, adv, rng.uniform(0.1, 1.0, size=16), clip_ratio, -1.0 / 3.0)

    def fused():
        return rl._clipped_surrogate(parts, *args)

    def composite():
        return _surrogate_composite(parts, *args)

    (_check_fused if smooth else _check_bitwise)(fused, composite, parts, 10)


@pytest.mark.parametrize("x_shape", [(5, 3), (2, 4, 3)], ids=["rows", "stacked"])
def test_batch_norm_eval_matches_composite(x_shape):
    rng = np.random.default_rng(len(x_shape))
    state = BatchNormState(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
    x = leaf(rng.normal(size=x_shape))
    gamma, beta = leaf(rng.normal(size=3)), leaf(rng.normal(size=3))

    def fused():
        return ad.batch_norm(x, gamma, beta, state)

    def composite():
        normalized = div(sub(x, state.running_mean), np.sqrt(state.running_var + 1e-5))
        return add(mul(normalized, gamma), beta)

    _check_fused(fused, composite, [x, gamma, beta], 3)



def _gaussian_composite(x, mu, alpha):
    # the log-density op by op, as autodiff spelled it before it fused
    z = div(sub(x, mu), alpha)
    return add(add(-0.5 * ad.LOG_TWO_PI, mul(-1.0, log(alpha))), mul(mul(-0.5, z), z))


@pytest.mark.parametrize(
    "mu_shape, alpha_shape",
    [((4, 3), (4, 3)), ((1, 3), (4, 3)), ((4, 3), (3,))],
    ids=["rows", "broadcast_mu", "broadcast_alpha"],
)
def test_gaussian_logpdf_matches_composite(mu_shape, alpha_shape):
    rng = np.random.default_rng(len(mu_shape) + len(alpha_shape))
    x = leaf(rng.normal(size=(4, 3)))
    mu = leaf(rng.normal(size=mu_shape))
    alpha = leaf(rng.uniform(0.8, 1.5, size=alpha_shape))

    def fused():
        return ad.gaussian_logpdf(x, mu, alpha)

    _check_fused(fused, lambda: _gaussian_composite(x, mu, alpha), [x, mu, alpha], 5)
    # a constant data point, as the likelihood passes it: no x gradient
    with Tape() as tape:
        tape.backward(tensor_sum(ad.gaussian_logpdf(Tensor(x.data), mu, alpha)))
    assert tape.nodes[0][2](np.ones((4, 3)))[0] is None
    ad.zero_grads([mu, alpha])


def _batch_norm_composite(x, gamma, beta, state, mask):
    # training-mode batch norm op by op, then the mask multiply that zeroes
    # masked rows: the oracle of the fused training-mode node
    inv_total = 1.0 / mask.sum()
    mean = mul(tensor_sum(mul(x, mask), axis=(0, 1), keepdims=True), inv_total)
    centered = sub(x, mean)
    var = mul(tensor_sum(mul(mul(centered, centered), mask), axis=(0, 1), keepdims=True), inv_total)
    state.update(mean.data.reshape(-1), var.data.reshape(-1))
    scale = div(gamma, sqrt(add(var, 1e-5)))
    return mul(add(mul(centered, scale), beta), mask)


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


def test_batch_norm_segments_are_separate_graphs():
    # a stack cut into segments, with one slice in none: each segment's
    # output and x gradient are bitwise those of a call on that segment
    # alone, the buffers fold once per segment in segment order, and the
    # slice outside every segment leaves as zeros with a zero gradient
    rng = np.random.default_rng(11)
    x_data = rng.normal(size=(7, 4, 3)) * 2.0 + 0.5
    mask = (rng.uniform(size=(7, 4, 1)) < 0.6).astype(np.float64)
    mask[:, 0] = 1.0
    gamma, beta = leaf(1.0 + 0.3 * rng.normal(size=3)), leaf(0.3 * rng.normal(size=3))
    target = rng.normal(size=x_data.shape)
    segments = [slice(0, 2), slice(2, 3), slice(4, 7)]
    state = BatchNormState(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
    ref_state = BatchNormState(state.running_mean.copy(), state.running_var.copy())
    x = leaf(x_data)
    with Tape() as tape:
        out = ad.batch_norm(x, gamma, beta, state, mask, segments)
        tape.backward(weighted_sum(out, target))
    assert len(tape.nodes) == 3
    assert not out.data[3].any() and not x.grad[3].any()
    for seg in segments:
        part = leaf(x_data[seg])
        with Tape() as tape:
            ref = ad.batch_norm(part, gamma, beta, ref_state, mask[seg], [slice(None)])
            tape.backward(weighted_sum(ref, target[seg]))
        assert np.array_equal(out.data[seg], ref.data)
        assert np.array_equal(x.grad[seg], part.grad)
    assert np.array_equal(state.running_mean, ref_state.running_mean)
    assert np.array_equal(state.running_var, ref_state.running_var)


def test_batch_norm_train_matches_composite():
    # forward values and running buffers bitwise, gradients to 1e-10 of
    # their largest entry: the closed form sums in another order
    for seed in range(50):
        x, gamma, beta, state, mask = _masked_stack(seed)
        ref_state = BatchNormState(state.running_mean.copy(), state.running_var.copy())
        target = np.random.default_rng(seed + 100).normal(size=x.shape)
        leaves = [x, gamma, beta]
        value, nodes, grads = _value_and_grads(
            lambda: ad.batch_norm(x, gamma, beta, state, mask, [slice(None)]), leaves, target
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
    for op in (add, sub, mul, div):
        for a, b in ((x, c), (c, x)):
            with Tape() as tape:
                out = op(a, b)
            _, parents, back = tape.nodes[-1]
            grads = back(np.ones_like(out.data))
            assert [g is None for g in grads] == [p is c for p in parents]


GENERIC_OPS = (
    "add", "sub", "mul", "div", "matmul", "exp", "log", "clip", "minimum", "tensor_sum",
    "concat", "reshape", "take", "_broadcast_op", "_wrap",
)
TENSOR_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__matmul__", "sum",
)
MODEL_OPS = {
    "_embed", "_relation_layer", "_place", "batch_norm", "_readout", "_head_inputs",
    "mlp_apply", "_scale_head", "gaussian_logpdf", "_negated_total", "_scaled_sum",
    "_stacked_action_logprobs", "_clipped_surrogate",
}


def test_tapes_hold_named_model_ops_only(monkeypatch):
    # autodiff carries no generic op and a Tensor no arithmetic, and every
    # node on the tapes that training and fine-tuning differentiate is
    # one of the model's named ops, defined in graphflow; between them
    # the two runs record each of those ops
    assert [name for name in GENERIC_OPS if hasattr(ad, name)] == []
    assert [name for name in TENSOR_ARITHMETIC if hasattr(Tensor, name)] == []
    seen = set()
    backward = Tape.backward

    def recording(tape, loss):
        seen.update((back.__module__, back.__qualname__.split(".")[0]) for _, _, back in tape.nodes)
        return backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", recording)
    spec = flow.ModelSpec(width=6, layers=1, window=3, max_size=6)
    mols = graph.gen_synthetic_molecules(
        8, 5, spec.vocab, spec.bonds, np.random.default_rng(0)
    )
    params = flow.init_flow_params(spec, np.random.default_rng(1), zero_init_heads=False)
    flow.train(mols, params, spec, flow.TrainConfig(epochs=1, batch_size=8),
               np.random.default_rng(2))
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    rl.finetune(params, spec, scorer, rl.RewardConfig(), rl.PpoConfig(batch_size=4),
                SamplerConfig(temperature=0.8), iterations=1, rng=np.random.default_rng(3))
    assert {module for module, _ in seen} <= {"graphflow.rgcn", "graphflow.flow",
                                              "graphflow.autodiff", "graphflow.rl"}
    assert {op for _, op in seen} == MODEL_OPS


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
        return add(mul(x, x), float(x.data) * 3.0)

    assert ad.grad_check(f, {"x": x}, h=1e-6) > 1e-2
