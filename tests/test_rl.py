"""Reward-guided fine-tuning: action-probability quadrature against the
two-category closed form and Monte Carlo, return/baseline arithmetic,
ratio-objective identities at the acting parameters, clipping, gradient
checks, scorers, and constrained generation."""

import copy
import re
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.special import log_ndtr
from scipy.stats import norm

from graphflow import autodiff as ad
from graphflow import checkpoint as ckpt
from graphflow import flow
from graphflow import graph as G
from graphflow import rgcn
from graphflow import rl
from graphflow.autodiff import Tensor
from graphflow.graph import MolecularGraph, empty_categories
from graphflow.sampler import STEP_DTYPE, SampleTrace, SamplerConfig, sample_molecule
from oracle_ops import action_logprobs, add, clip, concat, div, exp, logsumexp, minimum, mul, one_row_grid, reshape, sub, sum_of, take, tensor_sum, weighted_sum
from oracle_ops import log_ndtr as oracle_log_ndtr

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge


def small_spec(**kw):
    base = dict(width=6, layers=1, window=3, max_size=5)
    base.update(kw)
    return flow.ModelSpec(**base)


def random_params(seed=2, **kw):
    return flow.init_flow_params(small_spec(**kw), np.random.default_rng(seed), zero_init_heads=False)


# ------------------------------------------------- action probabilities


def test_two_category_probability_matches_closed_form():
    # with two categories the argmax probability is Phi applied to the
    # standardized mean gap; quadrature must reproduce its log at every
    # magnitude, to 1e-9 relative. Where |log p| < 1 the bound is 1e-9 in
    # log p, which is 1e-9 relative in p: a log-prob of -1e-30 is 0.0 in
    # float64 once normalized
    rng = np.random.default_rng(0)
    deepest = 0.0
    for _ in range(300):
        mu = rng.normal(0.0, 3.0, size=2)
        alpha = np.exp(rng.uniform(-3.0, 3.0, size=2))
        c = int(rng.integers(2))
        k = 1 - c
        true_lp = norm.logcdf((mu[c] - mu[k]) / np.hypot(alpha[c], alpha[k]))
        got_lp = action_logprobs(mu, alpha)[c]
        assert abs(np.exp(got_lp) - np.exp(true_lp)) < 1e-11
        assert abs(got_lp - true_lp) <= 1e-9 * max(1.0, abs(true_lp))
        deepest = min(deepest, true_lp)
    assert deepest < -250.0  # far below the -30 where the comparison once stopped


def test_far_tail_two_category_logprob_matches_closed_form():
    # a sharp competitor two standard deviations of the sum away from the
    # action: the exact log-probability is about -112.8, and the action
    # wins only beyond u = 14.7
    mu = np.array([0.0, 2.0])
    alpha = np.array([np.exp(-2.0), 1e-3 * np.exp(-2.0)])
    true_lp = log_ndtr(-2.0 / np.hypot(alpha[0], alpha[1]))
    got_lp = action_logprobs(mu, alpha)[0]
    assert abs(got_lp - true_lp) <= 1e-9 * abs(true_lp)


def _fused(mu, alpha, grid_u, grid_logw, actions, temperature=1.0):
    # the quadrature node over a grid from argmax_region_grid, with its
    # weight-free term built as _pack_chunk builds it
    base = rl.weight_free_term(grid_u, grid_logw)
    return rl._stacked_action_logprobs(mu, alpha, grid_u, base, actions, temperature)


def _model_logprobs(mu, alpha, actions):
    # the model path: one grid build over the stack, then the fused node
    u, logw = rl.argmax_region_grid(mu, alpha, actions)
    return _fused(Tensor(mu), Tensor(alpha), u, logw, np.asarray(actions)).data


def _quad_logprob(mu, alpha, c):
    # the argmax-region integral of category c by scipy.integrate.quad,
    # scaled by its maximum so that far-tail rows do not underflow. The
    # mode is found by a bounded scalar search; log phi has curvature -1
    # and each log Phi adds more, so 12 either side of the mode leaves out
    # less than e^-72 of the mass. Breakpoints at each crossover and at 2
    # and 8 of its widths either side: told only the crossover, quad
    # misses a factor that switches over 1e-3 of the interval
    k = np.array([j for j in range(len(mu)) if j != c])
    cross = (mu[k] - mu[c]) / alpha[c]
    width = alpha[k] / alpha[c]

    def log_f(u):
        return -0.5 * u * u + log_ndtr((mu[c] + alpha[c] * u - mu[k]) / alpha[k]).sum()

    top = max(0.0, cross.max()) + (alpha[c] / alpha[k]).sum()
    mode = optimize.minimize_scalar(
        lambda u: -log_f(u), bounds=(0.0, top), method="bounded", options={"xatol": 1e-10}
    ).x
    peak = log_f(mode)
    lo, hi = mode - 12.0, mode + 12.0
    points = (cross[:, None] + width[:, None] * np.array([-8.0, -2.0, 0.0, 2.0, 8.0])).ravel()
    value, _ = integrate.quad(
        lambda u: np.exp(log_f(u) - peak), lo, hi, points=points[(points > lo) & (points < hi)],
        epsabs=0.0, epsrel=1e-13, limit=500,
    )
    return peak - 0.5 * rl.LOG_TWO_PI + np.log(value)


def _assert_logprobs_close(got, want):
    # 1e-9 relative; where |log p| < 1, 1e-9 in log p, which is 1e-9
    # relative in p
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_two_category_logprobs_match_closed_form_down_to_minus_1e4():
    # standardized gaps whose log Phi runs through every decade from
    # -1e-3 to -1e4, with the competitor from sharp (alpha ratio 1e-3) to
    # blunt (10) on either side of SHARP_RATIO, at three scales of the
    # action, each row once as category 0 and once as category 1: one
    # stack through the model path
    gaps = np.array([3.1, 2.33, 1.29, 0.0, -3.9, -13.3, -44.3, -141.3])
    ratios = np.array([1e-3, 0.05, 0.3, 0.49, 0.51, 1.0, 3.0, 10.0])
    x, ratio, scale = (a.ravel() for a in np.meshgrid(gaps, ratios, [0.05, 1.0, 20.0]))
    alpha = np.stack([scale, ratio * scale], axis=1)
    mu = np.stack([np.zeros_like(x), -x * np.hypot(scale, ratio * scale)], axis=1)
    mu, alpha = np.concatenate([mu, mu[:, ::-1]]), np.concatenate([alpha, alpha[:, ::-1]])
    actions = np.repeat([0, 1], len(x))
    true_lp = log_ndtr(np.concatenate([x, x]))
    assert true_lp.max() > -1.1e-3 and true_lp.min() < -0.99e4
    got = _model_logprobs(mu, alpha, actions)
    assert np.all(np.abs(got - true_lp) <= 1e-9 * np.abs(true_lp))


def test_logprobs_match_quad_for_three_to_five_categories():
    # rows with sharp and blunt competitors, plus rows whose action trails
    # the field by 5 to 40 of its scales (log-probs down to about -900)
    rng = np.random.default_rng(26)
    for d in (3, 4, 5):
        mu = rng.normal(0.0, 2.0, size=(14, d))
        alpha = np.exp(rng.uniform(-2.5, 1.5, size=(14, d)))
        actions = rng.integers(0, d, size=14)
        trail = np.arange(10, 14)
        behind = np.array([5.0, 12.0, 25.0, 40.0]) * alpha[trail, actions[trail]]
        mu[trail, actions[trail]] = mu[trail].max(axis=1) - behind
        got = _model_logprobs(mu, alpha, actions)
        want = [_quad_logprob(m, a, c) for m, a, c in zip(mu, alpha, actions)]
        assert min(want) < -100.0
        _assert_logprobs_close(got, want)


def test_stacked_logprobs_match_closed_form():
    # the batched tape path used by the ratio objective, over its own
    # frozen one-row grids
    rng = np.random.default_rng(1)
    for _ in range(100):
        mu = rng.normal(0.0, 3.0, size=2)
        alpha = np.exp(rng.uniform(-3.0, 3.0, size=2))
        c = int(rng.integers(2))
        k = 1 - c
        true_lp = norm.logcdf((mu[c] - mu[k]) / np.hypot(alpha[c], alpha[k]))
        if true_lp <= -30.0:
            continue
        u, logw = rl.argmax_region_grid(mu[None, :], alpha[None, :], [c])
        got = _fused(
            Tensor(mu[None, :]), Tensor(alpha[None, :]), u, logw, np.array([c]),
        )
        assert abs(float(got.data[0]) - true_lp) < 1e-6


def test_action_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        mu = rng.normal(0.0, 4.0, size=d)
        alpha = np.exp(rng.uniform(-4.0, 4.0, size=d))
        p = np.exp(action_logprobs(mu, alpha))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0)


def test_temperature_scales_alpha():
    mu = np.array([0.3, -0.8, 1.1])
    alpha = np.array([0.5, 1.5, 0.9])
    a = action_logprobs(mu, alpha, temperature=0.25)
    b = action_logprobs(mu, alpha * 0.25)
    assert np.allclose(a, b, atol=1e-12)


def test_probabilities_match_monte_carlo():
    rng = np.random.default_rng(3)
    n_draws = 20000
    for mu, alpha in [
        (np.array([0.0, 0.4, -0.3]), np.array([1.0, 0.7, 1.4])),
        (np.array([1.5, 1.2, 1.3]), np.array([0.3, 0.4, 0.2])),
    ]:
        p = np.exp(action_logprobs(mu, alpha))
        z = mu + alpha * rng.standard_normal((n_draws, 3))
        counts = np.bincount(np.argmax(z, axis=1), minlength=3) / n_draws
        sd = np.sqrt(p * (1.0 - p) / n_draws)
        assert np.all(np.abs(counts - p) < 4.0 * sd + 1e-12)


def test_compute_action_logprob_end_to_end():
    # a concrete step state's conditional, through the action
    # probabilities: categories over one step still sum to one
    params = random_params(4)
    g = MolecularGraph(
        np.array([0, 1]),
        np.array([[NO_EDGE, 0], [0, NO_EDGE]]),
        NO_EDGE,
    )
    total = sum(
        np.exp(action_logprobs(*flow.step_conditional(params, g, ("node", 1, -1)))[a])
        for a in range(VOCAB.size)
    )
    assert abs(total - 1.0) < 1e-9
    total = sum(
        np.exp(action_logprobs(*flow.step_conditional(params, g, ("edge", 1, 0)))[a])
        for a in range(BONDS.categories)
    )
    assert abs(total - 1.0) < 1e-9
    with pytest.raises(ValueError):
        flow.step_conditional(params, g, ("ring", 1))


# ------------------------------- fused quadrature against its oracles


def test_log_ndtr_matches_scipy_over_wide_range():
    data = np.linspace(-30.0, 8.0, 200)
    out = oracle_log_ndtr(Tensor(data))
    assert np.allclose(out.data, log_ndtr(data), rtol=1e-12, atol=1e-300)


def test_log_ndtr_gradient_is_exp_ratio():
    params = {"x": Tensor(np.array([-8.0, -2.0, 0.0, 1.5]), requires_grad=True)}

    def f():
        return tensor_sum(oracle_log_ndtr(params["x"]))

    assert ad.grad_check(f, params, h=1e-6) < 1e-7


def _composed_logprobs(mu, alpha, grid_u, grid_logw, actions, temperature=1.0):
    # the temperature product, then the quadrature as a chain of
    # elementwise tape ops over all D columns, the own category masked
    # to zero: the oracle for the fused node's values and gradients. The
    # categories lie on the leading axis, which numpy sums one term at a
    # time in category order; over a trailing axis it sums 8 or more
    # terms pairwise.
    if temperature != 1.0:
        alpha = mul(alpha, np.array(temperature))
    s_count, d = mu.data.shape
    q = grid_u.shape[1]
    rows = np.arange(s_count)
    mu_c = reshape(take(mu, (rows, actions)), (s_count, 1))
    alpha_c = reshape(take(alpha, (rows, actions)), (s_count, 1))
    z_top = add(mu_c, mul(alpha_c, grid_u))
    by_category = (rows[None, :], np.arange(d)[:, None])  # (D, S) transpose
    mu_t = reshape(take(mu, by_category), (d, s_count, 1))
    alpha_t = reshape(take(alpha, by_category), (d, s_count, 1))
    y = div(sub(reshape(z_top, (1, s_count, q)), mu_t), alpha_t)
    log_cdf = oracle_log_ndtr(y)
    keep = np.ones((d, s_count, 1))
    keep[actions, rows, 0] = 0.0
    tail = tensor_sum(mul(log_cdf, keep), axis=0)
    const = grid_logw + (-0.5 * grid_u * grid_u - 0.5 * rl.LOG_TWO_PI)
    return logsumexp(add(tail, const), axis=1)


def _hard_stack(rng, s_count, d, temperature=1.0):
    # rows with ties, an alpha ratio of 1e-3, and rows whose action is
    # far behind a competitor (log-probs near -250 at this temperature)
    mu = rng.normal(0.0, 1.0, size=(s_count, d))
    alpha = np.exp(rng.uniform(-0.7, 0.7, size=(s_count, d)))
    actions = rng.integers(0, d, size=s_count)
    other = (actions + 1) % d
    mu[0, other[0]] = mu[0, actions[0]]  # tie mu_k == mu_c
    alpha[1, other[1]] = 1e-3 * alpha[1, actions[1]]
    mu[1, other[1]] = mu[1, actions[1]] + 0.5 * alpha[1, actions[1]]
    for r, gap in ((2, 20.0), (3, 21.0)):
        alpha[r] = 1.0
        mu[r, other[r]] = mu[r, actions[r]] + gap * np.sqrt(2.0) * temperature
    return mu, alpha, actions


def _logprobs_and_grads(fn, mu, alpha, temperature, u, logw, actions, weights):
    mu_t = Tensor(mu, requires_grad=True)
    alpha_t = Tensor(alpha, requires_grad=True)
    with ad.Tape() as tape:
        lp = fn(mu_t, alpha_t, u, logw, actions, temperature)
        tape.backward(weighted_sum(lp, weights))
    return lp.data, mu_t.grad, alpha_t.grad


def test_fused_logprobs_match_composed_oracle():
    rng = np.random.default_rng(21)
    deepest = 0.0
    for d in range(2, 10):
        for temperature in (1.0, 0.7, 1.3):
            mu, alpha, actions = _hard_stack(rng, 9, d, temperature)
            u, logw = rl.argmax_region_grid(mu, alpha * temperature, actions)
            assert np.any(np.isinf(logw))  # rows of unequal length: padded stack
            weights = rng.normal(size=len(actions))
            args = (mu, alpha, temperature, u, logw, actions, weights)
            lp, g_mu, g_alpha = _logprobs_and_grads(_fused, *args)
            ref, r_mu, r_alpha = _logprobs_and_grads(_composed_logprobs, *args)
            assert np.array_equal(lp, ref)
            deepest = min(deepest, lp.min())
            for got, want in ((g_mu, r_mu), (g_alpha, r_alpha)):
                assert np.all(np.isfinite(got))
                big = np.abs(want) > 1e-8
                assert big.any()
                assert np.all(np.abs(got - want)[big] <= 1e-10 * np.abs(want)[big])
                assert np.all(np.abs(got[~big]) <= 2e-8)
    assert -300.0 < deepest < -200.0


def test_fused_logprobs_record_one_tape_node():
    rng = np.random.default_rng(22)
    mu, alpha, actions = _hard_stack(rng, 6, 4)
    u, logw = rl.argmax_region_grid(mu, alpha, actions)
    mu_t = Tensor(mu, requires_grad=True)
    alpha_t = Tensor(alpha, requires_grad=True)
    with ad.Tape() as tape:
        _fused(mu_t, alpha_t, u, logw, actions)
    assert len(tape.nodes) == 1
    assert tape.nodes[0][1] == (mu_t, alpha_t)


def test_fused_padded_slots_contribute_nothing():
    # whatever sits under a -inf log-weight changes no bit of the values
    # or gradients; each row agrees with its own unpadded one-row call
    rng = np.random.default_rng(23)
    mu, alpha, actions = _hard_stack(rng, 8, 5)
    u, logw = rl.argmax_region_grid(mu, alpha, actions)
    pad = np.isinf(logw)
    assert pad.any()
    moved = u.copy()
    moved[pad] = 7.0
    weights = rng.normal(size=len(actions))
    base = _logprobs_and_grads(_fused, mu, alpha, 1.0, u, logw, actions, weights)
    other = _logprobs_and_grads(_fused, mu, alpha, 1.0, moved, logw, actions, weights)
    for a, b in zip(base, other):
        assert np.all(np.isfinite(a))
        assert np.array_equal(a, b)
    lp, g_mu, g_alpha = base
    for r in range(len(actions)):
        q = np.count_nonzero(~pad[r])
        one = _logprobs_and_grads(
            _fused, mu[r : r + 1], alpha[r : r + 1], 1.0,
            u[r : r + 1, :q], logw[r : r + 1, :q], actions[r : r + 1], weights[r : r + 1],
        )
        assert abs(one[0][0] - lp[r]) <= 1e-12 * abs(lp[r])
        for got, want in ((g_mu[r], one[1][0]), (g_alpha[r], one[2][0])):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max() + 1e-300)


def test_fused_gradient_matches_finite_differences():
    rng = np.random.default_rng(24)
    for d in (3, 4):
        mu = rng.normal(0.0, 1.0, size=(5, d))
        alpha = np.exp(rng.uniform(-0.5, 0.5, size=(5, d)))
        actions = rng.integers(0, d, size=5)
        u, logw = rl.argmax_region_grid(mu, alpha, actions)
        weights = rng.normal(size=5)
        named = {"mu": Tensor(mu, requires_grad=True), "alpha": Tensor(alpha, requires_grad=True)}

        def loss():
            lp = _fused(named["mu"], named["alpha"], u, logw, actions)
            return weighted_sum(lp, weights)

        assert ad.grad_check(loss, named, h=1e-5) < 1e-5


def test_stacked_grids_match_one_row_calls_bitwise():
    rng = np.random.default_rng(25)
    for trial in range(60):
        d = int(rng.integers(2, 6))
        mu = rng.normal(0.0, 3.0, size=(7, d))
        alpha = np.exp(rng.uniform(-4.0, 3.0, size=(7, d)))
        mu[0, 1] = mu[0, 0]  # tie
        mu[1, -1] = mu[1, 0] + 300.0  # far crossovers: the mass lies far out
        mu[2, -1] = mu[2, 0] - 300.0  # on either side of u = 0
        alpha[3, 0] = 1e-3 * alpha[3, 1]
        actions = rng.integers(0, d, size=7)
        if d > 2:
            # two sharp competitors whose crossovers lie 5e-11 apart (row 5:
            # the second one's edges inside the bracket stay) and 3e-13
            # apart (row 6: they are dropped against the first one's)
            actions[5:] = 0
            alpha[5, 1:3] = 1e-3 * alpha[5, 0]
            mu[5, 1] = mu[5, 0] + 0.5 * alpha[5, 0]
            mu[5, 2] = mu[5, 1] + 5e-11 * alpha[5, 0]
            mu[5, 3:] = mu[5, 0] - 50.0 * alpha[5, 3:]  # never in contention
            mu[6], alpha[6] = mu[5], alpha[5]
            mu[6, 2] = mu[6, 1] + 3e-13 * alpha[6, 0]
        mu[4] = mu[5]  # duplicate rows with different actions
        alpha[4] = alpha[5]
        u, logw = rl.argmax_region_grid(mu, alpha, actions)
        lengths = np.count_nonzero(logw > -np.inf, axis=1)
        assert u.shape[1] == lengths.max()
        if d > 2:
            assert lengths[5] > lengths[6]
        for r in range(7):
            q = lengths[r]
            assert np.all(u[r, q:] == 0.0) and np.all(logw[r, q:] == -np.inf)
            one_u, one_w = rl.argmax_region_grid(
                mu[r : r + 1], alpha[r : r + 1], actions[r : r + 1]
            )
            assert np.array_equal(one_u[0], u[r, :q]) and np.array_equal(one_w[0], logw[r, :q])
            ref_u, ref_w = one_row_grid(mu[r], alpha[r], actions[r])
            assert np.array_equal(ref_u, u[r, :q]) and np.array_equal(ref_w, logw[r, :q])


def test_grid_size_guard_on_seeded_stack():
    # the _hard_stack rows and 16 episodes from the w16l2 model at the
    # benchmark's shape, per step kind (D = 3 and 4). A row's grid is
    # GRID_PANELS panels of 8 nodes plus at most five refinement panels
    # per sharp competitor, so rows without one have 80 nodes; the
    # episodes' longest row stays within 144 (the fixed grid had 176 and
    # 216), and every row's log-prob matches quad
    spec = flow.ModelSpec(width=16, layers=2, window=12, max_size=12)
    params = flow.init_flow_params(spec, np.random.default_rng(0), zero_init_heads=False)
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    trajs, _ = rl.collect_trajectories(
        params, spec, SamplerConfig(), rl.RewardConfig(), scorer, 16,
        np.random.default_rng(1),
    )
    steps = np.concatenate([t.trace.steps for t in trajs])
    rng = np.random.default_rng(27)
    for kind, d in (("node", VOCAB.size), ("edge", BONDS.categories)):
        assert d <= 4
        chunk = np.concatenate([t.trace.rows[kind] for t in trajs])
        hard_mu, hard_alpha, hard_actions = _hard_stack(rng, 9, d)
        mu = np.concatenate([hard_mu, chunk[:, 0]])
        alpha = np.concatenate([hard_alpha, chunk[:, 1]])
        actions = np.concatenate([hard_actions, steps["action"][steps["kind"] == kind]])
        u, logw = rl.argmax_region_grid(mu, alpha, actions)
        nodes = np.count_nonzero(logw > -np.inf, axis=1)
        rows = np.arange(len(actions))
        ratio = np.delete(alpha, actions + d * rows).reshape(-1, d - 1) / alpha[rows, actions][:, None]
        sharp = np.count_nonzero(ratio < rl.SHARP_RATIO, axis=1)
        assert np.all(nodes <= 8 * (rl.GRID_PANELS + 5 * sharp))
        assert np.all(nodes[sharp == 0] == 8 * rl.GRID_PANELS)
        assert nodes[9:].max() <= 144
        want = [_quad_logprob(m, a, c) for m, a, c in zip(mu, alpha, actions)]
        _assert_logprobs_close(_model_logprobs(mu, alpha, actions), want)


# ------------------------------------------------- returns and baselines


def _fake_trace(rejections):
    # node steps only: rewards read nothing but the rejections column
    steps = np.array([("node", t, -1, 0, r) for t, r in enumerate(rejections)], STEP_DTYPE)
    return SampleTrace(
        steps.view(np.recarray), rows={}, termination="max-size", graph=None, seed=b""
    )


def _returns(rejections, final_reward, gamma):
    # linear shaping with t1 = 1: the shaped reward is the score itself
    rcfg = rl.RewardConfig(gamma=gamma, shaping="linear", t1=1.0)
    return rl.build_trajectory(_fake_trace(rejections), rcfg, final_reward).returns


def test_returns_recursion_hand_case():
    g2 = -2.0 + 5.0
    g1 = 0.0 + 0.5 * g2
    g0 = -1.0 + 0.5 * g1
    assert _returns([1, 0, 2], final_reward=5.0, gamma=0.5).tolist() == [g0, g1, g2]


@settings(max_examples=100, deadline=None)
@given(
    rejections=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    reward=st.floats(-5, 5),
    gamma=st.floats(0.1, 1.0),
)
def test_returns_satisfy_recursion(rejections, reward, gamma):
    rets = _returns(rejections, reward, gamma)
    pens = [rl.VALIDITY_PENALTY * r for r in rejections]
    last = len(rets) - 1
    assert rets[last] == pytest.approx(pens[last] + reward, abs=1e-9)
    for t in range(last):
        assert rets[t] == pytest.approx(pens[t] + gamma * rets[t + 1], abs=1e-9)


def test_baseline_updates():
    b = rl.StepBaselines()
    assert b.get(0) == 0.0

    def traj_with_returns(rets):
        return rl.Trajectory(
            trace=_fake_trace([0] * len(rets)), final_reward=0.0, returns=np.array(rets),
        )

    batch = [traj_with_returns([2.0, 4.0]), traj_with_returns([6.0])]
    b.update_from_batch(batch)
    # first batch initializes positions to the batch means outright
    assert b.get(0) == pytest.approx(4.0)
    assert b.get(1) == pytest.approx(4.0)
    b.update_from_batch([traj_with_returns([8.0])])
    assert b.get(0) == pytest.approx(0.9 * 4.0 + 0.1 * 8.0)
    assert b.get(1) == pytest.approx(4.0)  # untouched position keeps its value
    # constant-reward batches zero the very next advantage
    b2 = rl.StepBaselines()
    batch = [traj_with_returns([3.0]), traj_with_returns([3.0])]
    b2.update_from_batch(batch)
    assert np.allclose(b2.advantages(batch[0]), [0.0])


def test_reward_config_shaping_and_validation():
    lin = rl.RewardConfig(gamma=0.9, shaping="linear", t1=4.0)
    assert lin.shape(0.5) == pytest.approx(2.0)
    ex = rl.RewardConfig(gamma=0.9, shaping="exp", t2=2.0)
    assert ex.shape(3.0) == pytest.approx(np.exp(1.5))
    with pytest.raises(ValueError):
        rl.RewardConfig(gamma=0.0)
    with pytest.raises(ValueError):
        rl.RewardConfig(gamma=0.9, shaping="quadratic")
    with pytest.raises(ValueError):
        rl.RewardConfig(gamma=0.9, t2=0.0)
    with pytest.raises(ValueError):
        rl.PpoConfig(clip_ratio=0.0)


def test_reward_shaping_overflow_is_a_numerical_failure():
    # exp(5 / 0.001) overflows a float: the shaped reward must fail with
    # both numbers named instead of escaping as a math range error
    ex = rl.RewardConfig(gamma=0.9, shaping="exp", t2=0.001)
    with pytest.raises(FloatingPointError, match=r"score 5\.0 .*t2 0\.001"):
        ex.shape(5.0)
    assert ex.shape(0.5) == pytest.approx(np.exp(500.0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("updates", 0),
        ("batch_size", 0),
        ("lr", -1.0),
        ("lr", 0.0),
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("warmup", -3),
        ("clip_ratio", 1.5),
        ("clip_ratio", 1.0),
    ],
)
def test_ppo_config_rejects_out_of_range_values(field, value):
    # PpoConfig owns the ranges of the rl_* keys it is built from
    with pytest.raises(ValueError, match=field):
        rl.PpoConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("t1", float("nan")),
        ("t1", float("inf")),
        ("t2", float("nan")),
        ("t2", float("inf")),
        ("t2", -1.0),
    ],
)
def test_reward_config_rejects_non_finite_temperatures(field, value):
    # NaN fails every comparison, so a range check alone lets it through
    with pytest.raises(ValueError, match=field):
        rl.RewardConfig(shaping="exp", **{field: value})


def test_ppo_config_accepts_boundary_values():
    cfg = rl.PpoConfig(clip_ratio=0.99, updates=1, batch_size=1, lr=1e-12, warmup=0)
    assert (cfg.updates, cfg.batch_size, cfg.warmup) == (1, 1, 0)


# -------------------------------------------- trajectories and objective


def collect_small(params, spec, count=3, seed=9, reward_cfg=None, sampler_cfg=None):
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    rcfg = reward_cfg or rl.RewardConfig(gamma=0.9, shaping="linear", t1=1.0)
    scfg = sampler_cfg or SamplerConfig()
    return rl.collect_trajectories(
        params, spec, scfg, rcfg, scorer, count, np.random.default_rng(seed)
    )


def chunk_logprobs(params, trajs, temperature=1.0):
    """Each step's log-prob from one pass of every chunk that _ppo_losses
    builds over trajs, in trace order with the trajectories end to end:
    its row gathered from its chunk's log-probs. Every step is scored by
    exactly one chunk."""
    losses = rl._ppo_losses(params, trajs, [t.returns for t in trajs], rl.PpoConfig(), temperature)
    lp = np.full(sum(t.num_steps for t in trajs), np.nan)
    for f in losses:
        chunk = f.args[1]
        rows = np.concatenate([x.data for x in rl._chunk_logprobs(params, chunk)])
        assert np.isnan(lp[chunk.steps]).all()
        lp[chunk.steps] = rows[chunk.gather]
    assert not np.isnan(lp).any()
    return lp


def acting_logprobs(loss):
    """The acting log-probs a chunk loss of _ppo_losses holds, one per
    step in chunk.steps order. Its first call fixes them; if none has
    run yet, it runs here, on a tape as in the first update pass, at the
    weights the loss was built with."""
    acting = loss.args[2]
    if not acting:
        with ad.Tape():
            loss()
    return acting[0]


def held_acting(params, trajs, temperature=1.0):
    """The acting log-probs the chunk losses that _ppo_losses builds over
    trajs at params hold, in trace order with the trajectories end to
    end."""
    advantages = [t.returns for t in trajs]
    losses = rl._ppo_losses(params, trajs, advantages, rl.PpoConfig(), temperature)
    held = np.full(sum(t.num_steps for t in trajs), np.nan)
    for f in losses:
        held[f.args[1].steps] = acting_logprobs(f)
    assert not np.isnan(held).any()
    return held


def with_acting(loss, trajs, shift):
    """A chunk loss of _ppo_losses over the batch trajs with its acting
    log-probs moved by shift(traj), an array in trace order."""
    params, chunk, _, *rest = loss.args
    moved = acting_logprobs(loss) + np.concatenate([shift(t) for t in trajs])[chunk.steps]
    return partial(rl._chunk_loss, params, chunk, [moved], *rest)


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of at most 48 rows, so that small batches span several."""
    monkeypatch.setattr(rl, "PPO_CHUNK_ROWS", 48)


@pytest.fixture
def chunk_counts(monkeypatch):
    """The chunk count of each batch _ppo_losses packs, as it packs it,
    each checked to be the fewest chunks of PPO_CHUNK_ROWS rows that
    hold the batch's distinct rows."""
    counts = []
    losses = rl._ppo_losses

    def recording(*args):
        out = losses(*args)
        rows = sum(len(f.args[1].pack.steps) for f in out)
        assert len(out) == -(-rows // rl.PPO_CHUNK_ROWS)
        counts.append(len(out))
        return out

    monkeypatch.setattr(rl, "_ppo_losses", recording)
    return counts


def test_collected_logprobs_reproduce_bitwise():
    # the ratio objective re-evaluates acting log-probs over the frozen
    # grids; at unchanged parameters the values must match exactly, which
    # is what makes every starting ratio equal one
    spec = small_spec()
    params = random_params(2)
    trajs, failures = collect_small(params, spec)
    assert failures == 0
    assert len(trajs) == 3
    assert np.array_equal(chunk_logprobs(params, trajs), held_acting(params, trajs))


def _reference_logprobs(params, traj, temperature):
    # one trajectory, one step at a time: the step's own encoder call and
    # heads, on the active tape if there is one, and a one-row quadrature
    # over a one-row grid from the acting mu and alpha; one (1,) tensor
    # per step
    out = []
    rows = {kind: iter(block) for kind, block in traj.trace.rows.items()}
    for s in traj.trace.steps:
        step = ("node", s.i) if s.kind == "node" else ("edge", s.i, s.j)
        m = rgcn.state_nodes(step)
        if m == 0:
            x = Tensor(np.zeros((1, params.rgcn.width)))
        else:
            emb = rgcn.encode(traj.trace.graph.prefix(m), [step], params.rgcn)
            ends = ([m - 1], [s.j]) if s.kind == "edge" else ()
            x = flow._head_inputs(emb, [0], *ends)
        head = flow.node_conditional if s.kind == "node" else flow.edge_conditional
        mu, alpha = head(params, x)
        acting_mu, acting_alpha = next(rows[s.kind])
        u, logw = rl.argmax_region_grid(
            acting_mu[None], acting_alpha[None] * temperature, [s.action]
        )
        out.append(_fused(mu, alpha, u, logw, np.array([s.action]), temperature))
    return out


def _assert_chunk_matches_reference(params, trajs, temperature, acting_params=None):
    # acting_params: the weights the trajectories were collected with,
    # when params are not those weights
    lp = chunk_logprobs(params, trajs, temperature)
    ref = np.concatenate([x.data for t in trajs for x in _reference_logprobs(params, t, temperature)])
    assert np.abs(lp - ref).max() < 1e-12
    stored = held_acting(acting_params or params, trajs, temperature)
    if acting_params is None:
        assert np.abs(lp - stored).max() < 1e-12
    else:
        assert np.abs(lp - stored).max() > 1e-6


def test_chunk_logprobs_match_per_step_reference():
    spec = small_spec()
    params = random_params(3)
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    seed_graph = MolecularGraph(np.array([0, 0]), cats, NO_EDGE)
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    scfg = SamplerConfig(temperature=0.8)
    seeded, _ = rl.collect_trajectories(
        params, spec, scfg, rl.RewardConfig(), scorer, 3,
        np.random.default_rng(7), seeds=[seed_graph],
    )
    plain, _ = rl.collect_trajectories(
        params, spec, scfg, rl.RewardConfig(), scorer, 3, np.random.default_rng(8)
    )
    assert len(seeded) == 3 and len(plain) == 3
    _assert_chunk_matches_reference(params, seeded + plain, 0.8)

    # weights moved after collection: the grids still come from the
    # acting mu and alpha in the trace, not from the current heads
    moved = copy.deepcopy(params)
    moved.node_mu.b2.data += np.linspace(-0.5, 0.5, moved.node_mu.b2.data.size)
    moved.edge_mu.b2.data += np.linspace(0.4, -0.4, moved.edge_mu.b2.data.size)
    moved.node_scale.b2.data += 0.3
    moved.edge_scale.b2.data -= 0.2
    _assert_chunk_matches_reference(moved, seeded + plain, 0.8, acting_params=params)

    # a no-bonds episode: the dropped node's steps are scored on the trace graph
    nb_spec = small_spec(max_size=3)
    nb_params = flow.init_flow_params(nb_spec, np.random.default_rng(0))
    nb_params.node_mu.b2.data[VOCAB.index("O")] = 50.0
    nb_params.edge_mu.b2.data[BONDS.category_of(3)] = 50.0
    trajs, _ = rl.collect_trajectories(
        nb_params, nb_spec, SamplerConfig(valency_check=True, max_resample=7),
        rl.RewardConfig(), scorer, 2, np.random.default_rng(1),
    )
    assert trajs and all(t.trace.termination == "no-bonds" for t in trajs)
    assert all(t.trace.graph.n == sum(s.kind == "node" for s in t.trace.steps) for t in trajs)
    _assert_chunk_matches_reference(nb_params, trajs, 1.0)


def test_acting_logprobs_reproduce_bitwise_across_chunks(small_chunks):
    # more rows than one chunk: every chunk re-evaluated at the acting
    # parameters gives back the acting values the loss holds exactly
    spec = small_spec()
    params = random_params(4)
    trajs, _ = collect_small(params, spec, count=20, seed=10,
                             sampler_cfg=SamplerConfig(temperature=1.3))
    advantages = [t.returns for t in trajs]
    assert len(rl._ppo_losses(params, trajs, advantages, rl.PpoConfig(), 1.3)) >= 2
    assert np.array_equal(chunk_logprobs(params, trajs, 1.3), held_acting(params, trajs, 1.3))


def test_chunk_pack_matches_fresh_encoder_pass_bitwise():
    # a chunk's stored encoder pack (mixed-size states of several
    # graphs) gives the pass an unpacked call gives, after the weights
    # moved too; a pack is checked against the steps it is handed with
    spec = small_spec()
    params = random_params(6)
    trajs, _ = collect_small(params, spec, count=6, seed=11)
    [loss] = rl._ppo_losses(params, trajs, [t.returns for t in trajs], rl.PpoConfig(), 1.0)
    pack = loss.args[1].pack
    assert len({id(g) for g in pack.graphs}) > 1
    assert len(pack.groups) > 1
    for shift in (0.0, 0.2):
        params.rgcn.layers[0].data += shift
        stored = rgcn.encode_step_batch(pack.graphs, pack.steps, params.rgcn, pack=pack)
        fresh = rgcn.encode_step_batch(pack.graphs, pack.steps, params.rgcn)
        assert np.array_equal(stored.H.data, fresh.H.data)
        assert np.array_equal(stored.graph_embedding.data, fresh.graph_embedding.data)
    with pytest.raises(ValueError):
        rgcn.encode_step_batch(pack.graphs[1:], pack.steps[1:], params.rgcn, pack=pack)


@pytest.mark.parametrize("temperature", [1.0, 0.8])
def test_ppo_chunk_tape_length(temperature):
    # a 64-episode batch at the benchmark's shape (width 16, two layers,
    # window 12). Each chunk's tape holds, per node count of its states
    # (the empty prefix has none), an embedding product and two layers,
    # then the placement, batch norm, readout, per step kind a gather, a
    # mean head, a scale head and one quadrature node (the temperature
    # folded in), and one surrogate node. The rows are sorted by node
    # count before they are cut, so a pass over the batch encodes at
    # most one group per node count plus one per cut between chunks
    spec = flow.ModelSpec(width=16, layers=2, window=12, max_size=12)
    params = flow.init_flow_params(spec, np.random.default_rng(0), zero_init_heads=False)
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    trajs, _ = rl.collect_trajectories(
        params, spec, SamplerConfig(temperature=temperature), rl.RewardConfig(), scorer,
        64, np.random.default_rng(1),
    )
    assert len(trajs) == 64
    losses = rl._ppo_losses(params, trajs, [t.returns for t in trajs], rl.PpoConfig(), temperature)
    rows = sum(len(f.args[1].pack.steps) for f in losses)
    assert len(losses) == -(-rows // rl.PPO_CHUNK_ROWS) >= 3
    embeds, counts = 0, set()
    for loss in losses:
        chunk = loss.args[1]
        sizes = {rgcn.state_nodes(step) for step in chunk.pack.steps} - {0}
        assert [kind for kind, *_ in chunk.kinds] == ["node", "edge"]
        with ad.Tape() as tape:
            loss()
        ops = Counter(back.__qualname__.split(".")[0] for _, _, back in tape.nodes)
        per_kind = {"_head_inputs": 2, "mlp_apply": 2, "_scale_head": 2, "_stacked_action_logprobs": 2}
        assert dict(ops) == {
            "_embed": len(sizes), "_relation_layer": 2 * len(sizes), "_place": 1,
            "batch_norm": 1, "_readout": 1, **per_kind, "_clipped_surrogate": 1,
        }
        embeds += ops["_embed"]
        counts |= sizes
    steps = np.concatenate([t.trace.steps for t in trajs])
    assert counts == set((steps["i"] + (steps["kind"] == "edge")).tolist()) - {0}
    assert len(counts) >= 11
    assert embeds <= len(counts) + len(losses) - 1


def test_workspace_stays_within_the_largest_tape_need(monkeypatch, chunk_counts):
    # a 3-iteration fine-tuning run whose chunks differ in state count:
    # after every tape the workspace holds exactly the most elements one
    # tape had taken at once so far, which is less than that tape's
    # requests summed; a pool keyed by shape would grow with every new S
    monkeypatch.setattr(ad.Tape, "block", np.empty(0))
    requested, tapes = [0], []
    scratch = ad.scratch

    def counting(shape, keep=False):
        requested[0] += int(np.prod(shape))
        return scratch(shape, keep)

    exit_ = ad.Tape.__exit__

    def recording(tape, *exc):
        out = exit_(tape, *exc)
        tapes.append((tape.need, requested[0], ad.Tape.block.size))
        requested[0] = 0
        return out

    monkeypatch.setattr(ad, "scratch", counting)
    monkeypatch.setattr(ad.Tape, "__exit__", recording)
    spec = flow.ModelSpec(width=8, layers=2, window=4, max_size=8)
    params = flow.init_flow_params(spec, np.random.default_rng(0), zero_init_heads=False)
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    rl.finetune(
        params, spec, scorer, rl.RewardConfig(), rl.PpoConfig(batch_size=48, updates=2),
        SamplerConfig(), iterations=3, rng=np.random.default_rng(1),
    )
    needs = [need for need, _, _ in tapes]
    # one tape per chunk and update pass
    assert len(chunk_counts) == 3 and min(chunk_counts) >= 2
    assert len(tapes) == 2 * sum(chunk_counts) and len(set(needs)) > 4
    for t, (need, total, size) in enumerate(tapes):
        assert size == max(needs[: t + 1])
        assert need < total


def batch_loss(params, trajs, baselines, cfg):
    """The batch surrogate loss as a zero-argument callable: the sum of
    the update's chunk losses, with acting log-probs read at params now,
    built on whatever tape is active when it is called."""
    advantages = [baselines.advantages(t) for t in trajs]
    losses = rl._ppo_losses(params, trajs, advantages, cfg, 1.0)
    return lambda: sum_of([f() for f in losses])


def test_ppo_loss_at_acting_params_is_mean_advantage():
    spec = small_spec()
    params = random_params(2)
    trajs, _ = collect_small(params, spec)
    baselines = rl.StepBaselines()
    baselines.update_from_batch(trajs)
    cfg = rl.PpoConfig()
    loss = batch_loss(params, trajs, baselines, cfg)()
    expected = -np.mean([baselines.advantages(t).mean() for t in trajs])
    assert abs(float(loss.data) - expected) < 1e-12
    with pytest.raises(ValueError):
        rl._ppo_losses(params, [], [], cfg, 1.0)


def test_clipping_hand_case():
    # shifting every acting log-prob by -log 2 makes each ratio exactly 2:
    # positive advantages clip at 1 + eps, negative ones keep the full
    # ratio through the min
    spec = small_spec()
    params = random_params(2)
    trajs, _ = collect_small(params, spec)
    cfg = rl.PpoConfig(clip_ratio=0.2)
    baselines = rl.StepBaselines()  # empty: advantages equal raw returns
    advantages = [baselines.advantages(t) for t in trajs]
    [loss] = rl._ppo_losses(params, trajs, advantages, cfg, 1.0)
    halved = with_acting(loss, trajs, lambda t: np.full(t.num_steps, -np.log(2.0)))
    expected_terms = []
    for traj in trajs:
        adv = traj.returns
        terms = np.where(adv > 0, 1.2 * adv, 2.0 * adv)
        expected_terms.append(terms.mean())
    expected = -np.mean(expected_terms)
    assert abs(float(halved().data) - expected) < 1e-9


def test_ppo_loss_gradients_match_finite_differences():
    spec = small_spec()
    params = random_params(2)
    trajs, _ = collect_small(params, spec)
    baselines = rl.StepBaselines()
    cfg = rl.PpoConfig()
    named = params.named_tensors()
    assert ad.grad_check(batch_loss(params, trajs, baselines, cfg), named, h=1e-5) < 1e-4


def test_chunked_ppo_gradient_matches_finite_differences_at_temperature(small_chunks):
    # the production update's gradient, through the fused quadrature
    # backward, over two chunks at a temperature other than one
    spec = small_spec()
    params = random_params(6)
    trajs, _ = collect_small(params, spec, count=20, seed=13,
                             sampler_cfg=SamplerConfig(temperature=1.3))
    assert len(trajs) == 20
    baselines = rl.StepBaselines()
    baselines.update_from_batch(trajs[:6])
    advantages = [baselines.advantages(t) for t in trajs]
    losses = rl._ppo_losses(params, trajs, advantages, rl.PpoConfig(), 1.3)
    assert len(losses) == 2
    named = params.named_tensors()

    def loss():
        return sum_of([f() for f in losses])

    assert ad.grad_check(loss, named, h=1e-5) < 1e-4


def test_chunked_update_gradient_matches_one_tape_gradient(small_chunks):
    # the gradient finetune applies (one tape per chunk, summed in the
    # leaves) equals the gradient of the summed chunk losses on one tape
    spec = small_spec()
    params = random_params(5)
    trajs, _ = collect_small(params, spec, count=24, seed=11,
                             sampler_cfg=SamplerConfig(temperature=1.3))
    assert len(trajs) >= 20
    baselines = rl.StepBaselines()
    baselines.update_from_batch(trajs[:5])
    advantages = [baselines.advantages(t) for t in trajs]
    cfg = rl.PpoConfig()

    def shift(traj):  # ratios away from one, so some steps clip
        return np.where(np.arange(traj.num_steps) % 2, 0.4, -0.4)

    losses = [with_acting(f, trajs, shift) for f in rl._ppo_losses(params, trajs, advantages, cfg, 1.3)]
    assert len(losses) >= 2
    named = params.named_tensors()
    grads, values = ad.accumulate_grads(named, losses)
    with ad.Tape() as tape:
        total = sum_of([f() for f in losses])
        tape.backward(total)
    assert abs(sum(values) - float(total.data)) < 1e-12
    # every trajectory counted once: the mean of one-trajectory objectives
    alone = [
        float(with_acting(rl._ppo_losses(params, [t], [a], cfg, 1.3)[0], [t], shift)().data)
        for t, a in zip(trajs, advantages)
    ]
    assert abs(sum(values) - np.mean(alone)) < 1e-12
    assert any(np.any(g != 0.0) for g in grads.values())
    for name, p in named.items():
        ref = np.zeros_like(p.data) if p.grad is None else p.grad
        assert np.abs(grads[name] - ref).max() < 1e-12, name
    ad.zero_grads(named)


def _graph_byte_key(trace, s):
    # the rule the update's rows were keyed by before they were keyed by
    # history: plan step, action, and the bytes the state sees of the
    # trace graph, node_types[:m] plus the decided entries of the strict
    # lower triangle (rows before i, then row i before j) in row order
    step = ("node", s.i) if s.kind == "node" else ("edge", s.i, s.j)
    rows, cols = np.tril_indices(trace.graph.n, -1)
    decided = (rows < s.i) | ((rows == s.i) & (cols < max(s.j, 0)))
    seen = trace.graph.categories[rows[decided], cols[decided]]
    types = trace.graph.node_types[: rgcn.state_nodes(step)]
    return step, s.action, types.tobytes() + seen.tobytes()


def test_distinct_rows_are_the_graph_byte_rows():
    # two steps share a row exactly when their plan steps, actions and
    # graph-byte keys are equal, over plain and seeded episodes in one
    # batch under a window that binds (3 < max_size - 1); seeds of several
    # sizes and unseeded walks reach some states in common
    spec = small_spec(max_size=7)
    params = random_params(7, max_size=7)
    mols = G.gen_synthetic_molecules(4, 6, VOCAB, BONDS, np.random.default_rng(15))
    seeds = [G.bfs_reorder(m, 0)[0].prefix(n).copy() for m in mols for n in (1, 2, 3) if n <= m.n]
    seeds = [g for g in seeds if G.max_dependency_distance(g) <= spec.window]
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    seeded, _ = rl.collect_trajectories(
        params, spec, SamplerConfig(), rl.RewardConfig(), scorer, 24,
        np.random.default_rng(16), seeds=seeds,
    )
    plain, _ = collect_small(params, spec, count=24, seed=17)
    traces = [t.trace for t in seeded + plain]
    row_of, heads = rl._distinct_rows(params, traces)
    keys = [_graph_byte_key(trace, s) for trace in traces for s in trace.steps]
    assert len(set(zip(row_of.tolist(), keys))) == len(set(keys)) == len(heads) < len(keys)
    starts = [trace.steps.i[0] for trace in traces for _ in trace.steps]
    shared = {}
    for row, start in zip(row_of.tolist(), starts):
        shared.setdefault(row, set()).add(start)
    assert any(len(s) > 1 for s in shared.values())


def test_deduplicated_update_is_the_per_step_update():
    # steps that repeat a (state, action) share a row, whose acting mu
    # and alpha they carry bitwise; the first call's ratios are exactly
    # one; and the batch loss and every gradient are those of one loss per
    # trajectory, the clipped-ratio composite op by op over the per-step
    # reference log-probs, with each step weighted by 1 / its length
    spec = small_spec()
    params = random_params(7)
    trajs, _ = collect_small(params, spec, count=12, seed=14)
    baselines = rl.StepBaselines()
    baselines.update_from_batch(trajs[:4])
    advantages = [baselines.advantages(t) for t in trajs]
    cfg = rl.PpoConfig()
    losses = rl._ppo_losses(params, trajs, advantages, cfg, 1.0)
    steps = np.concatenate([t.trace.steps for t in trajs])
    assert sum(len(f.args[1].pack.steps) for f in losses) < len(steps)
    acting_rows = []  # each step's acting [mu, alpha], in trace order
    for t in trajs:
        blocks = {kind: iter(block) for kind, block in t.trace.rows.items()}
        acting_rows += [next(blocks[kind]) for kind in t.trace.steps.kind]
    shared = 0
    for f in losses:
        chunk = f.args[1]
        for row in np.unique(chunk.gather):
            first, *rest = chunk.steps[chunk.gather == row]
            shared += len(rest)
            for s in rest:
                assert steps[s].tolist()[:4] == steps[first].tolist()[:4]
                assert np.array_equal(acting_rows[s], acting_rows[first])
    assert shared > 0

    named = params.named_tensors()
    grads, values = ad.accumulate_grads(named, losses)  # the first calls
    for f, value in zip(losses, values):
        _, chunk, [acting], adv, weight, _, scale = f.args
        rows = np.concatenate([x.data for x in rl._chunk_logprobs(params, chunk)])
        assert np.all(np.exp(rows[chunk.gather] - acting) == 1.0)
        assert value == float((adv * weight).sum() * scale)

    def reference(traj, adv):
        lp = concat(_reference_logprobs(params, traj, 1.0), axis=0)
        ratios = exp(sub(lp, lp.data))
        unclipped = mul(ratios, adv)
        clipped = mul(clip(ratios, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio), adv)
        weight = np.full(traj.num_steps, 1.0 / traj.num_steps)
        return mul(tensor_sum(mul(minimum(unclipped, clipped), weight)), -1.0 / len(trajs))

    ref_grads, ref_values = ad.accumulate_grads(
        named, [partial(reference, t, a) for t, a in zip(trajs, advantages)]
    )
    assert abs(sum(values) - sum(ref_values)) < 1e-12
    assert any(np.any(g != 0.0) for g in grads.values())
    for name in named:
        assert np.abs(grads[name] - ref_grads[name]).max() < 1e-12, name


def test_no_bond_termination_keeps_dropped_node_in_gen_graph():
    # a model that only proposes triple bonds between oxygens: the check
    # rejects every proposal, the slot falls back to no-edge, and the new
    # node is dropped from the molecule but kept in the decision record
    spec = small_spec(max_size=3)
    params = flow.init_flow_params(spec, np.random.default_rng(0))
    params.node_mu.b2.data[VOCAB.index("O")] = 50.0
    params.edge_mu.b2.data[BONDS.category_of(3)] = 50.0
    scfg = SamplerConfig(valency_check=True, max_resample=7)
    g, trace = sample_molecule(params, spec, scfg, np.random.default_rng(1))
    assert trace.termination == "no-bonds"
    rcfg = rl.RewardConfig(gamma=0.5, shaping="linear", t1=1.0)
    traj = rl.build_trajectory(trace, rcfg, score=float(g.n))
    assert traj.trace.graph.prefix(g.n) == g
    assert traj.trace.graph.n == g.n + 1
    assert traj.trace.graph.node_types[-1] == VOCAB.index("O")
    assert len(traj.trace.graph.bonds()) == len(g.bonds())
    # rejection penalties land on the edge step that caused them
    # (here the last step, the only edge step)
    assert [s.kind for s in trace.steps] == ["node", "node", "edge"]
    assert trace.steps[-1].rejections == 7
    rewards = traj.rewards()
    assert rewards[0] == rewards[1] == 0.0
    assert rewards[-1] == pytest.approx(-7.0 + 1.0)  # penalty plus shaped score
    assert traj.returns[-1] == pytest.approx(rewards[-1])


def test_collect_counts_scorer_failures():
    spec = small_spec()
    params = random_params(2)
    calls = []

    def flaky(g):
        calls.append(g)
        if len(calls) % 2 == 0:
            raise rl.ScorerError("no score")
        return float(g.n)

    scorer = rl.ToyScorer("flaky", flaky)
    rcfg = rl.RewardConfig(gamma=0.9)
    trajs, failures = rl.collect_trajectories(
        params, spec, SamplerConfig(), rcfg, scorer, 6, np.random.default_rng(3)
    )
    assert failures == 3
    assert len(trajs) == 3


def test_collect_with_seed_graphs():
    spec = small_spec()
    params = random_params(2)
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    seed_graph = MolecularGraph(np.array([0, 0]), cats, NO_EDGE)
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    rcfg = rl.RewardConfig(gamma=0.9)
    trajs, _ = rl.collect_trajectories(
        params, spec, SamplerConfig(), rcfg, scorer, 4,
        np.random.default_rng(4), seeds=[seed_graph],
    )
    for traj in trajs:
        assert all(s.i >= 2 for s in traj.trace.steps)
        assert np.array_equal(traj.trace.graph.node_types[:2], seed_graph.node_types)


def test_finetune_runs_and_is_deterministic():
    spec = small_spec()
    base = random_params(5)
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    rcfg = rl.RewardConfig(gamma=0.9, shaping="linear", t1=1.0)
    pcfg = rl.PpoConfig(updates=1, batch_size=4, lr=1e-3)

    def run():
        params = ckpt.loads(ckpt.dumps(base), spec)
        logged = []
        trace = rl.finetune(
            params, spec, scorer, rcfg, pcfg, SamplerConfig(),
            iterations=2, rng=np.random.default_rng(6),
            log=lambda it, r, l: logged.append((it, r, l)),
        )
        return params, trace, logged

    p1, t1, log1 = run()
    p2, t2, log2 = run()
    assert len(t1) == 2
    assert t1 == t2
    assert log1 == log2
    assert [it for it, _, _ in log1] == [0, 1]
    for name, tensor in p1.named_tensors().items():
        assert np.array_equal(tensor.data, p2.named_tensors()[name].data)


def test_finetune_rejects_zero_temperature():
    # at temperature 0 the sampler is greedy and the acting log-probs
    # would divide by a zero scale; the run fails before any episode
    spec = small_spec()
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    with pytest.raises(ValueError, match="temperature"):
        rl.finetune(
            random_params(5), spec, scorer, rl.RewardConfig(), rl.PpoConfig(batch_size=2),
            SamplerConfig(temperature=0.0), iterations=1, rng=np.random.default_rng(6),
        )


def test_finetune_builds_grids_once_per_batch(monkeypatch, small_chunks, chunk_counts):
    # the grids are frozen per batch: one build per chunk and step kind
    # when the losses are built, none at collection, however many update
    # passes run over the batch
    spec = small_spec()
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    build = rl.argmax_region_grid
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(rl, "argmax_region_grid", counting)
    counts = []
    for updates in (1, 4):
        calls.clear()
        rl.finetune(
            random_params(5), spec, scorer, rl.RewardConfig(),
            rl.PpoConfig(updates=updates, batch_size=20),
            SamplerConfig(), iterations=1, rng=np.random.default_rng(6),
        )
        counts.append(len(calls))
    assert counts[0] == counts[1]
    # every chunk, at most two step kinds each, built once
    chunks = chunk_counts[-1]
    assert chunk_counts == [chunks, chunks] and chunks >= 2
    assert chunks <= counts[1] <= 2 * chunks


def test_finetune_builds_step_masks_once_per_pack(monkeypatch, small_chunks, chunk_counts):
    # the encoder's step masks are packed with the grids: one build per
    # graph of a chunk when the losses are built, however many update
    # passes reuse them; each update pass encodes each chunk once, and
    # no pass runs before the first, whose values are the acting
    # log-probs; collection alone runs no stacked encoder pass
    spec = small_spec()
    scorer = rl.make_scorer("toy:atom-count", spec.vocab, spec.bonds)
    build, encode = rgcn.build_step_masks, rgcn.encode_step_batch
    calls, encodes = [], []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    def counting_encode(*args, **kwargs):
        encodes.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(rgcn, "build_step_masks", counting)
    monkeypatch.setattr(rgcn, "encode_step_batch", counting_encode)
    batch = 20
    counts = []
    for updates in (1, 4):
        calls.clear()
        encodes.clear()
        rl.finetune(
            random_params(5), spec, scorer, rl.RewardConfig(),
            rl.PpoConfig(updates=updates, batch_size=batch),
            SamplerConfig(), iterations=1, rng=np.random.default_rng(6),
        )
        counts.append(len(calls))
        assert len(encodes) == chunk_counts[-1] * updates
    assert counts[0] == counts[1]
    # every episode's graph, at most once per chunk, for the update
    assert chunk_counts[-1] >= 2
    assert 0 < counts[1] <= batch * chunk_counts[-1]

    calls.clear()
    encodes.clear()
    trajs, _ = collect_small(random_params(5), spec, count=batch, seed=6)
    assert len(trajs) == batch
    assert encodes == [] and calls == []


# ---------------------------------------------------------------- scorers


def test_toy_scorers():
    c, n = VOCAB.index("C"), VOCAB.index("N")
    cats = empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    cats[1, 2] = cats[2, 1] = 0
    path = MolecularGraph(np.array([c, n, n]), cats, NO_EDGE)
    ring = cats.copy()
    ring[0, 2] = ring[2, 0] = 0
    triangle = MolecularGraph(np.array([c, n, n]), ring, NO_EDGE)
    assert rl.make_scorer("toy:atom-count", VOCAB, BONDS).score(path) == 3.0
    assert rl.make_scorer("toy:ring-count-penalty", VOCAB, BONDS).score(path) == 0.0
    assert rl.make_scorer("toy:ring-count-penalty", VOCAB, BONDS).score(triangle) == -1.0
    frac = rl.make_scorer("toy:atom-fraction:N", VOCAB, BONDS)
    assert frac.score(path) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        rl.make_scorer("toy:bogus", VOCAB, BONDS)
    with pytest.raises(ValueError):
        rl.make_scorer("toy:atom-fraction:X", VOCAB, BONDS)
    with pytest.raises(ValueError):
        rl.make_scorer("random:thing", VOCAB, BONDS)


def test_readme_scorer_names_build():
    # every toy scorer the README offers must be one make_scorer accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = sorted(set(re.findall(r"toy:[\w<>:-]+", readme)))
    assert len(names) >= 3
    for name in names:
        rl.make_scorer(name.replace("<symbol>", VOCAB.symbols[0]), VOCAB, BONDS)


def test_exec_scorer_round_trip(tmp_path):
    script = tmp_path / "count_scorer.py"
    script.write_text(
        "import sys\n"
        "seen = 0\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '#END':\n"
        "        seen += 1\n"
        "        print(float(seen), flush=True)\n"
    )
    scorer = rl.make_scorer(f"exec:python3 {script}", VOCAB, BONDS)
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    g = MolecularGraph(np.array([0, 1]), cats, NO_EDGE)
    try:
        assert scorer.score(g) == 1.0
        assert scorer.score(g) == 2.0
    finally:
        scorer.close()


def test_exec_scorer_failures(tmp_path):
    bad = tmp_path / "bad_scorer.py"
    bad.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '#END':\n"
        "        print('banana', flush=True)\n"
    )
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    g = MolecularGraph(np.array([0, 1]), cats, NO_EDGE)
    scorer = rl.ExecScorer(f"python3 {bad}", VOCAB, BONDS)
    try:
        with pytest.raises(rl.ScorerError):
            scorer.score(g)
    finally:
        scorer.close()
    quitter = tmp_path / "quitter.py"
    quitter.write_text("pass\n")
    scorer = rl.ExecScorer(f"python3 {quitter}", VOCAB, BONDS)
    try:
        with pytest.raises(rl.ScorerError):
            scorer.score(g)
            scorer.score(g)  # first call may race the exit; second must fail
    finally:
        scorer.close()


def test_exec_scorer_non_finite_replies_fail(tmp_path):
    # float() parses inf and nan, but neither is a score: a reply of
    # either is a scorer failure like a non-numeric one
    script = tmp_path / "inf_scorer.py"
    script.write_text(
        "import sys\n"
        "replies = iter(['inf', 'nan', '2.5'])\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '#END':\n"
        "        print(next(replies), flush=True)\n"
    )
    scorer = rl.ExecScorer(f"python3 {script}", VOCAB, BONDS)
    try:
        with pytest.raises(rl.ScorerError, match="non-finite 'inf'"):
            scorer.score(_two_atom_graph())
        with pytest.raises(rl.ScorerError, match="non-finite 'nan'"):
            scorer.score(_two_atom_graph())
        assert scorer.score(_two_atom_graph()) == 2.5
    finally:
        scorer.close()


def _two_atom_graph():
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    return MolecularGraph(np.array([0, 1]), cats, NO_EDGE)


def test_exec_scorer_silent_child_times_out(tmp_path, monkeypatch):
    # a child that reads the whole record and never answers must not hang
    # the caller: past the deadline it is killed and the call fails
    monkeypatch.setattr(rl, "SCORER_TIMEOUT", 0.5)
    silent = tmp_path / "silent.py"
    silent.write_text(
        "import sys, time\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '#END':\n"
        "        time.sleep(600)\n"
    )
    scorer = rl.ExecScorer(f"python3 {silent}", VOCAB, BONDS)
    try:
        with pytest.raises(rl.ScorerError, match="no reply"):
            scorer.score(_two_atom_graph())
        assert scorer._proc.poll() is not None
        with pytest.raises(rl.ScorerError):
            scorer.score(_two_atom_graph())
    finally:
        scorer.close()


def test_exec_scorer_close_kills_child_ignoring_eof(tmp_path, monkeypatch):
    # a child that answers but keeps running after its input closes is
    # killed by close(), which does not raise
    monkeypatch.setattr(rl, "SCORER_TIMEOUT", 0.5)
    stubborn = tmp_path / "stubborn.py"
    stubborn.write_text(
        "import sys, time\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == '#END':\n"
        "        print('1.5', flush=True)\n"
        "time.sleep(600)\n"
    )
    scorer = rl.ExecScorer(f"python3 {stubborn}", VOCAB, BONDS)
    try:
        assert scorer.score(_two_atom_graph()) == 1.5
    finally:
        scorer.close()
    assert scorer._proc.poll() is not None


# ------------------------------------------------ constrained generation


def connected(g):
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [
            int(j)
            for i in frontier
            for j in g.neighbors(i)
            if int(j) not in seen and not seen.add(int(j))
        ]
    return len(seen) == g.n


def test_subgraph_seed_properties():
    rng = np.random.default_rng(7)
    mols = [
        m
        for m in G.gen_synthetic_molecules(10, 8, VOCAB, BONDS, np.random.default_rng(8))
        if m.n >= 4
    ]
    for mol in mols:
        for _ in range(5):
            seed = rl.subgraph_seed(mol, rng, m_choices=(0, 2, 5), window=4)
            assert 1 <= seed.n <= mol.n
            assert seed.n >= mol.n - 5
            assert connected(seed)
            assert G.max_dependency_distance(seed) <= 4


def test_graph_similarity_properties():
    rng = np.random.default_rng(9)
    mols = [
        m
        for m in G.gen_synthetic_molecules(8, 7, VOCAB, BONDS, np.random.default_rng(10))
        if m.n >= 3
    ]
    for mol in mols:
        assert rl.graph_similarity(mol, mol) == pytest.approx(1.0)
        shuffled = G.relabel(mol, rng.permutation(mol.n))
        assert rl.graph_similarity(mol, shuffled) == pytest.approx(1.0)
    # chains of disjoint atom types share no neighborhood labels
    c, o = VOCAB.index("C"), VOCAB.index("O")
    cats = empty_categories(2, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    a = MolecularGraph(np.array([c, c]), cats, NO_EDGE)
    b = MolecularGraph(np.array([o, o]), cats, NO_EDGE)
    assert rl.graph_similarity(a, b) == 0.0
    sim = rl.graph_similarity(a, mols[0])
    assert 0.0 <= sim <= 1.0


def test_optimize_constrained_consistency():
    spec = small_spec(max_size=6, window=4)
    params = flow.init_flow_params(spec, np.random.default_rng(11))
    mols = [
        G.bfs_reorder(m, 0)[0]
        for m in G.gen_synthetic_molecules(6, 5, VOCAB, BONDS, np.random.default_rng(12))
        if m.n >= 4
    ][:2]
    scorer = rl.make_scorer("toy:atom-count", VOCAB, BONDS)
    results = rl.optimize_constrained(
        params, spec, mols, scorer, delta=0.0, rounds=3,
        sampler_cfg=SamplerConfig(), rng=np.random.default_rng(13),
    )
    assert len(results) == 2
    for r in results:
        assert r.attempts == 3
        assert r.success == (r.improvement > 0.0)
    # an unreachable similarity floor disqualifies everything
    results = rl.optimize_constrained(
        params, spec, mols, scorer, delta=1.01, rounds=2,
        sampler_cfg=SamplerConfig(), rng=np.random.default_rng(14),
    )
    for r in results:
        assert (r.improvement, r.similarity, r.success) == (0.0, 0.0, False)


@pytest.mark.parametrize("rounds", [0, -1])
def test_optimize_constrained_rejects_fewer_than_one_round(rounds):
    # zero attempts would report (0, 0, False) per molecule: a measured
    # failure from nothing measured
    spec = small_spec(max_size=6, window=4)
    params = flow.init_flow_params(spec, np.random.default_rng(11))
    mol = G.bfs_reorder(G.gen_synthetic_molecules(1, 5, VOCAB, BONDS,
                                                  np.random.default_rng(12))[0], 0)[0]
    scorer = rl.make_scorer("toy:atom-count", VOCAB, BONDS)
    with pytest.raises(ValueError, match="rounds"):
        rl.optimize_constrained(params, spec, [mol], scorer, delta=0.0, rounds=rounds,
                                sampler_cfg=SamplerConfig(), rng=np.random.default_rng(13))
