"""Reward-guided fine-tuning of a trained flow with clipped-ratio policy
gradients, plus seeded constrained optimization.

Generation is treated as an episodic decision process: each node-type or
bond choice is one action, valency rejections cost a fixed penalty at
the step where they happen, and the property score of the finished
molecule is discounted backward through the episode. The policy's
probability of a discrete action is the exact probability that the
step's Gaussian, pushed through the affine transform, lands in that
category's argmax region. That integral has no closed form beyond two
categories, so it is evaluated by composite Gauss-Legendre quadrature
on panels centred on the integrand's mass and refined at sharp
crossovers. A stack of such integrals is one fused tape node: its
forward pass evaluates the normal CDF only on each row's competing
categories, and its backward pass is the closed-form gradient (softmax
weight of each quadrature node times the hazard phi / Phi times dy /
d(mu, alpha)). Its arrays are laid out competitor-major, (D-1, S, Q),
so each elementwise loop runs over a whole (S, Q) slab rather than a
trailing axis of two or three competitors, and the competitors'
log-CDFs are summed in ascending order one add at a time.

An episode is kept as the sampler's trace, which holds every decision as
columns, each step kind's acting (mu, alpha) rows as one block, and the
graph the decisions filled. For the ratio objective each step's
integration grid comes from that acting (mu, alpha) alone, so it stays
frozen while the weights move, and the surrogate is a smooth function of
the weights. Collection only samples, scores and builds returns;
_ppo_losses is the one place that splits a batch into chunks. The
update scores each distinct (state, action) once, in size-major chunks
of rows: steps with equal plan step, action and history (the decisions
before the step, as the sampler's StateCache keys states) share a
row, and the rows, sorted by state node count, are cut into chunks of
at most PPO_CHUNK_ROWS. All rows of a chunk, the empty prefix included,
go through one encoder pass and one head call per step kind, and each
step kind gets one grid build and one quadrature. Each chunk is packed
once per batch: its grids, and one rgcn.StepPack of its rows' states
(the encoder's grouped step masks and the head index arrays), whose
log-probs each step gathers. Each chunk's share of the batch loss is
one callable holding everything it reads that the weights do not change
(the frozen grids, the step pack, advantages), so an update pass does
only weight-dependent work; every update pass sums their gradients with
autodiff.accumulate_grads, the same loop maximum-likelihood training
runs, one tape per chunk, on which the chunk's clipped-ratio surrogate
is one node over its per-kind log-probs. There is no separate acting
pass: a chunk's acting log-probabilities are the values of its first
call, which the first update pass makes at the collection weights, and
the callable holds them as constants from then on. So ratios start at
exactly one, and finite differences agree with the tape gradient.

The quadrature is the only reader of scipy (log_ndtr and erfcx), and it
imports scipy.special at its first call: only fine-tuning's update loads
scipy, and a process that trains, samples, evaluates or runs constrained
optimization never does.
"""

from __future__ import annotations

import math
import os
import select
import shlex
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from . import rgcn
from .autodiff import AdamState, Tensor, adam_step
from .flow import FlowParams, ModelSpec, _reorder_for_window, _stacked_conditionals
from .graph import GraphError, MolecularGraph, bfs_reorder
from .molt import write_molt
from .sampler import STEP_DTYPE, SampleTrace, SamplerConfig, StateCache, sample_molecule

LOG_TWO_PI = math.log(2.0 * math.pi)
PPO_CHUNK_ROWS = 256  # most distinct (state, action) rows per packed pass: one tape, one StepPack

VALIDITY_PENALTY = -1.0  # reward per valency rejection, at its own step

GRID_DROP = 30.0  # nats below its maximum where a row's grid ends
GRID_PANELS = 10  # equal panels across that bracket
SHARP_RATIO = 0.5  # alpha_k / alpha_c below which a crossover gets refinement edges
_GL_NODES = np.polynomial.legendre.leggauss(8)  # Gauss-Legendre nodes and weights per panel
_REFINE_FRACTIONS = np.array([-1.0, -0.4, 0.0, 0.4, 1.0])  # a sharp crossover's edges, in halfwidths


def _competitors(actions: np.ndarray, d: int) -> np.ndarray:
    """(S, D-1) indices of every category except each row's action, ascending."""
    others = np.arange(d - 1)[None, :]
    return others + (others >= actions[:, None])


def _mass_bracket(cross, slope):
    """(lo, hi), each (S,): where the log-integrand f(u) = log phi(u) + sum_k
    log Phi(slope_k (u - cross_k)) of each (D-1, S) column falls GRID_DROP
    nats below its maximum. f' is convex and decreasing with f'(0) > 0, so
    Newton steps from 0 climb to the mode; f'' <= -1 puts each end within 8
    of it, reached by Newton steps from the quadratic model's drop point.
    A row stops once it settles, so the stack does not affect it."""
    from scipy.special import erfcx, log_ndtr

    def f_and_slopes(u, cross, slope):  # erfcx: the hazard phi / Phi without cancelling
        y = slope * (u - cross)
        push = slope * math.sqrt(2.0 / math.pi) / erfcx(-math.sqrt(0.5) * y)  # slope * hazard
        d2f = np.minimum(-1.0 - sum(push * (slope * y + push)), -1.0)
        return sum(log_ndtr(y), -0.5 * u * u), sum(push, -u), d2f

    u, open_ = np.zeros(cross.shape[1]), np.ones(cross.shape[1], dtype=bool)
    for _ in range(60):
        peak, df, d2f = f_and_slopes(u, cross, slope)
        open_ &= np.abs(df / d2f) > 1e-9 * (1.0 + u)  # a settled row keeps u, f and f''
        if not open_.any():
            break
        u = np.where(open_, u - df / d2f, u)
    reach = np.minimum(np.sqrt(2.0 * GRID_DROP / -d2f), 8.0)
    mode, peak, cross, slope = (np.tile(a, 2) for a in (u, peak, cross, slope))  # left ends, then right
    v, open_ = np.concatenate([u - reach, u + reach]), np.ones(mode.shape, dtype=bool)
    for _ in range(60):
        f, df, _ = f_and_slopes(v, cross, slope)
        gap = f - peak + GRID_DROP  # positive inside the bracket
        open_ &= (gap > 0.0) | (gap < -1.0)  # settled 30 to 31 nats down
        if not open_.any():
            break
        v = np.where(open_, np.clip(v - gap / df, mode - 8.0, mode + 8.0), v)
    return v[: len(u)], v[len(u) :]


def argmax_region_grid(mu, alpha, actions):
    """Quadrature nodes and log-weights for a stack of argmax-region
    integrals, one per row of the (S, D) arrays mu and alpha.

    Row s integrates phi(u) * prod_k Phi((mu_c + alpha_c u - mu_k) /
    alpha_k) with c = actions[s]. Each k != c contributes a sigmoid-like
    factor switching at u = (mu_k - mu_c) / alpha_c over a width set by
    alpha_k / alpha_c. GRID_PANELS equal panels span _mass_bracket, and a
    switch sharper than SHARP_RATIO within 6 alpha_k / alpha_c of it adds
    edges around it, clipped to it. Each row's edges are sorted, and an
    edge within 1e-12 of the one before it is dropped.
    Returns (u, logw), both (S, Q): rows shorter than the longest are
    padded with u = 0 and logw = -inf.
    """
    mu = np.asarray(mu, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.int64)
    s_count, d = mu.shape
    rows = np.arange(s_count)
    others = _competitors(actions, d).T  # (D-1, S)
    mu_c, alpha_c = mu[rows, actions], alpha[rows, actions]
    cross, ratio = (mu[rows, others] - mu_c) / alpha_c, alpha[rows, others] / alpha_c
    lo, hi = _mass_bracket(cross, 1.0 / ratio)
    halfwidth = 6.0 * np.maximum(ratio, 1e-8)
    # a blunt competitor, or one far from the bracket, adds no edge: its edges clip to lo
    near = (ratio < SHARP_RATIO) & (cross + halfwidth >= lo) & (cross - halfwidth <= hi)
    extra = np.where(near, cross, -np.inf)[:, :, None] + halfwidth[:, :, None] * _REFINE_FRACTIONS
    extra = np.clip(extra.transpose(1, 0, 2).reshape(s_count, -1), lo[:, None], hi[:, None])
    base = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_PANELS + 1)
    edges = np.sort(np.concatenate([base, extra], axis=1), axis=1)
    keep = np.ones(edges.shape, dtype=bool)
    keep[:, 1:] = np.diff(edges, axis=1) > 1e-12
    # kept edges move to the front of their row in order; panel p of row s
    # runs from its kept edge p to kept edge p + 1
    packed = np.take_along_axis(edges, np.argsort(~keep, axis=1, kind="stable"), 1)
    panels = keep.sum(axis=1) - 1
    p_max = int(panels.max())
    live = np.arange(p_max) < panels[:, None]  # (S, P)
    left = packed[:, :p_max][live]
    right = packed[:, 1 : p_max + 1][live]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    nodes, weights = _GL_NODES
    u = np.zeros((s_count, p_max, nodes.size))
    logw = np.full((s_count, p_max, nodes.size), -np.inf)
    u[live] = mid[:, None] + half[:, None] * nodes[None, :]
    logw[live] = np.log(half[:, None]) + np.log(weights[None, :])
    return u.reshape(s_count, -1), logw.reshape(s_count, -1)


def weight_free_term(u: np.ndarray, logw: np.ndarray) -> np.ndarray:
    """The weight-free quadrature term logw + log phi(u) of a grid."""
    return logw + (-0.5 * u * u - 0.5 * LOG_TWO_PI)


def _stacked_action_logprobs(
    mu: Tensor,
    alpha: Tensor,
    grid_u: np.ndarray,
    grid_base: np.ndarray,
    actions: np.ndarray,
    temperature: float = 1.0,
) -> Tensor:
    """Log-probability of each row's action under its frozen grid, with
    the scales alpha * temperature.

    mu and alpha are (S, D) tensors (or constants wrapped as tensors);
    grid_u and grid_base, the weight-free terms logw + log phi(u), are
    (S, Q) with unused slots padded by -inf. Returns an (S,) tensor
    recorded as one tape node. The temperature multiplies alpha before,
    and the alpha gradient after, the quadrature, as a product node would.

    Row s with action c is logsumexp_q(logw_q + log phi(u_q) + sum_{k != c}
    log Phi(y_qk)), y_qk = (mu_c + alpha_c u_q - mu_k) / alpha_k, so the
    gradient is closed-form: the softmax weight of each node times the
    hazard phi(y) / Phi(y), times dy / d(mu, alpha).
    """
    from scipy.special import log_ndtr

    s_count, d = mu.data.shape
    rows = np.arange(s_count)
    others = _competitors(actions, d)
    scaled = alpha.data * temperature
    # competitor-major: axis 0 runs over the D-1 competitors, so every
    # elementwise loop below runs over a whole (S, Q) slab
    mu_k = np.take_along_axis(mu.data, others, 1).T[:, :, None]  # (D-1, S, 1)
    alpha_k = np.take_along_axis(scaled, others, 1).T[:, :, None]
    z_top = mu.data[rows, actions][:, None] + scaled[rows, actions][:, None] * grid_u
    y = np.subtract(z_top, mu_k, out=ad.scratch((d - 1,) + grid_u.shape, keep=True))
    np.divide(y, alpha_k, out=y)  # (D-1, S, Q)
    log_cdf = log_ndtr(y, out=ad.scratch(y.shape, keep=True))
    terms = ad.scratch(grid_u.shape, keep=True)
    # competitors summed in ascending order, one add at a time; the own
    # category is left out rather than masked, as its masked term would
    # be -0.0 and add nothing
    tail = log_cdf[0]
    for part in log_cdf[1:]:
        tail = np.add(tail, part, out=terms)
    # padded slots carry -inf and drop out of the logsumexp
    terms = np.add(tail, grid_base, out=terms)
    top = terms.max(axis=1, keepdims=True)
    shifted = np.exp(np.subtract(terms, top, out=terms), out=terms)
    total = shifted.sum(axis=1, keepdims=True)

    def back(g):
        hazard = np.multiply(-0.5, y, out=ad.scratch(y.shape))
        np.subtract(np.multiply(hazard, y, out=hazard), 0.5 * LOG_TWO_PI, out=hazard)
        np.exp(np.subtract(hazard, log_cdf, out=hazard), out=hazard)
        # d lp / d y_kq times d y_kq / d mu_c; padded slots have weight zero
        dy = np.multiply(g[:, None] * (shifted / total), hazard, out=hazard)
        np.divide(dy, alpha_k, out=dy)  # (D-1, S, Q)
        dy_k = dy.sum(axis=2)  # (D-1, S)
        grad_mu = np.zeros((s_count, d))
        grad_alpha = np.zeros((s_count, d))
        np.put_along_axis(grad_mu, others, -dy_k.T, 1)
        grad_mu[rows, actions] = dy_k.sum(axis=0)
        grad_alpha[rows, actions] = (dy.sum(axis=0) * grid_u).sum(axis=1)
        np.put_along_axis(grad_alpha, others, -np.multiply(dy, y, out=dy).sum(axis=2).T, 1)
        return grad_mu, grad_alpha * temperature

    return ad.custom_op(np.squeeze(top + np.log(total), axis=1), (mu, alpha), back)


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """One complete generation episode with everything a ratio-objective
    update needs: the sampler's trace (the decisions and their valency
    rejections as columns, each kind's acting mu and alpha rows as one
    block, and the graph those decisions filled) and per-step discounted
    returns in trace order. Acting log-probs are not stored here: each
    chunk loss holds its chunk's."""

    trace: SampleTrace
    final_reward: float
    returns: np.ndarray

    @property
    def num_steps(self) -> int:
        return self.trace.num_steps

    def rewards(self) -> np.ndarray:
        """Per-step rewards: penalties at their own step, property reward
        at the last step."""
        r = VALIDITY_PENALTY * self.trace.steps.rejections
        r[-1] += self.final_reward
        return r


@dataclass
class RewardConfig:
    """Shaping of the final property score plus episode discounting."""

    gamma: float = 0.9
    shaping: str = "linear"  # "linear": t1 * score; "exp": exp(score / t2)
    t1: float = 1.0
    t2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not math.isfinite(self.t1):
            raise ValueError(f"t1 must be finite, got {self.t1}")
        if not (math.isfinite(self.t2) and self.t2 > 0.0):
            raise ValueError(f"t2 must be positive and finite, got {self.t2}")
        if self.shaping not in ("linear", "exp"):
            raise ValueError(f"unknown shaping {self.shaping!r}")

    def shape(self, score: float) -> float:
        """The shaped reward; FloatingPointError if it is not finite."""
        try:
            shaped = self.t1 * score if self.shaping == "linear" else math.exp(score / self.t2)
        except OverflowError:
            shaped = math.inf
        if not math.isfinite(shaped):
            raise FloatingPointError(f"{self.shaping} shaping of score {score!r} "
                                     f"(t1 {self.t1!r}, t2 {self.t2!r}) is not finite")
        return shaped


class ScorerError(Exception):
    pass


def build_trajectory(trace: SampleTrace, reward_cfg: RewardConfig, score: float) -> Trajectory:
    """Assemble a trajectory from a sampling trace and the property score
    of its molecule.

    Returns are discounted backward over the per-step rewards."""
    traj = Trajectory(
        trace=trace,
        final_reward=reward_cfg.shape(score),
        returns=np.zeros(trace.num_steps),
    )
    rewards = traj.rewards()
    ret = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        ret = rewards[t] + reward_cfg.gamma * ret  # G_t = r_t + gamma * G_{t+1}
        traj.returns[t] = ret
    return traj


def collect_trajectories(
    params: FlowParams,
    spec: ModelSpec,
    sampler_cfg: SamplerConfig,
    reward_cfg: RewardConfig,
    scorer,
    count: int,
    rng,
    seeds=None,
):
    """Run `count` episodes; returns (trajectories, scorer_failures).

    Episodes use independent spawned random streams. A scorer failure
    drops that episode and bumps the failure counter. Nothing here packs
    states or builds grids: _ppo_losses does, once per batch, one row per
    distinct (state, action). The episodes share one StateCache, as the
    weights stay fixed.
    """
    streams = rng.spawn(count)
    cache = StateCache(spec)
    out = []
    failures = 0
    for e in range(count):
        seed_graph = seeds[e % len(seeds)] if seeds else None
        g, trace = sample_molecule(
            params, spec, sampler_cfg, streams[e], seed_graph=seed_graph, cache=cache
        )
        if not trace.num_steps:
            continue  # seed already filled the graph; nothing to learn from
        try:
            score = scorer.score(g)
        except ScorerError:
            failures += 1
            continue
        out.append(build_trajectory(trace, reward_cfg, score))
    return out, failures


# ---------------------------------------------------------------------------
# clipped-ratio objective


class StepBaselines:
    """Per-step-position moving averages of returns.

    A position's first batch mean initializes its value outright, so on
    constant-reward batches the very next advantage is exactly zero;
    afterwards the mean folds in with the decay rate DECAY.
    """

    DECAY = 0.9

    def __init__(self):
        self.values: dict = {}

    def get(self, position: int) -> float:
        return self.values.get(position, 0.0)

    def advantages(self, traj: Trajectory) -> np.ndarray:
        return traj.returns - np.array([self.get(t) for t in range(traj.num_steps)])

    def update_from_batch(self, trajectories) -> None:
        sums: dict = {}
        counts: dict = {}
        for traj in trajectories:
            for t, ret in enumerate(traj.returns.tolist()):
                sums[t] = sums.get(t, 0.0) + ret
                counts[t] = counts.get(t, 0) + 1
        for t, total in sums.items():
            mean = total / counts[t]
            if t in self.values:
                self.values[t] = self.DECAY * self.values[t] + (1.0 - self.DECAY) * mean
            else:
                self.values[t] = mean


@dataclass
class PpoConfig:
    clip_ratio: float = 0.2
    updates: int = 4  # gradient passes over each collected batch
    batch_size: int = 64
    lr: float = 1e-3
    warmup: int = 0  # iterations of linear learning-rate ramp

    def __post_init__(self):
        if not 0.0 < self.clip_ratio < 1.0:
            raise ValueError("clip_ratio must lie in (0, 1)")
        if self.updates < 1:
            raise ValueError("updates must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")


@dataclass
class _PackedChunk:
    """What a chunk's packed pass needs that the weights do not change,
    built once per batch: the rgcn.StepPack of its rows (distinct
    (state, action) pairs of a few node counts, node rows first), per
    step kind their actions and frozen grids, and the batch steps they
    score: steps indexes the batch's trace steps laid end to end, and
    gather[s] is the row of steps[s].

    Each grid comes from a row's acting mu and alpha, never from the
    current weights. Rows of a batched product can depend on the batch
    they sit in at the last bit, so acting and re-evaluated log-probs
    come from the same chunk."""

    pack: rgcn.StepPack
    kinds: list  # (kind, actions, grid u, grid logw + log phi(u)), node before edge
    temperature: float
    steps: np.ndarray
    gather: np.ndarray


def _pack_chunk(params: FlowParams, heads, temperature, steps, gather) -> _PackedChunk:
    """The chunk of rows heads, (graph, plan state, action, acting
    [mu, alpha]) each with node rows first, that scores the batch steps
    `steps`, step s at row gather[s]: one step pack over the rows, then
    one grid build per step kind. Of params only the dimensions are
    read."""
    graphs, states, actions, acting = zip(*heads)
    pack = rgcn.pack_step_batch(graphs, states, params.rgcn)
    actions = np.array(actions)
    kinds = []
    for kind, rows in (("node", pack.node_rows), ("edge", pack.edge_rows)):
        if len(rows):
            block = np.array([acting[r] for r in rows])
            u, logw = argmax_region_grid(block[:, 0], block[:, 1] * temperature, actions[rows])
            kinds.append((kind, actions[rows], u, weight_free_term(u, logw)))
    return _PackedChunk(pack, kinds, temperature, steps, gather[steps])


def _chunk_logprobs(params: FlowParams, chunk: _PackedChunk) -> list:
    """Current-policy log-probs of every row of a packed chunk over its
    frozen grids, one (R_kind,) tensor per step kind in chunk.kinds
    order, which laid end to end are in row order: one encoder call,
    one head call and one quadrature per step kind."""
    mu_x, alpha_x, mu_a, alpha_a = _stacked_conditionals(chunk.pack, params)
    heads = {"node": (mu_x, alpha_x), "edge": (mu_a, alpha_a)}
    return [
        _stacked_action_logprobs(*heads[kind], u, base, actions, chunk.temperature)
        for kind, actions, u, base in chunk.kinds
    ]


def _clipped_surrogate(logprobs: list, gather, acting, adv, weight, clip_ratio, scale: float):
    """scale * sum(weight * min(ratio * adv, clip(ratio) * adv)), ratio =
    exp(lp[gather] - acting), as one tape node. lp is the logprobs laid
    end to end, one entry per row; gather (each step's row), acting, adv
    and weight are constant arrays with one entry per step.

    The forward runs the numpy calls of the op-by-op expression in its
    order, and the backward replays its backward steps: the scale, the
    broadcast of the sum, the weight, the min with a tie sent to the
    unclipped term, the advantage, the clip's strict interior, the exp,
    and the gather's, which adds each step's gradient onto its row in
    step order. So values and gradients are bitwise those of the
    composite."""
    lo, hi = 1.0 - clip_ratio, 1.0 + clip_ratio
    rows = np.concatenate([lp.data for lp in logprobs])
    ratios = np.exp(rows[gather] - acting)
    unclipped = ratios * adv
    clipped = np.clip(ratios, lo, hi) * adv
    value = (np.minimum(unclipped, clipped) * weight).sum() * scale

    def back(g):
        g_min = np.broadcast_to(g * scale, ratios.shape) * weight
        take = unclipped <= clipped
        inside = (ratios > lo) & (ratios < hi)
        g_ratios = ((g_min * ~take) * adv) * inside + (g_min * take) * adv
        g_rows = np.bincount(gather, weights=g_ratios * ratios, minlength=len(rows))
        return tuple(np.split(g_rows, np.cumsum([len(lp.data) for lp in logprobs])[:-1]))

    return ad.custom_op(value, logprobs, back)


def _chunk_loss(params, chunk: _PackedChunk, acting: list, adv, weight, clip_ratio, scale):
    """scale times the sum, over the steps a chunk's rows score, of each
    step's clipped-ratio objective min(ratio * A, clip(ratio) * A)
    weighted by 1 / its trajectory's length: one vectorised pass. adv,
    weight and acting[0], the acting log-probs, are constant arrays in
    chunk.steps order; the first call appends acting[0] from its own
    log-probs, so its ratios are exactly one."""
    logprobs = _chunk_logprobs(params, chunk)
    if not acting:
        acting.append(np.concatenate([lp.data for lp in logprobs])[chunk.gather])
    return _clipped_surrogate(logprobs, chunk.gather, acting[0], adv, weight, clip_ratio, scale)


def _ppo_losses(params: FlowParams, trajectories, advantages, cfg: PpoConfig, temperature):
    """The batch surrogate loss (the negative mean over trajectories of
    each one's mean clipped-ratio objective) as one zero-argument
    callable per chunk, for accumulate_grads: the chunk losses sum to
    the batch loss. Advantages are fixed per trajectory by the caller.

    The update scores each distinct (state, action) once: steps with one
    key (_distinct_rows) share a row. Sorted by node count (stable), the
    rows are cut into as few chunks of at most PPO_CHUNK_ROWS rows as
    hold them, of equal sizes give or take one. A chunk's loss covers its
    rows' steps with per-step advantages and 1 / len weights; all it
    reads besides the weights is built here, once per batch. Its acting
    log-probs are its first call's values, held per step, so that call
    must run at the collection weights: finetune makes it in the first
    update pass, before any Adam step. No op's value depends on whether
    a tape records, so they are what a separate acting pass would give."""
    if not trajectories:
        raise ValueError("the PPO loss needs at least one trajectory")
    traces = [traj.trace for traj in trajectories]
    row_of, heads = _distinct_rows(traces)
    adv = np.concatenate(advantages)
    weight = np.concatenate([np.full(t.num_steps, 1.0 / t.num_steps) for t in traces])
    by_size = np.argsort([rgcn.state_nodes(state) for _, state, _, _ in heads], kind="stable")
    local = np.empty(len(heads), dtype=np.int64)  # a row's place in its chunk
    losses = []
    for cut in np.array_split(by_size, math.ceil(len(heads) / PPO_CHUNK_ROWS)):
        rows = sorted(cut, key=lambda r: heads[r][1][0] == "edge")  # node rows first
        local[rows] = np.arange(len(rows))
        steps = np.flatnonzero(np.isin(row_of, cut))
        chunk = _pack_chunk(params, [heads[r] for r in rows], temperature, steps, local[row_of])
        args = (adv[steps], weight[steps], cfg.clip_ratio, -1.0 / len(trajectories))
        losses.append(partial(_chunk_loss, params, chunk, [], *args))
    return losses


def _distinct_rows(traces) -> tuple:
    """(each step's row, and per row the (graph, plan state, action,
    acting [mu, alpha]) of its first step) over the steps of traces laid
    end to end. A step's key is its plan step, its action and its
    sampler.StateCache history. Plans are prefix-consistent, so the plan
    step follows from the history's length, and the key is the history
    followed by the action: its trace's seed codes, then the trace's
    actions up to and including its own. One np.unique over the keys,
    each code shifted up by one and zero-padded to one width, finds the
    distinct ones; rows are numbered in order of first appearance."""
    steps = np.frombuffer(b"".join(trace.steps.tobytes() for trace in traces), STEP_DTYPE)
    seeds = np.frombuffer(b"".join(trace.seed for trace in traces), traces[0].code_dtype)
    counts = np.array([trace.num_steps for trace in traces])
    seed_lens = np.array([len(trace.seed) for trace in traces]) // seeds.itemsize
    owner, t = _ragged_index(counts)  # each step's trace and index in it
    seed_owner, seed_at = _ragged_index(seed_lens)
    at = seed_lens[owner] + t  # each step's action's place in its trace's codes
    top = int(max(steps["action"].max(), seeds.max(initial=0)))
    codes = np.zeros((len(traces), at.max() + 1), np.min_scalar_type(top + 1))
    codes[seed_owner, seed_at] = seeds + 1
    codes[owner, at] = steps["action"] + 1
    width = codes.shape[1]
    keys = codes[owner] * (np.arange(width) <= np.arange(width)[:, None])[at]
    keys = keys.view(np.dtype((np.void, keys.itemsize * width))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)  # each distinct key's row
    # each row's first step, and its acting row: the batch's step blocks
    # laid end to end hold it at its place among the steps of its kind
    firsts = first[order]
    is_node = steps["kind"] == "node"
    nodes_before = (np.cumsum(is_node) - is_node)[firsts]
    node_first = is_node[firsts]
    acting = {
        kind: iter(np.concatenate([trace.rows[kind] for trace in traces])[place])
        for kind, place in (
            ("node", nodes_before[node_first]),
            ("edge", (firsts - nodes_before)[~node_first]),
        )
    }
    columns = [owner[firsts], node_first] + [steps[f][firsts] for f in ("i", "j", "action")]
    heads = []
    for o, node, i, j, action in zip(*(c.tolist() for c in columns)):
        state = ("node", i) if node else ("edge", i, j)
        heads.append((traces[o].graph, state, action, next(acting[state[0]])))
    return rank[inverse], heads


def _ragged_index(counts: np.ndarray) -> tuple:
    """For lists of the given lengths laid end to end, each item's list
    and its index in that list."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def finetune(
    params: FlowParams,
    spec: ModelSpec,
    scorer,
    reward_cfg: RewardConfig,
    ppo_cfg: PpoConfig,
    sampler_cfg: SamplerConfig,
    iterations: int,
    rng,
    log=None,
):
    """Alternate episode collection and clipped-ratio updates.

    Returns the per-iteration mean shaped reward. Advantages for a batch
    are fixed from the baselines as collected; baselines absorb the
    batch means afterwards. The learning rate ramps linearly over the
    first `warmup` iterations. A non-finite loss aborts.
    """
    if not sampler_cfg.temperature > 0.0:  # a greedy policy has no log-probs
        raise ValueError("policy-gradient fine-tuning needs a positive temperature")
    adam = AdamState()
    baselines = StepBaselines()
    named = params.named_tensors()
    trace = []
    for it in range(iterations):
        trajs, _failures = collect_trajectories(
            params,
            spec,
            sampler_cfg,
            reward_cfg,
            scorer,
            ppo_cfg.batch_size,
            rng,
        )
        if not trajs:
            raise GraphError("every episode in the batch failed scoring")
        mean_reward = float(np.mean([t.final_reward for t in trajs]))
        trace.append(mean_reward)
        lr = ppo_cfg.lr
        if ppo_cfg.warmup > 0:
            lr *= min(1.0, (it + 1) / ppo_cfg.warmup)
        advantages = [baselines.advantages(t) for t in trajs]
        losses = _ppo_losses(params, trajs, advantages, ppo_cfg, sampler_cfg.temperature)
        loss_value = math.nan
        for _ in range(ppo_cfg.updates):
            grads, values = ad.accumulate_grads(named, losses)
            loss_value = sum(values)
            if not math.isfinite(loss_value):
                raise FloatingPointError(
                    f"surrogate loss became non-finite at iteration {it}"
                )
            adam_step(named, grads, adam, lr)
        baselines.update_from_batch(trajs)
        if log is not None:
            log(it, mean_reward, loss_value)
    return trace


# ---------------------------------------------------------------------------
# property scorers


class ToyScorer:
    """Built-in deterministic scorers over the discrete graph."""

    def __init__(self, name: str, fn):
        self.name = name
        self._fn = fn

    def score(self, g: MolecularGraph) -> float:
        return float(self._fn(g))

    def close(self):
        pass


SCORER_TIMEOUT = 30.0  # seconds an exec: scorer gets per reply, and to exit


class ExecScorer:
    """External scorer child process speaking the one-record protocol:
    we write a molecule record followed by an #END line, it answers with
    exactly one decimal number per line. Anything non-numeric or not
    finite (inf, nan) is a scorer failure, and so is a reply that does
    not arrive within SCORER_TIMEOUT: the child is then killed."""

    def __init__(self, command: str, vocab, bonds):
        self.vocab = vocab
        self.bonds = bonds
        self._proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._unread = b""  # bytes received past the last reply line

    def score(self, g: MolecularGraph) -> float:
        if self._proc.poll() is not None:
            raise ScorerError("scorer process exited")
        record = write_molt([g], self.vocab, self.bonds)
        try:
            self._proc.stdin.write((record.rstrip("\n") + "\n#END\n").encode())
            self._proc.stdin.flush()
            reply = self._read_line()
        except (BrokenPipeError, OSError) as exc:
            raise ScorerError(f"scorer pipe failed: {exc}")
        if not reply:
            raise ScorerError("scorer closed its output")
        try:
            score = float(reply.strip())
        except ValueError:
            raise ScorerError(f"scorer replied with non-numeric {reply.strip()!r}")
        if not math.isfinite(score):
            raise ScorerError(f"scorer replied with non-finite {reply.strip()!r}")
        return score

    def _read_line(self) -> str:
        """One reply line, '' at end of output; kills a child that stays
        silent past the deadline."""
        deadline = time.monotonic() + SCORER_TIMEOUT
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._unread:
            left = deadline - time.monotonic()
            if left <= 0.0 or not select.select([fd], [], [], left)[0]:
                self._kill()
                raise ScorerError(f"scorer gave no reply within {SCORER_TIMEOUT} s")
            data = os.read(fd, 4096)
            if not data:
                break
            self._unread += data
        line, newline, self._unread = self._unread.partition(b"\n")
        return (line + newline).decode(errors="replace")

    def _kill(self) -> None:
        self._proc.kill()
        self._proc.wait()

    def close(self):
        """Close the child's input and wait for it to exit; one that is
        still running after SCORER_TIMEOUT is killed."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # a child that already exited leaves a broken pipe
        try:
            self._proc.wait(timeout=SCORER_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._kill()
        self._proc.stdout.close()


def _ring_count(g: MolecularGraph) -> int:
    # independent cycles of a connected graph: edges - nodes + 1
    edges = len(g.bonds())
    return max(0, edges - g.n + 1)


def make_scorer(text: str, vocab, bonds):
    """Build a scorer from a --scorer style string.

    toy:atom-count | toy:ring-count-penalty | toy:atom-fraction:<symbol>
    | exec:<command>
    """
    if text.startswith("exec:"):
        command = text[len("exec:") :]
        if not command.strip():
            raise ValueError("exec: scorer needs a command")
        return ExecScorer(command, vocab, bonds)
    if not text.startswith("toy:"):
        raise ValueError(f"unknown scorer spec {text!r}")
    body = text[len("toy:") :]
    if body == "atom-count":
        return ToyScorer(body, lambda g: g.n)
    if body == "ring-count-penalty":
        return ToyScorer(body, lambda g: -_ring_count(g))
    if body.startswith("atom-fraction:"):
        symbol = body[len("atom-fraction:") :]
        if symbol not in vocab.symbols:
            raise ValueError(f"scorer atom symbol {symbol!r} not in the vocabulary")
        want = vocab.symbols.index(symbol)
        return ToyScorer(body, lambda g: float(np.mean(g.node_types == want)))
    raise ValueError(f"unknown toy scorer {body!r}")


# ---------------------------------------------------------------------------
# constrained optimization


def subgraph_seed(
    g: MolecularGraph,
    rng,
    m_choices=(0, 1, 2, 3, 4, 5),
    window: int | None = None,
) -> MolecularGraph:
    """Random connected seed: relabel by a random breadth-first order and
    drop the last m nodes (m drawn from m_choices, clamped to n-1). With
    a window, the order is retried so remaining bond spans fit."""
    if window is not None:
        h = _reorder_for_window(g, window, rng)
    else:
        start = int(rng.integers(g.n))
        h, _ = bfs_reorder(g, start=start, rng=rng)
    m = min(int(rng.choice(np.asarray(m_choices))), g.n - 1)
    keep = g.n - m
    return MolecularGraph(h.node_types[:keep], h.categories[:keep, :keep], g.no_edge)


def graph_similarity(a: MolecularGraph, b: MolecularGraph) -> float:
    """Cosine similarity of depth-2 neighborhood-label histograms."""
    from .metrics import wl_labels

    ca = Counter(wl_labels(a, rounds=2))
    cb = Counter(wl_labels(b, rounds=2))
    dot = sum(ca[k] * cb[k] for k in ca.keys() & cb.keys())
    if dot == 0:
        return 0.0
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb)


@dataclass
class ConstrainedResult:
    improvement: float
    similarity: float
    success: bool
    attempts: int


def optimize_constrained(
    params: FlowParams,
    spec: ModelSpec,
    molecules,
    scorer,
    delta: float,
    rounds: int,
    sampler_cfg: SamplerConfig,
    rng,
    m_choices=(0, 1, 2, 3, 4, 5),
):
    """Seeded property optimization under a similarity floor.

    Each input molecule gets `rounds` generations from random connected
    sub-graph seeds; among outputs with similarity >= delta, the best
    score improvement is reported, success meaning some qualifying
    output strictly improved. No qualifying output reports (0, 0, False).
    Fewer than one round is a ValueError: a result from zero attempts
    would read as a measured failure.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    results = []
    for mol in molecules:
        base = scorer.score(mol)
        streams = rng.spawn(rounds)
        best = None
        for r in range(rounds):
            seed = subgraph_seed(mol, streams[r], m_choices=m_choices, window=spec.window)
            sample, _ = sample_molecule(
                params, spec, sampler_cfg, streams[r], seed_graph=seed
            )
            sim = graph_similarity(sample, mol)
            if sim < delta:
                continue
            imp = scorer.score(sample) - base
            if best is None or imp > best[0]:
                best = (imp, sim)
        if best is None:
            results.append(ConstrainedResult(0.0, 0.0, False, rounds))
        else:
            results.append(ConstrainedResult(best[0], best[1], best[0] > 0.0, rounds))
    return results
