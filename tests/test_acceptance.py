"""End-to-end acceptance checks.

Thirteen checks cover the whole surface: analytic invertibility, exact
reconstruction, masked parallel likelihood, autoregressive structure,
Jacobian shape and determinant, full-model gradients, density training,
valency-safe sampling, policy-gradient fine-tuning, seeded constrained
optimization, distribution distance on community graphs, and normalized
action probabilities.

Every test prints a single PASS/FAIL line with the measured numbers
(visible with `pytest -s`); the assertion carries the same message.
Expensive artifacts (the trained molecule model) are module fixtures
shared across checks.
"""

import time

import numpy as np
import pytest

from graphflow import autodiff as ad
from graphflow import flow
from graphflow import graph as G
from graphflow import metrics, rgcn, rl, sampler
from oracle_ops import sum_of

VOCAB = G.default_atom_vocab()
BONDS = G.default_bond_vocab()
NO_EDGE = BONDS.no_edge

MOL_SPEC = flow.ModelSpec(width=16, layers=2, window=12, max_size=12)
TRAIN_CFG = flow.TrainConfig(epochs=10, batch_size=32, lr=1e-3)


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def same_graph(a: G.MolecularGraph, b: G.MolecularGraph) -> bool:
    return (
        a.n == b.n
        and np.array_equal(a.node_types, b.node_types)
        and np.array_equal(a.categories, b.categories)
        and a.no_edge == b.no_edge
    )


@pytest.fixture(scope="module")
def molecules500():
    rng = np.random.default_rng(0)
    mols = G.gen_synthetic_molecules(500, 10, VOCAB, BONDS, rng)
    return [G.bfs_reorder(m, 0)[0] for m in mols]


@pytest.fixture(scope="module")
def trained(molecules500):
    """First training run: (params, nll trace, wall seconds)."""
    params = flow.init_flow_params(MOL_SPEC, np.random.default_rng(42))
    t0 = time.perf_counter()
    trace = flow.train(molecules500, params, MOL_SPEC, TRAIN_CFG, np.random.default_rng(7))
    return params, trace, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_01_invertibility():
    # elementwise affine transform: both compositions must round-trip to
    # machine precision across 1000 random parameter/input draws
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        mu = rng.normal(0.0, 3.0, d)
        alpha = np.exp(rng.uniform(-5.0, 5.0, d))
        eps = rng.normal(0.0, 4.0, d)
        back = flow.inverse_transform(flow.forward_transform(eps, mu, alpha), mu, alpha)
        worst = max(worst, float(np.abs(back - eps).max()))
        z = rng.normal(0.0, 4.0, d)
        fwd = flow.forward_transform(flow.inverse_transform(z, mu, alpha), mu, alpha)
        worst = max(worst, float(np.abs(fwd - z).max()))
    dt = time.perf_counter() - t0
    report(
        "criterion 1 invertibility",
        worst < 1e-12 and dt < 10.0,
        f"max round-trip error {worst:.2e} over 1000 pairs, {dt:.1f}s",
    )


def test_criterion_02_exact_reconstruction(molecules500):
    # encode -> decode is the identity for any parameter values
    params = flow.init_flow_params(MOL_SPEC, np.random.default_rng(1), zero_init_heads=False)
    t0 = time.perf_counter()
    good = 0
    for i, g in enumerate(molecules500):
        h = sampler.reconstruct(g, params, MOL_SPEC, np.random.default_rng(1000 + i))
        good += same_graph(g, h)
    dt = time.perf_counter() - t0
    report(
        "criterion 2 reconstruction",
        good == 500 and dt < 30.0,
        f"{good}/500 exact, {dt:.1f}s",
    )


def test_criterion_03_parallel_matches_sequential(molecules500):
    # one masked stacked pass against the step-by-step oracle, shared noise
    params = flow.init_flow_params(MOL_SPEC, np.random.default_rng(5), zero_init_heads=False)
    worst = 0.0
    for i, g in enumerate(molecules500[:50]):
        z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(300 + i), window=MOL_SPEC.window)
        par = flow.log_likelihood_parallel(g, params, MOL_SPEC, z=z)
        seq = flow.log_likelihood_sequential(g, params, MOL_SPEC, z=z)
        worst = max(worst, abs(par.total - seq.total))
    report(
        "criterion 3 masking",
        worst < 1e-9,
        f"max |parallel - sequential| {worst:.2e} over 50 graphs",
    )


def test_criterion_04_autoregressive_prefix_invariance(molecules500):
    # editing later nodes or later bond slots must leave every earlier
    # latent bit-for-bit identical under shared dequantization noise
    params = flow.init_flow_params(MOL_SPEC, np.random.default_rng(8), zero_init_heads=False)
    checked = 0
    for i, g in enumerate(molecules500[:50]):
        if g.n < 2:
            continue
        last = g.n - 1
        z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(400 + i), window=MOL_SPEC.window)
        base = flow.graph_to_latent(g, params, MOL_SPEC, z=z)

        mutated = g.copy()
        mutated.node_types[last] = (mutated.node_types[last] + 1) % VOCAB.size
        m = flow.graph_to_latent(mutated, params, MOL_SPEC, z=z)
        assert np.array_equal(base.eps_x[:last], m.eps_x[:last])
        for (a, b), v in base.eps_a.items():
            if a < last:
                assert np.array_equal(v, m.eps_a[(a, b)])

        slots = sorted(b for (a, b) in base.eps_a if a == last)
        if len(slots) >= 2:
            j2 = slots[-1]
            flipped = g.copy()
            new = 0 if flipped.categories[last, j2] != 0 else 1
            flipped.categories[last, j2] = new
            flipped.categories[j2, last] = new
            f = flow.graph_to_latent(flipped, params, MOL_SPEC, z=z)
            assert np.array_equal(base.eps_x, f.eps_x)
            for j in slots[:-1]:
                assert np.array_equal(base.eps_a[(last, j)], f.eps_a[(last, j)])
        checked += 1
    report(
        "criterion 4 autoregressive",
        checked >= 45,
        f"{checked} graphs, all earlier latents bitwise stable",
    )


def test_criterion_05_triangular_jacobian():
    # two nodes, two atom types, one bond order: the full data-to-latent
    # map has a lower-triangular Jacobian whose log-determinant is the
    # sum of the per-coordinate log(1/alpha)
    vocab = G.AtomVocab(symbols=("A", "B"), valences=(2, 2))
    bonds = G.BondVocab(orders=(1,))
    spec = flow.ModelSpec(vocab=vocab, bonds=bonds, width=6, layers=2, window=4, max_size=6)
    params = flow.init_flow_params(spec, np.random.default_rng(20), zero_init_heads=False)
    cats = G.empty_categories(2, bonds.no_edge)
    cats[0, 1] = cats[1, 0] = 0
    g = G.MolecularGraph(np.array([0, 1]), cats, bonds.no_edge)
    d = spec.node_dim

    def flat_to_latent(flat):
        z = G.DequantizedGraph(
            zx=flat[: 2 * d].reshape(2, d).copy(), za={(1, 0): flat[2 * d :].copy()}
        )
        lat = flow.graph_to_latent(g, params, spec, z=z)
        return np.concatenate([lat.eps_x.reshape(-1), lat.eps_a[(1, 0)]])

    rng = np.random.default_rng(21)
    z0 = np.concatenate(
        [
            G.dequantize(g, vocab, bonds, rng).zx.reshape(-1),
            G.dequantize(g, vocab, bonds, rng).za[(1, 0)],
        ]
    )
    dim = z0.size
    h = 1e-6
    jac = np.zeros((dim, dim))
    for k in range(dim):
        zp, zm = z0.copy(), z0.copy()
        zp[k] += h
        zm[k] -= h
        jac[:, k] = (flat_to_latent(zp) - flat_to_latent(zm)) / (2.0 * h)
    off = float(np.triu(np.abs(jac), k=1).max())

    plan = flow.build_plan(g.n, spec.window)
    pack = rgcn.pack_step_batch(g, plan.steps, params.rgcn)
    mu_x, alpha_x, mu_a, alpha_a = flow._stacked_conditionals(pack, params)
    expected = float(-np.log(alpha_x.data).sum() - np.log(alpha_a.data[0]).sum())
    sign, logdet = np.linalg.slogdet(jac)
    rel = abs(logdet - expected) / max(1.0, abs(expected))
    report(
        "criterion 5 jacobian",
        off < 1e-8 and sign == 1.0 and rel < 1e-4,
        f"max above-diagonal {off:.2e}, log|det| rel err {rel:.2e}",
    )


def test_criterion_06_gradients_match_finite_differences():
    spec = flow.ModelSpec(width=8, layers=2, window=12, max_size=12)
    params = flow.init_flow_params(spec, np.random.default_rng(3), zero_init_heads=False)
    cats = G.empty_categories(3, NO_EDGE)
    cats[0, 1] = cats[1, 0] = 0
    cats[1, 2] = cats[2, 1] = 1
    g = G.MolecularGraph(np.array([0, 1, 0]), cats, NO_EDGE)
    z = G.dequantize(g, VOCAB, BONDS, np.random.default_rng(11), window=spec.window)

    def loss():
        return flow.log_likelihood_parallel(g, params, spec, z=z, training=True).nll

    t0 = time.perf_counter()
    rel = ad.grad_check(loss, params.named_tensors(), h=1e-5)
    dt = time.perf_counter() - t0
    report(
        "criterion 6 gradients",
        rel < 1e-4 and dt < 60.0,
        f"worst rel err {rel:.2e} over all parameters, {dt:.1f}s",
    )


@pytest.mark.slow
def test_criterion_07_training_reduces_nll(molecules500, trained):
    _, trace1, dt1 = trained
    params2 = flow.init_flow_params(MOL_SPEC, np.random.default_rng(42))
    t0 = time.perf_counter()
    trace2 = flow.train(molecules500, params2, MOL_SPEC, TRAIN_CFG, np.random.default_rng(7))
    dt2 = time.perf_counter() - t0
    drop = (trace1[0] - trace1[-1]) / trace1[0]
    identical = trace1 == trace2
    report(
        "criterion 7 training",
        drop >= 0.20 and identical and (dt1 + dt2) < 600.0,
        f"mean NLL {trace1[0]:.2f} -> {trace1[-1]:.2f} ({100 * drop:.1f}% drop), "
        f"same-seed traces identical={identical}, {dt1 + dt2:.0f}s for both runs",
    )


def test_criterion_08_validity_with_valency_check(trained):
    params, _, _ = trained
    t0 = time.perf_counter()
    graphs, _ = sampler.sample_batch(params, MOL_SPEC, sampler.SamplerConfig(), 1000, seed=17)
    bad = sum(bool(G.valency_violations(g, VOCAB, BONDS)) for g in graphs)
    dt = time.perf_counter() - t0
    report(
        "criterion 8 valid with check",
        bad == 0 and len(graphs) == 1000,
        f"{1000 - bad}/1000 pass the independent valency audit, {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_09_training_helps_unconstrained_validity(trained):
    params, _, _ = trained
    cfg = sampler.SamplerConfig(valency_check=False)
    untrained = flow.init_flow_params(MOL_SPEC, np.random.default_rng(42))

    def validity(p):
        graphs, _ = sampler.sample_batch(p, MOL_SPEC, cfg, 1000, seed=19)
        ok = sum(not G.valency_violations(g, VOCAB, BONDS) for g in graphs)
        return ok / 1000.0

    v_trained = validity(params)
    v_untrained = validity(untrained)
    report(
        "criterion 9 valid without check",
        v_trained >= v_untrained,
        f"trained {v_trained:.3f} vs untrained {v_untrained:.3f} on 1000 samples each",
    )


@pytest.mark.slow
def test_criterion_10_ppo_improves_reward(molecules500):
    # surrogate gradient check at the collection parameters, where the
    # clipped and unclipped objectives coincide
    small = flow.ModelSpec(width=8, layers=1, window=4, max_size=6)
    sparams = flow.init_flow_params(small, np.random.default_rng(2), zero_init_heads=False)
    scorer_count = rl.make_scorer("toy:atom-count", VOCAB, BONDS)
    trajs, _ = rl.collect_trajectories(
        sparams, small, sampler.SamplerConfig(), rl.RewardConfig(gamma=0.9),
        scorer_count, 4, np.random.default_rng(9),
    )
    cfg = rl.PpoConfig()
    base = rl.StepBaselines()
    advantages = [base.advantages(t) for t in trajs]
    # built once, as the update does: the acting log-probs stay at the
    # collection parameters while grad_check moves the weights
    losses = rl._ppo_losses(sparams, trajs, advantages, cfg, 1.0)

    def loss():
        return sum_of([f() for f in losses])

    rel = ad.grad_check(loss, sparams.named_tensors(), h=1e-5)

    # fine-tune a pretrained density model toward nitrogen-rich outputs
    params = flow.init_flow_params(MOL_SPEC, np.random.default_rng(42))
    flow.train(
        molecules500[:300], params, MOL_SPEC,
        flow.TrainConfig(epochs=10, batch_size=32, lr=2e-3), np.random.default_rng(7),
    )
    scorer = rl.make_scorer("toy:atom-fraction:N", VOCAB, BONDS)
    trace = rl.finetune(
        params, MOL_SPEC, scorer,
        rl.RewardConfig(gamma=0.97, shaping="linear", t1=4.0),
        rl.PpoConfig(clip_ratio=0.2, updates=4, batch_size=64, lr=2e-3, warmup=5),
        sampler.SamplerConfig(), iterations=50, rng=np.random.default_rng(3),
    )
    gain = (trace[-1] - trace[0]) / abs(trace[0])
    report(
        "criterion 10 fine-tuning",
        rel < 1e-4 and gain >= 0.50,
        f"surrogate grad rel err {rel:.2e}; mean reward {trace[0]:.3f} -> "
        f"{trace[-1]:.3f} (+{100 * gain:.0f}%) after 50 iterations",
    )


def test_criterion_11_constrained_optimization(molecules500, trained):
    params, _, _ = trained
    seeds = [m for m in molecules500 if 5 <= m.n <= 9][:20]
    scorer = rl.make_scorer("toy:atom-count", VOCAB, BONDS)
    results = rl.optimize_constrained(
        params, MOL_SPEC, seeds, scorer, delta=0.4, rounds=20,
        sampler_cfg=sampler.SamplerConfig(), rng=np.random.default_rng(5),
        m_choices=(0, 0, 1),
    )
    improvement = float(np.mean([r.improvement for r in results]))
    success = float(np.mean([r.success for r in results]))
    sims = [r.similarity for r in results if r.success]
    report(
        "criterion 11 constrained",
        improvement > 0.0 and success >= 0.80 and all(s >= 0.4 for s in sims),
        f"mean improvement {improvement:.2f}, success {success:.2f} "
        f"over 20 seed molecules at similarity floor 0.4",
    )


@pytest.mark.slow
def test_criterion_12_community_distribution_distance():
    t0 = time.perf_counter()
    cvocab, cbonds = G.community_vocab(6)
    train_graphs = [
        G.bfs_reorder(g, 0)[0]
        for g in G.gen_community_graphs(100, 6, 0.7, 0.05, np.random.default_rng(0))
    ]
    spec = flow.ModelSpec(vocab=cvocab, bonds=cbonds, width=32, layers=3, window=12, max_size=12)
    params = flow.init_flow_params(spec, np.random.default_rng(1))
    flow.train(
        train_graphs, params, spec,
        flow.TrainConfig(epochs=80, batch_size=16, lr=2e-3), np.random.default_rng(2),
    )
    model_graphs, _ = sampler.sample_batch(
        params, spec, sampler.SamplerConfig(valency_check=False, temperature=0.8), 200, seed=5
    )
    er_graphs = G.gen_erdos_renyi(100, 12, 0.35, np.random.default_rng(4))

    cap = 11
    h_train = metrics.degree_histograms(train_graphs, max_degree=cap)
    h_model = metrics.degree_histograms(model_graphs, max_degree=cap)
    h_er = metrics.degree_histograms(er_graphs, max_degree=cap)
    self_mmd = metrics.mmd_squared(h_train, h_train)
    model_mmd = metrics.mmd_squared(h_model, h_train)
    er_mmd = metrics.mmd_squared(h_er, h_train)
    dt = time.perf_counter() - t0
    report(
        "criterion 12 distribution",
        self_mmd == 0.0 and model_mmd < er_mmd and dt < 300.0,
        f"MMD(train,train)={self_mmd:.1e}, MMD(model,train)={model_mmd:.4f} "
        f"< MMD(ER,train)={er_mmd:.4f}, {dt:.0f}s",
    )


def test_criterion_13_action_probabilities():
    # category probabilities from the latent-space integral: normalized,
    # and consistent with Monte Carlo decision frequencies
    worst_gap = 0.0
    worst_dev = 0.0
    draws = 20000
    for k in range(20):
        spec = flow.ModelSpec(width=6, layers=1, window=4, max_size=8)
        params = flow.init_flow_params(spec, np.random.default_rng(500 + k), zero_init_heads=False)
        raw = G.gen_synthetic_molecules(1, 8, VOCAB, BONDS, np.random.default_rng(700 + k))[0]
        g = G.bfs_reorder(raw, 0)[0]
        plan = flow.build_plan(g.n, spec.window)
        steps = [("node", g.n - 1, -1)]
        if plan.edge_steps:
            _, ei, ej = plan.edge_steps[-1]
            steps.append(("edge", ei, ej))
        for kind, i, j in steps:
            d = spec.node_dim if kind == "node" else spec.edge_dim
            mu, alpha = flow.step_conditional(params, g, (kind, i, j))
            p = np.exp(rl.action_logprobs(mu, alpha))
            worst_gap = max(worst_gap, abs(float(p.sum()) - 1.0))

            eps = np.random.default_rng(900 + k).standard_normal((draws, d))
            z = np.asarray(mu).reshape(1, d) + np.asarray(alpha).reshape(1, d) * eps
            freq = np.bincount(z.argmax(axis=1), minlength=d) / draws
            sigma = np.sqrt(p * (1.0 - p) / draws)
            dev = float(np.max(np.abs(freq - p) / np.maximum(sigma, 1e-9)))
            worst_dev = max(worst_dev, dev)
    report(
        "criterion 13 action probabilities",
        worst_gap < 1e-9 and worst_dev <= 3.0,
        f"max |sum p - 1| {worst_gap:.2e}; max Monte Carlo deviation "
        f"{worst_dev:.2f} sigma over 20 random models",
    )
