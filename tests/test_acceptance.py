"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion plus timings. The toy-generation criterion
trains a model and takes 145-150 s on a 2-vCPU machine; everything else is
fast.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import permdiff as pd
from permdiff import bench, cli
from permdiff.bench import cloud_features, energy_permutation_test, sorted_pairwise_distances
from permdiff.cloud import Permutation, apply, permutation_array
from permdiff.heat_kernel import quotient_log_heat_kernel_exact
from permdiff.io import write_cloud_text, write_dataset
from permdiff.perm_mcmc import cost_matrix, exact_from_log_weights, posterior_exact
from permdiff.quotient_score import ou_conditional_score_exact, ou_conditional_scores_batch
from permdiff.score_model import EquivariantNet

from test_perm_mcmc import chain_transition_prob, empirical_tv


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "PASS (over time budget)"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeded {budget_seconds}s"


def test_criterion_1_quotient_kernel_correctness():
    with criterion(1, "quotient-kernel correctness", 1.0):
        value = quotient_log_heat_kernel_exact([[0.0], [1.0]], [[0.0], [1.0]], 0.5)
        expected = math.log((1.0 + math.exp(-1.0)) / (2.0 * math.pi))
        assert abs(value - expected) <= 1e-12 * abs(expected)

        rng = np.random.default_rng(1)
        for n in (2, 3, 4):
            x = rng.standard_normal((n, 2))
            y = rng.standard_normal((n, 2))
            base = quotient_log_heat_kernel_exact(x, y, 0.3)
            for perm in itertools.permutations(range(n)):
                sigma = Permutation(perm)
                for xx, yy in (
                    (x, apply(sigma, y).points),
                    (apply(sigma, x).points, y),
                ):
                    val = quotient_log_heat_kernel_exact(xx, yy, 0.3)
                    assert abs(val - base) <= 1e-12 * abs(base)


def test_criterion_2_score_oracle_equality():
    with criterion(2, "score equals kernel-gradient oracle", 60.0):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 4))
            t = float(np.exp(rng.uniform(math.log(1e-2), math.log(5.0))))
            x = rng.standard_normal((n, d))
            y = x[rng.permutation(n)] + math.sqrt(2.0 * t) * rng.standard_normal((n, d))
            score = pd.symmetrized_score_exact(x, y, t)
            h = 1e-5
            for i in range(n):
                for j in range(d):
                    yp, ym = y.copy(), y.copy()
                    yp[i, j] += h
                    ym[i, j] -= h
                    fd = (
                        quotient_log_heat_kernel_exact(x, yp, t)
                        - quotient_log_heat_kernel_exact(x, ym, t)
                    ) / (2.0 * h)
                    worst = max(worst, abs(score[i, j] - fd))
        assert worst < 1e-5, f"max |score - finite difference| = {worst}"


def test_criterion_3_posterior_mcmc_correctness():
    with criterion(3, "MCMC matches enumerated posterior", 300.0):
        rng = np.random.default_rng(3)
        times = [0.05, 0.5, 5.0]
        for rep in range(10):
            t = times[rep % 3]
            x = rng.standard_normal((5, 2))
            y = x[rng.permutation(5)] + math.sqrt(2.0 * t) * rng.standard_normal((5, 2))
            exact = posterior_exact(x, y, t)
            dist, _ = pd.mcmc_sample(x, y, t, pd.McmcConfig(k=100_000, seed=1000 + rep))
            tv = empirical_tv(dist, exact)
            assert tv < 0.05, f"instance {rep} (t={t}): TV = {tv}"

        # detailed balance, exhaustively over S_3 transition pairs
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        entries = cost_matrix(x, y, 0.4)
        post = posterior_exact(x, y, 0.4)
        q = dict(zip(map(tuple, post.support.tolist()), post.probabilities()))
        for sigma in itertools.permutations(range(3)):
            for sigma_prime in itertools.permutations(range(3)):
                if sigma == sigma_prime:
                    continue
                fwd = chain_transition_prob(entries, sigma, sigma_prime)
                if fwd is None:
                    continue
                rev = chain_transition_prob(entries, sigma_prime, sigma)
                lhs, rhs = q[sigma] * fwd, q[sigma_prime] * rev
                assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_criterion_4_estimator_convergence():
    with criterion(4, "MCMC-score error decays as K^(-1/2)", 300.0):
        study = bench.run_estimator_study(
            n=5, d=2, t=0.7, seed=0, k_grid=(8, 32, 128, 512), replicates=100
        )
        assert -0.65 <= study.slope <= -0.35, f"slope = {study.slope}"
        errs = study.mean_errors
        assert all(b < a for a, b in zip(errs, errs[1:])), f"errors not decreasing: {errs}"


def test_criterion_5_elbo_decomposition():
    with criterion(5, "ELBO + KL equals log evidence", 10.0):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2))
        t = 0.6
        nfact = math.factorial(4)
        for _ in range(50):
            r = exact_from_log_weights(4, np.log(rng.dirichlet(np.ones(nfact))))
            rep = pd.elbo(r, x, y, t)
            assert abs(rep.decomposition_gap()) < 1e-10
            assert rep.kl > 1e-10  # random r differs from q
        q = posterior_exact(x, y, t)
        rep = pd.elbo(q, x, y, t)
        assert abs(rep.kl) <= 1e-10
        assert abs(rep.decomposition_gap()) < 1e-10


def test_criterion_6_semigroup_and_initial_condition():
    with criterion(6, "semigroup identity and delta initial condition", 120.0):
        rng = np.random.default_rng(6)
        for n, d, s, t, m in ((2, 1, 0.25, 0.25, 100_000), (3, 2, 0.1, 0.4, 60_000)):
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((n, d))
            res = pd.quotient_kernel_semigroup_residual(x, y, s, t, m=m, seed=60 + n)
            assert res.residual <= 3.0 * res.std_error, (n, res)

        # two invariant test functions, times decreasing toward zero
        ts = [1.0, 0.1, 0.01, 0.001]
        x = np.array([[0.0], [1.5]])
        center = np.array([[0.2], [1.2]])
        width = 0.8
        centers = [center, center[::-1]]

        def bump(z):
            return sum(
                math.exp(-float(((z - c) ** 2).sum()) / (2.0 * width**2)) for c in centers
            )

        est_bump = pd.initial_condition_check(bump, x, ts, m=20_000, seed=61)
        gaps = [abs(e - bump(x)) for e in est_bump]
        assert gaps[-1] < 0.02 and gaps[-1] < gaps[0]

        def min_coord(z):
            return float(z.min())

        est_min = pd.initial_condition_check(min_coord, x, ts, m=20_000, seed=62)
        errs = [abs(e - 0.0) for e in est_min]
        assert errs[-1] < 0.05 and errs[-1] < errs[0]


def test_criterion_7_toy_generation(tmp_path):
    with criterion(7, "end-to-end toy generation", 900.0):
        data = bench.make_synthetic_dataset(
            "jittered-template", 512, 3, 2, seed=42, jitter=0.05
        )
        cfg = pd.TrainConfig(
            iterations=20_000,
            batch_size=64,
            step_size=1e-2,
            momentum=0.9,
            widths=(96, 96),
            weighting="variance-scaled",
            output_scale="noise",
            t_min=1e-3,
            seed=42,
        )
        schedule = pd.NoiseSchedule.geometric(5.0, 384, 1e-3)
        report = bench.run_toy_generation(
            data, cfg, schedule, n_samples=256, n_reference=256, n_shuffles=1000, seed=7
        )
        assert report.p_value >= 0.01, f"trained model rejected: p = {report.p_value}"

        control = bench.run_toy_generation(
            data, cfg, schedule, n_samples=256, n_reference=256, n_shuffles=1000,
            seed=7, do_train=False,
        )
        assert control.p_value < 0.01, f"negative control passed: p = {control.p_value}"


def test_criterion_7b_holdout_loss_halves():
    # companion check to the generation run: training must at least halve
    # the held-out DSM loss on the same toy task (shorter run for speed)
    with criterion("7b", "held-out loss halves on the toy task", 300.0):
        data = bench.make_synthetic_dataset(
            "jittered-template", 64, 3, 2, seed=43, jitter=0.05
        )
        cfg = pd.TrainConfig(
            iterations=3000, batch_size=32, step_size=1e-2, widths=(32, 32),
            weighting="variance-scaled", output_scale="noise", t_min=1e-3, seed=44,
        )
        ckpt = pd.train(data, cfg)
        initial = ckpt.holdout_curve[0][1]
        final = ckpt.holdout_curve[-1][1]
        assert final < 0.5 * initial, (initial, final)


def test_criterion_8_unbiased_gradient_structure():
    with criterion(8, "MCMC targets give unbiased gradients", 300.0):
        rng = np.random.default_rng(8)
        net = EquivariantNet(2, (6, 6), seed=80)
        net.set_flat(0.3 * rng.standard_normal(net.n_params))
        assert net.n_params <= 500

        x0 = rng.standard_normal((4, 2))
        t = 0.5
        tr = pd.ou_transition(0.0, t)
        y = tr.decay * x0 + math.sqrt(tr.variance) * rng.standard_normal(x0.shape)
        target_exact = ou_conditional_score_exact(x0, y, t)
        out = net.forward_single(y, t)
        grad_exact = net.backprop(y[None], np.array([t]), (2.0 * (out - target_exact))[None])

        cosines = []
        for k in range(100):
            cfg = pd.McmcConfig(k=256, seed=8000 + k)
            target_k = pd.ou_conditional_score_mcmc(x0, y, t, cfg)
            g_k = net.backprop(y[None], np.array([t]), (2.0 * (out - target_k))[None])
            cosines.append(
                float(g_k @ grad_exact / (np.linalg.norm(g_k) * np.linalg.norm(grad_exact)))
            )
        mean_cos = float(np.mean(cosines))
        assert mean_cos > 0.99, f"mean gradient cosine = {mean_cos}"

        # loss offset: E[loss with stochastic target] = exact loss + Var(target)
        loss_exact = float(((out - target_exact) ** 2).sum())
        paired = []
        for k in range(1000):
            cfg = pd.McmcConfig(k=256, seed=90_000 + k)
            target_k = pd.ou_conditional_score_mcmc(x0, y, t, cfg)
            loss_k = float(((out - target_k) ** 2).sum())
            var_k = float(((target_k - target_exact) ** 2).sum())
            paired.append(loss_k - var_k - loss_exact)
        paired = np.asarray(paired)
        se = paired.std(ddof=1) / math.sqrt(len(paired))
        assert abs(paired.mean()) <= 2.0 * se, (paired.mean(), se)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "seeded CLI runs are bitwise reproducible", 600.0):
        x_path = tmp_path / "x.txt"
        y_path = tmp_path / "y.txt"
        rng = np.random.default_rng(9)
        write_cloud_text(x_path, rng.standard_normal((3, 2)))
        write_cloud_text(y_path, rng.standard_normal((3, 2)))
        data_path = tmp_path / "data.jsonl"
        write_dataset(data_path, [rng.standard_normal((2, 1)) for _ in range(8)])
        ckpt_path = tmp_path / "model.ckpt"

        train_argv = [
            "train", "--data", str(data_path), "--out", str(ckpt_path),
            "--iterations", "15", "--batch-size", "4", "--width", "8",
            "--depth", "1", "--seed", "5",
        ]
        invocations = [
            ["kernel", "--x", str(x_path), "--y", str(y_path), "--t", "0.5",
             "--mode", "quotient-exact"],
            ["kernel", "--x", str(x_path), "--y", str(y_path), "--t", "0.5",
             "--mode", "euclid"],
            ["posterior", "--x", str(x_path), "--y", str(y_path), "--t", "0.5",
             "--mode", "exact"],
            ["posterior", "--x", str(x_path), "--y", str(y_path), "--t", "0.5",
             "--mode", "mcmc", "--k", "40", "--seed", "2"],
            ["score", "--x", str(x_path), "--y", str(y_path), "--t", "0.5",
             "--mode", "exact"],
            ["score", "--x", str(x_path), "--y", str(y_path), "--t", "0.5",
             "--mode", "mcmc", "--k", "40", "--seed", "3"],
            ["forward", "--x", str(x_path), "--horizon", "1.0", "--steps", "6",
             "--seed", "4", "--assignment-trace"],
            ["reverse", "--init", str(y_path), "--ref", str(x_path),
             "--score-source", "exact", "--horizon", "1.0", "--steps", "6",
             "--seed", "4"],
            train_argv,
            ["sample", "--checkpoint", str(ckpt_path), "--n", "2", "--steps", "6",
             "--seed", "6"],
            ["bench-score", "--k-grid", "4,16", "--replicates", "4", "--seed", "7"],
            ["bench-gen", "--kind", "jittered-template", "--items", "20",
             "--points", "2", "--dim", "1", "--iterations", "5", "--batch-size", "4",
             "--width", "8", "--depth", "1", "--samples", "6", "--reference", "6",
             "--shuffles", "20", "--steps", "6", "--seed", "8", "--no-train"],
            ["make-data", "--kind", "ring", "--items", "5", "--points", "4",
             "--dim", "2", "--seed", "9", "--out", str(tmp_path / "ring.jsonl")],
        ]
        for argv in invocations:
            outputs = []
            for _ in range(2):
                code = cli.dispatch(argv)
                captured = capsys.readouterr()
                assert code == 0, f"{argv} failed: {captured.err}"
                outputs.append(captured.out.encode())
                if argv[0] == "make-data":
                    outputs[-1] += (tmp_path / "ring.jsonl").read_bytes()
                if argv[0] == "train":
                    outputs[-1] += ckpt_path.read_bytes()
            assert outputs[0] == outputs[1], f"non-reproducible output: {argv[0]}"
