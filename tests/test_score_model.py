"""Equivariant network: exact symmetry, hand-written gradients, training."""

import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdiff.bench import make_synthetic_dataset
from permdiff.cloud import Permutation, PointCloud, apply, canonicalize
from permdiff.errors import CapacityError, DomainError, ShapeMismatchError, TrainingDiverged
from permdiff.heat_kernel import DP_CEILING
from permdiff.ou_sde import REVERSE_T_MIN, NoiseSchedule, ou_transition, reverse_integrate
from permdiff.perm_mcmc import McmcConfig
from permdiff.quotient_score import ou_conditional_score_exact, ou_conditional_score_mcmc
from permdiff.score_model import (
    Checkpoint,
    EquivariantNet,
    TrainConfig,
    checkpoint_score_fn,
    dsm_loss,
    _frozen_eval_set,
    _sample_times,
    sample_from_model,
    train,
)


def randomized_net(point_dim, widths, seed, scale=0.3):
    net = EquivariantNet(point_dim, widths, seed=seed)
    rng = np.random.default_rng(seed + 1)
    net.set_flat(scale * rng.standard_normal(net.n_params))
    return net


class TestEquivariance:
    def test_exact_exhaustive_n3(self):
        net = randomized_net(2, (8, 8), seed=0)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((3, 2))
        out = net.forward_single(y, 0.7)
        for perm in itertools.permutations(range(3)):
            sigma = Permutation(perm)
            lhs = net.forward_single(apply(sigma, y).points, 0.7)
            rhs = apply(sigma, out).points
            np.testing.assert_array_equal(lhs, rhs)

    def test_exact_randomized_n8(self):
        net = randomized_net(3, (16,), seed=2)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((8, 3))
        out = net.forward_single(y, 1.3)
        for _ in range(10):
            sigma = Permutation(tuple(rng.permutation(8)))
            lhs = net.forward_single(apply(sigma, y).points, 1.3)
            np.testing.assert_array_equal(lhs, apply(sigma, out).points)

    def test_zero_final_layer_zero_output(self):
        net = EquivariantNet(2, (8, 8), seed=4)
        y = np.random.default_rng(5).standard_normal((5, 2))
        assert np.all(net.forward_single(y, 0.5) == 0.0)

    def test_output_shape_matches_input(self):
        net = randomized_net(4, (8,), seed=6)
        y = np.random.default_rng(7).standard_normal((6, 4))
        assert net.forward_single(y, 2.0).shape == (6, 4)

    def test_time_validation(self):
        net = EquivariantNet(1, (4,), seed=8)
        with pytest.raises(DomainError):
            net.forward_single([[0.0]], 0.0)


# The profile of conftest.py. The decorators stay: hypothesis derives a
# method's derandomized examples from its source, decorators included.
PROPERTY_SETTINGS = settings.get_profile("permdiff")
PROPERTY_NETS = {d: randomized_net(d, (96, 96), seed=d) for d in (1, 2, 3)}


@st.composite
def relabeled_batches(draw, distinct=False):
    """(clouds (B, N, d), ts, p): N = 1..12, d = 1..3, B = 1 or 64.

    Unless ``distinct``, some clouds repeat points and some coordinates are
    zeros of either sign, so equal points can differ in the sign of a zero.
    """
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    b = draw(st.sampled_from([1, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal((b, n, d))
    if not distinct:
        if draw(st.booleans()):
            y = y[:, rng.integers(0, n, size=n)]
        if draw(st.booleans()):
            zero = rng.random((b, n, d)) < 0.4
            y[zero] = 0.0
            y = np.where(zero & (rng.random((b, n, d)) < 0.5), -0.0, y)
    ts = np.exp(rng.uniform(math.log(1e-3), math.log(5.0), size=b))
    return y, ts, rng.permutation(n)


def bits(a):
    """Bit patterns, so that -0.0 and 0.0 do not compare equal."""
    return np.ascontiguousarray(a).view(np.int64)


class TestBitwiseEquivariance:
    @PROPERTY_SETTINGS
    @given(relabeled_batches())
    def test_forward_permutes_bitwise(self, case):
        y, ts, p = case
        net = PROPERTY_NETS[y.shape[2]]
        out = bits(net.forward(y, ts))
        np.testing.assert_array_equal(bits(net.forward(y[:, p], ts)), out[:, p])
        # Points equal as values (0.0 == -0.0) get bitwise equal outputs.
        same_in = (y[:, :, None, :] == y[:, None, :, :]).all(axis=3)
        same_out = (out[:, :, None, :] == out[:, None, :, :]).all(axis=3)
        assert np.all(same_out[same_in])

    @PROPERTY_SETTINGS
    @given(relabeled_batches(distinct=True))
    def test_backprop_invariant_under_joint_relabeling(self, case):
        y, ts, p = case
        net = PROPERTY_NETS[y.shape[2]]
        g = np.random.default_rng(y.size).standard_normal(y.shape)
        np.testing.assert_array_equal(
            bits(net.backprop(y[:, p], ts, g[:, p])), bits(net.backprop(y, ts, g))
        )


# sha256 of forward outputs and backward gradients per (B, N), computed with
# the network as it stood before its gathers were written as flat indexing.
PASS_DIGESTS = {
    (1, 1): "69bb04a7a29ea1d0efa5418d569aac63e152b9e3573c2c3c0f6ad56dcb25ace4",
    (1, 3): "2cca25e2e9a46c9dbddb9ae46a18d87257d7b414a62fed3415b29ae3cca1da4c",
    (1, 7): "49496152630b496b4ea22b4c3decf26caf951adb29ac7d81b0ad9cf83b7a4c51",
    (5, 1): "842e882d0eeda40136dfea77ee2cbaca4ba40e74373412a16de63c8d6ad46a9d",
    (5, 3): "a7e226814c5eb3fd43fc92c60187832f10b0f4d9e044fd3faf850c2fa24a35aa",
    (5, 7): "59402b239abb4dd143ffd727ae7a40f45f64c988a9e4d54e25d8775e6be876b3",
    (64, 1): "e9c7d5914016140b7b74375bf425f3cba5a5f1577da03deecdd5170eb978b7c8",
    (64, 3): "7d3126834207ad06d57f90c4668ad2d21772a096dff60c139c01deb8fac0526b",
    (64, 7): "b8c26dac0608e9e2bb005bc606f55b49e8ad3f3b07773fbc4acbf4099ba37383",
}


def pass_digest(b, n):
    """Digest of both passes over d = 1..3 and both output scales.

    Clouds repeat points and hold zeros of either sign.
    """
    h = hashlib.sha256()
    for d in (1, 2, 3):
        for scale in ("none", "noise"):
            rng = np.random.default_rng([b, n, d])
            net = EquivariantNet(d, (16, 16), seed=d, output_scale=scale)
            net.set_flat(0.3 * rng.standard_normal(net.n_params))
            y = rng.standard_normal((b, n, d))[:, rng.integers(0, n, size=n)]
            zero = rng.random((b, n, d)) < 0.3
            y[zero] = 0.0
            y = np.where(zero & (rng.random((b, n, d)) < 0.5), -0.0, y)
            ts = np.exp(rng.uniform(math.log(1e-3), math.log(5.0), size=b))
            out, state = net._forward(y, ts)
            grad = net._backward(state, rng.standard_normal((b, n, d)))
            h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(grad, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("b, n", sorted(PASS_DIGESTS))
def test_forward_and_backward_are_pinned(b, n):
    assert pass_digest(b, n) == PASS_DIGESTS[b, n]


class TestBackprop:
    def test_matches_finite_differences(self):
        net = randomized_net(2, (6, 6), seed=9)
        assert net.n_params <= 500
        rng = np.random.default_rng(10)
        y = rng.standard_normal((1, 3, 2))
        ts = np.array([0.8])
        g_out = rng.standard_normal((1, 3, 2))
        grad = net.backprop(y, ts, g_out)
        flat = net.get_flat()
        h = 1e-6
        for idx in rng.choice(net.n_params, size=60, replace=False):
            fp, fm = flat.copy(), flat.copy()
            fp[idx] += h
            fm[idx] -= h
            net.set_flat(fp)
            up = float((net.forward(y, ts) * g_out).sum())
            net.set_flat(fm)
            um = float((net.forward(y, ts) * g_out).sum())
            fd = (up - um) / (2 * h)
            denom = max(1e-8, abs(fd))
            assert abs(grad[idx] - fd) / denom < 1e-4
            net.set_flat(flat)

    def test_dsm_loss_gradient_matches_finite_differences(self):
        net = randomized_net(1, (6,), seed=11)
        x0 = np.random.default_rng(12).standard_normal((2, 1))
        loss, grad = dsm_loss(net, x0, 0.5, seed=13)
        flat = net.get_flat()
        h = 1e-6
        rng = np.random.default_rng(14)
        for idx in rng.choice(net.n_params, size=40, replace=False):
            fp, fm = flat.copy(), flat.copy()
            fp[idx] += h
            fm[idx] -= h
            net.set_flat(fp)
            lp, _ = dsm_loss(net, x0, 0.5, seed=13)
            net.set_flat(fm)
            lm, _ = dsm_loss(net, x0, 0.5, seed=13)
            fd = (lp - lm) / (2 * h)
            assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))
            net.set_flat(flat)


class TestDsmLoss:
    def test_zero_when_net_equals_target(self):
        # a zero net with the final bias set to the known target reproduces
        # it exactly for a single-point cloud
        x0 = np.array([[1.0, -0.5]])
        t, seed = 0.9, 21
        net = EquivariantNet(2, (4,), seed=20)
        rng = np.random.default_rng(seed)
        tr = ou_transition(0.0, t)
        y = tr.decay * x0 + math.sqrt(tr.variance) * rng.standard_normal(x0.shape)
        target = ou_conditional_score_exact(x0, y, t)
        flat = net.get_flat()
        flat[-2:] = target[0]
        net.set_flat(flat)
        loss, grad = dsm_loss(net, x0, t, seed=seed)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_nonnegative(self):
        net = randomized_net(2, (6,), seed=22)
        rng = np.random.default_rng(23)
        for s in range(5):
            loss, _ = dsm_loss(net, rng.standard_normal((3, 2)), 0.4, seed=s)
            assert loss >= 0.0

    def test_mcmc_mode_runs_and_is_finite(self):
        net = randomized_net(2, (6,), seed=24)
        x0 = np.random.default_rng(25).standard_normal((3, 2))
        loss, grad = dsm_loss(net, x0, 0.5, target_mode="mcmc", seed=3, mcmc_k=16)
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_variance_weighting_scales_loss(self):
        net = randomized_net(1, (4,), seed=26)
        x0 = np.array([[0.7]])
        t = 0.8
        plain, _ = dsm_loss(net, x0, t, seed=5, weighting="none")
        weighted, _ = dsm_loss(net, x0, t, seed=5, weighting="variance-scaled")
        assert weighted == pytest.approx((1.0 - math.exp(-t)) * plain, rel=1e-12)


class TestRegressionSanity:
    def test_gradient_descent_fits_single_target(self):
        # fixed (y, t, target): the regression is well posed and converges
        rng = np.random.default_rng(27)
        net = randomized_net(2, (8, 8), seed=28, scale=0.1)
        y = rng.standard_normal((1, 3, 2))
        ts = np.array([0.6])
        target = rng.standard_normal((1, 3, 2))
        flat = net.get_flat()
        velocity = np.zeros_like(flat)
        for step in range(5000):
            out = net.forward(y, ts)
            resid = out - target
            err = float(np.abs(resid).max())
            if err < 1e-3:
                break
            grad = net.backprop(y, ts, 2.0 * resid)
            velocity = 0.9 * velocity - 5e-3 * grad
            flat = flat + velocity
            net.set_flat(flat)
        assert err < 1e-3, f"did not fit the target in 5000 steps (err={err})"


class TestTrain:
    def _toy_dataset(self, rng, n_items=16):
        template = np.array([[-1.0], [1.0]])
        return [template + 0.05 * rng.standard_normal((2, 1)) for _ in range(n_items)]

    def test_holdout_loss_decreases_smoothed_single_cloud(self):
        # one-cloud dataset: the regression target is deterministic given
        # (y, t), so the descent phase is clean under balanced weighting
        data = [np.array([[-1.0], [1.0]])]
        cfg = TrainConfig(
            iterations=1400, batch_size=32, step_size=1e-2, widths=(16, 16),
            eval_every=100, weighting="variance-scaled", seed=30,
        )
        ckpt = train(data, cfg)
        losses = [v for _, v in ckpt.holdout_curve]
        smoothed = np.convolve(losses, np.ones(5) / 5.0, mode="valid")
        assert smoothed[-1] < 0.5 * smoothed[0]
        assert np.all(np.diff(smoothed) <= 1e-9)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(31)
        data = self._toy_dataset(rng, n_items=8)
        cfg = TrainConfig(iterations=60, batch_size=4, widths=(8,), eval_every=10, seed=32)
        a = train(data, cfg)
        b = train(data, cfg)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.holdout_curve == b.holdout_curve
        assert a.train_loss_curve == b.train_loss_curve

    def test_divergence_raises(self):
        rng = np.random.default_rng(33)
        data = self._toy_dataset(rng, n_items=8)
        cfg = TrainConfig(iterations=400, step_size=5.0, widths=(8,), seed=34)
        with pytest.raises(TrainingDiverged, match="iteration"):
            train(data, cfg)

    def test_mcmc_targets_close_to_exact_targets(self):
        rng = np.random.default_rng(35)
        data = self._toy_dataset(rng, n_items=12)
        base = dict(iterations=800, batch_size=8, step_size=1e-3, widths=(12,),
                    eval_every=100, seed=36)
        exact_ckpt = train(data, TrainConfig(target_mode="exact", **base))
        mcmc_ckpt = train(data, TrainConfig(target_mode="mcmc", mcmc_k=32, **base))
        final_exact = exact_ckpt.holdout_curve[-1][1]
        final_mcmc = mcmc_ckpt.holdout_curve[-1][1]
        assert abs(final_mcmc - final_exact) <= 0.2 * max(final_exact, final_mcmc)

    @pytest.mark.parametrize(
        "setting",
        [dict(horizon=math.inf), dict(horizon=math.nan), dict(t_min=math.nan),
         dict(t_min=0.0), dict(t_min=5.0), dict(step_size=math.inf), dict(momentum=math.nan)],
    )
    def test_config_rejects_bad_times_and_non_finite_steps(self, setting):
        # Refused before training: an infinite horizon would make the time
        # draw overflow, and an infinite step size diverge mid-training.
        with pytest.raises(DomainError):
            TrainConfig(**setting)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(Exception):
            train([np.zeros((2, 1)), np.zeros((3, 1))], TrainConfig(iterations=1))

    @pytest.mark.parametrize("n", [10, 17])
    def test_mcmc_training_above_the_exact_cap(self, n):
        # N = 10 is above the default cap of 9: exact targets, in the loop and
        # the eval set, come from the subset DP. N = 17 is above the DP
        # ceiling: MCMC training uses MCMC eval targets, exact training fails
        # at the start, naming the DP's limit, also when it would train nothing.
        data = make_synthetic_dataset("jittered-template", 16, n, 2, 0)
        ckpt = train(data, TrainConfig(target_mode="mcmc", iterations=2, batch_size=4))
        assert len(ckpt.holdout_curve) == 2
        assert np.all(np.isfinite([v for _, v in ckpt.holdout_curve]))
        exact = TrainConfig(target_mode="exact", iterations=2, batch_size=4)
        if n > DP_CEILING:
            for cfg in (exact, replace(exact, iterations=0)):
                with pytest.raises(CapacityError, match=f"N <= {DP_CEILING}.*mcmc"):
                    train(data, cfg)
        else:
            ckpt = train(data, exact)
            assert np.all(np.isfinite([v for _, v in ckpt.train_loss_curve]))
            assert np.all(np.isfinite([v for _, v in ckpt.holdout_curve]))

    def test_seeded_mcmc_training_is_pinned(self):
        # Pinned with block-Gibbs MCMC targets (Rao-Blackwellised marginals of
        # ceil(k / 8) chains per target); the earlier pin, with swap-chain
        # targets, differed in all 770 parameters, by at most 3.9e-4.
        data = make_synthetic_dataset("jittered-template", 12, 7, 2, 3)
        cfg = TrainConfig(target_mode="mcmc", iterations=3, batch_size=8, mcmc_k=4,
                          widths=(16, 16), seed=5)
        params = np.ascontiguousarray(train(data, cfg).params, dtype="<f8")
        assert hashlib.sha256(params.tobytes()).hexdigest() == (
            "1b28f801dd0738935a45b59bba4c4dac2290517a59327d1853572fd1e5ff9b85"
        )

    def test_seeded_adam_training_is_pinned(self):
        # Every benchmark workload trains with Adam at these settings.
        data = make_synthetic_dataset("jittered-template", 12, 3, 2, 3)
        cfg = TrainConfig(optimizer="adam", iterations=5, batch_size=8, widths=(16, 16),
                          weighting="variance-scaled", output_scale="noise", t_min=1e-3, seed=5)
        params = np.ascontiguousarray(train(data, cfg).params, dtype="<f8")
        assert hashlib.sha256(params.tobytes()).hexdigest() == (
            "4137e7d94a09bb444831f52bc16821e7b5c0dc625a5d0273229dc5c6c6101ea6"
        )

    def test_adam_halves_holdout_loss_on_toy_task(self):
        data = make_synthetic_dataset("jittered-template", 64, 3, 2, seed=43, jitter=0.05)
        cfg = TrainConfig(optimizer="adam", iterations=300, batch_size=32, step_size=1e-2,
                          widths=(32, 32), weighting="variance-scaled", output_scale="noise",
                          t_min=1e-3, seed=44)
        curve = train(data, cfg).holdout_curve
        assert curve[-1][1] < 0.5 * curve[0][1]

    def test_eval_set_above_the_dp_ceiling_matches_per_pair_chains(self):
        rng = np.random.default_rng(41)
        clouds = [rng.standard_normal((17, 2)) for _ in range(2)]
        cfg = TrainConfig(mcmc_k=8)
        ys, ts, targets = _frozen_eval_set(clouds, cfg, np.random.default_rng(42))
        xs = np.repeat(np.stack(clouds), 8, axis=0)
        for i, (x, y, t) in enumerate(zip(xs, ys, ts)):
            ref = ou_conditional_score_mcmc(x, y, float(t), McmcConfig(k=8, seed=i))
            assert targets[i].tobytes() == ref.tobytes()

    def test_eval_set_draws_and_targets_match_per_pair_reference(self):
        rng = np.random.default_rng(39)
        clouds = [rng.standard_normal((4, 2)) for _ in range(3)]
        cfg = TrainConfig(t_min=1e-3)
        ys, ts, targets = _frozen_eval_set(clouds, cfg, np.random.default_rng(40))
        ref = np.random.default_rng(40)
        k = 0
        for px in clouds:
            for t in _sample_times(ref, 8, cfg.t_min, cfg.horizon):
                tr = ou_transition(0.0, float(t))
                y = tr.decay * px + math.sqrt(tr.variance) * ref.standard_normal(px.shape)
                np.testing.assert_array_equal(ys[k], y)
                assert ts[k] == t
                np.testing.assert_allclose(
                    targets[k], ou_conditional_score_exact(px, y, float(t)), rtol=1e-10, atol=1e-10
                )
                k += 1
        assert k == len(ts)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: train([], TrainConfig(iterations=1)), DomainError, "nonempty"),
        (lambda: sample_from_model(
            train([np.zeros((2, 1))], TrainConfig(iterations=0, widths=(2,))), 0,
            NoiseSchedule.uniform(1.0, 2), seed=0), DomainError, "n_samples"),
        (lambda: EquivariantNet(0, (4,)), DomainError, "point_dim"),
        (lambda: EquivariantNet(1, (4,), output_scale="huge"), DomainError, "output_scale"),
        (lambda: EquivariantNet(1, (4,)).set_flat(np.zeros(3)), ShapeMismatchError, "parameters"),
        (lambda: EquivariantNet(1, (4,)).forward(np.zeros((1, 2, 2)), np.ones(1)),
         ShapeMismatchError, "point dimension"),
    ],
    ids=["train-no-data", "sample-none", "net-point-dim", "net-output-scale", "net-flat-shape",
         "net-input-shape"],
)
def test_refuses_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestCheckpoint:
    def test_roundtrip_identical_outputs(self, tmp_path):
        rng = np.random.default_rng(37)
        data = [rng.standard_normal((2, 1)) for _ in range(6)]
        cfg = TrainConfig(iterations=30, batch_size=4, widths=(8,), eval_every=10, seed=38)
        ckpt = train(data, cfg)
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        np.testing.assert_array_equal(ckpt.params, loaded.params)
        y = rng.standard_normal((2, 1))
        np.testing.assert_array_equal(
            ckpt.build_net().forward_single(y, 0.5),
            loaded.build_net().forward_single(y, 0.5),
        )

    def test_loads_a_train_config_with_divergence_threshold(self, tmp_path):
        # Checkpoints written while the threshold was a TrainConfig field hold
        # it in train_config. Such a file loads and samples as it did then:
        # the digest was computed with that version of the package.
        rng = np.random.default_rng(48)
        data = [rng.standard_normal((3, 2)) for _ in range(6)]
        ckpt = train(data, TrainConfig(iterations=20, batch_size=4, widths=(8,), seed=49))
        ckpt.train_config["divergence_threshold"] = 1e6
        path = tmp_path / "model.ckpt"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.train_config == ckpt.train_config
        samples = sample_from_model(loaded, 4, NoiseSchedule.geometric(1.0, 16, 1e-3), seed=50)
        assert hashlib.sha256(np.stack([s.points for s in samples]).tobytes()).hexdigest() == (
            "a927dd3d73f80ebfe75129e03c08abacc6e9742fc9bae2187f9db36d10696ec6"
        )

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(Exception):
            Checkpoint.load(path)


class TestSampleFromModel:
    def test_zero_net_matches_linear_recursion_oracle(self):
        # with a zero score the reverse update is linear-Gaussian; its exact
        # terminal variance follows the recursion v <- (1 + dt/2)^2 v + dt
        data = [np.zeros((1, 1))]
        ckpt = train(data, TrainConfig(iterations=0, widths=(4,), seed=39))
        steps, horizon = 32, 2.0
        sched = NoiseSchedule.uniform(horizon, steps)
        v = 1.0
        dt = horizon / steps
        for _ in range(steps):
            v = (1.0 + dt / 2.0) ** 2 * v + dt
        draws = np.array(
            [q.points[0, 0] for q in sample_from_model(ckpt, 3000, sched, seed=40)]
        )
        var_se = draws.var() * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(draws.var() - v) < 4.0 * var_se
        assert abs(draws.mean()) < 4.0 * draws.std() / math.sqrt(len(draws))

    def test_outputs_are_canonical_and_deterministic(self):
        rng = np.random.default_rng(41)
        data = [rng.standard_normal((3, 2)) for _ in range(6)]
        ckpt = train(data, TrainConfig(iterations=20, batch_size=4, widths=(8,), seed=42))
        sched = NoiseSchedule.geometric(1.0, 16, 1e-3)
        a = sample_from_model(ckpt, 5, sched, seed=43)
        b = sample_from_model(ckpt, 5, sched, seed=43)
        for qa, qb in zip(a, b):
            np.testing.assert_array_equal(qa.points, qb.points)
            order = np.lexsort(qa.points.T[::-1])
            np.testing.assert_array_equal(qa.points, qa.points[order])

    def test_score_extrapolation_below_training_floor(self):
        rng = np.random.default_rng(44)
        data = [rng.standard_normal((2, 1)) for _ in range(6)]
        ckpt = train(data, TrainConfig(iterations=20, batch_size=4, widths=(8,), seed=45))
        fn = checkpoint_score_fn(ckpt)
        y = rng.standard_normal((2, 1))
        t_floor = ckpt.train_config["t_min"]
        at_floor = fn(y, t_floor)
        below = fn(y, t_floor / 10.0)
        expected_scale = (1.0 - math.exp(-t_floor)) / (1.0 - math.exp(-t_floor / 10.0))
        np.testing.assert_allclose(below, at_floor * expected_scale, rtol=1e-12)


class TestBatchedSampling:
    """sample_from_model integrates all clouds as one stack."""

    @pytest.fixture(scope="class")
    def ckpt(self):
        rng = np.random.default_rng(46)
        data = [rng.standard_normal((3, 2)) for _ in range(6)]
        return train(data, TrainConfig(iterations=20, batch_size=4, widths=(8,), seed=47))

    @staticmethod
    def per_cloud(ckpt, n_samples, sched, seed):
        # One reverse_integrate per cloud, on the cloud's own seed stream.
        score_fn = checkpoint_score_fn(ckpt)
        finals = []
        for child in np.random.SeedSequence(seed).spawn(n_samples):
            rng = np.random.default_rng(child)
            y_t = rng.standard_normal((ckpt.n_points, ckpt.point_dim))
            finals.append(reverse_integrate(y_t, sched, score_fn, rng).states[-1].points)
        return finals

    def test_each_cloud_matches_per_cloud_integration(self, ckpt):
        sched = NoiseSchedule.geometric(1.0, 16, 1e-2)
        batched = sample_from_model(ckpt, 5, sched, seed=48)
        reference = self.per_cloud(ckpt, 5, sched, seed=48)
        assert len(batched) == 5
        for q, ref in zip(batched, reference):
            np.testing.assert_allclose(q.points, ref, rtol=0, atol=1e-12)

    def test_first_cloud_does_not_depend_on_batch_size(self, ckpt):
        sched = NoiseSchedule.geometric(1.0, 16, 1e-2)
        one = sample_from_model(ckpt, 1, sched, seed=49)
        five = sample_from_model(ckpt, 5, sched, seed=49)
        np.testing.assert_allclose(one[0].points, five[0].points, rtol=0, atol=1e-12)

    def test_grid_below_training_floor(self, ckpt):
        sched = NoiseSchedule.geometric(1.0, 16, 1e-4)
        assert sched.grid[1] < ckpt.train_config["t_min"]
        batched = sample_from_model(ckpt, 5, sched, seed=50)
        reference = self.per_cloud(ckpt, 5, sched, seed=50)
        for q, ref in zip(batched, reference):
            np.testing.assert_allclose(q.points, ref, rtol=0, atol=1e-12)

    def test_stacked_score_extrapolates_below_floor(self, ckpt):
        fn = checkpoint_score_fn(ckpt)
        ys = np.random.default_rng(51).standard_normal((4, 3, 2))
        t_floor = ckpt.train_config["t_min"]
        below = fn(ys, t_floor / 10.0)
        expected_scale = (1.0 - math.exp(-t_floor)) / (1.0 - math.exp(-t_floor / 10.0))
        np.testing.assert_allclose(below, fn(ys, t_floor) * expected_scale, rtol=1e-12)
        for y, row in zip(ys, below):
            np.testing.assert_allclose(row, fn(y, t_floor / 10.0), rtol=0, atol=1e-12)


class TestNoiseBlocks:
    """Noise drawn in blocks of steps gives each cloud the stream of one draw per step."""

    # sha256 of sample_from_model's clouds, computed when each cloud drew one
    # (N, d) normal per step. 64 steps fill one block; 65 and 200 cross a
    # block boundary. A geometric grid needs two steps, so one step is uniform.
    DIGESTS = {
        1: "66c42580edc8972518aa007319186b2a66e652bf3a3781b791e62ecb62f71d59",
        64: "998bca6063a5363209c65a60081470c7b5aaddee9c2f0b925e6061b9845d2c56",
        65: "fe754999d0547be4756ffaf5c446c913cb066cdff33cf7f8fb96af6783c21901",
        200: "4aaf4bccda873785490a79c11c4f09043537c7654ce29b9d99eb3099ffd54391",
    }

    @pytest.fixture(scope="class")
    def ckpt(self):
        rng = np.random.default_rng(52)
        data = [rng.standard_normal((3, 2)) for _ in range(6)]
        return train(data, TrainConfig(iterations=20, batch_size=4, widths=(8,), seed=53))

    @staticmethod
    def schedule(steps):
        if steps == 1:
            return NoiseSchedule.uniform(1.0, 1)
        return NoiseSchedule.geometric(1.0, steps, 1e-3)

    @staticmethod
    def per_step_draws(ckpt, n_samples, sched, seed):
        # The reverse loop with one (N, d) draw per cloud per step.
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_samples)]
        y = np.stack([rng.standard_normal((ckpt.n_points, ckpt.point_dim)) for rng in rngs])
        score_fn = checkpoint_score_fn(ckpt)
        grid = sched.grid
        for k in range(sched.steps, 0, -1):
            dt = float(grid[k - 1] - grid[k])
            score = score_fn(y, max(float(grid[k]), REVERSE_T_MIN))
            noise = np.stack([rng.standard_normal(y.shape[1:]) for rng in rngs])
            y = y + (-0.5 * y - score) * dt + math.sqrt(-dt) * noise
        return [canonicalize(PointCloud(cloud)) for cloud in y]

    @pytest.mark.parametrize("steps", sorted(DIGESTS))
    def test_samples_are_pinned_and_match_per_step_draws(self, ckpt, steps):
        sched = self.schedule(steps)
        samples = sample_from_model(ckpt, 3, sched, seed=54)
        stacked = np.stack([q.points for q in samples]).astype("<f8")
        assert hashlib.sha256(stacked.tobytes()).hexdigest() == self.DIGESTS[steps]
        reference = self.per_step_draws(ckpt, 3, sched, seed=54)
        for q, ref in zip(samples, reference):
            assert q.points.tobytes() == ref.points.tobytes()
