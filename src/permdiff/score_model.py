"""A small permutation-equivariant score network and its trainer.

Architecture: per-point affine maps plus a mean-pooled context term at every
layer (tanh hidden activations, linear zero-initialized output). All
parameters are shared across points, and every call runs the layers on the
points in one canonical order, so permuting the input permutes the output
bitwise for every N and batch size. Gradients are hand-written; a training
step makes one forward pass and runs the backward pass over its cache. The
optimizer is SGD with momentum (or Adam) for zero-dependency
reproducibility.

Step-size schedule, for both optimizers: the step grows linearly over the
first ``WARMUP_ITERATIONS`` iterations, then decays along a cosine to zero
at the last iteration. The paper fixes no schedule; this one is the
package's own choice. With a constant step, SGD at 1e-2 and momentum 0.9
diverges within 20 iterations on the toy generation task (widths 96x2,
batch 64, noise-scaled output) although its gradients are correct; with
the schedule it trains to samples the energy test accepts (p = 0.40).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cloud import PointCloud, as_points
from .errors import CapacityError, DomainError, ParseError, ShapeMismatchError, TrainingDiverged
from .heat_kernel import DP_CEILING, _check_time
from .ou_sde import NoiseSchedule, _noised, _reverse_steps, canonicalize, ou_coefficients
from .quotient_score import ou_conditional_scores_batch, ou_conditional_scores_mcmc

N_TIME_FEATURES = 3

# The allowed values of TrainConfig's string settings.
TRAIN_CHOICES = {
    "target_mode": ("exact", "mcmc"),
    "optimizer": ("sgd", "adam"),  # "sgd" is SGD with momentum
    "weighting": ("none", "variance-scaled"),
    "output_scale": ("none", "noise"),
}


def time_features(ts: np.ndarray) -> np.ndarray:
    """Features of each time, (B,) -> (B, 3), appended to every point input.

    The last feature is the forward noise scale sqrt(1 - e^{-t}).
    """
    ts = np.asarray(ts, dtype=float)
    decay, variance = ou_coefficients(ts)
    return np.stack([np.log(ts), decay, np.sqrt(variance)], axis=-1)


def _param_count(point_dim: int, widths: tuple[int, ...]) -> int:
    dims = [point_dim + N_TIME_FEATURES, *widths, point_dim]
    return sum(2 * din * dout + dout for din, dout in zip(dims[:-1], dims[1:]))


class EquivariantNet:
    """Stacked per-point + pooled-context layers mapping (N, d) -> (N, d).

    Each call puts every cloud's points in one canonical order (sorted
    lexicographically, -0.0 read as 0.0) and runs all layers on the ordered
    cloud, so any relabeling of a cloud runs the same arithmetic on the same
    array. Each run of exactly equal points takes the output of its first
    point. Permuting the input therefore permutes the output bitwise, for
    every N and batch size.

    With ``output_scale="noise"`` the raw output is divided by the forward
    noise scale sqrt(1 - e^{-t}), so the layers regress an O(1) noise-like
    quantity while the returned value is score-scaled. Pair it with the
    variance-scaled loss weighting; under the unweighted loss the rescaled
    gradients are heavy-tailed at small t.
    """

    def __init__(
        self,
        point_dim: int,
        widths: tuple[int, ...],
        seed: int = 0,
        output_scale: str = "none",
    ):
        if point_dim < 1:
            raise DomainError("point_dim must be >= 1")
        if output_scale not in TRAIN_CHOICES["output_scale"]:
            raise DomainError(f"unknown output_scale {output_scale!r}")
        self.point_dim = int(point_dim)
        self.widths = tuple(int(w) for w in widths)
        self.output_scale = output_scale
        rng = np.random.default_rng(seed)
        dims = [self.point_dim + N_TIME_FEATURES, *self.widths, self.point_dim]
        self.layers: list[list[np.ndarray]] = []
        for li, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            last = li == len(dims) - 2
            if last:
                # Zero output at initialization, whatever the input.
                w_self = np.zeros((din, dout))
                w_ctx = np.zeros((din, dout))
            else:
                scale = 1.0 / math.sqrt(2.0 * din)
                w_self = scale * rng.standard_normal((din, dout))
                w_ctx = scale * rng.standard_normal((din, dout))
            self.layers.append([w_self, w_ctx, np.zeros(dout)])

    @property
    def n_params(self) -> int:
        return sum(a.size for layer in self.layers for a in layer)

    def get_flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for layer in self.layers for a in layer])

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ShapeMismatchError(
                f"expected {self.n_params} parameters, got {flat.shape}"
            )
        pos = 0
        for layer in self.layers:
            for k, a in enumerate(layer):
                layer[k] = flat[pos : pos + a.size].reshape(a.shape).copy()
                pos += a.size

    def _forward(self, clouds: np.ndarray, ts: np.ndarray):
        """Output (B, N, d) in the caller's order, and the cache ``_backward`` needs."""
        b, n, pd = clouds.shape
        if pd != self.point_dim:
            raise ShapeMismatchError(
                f"net expects point dimension {self.point_dim}, got {pd}"
            )
        zeroed = clouds + 0.0  # -0.0 + 0.0 is +0.0
        # Gathers index the flat (B·N, ·) rows: row i of cloud c is c·N + i.
        offsets = (np.arange(b) * n)[:, None]
        order = np.lexsort(zeroed.transpose(2, 0, 1))
        rows = order + offsets
        feats = time_features(ts)
        h = np.empty((b, n, pd + N_TIME_FEATURES))
        h[:, :, :pd] = zeroed.reshape(b * n, pd)[rows]
        h[:, :, pd:] = feats[:, None, :]
        sorted_clouds = h[:, :, :pd]
        new_run = np.ones((b, n), dtype=bool)
        new_run[:, 1:] = (sorted_clouds[:, 1:] != sorted_clouds[:, :-1]).any(axis=2)
        run_first = np.maximum.accumulate(np.where(new_run, np.arange(n), 0), axis=1)
        source = np.empty_like(rows)
        source[np.arange(b)[:, None], order] = run_first + offsets

        cache = []
        n_layers = len(self.layers)
        for li, (w_self, w_ctx, bias) in enumerate(self.layers):
            ctx = h.sum(axis=1) / n
            z = (h.reshape(b * n, -1) @ w_self).reshape(b, n, -1)
            z += (ctx @ w_ctx + bias)[:, None, :]
            out = z if li == n_layers - 1 else np.tanh(z, out=z)
            cache.append((h, ctx, out))
            h = out
        if self.output_scale == "noise":
            h = h / feats[:, None, 2:]
        return h.reshape(b * n, pd)[source], (rows, feats, cache)

    def _backward(self, state, grad_out: np.ndarray) -> np.ndarray:
        """Flat parameter gradient of sum(grad_out * output) over a cached pass.

        The forward pass gives every point of a run of equal points the
        output of the run's first point. Here each caller row's gradient
        enters at its own sorted position instead, which gives the same
        gradient up to rounding, because the points of a run have equal
        inputs.
        """
        rows, feats, cache = state
        b, n = rows.shape
        g = np.asarray(grad_out, dtype=float).reshape(b * n, self.point_dim)[rows]
        if self.output_scale == "noise":
            g = g / feats[:, None, 2:]
        grads: list[list[np.ndarray]] = [[] for _ in self.layers]
        n_layers = len(self.layers)
        for li in range(n_layers - 1, -1, -1):
            h_in, ctx, h_out = cache[li]
            w_self, w_ctx, _ = self.layers[li]
            gz = g if li == n_layers - 1 else g * (1.0 - h_out * h_out)
            gz_rows = gz.reshape(b * n, -1)
            gsum = gz.sum(axis=1)
            d_self = h_in.reshape(b * n, -1).T @ gz_rows
            d_ctx = ctx.T @ gsum
            d_bias = gsum.sum(axis=0)
            grads[li] = [d_self, d_ctx, d_bias]
            if li > 0:
                g = (gz_rows @ w_self.T).reshape(b, n, -1) + ((gsum @ w_ctx.T) / n)[:, None, :]
        return np.concatenate([a.ravel() for layer in grads for a in layer])

    def forward(self, clouds: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Batched evaluation: clouds (B, N, d), ts (B,) -> (B, N, d)."""
        out, _ = self._forward(np.asarray(clouds, dtype=float), np.asarray(ts, dtype=float))
        return out

    def forward_single(self, y, t: float) -> np.ndarray:
        """Evaluate one cloud at time t > 0."""
        py = as_points(y)
        return self.forward(py[None], np.array([_check_time(t)]))[0]

    def backprop(self, clouds: np.ndarray, ts: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Flat parameter gradient of sum(grad_out * output)."""
        _, state = self._forward(np.asarray(clouds, dtype=float), np.asarray(ts, dtype=float))
        return self._backward(state, grad_out)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 32
    step_size: float = 1e-3
    momentum: float = 0.9
    t_min: float = 1e-2
    horizon: float = 5.0
    target_mode: str = "exact"
    optimizer: str = "sgd"
    mcmc_k: int = 32
    weighting: str = "none"
    output_scale: str = "none"
    widths: tuple[int, ...] = (64, 64)
    holdout_fraction: float = 0.1
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.t_min < self.horizon < math.inf:
            raise DomainError(
                f"need 0 < t_min < horizon < inf, got t_min={self.t_min}, horizon={self.horizon}"
            )
        for name in ("step_size", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name, allowed in TRAIN_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise DomainError(f"unknown {name} {getattr(self, name)!r}")
        for name in ("batch_size", "eval_every", "mcmc_k"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.iterations < 0:
            raise DomainError(f"iterations must be >= 0, got {self.iterations}")
        if not self.widths or min(self.widths) < 1:
            raise DomainError(f"widths must be nonempty and each >= 1, got {list(self.widths)}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise DomainError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")


def _loss_weights(weighting: str, ts: np.ndarray) -> np.ndarray:
    if weighting == "variance-scaled":
        return ou_coefficients(ts)[1]
    return np.ones_like(ts)


WARMUP_ITERATIONS = 100
DIVERGENCE_THRESHOLD = 1e6


def _step_scale(it: int, iterations: int) -> float:
    """Multiplier of the step size at iteration ``it`` (1-based).

    Linear warmup to 1 over the first WARMUP_ITERATIONS iterations (all of
    them in a shorter run), then cosine decay to 0 at ``iterations``.
    """
    warmup = min(WARMUP_ITERATIONS, iterations)
    if it <= warmup:
        return it / warmup
    return 0.5 * (1.0 + math.cos(math.pi * (it - warmup) / (iterations - warmup)))


def _weighted_loss_grad(
    net: EquivariantNet, yb: np.ndarray, ts: np.ndarray, targets: np.ndarray, weighting: str
) -> tuple[float, np.ndarray]:
    """Batch mean of the weighted squared error against targets, and its flat gradient.

    One forward pass serves both: the backward pass runs over its cache.
    """
    out, state = net._forward(yb, ts)
    resid = out - targets
    w = _loss_weights(weighting, ts)
    loss = float((w * (resid * resid).sum(axis=(1, 2))).mean())
    return loss, net._backward(state, 2.0 * w[:, None, None] * resid / len(ts))


def _sample_times(rng, count: int, t_min: float, horizon: float) -> np.ndarray:
    # Log-uniform on [t_min, horizon]: covers concentrated and diffuse regimes.
    lo, hi = math.log(t_min), math.log(horizon)
    return np.exp(rng.uniform(lo, hi, size=count))


def _targets(xb, yb, ts, mcmc_k: int | None = None, rng=None) -> np.ndarray:
    """Symmetrized-score targets of B (x0, y, t) triples, from one batched call.

    Exact when ``mcmc_k`` is None, by the subset DP up to ``DP_CEILING``
    points (CapacityError above). Otherwise MCMC with ``mcmc_k`` samples: row
    r runs on a seed drawn from ``rng``, or on seed r when no ``rng`` is given.
    """
    if mcmc_k is None:
        return ou_conditional_scores_batch(xb, yb, ts)
    seeds = range(len(ts)) if rng is None else rng.integers(2**63, size=len(ts))
    return ou_conditional_scores_mcmc(xb, yb, ts, seeds, mcmc_k)


def dsm_loss(
    net: EquivariantNet,
    x0,
    t: float,
    target_mode: str = "exact",
    seed=0,
    mcmc_k: int = TrainConfig.mcmc_k,
    weighting: str = "none",
) -> tuple[float, np.ndarray]:
    """Draw a noised cloud, regress the net onto the symmetrized score.

    Returns the (optionally weighted) squared error and its flat parameter
    gradient, as the trainer computes them for a batch of one. The target
    enters the squared error linearly, so with MCMC targets the expected
    gradient is that of the targets' mean, and the loss acquires a constant
    offset equal to the target variance. The gradient is therefore biased
    as far as the targets are: the block-Gibbs targets of
    ``ou_conditional_scores_mcmc`` carry a bias that does not shrink with k.
    """
    if target_mode not in TRAIN_CHOICES["target_mode"]:
        raise DomainError(f"unknown target mode {target_mode!r}")
    mcmc_k = mcmc_k if target_mode == "mcmc" else None
    ts = np.array([_check_time(t)])
    xb = as_points(x0)[None]
    rng = np.random.default_rng(seed)
    yb = _noised(rng, xb, ts)
    return _weighted_loss_grad(net, yb, ts, _targets(xb, yb, ts, mcmc_k, rng), weighting)


@dataclass
class Checkpoint:
    """Trained parameters plus everything needed to rebuild and sample."""

    params: np.ndarray
    point_dim: int
    n_points: int
    widths: tuple[int, ...]
    train_config: dict
    iteration: int
    output_scale: str = "none"
    holdout_curve: list[tuple[int, float]] = field(default_factory=list)
    train_loss_curve: list[tuple[int, float]] = field(default_factory=list)

    FORMAT = "permdiff-checkpoint"
    VERSION = 1

    def build_net(self) -> EquivariantNet:
        net = EquivariantNet(self.point_dim, self.widths, seed=0, output_scale=self.output_scale)
        net.set_flat(self.params)
        return net

    def save(self, path) -> None:
        """One JSON header line, then the raw little-endian float64 params."""
        header = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "point_dim": self.point_dim,
            "n_points": self.n_points,
            "widths": list(self.widths),
            "output_scale": self.output_scale,
            "train_config": self.train_config,
            "iteration": self.iteration,
            "holdout_curve": self.holdout_curve,
            "train_loss_curve": self.train_loss_curve,
            "param_count": int(self.params.size),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(self.params.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Checkpoint":
        raw = Path(path).read_bytes()
        nl = raw.find(b"\n")
        if nl < 0:
            raise ParseError(f"{path}: missing checkpoint header")
        try:
            header = json.loads(raw[:nl].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: bad checkpoint header") from exc
        if (
            not isinstance(header, dict)
            or header.get("format") != cls.FORMAT
            or header.get("version") != cls.VERSION
        ):
            raise ParseError(f"{path}: not a version-{cls.VERSION} checkpoint")
        payload = raw[nl + 1 :]
        if len(payload) % 8:
            raise ParseError(f"{path}: parameter block of {len(payload)} bytes is truncated")
        params = np.frombuffer(payload, dtype="<f8").astype(float)
        try:
            if params.size != header["param_count"]:
                raise ParseError(
                    f"{path}: expected {header['param_count']} parameters, found {params.size}"
                )
            train_config = header["train_config"]
            # checkpoint_score_fn reads the trained t_min as the score's time floor.
            if not isinstance(train_config, dict) or not (
                float(train_config.get("t_min", TrainConfig.t_min)) > 0
            ):
                raise ParseError(f"{path}: train_config must be a mapping with t_min > 0")
            ckpt = cls(
                params=params,
                point_dim=int(header["point_dim"]),
                n_points=int(header["n_points"]),
                widths=tuple(int(w) for w in header["widths"]),
                output_scale=header.get("output_scale", "none"),
                train_config=train_config,
                iteration=int(header["iteration"]),
                holdout_curve=[tuple(p) for p in header["holdout_curve"]],
                train_loss_curve=[tuple(p) for p in header["train_loss_curve"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad checkpoint header field {exc}") from exc
        if min(ckpt.point_dim, ckpt.n_points, *ckpt.widths) < 1:
            raise ParseError(f"{path}: point_dim, n_points and widths must be >= 1")
        if ckpt.output_scale not in TRAIN_CHOICES["output_scale"]:
            raise ParseError(f"{path}: unknown output_scale {ckpt.output_scale!r}")
        implied = _param_count(ckpt.point_dim, ckpt.widths)
        if params.size != implied:
            raise ParseError(
                f"{path}: point_dim {ckpt.point_dim} and widths {list(ckpt.widths)} "
                f"imply {implied} parameters, found {params.size}"
            )
        return ckpt


EVAL_PAIRS_PER_ITEM = 8


def _frozen_eval_set(clouds: list[np.ndarray], cfg: TrainConfig, rng) -> tuple:
    """Fixed (y, t, target) triples for comparable held-out losses.

    The targets are exact, from one batched call, up to the subset DP's
    ceiling of N points. Above it they are MCMC targets, also from one
    batched call, pair i on seed i; the set is frozen, so their offset
    from the exact targets stays the same over the holdout curve.
    """
    xs, ys, ts = [], [], []
    for px in clouds:
        t = _sample_times(rng, EVAL_PAIRS_PER_ITEM, cfg.t_min, cfg.horizon)
        x = np.broadcast_to(px, (len(t), *px.shape))
        xs.append(x)
        ys.append(_noised(rng, x, t))
        ts.append(t)
    xs, ys, ts = np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)
    mcmc_k = None if xs.shape[1] <= DP_CEILING else cfg.mcmc_k
    return ys, ts, _targets(xs, ys, ts, mcmc_k)


def _eval_loss(net: EquivariantNet, eval_set, weighting: str) -> float:
    ys, ts, targets = eval_set
    out = net.forward(ys, ts)
    per = ((out - targets) ** 2).sum(axis=(1, 2))
    return float((_loss_weights(weighting, ts) * per).mean())


def train(dataset, cfg: TrainConfig) -> Checkpoint:
    """Stochastic-gradient denoising score matching over a cloud dataset.

    The step is ``cfg.step_size * _step_scale(it, cfg.iterations)``: linear
    warmup, then cosine decay to zero (see the module docstring). A
    non-finite loss or one above ``DIVERGENCE_THRESHOLD`` raises
    TrainingDiverged. Exact targets come from the subset DP: exact mode
    above ``DP_CEILING`` points raises CapacityError before any work.
    """
    clouds = [as_points(c) for c in dataset]
    if not clouds:
        raise DomainError("dataset must be nonempty")
    shape = clouds[0].shape
    if any(c.shape != shape for c in clouds):
        raise ShapeMismatchError("all dataset clouds must share one (N, d) shape")
    n, d = shape
    if cfg.target_mode == "exact" and n > DP_CEILING:
        raise CapacityError(
            f"exact training targets come from the subset DP, limited to N <= {DP_CEILING}, "
            f"got N = {n}; use target_mode='mcmc' instead"
        )

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(clouds))
    n_hold = max(1, int(round(cfg.holdout_fraction * len(clouds))))
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:]
    if train_idx.size == 0:
        train_idx = hold_idx
    eval_set = _frozen_eval_set([clouds[i] for i in hold_idx], cfg, rng)

    net = EquivariantNet(d, cfg.widths, seed=cfg.seed, output_scale=cfg.output_scale)
    flat = net.get_flat()
    velocity = np.zeros_like(flat)
    adam_m = np.zeros_like(flat)
    adam_v = np.zeros_like(flat)
    holdout_curve: list[tuple[int, float]] = [(0, _eval_loss(net, eval_set, cfg.weighting))]
    train_curve: list[tuple[int, float]] = []
    stacked = np.stack([clouds[i] for i in train_idx])
    mcmc_k = cfg.mcmc_k if cfg.target_mode == "mcmc" else None

    for it in range(1, cfg.iterations + 1):
        batch_idx = rng.integers(0, stacked.shape[0], size=cfg.batch_size)
        xb = stacked[batch_idx]
        ts = _sample_times(rng, cfg.batch_size, cfg.t_min, cfg.horizon)
        yb = _noised(rng, xb, ts)
        targets = _targets(xb, yb, ts, mcmc_k, rng)
        loss, grad = _weighted_loss_grad(net, yb, ts, targets, cfg.weighting)
        if not math.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
            raise TrainingDiverged(
                f"loss {loss} at iteration {it} exceeded {DIVERGENCE_THRESHOLD}"
            )
        step = cfg.step_size * _step_scale(it, cfg.iterations)
        if cfg.optimizer == "adam":
            adam_m = 0.9 * adam_m + 0.1 * grad
            adam_v = 0.999 * adam_v + 0.001 * grad * grad
            m_hat = adam_m / (1.0 - 0.9**it)
            v_hat = adam_v / (1.0 - 0.999**it)
            flat = flat - step * m_hat / (np.sqrt(v_hat) + 1e-8)
        else:
            velocity = cfg.momentum * velocity - step * grad
            flat = flat + velocity
        net.set_flat(flat)
        train_curve.append((it, loss))
        if it % cfg.eval_every == 0 or it == cfg.iterations:
            holdout_curve.append((it, _eval_loss(net, eval_set, cfg.weighting)))

    return Checkpoint(
        params=net.get_flat(),
        point_dim=d,
        n_points=n,
        widths=cfg.widths,
        train_config=_config_dict(cfg),
        iteration=cfg.iterations,
        output_scale=cfg.output_scale,
        holdout_curve=holdout_curve,
        train_loss_curve=train_curve,
    )


def _config_dict(cfg: TrainConfig) -> dict:
    out = asdict(cfg)
    out["widths"] = list(cfg.widths)
    return out


def checkpoint_score_fn(ckpt: Checkpoint):
    """Score callback for a trained model, valid at all times t > 0.

    The callback scores one cloud (N, d) or a stack of clouds (B, N, d), the
    stack with one batched network call. Below the trained t_min the network
    is queried at the floor and the known 1/(1 - e^{-t}) scale of the
    conditional score is reinstated analytically; the smooth denoising
    direction extrapolates, the singular prefactor does not need to.
    """
    net = ckpt.build_net()
    t_floor = float(ckpt.train_config.get("t_min", TrainConfig.t_min))
    v_floor = ou_coefficients(t_floor)[1]

    def score_fn(y, t):
        t_net = max(t, t_floor)
        if np.ndim(y) == 3:
            out = net.forward(y, np.full(len(y), t_net))
        else:
            out = net.forward(as_points(y)[None], np.array([t_net]))[0]
        if t >= t_floor:
            return out
        return (v_floor / ou_coefficients(t)[1]) * out

    return score_fn


def sample_from_model(
    ckpt: Checkpoint,
    n_samples: int,
    schedule: NoiseSchedule,
    seed: int,
) -> list[PointCloud]:
    """Draw stationary noise and integrate the learned reverse dynamics.

    All clouds are integrated together as one (n_samples, N, d) state, with
    one batched network call per step. Cloud i draws its terminal noise and
    then its per-step noise from child i of ``SeedSequence(seed)``, so it
    follows the same path as ``reverse_integrate`` would give it alone, up
    to the rounding of the batched matrix products.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_samples)]
    y = np.stack([rng.standard_normal((ckpt.n_points, ckpt.point_dim)) for rng in rngs])
    # Keep only the current state of the stack.
    for y in _reverse_steps(y, schedule, checkpoint_score_fn(ckpt), rngs):
        pass
    return [canonicalize(cloud) for cloud in y]
