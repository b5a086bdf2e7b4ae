"""A small permutation-equivariant score network and its trainer.

Architecture: per-point affine maps plus a mean-pooled context term at every
layer (tanh hidden activations, linear zero-initialized output). All
parameters are shared across points, so permuting the input permutes the
output exactly. Gradients are hand-written; the optimizer is SGD with
momentum (or Adam) for zero-dependency reproducibility.

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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .cloud import ENUMERATION_CAP, PointCloud, QuotientPoint, as_points
from .errors import DomainError, ParseError, ShapeMismatchError, TrainingDiverged
from .heat_kernel import _check_time
from .ou_sde import NoiseSchedule, canonicalize, ou_transition, reverse_integrate
from .perm_mcmc import McmcConfig
from .quotient_score import (
    ou_conditional_score_exact,
    ou_conditional_score_mcmc,
    ou_conditional_scores_batch,
)

N_TIME_FEATURES = 3


def time_features(t: float) -> np.ndarray:
    """Scalar features of t appended to every point input."""
    return np.array([math.log(t), math.exp(-0.5 * t), math.sqrt(1.0 - math.exp(-t))])


def _pooled(h: np.ndarray) -> np.ndarray:
    # Mean over points, summed in value-sorted order per column so the
    # result is bitwise permutation-invariant.
    return np.sort(h, axis=1).sum(axis=1) / h.shape[1]


class EquivariantNet:
    """Stacked per-point + pooled-context layers mapping (N, d) -> (N, d).

    With ``output_scale="noise"`` the raw output is divided by the forward
    noise scale sqrt(1 - e^{-t}), so the layers regress an O(1) noise-like
    quantity while the returned value is score-scaled. Pair it with the
    variance-scaled loss weighting; under the unweighted loss the rescaled
    gradients are heavy-tailed at small t.
    """

    def __init__(
        self,
        point_dim: int,
        widths: tuple[int, ...] = (64, 64),
        seed: int = 0,
        output_scale: str = "none",
    ):
        if point_dim < 1:
            raise DomainError("point_dim must be >= 1")
        if output_scale not in ("none", "noise"):
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

    def _forward(self, clouds: np.ndarray, ts: np.ndarray, keep_cache: bool):
        b, n, pd = clouds.shape
        if pd != self.point_dim:
            raise ShapeMismatchError(
                f"net expects point dimension {self.point_dim}, got {pd}"
            )
        feats = np.stack([time_features(float(t)) for t in ts])
        h = np.concatenate([clouds, np.broadcast_to(feats[:, None, :], (b, n, feats.shape[1]))], axis=2)
        cache = []
        n_layers = len(self.layers)
        for li, (w_self, w_ctx, bias) in enumerate(self.layers):
            ctx = _pooled(h)
            z = h @ w_self + (ctx @ w_ctx)[:, None, :] + bias
            out = z if li == n_layers - 1 else np.tanh(z)
            if keep_cache:
                cache.append((h, ctx, out))
            h = out
        if self.output_scale == "noise":
            h = h / np.sqrt(1.0 - np.exp(-ts))[:, None, None]
        return h, cache

    def forward(self, clouds: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Batched evaluation: clouds (B, N, d), ts (B,) -> (B, N, d)."""
        out, _ = self._forward(np.asarray(clouds, dtype=float), np.asarray(ts, dtype=float), False)
        return out

    def forward_single(self, y, t: float) -> np.ndarray:
        py = as_points(y)
        return self.forward(py[None], np.array([t]))[0]

    def backprop(self, clouds: np.ndarray, ts: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Flat parameter gradient of sum(grad_out * output)."""
        clouds = np.asarray(clouds, dtype=float)
        ts = np.asarray(ts, dtype=float)
        _, cache = self._forward(clouds, ts, True)
        n = clouds.shape[1]
        g = np.asarray(grad_out, dtype=float)
        if self.output_scale == "noise":
            g = g / np.sqrt(1.0 - np.exp(-ts))[:, None, None]
        grads: list[list[np.ndarray]] = [[] for _ in self.layers]
        n_layers = len(self.layers)
        for li in range(n_layers - 1, -1, -1):
            h_in, ctx, h_out = cache[li]
            w_self, w_ctx, _ = self.layers[li]
            gz = g if li == n_layers - 1 else g * (1.0 - h_out * h_out)
            gsum = gz.sum(axis=1)
            d_self = np.einsum("bni,bnj->ij", h_in, gz)
            d_ctx = ctx.T @ gsum
            d_bias = gsum.sum(axis=0)
            grads[li] = [d_self, d_ctx, d_bias]
            if li > 0:
                g = gz @ w_self.T + ((gsum @ w_ctx.T) / n)[:, None, :]
        return np.concatenate([a.ravel() for layer in grads for a in layer])


def net_forward(net: EquivariantNet, y, t: float) -> np.ndarray:
    """Evaluate the score network on one cloud at time t > 0."""
    _check_time(t)
    return net.forward_single(y, t)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    batch_size: int = 32
    step_size: float = 1e-3
    momentum: float = 0.9
    t_min: float = 1e-2
    horizon: float = 5.0
    target_mode: str = "exact"  # "exact" | "mcmc"
    optimizer: str = "sgd"  # "sgd" (momentum) | "adam"
    mcmc_k: int = 32
    weighting: str = "none"  # "none" | "variance-scaled"
    output_scale: str = "none"  # "none" | "noise"
    widths: tuple[int, ...] = (64, 64)
    holdout_fraction: float = 0.1
    eval_every: int = 50
    divergence_threshold: float = 1e6
    seed: int = 0

    def __post_init__(self):
        if self.t_min <= 0:
            raise DomainError("t_min must be positive")
        if self.t_min >= self.horizon:
            raise DomainError("t_min must be below the horizon")
        if self.target_mode not in ("exact", "mcmc"):
            raise DomainError(f"unknown target mode {self.target_mode!r}")
        if self.weighting not in ("none", "variance-scaled"):
            raise DomainError(f"unknown weighting {self.weighting!r}")
        if self.output_scale not in ("none", "noise"):
            raise DomainError(f"unknown output_scale {self.output_scale!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise DomainError(f"unknown optimizer {self.optimizer!r}")


def _loss_weight(weighting: str, t: float) -> float:
    if weighting == "variance-scaled":
        return 1.0 - math.exp(-t)
    return 1.0


WARMUP_ITERATIONS = 100


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
    """Batch mean of the weighted squared error against targets, and its flat gradient."""
    resid = net.forward(yb, ts) - targets
    w = np.array([_loss_weight(weighting, float(t)) for t in ts])
    loss = float((w * (resid * resid).sum(axis=(1, 2))).mean())
    return loss, net.backprop(yb, ts, 2.0 * w[:, None, None] * resid / len(ts))


def _sample_times(rng, count: int, t_min: float, horizon: float) -> np.ndarray:
    # Log-uniform on [t_min, horizon]: covers concentrated and diffuse regimes.
    lo, hi = math.log(t_min), math.log(horizon)
    return np.exp(rng.uniform(lo, hi, size=count))


def dsm_loss(
    net: EquivariantNet,
    x0,
    t: float,
    target_mode: str = "exact",
    seed=0,
    mcmc_cfg: McmcConfig | None = None,
    cap: int = ENUMERATION_CAP,
    weighting: str = "none",
) -> tuple[float, np.ndarray]:
    """Draw a noised cloud, regress the net onto the symmetrized score.

    Returns the (optionally weighted) squared error and its flat parameter
    gradient, as the trainer computes them for a batch of one. With
    stochastic MCMC targets the parameter gradient is an unbiased estimate
    of the exact-target gradient, because the target enters the squared
    error linearly; the loss itself acquires a constant offset equal to the
    target variance.
    """
    t = _check_time(t)
    px = as_points(x0)
    rng = np.random.default_rng(seed)
    tr = ou_transition(0.0, t)
    y = tr.decay * px + math.sqrt(tr.variance) * rng.standard_normal(px.shape)
    if target_mode == "exact":
        target = ou_conditional_score_exact(px, y, t, cap)
    elif target_mode == "mcmc":
        cfg = mcmc_cfg if mcmc_cfg is not None else McmcConfig()
        cfg = replace(cfg, seed=int(rng.integers(2**63)))
        target = ou_conditional_score_mcmc(px, y, t, cfg)
    else:
        raise DomainError(f"unknown target mode {target_mode!r}")
    return _weighted_loss_grad(net, y[None], np.array([t]), target[None], weighting)


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
        if header.get("format") != cls.FORMAT or header.get("version") != cls.VERSION:
            raise ParseError(f"{path}: not a version-{cls.VERSION} checkpoint")
        params = np.frombuffer(raw[nl + 1 :], dtype="<f8").astype(float)
        if params.size != header["param_count"]:
            raise ParseError(
                f"{path}: expected {header['param_count']} parameters, found {params.size}"
            )
        return cls(
            params=params,
            point_dim=int(header["point_dim"]),
            n_points=int(header["n_points"]),
            widths=tuple(int(w) for w in header["widths"]),
            output_scale=header.get("output_scale", "none"),
            train_config=header["train_config"],
            iteration=int(header["iteration"]),
            holdout_curve=[tuple(p) for p in header["holdout_curve"]],
            train_loss_curve=[tuple(p) for p in header["train_loss_curve"]],
        )


EVAL_PAIRS_PER_ITEM = 8


def _frozen_eval_set(clouds: list[np.ndarray], cfg: TrainConfig, rng) -> tuple:
    """Fixed (y, t, exact target) triples for comparable held-out losses."""
    ys, ts, targets = [], [], []
    for px in clouds:
        for t in _sample_times(rng, EVAL_PAIRS_PER_ITEM, cfg.t_min, cfg.horizon):
            t = float(t)
            tr = ou_transition(0.0, t)
            y = tr.decay * px + math.sqrt(tr.variance) * rng.standard_normal(px.shape)
            ys.append(y)
            ts.append(t)
            targets.append(ou_conditional_score_exact(px, y, t))
    return np.stack(ys), np.asarray(ts), np.stack(targets)


def _eval_loss(net: EquivariantNet, eval_set, weighting: str) -> float:
    ys, ts, targets = eval_set
    out = net.forward(ys, ts)
    w = np.array([_loss_weight(weighting, float(t)) for t in ts])
    per = ((out - targets) ** 2).sum(axis=(1, 2))
    return float((w * per).mean())


def train(dataset, cfg: TrainConfig) -> Checkpoint:
    """Stochastic-gradient denoising score matching over a cloud dataset.

    The step is ``cfg.step_size * _step_scale(it, cfg.iterations)``: linear
    warmup, then cosine decay to zero (see the module docstring). A
    non-finite loss or one above ``cfg.divergence_threshold`` raises
    TrainingDiverged.
    """
    clouds = [as_points(c) for c in dataset]
    if not clouds:
        raise DomainError("dataset must be nonempty")
    shape = clouds[0].shape
    if any(c.shape != shape for c in clouds):
        raise ShapeMismatchError("all dataset clouds must share one (N, d) shape")
    n, d = shape

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

    for it in range(1, cfg.iterations + 1):
        batch_idx = rng.integers(0, stacked.shape[0], size=cfg.batch_size)
        xb = stacked[batch_idx]
        ts = _sample_times(rng, cfg.batch_size, cfg.t_min, cfg.horizon)
        decay = np.exp(-0.5 * ts)
        std = np.sqrt(1.0 - np.exp(-ts))
        yb = decay[:, None, None] * xb + std[:, None, None] * rng.standard_normal(xb.shape)
        if cfg.target_mode == "exact":
            targets = ou_conditional_scores_batch(xb, yb, ts)
        else:
            targets = np.empty_like(yb)
            for bi in range(cfg.batch_size):
                mcfg = McmcConfig(k=cfg.mcmc_k, seed=int(rng.integers(2**63)))
                targets[bi] = ou_conditional_score_mcmc(xb[bi], yb[bi], float(ts[bi]), mcfg)
        loss, grad = _weighted_loss_grad(net, yb, ts, targets, cfg.weighting)
        if not math.isfinite(loss) or loss > cfg.divergence_threshold:
            raise TrainingDiverged(
                f"loss {loss} at iteration {it} exceeded {cfg.divergence_threshold}"
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

    Below the trained t_min the network is queried at the floor and the
    known 1/(1 - e^{-t}) scale of the conditional score is reinstated
    analytically; the smooth denoising direction extrapolates, the singular
    prefactor does not need to.
    """
    net = ckpt.build_net()
    t_floor = float(ckpt.train_config.get("t_min", 1e-2))
    v_floor = 1.0 - math.exp(-t_floor)

    def score_fn(y, t):
        if t >= t_floor:
            return net.forward_single(y, t)
        scale = v_floor / (1.0 - math.exp(-t))
        return scale * net.forward_single(y, t_floor)

    return score_fn


def sample_from_model(
    ckpt: Checkpoint,
    n_samples: int,
    schedule: NoiseSchedule,
    seed: int,
) -> list[QuotientPoint]:
    """Draw stationary noise and integrate the learned reverse dynamics."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    score_fn = checkpoint_score_fn(ckpt)
    samples = []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        y_t = rng.standard_normal((ckpt.n_points, ckpt.point_dim))
        traj = reverse_integrate(y_t, schedule, score_fn, rng)
        samples.append(canonicalize(traj.states[-1]))
    return samples
