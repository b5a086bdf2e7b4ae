"""Mean-reverting forward noising and reverse-time integration.

The forward process dx = -x/2 dt + dw has closed-form Gaussian transitions
with decay e^{-(t-s)/2} and variance 1 - e^{-(t-s)}, and a standard-normal
stationary law. Quotient semantics come from simulating the Euclidean lift
and canonicalizing outputs: permutations are isometries, so the lift is
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .cloud import (
    Permutation,
    PointCloud,
    as_points,
    canonicalize,
    check_same_shape,
    min_cost_assignment,
)
from .errors import DomainError, ScoreCallbackError
from .heat_kernel import _check_time, _log_kernels, _logsumexp

# Score callbacks are never evaluated below this time; the conditional score
# scale 1/(2t) is singular at t = 0.
REVERSE_T_MIN = 1e-4


@dataclass(frozen=True)
class OuTransition:
    """Closed-form transition coefficients between two times."""

    decay: float
    variance: float


def ou_coefficients(dt):
    """Decay e^{-dt/2} and variance 1 - e^{-dt} over elapsed times dt, elementwise.

    -expm1(-dt) stays accurate where 1 - e^{-dt} rounds to 0 (dt below about 1e-16).
    """
    dt = np.asarray(dt, dtype=float)
    return np.exp(-0.5 * dt), -np.expm1(-dt)


def ou_transition(s: float, t: float) -> OuTransition:
    """Coefficients of the Gaussian transition from time s to time t > s."""
    s, t = float(s), float(t)
    if s < 0 or not (s < t):
        raise DomainError(f"need 0 <= s < t, got s={s}, t={t}")
    decay, variance = ou_coefficients(t - s)
    return OuTransition(decay=float(decay), variance=float(variance))


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """A time grid 0 = t_0 < t_1 < ... < t_steps = T."""

    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("schedule grid needs at least two times")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise DomainError("grid must start at 0 and be strictly increasing")
        grid = grid.copy()
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "NoiseSchedule":
        if horizon <= 0 or steps < 1:
            raise DomainError("need horizon > 0 and steps >= 1")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @classmethod
    def geometric(cls, horizon: float, steps: int, t_end: float = 1e-4) -> "NoiseSchedule":
        """Log-spaced grid from t_end up to the horizon, plus the origin.

        Step sizes shrink proportionally to t, which keeps the reverse
        integrator stable through the strongly contracting small-t regime.
        """
        if horizon <= 0 or steps < 2:
            raise DomainError("need horizon > 0 and steps >= 2")
        if not (0.0 < t_end < horizon):
            raise DomainError("need 0 < t_end < horizon")
        grid = np.concatenate([[0.0], np.geomspace(t_end, horizon, steps)])
        return cls(grid)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def steps(self) -> int:
        return self.grid.size - 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states over a time grid."""

    times: np.ndarray
    states: tuple[PointCloud, ...]

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise DomainError("times and states must have equal length")


def forward_sample(x0, t: float, seed) -> PointCloud:
    """Draw from the transition at time t started from x0."""
    t = _check_time(t)
    px = as_points(x0)
    tr = ou_transition(0.0, t)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(px.shape)
    return PointCloud(tr.decay * px + math.sqrt(tr.variance) * noise)


def forward_trajectory(x0, schedule: NoiseSchedule, seed) -> Trajectory:
    """Exact forward chain sampled at every grid time."""
    px = as_points(x0)
    rng = np.random.default_rng(seed)
    states = [PointCloud(px)]
    current = px
    for s, t in zip(schedule.grid[:-1], schedule.grid[1:]):
        tr = ou_transition(float(s), float(t))
        current = tr.decay * current + math.sqrt(tr.variance) * rng.standard_normal(
            px.shape
        )
        states.append(PointCloud(current))
    return Trajectory(times=schedule.grid.copy(), states=tuple(states))


def quotient_transition_log_density(x, y, s: float, t: float) -> float:
    """log sum over sigma of N(sigma(y); decay * x, variance * I), the kernel at variance / 2."""
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    tr = ou_transition(s, t)
    return float(_log_kernels(tr.decay * px[None], py, tr.variance / 2.0)[0])


def quotient_marginal_log_density(dataset: Sequence, y, t: float) -> float:
    """Data-averaged marginal: log mean over dataset clouds of the transition."""
    clouds = [as_points(x) for x in dataset]
    if not clouds:
        raise DomainError("dataset must be nonempty")
    py = as_points(y)
    for px in clouds:
        check_same_shape(px, py)
    tr = ou_transition(0.0, t)
    logs = _log_kernels(tr.decay * np.stack(clouds), py, tr.variance / 2.0)
    return float(_logsumexp(logs) - math.log(len(logs)))


def _reverse_steps(
    y: np.ndarray,
    schedule: NoiseSchedule,
    score_fn: Callable[[np.ndarray, float], np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> Iterator[np.ndarray]:
    """Euler-Maruyama for dy = [-y/2 - score] dt + dw on a stack of clouds.

    ``y`` is (B, N, d) and ``score_fn(y, t)`` scores the whole stack at one
    time. Runs from T down to 0 and yields the state after each step. The
    drift bracket is multiplied by the negative step dt = t_{k-1} - t_k, so
    one update reads y <- y + (y/2 + score) * |dt| + sqrt(|dt|) * noise,
    where cloud b draws one (N, d) standard normal per step from
    ``rngs[b]``. Score evaluation times are clamped below at
    ``REVERSE_T_MIN``; a score that raises, has the wrong shape or is not
    finite raises ScoreCallbackError naming the step and time.
    """
    grid = schedule.grid
    for k in range(schedule.steps, 0, -1):
        dt = float(grid[k - 1] - grid[k])
        t_eval = max(float(grid[k]), REVERSE_T_MIN)
        step = schedule.steps - k
        try:
            score = np.asarray(score_fn(y, t_eval), dtype=float)
        except Exception as exc:
            raise ScoreCallbackError(
                f"score callback failed at step {step}, t={t_eval}: {exc}"
            ) from exc
        if score.shape != y.shape:
            raise ScoreCallbackError(
                f"score shape {score.shape} does not match state shape {y.shape}"
                f" at step {step}, t={t_eval}"
            )
        if not np.isfinite(score).all():
            raise ScoreCallbackError(
                f"score callback returned non-finite values at step {step}, t={t_eval}"
            )
        noise = np.empty_like(y)
        for rng, out in zip(rngs, noise):
            rng.standard_normal(out=out)
        y = y + (-0.5 * y - score) * dt + math.sqrt(-dt) * noise
        yield y


def reverse_integrate(
    yT,
    schedule: NoiseSchedule,
    score_fn: Callable[[np.ndarray, float], np.ndarray],
    seed,
) -> Trajectory:
    """Euler-Maruyama for dy = [-y/2 - score] dt + dw on one cloud, T down to 0.

    The one-cloud case of ``_reverse_steps``: ``score_fn`` maps an (N, d)
    state and a time to an (N, d) score. Every state is recorded; the
    recorded times descend from T to 0 and the final state is canonicalized.
    """
    py = as_points(yT)
    rng = np.random.default_rng(seed)

    def stacked_score(y, t):
        return np.asarray(score_fn(y[0], t), dtype=float)[None]

    states = [PointCloud(py)]
    for y in _reverse_steps(py[None], schedule, stacked_score, [rng]):
        states.append(PointCloud(y[0]))
    states[-1] = canonicalize(states[-1])
    return Trajectory(times=schedule.grid[::-1].copy(), states=tuple(states))


def identity_exchange_trace(trajectory: Trajectory, x0) -> list[Permutation]:
    """Most probable assignment of x0's points to each recorded state.

    The posterior mode over permutations does not depend on t: it is the
    minimum-cost matching of x0 to the state, from the assignment solver.
    Counting changes along the trace quantifies identity exchanges.
    """
    px = as_points(x0)
    return [min_cost_assignment(px, state) for state in trajectory.states]
