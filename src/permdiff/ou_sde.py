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
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from .cloud import (
    ENUMERATION_CAP,
    Permutation,
    PointCloud,
    as_points,
    canonicalize,
    check_same_shape,
    min_cost_assignment,
    pairwise_sq_dists,
    permutation_array,
)
from .errors import DomainError, ScoreCallbackError
from .heat_kernel import _check_time, _perm_sums

# Score callbacks are never evaluated below this time; the conditional score
# scale 1/(2t) is singular at t = 0.
REVERSE_T_MIN = 1e-4


@dataclass(frozen=True)
class OuTransition:
    """Closed-form transition coefficients between two times."""

    decay: float
    variance: float


def ou_transition(s: float, t: float) -> OuTransition:
    """Coefficients of the Gaussian transition from time s to time t > s."""
    s, t = float(s), float(t)
    if s < 0 or not (s < t):
        raise DomainError(f"need 0 <= s < t, got s={s}, t={t}")
    decay = math.exp(-0.5 * (t - s))
    return OuTransition(decay=decay, variance=1.0 - decay * decay)


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
    """Recorded states over a time grid, plus an optional assignment trace."""

    times: np.ndarray
    states: tuple[PointCloud, ...]
    assignment_log: tuple[Permutation, ...] | None = None

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


def quotient_transition_log_density(
    x, y, s: float, t: float, cap: int = ENUMERATION_CAP
) -> float:
    """log sum over sigma of N(sigma(y); decay * x, variance * I) from s to t."""
    px, py = as_points(x), as_points(y)
    check_same_shape(px, py)
    tr = ou_transition(s, t)
    n, d = px.shape
    terms = _perm_sums(-pairwise_sq_dists(tr.decay * px, py) / (2.0 * tr.variance), cap)
    return float(-(d * n / 2.0) * math.log(2.0 * math.pi * tr.variance) + logsumexp(terms))


def quotient_marginal_log_density(
    dataset: Sequence, y, t: float, cap: int = ENUMERATION_CAP
) -> float:
    """Data-averaged marginal: log mean over dataset clouds of the transition."""
    clouds = list(dataset)
    if not clouds:
        raise DomainError("dataset must be nonempty")
    logs = [quotient_transition_log_density(x, y, 0.0, t, cap) for x in clouds]
    return float(logsumexp(logs) - math.log(len(logs)))


def reverse_integrate(
    yT,
    schedule: NoiseSchedule,
    score_fn: Callable[[np.ndarray, float], np.ndarray],
    seed,
    t_min: float = REVERSE_T_MIN,
) -> Trajectory:
    """Euler-Maruyama for dy = [-y/2 - score] dt + dw, run from T down to 0.

    The drift bracket is multiplied by the negative step dt = t_{k-1} - t_k,
    so one update reads y <- y + (y/2 + score) * |dt| + sqrt(|dt|) * noise.
    Score evaluation times are clamped below at ``t_min``. The recorded
    times descend from T to 0 and the final state is canonicalized.
    """
    py = as_points(yT)
    rng = np.random.default_rng(seed)
    grid = schedule.grid
    states = [PointCloud(py)]
    y = py.copy()
    for k in range(schedule.steps, 0, -1):
        t_k = float(grid[k])
        dt = float(grid[k - 1] - grid[k])
        t_eval = max(t_k, t_min)
        try:
            score = np.asarray(score_fn(y, t_eval), dtype=float)
        except Exception as exc:
            raise ScoreCallbackError(
                f"score callback failed at step {schedule.steps - k}, t={t_eval}"
            ) from exc
        if score.shape != y.shape:
            raise ScoreCallbackError(
                f"score shape {score.shape} does not match state shape {y.shape}"
            )
        drift = -0.5 * y - score
        y = y + drift * dt + math.sqrt(-dt) * rng.standard_normal(y.shape)
        if k == 1:
            y = canonicalize(y).points.copy()
        states.append(PointCloud(y))
    return Trajectory(times=grid[::-1].copy(), states=tuple(states))


def identity_exchange_trace(
    trajectory: Trajectory, x0, cap: int = ENUMERATION_CAP
) -> list[Permutation]:
    """Most probable assignment of x0's points to each recorded state.

    The posterior mode over permutations does not depend on t: it is the
    minimum-cost matching of x0 to the state. For N within the cap the mode
    is taken from the enumerated posterior (first maximum in enumeration
    order); above it the assignment solver is used. Counting changes along
    the trace quantifies identity exchanges.
    """
    px = as_points(x0)
    n = px.shape[0]
    if n > cap:
        return [min_cost_assignment(px, state) for state in trajectory.states]
    perms = permutation_array(n, cap)
    trace = []
    for state in trajectory.states:
        terms = _perm_sums(-pairwise_sq_dists(px, as_points(state)), cap)
        trace.append(Permutation(tuple(int(v) for v in perms[np.argmax(terms)])))
    return trace
