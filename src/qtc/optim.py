"""Quantized first-order optimization harnesses.

Projected SGD, stochastic mirror descent and the l1 phase scheme share one
engine (the mirror map ||x||_a^2 / (2(a-1)) reduces to 0.5 ||x||_2^2 at
a = 2, so PSGD is literally the a = 2 trajectory, and a phase of the phase
scheme is one engine step whose oracle query is the phase estimate).  Runs
are batched over independent replications; all oracles operate on (reps, d)
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import _NORM_SLACK, SeedPath
from .scalar import cuq_levels, cuq_round_with

__all__ = [
    "Domain",
    "GradientOracle",
    "quadratic_oracle",
    "hard_instance_oracle",
    "RunResult",
    "psgd_run",
    "mirror_descent_run",
    "mirror_exponent",
    "one_bit_sign_quantize",
    "l1_phase_scheme",
]


@dataclass(frozen=True)
class Domain:
    """l2 ball or l-infinity box centred at the origin, with Euclidean projection."""

    kind: str  # "l2_ball" | "linf_box"
    radius: float

    def __post_init__(self):
        if self.kind not in ("l2_ball", "linf_box"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.radius <= 0:
            raise ValueError("domain radius must be positive")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius  # l2 diameter for the ball; box edge for linf

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "l2_ball":
            norms = np.linalg.norm(x, axis=-1, keepdims=True)
            return x * np.minimum(1.0, self.radius / np.maximum(norms, 1e-300))
        return np.clip(x, -self.radius, self.radius)


@dataclass
class GradientOracle:
    """Stochastic subgradient source.

    query(x, rng) takes (reps, d) points and returns (reps, d) subgradient
    estimates; B is their declared norm bound, from which every run sets its
    step size and the phase scheme its 1-bit range [-B, B].
    """

    query: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    B: float
    f: Callable[[np.ndarray], np.ndarray]
    f_min: float


def quadratic_oracle(x0: np.ndarray, noise: float, B: float) -> GradientOracle:
    """f(x) = ||x - x0||^2 / 2 with noise uniform on the sphere of radius `noise`."""
    x0 = np.asarray(x0, dtype=float)

    def query(x, rng):
        x = np.atleast_2d(x)
        g = rng.normal(size=x.shape)
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        return (x - x0) + noise * g

    def f(x):
        z = np.atleast_2d(x) - x0
        return 0.5 * np.einsum("...d,...d->...", z, z)

    return GradientOracle(query, B, f, 0.0)


def hard_instance_oracle(
    v: np.ndarray, delta: float, B: float, p: float, D: float = 1.0
) -> GradientOracle:
    """Coordinate-wise Bernoulli oracle for g_v(x) = a sum_i |x(i) - v(i) b|.

    Each coordinate independently takes -B/d^(1/q) with probability
    (1 + 2 delta v(i))/2 and +B/d^(1/q) otherwise, so the mean is the constant
    subgradient -2 B delta v / d^(1/q) everywhere on the box |x(i)| <= b.
    """
    if delta > 1.0 / 6.0:
        raise ValueError("construction requires delta <= 1/6")
    v = np.asarray(v, dtype=float)
    d = v.size
    q = math.inf if p == 1.0 else p / (p - 1.0)
    scale = B if q == math.inf else B / d ** (1.0 / q)
    a = 2 * B * delta / (d ** (1.0 / q) if q != math.inf else 1.0)
    b = D / (2 * d ** (1.0 / p))

    def query(x, rng):
        x = np.atleast_2d(x)
        p_minus = (1 + 2 * delta * v) / 2.0
        draws = rng.random(size=x.shape)
        return np.where(draws < p_minus, -scale, scale)

    def f(x):
        x = np.atleast_2d(x)
        return a * np.abs(x - v * b).sum(axis=-1)

    return GradientOracle(query, B, f, 0.0)


def _grad_map(x: np.ndarray, a: float) -> np.ndarray:
    """Gradient of ||x||_a^2 / (2(a-1)); identity at a = 2."""
    if a == 2.0:
        return x
    norms = np.linalg.norm(x, ord=a, axis=-1, keepdims=True)
    norms = np.maximum(norms, 1e-300)
    return norms ** (2.0 - a) * np.sign(x) * np.abs(x) ** (a - 1.0) / (a - 1.0)


def _grad_map_inv(theta: np.ndarray, a: float) -> np.ndarray:
    """Inverse of _grad_map via the conjugate exponent b = a/(a-1)."""
    if a == 2.0:
        return theta
    b = a / (a - 1.0)
    norms = np.linalg.norm(theta, ord=b, axis=-1, keepdims=True)
    norms = np.maximum(norms, 1e-300)
    return (a - 1.0) * norms ** (2.0 - b) * np.sign(theta) * np.abs(theta) ** (b - 1.0)


@dataclass
class RunResult:
    avg_iterate: np.ndarray  # (reps, d) averaged iterates
    gap_trace: np.ndarray  # (T,) mean per-step f-gap across reps
    final_gaps: np.ndarray  # (reps,) f-gap of each replication's averaged iterate

    @property
    def mean_final_gap(self) -> float:
        return float(self.final_gaps.mean())


def _check_steps(T: int) -> None:
    if T < 1:
        raise ValueError("need at least one step")


def _descent_engine(
    oracle: GradientOracle,
    qfun: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]],
    domain: Domain,
    T: int,
    a: float,
    alpha2: float,
    gamma: float,
    seed: SeedPath,
    reps: int,
    x_init: np.ndarray,
) -> RunResult:
    _check_steps(T)
    eta = domain.diameter / (alpha2 * math.sqrt(T))
    rng = seed.stream()
    x = np.tile(np.asarray(x_init, dtype=float), (reps, 1))
    x = domain.project(x)
    sum_x = np.zeros_like(x)
    trace = np.empty(T)
    for t in range(T):
        g = oracle.query(x, rng)
        if qfun is not None:
            g = qfun(g, rng)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"divergent gradient estimate at step {t}")
        step = eta if gamma == 0.0 else 2.0 / (gamma * (t + 1))
        theta = _grad_map(x, a) - step * g
        x = domain.project(_grad_map_inv(theta, a))
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"divergent iterate at step {t}")
        sum_x += x
        trace[t] = float(np.mean(oracle.f(x)) - oracle.f_min)
    avg = sum_x / T
    final = oracle.f(avg) - oracle.f_min
    return RunResult(avg, trace, np.atleast_1d(final))


def psgd_run(
    oracle: GradientOracle,
    qfun: Optional[Callable],
    domain: Domain,
    T: int,
    gamma: float = 0.0,
    seed: SeedPath = SeedPath(0),
    reps: int = 1,
    *,
    x_init: np.ndarray,
    alpha2: Optional[float] = None,
) -> RunResult:
    """Projected SGD with quantized gradients.

    Convex mode (gamma = 0) uses the constant step D/(alpha2 sqrt(T)) where
    alpha2 is the quantizer's worst-case second-moment bound (the oracle's B
    when running unquantized); strongly convex mode uses 2/(gamma (t+1)).
    """
    alpha2 = oracle.B if alpha2 is None else alpha2
    return _descent_engine(oracle, qfun, domain, T, 2.0, alpha2, gamma, seed, reps, x_init)


def mirror_exponent(p: float, d: int) -> float:
    """Mirror-map exponent: a = p while the conjugate q stays below 2 log2 d,
    else the 2 log d / (2 log d - 1) map that is strongly convex wrt l1."""
    logd = math.log2(max(d, 2))
    q = math.inf if p == 1.0 else p / (p - 1.0)
    if q <= 2 * logd:
        return p
    return 2 * logd / (2 * logd - 1.0)


def mirror_descent_run(
    oracle: GradientOracle,
    qfun: Optional[Callable],
    domain: Domain,
    T: int,
    p: float,
    seed: SeedPath = SeedPath(0),
    reps: int = 1,
    *,
    x_init: np.ndarray,
) -> RunResult:
    """Stochastic mirror descent with the ||x||_a^2/(2(a-1)) mirror map.

    At p = 2 the trajectory coincides bit-for-bit with psgd_run given the same
    seed.  The Bregman step is the projected dual update: mirror step, inverse
    map, Euclidean projection onto the domain.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError("mirror descent harness covers p in [1, 2]")
    a = mirror_exponent(p, np.asarray(x_init).size)
    return _descent_engine(oracle, qfun, domain, T, a, oracle.B, 0.0, seed, reps, x_init)


def one_bit_sign_quantize(g: np.ndarray, B: float, rng: np.random.Generator) -> np.ndarray:
    """Unbiased 1-bit quantizer on [-B, B]: the 2-level CUQ, +B with
    probability (g+B)/(2B).  Inputs within the norm slack above B count as
    +-B."""
    g = np.asarray(g, dtype=float)
    if np.any(np.abs(g) > B * _NORM_SLACK):
        raise ValueError("1-bit quantizer input outside [-B, B]")
    return cuq_levels(cuq_round_with(np.clip(g, -B, B), B, 2, rng.random(g.shape)), B, 2)


def l1_phase_scheme(
    oracle: GradientOracle,
    r: int,
    T: int,
    domain: Domain,
    seed: SeedPath = SeedPath(0),
    reps: int = 1,
    *,
    x_init: np.ndarray,
) -> RunResult:
    """Phase scheme for l-infinity-bounded gradients under an r-bit budget
    in the dimension d of `x_init`.

    The horizon splits into T*r/d phases; within a phase the same point is
    queried ceil(d/r) times and each query contributes r coordinates (chosen
    through a fresh shared permutation) quantized to one bit each.  The summed
    phase estimate is the query of an oracle that wraps `oracle`, and the
    descent engine takes one mirror-descent step per phase with the log-d
    mirror map (`mirror_exponent(1, d)`).
    """
    d = np.asarray(x_init).size
    if r < 1 or r > d:
        raise ValueError("per-query budget r must lie in 1..d")
    _check_steps(T)
    B = oracle.B
    phases = max(1, (T * r) // d)
    queries = math.ceil(d / r)

    def phase_estimate(x, rng):
        sigma = rng.permutation(d)  # shared randomness, fresh per phase
        est = np.zeros_like(x)
        for i in range(queries):
            g = oracle.query(x, rng)
            coords = sigma[i * r : min((i + 1) * r, d)]
            est[:, coords] = one_bit_sign_quantize(g[:, coords], B, rng)
        return est

    return _descent_engine(
        replace(oracle, query=phase_estimate), None, domain, phases, mirror_exponent(1.0, d),
        B, 0.0, seed, reps, x_init,
    )
