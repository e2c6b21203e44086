"""Minimum-age and minimum-delay source coding.

Closed-form average age of a memoryless update scheme, a cycle-exact
simulator with renewal confidence intervals, the variational formula for
p-norms, and the tilted-pmf optimizers whose certificate proves global
optimality of the returned length assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import BitString, SeedPath

__all__ = [
    "validate_pmf",
    "zipf_pmf",
    "entropy",
    "kl_divergence",
    "shannon_lengths",
    "kraft_sum",
    "build_prefix_code",
    "average_age",
    "age_cost",
    "average_age_randomized",
    "average_age_erasure",
    "average_age_erasure_exact",
    "delay_cost",
    "SimResult",
    "simulate_update_scheme",
    "lp_norm_variational",
    "variational_maximizer",
    "tilted_pmf",
    "TiltSolution",
    "optimize_age",
    "optimize_delay",
]

_EPS = 1e-12


def validate_pmf(p: Sequence[float], tol: float = 1e-12) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"pmf sums to {p.sum():.15f}, not 1")
    return p


def zipf_pmf(s: float, N: int) -> np.ndarray:
    w = np.arange(1, N + 1, dtype=float) ** (-s)
    return w / w.sum()


def entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] <= 0):
        return math.inf
    return float((p[mask] * np.log2(p[mask] / q[mask])).sum())


def shannon_lengths(p: Sequence[float], mode: str = "real") -> np.ndarray:
    """-log2 P(x), or its ceiling in integer mode; Kraft holds either way."""
    p = validate_pmf(p)
    if np.any(p <= 0):
        raise ValueError("drop zero-probability symbols before assigning lengths")
    raw = -np.log2(p)
    if mode == "real":
        return raw
    if mode == "integer":
        # epsilon shields exact powers of two from float fuzz in the ceiling
        return np.maximum(1, np.ceil(raw - 1e-9)).astype(np.int64)
    raise ValueError(f"unknown mode {mode!r}")


def kraft_sum(lengths: Sequence[float]) -> float:
    return float(np.sum(2.0 ** (-np.asarray(lengths, dtype=float))))


def build_prefix_code(lengths: Sequence[int]) -> list[BitString]:
    """Canonical prefix-free codebook for integer lengths satisfying Kraft."""
    lengths = np.asarray(lengths)
    if np.any(lengths < 1):
        raise ValueError("codeword lengths must be >= 1")
    if kraft_sum(lengths) > 1.0 + _EPS:
        raise ValueError(f"Kraft sum {kraft_sum(lengths):.6f} exceeds 1")
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    codes: list[Optional[BitString]] = [None] * len(lengths)
    value, prev_len = 0, 0
    for idx in order:
        ell = int(lengths[idx])
        value <<= ell - prev_len
        bs = BitString()
        bs.write_uint(value, ell)
        codes[idx] = bs
        value += 1
        prev_len = ell
    return codes  # type: ignore[return-value]


def _moments(lengths: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    el = float(np.dot(p, lengths))
    el2 = float(np.dot(p, lengths**2))
    return el, el2


def age_cost(lengths: Sequence[float], p: Sequence[float]) -> float:
    """E[L] + E[L^2]/(2 E[L]): the relaxed cost the optimizer minimizes.

    The on-channel average age is this minus 1/2 (see average_age)."""
    p = validate_pmf(p)
    el, el2 = _moments(np.asarray(lengths, dtype=float), p)
    if el <= 0:
        raise ValueError("expected length must be positive")
    return el + el2 / (2 * el)


def average_age(lengths: Sequence[float], p: Sequence[float]) -> float:
    return age_cost(lengths, p) - 0.5


def average_age_randomized(
    lengths: Sequence[float],
    theta: Sequence[float],
    l_skip: float,
    p: Sequence[float],
) -> float:
    """Average age when symbol x is transmitted only with probability
    theta(x); a skip costs an l_skip-bit placeholder codeword."""
    p = validate_pmf(p)
    theta = np.asarray(theta, dtype=float)
    if np.any((theta < 0) | (theta > 1)):
        raise ValueError("transmit probabilities must lie in [0, 1]")
    lengths = np.asarray(lengths, dtype=float)
    p_send = p * theta
    e_theta = float(p_send.sum())
    if e_theta <= 0:
        raise ValueError("expected transmit probability must be positive")
    el = float(np.dot(p_send, lengths)) + (1 - e_theta) * l_skip
    el2 = float(np.dot(p_send, lengths**2)) + (1 - e_theta) * l_skip**2
    if el <= 0:
        raise ValueError("expected codeword length must be positive")
    return el / e_theta + el2 / (2 * el) - 0.5


def average_age_erasure(base_age: float, eps: float) -> float:
    """Fluid-rate average age over a bit-erasure channel with repeat-until-
    success: base/(1-eps) + eps/(2(1-eps)).  Treats every codeword as taking
    exactly len/(1-eps) slots, so it undershoots the stochastic channel by the
    per-bit retransmission variance; see average_age_erasure_exact.
    """
    if not (0.0 <= eps < 1.0):
        raise ValueError("erasure probability must lie in [0, 1)")
    return base_age / (1.0 - eps) + eps / (2.0 * (1.0 - eps))


def average_age_erasure_exact(lengths: Sequence[float], p: Sequence[float], eps: float) -> float:
    """Exact renewal average age when each bit independently takes a
    Geometric(1-eps) number of slots: the fluid formula plus eps/(2(1-eps))."""
    if not (0.0 <= eps < 1.0):
        raise ValueError("erasure probability must lie in [0, 1)")
    return average_age_erasure(average_age(lengths, p), eps) + eps / (2.0 * (1.0 - eps))


def delay_cost(lengths: Sequence[float], p: Sequence[float], l_th: float) -> float:
    """Average M/G/1 waiting time E[L] + E[L^2]/(2(L_th - E[L]))."""
    p = validate_pmf(p)
    el, el2 = _moments(np.asarray(lengths, dtype=float), p)
    if el >= l_th:
        return math.inf
    return el + el2 / (2.0 * (l_th - el))


# ---------------------------------------------------------------------------
# Simulation


@dataclass
class SimResult:
    avg_age: float
    se: float  # renewal-cycle standard error of the average-age estimate
    cycles: int


def simulate_update_scheme(
    lengths: Sequence[int],
    p: Sequence[float],
    horizon: int,
    seed: SeedPath,
    theta: Optional[Sequence[float]] = None,
    l_skip: Optional[int] = None,
    erasure: float = 0.0,
) -> SimResult:
    """Slot-exact simulation of the memoryless update scheme.

    The channel moves one bit per slot (each bit independently erased and
    retransmitted with probability `erasure`); the decoder's age resets on
    full-codeword reception.  A cycle is a delivered codeword plus the skip
    words before it.  Cycles are drawn in blocks sized to cover the horizon
    with a 10% margin, and each block is cut at the horizon with no per-cycle
    Python work: `np.searchsorted(used + np.cumsum(y), horizon, side="right")`
    counts the cycles that end by the horizon (one ending exactly at it
    counts), and their age rewards come from one array expression over each
    cycle's codeword slots and the previous cycle's.  A block that runs out
    before the horizon carries the used slots and the last codeword's slots
    into the next block.  This reproduces the slot-level sample path exactly;
    the slots after the last full cycle add a partial tail.
    """
    if horizon < 1000:
        raise ValueError("simulate at least 1000 slots")
    p = validate_pmf(p)
    lengths = np.asarray(lengths)
    if lengths.shape != p.shape:
        raise ValueError(f"{lengths.size} codeword lengths for {p.size} symbols")
    if not np.all(np.isfinite(lengths)) or np.any(lengths != np.floor(lengths)):
        raise ValueError("codeword lengths must be whole numbers of bits")
    if np.any(lengths < 1):
        raise ValueError("codeword lengths must be >= 1")
    if not (0.0 <= erasure < 1.0):
        raise ValueError("erasure probability must lie in [0, 1)")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != p.shape:
            raise ValueError(f"{theta.size} transmit probabilities for {p.size} symbols")
        if not np.all((theta >= 0) & (theta <= 1)):
            raise ValueError("transmit probabilities must lie in [0, 1]")
        if l_skip is None:
            raise ValueError("randomized mode needs the skip codeword length")
        if not float(l_skip).is_integer():
            raise ValueError("the skip codeword length must be a whole number of bits")
        e_theta = float(np.dot(p, theta))
        if e_theta <= 0:
            raise ValueError("expected transmit probability must be positive")
        p_send = p * theta / e_theta
        # the effective alphabet is the transmitted symbols plus the skip word
        sent = (p * theta) > 0
        total = kraft_sum(lengths[sent]) + (2.0 ** -l_skip if e_theta < 1 else 0.0)
        if total > 1.0 + _EPS:
            raise ValueError("effective lengths are not Kraft-feasible")
    else:
        e_theta = 1.0
        p_send = p
        if kraft_sum(lengths[p > 0]) > 1.0 + _EPS:
            raise ValueError("lengths are not Kraft-feasible")

    rng = seed.stream()
    mean_len = float(np.dot(p_send, lengths))
    mean_cycle = (mean_len + (1 / e_theta - 1) * (l_skip or 0)) / (1 - erasure)
    block = max(1024, int(horizon / max(mean_cycle, 1.0) * 1.1) + 64)

    rewards: list[np.ndarray] = []
    cycle_slots: list[np.ndarray] = []
    used = 0.0  # slots taken by the cycles kept so far
    z_prev = 0.0
    while True:
        syms = rng.choice(len(p), size=block, p=p_send)
        z_block = lengths[syms].astype(float)
        if erasure > 0:
            z_block = z_block + rng.negative_binomial(lengths[syms], 1.0 - erasure)
        if theta is not None:
            skips = rng.geometric(e_theta, size=block) - 1
            skip_bits = skips * int(l_skip)
            extra = np.zeros(block)
            nz = skip_bits > 0
            if erasure > 0 and np.any(nz):
                extra[nz] = rng.negative_binomial(skip_bits[nz], 1.0 - erasure)
            y_block = z_block + skip_bits + extra
        else:
            y_block = z_block
        ends = used + np.cumsum(y_block)
        k = int(np.searchsorted(ends, horizon, side="right"))
        y = y_block[:k]
        z = np.concatenate(([z_prev], z_block[:k]))  # z[i] precedes cycle i
        rewards.append(0.5 * y * y + y * (z[:-1] - 0.5) + z[1:] - z[:-1])
        cycle_slots.append(y)
        if k:
            used, z_prev = float(ends[k - 1]), float(z[-1])
        if k < block:
            break
    r_all = np.concatenate(rewards)
    y_all = np.concatenate(cycle_slots)
    total_reward = float(np.sum(r_all))
    # partial tail: ages keep growing linearly until the horizon
    tail = horizon - int(used)
    total_reward += tail * (tail + 1) / 2.0 + z_prev * tail
    avg = total_reward / horizon

    # 1-dependent renewal SE over the cycle statistics (R_k, Y_k), k >= 2
    r_arr, y_arr = r_all[1:], y_all[1:]
    if len(r_arr) >= 8:
        dvec = r_arr - avg * y_arr
        g0 = float(np.var(dvec, ddof=1))
        g1 = float(np.mean((dvec[:-1] - dvec.mean()) * (dvec[1:] - dvec.mean())))
        var_sum = max(0.0, len(dvec) * (g0 + 2.0 * g1))
        se = math.sqrt(var_sum) / max(float(np.sum(y_arr)), 1.0)
    else:
        se = math.inf
    return SimResult(avg, se, len(r_all))


# ---------------------------------------------------------------------------
# Variational formula and tilted pmfs


def lp_norm_variational(
    values: Sequence[float], pmf: Sequence[float], p: float, q_pmf: Sequence[float]
) -> float:
    """E_P[(dQ/dP)^(1/p') |X|] with p' the Hoelder conjugate; always <= ||X||_p."""
    if p <= 1:
        raise ValueError("variational formula needs p > 1")
    x = np.abs(np.asarray(values, dtype=float))
    pr = validate_pmf(pmf)
    q = np.asarray(q_pmf, dtype=float)
    if np.any((q > 0) & (pr <= 0)):
        raise ValueError("Q must be absolutely continuous wrt P")
    ratio = np.zeros_like(pr)
    mask = pr > 0
    ratio[mask] = q[mask] / pr[mask]
    p_conj = p / (p - 1.0)
    return float(np.dot(pr, ratio ** (1.0 / p_conj) * x))


def variational_maximizer(values: Sequence[float], pmf: Sequence[float], p: float) -> np.ndarray:
    """The tilt dQ/dP = |X|^p / E|X|^p that attains ||X||_p."""
    x = np.abs(np.asarray(values, dtype=float)) ** p
    pr = validate_pmf(pmf)
    w = pr * x
    total = w.sum()
    if total <= 0:
        raise ValueError("||X||_p is zero; maximizer undefined")
    return w / total


def _g_weights(z: float, q: np.ndarray, p: np.ndarray, sign: float) -> np.ndarray:
    """g = (1 + sign z^2/2) p + z sqrt(q p); sign -1 for age, +1 for delay."""
    return (1.0 + sign * z * z / 2.0) * p + z * np.sqrt(q * p)


def tilted_pmf(z: float, q_pmf: Sequence[float], p: Sequence[float], sign: float = -1.0):
    """Normalized g-weights, or None when (z, Q) is infeasible (some g < 0)."""
    p = validate_pmf(p)
    q = np.asarray(q_pmf, dtype=float)
    g = _g_weights(z, q, p, sign)
    if np.any(g < -1e-12):
        return None
    g = np.maximum(g, 0.0)
    total = g.sum()
    if total <= 0:
        return None
    return g / total


# ---------------------------------------------------------------------------
# Tilted-code optimizers


@dataclass
class TiltSolution:
    z: float
    q: np.ndarray  # maximizing pmf Q on the support of P
    p_star: np.ndarray  # tilted pmf whose Shannon lengths are optimal
    value: float  # maxmin objective value
    cost_at_shannon: float  # primal cost of Shannon lengths for p_star
    certificate_gap: float  # cost_at_shannon - value (>= 0; ~0 iff optimal)
    certified: bool
    degenerate: bool = False

    @property
    def lengths(self) -> np.ndarray:
        return -np.log2(self.p_star)


def _reduce_classes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group symbols with exactly equal probability; returns (p_i, n_i, inverse)."""
    vals, inverse, counts = np.unique(p, return_inverse=True, return_counts=True)
    return vals, counts.astype(float), inverse


def _objective(z: float, u: np.ndarray, pc: np.ndarray, nc: np.ndarray, sign: float) -> float:
    """c(z, Q) = sum n_i g_i log2(G / g_i) in reduced class coordinates.

    u are class Q-masses (sum u = 1); per-symbol q_i = u_i / n_i.
    """
    q = u / nc
    g = _g_weights(z, q, pc, sign)
    if np.any(g < -1e-11):
        return -math.inf
    g = np.maximum(g, 0.0)
    big_g = float(np.dot(nc, g))
    if big_g <= 0:
        return -math.inf
    nz = g > 0
    return float(np.dot(nc[nz] * g[nz], np.log2(big_g / g[nz])))


def _z_upper(u: np.ndarray, pc: np.ndarray, nc: np.ndarray, kcap: float) -> float:
    """Feasibility boundary of z for the age objective given Q."""
    a = np.sqrt((u / nc) / pc)
    z_max = float(np.min(a + np.sqrt(a * a + 2.0)))
    return min(kcap, z_max)


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-12, iters: int = 200) -> float:
    """Golden-section maximizer of a concave function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = u + (1.0 - css) / np.arange(1, len(v) + 1)
    rho = np.nonzero(rho_candidates > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _tilt_lengths(z, u, pc, nc, sign) -> np.ndarray:
    """Class code lengths ell_i = log2(G / g_i) at (z, Q)."""
    g = np.maximum(_g_weights(z, u / nc, pc, sign), 1e-300)
    big_g = float(np.dot(nc, g))
    return np.log2(np.maximum(big_g / g, 1e-300))


def _q_gradient(z, u, pc, nc, sign) -> np.ndarray:
    """dc/du_i = ell_i * (z/2) * sqrt(p_i / q_i) with ell_i = log2(G / g_i)."""
    ell = _tilt_lengths(z, u, pc, nc, sign)
    return ell * 0.5 * z * np.sqrt(pc / np.maximum(u / nc, 1e-300))


def _q_fixed_point(z, u, pc, nc, sign) -> np.ndarray:
    ell = _tilt_lengths(z, u, pc, nc, sign)
    prop = nc * pc * ell * ell
    total = prop.sum()
    return prop / total if total > 0 else u


def _ascend(
    pc: np.ndarray,
    nc: np.ndarray,
    u0: np.ndarray,
    sign: float,
    z_pen: float,
    kcap: float,
    rounds: int = 240,
) -> tuple[float, np.ndarray, float]:
    """Alternating ascent: golden-section over z, fixed-point/projected-gradient
    over Q with backtracking.  Returns (z, u, value)."""

    def value(z, u):
        return _objective(z, u, pc, nc, sign) - z_pen * z * z / 2.0

    u = u0.copy()
    z = 1.0
    best = -math.inf
    for it in range(rounds):
        # z-step
        if sign < 0:
            hi = _z_upper(u, pc, nc, kcap)
        else:
            hi = 1.0
            while value(2 * hi, u) > value(hi, u) and hi < 1e6:
                hi *= 2.0
            hi *= 2.0
        z = _golden_max(lambda zz: value(zz, u), 0.0, hi)
        cur = value(z, u)
        # Q-step: try the stationarity fixed point, fall back to projected gradient
        prop = _q_fixed_point(z, u, pc, nc, sign)
        step = 1.0
        improved = False
        for _ in range(30):
            cand = _project_simplex(u + step * (prop - u))
            cv = value(z, cand)
            if cv > cur + 1e-15:
                u, cur, improved = cand, cv, True
                break
            step *= 0.5
        if not improved:
            grad = _q_gradient(z, u, pc, nc, sign)
            gstep = 1.0
            for _ in range(40):
                cand = _project_simplex(u + gstep * grad)
                cv = value(z, cand)
                if cv > cur + 1e-15:
                    u, cur, improved = cand, cv, True
                    break
                gstep *= 0.5
        if cur <= best + 1e-14 and it > 4:
            best = max(best, cur)
            break
        best = max(best, cur)
    # final z polish
    if sign < 0:
        hi = _z_upper(u, pc, nc, kcap)
    else:
        hi = max(4.0, 4 * z)
    z = _golden_max(lambda zz: value(zz, u), 0.0, hi)
    return z, u, value(z, u)


def _expand(u: np.ndarray, nc: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    per_symbol = u / nc
    return per_symbol[inverse]


def _solve_tilt(
    p_full: np.ndarray,
    sign: float,
    z_pen: float,
    cost_fn,
    tol: float,
) -> TiltSolution:
    """One ascent from Q = P, polished by best responses.  An answer whose
    certificate gap exceeds `tol` comes back with certified = False."""
    p_full = validate_pmf(p_full)
    support = p_full > 0
    p = p_full[support]
    if p.size < 2:
        ps = np.zeros_like(p_full)
        ps[support] = 1.0
        return TiltSolution(0.0, ps.copy(), ps, 0.0, 0.0, 0.0, True, degenerate=True)
    pc, nc, inverse = _reduce_classes(p)
    h_p = entropy(p)
    kcap = (math.log2(p.size) / max(h_p, 1e-9)) * (1.0 / math.sqrt(pc.min()))
    kcap = max(kcap, 4.0)

    u0 = nc * pc
    z, u, val = _ascend(pc, nc, u0 / u0.sum(), sign, z_pen, kcap)
    # best-response polish: the lengths log2(G/g) at the current point
    # feed the closed-form best responses of z and Q back in
    for _ in range(40):
        ell_c = _tilt_lengths(z, u, pc, nc, sign)
        el = float(np.dot(nc * pc, ell_c))
        el2 = float(np.dot(nc * pc, ell_c**2))
        if sign < 0:
            z_br = math.sqrt(el2) / el if el > 0 else 0.0
        else:
            denom = z_pen - el
            if denom <= 0:
                break
            z_br = math.sqrt(el2) / denom
        u_prop = nc * pc * ell_c * ell_c
        if u_prop.sum() <= 0:
            break
        u_prop /= u_prop.sum()
        cand_val = _objective(z_br, u_prop, pc, nc, sign) - z_pen * z_br**2 / 2.0
        if cand_val > val + 1e-15:
            z, u, val = z_br, u_prop, cand_val
        else:
            z2, u2, val2 = _ascend(pc, nc, u_prop, sign, z_pen, kcap, rounds=60)
            if val2 > val + 1e-15:
                z, u, val = z2, u2, val2
            else:
                break
    q_sym = _expand(u, nc, inverse)
    pstar = tilted_pmf(z, q_sym, p, sign)
    if pstar is None:
        raise ValueError(f"ascent ended at an infeasible tilt (z = {z:.6g})")
    cost = cost_fn(-np.log2(np.maximum(pstar, 1e-300)), p)
    gap = cost - val
    sol_q = np.zeros_like(p_full)
    sol_q[support] = q_sym
    sol_p = np.zeros_like(p_full)
    sol_p[support] = pstar
    return TiltSolution(z, sol_q, sol_p, val, cost, gap, abs(gap) <= tol)


def optimize_age(p: Sequence[float], tol: float = 1e-6) -> TiltSolution:
    """Maxmin tilted-code optimizer for the relaxed average-age cost.

    The certificate compares the maxmin value against the primal cost of the
    Shannon lengths for the tilted pmf; a gap below `tol` proves optimality.
    """
    return _solve_tilt(
        np.asarray(p, dtype=float),
        sign=-1.0,
        z_pen=0.0,
        cost_fn=lambda ell, pp: age_cost(ell, pp),
        tol=tol,
    )


def optimize_delay(p: Sequence[float], l_th: float, tol: float = 1e-6) -> TiltSolution:
    """Minimum average-waiting-time code via the same tilt machinery."""
    p = np.asarray(p, dtype=float)
    h = entropy(validate_pmf(p))
    if h + math.log2(1 + 1 / math.sqrt(2)) >= l_th:
        raise ValueError(
            f"infeasible threshold: need H(X) + log2(1+1/sqrt(2)) = "
            f"{h + math.log2(1 + 1 / math.sqrt(2)):.4f} < L_th = {l_th}"
        )
    return _solve_tilt(
        p,
        sign=+1.0,
        z_pen=l_th,
        cost_fn=lambda ell, pp: delay_cost(ell, pp, l_th),
        tol=tol,
    )
