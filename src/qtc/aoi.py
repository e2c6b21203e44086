"""Minimum-age and minimum-delay source coding.

Closed-form average age of a memoryless update scheme, a cycle-exact
simulator with renewal confidence intervals, the variational formula for
p-norms, and the minimum-age and minimum-delay optimizers.  The relaxed
costs are convex in the length vector, so one damped Newton solve under
Kraft equality finds the optimum; a closed-form dual point of the tilted-pmf
maxmin problem then certifies it, independently of the solver.
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
_NEWTON_ITERS = 100  # iteration cap of the tilted-code Newton solve
_FULL_STEP = 1e-10  # relative Newton decrement below which steps skip the line search
_STEP_TOL = 1e-9  # longest whole step, in bits, that ends the solve


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


def _check_whole_lengths(lengths: Sequence[int]) -> np.ndarray:
    """Codeword lengths must be whole numbers of bits, at least 1."""
    lengths = np.asarray(lengths)
    if not np.all(np.isfinite(lengths)) or np.any(lengths != np.floor(lengths)):
        raise ValueError("codeword lengths must be whole numbers of bits")
    if np.any(lengths < 1):
        raise ValueError("codeword lengths must be >= 1")
    return lengths


def build_prefix_code(lengths: Sequence[int]) -> list[BitString]:
    """Canonical prefix-free codebook for integer lengths satisfying Kraft."""
    lengths = _check_whole_lengths(lengths)
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


def _sent_lengths(lengths: Sequence[float], p: np.ndarray) -> np.ndarray:
    """Lengths as floats, 0 where p is 0: a symbol of probability 0 adds
    nothing to a moment, whatever its length (inf included)."""
    return np.where(p > 0, np.asarray(lengths, dtype=float), 0.0)


def age_cost(lengths: Sequence[float], p: Sequence[float]) -> float:
    """E[L] + E[L^2]/(2 E[L]): the relaxed cost the optimizer minimizes.

    The on-channel average age is this minus 1/2 (see average_age)."""
    p = validate_pmf(p)
    el, el2 = _moments(_sent_lengths(lengths, p), p)
    if el <= 0:
        raise ValueError("expected length must be positive")
    return el + el2 / (2 * el)


def average_age(lengths: Sequence[float], p: Sequence[float]) -> float:
    return age_cost(lengths, p) - 0.5


def _check_randomized(theta: Sequence[float], l_skip: Optional[float], p: np.ndarray) -> np.ndarray:
    """Transmit probabilities shaped like p and in [0, 1]; a finite, positive skip length."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != p.shape:
        raise ValueError(f"{theta.size} transmit probabilities for {p.size} symbols")
    if not np.all((theta >= 0) & (theta <= 1)):
        raise ValueError("transmit probabilities must lie in [0, 1]")
    if l_skip is None:
        raise ValueError("randomized mode needs the skip codeword length")
    if not (math.isfinite(l_skip) and l_skip > 0):
        raise ValueError("the skip codeword length must be finite and positive")
    return theta


def average_age_randomized(
    lengths: Sequence[float],
    theta: Sequence[float],
    l_skip: float,
    p: Sequence[float],
) -> float:
    """Average age when symbol x is transmitted only with probability
    theta(x); a skip costs an l_skip-bit placeholder codeword."""
    p = validate_pmf(p)
    theta = _check_randomized(theta, l_skip, p)
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
    el, el2 = _moments(_sent_lengths(lengths, p), p)
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
    lengths = _check_whole_lengths(lengths)
    if not (0.0 <= erasure < 1.0):
        raise ValueError("erasure probability must lie in [0, 1)")
    if theta is not None:
        theta = _check_randomized(theta, l_skip, p)
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


def _values_for(values: Sequence[float], pr: np.ndarray) -> np.ndarray:
    """|X| as a float array; raises ValueError unless it has one value per
    symbol of the pmf."""
    x = np.abs(np.asarray(values, dtype=float))
    if x.shape != pr.shape:
        raise ValueError(f"{x.size} values for {pr.size} symbols")
    return x


def lp_norm_variational(
    values: Sequence[float], pmf: Sequence[float], p: float, q_pmf: Sequence[float]
) -> float:
    """E_P[(dQ/dP)^(1/p') |X|] with p' the Hoelder conjugate; always <= ||X||_p."""
    if p <= 1:
        raise ValueError("variational formula needs p > 1")
    pr = validate_pmf(pmf)
    x = _values_for(values, pr)
    q = validate_pmf(q_pmf)
    if q.shape != pr.shape:
        raise ValueError(f"Q has {q.size} masses for {pr.size} symbols")
    if np.any((q > 0) & (pr <= 0)):
        raise ValueError("Q must be absolutely continuous wrt P")
    ratio = np.zeros_like(pr)
    mask = pr > 0
    ratio[mask] = q[mask] / pr[mask]
    p_conj = p / (p - 1.0)
    return float(np.dot(pr, ratio ** (1.0 / p_conj) * x))


def variational_maximizer(values: Sequence[float], pmf: Sequence[float], p: float) -> np.ndarray:
    """The tilt dQ/dP = |X|^p / E|X|^p that attains ||X||_p."""
    pr = validate_pmf(pmf)
    w = pr * _values_for(values, pr) ** p
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
    if q.shape != p.shape:
        raise ValueError(f"Q has {q.size} masses for {p.size} symbols")
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
    value: float  # maxmin objective at the dual point of the Newton lengths
    cost_at_shannon: float  # primal cost of Shannon lengths for p_star
    certificate_gap: float  # cost_at_shannon - value (>= 0; ~0 iff optimal)
    certified: bool
    degenerate: bool = False

    @property
    def lengths(self) -> np.ndarray:
        """Shannon lengths -log2 p_star; inf exactly where p_star is 0 (a
        symbol of probability 0 gets no codeword)."""
        out = np.full(self.p_star.shape, np.inf)
        sent = self.p_star > 0
        out[sent] = -np.log2(self.p_star[sent])
        return out


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


def _relaxed_cost(ell: np.ndarray, p: np.ndarray, sign: float, z_pen: float) -> float:
    """The age cost (sign -1) or the delay cost with L_th = z_pen (sign +1)."""
    return age_cost(ell, p) if sign < 0 else delay_cost(ell, p, z_pen)


def _kraft_shift(ell: np.ndarray, nc: np.ndarray) -> np.ndarray:
    """Shift all class lengths by one constant so that sum n_i 2^-ell_i = 1."""
    m = float(ell.min())
    return ell + (math.log2(float(np.dot(nc, np.exp2(m - ell)))) - m)


def _newton_lengths(pc: np.ndarray, nc: np.ndarray, sign: float, z_pen: float):
    """Minimize the relaxed cost over class lengths subject to sum n_i 2^-ell_i = 1.

    Damped equality-constrained Newton from the Shannon lengths, with D = E[L]
    (age) or L_th - E[L] (delay).  The Hessian of the Lagrangian is
    diag(w/D + lam ln^2 2 n 2^-ell) plus a rank-2 term in span{w, w ell}
    (w = n p), so bordering it with the Kraft normal leaves a 3x3 solve per
    step.  The multiplier estimate is clipped at 0, which keeps every step a
    descent direction.  Each step is shifted back to Kraft equality and
    backtracked on the cost until the Newton decrement falls below
    _FULL_STEP |F|.  From there the cost cannot resolve the decrease, and
    steps are taken whole until the longest is under _STEP_TOL bits: classes
    of tiny mass converge there, unseen by the cost and the decrement.
    Returns (lengths, iterations).
    """
    w = nc * pc
    ell = -np.log2(pc)
    if ell.size == 1:
        return ell, 0
    cost = _relaxed_cost(ell, w, sign, z_pen)
    ln2 = math.log(2.0)
    lam = None
    for it in range(1, _NEWTON_ITERS + 1):
        el, el2 = _moments(ell, w)
        dd = z_pen - sign * el
        grad = w * (1.0 + ell / dd + sign * el2 / (2.0 * dd * dd))
        kraft = nc * np.exp2(-ell)
        if lam is None:  # least-squares multiplier of grad = lam ln2 n 2^-ell
            lam = max(0.0, float(np.dot(kraft, grad)) / (ln2 * float(np.dot(kraft, kraft))))
        diag = w / dd + lam * ln2 * ln2 * kraft
        basis = np.stack((w, w * ell, kraft))
        scaled = basis / diag
        small = scaled @ basis.T
        # the inverse of the rank-2 term's 2x2 core, in the basis (w, w ell)
        small[:2, :2] += [[0.0, sign * dd * dd], [sign * dd * dd, -el2 * dd]]
        coef = np.linalg.solve(small, -(scaled @ grad))
        step = -(grad + coef @ basis) / diag
        lam = max(0.0, -float(coef[2]) / ln2)
        dec = -float(np.dot(grad, step))
        full = dec <= _FULL_STEP * cost
        t = 1.0
        for _ in range(60):
            cand = _kraft_shift(ell + t * step, nc)
            cand_cost = _relaxed_cost(cand, w, sign, z_pen)
            if cand_cost <= cost - 0.25 * t * dec or (full and cand_cost < math.inf):
                break
            t *= 0.5
        else:
            break
        ell, cost = cand, cand_cost
        if full and float(np.abs(step).max()) <= _STEP_TOL:
            break
    return ell, it


def _expand(u: np.ndarray, nc: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    per_symbol = u / nc
    return per_symbol[inverse]


def _solve_tilt(p_full: np.ndarray, sign: float, z_pen: float, tol: float) -> TiltSolution:
    """Newton-solve the class lengths, then certify them through the closed-form
    dual point: z = sqrt(E L^2)/D and Q proportional to p ell^2.  The returned
    p_star comes from that dual point, not from the lengths, so a wrong answer
    cannot certify itself; one whose gap exceeds `tol` has certified = False."""
    p_full = validate_pmf(p_full)
    support = p_full > 0
    p = p_full[support]
    if p.size < 2:
        ps = np.zeros_like(p_full)
        ps[support] = 1.0
        return TiltSolution(0.0, ps.copy(), ps, 0.0, 0.0, 0.0, True, degenerate=True)
    pc, nc, inverse = _reduce_classes(p)
    ell, _ = _newton_lengths(pc, nc, sign, z_pen)
    w = nc * pc
    el, el2 = _moments(ell, w)
    z = math.sqrt(el2) / (z_pen - sign * el)
    u = w * ell * ell
    u /= u.sum()
    val = _objective(z, u, pc, nc, sign) - z_pen * z * z / 2.0
    q_sym = _expand(u, nc, inverse)
    pstar = tilted_pmf(z, q_sym, p, sign)
    if pstar is None:
        raise ValueError(f"Newton solve ended at an infeasible tilt (z = {z:.6g})")
    cost = _relaxed_cost(-np.log2(np.maximum(pstar, 1e-300)), p, sign, z_pen)
    gap = cost - val
    sol_q = np.zeros_like(p_full)
    sol_q[support] = q_sym
    sol_p = np.zeros_like(p_full)
    sol_p[support] = pstar
    return TiltSolution(z, sol_q, sol_p, val, cost, gap, abs(gap) <= tol)


def optimize_age(p: Sequence[float], tol: float = 1e-6) -> TiltSolution:
    """Minimum relaxed average-age code: a Newton solve of the convex cost
    E[L] + E[L^2]/(2 E[L]) under Kraft equality.

    The certificate evaluates the maxmin objective at the closed-form dual
    point of the solved lengths and compares it against the primal cost of
    the Shannon lengths for the tilted pmf; a gap below `tol` proves
    optimality.
    """
    return _solve_tilt(np.asarray(p, dtype=float), sign=-1.0, z_pen=0.0, tol=tol)


def optimize_delay(p: Sequence[float], l_th: float, tol: float = 1e-6) -> TiltSolution:
    """Minimum average-waiting-time code via the same tilt machinery."""
    p = np.asarray(p, dtype=float)
    h = entropy(validate_pmf(p))
    if h + math.log2(1 + 1 / math.sqrt(2)) >= l_th:
        raise ValueError(
            f"infeasible threshold: need H(X) + log2(1+1/sqrt(2)) = "
            f"{h + math.log2(1 + 1 / math.sqrt(2)):.4f} < L_th = {l_th}"
        )
    return _solve_tilt(p, sign=+1.0, z_pen=l_th, tol=tol)
