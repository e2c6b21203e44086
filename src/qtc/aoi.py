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
import threading
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
    "integer_lengths",
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


def validate_pmf(p: Sequence[float]) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > _EPS:
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
        return integer_lengths(raw)
    raise ValueError(f"unknown mode {mode!r}")


def integer_lengths(lengths: Sequence[float]) -> np.ndarray:
    """Real codeword lengths rounded up to whole bits, at least 1 (int64).

    An epsilon shields exact integers (-log2 of a power of two) from float
    fuzz in the ceiling."""
    return np.maximum(1, np.ceil(np.asarray(lengths) - 1e-9)).astype(np.int64)


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


_LOG_TAIL = -64.0 * math.log(2.0)  # log of the largest tail mass the slot table drops
_GUIDE_BITS = 14  # the slot table's guide has at most 2^14 buckets


class _Workspace(threading.local):
    """One thread's work buffers, kept from one simulator call to the next.

    A buffer grows to the largest size asked of it and never shrinks, so a
    call no larger than an earlier one allocates no block-sized array.  No
    view of a buffer may outlive the call that asked for it.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype=np.float64, keep: int = 0) -> np.ndarray:
        """Buffer `name` with room for `size` elements; growing it keeps its first `keep`."""
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            grown = np.empty(size, dtype)
            if keep:
                grown[:keep] = buf[:keep]
            self.buffers[name] = buf = grown
        return buf


_WORK = _Workspace()


def _erasure_law(lengths: np.ndarray, p: np.ndarray, erasure: float, horizon: int):
    """(slots, mass) of Z = L_x + NB(L_x, 1 - erasure), as `_slot_sampler` describes.

    Every distinct length is one row of a padded 2-D array: one log1p and one
    row-wise cumsum give log C(ell+k-1, k), and one exp the terms.  Each row
    computes exactly the floats of that length alone, so the row's term count
    keeps its own doubling rule, and the array widens when a row outgrows it.
    """
    log_q, log_e = math.log1p(-erasure), math.log(erasure)
    kept = (p > 0) & (lengths <= horizon)  # keep t = ell + k <= horizon
    weights = np.bincount(lengths[kept].astype(np.intp), weights=p[kept])
    ells = np.flatnonzero(weights)
    weights = weights[ells]
    rows = ells.tolist()
    n = []  # terms k < n[i] of row i
    for ell in rows:
        mean, sd = ell * erasure / (1 - erasure), math.sqrt(ell * erasure) / (1 - erasure)
        n.append(min(horizon - ell, int(mean + 10 * sd + _LOG_TAIL / log_e)) + 1)
    done = [False] * len(rows)
    while not all(done):
        k = np.arange(max(n), dtype=float)
        log_pmf = np.add.outer(ells * log_q, k * log_e)
        log_binom = np.divide.outer(ells - 1, k[1:])
        np.log1p(log_binom, out=log_binom)
        log_pmf[:, 1:] += np.cumsum(log_binom, axis=1, out=log_binom)  # log C(ell+k-1, k)
        del log_binom
        for i, ell in enumerate(rows):
            while not done[i] and n[i] <= k.size:
                r = erasure * (ell + n[i] - 1) / n[i]
                if n[i] > horizon - ell or (
                    r < 1 and log_pmf[i, n[i] - 1] + math.log(r / (1 - r)) < _LOG_TAIL
                ):
                    done[i] = True
                else:
                    n[i] = min(horizon - ell + 1, 2 * n[i])
    lo = rows[0] if rows else horizon + 1
    top = max((ell + ni for ell, ni in zip(rows, n)), default=lo)
    slots = np.arange(lo, top + 1, dtype=float)
    slots[-1] = horizon + 1
    mass = np.zeros(slots.size)
    if rows:
        terms = np.exp(log_pmf, out=log_pmf)
        terms *= weights[:, None]
        for i, ell in enumerate(rows):
            mass[ell - lo : ell - lo + n[i]] += terms[i, : n[i]]
    mass[-1] = max(0.0, float(p.sum()) - float(mass.sum()))  # more than horizon slots
    return slots, mass


def _slot_sampler(lengths: np.ndarray, p: np.ndarray, erasure: float, horizon: int):
    """The law of a cycle's codeword slot count as a CDF table, and its draw.

    The codeword of symbol x takes Z = L_x + NB(L_x, 1 - erasure) slots.
    Without erasure the table is the symbol CDF that `Generator.choice` builds
    over `lengths`, so the draws are choice's.  With erasure it is the exact
    mixture P(Z = t) = sum_x p_x C(t-1, L_x-1) q^L_x eps^(t-L_x), q = 1 - eps,
    built for all distinct lengths at once in log space (q^L cannot
    underflow; see `_erasure_law`).
    A length's terms end at a k past its mode where the geometric bound
    pmf(k) r/(1-r), r = eps (L+k)/(k+1), puts the rest of its law below 2^-64
    (the ratios of later terms are at most r), and all mass above `horizon`
    goes into one last entry of horizon + 1 slots: a cycle that long never
    completes, so it acts like any longer one.  The table has at most
    horizon + 1 entries.

    Returns draw(rng, size, out=None): one uniform per codeword,
    `rng.random(size)`, and the slot count at searchsorted(cdf, u,
    side="right"), written into `out` when given, else into a new array.
    That index is found through a guide table (Chen & Asau 1974; Devroye
    1986, III.2.4), built once with the table: the guide gives the index
    directly for most uniforms, in O(1), and the few it places too low finish
    by binary search.  The indices, and so the draws, are the binary
    search's.  The lookup works in the calling thread's reused buffers.  The
    table is kept as draw.slots and draw.cdf.
    """
    if erasure == 0:
        slots, mass = lengths.astype(float), p
    else:
        slots, mass = _erasure_law(lengths, p, erasure, horizon)
    cdf = mass.cumsum()
    cdf /= cdf[-1]
    # guide[j] counts the cdf entries <= j/m (an entry c is <= j/m exactly when
    # ceil(c m) <= j).  As m is a power of two, c m and floor(u m) are exact, so
    # guide[floor(u m)] is never above the index searchsorted finds for u.  It
    # falls short only when u lands at or past an entry inside its bucket: with
    # at least 8 buckets per entry, for at most 1/8 of the uniforms, and those
    # finish by binary search.  Only tables of more than 2^11 entries (an
    # erasure near 1) get fewer buckets per entry, and more binary searches.
    m = 1 << min(int(8 * cdf.size - 1).bit_length(), _GUIDE_BITS)
    guide = np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1)[:m].cumsum()

    def draw(rng: np.random.Generator, size: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        u = rng.random(size)
        if out is None:
            out = np.empty(size)
        bucket = _WORK.get("draw.bucket", size, np.intp)[:size]
        idx = _WORK.get("draw.idx", size, np.intp)[:size]
        short = _WORK.get("draw.short", size, bool)[:size]
        # `out` holds u m, then cdf[idx], before the slot counts
        np.copyto(bucket, np.multiply(u, m, out=out), casting="unsafe")  # floor, as u m >= 0
        # every index is in range; "clip" writes into out, where "raise" copies
        np.take(guide, bucket, out=idx, mode="clip")
        np.less_equal(np.take(cdf, idx, out=out, mode="clip"), u, out=short)
        late = np.flatnonzero(short)
        if late.size:
            idx[late] = np.searchsorted(cdf, u[late], side="right")
        return np.take(slots, idx, out=out, mode="clip")

    draw.slots, draw.cdf = slots, cdf
    return draw


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
    words before it.  A codeword of L bits takes L + NB(L, 1 - erasure)
    slots.  `_slot_sampler` builds the exact law of that count once per call
    as a CDF table (without erasure, the symbol CDF of `Generator.choice`, so
    those draws are choice's), and each codeword's slot count is one uniform
    looked up in it: through a guide table, in O(1) for most uniforms, with
    exactly the index a binary search finds.  The table is exact: it drops
    only tail mass below 2^-64, and it lumps all counts above the horizon,
    which no completed cycle can take, into one entry.  The randomized mode
    then draws the skip words (`geometric`, and `negative_binomial` on their
    bits under erasure).  Cycles are drawn in blocks sized to cover the
    horizon with a 10% margin, and each block is cut at the horizon with no
    per-cycle Python work:
    `np.searchsorted(used + np.cumsum(y), horizon, side="right")` counts the
    cycles that end by the horizon (one ending exactly at it counts), and
    their age rewards come from a few in-place array operations over each
    cycle's codeword slots and the previous cycle's.  A block that runs out
    before the horizon appends the next block after the cycles kept.  This
    reproduces the slot-level sample path exactly; the slots after the last
    full cycle add a partial tail.

    The block arrays live in six work buffers reused by every call in the
    same thread (`_Workspace`), so a call no larger than an earlier one
    allocates no block-sized array.  They grow to the largest call seen,
    about one block of 8-byte elements each: 1.6 MB each at the CLI's
    default of 10^6 slots of Zipf(1) over 64 symbols (a 5.4-bit mean
    codeword).  The renewal SE makes exactly the sums and divisions of
    `np.var(ddof=1)` and `np.mean`, on one centred buffer, so every float is
    theirs.
    """
    if not float(horizon).is_integer():
        raise ValueError("horizon must be a whole number of slots")
    horizon = int(horizon)
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

    # Cycle i >= 1 takes y[i-1] slots, of which its codeword takes z[i]; z[0]
    # precedes the first cycle.  r[i-1] is cycle i's age reward.  Blocks
    # append after the n cycles kept so far.
    n = 0
    used = 0.0  # slots taken by the cycles kept so far
    _WORK.get("z", block + 1)[0] = 0.0
    draw_slots = _slot_sampler(lengths, p_send, erasure, horizon)
    while True:
        z = _WORK.get("z", n + block + 1, keep=n + 1)
        r = _WORK.get("r", n + block, keep=n)
        t = _WORK.get("t", n + block)
        z_block = draw_slots(rng, block, out=z[n + 1 : n + 1 + block])
        if theta is not None:
            y = _WORK.get("y", n + block, keep=n)
            y_block = y[n : n + block]
            skip_bits = rng.geometric(e_theta, size=block)
            skip_bits -= 1
            skip_bits *= int(l_skip)
            np.add(z_block, skip_bits, out=y_block)
            if erasure > 0:
                nz = np.flatnonzero(skip_bits)
                if nz.size:
                    y_block[nz] += rng.negative_binomial(skip_bits[nz], 1.0 - erasure)
        else:
            y, y_block = z[1:], z_block
        ends = np.cumsum(y_block, out=t[:block])
        ends += used
        k = int(np.searchsorted(ends, horizon, side="right"))
        if k:
            used = float(ends[k - 1])
        # 0.5 y y + y (z_prev - 0.5) + z - z_prev, in that order
        y_k, z_prev, z_k, r_k, tmp = y_block[:k], z[n : n + k], z[n + 1 : n + 1 + k], r[n : n + k], t[:k]
        np.multiply(y_k, 0.5, out=r_k)
        r_k *= y_k
        np.subtract(z_prev, 0.5, out=tmp)
        tmp *= y_k
        r_k += tmp
        r_k += z_k
        r_k -= z_prev
        n += k
        if k < block:
            break
    total_reward = float(np.sum(r[:n]))
    # partial tail: ages keep growing linearly until the horizon
    tail = horizon - int(used)
    total_reward += tail * (tail + 1) / 2.0 + float(z[n]) * tail
    avg = total_reward / horizon

    # 1-dependent renewal SE over the cycle statistics (R_k, Y_k), k >= 2
    m = n - 1  # cycles k >= 2
    if m >= 8:
        y_arr = y[1:n]
        d = np.multiply(y_arr, avg, out=t[:m])
        np.subtract(r[1:n], d, out=d)
        d -= np.add.reduce(d) / m  # centred about its mean
        sq = r[:m]
        g0 = float(np.add.reduce(np.multiply(d, d, out=sq)) / (m - 1))
        g1 = float(np.add.reduce(np.multiply(d[:-1], d[1:], out=sq[: m - 1])) / (m - 1))
        var_sum = max(0.0, m * (g0 + 2.0 * g1))
        se = math.sqrt(var_sum) / max(float(np.sum(y_arr)), 1.0)
    else:
        se = math.inf
    return SimResult(avg, se, n)


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
