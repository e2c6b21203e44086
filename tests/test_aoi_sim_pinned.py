"""Pinned `qtc aoi-sim` output and the simulator's sample path.

The CSV hashes and the randomized-mode results below were recorded from the
per-cycle simulator that `reference_simulate` keeps.  A change to
`simulate_update_scheme` must reproduce every CSV byte, and it must return the
same (avg_age, se, cycles) as the reference on the same draws, including
horizons that need more than one draw block.
"""

import hashlib
import math

import numpy as np
import pytest

from qtc.aoi import shannon_lengths, simulate_update_scheme, zipf_pmf
from qtc.cli import main
from qtc.core import SeedPath


def pmf32():
    p = np.random.default_rng(32).dirichlet(np.ones(32))
    p = np.maximum(p, 1e-6)
    return p / p.sum()


# name -> (config body, --seed); "{pmf}" is replaced by a 32-symbol pmf_file
CSV_CASES = {
    "zipf-8": ("zipf_n = 8\n", "5"),
    "zipf-64": ("zipf_n = 64\nhorizon = 100000\n", "6"),
    "pmf32-erasure-0": ("pmf_file = {pmf}\nhorizon = 100000\n", "7"),
    "pmf32-erasure-0.1": ("pmf_file = {pmf}\nhorizon = 100000\nerasure = 0.1\n", "8"),
    "pmf32-erasure-0.3": ("pmf_file = {pmf}\nhorizon = 100000\nerasure = 0.3\n", "9"),
    "pstar": ("zipf_s = 1.5\nzipf_n = 16\nhorizon = 100000\ncode = shannon_pstar\n", "10"),
}

PINNED_CSV = {
    "zipf-8": "fbb983f0e27b6c2a2d174ff454f443d2b2ce98bfe1a9d4bcda1bb3aba88aba0f",
    "zipf-64": "09b5bd7ea35b27cec4f8168158f847a095549b6f05c8d8410eab44fae87ce9d0",
    "pmf32-erasure-0": "e155c70b926730ca14a6917480868326ec8502a4bc3dd677a84454ce7a86c6e1",
    "pmf32-erasure-0.1": "8ebcd77bfeb94cc41f92abae7b78b68bb2763981e672a36b108a07fe665310e3",
    "pmf32-erasure-0.3": "a894dafe9aa686f80ab9db9f3d6a4f82b33c7aafb9d9a4f0a52eb7bdc96c46be",
    "pstar": "e5757089c31df01d0669bc72208ebc810b3030026475c9fbfad3b31a25bdd789",
}

# erasure -> (avg_age, se, cycles) of randomized_case(erasure)
PINNED_RANDOMIZED = {
    0.0: (6.56905, 0.010448333034908601, 42517),
    0.2: (8.450015, 0.018617185439931325, 34097),
}


def sim_csv(tmp_path, name):
    body, seed = CSV_CASES[name]
    pmf = tmp_path / "p32.pmf"
    pmf.write_text("".join(f"s{i} {float(v)!r}\n" for i, v in enumerate(pmf32())))
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(body.format(pmf=pmf))
    out = tmp_path / f"{name}.csv"
    assert main(["aoi-sim", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_aoi_sim_csv_pinned(tmp_path, name):
    assert hashlib.sha256(sim_csv(tmp_path, name)).hexdigest() == PINNED_CSV[name]


def randomized_case(erasure):
    """Zipf(1) over 16 symbols, each sent with probability theta(x), a 1-bit
    skip word; lengths one bit longer than Shannon's leave room for it."""
    p = zipf_pmf(1.0, 16)
    lengths = shannon_lengths(p, "integer") + 1
    theta = np.linspace(1.0, 0.3, 16)
    return dict(lengths=lengths, p=p, horizon=200_000, theta=theta, l_skip=1, erasure=erasure)


@pytest.mark.parametrize("erasure", sorted(PINNED_RANDOMIZED))
def test_randomized_mode_pinned(erasure):
    res = simulate_update_scheme(seed=SeedPath(55), **randomized_case(erasure))
    avg_age, se, cycles = PINNED_RANDOMIZED[erasure]
    assert res.cycles == cycles
    assert res.avg_age == pytest.approx(avg_age, rel=1e-12, abs=0)
    assert res.se == pytest.approx(se, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# The per-cycle simulator as a reference


def reference_simulate(lengths, p, horizon, seed, theta=None, l_skip=None, erasure=0.0):
    """The per-cycle loop: same block draws as simulate_update_scheme, then
    each cycle is added to the running totals until one would pass the
    horizon.  Inputs are taken as valid."""
    lengths = np.asarray(lengths)
    p = np.asarray(p, dtype=float)
    if theta is not None:
        theta = np.asarray(theta, dtype=float)
        e_theta = float(np.dot(p, theta))
        p_send = p * theta / e_theta
    else:
        e_theta = 1.0
        p_send = p
    rng = seed.stream()
    mean_len = float(np.dot(p_send, lengths))
    mean_cycle = (mean_len + (1 / e_theta - 1) * (l_skip or 0)) / (1 - erasure)
    block = max(1024, int(horizon / max(mean_cycle, 1.0) * 1.1) + 64)

    total_reward = 0.0
    total_slots = 0
    z_prev = 0.0
    n_cycles = 0
    hist_r = []
    hist_y = []
    done = False
    while not done:
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
            y_block = z_block.copy()
        for idx in range(block):
            y, z = float(y_block[idx]), float(z_block[idx])
            if total_slots + y > horizon:
                done = True
                break
            r = 0.5 * y * y + y * (z_prev - 0.5) + z - z_prev
            total_reward += r
            total_slots += int(y)
            n_cycles += 1
            if n_cycles >= 2:
                hist_r.append(np.array([r]))
                hist_y.append(np.array([y]))
            z_prev = z
    tail = horizon - total_slots
    total_reward += tail * (tail + 1) / 2.0 + z_prev * tail
    avg = total_reward / horizon

    if len(hist_r) >= 8:
        r_arr = np.concatenate(hist_r)
        y_arr = np.concatenate(hist_y)
        dvec = r_arr - avg * y_arr
        g0 = float(np.var(dvec, ddof=1))
        g1 = float(np.mean((dvec[:-1] - dvec.mean()) * (dvec[1:] - dvec.mean())))
        var_sum = max(0.0, len(dvec) * (g0 + 2.0 * g1))
        se = math.sqrt(var_sum) / max(float(np.sum(y_arr)), 1.0)
    else:
        se = math.inf
    return avg, se, n_cycles


class ShortBlocks:
    """Stands in for a SeedPath: `stream()` returns this object, which draws
    like `seed.stream()` except that its first `short` blocks send only the
    likeliest symbol.  The block size assumes average cycles, so runs of short
    codewords leave the horizon unreached and force further blocks."""

    def __init__(self, seed, short):
        self.rng, self.short, self.blocks = seed.stream(), short, 0

    def stream(self):
        return self

    def choice(self, n, size, p):
        self.blocks += 1
        syms = self.rng.choice(n, size=size, p=p)
        if self.blocks <= self.short:
            syms[:] = np.argmax(p)
        return syms

    def __getattr__(self, name):
        return getattr(self.rng, name)


def skewed():
    """A 1-bit likeliest symbol against a 4-bit mean length."""
    return dict(lengths=np.array([1] + [6] * 20), p=np.array([0.4] + [0.03] * 20))


def random_code(seed, m):
    p = np.random.default_rng(seed).dirichlet(np.full(m, 0.8))
    p = np.maximum(p, 1e-5)
    p /= p.sum()
    return dict(lengths=shannon_lengths(p, "integer"), p=p)


# name -> (simulator kwargs, seed, blocks sent short)
REFERENCE_CASES = {
    "exact-horizon": (dict(lengths=np.full(4, 2), p=np.full(4, 0.25), horizon=10_000), 1, 0),
    "few-cycles": (dict(lengths=np.full(2, 150), p=np.full(2, 0.5), horizon=1000), 2, 0),
    "random-5": (dict(**random_code(3, 5), horizon=100_000), 4, 0),
    "random-23-erasure-0.1": (dict(**random_code(5, 23), horizon=100_000, erasure=0.1), 6, 0),
    "random-12-erasure-0.3": (dict(**random_code(7, 12), horizon=100_000, erasure=0.3), 8, 0),
    "randomized": (randomized_case(0.0), 9, 0),
    "randomized-erasure-0.2": (randomized_case(0.2), 10, 0),
    "two-blocks": (dict(**skewed(), horizon=10_000), 11, 1),
    "three-blocks-erasure-0.2": (dict(**skewed(), horizon=10_000, erasure=0.2), 12, 2),
    "two-blocks-randomized": (randomized_case(0.1), 13, 1),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_matches_per_cycle_reference(name):
    kwargs, seed, short = REFERENCE_CASES[name]
    ref_seed, new_seed = ShortBlocks(SeedPath(seed), short), ShortBlocks(SeedPath(seed), short)
    want = reference_simulate(seed=ref_seed, **kwargs)
    res = simulate_update_scheme(seed=new_seed, **kwargs)
    assert (res.avg_age, res.se, res.cycles) == want
    assert new_seed.blocks == ref_seed.blocks > short

