"""The benchmark's three closed-loop workloads.

Each workload is driven by one caller that waits for every library call
before issuing the next.  `setup_<name>` turns the benchmark seed into the
inputs the library sees (vectors, config files, pmf files, `--seed` values);
`run_<name>` makes one pass: a fixed list of calls on those inputs.  It
checks every output against the library's own guarantees and returns what
it did.  A run repeats passes on the same inputs until its time is up.

Why these three: the layers do very different work on each, so each
workload puts a different layer first.
  bitexact    every message goes through BitString/BitReader (core bit I/O);
              rotation sees only 1-row calls.
  montecarlo  the vectorized sampler path through `qtc.cli.main`; no
              BitString, large FWHT batches, MQ encode/decode, subset draws.
  aoi         `qtc aoi-sim` and `qtc aoi-solve`; no quantizer layer, the
              per-cycle simulation loop dominates.
"""

from __future__ import annotations

import csv
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from qtc.cli import main as qtc_main
from qtc.core import Quantizer, SeedPath
from qtc.dme import (
    DmeInstance,
    configure_known_delta,
    configure_no_side_info,
    configure_unknown_delta,
    run_dme,
    theoretical_bound,
)
from qtc.optim import Domain, psgd_run, quadratic_oracle
from qtc.sideinfo import RdaqConfig, boosted_rdaq_sample, wz_known_quantizer, wz_unknown_quantizer
from qtc.vector import AratqConfig, RatqConfig, aratq_quantizer, ratq_quantizer, rcs_wrap

# A correct simulator misses a 3-standard-error band once in ~370 checks, and
# the benchmark makes thousands of seeded checks over its lifetime.  Five
# renewal standard errors keep chance failures below one in a million per
# check while still catching a formula or simulator that is off.
AOI_SE_MULT = 5.0
AOI_PMF_CONCENTRATION = 2000.0


@dataclass
class Tally:
    """Checked outcomes: one per round trip, CSV row, sample batch or solve."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"perfbench: check failed: {what}", file=sys.stderr)

    def add_round_trips(self, log: RoundTripLog) -> None:
        self.attempted += log.round_trips - len(log.failures)
        for what in log.failures:
            self.check(False, what)

    def crashed(self, what: str) -> None:
        print(f"perfbench: call raised in {what}:\n{traceback.format_exc()}", file=sys.stderr)
        self.check(False, what)


class Laps:
    """The pass's wall time cut into consecutive laps, each with a group name.

    Every pass on the same inputs makes the same calls, so lap i of one pass
    times the same work as lap i of any other; the launcher takes each lap's
    fastest time across passes.
    """

    def __init__(self) -> None:
        self.laps: list[tuple[str, float]] = []
        self._t = perf_counter()

    def lap(self, group: str) -> None:
        now = perf_counter()
        self.laps.append((group, now - self._t))
        self._t = now


@dataclass
class PassResult:
    work: float  # units of work done (round trips, client-trials or cycles)
    laps: list  # (group, seconds), covering the whole pass
    extra: dict = field(default_factory=dict)


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf8")
    return path


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf8") as fh:
        return list(csv.DictReader(fh))


def _cli_rows(label: str, argv: list, out_csv: Path, tally: Tally):
    """Run one `qtc` command in-process; its CSV rows, or None if it failed."""
    try:
        code = qtc_main(argv)
    except Exception:
        tally.crashed(label)
        return None
    if code != 0:
        tally.check(False, f"{label}: exit code {code}")
        return None
    return _read_rows(out_csv)


# ---------------------------------------------------------------------------
# bitexact


class RoundTripLog:
    """Laps (round trips and the gaps between them), message bits and check
    outcomes for one pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.clock = Laps()
        self.round_trips = 0
        self.bits = 0
        self.failures: list[str] = []


class GatedQuantizer(Quantizer):
    """A quantizer whose round trip is timed and checked: the message must be
    exactly `bit_budget` bits and the decode finite with the input's shape."""

    def __init__(self, q: Quantizer, log: RoundTripLog) -> None:
        super().__init__(q.encode, q.decode, q.bit_budget, q.name, q.uses_side_info)
        self.log = log

    def roundtrip(self, x, side, path, check_budget=True):
        self.log.clock.lap("gap")
        msg, xhat = super().roundtrip(x, side, path, check_budget)
        self.log.clock.lap("roundtrip")
        self.log.round_trips += 1
        self.log.bits += msg.nbits
        if msg.nbits != self.bit_budget:
            self.log.failures.append(f"{self.name}: {msg.nbits} bits != budget {self.bit_budget}")
        elif np.shape(xhat) != np.shape(x) or not np.all(np.isfinite(xhat)):
            self.log.failures.append(f"{self.name}: decode not finite or wrong shape")
        return msg, xhat


@dataclass
class BitexactState:
    log: RoundTripLog
    dme_cases: list  # (label, instance, quantizers, bound, root, trials)
    psgd: dict
    aratq: tuple  # (quantizer, inputs, root)


def setup_bitexact(seed: int, workdir: Path, tiny: bool) -> BitexactState:
    rng = np.random.default_rng([seed, 1])
    d, n, r = 256, 4, 256
    trials = 2 if tiny else 30
    log = RoundTripLog()
    gate = lambda qs: [GatedQuantizer(q, log) for q in qs]  # noqa: E731
    root = SeedPath(seed).child("bitexact")
    xs = _unit_rows(rng, n, d)
    cases = []

    cfg, mu_d = configure_no_side_info(n, d, r)
    cases.append(("no-side-info", DmeInstance(xs, None, None, r),
                  gate([rcs_wrap(cfg, mu_d) for _ in range(n)]),
                  theoretical_bound("no-side-info", n, d, r)))

    delta = float(rng.uniform(0.05, 0.2))
    ys = xs + delta * _unit_rows(rng, n, d)
    cfgs, mu_d = configure_known_delta(n, d, r, [delta] * n)
    cases.append(("known-delta", DmeInstance(xs, ys, np.full(n, delta), r),
                  gate([wz_known_quantizer(c, mu_d) for c in cfgs]),
                  theoretical_bound("known-delta", n, d, r, [delta] * n)))

    # unknown-distance codes need both points inside the unit ball
    xu = xs * (1.0 - delta)
    yu = xu + delta * _unit_rows(rng, n, d)
    ucfg, mu_d = configure_unknown_delta(d, r)
    cases.append(("unknown-delta", DmeInstance(xu, yu, np.full(n, delta), r),
                  gate([wz_unknown_quantizer(ucfg, mu_d) for _ in range(n)]),
                  theoretical_bound("unknown-delta", n, d, r, [delta] * n)))
    dme_cases = [(label, inst, qs, bound, root.child(label), trials)
                 for label, inst, qs, bound in cases]

    # PSGD on the quadratic of criterion 11, every gradient row sent through
    # the bit-exact RATQ codec
    B = 2.0
    rcfg = RatqConfig.default(B, d)
    ratq = GatedQuantizer(ratq_quantizer(rcfg), log)

    def qfun(g, grng):
        out = np.empty_like(g)
        for i in range(g.shape[0]):
            _, out[i] = ratq.roundtrip(g[i], None, SeedPath(int(grng.integers(1 << 62))))
        return out

    x0 = np.zeros(d)
    x0[int(rng.integers(d))] = 0.5
    x_init = np.zeros(d)
    x_init[int(rng.integers(d))] = 0.9
    domain = Domain("l2_ball", 1.0)
    T = 2 if tiny else 16
    psgd = dict(
        oracle=quadratic_oracle(x0, 0.5, B), qfun=qfun, domain=domain, T=T, reps=4,
        x_init=x_init, seed=root.child("psgd"),
        alpha2=B * math.sqrt((9 + 3 * math.log(rcfg.s)) / (rcfg.k - 1) ** 2 + 1),
        bound=math.sqrt(2) * domain.diameter * B / math.sqrt(T) * 1.2,
    )

    # A-RATQ with the AGUQ gain: inputs with norms spread over the gain ladder
    acfg = AratqConfig.default(B, d, T=1024)
    ys_a = _unit_rows(rng, 4 if tiny else 16, d) * rng.uniform(0.0, B, size=(4 if tiny else 16, 1))
    aratq = (GatedQuantizer(aratq_quantizer(acfg), log), ys_a, root.child("aratq"))
    return BitexactState(log, dme_cases, psgd, aratq)


def run_bitexact(state: BitexactState, tally: Tally) -> PassResult:
    log = state.log
    log.reset()
    for label, inst, qs, bound, root, trials in state.dme_cases:
        try:
            res = run_dme(inst, qs, root, trials)
        except Exception:
            tally.crashed(f"run_dme {label}")
            continue
        tally.check(res.mse <= bound + res.band, f"{label}: mse {res.mse:.4g} > bound {bound:.4g} + band")
    p = state.psgd
    try:
        res = psgd_run(p["oracle"], p["qfun"], p["domain"], p["T"], seed=p["seed"], reps=p["reps"],
                       x_init=p["x_init"], alpha2=p["alpha2"])
        tally.check(res.mean_final_gap <= p["bound"],
                    f"psgd gap {res.mean_final_gap:.4g} > {p['bound']:.4g}")
    except Exception:
        tally.crashed("psgd_run")
    q, ys, root = state.aratq
    for i, y in enumerate(ys):
        try:
            q.roundtrip(y, None, root.child("msg", i))
        except Exception:
            tally.crashed("aratq round trip")
    log.clock.lap("gap")
    tally.add_round_trips(log)
    return PassResult(log.round_trips, log.clock.laps, {"bits": log.bits})


# ---------------------------------------------------------------------------
# montecarlo


@dataclass
class MontecarloState:
    commands: list  # (label, argv, out_csv, client_trials)
    boosted: tuple  # (x, y, trials, root)


def setup_montecarlo(seed: int, workdir: Path, tiny: bool) -> MontecarloState:
    rng = np.random.default_rng([seed, 2])
    commands = []

    def bench(label: str, name: str, cfg: Path, trials: int, calls: int, clients: int) -> None:
        # the trials are split over several calls, each with its own --seed,
        # so that a pass is cut into laps of about 0.1 s
        for i in range(calls):
            out = workdir / f"{name}_{i}.csv"
            commands.append((f"{label} #{i}", ["dme-bench", "--config", str(cfg),
                             "--seed", str(int(rng.integers(1 << 62))), "--trials", str(trials),
                             "--out", str(out)], out, clients * trials))

    n = 4 if tiny else 100
    delta = float(rng.uniform(0.05, 0.2))
    cfg = _write(workdir / "mc_known.cfg",
                 f"setting = known-delta\nn = {n}\nd = 256\nr_list = 32\ndelta = {delta!r}\n")
    bench("dme-bench known-delta", "mc_known", cfg, 20 if tiny else 10, 1 if tiny else 5, n)
    n = 10
    cfg = _write(workdir / "mc_nsi.cfg", f"setting = no-side-info\nn = {n}\nd = 256\nr_list = 16 32 64\n")
    bench("dme-bench no-side-info", "mc_nsi", cfg, 20 if tiny else 40, 1 if tiny else 5, 3 * n)
    # criterion 07's boosted-RDAQ instance, drawn from the seed
    d = 64
    x = _unit_rows(rng, 1, d)[0] * 0.8
    y = x + 0.3 * _unit_rows(rng, 1, d)[0]
    y /= max(1.0, float(np.linalg.norm(y)))
    boosted = (x, y, 50 if tiny else 1000, SeedPath(seed).child("boosted"))
    return MontecarloState(commands, boosted)


def run_montecarlo(state: MontecarloState, tally: Tally) -> PassResult:
    work = 0
    clock = Laps()
    for label, argv, out_csv, client_trials in state.commands:
        rows = _cli_rows(label, argv, out_csv, tally)
        clock.lap("dme-bench")
        if rows is None:
            continue
        for row in rows:
            mse, band, bound = (float(row[k]) for k in ("empirical_mse", "band_3sigma", "mse_bound"))
            tally.check(mse <= bound + band, f"{label} r={row['r_bits']}: mse {mse:.4g} > {bound:.4g} + band")
        work += client_trials
    x, y, trials, root = state.boosted
    delta = float(np.linalg.norm(x - y))
    for N in (1, 2, 4, 8):
        try:
            recs = boosted_rdaq_sample(x, y, RdaqConfig(x.size, N=N), trials, root.child("N", N).stream())
        except Exception:
            tally.crashed(f"boosted_rdaq_sample N={N}")
            continue
        finally:
            clock.lap("boosted")
        ok = recs.shape == (trials, x.size) and bool(np.all(np.isfinite(recs)))
        if ok:
            err = np.einsum("td,td->t", recs - x, recs - x)
            mse, sigma = err.mean(), err.std(ddof=1) / math.sqrt(trials)
            ok = mse <= 16 * math.sqrt(3) * delta + 3 * sigma
        tally.check(ok, f"boosted RDAQ N={N}: decode or MSE bound")
        work += trials
    clock.lap("check")
    return PassResult(work, clock.laps)


# ---------------------------------------------------------------------------
# aoi


@dataclass
class AoiState:
    sims: list  # (label, argv, out_csv)
    solves: list  # (label, argv, out_csv)


def setup_aoi(seed: int, workdir: Path, tiny: bool) -> AoiState:
    rng = np.random.default_rng([seed, 3])
    cli_seed = lambda: str(int(rng.integers(1 << 62)))  # noqa: E731
    # each pmf's 10^6 slots are simulated as ten 10^5-slot calls, each with
    # its own --seed, so that a pass is cut into laps of tens of milliseconds
    horizon, calls = (10**4, 2) if tiny else (10**5, 10)
    sims = []
    # Dirichlet pmfs concentrated around a Zipf(1) shape, in seeded order: a
    # flat Dirichlet(1) moves the entropy, and with it the number of cycles
    # per horizon, by a few percent from seed to seed
    zipf = 1.0 / np.arange(1, 33)
    zipf *= AOI_PMF_CONCENTRATION / zipf.sum()
    for label, erasure in (("plain", 0.0), ("erasure-0.1", 0.1), ("erasure-0.3", 0.3)):
        p = rng.permutation(rng.dirichlet(zipf))
        p = np.maximum(p, 1e-6)
        p /= p.sum()
        pmf = _write(workdir / f"aoi_{label}.pmf", "".join(f"s{i} {float(v)!r}\n" for i, v in enumerate(p)))
        cfg = _write(workdir / f"aoi_sim_{label}.cfg",
                     f"pmf_file = {pmf}\nhorizon = {horizon}\nerasure = {erasure!r}\n")
        for i in range(calls):
            out = workdir / f"aoi_sim_{label}_{i}.csv"
            sims.append((f"aoi-sim {label} #{i}", ["aoi-sim", "--config", str(cfg), "--seed", cli_seed(),
                                                   "--out", str(out)], out))
    solves = []
    grid = (1.0, 2.5) if tiny else (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    for i, s in enumerate(grid):
        zipf_s = s + float(rng.uniform(-0.2, 0.2))
        for objective in ("age", "delay"):
            cfg = _write(workdir / f"aoi_solve_{objective}_{i}.cfg",
                         f"zipf_s = {zipf_s!r}\nzipf_n = 256\nobjective = {objective}\n")
            out = workdir / f"aoi_solve_{objective}_{i}.csv"
            solves.append((f"aoi-solve {objective} s={zipf_s:.3f}",
                           ["aoi-solve", "--config", str(cfg), "--seed", cli_seed(), "--out", str(out)], out))
    return AoiState(sims, solves)


def run_aoi(state: AoiState, tally: Tally) -> PassResult:
    cycles = 0
    clock = Laps()
    for label, argv, out_csv in state.sims:
        clock.lap("check")
        rows = _cli_rows(label, argv, out_csv, tally)
        clock.lap("sim")
        for row in rows or ():
            sim, formula, se = (float(row[k]) for k in ("simulated_age", "formula_age", "renewal_se"))
            tally.check(abs(sim - formula) <= max(AOI_SE_MULT * se, 1e-3),
                        f"{label}: simulated {sim:.6g} vs formula {formula:.6g} (se {se:.3g})")
            cycles += int(row["cycles"])
    for label, argv, out_csv in state.solves:
        clock.lap("check")
        rows = _cli_rows(label, argv, out_csv, tally)
        clock.lap("solve")
        for row in rows or ():
            tally.check(row["certified"] == "1", f"{label}: not certified (gap {row['certificate_gap']})")
    clock.lap("check")
    return PassResult(cycles, clock.laps)


WORKLOADS = {
    "bitexact": (setup_bitexact, run_bitexact),
    "montecarlo": (setup_montecarlo, run_montecarlo),
    "aoi": (setup_aoi, run_aoi),
}
