"""Benchmark command-line interface.

Subcommands: quantize-bench, dme-bench, opt-bench, rd-bench, aoi-solve,
aoi-sim.  Configuration is a flat key=value text file with exhaustive key
validation; every run is reproducible from (config, --seed) and emits
deterministic CSV (comma-separated, LF, no quoting).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .aoi import (
    average_age,
    average_age_erasure_exact,
    entropy,
    integer_lengths,
    optimize_age,
    optimize_delay,
    shannon_lengths,
    simulate_update_scheme,
    validate_pmf,
    zipf_pmf,
)
from .catalog import CATALOG
from .core import SeedPath
from .dme import DmeInstance, configure, run_dme
from .optim import Domain, psgd_run, quadratic_oracle
from .scalar import gaussian_wz_run
from .vector import RatqConfig, gaussian_rd_run, ratq_quantizer

__all__ = [
    "ConfigError",
    "parse_config",
    "cmd_quantize_bench",
    "cmd_dme_bench",
    "cmd_opt_bench",
    "cmd_rd_bench",
    "cmd_aoi_solve",
    "cmd_aoi_sim",
    "main",
]

# ---------------------------------------------------------------------------
# Config file handling


class ConfigError(Exception):
    pass


# Float keys with a sign constraint; a key means the same in every command
# that has it (B is the norm bound of quantize-bench and opt-bench alike).
_POSITIVE = frozenset({"B", "tol", "v", "D_frac", "sigma_z", "delta"})
_NONNEGATIVE = frozenset({"noise", "erasure"})
_BELOW_ONE = frozenset({"erasure"})


def parse_config(text: str, defaults: dict) -> dict:
    """Flat `key = value` lines with '#' comments, over `defaults`.

    The keys of `defaults` are the only keys accepted, and each value is
    read as the type of its default: a list key as values of its default's
    element type separated by commas or whitespace, at least one.  Every
    int, alone or in a list, must be at least 1, and every float finite;
    B, tol, v, D_frac, sigma_z and delta must be positive, noise
    non-negative, and erasure in [0, 1).
    """
    values = dict(defaults)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, list):
                values[key] = [type(default[0])(tok) for tok in val.replace(",", " ").split()]
            else:
                values[key] = type(default)(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        items = values[key] if isinstance(default, list) else [values[key]]
        if not items:
            raise ConfigError(f"line {lineno}: {key} needs at least one value")
        if any(isinstance(v, int) and v < 1 for v in items):
            raise ConfigError(f"line {lineno}: {key} must be at least 1, got {val!r}")
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
        if key in _POSITIVE and not values[key] > 0:
            raise ConfigError(f"line {lineno}: {key} must be positive, got {val!r}")
        if key in _NONNEGATIVE and not values[key] >= 0:
            raise ConfigError(f"line {lineno}: {key} must be non-negative, got {val!r}")
        if key in _BELOW_ONE and not values[key] < 1:
            raise ConfigError(f"line {lineno}: {key} must be below 1, got {val!r}")
    return values


def _emit(rows: list[list], header: list[str], out: Optional[str]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v) -> str:
    if v is None:  # a variable-length budget, or a bound the catalog does not state
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_quantize_bench(args) -> int:
    """A row per `quantizers` name, a `catalog.CATALOG` entry without side information: one
    Gaussian row in its domain at radius B, sampled from the stream of its name (SimQ+'s `simq+`)."""
    cfg = parse_config(args.config_text,
                       {"d": 256, "B": 1.0, "quantizers": ["ratq", "simq", "simq_plus"]})
    d, B = cfg["d"], cfg["B"]
    trials = args.trials or 2000
    rows = []
    root = SeedPath(args.seed)
    g = root.child("input").stream().normal(size=d)
    for name in cfg["quantizers"]:
        entry = CATALOG.get(name)
        if entry is None:
            raise ConfigError(f"unknown quantizer {name!r}")
        if entry.distance is not None:
            raise ConfigError(f"quantizer {name!r} decodes against side information, "
                              "which quantize-bench does not draw")
        (q, bound), x = entry.build(d, B), entry.domain(g, B)
        recs = q.sample(x, None, trials, root.child("simq+" if name == "simq_plus" else name).stream())
        second = float((recs**2).sum(axis=1).mean())
        bias = float(np.linalg.norm(recs.mean(axis=0) - x))
        rows.append([name, d, B, q.bit_budget, second, bound(x, None) if bound else None, bias])
    _emit(rows, ["quantizer", "d", "B", "r_bits", "empirical_second_moment",
                 "theoretical_bound", "empirical_bias_norm"], args.out)
    return 0


def cmd_dme_bench(args) -> int:
    cfg = parse_config(args.config_text,
                       {"setting": "no-side-info", "n": 10, "d": 256, "r_list": [16, 32, 64],
                        "delta": 0.1})
    setting, n, d, delta = cfg["setting"], cfg["n"], cfg["d"], cfg["delta"]
    # the inputs are unit vectors, and the unknown-distance codes need both
    # input and side information inside the unit ball
    if setting not in ("no-side-info", "known-delta"):
        raise ConfigError(f"unknown setting {setting!r}")
    trials = args.trials or 1000
    root = SeedPath(args.seed)
    xs = root.child("inputs").stream().normal(size=(n, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys = deltas = None
    if setting == "known-delta":
        u = root.child("side").stream().normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        ys, deltas = xs + delta * u, np.full(n, delta)
    rows = []
    for r in cfg["r_list"]:
        quants, bound = configure(setting, n, d, r, deltas)
        res = run_dme(DmeInstance(xs, ys, deltas, r), quants, root.child("run", r), trials)
        rows.append([setting, n, d, r, delta, res.mse, res.band, bound, max(res.bits_per_client)])
    _emit(rows, ["setting", "n", "d", "r_bits", "delta", "empirical_mse", "band_3sigma",
                 "mse_bound", "bits_used"], args.out)
    return 0


def cmd_opt_bench(args) -> int:
    cfg = parse_config(args.config_text,
                       {"d": 32, "T_list": [256, 1024, 4096], "B": 2.0, "noise": 0.5, "reps": 8})
    d, B = cfg["d"], cfg["B"]
    x0 = np.zeros(d)
    x0[0] = 0.5
    oracle = quadratic_oracle(x0, cfg["noise"], B)
    dom = Domain("l2_ball", 1.0)
    x_init = np.zeros(d)
    x_init[min(1, d - 1)] = 0.9
    rcfg = RatqConfig.default(B, d)
    ratq = ratq_quantizer(rcfg)
    qfun = lambda g, rng: ratq.sample(g, None, len(g), rng)  # noqa: E731
    rows = []
    gaps_q = []
    for T in cfg["T_list"]:
        base = psgd_run(oracle, None, dom, T, seed=SeedPath(args.seed).child("id", T),
                        reps=cfg["reps"], x_init=x_init)
        quant = psgd_run(oracle, qfun, dom, T, seed=SeedPath(args.seed).child("q", T),
                         reps=cfg["reps"], x_init=x_init, alpha2=rcfg.alpha2)
        bound = math.sqrt(2) * dom.diameter * B / math.sqrt(T)
        rows.append([T, base.mean_final_gap, quant.mean_final_gap, bound,
                     rcfg.bit_budget * T])
        gaps_q.append(quant.mean_final_gap)
    ts = np.log2(cfg["T_list"])
    slope = float(np.polyfit(ts, np.log2(gaps_q), 1)[0]) if len(ts) > 1 else float("nan")
    rows.append(["slope", slope, "", "", ""])
    _emit(rows, ["T", "identity_gap", "ratq_gap", "gap_bound", "bits_cumulative"], args.out)
    return 0


def cmd_rd_bench(args) -> int:
    defaults = {"mode": "rd", "v": 1.0, "D_frac": 16.0, "sigma_z": 0.1, "d": 4096,
                "blocks": 200, "source": "gaussian"}
    cfg = parse_config(args.config_text, defaults)
    if cfg["mode"] == "wz":  # the Wyner-Ziv code needs D <= sigma_z^2 / 308
        cfg = parse_config(args.config_text, {**defaults, "D_frac": 400.0})
    rng = SeedPath(args.seed).child("rd").stream()
    rows = []
    if cfg["mode"] == "rd":
        v = cfg["v"]
        D = v / cfg["D_frac"]
        mse, rate = gaussian_rd_run(v, D, cfg["d"], cfg["blocks"], rng, cfg["source"])
        rows.append(["rd", cfg["source"], v, D, rate, 0.5 * math.log2(v / D), mse])
    elif cfg["mode"] == "wz":
        sz = cfg["sigma_z"]
        D = sz**2 / cfg["D_frac"]
        mse, rate = gaussian_wz_run(sz, D, cfg["d"], cfg["blocks"], rng, source=cfg["source"])
        rows.append(["wz", cfg["source"], sz**2, D, rate, 0.5 * math.log2(sz**2 / D), mse])
    else:
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    _emit(rows, ["mode", "source", "variance", "distortion_target", "rate_bits_per_dim",
                 "rate_distortion_function", "empirical_per_dim_mse"], args.out)
    return 0


def _load_pmf(cfg) -> np.ndarray:
    """The pmf of `pmf_file` (one 'symbol probability' line per symbol, '#'
    comments), or the Zipf pmf of `zipf_s` and `zipf_n` without one."""
    path = cfg["pmf_file"]
    if not path:
        return zipf_pmf(cfg["zipf_s"], cfg["zipf_n"])
    try:
        with open(path, "r", encoding="utf8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read pmf file: {exc}") from None
    probs = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            _, prob = line.split()
            probs.append(float(prob))
        except ValueError:
            raise ConfigError(
                f"{path} line {lineno}: expected 'symbol probability', got {line!r}") from None
    return validate_pmf(probs)


def cmd_aoi_solve(args) -> int:
    cfg = parse_config(args.config_text,
                       {"zipf_s": 1.0, "zipf_n": 256, "pmf_file": "", "objective": "age",
                        "l_th_offset": 2.0, "tol": 1e-6})
    p = _load_pmf(cfg)
    h = entropy(p)
    if cfg["objective"] == "age":
        sol = optimize_age(p, tol=cfg["tol"])
    elif cfg["objective"] == "delay":
        sol = optimize_delay(p, 2 * h + cfg["l_th_offset"], tol=cfg["tol"])
    else:
        raise ConfigError(f"unknown objective {cfg['objective']!r}")
    age_p_real = average_age(shannon_lengths(p, "real"), p)
    age_p_int = average_age(shannon_lengths(p, "integer"), p)
    lengths = sol.lengths
    age_star_real = average_age(lengths, p)
    age_star_int = average_age(integer_lengths(lengths), p)
    pstar = " ".join(f"{v:.8g}" for v in sol.p_star) if len(sol.p_star) <= 64 else "-"
    rows = [[cfg["objective"], h, age_p_real, age_p_int, age_star_real, age_star_int,
             sol.z, sol.value, sol.certificate_gap, int(sol.certified), pstar]]
    _emit(rows, ["objective", "entropy_bits", "age_P_real", "age_P_int", "age_Pstar_real",
                 "age_Pstar_int", "z_star", "maxmin_value", "certificate_gap", "certified",
                 "p_star"], args.out)
    return 0


def cmd_aoi_sim(args) -> int:
    cfg = parse_config(args.config_text,
                       {"zipf_s": 1.0, "zipf_n": 64, "pmf_file": "", "horizon": 10**6,
                        "erasure": 0.0, "code": "shannon_p"})
    p = _load_pmf(cfg)
    if cfg["code"] not in ("shannon_p", "shannon_pstar"):
        raise ConfigError(f"unknown code {cfg['code']!r}")
    lengths = shannon_lengths(p, "integer")  # also rejects zero-probability symbols
    if cfg["code"] == "shannon_pstar":
        lengths = integer_lengths(optimize_age(p).lengths)
    res = simulate_update_scheme(lengths, p, cfg["horizon"], SeedPath(args.seed).child("sim"),
                                 erasure=cfg["erasure"])
    if cfg["erasure"] > 0:
        formula = average_age_erasure_exact(lengths, p, cfg["erasure"])
    else:
        formula = average_age(lengths, p)
    rows = [[cfg["code"], cfg["horizon"], cfg["erasure"], res.avg_age, res.se, formula,
             res.cycles]]
    _emit(rows, ["code", "horizon_slots", "erasure_prob", "simulated_age", "renewal_se",
                 "formula_age", "cycles"], args.out)
    return 0


_COMMANDS = {
    "quantize-bench": cmd_quantize_bench,
    "dme-bench": cmd_dme_bench,
    "opt-bench": cmd_opt_bench,
    "rd-bench": cmd_rd_bench,
    "aoi-solve": cmd_aoi_solve,
    "aoi-sim": cmd_aoi_sim,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every `main` call."""
    parser = argparse.ArgumentParser(prog="qtc", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="root seed (u64)")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf8") as fh:
                args.config_text = fh.read()
        except OSError as exc:
            print(f"qtc: cannot read config: {exc}", file=sys.stderr)
            return 2
    else:
        args.config_text = ""
    try:
        if args.trials is not None and args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"qtc: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
