import math

import pytest

from qtc.catalog import CATALOG
from qtc.cli import ConfigError, _parser, main, parse_config
from qtc.core import SeedPath
from qtc.dme import theoretical_bound
from qtc.scalar import gaussian_wz_params, gaussian_wz_run
from qtc.vector import gaussian_rd_config, gaussian_rd_run


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_parse_config_rejects_unknown_and_bad_values():
    defaults = {"a": 1, "b": 0.0, "c": [0.5], "n": [1]}
    vals = parse_config("a = 3\n# comment\nb = 1.5\nc = 1 2 3\nn = 4 5\n", defaults)
    assert vals == {"a": 3, "b": 1.5, "c": [1.0, 2.0, 3.0], "n": [4, 5]}
    assert [type(v) for v in vals["c"] + vals["n"]] == [float] * 3 + [int] * 2
    commas = parse_config("c = 1,2 , 3\nn = 4,\n", defaults)
    assert (commas["c"], commas["n"]) == ([1.0, 2.0, 3.0], [4])
    with pytest.raises(ConfigError):
        parse_config("zzz = 1", defaults)
    with pytest.raises(ConfigError):
        parse_config("a = not_an_int", defaults)
    with pytest.raises(ConfigError):
        parse_config("just a line", defaults)
    with pytest.raises(ConfigError, match="line 2: bad value for n: "):
        parse_config("b = 2\nn = 16.7", defaults)


def test_parse_config_rejects_ints_below_one():
    defaults = {"a": 1, "b": 0.0, "n": [1]}
    assert parse_config("b = 0\nb = -1.5\n", defaults)["b"] == -1.5
    for bad in ("a = 0", "a = -2", "n = 4 0"):
        with pytest.raises(ConfigError, match=f"^line 2: {bad[0]} must be at least 1, got "):
            parse_config("b = 2\n" + bad, defaults)


def test_gaussian_rd_parameters():
    cfg, rate = gaussian_rd_config(1.0, 1 / 16, 4096)
    assert cfg.ladder.h == 4 and cfg.s == 2
    assert rate <= 0.5 * math.log2(16) + 6
    with pytest.raises(ValueError):
        gaussian_rd_config(1.0, 0.3, 64)  # D >= v/4


def test_gaussian_rd_meets_distortion():
    rng = SeedPath(0).stream()
    mse, rate = gaussian_rd_run(1.0, 1 / 16, 1024, 50, rng)
    assert mse <= 1 / 16
    mse_l, _ = gaussian_rd_run(1.0, 1 / 16, 1024, 50, rng, source="laplace")
    assert mse_l <= 1 / 16


def test_gaussian_wz_parameters():
    params, log_k = gaussian_wz_params(0.1, 0.1**2 / 400)
    assert log_k <= 0.5 * math.log2(400) + 8
    with pytest.raises(ValueError):
        gaussian_wz_params(0.1, 0.1**2 / 100)  # D > sigma^2/308


def test_gaussian_wz_meets_distortion():
    rng = SeedPath(1).stream()
    D = 0.1**2 / 400
    mse, _ = gaussian_wz_run(0.1, D, 512, 50, rng)
    assert mse <= D


def test_cli_deterministic_csv(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("zipf_n = 16\nzipf_s = 1.0\n")
    outs = []
    for _ in range(2):
        code, text = run_cli(tmp_path, "aoi-solve", "--config", str(cfg), "--seed", "9")
        assert code == 0
        outs.append(text)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0].startswith("objective,")


def test_cli_quantize_bench(tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("d = 32\nquantizers = ratq,simq\n")
    code, text = run_cli(tmp_path, "quantize-bench", "--config", str(cfg),
                         "--seed", "3", "--trials", "200")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 3 and lines[1].startswith("ratq,32,")
    simq = lines[2].split(",")  # the row of simq_quantizer(B, d).sample
    assert simq[:4] == ["simq", "32", "1", str(math.ceil(math.log2(2 * 32 + 1)))]
    assert float(simq[4]) == pytest.approx(1.0)  # every draw is a corner of the l1 sphere


def test_cli_dme_bench_monotone(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("n = 4\nd = 32\nr_list = 10 20\n")
    code, text = run_cli(tmp_path, "dme-bench", "--config", str(cfg),
                         "--seed", "4", "--trials", "300")
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert float(rows[0][5]) > float(rows[1][5])  # mse decreases in r


def test_cli_dme_bench_known_delta_bound_follows_the_precision(tmp_path):
    """Above r = d, `configure_known_delta` sends plain RMQ with k = 2^(r/d),
    and the `mse_bound` column is that setting's bound."""
    cfg = tmp_path / "d.cfg"
    cfg.write_text("setting = known-delta\nn = 10\nd = 64\nr_list = 32 256\ndelta = 0.1\n")
    code, text = run_cli(tmp_path, "dme-bench", "--config", str(cfg), "--seed", "4", "--trials", "50")
    assert code == 0
    small, large = [line.split(",") for line in text.strip().splitlines()[1:]]
    deltas = [0.1] * 10
    assert float(small[7]) == pytest.approx(theoretical_bound("known-delta", 10, 64, 32, deltas))
    assert float(large[7]) == pytest.approx(
        theoretical_bound("known-delta", 10, 64, 256, deltas))
    assert float(large[5]) <= float(large[7])


def test_cli_rd_and_sim(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("d = 256\nblocks = 20\n")
    code, text = run_cli(tmp_path, "rd-bench", "--config", str(cfg), "--seed", "5")
    assert code == 0 and text.startswith("mode,")
    cfg2 = tmp_path / "s.cfg"
    cfg2.write_text("zipf_n = 8\nhorizon = 20000\n")
    code, text = run_cli(tmp_path, "aoi-sim", "--config", str(cfg2), "--seed", "6")
    assert code == 0
    row = text.strip().splitlines()[1].split(",")
    assert abs(float(row[3]) - float(row[5])) < 0.5


def test_cli_rd_bench_wz_alone_runs(tmp_path, capsys):
    """A config of only `mode = wz` takes the wz default D_frac = 400, which
    meets the D <= sigma_z^2 / 308 of `gaussian_wz_params`."""
    cfg = tmp_path / "wz.cfg"
    cfg.write_text("mode = wz\n")
    assert main(["rd-bench", "--config", str(cfg), "--seed", "2"]) == 0
    (row,) = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert row[0] == "wz" and float(row[3]) == pytest.approx(0.1**2 / 400)


def test_cli_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["aoi-sim", "--config", str(bad)]) == 1
    zero = tmp_path / "zero.cfg"
    zero.write_text("T_list = 0\n")
    assert main(["opt-bench", "--config", str(zero)]) == 1
    badrd = tmp_path / "badrd.cfg"
    badrd.write_text("D_frac = 2\n")  # D = v/2 > v/4
    assert main(["rd-bench", "--config", str(badrd)]) == 1
    assert main(["aoi-sim", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_rejects_counts_below_one_naming_the_key(tmp_path, capsys):
    cases = [("dme-bench", "n = 4\nr_list = 16.7\n", "line 2: bad value for r_list: "),
             ("quantize-bench", "d = 0\n", "line 1: d must be at least 1, got '0'"),
             ("dme-bench", "d = 0\n", "line 1: d must be at least 1, got '0'"),
             ("opt-bench", "reps = 0\n", "line 1: reps must be at least 1, got '0'"),
             ("opt-bench", "T_list = 64 -1\n", "line 1: T_list must be at least 1, got '64 -1'"),
             ("rd-bench", "blocks = 0\n", "line 1: blocks must be at least 1, got '0'"),
             ("aoi-sim", "horizon = 0\n", "line 1: horizon must be at least 1, got '0'")]
    cfg = tmp_path / "c.cfg"
    for command, text, message in cases:
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"qtc: {message}")
    for trials in ("0", "-3"):
        assert main(["quantize-bench", "--trials", trials]) == 1
        assert capsys.readouterr().err == f"qtc: --trials must be at least 1, got {trials}\n"


def test_cli_rejects_empty_lists_and_floats_out_of_domain_naming_the_key(tmp_path, capsys):
    cases = [("quantize-bench", "B = 0\n", "line 1: B must be positive, got '0'"),
             ("quantize-bench", "B = nan\n", "line 1: B must be finite, got 'nan'"),
             ("aoi-solve", "tol = -1\n", "line 1: tol must be positive, got '-1'"),
             ("opt-bench", "noise = -1\n", "line 1: noise must be non-negative, got '-1'"),
             ("opt-bench", "d = 4\nB = 0\n", "line 2: B must be positive, got '0'"),
             ("opt-bench", "T_list =\n", "line 1: T_list needs at least one value"),
             ("dme-bench", "r_list =   # none\n", "line 1: r_list needs at least one value"),
             ("rd-bench", "D_frac = -1\n", "line 1: D_frac must be positive, got '-1'"),
             ("rd-bench", "v = 0\n", "line 1: v must be positive, got '0'"),
             ("rd-bench", "mode = wz\nsigma_z = 0\n", "line 2: sigma_z must be positive, got '0'"),
             ("dme-bench", "delta = inf\n", "line 1: delta must be finite, got 'inf'"),
             ("quantize-bench", "quantizers = ,\n", "line 1: quantizers needs at least one value"),
             ("quantize-bench", "d = 8\nquantizers = , ,\n",
              "line 2: quantizers needs at least one value"),
             ("quantize-bench", "quantizers = ratq bogus\n", "unknown quantizer 'bogus'"),
             ("quantize-bench", "quantizers = ratq rmq\n", "quantizer 'rmq' decodes against "
              "side information, which quantize-bench does not draw"),
             ("dme-bench", "delta = 0\n", "line 1: delta must be positive, got '0'"),
             ("dme-bench", "setting = known-delta\ndelta = -0.1\n",
              "line 2: delta must be positive, got '-0.1'"),
             ("aoi-sim", "erasure = 1.0\n", "line 1: erasure must be below 1, got '1.0'"),
             ("aoi-sim", "erasure = -0.1\n", "line 1: erasure must be non-negative, got '-0.1'"),
             ("dme-bench", "setting = bogus\n", "unknown setting 'bogus'"),
             ("rd-bench", "mode = bogus\n", "unknown mode 'bogus'"),
             ("aoi-solve", "zipf_n = 8\nobjective = bogus\n", "unknown objective 'bogus'"),
             ("aoi-sim", "zipf_n = 8\ncode = bogus\n", "unknown code 'bogus'")]
    cfg = tmp_path / "c.cfg"
    for command, text, message in cases:
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"qtc: {message}\n"
    cfg.write_text("noise = 0\nd = 4\nT_list = 16 32\nreps = 1\n")  # noise may be zero
    assert main(["opt-bench", "--config", str(cfg)]) == 0


def test_cli_quantize_bench_rows_do_not_depend_on_order(tmp_path):
    def rows(quantizers):
        cfg = tmp_path / "q.cfg"
        cfg.write_text(f"d = 16\nquantizers = {quantizers}\n")
        code, text = run_cli(tmp_path, "quantize-bench", "--config", str(cfg),
                             "--seed", "3", "--trials", "200")
        assert code == 0
        return {line.split(",")[0]: line for line in text.strip().splitlines()[1:]}

    default = rows(" ".join(n for n, e in CATALOG.items() if e.distance is None))
    assert rows("simq,ratq") == {k: default[k] for k in ("simq", "ratq")}
    assert rows("simq_plus,ratq") == {k: default[k] for k in ("simq_plus", "ratq")}


def test_cli_parser_reuse_keeps_no_state(tmp_path):
    """`main` reuses one parser: a rejected command line, then good ones with
    other seeds and outputs, give the CSV bytes of runs on a fresh parser."""
    cfg = tmp_path / "s.cfg"
    cfg.write_text("zipf_n = 8\nhorizon = 10000\n")
    runs = [("5", "a.csv"), ("6", "b.csv"), ("5", "c.csv")]

    def run(seed, name):
        out = tmp_path / name
        assert main(["aoi-sim", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
        return out.read_bytes()

    for argv in (["aoi-sim", "--seed", "five"], ["no-such-command"], [], ["aoi-sim", "--bogus"]):
        with pytest.raises(SystemExit):
            main(argv)
    reused = [run(seed, name) for seed, name in runs]
    fresh = []
    for seed, name in runs:
        _parser.cache_clear()
        fresh.append(run(seed, "fresh-" + name))
    assert reused == fresh
    assert reused[0] == reused[2] != reused[1]
    assert _parser() is _parser()


def test_cli_bad_pmf_file(tmp_path):
    pmf = tmp_path / "p.txt"
    pmf.write_text("a 0.5\nb 0.4\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"pmf_file = {pmf}\n")
    assert main(["aoi-solve", "--config", str(cfg)]) == 1
    pmf.write_text("a nan\nb 1.0\n")
    for command in ("aoi-solve", "aoi-sim"):
        assert main([command, "--config", str(cfg)]) == 1


def test_cli_pmf_file_errors_name_the_file_and_line(tmp_path, capsys):
    pmf = tmp_path / "p.txt"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"pmf_file = {pmf}\n")
    for text, bad in (("a 0.5\n# note\nb 0.25 x\nc 0.25\n", "'b 0.25 x'"),
                      ("a 0.5\n\nb half\n", "'b half'"),
                      ("a 0.5\n# note\n0.5\n", "'0.5'")):
        pmf.write_text(text)
        for command in ("aoi-solve", "aoi-sim"):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err == f"qtc: {pmf} line 3: expected 'symbol probability', got {bad}\n"
    pmf.unlink()
    assert main(["aoi-solve", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("qtc: cannot read pmf file: ")


def test_cli_aoi_sim_rejects_zero_probability_symbols_for_every_code(tmp_path, capsys):
    pmf = tmp_path / "p.txt"
    pmf.write_text("a 0.5\nb 0.5\nc 0\n")
    for code in ("shannon_p", "shannon_pstar"):
        cfg = tmp_path / f"{code}.cfg"
        cfg.write_text(f"pmf_file = {pmf}\nhorizon = 1000\ncode = {code}\n")
        assert main(["aoi-sim", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "qtc: drop zero-probability symbols before assigning lengths\n")

