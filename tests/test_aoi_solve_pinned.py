"""Pinned `qtc aoi-solve` output.

Each CSV below was recorded as the SHA-256 of its bytes: a Zipf grid and
four Dirichlet pmfs, each solved for age and for delay.  A change to the
tilted-code optimizer must reproduce every byte, and the output must not
depend on `--seed`.  The rows the earlier maxmin ascent printed for the same
cases are kept too: the Newton solve that replaced it must agree with them
on every column that does not depend on the optimizer's last digits.
"""

import hashlib

import numpy as np
import pytest

import qtc.aoi as aoi
from qtc.cli import main
from test_aoi import kkt_residual

# (zipf_s, zipf_n); n <= 64 also prints p_star into the CSV
ZIPF = [(0.3, 256), (1.0, 256), (3.2, 256), (0.5, 64), (1.5, 64), (2.5, 16)]
# (symbols, concentration, numpy seed)
DIRICHLET = [(5, 0.5, 1), (24, 1.0, 2), (64, 2.0, 3), (200, 5.0, 4)]

PINNED = {
    "zipf-0.3-256-age": "2e01571c54a7c9951d8d441430095816529f0eaed209e10617c55d24087ea152",
    "zipf-0.3-256-delay": "30a657d89e00243282680d179fc879b06e11eaf7d7e5bd989906e3d5b86f2a0f",
    "zipf-1.0-256-age": "16e0d324f88fc4bfde3d6ba72aedf21b89b39acc10691f59b75ae246c354faf7",
    "zipf-1.0-256-delay": "5e82d659a66465e90d94d47be0ffb8add2cc5980170d0d0df1389bd8d6dbbeda",
    "zipf-3.2-256-age": "c95c3da27bebda33633328b6ff9217754c744029d9993b4d25c2b819d4c3e35b",
    "zipf-3.2-256-delay": "62ea5e8e19d79db2974e02177acde518aab3a0744a0e25d46adf14dc7ac454c5",
    "zipf-0.5-64-age": "1f74089dc5f223142c79876019b9d1e03c1d68d547adac438dae2b5a02c5a861",
    "zipf-0.5-64-delay": "0e50e8abf19a706609ab99c1894e90637f7baa39c851e35612c0b6cf3f94423d",
    "zipf-1.5-64-age": "8b9cea5c779de5f93ff93f542e81e19375fc2231742f2334586374858166cc04",
    "zipf-1.5-64-delay": "5e4adf4ba26386b3cae4e48f1448ba6d561f0805f027a739339d30a4fcaaf480",
    "zipf-2.5-16-age": "6739fd933f4725f413d85dd2f2e9aadf855d3ea1094783ffd4aebd774ebac461",
    "zipf-2.5-16-delay": "a28ff2ba498a2676fab8fded3688e1280b339d4fe39c26924ad3ee29cb771b23",
    "dirichlet-5-0.5-age": "0127a8b5936ee82ac214824400f6754f45e5540a4706ed5abf0b5076a1f7fb19",
    "dirichlet-5-0.5-delay": "761536960375272b73788a7fb092d150c51286a0474bee0cc018854c97fc4358",
    "dirichlet-24-1.0-age": "091a02d1d488b30b37ab349f7957068b06bdebdf5906c3f07871ef1e0d442c2a",
    "dirichlet-24-1.0-delay": "9854c4c9d094440f9df640cc1e032faff2ac21d3a3d769cc06071b1ca9276d9a",
    "dirichlet-64-2.0-age": "70e9df6db2ced01a2bf0f16bbd7f8a26b9486adb975bcce0d534a773a80e9c44",
    "dirichlet-64-2.0-delay": "aecadf4df76b8f0ac405c3fd017fb9b00841dade76dda6bd4dbbdca14f5bfa3b",
    "dirichlet-200-5.0-age": "0091fe7a8ab709dd7dc6343fec4290c415c23f3a862cb7d8335099744a159e5f",
    "dirichlet-200-5.0-delay": "b25ed4de4f6e29ade39e6bfe5c325038e91056826ab7ad962c831c568ecdcb65",
}
# The maxmin ascent's rows for the same cases, without the p_star column:
# objective, entropy_bits, age_P_real, age_P_int, age_Pstar_real,
# age_Pstar_int, z_star, maxmin_value, certificate_gap, certified
ASCENT_ROWS = {
    "zipf-0.3-256-age":
        "age,7.916103666,11.39208744,12.24266338,11.39010995,"
        "12.25888591,1.001787195,11.89010995,-1.350031198e-13,1",
    "zipf-0.3-256-delay":
        "delay,7.916103666,11.39208744,12.24266338,11.39044412,"
        "12.25888591,0.7999614884,11.08923339,-2.74269496e-12,1",
    "zipf-1.0-256-age":
        "age,6.221680148,9.340553549,10.0463758,9.269365022,"
        "10.07051268,1.057782403,9.769365022,-1.250555215e-12,1",
    "zipf-1.0-256-delay":
        "delay,6.221680148,9.340553549,10.0463758,9.283339595,"
        "9.933111589,0.8103821785,8.930306478,-6.75015599e-14,1",
    "zipf-3.2-256-age":
        "age,0.8427609409,2.461712803,2.715453008,1.610170853,"
        "2.031921729,1.370659632,2.110170853,-6.661338148e-15,1",
    "zipf-3.2-256-delay":
        "delay,0.8427609409,2.461712803,2.715453008,1.869427017,"
        "2.242965695,0.5811478996,1.36369351,-3.774758284e-15,1",
    "zipf-0.5-64-age":
        "age,5.781106922,8.236222162,8.920985936,8.226775481,"
        "9.027147487,1.008061102,8.726775481,-5.329070518e-14,1",
    "zipf-0.5-64-delay":
        "delay,5.781106922,8.236222162,8.920985936,8.22843349,"
        "9.003753882,0.7502913987,7.97258545,-1.421085472e-13,1",
    "zipf-1.5-64-age":
        "age,3.435292242,5.545044899,6.223633299,5.34556735,"
        "5.851343895,1.140979857,5.84556735,-6.217248938e-15,1",
    "zipf-1.5-64-delay":
        "delay,3.435292242,5.545044899,6.223633299,5.390689422,"
        "5.988218003,0.7584245626,5.019279016,-5.329070518e-14,1",
    "zipf-2.5-16-age":
        "age,1.368834547,2.853320063,3.216922529,2.330213756,"
        "2.70976308,1.272915383,2.830213756,0,1",
    "zipf-2.5-16-delay":
        "delay,1.368834547,2.853320063,3.216922529,2.472604111,"
        "2.82296114,0.6316375138,2.076894388,8.881784197e-16,1",
    "dirichlet-5-0.5-age":
        "age,1.968229844,2.495508068,3.151157393,2.482670476,"
        "3.143305227,1.011129177,2.982670476,4.440892099e-16,1",
    "dirichlet-5-0.5-delay":
        "delay,1.968229844,2.495508068,3.151157393,2.485066759,"
        "3.147056117,0.5041876479,2.474123395,0,1",
    "dirichlet-24-1.0-age":
        "age,4.056265047,5.722698302,6.315924649,5.696927663,"
        "6.552069618,1.022377628,6.196927663,-8.881784197e-16,1",
    "dirichlet-24-1.0-delay":
        "delay,4.056265047,5.722698302,6.315924649,5.701474889,"
        "6.611812557,0.6889970782,5.497254131,-8.881784197e-16,1",
    "dirichlet-64-2.0-age":
        "age,5.684511319,8.092865403,8.859842222,8.083418873,"
        "8.847343347,1.00851284,8.583418873,-1.065814104e-14,1",
    "dirichlet-64-2.0-delay":
        "delay,5.684511319,8.092865403,8.859842222,8.085019446,"
        "8.836732739,0.7473412341,7.831814326,-2.220446049e-14,1",
    "dirichlet-200-5.0-age":
        "age,7.486036103,10.75662557,11.52767869,10.75350469,"
        "11.51642531,1.002893418,11.25350469,-4.227729278e-13,1",
    "dirichlet-200-5.0-delay":
        "delay,7.486036103,10.75662557,11.52767869,10.75402187,"
        "11.53126036,0.7918116077,10.46018834,-3.97903932e-13,1",
}
EXACT = (0, 1, 2, 3, 5, 9)  # optimizer-independent and integer columns: byte-identical
CLOSE = (4, 7)  # age_Pstar_real and maxmin_value: within rel 1e-8


def _dirichlet(m, alpha, seed):
    return np.random.default_rng(seed).dirichlet(np.full(m, alpha))


def _cases():
    for s, n in ZIPF:
        for objective in ("age", "delay"):
            yield f"zipf-{s}-{n}-{objective}", f"zipf_s = {s!r}\nzipf_n = {n}\n", objective
    for m, alpha, seed in DIRICHLET:
        p = _dirichlet(m, alpha, seed)
        pmf = "".join(f"s{i} {float(v)!r}\n" for i, v in enumerate(p))
        for objective in ("age", "delay"):
            yield f"dirichlet-{m}-{alpha}-{objective}", pmf, objective


def case_pmf(key):
    """The pmf a case's config makes `aoi-solve` load."""
    kind, a, b, _ = key.split("-")
    if kind == "zipf":
        return aoi.zipf_pmf(float(a), int(b))
    return next(_dirichlet(*c) for c in DIRICHLET if c[:2] == (int(a), float(b)))


CASES = list(_cases())


def solve_csv(tmp_path, key, body, objective, seed="0"):
    """Run aoi-solve on one case and return the CSV bytes."""
    if key.startswith("dirichlet"):
        pmf = tmp_path / f"{key}.pmf"
        pmf.write_text(body)
        body = f"pmf_file = {pmf}\n"
    cfg = tmp_path / f"{key}.cfg"
    cfg.write_text(f"{body}objective = {objective}\n")
    out = tmp_path / f"{key}-{seed}.csv"
    assert main(["aoi-solve", "--config", str(cfg), "--seed", seed, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("key,body,objective", CASES, ids=[c[0] for c in CASES])
def test_aoi_solve_csv_pinned(tmp_path, key, body, objective):
    text = solve_csv(tmp_path, key, body, objective)
    row = text.decode().splitlines()[1].split(",")
    ascent = ASCENT_ROWS[key].split(",")
    assert row[9] == "1"  # certified
    assert [row[i] for i in EXACT] == [ascent[i] for i in EXACT]
    for i in CLOSE:
        assert float(row[i]) == pytest.approx(float(ascent[i]), rel=1e-8)
    assert abs(float(row[8])) <= 1e-12  # certificate_gap
    p = case_pmf(key)
    if objective == "age":
        sol, l_th = aoi.optimize_age(p), None
    else:
        l_th = 2 * aoi.entropy(p) + 2.0  # the default l_th_offset
        sol = aoi.optimize_delay(p, l_th)
    assert kkt_residual(sol.lengths, p, l_th) <= 1e-12
    assert hashlib.sha256(text).hexdigest() == PINNED[key]


def test_aoi_solve_ignores_seed(tmp_path):
    for key, body, objective in CASES[::3]:
        assert solve_csv(tmp_path, key, body, objective, "0") == \
            solve_csv(tmp_path, key, body, objective, "99")


def test_solve_tilt_raises_when_tilt_is_infeasible(monkeypatch):
    monkeypatch.setattr(aoi, "tilted_pmf", lambda *args, **kwargs: None)
    with pytest.raises(ValueError):
        aoi.optimize_age(aoi.zipf_pmf(1.0, 16))
