"""Pinned `qtc aoi-solve` output.

Each CSV below was recorded as the SHA-256 of its bytes: a Zipf grid and
four Dirichlet pmfs, each solved for age and for delay.  A change to the
tilted-code optimizer must reproduce every byte, and the output must not
depend on `--seed`.
"""

import hashlib

import numpy as np
import pytest

import qtc.aoi as aoi
from qtc.cli import main

# (zipf_s, zipf_n); n <= 64 also prints p_star into the CSV
ZIPF = [(0.3, 256), (1.0, 256), (3.2, 256), (0.5, 64), (1.5, 64), (2.5, 16)]
# (symbols, concentration, numpy seed)
DIRICHLET = [(5, 0.5, 1), (24, 1.0, 2), (64, 2.0, 3), (200, 5.0, 4)]

PINNED = {
    "zipf-0.3-256-age": "c3a57baecea6cc365bebee72a95c3491050aad37bfc31b4774af6665ca28cbc5",
    "zipf-0.3-256-delay": "85eccba3af49ecf928b1f5335a7a272598eef77cd4b1a7917ab823887ef9093f",
    "zipf-1.0-256-age": "7413ba84fb5d259863014361e6b38d02adb137a9c9d902fa11a5ca18780950fa",
    "zipf-1.0-256-delay": "b9cf4f09ed331277d50e752b1027035f6c9265b0beed0ba340f5a037cf8c7b09",
    "zipf-3.2-256-age": "b4ebe677760e37de0a02f7f933514f09da8b7c9785a754bd769a4027304e93f8",
    "zipf-3.2-256-delay": "4fcb75ed5bc702c523da0ef77692ce59475ad82ca587f5e319caff1fe7e8b753",
    "zipf-0.5-64-age": "4aec5fa97b0eb020faa975f03009a18e044e9ba7af3a959a2ad7afaf23d696ac",
    "zipf-0.5-64-delay": "8768042d0b28b4de91e4005e70b8d1b82bbce3ae752a9f1a0f979c3d3782c246",
    "zipf-1.5-64-age": "23d9687100222485d06ec2dcd75e9dcfcab29d698a7fb11f3eb0359f916e24f6",
    "zipf-1.5-64-delay": "0e1248766dca0c37509e7ce738751fc10e51ea61f734bb0b7ed36a554109e346",
    "zipf-2.5-16-age": "d211762a76bc1ab8a96e86df1f22aecb4dbd1187034ddd0e6c60a955867bb8cc",
    "zipf-2.5-16-delay": "98a8726ea28cd63a175bece7e5203b61b9c9fb849141641c8e10caca1b0e6d6c",
    "dirichlet-5-0.5-age": "6efe1c3c444b4678d87eb5a0e1795059da829fb8c44bcbb65946f883c9667167",
    "dirichlet-5-0.5-delay": "ef5020f5b641fa7296abfe3b4d92fd578ff47b3d8c0224f01cfe8f4547458319",
    "dirichlet-24-1.0-age": "763918de741536df185e37fd70ae3de0a51bc4871d23be5d945f4b152d08d4f9",
    "dirichlet-24-1.0-delay": "762f4530a2207c1edcb1a32197b894f1fce3106548d118b60b063cd315ecd802",
    "dirichlet-64-2.0-age": "9cc42b39c9375ca05326953b72dffc0db89ed03d0ee497a6f2409a08b68ce4cc",
    "dirichlet-64-2.0-delay": "8c3cbf0a5d495469f56a62904ad186e497775f647347978013bca0fc55619fcf",
    "dirichlet-200-5.0-age": "e19211ce267c4d05e0be48daf4e0aa43269099234e3d65a9d0a7e0919abc1d5f",
    "dirichlet-200-5.0-delay": "369cd387c1a4e5b8089a9baaf13c7a7ab6b6d89345d6c36214802a529d7dc662",
}


def _cases():
    for s, n in ZIPF:
        for objective in ("age", "delay"):
            yield f"zipf-{s}-{n}-{objective}", f"zipf_s = {s!r}\nzipf_n = {n}\n", objective
    for m, alpha, seed in DIRICHLET:
        p = np.random.default_rng(seed).dirichlet(np.full(m, alpha))
        pmf = "".join(f"s{i} {float(v)!r}\n" for i, v in enumerate(p))
        for objective in ("age", "delay"):
            yield f"dirichlet-{m}-{alpha}-{objective}", pmf, objective


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
    assert text.decode().splitlines()[1].split(",")[9] == "1"  # certified
    assert hashlib.sha256(text).hexdigest() == PINNED[key]


def test_aoi_solve_ignores_seed(tmp_path):
    for key, body, objective in CASES[::3]:
        assert solve_csv(tmp_path, key, body, objective, "0") == \
            solve_csv(tmp_path, key, body, objective, "99")


def test_solve_tilt_raises_when_tilt_is_infeasible(monkeypatch):
    monkeypatch.setattr(aoi, "tilted_pmf", lambda *args, **kwargs: None)
    with pytest.raises(ValueError):
        aoi.optimize_age(aoi.zipf_pmf(1.0, 16))
