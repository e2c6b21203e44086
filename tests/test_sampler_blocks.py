"""The sampler's arithmetic blocks change no bit.

`Kernel.run` draws each client's repetitions chunk by chunk and does the
arithmetic on blocks of at most `_BLOCK_ELEMS // d_pad` rows, which join the
chunks of consecutive clients and cut a large chunk into several.  Every
reconstruction must be the same bits as the kernel's steps run on each whole
chunk of one client.
"""

import hashlib

import numpy as np
import pytest

from qtc.cli import main
from qtc.core import _BLOCK_ELEMS, Quantizer, SeedPath, _chunks
from qtc.dme import DmeInstance, run_dme
from qtc.rotation import next_pow2
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    daq_quantizer,
    rdaq_quantizer,
    wz_known_quantizer,
    wz_unknown_quantizer,
)
from qtc.vector import (
    AratqConfig,
    LpSplitConfig,
    RatqConfig,
    SimqPlusConfig,
    aratq_quantizer,
    lp_split_quantizer,
    ratq_quantizer,
    rcs_wrap,
    simq_plus_quantizer,
    simq_quantizer,
)

D = 48  # d_pad = 64

QUANTIZERS = {
    "ratq": lambda: ratq_quantizer(RatqConfig.default(1.0, D)),  # s = 2, no side information
    "rcs_ratq": lambda: rcs_wrap(RatqConfig.for_subsampling(1.0, D), 8),
    "rcs_ratq_center": lambda: rcs_wrap(RatqConfig.for_subsampling(1.0, D), 8, "center"),
    "rmq": lambda: wz_known_quantizer(RmqConfig(D, 0.5, 0.05, 16), None),
    "wz_known": lambda: wz_known_quantizer(RmqConfig(D, 0.5, 0.05, 16), 8),
    "wz_unknown": lambda: wz_unknown_quantizer(RdaqConfig(D), 8),
    "boosted_rdaq": lambda: rdaq_quantizer(RdaqConfig(D, N=3)),
    "daq": lambda: daq_quantizer(D),
    "aratq": lambda: aratq_quantizer(AratqConfig.default(1.0, D, T=1024)),
    "simq": lambda: simq_quantizer(1.0, D),
    "simq_plus": lambda: simq_plus_quantizer(SimqPlusConfig(1.0, D, 2.0)),  # l1 bound sqrt(D)
    "lp_split": lambda: lp_split_quantizer(LpSplitConfig(1.0, D, 1.5)),  # threshold 0.44
}


def _gains(xs, rng):
    """A-RATQ inputs whose gains cycle through in range (0.6), above the top
    range of the ladder (40) and zero, so blocks join all three and some
    start with an overflowing client."""
    return xs * np.resize([1.0, 40.0 / 0.6, 0.0], len(xs))[:, None]


def _l1(xs, rng):
    return xs * (0.9 / np.abs(xs).sum(axis=1, keepdims=True))


def _spiky(xs, rng):
    """Rows of l3 norm below 1 with one to three coordinates at +-0.6, above
    the split threshold, at different places in each row."""
    xs = 0.5 * xs
    for x in xs:
        x[rng.choice(D, size=rng.integers(1, 4), replace=False)] = rng.choice([-0.6, 0.6])
    return xs


# The quantizers whose domain is not the ball of radius 0.6, and the map of
# unit-ball inputs into it.
DOMAINS = {"aratq": _gains, "simq": _l1, "lp_split": _spiky}


def _block_rows(q) -> int:
    return _BLOCK_ELEMS // next_pow2(q.kernel.d)


def _chunk_rows(q) -> int:
    return next(_chunks(1 << 30, q.kernel.row_elems))[1]


def _inputs(seed, clients, name=None):
    """Client inputs and side information inside the unit ball, the inputs
    mapped into the domain of quantizer `name`."""
    rng = SeedPath(seed).stream()
    xs = rng.normal(size=(clients, D))
    xs *= 0.6 / np.linalg.norm(xs, axis=1, keepdims=True)
    us = rng.normal(size=(clients, D))
    ys = xs + 0.2 * us / np.linalg.norm(us, axis=1, keepdims=True)
    return (DOMAINS[name](xs, rng) if name in DOMAINS else xs), ys


def _whole_chunks(q, x, side, n, rng):
    """The kernel's steps on each whole draw chunk of one client: the
    sampler without blocks."""
    k = q.kernel
    x, side = k.check_input(x), k.check_side(side)
    out = np.empty((n, k.d))
    for lo, hi in _chunks(n, k.row_elems):
        draws = k.draw(rng, hi - lo)
        noise = k.noise(rng, x, hi - lo)
        shared = k.derive(draws)
        out[lo:hi] = k.decode(k.encode(x, shared, noise), side, shared)
    return out


def _run(q, xs, ys, n, root):
    """Kernel.run on every client at once, one (n, d) array per client."""
    k = q.kernel
    outs = np.full((len(xs), n, k.d), np.nan)
    clients = [(k.check_input(x), k.check_side(y), root.child("client", i).stream())
               for i, (x, y) in enumerate(zip(xs, ys))]
    for i, lo, hi, recs in k.run(clients, n):
        outs[i, lo:hi] = recs
    return outs


@pytest.mark.parametrize("name", sorted(QUANTIZERS))
def test_cut_chunks_are_whole_chunks(name):
    """One client: a chunk cut into blocks, a partial last block, and trials
    past one chunk."""
    q = QUANTIZERS[name]()
    x, y = (v[0] for v in _inputs(1, 1, name))
    block, chunk = _block_rows(q), _chunk_rows(q)
    assert block < chunk  # so the larger counts cut a chunk
    for n in (1, block - 1, block, block + 1, 3 * block + 5, chunk + 3):
        got = q.sample(x, y, n, SeedPath(n).child(name).stream())
        ref = _whole_chunks(q, x, y, n, SeedPath(n).child(name).stream())
        assert np.array_equal(got, ref), n


@pytest.mark.parametrize("name", sorted(QUANTIZERS))
@pytest.mark.parametrize("trials", [1, 3, 10, 70])
def test_joined_clients_are_one_by_one(name, trials):
    """Clients joined into blocks, with a client count that leaves a partial
    last block, equal each client sampled alone."""
    q = QUANTIZERS[name]()
    block = _block_rows(q)
    clients = 2 * (block // trials) + 3 if trials < block else 3
    xs, ys = _inputs(2, clients, name)
    root = SeedPath(3).child(name)
    got = _run(q, xs, ys, trials, root)
    for i in range(clients):
        ref = q.sample(xs[i], ys[i], trials, root.child("client", i).stream())
        assert np.array_equal(got[i], ref), i
        assert np.array_equal(ref, _whole_chunks(q, xs[i], ys[i], trials,
                                                 root.child("client", i).stream()))


@pytest.mark.parametrize("name", ["wz_known", "boosted_rdaq"])
def test_clients_past_one_chunk(name):
    q = QUANTIZERS[name]()
    n = _chunk_rows(q) + 3
    xs, ys = _inputs(4, 3)
    root = SeedPath(5)
    got = _run(q, xs, ys, n, root)
    for i in range(3):
        ref = _whole_chunks(q, xs[i], ys[i], n, root.child("client", i).stream())
        assert np.array_equal(got[i], ref), i


def test_mixed_quantizer_run_dme_is_client_by_client():
    """Runs of clients that share a quantizer take one path: a kernel's run
    goes to one Kernel.run, and a run of the same codec rebuilt without
    its kernel ("codec" below) is round-tripped.  The result equals the
    same quantizers built once per client, which join nothing, including
    where a kernel-less run is followed by a kernel run of one factory."""
    names = ["wz_known", "wz_known", "wz_known", "codec daq", "daq", "wz_unknown",
             "wz_unknown", "codec wz_unknown", "codec wz_unknown", "wz_unknown", "wz_known",
             "codec wz_known", "daq", "daq", "daq", "daq", "daq"]

    def build(name):
        q = QUANTIZERS[name.split()[-1]]()
        return Quantizer(q.encode, q.decode, q.bit_budget, q.name) if " " in name else q

    xs, ys = _inputs(6, len(names))
    inst = DmeInstance(xs, ys, np.full(len(names), 0.2), 10**6)
    shared = {name: build(name) for name in set(names)}
    for trials in (1, 7, 200):
        joined = run_dme(inst, [shared[name] for name in names], SeedPath(7), trials)
        alone = run_dme(inst, [build(name) for name in names], SeedPath(7), trials)
        assert (joined.mse, joined.band) == (alone.mse, alone.band)


# SHA-256 of the CSVs of `qtc dme-bench --seed 18 --trials T` on each config,
# recorded by running that command.  The first two are the perfbench
# `montecarlo` shapes.
DME_BENCH_PINS = {
    "known-delta": ("setting = known-delta\nn = 100\nd = 256\nr_list = 32\ndelta = 0.13\n", 10,
                    "bdd35619a5941a07a6ab25c5a52586624877cfec76129ad3fc5d31063593ab8e"),
    "no-side-info": ("setting = no-side-info\nn = 10\nd = 256\nr_list = 16 32 64\n", 40,
                     "c64962511f27238d67ab6468d13d949154ba3cc61143fd6001c7961dbb8b15de"),
    "known-delta-default": ("setting = known-delta\n", 200,
                            "35347e6db4787a0ccb11d2a1fc4ffa469f47d89671f12600e4aff73c0366e6e2"),
}


@pytest.mark.parametrize("case", sorted(DME_BENCH_PINS))
def test_dme_bench_csv_pinned(case, tmp_path):
    cfg, trials, digest = DME_BENCH_PINS[case]
    (tmp_path / "c.cfg").write_text(cfg)
    out = tmp_path / "o.csv"
    assert main(["dme-bench", "--config", str(tmp_path / "c.cfg"), "--seed", "18",
                 "--trials", str(trials), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
