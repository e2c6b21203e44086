"""A codec's reconstruction is its sampler's first row, bit for bit.

Every quantizer declared as a `core.Kernel` runs the same steps both ways: the
codec draws for one repetition and packs the fields, `Quantizer.sample`
draws for n and skips the packing.  The draw order is the kernel's own: for
the rotated fixed-length codes (RATQ, RMQ and their subsampled forms) signs,
32 to a draw, then subset keys, then one private uniform per sent
coordinate; for the RDAQ family signs, then subset keys, then N uniforms
per sent coordinate shared by all scales; for DAQ one uniform per
coordinate; for SimQ+ one multinomial type; for SimQ one uniform.  A-RATQ
draws signs, one gain uniform (none when the gain overflows), then the
shape's RATQ uniforms; the split quantizer signs, one CUQ uniform per
coordinate, then the RATQ uniforms of its large part.  So a round trip
under a SeedPath equals the sampler's single draw from that path's stream.
"""

import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qtc
from qtc import core, sideinfo, vector
from qtc.core import SeedPath, _chunks
from qtc.sideinfo import (
    RdaqConfig,
    RmqConfig,
    boosted_rdaq_sample,
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
    ratq_apply,
    ratq_quantizer,
    rcs_wrap,
    simq_plus_quantizer,
    simq_quantizer,
)

INPUTS = 10
D_SUB = 40  # the subsampled cases pad it to 64


def _ratq(d):
    return ratq_quantizer(RatqConfig.default(1.0, d)), None, d, 0.9, None


def _ratq_apply(d):
    cfg = RatqConfig.default(1.0, d)
    sampler = lambda x, y, n, g: ratq_apply(np.broadcast_to(x, (n, d)), cfg, g)  # noqa: E731
    return ratq_quantizer(cfg), sampler, d, 0.9, None


def _rcs(mu_d, mode="zero-fill"):
    cfg = RatqConfig.for_subsampling(1.0, D_SUB)
    delta = 0.4 if mode == "center" else None
    return rcs_wrap(cfg, mu_d or cfg.d_pad, mode), None, D_SUB, 0.9, delta


def _wz_known(mu_d):
    cfg = RmqConfig(D_SUB, 0.5, 0.05, 16)
    mu_d = cfg.d_pad if mu_d == "d_pad" else mu_d
    return wz_known_quantizer(cfg, mu_d), None, D_SUB, 0.9, 0.4


def _rdaq(d, N=1):
    cfg = RdaqConfig(d, N=N)
    sampler = lambda x, y, n, g: boosted_rdaq_sample(x, y, cfg, n, g)  # noqa: E731
    return rdaq_quantizer(cfg), sampler, d, 0.6, 0.3


def _wz_unknown(mu_d):
    cfg = RdaqConfig(D_SUB)
    mu_d = cfg.d_pad if mu_d == "d_pad" else mu_d
    return wz_unknown_quantizer(cfg, mu_d), None, D_SUB, 0.6, 0.3


def _simq_plus(k):
    return simq_plus_quantizer(SimqPlusConfig(1.0, 16, 2.0, k)), None, 16, 0.9, None


def _aratq(norm, gain_mode="aguq"):
    cfg = AratqConfig.default(1.0, 32, T=1024, gain_mode=gain_mode)
    return aratq_quantizer(cfg), None, 32, norm, None


def _spiky(rng, d):
    """An input of l3 norm below 1 with two coordinates of 0.6, above the
    p = 1.5 split threshold at d = 64 (about 0.4)."""
    v = _vec(rng, d, 0.3)
    v[rng.integers(d, size=2)] = 0.6
    return v


def _l1(rng, d):
    v = rng.normal(size=d)
    return v * (0.9 / np.abs(v).sum())


# name -> () -> (codec, sampler call or None for the codec's own `sample`, d,
# norm of the input or a function (rng, d) -> input, distance of the side
# information or None); the RDAQ family and DAQ get unit-ball pairs
CASES = {
    "ratq-d24": lambda: _ratq(24),
    "ratq-d64": lambda: _ratq(64),
    "ratq-d256": lambda: _ratq(256),
    "ratq-apply-d64": lambda: _ratq_apply(64),
    "rcs-mu1": lambda: _rcs(1),
    "rcs-mu8": lambda: _rcs(8),
    "rcs-mu-dpad": lambda: _rcs(None),
    "rcs-center-mu8": lambda: _rcs(8, "center"),
    "rmq": lambda: _wz_known(None),
    "wz-known-mu1": lambda: _wz_known(1),
    "wz-known-mu8": lambda: _wz_known(8),
    "wz-known-mu-dpad": lambda: _wz_known("d_pad"),
    "rdaq-d8": lambda: _rdaq(8),
    "rdaq-d32": lambda: _rdaq(32),
    "boosted-rdaq-N4": lambda: _rdaq(D_SUB, N=4),
    "wz-unknown-mu1": lambda: _wz_unknown(1),
    "wz-unknown-mu8": lambda: _wz_unknown(8),
    "wz-unknown-mu-dpad": lambda: _wz_unknown("d_pad"),
    "daq": lambda: (daq_quantizer(D_SUB), None, D_SUB, 0.6, 0.3),
    "simq-plus-k16": lambda: _simq_plus(16),
    "simq-plus-k1": lambda: _simq_plus(1),
    "aratq-aguq": lambda: _aratq(0.7),
    "aratq-aguq-overflow": lambda: _aratq(40.0),  # above the top gain range
    "aratq-aguq-plus": lambda: _aratq(1.5, "aguq_plus"),
    "lp-split-p1.5": lambda: (lp_split_quantizer(LpSplitConfig(1.0, 64, 1.5)), None, 64, _spiky, None),
    "lp-split-p1": lambda: (lp_split_quantizer(LpSplitConfig(1.0, 16, 1.0)), None, 16, 0.9, None),
    "simq": lambda: (simq_quantizer(1.0, 16), None, 16, _l1, None),
}

# The factories that build their quantizer with `core.kernel_quantizer`; the
# cases above cover each of them.
KERNEL_FACTORIES = {
    "ratq_quantizer", "rcs_wrap", "wz_known_quantizer", "rdaq_quantizer",
    "wz_unknown_quantizer", "daq_quantizer", "simq_plus_quantizer", "aratq_quantizer",
    "lp_split_quantizer", "simq_quantizer",
}

# The public samplers that are not a quantizer's `sample`: each runs a
# kernel on rows of its own, and the case that checks it against a codec
# (None: no codec sends it, and why).
PUBLIC_SAMPLERS = {
    "ratq_apply": "ratq-apply-d64",  # distinct rows per repetition (PSGD)
    "boosted_rdaq_sample": "boosted-rdaq-N4",  # `rdaq_quantizer(cfg).sample`
    "atuq_vector_apply": None,  # ATUQ without the rotation step
}


def _vec(rng, d, norm):
    v = rng.normal(size=d)
    return v * (norm / np.linalg.norm(v))


@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_reconstruction_is_the_first_sampler_row(name):
    q, sampler, d, norm, delta = CASES[name]()
    assert q.kernel is not None
    sampler = sampler or q.sample
    rng = SeedPath(90).child(name).stream()
    for i in range(INPUTS):
        x = norm(rng, d) if callable(norm) else _vec(rng, d, norm)
        side = None if delta is None else x + _vec(rng, d, delta)
        path = SeedPath(91).child(name, i)
        rec = q.roundtrip(x, side, path)[1]
        assert np.array_equal(rec, sampler(x, side, 1, path.stream())[0])


def test_every_public_sampler_runs_a_codec_kernel():
    public = [
        n for mod in (core, vector, sideinfo) for n in mod.__all__ if n.endswith(("_sample", "_apply"))
    ]
    assert sorted(public) == sorted(PUBLIC_SAMPLERS)
    assert all(case is None or case in CASES for case in PUBLIC_SAMPLERS.values())


def _functions(mod):
    return [n for n in ast.walk(ast.parse(inspect.getsource(mod))) if isinstance(n, ast.FunctionDef)]


def test_every_kernel_factory_has_a_case():
    built = {
        f.name for mod in (vector, sideinfo) for f in _functions(mod)
        if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "kernel_quantizer"
               for c in ast.walk(f))
    }
    assert built == KERNEL_FACTORIES


def test_no_sampler_twin_is_left():
    """`Quantizer.sample` is the one sampler; `boosted_rdaq_sample` stays as a
    one-line name for it."""
    modules = [importlib.import_module(f"qtc.{m.name}") for m in pkgutil.iter_modules(qtc.__path__)]
    names = {f.name for mod in modules for f in _functions(mod) if f.name.endswith("_sample")}
    assert names == {"boosted_rdaq_sample"}


def _quantizer_calls(node):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and "Quantizer" in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]


def test_every_quantizer_is_built_by_kernel_quantizer():
    """No `Quantizer(...)` call in the library but the one in
    `core.kernel_quantizer`, so every codec runs a kernel and can `sample`."""
    modules = [importlib.import_module(f"qtc.{m.name}") for m in pkgutil.iter_modules(qtc.__path__)]
    calls = sum(len(_quantizer_calls(ast.parse(inspect.getsource(mod)))) for mod in modules)
    (factory,) = [f for f in _functions(core) if f.name == "kernel_quantizer"]
    assert calls == len(_quantizer_calls(factory)) == 1


# The rotate and draw steps of the rotated codes.
ROTATION_STEPS = {"rotate_batch", "unrotate_batch", "sign_words", "_signs_of", "_subset_masks"}


def test_only_rotation_rotates():
    """No library module but `rotation` calls or passes a rotation step, so
    RATQ, RMQ and the RDAQ family state only their rule on the sent rotated
    coordinates, and each of them is built by `rotation.rotated_kernel`."""
    for m in pkgutil.iter_modules(qtc.__path__):
        if m.name == "rotation":
            continue
        tree = ast.parse(inspect.getsource(importlib.import_module(f"qtc.{m.name}")))
        used = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree)
                if isinstance(n, (ast.Name, ast.Attribute))}
        assert not used & ROTATION_STEPS, m.name
    built = {
        f.name for mod in (vector, sideinfo) for f in _functions(mod)
        if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "rotated_kernel"
               for c in ast.walk(f))
    }
    assert built == {"_ratq_kernel", "wz_known_quantizer", "_rdaq_kernel"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_of_one_input_sample_as_that_input(name):
    """Every kernel takes one row per repetition: n copies of x (and of the
    side information) as rows, n past one draw chunk, give the same bits as
    x as one vector."""
    q, _, d, norm, delta = CASES[name]()
    k = q.kernel
    rng = SeedPath(94).child(name).stream()
    x = k.check_input(norm(rng, d) if callable(norm) else _vec(rng, d, norm))
    side = k.check_side(None if delta is None else x + _vec(rng, d, delta))
    n = next(_chunks(1 << 30, k.row_elems))[1] + 3
    path = SeedPath(95).child(name)
    side_rows = None if side is None else np.tile(side, (n, 1))
    rows = k.sample(np.tile(x, (n, 1)), side_rows, n, path.stream())
    assert np.array_equal(rows, k.sample(x, side, n, path.stream()))


# The cases whose codec takes every finite input of a finite norm: RMQ and
# A-RATQ bound no norm.
UNBOUNDED = {n for n in CASES if n.startswith(("rmq", "wz-known", "aratq"))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_rejects_a_bad_row_before_any_draw(name):
    """`Kernel.run` checks every row before any draw: n rows of one input,
    n past one draw chunk, with one row in the middle that the codec
    rejects (non-finite, or ten times the input, outside every bounded
    domain) raise ValueError and leave the stream where it was, as do
    n - 1 good rows for n repetitions."""
    q, _, d, norm, delta = CASES[name]()
    rng = SeedPath(96).child(name).stream()
    x = norm(rng, d) if callable(norm) else _vec(rng, d, norm)
    side = None if delta is None else x + _vec(rng, d, delta)
    n = next(_chunks(1 << 30, q.kernel.row_elems))[1] + 3
    rows = np.tile(x, (n, 1))
    cases = [rows[:-1]]
    for bad in [np.full(d, np.nan)] + ([] if name in UNBOUNDED else [10 * x]):
        with pytest.raises(ValueError):
            q.encode(bad, side, SeedPath(0).stream())
        cases.append(rows.copy())
        cases[-1][n // 2] = bad
    for case in cases:
        stream = SeedPath(97).child(name).stream()
        state = stream.bit_generator.state
        with pytest.raises(ValueError):
            q.kernel.sample(case, side, n, stream)
        assert stream.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_equals_separate_encode_and_decode(name):
    """`roundtrip` seeds one stream and rewinds it for the decoder; the result
    is that of an encode and a decode each on a fresh ``path.stream()``.  The
    cases include encoders with private draws after the shared ones (RATQ,
    A-RATQ) and decoders with side information (subsampled RMQ and RDAQ)."""
    q, _, d, norm, delta = CASES[name]()
    rng = SeedPath(92).child(name).stream()
    for i in range(INPUTS):
        x = norm(rng, d) if callable(norm) else _vec(rng, d, norm)
        side = None if delta is None else x + _vec(rng, d, delta)
        path = SeedPath(93).child(name, i)
        msg, rec = q.roundtrip(x, side, path)
        alone = q.encode(x, side, path.stream())
        assert msg == alone
        assert np.array_equal(rec, q.decode(alone, side, path.stream()))
