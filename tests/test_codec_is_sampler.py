"""A codec's reconstruction is its sampler's first row, bit for bit.

Every quantizer declared as a `core.Kernel` runs the same steps both ways: the
codec draws for one repetition and packs the fields, `Quantizer.sample`
draws for n and skips the packing.  The draw order is the kernel's own: for
the rotated fixed-length codes (RATQ, RMQ and their subsampled forms) signs,
32 to a draw, then one window uniform (subsampled only), then one private
uniform per sent coordinate; for the RDAQ family signs, then one window
uniform (subsampled only), then N uniforms per sent coordinate shared by
all scales; for DAQ one uniform per
coordinate; for SimQ+ one multinomial type; for SimQ one uniform.  A-RATQ
draws signs, one gain uniform (none when the gain overflows), then the
shape's RATQ uniforms; the split quantizer signs, one CUQ uniform per
coordinate, then the RATQ uniforms of its large part.  So a round trip
under a SeedPath equals the sampler's single draw from that path's stream.
"""

import ast
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import qtc
from qtc import catalog, core, sideinfo, vector
from qtc.catalog import CATALOG
from qtc.core import SeedPath, _chunks
from qtc.sideinfo import RdaqConfig, boosted_rdaq_sample

INPUTS = 10
D_SUB = 40  # the subsampled cases pad it to 64

# case -> (catalog entry, d, its parameter or None for the default, radius
# of the input); the side information is at the entry's distance
CASES = {
    "ratq-d24": ("ratq", 24, None, 0.9),
    "ratq-d64": ("ratq", 64, None, 0.9),
    "ratq-d256": ("ratq", 256, None, 0.9),
    "ratq-apply-d64": ("ratq", 64, None, 0.9),  # sampled on one row per repetition
    "rcs-mu1": ("rcs_ratq", D_SUB, 1, 0.9),
    "rcs-mu8": ("rcs_ratq", D_SUB, 8, 0.9),
    "rcs-mu-dpad": ("rcs_ratq", D_SUB, 64, 0.9),
    "rcs-center-mu8": ("rcs_ratq_center", D_SUB, 8, 0.9),
    "rmq": ("rmq", D_SUB, None, 0.9),
    "wz-known-mu1": ("wz_known", D_SUB, 1, 0.9),
    "wz-known-mu8": ("wz_known", D_SUB, 8, 0.9),
    "wz-known-mu-dpad": ("wz_known", D_SUB, 64, 0.9),
    "rdaq-d8": ("rdaq", 8, 1, 0.6),
    "rdaq-d32": ("rdaq", 32, 1, 0.6),
    "boosted-rdaq-N4": ("boosted_rdaq", D_SUB, 4, 0.6),
    "wz-unknown-mu1": ("wz_unknown", D_SUB, 1, 0.6),
    "wz-unknown-mu8": ("wz_unknown", D_SUB, 8, 0.6),
    "wz-unknown-mu-dpad": ("wz_unknown", D_SUB, 64, 0.6),
    "daq": ("daq", D_SUB, None, 0.6),
    "simq-plus-k16": ("simq_plus", 16, 16, 0.9),
    "simq-plus-k1": ("simq_plus", 16, 1, 0.9),
    "aratq-aguq": ("aratq", 32, None, 0.7),
    "aratq-aguq-overflow": ("aratq", 32, None, 40.0),  # above the top gain range
    "aratq-aguq-plus": ("aratq_plus", 32, None, 1.5),
    "lp-split-p1.5": ("lp_split", 64, 1.5, 1.0),
    "lp-split-p1": ("lp_split", 16, 1.0, 0.9),
    "simq": ("simq", 16, None, 0.9),
}

# The public samplers that are not a quantizer's `sample`: each runs a
# kernel on rows of its own, and the case that checks it against a codec
# (None: no codec sends it, and why).
PUBLIC_SAMPLERS = {
    "boosted_rdaq_sample": "boosted-rdaq-N4",  # `rdaq_quantizer(cfg).sample`
    "atuq_vector_apply": None,  # ATUQ without the rotation step
}


def _case(name, rng):
    """The codec of case `name`; its sampler call (x, side, n, rng), a
    public sampler where one sends the case; and a draw from rng of an input
    and its side information."""
    entry, d, param, radius = CASES[name]
    q = CATALOG[entry].build(d, 1.0, param)[0]
    sampler = q.sample
    if name == "ratq-apply-d64":
        sampler = lambda x, y, n, g: q.sample(np.broadcast_to(x, (n, d)), None, n, g)  # noqa: E731
    elif entry in ("rdaq", "boosted_rdaq"):
        cfg = RdaqConfig(d, param)  # so the RDAQ cases name N
        sampler = lambda x, y, n, g: boosted_rdaq_sample(x, y, cfg, n, g)  # noqa: E731
    return q, sampler, lambda: CATALOG[entry].inputs(rng.normal(size=d), rng.normal(size=d), radius)


@pytest.mark.parametrize("name", sorted(CASES))
def test_codec_reconstruction_is_the_first_sampler_row(name):
    rng = SeedPath(90).child(name).stream()
    q, sampler, draw = _case(name, rng)
    assert q.kernel is not None
    for i in range(INPUTS):
        x, side = draw()
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
    """Every function that builds a codec with `core.kernel_quantizer` is
    called by the catalog, and every catalog entry has a case above."""
    built = {
        f.name for mod in (vector, sideinfo) for f in _functions(mod)
        if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "kernel_quantizer"
               for c in ast.walk(f))
    }
    called = {getattr(c.func, "id", None) for c in ast.walk(ast.parse(inspect.getsource(catalog)))
              if isinstance(c, ast.Call)}
    assert built and built <= called
    assert {case[0] for case in CASES.values()} == set(CATALOG)


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
ROTATION_STEPS = {"rotate_batch", "unrotate_batch", "sign_words", "_signs_of"}


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
    q, _, draw = _case(name, SeedPath(94).child(name).stream())
    k = q.kernel
    x, side = draw()
    x, side = k.check_input(x), k.check_side(side)
    n = next(_chunks(1 << 30, k.row_elems))[1] + 3
    path = SeedPath(95).child(name)
    side_rows = None if side is None else np.tile(side, (n, 1))
    rows = k.sample(np.tile(x, (n, 1)), side_rows, n, path.stream())
    assert np.array_equal(rows, k.sample(x, side, n, path.stream()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_rejects_a_bad_row_before_any_draw(name):
    """`Kernel.run` checks every row before any draw: n rows of one input,
    n past one draw chunk, with one row in the middle that the codec
    rejects (non-finite, or ten times the input, outside every bounded
    domain) raise ValueError and leave the stream where it was, as do
    n - 1 good rows for n repetitions."""
    q, _, draw = _case(name, SeedPath(96).child(name).stream())
    x, side = draw()
    n = next(_chunks(1 << 30, q.kernel.row_elems))[1] + 3
    rows = np.tile(x, (n, 1))
    cases = [rows[:-1]]
    bounded = CATALOG[CASES[name][0]].radius < math.inf  # RMQ and A-RATQ bound no norm
    for bad in [np.full(x.size, np.nan)] + ([10 * x] if bounded else []):
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


@pytest.mark.parametrize("n", [-1, -3, True, False, 2.0, "3", None])
@pytest.mark.parametrize("name", ["ratq-d64", "wz-known-mu8"])
def test_kernel_rejects_a_bad_repetition_count_before_any_draw(name, n):
    """`Kernel.run` and `Quantizer.sample` raise ValueError, naming n, for a
    repetition count that is negative, a bool or not an integer, and leave
    the stream where it was: a negative n used to yield no rows."""
    q, _, draw = _case(name, SeedPath(98).child(name).stream())
    x, side = draw()
    calls = [lambda rng: list(q.kernel.run([(x, side, rng)], n)),
             lambda rng: q.sample(x, side, n, rng)]
    for call in calls:
        stream = SeedPath(99).child(name).stream()
        state = stream.bit_generator.state
        with pytest.raises(ValueError, match=f"repetitions n must be an integer >= 0, got {n!r}"):
            call(stream)
        assert stream.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(CASES))
def test_round_trip_equals_separate_encode_and_decode(name):
    """`roundtrip` builds its encoder's and its decoder's generators from
    one seed derivation; the result is that of an encode and a decode each
    on a fresh ``path.stream()``.  The cases include encoders with private
    draws after the shared ones (RATQ, A-RATQ) and decoders with side
    information (subsampled RMQ and RDAQ)."""
    q, _, draw = _case(name, SeedPath(92).child(name).stream())
    for i in range(INPUTS):
        x, side = draw()
        path = SeedPath(93).child(name, i)
        msg, rec = q.roundtrip(x, side, path)
        alone = q.encode(x, side, path.stream())
        assert msg == alone
        assert np.array_equal(rec, q.decode(alone, side, path.stream()))
