import math

import numpy as np
import pytest

import qtc.aoi as aoi
from qtc.aoi import (
    age_cost,
    average_age,
    average_age_erasure,
    average_age_erasure_exact,
    average_age_randomized,
    build_prefix_code,
    delay_cost,
    entropy,
    kl_divergence,
    kraft_sum,
    lp_norm_variational,
    optimize_age,
    optimize_delay,
    shannon_lengths,
    simulate_update_scheme,
    tilted_pmf,
    validate_pmf,
    variational_maximizer,
    zipf_pmf,
)
from qtc.core import SeedPath


def random_pmf(seed, m, floor=1e-6):
    p = np.random.default_rng(seed).dirichlet(np.ones(m))
    p = np.maximum(p, floor)
    return p / p.sum()


def test_shannon_lengths():
    assert np.array_equal(shannon_lengths(np.full(8, 1 / 8), "integer"), np.full(8, 3))
    assert np.array_equal(shannon_lengths([0.5, 0.25, 0.25], "integer"), [1, 2, 2])
    ell = shannon_lengths([0.6, 0.4], "integer")
    assert np.array_equal(ell, [1, 2]) and kraft_sum(ell) == 0.75
    assert kraft_sum(shannon_lengths(random_pmf(0, 20), "real")) <= 1 + 1e-9
    with pytest.raises(ValueError, match="unknown mode 'ceil'"):
        shannon_lengths([0.5, 0.5], "ceil")


def test_prefix_code_canonical():
    assert [c.to01() for c in build_prefix_code([1, 2, 2])] == ["0", "10", "11"]
    assert [c.to01() for c in build_prefix_code([2, 2, 2, 2])] == ["00", "01", "10", "11"]
    for bad in ([1, 1, 2], [0, 2], [1.5, 1.5], [1, 2.5, 2.5]):
        with pytest.raises(ValueError):
            build_prefix_code(bad)


def test_prefix_code_is_prefix_free():
    rng = np.random.default_rng(1)
    for trial in range(20):
        p = rng.dirichlet(np.ones(int(rng.integers(2, 30))))
        p = np.maximum(p, 1e-6)
        p /= p.sum()
        lengths = shannon_lengths(p, "integer")
        words = [c.to01() for c in build_prefix_code(lengths)]
        assert len(set(words)) == len(words)
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a)


def test_average_age_constant_code():
    for c in (1, 3, 7):
        assert average_age(np.full(5, c), np.full(5, 0.2)) == pytest.approx(1.5 * c - 0.5)


def test_average_age_rejects_zero_length():
    with pytest.raises(ValueError):
        average_age(np.zeros(4), np.full(4, 0.25))


def test_randomized_reduces_to_deterministic():
    p = random_pmf(2, 6)
    ell = shannon_lengths(p, "integer")
    full = average_age_randomized(ell, np.ones(6), 1.0, p)
    assert full == pytest.approx(average_age(ell, p))
    with pytest.raises(ValueError):
        average_age_randomized(ell, np.zeros(6), 1.0, p)
    with pytest.raises(ValueError, match="expected codeword length must be positive"):
        average_age_randomized([-1.0, -1.0], [1.0, 1.0], 1.0, [0.5, 0.5])


@pytest.mark.parametrize("theta,l_skip", [
    ([1.0], 2.0),  # broadcast against p
    ([math.nan, 1.0], 2.0),
    ([1.0, 0.5], math.nan),
    ([1.0, 0.5], math.inf),
    ([1.0, 0.5], -1.0),
    ([1.0, 0.5], None),
], ids=["theta-broadcast", "theta-nan", "skip-nan", "skip-inf", "skip-negative", "skip-missing"])
def test_randomized_formula_rejects_out_of_domain(theta, l_skip):
    with pytest.raises(ValueError):
        average_age_randomized([2.0, 2.0], theta, l_skip, [0.5, 0.5])


def test_randomized_example_64():
    p = np.array([1 / 4] * 3 + [1 / 244] * 61)
    theta = np.array([1.0] * 3 + [0.0] * 61)
    age = average_age_randomized(np.full(64, 2.0), theta, 2.0, p)
    assert age == pytest.approx(19 / 6)  # 3.1667
    assert 1.5 * entropy(p) - 0.5 == pytest.approx(4.724, abs=0.001)
    assert age < 1.5 * entropy(p) - 0.5


def test_erasure_formulas():
    assert average_age_erasure(3.0, 0.0) == 3.0
    assert average_age_erasure(3.0, 0.5) == pytest.approx(6.5)
    with pytest.raises(ValueError):
        average_age_erasure(3.0, 1.0)
    p = random_pmf(3, 5)
    ell = shannon_lengths(p, "integer")
    gap = average_age_erasure_exact(ell, p, 0.5) - average_age_erasure(average_age(ell, p), 0.5)
    assert gap == pytest.approx(0.5 / (2 * 0.5))
    with pytest.raises(ValueError):
        average_age_erasure_exact(ell, p, 1.0)


def test_simulator_constant_code():
    res = simulate_update_scheme(np.full(4, 3), np.full(4, 0.25), 10**5, SeedPath(0))
    assert abs(res.avg_age - 4.0) < 0.05


def test_simulator_matches_formula():
    for i in range(6):
        p = random_pmf(10 + i, int(np.random.default_rng(i).integers(3, 16)))
        ell = shannon_lengths(p, "integer")
        res = simulate_update_scheme(ell, p, 200_000, SeedPath(20 + i))
        assert abs(res.avg_age - average_age(ell, p)) <= 3 * res.se


def test_simulator_erasure_matches_exact():
    p = random_pmf(30, 8)
    ell = shannon_lengths(p, "integer")
    res = simulate_update_scheme(ell, p, 400_000, SeedPath(31), erasure=0.4)
    assert abs(res.avg_age - average_age_erasure_exact(ell, p, 0.4)) <= 3 * res.se


def test_simulator_randomized_matches_formula():
    p = np.array([1 / 4] * 3 + [1 / 244] * 61)
    theta = np.array([1.0] * 3 + [0.0] * 61)
    res = simulate_update_scheme(np.full(64, 2), p, 400_000, SeedPath(32), theta=theta, l_skip=2)
    assert abs(res.avg_age - 19 / 6) <= 3 * res.se


def test_simulator_input_validation():
    with pytest.raises(ValueError):
        simulate_update_scheme([2, 2], [0.5, 0.5], 10, SeedPath(0))
    with pytest.raises(ValueError):
        simulate_update_scheme([1, 1, 1], [0.4, 0.3, 0.3], 10**4, SeedPath(0))


# ---------------------------------------------------------------------------
# The simulator's codeword slot table


def exact_slot_pmf(lengths, p, eps, t):
    """P(Z = t) for Z = L_X + NB(L_X, 1 - eps): sum_x p_x C(t-1, L_x-1) q^L_x eps^(t-L_x)."""
    q = 1.0 - eps
    return math.fsum(
        px * math.comb(t - 1, int(ell) - 1) * q ** int(ell) * eps ** (t - int(ell))
        for px, ell in zip(p, lengths)
        if ell <= t
    )


@pytest.mark.parametrize("horizon", [60, 1000])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.4, 0.9])
def test_slot_table_is_the_exact_law(eps, horizon):
    p = random_pmf(40, 32)
    ell = shannon_lengths(p, "integer")
    draw = aoi._slot_sampler(ell, p, eps, horizon)
    assert draw.slots.size == draw.cdf.size <= horizon + 2
    assert draw.cdf[-1] == 1.0 and np.all(np.diff(draw.cdf) >= 0)
    pmf = np.diff(draw.cdf, prepend=0.0)
    beyond = draw.slots > horizon
    if eps > 0:
        assert np.array_equal(draw.slots[beyond], [horizon + 1])  # the one "more than horizon" entry
    table = np.bincount(draw.slots[~beyond].astype(int), weights=pmf[~beyond], minlength=horizon + 1)
    exact = [exact_slot_pmf(ell, p, eps, t) for t in range(1, horizon + 1)]
    np.testing.assert_allclose(table[1:], exact, rtol=0, atol=1e-15)
    # the last entry is 1 - cdf[-2], a running sum of every other entry, so
    # it carries that sum's rounding bound: entries x 2^-53
    rest = 1.0 - math.fsum(exact)
    assert pmf[beyond].sum() == pytest.approx(rest, rel=0, abs=draw.cdf.size * 2.0**-53)


@pytest.mark.parametrize("eps", [0.1, 0.4, 0.9])
def test_slot_table_draws_match_negative_binomial_draws(eps):
    """Two-sample check against the draws the table replaced: a symbol by
    `choice`, then its retransmissions by `negative_binomial`."""
    n = 10**6
    p = random_pmf(41, 32)
    ell = shannon_lengths(p, "integer")
    rng = np.random.default_rng(42)
    lengths = ell[rng.choice(ell.size, size=n, p=p)]
    old = lengths + rng.negative_binomial(lengths, 1.0 - eps)
    new = aoi._slot_sampler(ell, p, eps, 10**9)(rng, n)
    for a in (old, new):
        assert a.max() < 10**9
    mean_se = math.sqrt((old.var() + new.var()) / n)
    assert abs(old.mean() - new.mean()) <= 5 * mean_se

    def var_se2(a):  # squared SE of the sample variance
        c = a - a.mean()
        return (np.mean(c**4) - np.mean(c**2) ** 2) / n

    assert abs(old.var() - new.var()) <= 5 * math.sqrt(var_se2(old) + var_se2(new))


def test_slot_table_stays_bounded_as_erasure_nears_one():
    p = random_pmf(43, 32)
    ell = shannon_lengths(p, "integer")
    draw = aoi._slot_sampler(ell, p, 0.999999, 1000)
    assert draw.slots.size <= 1000 + 2
    assert np.diff(draw.cdf, prepend=0.0)[-1] == pytest.approx(1.0, abs=1e-9)
    res = simulate_update_scheme(ell, p, 1000, SeedPath(44), erasure=0.999999)
    assert res.cycles == 0 and math.isfinite(res.avg_age)


class GivenUniforms:
    """Stands in for a Generator whose `random(size)` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def _tiny_masses():
    """Two symbols share the mass; 62 of 1e-6 each crowd the CDF's steps."""
    p = np.full(64, 1e-6)
    p[[5, 40]] = (1.0 - 62e-6) / 2
    return np.arange(1, 65), p


# name -> (lengths, p, erasure, horizon) of a slot table
_SLOT_TABLES = {
    **{f"erasure-{eps}": (None, None, eps, 10**5) for eps in (0.0, 0.1, 0.3, 0.9)},
    "erasure-0.999": (None, None, 0.999, 10**4),  # over 2^11 entries: a capped guide
    "tiny-masses": (*_tiny_masses(), 0.0, 10**5),
    "tiny-masses-erasure-0.3": (*_tiny_masses(), 0.3, 10**5),
    # zero-mass entries repeat CDF values, 1.0 among them
    "zero-masses": (np.arange(1, 8), np.array([0.3, 0, 0, 0.2, 0, 0.5, 0]), 0.0, 10**5),
    "one-symbol": (np.array([3]), np.array([1.0]), 0.0, 10**5),
}


def edge_uniforms(cdf):
    """0, the largest double below 1, each CDF value and its neighbours, and
    every bucket edge j / 2^14 (the finest guide) and the double below it."""
    grid = np.arange(1 << 14) / (1 << 14)
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf, np.nextafter(cdf, 0.0),
                        np.nextafter(cdf, 1.0), grid, np.nextafter(grid, 0.0)])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("name", sorted(_SLOT_TABLES))
def test_slot_draw_is_the_binary_search(name):
    """The guide-table lookup gives exactly searchsorted(cdf, u, "right")."""
    ell, p, eps, horizon = _SLOT_TABLES[name]
    if p is None:
        p = random_pmf(45, 32)
        ell = shannon_lengths(p, "integer")
    draw = aoi._slot_sampler(ell, p, eps, horizon)
    assert eps < 0.999 or draw.cdf.size > 1 << 11
    for u in (edge_uniforms(draw.cdf), np.random.default_rng(46).random(10**6)):
        want = draw.slots[np.searchsorted(draw.cdf, u, side="right")]
        assert np.array_equal(draw(GivenUniforms(u), u.size), want)


def loop_erasure_law(lengths, p, eps, horizon):
    """The erasure table built one distinct length at a time, as a reference
    for the batched `_erasure_law`: its (slots, mass) must be the same floats."""
    log_q, log_e = math.log1p(-eps), math.log(eps)
    sent = p > 0
    ells, which = np.unique(lengths[sent].astype(int), return_inverse=True)
    weights = np.bincount(which, weights=p[sent])
    segments = []
    for ell, w in zip(ells.tolist(), weights.tolist()):
        k_max = horizon - ell
        if k_max < 0:
            continue
        mean, sd = ell * eps / (1 - eps), math.sqrt(ell * eps) / (1 - eps)
        n = min(k_max, int(mean + 10 * sd + aoi._LOG_TAIL / log_e)) + 1
        while True:
            k = np.arange(n, dtype=float)
            log_pmf = k * log_e
            log_pmf += ell * log_q
            log_pmf[1:] += np.log1p((ell - 1) / k[1:]).cumsum()
            r = eps * (ell + n - 1) / n
            if n > k_max or (r < 1 and log_pmf[-1] + math.log(r / (1 - r)) < aoi._LOG_TAIL):
                break
            n = min(k_max + 1, 2 * n)
        segments.append((ell, w * np.exp(log_pmf)))
    lo = min((ell for ell, _ in segments), default=horizon + 1)
    top = max((ell + seg.size for ell, seg in segments), default=lo)
    slots = np.append(np.arange(lo, top, dtype=float), horizon + 1)
    mass = np.zeros(slots.size)
    for ell, seg in segments:
        mass[ell - lo : ell - lo + seg.size] += seg
    mass[-1] = max(0.0, float(p.sum()) - float(mass.sum()))
    return slots, mass


def _erasure_tables():
    """name -> (lengths, p, erasure, horizon): the tables of
    test_slot_table_is_the_exact_law and every _SLOT_TABLES case with erasure,
    plus long codewords at a small erasure, whose term counts double past the
    first width."""
    p = random_pmf(40, 32)
    cases = {f"exact-law-{eps}-{h}": (shannon_lengths(p, "integer"), p, eps, h)
             for eps in (0.1, 0.4, 0.9) for h in (60, 1000)}
    p = random_pmf(45, 32)
    for name, (ell, q, eps, horizon) in _SLOT_TABLES.items():
        if eps > 0:
            cases[name] = (shannon_lengths(p, "integer"), p, eps, horizon) if q is None else (ell, q, eps, horizon)
    cases["tiny-masses-erasure-0.001"] = (*_tiny_masses(), 0.001, 10**5)
    cases["tiny-masses-erasure-0.01-horizon-40"] = (*_tiny_masses(), 0.01, 40)
    cases["all-beyond-horizon"] = (np.array([70, 80]), np.array([0.5, 0.5]), 0.3, 60)
    return cases


_ERASURE_TABLES = _erasure_tables()


@pytest.mark.parametrize("name", sorted(_ERASURE_TABLES))
def test_erasure_table_is_the_per_length_loop(name):
    lengths, p, eps, horizon = _ERASURE_TABLES[name]
    slots, mass = aoi._erasure_law(lengths, p, eps, horizon)
    want_slots, want_mass = loop_erasure_law(lengths, p, eps, horizon)
    assert np.array_equal(slots, want_slots)
    assert mass.tobytes() == want_mass.tobytes()
    draw = aoi._slot_sampler(lengths, p, eps, horizon)
    want_cdf = want_mass.cumsum()
    want_cdf /= want_cdf[-1]
    assert np.array_equal(draw.slots, want_slots) and draw.cdf.tobytes() == want_cdf.tobytes()


class FixedStream:
    """Stands in for a SeedPath whose stream is the given generator."""

    def __init__(self, rng):
        self.rng = rng

    def stream(self):
        return self.rng


_HALVES = dict(p=[0.5, 0.5], horizon=10**4)
_BAD_SIM_INPUTS = {
    # int() of a 1.5-slot cycle would drop half a slot per cycle
    "fractional-lengths": dict(lengths=[1.5, 1.5], **_HALVES),
    "lengths-size": dict(lengths=[1, 2, 2], **_HALVES),
    "theta-size": dict(lengths=[2, 2], theta=[1.0, 1.0, 1.0], l_skip=2, **_HALVES),
    "theta-above-one": dict(lengths=[2, 2], theta=[2.0, 0.0], l_skip=2, **_HALVES),
    "theta-negative": dict(lengths=[2, 2], theta=[-0.5, 1.0], l_skip=2, **_HALVES),
    "fractional-skip": dict(lengths=[2, 2], theta=[1.0, 0.5], l_skip=2.5, **_HALVES),
    # 1000.5 slots would end in half a slot of age
    "fractional-horizon": dict(lengths=[1, 1], p=[0.5, 0.5], horizon=1000.5),
    "erasure-one": dict(lengths=[1, 1], erasure=1.0, **_HALVES),
    "erasure-negative": dict(lengths=[1, 1], erasure=-0.1, **_HALVES),
    "never-transmits": dict(lengths=[2, 2], theta=[0.0, 0.0], l_skip=2, **_HALVES),
    # both codewords of length 1 are sent, so a skip word does not fit
    "randomized-kraft": dict(lengths=[1, 1], theta=[1.0, 0.5], l_skip=1, **_HALVES),
}


@pytest.mark.parametrize("case", sorted(_BAD_SIM_INPUTS))
def test_simulator_rejects_bad_inputs_before_drawing(case):
    rng = SeedPath(0).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        simulate_update_scheme(seed=FixedStream(rng), **_BAD_SIM_INPUTS[case])
    assert rng.bit_generator.state == state


def test_simulator_returns_python_scalars_for_a_numpy_horizon():
    res = simulate_update_scheme([1, 1], [0.5, 0.5], np.int64(10**4), SeedPath(47))
    want = simulate_update_scheme([1, 1], [0.5, 0.5], 10**4, SeedPath(47))
    assert type(res.avg_age) is float and type(res.se) is float and type(res.cycles) is int
    assert (res.avg_age, res.se, res.cycles) == (want.avg_age, want.se, want.cycles)


def test_variational_formula():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(m))
        x = rng.uniform(0.05, 4.0, size=m)
        for pe in (1.5, 2.0, 3.0):
            norm = float((p @ x**pe) ** (1 / pe))
            qstar = variational_maximizer(x, p, pe)
            assert lp_norm_variational(x, p, pe, qstar) == pytest.approx(norm, abs=1e-9)
            for _ in range(3):
                q = rng.dirichlet(np.ones(m))
                assert lp_norm_variational(x, p, pe, q) <= norm + 1e-9


def test_variational_formula_rejects_bad_q():
    for q in ([-0.2, 1.2], [0.5, 0.25, 0.25], [1.0]):
        with pytest.raises(ValueError):
            lp_norm_variational([1.0, 2.0], [0.5, 0.5], 2.0, q)
    with pytest.raises(ValueError, match="absolutely continuous"):
        lp_norm_variational([1.0, 2.0], [1.0, 0.0], 2.0, [0.5, 0.5])
    for p in (1.0, 0.5):
        with pytest.raises(ValueError, match="needs p > 1"):
            lp_norm_variational([1.0, 2.0], [0.5, 0.5], p, [0.5, 0.5])


def test_variational_rejects_values_of_another_shape():
    for values in ([2.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="values for 2 symbols"):
            lp_norm_variational(values, [0.5, 0.5], 2.0, [0.5, 0.5])
        with pytest.raises(ValueError, match="values for 2 symbols"):
            variational_maximizer(values, [0.5, 0.5], 2.0)
    with pytest.raises(ValueError, match="maximizer undefined"):
        variational_maximizer([0.0, 0.0], [0.5, 0.5], 2.0)


def test_zero_probability_symbol_gets_infinite_length():
    p = [0.5, 0.25, 0.25, 0.0]
    sol = optimize_age(p)
    lengths = sol.lengths  # RuntimeWarning is an error in this suite
    assert sol.p_star[3] == 0.0 and lengths[3] == math.inf
    on_support = optimize_age(p[:3])
    np.testing.assert_array_equal(lengths[:3], on_support.lengths)
    assert average_age(lengths, p) == average_age(on_support.lengths, p[:3])


def test_variational_example_and_constant():
    val = lp_norm_variational([1.0, 2.0], [0.5, 0.5], 2.0, [0.2, 0.8])
    assert val == pytest.approx(math.sqrt(2.5), abs=1e-12)
    c = 3.3
    assert lp_norm_variational([c, c], [0.4, 0.6], 2.0, [0.4, 0.6]) == pytest.approx(c)


def test_tilted_pmf_cases():
    p = np.array([0.5, 0.5])
    assert np.allclose(tilted_pmf(0.0, [0.3, 0.7], p), p)
    assert tilted_pmf(2.0, [0.0, 1.0], p) is None  # g < 0 at the zero-Q symbol
    assert tilted_pmf(math.sqrt(2.0), [0.0, 0.0], p) is None  # every g is 0
    u = np.full(4, 0.25)
    assert np.allclose(tilted_pmf(1.0, u, u), u)
    with pytest.raises(ValueError):
        tilted_pmf(0.5, [0.3], p)  # would broadcast


def test_optimize_age_uniform():
    for c in (2, 3):
        sol = optimize_age(np.full(2**c, 2.0**-c))
        assert sol.certified and abs(sol.value - 1.5 * c) < 1e-9
        assert np.allclose(sol.p_star, 2.0**-c, atol=1e-8)
        assert sol.z == pytest.approx(1.0, abs=1e-6)


def test_optimize_age_point_mass():
    sol = optimize_age(np.array([1.0, 0.0]))
    assert sol.degenerate and sol.value == 0.0


def test_optimize_age_zipf_certifies():
    for s in (0.0, 1.5, 4.0):
        p = zipf_pmf(s, 64)
        sol = optimize_age(p)
        assert sol.certified, f"s={s}: gap {sol.certificate_gap}"
        assert age_cost(sol.lengths, p) <= age_cost(shannon_lengths(p, "real"), p) + 1e-9


def test_optimizer_bounds_sandwich():
    for seed in range(5):
        p = random_pmf(40 + seed, int(np.random.default_rng(seed).integers(4, 32)))
        sol = optimize_age(p)
        age_star = sol.value - 0.5
        assert 1.5 * entropy(p) - 0.5 <= age_star + 1e-6
        assert age_star <= 1.5 * math.log2(len(p)) + 1.0


def test_rounding_loss():
    for seed in range(5):
        p = random_pmf(50 + seed, 12)
        sol = optimize_age(p)
        real_age = average_age(sol.lengths, p)
        int_age = average_age(np.maximum(1, np.ceil(sol.lengths - 1e-9)), p)
        assert int_age <= real_age + 2.5


def test_equal_mass_symmetry():
    # two classes of equal-probability symbols: Q* must be constant per class
    p = np.array([0.3, 0.3, 0.1, 0.1, 0.1, 0.1])
    sol = optimize_age(p)
    assert sol.certified
    assert abs(sol.q[0] - sol.q[1]) < 1e-9
    assert np.ptp(sol.q[2:]) < 1e-9
    assert abs(sol.p_star[0] - sol.p_star[1]) < 1e-9


def test_optimize_delay_contract():
    for seed in range(4):
        p = random_pmf(60 + seed, int(np.random.default_rng(seed).integers(4, 24)))
        l_th = 2 * entropy(p) + 2
        sol = optimize_delay(p, l_th)
        assert sol.certified
        assert delay_cost(sol.lengths, p, l_th) == pytest.approx(sol.value, abs=1e-6)
        assert kl_divergence(p, sol.p_star) <= math.log2(1 + 1 / math.sqrt(2)) + 1e-6
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_optimize_delay_large_threshold_recovers_p():
    p = zipf_pmf(1.0, 16)
    sol = optimize_delay(p, 1000 * entropy(p))
    assert sol.certified
    assert np.abs(sol.p_star - p).max() < 1e-3


def test_optimize_delay_infeasible():
    p = zipf_pmf(1.0, 16)
    with pytest.raises(ValueError):
        optimize_delay(p, entropy(p) + 0.5)
    assert delay_cost([1, 1], [0.5, 0.5], 0.5) == math.inf  # E[L] = 1 >= L_th


def test_zipf_pmf_and_validate():
    p = zipf_pmf(0.0, 10)
    assert np.allclose(p, 0.1)
    with pytest.raises(ValueError):
        validate_pmf([0.5, 0.4])
    with pytest.raises(ValueError):
        validate_pmf([-0.1, 1.1])
    for bad in ([math.nan, 0.5], [math.inf, 0.5], [0.5, 0.5, math.nan]):
        with pytest.raises(ValueError):
            validate_pmf(bad)


def kkt_residual(lengths, p, l_th=None):
    """Relative spread of dF/dl_i / (ln2 2^-l_i) over the support, with F the
    age cost (l_th None) or the delay cost; 0 at the constrained optimum."""
    p = np.asarray(p, dtype=float)
    ell, p = np.asarray(lengths, dtype=float)[p > 0], p[p > 0]
    el, el2 = float(p @ ell), float(p @ ell**2)
    if l_th is None:
        grad = p * (1.0 + ell / el - el2 / (2 * el * el))
    else:
        room = l_th - el
        grad = p * (1.0 + ell / room + el2 / (2 * room * room))
    ratio = grad / (math.log(2) * np.exp2(-ell))
    return float(np.ptp(ratio) / abs(ratio.mean()))


def check_newton_solve(p, objective, tol=1e-10):
    """Solve, then check the certificate, the KKT residual, Kraft equality and
    the iteration count; returns (solution, iterations)."""
    l_th = 2 * entropy(p) + 2 if objective == "delay" else None
    sol = optimize_age(p) if l_th is None else optimize_delay(p, l_th)
    pc, nc, _ = aoi._reduce_classes(p[p > 0])
    sign, z_pen = (-1.0, 0.0) if l_th is None else (1.0, l_th)
    _, iterations = aoi._newton_lengths(pc, nc, sign, z_pen)
    assert sol.certified and abs(sol.certificate_gap) <= tol
    assert kkt_residual(sol.lengths, p, l_th) <= tol
    assert abs(kraft_sum(sol.lengths) - 1.0) <= 1e-12
    if l_th is not None:
        assert float(p @ sol.lengths) < l_th
    assert iterations < aoi._NEWTON_ITERS
    return sol, iterations


def test_newton_solve_sweep():
    rng = np.random.default_rng(2020)
    pmfs = [zipf_pmf(s100 / 100, 256) for s100 in range(30, 321, 5)]
    for _ in range(100):
        m = int(rng.integers(2, 301))
        pmfs.append(rng.dirichlet(np.full(m, rng.uniform(0.1, 5.0))))
    for p in pmfs:
        for objective in ("age", "delay"):
            check_newton_solve(p, objective)


def test_newton_solve_two_level_age():
    # at the Shannon start the least-squares multiplier is negative; unclipped,
    # it leaves the KKT system singular
    n = 16
    p = np.array([1 - 1 / n] + [1 / (n * 2**n)] * (2**n))
    sol, _ = check_newton_solve(p, "age")
    assert sol.value == pytest.approx(6.3928, abs=1e-4)


def test_newton_solve_zipf_delay_ends():
    # the cost stops resolving the decrease after a few steps; without whole
    # steps from there on the solve runs to the iteration cap
    check_newton_solve(zipf_pmf(1.5, 64), "delay")


@pytest.mark.parametrize("objective", ["age", "delay"])
def test_newton_solve_single_class(objective):
    sol, iterations = check_newton_solve(np.full(8, 1 / 8), objective)
    assert iterations == 0 and np.array_equal(sol.lengths, np.full(8, 3.0))
