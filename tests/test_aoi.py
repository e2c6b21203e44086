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


@pytest.mark.parametrize("theta,l_skip", [
    ([1.0], 2.0),  # broadcast against p
    ([math.nan, 1.0], 2.0),
    ([1.0, 0.5], math.nan),
    ([1.0, 0.5], math.inf),
    ([1.0, 0.5], -1.0),
], ids=["theta-broadcast", "theta-nan", "skip-nan", "skip-inf", "skip-negative"])
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
}


@pytest.mark.parametrize("case", sorted(_BAD_SIM_INPUTS))
def test_simulator_rejects_bad_inputs_before_drawing(case):
    rng = SeedPath(0).stream()
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        simulate_update_scheme(seed=FixedStream(rng), **_BAD_SIM_INPUTS[case])
    assert rng.bit_generator.state == state


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


def test_variational_rejects_values_of_another_shape():
    for values in ([2.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="values for 2 symbols"):
            lp_norm_variational(values, [0.5, 0.5], 2.0, [0.5, 0.5])
        with pytest.raises(ValueError, match="values for 2 symbols"):
            variational_maximizer(values, [0.5, 0.5], 2.0)


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


def test_optimize_delay_large_threshold_recovers_p():
    p = zipf_pmf(1.0, 16)
    sol = optimize_delay(p, 1000 * entropy(p))
    assert sol.certified
    assert np.abs(sol.p_star - p).max() < 1e-3


def test_optimize_delay_infeasible():
    p = zipf_pmf(1.0, 16)
    with pytest.raises(ValueError):
        optimize_delay(p, entropy(p) + 0.5)


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
