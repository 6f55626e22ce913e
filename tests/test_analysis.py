import math

import numpy as np
import pytest

from conftest import random_parameters, survival_by_enumeration
from opqkd import (
    DominoLayout,
    InsufficientDataError,
    SetParameters,
    StateSet,
    Tile,
    build_3x3,
    build_symmetric,
    dimension_sweep,
    exact_undetected_prob,
    min_p,
    min_p_even,
    min_p_odd,
    monte_carlo_estimate,
    p3_formula,
    p_recurrence_step,
    states_from_tiles,
)
from opqkd.adversary import STRATEGIES
from opqkd.analysis import RECURRENCE_ATOL

# Anchor values for the balanced recursive sets, derived by hand from the
# tile structure before the library existed; see also the enumeration oracle.
ANCHORS = {3: 7 / 9, 4: 3 / 4, 5: 17 / 25, 6: 2 / 3, 7: 31 / 49}


@pytest.mark.parametrize("variant", ["intercept", "complementary", "substitute"])
@pytest.mark.parametrize("seed", range(6))
def test_exact_matches_enumeration_on_random_3x3(variant, seed):
    s = build_3x3(random_parameters(np.random.default_rng(seed)))
    exact = exact_undetected_prob(s, variant).value
    assert abs(exact - survival_by_enumeration(s, variant)) < 1e-12


@pytest.mark.parametrize("variant", ["intercept", "complementary", "substitute"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_matches_enumeration_on_symmetric(variant, n):
    s = build_symmetric(n)
    exact = exact_undetected_prob(s, variant).value
    assert abs(exact - survival_by_enumeration(s, variant)) < 1e-12


@pytest.mark.parametrize("n,expected", sorted(ANCHORS.items()))
def test_symmetric_anchor_values(n, expected):
    result = exact_undetected_prob(build_symmetric(n), "intercept")
    assert abs(result.value - expected) < 1e-12


def test_exact_result_contributions_mean():
    result = exact_undetected_prob(build_symmetric(4), "intercept")
    assert len(result.contributions) == 16
    assert result.value == pytest.approx(math.fsum(result.contributions) / 16, abs=1e-15)
    assert all(0.0 <= c <= 1.0 + 1e-12 for c in result.contributions)


def test_substitute_survival_is_one_over_n():
    for n in (3, 4, 5):
        value = exact_undetected_prob(build_symmetric(n), "substitute").value
        assert abs(value - 1.0 / n) < 1e-12
    rng = np.random.default_rng(50)
    value = exact_undetected_prob(build_3x3(random_parameters(rng)), "substitute").value
    assert abs(value - 1.0 / 3.0) < 1e-12


def test_none_variant_survives_always():
    assert exact_undetected_prob(build_symmetric(3), "none").value == 1.0


def test_every_strategy_has_an_exact_treatment():
    s = build_3x3()
    for cls in STRATEGIES:
        for name in (cls.name, cls.variant):
            assert exact_undetected_prob(s, name).variant == cls.variant


@pytest.mark.parametrize("seed", range(10))
def test_p3_formula_matches_oracle(seed):
    params = random_parameters(np.random.default_rng(seed + 100))
    s = build_3x3(params)
    assert abs(p3_formula(params) - exact_undetected_prob(s, "intercept").value) < 1e-12


def test_p3_formula_minimum_on_grid():
    # scan |c|^2 and |g|^2 over {0, 0.1, ..., 1}: unique minimum at (1/2, 1/2)
    best = None
    for ic in range(11):
        for ig in range(11):
            c = math.sqrt(ic / 10)
            d = math.sqrt(1 - ic / 10)
            g = math.sqrt(ig / 10)
            h = math.sqrt(1 - ig / 10)
            val = p3_formula(SetParameters(1, 0, c, d, 1, 0, g, h))
            if best is None or val < best[0]:
                best = (val, ic, ig, 1)
            elif val == best[0]:
                best = (best[0], best[1], best[2], best[3] + 1)
    value, ic, ig, hits = best
    assert (ic, ig, hits) == (5, 5, 1)
    assert abs(value - 7 / 9) < 1e-12


def test_recurrence_step_values():
    assert p_recurrence_step(7 / 9, 2, 2.0) == pytest.approx(17 / 25, abs=1e-15)
    assert p_recurrence_step(7 / 9, 2, 4.0) == pytest.approx(19 / 25, abs=1e-15)
    with pytest.raises(ValueError):
        p_recurrence_step(0.5, 1, 2.0)
    with pytest.raises(ValueError):
        p_recurrence_step(1.5, 2, 2.0)


def _split_column_variant():
    """The 5x5 recursive set with each Fourier ring column split into two
    two-cell runs; its vertical fourth-moment total is 4 instead of 2."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    tiles = []
    for t in build_symmetric(5).layout.tiles:
        if t.orientation != "col" or len(t) != 4:
            tiles.append(t)
            continue
        (a0, b0), (a1, b1), (a2, b2), (a3, b3) = t.cells
        k0, k1, k2, k3 = t.state_indices
        tiles.append(Tile("col", t.fixed_index, ((a0, b0), (a1, b1)), h, (k0, k1)))
        tiles.append(Tile("col", t.fixed_index, ((a2, b2), (a3, b3)), h, (k2, k3)))
    layout = DominoLayout(5, tuple(tiles))
    return StateSet(states_from_tiles(5, tiles), layout)


def test_recurrence_step_matches_split_column_set():
    s = _split_column_variant()
    value = exact_undetected_prob(s, "intercept").value
    assert abs(value - 19 / 25) < 1e-12
    assert abs(value - p_recurrence_step(7 / 9, 2, 4.0)) < 1e-12
    assert abs(value - survival_by_enumeration(s, "intercept")) < 1e-12


def test_min_p_odd_values():
    assert abs(min_p_odd(1) - 7 / 9) < 1e-15
    assert abs(min_p_odd(2) - 17 / 25) < 1e-15
    assert abs(min_p_odd(3) - 31 / 49) < 1e-15
    with pytest.raises(ValueError):
        min_p_odd(0)


def test_min_p_even_values():
    assert abs(min_p_even(2) - 3 / 4) < 1e-15
    assert abs(min_p_even(3) - 2 / 3) < 1e-15
    assert abs(min_p_even(4) - 5 / 8) < 1e-15
    with pytest.raises(ValueError):
        min_p_even(1)


def test_min_p_oracle_verification_path():
    # exact enumeration on the family agrees with both closed forms
    for m, n in ((2, 5), (2, 4)):
        closed = min_p_odd(m) if n % 2 else min_p_even(m)
        exact = exact_undetected_prob(build_symmetric(n), "intercept").value
        assert abs(exact - closed) <= RECURRENCE_ATOL


def test_min_p_dispatch():
    assert min_p(3) == min_p_odd(1)
    assert min_p(8) == min_p_even(4)
    with pytest.raises(ValueError):
        min_p(2)


def test_min_p_approaches_one_half_from_above():
    values = [min_p(n) for n in range(3, 202)]
    assert all(v > 0.5 for v in values)
    odd = values[0::2]
    even = values[1::2]
    assert all(a > b for a, b in zip(odd, odd[1:]))
    assert all(a > b for a, b in zip(even, even[1:]))
    assert values[-1] - 0.5 < 0.01 and values[-2] - 0.5 < 0.01


def test_monte_carlo_estimate_deterministic():
    s = build_symmetric(3)
    first = monte_carlo_estimate(s, "intercept", 500, seed=4)
    second = monte_carlo_estimate(s, "intercept", 500, seed=4)
    assert first == second
    assert first.ci_low <= first.value <= first.ci_high
    assert first.trials == 500
    shifted = monte_carlo_estimate(s, "intercept", 500, seed=5)
    assert shifted.successes != first.successes


def test_monte_carlo_estimate_converges_loosely():
    s = build_symmetric(3)
    est = monte_carlo_estimate(s, "intercept", 20000, seed=12)
    assert abs(est.value - 7 / 9) < 0.02
    est = monte_carlo_estimate(s, "none", 2000, seed=12)
    assert est.value == 1.0


def test_monte_carlo_requires_trials():
    with pytest.raises(InsufficientDataError):
        monte_carlo_estimate(build_symmetric(3), "intercept", 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_monte_carlo_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
        monte_carlo_estimate(build_symmetric(3), "intercept", 10, seed=seed)


def test_dimension_sweep_rows():
    rows = dimension_sweep(7, "intercept")
    assert [r.n for r in rows] == [3, 4, 5, 6, 7]
    for row in rows:
        assert row.exact is not None
        assert abs(row.exact - row.closed_form) < 1e-12
        assert row.mc_estimate is None
        assert row.gap_to_half == pytest.approx(row.exact - 0.5)
    odd_gaps = [r.gap_to_half for r in rows if r.n % 2]
    even_gaps = [r.gap_to_half for r in rows if not r.n % 2]
    assert all(a > b for a, b in zip(odd_gaps, odd_gaps[1:]))
    assert all(a > b for a, b in zip(even_gaps, even_gaps[1:]))


def test_dimension_sweep_budget_and_trials():
    rows = dimension_sweep(6, "intercept", trials=300, seed=2, exact_budget=4)
    by_n = {r.n: r for r in rows}
    assert by_n[3].exact is not None and by_n[3].mc_estimate is not None
    assert by_n[5].exact is None and by_n[5].mc_estimate is None
    assert by_n[5].gap_to_half == pytest.approx(by_n[5].closed_form - 0.5)
    assert by_n[3].ci_low <= by_n[3].mc_estimate <= by_n[3].ci_high


def test_dimension_sweep_substitute_closed_form():
    rows = dimension_sweep(5, "substitute")
    for row in rows:
        assert row.closed_form == pytest.approx(1.0 / row.n)
        assert abs(row.exact - row.closed_form) < 1e-12


def test_dimension_sweep_none_closed_form_is_exact():
    # The honest channel always survives, whatever the intercept figures say.
    for row in dimension_sweep(6, "none"):
        assert row.closed_form == row.exact == 1.0


def test_dimension_sweep_validation():
    with pytest.raises(ValueError):
        dimension_sweep(2)
