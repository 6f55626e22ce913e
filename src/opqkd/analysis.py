"""Exact and estimated figures of merit for the channel strategies.

The central quantity is the probability that a strategy stays invisible in
one round: Bob's measurement returns exactly the label Alice prepared. It
is computed three ways that are kept deliberately separate: full outcome
enumeration over a concrete set, closed forms for the recursive family,
and Monte Carlo over the actual protocol machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import adversary
from .adversary import canonical_variant, make_strategy
from .errors import InsufficientDataError
from .qcore import born_rows
from .stateset import SetParameters, StateSet, build_symmetric
from .protocol import round_columns, wilson_interval

# Closed forms and the recurrence must agree to this slack.
RECURRENCE_ATOL = 1e-12


@dataclass(frozen=True)
class ExactResult:
    """Exact per-round survival probability of a strategy on one set."""

    n: int
    variant: str
    value: float
    contributions: tuple[float, ...]  # per prepared state; value is their mean


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo estimate with a Wilson 95% interval."""

    n: int
    variant: str
    value: float
    ci_low: float
    ci_high: float
    trials: int
    successes: int
    seed: int


def _intercept_contributions(state_set: StateSet) -> list[float]:
    # One A outcome m at a time, the rows of born_probabilities for the states
    # of nonzero weight w = |<m|A_i>|^2, a scalar abs squared by pow, which an
    # array square may round differently. fsum takes terms in any order.
    terms: list[list[float]] = [[] for _ in state_set]
    for m, basis in enumerate(adversary._conditional_bases(state_set, range(state_set.n))):
        states = np.flatnonzero(state_set.amps_a[:, m])
        rows = born_rows(basis._conj_matrix, state_set.amps_b[states]) ** 2
        for i, z, row in zip(states.tolist(), state_set.amps_a[states, m].tolist(), rows.tolist()):
            if w := abs(z) ** 2:
                terms[i].append(w * w * math.fsum(row))
    return [math.fsum(t) for t in terms]


def exact_undetected_prob(state_set: StateSet, variant: str = "intercept") -> ExactResult:
    """Enumerate every measurement branch of a strategy and return the exact
    probability that Bob's outcome matches Alice's label.

    Alice's label is uniform, so the value is the mean of the per-state
    contributions; those are returned too.
    """
    contributions = exact_treatment(variant).contributions(state_set)
    value = math.fsum(contributions) / len(state_set)
    return ExactResult(state_set.n, canonical_variant(variant), value, tuple(contributions))


def p3_formula(params) -> float:
    """Survival probability of the conditional intercept-resend attack on the
    parameterized 3x3 set: (5 + 2(|c|^4 + |d|^4 + |g|^4 + |h|^4)) / 9."""
    fourth = math.fsum(abs(z) ** 4 for z in (params.c, params.d, params.g, params.h))
    return (5.0 + 2.0 * fourth) / 9.0


def p_recurrence_step(prev: float, m: int, vertical_fourth_moments: float) -> float:
    """One odd growth step: the (2m+1)-dimensional survival probability from
    the (2m-1)-dimensional one plus the ring columns' fourth-moment total."""
    if m < 2:
        raise ValueError("the odd recurrence starts at m = 2")
    if not 0.0 <= prev <= 1.0:
        raise ValueError("prev must be a probability")
    return _growth_step(prev, 2 * m + 1, vertical_fourth_moments)


def _growth_step(prev: float, size: int, vertical_fourth_moments: float) -> float:
    # Dimension `size` from dimension size - 2, for the odd and the even chain.
    return ((size - 2) ** 2 * prev + 2 * (size - 1) + vertical_fourth_moments) / (size * size)


def min_p_odd(m: int) -> float:
    """Minimum intercept-resend survival probability at odd dimension 2m+1:
    1/2 + (1 + 4m) / (2 (2m+1)^2), cross-checked against the recurrence."""
    if m < 1:
        raise ValueError("odd chain starts at m = 1 (dimension 3)")
    size = 2 * m + 1
    closed = 0.5 + (1 + 4 * m) / (2.0 * size * size)
    return _checked(closed, size)


def min_p_even(m: int) -> float:
    """Minimum intercept-resend survival probability at even dimension 2m:
    1/2 + 1/(2m), cross-checked against the recurrence."""
    if m < 2:
        raise ValueError("even chain starts at m = 2 (dimension 4)")
    closed = 0.5 + 1.0 / (2.0 * m)
    return _checked(closed, 2 * m)


def _checked(closed: float, n: int) -> float:
    # The closed form at dimension n, once it agrees with the recurrence from
    # 7/9 at n = 3 or 3/4 at n = 4.
    recurred = 7.0 / 9.0 if n % 2 else 3.0 / 4.0
    for size in range(6 - n % 2, n + 1, 2):
        recurred = _growth_step(recurred, size, 2.0)
    if abs(closed - recurred) > RECURRENCE_ATOL:
        raise AssertionError(
            f"closed form {closed!r} and recurrence {recurred!r} disagree at n={n}"
        )
    return closed


def min_p(n: int) -> float:
    """Minimum intercept-resend survival probability at dimension n >= 3."""
    if n < 3:
        raise ValueError("the family starts at dimension 3")
    return min_p_odd((n - 1) // 2) if n % 2 else min_p_even(n // 2)


@dataclass(frozen=True)
class ExactTreatment:
    """A strategy's survival contributions per state on any set, and closed
    forms on the family (every set if `everywhere`) and on build_3x3(params)."""

    contributions: Callable[[StateSet], list[float]]
    family: Callable[[int], float]
    everywhere: bool = False
    parameterized: Callable[[SetParameters], float] | None = None


_TREATMENTS = {
    adversary.EveStrategy: ExactTreatment(
        lambda s: [1.0] * len(s), lambda n: 1.0, everywhere=True),
    adversary.ConditionalInterceptResend: ExactTreatment(
        _intercept_contributions, min_p, parameterized=p3_formula),
    adversary.MeasureSecondOnly: ExactTreatment(
        lambda s: [math.fsum(abs(z) ** 4 for z in row) for row in s.amps_b], min_p),
    # Bob holds a uniform substitute |r> and the untouched B-part, so the
    # survival chance is the mean squared A amplitude: exactly 1/n.
    adversary.SubstituteCollective: ExactTreatment(
        lambda s: [math.fsum(abs(z) ** 2 for z in row) / s.n for row in s.amps_a],
        lambda n: 1.0 / n, everywhere=True),
}


def exact_treatment(variant: str) -> ExactTreatment:
    """The exact treatment of the strategy with this short or full name."""
    return _TREATMENTS[adversary.strategy_class(variant)]


def monte_carlo_estimate(
    state_set: StateSet, variant: str, trials: int, seed: int = 0
) -> EstimateResult:
    """Estimate the survival probability by running independent single
    rounds of the real protocol machinery, one keyed stream per trial
    (trial t is round t of a session with the same seed)."""
    if trials < 1:
        raise InsufficientDataError("need at least one trial")
    strategy = make_strategy(variant, state_set)
    successes = sum(
        int(np.count_nonzero(columns[0] == columns[1]))
        for columns in round_columns(state_set, strategy, seed, trials)
    )
    low, high = wilson_interval(successes, trials)
    return EstimateResult(
        state_set.n, strategy.variant, successes / trials, low, high, trials, successes, seed
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    variant: str
    exact: float | None
    closed_form: float
    gap_to_half: float
    mc_estimate: float | None
    ci_low: float | None
    ci_high: float | None
    trials: int
    seed: int


def dimension_sweep(
    max_n: int,
    variant: str = "intercept",
    trials: int = 0,
    seed: int = 0,
    exact_budget: int = 9,
) -> tuple[SweepRow, ...]:
    """Survival probability of a strategy on the recursive family for every
    n from 3 to max_n: exact enumeration up to `exact_budget`, closed form
    everywhere, optional Monte Carlo when trials > 0."""
    if max_n < 3:
        raise ValueError("sweep needs max_n >= 3")
    if trials < 0:
        raise ValueError(f"sweep needs trials >= 0, got {trials}")
    name = canonical_variant(variant)
    rows = []
    for n in range(3, max_n + 1):
        closed = exact_treatment(name).family(n)
        exact = mc = low = high = None
        if n <= exact_budget:
            built = build_symmetric(n)
            exact = exact_undetected_prob(built, name).value
            if trials > 0:
                est = monte_carlo_estimate(built, name, trials, seed)
                mc, low, high = est.value, est.ci_low, est.ci_high
        reference = exact if exact is not None else closed
        rows.append(
            SweepRow(n, name, exact, closed, reference - 0.5, mc, low, high, trials, seed)
        )
    return tuple(rows)
