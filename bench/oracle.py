"""Expected values computed apart from the package under test.

Nothing here imports `opqkd`: every check works from plain amplitudes,
transcripts and exact integers, so a fault in the program cannot hide in
the reference it is compared with.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

GRAM_ATOL = 1e-10
# Same decision tolerance the usability conditions are defined with.
STATE_ATOL = 1e-9
# A correct estimator lands this many standard deviations off its mean
# with probability below 1e-8 per check.
Z_BOUND = 6.0
# Rows per block in the n^2 x n^2 checks below, so that a check holds a few
# blocks rather than several whole n^2 x n^2 temporaries (6 MB each at n = 25).
BLOCK_ROWS = 64


def _row_blocks(rows: int):
    for start in range(0, rows, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, rows))


def intercept_survival(n: int) -> Fraction:
    """Survival of the conditional intercept-resend attack on the recursive
    family: 1/2 + (1+4m)/(2(2m+1)^2) at n = 2m+1, 1/2 + 1/(2m) at n = 2m."""
    if n < 3:
        raise ValueError("the recursive family starts at n = 3")
    m, odd = divmod(n, 2)
    if odd:
        return Fraction(1, 2) + Fraction(1 + 4 * m, 2 * (2 * m + 1) ** 2)
    return Fraction(1, 2) + Fraction(1, 2 * m)


def complementary_survival(amps_b: np.ndarray) -> float:
    """Mean over states of sum_l |B_i[l]|^4, from the B amplitudes (rows)."""
    return float(np.mean(np.sum(np.abs(amps_b) ** 4, axis=1)))


def substitute_survival(n: int) -> Fraction:
    return Fraction(1, n)


def binomial_ok(successes: int, trials: int, p: float) -> bool:
    """True when a count of `trials` Bernoulli(p) draws is within Z_BOUND
    standard deviations of its mean (plus one count for discreteness)."""
    sd = math.sqrt(trials * p * (1.0 - p))
    return abs(successes - trials * p) <= Z_BOUND * sd + 1.0


def joint_gram_error(amps_a: np.ndarray, amps_b: np.ndarray) -> float:
    """max |G - I| for the n^2 product states, with G formed as the
    elementwise product of the two factor Gram matrices."""
    worst = 0.0
    for rows in _row_blocks(len(amps_a)):
        gram = (amps_a[rows].conj() @ amps_a.T) * (amps_b[rows].conj() @ amps_b.T)
        gram[np.arange(gram.shape[0]), np.arange(rows.start, rows.stop)] -= 1.0
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst


def joint_rows_error(matrix: np.ndarray, amps_a: np.ndarray, amps_b: np.ndarray) -> float:
    """max |row_i - A_i (x) B_i| over a joint basis matrix."""
    matrix = np.asarray(matrix)
    worst = 0.0
    for rows in _row_blocks(len(amps_a)):
        joint = (amps_a[rows, :, None] * amps_b[rows, None, :]).reshape(rows.stop - rows.start, -1)
        worst = max(worst, float(np.max(np.abs(matrix[rows] - joint))))
    return worst


def oblique_partners(amps: np.ndarray) -> tuple[bool, ...]:
    """ok[i]: some other row is neither equal up to phase nor orthogonal to
    row i, decided on |<x_i|x_j>|."""
    found = []
    for rows in _row_blocks(len(amps)):
        overlap = np.abs(amps[rows].conj() @ amps.T)
        oblique = (np.abs(overlap - 1.0) > STATE_ATOL) & (overlap > STATE_ATOL)
        oblique[np.arange(oblique.shape[0]), np.arange(rows.start, rows.stop)] = False
        found += oblique.any(axis=1).tolist()
    return tuple(found)


def length_multisets_differ(row_lengths, col_lengths) -> bool:
    """A quarter turn maps each row tile onto a column tile of equal length,
    even after relabelling the axes, so different length multisets rule
    four-fold symmetry out."""
    return sorted(row_lengths) != sorted(col_lengths)


def _base_value(digits: list[int], base: int) -> int:
    # Split in halves so the conversion stays near-linear in the digit count.
    if len(digits) <= 64:
        value = 0
        for d in digits:
            value = value * base + d
        return value
    half = len(digits) // 2
    return _base_value(digits[:half], base) * base ** (len(digits) - half) + _base_value(
        digits[half:], base
    )


def key_bits(labels: list[int], n_squared: int) -> str:
    """Low floor(k log2 n^2) bits of the base-n^2 integer the labels spell,
    most significant first; the bit count comes from exact integers."""
    if not labels:
        return ""
    bit_count = (n_squared ** len(labels)).bit_length() - 1
    if bit_count == 0:
        return ""
    value = _base_value(labels, n_squared)
    return format(value & ((1 << bit_count) - 1), f"0{bit_count}b")


def checked_count(fraction: str, rounds: int) -> int:
    """ceil(f R) with f taken exactly from its decimal text."""
    return math.ceil(Fraction(fraction) * rounds)
