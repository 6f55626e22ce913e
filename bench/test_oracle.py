"""Tests of the benchmark's oracle, kept out of the package's test run.

    python3 -m pytest -q bench/test_oracle.py
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from workloads import ring_tiling  # noqa: E402


@pytest.mark.parametrize("n, value", [
    (3, Fraction(7, 9)), (4, Fraction(3, 4)), (5, Fraction(17, 25)),
    (6, Fraction(2, 3)), (7, Fraction(31, 49)),
])
def test_intercept_survival_closed_forms(n, value):
    assert oracle.intercept_survival(n) == value


def test_substitute_survival_is_one_over_n():
    assert oracle.substitute_survival(9) == Fraction(1, 9)


def test_complementary_survival_balanced_pairs():
    h = 1 / math.sqrt(2)
    amps_b = np.array([[h, h, 0.0], [1.0, 0.0, 0.0]])
    assert oracle.complementary_survival(amps_b) == pytest.approx(0.75)


def test_key_packed_by_hand():
    # Labels 1, 2, 0 in base 9 spell 1*81 + 2*9 + 0 = 99; floor(3 log2 9) = 9.
    assert oracle.key_bits([1, 2, 0], 9) == "001100011"
    # Base 16 packs four bits per label with no truncation.
    assert oracle.key_bits([15, 0, 10], 16) == "111100001010"
    assert oracle.key_bits([], 9) == ""


def test_key_bits_split_conversion_matches_direct_loop():
    rng = np.random.default_rng(3)
    labels = [int(x) for x in rng.integers(0, 9, size=1000)]
    value = 0
    for label in labels:
        value = value * 9 + label
    bits = oracle.key_bits(labels, 9)
    assert len(bits) == math.floor(1000 * math.log2(9))
    assert int(bits, 2) == value % (1 << len(bits))


def test_checked_count_uses_exact_fraction():
    assert oracle.checked_count("0.1", 50_003) == 5_001
    assert oracle.checked_count("0.1", 50_000) == 5_000


def test_binomial_bound_accepts_mean_and_rejects_far_counts():
    assert oracle.binomial_ok(778, 1000, 7 / 9)
    assert not oracle.binomial_ok(500, 1000, 7 / 9)


def test_joint_gram_of_product_bases():
    e = np.eye(3)
    amps_a = np.repeat(e, 3, axis=0)
    amps_b = np.tile(e, (3, 1))
    assert oracle.joint_gram_error(amps_a, amps_b) == 0.0
    h = 1 / math.sqrt(2)
    amps_b[1] = [h, h, 0.0]
    assert oracle.joint_gram_error(amps_a, amps_b) > oracle.GRAM_ATOL


def test_oblique_partners():
    h = 1 / math.sqrt(2)
    e = np.eye(3)
    assert oracle.oblique_partners(np.array([e[0], [h, h, 0], e[1]])) == (True, True, True)
    assert oracle.oblique_partners(np.array([e[0], e[0], e[1]])) == (False, False, False)


def test_ring_tilings_have_expected_length_multisets():
    for n in range(6, 10):
        for shorten in (False, True):
            specs = ring_tiling(n, shorten_top=shorten)
            cells = [c for _, _, cs in specs for c in cs]
            assert sorted(cells) == [(a, b) for a in range(n) for b in range(n)]
            rows = [len(cs) for o, _, cs in specs if o == "row"]
            cols = [len(cs) for o, _, cs in specs if o == "col"]
            assert len(rows) == len(cols)
            assert oracle.length_multisets_differ(rows, cols) == shorten
