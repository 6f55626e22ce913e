import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conftest import random_parameters
from opqkd import (
    ConditionalInterceptResend,
    EveStrategy,
    InvalidSetError,
    MeasureSecondOnly,
    ProtocolOrderError,
    RngStream,
    SetParameters,
    SubstituteCollective,
    basis_ket,
    bob_basis,
    build_3x3,
    build_symmetric,
    check_conditions,
    conditional_b_basis,
    make_strategy,
    normalize,
    run_round,
    states_equivalent,
    states_orthogonal,
)
from opqkd.adversary import STRATEGY_NAMES, canonical_variant
from opqkd.protocol import round_columns
from opqkd.qcore import ATOL_STATE, StreamBlocks, born_probabilities, philox_block, tensor
from opqkd.stateset import bob_table


def test_conditional_basis_balanced_3x3():
    s = build_3x3()
    plus = normalize([1.0, 1.0, 0.0])
    minus = normalize([1.0, -1.0, 0.0])
    basis = conditional_b_basis(s, 1)
    for expected in (plus, minus, basis_ket(3, 2)):
        assert any(states_equivalent(v, expected) for v in basis.vectors)
    # outcome 0 only overlaps basis-state B-parts
    basis0 = conditional_b_basis(s, 0)
    for k in range(3):
        assert any(states_equivalent(v, basis_ket(3, k)) for v in basis0.vectors)


def test_conditional_basis_contains_overlapping_b_parts():
    rng = np.random.default_rng(2)
    for seed in range(5):
        s = build_3x3(random_parameters(np.random.default_rng(seed)))
        for m in range(3):
            basis = conditional_b_basis(s, m)
            for st in s:
                if abs(st.ket_a.amps[m]) < 1e-9:
                    continue
                assert any(states_equivalent(v, st.ket_b) for v in basis.vectors)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_conditional_basis_complete_on_symmetric_sets(n):
    s = build_symmetric(n)
    for m in range(n):
        basis = conditional_b_basis(s, m)
        assert len(basis) == n  # MeasurementBasis already enforced orthonormality


def test_conditional_basis_outcome_range():
    s = build_3x3()
    with pytest.raises(ValueError):
        conditional_b_basis(s, 3)
    with pytest.raises(ValueError):
        conditional_b_basis(s, -1)


def test_conditional_basis_rejects_oblique_b_parts():
    # a malformed collection whose overlapping B-parts are neither equal
    # nor orthogonal cannot define a measurement
    class FakeState:
        def __init__(self, ket_a, ket_b):
            self.ket_a, self.ket_b = ket_a, ket_b

    class FakeSet:
        n = 3

        def __iter__(self):
            yield FakeState(basis_ket(3, 0), basis_ket(3, 0))
            yield FakeState(normalize([1, 1, 0]), normalize([1, 1, 0]))

    with pytest.raises(InvalidSetError):
        conditional_b_basis(FakeSet(), 0)


def test_conditional_basis_without_overlapping_states_is_computational():
    class FakeSet:
        n = 3

        def __iter__(self):
            yield SimpleNamespace(ket_a=basis_ket(3, 0), ket_b=normalize([1, 1, 0]))
            yield SimpleNamespace(ket_a=basis_ket(3, 1), ket_b=normalize([1, -1, 0]))

    assert np.array_equal(conditional_b_basis(FakeSet(), 2).matrix, np.eye(3))


_phase = hst.floats(0.0, 2.0 * math.pi)


@hst.composite
def _unit_pair(draw):
    # |x| is 0 or 1 (degenerate) or strictly between (generic).
    px, py = cmath.exp(1j * draw(_phase)), cmath.exp(1j * draw(_phase))
    kind = draw(hst.sampled_from(("x", "y", "generic")))
    if kind == "x":
        return px, 0j
    if kind == "y":
        return 0j, py
    theta = draw(hst.floats(0.05, math.pi / 2 - 0.05))
    return math.cos(theta) * px, math.sin(theta) * py


def _pairwise_oblique(kets, i):
    return any(
        not states_equivalent(kets[i], k) and not states_orthogonal(kets[i], k)
        for j, k in enumerate(kets) if j != i
    )


def _pairwise_distinct_b_parts(s, m):
    distinct = []
    for st in s:
        if abs(st.ket_a.amps[m]) <= ATOL_STATE:
            continue
        if any(states_equivalent(st.ket_b, v) for v in distinct):
            continue
        if not all(states_orthogonal(st.ket_b, v) for v in distinct):
            return None
        distinct.append(st.ket_b)
    return distinct


@settings(max_examples=60, deadline=None)
@given(hst.lists(_unit_pair(), min_size=4, max_size=4))
def test_overlap_decisions_match_pairwise_definition(pairs):
    s = build_3x3(SetParameters(*(z for pair in pairs for z in pair)))
    report = check_conditions(s)
    kets_a = [st.ket_a for st in s]
    kets_b = [st.ket_b for st in s]
    assert report.ok_a == tuple(_pairwise_oblique(kets_a, i) for i in range(9))
    assert report.ok_b == tuple(_pairwise_oblique(kets_b, i) for i in range(9))
    for m in range(3):
        distinct = _pairwise_distinct_b_parts(s, m)
        if distinct is None:
            with pytest.raises(InvalidSetError):
                conditional_b_basis(s, m)
            continue
        vectors = conditional_b_basis(s, m).vectors
        assert all(states_equivalent(u, v) for u, v in zip(distinct, vectors))


def test_strategy_enforces_leg_order():
    s = build_3x3()
    for strategy in (
        EveStrategy(),
        ConditionalInterceptResend(s),
        MeasureSecondOnly(s),
        SubstituteCollective(s),
    ):
        rnd = strategy.begin_round(0)
        with pytest.raises(ProtocolOrderError):
            strategy.second_leg(rnd, s[0].ket_b, RngStream(0, 0))


def test_none_strategy_forwards_untouched():
    s = build_3x3()
    strategy = EveStrategy()
    rnd = strategy.begin_round(4)
    rng = RngStream(1, 4)
    assert strategy.first_leg(rnd, s[2].ket_a, rng) is s[2].ket_a
    assert strategy.second_leg(rnd, s[2].ket_b, rng) is s[2].ket_b
    rec = strategy.finish_round(rnd)
    assert rec.variant == "none"
    assert rec.a_outcome is None and rec.b_outcome is None and rec.inferred_state is None


def test_intercept_forwards_collapsed_basis_states():
    s = build_3x3()
    strategy = ConditionalInterceptResend(s)
    rng = RngStream(12, 0)
    rnd = strategy.begin_round(0)
    forwarded_a = strategy.first_leg(rnd, s[2].ket_a, rng)
    assert rnd.a_outcome in (0, 1)  # the A-part lives on |0>, |1>
    assert states_equivalent(forwarded_a, basis_ket(3, rnd.a_outcome))
    forwarded_b = strategy.second_leg(rnd, s[2].ket_b, rng)
    assert rnd.b_outcome in range(3)
    assert 0 <= rnd.inferred < 9
    rec = strategy.finish_round(rnd)
    assert rec.variant == "intercept-resend-conditional"
    assert rec.a_outcome == rnd.a_outcome


def test_intercept_is_reproducible_per_stream():
    s = build_3x3()
    outcomes = []
    for _ in range(2):
        strategy = ConditionalInterceptResend(s)
        rng = RngStream(77, 5)
        rnd = strategy.begin_round(5)
        strategy.first_leg(rnd, s[6].ket_a, rng)
        strategy.second_leg(rnd, s[6].ket_b, rng)
        outcomes.append((rnd.a_outcome, rnd.b_outcome, rnd.inferred))
    assert outcomes[0] == outcomes[1]


def test_complementary_leaves_first_leg_alone():
    s = build_3x3()
    strategy = MeasureSecondOnly(s)
    rnd = strategy.begin_round(0)
    rng = RngStream(5, 0)
    assert strategy.first_leg(rnd, s[0].ket_a, rng) is s[0].ket_a
    forwarded_b = strategy.second_leg(rnd, s[0].ket_b, rng)
    assert rnd.b_outcome in (0, 1)
    assert states_equivalent(forwarded_b, basis_ket(3, rnd.b_outcome))
    assert rnd.a_outcome is None


def test_substitute_replaces_a_and_learns_label():
    s = build_symmetric(3)
    strategy = SubstituteCollective(s)
    joint = bob_basis(s)
    for round_id in range(25):
        rng = RngStream(31, round_id)
        alice, _, rec = run_round(s, joint, strategy, round_id, rng)
        assert rec.inferred_state == alice  # collective measurement is exact
        assert rec.variant == "substitute-collective"


def test_substitute_forwards_computational_substitute():
    s = build_3x3()
    strategy = SubstituteCollective(s)
    rnd = strategy.begin_round(0)
    forwarded = strategy.first_leg(rnd, s[2].ket_a, RngStream(9, 0))
    assert any(states_equivalent(forwarded, basis_ket(3, r)) for r in range(3))
    assert rnd.stored_a is s[2].ket_a


def test_make_strategy_names():
    s = build_3x3()
    assert isinstance(make_strategy("none"), EveStrategy)
    assert isinstance(make_strategy("intercept", s), ConditionalInterceptResend)
    assert isinstance(make_strategy("intercept-resend-conditional", s), ConditionalInterceptResend)
    assert isinstance(make_strategy("complementary", s), MeasureSecondOnly)
    assert isinstance(make_strategy("substitute", s), SubstituteCollective)
    with pytest.raises(ValueError):
        make_strategy("mitm", s)
    with pytest.raises(ValueError):
        make_strategy("intercept")  # needs the set


def test_canonical_variant():
    assert canonical_variant("intercept") == "intercept-resend-conditional"
    assert canonical_variant("complementary") == "measure-second-only"
    assert canonical_variant("substitute") == "substitute-collective"
    assert canonical_variant("none") == "none"
    with pytest.raises(ValueError):
        canonical_variant("quantum-cloning")


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_kernel_bob_tables_equal_born_probabilities(n):
    # every row a session would build for Bob, for the states each kernel forwards
    s = build_symmetric(n)
    basis = bob_basis(s)
    for name in STRATEGY_NAMES:
        step, forwarded = make_strategy(name, s)._kernel(s)
        draws = StreamBlocks(philox_block(n, np.arange(3000)))
        _, _, _, sent = step(draws.integers(n * n), draws)
        table = bob_table(s, forwarded)
        table.sample(sent, draws.random())
        assert len(table.rows) == len(np.unique(sent))
        for key, (probs, _, _) in table.rows.items():
            expected = born_probabilities(tensor(*forwarded(key)), basis)
            assert probs.tobytes() == expected.tobytes()


def test_kernels_match_hooks_round_by_round():
    # columns for each strategy equal run_round on each round's own stream
    s = build_symmetric(4)
    basis = bob_basis(s)
    for name in STRATEGY_NAMES:
        (columns,) = round_columns(s, make_strategy(name, s), 12, 300)
        for round_id in range(300):
            alice, bob, rec = run_round(s, basis, make_strategy(name, s), round_id,
                                        RngStream(12, round_id))
            outcomes = [-1 if v is None else v
                        for v in (rec.a_outcome, rec.b_outcome, rec.inferred_state)]
            assert columns[:, round_id].tolist() == [alice, bob, *outcomes]
