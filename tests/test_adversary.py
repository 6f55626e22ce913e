import cmath
import dataclasses
import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conftest import (
    assert_bytes_under_blas_threads,
    dense_inferred,
    dense_posterior,
    intercept_contributions_by_scalar_rows,
    random_parameters,
    random_tiling,
    set_from_cellsets,
    support_group_runs,
)
from opqkd import (
    ConditionalInterceptResend,
    DominoLayout,
    EveStrategy,
    InvalidSetError,
    MeasureSecondOnly,
    ProductState,
    ProtocolOrderError,
    RngStream,
    SetParameters,
    StateSet,
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
    states_from_tiles,
    states_orthogonal,
)
from opqkd import adversary, qcore
from opqkd.adversary import STRATEGY_NAMES, _conditional_bases, canonical_variant
from opqkd.analysis import exact_undetected_prob
from opqkd.protocol import round_columns
from opqkd.qcore import (
    ATOL_STATE,
    Ket,
    MeasurementBasis,
    StreamBlocks,
    _canonical_rows,
    _candidate_rows,
    _label_runs,
    _cumulative,
    _outcome,
    born_probabilities,
    born_rows,
    born_sample,
    canonical_phase,
    guard_band,
    joint_amps,
    joint_rows,
    philox_block,
    product_sample,
    projective_measure,
    tensor,
)
from opqkd import stateset


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
    fake = _stacked_parts([(basis_ket(3, 0), basis_ket(3, 0)),
                           (normalize([1, 1, 0]), normalize([1, 1, 0]))])
    with pytest.raises(InvalidSetError):
        conditional_b_basis(fake, 0)


def _stacked_parts(pairs):
    # a stand-in for a set of 3 x 3 states: only the stacked parts it holds
    return SimpleNamespace(n=3, amps_a=np.stack([a.amps for a, _ in pairs]),
                           amps_b=np.stack([b.amps for _, b in pairs]))


def test_conditional_basis_with_fewer_than_n_parts_is_rejected():
    # no valid set leaves fewer than n distinct B-parts for an outcome, so
    # such a collection is refused rather than completed to a basis
    fake = _stacked_parts([(basis_ket(3, 0), normalize([1, 1, 0])),
                           (basis_ket(3, 1), normalize([1, -1, 0]))])
    for outcome, parts in ((2, 0), (0, 1)):
        with pytest.raises(InvalidSetError, match=f"leaves {parts} distinct"):
            conditional_b_basis(fake, outcome)


def _random_3x3(seed):
    return build_3x3(random_parameters(np.random.default_rng(seed)))


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


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_conditional_basis_has_exactly_n_distinct_parts(data):
    kind = data.draw(hst.sampled_from(("random", "degenerate", "family")))
    if kind == "random":
        s = _random_3x3(data.draw(hst.integers(0, 2**32 - 1)))
    elif kind == "degenerate":
        pairs = data.draw(hst.lists(_unit_pair(), min_size=4, max_size=4))
        s = build_3x3(SetParameters(*(z for pair in pairs for z in pair)))
    else:
        s = build_symmetric(data.draw(hst.integers(3, 15)))
    for m in range(s.n):
        distinct = _pairwise_distinct_b_parts(s, m)
        if distinct is None:
            with pytest.raises(InvalidSetError):
                conditional_b_basis(s, m)
            continue
        assert len(distinct) == s.n
        assert len(conditional_b_basis(s, m)) == s.n


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
    prepared = s[2]  # the set forms a new view on each access
    assert strategy.first_leg(rnd, prepared.ket_a, rng) is prepared.ket_a
    assert strategy.second_leg(rnd, prepared.ket_b, rng) is prepared.ket_b
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
    prepared = s[0]
    assert strategy.first_leg(rnd, prepared.ket_a, rng) is prepared.ket_a
    forwarded_b = strategy.second_leg(rnd, prepared.ket_b, rng)
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
    ket_a = s[2].ket_a
    forwarded = strategy.first_leg(rnd, ket_a, RngStream(9, 0))
    assert any(states_equivalent(forwarded, basis_ket(3, r)) for r in range(3))
    assert rnd.stored_a is ket_a


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


def _joint_outcome(basis, ket_a, ket_b, u):
    # projective_measure in the joint basis, with u as its uniform draw
    rng = SimpleNamespace(random=lambda: float(u))
    return projective_measure(tensor(Ket(ket_a), Ket(ket_b)), basis, rng)[0]


def _bob(parts, kets, i, k, u):
    # Bob's measurement of kets[0][i] (x) kets[1][k] in the basis of parts
    return product_sample(parts, kets, np.asarray(i), np.asarray(k), np.asarray(u, dtype=float))


def _dense_rows(parts, kets, i, k):
    # The cumsums product_sample forms for the pairs (i[r], k[r]), laid out
    # over every label as a dense row: a label that is no candidate holds
    # the entry of the last candidate before it, or 0.0.
    dense = np.zeros((len(i), len(parts[0])))
    for lo, labels, counts, cumulative in _candidate_rows(parts, kets, np.asarray(i), np.asarray(k)):
        for q, count in enumerate(counts):
            before = np.searchsorted(labels[q, :count], np.arange(dense.shape[1]), side="right") - 1
            dense[lo + q] = np.where(before >= 0, cumulative[q, np.maximum(before, 0)], 0.0)
    return dense


def _assert_runs_match_support_groups(parts):
    # the run scan of neighbouring labels finds the runs of support groups
    run, meet = _label_runs(parts)
    ref_run, ref_meet = support_group_runs(parts)
    assert run.dtype == ref_run.dtype and np.array_equal(run, ref_run)
    for got, ref in zip(meet, ref_meet, strict=True):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_label_runs_match_support_groups():
    # the family, random 3 x 3 sets, and random tilings with basis-ket and
    # discrete-Fourier tiles
    sets = [build_symmetric(n) for n in range(3, 26)]
    sets += [_random_3x3(seed) for seed in range(50)]
    rng = np.random.default_rng(23)
    for _ in range(40):
        layout = random_tiling(rng, int(rng.integers(3, 9)), "random")
        sets.append(StateSet(states_from_tiles(layout.n, layout.tiles), layout))
        sets.append(set_from_cellsets(layout.n, [t.cells for t in layout.tiles]))
    for s in sets:
        _assert_runs_match_support_groups((s.amps_a, s.amps_b))


def test_product_sample_with_no_lanes():
    s = build_symmetric(3)
    none = np.zeros(0, dtype=np.int64)
    outcomes, flagged = _bob((s.amps_a, s.amps_b), (s.amps_a, s.amps_b), none, none, [])
    assert outcomes.dtype == np.int64 and outcomes.shape == (0,) and flagged == 0


def _assert_joint_rows_match_the_whole_product(block_floats):
    # blocks of two rows up to all m rows give the bytes of born_rows on the
    # whole conjugated joint matrix, for stacks of the set's own kets and of
    # random product kets; block_floats(f) sets qcore._BLOCK_FLOATS to f
    sets = [build_symmetric(n) for n in range(3, 26)] + [_random_3x3(seed) for seed in range(30)]
    rng = np.random.default_rng(29)
    for s in sets:
        m, parts, whole = len(s), (s.amps_a, s.amps_b), bob_basis(s)._conj_matrix
        a, b = rng.standard_normal((2, 6, s.n, 2)) @ (1.0, 1.0j)
        a, b = a / np.linalg.norm(a, axis=1)[:, None], b / np.linalg.norm(b, axis=1)[:, None]
        for rows in sorted({2, 3, m // 3, m // 2, m - 1, m}):
            block_floats(rows * m)
            for amps in (s.joint_matrix[::max(1, m // 6)], joint_amps(a, b)):
                assert joint_rows(parts, amps).tobytes() == born_rows(whole, amps).tobytes(), (s.n, rows)
        assert joint_rows(parts, np.zeros((0, m), dtype=complex)).shape == (0, m)


def test_joint_rows_match_the_whole_product(monkeypatch):
    _assert_joint_rows_match_the_whole_product(
        lambda floats: monkeypatch.setattr(qcore, "_BLOCK_FLOATS", floats))


def check_joint_rows_bytes():
    # the check above in a process of its own, for assert_bytes_under_blas_threads
    saved = qcore._BLOCK_FLOATS
    try:
        _assert_joint_rows_match_the_whole_product(lambda floats: setattr(qcore, "_BLOCK_FLOATS", floats))
    finally:
        qcore._BLOCK_FLOATS = saved


def test_joint_rows_match_the_whole_product_with_one_and_two_blas_threads():
    assert_bytes_under_blas_threads(check_joint_rows_bytes)


def test_product_sample_with_no_flagged_lanes_forms_no_joint_rows(monkeypatch):
    s = build_symmetric(5)
    formed = []
    monkeypatch.setattr(qcore, "joint_rows", lambda *args: formed.append(args))
    labels = np.arange(len(s)).repeat(40)
    u = StreamBlocks(philox_block(5, np.arange(len(labels)))).random()
    outcomes, flagged = _bob((s.amps_a, s.amps_b), (s.amps_a, s.amps_b), labels, labels, u)
    assert flagged == 0 and not formed
    assert outcomes.tolist() == labels.tolist()


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_kernel_bob_tables_equal_born_probabilities(n):
    # every lane a session would measure for Bob takes the outcome of
    # projective_measure in the joint basis; every factorised cumsum and
    # total lies within the guard band of the joint ones, and a label that
    # is no candidate has a joint probability of exactly 0
    s = build_symmetric(n)
    basis, parts = bob_basis(s), (s.amps_a, s.amps_b)
    for name in STRATEGY_NAMES:
        step, kets = make_strategy(name, s)._kernel(s)
        draws = StreamBlocks(philox_block(n, np.arange(3000)))
        _, _, _, (i, k) = step(draws.integers(n * n), draws)
        u = draws.random()
        outcomes, _ = _bob(parts, kets, i, k, u)
        for lane in range(len(u)):
            assert outcomes[lane] == _joint_outcome(basis, kets[0][i[lane]], kets[1][k[lane]], u[lane])
        pairs = np.unique(np.stack([i, k]), axis=1)
        cumulative = _dense_rows(parts, kets, *pairs)
        for row, (a, b) in enumerate(pairs.T):
            probs = born_probabilities(tensor(Ket(kets[0][a]), Ket(kets[1][b])), basis)
            assert np.all(np.abs(cumulative[row] - probs.cumsum()) <= guard_band(n))
            assert abs(cumulative[row, -1] - probs.sum()) <= guard_band(n)
        candidate = np.zeros(cumulative.shape, dtype=bool)
        for lo, labels, counts, _ in _candidate_rows(parts, kets, *pairs):
            for q, count in enumerate(counts):
                candidate[lo + q, labels[q, :count]] = True
        for row, (a, b) in enumerate(pairs.T):
            probs = born_probabilities(tensor(Ket(kets[0][a]), Ket(kets[1][b])), basis)
            assert np.all(probs[~candidate[row]] == 0.0)


def _on_boundary(total, entry):
    # a draw u whose target u * total is the cumsum entry, or next to it
    u = entry / total
    for _ in range(4):
        if u * total == entry:
            break
        u = np.nextafter(u, 0.0 if u * total > entry else 1.0)
    return u


@pytest.mark.parametrize("n", [3, 6, 25])
def test_target_on_a_cumsum_entry_is_flagged(n):
    # substitute rows |k> (x) B_o spread over several outcomes: a target on
    # each interior cumsum entry is too close to call, and the lane takes
    # the joint row's outcome
    s = build_symmetric(n)
    basis, parts = bob_basis(s), (s.amps_a, s.amps_b)
    _, kets = make_strategy("substitute", s)._kernel(s)
    i, k = np.arange(n), (np.arange(n) * 7 + 1) % (n * n)
    cumulative = _dense_rows(parts, kets, i, k)
    lanes = [(a, b, _on_boundary(cumulative[r, -1], entry))
             for r, (a, b) in enumerate(zip(i, k))
             for entry in np.unique(cumulative[r])
             if 0.0 < entry < cumulative[r, -1] * (1 - 1e-9)]
    assert lanes
    li, lk, lu = (np.array(column) for column in zip(*lanes))
    outcomes, flagged = _bob(parts, kets, li, lk, lu)
    assert flagged == len(lanes)
    for lane, (a, b, u) in enumerate(lanes):
        assert outcomes[lane] == _joint_outcome(basis, kets[0][a], kets[1][b], u)


def test_guard_band_grows_as_n4():
    # 20 n^4 unit roundoffs plus lower-order terms, and small enough that
    # almost no lane is flagged at the largest dimension
    ratios = [guard_band(n) / (n**4 * 2.0**-53) for n in (2, 3, 9, 25, 64)]
    assert ratios == sorted(ratios, reverse=True)
    assert 20 < ratios[-1] and ratios[0] < 65
    assert guard_band(64) < 1e-7


def _leaked_off_tiles(amps, eps):
    # each row given eps at one entry off its support, chosen by its label,
    # and normalised again: a valid set whose supports are all wider
    out = amps.copy()
    for i, row in enumerate(out):
        off = np.flatnonzero(row == 0)
        if len(off):
            row[off[(7 * i) % len(off)]] = eps
            row /= np.linalg.norm(row)
    return out


@hst.composite
def _measured_sets(draw):
    # (parts, kets, basis): the family or a random 3 x 3 set with the kets a
    # strategy forwards; the family with every part leaked off its tile; or
    # the family turned by a random unitary on each particle, where every
    # label is a candidate of every pair, measuring its own parts or basis kets
    kind = draw(hst.sampled_from(("random", "family", "leaked", "rotated")))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    s = _random_3x3(int(rng.integers(2**32))) if kind == "random" else build_symmetric(draw(hst.integers(3, 7)))
    amps = (s.amps_a, s.amps_b)
    if kind == "leaked":
        amps = tuple(_leaked_off_tiles(x, 1e-13) for x in amps)
        s = StateSet(tuple(ProductState(j, Ket(a), Ket(b)) for j, (a, b) in enumerate(zip(*amps))), s.layout)
    if kind == "rotated":
        amps = tuple(x @ np.linalg.qr(rng.standard_normal((s.n, s.n)) + 1j * rng.standard_normal((s.n, s.n)))[0]
                     for x in amps)
        kets = draw(hst.sampled_from((amps, (np.eye(s.n, dtype=complex),) * 2)))
        joint = (amps[0][:, :, None] * amps[1][:, None, :]).reshape(len(s), -1)
        return amps, kets, MeasurementBasis._checked(joint)
    try:
        _, kets = make_strategy(draw(hst.sampled_from(STRATEGY_NAMES)), s)._kernel(s)
    except InvalidSetError:
        kets = amps  # the conditional attack rejects sets whose B-parts are oblique
    return amps, kets, bob_basis(s)


# Where a lane's target lies in its dense row: a uniform draw; on a cumsum
# entry; on label 0's entry; at 0 (0.0 below it on a row whose first
# candidate is not label 0); on the entry before the last label; and at the
# total itself, above every entry before it.
_TARGETS = ("draw", "entry", "label 0", "zero", "last", "total")


@settings(max_examples=60, deadline=None)
@given(_measured_sets(), hst.data())
def test_factorised_sampling_matches_joint_property(case, data):
    parts, kets, basis = case
    _assert_runs_match_support_groups(parts)
    band = guard_band(parts[0].shape[1])
    lanes = data.draw(hst.lists(hst.tuples(
        hst.integers(0, len(kets[0]) - 1), hst.integers(0, len(kets[1]) - 1),
        hst.floats(0.0, 1.0, exclude_max=True), hst.sampled_from(_TARGETS)), min_size=1, max_size=30))
    i, k = (np.array([lane[c] for lane in lanes]) for c in (0, 1))
    dense = _dense_rows(parts, kets, i, k)
    total, m = dense[:, -1], dense.shape[1]
    entry = {"entry": lambda r, draw: dense[r, int(draw * m)], "label 0": lambda r, _: dense[r, 0],
             "last": lambda r, _: dense[r, m - 2]}
    u = np.array([
        _on_boundary(total[r], entry[target](r, draw)) if target in entry
        else {"draw": draw, "zero": 0.0, "total": 1.0}[target]
        for r, (_, _, draw, target) in enumerate(lanes)])
    outcomes, flagged = _bob(parts, kets, i, k, u)
    assert flagged == sum(_bob(parts, kets, i[r:r + 1], k[r:r + 1], u[r:r + 1])[1] for r in range(len(u)))
    for r in range(len(lanes)):
        assert outcomes[r] == _joint_outcome(basis, kets[0][i[r]], kets[1][k[r]], u[r])
        # the flag the dense row gives, from the entries beside its outcome
        target = u[r] * total[r]
        o = int(_outcome(dense[r], target))
        below = dense[r, o - 1] if o > 0 else -np.inf
        above = dense[r, o] if o < m - 1 else np.inf
        expected = target - below <= band or above - target <= band
        assert _bob(parts, kets, i[r:r + 1], k[r:r + 1], u[r:r + 1])[1] == expected
        if not expected:
            assert outcomes[r] == o


def _scalar_distinct_parts(state_set, m):
    # the B-parts conditional_b_basis collects, ket by ket
    parts = [st.ket_b for st in state_set if abs(st.ket_a.amps[m]) > ATOL_STATE]
    amps = np.array([p.amps for p in parts]).reshape(len(parts), state_set.n)
    equivalent = np.abs(np.abs(amps.conj() @ amps.T) - 1.0) <= ATOL_STATE
    first = ~np.tril(equivalent, -1).any(axis=1)
    return [canonical_phase(p) for p, keep in zip(parts, first) if keep]


def _collapse(ket, basis, u=0.5):
    # projective_measure with u as its uniform draw
    return projective_measure(ket, basis, SimpleNamespace(random=lambda: float(u)))


def test_conditional_basis_kets_equal_scalar_canonical_phase():
    # each basis vector, its collapse and the row a kernel forwards for it
    # have the bytes of the scalar canonical_phase
    sets = [build_symmetric(n) for n in range(3, 26)]
    sets += [_random_3x3(seed) for seed in range(20)]
    for s in sets:
        n = s.n
        second_only = MeasureSecondOnly(s)
        _, (_, comp_rows) = second_only._kernel(s)
        comp = second_only._comp
        for k, v in enumerate(comp.vectors):
            assert _collapse(v, comp)[1].amps.tobytes() == comp_rows[k].tobytes()
        try:
            eve = ConditionalInterceptResend(s)
        except InvalidSetError:
            continue
        _, (a_rows, b_rows) = eve._kernel(s)
        assert a_rows.tobytes() == comp_rows.tobytes()
        for m in range(n):
            basis = conditional_b_basis(s, m)
            for v, p in zip(basis.vectors, _scalar_distinct_parts(s, m), strict=True):
                assert v.amps.tobytes() == p.amps.tobytes()
            for k, v in enumerate(basis.vectors):
                index, collapsed = _collapse(v, basis)
                assert index == k
                assert collapsed.amps.tobytes() == canonical_phase(v).amps.tobytes()
                assert collapsed.amps.tobytes() == b_rows[m * n + k].tobytes()


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_attacker_born_tables_equal_projective_measure_property(data):
    # the intercept's two tables and the complementary table, driven through
    # their kernels, take projective_measure's outcome lane by lane, also for
    # draws whose target lies exactly on a cumsum entry
    if data.draw(hst.booleans()):
        s = _random_3x3(data.draw(hst.integers(0, 2**32 - 1)))
    else:
        s = build_symmetric(data.draw(hst.integers(3, 7)))
    name = data.draw(hst.sampled_from(("intercept", "complementary")))
    try:
        eve = make_strategy(name, s)
    except InvalidSetError:
        return
    step, _ = eve._kernel(s)
    lanes = data.draw(hst.lists(hst.tuples(
        hst.integers(0, len(s) - 1), *[hst.floats(0.0, 1.0, exclude_max=True)] * 2,
        *[hst.booleans()] * 2), min_size=1, max_size=30))

    def draw_for(probs, draw, boundary):
        # the draw itself, or one whose target is the cumsum entry it picks
        cumulative = probs.cumsum()
        if not boundary:
            return draw
        u = _on_boundary(probs.sum(), cumulative[int(draw * len(cumulative))])
        return min(u, np.nextafter(1.0, 0.0))

    expected, draws = [], ([], [])
    for label, draw_a, draw_b, boundary_a, boundary_b in lanes:
        ket_a, ket_b = s[label].ket_a, s[label].ket_b
        if name == "intercept":
            u = draw_for(born_probabilities(ket_a, eve._comp), draw_a, boundary_a)
            a = _collapse(ket_a, eve._comp, u)[0]
            draws[0].append(u)
            basis = eve._b_bases[a]
        else:
            a, basis = -1, eve._comp
        u = draw_for(born_probabilities(ket_b, basis), draw_b, boundary_b)
        draws[1].append(u)
        expected.append((a, _collapse(ket_b, basis, u)[0]))
    columns = iter(np.array(d) for d in draws if d)
    a, b, _, _ = step(np.array([lane[0] for lane in lanes]),
                      SimpleNamespace(random=lambda: next(columns)))
    a = np.full(len(lanes), -1) if a is None else a
    assert list(zip(a.tolist(), b.tolist())) == expected


def _assert_inferred_is_the_dense_argmax(s) -> bool:
    # the strategy's table equals the first argmax of the whole posterior,
    # byte for byte; False when the set admits no conditional bases
    try:
        eve = ConditionalInterceptResend(s)
    except InvalidSetError:
        return False
    whole = dense_inferred([b.matrix for b in eve._b_bases], s.amps_a, s.amps_b)
    assert eve._inferred.tobytes() == whole.tobytes(), s.n
    return True


def test_inferred_table_is_the_argmax_of_the_whole_posterior():
    for n in [*range(3, 42), 64]:
        assert _assert_inferred_is_the_dense_argmax(build_symmetric(n))
    built = sum(_assert_inferred_is_the_dense_argmax(_random_3x3(seed)) for seed in range(20))
    assert built > 10


def _tiling_sets(layout):
    # the tiling with unit amplitudes, and with discrete-Fourier amplitudes
    return (StateSet(states_from_tiles(layout.n, layout.tiles), layout),
            set_from_cellsets(layout.n, [t.cells for t in layout.tiles]))


@pytest.mark.parametrize("kind", ["random", "quarter", "transpose", "singletons", "three-cycle"])
def test_inferred_table_is_the_dense_argmax_on_every_tiling_kind(kind):
    rng = np.random.default_rng(31)
    built = 0
    for _ in range(12):
        for s in _tiling_sets(random_tiling(rng, int(rng.integers(3, 12)), kind)):
            built += _assert_inferred_is_the_dense_argmax(s)
    assert built >= 12


@settings(max_examples=40, deadline=None)
@given(hst.integers(0, 2**32 - 1), hst.integers(3, 10), hst.booleans())
def test_inferred_table_is_the_dense_argmax_on_random_tilings_property(seed, n, unit):
    layout = random_tiling(np.random.default_rng(seed), n, "random")
    _assert_inferred_is_the_dense_argmax(_tiling_sets(layout)[0 if unit else 1])


def _rephased(s, rng, noise):
    # s with each state's A-part times a random phase and its B-part times the
    # inverse, so parts equal up to phase fall in different byte classes, and
    # every zero amplitude replaced by `noise` times a random phase
    turn = np.exp(2j * np.pi * rng.random(len(s.amps_a)))[:, None]
    a, b = (np.where(x == 0, noise * np.exp(2j * np.pi * rng.random(x.shape)), x)
            for x in (s.amps_a * turn, s.amps_b / turn))
    return StateSet([ProductState(k, Ket(a[k]), Ket(b[k])) for k in range(len(a))], s.layout)


def _shuffled(s, rng):
    # s with its labels permuted, so one tile's states need not be neighbours
    perm = rng.permutation(len(s.amps_a))
    tiles = tuple(dataclasses.replace(t, state_indices=tuple(int(perm[k]) for k in t.state_indices))
                  for t in s.layout.tiles)
    return StateSet(states_from_tiles(s.n, tiles), DominoLayout(s.n, tiles))


def test_inferred_table_on_parts_equal_up_to_phase_and_noisy_zeros():
    # Rephased parts and zeros of 1e-12 leave the posterior's exact ties to
    # rounding, so the dense argmax may pick another of the tied labels; the
    # table's label still scores the maximum to within rounding, also with
    # the labels of parts equal up to phase apart
    rng = np.random.default_rng(59)
    for n in (3, 4, 5, 9, 16):
        for noise, shuffle in ((0.0, False), (1e-12, False), (0.0, True)):
            s = build_symmetric(n)
            s = _rephased(_shuffled(s, rng) if shuffle else s, rng, noise)
            eve = ConditionalInterceptResend(s)
            scores = dense_posterior([b.matrix for b in eve._b_bases], s.amps_a, s.amps_b)
            taken = np.take_along_axis(scores, eve._inferred[:, :, None], axis=2)[..., 0]
            assert np.all(taken >= scores.max(axis=2) * (1 - 1e-14)), (n, noise, shuffle)


def test_inferred_table_takes_the_first_of_equal_scores():
    # the family's column tiles give rows where several labels score the same
    s = build_symmetric(9)
    eve = ConditionalInterceptResend(s)
    scores = dense_posterior([b.matrix for b in eve._b_bases], s.amps_a, s.amps_b)
    top = scores == scores.max(axis=2, keepdims=True)
    assert (top.sum(axis=2) > 1).any()
    assert eve._inferred.tolist() == top.argmax(axis=2).tolist()


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_table_memory_on_noisy_zeros():
    # with every part in a byte class of its own, the table adds no more than
    # a few arrays of the seats' size to the conditional bases' peak, not an
    # array per (outcome, row, label)
    s = _rephased(build_symmetric(25), np.random.default_rng(61), 1e-12)
    bases = _traced_peak(lambda: _conditional_bases(s, range(s.n)))
    seats = adversary._conditional_parts(s, range(s.n))[1]
    assert _traced_peak(lambda: ConditionalInterceptResend(s)) <= bases + 4 * sum(a.nbytes for a in seats)


def check_inference_table_bytes():
    # The table against the dense argmax, whose products run through BLAS, on
    # the family and on random tilings. For assert_bytes_under_blas_threads.
    for n in (3, 4, 9, 16, 25, 41, 64):
        assert _assert_inferred_is_the_dense_argmax(build_symmetric(n))
    rng = np.random.default_rng(41)
    for kind in ("random", "singletons"):
        for _ in range(6):
            for s in _tiling_sets(random_tiling(rng, int(rng.integers(3, 12)), kind)):
                _assert_inferred_is_the_dense_argmax(s)


def test_inference_table_bytes_with_one_and_two_blas_threads():
    assert_bytes_under_blas_threads(check_inference_table_bytes)


def _assert_kernels_match_hooks(s, own=None, rounds=300, seed=12):
    # columns for each strategy, built for `own` (s itself by default), equal
    # run_round on each round's own stream; an intercept `own` refuses is skipped
    basis, own = bob_basis(s), s if own is None else own
    for name in STRATEGY_NAMES:
        try:
            make_strategy(name, own)
        except InvalidSetError:
            continue
        (columns,) = round_columns(s, make_strategy(name, own), seed, rounds)
        for round_id in range(rounds):
            alice, bob, rec = run_round(s, basis, make_strategy(name, own), round_id,
                                        RngStream(seed, round_id))
            outcomes = [-1 if v is None else v
                        for v in (rec.a_outcome, rec.b_outcome, rec.inferred_state)]
            assert columns[:, round_id].tolist() == [alice, bob, *outcomes], (s.n, name, round_id)


def test_kernels_match_hooks_round_by_round():
    # the family at n = 4, random 3 x 3 sets, random tilings with unit and
    # discrete-Fourier amplitudes, and rephased sets with zeros of 1e-12,
    # where the alike and orthogonality checks hold only to tolerance
    _assert_kernels_match_hooks(build_symmetric(4))
    rng = np.random.default_rng(67)
    sets = [_random_3x3(seed) for seed in range(3)]
    for n in (3, 5):
        sets += _tiling_sets(random_tiling(rng, n, "random"))
        sets.append(_rephased(build_symmetric(n), rng, 1e-12))
    sets.append(_rephased(_shuffled(build_symmetric(4), rng), rng, 1e-12))
    for s in sets:
        _assert_kernels_match_hooks(s, rounds=120)


def test_strategies_built_for_another_set_decide_no_lane_by_a_band(monkeypatch):
    # a strategy built for another set of the same n still matches the hooks;
    # the substitute's held kets are not its own parts, so no sure band is
    # formed, and the intercept has no seats on that set: every second-leg
    # lane asks for its row
    rng = np.random.default_rng(69)
    s = build_symmetric(4)
    for other in (_shuffled(s, rng), _rephased(s, rng, 0.0)):
        _assert_kernels_match_hooks(s, own=other, rounds=120)
        bands, asked = [], []
        real_band, real_sample = qcore.sure_band, adversary.born_sample
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qcore, "sure_band", lambda *args: bands.append(args) or real_band(*args))
            mp.setattr(adversary, "born_sample",
                       lambda rows, size, keys, u: asked.append(len(keys)) or real_sample(rows, size, keys, u))
            next(round_columns(s, make_strategy("substitute", other), 3, 500))
            assert not bands
            step, _ = ConditionalInterceptResend(other)._kernel(s)
            step(np.arange(len(s)).repeat(20), StreamBlocks(philox_block(3, np.arange(20 * len(s)))))
        assert asked == [20 * len(s)] * 2


def _edge_draws(lo):
    # draws at the ends of the band (lo, 1 - lo): 0, the least draw above it,
    # lo and 1 - lo and the draws one ulp either side of each, the greatest draw
    hi = 1.0 - lo
    near = [np.nextafter(x, toward) for x in (lo, hi) for toward in (0.0, 1.0)]
    return np.array([0.0, 2.0**-53, lo, hi, *near, 1.0 - 2.0**-53])


def test_bob_lanes_at_the_sure_band_ends(monkeypatch):
    # a lane measuring its own basis vector with a draw at either end of the
    # sure band takes projective_measure's outcome in the joint basis, alone
    # and among the others, and forms candidate rows exactly when its draw
    # lies outside the open band
    edges, formed = [], []
    real_band, real_rows = qcore.sure_band, qcore._candidate_rows
    monkeypatch.setattr(qcore, "sure_band", lambda *args: edges.append(real_band(*args)) or edges[-1])
    monkeypatch.setattr(qcore, "_candidate_rows",
                        lambda parts, kets, i, k: formed.append(len(i)) or real_rows(parts, kets, i, k))
    rng = np.random.default_rng(71)
    sets = [(build_symmetric(n), 1) for n in (3, 9)] + [(build_symmetric(25), 13)]
    sets += [(_rephased(build_symmetric(5), rng, 1e-12), 1), (_rephased(_random_3x3(4), rng, 1e-12), 1)]
    for s, stride in sets:
        parts, basis = (s.amps_a, s.amps_b), bob_basis(s)
        product_sample(parts, parts, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(1))
        lo = edges[-1]
        assert 0.0 < lo < 1e-7
        draws = _edge_draws(lo)
        labels = np.arange(0, len(s), stride).repeat(len(draws))
        u = np.tile(draws, len(labels) // len(draws))
        together, _ = product_sample(parts, parts, labels, labels, u)
        for label, x, joined in zip(labels.tolist(), u.tolist(), together.tolist()):
            formed.clear()
            alone, _ = product_sample(parts, parts, np.array([label]), np.array([label]), np.array([x]))
            assert alone[0] == joined == _joint_outcome(basis, parts[0][label], parts[1][label], x), (s.n, label, x)
            assert (sum(formed) > 0) == (not lo < x < 1.0 - lo), (s.n, label, x)


def test_intercept_second_leg_at_the_seat_band_ends(monkeypatch):
    # each second-leg lane with a draw at either end of the seat band takes
    # projective_measure's outcome in the basis matched to its A outcome; a
    # lane asks for its row exactly when its label's A-part misses that
    # outcome or its draw lies outside the open band, keyed by the first
    # label whose B-part has its label's bytes
    rng = np.random.default_rng(73)
    sets = [build_symmetric(n) for n in (3, 9, 25)]
    sets += [_rephased(build_symmetric(5), rng, 1e-12), _rephased(_shuffled(build_symmetric(4), rng), rng, 1e-12)]
    asked, missed = [], 0
    real_sample = adversary.born_sample
    monkeypatch.setattr(adversary, "born_sample",
                        lambda rows, size, keys, u: asked.append(keys) or real_sample(rows, size, keys, u))
    for s in sets:
        n, eve = s.n, ConditionalInterceptResend(s)
        step, _ = eve._kernel(s)
        lo = qcore.seat_band(n)
        assert 0.0 < lo < 1e-10
        draws = _edge_draws(lo)
        labels = np.arange(len(s)).repeat(len(draws))
        u_b = np.tile(draws, len(s))
        u_a = np.where(np.arange(len(labels)) % 3 == 0, 0.0, rng.random(len(labels)))
        columns = iter((u_a, u_b))
        asked.clear()
        a, b, _, _ = step(labels, SimpleNamespace(random=lambda: next(columns)))
        rows, first = [], {}
        alike = [first.setdefault(part.tobytes(), label) for label, part in enumerate(s.amps_b)]
        for lane, (label, x) in enumerate(zip(labels.tolist(), u_b.tolist())):
            ket_a, ket_b = s[label].ket_a, s[label].ket_b
            expected_a = _collapse(ket_a, eve._comp, u_a[lane])[0]
            assert a[lane] == expected_a
            assert b[lane] == _collapse(ket_b, eve._b_bases[expected_a], x)[0], (n, label, x)
            overlaps = math.hypot(ket_a.amps[expected_a].real, ket_a.amps[expected_a].imag) > ATOL_STATE
            missed += not overlaps
            if not overlaps or not lo < x < 1.0 - lo:
                rows.append(alike[label] * n + expected_a)
        assert sorted(asked[1].tolist() if len(asked) > 1 else []) == sorted(rows)
    assert missed > 0  # zero draws on the rephased sets' A outcomes of weight 1e-24


def _first_overlapping_parts(s, m):
    # the B-parts of the states overlapping |m>, in label order, without
    # those equal byte for byte to an earlier one
    seen, rows = set(), []
    for a, b in zip(s.amps_a, s.amps_b):
        if math.hypot(a[m].real, a[m].imag) > ATOL_STATE and b.tobytes() not in seen:
            seen.add(b.tobytes())
            rows.append(b)
    return np.array(rows)


def _own_conditional_basis(amps, a_outcome):
    # the basis of the distinct parts among amps, decided for this outcome
    # alone and checked by MeasurementBasis, or its error
    n = amps.shape[1]
    overlaps = np.abs(amps.conj() @ amps.T)
    equivalent = np.abs(overlaps - 1.0) <= ATOL_STATE
    if np.any(~equivalent & (overlaps > ATOL_STATE)):
        raise InvalidSetError(
            f"B-parts overlapping A outcome {a_outcome} are not mutually orthogonal"
        )
    distinct = amps[~np.tril(equivalent, -1).any(axis=1)]
    if len(distinct) != n:
        raise InvalidSetError(
            f"A outcome {a_outcome} leaves {len(distinct)} distinct B-parts, not {n}"
        )
    return MeasurementBasis([Ket(row) for row in _canonical_rows(distinct)])


@hst.composite
def _drawn_set(draw):
    # a random or degenerate 3 x 3 set, one of the family, or a set on a
    # random tiling, whose column tiles repeat B-parts byte for byte
    kind = draw(hst.sampled_from(("random", "degenerate", "family", "tiling")))
    if kind == "random":
        return _random_3x3(draw(hst.integers(0, 2**32 - 1)))
    if kind == "degenerate":
        pairs = draw(hst.lists(_unit_pair(), min_size=4, max_size=4))
        return build_3x3(SetParameters(*(z for pair in pairs for z in pair)))
    if kind == "family":
        return build_symmetric(draw(hst.integers(3, 12)))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    layout = random_tiling(rng, draw(hst.integers(3, 6)), "random")
    return StateSet(states_from_tiles(layout.n, layout.tiles), layout)


@settings(max_examples=80, deadline=None)
@given(_drawn_set(), hst.integers(2, 7))
def test_check_conditions_matches_pairwise_oracle_in_blocks(s, rows):
    # the |Gram| rows are formed a few at a time, with a ragged last block;
    # every verdict is the pair-by-pair one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stateset, "_GRAM_BLOCK", 4 * rows * len(s))
        report = check_conditions(s)
    assert report.ok_a == tuple(_pairwise_oblique([st.ket_a for st in s], i) for i in range(len(s)))
    assert report.ok_b == tuple(_pairwise_oblique([st.ket_b for st in s], i) for i in range(len(s)))


@settings(max_examples=60, deadline=None)
@given(_drawn_set())
def test_conditional_bases_from_one_dedupe_equal_each_outcomes_own(s):
    # all n bases come from one sort of the B-parts; each holds the bytes the
    # outcome's own overlapping parts give, or raises the same error
    def outcome(build):
        try:
            bases = build()
        except InvalidSetError as exc:
            return str(exc)
        return [(b.matrix.tobytes(), b._conj_matrix.tobytes()) for b in bases]

    own = [outcome(lambda m=m: [_own_conditional_basis(_first_overlapping_parts(s, m), m)])
           for m in range(s.n)]
    assert [outcome(lambda m=m: [conditional_b_basis(s, m)]) for m in range(s.n)] == own
    first_error = next((o for o in own if isinstance(o, str)), None)
    expected = [b for o in own for b in o] if first_error is None else first_error
    assert outcome(lambda: _conditional_bases(s, range(s.n))) == expected


def test_conditional_bases_raise_the_first_failing_outcomes_error():
    # outcome 0 keeps three parts within ATOL_STATE of orthogonal but not
    # within ATOL_EXACT, which only the Gram check refuses; outcome 2 keeps
    # one part. Whatever the order asked for, the first failing outcome
    # raises, with its own first failing check's error
    tilted = normalize([5e-10, 1.0, 0.0])
    fake = _stacked_parts([(basis_ket(3, 0), basis_ket(3, 0)), (basis_ket(3, 0), tilted),
                           (basis_ket(3, 0), basis_ket(3, 2)), (basis_ket(3, 2), basis_ket(3, 1))])
    with pytest.raises(ValueError, match="^basis vectors are not orthonormal$"):
        _own_conditional_basis(fake.amps_b[:3], 0)
    for outcomes, error, message in (((0, 2), ValueError, "^basis vectors are not orthonormal$"),
                                     ((2, 0), InvalidSetError, "A outcome 2 leaves 1 distinct"),
                                     ((1,), InvalidSetError, "A outcome 1 leaves 0 distinct")):
        with pytest.raises(error, match=message):
            _conditional_bases(fake, outcomes)


def test_born_sample_asks_once_for_the_distinct_keys():
    # each call asks once for the rows of its distinct keys, in ascending
    # order, and each lane takes _outcome on its own key's row
    n, calls = 9, []
    probs = np.random.default_rng(5).random((n**3, n))

    def rows(keys):
        calls.append(keys.tolist())
        return probs[keys]

    rng = np.random.default_rng(6)
    for size in (1, 3, 40, 7, 200):
        keys = rng.integers(0, 60, size)
        u = rng.random(size)
        expected = [int(_outcome(probs[k].cumsum(), x * probs[k].sum()))
                    for k, x in zip(keys.tolist(), u.tolist())]
        asked = len(calls)
        assert born_sample(rows, n**3, keys, u).tolist() == expected
        assert len(calls) == asked + 1 and calls[-1] == sorted(set(keys.tolist()))


@functools.lru_cache(maxsize=6)
def _family(n):
    return build_symmetric(n)


@settings(max_examples=25, deadline=None)
@given(hst.data())
def test_batched_table_rows_have_the_per_key_bytes(data):
    # the intercept's two samplers and the complementary one: each call of a
    # kernel's step asks for its distinct keys in ascending order, and each
    # key's batched row, cumsum and total hold the bytes of
    # born_probabilities and _cumulative on that key's own kets; an empty
    # seat band sends every second-leg lane to its row
    if data.draw(hst.booleans()):
        s = _random_3x3(data.draw(hst.integers(0, 2**32 - 1)))
    else:
        s = _family(data.draw(hst.integers(3, 64)))
    n = s.n
    name = data.draw(hst.sampled_from(("intercept", "complementary")))
    try:
        eve = make_strategy(name, s)
    except InvalidSetError:
        return
    if name == "intercept":
        refs = [lambda i: (s[i].ket_a, eve._comp),
                lambda key: (s[key // n].ket_b, eve._b_bases[key % n])]
    else:
        refs = [lambda i: (s[i].ket_b, eve._comp)]
    calls = []  # (keys, keys asked, rows) of every born_sample call, in order

    def recording(rows, size, keys, u):
        def recorded(asked):
            out = rows(asked)
            calls.append((keys, asked, out))
            return out
        return born_sample(recorded, size, keys, u)

    step, _ = eve._kernel(s)
    steps = data.draw(hst.integers(1, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary, "born_sample", recording)
        mp.setattr(adversary, "seat_band", lambda n: 1.0)
        for seed in range(steps):
            alice = np.array(data.draw(hst.lists(hst.integers(0, len(s) - 1), min_size=1, max_size=40)))
            step(alice, StreamBlocks(philox_block(seed, np.arange(len(alice)))))
    assert len(calls) == steps * len(refs)
    for k, (keys, asked, rows) in enumerate(calls):
        assert asked.tolist() == sorted(set(keys.tolist()))
        cumulative, total = _cumulative(rows)
        for r, key in enumerate(asked.tolist()):
            probs = born_probabilities(*refs[k % len(refs)](key))
            expected_cumulative, expected_total = _cumulative(probs)
            assert rows[r].tobytes() == probs.tobytes()
            assert cumulative[r].tobytes() == expected_cumulative.tobytes()
            assert total[r] == expected_total


def _assert_exact_intercept_is_the_scalar_sum(s):
    result = exact_undetected_prob(s, "intercept")
    reference = intercept_contributions_by_scalar_rows(s)
    assert result.contributions == tuple(reference)
    assert result.value == math.fsum(reference) / len(s)


@settings(max_examples=20, deadline=None)
@given(hst.data())
def test_exact_intercept_equals_the_scalar_sum_property(data):
    if data.draw(hst.booleans()):
        s = _random_3x3(data.draw(hst.integers(0, 2**32 - 1)))
    else:
        s = _family(data.draw(hst.integers(3, 40)))
    try:
        _conditional_bases(s, range(s.n))
    except InvalidSetError:
        return
    _assert_exact_intercept_is_the_scalar_sum(s)


@pytest.mark.parametrize("n", [44])
def test_exact_intercept_equals_the_scalar_sum(n):
    # at n = 44 an array square of the weights differs from the scalar one
    _assert_exact_intercept_is_the_scalar_sum(_family(n))
