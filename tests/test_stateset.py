import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from conftest import (
    dense_joint_gram_ok,
    dense_oblique_partners,
    random_parameters,
    random_tiling,
    random_unit_pair,
    reference_stateset_text,
    relabelled_quarter_turn_by_enumeration,
    set_from_cellsets,
)
from opqkd import (
    DominoLayout,
    InvalidSetError,
    Ket,
    MeasurementBasis,
    ProductState,
    SetParameters,
    StateSet,
    Tile,
    UnsupportedDimensionError,
    basis_ket,
    bob_basis,
    born_probabilities,
    build_3x3,
    build_symmetric,
    check_conditions,
    inner,
    is_four_fold_symmetric,
    states_equivalent,
    states_from_tiles,
    stateset_from_text,
    stateset_to_text,
)
from opqkd import qcore, stateset


def assert_complete_orthogonal(state_set, ortho_tol=1e-10, complete_tol=1e-9):
    joints = state_set.joint_matrix
    gram = joints.conj() @ joints.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < ortho_tol
    assert np.max(np.abs(gram - np.eye(len(state_set)))) < complete_tol


def test_joint_matrix_holds_the_numbers_of_bob_basis():
    # Bob's flagged lanes are measured on the numbers of this matrix, which
    # joint_rows forms a block of rows at a time, and their outcomes are
    # those of projective_measure in bob_basis
    sets = [build_symmetric(n) for n in (3, 4, 7)]
    sets.append(build_3x3(SetParameters(0.6 + 0.8j, 0.0, 1.0, 0.0, 0.0, 1.0j, 0.8, 0.6j)))
    for s in sets:
        assert s.joint_matrix.tobytes() == bob_basis(s).matrix.tobytes()


def test_set_parameters_validation():
    SetParameters.symmetric()
    with pytest.raises(ValueError):
        SetParameters(1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)


def test_set_parameters_accepts_complex():
    p = SetParameters(0.6 + 0.8j, 0.0, 1.0, 0.0, 0.0, 1.0j, 0.8, 0.6j)
    assert p.as_tuple()[0] == 0.6 + 0.8j


def test_build_3x3_structure():
    s = build_3x3()
    assert s.n == 3 and len(s) == 9
    # the corner state is a plain product of basis vectors
    assert states_equivalent(s[8].ket_a, basis_ket(3, 0))
    assert states_equivalent(s[8].ket_b, basis_ket(3, 0))
    # the first pair rides on A = |1>
    assert states_equivalent(s[0].ket_a, basis_ket(3, 1))
    assert states_equivalent(s[1].ket_a, basis_ket(3, 1))
    assert_complete_orthogonal(s)


@pytest.mark.parametrize("seed", range(8))
def test_build_3x3_random_parameters_orthogonal_complete(seed):
    rng = np.random.default_rng(seed)
    s = build_3x3(random_parameters(rng))
    for i in range(9):
        for j in range(i + 1, 9):
            assert abs(inner(s[i].joint(), s[j].joint())) < 1e-10
    assert_complete_orthogonal(s)


def test_build_3x3_pair_relations():
    rng = np.random.default_rng(123)
    p = random_parameters(rng)
    s = build_3x3(p)
    # partner states within a tile are orthogonal on the varying subsystem
    assert abs(inner(s[0].ket_b, s[1].ket_b)) < 1e-12
    assert abs(inner(s[2].ket_a, s[3].ket_a)) < 1e-12
    assert abs(inner(s[4].ket_b, s[5].ket_b)) < 1e-12
    assert abs(inner(s[6].ket_a, s[7].ket_a)) < 1e-12
    assert s[0].ket_b.amps[1] == pytest.approx(p.a)
    assert s[0].ket_b.amps[0] == pytest.approx(p.b)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_build_symmetric_valid(n):
    s = build_symmetric(n)
    assert s.n == n and len(s) == n * n
    assert_complete_orthogonal(s)
    assert is_four_fold_symmetric(s.layout)
    assert check_conditions(s).passed


@pytest.mark.parametrize("n", [0, 1, 2])
def test_build_symmetric_unsupported(n):
    with pytest.raises(UnsupportedDimensionError):
        build_symmetric(n)


def test_symmetric_tiles_never_span_full_row():
    for n in (4, 5, 8, 9):
        layout = build_symmetric(n).layout
        assert max(len(t) for t in layout.tiles) == n - 1
        singles = [t for t in layout.tiles if len(t) == 1]
        assert len(singles) == (1 if n % 2 else 4)


def test_tile_validation():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    Tile("row", 0, ((0, 0), (0, 1)), h, (0, 1))
    with pytest.raises(ValueError):
        Tile("row", 0, ((0, 0), (1, 1)), h, (0, 1))  # leaves the row
    with pytest.raises(ValueError):
        Tile("col", 0, ((0, 0), (1, 1)), h, (0, 1))  # leaves the column
    with pytest.raises(ValueError):
        Tile("row", 0, ((0, 0), (0, 1)), np.eye(2) * 2.0, (0, 1))  # not unitary
    with pytest.raises(ValueError):
        Tile("diag", 0, ((0, 0),), np.eye(1), (0,))
    with pytest.raises(ValueError):
        Tile("singleton", 1, ((0, 0),), np.eye(1), (0,))
    with pytest.raises(ValueError):
        Tile("row", 0, ((0, 0), (0, 0)), h, (0, 1))  # repeated cell


def test_tile_stores_a_numpy_integer_fixed_index_as_int():
    # A set built from such tiles must still serialize: json cannot write an
    # np.int64, and the writer's "%d" takes whatever the tile holds.
    s = build_3x3()
    tiles = tuple(Tile(t.orientation, np.int64(t.fixed_index), t.cells, t.amplitudes, t.state_indices)
                  for t in s.layout.tiles)
    assert all(type(t.fixed_index) is int for t in tiles)
    rebuilt = StateSet(states_from_tiles(3, tiles), DominoLayout(3, tiles))
    assert stateset_to_text(rebuilt) == stateset_to_text(s) == reference_stateset_text(rebuilt)


@pytest.mark.parametrize("fixed", [1.0, np.float64(1.0), "1", None])
def test_tile_refuses_a_fixed_index_that_is_not_an_integer(fixed):
    # 1.0 would pass the cell check and then fail as a raw IndexError when
    # the states are scattered, or print as 1 in a set file.
    with pytest.raises(ValueError, match="fixed_index must be an integer"):
        Tile("row", fixed, ((1, 1), (1, 0)), np.eye(2), (0, 1))


def test_layout_validation():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    good = build_symmetric(3).layout
    DominoLayout(3, good.tiles)
    # a 3-cell run would fill a whole row of a 3x3 grid
    f3 = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    with pytest.raises(ValueError):
        DominoLayout(3, (Tile("row", 0, ((0, 0), (0, 1), (0, 2)), f3, (0, 1, 2)),) + good.tiles[1:])
    with pytest.raises(ValueError):
        DominoLayout(3, good.tiles[:-1])  # hole in the cover
    overlapping = (Tile("row", 1, ((1, 1), (1, 0)), h, (0, 1)),) + good.tiles
    with pytest.raises(ValueError):
        DominoLayout(3, overlapping)
    relabeled = (Tile("singleton", 1, ((1, 1),), np.eye(1), (0,)),) + good.tiles[:-1]
    with pytest.raises(ValueError):
        DominoLayout(3, relabeled)  # label 0 hosted twice, label 8 missing


def _with_states(s, first, *replaced):
    return StateSet(s.states[:first] + replaced + s.states[first + len(replaced):], s.layout)


def _with_singleton_label(s, label):
    return states_from_tiles(3, s.layout.tiles[:-1] + (Tile("singleton", 1, ((1, 1),), np.eye(1), (label,)),))


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda s: StateSet(build_3x3().states, s.layout),
                 InvalidSetError, "state 0 does not match", id="other-layout"),
    # a global phase e^{i theta} on one state is the same state
    pytest.param(lambda s: _with_states(
        s, 4, ProductState(4, Ket(s[4].ket_a.amps * np.exp(0.7j)), s[4].ket_b)),
        None, None, id="global-phase"),
    # states 4 and 5 share a row tile; with their B-parts swapped the set is
    # still complete and orthonormal, but neither lies on its tile
    pytest.param(lambda s: _with_states(s, 4, ProductState(4, s[4].ket_a, s[5].ket_b),
                                        ProductState(5, s[5].ket_a, s[4].ket_b)),
                 InvalidSetError, "state 4 does not match", id="swapped-b-parts"),
    # states 4 and 7 lie on different tiles; swapped whole, both are wrong
    # and the lowest label is named
    pytest.param(lambda s: _with_states(s, 4, ProductState(4, s[7].ket_a, s[7].ket_b),
                                        s[5], s[6], ProductState(7, s[4].ket_a, s[4].ket_b)),
                 InvalidSetError, "state 4 does not match", id="states-4-and-7-swapped"),
    pytest.param(lambda s: _with_singleton_label(s, 9),
                 ValueError, "labels must be exactly", id="skipped-label"),
    pytest.param(lambda s: _with_singleton_label(s, -1),
                 ValueError, "labels must be exactly", id="negative-label"),
])
def test_stateset_rejects_layout_mismatch(build, error, match):
    s3 = build_symmetric(3)
    if error is None:
        assert len(build(s3)) == 9
    else:
        with pytest.raises(error, match=match):
            build(s3)


def test_stateset_rejects_wrong_order():
    s3 = build_symmetric(3)
    shuffled = s3.states[1:] + s3.states[:1]
    with pytest.raises(InvalidSetError):
        StateSet(shuffled, s3.layout)


@pytest.mark.parametrize("n", [9, 25])
def test_build_symmetric_checks_each_tile_once_and_no_ket(monkeypatch, n):
    calls = {"tile": 0, "ket": 0, "view": 0, "state": 0, "states_from_tiles": 0}
    made = []

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def kept(*args):
        made.append(tile_amps(*args))
        return made[-1]

    tile_amps = stateset._tile_amps
    monkeypatch.setattr(Tile, "__post_init__", counted("tile", Tile.__post_init__))
    monkeypatch.setattr(Ket, "__init__", counted("ket", Ket.__init__))
    monkeypatch.setattr(stateset, "_checked", counted("view", stateset._checked))
    monkeypatch.setattr(ProductState, "__init__", counted("state", ProductState.__init__))
    monkeypatch.setattr(stateset, "states_from_tiles", counted("states_from_tiles", states_from_tiles))
    monkeypatch.setattr(stateset, "_tile_amps", kept)
    built = build_symmetric(n)
    # the set holds the tiles' own part arrays and forms no state, ket or view
    assert calls == {"tile": len(built.layout.tiles), "ket": 0, "view": 0, "state": 0, "states_from_tiles": 0}
    assert built.amps_a is made[0] and built.amps_b is made[1]
    built[n]  # the spies see a state formed on request
    assert (calls["state"], calls["view"]) == (1, 2)


def test_states_from_tiles_ordering():
    layout = build_symmetric(5).layout
    states = states_from_tiles(5, layout.tiles)
    assert [st.index for st in states] == list(range(25))


@pytest.mark.parametrize("n", [3, 4, 9])
def test_states_are_views_of_the_part_rows(n):
    s = build_symmetric(n)
    assert StateSet.__slots__ == ("layout", "amps_a", "amps_b")
    for i in (0, 1, n, len(s) - 1):
        st = s[i]
        assert st.index == i
        assert np.shares_memory(st.ket_a.amps, s.amps_a[i]) and np.shares_memory(st.ket_b.amps, s.amps_b[i])
        assert not st.ket_a.amps.flags.writeable and not st.ket_b.amps.flags.writeable
    assert s[-1].index == len(s) - 1 and s[-len(s)].index == 0
    for index in (len(s), -len(s) - 1):
        with pytest.raises(IndexError):
            s[index]
    states = list(s)
    assert [st.index for st in states] == list(range(len(s))) == [st.index for st in s.states]
    for i, st in enumerate(states):
        assert np.shares_memory(st.ket_a.amps, s.amps_a[i]) and np.shares_memory(st.ket_b.amps, s.amps_b[i])


def _built_sets():
    for n in range(3, 26):
        yield f"family n={n}", build_symmetric(n)
    rng = np.random.default_rng(28)
    for kind in ("random", "quarter", "transpose", "singletons", "three-cycle"):
        for n in (3, 4, 6, 9):
            yield f"{kind} n={n}", StateSet._from_layout(random_tiling(rng, n, kind))
    for seed in range(20):
        yield f"3x3 seed {seed}", build_3x3(random_parameters(np.random.default_rng(seed)))


def test_every_entry_point_gives_the_builders_arrays_and_text():
    for where, s in _built_sets():
        text = stateset_to_text(s)
        for how, other in (("states", StateSet(tuple(s), s.layout)),
                           ("states_from_tiles", StateSet(states_from_tiles(s.n, s.layout.tiles), s.layout))):
            assert other.amps_a.tobytes() == s.amps_a.tobytes(), (where, how)
            assert other.amps_b.tobytes() == s.amps_b.tobytes(), (where, how)
            assert stateset_to_text(other) == text, (where, how)


def test_build_symmetric_keeps_one_copy_of_each_part():
    # Two n^2 x n complex part arrays are 8 MiB at n = 64; the tiles' part
    # arrays held again as the states' kets and n^2 state objects read 20.9
    # MiB kept and 25.0 MiB at the peak.
    tracemalloc.start()
    try:
        s = build_symmetric(64)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 64 * 64
    assert kept <= 13 * 2**20 and peak <= 18 * 2**20, (kept / 2**20, peak / 2**20)


def test_four_fold_symmetry_of_parameterized_layout():
    # not a literal quarter-turn fixture, but one after relabeling the axes
    layout = build_3x3().layout
    rot = {(b, 2 - a) for t in layout.tiles for a, b in t.cells if len(t) == 2}
    assert rot != {c for t in layout.tiles for c in t.cells if len(t) == 2}
    assert is_four_fold_symmetric(layout)


def test_four_fold_symmetry_respects_relabeling():
    rng = np.random.default_rng(17)
    layout = build_symmetric(5).layout
    for _ in range(3):
        sigma_a = rng.permutation(5)
        sigma_b = rng.permutation(5)
        tiles = []
        for t in layout.tiles:
            cells = tuple((int(sigma_a[a]), int(sigma_b[b])) for a, b in t.cells)
            if t.orientation == "row":
                fixed = int(sigma_a[t.fixed_index])
            elif t.orientation == "col":
                fixed = int(sigma_b[t.fixed_index])
            else:
                fixed = cells[0][0]
            tiles.append(Tile(t.orientation, fixed, cells, t.amplitudes, t.state_indices))
        assert is_four_fold_symmetric(DominoLayout(5, tuple(tiles)))


def test_four_fold_symmetry_counterexample():
    # split one pair into singletons: rows and columns can no longer swap
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    tiles = (
        Tile("row", 1, ((1, 1), (1, 0)), h, (0, 1)),
        Tile("col", 2, ((1, 2), (0, 2)), h, (2, 3)),
        Tile("row", 2, ((2, 0), (2, 2)), h, (4, 5)),
        Tile("singleton", 0, ((0, 1),), np.eye(1), (6,)),
        Tile("singleton", 2, ((2, 1),), np.eye(1), (7,)),
        Tile("singleton", 0, ((0, 0),), np.eye(1), (8,)),
    )
    assert not is_four_fold_symmetric(DominoLayout(3, tiles))


@settings(max_examples=200, deadline=None)
@given(hst.sampled_from(["random", "quarter", "transpose", "singletons", "three-cycle"]),
       hst.integers(3, 5), hst.integers(0, 2**32 - 1))
def test_four_fold_symmetry_matches_enumeration(kind, n, seed):
    layout = random_tiling(np.random.default_rng(seed), n, kind)
    assert is_four_fold_symmetric(layout) == relabelled_quarter_turn_by_enumeration(layout)


def test_check_conditions_degenerate_family():
    s = build_3x3(SetParameters(1, 0, 1, 0, 1, 0, 1, 0))
    report = check_conditions(s)
    assert not report.passed
    assert len(report.failures()) == 18  # every state, both subsystems


def test_check_conditions_passes_generic():
    rng = np.random.default_rng(31)
    report = check_conditions(build_3x3(random_parameters(rng)))
    assert report.passed
    assert report.failures() == ()


def test_bob_basis_identifies_each_state():
    for n in (3, 4):
        s = build_symmetric(n)
        basis = bob_basis(s)
        for st in s:
            probs = born_probabilities(st.joint(), basis)
            expected = np.zeros(n * n)
            expected[st.index] = 1.0
            assert np.allclose(probs, expected, atol=1e-12)


def test_serialization_round_trip():
    rng = np.random.default_rng(41)
    s = build_3x3(random_parameters(rng))
    text = stateset_to_text(s)
    back = stateset_from_text(text)
    assert back.n == s.n
    for a, b in zip(s.states, back.states):
        assert np.array_equal(a.ket_a.amps, b.ket_a.amps)
        assert np.array_equal(a.ket_b.amps, b.ket_b.amps)
    assert stateset_to_text(back) == text


def test_serialization_rejects_corruption():
    text = stateset_to_text(build_symmetric(3))
    with pytest.raises(InvalidSetError):
        stateset_from_text(text.replace('"opqkd-stateset-1"', '"something-else"'))
    with pytest.raises(InvalidSetError):
        stateset_from_text("{not json")
    broken = text.replace("0.7071067811865475", "0.9071067811865475", 2)
    with pytest.raises((InvalidSetError, ValueError)):
        stateset_from_text(broken)


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.pop("n"),
    lambda doc: doc.update(n=None),
    lambda doc: doc.update(tiles=5),
    lambda doc: doc["tiles"][0]["cells"][0].append(0),
], ids=["missing-n", "null-n", "tiles-not-a-list", "three-element-cell"])
def test_serialization_malformed_fields_raise_invalid_set(corrupt):
    doc = json.loads(stateset_to_text(build_symmetric(3)))
    corrupt(doc)
    with pytest.raises(InvalidSetError):
        stateset_from_text(json.dumps(doc))


# Components that must keep their sign and every digit in a set file:
# signed zeros, the smallest subnormal, and tiny normal numbers.
_TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -2.2250738585072014e-308)


@hst.composite
def unit_pairs(draw):
    """(x, y) with |x|^2 + |y|^2 = 1: a random pair, or a unit x on an axis
    beside a y whose components are signed zeros or subnormal."""
    if draw(hst.booleans()):
        return random_unit_pair(np.random.default_rng(draw(hst.integers(0, 2**32 - 1))))
    unit = draw(hst.sampled_from((1.0, -1.0)))
    tiny = draw(hst.sampled_from(_TINY))
    x = complex(unit, tiny) if draw(hst.booleans()) else complex(tiny, unit)
    y = complex(draw(hst.sampled_from(_TINY)), draw(hst.sampled_from(_TINY)))
    return (x, y) if draw(hst.booleans()) else (y, x)


@settings(max_examples=300, deadline=None)
@given(hst.lists(unit_pairs(), min_size=4, max_size=4))
def test_set_text_is_the_json_dumps_text_on_3x3_sets(pairs):
    s = build_3x3(SetParameters(*(z for pair in pairs for z in pair)))
    assert stateset_to_text(s) == reference_stateset_text(s)


@pytest.mark.parametrize("n", range(3, 17))
def test_set_text_is_the_json_dumps_text_on_the_family(n):
    s = build_symmetric(n)
    assert stateset_to_text(s) == reference_stateset_text(s)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(["random", "quarter", "transpose", "singletons", "three-cycle"]),
       hst.integers(3, 7), hst.integers(0, 2**32 - 1))
def test_set_text_is_the_json_dumps_text_on_random_tilings(kind, n, seed):
    rng = np.random.default_rng(seed)
    layout = random_tiling(rng, n, kind)
    s = set_from_cellsets(n, [t.cells for t in layout.tiles])
    assert stateset_to_text(s) == reference_stateset_text(s)


def _set_doc_with(change):
    doc = json.loads(stateset_to_text(build_symmetric(3)))
    change(doc["states"])
    return json.dumps(doc)


def _scaled(label, key, norm_sq):
    def change(states):
        states[label][key] = [[re * math.sqrt(norm_sq), im * math.sqrt(norm_sq)]
                              for re, im in states[label][key]]
    return change


def _entry(label, key, k, value):
    def change(states):
        states[label][key][k][0] = value
    return change


def _resized(label, key, size):
    def change(states):
        states[label][key] = (states[label][key] + [[0.0, 0.0]] * size)[:size]
    return change


def _both(first, second):
    return lambda states: (first(states), second(states))


_NOT_NORMALIZED = "malformed state-set document: ValueError('ket is not normalized (norm^2 = {})')"
_NOT_FINITE = "malformed state-set document: ValueError('ket amplitudes must be finite')"
_TOO_SHORT = "malformed state-set document: ValueError('a ket needs a one-dimensional vector of length >= 2')"


# Each message is the one the reader gave when it built one checked Ket per
# part, so the one-pass check fails exactly as Ket does.
@pytest.mark.parametrize("change, message", [
    (_scaled(4, "ket_b", 1 + 2e-10), _NOT_NORMALIZED.format("1.0000000001999998")),
    (_scaled(4, "ket_a", 1 - 2e-10), _NOT_NORMALIZED.format("0.9999999998")),
    (_entry(2, "ket_b", 1, float("nan")), _NOT_FINITE),
    (_entry(6, "ket_a", 0, float("inf")), _NOT_FINITE),
    (_entry(6, "ket_a", 1, 1e200), _NOT_NORMALIZED.format("inf")),
    (_resized(1, "ket_b", 1), _TOO_SHORT),
    (_resized(1, "ket_b", 0), _TOO_SHORT),
    (_both(_entry(5, "ket_b", 0, float("nan")), _resized(3, "ket_a", 1)), _TOO_SHORT),
    (_both(_entry(3, "ket_b", 0, float("nan")), _resized(3, "ket_a", 1)), _TOO_SHORT),
    (_both(_resized(3, "ket_b", 1), _entry(3, "ket_a", 0, float("nan"))), _NOT_FINITE),
    (_resized(7, "ket_a", 4), "subsystem dimension must match the layout"),
    (lambda states: states[7].update(ket_a=[[0.0, 1.0], [0.0, 0.0]]),
     "subsystem dimension must match the layout"),
    (_entry(3, "ket_a", 1, "0.5"),
     'malformed state-set document: TypeError("complex() can\'t take second arg if first is a string")'),
    (_entry(5, "ket_b", 2, None),
     "malformed state-set document: TypeError(\"complex() first argument must be a string or a number, "
     "not 'NoneType'\")"),
], ids=["norm-high", "norm-low", "nan", "inf", "overflow", "length-1", "empty", "first-of-two",
        "a-before-b", "b-after-a", "longer", "shorter", "string", "null"])
def test_set_file_parts_fail_as_ket_does(change, message):
    with pytest.raises(InvalidSetError) as info:
        stateset_from_text(_set_doc_with(change))
    assert str(info.value) == message


def test_set_file_part_just_inside_the_norm_tolerance_is_accepted():
    text = _set_doc_with(_scaled(4, "ket_b", 1 + 0.9 * qcore.ATOL_EXACT))
    back = stateset_from_text(text)
    assert abs(np.vdot(back[4].ket_b.amps, back[4].ket_b.amps).real - 1.0) <= qcore.ATOL_EXACT


@pytest.mark.parametrize("n", [3, 4, 9])
def test_bob_basis_wraps_the_joint_matrix_without_a_second_check(monkeypatch, n):
    s = build_symmetric(n)
    calls = []

    def spy(name):
        return lambda *args: calls.append(name)

    monkeypatch.setattr(MeasurementBasis, "__init__", spy("MeasurementBasis.__init__"))
    monkeypatch.setattr(qcore, "near_identity", spy("near_identity"))
    monkeypatch.setattr(stateset, "near_identity", spy("near_identity"))
    basis = bob_basis(s)
    assert calls == []
    assert basis.matrix.tobytes() == s.joint_matrix.tobytes()
    assert basis._conj_matrix.tobytes() == s.joint_matrix.conj().tobytes()
    assert [v.amps.tobytes() for v in basis.vectors] == [row.tobytes() for row in s.joint_matrix]


def test_rotation_inside_a_tile_is_caught_by_the_joint_gram_check():
    # bob_basis relies on StateSet's joint Gram check: a state turned by
    # 1e-5 towards its tile partner still lies on its tile's cells within
    # ATOL_STATE, but is no longer orthogonal to that partner
    s = build_symmetric(3)
    i, j = s.layout.tiles[0].state_indices
    turned = math.cos(1e-5) * s[i].ket_b.amps + math.sin(1e-5) * s[j].ket_b.amps
    states = s.states[:i] + (ProductState(i, s[i].ket_a, Ket(turned)),) + s.states[i + 1:]
    StateSet._check_layout_consistency(np.stack([st.ket_a.amps for st in states]),
                                       np.stack([st.ket_b.amps for st in states]), s.layout)
    with pytest.raises(InvalidSetError, match="complete orthonormal set"):
        StateSet(states, s.layout)


def _outcome(states, layout):
    # "ok" when StateSet(states, layout) builds, else what it raised
    try:
        StateSet(states, layout)
    except (InvalidSetError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "ok"


def _assert_checks_match_dense(states, layout):
    # StateSet decides, and words its error, as with the dense joint Gram
    # check in place of the grouped one; each particle's condition verdicts
    # are the dense ones, for a valid set through check_conditions too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stateset, "_joint_gram_ok", dense_joint_gram_ok)
        dense = _outcome(states, layout)
    assert _outcome(states, layout) == dense
    stacks = [np.array([st.ket_a.amps for st in states]), np.array([st.ket_b.amps for st in states])]
    expected = tuple(dense_oblique_partners(amps) for amps in stacks)
    assert tuple(stateset._oblique_partners(amps, np.count_nonzero(amps, axis=1)) for amps in stacks) == expected
    if dense == "ok":
        report = check_conditions(StateSet(states, layout))
        assert (report.ok_a, report.ok_b) == expected
    return dense


def _with_parts(states, changes):
    # the states with those labels given new parts: {label: (a, b)}
    out = list(states)
    for i, (a, b) in changes.items():
        out[i] = ProductState(i, Ket(a), Ket(b))
    return tuple(out)


def _leaked(amps, eps, pick):
    # each row given eps at one entry off its support, chosen by pick
    out = amps.copy()
    for i, row in enumerate(out):
        row[pick(i, np.flatnonzero(row == 0))] = eps
        row /= np.linalg.norm(row)
    return out


def _perturbed_sets(s):
    # The perturbation corpus of a set, as (name, states): states turned
    # inside their tile towards a partner, states leaked off their tile by
    # 1e-13 ... 1e-3, and parts or states swapped.
    amps = (s.amps_a, s.amps_b)
    tiles = [t for t in s.layout.tiles if len(t) > 1]
    for t in tiles[:3]:
        i, j = t.state_indices[:2]
        spread = int(t.orientation != "col")  # the particle the tile spreads over
        # a turn of 1e-10 would put the Gram entry on ATOL_EXACT itself,
        # where its last bit decides, in the dense check as in the grouped one
        for theta in (1e-12, 1e-8, 1e-5, 0.3):
            parts = [x[i] for x in amps]
            parts[spread] = math.cos(theta) * amps[spread][i] + math.sin(theta) * amps[spread][j]
            yield f"turn {i} by {theta}", _with_parts(s.states, {i: parts})
    for eps in (1e-13, 1e-11, 1e-10, 1e-9, 1e-7, 1e-5, 1e-3):
        for i in (0, len(s) // 2, len(s) - 1):
            for p in (0, 1):
                parts = [x[i:i + 1] for x in amps]
                parts[p] = _leaked(parts[p], eps, lambda _, off: off[-1])
                yield f"leak {i}/{p} by {eps}", _with_parts(s.states, {i: (parts[0][0], parts[1][0])})
        # every part leaked, each at an entry off its support chosen by its label
        leaked = [_leaked(x, eps, lambda k, off: off[k % len(off)]) for x in amps]
        yield f"leak all by {eps}", tuple(ProductState(k, Ket(a), Ket(b)) for k, (a, b) in enumerate(zip(*leaked)))
    for t in tiles[:2]:
        i, j = t.state_indices[:2]
        yield f"swap B {i} {j}", _with_parts(s.states, {i: (amps[0][i], amps[1][j]), j: (amps[0][j], amps[1][i])})
        yield f"swap A {i} {j}", _with_parts(s.states, {i: (amps[0][j], amps[1][i]), j: (amps[0][i], amps[1][j])})
    i, j = s.layout.tiles[0].state_indices[0], s.layout.tiles[-1].state_indices[-1]
    yield f"swap {i} {j}", _with_parts(s.states, {i: (amps[0][j], amps[1][j]), j: (amps[0][i], amps[1][i])})
    yield f"copy A {j} to {i}", _with_parts(s.states, {i: (amps[0][j], amps[1][i])})


def _dft_tiling(seed, n):
    layout = random_tiling(np.random.default_rng(seed), n, "random")
    return set_from_cellsets(n, [t.cells for t in layout.tiles])


@pytest.mark.parametrize("build", [
    pytest.param(lambda: build_symmetric(3), id="family-3"),
    pytest.param(lambda: build_symmetric(4), id="family-4"),
    pytest.param(lambda: build_symmetric(5), id="family-5"),
    pytest.param(lambda: build_symmetric(8), id="family-8"),
    pytest.param(lambda: build_3x3(random_parameters(np.random.default_rng(7))), id="random-3x3"),
    pytest.param(lambda: build_3x3(SetParameters(1, 0, 1, 0, 1, 0, 1, 0)), id="degenerate-3x3"),
    pytest.param(lambda: _dft_tiling(11, 5), id="tiling-5"),
    pytest.param(lambda: _dft_tiling(12, 6), id="tiling-6"),
])
def test_perturbed_sets_are_decided_as_the_dense_checks_decide(build):
    s = build()
    seen = {}
    for name, states in _perturbed_sets(s):
        outcome = _assert_checks_match_dense(states, s.layout)
        seen.setdefault(outcome if outcome == "ok" else outcome[1].split()[0], name)
    # the corpus reaches an accepted set, the Gram check and the tile check
    assert {"ok", "joint", "state"} <= set(seen)


@hst.composite
def _drawn_states(draw):
    # (states, layout): the family, a random or degenerate 3 x 3 set, a set
    # on a random tiling, one turned by a random unitary on each particle (a
    # dense set, with every part on one wide support), or a member of the
    # perturbation corpus of one of those
    kind = draw(hst.sampled_from(("family", "random", "degenerate", "tiling", "rotated", "perturbed")))
    seed = draw(hst.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        return build_3x3(random_parameters(rng)).states, build_3x3().layout
    if kind == "degenerate":
        pairs = [draw(hst.sampled_from(((1, 0), (0, 1), (0.6, 0.8j)))) for _ in range(4)]
        s = build_3x3(SetParameters(*(z for pair in pairs for z in pair)))
        return s.states, s.layout
    s = build_symmetric(draw(hst.integers(3, 9))) if kind == "family" or rng.random() < 0.5 \
        else _dft_tiling(seed, draw(hst.integers(3, 6)))
    if kind == "rotated":
        u, v = (np.linalg.qr(rng.standard_normal((s.n, s.n)) + 1j * rng.standard_normal((s.n, s.n)))[0]
                for _ in range(2))
        return tuple(ProductState(i, Ket(a), Ket(b))
                     for i, (a, b) in enumerate(zip(s.amps_a @ u, s.amps_b @ v))), s.layout
    if kind == "perturbed":
        corpus = list(_perturbed_sets(s))
        return corpus[draw(hst.integers(0, len(corpus) - 1))][1], s.layout
    return s.states, s.layout


@settings(max_examples=150, deadline=None)
@given(_drawn_states(), hst.integers(1, 48))
def test_grouped_set_checks_match_the_dense_ones(case, block):
    # with a few Gram entries formed at a time, in ragged blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stateset, "_GRAM_BLOCK", block)
        _assert_checks_match_dense(*case)


def test_a_set_with_every_part_leaked_off_its_tile_is_decided_as_dense():
    # each part 1e-13 off its tile at an entry chosen by its label: the
    # supports are all distinct, and the set is still valid
    s = build_symmetric(25)
    leaked = [_leaked(x, 1e-13, lambda k, off: off[(7 * k) % len(off)]) for x in (s.amps_a, s.amps_b)]
    states = tuple(ProductState(k, Ket(a), Ket(b)) for k, (a, b) in enumerate(zip(*leaked)))
    assert _assert_checks_match_dense(states, s.layout) == "ok"
    assert check_conditions(StateSet(states, s.layout)).passed


def test_set_checks_at_n_64_form_no_dense_gram_block():
    # the joint Gram check forms each tile's block and the condition check
    # the distinct parts still open: 40 and 8 MiB when both were dense
    s = build_symmetric(64)
    tracemalloc.start()
    StateSet(s.states, s.layout)
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    check_conditions(s)
    conditions_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert build_peak < 16 * 2**20
    assert conditions_peak < 8 * 2**20


def _widened(amps, eps):
    # each row given eps at every entry off its support but those named by
    # the set bits of its label: distinct supports, all but 12 entries wide
    out = amps.copy()
    for k, row in enumerate(out):
        off = np.flatnonzero(row == 0)
        row[off] = eps
        if len(off) > 1:
            row[off[[b % len(off) for b in range(12) if k >> b & 1]]] = 0
        row /= np.linalg.norm(row)
    return out


def test_set_checks_at_n_64_on_distinct_wide_supports_stay_bounded():
    # Every part leaks 1e-13 off its tile almost everywhere: 4096 distinct
    # supports, any two of which meet, so all states form one component.
    # The set is valid, and refused once one state is turned inside its
    # tile. Dense checks peaked at 40.3 and 8.1 MiB here; the grouped ones
    # may take half as much again, never memory that grows with the cells.
    s = build_symmetric(64)
    amps = [_widened(x, 1e-13) for x in (s.amps_a, s.amps_b)]
    assert len({(a != 0).tobytes() + (b != 0).tobytes() for a, b in zip(*amps)}) == len(s)
    states = tuple(ProductState(k, Ket(a), Ket(b)) for k, (a, b) in enumerate(zip(*amps)))
    tracemalloc.start()
    wide = StateSet(states, s.layout)
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]  # the set's own arrays
    report = check_conditions(wide)
    conditions_peak = tracemalloc.get_traced_memory()[1] - held
    tracemalloc.stop()
    assert report.passed
    assert build_peak < 60 * 2**20
    assert conditions_peak < 12 * 2**20
    tile = s.layout.tiles[-1]
    i, j = tile.state_indices[:2]
    spread = int(tile.orientation != "col")
    parts = [x[i] for x in amps]
    parts[spread] = math.cos(1e-5) * amps[spread][i] + math.sin(1e-5) * amps[spread][j]
    with pytest.raises(InvalidSetError, match="complete orthonormal set"):
        StateSet(_with_parts(states, {i: parts}), s.layout)
