import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from opqkd import (
    Ket,
    MeasurementBasis,
    RngStream,
    basis_ket,
    born_probabilities,
    canonical_phase,
    inner,
    normalize,
    projective_measure,
    states_equivalent,
    states_orthogonal,
    tensor,
)
from opqkd import qcore
from opqkd.qcore import StreamBlocks, _unit_kets, joint_amps, philox_block


def random_ket(rng, dim):
    return normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_basis(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    return MeasurementBasis([Ket(row) for row in q])


def test_ket_requires_normalization():
    with pytest.raises(ValueError):
        Ket([1.0, 1.0])
    Ket([1.0, 0.0])


def test_ket_rejects_scalars_and_nonfinite():
    with pytest.raises(ValueError):
        Ket([1.0])
    with pytest.raises(ValueError):
        Ket([np.nan, 0.0])
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])


def test_ket_is_immutable():
    k = basis_ket(3, 0)
    with pytest.raises(AttributeError):
        k.amps = np.zeros(3)
    with pytest.raises(ValueError):
        k.amps[0] = 2.0  # read-only buffer


def test_normalize_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = random_ket(rng, 5)
        assert abs(np.linalg.norm(k.amps) - 1.0) < 1e-12


def test_inner_conjugate_linear():
    rng = np.random.default_rng(11)
    x, y = random_ket(rng, 4), random_ket(rng, 4)
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))
    with pytest.raises(ValueError):
        inner(random_ket(rng, 3), random_ket(rng, 4))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_tensor_inner_factorizes(seed):
    rng = np.random.default_rng(seed)
    a, c = random_ket(rng, 3), random_ket(rng, 3)
    b, d = random_ket(rng, 4), random_ket(rng, 4)
    lhs = inner(tensor(a, b), tensor(c, d))
    rhs = inner(a, c) * inner(b, d)
    assert abs(lhs - rhs) < 1e-12


def test_tensor_index_convention():
    # first factor is the major index
    joint = tensor(basis_ket(3, 1), basis_ket(4, 2))
    expected = np.zeros(12)
    expected[1 * 4 + 2] = 1.0
    assert np.allclose(joint.amps, expected)


def test_tensor_matches_kron_bytes():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = random_ket(rng, 3), random_ket(rng, 5)
        joint = tensor(a, b)
        assert joint.amps.tobytes() == np.kron(a.amps, b.amps).tobytes()
        assert not joint.amps.flags.writeable


def test_canonical_phase_leading_amplitude():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = random_ket(rng, 4)
        rotated = Ket(k.amps * np.exp(0.37j))
        fixed = canonical_phase(rotated)
        lead = next(z for z in fixed.amps if abs(z) > 1e-12)
        assert abs(lead.imag) < 1e-12 and lead.real >= 0.0
        assert states_equivalent(fixed, k)


def test_equivalence_and_orthogonality():
    k = basis_ket(3, 0)
    assert states_equivalent(k, Ket(k.amps * np.exp(1.2j)))
    assert states_orthogonal(k, basis_ket(3, 2))
    assert not states_equivalent(k, basis_ket(3, 1))
    assert not states_orthogonal(k, normalize([1.0, 1.0, 0.0]))
    assert not states_equivalent(k, basis_ket(4, 0))


def test_basis_rejects_bad_vectors():
    with pytest.raises(ValueError):
        MeasurementBasis([basis_ket(3, 0), basis_ket(3, 0), basis_ket(3, 2)])
    with pytest.raises(ValueError):
        MeasurementBasis([basis_ket(3, 0), basis_ket(3, 1)])  # incomplete
    with pytest.raises(ValueError):
        MeasurementBasis([basis_ket(3, 0), basis_ket(3, 1), basis_ket(2, 0)])


def test_born_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 5, 9):
        basis = random_basis(rng, dim)
        state = random_ket(rng, dim)
        probs = born_probabilities(state, basis)
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) < 1e-10


def test_born_probabilities_dimension_mismatch():
    with pytest.raises(ValueError):
        born_probabilities(basis_ket(4, 0), MeasurementBasis.computational(3))


def test_computational_basis_and_unit_kets_hold_the_bytes_of_basis_ket(monkeypatch):
    # rows of one identity, wrapped unchecked, through MeasurementBasis.__init__ once
    built = []
    init = qcore.MeasurementBasis.__init__
    monkeypatch.setattr(qcore.MeasurementBasis, "__init__", lambda self, v: built.append(1) or init(self, v))
    for dim in (2, 3, 9):
        kets = _unit_kets(dim)
        assert [k.amps.tobytes() for k in kets] == [basis_ket(dim, k).amps.tobytes() for k in range(dim)]
        assert all(not k.amps.flags.writeable for k in kets)
        basis = MeasurementBasis.computational(dim)
        assert basis.matrix.tobytes() == np.stack([basis_ket(dim, k).amps for k in range(dim)]).tobytes()
    assert len(built) == 3
    for dim in (0, 1):
        with pytest.raises(ValueError):
            MeasurementBasis.computational(dim)


def test_joint_amps_of_an_empty_stack_and_of_kets():
    assert joint_amps(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 9)
    assert joint_amps(np.zeros((2, 0, 3)), np.zeros((2, 0, 4))).shape == (2, 0, 12)
    rng = np.random.default_rng(43)
    a, b = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
    assert joint_amps(a, b).tobytes() == np.stack([np.kron(x, y) for x, y in zip(a, b)]).tobytes()
    assert joint_amps(a[0], b[0]).tobytes() == np.kron(a[0], b[0]).tobytes()


def test_projective_measure_deterministic_on_eigenstate():
    basis = MeasurementBasis.computational(5)
    rng = RngStream(1, 0)
    for k in range(5):
        idx, collapsed = projective_measure(basis_ket(5, k), basis, rng)
        assert idx == k
        assert states_equivalent(collapsed, basis_ket(5, k))


def test_projective_measure_matches_born_frequencies():
    rng = np.random.default_rng(19)
    basis = random_basis(rng, 3)
    state = random_ket(rng, 3)
    probs = born_probabilities(state, basis)
    stream = RngStream(99, 0)
    draws = 20000
    counts = np.zeros(3)
    for _ in range(draws):
        idx, _ = projective_measure(state, basis, stream)
        counts[idx] += 1
    assert np.allclose(counts / draws, probs, atol=0.02)


def test_projective_measure_collapse_is_basis_vector():
    rng = np.random.default_rng(23)
    basis = random_basis(rng, 4)
    idx, collapsed = projective_measure(random_ket(rng, 4), basis, RngStream(5, 1))
    assert states_equivalent(collapsed, basis[idx])
    lead = next(z for z in collapsed.amps if abs(z) > 1e-12)
    assert lead.real >= 0.0 and abs(lead.imag) < 1e-12


def test_rngstream_reproducible():
    a = RngStream(42, 7)
    b = RngStream(42, 7)
    assert [a.integers(100) for _ in range(10)] == [b.integers(100) for _ in range(10)]
    assert a.random() == b.random()


def test_rngstream_streams_differ():
    a = RngStream(42, 0)
    b = RngStream(42, 1)
    assert [a.integers(1000) for _ in range(8)] != [b.integers(1000) for _ in range(8)]


def test_rngstream_draw_sequence_independent_of_interleaving():
    # consuming one stream must not shift another
    a = RngStream(3, 5)
    expected = [a.random() for _ in range(5)]
    b = RngStream(3, 5)
    noise = RngStream(3, 6)
    got = []
    for _ in range(5):
        noise.random()
        got.append(b.random())
    assert got == expected


def test_rngstream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(0).integers(0)


def test_rngstream_permutation_and_spawn():
    stream = RngStream(8, 0)
    perm = stream.permutation(50)
    assert sorted(perm.tolist()) == list(range(50))
    child = stream.spawn(9)
    assert child.seed == 8 and child.stream_id == 9


U64 = hst.integers(0, 2**64 - 1)


@settings(max_examples=150, deadline=None)
@example(2**64 - 1, [2**64 - 1, 2**64 - 2, 0])
@given(U64, hst.lists(U64, min_size=0, max_size=64))
def test_philox_block_matches_numpy_streams(seed, ids):
    words = philox_block(seed, np.array(ids, dtype=np.uint64))
    for lane, stream_id in enumerate(ids):
        key = np.array([seed, stream_id], dtype=np.uint64)
        assert words[:, lane].tolist() == np.random.Philox(key=key).random_raw(4).tolist()


def test_philox_block_of_no_streams():
    for ids in ([], np.zeros(0, dtype=np.uint64)):
        words = philox_block(2**64 - 1, ids)
        assert words.shape == (4, 0) and words.dtype == np.uint64


def test_stream_blocks_match_rngstream_draw_order():
    ids = np.arange(300)
    draws = StreamBlocks(philox_block(17, ids))
    columns = (draws.integers(9), draws.random(), draws.integers(3), draws.random(),
               draws.random())
    for stream_id in ids.tolist():
        r = RngStream(17, stream_id)
        expected = (r.integers(9), r.random(), r.integers(3), r.random(), r.random())
        assert tuple(col[stream_id].item() for col in columns) == expected
    with pytest.raises(ValueError):
        draws.random()  # a round draws at most one block


def _generator_over(words):
    # A Generator whose bit generator hands out `words` before anything else.
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bitgen.state
    state.update(buffer=np.array(words, dtype=np.uint64), buffer_pos=0, has_uint32=0)
    bitgen.state = state
    return np.random.Generator(bitgen)


def test_stream_blocks_lemire_matches_generator_and_flags_rejections():
    rng = np.random.default_rng(4)
    halves = [0, 1, 2**32 - 1, *rng.integers(0, 2**32, 40).tolist()]
    for upper in (9, 16, 625, 4096, 3969):
        # low halves whose leftover x * upper mod 2^32 lies in [0, upper)
        halves += [(m * 2**32 + upper - 1) // upper for m in range(1, upper, max(1, upper // 7))]
    words = np.array([(hi << 32) | lo for hi in halves[::-1] for lo in halves[:8]]
                     + [(hi << 32) | lo for hi, lo in zip(halves, halves[::-1])], dtype=np.uint64)
    filler = rng.integers(0, 2**63, 3).tolist()
    rejected_total = 0
    for first, second in ((9, 3), (16, 4), (625, 25), (9, 9), (4096, 64), (3969, 63)):
        draws = StreamBlocks(np.stack([words, words, words, words]))
        got_first, got_second = draws.integers(first), draws.integers(second)
        for lane, word in enumerate(words.tolist()):
            gen = _generator_over([word, *filler])
            value, second_value = gen.integers(first), gen.integers(second)
            # Without a rejection the two draws take exactly word 0's halves.
            state = gen.bit_generator.state
            rejected = (state["buffer_pos"], state["has_uint32"]) != (1, 0)
            rejected_total += rejected
            assert draws.unsure[lane] == rejected
            if not rejected:
                assert (got_first[lane], got_second[lane]) == (value, second_value)
    assert rejected_total > 0
