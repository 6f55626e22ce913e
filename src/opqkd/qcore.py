"""Complex state vectors, orthonormal measurement bases, Born-rule sampling,
and keyed deterministic random streams."""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

# Construction-time exactness (norms, Gram matrices).
ATOL_EXACT = 1e-10
# Equivalence / orthogonality decisions between states.
ATOL_STATE = 1e-9

_MAX_UINT64 = 2**64


class Ket:
    """Normalized pure state of one (sub)system, stored as a complex vector."""

    __slots__ = ("amps",)

    def __init__(self, amps: Iterable[complex]):
        arr = np.array(amps, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a ket needs a one-dimensional vector of length >= 2")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("ket amplitudes must be finite")
        norm_sq = float(np.real(np.vdot(arr, arr)))
        if abs(norm_sq - 1.0) > ATOL_EXACT:
            raise ValueError(f"ket is not normalized (norm^2 = {norm_sq!r})")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Ket is immutable")

    @property
    def dim(self) -> int:
        return int(self.amps.size)

    def __repr__(self) -> str:
        body = ", ".join(f"{a:.6g}" for a in self.amps)
        return f"Ket([{body}])"


def normalize(amps: Iterable[complex]) -> Ket:
    """Scale a raw amplitude vector to unit norm and wrap it as a Ket."""
    arr = np.array(list(amps), dtype=np.complex128)
    norm = float(np.linalg.norm(arr))
    if norm <= 0.0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return Ket(arr / norm)


def basis_ket(dim: int, index: int) -> Ket:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    arr = np.zeros(dim, dtype=np.complex128)
    arr[index] = 1.0
    return Ket(arr)


def inner(x: Ket, y: Ket) -> complex:
    """Inner product <x|y>, conjugate-linear in the first argument."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return complex(np.vdot(x.amps, y.amps))


def joint_amps(a: Ket, b: Ket) -> np.ndarray:
    """Amplitudes of a (x) b, first factor major."""
    return np.multiply.outer(a.amps, b.amps).reshape(-1)


def tensor(a: Ket, b: Ket) -> Ket:
    """Joint state a (x) b; index convention is first-factor-major. The
    product of two checked kets is wrapped without checking it again."""
    amps = joint_amps(a, b)
    amps.setflags(write=False)
    joint = object.__new__(Ket)
    object.__setattr__(joint, "amps", amps)
    return joint


def canonical_phase(ket: Ket) -> Ket:
    """Rotate the global phase so the first non-negligible amplitude is real >= 0."""
    arr = ket.amps
    for a in arr:
        mag = abs(a)
        if mag > 1e-12:
            return Ket(arr * (mag / a))
    return ket


def states_equivalent(x: Ket, y: Ket, tol: float = ATOL_STATE) -> bool:
    """True when x and y agree up to a global phase."""
    if x.dim != y.dim:
        return False
    return abs(abs(inner(x, y)) - 1.0) <= tol


def states_orthogonal(x: Ket, y: Ket, tol: float = ATOL_STATE) -> bool:
    """True when <x|y> vanishes within tolerance."""
    if x.dim != y.dim:
        return False
    return abs(inner(x, y)) <= tol


class MeasurementBasis:
    """Complete orthonormal basis defining a projective measurement."""

    __slots__ = ("vectors", "matrix", "_conj_matrix", "_canonical")

    def __init__(self, vectors: Sequence[Ket]):
        vecs = tuple(vectors)
        if not vecs:
            raise ValueError("a measurement basis needs at least one vector")
        dim = vecs[0].dim
        if any(v.dim != dim for v in vecs):
            raise ValueError("all basis vectors must share one dimension")
        if len(vecs) != dim:
            raise ValueError(f"basis has {len(vecs)} vectors but dimension {dim}")
        mat = np.stack([v.amps for v in vecs])
        gram = mat.conj() @ mat.T
        if not np.allclose(gram, np.eye(dim), atol=ATOL_EXACT, rtol=0.0):
            raise ValueError("basis vectors are not orthonormal")
        mat.setflags(write=False)
        conj = mat.conj()
        conj.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_conj_matrix", conj)
        object.__setattr__(self, "_canonical", tuple(canonical_phase(v) for v in vecs))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MeasurementBasis is immutable")

    @classmethod
    def computational(cls, dim: int) -> "MeasurementBasis":
        return cls([basis_ket(dim, k) for k in range(dim)])

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, k: int) -> Ket:
        return self.vectors[k]


def born_probabilities(state: Ket, basis: MeasurementBasis) -> np.ndarray:
    """Outcome distribution of measuring `state` in `basis`."""
    if state.dim != basis.dim:
        raise ValueError(f"state dimension {state.dim} != basis dimension {basis.dim}")
    return born_rows(basis._conj_matrix, state.amps)


def born_rows(conj_matrix: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """|<v|state>|^2 for every basis vector v, given the conjugated basis
    matrix (one vector per row) and the state's amplitudes."""
    return np.abs(conj_matrix @ amps) ** 2


def key_word(name: str, value: int) -> int:
    """`value` as an int, once it is checked to fit a 64-bit Philox key word."""
    value = int(value)
    if not 0 <= value < _MAX_UINT64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")
    return value


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Counter-based (Philox), so every (seed, stream_id) pair names an
    independent stream whose draw sequence is reproducible regardless of
    what other streams were consumed.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        seed = key_word("seed", seed)
        stream_id = key_word("stream_id", stream_id)
        key = np.array([seed, stream_id], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_id", stream_id)
        object.__setattr__(self, "_gen", gen)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("RngStream identity is immutable")

    def integers(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        if upper < 1:
            raise ValueError("upper bound must be positive")
        return int(self._gen.integers(upper))

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self._gen.random())

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n)."""
        return self._gen.permutation(n)

    def spawn(self, stream_id: int) -> "RngStream":
        """Fresh stream with the same seed and a different stream id."""
        return RngStream(self.seed, stream_id)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def projective_measure(state: Ket, basis: MeasurementBasis, rng: RngStream) -> tuple[int, Ket]:
    """Sample one measurement outcome; returns (index, collapsed state).

    The collapsed state is the basis vector itself in canonical phase."""
    cumulative, total = _cumulative(born_probabilities(state, basis))
    index = int(_outcome(cumulative, rng.random() * total))
    return index, basis._canonical[index]


def _cumulative(probs: np.ndarray) -> tuple[np.ndarray, float]:
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("outcome distribution sums to zero")
    return probs.cumsum(), total


def _outcome(cumulative: np.ndarray, target):
    # First outcome whose running total exceeds the target, clamped to the last.
    return np.minimum(cumulative.searchsorted(target, side="right"), len(cumulative) - 1)


class BornTable:
    """Projective measurements of a finite family of states, sampled a
    column at a time.

    `probabilities(key)` gives the outcome distribution of the state named
    by an integer key. It is called on the key's first use only; its
    cumsum and total are kept, and each lane then takes the outcome
    `projective_measure` would take from the same numbers and the same
    uniform draw."""

    __slots__ = ("_probabilities", "rows")

    def __init__(self, probabilities: Callable[[int], np.ndarray]):
        self._probabilities = probabilities
        self.rows: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}

    def _row(self, key: int) -> tuple[np.ndarray, np.ndarray, float]:
        row = self.rows.get(key)
        if row is None:
            probs = self._probabilities(key)
            row = self.rows[key] = (probs, *_cumulative(probs))
        return row

    def sample(self, keys: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Outcome of measuring state keys[j] with uniform draw u[j], per lane."""
        outcomes = np.empty(len(keys), dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order])) + 1
        for lanes in np.split(order, starts):
            _, cumulative, total = self._row(int(keys[lanes[0]]))
            outcomes[lanes] = _outcome(cumulative, u[lanes] * total)
        return outcomes


# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # High and low words of the 128-bit product m * x, from 32-bit limbs.
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _32
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    carry = ((lo_lo >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)) >> _32
    return x_hi * m_hi + (hi_lo >> _32) + (lo_hi >> _32) + carry, x * np.uint64(m)


def philox_block(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """First output block of every stream (seed, id): Philox4x64-10 with key
    (seed, id) and counter (1, 0, 0, 0). Row k holds word k of each stream,
    the k-th 64-bit word RngStream(seed, id) draws."""
    ids = np.asarray(stream_ids, dtype=np.uint64)
    key0, key1 = key_word("seed", seed), ids.copy()
    c0, c1 = np.ones_like(ids), np.zeros_like(ids)
    c2, c3 = np.zeros_like(ids), np.zeros_like(ids)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0 = (key0 + _PHILOX_W[0]) % _MAX_UINT64
            key1 += np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ key1, lo0
    return np.stack([c0, c1, c2, c3])


class StreamBlocks:
    """The leading draws of many streams at once, one lane per stream, taken
    from each stream's first output block (`philox_block`, one column per
    lane) in the order RngStream makes them.

    `integers` is numpy's 32-bit Lemire method on the low half of the next
    word, keeping the high half for the following `integers`; `random` is
    (word >> 11) * 2^-53 of the next whole word. Where Lemire's leftover is
    below 2^32 mod the bound, the scalar method rejects the draw and takes
    more words; such lanes are marked in `unsure` and must be replayed with
    their own RngStream."""

    __slots__ = ("_words", "_taken", "_high", "unsure")

    def __init__(self, words: np.ndarray):
        self._words = words
        self._taken = 0
        self._high: np.ndarray | None = None
        self.unsure = np.zeros(self._words.shape[1], dtype=bool)

    def _next_word(self) -> np.ndarray:
        if self._taken == len(self._words):
            raise ValueError("a round may draw at most one Philox block")
        self._taken += 1
        return self._words[self._taken - 1]

    def integers(self, upper: int) -> np.ndarray:
        """Uniform integers in [0, upper), as RngStream.integers draws them."""
        if not 1 < upper <= 0xFFFFFFFF:
            raise ValueError("upper bound must lie in [2, 2^32)")
        if self._high is None:
            word = self._next_word()
            bits, self._high = word & _LOW32, word >> _32
        else:
            bits, self._high = self._high, None
        product = bits * np.uint64(upper)
        self.unsure |= (product & _LOW32) < np.uint64(2**32 % upper)
        return (product >> _32).astype(np.int64)

    def random(self) -> np.ndarray:
        """Uniform floats in [0, 1), as RngStream.random draws them."""
        return (self._next_word() >> np.uint64(11)).astype(np.float64) * 2.0**-53
