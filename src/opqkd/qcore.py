"""Complex state vectors, orthonormal measurement bases, Born-rule sampling,
and keyed deterministic random streams."""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


def tensor(a: Ket, b: Ket) -> Ket:
    """Joint state a (x) b; index convention is first-factor-major. The
    product of two checked kets is wrapped without checking it again."""
    amps = np.multiply.outer(a.amps, b.amps).reshape(-1)
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
    amps = basis._conj_matrix @ state.amps
    return np.abs(amps) ** 2


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Counter-based (Philox), so every (seed, stream_id) pair names an
    independent stream whose draw sequence is reproducible regardless of
    what other streams were consumed.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < _MAX_UINT64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        if not 0 <= stream_id < _MAX_UINT64:
            raise ValueError(f"stream_id must be in [0, 2^64), got {stream_id}")
        key = np.array([seed, stream_id], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_id", stream_id)
        object.__setattr__(self, "_gen", gen)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("RngStream identity is immutable")

    @classmethod
    def consecutive(cls, seed: int, count: int) -> Iterator["RngStream"]:
        """The streams (seed, 0), ..., (seed, count - 1), in order. They give
        the same draws as streams built one by one, but are one object whose
        generator is re-keyed in place: each is valid until the next is taken."""
        stream = cls(seed, 0)
        state = stream._gen.bit_generator.state  # zero counter, empty buffers
        for stream_id in range(count):
            state["state"]["key"][1] = stream_id
            stream._gen.bit_generator.state = state
            object.__setattr__(stream, "stream_id", stream_id)
            yield stream

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
    probs = born_probabilities(state, basis)
    total = float(probs.sum())
    if total <= 0.0:
        raise ValueError("outcome distribution sums to zero")
    u = rng.random() * total
    cumulative = probs.cumsum()
    index = int(cumulative.searchsorted(u, side="right"))
    index = min(index, len(basis) - 1)
    return index, basis._canonical[index]
