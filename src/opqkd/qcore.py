"""Complex state vectors, orthonormal measurement bases, Born-rule sampling,
and keyed deterministic random streams."""
from __future__ import annotations

import operator
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

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


def joint_amps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Amplitudes of a (x) b, first factor major; row by row for stacks."""
    return (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], a.shape[-1] * b.shape[-1])


def _checked(amps: np.ndarray) -> Ket:
    # Wrap amplitudes already known to form a ket, without checking again.
    amps.setflags(write=False)
    ket = object.__new__(Ket)
    object.__setattr__(ket, "amps", amps)
    return ket


def _unit_kets(dim: int) -> tuple[Ket, ...]:
    """basis_ket(dim, k) for every k: the first checked, the rest rows of one identity."""
    return (basis_ket(dim, 0), *map(_checked, np.eye(dim, dtype=np.complex128)[1:]))


def tensor(a: Ket, b: Ket) -> Ket:
    """Joint state a (x) b; index convention is first-factor-major. The
    product of two checked kets is wrapped without checking it again."""
    return _checked(joint_amps(a.amps, b.amps))


def canonical_phase(ket: Ket) -> Ket:
    """Rotate the global phase so the first non-negligible amplitude is real >= 0."""
    arr = ket.amps
    for a in arr:
        mag = abs(a)
        if mag > 1e-12:
            return Ket(arr * (mag / a))
    return ket


def _canonical_rows(kets: np.ndarray) -> np.ndarray:
    """`canonical_phase` of every row of a matrix of kets, with the same
    numbers: np.hypot is the scalar abs, where np.abs of a complex array
    may differ from it in the last bit."""
    mags = np.hypot(kets.real, kets.imag)
    first = np.argmax(mags > 1e-12, axis=1)
    rows = np.arange(len(kets))
    lead, mag = kets[rows, first], mags[rows, first]
    scale = np.where(mag > 1e-12, mag / np.where(mag > 1e-12, lead, 1.0), 1.0)
    return kets * scale[:, None]


def near_identity(rows: np.ndarray, first: int = 0) -> np.ndarray:
    """np.allclose(rows, I[first:first + r], atol=ATOL_EXACT, rtol=0) for r
    rows of a square identity I, a verdict for each of a stack of such
    blocks, without forming it; `rows` may be overwritten."""
    flat = rows.reshape(-1, rows.shape[-2] * rows.shape[-1])
    flat[:, first :: rows.shape[-1] + 1] -= 1.0
    return np.all(np.abs(flat) <= ATOL_EXACT, axis=1)


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
    """Complete orthonormal basis defining a projective measurement: its
    matrix, one vector per row, checked once; kets and conjugate on first use."""

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
        if not near_identity(mat.conj() @ mat.T):
            raise ValueError("basis vectors are not orthonormal")
        self._hold(mat)

    def _hold(self, mat: np.ndarray) -> None:
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _checked(cls, mat: np.ndarray) -> "MeasurementBasis":
        # The rows of a matrix known to be orthonormal, wrapped as they are.
        basis = object.__new__(cls)
        basis._hold(mat)
        return basis

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MeasurementBasis is immutable")

    @cached_property
    def vectors(self) -> tuple[Ket, ...]:
        return tuple(_checked(row) for row in self.matrix)

    @cached_property
    def _conj_matrix(self) -> np.ndarray:
        return self.matrix.conj()

    @classmethod
    def computational(cls, dim: int) -> "MeasurementBasis":
        return cls(_unit_kets(dim))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def __getitem__(self, k: int) -> Ket:
        return self.vectors[k]


def born_probabilities(state: Ket, basis: MeasurementBasis) -> np.ndarray:
    """Outcome distribution of measuring `state` in `basis`."""
    if state.dim != basis.dim:
        raise ValueError(f"state dimension {state.dim} != basis dimension {basis.dim}")
    return born_rows(basis._conj_matrix, state.amps)


def born_rows(conj_matrix: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """|<v|state>|^2 for every basis vector v, given the conjugated basis
    matrix (one vector per row), for one state's amplitudes or a stack of
    them. Each state is its own matrix-vector product, so a row of a stack
    holds that state's bytes alone; a matrix-matrix product would not."""
    return np.abs(np.matmul(conj_matrix, amps[..., None])[..., 0]) ** 2


def _integer(value) -> int:
    # A count, a label or a seed: operator.index refuses 3.9 and "3", a bool (JSON true) is refused too.
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def key_word(name: str, value: int) -> int:
    """`value` as an int, once it is checked to fit a 64-bit Philox key word."""
    value = _integer(value)
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
    return index, _checked(_canonical_rows(basis.matrix[index:index + 1])[0])


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sorting order of keys, a 2-D array's keys being its rows' bytes, and which of its
    positions start a run of equal keys (np.unique would load numpy.ma on first use). Integer
    keys in [0, 2^16) are sorted as uint16, which numpy radix-sorts."""
    if keys.ndim == 2:  # each row sorted as one np.void, compared with its neighbour as words
        order = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().argsort(kind="stable")
        ordered = keys.view(np.uint64 if keys.itemsize % 8 == 0 else np.uint8)[order]
        first = np.ones(len(keys), dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
        return order, first
    if keys.dtype.kind in "iu" and keys.min(initial=0) >= 0 and keys.max(initial=0) < 2**16:
        keys = keys.astype(np.uint16)
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, first


def _cumulative(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The cumsum and the sum of a distribution, or of each row of a stack.
    total = probs.sum(axis=-1)
    if np.any(total <= 0.0):
        raise ValueError("outcome distribution sums to zero")
    return probs.cumsum(axis=-1), total


def _outcome(cumulative: np.ndarray, target):
    # First outcome whose running total exceeds the target, clamped to the last.
    return np.minimum(cumulative.searchsorted(target, side="right"), len(cumulative) - 1)


def born_sample(rows: Callable[[np.ndarray], np.ndarray], size: int,
                keys: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of measuring state keys[j] with uniform draw u[j], per lane.

    `rows(keys)` gives the outcome distributions of the states named by
    integer keys in [0, size), one row per key. It is asked once, for the
    call's distinct keys in ascending order, and nothing is kept past the
    call. Lanes take their outcomes by `_search`, as `product_sample` does:
    those `projective_measure` takes from the same numbers and draws."""
    wanted = np.zeros(size, dtype=bool)
    wanted[keys] = True
    cumulative, totals = _cumulative(rows(wanted.nonzero()[0]))
    row = (wanted.cumsum() - 1)[keys]
    return _search(cumulative, row, u * totals[row])


_U = 2.0**-53
# Entries formed at once by each step of `product_sample`: candidate masks,
# factor products and the rows of a block of pairs or of flagged lanes.
_BLOCK_FLOATS = 2**20


def _gamma(k: int) -> float:
    return k * _U / (1.0 - k * _U)


def guard_band(n: int) -> float:
    """Largest gap between the joint and the factorised sampling numbers
    for a product basis of n x n: the band in which `product_sample`
    does not trust a factorised row.

    Bob measures a (x) b in the basis A_j (x) B_j, j < m = n^2. The exact
    probabilities are p_j = |<A_j (x) B_j|a (x) b>|^2 = |x_j|^2 |y_j|^2 with
    x_j = <A_j|a> and y_j = <B_j|b>. The joint path (`projective_measure`
    on `bob_basis`) forms the joint kets, takes m-term inner products and
    squares them; the factorised path squares n-term inner products and
    multiplies. Both then take a cumsum C, a sum T and, for a draw r in
    [0, 1), the target r*T. With unit roundoff u = 2^-53 and
    g_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, sections 3.1, 3.3 and 3.6), in any
    order of summation and with or without fused multiply-adds:

    * a complex product is within sqrt(2) g_2 <= g_4 of it, relatively;
    * a complex inner product of length L is within sqrt(2) g_2L sum|x_k y_k|
      <= g_4L |x||y| of it, and (1 + g_i)(1 + g_k) <= 1 + g_(i+k);
    * np.abs of a complex number, by hypot or by the scaled formula
      l sqrt(1 + (s/l)^2), is within g_6 relatively, and its square
      within g_13;
    * a cumsum or sum of m non-negative terms is within g_m of their sum.

    Every ket is normalised to within ATOL_EXACT, so |x_j|, |y_j| <= v =
    1 + ATOL_EXACT and each p_j <= v^4. A computed product of two numbers
    of modulus at most w, each within e, rounded within g, is within
    `_product_error`(e, w, g). So the joint p_j are within eps_J of the
    exact ones, from amplitudes within g_(4m+8) v^2 of theirs (two joint
    kets of products, then an m-term inner product), and the factorised
    ones within eps_F, from factors within eps_1 (n-term inner products
    within g_4n v) multiplied with one rounding. Each C_k and T of a path
    is then within B = m (eps + g_m (v^4 + eps)) of the exact one, and r*T
    within B + u (m (v^4 + eps) + B). The band is the sum of the two
    paths' bounds on |C_k - C'_k| and |r T - r T'|: where the factorised
    target lies further than that from both cumsum entries beside its
    outcome, the joint target lies on the same sides of the joint
    entries, and the outcome is the same. The band is about 20 n^4 u; no
    figure in it is fitted to data."""
    m, v = n * n, 1.0 + ATOL_EXACT
    eps_joint = _product_error(_gamma(4 * m + 8) * v * v, v * v, _gamma(13))
    eps_factored = _product_error(_product_error(_gamma(4 * n) * v, v, _gamma(13)), v * v, _U)
    return _spread(m, eps_joint, v**4) + _spread(m, eps_factored, v**4)


def _product_error(e: float, w: float, g: float) -> float:
    return e * (2.0 * w + e) + g * (w + e) ** 2


def _spread(m: int, eps: float, top: float) -> float:
    cumsum = m * (eps + _gamma(m) * (top + eps))
    return 2.0 * cumsum + _U * (m * (top + eps) + cumsum)


def sure_band(outcomes: int, off: float, on: float, spread: float) -> float:
    """lo such that a draw u in (lo, 1 - lo) decides outcome o of L without a row,
    given exact p_l <= off^2 at every other outcome, p_o >= on^2 and B + B_t <= spread
    (guard_band, `_spread`). Then C_(o-1), T - C_o <= (L-1) off^2 and T >= on^2, so
    x = ((L-1) off^2 + spread) / on^2 < u < 1 - x puts u T' between C'_(o-1) and C'_o;
    lo = 2x covers the rounding of lo and 1 - lo, and keeps u T' over `spread` from both."""
    return 2.0 * ((outcomes - 1) * off * off + spread) / (on * on)


def seat_band(n: int) -> float:
    """`sure_band` of B_i in the intercept's basis for an A outcome B_i overlaps, whose
    row v, B_i's seat, is B_i up to phase. Row R_w = s_w B_k (1 + t), |t| <= g_4, is a kept
    part in canonical phase. Parts are Kets and rows passed the Gram check, so |x|^2 is
    within nu of 1, |x||y| <= w = 1 + 3 nu and |s_w| is within 3 nu of 1. The oblique check
    refuses two kept parts alike to B_i (they would overlap by over 1 - 1e-4), so B_i's computed
    overlap c with every other row's part (or one within rounding of the Gram check's) is at most
    ATOL_STATE; |<x|y>| is within c / (1 -+ g_6) -+ g_4n w, and rows lie within _product_error(g_4n w, w, g_13)."""
    nu = (ATOL_EXACT + _gamma(4 * n)) / (1.0 - _gamma(4 * n))
    w, slack = 1.0 + 3.0 * nu, _gamma(4 * n + 4) * (1.0 + 3.0 * nu)
    off = w * (ATOL_STATE / (1.0 - _gamma(6)) + slack)
    on = (1.0 - 3.0 * nu) * ((1.0 - ATOL_STATE) / (1.0 + _gamma(6)) - slack)
    return sure_band(n, off, on, _spread(n, _product_error(_gamma(4 * n) * w, w, _gamma(13)), w * w))


def _search(cumulative: np.ndarray, rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    """`_outcome(cumulative[rows[j]], target[j])` for every lane j, by one
    binary search over all lanes at once: the number of entries up to
    the target among the first m - 1 of its row. A cumsum never decreases,
    so that is `_outcome`'s clamped count, also on a target equal to an entry."""
    m = cumulative.shape[1]
    flat, start = cumulative.reshape(-1), rows * m
    pos, size = start, m - 1
    while size > 1:
        half = size // 2
        pos = np.where(flat[pos + half] <= target, pos + half, pos)
        size -= half
    return pos - start + (flat[pos] <= target)


def _label_runs(parts: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of labels with equal supports starts, then the label count; and each
    particle's run supports as float32 columns. An entry is nonzero where its real or imaginary word is."""
    nonzero = np.concatenate([amps.view(np.float64) != 0 for amps in parts], axis=1).view(np.uint16) != 0
    start = np.ones(len(nonzero) + 1, dtype=bool)
    np.any(nonzero[1:] != nonzero[:-1], axis=1, out=start[1:-1])
    edges = start.nonzero()[0]
    return edges, nonzero[edges[:-1]].T.astype(np.float32).reshape(2, -1, len(edges) - 1)


def _candidate_rows(parts: tuple[np.ndarray, np.ndarray], kets: tuple[np.ndarray, np.ndarray],
                    i: np.ndarray, k: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The Born rows of kets[0][i[r]] (x) kets[1][k[r]] in the basis parts[0][l]
    (x) parts[1][l], in blocks of pairs r: (first r, labels, counts, cumulative).
    Row q holds pair r + q's counts[q] candidates, the labels whose parts'
    supports meet its kets' on both particles, in ascending order, and the
    cumsum of their p_l, padded with zeros. Any other label's p_l is exactly 0
    in the dense row, as each term of one of its inner products has a zero
    factor, and adding 0.0 changes no entry: the last entry is the total."""
    m = len(parts[0])
    if not len(i):
        return
    # a pair meets a run where the overlap counts, small integers, are not 0
    edges, meet = _label_runs(parts)
    step = max(1, _BLOCK_FLOATS // (len(edges) - 1))
    found = [(lo, *((kets[0][i[lo:lo + step]] != 0) @ meet[0] * ((kets[1][k[lo:lo + step]] != 0) @ meet[1])).nonzero())
             for lo in range(0, len(i), step)]
    pair, met = (np.concatenate(column) for column in zip(*[(lo + r, c) for lo, r, c in found]))
    size = edges[met + 1] - edges[met]
    offset = size.cumsum() - size
    label = np.arange(offset[-1] + size[-1]) + (edges[met] - offset).repeat(size)
    probs, owner = np.ones(len(label)), pair.repeat(size)  # owner: each candidate's pair
    for amps, ket, index in zip(parts, kets, (i, k)):
        used = np.zeros(len(ket), dtype=bool)
        used[index] = True
        if np.count_nonzero(used) * m <= _BLOCK_FLOATS:
            # few kets: every label's factor, conjugated, from one product: exact conjugates, same moduli
            probs *= np.abs((ket[used].conj() @ amps.T)[(used.cumsum() - 1)[index[owner]], label]) ** 2
            continue
        # else each run's factors for the pairs that meet it, from one product
        order, first = _runs(met)
        for runs in np.split(order, np.flatnonzero(first)[1:]):
            labels = np.arange(edges[met[runs[0]]], edges[met[runs[0]] + 1])
            step = max(1, _BLOCK_FLOATS // len(labels))
            for lo in range(0, len(runs), step):
                at = offset[runs[lo:lo + step]] + np.arange(len(labels))[:, None]
                probs[at] *= np.abs(amps[labels].conj() @ ket[index[pair[runs[lo:lo + step]]]].T) ** 2
    counts = np.bincount(owner, minlength=len(i))
    start = counts.cumsum() - counts
    step = max(1, _BLOCK_FLOATS // int(counts.max()))
    for lo in range(0, len(i), step):
        block = counts[lo:lo + step]
        fill = np.arange(block.max()) < block[:, None]  # row-major: each pair's candidates in order
        cumulative, labels = np.zeros(fill.shape), np.zeros(fill.shape, dtype=np.int64)
        entries = slice(start[lo], start[lo] + block.sum())
        cumulative[fill], labels[fill] = probs[entries], label[entries]
        yield lo, labels, block, cumulative.cumsum(axis=1, out=cumulative)


def joint_rows(parts: tuple[np.ndarray, np.ndarray], amps: np.ndarray) -> np.ndarray:
    """`born_rows` of the basis parts[0][l] (x) parts[1][l] for a stack of kets, as
    the whole matrix gives them: from the conjugated parts, in blocks of rows of
    about _BLOCK_FLOATS entries, never of one row, which may differ."""
    m = len(parts[0])
    probs = np.empty((*amps.shape[:-1], m))
    for rows in np.array_split(np.arange(m), min(m // 2, -(-m * m // _BLOCK_FLOATS))):
        probs[..., rows] = born_rows(joint_amps(parts[0][rows].conj(), parts[1][rows].conj()), amps)
    return probs


def product_sample(parts: tuple[np.ndarray, np.ndarray], kets: tuple[np.ndarray, np.ndarray],
                   i: np.ndarray, k: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, int]:
    """Outcome of measuring kets[0][i[j]] (x) kets[1][k[j]] with uniform draw
    u[j] in the basis parts[0][l] (x) parts[1][l], per lane, and how many lanes
    were flagged; nothing is kept past the call. A lane is flagged when its
    target u*total lies within `guard_band` of an entry beside its outcome in
    the dense row (the previous candidate's, 0.0 before the first candidate,
    -inf at label 0; its own, +inf at the last label), and then takes its outcome
    from its joint row, `joint_rows` of _BLOCK_FLOATS // m lanes at a time.
    A lane measuring its own basis vector (kets the parts, i = k) takes label i for u in the
    `sure_band` of off = d, on = 1 - d, spread guard_band(n), d the checked Gram's bound."""
    (m, n), band, rest = parts[0].shape, guard_band(parts[0].shape[1]), slice(None)
    if kets[0] is parts[0] and kets[1] is parts[1]:
        d = ATOL_EXACT + _product_error(_gamma(4 * n) * (1.0 + ATOL_EXACT), 1.0 + ATOL_EXACT, _gamma(4))
        edge = sure_band(m, d, 1.0 - d, band)
        rest = ((i != k) | (u <= edge) | (u >= 1.0 - edge)).nonzero()[0]
    out, i, k, u = np.array(i, dtype=np.int64), i[rest], k[rest], u[rest]
    keys = i * len(kets[1]) + k
    order, first = _runs(keys)
    row = first.cumsum() - 1
    outcomes, close = np.empty(len(keys), dtype=np.int64), np.zeros(len(keys), dtype=bool)
    for lo, labels, counts, cumulative in _candidate_rows(parts, kets, *np.divmod(keys[order[first]], len(kets[1]))):
        a, b = row.searchsorted((lo, lo + len(counts)))
        lanes, r = order[a:b], row[a:b] - lo
        target = u[lanes] * cumulative[r, -1]
        pos = np.minimum(_search(cumulative, r, target), counts[r] - 1)
        outcomes[lanes] = label = labels[r, pos]
        below = np.where(pos > 0, cumulative[r, np.maximum(pos - 1, 0)], np.where(label > 0, 0.0, -np.inf))
        above = np.where(label < m - 1, cumulative[r, pos], np.inf)
        close[lanes] = (target - below <= band) | (above - target <= band)
    flagged, step = close.nonzero()[0], max(1, _BLOCK_FLOATS // m)
    for lanes in (flagged[lo:lo + step] for lo in range(0, len(flagged), step)):
        exact, total = _cumulative(joint_rows(parts, joint_amps(kets[0][i[lanes]], kets[1][k[lanes]])))
        outcomes[lanes] = _search(exact, np.arange(len(lanes)), u[lanes] * total)
    out[rest] = outcomes
    return out, len(flagged)


# Philox4x64-10 (Salmon et al., SC'11). _PHILOX holds each row's round
# multiplier, its low and high 32-bit limbs and its key increment, as ints:
# numpy arrays made at import raise each run's peak RSS.
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX = (_M, [m & 0xFFFFFFFF for m in _M], [m >> 32 for m in _M], (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(x, limbs, hi, a, b, c):
    # hi, x = high and low words of m * x by Hacker's Delight 8-2; a, b, c: scratch
    m, m_lo, m_hi = limbs
    np.bitwise_and(x, _LOW32, out=a)
    np.right_shift(x, _32, out=hi)
    np.multiply(a, m_lo, out=b)
    b >>= _32
    np.multiply(hi, m_lo, out=c)
    c += b
    np.bitwise_and(c, _LOW32, out=b)
    c >>= _32
    a *= m_hi
    b += a
    b >>= _32
    hi *= m_hi
    hi += c
    hi += b
    x *= m


def philox_block(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """First output block of every stream (seed, id): Philox4x64-10 with key
    (seed, id) and counter (1, 0, 0, 0). Row k holds word k of each stream,
    the k-th 64-bit word RngStream(seed, id) draws.

    A round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2),
    hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), then adds (W0, W1) to the key. Every
    lane starts from the same counter, so round 0 gives (seed, 0, id, M0)
    with no product, and round 1's M0 seed is one Python int for all lanes;
    integer arithmetic is exact, so the words are those of the full rounds."""
    ids = np.asarray(stream_ids, dtype=np.uint64)
    seed = key_word("seed", seed)
    # rows: x is (c0, c2), low (c1, c3) and key (k0, k1)
    x, low, key, hi, a, b, c = np.empty((7, 2, len(ids)), dtype=np.uint64)
    *limbs, w = np.array(_PHILOX, dtype=np.uint64)[..., None]
    high0, low[1] = divmod(_M[0] * seed, _MAX_UINT64)
    key[0], key[1], x[1], low[0] = seed, ids, high0 ^ _M[0], ids
    key += w
    _mulhilo(low[0], [v[1] for v in limbs], x[0], a[0], b[0], c[0])
    x ^= key
    for _ in range(2, _PHILOX_ROUNDS):
        key += w
        _mulhilo(x, limbs, hi, a, b, c)
        hi ^= low[::-1]
        hi ^= key[::-1]
        # hi holds the new (c2, c0), x the new (c3, c1)
        x, low, hi = hi[::-1], x[::-1], low
    return np.stack([x[0], low[0], x[1], low[1]])


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
