"""Orthogonal product-state sets on an n x n grid.

A set is described by a tiling of the grid: each tile occupies cells in a
single row or column (or one cell), and hosts as many mutually orthogonal
product states as it has cells. The nine-state 3x3 family is parameterized;
larger sets wrap rings of four tiles around a small core.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidSetError, UnsupportedDimensionError
from .qcore import (
    ATOL_EXACT,
    ATOL_STATE,
    Ket,
    MeasurementBasis,
    _checked,
    _runs,
    joint_amps,
    near_identity,
    tensor,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# The most memory a run may use, and the largest n it allows. Only the reference
# `bob_basis` forms an n^2 x n^2 array: at n = 64 `simulate` peaks at 53-159 MiB
# (20,000 rounds) and 81-99 MiB (200, every lane flagged). The ceiling stays at
# 64 until the relabelled symmetry search of `validate --set-file` is bounded.
MEMORY_BUDGET_BYTES = 2 * 2**30
MAX_DIM = 64
# Entries formed at once by each product of a set's checks.
_GRAM_BLOCK = 2**20


def check_dim(what: str, n: int) -> int:
    """n, once it is checked not to exceed the dimension ceiling MAX_DIM."""
    if n > MAX_DIM:
        raise UnsupportedDimensionError(
            f"{what} {n} exceeds {MAX_DIM}, the largest dimension supported")
    return n


def _integer(value) -> int:
    # A count or a label: operator.index refuses 3.9 and "3"; JSON true would
    # pass it as 1.
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _unit_pair(x: complex, y: complex, names: str) -> None:
    try:
        s = abs(x) ** 2 + abs(y) ** 2
    except OverflowError:
        s = math.inf
    if not abs(s - 1.0) <= ATOL_EXACT:  # a nan sum fails too
        raise ValueError(f"|{names[0]}|^2 + |{names[1]}|^2 = {s!r}, expected 1")


@dataclass(frozen=True)
class SetParameters:
    """Complex amplitudes (a..h) of the 3x3 family; each of the four pairs
    (a,b), (c,d), (e,f), (g,h) must have unit combined modulus."""

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    g: complex
    h: complex

    def __post_init__(self) -> None:
        _unit_pair(self.a, self.b, "ab")
        _unit_pair(self.c, self.d, "cd")
        _unit_pair(self.e, self.f, "ef")
        _unit_pair(self.g, self.h, "gh")

    @classmethod
    def symmetric(cls) -> "SetParameters":
        """The balanced point: every amplitude 1/sqrt(2)."""
        return cls(*([complex(_SQRT_HALF)] * 8))

    def as_tuple(self) -> tuple[complex, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f, self.g, self.h)


@dataclass(frozen=True, eq=False)
class Tile:
    """A run of grid cells in one row or column, hosting one orthonormal
    family of product states.

    cells are (a, b) grid coordinates in host order; amplitudes[k, t] is the
    weight of hosted state k on cells[t]; state_indices[k] is that state's
    label in the full set. For orientation "row" all cells share a ==
    fixed_index; for "col" all share b == fixed_index; a singleton has one
    cell and fixed_index equal to its row.
    """

    orientation: str
    fixed_index: int
    cells: tuple[tuple[int, int], ...]
    amplitudes: np.ndarray
    state_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.orientation not in ("row", "col", "singleton"):
            raise ValueError(f"unknown tile orientation {self.orientation!r}")
        try:
            object.__setattr__(self, "fixed_index", _integer(self.fixed_index))
        except TypeError as exc:
            raise ValueError(f"tile fixed_index must be an integer: {exc}") from None
        cells = tuple((_integer(a), _integer(b)) for a, b in self.cells)
        object.__setattr__(self, "cells", cells)
        if len(set(cells)) != len(cells):
            raise ValueError("tile cells must be distinct")
        if not cells:
            raise ValueError("tile needs at least one cell")
        if self.orientation == "singleton":
            if len(cells) != 1:
                raise ValueError("singleton tile must have exactly one cell")
            if self.fixed_index != cells[0][0]:
                raise ValueError("singleton fixed_index must be its row index")
        elif self.orientation == "row":
            if any(a != self.fixed_index for a, _ in cells):
                raise ValueError("row tile cells must share the fixed row index")
        else:
            if any(b != self.fixed_index for _, b in cells):
                raise ValueError("col tile cells must share the fixed column index")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        length = len(cells)
        if amps.shape != (length, length):
            raise ValueError(f"amplitude matrix must be {length}x{length}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("tile amplitudes must be finite")
        if not near_identity(amps.conj() @ amps.T):
            raise ValueError("tile amplitude matrix must be unitary")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        indices = tuple(_integer(k) for k in self.state_indices)
        object.__setattr__(self, "state_indices", indices)
        if len(indices) != length or len(set(indices)) != length:
            raise ValueError("tile must host exactly one state label per cell")

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, eq=False)
class DominoLayout:
    """A tiling of the n x n grid by row/column runs and singletons."""

    n: int
    tiles: tuple[Tile, ...]

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 2:
            raise ValueError("layout dimension must be at least 2")
        object.__setattr__(self, "n", n)
        tiles = tuple(self.tiles)
        object.__setattr__(self, "tiles", tiles)
        covered: set[tuple[int, int]] = set()
        labels: set[int] = set()
        for tile in tiles:
            if len(tile) > 1 and len(tile) > n - 1:
                raise ValueError("a multi-cell tile may span at most n-1 cells")
            for a, b in tile.cells:
                if not (0 <= a < n and 0 <= b < n):
                    raise ValueError(f"cell ({a}, {b}) outside the {n}x{n} grid")
                if (a, b) in covered:
                    raise ValueError(f"cell ({a}, {b}) covered twice")
                covered.add((a, b))
            labels.update(tile.state_indices)
        if len(covered) != n * n:
            raise ValueError("tiles must cover the whole grid")
        if labels != set(range(n * n)):
            raise ValueError("hosted state labels must be exactly 0..n^2-1")


@dataclass(frozen=True, eq=False)
class ProductState:
    """One labeled product state: particle A carries ket_a, particle B ket_b."""

    index: int
    ket_a: Ket
    ket_b: Ket

    def joint(self) -> Ket:
        return tensor(self.ket_a, self.ket_b)


def _tile_amps(n: int, tiles: Sequence[Tile], particle: int, conj: bool = False) -> np.ndarray:
    """The parts on particle A (0) or B (1) of the states the tiles host, or
    their conjugates, one row per label, read-only. A column tile spreads its
    A-parts over its rows and fixes B; a row tile or a singleton fixes A at
    its row and spreads its B-parts over its columns."""
    amps = np.zeros((n * n, n), dtype=np.complex128)
    for tile in tiles:
        lines = [cell[particle] for cell in tile.cells]
        if (tile.orientation == "col") != particle:
            part = tile.amplitudes.conj() if conj else tile.amplitudes
            amps[np.array(tile.state_indices)[:, None], lines] = part
        else:
            amps[tile.state_indices, lines[0]] = 1.0
    amps.setflags(write=False)
    return amps


def states_from_tiles(n: int, tiles: Sequence[Tile]) -> tuple[ProductState, ...]:
    """Realize every tile's hosted states as explicit product states, in
    label order; the labels must be exactly 0..n^2-1. Each `Tile` has checked
    its amplitudes unitary at ATOL_EXACT, so every part is a unit vector and
    is wrapped without checking it again, as `tensor` wraps its product."""
    if sorted(k for tile in tiles for k in tile.state_indices) != list(range(n * n)):
        raise ValueError("hosted state labels must be exactly 0..n^2-1")
    return tuple(ProductState(i, _checked(a), _checked(b))
                 for i, (a, b) in enumerate(zip(_tile_amps(n, tiles, 0), _tile_amps(n, tiles, 1))))


def _components(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    # For each support group, the least group joined to it through groups
    # whose cells meet, that is whose A-supports and B-supports both overlap
    # (overlap counts are small integers, exact as float32). Each label falls
    # to the least label it meets, the first met in label order, _GRAM_BLOCK
    # pairs at a time, until none falls or all have reached 0.
    fa, fb = sa.astype(np.float32), sb.astype(np.float32)
    label = np.arange(len(sa))
    step = max(1, _GRAM_BLOCK // len(sa))
    while True:
        by = np.argsort(label, kind="stable")
        pa, pb = fa[by].T, fb[by].T
        met = [((fa[lo:lo + step] @ pa > 0) & (fb[lo:lo + step] @ pb > 0)).argmax(axis=1)
               for lo in range(0, len(sa), step)]
        new = label[by][np.concatenate(met)]
        new = new[new]
        if np.array_equal(new, label) or not new.any():
            return new
        label = new


def _support_groups(nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group and each group's pattern: one `_runs` over the packed rows."""
    packed = np.packbits(nonzero, axis=1)
    order, first = _runs(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return group, nonzero[order[first]]


def _joint_gram_ok(amps_a: np.ndarray, amps_b: np.ndarray) -> bool:
    # <A_i (x) B_i|A_j (x) B_j> = <A_i|A_j> <B_i|B_j> is exactly 0 unless the
    # grid cells of state i, the product of its parts' supports, meet those of
    # state j. So the states are grouped by the supports of both parts, and
    # the Gram matrix is checked on the components that shared cells join,
    # components of one size together, at most _GRAM_BLOCK entries at once:
    # the tiles of a tiling, or all states when they share one wide support.
    n = amps_a.shape[1]
    group, support = _support_groups(np.concatenate([amps_a != 0, amps_b != 0], axis=1))
    comp = _components(support[:, :n], support[:, n:])[group]
    size = np.bincount(comp)[comp]
    order = np.argsort(size * len(comp) + comp, kind="stable")
    ends = np.flatnonzero(np.diff(size[order], append=0)) + 1
    for lo, hi in zip(np.append(0, ends[:-1]), ends):
        k = size[order[lo]]
        xa, xb = (amps[order[lo:hi].reshape(-1, k)] for amps in (amps_a, amps_b))
        step = max(1, _GRAM_BLOCK // k)
        span = max(1, step // k)
        for c in range(0, len(xa), span):
            for top in range(0, k, step):
                gram = xa[c:c + span, top:top + step].conj() @ xa[c:c + span].transpose(0, 2, 1)
                gram *= xb[c:c + span, top:top + step].conj() @ xb[c:c + span].transpose(0, 2, 1)
                if not near_identity(gram, top):
                    return False
    return True


class StateSet:
    """A complete orthogonal set of n^2 product states plus its layout.

    amps_a and amps_b, the states' parts one row each, are all it keeps: state
    i is formed on request as views of row i, the joint states on each call."""

    __slots__ = ("layout", "amps_a", "amps_b")

    def __init__(self, states: Sequence[ProductState], layout: DominoLayout):
        states = tuple(states)
        n = layout.n
        if len(states) != n * n:
            raise InvalidSetError(f"expected {n * n} states, got {len(states)}")
        for pos, st in enumerate(states):
            if st.index != pos:
                raise InvalidSetError("states must be listed in label order")
            if st.ket_a.dim != n or st.ket_b.dim != n:
                raise InvalidSetError("subsystem dimension must match the layout")
        self._hold(np.concatenate([st.ket_a.amps for st in states]).reshape(-1, n),
                   np.concatenate([st.ket_b.amps for st in states]).reshape(-1, n), layout)

    @classmethod
    def _from_layout(cls, layout: DominoLayout) -> "StateSet":
        # The tiles' own part arrays: each Tile checked its amplitudes, DominoLayout the labels.
        state_set = object.__new__(cls)
        state_set._hold(_tile_amps(layout.n, layout.tiles, 0), _tile_amps(layout.n, layout.tiles, 1), layout)
        return state_set

    def _hold(self, amps_a: np.ndarray, amps_b: np.ndarray, layout: DominoLayout) -> None:
        if not _joint_gram_ok(amps_a, amps_b):
            raise InvalidSetError("joint states must form a complete orthonormal set")
        self._check_layout_consistency(amps_a, amps_b, layout)
        amps_a.setflags(write=False)
        amps_b.setflags(write=False)
        for name, value in zip(self.__slots__, (layout, amps_a, amps_b)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("StateSet is immutable")

    @staticmethod
    def _check_layout_consistency(amps_a: np.ndarray, amps_b: np.ndarray, layout: DominoLayout) -> None:
        # Each state's parts must be its tile's up to global phase, row by row.
        ok = [np.abs(np.abs(np.einsum("ij,ij->i", _tile_amps(layout.n, layout.tiles, p, True), amps)) - 1.0)
              <= ATOL_STATE for p, amps in enumerate((amps_a, amps_b))]
        wrong = np.flatnonzero(~(ok[0] & ok[1]))
        if len(wrong):
            raise InvalidSetError(f"state {wrong[0]} does not match its tile")

    @property
    def joint_matrix(self) -> np.ndarray:
        """The joint states, one row each: the numbers of `bob_basis`."""
        return joint_amps(self.amps_a, self.amps_b)

    @property
    def n(self) -> int:
        return self.layout.n

    states = property(tuple)  # tuple(self): every state, formed on request

    def __len__(self) -> int:
        return len(self.amps_a)

    def __iter__(self) -> Iterator[ProductState]:
        return map(ProductState, range(len(self)), map(_checked, self.amps_a), map(_checked, self.amps_b))

    def __getitem__(self, index: int) -> ProductState:
        i = range(len(self))[index]
        return ProductState(i, _checked(self.amps_a[i]), _checked(self.amps_b[i]))


def _pair_tile(
    orientation: str,
    fixed: int,
    cells: tuple[tuple[int, int], tuple[int, int]],
    x: complex,
    y: complex,
    labels: tuple[int, int],
) -> Tile:
    amps = np.array([[x, y], [np.conj(y), -np.conj(x)]])
    return Tile(orientation, fixed, cells, amps, labels)


def build_3x3(params: SetParameters | None = None) -> StateSet:
    """The parameterized nine-state set on the 3x3 grid.

    Four two-cell tiles wind around the corner cell (0, 0): a row pair at
    a=1, a column pair at b=2, a row pair at a=2 and a column pair at b=1,
    each carrying one unit pair of the parameters.
    """
    p = params if params is not None else SetParameters.symmetric()
    tiles = (
        _pair_tile("row", 1, ((1, 1), (1, 0)), p.a, p.b, (0, 1)),
        _pair_tile("col", 2, ((1, 2), (0, 2)), p.c, p.d, (2, 3)),
        _pair_tile("row", 2, ((2, 0), (2, 2)), p.e, p.f, (4, 5)),
        _pair_tile("col", 1, ((0, 1), (2, 1)), p.g, p.h, (6, 7)),
        Tile("singleton", 0, ((0, 0),), np.array([[1.0]]), (8,)),
    )
    return StateSet._from_layout(DominoLayout(3, tiles))


def _fourier_amps(length: int) -> np.ndarray:
    k = np.arange(length)
    return np.exp(2j * np.pi * np.outer(k, k) / length) / math.sqrt(length)


def _ring(o: int, s: int, amps: np.ndarray, first: int) -> list[Tile]:
    # Four runs of s - 1 cells winding around the s x s square whose corner
    # is (o, o), hosting labels first .. first + 4(s - 1) - 1.
    far = o + s - 1
    run, rest = range(o, far), range(o + 1, far + 1)
    labels = np.arange(first, first + 4 * (s - 1)).reshape(4, -1)
    return [
        Tile("row", o, tuple((o, b) for b in run), amps, labels[0]),
        Tile("col", far, tuple((a, far) for a in run), amps, labels[1]),
        Tile("row", far, tuple((far, b) for b in rest), amps, labels[2]),
        Tile("col", o, tuple((a, o) for a in rest), amps, labels[3]),
    ]


def _symmetric_tiles(n: int) -> tuple[Tile, ...]:
    # The core, then rings from the inside out: the ring of side s sits at
    # offset (n - s) / 2 and hosts labels (s - 2)^2 .. s^2 - 1. The 3x3 core
    # is a ring of balanced pairs around a singleton labelled 8.
    if n % 2:
        o, h = (n - 3) // 2, _SQRT_HALF
        tiles = _ring(o, 3, np.array([[h, h], [h, -h]]), 0)
        tiles.append(Tile("singleton", o + 1, ((o + 1, o + 1),), np.array([[1.0]]), (8,)))
    else:
        o = (n - 2) // 2
        tiles = [Tile("singleton", a, ((a, b),), np.array([[1.0]]), (2 * (a - o) + b - o,))
                 for a in (o, o + 1) for b in (o, o + 1)]
    for s in range(5 if n % 2 else 4, n + 1, 2):
        tiles += _ring((n - s) // 2, s, _fourier_amps(s - 1), (s - 2) ** 2)
    return tuple(tiles)


def build_symmetric(n: int) -> StateSet:
    """Complete orthogonal product set on the n x n grid (n >= 3), built by
    wrapping a ring of four length-(n-1) tiles around the (n-2) construction.

    Ring tiles carry discrete-Fourier amplitudes; the 3x3 core is the
    balanced nine-state set and the 4x4 core is a 2x2 block of basis states
    inside its ring. The layout maps to itself under a quarter turn.
    """
    if n < 3:
        raise UnsupportedDimensionError(
            f"no such construction for dimension {n}: a complete orthogonal "
            "product set needs n >= 3"
        )
    return StateSet._from_layout(DominoLayout(n, _symmetric_tiles(n)))


@dataclass(frozen=True)
class ConditionReport:
    """Per-state distinguishability checks: ok_a[i] means some other state's
    A-part is neither equivalent nor orthogonal to state i's A-part."""

    n: int
    ok_a: tuple[bool, ...]
    ok_b: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.ok_a) and all(self.ok_b)

    def failures(self) -> tuple[tuple[int, str], ...]:
        out = [(i, "A") for i, ok in enumerate(self.ok_a) if not ok]
        out += [(i, "B") for i, ok in enumerate(self.ok_b) if not ok]
        return tuple(sorted(out))


def _oblique_partners(amps: np.ndarray, width: np.ndarray) -> tuple[bool, ...]:
    # Whether each row has a partner neither equivalent nor orthogonal to it.
    # Rows with the same bytes are equivalent and share one answer. The rows
    # still open meet the others narrowest support first, _GRAM_BLOCK / 8
    # |overlaps| at a time, and leave once they have a partner: on a tiling,
    # a part on one line is oblique to each part spread across that line.
    order, first = _runs(amps.view(np.dtype((np.void, amps.itemsize * amps.shape[1]))).ravel())
    found = np.zeros(len(amps), dtype=bool)
    open_ = order[first]
    rows = amps[open_]
    partners = open_[np.argsort(width[open_], kind="stable")]
    done = 0
    while len(open_) and done < len(partners):
        block = partners[done:done + max(1, _GRAM_BLOCK // 8 // len(open_))]
        overlaps = np.abs(rows @ amps[block].conj().T)
        hit = np.any((overlaps > ATOL_STATE) & (np.abs(overlaps - 1.0) > ATOL_STATE), axis=1)
        if hit.any():
            found[open_[hit]] = True
            open_, rows = open_[~hit], rows[~hit]
        done += len(block)
    found[order] = found[order[first][np.cumsum(first) - 1]]
    return tuple(found.tolist())


def check_conditions(state_set: StateSet) -> ConditionReport:
    """Check that no single-particle measurement can pin down any state:
    every state must have, on each subsystem, a partner that is neither
    equivalent nor orthogonal to it."""
    ok_a, ok_b = (_oblique_partners(amps, np.count_nonzero(amps, axis=1))
                  for amps in (state_set.amps_a, state_set.amps_b))
    return ConditionReport(state_set.n, ok_a, ok_b)


def _tile_cellsets(layout: DominoLayout) -> list[frozenset[tuple[int, int]]]:
    return [frozenset(t.cells) for t in layout.tiles]


def _invariant_under(cellsets: list[frozenset[tuple[int, int]]], image) -> bool:
    seen = set(cellsets)
    return all(frozenset(image(c) for c in tile) in seen for tile in cellsets)


def _refine(cells, pair):
    # Colour refinement of the tiling graph (lines and tiles, joined through
    # the cells) under two colourings at once: a vertex's new colour is its
    # old one plus the colours its cells meet. Signatures are named jointly,
    # so a map sending each colour class of the first colouring onto that
    # of the second survives. None when the class sizes stop agreeing.
    while True:
        sigs = []
        for colour in pair:
            seen: list[list[tuple[int, int]]] = [[] for _ in colour]
            for r, c, t in cells:
                x, y, z = colour[r], colour[c], colour[t]
                seen[r].append((y, z))
                seen[c].append((x, z))
                seen[t].append((min(x, y), max(x, y)))
            sigs.append([(x, tuple(sorted(s))) for x, s in zip(colour, seen)])
        names: dict = {}
        new = tuple([names.setdefault(s, len(names)) for s in sig] for sig in sigs)
        if sorted(new[0]) != sorted(new[1]):
            return None
        if len(names) == len(set(pair[0]) | set(pair[1])):
            return new
        pair = new


def _cycles_possible(n: int, g: list[int], images: dict[int, list[int]]) -> bool:
    # phi maps the g-class of each colour onto its h-class, images[colour].
    # Where that h-class is a whole g-class, phi permutes classes; such a
    # class cycle must have length 2 or 4, and an odd class on a 2-cycle
    # forces a 2-cycle of phi, of which n % 2 are allowed.
    members: dict[int, list[int]] = {}
    for v in range(2 * n):
        members.setdefault(g[v], []).append(v)
    step = {}
    for c, us in images.items():
        d = g[us[0]]
        if len(members[d]) == len(us) and all(g[u] == d for u in us):
            step[c] = d
    odd = 0
    for c, vs in members.items():
        x, k = c, 0
        while k < 4 and x in step:
            x, k = step[x], k + 1
            if x == c:
                break
        if x != c and k == 4:
            return False
        if x == c and k == 2 and vs[0] < n:
            odd += len(vs) % 2
    return odd <= n % 2


def _twin_classes(layout: DominoLayout) -> list[int]:
    # Two rows (or two columns) are twins when swapping them maps every tile
    # to a tile: at each crossing line they meet the same crossing tile, or
    # one-cell tiles, or tiles lying along them with the same extent.
    tile_of = {cell: k for k, t in enumerate(layout.tiles) for cell in t.cells}
    keys: dict = {}
    out = []
    for axis in (0, 1):
        for line in range(layout.n):
            key = []
            for other in range(layout.n):
                k = tile_of[(line, other) if axis == 0 else (other, line)]
                cells = layout.tiles[k].cells
                if len(cells) == 1:
                    key.append(-1)
                elif all(c[axis] == line for c in cells):
                    key.append(frozenset(c[1 - axis] for c in cells))
                else:
                    key.append(k)
            out.append(keys.setdefault(tuple(key), len(keys)))
    return out


def _find_relabeled_rotation(layout: DominoLayout, cells, twins: list[int], pair) -> bool:
    # Lines are vertices 0..2n-1 (rows, then columns). pair[0] colours the
    # tiling graph and pair[1] the same graph with row and column types
    # swapped; a symmetry phi sends each pair[0]-class onto the pair[1]-class
    # of the same colour, so fixing one image and refining again narrows
    # every other class. Once every line's image is fixed, _cycles_possible
    # has checked the cycle type exactly and the tile check confirms phi.
    n = layout.n
    pair = _refine(cells, pair)
    if pair is None:
        return False
    g, h = pair
    images: dict[int, list[int]] = {}
    for u in range(2 * n):
        images.setdefault(h[u], []).append(u)
    if not _cycles_possible(n, g, images):
        return False
    open_lines = [v for v in range(2 * n) if len(images[g[v]]) > 1]
    if not open_lines:
        beta = [images[g[i]][0] - n for i in range(n)]
        alpha = [images[g[n + j]][0] for j in range(n)]
        image = lambda cell: (alpha[cell[1]], beta[cell[0]])
        return _invariant_under(_tile_cellsets(layout), image)
    # Branch on the image of one line, preferring the open end of a chain of
    # forced images so that cycles close, or fail to, early. Two candidate
    # images that are twins and share both colours are conjugate by their
    # swap, which keeps the cycle type, so one of them stands for both.
    ends = [images[g[u]][0] for u in range(2 * n) if len(images[g[u]]) == 1]
    v0 = min((v for v in ends if v in open_lines), default=None)
    if v0 is None:
        v0 = min(open_lines, key=lambda v: len(images[g[v]]))
    fresh = len(set(g))
    tried = set()
    for v1 in images[g[v0]]:
        if (g[v1], twins[v1]) in tried:
            continue
        tried.add((g[v1], twins[v1]))
        g2, h2 = list(g), list(h)
        g2[v0] = h2[v1] = fresh
        if _find_relabeled_rotation(layout, cells, twins, (g2, h2)):
            return True
    return False


def is_four_fold_symmetric(layout: DominoLayout) -> bool:
    """True when the tiling maps to itself under a quarter turn of the grid,
    directly or after independently relabeling the two axes.

    The relabelled case asks for a map phi on rows and columns that swaps
    the two, carries tiles onto tiles and has only 4-cycles besides n % 2
    two-cycles. It is decided by colour refinement and individualisation
    (McKay and Piperno, J. Symb. Comput. 60, 2014), not by trying all n!
    relabellings."""
    n = layout.n
    cellsets = _tile_cellsets(layout)
    if _invariant_under(cellsets, lambda cell: (cell[1], n - 1 - cell[0])):
        return True
    lengths = lambda kind: sorted(len(t) for t in layout.tiles if len(t) > 1 and t.orientation == kind)
    if lengths("row") != lengths("col"):
        return False
    # Vertices: rows, columns, tiles. The first colouring marks rows 0,
    # columns 1, one-cell tiles 2, row tiles 3 and column tiles 4; the second
    # swaps rows with columns and row tiles with column tiles.
    cells = [(a, n + b, 2 * n + k) for k, t in enumerate(layout.tiles) for a, b in t.cells]
    start = [0] * n + [1] * n + [2 if len(t) == 1 else 3 + (t.orientation == "col") for t in layout.tiles]
    swap = (1, 0, 2, 4, 3)
    pair = (start, [swap[c] for c in start])
    return _find_relabeled_rotation(layout, cells, _twin_classes(layout), pair)


def bob_basis(state_set: StateSet) -> MeasurementBasis:
    """The joint measurement that identifies every state, the per-leg reference: the
    joint matrix, whose Gram matrix StateSet checked, formed anew, wrapped unchecked."""
    return MeasurementBasis._checked(state_set.joint_matrix)


_FORMAT_TAG = "opqkd-stateset-1"


def _indented(value, depth: int = 0) -> str:
    # json.dumps(value, indent=2) at this depth, for dicts and non-empty lists
    # whose leaves are strings of JSON text already; each list holds leaves
    # only or containers only.
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        items = [f'"{k}": ' + (v if isinstance(v, str) else _indented(v, depth + 1))
                 for k, v in value.items()]
        return f"{{{pad}{(',' + pad).join(items)}{pad[:-2]}}}"
    items = value if isinstance(value[0], str) else [_indented(v, depth + 1) for v in value]
    return f"[{pad}{(',' + pad).join(items)}{pad[:-2]}]"


def stateset_to_text(state_set: StateSet) -> str:
    """Serialize a state set as the indent-2 JSON `json.dumps` writes, from
    the amplitude arrays: each distinct (re, im) bit pattern, keyed by its
    bytes so that -0.0 stays apart from 0.0, is formatted once by repr."""
    tiles = state_set.layout.tiles
    flat = np.concatenate([a.reshape(-1) for a in (state_set.amps_a, state_set.amps_b,
                                                   *(t.amplitudes for t in tiles))])
    keys, inverse = np.unique(flat.view("V16"), return_inverse=True)
    values = keys.view(np.complex128).tolist()
    pairs = {depth: np.array([_indented([repr(z.real), repr(z.imag)], depth) for z in values],
                             dtype=object) for depth in (4, 5)}
    size = 2 * state_set.amps_a.size
    kets = pairs[4][inverse[:size]].reshape(2, len(state_set), state_set.n).tolist()
    amps = np.split(pairs[5][inverse[size:]], np.cumsum([t.amplitudes.size for t in tiles])[:-1])
    state_docs = [{"index": "%d" % i, "ket_a": a, "ket_b": b} for i, (a, b) in enumerate(zip(*kets))]
    tile_docs = [{"orientation": f'"{t.orientation}"', "fixed_index": "%d" % t.fixed_index,
                  "cells": [["%d" % a, "%d" % b] for a, b in t.cells],
                  "state_indices": ["%d" % k for k in t.state_indices],
                  "amplitudes": amp.reshape(t.amplitudes.shape).tolist()} for t, amp in zip(tiles, amps)]
    # The top level is one join, so the whole text is copied once.
    return "".join([f'{{\n  "format": "{_FORMAT_TAG}",\n  "n": {state_set.n:d},\n  "states": ',
                    _indented(state_docs, 1), ',\n  "tiles": ', _indented(tile_docs, 1), "\n}\n"])


def _from_pairs(pairs: Sequence[Sequence[float]]) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def stateset_from_text(text: str) -> StateSet:
    """Rebuild a state set from its serialized form, re-running validation."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidSetError(f"unparseable state-set text: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_TAG:
        raise InvalidSetError("not a recognized state-set document")
    try:
        n = check_dim("set-file n", _integer(doc["n"]))
        tiles = tuple(Tile(rec["orientation"], rec["fixed_index"], rec["cells"],
                           np.array([_from_pairs(row) for row in rec["amplitudes"]]), rec["state_indices"])
                      for rec in doc["tiles"])
        layout = DominoLayout(n, tiles)
        # Ket's test in one pass (a nonfinite entry makes norm^2 nan or inf);
        # Ket raises its own message for the first failing part.
        recs = sorted(doc["states"], key=lambda r: _integer(r["index"]))
        parts = [_from_pairs(rec[key]) for rec in recs for key in ("ket_a", "ket_b")]
        for p in parts:
            if len(p) < 2 or not abs(np.vdot(p, p).real - 1.0) <= ATOL_EXACT:
                Ket(p)
        kets = iter([_checked(p) for p in parts])
        states = tuple(ProductState(_integer(rec["index"]), a, b)
                       for rec, a, b in zip(recs, kets, kets))
    except UnsupportedDimensionError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSetError(f"malformed state-set document: {exc!r}") from exc
    return StateSet(states, layout)
