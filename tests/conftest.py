"""Shared test helpers: random set parameters, random tilings, and
independent brute-force oracles for attack survival probabilities and for
relabelled quarter-turn symmetry.

The enumerator below deliberately avoids the library's analysis code: it
walks the full outcome tree with explicit joint-space vectors, so it can
serve as an oracle for the closed-form and formula-based paths. The scalar
reference after it repeats the library's exact intercept sum one state and
one basis at a time, so the batched sum can be held to its bytes. The
reference writer builds a set file with `json.dumps`, so the library's
writer can be held to the same bytes. The dense set checks form whole Gram
matrices, so the checks grouped by support can be held to their verdicts.
The dense inference table forms the intercept's whole posterior, so the table
read from the conditional bases' seats can be held to its bytes, and the
BLAS-thread helper reruns such a byte check with one and with two BLAS threads.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

from opqkd import DominoLayout, SetParameters, StateSet, Tile, born_probabilities, states_from_tiles
from opqkd.qcore import ATOL_EXACT, ATOL_STATE
from opqkd.stateset import _support_groups
from opqkd.adversary import _conditional_bases


def random_unit_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    x = rng.standard_normal(4)
    a = complex(x[0], x[1])
    b = complex(x[2], x[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def random_parameters(rng: np.random.Generator) -> SetParameters:
    (a, b), (c, d), (e, f), (g, h) = (random_unit_pair(rng) for _ in range(4))
    return SetParameters(a, b, c, d, e, f, g, h)


def _eve_b_vectors(states, m: int, n: int) -> list[np.ndarray]:
    # Distinct B-parts of the states whose A-part overlaps |m>, then a
    # deterministic completion; mirrors the attack definition, not the code.
    vecs: list[np.ndarray] = []
    for st in states:
        if abs(st.ket_a.amps[m]) < 1e-12:
            continue
        v = st.ket_b.amps
        if any(abs(abs(np.vdot(u, v)) - 1.0) < 1e-9 for u in vecs):
            continue
        vecs.append(np.array(v))
    for k in range(n):
        if len(vecs) == n:
            break
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        for u in vecs:
            e = e - np.vdot(u, e) * u
        norm = np.linalg.norm(e)
        if norm > 1e-6:
            vecs.append(e / norm)
    assert len(vecs) == n
    return vecs


def survival_by_enumeration(state_set, variant: str) -> float:
    """Probability that the receiver's outcome equals the prepared label,
    by summing every branch of the attack's outcome tree."""
    n = state_set.n
    states = list(state_set)
    joint = [np.kron(st.ket_a.amps, st.ket_b.amps) for st in states]
    basis_cache = {}
    total = 0.0
    for i, st in enumerate(states):
        a, b = st.ket_a.amps, st.ket_b.amps
        acc = 0.0
        if variant == "intercept":
            for m in range(n):
                p_m = abs(a[m]) ** 2
                if p_m < 1e-15:
                    continue
                if m not in basis_cache:
                    basis_cache[m] = _eve_b_vectors(states, m, n)
                e_m = np.zeros(n, dtype=complex)
                e_m[m] = 1.0
                for v in basis_cache[m]:
                    p_v = abs(np.vdot(v, b)) ** 2
                    if p_v < 1e-30:
                        continue
                    forwarded = np.kron(e_m, v)
                    p_bob = abs(np.vdot(joint[i], forwarded)) ** 2
                    acc += p_m * p_v * p_bob
        elif variant == "complementary":
            for l in range(n):
                p_l = abs(b[l]) ** 2
                if p_l < 1e-30:
                    continue
                e_l = np.zeros(n, dtype=complex)
                e_l[l] = 1.0
                forwarded = np.kron(a, e_l)
                p_bob = abs(np.vdot(joint[i], forwarded)) ** 2
                acc += p_l * p_bob
        elif variant == "substitute":
            for r in range(n):
                e_r = np.zeros(n, dtype=complex)
                e_r[r] = 1.0
                for j in range(len(states)):
                    p_eve = abs(np.vdot(joint[j], joint[i])) ** 2
                    if p_eve < 1e-30:
                        continue
                    forwarded = np.kron(e_r, states[j].ket_b.amps)
                    p_bob = abs(np.vdot(joint[i], forwarded)) ** 2
                    acc += p_eve * p_bob / n
        else:
            raise ValueError(f"no enumeration for {variant!r}")
        total += acc
    return total / len(states)


def intercept_contributions_by_scalar_rows(state_set) -> list[float]:
    """Per-state survival contributions of the conditional intercept, one
    born_probabilities row per state and outcome and scalar weights
    |<m|A_i>|^2: the exact enumeration's sum, term by term."""
    bases = _conditional_bases(state_set, range(state_set.n))
    contributions = []
    for st in state_set:
        weights = [abs(z) ** 2 for z in st.ket_a.amps]
        contributions.append(math.fsum(
            w * w * math.fsum(p * p for p in born_probabilities(st.ket_b, basis))
            for w, basis in zip(weights, bases) if w))
    return contributions


def dense_posterior(mats, amps_a, amps_b) -> np.ndarray:
    """The intercept's whole posterior, one dense product per A outcome m:
    posterior[m, v, i] = |<m|A_i>|^2 |<v|B_i>|^2 for row v of mats[m] conjugated."""
    weight_a = np.abs(amps_a.T) ** 2
    weight_b = np.stack([np.abs(mat.conj() @ amps_b.T) ** 2 for mat in mats])
    return weight_a[:, None, :] * weight_b


def dense_inferred(mats, amps_a, amps_b) -> np.ndarray:
    """The intercept's inference table: the first argmax of the whole
    posterior over the labels i."""
    return np.argmax(dense_posterior(mats, amps_a, amps_b), axis=2)


_ROOT = pathlib.Path(__file__).resolve().parent.parent


def assert_bytes_under_blas_threads(check) -> None:
    """Run `check`, a function of a test module that takes no arguments and
    asserts that two ways of forming numbers give the same bytes, in a fresh
    interpreter under OPENBLAS_NUM_THREADS=1 and again under =2, so a claim
    that rests on BLAS bytes is tied to the BLAS in use with either count."""
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", f"from {check.__module__} import {check.__name__}; {check.__name__}()"],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, f"OPENBLAS_NUM_THREADS={threads}:\n{done.stderr}"


def reference_stateset_text(state_set) -> str:
    """The set file of a state set as `json.dumps(doc, indent=2)` writes it,
    from a document of plain lists, ints and floats."""
    def pairs(arr):
        return [[float(z.real), float(z.imag)] for z in arr]

    doc = {
        "format": "opqkd-stateset-1",
        "n": state_set.n,
        "states": [
            {"index": st.index, "ket_a": pairs(st.ket_a.amps), "ket_b": pairs(st.ket_b.amps)}
            for st in state_set
        ],
        "tiles": [
            {
                "orientation": t.orientation,
                "fixed_index": t.fixed_index,
                "cells": [list(c) for c in t.cells],
                "state_indices": list(t.state_indices),
                "amplitudes": [pairs(row) for row in t.amplitudes],
            }
            for t in state_set.layout.tiles
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def dense_joint_gram_ok(amps_a, amps_b) -> bool:
    """StateSet's joint Gram check on the whole n^2 x n^2 matrix, the
    elementwise product of the two single-particle Gram matrices, so it can
    stand in for the grouped check."""
    gram = (amps_a.conj() @ amps_a.T) * (amps_b.conj() @ amps_b.T)
    return bool(np.all(np.abs(gram - np.eye(len(gram))) <= ATOL_EXACT))


def dense_oblique_partners(amps) -> tuple[bool, ...]:
    """check_conditions' verdict for each row of amps, from the whole |Gram|
    matrix: some row is neither equivalent nor orthogonal to it."""
    overlaps = np.abs(amps.conj() @ amps.T)
    oblique = (overlaps > ATOL_STATE) & (np.abs(overlaps - 1.0) > ATOL_STATE)
    return tuple(np.any(oblique, axis=1).tolist())


def support_group_runs(parts):
    """The runs of consecutive labels whose parts share their supports on
    both particles, from each particle's `_support_groups`: a run starts
    where the pair of groups changes. Returns each run's first label and
    each particle's run supports as float32 columns."""
    groups = [_support_groups(amps != 0) for amps in parts]
    run = np.flatnonzero(np.diff(groups[0][0] * len(groups[1][1]) + groups[1][0], prepend=-1))
    return run, [support[group[run]].T.astype(np.float32) for group, support in groups]


def layout_from_cellsets(n, cellsets, rows=None, cols=None, amplitudes=np.eye):
    """A layout with one tile per cell set, after sending row a to rows[a]
    and column b to cols[b]; amplitudes(length) gives each tile's matrix."""
    rows = range(n) if rows is None else rows
    cols = range(n) if cols is None else cols
    tiles, label = [], 0
    for cellset in cellsets:
        cells = tuple(sorted((int(rows[a]), int(cols[b])) for a, b in cellset))
        if len(cells) == 1:
            kind, fixed = "singleton", cells[0][0]
        elif len({a for a, _ in cells}) == 1:
            kind, fixed = "row", cells[0][0]
        else:
            kind, fixed = "col", cells[0][1]
        tiles.append(Tile(kind, fixed, cells, amplitudes(len(cells)),
                          tuple(range(label, label + len(cells)))))
        label += len(cells)
    return DominoLayout(n, tuple(tiles))


def dft(length: int) -> np.ndarray:
    k = np.arange(length)
    return np.exp(2j * np.pi * np.outer(k, k) / length) / math.sqrt(length)


def set_from_cellsets(n, cellsets, rows=None, cols=None) -> StateSet:
    """The state set of those tiles, with discrete-Fourier amplitudes."""
    layout = layout_from_cellsets(n, cellsets, rows, cols, dft)
    return StateSet(states_from_tiles(n, layout.tiles), layout)


_TILING_MAPS = {
    "random": lambda n: (),
    "quarter": lambda n: (lambda c: (c[1], n - 1 - c[0]),),
    "transpose": lambda n: (lambda c: (c[1], c[0]),),
    "singletons": lambda n: (),
    # (i, j) -> (alpha(j), i) with alpha a 3-cycle: its square is alpha on
    # rows, not an involution, so it is not a relabelled quarter turn.
    "three-cycle": lambda n: (lambda c: ((c[1] + 1) % 3 if c[1] < 3 else c[1], c[0]),),
}


def random_tiling(rng: np.random.Generator, n: int, kind: str) -> DominoLayout:
    """A random tiling of the n x n grid with independently relabelled axes.

    kind "quarter", "transpose" and "three-cycle" make the tiling, before
    relabelling, map to itself under a quarter turn, a transposition or a
    row-column swap of the wrong cycle type; "singletons" makes most tiles
    one cell."""
    maps = _TILING_MAPS[kind](n)
    singleton_share = 0.8 if kind == "singletons" else 0.3
    covered: set = set()
    cellsets = []
    for flat in rng.permutation(n * n):
        cell = (int(flat) // n, int(flat) % n)
        if cell in covered:
            continue
        u = rng.random()
        axis = None if u < singleton_share else int(u < (1 + singleton_share) / 2)
        for attempt in range(4):
            tile = {cell}
            if axis is not None and attempt < 3:
                line = [c for c in ((cell[0], x) if axis else (x, cell[1]) for x in range(n))
                        if c not in covered and c != cell]
                size = int(rng.integers(0, min(len(line), n - 2) + 1))
                tile.update(line[k] for k in rng.choice(len(line), size, replace=False))
            orbit = {frozenset(tile)}
            frontier = list(orbit)
            while frontier:
                t = frontier.pop()
                for m in maps:
                    image = frozenset(m(c) for c in t)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            cells = [c for t in orbit for c in t]
            if len(cells) == len(set(cells)) and not covered.intersection(cells):
                break
        cellsets.extend(orbit)
        covered.update(cells)
    return layout_from_cellsets(n, cellsets, rng.permutation(n), rng.permutation(n))


def relabelled_quarter_turn_by_enumeration(layout) -> bool:
    """Whether some relabelling of rows and columns makes the tiling map to
    itself under a quarter turn.

    Relabelling rows by s and columns by t, turning, and undoing the
    relabelling sends cell (i, j) to (alpha(j), beta(i)) with alpha = s^-1 t
    and alpha o beta = s^-1 r s for the index reversal r. So the tiling
    qualifies exactly when, for some alpha and some conjugate c of r, the
    map with beta = alpha^-1 c sends every tile onto a tile. Tries them all:
    n! (n! / |centraliser of r|) maps, fine for n <= 5."""
    n = layout.n
    tiles = {frozenset(t.cells) for t in layout.tiles}
    reversal = [n - 1 - x for x in range(n)]
    conjugates = set()
    for s in itertools.permutations(range(n)):
        s_inv = np.argsort(s)
        conjugates.add(tuple(int(s_inv[reversal[s[x]]]) for x in range(n)))
    for alpha in itertools.permutations(range(n)):
        alpha_inv = np.argsort(alpha)
        for c in conjugates:
            beta = [int(alpha_inv[c[x]]) for x in range(n)]
            if all(frozenset((alpha[b], beta[a]) for a, b in t) in tiles for t in tiles):
                return True
    return False
