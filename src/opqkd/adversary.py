"""Channel adversaries for the two-leg protocol.

Every strategy sees the two particles one at a time, in order: the first
leg carries particle A, the second carries particle B only after the first
was acknowledged. Hooks may measure, substitute, or pass through; whatever
they return is what Bob receives.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidSetError, ProtocolOrderError
from .qcore import (
    ATOL_EXACT,
    ATOL_STATE,
    Ket,
    MeasurementBasis,
    RngStream,
    StreamBlocks,
    _canonical_rows,
    _runs,
    _unit_kets,
    born_rows,
    born_sample,
    product_sample,
    projective_measure,
    seat_band,
    tensor,
)
from .stateset import StateSet, bob_basis

# What a kernel returns for a chunk of rounds: the A and B outcomes the
# channel recorded and its inferred label (None when it records nothing),
# and the pair of kets it forwarded to Bob, as a row of each stack below.
Columns = tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None,
                tuple[np.ndarray, np.ndarray]]
# A kernel: one step over a chunk (Alice's labels, the rounds' draws) and
# the kets it may forward to Bob, one stack of amplitude rows per particle.
Kernel = tuple[Callable[[np.ndarray, StreamBlocks], Columns], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class EveRecord:
    """What the adversary learned in one round."""

    round_id: int
    variant: str
    a_outcome: int | None
    b_outcome: int | None
    inferred_state: int | None


@dataclass
class EveRound:
    """Mutable per-round working state for a strategy."""

    round_id: int
    first_done: bool = False
    a_outcome: int | None = None
    b_outcome: int | None = None
    inferred: int | None = None
    stored_a: Ket | None = None


def conditional_b_basis(state_set: StateSet, a_outcome: int) -> MeasurementBasis:
    """Best-guess basis for particle B after seeing outcome `a_outcome` on A:
    the distinct B-parts, up to phase and in canonical phase, of the states
    whose A-part overlaps |a_outcome>. Parts neither equal nor orthogonal,
    or other than n of them, raise InvalidSetError.

    A valid set always leaves n orthonormal parts. Each cell (m, c) of row
    m lies in one tile: a row tile in row m hosts states with A-part |m>
    whose B-parts are the rows of a unitary on its columns; a column tile
    of L rows through (m, c) hosts states with B-part |c>, one of them with
    |<m|A>| >= 1/sqrt(L); a single cell hosts |m> (x) |c>. Other tiles'
    A-parts have no weight on |m>. StateSet's layout check makes the same
    hold, within ATOL_STATE, for sets read from files."""
    n = state_set.n
    if not 0 <= a_outcome < n:
        raise ValueError(f"A outcome {a_outcome} out of range for dimension {n}")
    return _conditional_bases(state_set, (a_outcome,))[0]


def _conditional_bases(state_set: StateSet, outcomes: Sequence[int]) -> tuple[MeasurementBasis, ...]:
    return _conditional_parts(state_set, outcomes)[0]


def _conditional_parts(state_set: StateSet, outcomes: Sequence[int]) -> tuple[tuple[MeasurementBasis, ...],
                                                                               tuple[np.ndarray, ...]]:
    # conditional_b_basis for each outcome, and the seats (i, j, v): each B_i
    # overlapping outcomes[j] equals row v of that outcome's basis up to phase.
    # np.hypot is the scalar abs. Of the B-parts overlapping an outcome, one
    # equal byte for byte to an earlier one is dropped first: it overlaps the
    # others as that one does, and sits in its row. A stable sort of the parts'
    # bytes runs each class in label order, so the first overlapping part of a
    # class is where its running count reaches 1.
    # Outcomes keeping as many parts are decided together; the first that fails raises.
    n, amps_a, amps_b = state_set.n, state_set.amps_a, state_set.amps_b
    order, first = _runs(amps_b.view(np.dtype((np.void, amps_b.itemsize * amps_b.shape[1]))).ravel())
    overlapping = np.hypot(amps_a.real, amps_a.imag)[order][:, outcomes] > ATOL_STATE
    count = np.cumsum(overlapping, axis=0)
    kept = np.empty_like(overlapping)
    kept[order] = overlapping & (count - (count - overlapping)[first][np.cumsum(first) - 1] == 1)
    byte_class = np.empty(len(order), dtype=np.int64)
    byte_class[order] = np.cumsum(first) - 1
    sizes = kept.sum(axis=0)
    found = np.empty(len(outcomes), dtype=np.int64)  # distinct parts, -1 if some are oblique
    rows = np.empty((len(outcomes), n), dtype=np.int64)  # labels of each basis's parts
    class_seat = np.empty((len(outcomes), np.count_nonzero(first)), dtype=np.int32)
    for size in np.flatnonzero(np.bincount(sizes)):
        group = np.flatnonzero(sizes == size)
        labels = np.nonzero(kept[:, group].T)[1].reshape(len(group), size)
        parts = amps_b[labels]
        overlaps = np.abs(np.matmul(parts.conj(), parts.transpose(0, 2, 1)))
        alike = np.abs(overlaps - 1.0) <= ATOL_STATE  # equal up to phase
        distinct = ~np.tril(alike, -1).any(axis=2)
        found[group] = np.where((~alike & (overlaps > ATOL_STATE)).any(axis=(1, 2)), -1, distinct.sum(1))
        whole = found[group] == n
        rows[group[whole]] = labels[whole][distinct[whole]].reshape(-1, n)
        if size:  # a kept part sits in the row of the first part it is alike to
            seats = np.take_along_axis(np.cumsum(distinct, axis=1) - 1, alike.argmax(axis=2), axis=1)
            class_seat[group[:, None], byte_class[labels]] = seats
    mats = _canonical_rows(amps_b[rows[found == n].ravel()]).reshape(-1, n, n)
    gram = np.matmul(mats.conj(), mats.transpose(0, 2, 1)) - np.eye(n)
    orthonormal = iter(np.all(np.abs(gram) <= ATOL_EXACT, axis=(1, 2)).tolist())
    for m, parts_left in zip(outcomes, found.tolist()):
        if parts_left < 0:
            raise InvalidSetError(f"B-parts overlapping A outcome {m} are not mutually orthogonal")
        if parts_left != n:
            raise InvalidSetError(f"A outcome {m} leaves {parts_left} distinct B-parts, not {n}")
        if not next(orthonormal):
            raise ValueError("basis vectors are not orthonormal")
    at, j = np.nonzero(overlapping)
    i = order[at]
    return tuple(MeasurementBasis._checked(mat) for mat in mats), (i, j, class_seat[j, byte_class[i]])


class EveStrategy:
    """Honest channel: forwards both particles untouched and records nothing.

    A strategy plays rounds through `_kernel`, over a chunk of rounds as
    columns: given the session's set, it returns a step that maps Alice's
    labels and the rounds' draws (taken in the order the hooks take them)
    to `Columns`, and the kets it may forward to Bob. Sessions and
    estimates run only the kernel the strategy's own class defines. The
    per-leg hooks play one round through `run_round`, the one-round
    reference the tests compare the kernels against."""

    name = "none"
    variant = "none"

    def __init__(self, state_set: StateSet | None = None):
        self.state_set = state_set

    def _kernel(self, state_set: StateSet) -> Kernel:
        return (lambda alice, draws: (None, None, None, (alice, alice)),
                (state_set.amps_a, state_set.amps_b))

    def begin_round(self, round_id: int) -> EveRound:
        return EveRound(round_id)

    def first_leg(self, rnd: EveRound, ket_a: Ket, rng: RngStream) -> Ket:
        forwarded = self._intercept_first(rnd, ket_a, rng)
        rnd.first_done = True
        return forwarded

    def second_leg(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        if not rnd.first_done:
            raise ProtocolOrderError(
                f"round {rnd.round_id}: second leg driven before the first leg finished"
            )
        return self._intercept_second(rnd, ket_b, rng)

    def finish_round(self, rnd: EveRound) -> EveRecord:
        return EveRecord(rnd.round_id, self.variant, rnd.a_outcome, rnd.b_outcome, rnd.inferred)

    def _intercept_first(self, rnd: EveRound, ket_a: Ket, rng: RngStream) -> Ket:
        return ket_a

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        return ket_b


def _require_set(state_set: StateSet | None) -> StateSet:
    if state_set is None:
        raise ValueError("this strategy needs the public state set")
    return state_set


class ConditionalInterceptResend(EveStrategy):
    """Measure A in the computational basis, then measure B in the basis
    matched to that outcome; resend the collapsed states."""

    name = "intercept"
    variant = "intercept-resend-conditional"

    def __init__(self, state_set: StateSet):
        super().__init__(_require_set(state_set))
        n = state_set.n
        self._comp = MeasurementBasis.computational(n)
        self._b_bases, (i, m, v) = _conditional_parts(state_set, range(n))
        # inferred[m, v]: the first label i maximising |<m|A_i>|^2 |<v|B_i>|^2, v in the
        # basis matched to m. Row v is B_i up to phase for the labels seated at it, and
        # is orthogonal to the other parts overlapping m, so only those labels score,
        # each its A weight; a part not overlapping m weighs at most ATOL_STATE^2, less
        # than the part row v was taken from.
        key, weight = m * n + v, np.abs(state_set.amps_a[i, m]) ** 2
        best = np.zeros(n * n)
        np.maximum.at(best, key, weight)
        hit = weight == best[key]
        self._inferred = np.full((n, n), n * n)
        np.minimum.at(self._inferred.reshape(-1), key[hit], i[hit])
        # seats[i, m]: the row of the basis matched to m that is B_i up to phase, n if B_i misses |m>
        self._seats = np.full((n * n, n), n, dtype=np.min_scalar_type(n))
        self._seats[i, m] = v

    def _intercept_first(self, rnd: EveRound, ket_a: Ket, rng: RngStream) -> Ket:
        outcome, collapsed = projective_measure(ket_a, self._comp, rng)
        rnd.a_outcome = outcome
        return collapsed

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        m = rnd.a_outcome
        outcome, collapsed = projective_measure(ket_b, self._b_bases[m], rng)
        rnd.b_outcome = outcome
        rnd.inferred = int(self._inferred[m, outcome])
        return collapsed

    def _kernel(self, state_set: StateSet) -> Kernel:
        n, amps_a, amps_b = state_set.n, state_set.amps_a, state_set.amps_b
        seats = self._seats if state_set is self.state_set else np.full_like(self._seats, n)

        def second_rows(keys):
            # key i * n + m: B_i in the basis matched to m, one product per m
            i, m = np.divmod(keys, n)
            order, first = _runs(m)
            rows = np.empty((len(keys), n))
            for run in np.split(order, np.flatnonzero(first)[1:]):
                rows[run] = born_rows(self._b_bases[m[run[0]]]._conj_matrix, amps_b[i[run]])
            return rows

        def step(alice, draws):
            a = born_sample(lambda i: np.abs(amps_a[i]) ** 2, n * n, alice, draws.random())
            u, lo, b = draws.random(), seat_band(n), seats[alice, a].astype(np.int64)
            rest = np.flatnonzero((b == n) | (u <= lo) | (u >= 1.0 - lo))
            if len(rest):
                # alike[i]: the first label whose B-part has B_i's bytes, and so its rows
                order, first = _runs(amps_b.view(np.dtype((np.void, amps_b.itemsize * n))).ravel())
                alike = np.empty(len(order), dtype=np.int64)
                alike[order] = order[first][np.cumsum(first) - 1]
                b[rest] = born_sample(second_rows, n**3, alike[alice[rest]] * n + a[rest], u[rest])
            return a, b, self._inferred[a, b], (a, a * n + b)

        return step, (_canonical_rows(self._comp.matrix),
                      _canonical_rows(np.concatenate([b.matrix for b in self._b_bases])))


class MeasureSecondOnly(EveStrategy):
    """Leave A alone; measure B in the computational basis and resend."""

    name = "complementary"
    variant = "measure-second-only"

    def __init__(self, state_set: StateSet):
        super().__init__(_require_set(state_set))
        self._comp = MeasurementBasis.computational(state_set.n)
        self._inferred = np.argmax(np.abs(state_set.amps_b) ** 2, axis=0)  # over i of |<l|B_i>|^2

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        outcome, collapsed = projective_measure(ket_b, self._comp, rng)
        rnd.b_outcome = outcome
        rnd.inferred = int(self._inferred[outcome])
        return collapsed

    def _kernel(self, state_set: StateSet) -> Kernel:
        amps_b = state_set.amps_b

        def step(alice, draws):
            b = born_sample(lambda i: np.abs(amps_b[i]) ** 2, len(amps_b), alice, draws.random())
            return None, b, self._inferred[b], (alice, b)

        return step, (state_set.amps_a, _canonical_rows(self._comp.matrix))


class SubstituteCollective(EveStrategy):
    """Hold A back, forward a fresh basis state in its place, then measure
    the held A together with B in the identifying joint basis."""

    name = "substitute"
    variant = "substitute-collective"

    def __init__(self, state_set: StateSet):
        super().__init__(_require_set(state_set))
        self._substitutes = _unit_kets(state_set.n)

    @cached_property
    def _joint_basis(self) -> MeasurementBasis:
        return bob_basis(self.state_set)

    def _intercept_first(self, rnd: EveRound, ket_a: Ket, rng: RngStream) -> Ket:
        rnd.stored_a = ket_a
        return self._substitutes[rng.integers(self.state_set.n)]

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        joint = tensor(rnd.stored_a, ket_b)
        outcome, _ = projective_measure(joint, self._joint_basis, rng)
        rnd.b_outcome = outcome
        rnd.inferred = outcome
        return self.state_set[outcome].ket_b

    def _kernel(self, state_set: StateSet) -> Kernel:
        n, own = state_set.n, self.state_set
        parts, held = (own.amps_a, own.amps_b), (state_set.amps_a, state_set.amps_b)

        def step(alice, draws):
            k = draws.integers(n)
            o, _ = product_sample(parts, held, alice, alice, draws.random())
            return None, o, o, (k, o)

        return step, (np.stack([ket.amps for ket in self._substitutes]), self.state_set.amps_b)


# Every strategy, the honest channel first; the others are the attacks.
STRATEGIES = (EveStrategy, ConditionalInterceptResend, MeasureSecondOnly, SubstituteCollective)
STRATEGY_NAMES = tuple(cls.name for cls in STRATEGIES)
ATTACK_NAMES = STRATEGY_NAMES[1:]


def strategy_class(name: str) -> type[EveStrategy]:
    """The strategy class whose short `name` or full `variant` this is."""
    for cls in STRATEGIES:
        if name in (cls.name, cls.variant):
            return cls
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")


def canonical_variant(name: str) -> str:
    """Map a short or full strategy name to its canonical variant string."""
    return strategy_class(name).variant


def make_strategy(name: str, state_set: StateSet | None = None) -> EveStrategy:
    """Build a strategy by short or full variant name."""
    return strategy_class(name)(state_set)
