"""Channel adversaries for the two-leg protocol.

Every strategy sees the two particles one at a time, in order: the first
leg carries particle A, the second carries particle B only after the first
was acknowledged. Hooks may measure, substitute, or pass through; whatever
they return is what Bob receives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSetError, ProtocolOrderError
from .qcore import (
    ATOL_STATE,
    Ket,
    MeasurementBasis,
    RngStream,
    basis_ket,
    canonical_phase,
    projective_measure,
    tensor,
)
from .stateset import StateSet, bob_basis


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


def _complete_orthonormal(vectors: list[Ket], dim: int) -> list[Ket]:
    """Extend an orthonormal list to a full basis, deterministically."""
    out = list(vectors)
    for k in range(dim):
        if len(out) == dim:
            break
        residual = basis_ket(dim, k).amps.astype(np.complex128)
        for v in out:
            residual = residual - np.vdot(v.amps, residual) * v.amps
        norm = float(np.linalg.norm(residual))
        if norm > 1e-6:
            out.append(canonical_phase(Ket(residual / norm)))
    if len(out) != dim:
        raise InvalidSetError("could not complete the conditional basis")
    return out


def conditional_b_basis(state_set: StateSet, a_outcome: int) -> MeasurementBasis:
    """Best-guess basis for particle B after seeing outcome `a_outcome` on A.

    Collects the B-parts of every state whose A-part overlaps |a_outcome>,
    deduplicates up to phase, and completes to a full basis if needed. The
    collected parts must come out mutually orthogonal; a set for which they
    do not cannot be attacked this way and is rejected.
    """
    n = state_set.n
    if not 0 <= a_outcome < n:
        raise ValueError(f"A outcome {a_outcome} out of range for dimension {n}")
    parts = [st.ket_b for st in state_set if abs(st.ket_a.amps[a_outcome]) > ATOL_STATE]
    # reshape keeps an empty selection a 0 x n matrix.
    amps = np.array([k.amps for k in parts], dtype=np.complex128).reshape(len(parts), n)
    overlaps = np.abs(amps.conj() @ amps.T)
    equivalent = np.abs(overlaps - 1.0) <= ATOL_STATE
    if np.any(~equivalent & (overlaps > ATOL_STATE)):
        raise InvalidSetError(
            f"B-parts overlapping A outcome {a_outcome} are not mutually orthogonal"
        )
    first = ~np.tril(equivalent, -1).any(axis=1)
    distinct = [canonical_phase(k) for k, keep in zip(parts, first) if keep]
    return MeasurementBasis(_complete_orthonormal(distinct, n))


class EveStrategy:
    """Honest channel: forwards both particles untouched and records nothing."""

    variant = "none"

    def __init__(self, state_set: StateSet | None = None):
        self.state_set = state_set

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

    variant = "intercept-resend-conditional"

    def __init__(self, state_set: StateSet):
        super().__init__(_require_set(state_set))
        n = state_set.n
        self._comp = MeasurementBasis.computational(n)
        self._b_bases = tuple(conditional_b_basis(state_set, m) for m in range(n))
        amps_a = np.stack([st.ket_a.amps for st in state_set])
        amps_b = np.stack([st.ket_b.amps for st in state_set])
        # weight_a[i, m] = |<m|A_i>|^2 ; weight_b[m][v, i] = |<v|B_i>|^2
        self._weight_a = np.abs(amps_a) ** 2
        self._weight_b = tuple(
            np.abs(basis.matrix.conj() @ amps_b.T) ** 2 for basis in self._b_bases
        )

    def _intercept_first(self, rnd: EveRound, ket_a: Ket, rng: RngStream) -> Ket:
        outcome, collapsed = projective_measure(ket_a, self._comp, rng)
        rnd.a_outcome = outcome
        return collapsed

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        m = rnd.a_outcome
        outcome, collapsed = projective_measure(ket_b, self._b_bases[m], rng)
        rnd.b_outcome = outcome
        posterior = self._weight_a[:, m] * self._weight_b[m][outcome, :]
        rnd.inferred = int(np.argmax(posterior))
        return collapsed


class MeasureSecondOnly(EveStrategy):
    """Leave A alone; measure B in the computational basis and resend."""

    variant = "measure-second-only"

    def __init__(self, state_set: StateSet):
        super().__init__(_require_set(state_set))
        self._comp = MeasurementBasis.computational(state_set.n)
        amps_b = np.stack([st.ket_b.amps for st in state_set])
        self._weight_b = np.abs(amps_b) ** 2  # [i, l] = |<l|B_i>|^2

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        outcome, collapsed = projective_measure(ket_b, self._comp, rng)
        rnd.b_outcome = outcome
        rnd.inferred = int(np.argmax(self._weight_b[:, outcome]))
        return collapsed


class SubstituteCollective(EveStrategy):
    """Hold A back, forward a fresh basis state in its place, then measure
    the held A together with B in the identifying joint basis."""

    variant = "substitute-collective"

    def __init__(self, state_set: StateSet):
        super().__init__(_require_set(state_set))
        self._joint_basis = bob_basis(state_set)
        self._substitutes = tuple(basis_ket(state_set.n, k) for k in range(state_set.n))

    def _intercept_first(self, rnd: EveRound, ket_a: Ket, rng: RngStream) -> Ket:
        rnd.stored_a = ket_a
        return self._substitutes[rng.integers(self.state_set.n)]

    def _intercept_second(self, rnd: EveRound, ket_b: Ket, rng: RngStream) -> Ket:
        joint = tensor(rnd.stored_a, ket_b)
        outcome, _ = projective_measure(joint, self._joint_basis, rng)
        rnd.b_outcome = outcome
        rnd.inferred = outcome
        return self.state_set[outcome].ket_b


_STRATEGIES: dict[str, type[EveStrategy]] = {
    "none": EveStrategy,
    "intercept": ConditionalInterceptResend,
    "intercept-resend-conditional": ConditionalInterceptResend,
    "complementary": MeasureSecondOnly,
    "measure-second-only": MeasureSecondOnly,
    "substitute": SubstituteCollective,
    "substitute-collective": SubstituteCollective,
}

STRATEGY_NAMES = ("none", "intercept", "complementary", "substitute")


def _strategy_class(name: str) -> type[EveStrategy]:
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}") from None


def canonical_variant(name: str) -> str:
    """Map a short or full strategy name to its canonical variant string."""
    return _strategy_class(name).variant


def make_strategy(name: str, state_set: StateSet | None = None) -> EveStrategy:
    """Build a strategy by short or full variant name."""
    return _strategy_class(name)(state_set)
