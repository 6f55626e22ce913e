"""Two-leg transmission protocol: Alice sends particle A, waits for the
acknowledgment, then sends particle B; Bob measures the pair in the joint
basis that identifies the prepared state. A random subset of rounds is
compared in the open afterwards."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .adversary import EveRecord, EveStrategy
from .errors import InsufficientDataError
from .qcore import MeasurementBasis, RngStream, projective_measure, tensor
from .stateset import StateSet, bob_basis

# Stream id reserved for the check-subset draw; round ids stay far below it.
CHECK_STREAM_ID = 2**64 - 1

_Z_95 = 1.959963984540054


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters. check_fraction is the share of rounds opened for
    comparison; seed keys every random draw in the session."""

    state_set: StateSet
    rounds: int
    check_fraction: float = 0.1
    seed: int = 0
    strategy: EveStrategy | None = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        strategy = self.strategy if self.strategy is not None else EveStrategy()
        object.__setattr__(self, "strategy", strategy)
        if strategy.state_set is not None and strategy.state_set.n != self.state_set.n:
            raise ValueError(
                f"strategy built for dimension {strategy.state_set.n}, "
                f"session runs at {self.state_set.n}"
            )


@dataclass(frozen=True)
class RoundRecord:
    round_id: int
    alice_index: int
    bob_index: int
    checked: bool
    mismatch: bool


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one session: per-round records, whether the open comparison
    caught a disturbance, and the raw key indices if it did not."""

    records: tuple[RoundRecord, ...]
    detected: bool
    key_indices: tuple[int, ...]
    bits_per_round: float
    eve_records: tuple[EveRecord, ...]


def run_round(
    state_set: StateSet,
    joint_basis: MeasurementBasis,
    strategy: EveStrategy,
    round_id: int,
    rng: RngStream,
) -> tuple[int, int, EveRecord]:
    """One protocol round under a channel strategy; returns Alice's label,
    Bob's measured label, and what the channel recorded."""
    alice = rng.integers(len(state_set))
    prepared = state_set[alice]
    rnd = strategy.begin_round(round_id)
    ket_a = strategy.first_leg(rnd, prepared.ket_a, rng)
    ket_b = strategy.second_leg(rnd, prepared.ket_b, rng)
    bob, _ = projective_measure(tensor(ket_a, ket_b), joint_basis, rng)
    return alice, bob, strategy.finish_round(rnd)


def run_session(config: ProtocolConfig) -> SessionResult:
    """Run a full session: all rounds, then the open comparison on a random
    subset. Each round draws from its own stream keyed by the round id, so
    results do not depend on execution order."""
    state_set = config.state_set
    strategy = config.strategy
    joint = bob_basis(state_set)

    outcomes: list[tuple[int, int]] = []
    eve_records: list[EveRecord] = []
    for round_id, rng in enumerate(RngStream.consecutive(config.seed, config.rounds)):
        alice, bob, eve_rec = run_round(state_set, joint, strategy, round_id, rng)
        outcomes.append((alice, bob))
        eve_records.append(eve_rec)

    check_count = math.ceil(config.check_fraction * config.rounds)
    selector = RngStream(config.seed, CHECK_STREAM_ID)
    checked_ids = set(selector.permutation(config.rounds)[:check_count].tolist())

    records = tuple(
        RoundRecord(r, alice, bob, r in checked_ids, alice != bob)
        for r, (alice, bob) in enumerate(outcomes)
    )
    detected = any(rec.mismatch for rec in records if rec.checked)
    if detected:
        key_indices: tuple[int, ...] = ()
    else:
        key_indices = tuple(rec.bob_index for rec in records if not rec.checked)
    bits_per_round = math.log2(len(state_set))
    return SessionResult(records, detected, key_indices, bits_per_round, tuple(eve_records))


def wilson_interval(successes: int, trials: int, z: float = _Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        raise InsufficientDataError("no trials to form an interval from")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class DetectionStats:
    """Observed mismatch rate on the opened rounds."""

    rate: float
    ci_low: float
    ci_high: float
    checked_rounds: int
    mismatches: int


def detection_probability(result: SessionResult) -> DetectionStats:
    """Mismatch frequency among checked rounds, with a Wilson 95% interval."""
    checked = [rec for rec in result.records if rec.checked]
    if not checked:
        raise InsufficientDataError("session opened no rounds for comparison")
    mismatches = sum(rec.mismatch for rec in checked)
    low, high = wilson_interval(mismatches, len(checked))
    return DetectionStats(mismatches / len(checked), low, high, len(checked), mismatches)


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated session statistics for reporting."""

    rounds: int
    checked_rounds: int
    mismatches: int
    undetected_correct: int
    detected: bool
    mismatch_rate: float
    mismatch_ci_low: float
    mismatch_ci_high: float
    match_rate: float
    match_ci_low: float
    match_ci_high: float
    key_rounds: int
    bits_per_round: float
    key_bits: float
    eve_accuracy: float | None


def summarize_session(result: SessionResult) -> SimulationReport:
    """Condense a session into the counts and interval estimates reported
    by the command-line tools."""
    rounds = len(result.records)
    stats = detection_probability(result)
    correct = sum(not rec.mismatch for rec in result.records)
    match_low, match_high = wilson_interval(correct, rounds)

    judged = [
        (eve.inferred_state == rec.alice_index)
        for rec, eve in zip(result.records, result.eve_records)
        if eve.inferred_state is not None
    ]
    accuracy = sum(judged) / len(judged) if judged else None

    key_rounds = len(result.key_indices)
    return SimulationReport(
        rounds=rounds,
        checked_rounds=stats.checked_rounds,
        mismatches=stats.mismatches,
        undetected_correct=correct,
        detected=result.detected,
        mismatch_rate=stats.rate,
        mismatch_ci_low=stats.ci_low,
        mismatch_ci_high=stats.ci_high,
        match_rate=correct / rounds,
        match_ci_low=match_low,
        match_ci_high=match_high,
        key_rounds=key_rounds,
        bits_per_round=result.bits_per_round,
        key_bits=key_rounds * result.bits_per_round,
        eve_accuracy=accuracy,
    )
