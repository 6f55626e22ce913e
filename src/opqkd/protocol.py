"""Two-leg transmission protocol: Alice sends particle A, waits for the
acknowledgment, then sends particle B; Bob measures the pair in the joint
basis that identifies the prepared state. A random subset of rounds is
compared in the open afterwards."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .adversary import EveRecord, EveStrategy
from .errors import InsufficientDataError
from .qcore import (
    MeasurementBasis,
    RngStream,
    StreamBlocks,
    key_word,
    philox_block,
    product_sample,
    projective_measure,
    tensor,
)
from .stateset import StateSet

# Stream id reserved for the check-subset draw; round ids stay far below it.
CHECK_STREAM_ID = 2**64 - 1
# Rounds computed together as columns by a strategy kernel.
CHUNK_ROUNDS = 8192

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
        key_word("seed", self.seed)
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


@dataclass(frozen=True, eq=False)
class SessionResult:
    """Outcome of one session, as columns with one entry per round: the int
    arrays `alice`, `bob`, `a_outcome`, `b_outcome` and `inferred` (-1
    where the channel recorded nothing) and the bool array `checked`; then
    the strategy's `variant`, whether the open comparison caught a
    disturbance, and `key`, the kept labels. `records`, `eve_records` and
    `key_indices` are built from the columns on first use."""

    alice: np.ndarray
    bob: np.ndarray
    a_outcome: np.ndarray
    b_outcome: np.ndarray
    inferred: np.ndarray
    checked: np.ndarray
    variant: str
    detected: bool
    key: np.ndarray
    bits_per_round: float

    @cached_property
    def key_indices(self) -> tuple[int, ...]:
        return tuple(self.key.tolist())

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        return tuple(
            RoundRecord(r, a, b, c, a != b)
            for r, (a, b, c) in enumerate(zip(
                self.alice.tolist(), self.bob.tolist(), self.checked.tolist()))
        )

    @cached_property
    def eve_records(self) -> tuple[EveRecord, ...]:
        columns = (self.a_outcome, self.b_outcome, self.inferred)
        return tuple(
            EveRecord(r, self.variant, *(None if v < 0 else v for v in values))
            for r, values in enumerate(zip(*(col.tolist() for col in columns)))
        )


def run_round(
    state_set: StateSet,
    joint_basis: MeasurementBasis,
    strategy: EveStrategy,
    round_id: int,
    rng: RngStream,
) -> tuple[int, int, EveRecord]:
    """One protocol round through the strategy's per-leg hooks; returns
    Alice's label, Bob's measured label, and what the channel recorded.
    It is the one-round reference the tests compare the kernels against;
    sessions and estimates never call it."""
    alice = rng.integers(len(state_set))
    prepared = state_set[alice]
    rnd = strategy.begin_round(round_id)
    ket_a = strategy.first_leg(rnd, prepared.ket_a, rng)
    ket_b = strategy.second_leg(rnd, prepared.ket_b, rng)
    bob, _ = projective_measure(tensor(ket_a, ket_b), joint_basis, rng)
    return alice, bob, strategy.finish_round(rnd)


def _one_lane(rng: RngStream) -> SimpleNamespace:
    """The draws of one round, straight from its RngStream, as a single lane
    with the `integers` and `random` of StreamBlocks."""
    return SimpleNamespace(integers=lambda upper: np.array([rng.integers(upper)]),
                           random=lambda: np.array([rng.random()]))


def _kernel_columns(state_set: StateSet, step, forwarded, draws) -> np.ndarray:
    """The kernel's columns, as `round_columns` yields them, for the rounds
    whose draws `draws` hands out, one lane each, Bob's in the set's basis."""
    alice = draws.integers(len(state_set))
    *eve, sent = step(alice, draws)
    columns = np.full((5, len(alice)), -1, dtype=np.int64)
    columns[0], (columns[1], _) = alice, product_sample(
        (state_set.amps_a, state_set.amps_b), forwarded, *sent, draws.random())
    for row, column in enumerate(eve, start=2):
        if column is not None:
            columns[row] = column
    return columns


def round_columns(
    state_set: StateSet, strategy: EveStrategy, seed: int, rounds: int
) -> Iterator[np.ndarray]:
    """Rounds 0 .. rounds-1 of a session, in chunks of CHUNK_ROUNDS, as int
    arrays of shape (5, chunk) holding Alice's label, Bob's label, the A and
    B outcomes and the inferred label (-1 where the channel recorded
    nothing), in round order.

    Round r draws only from the stream (seed, r). Sessions and estimates run
    only the kernel the strategy's own class defines, over each chunk; each
    lane whose draws the chunk cannot be sure of runs through the same
    kernel again, alone, on its own RngStream. A class without a `_kernel`
    of its own raises TypeError, rather than run its parent's."""
    if "_kernel" not in vars(type(strategy)):
        raise TypeError(f"{type(strategy).__name__} defines no _kernel of its own")
    step, forwarded = strategy._kernel(state_set)
    for start in range(0, rounds, CHUNK_ROUNDS):
        ids = np.arange(start, min(start + CHUNK_ROUNDS, rounds), dtype=np.uint64)
        draws = StreamBlocks(philox_block(seed, ids))
        columns = _kernel_columns(state_set, step, forwarded, draws)
        for lane in np.flatnonzero(draws.unsure).tolist():
            columns[:, lane:lane + 1] = _kernel_columns(
                state_set, step, forwarded, _one_lane(RngStream(seed, ids[lane])))
        yield columns


def run_session(config: ProtocolConfig) -> SessionResult:
    """Run a full session: all rounds, then the open comparison on a random
    subset. Each round draws from its own stream keyed by the round id, so
    results do not depend on execution order."""
    state_set, rounds = config.state_set, config.rounds
    columns = np.concatenate(
        list(round_columns(state_set, config.strategy, config.seed, rounds)), axis=1)
    alice, bob = columns[0], columns[1]

    check_count = math.ceil(config.check_fraction * rounds)
    selector = RngStream(config.seed, CHECK_STREAM_ID)
    checked = np.zeros(rounds, dtype=bool)
    checked[selector.permutation(rounds)[:check_count]] = True

    detected = bool(np.any(checked & (alice != bob)))
    key = bob[:0] if detected else bob[~checked]
    bits_per_round = math.log2(len(state_set))
    return SessionResult(
        *columns, checked, config.strategy.variant, detected, key, bits_per_round)


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
    checked = int(np.count_nonzero(result.checked))
    if not checked:
        raise InsufficientDataError("session opened no rounds for comparison")
    opened = result.checked
    mismatches = int(np.count_nonzero(result.alice[opened] != result.bob[opened]))
    low, high = wilson_interval(mismatches, checked)
    return DetectionStats(mismatches / checked, low, high, checked, mismatches)


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
    rounds = len(result.alice)
    stats = detection_probability(result)
    correct = int(np.count_nonzero(result.alice == result.bob))
    match_low, match_high = wilson_interval(correct, rounds)

    judged = result.inferred >= 0
    judged_count = int(np.count_nonzero(judged))
    right = int(np.count_nonzero(result.inferred[judged] == result.alice[judged]))
    accuracy = right / judged_count if judged_count else None

    key_rounds = len(result.key)
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
