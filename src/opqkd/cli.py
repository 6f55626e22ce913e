"""Command-line front end.

Commands: validate, simulate, exact, sweep, demo. Exit codes: 0 success or
pass, 1 validation failure, 2 unsupported input (including a `--rounds`,
`--trials`, `--dim`, `--max-dim` or set-file n beyond the memory budget),
3 runtime (I/O) failure.
The default seed comes from OPQKD_SEED when set.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from typing import Iterable, Iterator, Sequence

import numpy as np

from .adversary import (
    ATTACK_NAMES,
    STRATEGY_NAMES,
    ConditionalInterceptResend,
    conditional_b_basis,
    make_strategy,
)
from .analysis import dimension_sweep, exact_treatment, exact_undetected_prob
from .errors import InvalidSetError, UnsupportedDimensionError
from .protocol import CHUNK_ROUNDS, ProtocolConfig, _one_lane, run_session, summarize_session
from .qcore import MeasurementBasis, RngStream, born_probabilities, joint_amps, joint_rows, key_word
from .stateset import (
    MEMORY_BUDGET_BYTES,
    SetParameters,
    StateSet,
    build_3x3,
    build_symmetric,
    check_conditions,
    check_dim,
    is_four_fold_symmetric,
    stateset_from_text,
    stateset_to_text,
)

SEED_ENV_VAR = "OPQKD_SEED"
_KEY_PREVIEW_BITS = 64
# `simulate` holds its whole session in memory: at most 160 bytes per round
# (peaks at n = 9 and 31 over 200k and 800k rounds, rounded up). Transcripts
# are written a block of rows at a time and add nothing per round. `sweep`
# runs no more Monte Carlo trials per dimension than that.
_MAX_ROUNDS = MEMORY_BUDGET_BYTES // 160


def _write_atomic(path: str, blocks: Iterable[str]) -> None:
    """Write text blocks via a temporary file in the target directory, then
    rename. An OS error names the target path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".opqkd-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _resolve_seed(args) -> int:
    """The seed, checked to be a Philox key word before anything runs."""
    if args.seed is not None:
        return key_word("seed", args.seed)
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None
    return key_word("seed", seed)


def _parse_params(text: str) -> SetParameters:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 8:
        raise ValueError("--params needs exactly eight comma-separated amplitudes")
    try:
        values = [complex(p) for p in parts]
    except ValueError:
        raise ValueError(f"could not parse amplitudes from {text!r}") from None
    return SetParameters(*values)


def _load_set(args) -> tuple[StateSet, str]:
    if getattr(args, "set_file", None):
        with open(args.set_file, "r", encoding="utf-8") as handle:
            return stateset_from_text(handle.read()), f"file:{args.set_file}"
    if getattr(args, "params", None):
        if args.dim != 3:
            raise ValueError("--params applies only to --dim 3")
        return build_3x3(_parse_params(args.params)), "parameterized-3x3"
    check_dim("--dim", args.dim)
    return build_symmetric(args.dim), f"symmetric-{args.dim}"


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_text(header: str, pairs: list[tuple[str, object]], comments: tuple[str, ...] = ()) -> str:
    lines = [f"# opqkd {header} report"]
    lines.extend(f"# {c}" for c in comments)
    lines.extend(f"{key} = {_fmt(value)}" for key, value in pairs)
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    return "" if value is None else value if isinstance(value, str) else _fmt(value)


def _round_blocks(size: int, columns: Sequence[np.ndarray], *lead: str) -> Iterator[list]:
    """The cells of a transcript, CHUNK_ROUNDS rows at a time: the round
    ids, each `lead` text on every row, then int or bool columns whose
    entries lie in [0, size), or are -1 for an empty cell. Equal entries
    share one string."""
    table = np.array([*map(str, range(size)), ""], dtype=object)
    for start in range(0, len(columns[0]), CHUNK_ROUNDS):
        ids = range(start, min(start + CHUNK_ROUNDS, len(columns[0])))
        # repr of an int is its str, formed without a call to the str type
        yield [list(map(repr, ids)), *([text] * len(ids) for text in lead),
               *(table.take(column[ids.start:ids.stop]).tolist() for column in columns)]


def _csv_text(headers: list[str], blocks: Iterable[list[list[str]]]) -> Iterator[str]:
    """CSV text of a header line, then one line per row of each block of
    equal-length, non-empty columns of cells. The cells written here
    (numbers, strategy names, empty) never need quoting."""
    yield ",".join(headers) + "\n"
    for columns in blocks:
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


def _emit(args, text: str) -> None:
    output = getattr(args, "output", None)
    if output:
        _write_atomic(output, [text])
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        state_set, desc = _load_set(args)
    except InvalidSetError as exc:
        _emit(args, _report_text("validate", [
            ("command", "validate"),
            ("set", "unbuildable"),
            ("error", str(exc)),
            ("verdict", "fail"),
        ]))
        return 1
    report = check_conditions(state_set)
    symmetric = is_four_fold_symmetric(state_set.layout)
    failures = " ".join(f"{i}:{sub}" for i, sub in report.failures()) or "none"
    verdict = "pass" if report.passed else "fail"
    pairs = [
        ("command", "validate"),
        ("dim", state_set.n),
        ("set", desc),
        ("orthogonal_complete", True),
        ("conditions_pass", report.passed),
        ("condition_failures", failures),
        ("four_fold_symmetric", symmetric),
        ("verdict", verdict),
    ]
    _emit(args, _report_text("validate", pairs))
    if args.export:
        _write_atomic(args.export, [stateset_to_text(state_set)])
    return 0 if report.passed else 1


def _key_material(key: np.ndarray, n_squared: int) -> tuple[int, str]:
    """Pack kept labels (round order, most significant first) into the low
    floor(k log2(n^2)) bits of the base-n^2 integer they spell."""
    if not len(key):
        return 0, ""
    bit_count = int(math.floor(len(key) * math.log2(n_squared)))
    if bit_count == 0:
        return 0, ""
    value = _radix_value(np.asarray(key, dtype=np.int64), n_squared)
    return bit_count, format(value & ((1 << bit_count) - 1), f"0{bit_count}b")


def _radix_value(digits: np.ndarray, base: int) -> int:
    """The integer spelled by base-`base` digits, most significant first.

    Divide-and-conquer radix conversion: runs of digits are packed into
    int64 words, then neighbouring numbers are merged pairwise, level by
    level, so every product is of two numbers of equal size."""
    width = 1
    while base ** (width + 1) < 2**63:
        width += 1
    padded = np.zeros(len(digits) + -len(digits) % width, dtype=np.int64)
    padded[len(padded) - len(digits):] = digits
    powers = np.array([base**k for k in range(width - 1, -1, -1)], dtype=np.int64)
    values = (padded.reshape(-1, width) @ powers).tolist()
    power = base**width
    while len(values) > 1:
        if len(values) % 2:
            values.insert(0, 0)
        values = [high * power + low for high, low in zip(values[::2], values[1::2])]
        power *= power
    return values[0]


def _beyond_rounds_ceiling(option: str, rounds: int) -> bool:
    """True, once one error line says so, when a session of `rounds` rounds
    would not fit in the memory budget."""
    if rounds <= _MAX_ROUNDS:
        return False
    print(f"error: {option} {rounds} exceeds {_MAX_ROUNDS}, the most whose session "
          f"fits in {MEMORY_BUDGET_BYTES >> 20} MiB", file=sys.stderr)
    return True


def cmd_simulate(args) -> int:
    if _beyond_rounds_ceiling("--rounds", args.rounds):
        return 2
    seed = _resolve_seed(args)
    state_set, desc = _load_set(args)
    strategy = make_strategy(args.strategy, state_set)
    config = ProtocolConfig(state_set, args.rounds, args.check_fraction, seed, strategy)
    result = run_session(config)
    summary = summarize_session(result)
    bit_count, bits = _key_material(result.key, len(state_set))

    pairs = [
        ("command", "simulate"),
        ("dim", state_set.n),
        ("set", desc),
        ("strategy", strategy.variant),
        ("rounds", summary.rounds),
        ("check_fraction", args.check_fraction),
        ("seed", seed),
        ("rounds_checked", summary.checked_rounds),
        ("mismatches", summary.mismatches),
        ("detected", summary.detected),
        ("mismatch_rate", summary.mismatch_rate),
        ("mismatch_ci_low", summary.mismatch_ci_low),
        ("mismatch_ci_high", summary.mismatch_ci_high),
        ("undetected_correct", summary.undetected_correct),
        ("match_rate", summary.match_rate),
        ("match_ci_low", summary.match_ci_low),
        ("match_ci_high", summary.match_ci_high),
        ("key_rounds", summary.key_rounds),
        ("bits_per_round", summary.bits_per_round),
        ("key_bits", summary.key_bits),
        ("key_bit_count", bit_count),
        ("key_preview", bits[:_KEY_PREVIEW_BITS] if bits else "n/a"),
        ("eve_accuracy", summary.eve_accuracy),
    ]
    comments = (
        "key bits: low floor(k*log2(n^2)) bits of the base-n^2 integer",
        "spelled by the kept labels in round order, most significant first",
    )
    _emit(args, _report_text("simulate", pairs, comments))

    size = len(state_set)
    if args.transcript:
        columns = (result.alice, result.bob, result.checked, result.alice != result.bob)
        _write_atomic(args.transcript, _csv_text(
            ["round_id", "alice_index", "bob_index", "checked", "mismatch"],
            _round_blocks(size, columns)))
    if args.eve_transcript:
        correct = np.where(result.inferred < 0, -1, result.inferred == result.alice)
        columns = (result.a_outcome, result.b_outcome, result.inferred, correct)
        _write_atomic(args.eve_transcript, _csv_text(
            ["round_id", "variant", "a_outcome", "b_outcome", "inferred_state", "correct"],
            _round_blocks(size, columns, result.variant)))
    if args.key_out:
        _write_atomic(args.key_out, [bits + "\n"])
    return 0


def cmd_exact(args) -> int:
    state_set, desc = _load_set(args)
    result = exact_undetected_prob(state_set, args.strategy)
    treatment = exact_treatment(args.strategy)
    closed = None
    if treatment.everywhere or desc.startswith("symmetric-"):
        closed = treatment.family(state_set.n)
    elif desc == "parameterized-3x3" and treatment.parameterized:
        closed = treatment.parameterized(_parse_params(args.params))
    pairs: list[tuple[str, object]] = [
        ("command", "exact"),
        ("dim", state_set.n),
        ("set", desc),
        ("strategy", result.variant),
        ("value", result.value),
        ("closed_form", closed),
    ]
    pairs.extend((f"contribution_{i}", c) for i, c in enumerate(result.contributions))
    _emit(args, _report_text("exact", pairs))
    return 0


def cmd_sweep(args) -> int:
    check_dim("--max-dim", args.max_dim)
    if _beyond_rounds_ceiling("--trials", args.trials):
        return 2
    seed = _resolve_seed(args)
    rows = dimension_sweep(args.max_dim, args.strategy, args.trials, seed, args.exact_budget)
    table = [dataclasses.astuple(r) for r in rows]
    text = "".join(_csv_text(
        ["n", "strategy", "exact", "closed_form", "gap_to_half",
         "mc_estimate", "ci_low", "ci_high", "trials", "seed"],
        [[list(map(_cell, column)) for column in zip(*table)]]))
    _emit(args, text)
    return 0


def _format_ket(amps: np.ndarray) -> str:
    terms = []
    for k, z in enumerate(amps):
        if abs(z) <= 1e-12:
            continue
        terms.append(f"({z.real:+.4f}{z.imag:+.4f}j)|{k}>")
    return " + ".join(terms)


def cmd_demo(args) -> int:
    seed = _resolve_seed(args)
    out = sys.stdout.write
    state_set = build_3x3()
    out("balanced 3x3 set: nine orthogonal two-particle product states\n")
    for st in state_set:
        out(f"  state {st.index}:  A = {_format_ket(st.ket_a.amps)}   B = {_format_ket(st.ket_b.amps)}\n")

    label = 2
    prepared = state_set[label]
    out(f"\none intercept-resend round, prepared label {label} (seed {seed})\n")
    # The kernel's step on one lane, drawing from round 0's stream as the hooks would.
    step, (kets_a, kets_b) = ConditionalInterceptResend(state_set)._kernel(state_set)
    (a,), (b,), (guess,), ((key_a,), (key_b,)) = step(np.array([label]), _one_lane(RngStream(seed, 0)))

    probs_a = born_probabilities(prepared.ket_a, MeasurementBasis.computational(state_set.n))
    dist = ", ".join(f"P({m})={p:.4f}" for m, p in enumerate(probs_a) if p > 1e-12)
    out(f"  leg 1: attacker measures A in the computational basis: {dist}\n")
    out(f"  leg 1: outcome {a}, forwards {_format_ket(kets_a[key_a])}\n")

    basis = conditional_b_basis(state_set, a)
    out(f"  leg 2: basis matched to outcome {a}:\n")
    for v in basis.vectors:
        out(f"         {_format_ket(v.amps)}\n")
    out(f"  leg 2: outcome {b}, forwards {_format_ket(kets_b[key_b])}\n")
    out(f"  attacker guesses label {guess}\n")

    probs = joint_rows((state_set.amps_a, state_set.amps_b), joint_amps(kets_a[key_a], kets_b[key_b]))
    dist = ", ".join(f"P({i})={p:.4f}" for i, p in enumerate(probs) if p > 1e-12)
    out(f"  receiver's joint measurement: {dist}\n")
    exact = exact_undetected_prob(state_set, "intercept")
    out(f"  averaged over everything, this attack survives a checked round "
        f"with probability {exact.value:.6f}\n")
    return 0


def _add_set_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=3, help="grid dimension n (default 3)")
    p.add_argument("--params", default=None,
                   help="eight comma-separated complex amplitudes a,b,c,d,e,f,g,h (dim 3 only)")
    p.add_argument("--set-file", default=None, help="load a serialized state set")


def _add_seed_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (default: ${SEED_ENV_VAR} or 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opqkd",
        description="Orthogonal product-state key distribution: sets, sessions, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="build a set and re-check its structure")
    _add_set_args(p)
    p.add_argument("--export", default=None, help="write the serialized set here")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run a full session")
    _add_set_args(p)
    _add_seed_arg(p)
    p.add_argument("--strategy", choices=STRATEGY_NAMES, default="none")
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--check-fraction", type=float, default=0.1)
    p.add_argument("--output", default=None, help="write the report here instead of stdout")
    p.add_argument("--transcript", default=None, help="write per-round CSV here")
    p.add_argument("--eve-transcript", default=None, help="write the attacker's CSV here")
    p.add_argument("--key-out", default=None, help="write the full key bitstring here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact survival probability by enumeration")
    _add_set_args(p)
    p.add_argument("--strategy", choices=ATTACK_NAMES, default="intercept")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sweep", help="survival probability across dimensions, as CSV")
    _add_seed_arg(p)
    p.add_argument("--max-dim", type=int, default=9)
    p.add_argument("--strategy", choices=ATTACK_NAMES, default="intercept")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials per dimension (0 disables)")
    p.add_argument("--exact-budget", type=int, default=9,
                   help="largest n still solved by full enumeration")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="walk one attacked round at dimension 3")
    _add_seed_arg(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
