"""The benchmark's workloads.

Each workload builds its inputs from the run's seed in `setup` and runs one
pass over a fixed mix of operations in `run_pass`. Every operation goes
through `timed(fn, *args)`, which measures that call alone. Its outputs are
checked against `oracle` right after it, outside its interval, and are
dropped before the next operation starts, so the checks never hold memory
while the program runs. Every pass of a run does the same operations, so
counts repeat exactly and a pass is the unit of a rate. The program
receives only the generated inputs; all calls go through module attributes
looked up at call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle


@dataclass
class PassResult:
    problems: list = field(default_factory=list)
    failed: int = 0


def _pass_seed(seed: int, index: int, salt: int) -> int:
    return (seed * 1_000_003 + index * 101 + salt) % 2**32


def _quiet_main(prog, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = prog.cli.main(argv)
    return status, out.getvalue()


def _read_report(path: str) -> dict[str, str]:
    pairs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if "=" in line and not line.startswith("#"):
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    return pairs


@dataclass
class Transcript:
    """What the checks need from a round transcript, read as a stream."""

    rows: int = 0
    in_order: bool = True
    flags_agree: bool = True
    checked: int = 0
    mismatches: int = 0
    kept: list = field(default_factory=list)  # unchecked bob_index values, in order


def _scan_transcript(path: str) -> Transcript:
    seen = Transcript()
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        column = {name: k for k, name in enumerate(next(reader))}
        rid, alice, bob, checked, mismatch = (
            column[c] for c in ("round_id", "alice_index", "bob_index", "checked", "mismatch"))
        for row in reader:
            seen.in_order &= int(row[rid]) == seen.rows
            seen.rows += 1
            flagged = row[mismatch] == "1"
            seen.flags_agree &= (row[alice] != row[bob]) == flagged
            seen.mismatches += flagged
            if row[checked] == "1":
                seen.checked += 1
            else:
                seen.kept.append(int(row[bob]))
    return seen


def _count_rows(path: str) -> int:
    with open(path, encoding="utf-8", newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def _amps(state_set) -> tuple[np.ndarray, np.ndarray]:
    amps_a = np.array([np.asarray(st.ket_a.amps) for st in state_set])
    amps_b = np.array([np.asarray(st.ket_b.amps) for st in state_set])
    return amps_a, amps_b


class CliSession:
    """`opqkd simulate` in process: two honest sessions and one intercepted
    one per pass, each writing a report, two transcripts and a key file."""

    name = "cli-session"
    CHECK_FRACTION = "0.1"
    HONEST_ROUNDS = 50_000
    ATTACKED_ROUNDS = 2_000

    def setup(self, prog, seed: int, scratch: str) -> None:
        self.prog = prog
        self.seed = seed
        self.scratch = scratch
        rng = np.random.default_rng(seed % 2**32)
        # Round counts that are not multiples of ten keep f*R off an integer.
        self.sessions = [
            (3, "none", self.HONEST_ROUNDS + int(rng.integers(1, 10))),
            (4, "none", self.HONEST_ROUNDS + int(rng.integers(1, 10))),
            (3, "intercept", self.ATTACKED_ROUNDS + int(rng.integers(1, 10))),
        ]
        self.work_per_pass = sum(rounds for _, _, rounds in self.sessions)
        self.ops_per_pass = len(self.sessions)

    def _paths(self, s: int) -> dict[str, str]:
        return {
            kind: os.path.join(self.scratch, f"session{s}-{kind}")
            for kind in ("report", "rounds", "eve", "key")
        }

    def run_pass(self, index: int, timed) -> PassResult:
        result = PassResult()
        for s, (dim, strategy, rounds) in enumerate(self.sessions):
            paths = self._paths(s)
            argv = [
                "simulate", "--dim", str(dim), "--strategy", strategy,
                "--rounds", str(rounds), "--check-fraction", self.CHECK_FRACTION,
                "--seed", str(_pass_seed(self.seed, index, s)),
                "--output", paths["report"], "--transcript", paths["rounds"],
                "--eve-transcript", paths["eve"], "--key-out", paths["key"],
            ]
            status, _ = timed(_quiet_main, self.prog, argv)
            result.problems += self._check(s, status)
        return result

    def _check(self, s: int, status: int) -> list[str]:
        dim, strategy, rounds = self.sessions[s]
        where = f"session {s} (n={dim}, {strategy})"
        if status != 0:
            return [f"{where}: exit status {status}"]
        paths = self._paths(s)
        report = _read_report(paths["report"])
        seen = _scan_transcript(paths["rounds"])
        eve_rows = _count_rows(paths["eve"])
        with open(paths["key"], encoding="utf-8") as handle:
            key = handle.read()
        if seen.rows != rounds or eve_rows != rounds:
            return [f"{where}: {seen.rows} round and {eve_rows} attacker rows for {rounds} rounds"]
        problems = []
        if not seen.in_order:
            problems.append(f"{where}: round ids out of order")
        expected_checked = oracle.checked_count(self.CHECK_FRACTION, rounds)
        if seen.checked != expected_checked:
            problems.append(f"{where}: {seen.checked} rounds checked, expected {expected_checked}")
        if not seen.flags_agree:
            problems.append(f"{where}: a mismatch flag disagrees with the indices")
        mismatches = seen.mismatches
        if strategy == "none":
            bits = oracle.key_bits(seen.kept, dim * dim)
            if mismatches:
                problems.append(f"{where}: honest session has {mismatches} mismatches")
            if report.get("detected") != "0":
                problems.append(f"{where}: honest session reported as detected")
            if key != bits + "\n":
                problems.append(f"{where}: key file differs from the packed transcript")
            if report.get("key_bit_count") != str(len(bits)):
                problems.append(f"{where}: key_bit_count {report.get('key_bit_count')} != {len(bits)}")
            if report.get("key_preview") != bits[:64]:
                problems.append(f"{where}: key_preview differs")
        else:
            survive = float(oracle.intercept_survival(dim))
            if not oracle.binomial_ok(rounds - mismatches, rounds, survive):
                problems.append(f"{where}: {rounds - mismatches}/{rounds} matches, expected rate {survive}")
            if report.get("detected") != "1" or key != "\n" or report.get("key_bit_count") != "0":
                problems.append(f"{where}: intercepted session was not caught")
        return problems


class AttackMonteCarlo:
    """`monte_carlo_estimate` for the three attacks at n = 3, 9 and 25."""

    name = "attack-mc"
    STRATEGIES = ("intercept", "complementary", "substitute")
    # Trials per call; n = 25 pays ~0.8 s of per-call set-up across the three
    # strategies, so its trial count keeps that dimension under half a pass.
    TRIALS = {3: 2000, 9: 2000, 25: 100}

    def setup(self, prog, seed: int, scratch: str) -> None:
        self.prog = prog
        self.seed = seed
        self.sets = {n: prog.stateset.build_symmetric(n) for n in self.TRIALS}
        self.expected = {}
        for n, state_set in self.sets.items():
            _, amps_b = _amps(state_set)
            self.expected[n] = {
                "intercept": float(oracle.intercept_survival(n)),
                "complementary": oracle.complementary_survival(amps_b),
                "substitute": float(oracle.substitute_survival(n)),
            }
        self.work_per_pass = len(self.STRATEGIES) * sum(self.TRIALS.values())
        self.ops_per_pass = len(self.STRATEGIES) * len(self.TRIALS)

    def run_pass(self, index: int, timed) -> PassResult:
        result = PassResult()
        for n, trials in self.TRIALS.items():
            for s, strategy in enumerate(self.STRATEGIES):
                seed = _pass_seed(self.seed, index, 10 * n + s)
                est = timed(self.prog.analysis.monte_carlo_estimate,
                            self.sets[n], strategy, trials, seed)
                result.problems += self._check(n, strategy, trials, est)
        return result

    def _check(self, n: int, strategy: str, trials: int, est) -> list[str]:
        problems = []
        where = f"n={n} {strategy}"
        p = self.expected[n][strategy]
        if est.trials != trials or est.value != est.successes / trials:
            problems.append(f"{where}: inconsistent estimate {est}")
        elif not oracle.binomial_ok(est.successes, trials, p):
            problems.append(f"{where}: {est.successes}/{trials} survived, expected rate {p}")
        if not est.ci_low <= est.value <= est.ci_high:
            problems.append(f"{where}: interval [{est.ci_low}, {est.ci_high}] misses {est.value}")
        return problems


def _dft(length: int) -> np.ndarray:
    k = np.arange(length)
    return np.exp(2j * np.pi * np.outer(k, k) / length) / np.sqrt(length)


def ring_tiling(n: int, shorten_top: bool = False) -> list[tuple[str, int, list]]:
    """(orientation, fixed index, cells) of the recursive family: rings of
    four length-(s-1) tiles for s = n, n-2, ..., around a centre singleton
    or a 2x2 block of singletons. With `shorten_top` the outer top row tile
    loses its last cell to a singleton, so row and column tile lengths no
    longer form the same multiset."""
    specs = []
    for s in range(n, 2, -2):
        o = (n - s) // 2
        top = [(o, o + b) for b in range(s - 1)]
        if shorten_top and s == n:
            specs.append(("singleton", o, [top.pop()]))
        specs += [
            ("row", o, top),
            ("col", o + s - 1, [(o + a, o + s - 1) for a in range(s - 1)]),
            ("row", o + s - 1, [(o + s - 1, o + b) for b in range(1, s)]),
            ("col", o, [(o + a, o) for a in range(1, s)]),
        ]
    if n % 2:
        c = n // 2
        specs.append(("singleton", c, [(c, c)]))
    else:
        o = n // 2 - 1
        specs += [("singleton", o + a, [(o + a, o + b)]) for a in (0, 1) for b in (0, 1)]
    return specs


class SetDesign:
    """Building and checking sets, with no protocol rounds: the recursive
    family across n, tilings written and read back as set files, and one
    malformed set file fed to `opqkd validate`."""

    name = "set-design"
    SYM_DIMS = tuple(range(3, 16)) + (19, 25)
    EXACT_MAX = 15
    VARIANTS = ("intercept", "complementary", "substitute")
    # Relabelled copies of the family find a symmetry after a seed-dependent
    # share of the n! search, so they stop at n = 8; the length-asymmetric
    # tilings search all n! relabellings whatever the seed.
    RELABELLED_DIMS = (6, 7, 8)
    ASYMMETRIC_DIMS = (8, 9)

    def setup(self, prog, seed: int, scratch: str) -> None:
        self.prog = prog
        self.scratch = scratch
        rng = np.random.default_rng(seed % 2**32)
        self.tilings = []
        for n, asym in [(n, False) for n in self.RELABELLED_DIMS] + [
            (n, True) for n in self.ASYMMETRIC_DIMS
        ]:
            specs = ring_tiling(n, shorten_top=asym)
            rows, cols = rng.permutation(n), rng.permutation(n)
            self.tilings.append((self._build(n, specs, rows, cols), not asym))
        # The malformed file does not depend on the seed: it is the same
        # failure in every run.
        self.bad_path = os.path.join(scratch, "missing-key.json")
        doc = json.loads(prog.stateset.stateset_to_text(prog.stateset.build_symmetric(3)))
        del doc["n"]
        with open(self.bad_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=2) + "\n")
        self.work_per_pass = len(self.SYM_DIMS) + len(self.tilings) + 1
        self.ops_per_pass = self.work_per_pass

    def _build(self, n, specs, rows, cols):
        st = self.prog.stateset
        tiles, label = [], 0
        for orientation, fixed, cells in specs:
            moved = tuple((int(rows[a]), int(cols[b])) for a, b in cells)
            fixed = int(cols[fixed]) if orientation == "col" else int(rows[fixed])
            tiles.append(st.Tile(orientation, fixed, moved, _dft(len(moved)),
                                 tuple(range(label, label + len(moved)))))
            label += len(moved)
        return st.StateSet(st.states_from_tiles(n, tiles), st.DominoLayout(n, tuple(tiles)))

    def run_pass(self, index: int, timed) -> PassResult:
        # Each check takes the operation's outputs straight from `timed`, so
        # nothing of one operation is alive while the next one runs.
        result = PassResult()
        for n in self.SYM_DIMS:
            result.problems += self._check_family(n, *timed(self._family, n))
        for k, (tiling, expect_symmetric) in enumerate(self.tilings):
            result.problems += self._check_tiling(
                tiling, expect_symmetric, *timed(self._round_trip, k, tiling))
        status, text = timed(self._validate_malformed)
        if status != 1 or "verdict = fail" not in text:
            result.failed += 1
        return result

    def _family(self, n: int):
        st, an = self.prog.stateset, self.prog.analysis
        built = st.build_symmetric(n)
        joint = st.bob_basis(built)
        exact = {}
        if n <= self.EXACT_MAX:
            exact = {v: an.exact_undetected_prob(built, v).value for v in self.VARIANTS}
        return built, joint, st.check_conditions(built), st.is_four_fold_symmetric(built.layout), exact

    def _round_trip(self, k: int, tiling):
        st = self.prog.stateset
        path = os.path.join(self.scratch, f"tiling{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(st.stateset_to_text(tiling))
        with open(path, encoding="utf-8") as handle:
            parsed = st.stateset_from_text(handle.read())
        return parsed, st.check_conditions(parsed), st.is_four_fold_symmetric(parsed.layout)

    def _validate_malformed(self) -> tuple[object, str]:
        try:
            return _quiet_main(self.prog, ["validate", "--set-file", self.bad_path])
        except Exception as exc:  # the fault under measurement escapes main()
            return type(exc).__name__, ""

    def _check_family(self, n, built, joint, report, symmetric, exact) -> list[str]:
        where = f"family n={n}"
        problems = self._check_set(where, built, report)
        amps_a, amps_b = _amps(built)
        if oracle.joint_rows_error(joint.matrix, amps_a, amps_b) > oracle.GRAM_ATOL:
            problems.append(f"{where}: bob_basis rows are not A_i (x) B_i")
        if not symmetric:
            problems.append(f"{where}: not found four-fold symmetric")
        want = {
            "intercept": float(oracle.intercept_survival(n)),
            "complementary": oracle.complementary_survival(amps_b),
            "substitute": float(oracle.substitute_survival(n)),
        }
        for variant, value in exact.items():
            if abs(value - want[variant]) > 1e-12:
                problems.append(f"{where}: exact {variant} {value} != {want[variant]}")
        return problems

    def _check_tiling(self, tiling, expect_symmetric, parsed, report, symmetric) -> list[str]:
        where = f"tiling n={tiling.n}"
        problems = self._check_set(where, parsed, report)
        for a, b in zip(_amps(tiling), _amps(parsed)):
            if not np.array_equal(a, b):
                problems.append(f"{where}: amplitudes changed in the set file round trip")
        tiles = parsed.layout.tiles
        rows = [len(t) for t in tiles if t.orientation == "row" and len(t) > 1]
        cols = [len(t) for t in tiles if t.orientation == "col" and len(t) > 1]
        if expect_symmetric == oracle.length_multisets_differ(rows, cols):
            problems.append(f"{where}: tile lengths do not match the generator")
        if symmetric != expect_symmetric:
            problems.append(f"{where}: four-fold symmetry {symmetric}, expected {expect_symmetric}")
        return problems

    @staticmethod
    def _check_set(where, state_set, report) -> list[str]:
        amps_a, amps_b = _amps(state_set)
        problems = []
        if oracle.joint_gram_error(amps_a, amps_b) > oracle.GRAM_ATOL:
            problems.append(f"{where}: joint Gram matrix is not the identity")
        if tuple(report.ok_a) != oracle.oblique_partners(amps_a):
            problems.append(f"{where}: condition A differs from the overlap matrix")
        if tuple(report.ok_b) != oracle.oblique_partners(amps_b):
            problems.append(f"{where}: condition B differs from the overlap matrix")
        return problems


WORKLOADS = {w.name: w for w in (CliSession, AttackMonteCarlo, SetDesign)}
