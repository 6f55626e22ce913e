import ast
import contextlib
import dataclasses
import hashlib
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from opqkd import (
    EveStrategy,
    InsufficientDataError,
    MeasurementBasis,
    ProtocolConfig,
    RngStream,
    StateSet,
    bob_basis,
    build_symmetric,
    detection_probability,
    exact_undetected_prob,
    make_strategy,
    monte_carlo_estimate,
    run_round,
    run_session,
    summarize_session,
    wilson_interval,
)
from opqkd import adversary, analysis, cli, protocol, qcore, stateset
from opqkd.adversary import STRATEGIES, STRATEGY_NAMES
from opqkd.protocol import round_columns
from opqkd.qcore import StreamBlocks, philox_block


def test_config_validation():
    s = build_symmetric(3)
    ProtocolConfig(s, rounds=10, check_fraction=0.5, seed=1)
    with pytest.raises(ValueError):
        ProtocolConfig(s, rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(s, rounds=10, check_fraction=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(s, rounds=10, check_fraction=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(s, rounds=10, seed=-4)
    with pytest.raises(ValueError):
        ProtocolConfig(s, rounds=10, seed=2**64)


def test_config_rejects_dimension_mismatch():
    s3 = build_symmetric(3)
    s4 = build_symmetric(4)
    with pytest.raises(ValueError):
        ProtocolConfig(s3, rounds=10, strategy=make_strategy("intercept", s4))


def test_honest_session_never_mismatches():
    s = build_symmetric(3)
    result = run_session(ProtocolConfig(s, rounds=400, check_fraction=0.25, seed=9))
    assert not result.detected
    assert all(not rec.mismatch for rec in result.records)
    assert all(rec.alice_index == rec.bob_index for rec in result.records)
    assert result.bits_per_round == pytest.approx(math.log2(9), abs=1e-15)


def test_check_subset_size_and_key_split():
    s = build_symmetric(3)
    rounds, fraction = 400, 0.25
    result = run_session(ProtocolConfig(s, rounds=rounds, check_fraction=fraction, seed=9))
    checked = [rec for rec in result.records if rec.checked]
    assert len(checked) == math.ceil(fraction * rounds)
    assert len(result.key_indices) == rounds - len(checked)
    kept = [rec.bob_index for rec in result.records if not rec.checked]
    assert list(result.key_indices) == kept


def test_session_is_deterministic():
    s = build_symmetric(3)
    cfg = ProtocolConfig(s, rounds=200, check_fraction=0.1, seed=33,
                         strategy=make_strategy("intercept", s))
    first = run_session(cfg)
    cfg2 = ProtocolConfig(s, rounds=200, check_fraction=0.1, seed=33,
                          strategy=make_strategy("intercept", s))
    second = run_session(cfg2)
    assert first.records == second.records
    assert first.eve_records == second.eve_records
    third = run_session(ProtocolConfig(s, rounds=200, check_fraction=0.1, seed=34,
                                       strategy=make_strategy("intercept", s)))
    assert third.records != first.records


def test_rounds_reproduce_independently():
    # any round can be replayed alone from its (seed, round_id) stream
    s = build_symmetric(3)
    seed = 21
    cfg = ProtocolConfig(s, rounds=50, check_fraction=0.1, seed=seed,
                         strategy=make_strategy("complementary", s))
    session = run_session(cfg)
    joint = bob_basis(s)
    for round_id in (0, 7, 31, 49):
        strategy = make_strategy("complementary", s)
        alice, bob, _ = run_round(s, joint, strategy, round_id, RngStream(seed, round_id))
        rec = session.records[round_id]
        assert (alice, bob) == (rec.alice_index, rec.bob_index)


def test_intercept_session_is_detected():
    s = build_symmetric(3)
    cfg = ProtocolConfig(s, rounds=2000, check_fraction=0.1, seed=5,
                         strategy=make_strategy("intercept", s))
    result = run_session(cfg)
    assert result.detected
    assert result.key_indices == ()
    stats = detection_probability(result)
    assert stats.checked_rounds == 200
    assert stats.ci_low <= stats.rate <= stats.ci_high
    # disturbance rate should sit near 2/9
    assert abs(stats.rate - 2.0 / 9.0) < 0.08


def test_leg_order_is_first_then_second():
    calls = []

    class SpyStrategy(EveStrategy):
        def _intercept_first(self, rnd, ket_a, rng):
            calls.append(("first", rnd.round_id))
            return ket_a

        def _intercept_second(self, rnd, ket_b, rng):
            calls.append(("second", rnd.round_id))
            return ket_b

    s = build_symmetric(3)
    joint, spy = bob_basis(s), SpyStrategy()
    for round_id in range(30):
        run_round(s, joint, spy, round_id, RngStream(2, round_id))
    assert len(calls) == 60
    for round_id in range(30):
        assert calls[2 * round_id] == ("first", round_id)
        assert calls[2 * round_id + 1] == ("second", round_id)
    # sessions run only a kernel the strategy's own class defines: hooks
    # overridden without one are refused, not replaced by the parent's kernel
    with pytest.raises(TypeError, match="SpyStrategy"):
        run_session(ProtocolConfig(s, rounds=30, check_fraction=0.1, seed=2,
                                   strategy=SpyStrategy()))


def test_every_strategy_defines_its_own_kernel():
    assert all("_kernel" in vars(cls) for cls in STRATEGIES)


_HOOKS = {"begin_round", "first_leg", "second_leg", "finish_round"}


def _users(names):
    # the functions of the package ("module.Class.function") whose code
    # names any of `names`, as a variable or an attribute
    users = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr in names
                    or isinstance(child, ast.Name) and child.id in names):
                users.add(where)
            visit(child, where)

    for path in sorted(Path(protocol.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return users


def test_only_run_round_plays_the_per_leg_hooks():
    # the hooks are the one-round reference: no other code of the package
    # names them, so nothing else can play a round through them
    assert _users(_HOOKS) == {"protocol.run_round"}


def test_only_the_reference_names_the_joint_basis():
    # the n^2 x n^2 joint basis is the per-leg reference's alone: sessions,
    # estimates and demo measure with joint_rows, from the set's parts
    assert _users({"joint_matrix"}) == {"stateset.bob_basis"}
    assert _users({"bob_basis"}) == {"adversary.SubstituteCollective._joint_basis"}


def test_detection_probability_requires_checked_rounds():
    s = build_symmetric(3)
    result = run_session(ProtocolConfig(s, rounds=20, check_fraction=0.2, seed=1))
    unchecked = dataclasses.replace(result, checked=np.zeros_like(result.checked))
    with pytest.raises(InsufficientDataError):
        detection_probability(unchecked)


def test_wilson_interval_basics():
    low, high = wilson_interval(0, 50)
    assert low == 0.0 and 0.0 < high < 0.12
    low, high = wilson_interval(50, 50)
    assert high == 1.0 and low > 0.9
    mid_low, mid_high = wilson_interval(40, 80)
    assert mid_low < 0.5 < mid_high
    narrow = wilson_interval(400, 800)
    assert narrow[1] - narrow[0] < mid_high - mid_low
    with pytest.raises(InsufficientDataError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_summarize_session_counts():
    s = build_symmetric(3)
    cfg = ProtocolConfig(s, rounds=500, check_fraction=0.2, seed=8,
                         strategy=make_strategy("intercept", s))
    result = run_session(cfg)
    report = summarize_session(result)
    assert report.rounds == 500
    assert report.checked_rounds == 100
    assert report.undetected_correct == sum(r.alice_index == r.bob_index for r in result.records)
    assert report.match_rate == pytest.approx(report.undetected_correct / 500)
    assert report.key_rounds == len(result.key_indices)
    assert report.key_bits == pytest.approx(report.key_rounds * report.bits_per_round)
    assert 0.0 <= report.eve_accuracy <= 1.0


def test_summarize_session_honest_channel():
    s = build_symmetric(3)
    report = summarize_session(run_session(ProtocolConfig(s, rounds=100, check_fraction=0.1, seed=3)))
    assert report.mismatches == 0
    assert not report.detected
    assert report.eve_accuracy is None
    assert report.key_rounds == 90


def _crafted_columns(monkeypatch, state_set, name, seed, rounds, halves):
    """round_columns with the halves of word 0 named per lane in `halves`
    (0 low, 1 high) zeroed: a zero low half makes Lemire's method reject
    any bound that is not a power of two, and so does a zero high half for
    the substitute index. Returns the columns and the stream ids, calls to
    run_round and bob_basis, and basis dimensions seen meanwhile."""
    real_block = protocol.philox_block
    seen = {"streams": [], "run_round": 0, "bob_basis": 0, "basis_dims": []}

    def crafted_block(seed, ids):
        words = real_block(seed, ids)
        for lane, zeroed in halves.items():
            for half in zeroed:
                words[0, lane] &= ~np.uint64(0xFFFFFFFF << (32 * half))
        return words

    def counted(key, fn):
        def spy(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return spy

    def spy_stream(seed, stream_id=0):
        seen["streams"].append(stream_id)
        return RngStream(seed, stream_id)

    real_init = MeasurementBasis.__init__

    def spy_basis(self, vectors):
        vectors = tuple(vectors)
        seen["basis_dims"].append(vectors[0].dim if vectors else 0)
        real_init(self, vectors)

    strategy = make_strategy(name, state_set)
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "philox_block", crafted_block)
        patch.setattr(protocol, "RngStream", spy_stream)
        patch.setattr(protocol, "run_round", counted("run_round", protocol.run_round))
        patch.setattr(adversary, "bob_basis", counted("bob_basis", adversary.bob_basis))
        patch.setattr(MeasurementBasis, "__init__", spy_basis)
        columns = np.concatenate(list(round_columns(state_set, strategy, seed, rounds)), axis=1)
    return columns, seen


def test_unsure_lanes_are_replayed_through_the_kernel(monkeypatch):
    # a lane whose draw Lemire's method rejects runs through the strategy's
    # kernel alone, on its own stream, and never builds the n^2 basis
    for n in (5, 6):
        s = build_symmetric(n)
        for name in STRATEGY_NAMES:
            (expected,) = round_columns(s, make_strategy(name, s), 5, 40)
            got, seen = _crafted_columns(monkeypatch, s, name, 5, 40, {17: (0,)})
            assert got.tolist() == expected.tolist(), (n, name)
            assert seen["streams"] == [17]
            assert seen["run_round"] == seen["bob_basis"] == 0
            assert n * n not in seen["basis_dims"]


_SETS: dict = {}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=hst.integers(0, 2**64 - 1), n=hst.sampled_from([3, 5, 6, 7]),
       name=hst.sampled_from(STRATEGY_NAMES), rounds=hst.integers(1, 64), data=hst.data())
def test_crafted_lanes_give_the_uncrafted_columns(monkeypatch, seed, n, name, rounds, data):
    # powers of two divide 2^32 and never flag a lane, so they are left out
    halves = data.draw(hst.dictionaries(
        hst.integers(0, rounds - 1), hst.sets(hst.sampled_from([0, 1]), min_size=1), max_size=6))
    s = _SETS.setdefault(n, build_symmetric(n))
    (expected,) = round_columns(s, make_strategy(name, s), seed, rounds)
    got, seen = _crafted_columns(monkeypatch, s, name, seed, rounds, halves)
    assert got.tolist() == expected.tolist()
    assert set(seen["streams"]) >= {lane for lane, zeroed in halves.items() if 0 in zeroed}


def test_forced_replay_builds_no_joint_matrix(monkeypatch):
    # structure only: at n = 41 a replayed substitute lane forms neither
    # the joint matrix nor any basis of dimension n^2
    s = build_symmetric(41)
    touched = []
    monkeypatch.setattr(StateSet, "joint_matrix", property(lambda self: touched.append(1)))
    _, seen = _crafted_columns(monkeypatch, s, "substitute", 3, 20, {4: (0, 1)})
    assert seen["streams"] == [4]
    assert not touched and max(seen["basis_dims"], default=0) < 41 * 41


def _force_flags(monkeypatch):
    # a guard band wider than any distribution: Bob's tables, and the
    # substitute attacker's, measure every lane on its joint row, as no
    # sure band is left; and no seat band: the intercept's second leg asks
    # for every lane's row
    monkeypatch.setattr(qcore, "guard_band", lambda n: 2.0)
    monkeypatch.setattr(adversary, "seat_band", lambda n: 1.0)


def _spy_rows(monkeypatch):
    # per call, (lanes, lanes flagged) of product_sample and (lanes, None) of
    # born_sample, wherever a kernel or Bob calls them
    calls = []
    real_product, real_born = qcore.product_sample, qcore.born_sample

    def product(*args):
        outcomes, flagged = real_product(*args)
        calls.append((len(outcomes), flagged))
        return outcomes, flagged

    def born(rows, size, keys, u):
        calls.append((len(keys), None))
        return real_born(rows, size, keys, u)

    for module in (protocol, adversary):
        monkeypatch.setattr(module, "product_sample", product)
    monkeypatch.setattr(adversary, "born_sample", born)
    return calls


# sha256 of the int64 columns, rounds 0..599 with seed 7, every lane flagged;
# pinned while each table still formed its own conjugate of the joint matrix
_FORCED_COLUMNS = {
    (3, "none"): "3dd172c1bee0222d", (3, "intercept"): "69ea77200a855cb0",
    (3, "complementary"): "6aad5f86d831dc91", (3, "substitute"): "e3bb0450611e5c06",
    (5, "none"): "1c65df2e6e6ca3dd", (5, "intercept"): "58b249ed683cdbf4",
    (5, "complementary"): "887de95d9cf4ecc2", (5, "substitute"): "75002444b3096931",
    (9, "none"): "f501613f4b43f7cb", (9, "intercept"): "0f37df275f6e0c3f",
    (9, "complementary"): "da0dc29ee3321a1a", (9, "substitute"): "d05401dd7474fc3b",
}


def _assert_forced_columns(monkeypatch, n, rounds, pinned):
    # every lane flagged, each strategy's columns are the unflagged ones,
    # and their sha256 the pinned one; a spy sees no lane decided by a band:
    # every product_sample lane is flagged, and the intercept's two legs and
    # the complementary leg ask for a row for each round
    s = build_symmetric(n)
    plain = {name: next(round_columns(s, make_strategy(name, s), 7, rounds)) for name in STRATEGY_NAMES}
    _force_flags(monkeypatch)
    calls = _spy_rows(monkeypatch)
    for name in STRATEGY_NAMES:
        calls.clear()
        (forced,) = round_columns(s, make_strategy(name, s), 7, rounds)
        assert forced.tolist() == plain[name].tolist(), name
        digest = hashlib.sha256(forced.astype("<i8").tobytes()).hexdigest()
        assert digest[:16] == pinned[n, name], name
        assert all(flagged in (None, lanes) for lanes, flagged in calls), name
        samplers = {"intercept": 2, "complementary": 1}.get(name, 0)
        assert sum(lanes for lanes, flagged in calls if flagged is None) == samplers * rounds, name


@pytest.mark.parametrize("n", [3, 5, 9])
def test_forced_flags_keep_every_outcome(monkeypatch, n):
    _assert_forced_columns(monkeypatch, n, 600, _FORCED_COLUMNS)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_forced_flags_keep_every_outcome_in_small_blocks(monkeypatch, n):
    # joint rows in blocks of two or three rows, flagged lanes in groups of three
    monkeypatch.setattr(qcore, "_BLOCK_FLOATS", 3 * n * n)
    _assert_forced_columns(monkeypatch, n, 600, _FORCED_COLUMNS)


# rounds 0..39 with seed 7 at n = 41, every lane flagged: three blocks of
# joint rows; pinned while each set still held its whole joint matrix
_FORCED_COLUMNS_41 = {
    (41, "none"): "539bd127d58dbb37", (41, "intercept"): "e9d000a522e65f4d",
    (41, "complementary"): "377155fd3c9281a4", (41, "substitute"): "d7822fdc39b60d15",
}


def test_forced_flags_at_n_41_keep_every_outcome(monkeypatch):
    _assert_forced_columns(monkeypatch, 41, 40, _FORCED_COLUMNS_41)


def test_forced_flag_estimate_at_n_41_forms_no_joint_matrix(monkeypatch):
    # flagged lanes take their joint rows from the parts a block at a time:
    # the whole joint matrix and its conjugate would take 86 MiB
    s = build_symmetric(41)
    _force_flags(monkeypatch)
    tracemalloc.start()
    monte_carlo_estimate(s, "substitute", 40)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 48 * 2**20


def test_bob_chunk_at_n_64_forms_no_dense_rows(monkeypatch):
    # Bob's rows hold each pair's candidates alone: n^2-wide rows for a
    # chunk and factor tables for the set's kets peaked at 596 MiB
    s = build_symmetric(64)
    flagged = []
    real_sample = protocol.product_sample

    def spy(*args):
        outcomes, count = real_sample(*args)
        flagged.append(count)
        return outcomes, count

    monkeypatch.setattr(protocol, "product_sample", spy)
    tracemalloc.start()
    next(round_columns(s, EveStrategy(), 1, protocol.CHUNK_ROUNDS))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 32 * 2**20
    assert flagged == [0]


def test_bob_keeps_no_rows_between_calls(monkeypatch):
    # two identical estimates form the same Born-row entries: nothing
    # formed by the first is kept for the second
    s = build_symmetric(9)
    formed = []
    real_rows = qcore._candidate_rows

    def spy(*args):
        for block in real_rows(*args):
            formed[-1] += int(block[2].sum())
            yield block

    monkeypatch.setattr(qcore, "_candidate_rows", spy)
    for _ in range(2):
        formed.append(0)
        monte_carlo_estimate(s, "substitute", 3000, seed=5)
    assert formed[0] == formed[1] > 0


def test_session_columns_and_records_agree():
    s = build_symmetric(3)
    result = run_session(ProtocolConfig(s, rounds=300, check_fraction=0.2, seed=4,
                                        strategy=make_strategy("intercept", s)))
    assert [r.alice_index for r in result.records] == result.alice.tolist()
    assert [r.checked for r in result.records] == result.checked.tolist()
    assert [e.inferred_state for e in result.eve_records] == result.inferred.tolist()
    assert all(e.variant == "intercept-resend-conditional" for e in result.eve_records)
    eves = [[-1 if v is None else v for v in (e.a_outcome, e.b_outcome, e.inferred_state)]
            for e in result.eve_records]
    a_outcome, b_outcome, inferred = np.array(eves).T
    rebuilt = dataclasses.replace(
        result,
        alice=np.array([r.alice_index for r in result.records]),
        bob=np.array([r.bob_index for r in result.records]),
        checked=np.array([r.checked for r in result.records]),
        a_outcome=a_outcome, b_outcome=b_outcome, inferred=inferred,
        key=np.array(result.key_indices, dtype=np.int64))
    assert rebuilt.records == result.records
    assert rebuilt.eve_records == result.eve_records
    assert summarize_session(rebuilt) == summarize_session(result)


def test_first_chunk_of_a_long_session_holds_one_chunk():
    # the chunks' ranges are formed as the rounds reach them: the first of
    # 10^9 rounds costs what the first of a short session costs
    s = build_symmetric(3)
    strategy = make_strategy("intercept", s)
    tracemalloc.start()
    columns = next(round_columns(s, strategy, 1, 10**9))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert columns.shape == (5, protocol.CHUNK_ROUNDS)
    assert peak < 4 * 2**20


def test_exact_intercept_holds_one_outcomes_rows_at_a_time():
    # the exact sum forms its rows one A outcome at a time: all of them at
    # once, as Python floats, would take tens of MiB at n = 41
    s = build_symmetric(41)
    tracemalloc.start()
    exact_undetected_prob(s, "intercept")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 12 * 2**20


def test_intercept_step_never_gathers_a_basis_per_lane(monkeypatch):
    # the second leg broadcasts each conditional basis over its lanes: one
    # 41 x 41 basis gathered per lane of a chunk would take 220 MB. With no
    # seat band every lane of the chunk forms its row under the same bound.
    monkeypatch.setattr(adversary, "seat_band", lambda n: 1.0)
    sampled = []
    real_born = adversary.born_sample

    def born(rows, size, keys, u):
        sampled.append(len(keys))
        return real_born(rows, size, keys, u)

    monkeypatch.setattr(adversary, "born_sample", born)
    s = build_symmetric(41)
    step, _ = make_strategy("intercept", s)._kernel(s)
    alice = np.random.default_rng(3).integers(0, len(s), protocol.CHUNK_ROUNDS)
    draws = StreamBlocks(philox_block(3, np.arange(protocol.CHUNK_ROUNDS)))
    tracemalloc.start()
    step(alice, draws)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert sampled == [protocol.CHUNK_ROUNDS, protocol.CHUNK_ROUNDS]
    assert peak < 12 * 2**20


def _pass_counts(monkeypatch, run):
    # calls per pass at the sites where the benchmark's tracer counts them:
    # MeasurementBasis.__init__, RngStream.__init__ and qcore.tensor under
    # every module name bound to it
    counts = {"basis": 0, "rng": 0, "tensor": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(qcore.MeasurementBasis, "__init__",
                      counted("basis", qcore.MeasurementBasis.__init__))
        patch.setattr(qcore.RngStream, "__init__", counted("rng", qcore.RngStream.__init__))
        tensor = counted("tensor", qcore.tensor)
        for module in (qcore, stateset, adversary, protocol, analysis, cli):
            if getattr(module, "tensor", None) is qcore.tensor:
                patch.setattr(module, "tensor", tensor)
        passes = []
        for _ in range(2):
            run()
            passes.append(dict(counts))
            counts.update(dict.fromkeys(counts, 0))
    return passes


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("name", adversary.ATTACK_NAMES)
def test_repeated_estimates_count_the_same_work(monkeypatch, n, name):
    # nothing a pass builds is kept for the next one on the set, the
    # strategy or a module
    s = build_symmetric(n)
    first, second = _pass_counts(monkeypatch, lambda: monte_carlo_estimate(s, name, 3000, 4))
    assert first == second
    assert first["basis"] == {"intercept": 1, "complementary": 1, "substitute": 0}[name]


def test_repeated_simulate_runs_count_the_same_work(monkeypatch, tmp_path):
    argv = ["simulate", "--strategy", "intercept", "--rounds", "2000", "--seed", "6",
            "--output", str(tmp_path / "report.txt")]
    with contextlib.redirect_stdout(io.StringIO()):
        first, second = _pass_counts(monkeypatch, lambda: cli.main(argv))
    assert first == second
    assert first["basis"] == 1 and first["rng"] >= 1
