import math

import pytest

from opqkd import (
    EveStrategy,
    InsufficientDataError,
    ProtocolConfig,
    RngStream,
    SessionResult,
    bob_basis,
    build_symmetric,
    detection_probability,
    make_strategy,
    run_round,
    run_session,
    summarize_session,
    wilson_interval,
)
from opqkd import protocol
from opqkd.protocol import round_columns


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
    run_session(ProtocolConfig(s, rounds=30, check_fraction=0.1, seed=2,
                               strategy=SpyStrategy()))
    assert len(calls) == 60
    for round_id in range(30):
        assert calls[2 * round_id] == ("first", round_id)
        assert calls[2 * round_id + 1] == ("second", round_id)


def test_detection_probability_requires_checked_rounds():
    s = build_symmetric(3)
    result = run_session(ProtocolConfig(s, rounds=20, check_fraction=0.2, seed=1))
    unchecked = SessionResult(
        records=tuple(r for r in result.records if not r.checked),
        detected=False,
        key_indices=result.key_indices,
        bits_per_round=result.bits_per_round,
        eve_records=(),
    )
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


def test_unsure_lane_is_replayed_through_run_round(monkeypatch):
    s = build_symmetric(3)
    strategy = make_strategy("substitute", s)
    (expected,) = round_columns(s, strategy, 5, 40)
    real_block, real_round = protocol.philox_block, protocol.run_round
    replayed = []

    def crafted_block(seed, ids):
        words = real_block(seed, ids)
        words[0, 17] = 0  # Lemire's method rejects a low half of 0 below 9
        return words

    def spy_round(state_set, joint_basis, strat, round_id, rng):
        replayed.append((round_id, rng.stream_id))
        return real_round(state_set, joint_basis, strat, round_id, rng)

    monkeypatch.setattr(protocol, "philox_block", crafted_block)
    monkeypatch.setattr(protocol, "run_round", spy_round)
    (got,) = round_columns(s, strategy, 5, 40)
    assert replayed == [(17, 17)]
    assert got.tolist() == expected.tolist()


def test_session_columns_and_records_agree():
    s = build_symmetric(3)
    result = run_session(ProtocolConfig(s, rounds=300, check_fraction=0.2, seed=4,
                                        strategy=make_strategy("intercept", s)))
    assert [r.alice_index for r in result.records] == result.alice.tolist()
    assert [r.checked for r in result.records] == result.checked.tolist()
    assert [e.inferred_state for e in result.eve_records] == result.inferred.tolist()
    assert all(e.variant == "intercept-resend-conditional" for e in result.eve_records)
    rebuilt = SessionResult(records=result.records, detected=result.detected,
                            key_indices=result.key_indices,
                            bits_per_round=result.bits_per_round,
                            eve_records=result.eve_records)
    assert summarize_session(rebuilt) == summarize_session(result)
