"""The durability model: each strength accepts exactly the states it
should, and findings are classified lost / phantom / corrupt."""

import pytest

from repro.testing.model import (
    EITHER,
    EXACT,
    PREFIX,
    UNSPECIFIED,
    DurabilityModel,
    sweep_crash_points,
)

ACKED = {b"a": b"a0", b"b": b"b0"}


def kinds(findings):
    return sorted((f.kind, f.key) for f in findings)


def model_with(items, strength):
    model = DurabilityModel(ACKED)
    model.begin(items, strength)
    return model


class TestAcknowledgement:
    def test_ack_applies_puts_and_deletes(self):
        model = model_with([(b"a", b"a1"), (b"b", None), (b"c", b"c1")], EXACT)
        assert model.ack() == 3
        assert model.acked == {b"a": b"a1", b"c": b"c1"}
        assert b"b" not in model.acked
        assert model.check({b"a": b"a1", b"c": b"c1"}) == []

    def test_abort_takes_the_operation_back(self):
        model = model_with([(b"a", b"a1")], PREFIX)
        model.abort()
        assert model.check(ACKED) == []
        assert model.check({**ACKED, b"a": b"a1"}) != []

    def test_one_operation_in_flight_at_a_time(self):
        model = model_with([(b"a", b"a1")], EXACT)
        with pytest.raises(RuntimeError, match="in flight"):
            model.begin([(b"b", b"b1")])
        with pytest.raises(ValueError, match="unknown strength"):
            DurabilityModel().begin([], "eventual")

    def test_outcomes_need_either(self):
        model = model_with([(b"a", b"a1")], EXACT)
        with pytest.raises(ValueError, match="either"):
            model.ack(["ok"])


class TestExact:
    def test_unacked_must_be_absent(self):
        model = model_with([(b"a", b"a1"), (b"c", b"c1")], EXACT)
        assert model.check(ACKED) == []
        assert kinds(model.check({**ACKED, b"a": b"a1"})) == [
            ("phantom", b"a")
        ]
        assert kinds(model.check({**ACKED, b"c": b"c1"})) == [
            ("phantom", b"c")
        ]

    def test_unacked_delete_must_not_show(self):
        model = model_with([(b"a", None)], EXACT)
        assert kinds(model.check({b"b": b"b0"})) == [("lost", b"a")]


class TestPrefix:
    BATCH = [(b"a", b"a1"), (b"c", b"c1"), (b"a", b"a2"), (b"d", b"d1")]

    def prefixes(self):
        state = dict(ACKED)
        yield dict(state)
        for key, value in self.BATCH:
            state[key] = value
            yield dict(state)

    def test_every_prefix_is_accepted(self):
        model = model_with(self.BATCH, PREFIX)
        for state in self.prefixes():
            assert model.check(state) == [], state

    def test_repeated_key_takes_its_values_in_batch_order(self):
        model = model_with(self.BATCH, PREFIX)
        # The second value of ``a`` without ``c`` skips over a pair ...
        assert model.check({**ACKED, b"a": b"a2"}) != []
        # ... and the first value of ``a`` beside ``d`` goes backwards.
        assert model.check(
            {b"a": b"a1", b"b": b"b0", b"c": b"c1", b"d": b"d1"}
        ) != []

    def test_non_prefix_subset_is_a_phantom(self):
        model = model_with(self.BATCH, PREFIX)
        assert kinds(model.check({**ACKED, b"d": b"d1"})) == [
            ("phantom", b"d")
        ]

    def test_acked_key_missing_under_a_prefix_is_lost(self):
        model = model_with(self.BATCH, PREFIX)
        assert kinds(model.check({b"a": b"a1"})) == [("lost", b"b")]


class TestEither:
    def test_each_key_is_old_or_new_independently(self):
        model = model_with([(b"a", b"a1"), (b"c", b"c1")], EITHER)
        for a in (b"a0", b"a1"):
            for c in (None, b"c1"):
                assert model.check({b"a": a, b"b": b"b0", b"c": c}) == []
        assert kinds(model.check({b"a": b"zz", b"b": b"b0"})) == [
            ("corrupt", b"a")
        ]

    def test_failed_items_stay_uncertain_until_an_acked_overwrite(self):
        model = model_with([(b"a", b"a1"), (b"b", b"b1")], EITHER)
        assert model.ack(["crashed", "ok"]) == 1
        assert model.check({b"a": b"a0", b"b": b"b1"}) == []
        assert model.check({b"a": b"a1", b"b": b"b1"}) == []
        assert kinds(model.check({b"a": b"a1", b"b": b"b0"})) == [
            ("lost", b"b")
        ]
        model.begin([(b"a", b"a2")], EITHER)
        model.ack(["hung"])
        for a in (b"a0", b"a1", b"a2"):
            assert model.check({b"a": a, b"b": b"b1"}) == []
        model.begin([(b"a", b"a3")], EITHER)
        model.ack(["ok"])
        assert kinds(model.check({b"a": b"a1", b"b": b"b1"})) == [
            ("lost", b"a")
        ]


class TestUnspecified:
    def test_only_the_segment_being_written_is_exempt(self):
        model = DurabilityModel({0: b"s0", 1: b"s1"})
        model.begin([(1, b"new")], UNSPECIFIED)
        assert model.check({0: b"s0", 1: b"\x00garbage"}) == []
        assert kinds(model.check({0: b"torn", 1: b"new"})) == [("corrupt", 0)]


class TestClassification:
    def test_lost_phantom_corrupt(self):
        model = DurabilityModel(ACKED)
        model.begin([(b"a", b"a1")])
        model.ack()
        model.begin([(b"b", None)])
        model.ack()
        assert model.check({b"a": b"a1"}) == []
        # A superseded value or nothing where an acked one is due: lost.
        assert kinds(model.check({b"a": b"a0"})) == [("lost", b"a")]
        assert kinds(model.check({})) == [("lost", b"a")]
        # A deleted key resurrected, a key nobody wrote: phantom.
        assert kinds(model.check({b"a": b"a1", b"b": b"b0"})) == [
            ("phantom", b"b")
        ]
        assert kinds(model.check({b"a": b"a1", b"x": b"?"})) == [
            ("phantom", b"x")
        ]
        # Bytes nobody ever wrote under the key: corrupt.
        [finding] = model.check({b"a": b"a\xff"})
        assert (finding.kind, finding.got) == ("corrupt", b"a\xff")
        assert "corrupt" in str(finding) and "b'a1'" in str(finding)

    def test_owns_restricts_the_model_to_one_shard(self):
        model = DurabilityModel(ACKED)
        assert model.check({b"a": b"a0"}, owns=lambda key: key == b"a") == []
        assert kinds(model.check(ACKED, owns=lambda key: key == b"a")) == [
            ("phantom", b"b")
        ]
        assert kinds(model.check({}, owns=lambda key: key == b"a")) == [
            ("lost", b"a")
        ]

    def test_settle_adopts_what_recovery_served(self):
        model = model_with([(b"a", b"a1"), (b"c", b"c1")], PREFIX)
        assert model.settle({**ACKED, b"a": b"a1"}) == []
        assert model.acked == {b"a": b"a1", b"b": b"b0"}
        assert kinds(model.check({**ACKED, b"a": b"a1", b"c": b"c1"})) == [
            ("phantom", b"c")
        ]


class TestSweepCrashPoints:
    """The enumerator on a toy system: a list that ``drive`` appends to,
    firing one site per append."""

    def sweep(self, recover_and_check, n=3):
        def build(faults):
            faults.fire("step")  # set-up firings are not crash points
            return faults, []

        def drive(state):
            faults, log = state
            for i in range(n):
                faults.fire("step", payload_len=4, payload_writer=log.append)
                log.append(i)

        return sweep_crash_points(
            build, drive, recover_and_check, ("step", "never"), ("step",),
            ("step",),
        )

    def test_counts_every_point_once(self):
        seen = []
        report = self.sweep(lambda state: seen.append(list(state[1])) or [])
        assert report.site_hits == {"step": 3, "never": 0}
        # 3 plain + 3 torn-at-half + 3 firings x 5 byte counts (0..4).
        assert (report.crash_points, report.torn_points) == (21, 18)
        assert report.clean_replays == 0 and report.passed
        assert seen[0] == [0, 1, 2]  # the baseline is checked too
        assert seen[1:4] == [[], [0], [0, 1]]
        assert seen[4:7] == [[2], [0, 2], [0, 1, 2]]  # torn at half of 4
        # ... and at every byte, 0 persisted up to all 4.
        assert seen[7:10] == [[], [0], [0, 1]]
        assert seen[-3:] == [[4], [0, 4], [0, 1, 4]]

    def test_reports_messages_assertions_and_errors(self):
        def recover_and_check(state):
            if len(state[1]) == 1:
                yield "one entry"
                raise AssertionError("and an assertion")
            if len(state[1]) == 2:
                raise OSError("boom")

        report = self.sweep(recover_and_check, n=3)
        assert not report.passed
        assert "step#1: one entry" in report.failures
        assert "step#1: and an assertion" in report.failures
        assert any("step#2: recovery error" in f for f in report.failures)
