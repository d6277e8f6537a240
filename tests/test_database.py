"""Unit tests for the AOS database."""

from repro.aos.database import AOSDatabase


class TestRefusals:
    def test_record_and_query(self):
        db = AOSDatabase()
        db.record_refusal("C.m", 3, "C.big", "large")
        assert db.was_refused("C.m", 3, "C.big")
        assert not db.was_refused("C.m", 4, "C.big")
        assert not db.was_refused("C.m", 3, "C.other")
        assert db.refusal_reason("C.m", 3, "C.big") == "large"
        assert db.refusal_reason("C.m", 9, "C.big") is None

    def test_refusals_idempotent(self):
        db = AOSDatabase()
        db.record_refusal("C.m", 3, "C.big", "large")
        db.record_refusal("C.m", 3, "C.big", "space")
        assert db.refusal_count == 1
        # Latest reason wins.
        assert db.refusal_reason("C.m", 3, "C.big") == "space"

