import errno
import json
import os

import pytest

from starchip import (
    FrequencyReport,
    StarParams,
    emit_table,
    enumerate_all,
    from_outcome,
    is_totally_sorted,
    reachable_set,
    run_montecarlo,
    write_atomic,
)


class TestMonteCarlo:
    def test_identical_runs(self):
        params = StarParams(2, 2)
        a = run_montecarlo(params, trials=300, seed=11)
        b = run_montecarlo(params, trials=300, seed=11)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_hits_sum_to_trials(self):
        report = run_montecarlo(StarParams(2, 2), trials=500, seed=1)
        assert sum(report.per_outcome.values()) == 500

    def test_support_within_reachable_set(self):
        params = StarParams(2, 3)
        report = run_montecarlo(params, trials=400, seed=5)
        assert set(report.per_outcome) <= reachable_set(params)

    def test_both_catalan_outcomes_show_up(self):
        report = run_montecarlo(StarParams(2, 2), trials=10_000, seed=2)
        assert set(report.per_outcome) == reachable_set(StarParams(2, 2))
        assert sum(report.per_outcome.values()) == 10_000

    def test_one_level_always_totally_sorted(self):
        report = run_montecarlo(StarParams(3, 1), trials=50, seed=0)
        assert set(report.per_outcome) == {((1,), (2,), (3,))}
        outcome = ((1,), (2,), (3,))
        assert report.per_outcome[outcome] == 50
        assert is_totally_sorted(outcome) and from_outcome(outcome).is_standard
        assert report.totally_sorted_is_mode

    def test_at_most_one_totally_sorted_flag(self):
        report = run_montecarlo(StarParams(2, 3), trials=300, seed=9)
        flagged = [o for o in report.per_outcome if is_totally_sorted(o)]
        assert len(flagged) <= 1

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            run_montecarlo(StarParams(1, 1), trials=0, seed=0)


class TestEmitters:
    def test_enumeration_table_rows(self):
        table = emit_table(enumerate_all(StarParams(2, 2)))
        assert "[1,3],[2,4] | 4" in table
        assert "[1,2],[3,4] | 8" in table
        assert "total | 12" in table
        assert "totally-sorted" in table

    def test_single_branch_table(self):
        table = emit_table(enumerate_all(StarParams(1, 3)))
        assert "[1,2,3] | 60" in table
        assert "total | 60" in table

    def test_frequency_table_flags(self):
        report = run_montecarlo(StarParams(2, 2), trials=200, seed=4)
        table = emit_table(report)
        assert "syt" in table
        assert "totally-sorted" in table
        assert "totally sorted outcome is the mode:" in table

    def test_json_format_is_the_document(self):
        result = enumerate_all(StarParams(2, 2))
        assert emit_table(result, "json") == result.to_json() + "\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(enumerate_all(StarParams(1, 1)), "yaml")


class TestSerialization:
    def test_trials_and_flags_come_from_the_hits(self):
        sorted_, other = ((1, 2), (3, 4)), ((1, 3), (2, 4))
        report = FrequencyReport(StarParams(2, 2), 0, {other: 3, sorted_: 5})
        assert report.trials == 8
        assert report.totally_sorted_is_mode and report.syt_outcomes_dominate
        doc = json.loads(report.to_json())
        assert [(e["hits"], e["is_syt"], e["is_totally_sorted"]) for e in doc["outcomes"]] == [
            (5, True, True),
            (3, True, False),
        ]
        with pytest.raises(TypeError):
            FrequencyReport(StarParams(2, 2), 8, 0, report.per_outcome)  # the trial count is not stored

    def test_frequency_json_fields(self):
        report = run_montecarlo(StarParams(2, 1), trials=10, seed=0)
        doc = json.loads(report.to_json())
        assert doc["k"] == 2 and doc["m"] == 1
        assert doc["trials"] == 10 and doc["seed"] == 0
        assert doc["totally_sorted_is_mode"] is True
        assert doc["syt_outcomes_dominate"] is True
        entry = doc["outcomes"][0]
        assert set(entry) == {"branches", "hits", "is_syt", "is_totally_sorted"}


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(str(target), "first\n")
        assert target.read_text() == "first\n"
        write_atomic(str(target), "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []

    def test_new_file_gets_the_mode_open_would_give(self, tmp_path):
        old = os.umask(0o022)
        try:
            write_atomic(str(tmp_path / "out.json"), "x\n")
        finally:
            os.umask(old)
        assert (tmp_path / "out.json").stat().st_mode & 0o777 == 0o644

    def test_existing_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("first\n")
        target.chmod(0o600)
        write_atomic(str(target), "second\n")
        assert target.stat().st_mode & 0o777 == 0o600
        assert target.read_text() == "second\n"

    def test_writes_through_a_symlink(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.json"
        target.write_text("first\n")
        target.chmod(0o600)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_atomic(str(link), "second\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "second\n"
        assert target.stat().st_mode & 0o777 == 0o600
        leftovers = [p for d in (tmp_path, tmp_path / "real") for p in os.listdir(d) if p.startswith(".tmp-")]
        assert leftovers == []

    def test_a_symlink_loop_is_refused_and_kept(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.symlink_to(b)
        b.symlink_to(a)
        with pytest.raises(OSError) as err:
            write_atomic(str(a), "x\n")
        assert err.value.errno == errno.ELOOP and err.value.filename == str(a)
        assert a.is_symlink() and b.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["a", "b"]
