import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import starchip.cli
import starchip.verify
from starchip import Move, StarParams, derive_seed, engine, expected_total_fires
from starchip.cli import main
from starchip.engine import fork_trials, random_games
from starchip.verify import GameCheck


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _game_check(verdicts):
    """A stand-in for ``starchip.verify.GameCheck``, the per-game check of
    ``stabilize --verify`` and of each ``verify`` trial: it also records the
    moves of its game, and its verdicts are ``verdicts(moves, real
    verdicts)``."""

    class Check(GameCheck):
        __slots__ = ("moves",)

        def __init__(self, params):
            super().__init__(params)
            self.moves = []

        def fire(self, s, chips, v=None):
            self.moves.append(Move(self.board.vertex[s], chips))
            super().fire(s, chips, v)

        def verdicts(self, outcome):
            return verdicts(tuple(self.moves), super().verdicts(outcome))

    return Check


def _logs(params, trials, seed):
    """The moves of each random game of ``trials``, as the per-fire check
    that ``random_games`` hands each fire records them."""
    record = _game_check(lambda moves, real: real)
    return [tuple(check.moves) for _, _, check in random_games(params, trials, seed, lambda: record(params))]


class TestStabilize:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, ["stabilize", "--k", "2", "--m", "2"])
        assert code == 0
        assert "outcome: [1,3],[2,4]" in out
        assert "fires: 5" in out

    def test_verify_flag_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["stabilize", "--k", "2", "--m", "3", "--strategy", "random", "--seed", "8", "--verify"]
        )
        assert code == 0
        assert "verification:" in out and "FAIL" not in out

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["stabilize", "--k", "2", "--m", "2", "--strategy", "volmin", "--seed", "3", "--json", "--verify"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 2 and doc["strategy"] == "volmin" and doc["seed"] == 3
        assert len(doc["moves"]) == doc["fires"] == 5
        assert all(doc["verification"].values())

    def test_volmin_seven_by_seven_stays_small(self, capsys):
        # Building every legal move first put C(49, 7) = 85,900,584 center
        # moves in memory, and the process was killed for lack of it.
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, ["stabilize", "--k", "7", "--m", "7", "--strategy", "volmin", "--seed", "0", "--verify"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0  # every --verify check passed
        assert peak < 32 * 2**20

    def test_a_verified_game_keeps_no_log(self, capsys):
        # checked as it is played, a verified game builds no move log: its
        # traced peak was 3.9 MB while it kept 26,810 moves and their log
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                capsys, ["stabilize", "--k", "20", "--m", "20", "--strategy", "random", "--seed", "1", "--verify"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0  # every --verify check passed
        assert "fires: 26810" in out
        assert peak < 1.5 * 2**20

    def test_an_unverified_game_keeps_no_log(self, capsys):
        # the text output prints only the number of fires, which are counted
        # as they are made; a log of 26,810 moves would pass the bound
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, ["stabilize", "--k", "20", "--m", "20", "--strategy", "random", "--seed", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "fires: 26810" in out
        assert peak < 1.5 * 2**20

    def test_volmin_draws_past_two_to_the_64(self, capsys):
        # the first pick draws below C(75, 25) > 2^64, which one 64-bit
        # output cannot cover; rejecting every such output never returned
        code, out, _ = run_cli(capsys, ["stabilize", "--k", "25", "--m", "3", "--strategy", "volmin", "--verify"])
        assert code == 0  # every --verify check passed
        assert "fires: 106" in out


class TestEnumerate:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--k", "2", "--m", "2"])
        assert code == 0
        assert "total | 12" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--k", "3", "--m", "2", "--json"])
        assert code == 0
        assert json.loads(out)["total_sequences"] == "120"

    def test_budget_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["enumerate", "--k", "3", "--m", "3"])
        assert code == 2
        assert "cell budget" in err and out == ""

    def test_max_states_override(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "--k", "3", "--m", "3", "--json", "--max-states", "2000000"]
        )
        assert code == 0
        assert len(json.loads(out)["outcomes"]) == 47

    def test_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, ["enumerate", "--k", "2", "--m", "2", "--json", "--out", str(target)]
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["total_sequences"] == "12"

    def test_out_through_a_symlink_writes_its_target(self, capsys, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "target.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code, out, _ = run_cli(capsys, ["enumerate", "--k", "2", "--m", "2", "--out", str(link)])
        assert code == 0 and out == ""
        assert link.is_symlink()
        assert "total | 12" in target.read_text()


@pytest.mark.parametrize("command", ["enumerate", "volmin"])
def test_max_states_below_one_exits_2(capsys, command):
    code, out, err = run_cli(capsys, [command, "--k", "2", "--m", "2", "--max-states", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: max_states must be >= 1\n"


@pytest.mark.parametrize("command", ["enumerate", "volmin"])
def test_a_first_fire_past_the_state_budget_is_refused_before_its_moves_are_built(command):
    # The first center fire of (4,40) has C(160, 4) = 26,294,360 moves;
    # building their steps before counting the states they add ran out
    # of a 2 GB address space and exited 1, the code of a failed check.
    resource = pytest.importorskip("resource")
    limit = 2_000_000 * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "starchip.cli", command, "--k", "4", "--m", "40", "--max-states", "100"],
        env=env,
        capture_output=True,
        timeout=60,
        preexec_fn=cap_address_space,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"error: state count exceeded max_states = 100 at depth 1 of 43460\n"


class TestVolmin:
    def test_matches_syt_image(self, capsys):
        code, out, _ = run_cli(capsys, ["volmin", "--k", "3", "--m", "2"])
        assert code == 0
        assert "count: 5" in out
        assert "matches the standard-tableau image: yes" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, ["volmin", "--k", "2", "--m", "3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == doc["syt_count"] == 5
        assert doc["matches_syt_image"] is True

    def test_budget_error_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["volmin", "--k", "5", "--m", "2"])
        assert code == 2
        assert "cell budget" in err and out == ""

    def test_max_states_override(self, capsys):
        code, out, _ = run_cli(capsys, ["volmin", "--k", "5", "--m", "2", "--max-states", "200000"])
        assert code == 0
        assert "count: 42" in out
        assert "matches the standard-tableau image: yes" in out

    def test_max_states_error_names_the_depth_reached(self, capsys):
        code, out, err = run_cli(capsys, ["volmin", "--k", "5", "--m", "2", "--max-states", "10"])
        assert code == 2
        assert "max_states = 10 at depth 1 of 8" in err and out == ""

    def test_runs_past_the_generation_budget(self, capsys):
        # 14 cells: the match is decided by the SYT count, with no tableau
        # generated, so the generation cell budget of 12 does not apply
        code, out, _ = run_cli(capsys, ["volmin", "--k", "7", "--m", "2", "--max-states", "100000"])
        assert code == 0
        assert "count: 429" in out
        assert "matches the standard-tableau image: yes" in out

    def test_state_budget_refuses_fifteen_cells_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["volmin", "--k", "5", "--m", "3", "--max-states", "10"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "max_states = 10 at depth 1 of 26" in err


class TestSyt:
    def test_count_only(self, capsys):
        code, out, _ = run_cli(capsys, ["syt", "--k", "3", "--m", "3"])
        assert code == 0
        assert "42" in out

    def test_count_without_generation_budget(self, capsys):
        # counting uses the product formula, so big shapes are fine without --list
        code, out, _ = run_cli(capsys, ["syt", "--k", "5", "--m", "4"])
        assert code == 0

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, ["syt", "--k", "2", "--m", "2", "--list"])
        assert code == 0
        assert "[1,2],[3,4]" in out and "[1,3],[2,4]" in out

    @pytest.mark.parametrize("flag", ["--list", "--witness"])
    def test_generation_budget_checked_before_output(self, capsys, flag):
        code, out, err = run_cli(capsys, ["syt", "--k", "4", "--m", "5", flag])
        assert code == 2
        assert out == ""
        assert "generation cell budget" in err

    def test_witness_replay(self, capsys):
        code, out, _ = run_cli(capsys, ["syt", "--k", "2", "--m", "3", "--witness"])
        assert code == 0
        assert "5/5" in out

    def test_bad_shape_is_refused_as_every_command_refuses_it(self, capsys):
        code, out, err = run_cli(capsys, ["syt", "--k", "0", "--m", "3"])
        assert code == 2
        assert out == ""
        assert err == "error: need k >= 1 and m >= 1, got k=0, m=3\n"

    @pytest.fixture
    def int_digits_limit(self):
        """Sets the interpreter's int-to-text digit limit to its default,
        4,300, for one test."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-to-text digit limit")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("k,m,digits", [(60, 60, 5018), (20, 200, 4874), (1000, 1000, 2615091)])
    def test_count_too_long_to_print_is_refused_at_once(self, capsys, int_digits_limit, k, m, digits):
        # (k*m)! alone takes minutes for (1000,1000): the refusal must come first.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["syt", "--k", str(k), "--m", str(m)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert f"{k} x {m}" in err and f"about {digits} decimal digits" in err
        assert f"limit of {int_digits_limit}" in err

    def test_no_digit_limit_means_no_refusal(self, capsys, int_digits_limit):
        sys.set_int_max_str_digits(0)
        code, out, _ = run_cli(capsys, ["syt", "--k", "60", "--m", "60"])
        assert code == 0
        assert len(out) == len("standard tableaux of shape 60 x 60: ") + 5018 + 1

    @pytest.mark.parametrize("k,m", [(2_000_000, 1), (1, 2_000_000)])
    def test_a_single_row_or_column_is_counted_at_once(self, capsys, k, m):
        # (km)! alone took more than 20 s for (2000000,1), whose count is 1.
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["syt", "--k", str(k), "--m", str(m)])
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out == f"standard tableaux of shape {k} x {m}: 1\n"

    def test_longest_printable_count_is_unchanged(self, capsys, int_digits_limit):
        # 4,103 digits, below the limit of 4,300.
        code, out, _ = run_cli(capsys, ["syt", "--k", "55", "--m", "55"])
        assert code == 0
        assert len(out) == len("standard tableaux of shape 55 x 55: ") + 4103 + 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eafc30754306834cba94a642c292ce7e53902965ab5adc3bf7493aeeca862a4d"
        )


class TestMontecarlo:
    def test_text(self, capsys):
        code, out, _ = run_cli(
            capsys, ["montecarlo", "--k", "2", "--m", "2", "--trials", "100", "--seed", "5"]
        )
        assert code == 0
        assert "trials=100" in out

    def test_with_enumeration_appends_counts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["montecarlo", "--k", "2", "--m", "2", "--trials", "50", "--seed", "5", "--with-enumeration"],
        )
        assert code == 0
        assert "sequence counts (not play probabilities):" in out
        assert "total | 12" in out

    def test_with_enumeration_skips_shapes_past_the_cell_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["montecarlo", "--k", "3", "--m", "3", "--trials", "5", "--seed", "0", "--with-enumeration"],
        )
        assert code == 0
        assert out.endswith("\n\n(enumeration skipped: k*m > 8)\n")
        assert "sequence counts" not in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        code, out, err = run_cli(capsys, ["montecarlo", "--k", "2", "--m", "2", "--trials", trials, "--seed", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "trials" in err

    def test_json_out_file(self, capsys, tmp_path):
        target = tmp_path / "mc.json"
        code, out, _ = run_cli(
            capsys,
            ["montecarlo", "--k", "2", "--m", "1", "--trials", "20", "--seed", "9", "--json", "--out", str(target)],
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["trials"] == 20


class TestVerifyCommand:
    def test_passes_on_healthy_games(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--k", "2", "--m", "3", "--samples", "40", "--seed", "2"])
        assert code == 0
        assert "verification: PASS" in out
        assert "observed outcomes within the reachable set: yes" in out
        assert err == ""

    def test_failure_names_the_trial_and_a_reproducing_command(self, capsys, monkeypatch):
        argv = ["verify", "--k", "2", "--m", "2", "--samples", "20", "--seed", "4"]
        _, healthy, _ = run_cli(capsys, argv)

        def broken(moves, real):  # fails the games whose last fire sends chips 1 and 2
            return {**real, "mixing": real["mixing"] and moves[-1].chips != (1, 2)}

        monkeypatch.setattr(starchip.verify, "GameCheck", _game_check(broken))
        logs = _logs(StarParams(2, 2), range(20), 4)
        failing = [i for i, moves in enumerate(logs) if moves[-1].chips == (1, 2)]
        assert 0 < failing[0] and len(failing) < 20
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        lines, before = out.splitlines(), healthy.splitlines()
        assert lines[2] == f"center resend order check failures: {len(failing)}"
        assert lines[-1] == "verification: FAIL"
        assert lines[:2] + lines[3:-1] == before[:2] + before[3:-1]
        i = failing[0]
        seed = derive_seed(4, i)
        head, command = err.rstrip("\n").split("; reproduce with: ")
        assert head == f"trial {i} (seed {seed}) failed mixing"
        assert command == f"starchip stabilize --k 2 --m 2 --strategy random --seed {seed} --verify"
        code, out, _ = run_cli(capsys, command.split()[1:])
        assert code == 1
        assert "mixing=FAIL" in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_2(self, capsys, samples):
        code, out, err = run_cli(capsys, ["verify", "--k", "2", "--m", "2", "--samples", samples, "--seed", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "samples" in err

    def test_large_shape_skips_reachability(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--k", "3", "--m", "3", "--samples", "10", "--seed", "2"])
        assert code == 0
        assert "reachable set" not in out


    def test_trials_whose_fire_counts_differ_print_no(self, capsys, monkeypatch):
        class Miscounted(GameCheck):
            """Counts a game's first fire twice when it sends chip 1 to branch 1."""

            __slots__ = ()

            def fire(self, s, chips, v=None):
                if self.fires == 0 and chips[0] == 1:
                    self.fired[s] += 1
                super().fire(s, chips, v)

        argv = ["verify", "--k", "2", "--m", "2", "--samples", "20", "--seed", "4"]
        _, healthy, _ = run_cli(capsys, argv)
        assert "per-vertex fire counts identical across logs: yes" in healthy.splitlines()
        monkeypatch.setattr(starchip.verify, "GameCheck", Miscounted)
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert "per-vertex fire counts identical across logs: NO" in out.splitlines()


class TestFireBudget:
    # stabilize, montecarlo and verify refuse games of more fires than the
    # budget before any board is built; --max-fires sets the budget
    @pytest.mark.parametrize(
        "argv, games",
        [
            ("stabilize --k 300 --m 300", 1),
            ("stabilize --k 100 --m 100 --strategy random --verify", 1),
            ("montecarlo --k 40 --m 40 --trials 12 --seed 0", 12),
            ("verify --k 30 --m 30 --samples 37 --seed 0", 37),
        ],
    )
    def test_the_default_budget_refuses_at_once(self, capsys, argv, games):
        from starchip.core import _board

        argv = argv.split()
        fires = games * expected_total_fires(StarParams(int(argv[2]), int(argv[4])))
        assert fires > starchip.cli.MAX_FIRES
        built = _board.cache_info().misses
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: {fires} fires in {games} game{'s' * (games > 1)} of k={argv[2]}, m={argv[4]} "
            f"exceed max_fires = {starchip.cli.MAX_FIRES}\n"
        )
        assert _board.cache_info().misses == built

    def test_the_default_budget_covers_every_documented_call(self):
        # the longest game CI plays, and demo 05's montecarlo call
        assert expected_total_fires(StarParams(40, 40)) == 427_220 <= starchip.cli.MAX_FIRES
        assert 20_000 * expected_total_fires(StarParams(2, 5)) == 1_100_000 <= starchip.cli.MAX_FIRES

    @pytest.mark.parametrize(
        "argv, fires",
        [
            ("stabilize --k 3 --m 3 --strategy random", 18),
            ("montecarlo --k 3 --m 3 --trials 10 --seed 0", 180),
            ("verify --k 2 --m 3 --samples 10 --seed 0", 140),
        ],
    )
    def test_max_fires_sets_the_budget(self, capsys, argv, fires):
        code, out, err = run_cli(capsys, [*argv.split(), "--max-fires", str(fires - 1)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {fires} fires in ") and err.endswith(f" exceed max_fires = {fires - 1}\n")
        code, out, err = run_cli(capsys, [*argv.split(), "--max-fires", str(fires)])
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command", ["stabilize", "montecarlo", "verify"])
    def test_max_fires_below_one_exits_2(self, capsys, command):
        rest = {
            "stabilize": [],
            "montecarlo": ["--trials", "1", "--seed", "0"],
            "verify": ["--samples", "1", "--seed", "0"],
        }
        code, out, err = run_cli(capsys, [command, "--k", "2", "--m", "2", *rest[command], "--max-fires", "0"])
        assert (code, out, err) == (2, "", "error: max_fires must be >= 1\n")


_COMMANDS = ["stabilize", "enumerate", "volmin", "syt", "montecarlo", "verify"]


class TestArgumentHandling:
    @pytest.mark.parametrize("command", _COMMANDS)
    def test_a_call_builds_the_parser_of_its_command_alone(self, capsys, monkeypatch, command):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add_parser(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert built == [command]
        built.clear()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built == _COMMANDS

    @pytest.mark.parametrize(
        "argv",
        [[], ["-h"], ["bogus"], ["stabiliz"], ["--k", "2"], ["stabilize", "--k", "2", "--m", "2", "extra"]]
        + [argv for c in _COMMANDS for argv in ([c, "--help"], [c], [c, "--k", "x", "--m", "2"], [c, "--bogus"])],
        ids=" ".join,
    )
    def test_help_usage_and_errors_are_those_of_the_parser_of_every_command(self, capsys, argv):
        def run(parse):
            with pytest.raises(SystemExit) as exit:
                parse(argv)
            return exit.value.code, *capsys.readouterr()

        assert run(main) == run(starchip.cli.build_parser().parse_args)

    def test_no_argv_reads_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["starchip", "stabilize", "--k", "2", "--m", "2"])
        assert run_cli(capsys, None) == (0, "outcome: [1,3],[2,4]\nfires: 5\n", "")

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--k", "2", "--m", "2", "--frobnicate"])
        assert err.value.code == 2

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["stabilize", "--k", "0", "--m", "2"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "command",
        [["enumerate", "--k", "2", "--m", "2"], ["montecarlo", "--k", "2", "--m", "2", "--trials", "5", "--seed", "1"]],
        ids=["enumerate", "montecarlo"],
    )
    @pytest.mark.parametrize("target", ["missing/x.json", "a-directory"])
    def test_unwritable_out_exits_2_and_leaves_no_temp_file(self, capsys, tmp_path, command, target):
        (tmp_path / "a-directory").mkdir()
        code, out, err = run_cli(capsys, command + ["--out", str(tmp_path / target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert str(tmp_path / target) in err
        assert ".tmp-" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["a-directory"]

    def test_montecarlo_json_with_enumeration_exits_2(self, capsys):
        argv = ["montecarlo", "--k", "2", "--m", "2", "--trials", "5", "--seed", "1", "--json", "--with-enumeration"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stabilize", "--k", "2", "--m", "3", "--strategy", "random", "--seed", "42", "--json", "--verify"],
            ["stabilize", "--k", "3", "--m", "2", "--strategy", "volmin", "--seed", "7", "--json"],
            ["enumerate", "--k", "2", "--m", "3", "--json"],
            ["volmin", "--k", "2", "--m", "2", "--json"],
            ["montecarlo", "--k", "2", "--m", "2", "--trials", "150", "--seed", "13", "--json"],
        ],
    )
    def test_byte_identical_repeats(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "stabilize --k 10 --m 10 --strategy random --seed 0 --json",
            "18118cb162736be9bf66be81e4e2cf7eca16a44b23dc77033492de95ea003c52",
        ),
        (
            "stabilize --k 10 --m 10 --strategy det --json",
            "064166330605805b548983b7e3639af2254346cd5ff00f38eac1999a551495f4",
        ),
        (
            "stabilize --k 6 --m 5 --strategy volmin --seed 0 --json",
            "89c08345382b8826d1ba6601ba8808aa50b27495fef532087a15e7ebabeba251",
        ),
        (
            "montecarlo --k 3 --m 3 --trials 2000 --seed 0 --json",
            "fe8ee62a6292fa3d4b613bb67277706d58809a9d6060293b8dee133e5fb9e9cd",
        ),
        (
            "montecarlo --k 3 --m 3 --trials 2000 --seed 0",
            "50e20208b5d83738325bcd70ec86f3ee698634577914f0d643b804e993e0e835",
        ),
        (
            "montecarlo --k 2 --m 3 --trials 500 --seed 1 --with-enumeration",
            "419729c51fdebd34a283049aa050b38c23d311173ee38d847a8ff8e2ee85f455",
        ),
        (
            "enumerate --k 3 --m 3 --max-states 100000",
            "233ca96b4d12f2fcad82e36ab717821d91f380df7dd028a170b375a5fadec5d8",
        ),
    ],
)
def test_seeded_output_matches_its_golden_digest(capsys, argv, digest):
    # sha256 of stdout, move lists included, taken when every fire built a
    # new tuple state; the benchmark pins only the long games' outcome text
    code, out, _ = run_cli(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessCount:
    """Seeded trials split over 1, 2 or 3 processes, or run where os.fork is
    missing, give the same bytes: trial i depends only on (params, seed, i)."""

    @pytest.fixture(params=[1, 2, 3, None], ids=["1", "2", "3", "no-fork"])
    def split(self, request, monkeypatch):
        """Plays every run of the test on request.param processes (None: no
        os.fork), with no floor on the work per process; yields that number
        of processes and the list of forks made."""
        made = []
        monkeypatch.setattr(engine, "FORK_MIN_FIRES", 1)
        if request.param is None:
            monkeypatch.delattr(os, "fork")
        else:
            real_fork = os.fork

            def counting_fork():
                made.append(1)
                return real_fork()

            monkeypatch.setattr(os, "fork", counting_fork)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False)
        yield request.param or 1, made
        _no_child_left()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "montecarlo --k 3 --m 3 --trials 2000 --seed 0 --json",
                "fe8ee62a6292fa3d4b613bb67277706d58809a9d6060293b8dee133e5fb9e9cd",
            ),
            (
                "verify --k 3 --m 3 --samples 500 --seed 0",
                "8103e2ca28d96448e13c8c33fa32f124d3d7f878bf530fd419a8216ffb999465",
            ),
        ],
    )
    def test_stdout_keeps_its_digest(self, capsys, split, argv, digest):
        processes, forks = split
        code, out, err = run_cli(capsys, argv.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(forks) == processes - 1

    @pytest.mark.parametrize(
        "argv",
        [
            "montecarlo --k 2 --m 3 --trials 300 --seed 7",
            "montecarlo --k 3 --m 2 --trials 3 --seed 1 --with-enumeration",
            "verify --k 2 --m 3 --samples 40 --seed 2",
            "verify --k 1 --m 4 --samples 5 --seed 9",
        ],
    )
    def test_stdout_equals_that_of_one_process(self, capsys, monkeypatch, split, argv):
        processes, forks = split
        code, out, err = run_cli(capsys, argv.split())
        assert len(forks) == processes - 1
        monkeypatch.setattr(engine, "FORK_MIN_FIRES", 10**9)
        assert run_cli(capsys, argv.split()) == (code, out, err)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("chosen", [{89}, {40, 80}, {5, 50}, {29, 30, 59, 60}])
    def test_reproduce_line_names_the_earliest_failing_trial(self, capsys, monkeypatch, split, chosen):
        params, samples, seed = StarParams(3, 3), 90, 4
        logs = _logs(params, range(samples), seed)
        bad = {logs[i] for i in chosen}
        failing = [i for i, moves in enumerate(logs) if moves in bad]

        def verdicts(moves, real):
            return {**real, "mixing": moves not in bad}

        monkeypatch.setattr(starchip.verify, "GameCheck", _game_check(verdicts))
        code, out, err = run_cli(capsys, ["verify", "--k", "3", "--m", "3", "--samples", "90", "--seed", "4"])
        assert code == 1
        assert f"center resend order check failures: {len(failing)}" in out.splitlines()
        i = failing[0]
        trial_seed = derive_seed(seed, i)
        assert err == (
            f"trial {i} (seed {trial_seed}) failed mixing; reproduce with: starchip stabilize --k 3 --m 3 "
            f"--strategy random --seed {trial_seed} --verify\n"
        )

    @pytest.mark.parametrize("trial", [0, 45, 89])
    def test_an_error_in_any_range_is_raised_here_and_leaves_no_child(self, capsys, monkeypatch, split, trial):
        logs = _logs(StarParams(3, 3), range(90), 4)

        def verdicts(moves, real):
            if moves == logs[trial]:
                raise RuntimeError(f"check of trial {trial} broke")
            return real

        monkeypatch.setattr(starchip.verify, "GameCheck", _game_check(verdicts))
        with pytest.raises(RuntimeError, match=f"check of trial {trial} broke"):
            main(["verify", "--k", "3", "--m", "3", "--samples", "90", "--seed", "4"])
        _no_child_left()
        assert capsys.readouterr().out == ""

    def test_summaries_come_back_in_trial_order(self, split):
        processes, forks = split
        parts = fork_trials(StarParams(2, 2), 10, list)
        assert len(parts) == processes
        assert [i for part in parts for i in part] == list(range(10))
        assert len(forks) == processes - 1

    def test_a_failed_fork_leaves_its_range_to_the_parent(self, capsys, monkeypatch):
        argv = "montecarlo --k 2 --m 3 --trials 300 --seed 7 --json".split()
        expected = run_cli(capsys, argv)
        real_fork, made = os.fork, []

        def fork_once():
            made.append(1)
            if len(made) > 1:
                raise OSError("no more processes")
            return real_fork()

        monkeypatch.setattr(engine, "FORK_MIN_FIRES", 1)
        monkeypatch.setattr(os, "fork", fork_once, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert run_cli(capsys, argv) == expected
        assert len(made) == 2
        made.clear()
        parts = fork_trials(StarParams(2, 2), 12, list)
        assert parts == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        assert len(made) == 2
        _no_child_left()

    def test_no_fork_while_another_thread_runs(self, capsys, monkeypatch):
        def fork():
            raise AssertionError("forked a process that runs two threads")

        monkeypatch.setattr(engine, "FORK_MIN_FIRES", 1)
        monkeypatch.setattr(os, "fork", fork, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            code, out, _ = run_cli(capsys, ["montecarlo", "--k", "2", "--m", "2", "--trials", "50", "--seed", "5"])
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert code == 0 and "trials=50" in out

    def test_small_runs_fork_nothing(self, capsys, monkeypatch):
        def fork():
            raise AssertionError("forked for too little work")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        # (2,4) games are 30 fires long: 20 of them are 600 fires.
        code, out, _ = run_cli(capsys, ["verify", "--k", "2", "--m", "4", "--samples", "20", "--seed", "0"])
        assert code == 0 and "verification: PASS" in out
