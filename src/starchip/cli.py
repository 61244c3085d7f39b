"""Command-line interface.

Subcommands:
  stabilize   play one game to stability under a chosen strategy
  enumerate   count all stabilization sequences per reachable outcome
  volmin      outcomes under volatility-minimizing play, vs. the SYT image
  syt         count/list standard tableaux; optionally replay witness scripts
  montecarlo  seeded random-play frequency experiment
  verify      run seeded random games through every sequence/outcome check

Exit codes: 0 on success, 1 when a requested verification fails, 2 on
argument or budget errors and on an --out file that cannot be written.

Only what building the parser and every command need is imported here:
``core`` and ``engine``. Each command imports the rest of what it runs
when it runs.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Callable, Iterable

from .core import BudgetExceededError, ChipGameError, Move, StarParams, _board, outcome_to_text
from .engine import (
    _STRATEGY_NAMES,
    expected_total_fires,
    fork_trials,
    make_strategy,
    random_games,
    replay,
    stabilize_labeled,
)

MAX_FIRES = 5_000_000
"""Fires that ``stabilize``, ``montecarlo`` or ``verify`` plays unless
``--max-fires`` says otherwise: the number of games times
:func:`~starchip.engine.expected_total_fires`, checked before any game
starts. The largest calls the tests, the demos, CI and the benchmark make
are ``montecarlo --k 2 --m 5 --trials 20000`` (1,100,000 fires) and a
(40,40) game (427,220). Five million is over four times the first, and
about 25 s of random play at the 4.7 µs a fire of that (40,40) game (Python
3.11.7, shared 2-vCPU host), where a (100,100) game (16,670,050 fires) or a
(300,300) one (1.35e9) would run for minutes or days, and a ``--json`` game
holds the line of each move, about 26 bytes, until it ends."""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        from .reports import write_atomic

        write_atomic(out, text)


def _check_fires(params: StarParams, games: int, max_fires: int | None) -> None:
    """Refuse ``games`` games of ``params`` that make more fires than
    ``max_fires``, by default MAX_FIRES, with a BudgetExceededError."""
    if max_fires is not None and max_fires < 1:
        raise ValueError("max_fires must be >= 1")
    budget = MAX_FIRES if max_fires is None else max_fires
    fires = games * expected_total_fires(params)
    if fires > budget:
        raise BudgetExceededError(
            f"{fires} fires in {games} game{'s' * (games != 1)} of k={params.k}, m={params.m} "
            f"exceed max_fires = {budget}"
        )


def _move_lines(params: StarParams, lines: bytearray, then: Callable[[int, tuple], object] | None) -> Callable:
    """A per-fire check that appends each fire's line of the ``stabilize
    --json`` moves list, ``    "C:{1,2}",`` and a newline, to ``lines``,
    then hands the fire to ``then``, if given. A move is ASCII that JSON
    needs no escape for: ``C``, ``B``, digits and ``(),:{}``."""
    vertex = _board(params).vertex

    def record(s: int, chips: tuple[int, ...]) -> None:
        lines.extend(f'    "{Move(vertex[s], chips)}",\n'.encode())
        if then is not None:
            then(s, chips)

    return record


def cmd_stabilize(args: argparse.Namespace) -> int:
    params = StarParams(args.k, args.m)
    _check_fires(params, 1, args.max_fires)
    strategy = make_strategy(args.strategy, args.seed)
    check = watch = None
    lines = bytearray()  # the --json moves, one line each, written as they are made
    if args.verify:
        from .verify import GameCheck

        check = GameCheck(params)
        watch = check.fire
    if args.json:
        watch = _move_lines(params, lines, watch)
    outcome, fires = stabilize_labeled(params, strategy, watch)
    checks = check.verdicts(outcome) if check is not None else {}
    if args.json:
        import json

        doc = {
            "k": params.k,
            "m": params.m,
            "strategy": args.strategy,
            "seed": args.seed,
            "outcome": [list(row) for row in outcome],
            "fires": fires,
            "moves": [],
        }
        if args.verify:
            doc["verification"] = checks
        head, tail = json.dumps(doc, indent=2).split('"moves": []')
        sys.stdout.write(head + '"moves": [\n')
        end = len(lines) - 2  # the last move's line takes no comma
        for i in range(0, end, 1 << 16):  # never one more copy of every move
            sys.stdout.write(lines[i : min(i + (1 << 16), end)].decode())
        sys.stdout.write("\n  ]" + tail + "\n")
    else:
        sys.stdout.write(f"outcome: {outcome_to_text(outcome)}\n")
        sys.stdout.write(f"fires: {fires}\n")
        if args.verify:
            summary = " ".join(f"{name}={'pass' if ok else 'FAIL'}" for name, ok in checks.items())
            sys.stdout.write(f"verification: {summary}\n")
    return 0 if all(checks.values()) else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_all
    from .reports import emit_table

    params = StarParams(args.k, args.m)
    result = enumerate_all(params, max_states=args.max_states)
    _emit(emit_table(result, "json" if args.json else "text"), args.out)
    return 0


def cmd_volmin(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_volmin
    from .tableaux import count_rect_syt, from_outcome

    params = StarParams(args.k, args.m)
    outcomes = enumerate_volmin(params, max_states=args.max_states)
    syt_count = count_rect_syt(params.k, params.m)
    # as many standard fillings as there are standard tableaux are the whole image
    matches = len(outcomes) == syt_count and all(from_outcome(o).is_standard for o in outcomes)
    if args.json:
        import json

        doc = {
            "k": params.k,
            "m": params.m,
            "outcomes": [[list(row) for row in o] for o in sorted(outcomes)],
            "count": len(outcomes),
            "syt_count": syt_count,
            "matches_syt_image": matches,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(f"volatility-minimizing outcomes for k={params.k}, m={params.m}:\n")
        for o in sorted(outcomes):
            sys.stdout.write(outcome_to_text(o) + "\n")
        sys.stdout.write(f"count: {len(outcomes)}\n")
        sys.stdout.write(f"standard tableaux of this shape: {syt_count}\n")
        sys.stdout.write(f"matches the standard-tableau image: {'yes' if matches else 'NO'}\n")
    return 0 if matches else 1


def cmd_syt(args: argparse.Namespace) -> int:
    from .tableaux import count_rect_syt, generate_syts, to_outcome, witness_sequence

    count = count_rect_syt(args.k, args.m)
    # Generate before printing anything, so a budget error leaves stdout empty.
    tableaux = generate_syts(args.k, args.m) if args.list or args.witness else []
    sys.stdout.write(f"standard tableaux of shape {args.k} x {args.m}: {count}\n")
    if args.list:
        for t in tableaux:
            sys.stdout.write(str(t) + "\n")
    if args.witness:
        params = StarParams(args.k, args.m)
        good = 0
        for t in tableaux:
            moves = witness_sequence(t)
            final = replay(params, moves)
            if final == to_outcome(t):
                good += 1
            else:
                sys.stdout.write(f"witness FAILED for {t}\n")
        sys.stdout.write(f"witness scripts replayed to their outcomes: {good}/{len(tableaux)}\n")
        if good != len(tableaux):
            return 1
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    from .enumeration import DEFAULT_CELL_BUDGET, enumerate_all
    from .reports import emit_table, run_montecarlo

    params = StarParams(args.k, args.m)
    _check_fires(params, args.trials, args.max_fires)
    report = run_montecarlo(params, args.trials, args.seed)
    text = emit_table(report, "json" if args.json else "text")
    if args.with_enumeration:
        if params.n_chips <= DEFAULT_CELL_BUDGET:
            text += "\nsequence counts (not play probabilities):\n"
            text += emit_table(enumerate_all(params), "text")
        else:
            text += f"\n(enumeration skipped: k*m > {DEFAULT_CELL_BUDGET})\n"
    _emit(text, args.out)
    return 0


def _verify_range(params: StarParams, part: range, seed: int) -> tuple:
    """Play and check the trials in ``part``: the failures per check, the
    distinct fire-count signatures, the distinct outcomes, and the first
    failing trial as (trial, trial seed, failed checks), or None. A
    signature is how often each slot fired, in slot order, which is
    canonical vertex order: a game hands its check only the fires ``_fire``
    accepted at a slot, so no fire has a vertex without one."""
    from .verify import GameCheck

    failures: Counter[str] = Counter()
    fire_counts = set()
    outcomes = set()
    first = None
    for i, (trial_seed, outcome, check) in zip(part, random_games(params, part, seed, lambda: GameCheck(params))):
        outcomes.add(outcome)
        fire_counts.add(tuple(check.fired))
        failed = [name for name, ok in check.verdicts(outcome).items() if not ok]
        if failed and first is None:
            first = (i, trial_seed, failed)
        failures.update(failed)
    return dict(failures), fire_counts, outcomes, first


def cmd_verify(args: argparse.Namespace) -> int:
    from .enumeration import DEFAULT_CELL_BUDGET, reachable_set

    params = StarParams(args.k, args.m)
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    _check_fires(params, args.samples, args.max_fires)
    failures: Counter[str] = Counter()
    fire_counts: set[tuple] = set()
    outcomes = set()
    first = None
    summaries = fork_trials(params, args.samples, lambda part: _verify_range(params, part, args.seed))
    for fails, counts, seen, bad in summaries:
        failures.update(fails)
        fire_counts |= counts
        outcomes |= seen
        first = first or bad
    if first is not None:
        i, trial_seed, failed = first
        sys.stderr.write(
            f"trial {i} (seed {trial_seed}) failed {', '.join(failed)}; reproduce with: "
            f"starchip stabilize --k {params.k} --m {params.m} --strategy random "
            f"--seed {trial_seed} --verify\n"
        )
    lines = [
        f"verified {args.samples} random stabilizations of k={params.k}, m={params.m} (seed={args.seed})",
        f"endgame order check failures: {failures['poset']}",
        f"center resend order check failures: {failures['mixing']}",
        f"unsorted branches: {failures['branches_sorted']}",
        f"unsorted rims: {failures['rim_sorted']}",
        f"logs with unexpected length: {failures['length_matches']}",
        f"per-vertex fire counts identical across logs: {'yes' if len(fire_counts) == 1 else 'NO'}",
    ]
    support_ok = True
    if params.n_chips <= DEFAULT_CELL_BUDGET:
        support_ok = outcomes <= reachable_set(params)
        lines.append(f"observed outcomes within the reachable set: {'yes' if support_ok else 'NO'}")
    ok = not failures and len(fire_counts) == 1 and support_ok
    lines.append(f"verification: {'PASS' if ok else 'FAIL'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


_COMMANDS = {
    "stabilize": "play one game to stability",
    "enumerate": "count all stabilization sequences",
    "volmin": "outcomes under volatility-minimizing play",
    "syt": "count or list standard tableaux",
    "montecarlo": "seeded random-play frequency experiment",
    "verify": "random logs through all verifiers",
}
"""The help line of each command; command NAME runs ``cmd_NAME``."""


def build_parser(commands: Iterable[str] = _COMMANDS) -> argparse.ArgumentParser:
    """The parser of every command, or of those named in ``commands``; the
    usage line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="starchip",
        description="Labeled chip-firing on subdivided star graphs.",
    )
    commands = list(commands)
    metavar = None if len(commands) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in commands:
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.set_defaults(func=globals()[f"cmd_{name}"])  # looked up as the parser is built, so a patched one runs
        p.add_argument("--k", type=int, required=True, help="number of branches (>= 1)")
        p.add_argument("--m", type=int, required=True, help="levels filled per branch (>= 1)")
        if name == "stabilize":
            p.add_argument("--strategy", choices=_STRATEGY_NAMES, default="det")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--json", action="store_true")
            p.add_argument("--verify", action="store_true", help="run all checks on the produced log")
        elif name in ("enumerate", "volmin"):
            p.add_argument("--json", action="store_true")
            if name == "enumerate":
                p.add_argument("--out", help="write output to FILE atomically")
            p.add_argument("--max-states", type=int, default=None, help="state budget; overrides the k*m cap")
        elif name == "syt":
            p.add_argument("--list", action="store_true")
            p.add_argument("--witness", action="store_true", help="replay a witness script per tableau")
        elif name == "montecarlo":
            p.add_argument("--trials", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--out", help="write output to FILE atomically")
            form = p.add_mutually_exclusive_group()
            form.add_argument("--json", action="store_true")
            form.add_argument("--with-enumeration", action="store_true", help="append the sequence-count table")
        else:  # verify
            p.add_argument("--samples", type=int, required=True)
            p.add_argument("--seed", type=int, required=True)
        if name in ("stabilize", "montecarlo", "verify"):
            p.add_argument("--max-fires", type=int, default=None, help=f"fire budget; default {MAX_FIRES}")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call builds the parser of its own command alone; -h, a typo or no command gets all of them
    parser = build_parser(argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChipGameError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
