"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py`` to see
them). All tolerances are exact integer comparisons.
"""
import json
from itertools import combinations

from starchip import (
    CENTER,
    SequenceLog,
    StarParams,
    Tableau,
    Vertex,
    catalan,
    count_rect_syt,
    enumerate_all,
    enumerate_volmin,
    expected_fire_count,
    expected_total_fires,
    from_outcome,
    generate_syts,
    is_row_and_rim_sorted,
    reachable_set,
    replay,
    sort_rows,
    stabilize_unlabeled,
    to_outcome,
    witness_sequence,
)
from starchip.cli import main as cli_main
from starchip.rng import SplitMix64
from oracles import naive_sequence_counts, naive_total_sequences, random_column_sorted_grid


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail and not ok:
        line += f" :: {detail}"
    print(line)
    assert ok, f"criterion {num}: {description}: {detail}"


# Published sequence-count table for the eight smallest games.
PUBLISHED_COUNTS = {
    (1, 1): {((1,),): 1},
    (1, 2): {((1, 2),): 2},
    (1, 3): {((1, 2, 3),): 60},
    (2, 1): {((1,), (2,)): 1},
    (2, 2): {((1, 3), (2, 4)): 4, ((1, 2), (3, 4)): 8},
    (2, 3): {
        ((1, 3, 5), (2, 4, 6)): 8568,
        ((1, 2, 5), (3, 4, 6)): 22680,
        # Erratum: printed as 22,680, the figure of the row above. The
        # label-free total 181,440 (naive_total_sequences) less the other
        # four rows forces 24,696.
        ((1, 3, 4), (2, 5, 6)): 24696,
        ((1, 2, 4), (3, 5, 6)): 51408,
        ((1, 2, 3), (4, 5, 6)): 74088,
    },
    (3, 1): {((1,), (2,), (3,)): 1},
    (3, 2): {
        ((1, 4), (2, 5), (3, 6)): 12,
        ((1, 3), (2, 5), (4, 6)): 12,
        ((1, 3), (2, 4), (5, 6)): 24,
        ((1, 2), (3, 5), (4, 6)): 24,
        ((1, 2), (3, 4), (5, 6)): 48,
    },
}
PUBLISHED_TOTALS = {
    (1, 1): 1, (1, 2): 2, (1, 3): 60, (2, 1): 1,
    # Erratum: the (2,3) total was printed as 179,424, the sum of the printed
    # rows with their slip; the label-free total is 181,440.
    (2, 2): 12, (2, 3): 181440, (3, 1): 1, (3, 2): 120,
}


def test_criterion_01_sequence_count_table():
    # The reference table is first checked on its own: each total against the
    # label-free oracle, and each game's rows against its total.
    table_errors = []
    for (k, m), total in PUBLISHED_TOTALS.items():
        label_free = naive_total_sequences(k, m)
        if total != label_free:
            table_errors.append(
                f"({k},{m}) reference total {total}, label-free total {label_free}"
            )
        if sum(PUBLISHED_COUNTS[(k, m)].values()) != total:
            table_errors.append(f"({k},{m}) reference rows do not sum to {total}")
    report(
        1,
        "reference totals agree with the label-free oracle (naive_total_sequences)",
        not table_errors,
        "; ".join(table_errors),
    )

    mismatches = []
    for (k, m), published in PUBLISHED_COUNTS.items():
        result = enumerate_all(StarParams(k, m))
        if result.per_outcome != published:
            for outcome in sorted(set(result.per_outcome) | set(published)):
                got = result.per_outcome.get(outcome)
                want = published.get(outcome)
                if got != want:
                    mismatches.append(f"({k},{m}) {outcome}: computed {got}, published {want}")
        if result.total_sequences != PUBLISHED_TOTALS[(k, m)]:
            mismatches.append(
                f"({k},{m}) total: computed {result.total_sequences}, "
                f"published {PUBLISHED_TOTALS[(k, m)]}"
            )
    report(
        1,
        "published per-outcome sequence counts for the eight smallest games",
        not mismatches,
        "; ".join(mismatches),
    )


def test_criterion_02_closed_form_fire_counts_and_stable_shapes():
    problems = []
    for k in range(1, 6):
        for m in range(1, 7):
            params = StarParams(k, m)
            _, fires = stabilize_unlabeled(params, k * m)
            if sum(fires.values()) != expected_total_fires(params):
                problems.append(f"total fires for ({k},{m})")
            vertices = [CENTER] + [Vertex(i, j) for i in range(1, k + 1) for j in range(1, m + 2)]
            if any(fires.get(v, 0) != expected_fire_count(params, v) for v in vertices):
                problems.append(f"per-vertex fires for ({k},{m})")
    for k in range(1, 6):
        params = StarParams(k, 1)
        for n in range(0, 5 * k + 5):
            counts, _ = stabilize_unlabeled(params, n)
            levels, rest = divmod(n, k)
            expected = {CENTER: rest} if rest else {}
            for i in range(1, k + 1):
                for j in range(1, levels + 1):
                    expected[Vertex(i, j)] = 1
            if counts != expected:
                problems.append(f"stable shape for k={k}, n={n}")
    report(2, "closed-form fire counts (k<=5, m<=6) and stable shapes (n<=5k+4)", not problems,
           "; ".join(problems))


def test_criterion_03_two_by_four_census(unreachable_2x4_text):
    reachable = reachable_set(StarParams(2, 4))
    row_rim_sorted = set()
    labels = set(range(1, 9))
    for top in combinations(sorted(labels), 4):
        bottom = tuple(sorted(labels - set(top)))
        t = Tableau((top, bottom))
        if is_row_and_rim_sorted(t):
            row_rim_sorted.add(t.rows)
    quartet = {tuple(map(tuple, rows)) for rows in json.loads(unreachable_2x4_text)}
    ok = (
        len(reachable) == 16
        and len(row_rim_sorted) == 20
        and row_rim_sorted - reachable == quartet
        and reachable <= row_rim_sorted
    )
    report(
        3,
        "2x4 census: 16 reachable, 20 row-and-rim-sorted, difference is the known quartet",
        ok,
        f"|reachable|={len(reachable)}, |row+rim|={len(row_rim_sorted)}, "
        f"difference={sorted(row_rim_sorted - reachable)}",
    )


def test_criterion_04_two_column_outcomes_are_counted_by_catalan():
    expected_sizes = {2: 2, 3: 5, 4: 14, 5: 42}
    problems = []
    for k, size in expected_sizes.items():
        params = StarParams(k, 2)
        outcomes = reachable_set(params, max_states=1_000_000)
        image = {to_outcome(t) for t in generate_syts(k, 2)}
        if outcomes != image:
            problems.append(f"k={k}: reachable set differs from tableau image")
        if len(outcomes) != size or catalan(k) != size:
            problems.append(f"k={k}: size {len(outcomes)} != catalan {catalan(k)}")
    report(4, "m=2 reachable sets equal the standard-tableau image, sized by Catalan numbers",
           not problems, "; ".join(problems))


def test_criterion_05_witness_scripts_for_every_small_tableau():
    problems = []
    checked = 0
    for k in range(1, 10):
        for m in range(1, 10):
            if k * m > 9:
                continue
            params = StarParams(k, m)
            outcomes = set()
            for t in generate_syts(k, m):
                final = replay(params, witness_sequence(t))
                if final != to_outcome(t):
                    problems.append(f"{k}x{m} tableau {t} landed on {final}")
                outcomes.add(final)
                checked += 1
            if len(outcomes) != count_rect_syt(k, m):
                problems.append(f"{k}x{m}: witness outcomes not injective")
    report(5, f"witness scripts replay to their tableaux (all {checked} with k*m <= 9), injectively",
           not problems, "; ".join(problems))


def test_criterion_06_volatility_minimizing_outcomes():
    expected_sizes = {(2, 2): 2, (2, 3): 5, (3, 2): 5, (4, 2): 14}
    problems = []
    for (k, m), size in expected_sizes.items():
        outcomes = enumerate_volmin(StarParams(k, m))
        image = {to_outcome(t) for t in generate_syts(k, m)}
        if outcomes != image or len(outcomes) != size:
            problems.append(f"({k},{m}): got {len(outcomes)} outcomes")
    # stretch case, reported but not gating
    stretch = enumerate_volmin(StarParams(3, 3))
    stretch_ok = len(stretch) == 42 and stretch == {to_outcome(t) for t in generate_syts(3, 3)}
    print(f"[criterion 06-stretch] {'PASS' if stretch_ok else 'FAIL'} (non-gating) - "
          f"(3,3) volatility-minimizing outcomes: {len(stretch)} (expected 42)")
    report(6, "volatility-minimizing outcomes equal the tableau image for the mandatory shapes",
           not problems, "; ".join(problems))


def test_criterion_07_thousand_random_logs_verify(capsys):
    problems = []
    for k, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        argv = ["verify", "--k", str(k), "--m", str(m), "--samples", "1000", "--seed", str(1000 * k + m)]
        code = cli_main(argv)
        out, err = capsys.readouterr()
        if code != 0 or not out.endswith("verification: PASS\n"):
            problems.append(f"({k},{m}): exit {code}; {err.strip() or out.splitlines()[-1]}")
    report(7, "1000 random logs per shape pass order/resend checks with sorted outcomes and "
              "identical fire statistics", not problems, "; ".join(problems))


def test_criterion_08_scripted_replay_and_its_tableau(replay_3x3_text):
    params = StarParams(3, 3)
    log = SequenceLog.from_text(params, replay_3x3_text)
    final = replay(params, log.moves)
    t = from_outcome(final)
    middle = t.column(1)
    ok = (
        final == ((1, 4, 7), (2, 3, 8), (5, 6, 9))
        and not t.is_standard
        and all(a < b for a, b in zip(t.column(0), t.column(0)[1:]))
        and all(a < b for a, b in zip(t.column(2), t.column(2)[1:]))
        and any(a >= b for a, b in zip(middle, middle[1:]))
    )
    report(8, "the 18-move script replays to its outcome, non-standard precisely in column 2",
           ok, f"final={final}")


def test_criterion_09_row_sorting_preserves_column_order():
    violations = 0
    for rows, cols in [(3, 3), (4, 4), (5, 3)]:
        rng = SplitMix64(90_000 + 100 * rows + cols)
        for _ in range(500):
            grid = random_column_sorted_grid(rows, cols, rng)
            result = sort_rows(grid)
            for j in range(cols):
                column = [result[i][j] for i in range(rows)]
                if any(a >= b for a, b in zip(column, column[1:])):
                    violations += 1
    report(9, "500 random column-sorted grids per shape stay column-sorted after row sorting",
           violations == 0, f"{violations} violations")


def test_criterion_10_oracle_equivalence():
    problems = []
    for k, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        memoized = enumerate_all(StarParams(k, m)).per_outcome
        naive = dict(naive_sequence_counts(k, m))
        if memoized != naive:
            problems.append(f"({k},{m}): memoized {memoized} != naive {naive}")
    for k in range(1, 11):
        for m in range(1, 11):
            if k * m <= 10 and count_rect_syt(k, m) != len(generate_syts(k, m)):
                problems.append(f"({k},{m}): hook count != generated count")
    report(10, "memoized counting matches the naive walk; hook counts match generation",
           not problems, "; ".join(problems))


def test_criterion_11_seeded_commands_are_byte_identical(capsys):
    commands = [
        ["stabilize", "--k", "2", "--m", "3", "--strategy", "random", "--seed", "42", "--json", "--verify"],
        ["stabilize", "--k", "3", "--m", "3", "--strategy", "volmin", "--seed", "5", "--json"],
        ["enumerate", "--k", "2", "--m", "3", "--json"],
        ["volmin", "--k", "3", "--m", "2", "--json"],
        ["montecarlo", "--k", "2", "--m", "2", "--trials", "250", "--seed", "17", "--json"],
    ]
    problems = []
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1.encode() != out2.encode():
            problems.append(" ".join(argv))
    report(11, "seeded commands produce byte-identical JSON on repeat runs",
           not problems, "; ".join(problems))
