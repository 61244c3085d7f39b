import json

import pytest
from hypothesis import given, strategies as st

from starchip import (
    BudgetExceededError,
    StarParams,
    Tableau,
    catalan,
    count_rect_syt,
    expected_total_fires,
    from_outcome,
    generate_syts,
    is_row_and_rim_sorted,
    replay,
    sort_rows,
    to_outcome,
    witness_sequence,
)
from starchip.tableaux import _syt_digits


class TestTableauBasics:
    def test_standard_recognition(self):
        assert Tableau(((1, 2), (3, 4))).is_standard
        assert Tableau(((1, 3), (2, 4))).is_standard
        assert not Tableau(((2, 1), (3, 4))).is_standard
        assert not Tableau(((1, 2), (4, 3))).is_standard
        assert Tableau(((1,),)).is_standard

    def test_entries_must_be_permutation(self):
        with pytest.raises(ValueError):
            Tableau(((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            Tableau(((1, 2), (3,)))
        with pytest.raises(ValueError):
            Tableau(((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="int labels"):  # 4.0 equals the label 4
            Tableau(((1, 2), (3, 4.0)))
        t = Tableau(((True, 2), (3, 4)))  # a bool is stored as its int
        assert str(t) == "[1,2],[3,4]" and all(type(x) is int for row in t.rows for x in row)

    def test_shape_and_column(self):
        t = Tableau(((1, 2, 3), (4, 5, 6)))
        assert t.shape == (2, 3)
        assert t.column(1) == (2, 5)

    def test_text_form(self):
        assert str(Tableau(((1, 3), (2, 4)))) == "[1,3],[2,4]"


class TestOutcomeCorrespondence:
    def test_from_outcome_identity_on_grid(self):
        t = from_outcome(((1, 2), (3, 4)))
        assert t.rows == ((1, 2), (3, 4))
        assert t.is_standard

    def test_worked_example_fails_exactly_in_middle_column(self):
        t = from_outcome(((1, 4, 7), (2, 3, 8), (5, 6, 9)))
        assert not t.is_standard
        assert t.column(0) == (1, 2, 5)
        assert t.column(2) == (7, 8, 9)
        middle = t.column(1)
        assert middle == (4, 3, 6)
        assert any(a >= b for a, b in zip(middle, middle[1:]))

    def test_to_outcome_inverts_from_outcome(self):
        out = ((1, 3, 5), (2, 4, 6))
        assert to_outcome(from_outcome(out)) == out

    def test_to_outcome_requires_standard(self):
        with pytest.raises(ValueError):
            to_outcome(Tableau(((1, 4, 7), (2, 3, 8), (5, 6, 9))))

    def test_roundtrip_over_all_small_syts(self):
        for k, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            for t in generate_syts(k, m):
                assert from_outcome(to_outcome(t)) == t


class TestCounting:
    def test_catalan_values(self):
        assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        with pytest.raises(ValueError):
            catalan(-1)

    def test_catalan_matches_two_column_generation(self):
        for k in (1, 2, 3, 4, 5):
            assert catalan(k) == len(generate_syts(k, 2))

    def test_hook_count_matches_generation(self):
        for k in range(1, 5):
            for m in range(1, 5):
                if k * m <= 12:
                    assert count_rect_syt(k, m) == len(generate_syts(k, m))

    def test_known_counts(self):
        assert count_rect_syt(3, 3) == 42
        assert count_rect_syt(1, 9) == 1
        assert count_rect_syt(9, 1) == 1
        for k in range(1, 7):
            assert count_rect_syt(k, 2) == catalan(k)

    def test_digit_estimate_matches_the_count(self):
        for k in range(1, 31):
            for m in range(k, 31):
                assert _syt_digits(k, m) == _syt_digits(m, k) == len(str(count_rect_syt(k, m)))

    def test_generation_deterministic_and_standard(self):
        first = generate_syts(2, 3)
        assert first == generate_syts(2, 3)
        assert len(first) == 5
        assert all(t.is_standard for t in first)
        assert generate_syts(1, 3) == [Tableau(((1, 2, 3),))]

    def test_generation_budget(self):
        with pytest.raises(BudgetExceededError):
            generate_syts(4, 4)
        with pytest.raises(ValueError):
            generate_syts(0, 3)

    def test_shape_refusal_names_both_values(self):
        with pytest.raises(ValueError, match=r"^need k >= 1 and m >= 1, got k=2, m=0$"):
            count_rect_syt(2, 0)
        with pytest.raises(ValueError, match=r"^need k >= 1 and m >= 1, got k=0, m=2$"):
            generate_syts(0, 2)


class TestWitnessSequences:
    def test_two_by_two_script(self):
        t = Tableau(((1, 3), (2, 4)))
        moves = witness_sequence(t)
        assert len(moves) == expected_total_fires(StarParams(2, 2))
        assert replay(StarParams(2, 2), moves) == ((1, 3), (2, 4))

    def test_script_follows_the_documented_rule(self):
        # Ready branch vertices fire innermost first, lower branch first on
        # a level; otherwise the center fires its highest full column.
        script = " ".join(map(str, witness_sequence(Tableau(((1, 2, 4), (3, 5, 6))))))
        assert script == (
            "C:{4,6} C:{2,5} B(1,1):{2,4} B(2,1):{5,6} C:{2,5} C:{1,3} B(1,1):{1,2} "
            "B(2,1):{3,5} B(1,2):{2,4} B(2,2):{5,6} C:{1,3} B(1,1):{1,2} B(2,1):{3,5} C:{1,3}"
        )

    def test_totally_sorted_three_by_three(self):
        t = Tableau(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        assert replay(StarParams(3, 3), witness_sequence(t)) == t.rows

    def test_trivial_game(self):
        moves = witness_sequence(Tableau(((1,),)))
        assert len(moves) == 1

    def test_rejects_non_standard(self):
        with pytest.raises(ValueError):
            witness_sequence(Tableau(((2, 1),)))

    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_all_scripts_land_on_their_tableau(self, k, m):
        params = StarParams(k, m)
        seen = set()
        for t in generate_syts(k, m):
            moves = witness_sequence(t)
            final = replay(params, moves)
            assert final == to_outcome(t)
            assert len(moves) == expected_total_fires(params)
            seen.add(final)
        assert len(seen) == count_rect_syt(k, m)


class TestSortRows:
    def test_small_example(self):
        assert sort_rows([[2, 1], [4, 3]]) == ((1, 2), (3, 4))

    def test_idempotent_on_sorted_rows(self):
        grid = ((1, 2), (3, 4))
        assert sort_rows(grid) == grid

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            sort_rows([[3, 1], [2, 4]])

    def test_rejects_malformed_grids(self):
        with pytest.raises(ValueError):
            sort_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            sort_rows([[1, 1], [2, 2]])
        with pytest.raises(ValueError):
            sort_rows([])

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.integers(min_value=2, max_value=5),
                st.randoms(use_true_random=False),
            )
        )
    )
    def test_columns_stay_sorted(self, case):
        k, m, rnd = case
        labels = list(range(1, k * m + 1))
        rnd.shuffle(labels)
        columns = [sorted(labels[c * k:(c + 1) * k]) for c in range(m)]
        grid = tuple(tuple(columns[c][r] for c in range(m)) for r in range(k))
        result = sort_rows(grid)
        assert all(result[i][j] < result[i + 1][j] for i in range(k - 1) for j in range(m))
        assert all(row == tuple(sorted(row)) for row in result)
        assert sorted(x for row in result for x in row) == sorted(labels)


class TestRowAndRimSorted:
    def test_basic(self):
        assert is_row_and_rim_sorted(Tableau(((1, 3, 5), (2, 4, 6))))
        assert not is_row_and_rim_sorted(Tableau(((2, 1),)))
        assert is_row_and_rim_sorted(Tableau(((1, 4, 7), (2, 3, 8), (5, 6, 9))))

    def test_fixture_quartet_is_row_and_rim_sorted_but_not_standard(self, unreachable_2x4_text):
        quartet = [Tableau(tuple(map(tuple, rows))) for rows in json.loads(unreachable_2x4_text)]
        assert len(quartet) == 4
        for t in quartet:
            assert is_row_and_rim_sorted(t)
            assert not t.is_standard
