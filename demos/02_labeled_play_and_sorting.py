"""
Labeled chips sort themselves
=============================

Now give the chips labels 1..km. A center fire chooses k chips and routes
the i-th smallest to branch i; a branch fire chooses 2 chips and sends the
smaller inward, the larger outward. However the game is played, each branch
ends up sorted from the center outward, and the innermost and outermost
rings are sorted across branches too.

Every game starts with all km chips on the center, so `stabilize_labeled`
takes only the shape and a strategy, and every game from that start makes
the same number of fires. A game keeps no log: it returns its outcome and
how many fires it made, and a per-fire check sees each fire as it is made.
"""
from starchip import (
    CENTER,
    Move,
    SequenceLog,
    StarParams,
    branch_vertex,
    expected_total_fires,
    make_strategy,
    outcome_to_text,
    stabilize_labeled,
    verify_branch_sorted,
    verify_mixing,
    verify_poset,
    verify_rim_sorted,
)

params = StarParams(k=3, m=3)

for name in ("det", "random", "volmin"):
    outcome, fires = stabilize_labeled(params, make_strategy(name, seed=2024))
    print(f"{name:>6}: {outcome_to_text(outcome)} in {fires} fires "
          f"(always {expected_total_fires(params)})")

# Play one noisy game and record its moves. The check hears each fire as a
# slot and its chips: slot 0 is the center, slot (i-1)*m + j is B(i,j).
vertex = [CENTER] + [branch_vertex(i, j) for i in range(1, params.k + 1) for j in range(1, params.m + 1)]
moves = []
outcome, _ = stabilize_labeled(params, make_strategy("random", seed=5),
                               lambda s, chips: moves.append(Move(vertex[s], chips)))
log = SequenceLog(params, tuple(moves))
print("\na random game, move by move:")
print("".join(f"{mv}\n" for mv in moves))

print("branches sorted:      ", verify_branch_sorted(outcome))
print("inner/outer rims sorted:", verify_rim_sorted(outcome))

# The tail of every stabilization has rigid structure: the last fires of
# each vertex happen in a forced partial order, with exactly degree-many
# chips present, and successive center fires never send a larger chip to
# the same branch.
print("endgame order check:  ", verify_poset(log).passed)
print("center resend check:  ", verify_mixing(log).passed)

# Strict decrease is too much to ask: a branch may return the very chip it
# was just sent, and the center then sends it right back.
strict = verify_mixing(log, strict=True)
print(f"strictly decreasing resends: {strict.passed} "
      f"({len(strict.violations)} repeat(s) observed)")
