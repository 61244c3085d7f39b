"""
Stable configurations as Young tableaux
=======================================

Writing branch i's chips as row i of a matrix (levels as columns) turns a
stable configuration into a tableau filling. Three facts make this view
productive:

* with two levels per branch, the reachable configurations are exactly the
  standard fillings, counted by the Catalan numbers;
* every standard filling is reachable at any size, by an explicit script;
* restricting play to "volatility-minimizing" fires (keep the number of
  ready vertices minimal, prefer vertices far from the center) reaches
  exactly the standard fillings on (2,2) to (2,6), (3,2), (3,3), (4,2),
  (5,2), (6,2), (7,2), (4,3) and (5,3), where the exhaustive search and
  the standard fillings were compared: at (5,3), 6,006 of each.

That last fact does not hold at (3,4): volatility-minimizing play reaches
639 outcomes there, against 462 standard fillings. One game that shows it is
``starchip stabilize --k 3 --m 4 --strategy volmin --seed 413``. The rule
coded here counts the vertices ready after the fire, then prefers the
outermost level; whether that is the paper's rule is an open question.
"""
from starchip import (
    StarParams,
    Tableau,
    VolatilityMinimizing,
    catalan,
    count_rect_syt,
    enumerate_volmin,
    from_outcome,
    generate_syts,
    reachable_set,
    replay,
    stabilize_labeled,
    to_outcome,
    witness_sequence,
)

# Catalan counting at m = 2.
for k in (2, 3, 4, 5):
    n_reachable = len(reachable_set(StarParams(k, 2), max_states=1_000_000))
    print(f"k={k}, m=2: {n_reachable} reachable configurations, catalan(k) = {catalan(k)}")

# Beyond m = 2 the reachable set is strictly larger than the standard ones;
# this branch-sorted configuration has its middle column out of order.
crooked = from_outcome(((1, 4, 7), (2, 3, 8), (5, 6, 9)))
print(f"\n{crooked} standard? {crooked.is_standard} (middle column: {crooked.column(1)})")

# Every standard tableau still has a scripted game landing exactly on it.
t = Tableau(((1, 2, 6), (3, 5, 8), (4, 7, 9)))
moves = witness_sequence(t)
final = replay(StarParams(3, 3), moves)
print(f"\nscript of {len(moves)} moves lands on {final == to_outcome(t)} -> {t}")

# At 3x3 volatility-minimizing play reaches exactly the standard fillings.
outcomes = enumerate_volmin(StarParams(3, 3))
image = {to_outcome(s) for s in generate_syts(3, 3)}
print(f"\nvolatility-minimizing 3x3 outcomes: {len(outcomes)}")
print(f"standard 3x3 fillings:              {count_rect_syt(3, 3)}")
print(f"the two sets are equal:             {outcomes == image}")

# At 3x4 it does not: this game ends on a filling that is not standard.
outcome, _ = stabilize_labeled(StarParams(3, 4), VolatilityMinimizing(413))
odd = from_outcome(outcome)
print(f"\nvolmin 3x4, seed 413: {odd} standard? {odd.is_standard} (second column: {odd.column(1)})")
