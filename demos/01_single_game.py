"""
A first look at chip-firing on a subdivided star
================================================

Drop a pile of chips on the center of a star with k infinite branches.
Any vertex holding at least as many chips as it has neighbors may fire,
sending one chip to each neighbor. The game always ends, and it always
ends in the same place: with km + r chips, r stay on the center and the
innermost m vertices of every branch hold one chip each.
"""
from starchip import (
    CENTER,
    StarParams,
    Vertex,
    expected_fire_count,
    expected_total_fires,
    stabilize_unlabeled,
)

params = StarParams(k=3, m=4)
counts, fires = stabilize_unlabeled(params, n=12)

print("final chip counts:")
for v, c in counts.items():
    print(f"  {v}: {c}")

# The number of fires is not just deterministic in aggregate: every single
# vertex fires the same number of times in every stabilization order.
print(f"\ntotal fires: {sum(fires.values())} (closed form: {expected_total_fires(params)})")
for j in range(params.m + 1):
    v = CENTER if j == 0 else Vertex(1, j)
    print(f"  level {j}: fired {fires.get(v, 0)} times, formula says {expected_fire_count(params, v)}")

# With a remainder, the leftovers simply sit on the center.
counts, _ = stabilize_unlabeled(StarParams(k=3, m=2), n=7)
print(f"\n7 chips on 3 branches leave {counts.get(CENTER, 0)} chip(s) on the center")
