"""
Counting every way to play
==========================

The move graph from the starting pile is finite, so one can count every
distinct stabilization sequence (a move is a vertex plus the exact chips
fired) and bucket them by final configuration. Every path to a state has the
same length, so a sweep one depth layer at a time, adding up path counts per
configuration, makes this cheap even when the raw sequence count is in the
hundreds of thousands.
"""
from starchip import StarParams, emit_table, enumerate_all, reachable_set

for k, m in [(1, 3), (2, 2), (3, 2), (2, 3)]:
    print(emit_table(enumerate_all(StarParams(k, m))))

# Reachability alone scales further: with 8 chips on 2 branches there are
# 16 reachable stable configurations.
outcomes = reachable_set(StarParams(2, 4))
print(f"reachable stable configurations of the 2x4 game: {len(outcomes)}")

# Past the default budget, opt in with an explicit state cap.
outcomes = reachable_set(StarParams(3, 3), max_states=2_000_000)
print(f"reachable stable configurations of the 3x3 game: {len(outcomes)}")
