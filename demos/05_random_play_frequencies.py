"""
What random play prefers
========================

Play at random: pick a ready vertex uniformly, then a uniform random choice
of chips for it. Some stable configurations show up far more often than
others. Note that these frequencies are NOT proportional to the number of
stabilization sequences per configuration (different sequences have
different probabilities), which is why both tables are printed side by
side. On this small board the fully sorted configuration is the mode, and
every outcome is a standard filling. Neither the sorted mode nor a lead of
the standard fillings over the rest is a rule, though. On (2,5),
`starchip montecarlo --k 2 --m 5 --trials 20000 --seed 1` (about 7 s) ranks
[1,2,4,5,6],[3,7,8,9,10] first with 2,341 hits and the sorted outcome third
with 1,415. On (3,3) the standard filling [1,4,7],[2,5,8],[3,6,9] has exact
probability 0.001771 under random play, below the non-standard
[1,4,5],[2,3,7],[6,8,9] at 0.001852.
"""
from starchip import StarParams, emit_table, enumerate_all, run_montecarlo

params = StarParams(2, 3)
report = run_montecarlo(params, trials=20_000, seed=424242)

print(emit_table(report))
print()
print("for contrast, the exhaustive sequence census:")
print(emit_table(enumerate_all(params)))

# Same seed, same report: experiments are exactly reproducible.
again = run_montecarlo(params, trials=20_000, seed=424242)
print(f"rerun with the same seed is identical: {report == again}")
