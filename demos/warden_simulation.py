"""Simulate the warden's best detection test across a covert schedule.

For each blocklength the sender uses the schedule's signaling weight;
the warden holds n copies of the first environment register and tests
them jointly.  The sweep runs out to n = 100 on a log-spaced grid: the
schedule's weight shrinks like n**(nu - 2/3), so the total divergence
budget n * D ~ n * alpha_n**2 keeps falling and the warden's error
climbs back towards 1/2, the square-root law at work.  The error stays
above the Pinsker floor 1/2 - sqrt(relative entropy / 8), which
certifies covertness with room to spare.  Handing the warden the full
environment instead collapses covertness: the error probability drops
fast even at a fixed weight.
"""

import qcovert as qc

nu, q = 0.05, 0.5
print(f"schedule nu={nu}, channel q={q}, warden holds E1 only")
print("n     alpha_n     trace_dist   error_prob   pinsker_floor")
ns = [1, 2, 3, 5, 8, 13, 20, 32, 50, 79, 100]
alphas = qc.schedule_weights(ns, nu)
for r in qc.warden_errors(ns, alphas, q, qc.Scenario.E1_ONLY):
    print(f"{r.n:<4}  {r.alpha:.4e}  {r.trace_dist:.6f}     {r.error_prob:.6f}     "
          f"{r.pinsker_floor:.6f}")

print()
print("same weight, warden holds the whole environment (q=0.5, alpha=0.3):")
ns = [1, 2, 3, 4, 5]
full = qc.warden_errors(ns, [0.3] * len(ns), q, qc.Scenario.ALL_ENV)
part = qc.warden_errors(ns, [0.3] * len(ns), q, qc.Scenario.E1_ONLY)
for f, p in zip(full, part):
    print(f"  n={f.n}  error ALL_ENV={f.error_prob:.4f}  "
          f"E1_ONLY={p.error_prob:.4f}")
print("the ALL_ENV divergence is infinite (support violation), so no")
print("schedule can hide from a warden who keeps every environment qubit")
