"""Scan the three warden scenarios and print the support verdicts.

Whether covert signaling is even possible depends on what part of the
environment the adversary holds.  The full environment sees a support
violation (any signaling weight is detectable at fixed rate), the
second register alone sees literally nothing, and the first register
alone sees a full-support pair, which is the regime the rest of the
library builds on.
"""

import qcovert as qc

for q in (0.1, 0.25, 0.5, 0.75, 0.9):
    print(f"--- depolarizing weight q = {q} ---")
    for rep in qc.scenario_reports(q, qc.Scenario):
        print(f"  {rep.label:8s} verdict={rep.verdict:10s} "
              f"contained={rep.support_contained} "
              f"trace_dist={rep.trace_dist:.6f}")
        if rep.scenario == qc.Scenario.ALL_ENV:
            # weight the signal state places outside the null support,
            # never below q/2
            print(f"           kernel overlap {rep.kernel_overlap:.6f} "
                  f"(floor q/2 = {q / 2.0})")
        if rep.scenario == qc.Scenario.E1_ONLY:
            print(f"           det(omega_0) = {rep.det_omega0:.6f}, "
                  f"det(omega_1) = {rep.det_omega1:.6f}")
    print()

# the null vectors behind the ALL_ENV verdict, at one weight: omega_0's
# kernel holds e0 = (0, i, 0, 1)/sqrt(2), whose weight under the signal
# state is q/2, and the f that completes it, whose weight is the overlap
q = 0.5
rep = qc.scenario_reports(q, [qc.Scenario.ALL_ENV])[0]
print("ALL_ENV null vectors at q = 0.5 and their weight under the signal state:")
for label, w in (("e0", q / 2.0), ("f", rep.kernel_overlap)):
    print(f"  <{label}| omega_1 |{label}> = {w:.6f}")
