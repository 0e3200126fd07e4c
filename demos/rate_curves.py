"""Covert-capacity curve over the channel weight, plus one finite-n table."""

import qcovert as qc

print("capacity lower bound vs depolarizing weight")
print("q      eta        capacity_lb")
q_grid = [round(0.05 * k, 2) for k in range(1, 20)]
for q, eta, capacity in qc.capacity_curve(q_grid):
    print(f"{q:4.2f}   {eta:8.4f}   {capacity:.6f}")

print()
nu, eps, q = 0.05, 0.05, 0.5
reports = qc.rate_reports([10**4, 10**5, 10**6, 10**7], nu, q, eps)
print(f"finite-blocklength rates at nu={nu}, eps={eps}, q={q} "
      f"(limit L = {reports[0].covert_rate_limit:.5f})")
print("n        alpha_n     logM_finite   logM_asym     L_n")
for rep in reports:
    print(f"{rep.n:<8d} {rep.alpha_n:.4e}  {rep.logM_finite:12.2f}  "
          f"{rep.logM_asymptotic:12.2f}  {rep.covert_rate_L:.5f}")

print()
print("the per-use message count logM/n still vanishes (square-root law):")
for rep in qc.rate_reports([10**4, 10**6, 10**8], nu, q, eps):
    print(f"  n={rep.n:<10d} logM/n = {rep.logM_finite / rep.n:.3e}")
