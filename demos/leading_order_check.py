# Compare the exact relative-entropy moments of the sender's joint output
# against their leading small-alpha forms.  The first moment's relative
# deviation shrinks only like 1/log(1/alpha) because the leading form
# drops an alpha-proportional remainder, so the ratios crawl toward 1.

import qcovert as qc

q = 0.5
print("alpha       D_exact      D_lead       ratio_D   ratio_V   ratio_Q")
alphas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
for alpha, lead in zip(alphas, qc.leading_moments(alphas, q)):
    exact = qc.dvq_exact(alpha, q)
    print("%-10.0e  %-11.4e  %-11.4e  %-8.4f  %-8.4f  %-8.4f"
          % (alpha, exact.d, lead.d,
             exact.d / lead.d, exact.v / lead.v, exact.q4 / lead.q4))

print()
print("The D ratio excess times ln(1/alpha) is nearly constant,")
print("exposing the dropped alpha-linear term:")
import math
alphas = (1e-3, 1e-4, 1e-5, 1e-6)
for alpha, lead in zip(alphas, qc.leading_moments(alphas, q)):
    excess = qc.dvq_exact(alpha, q).d / lead.d - 1.0
    print(f"  alpha={alpha:.0e}  excess*ln(1/alpha) = {excess * math.log(1/alpha):.4f}")
