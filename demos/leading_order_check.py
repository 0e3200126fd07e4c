# Compare the exact relative-entropy moments of the sender's joint output
# against their leading small-alpha forms.  The first moment's relative
# deviation shrinks only like 1/log(1/alpha) because the leading form
# drops an alpha-proportional remainder, so the ratios crawl toward 1.
# The fourth moment is only an order class, O(alpha log^2 alpha); its
# constant is read off the exact value at alpha = 1e-3.

import math

import qcovert as qc

q = 0.5
q4_const = qc.moment_curve([1e-3], q)[0][6] / (1e-3 * math.log2(1e-3) ** 2)
print("alpha       D_exact      D_lead       ratio_D   ratio_V   ratio_Q")
alphas = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
for alpha, _, d, d_lead, _, _, q4, ratio_d, ratio_v in qc.moment_curve(alphas, q):
    log_a = math.log2(alpha)
    print("%-10.0e  %-11.4e  %-11.4e  %-8.4f  %-8.4f  %-8.4f"
          % (alpha, d, d_lead, ratio_d, ratio_v, q4 / (q4_const * alpha * log_a * log_a)))

print()
print("The D ratio excess times ln(1/alpha) is nearly constant,")
print("exposing the dropped alpha-linear term:")
alphas = (1e-3, 1e-4, 1e-5, 1e-6)
for alpha, *_, ratio_d, _ in qc.moment_curve(alphas, q):
    excess = ratio_d - 1.0
    print(f"  alpha={alpha:.0e}  excess*ln(1/alpha) = {excess * math.log(1/alpha):.4f}")
