"""Elliptic divisibility sequences and their inversion pair.

W_0 = 0, W_1 = 1, W_{-n} = -W_n, and W_{n+2} W_{n-2} = W_{n+1} W_{n-1} W_2^2
- W_1 W_3 W_n^2.  The kernel alpha(i,k) = W_k^2, beta(i,k) = W_{i+k} W_{i-k}
satisfies the triple sum identity because of the sequence's three-term
product identity, so the induced pair inverts exactly.
"""

from itertools import product

from invrel import (
    eds_closed_entries,
    eds_generate,
    eds_kernel,
    eds_property_residual,
    f_entry,
    g_entry,
    pair_from_kernel,
    verify_inversion,
)

seq = eds_generate(1, -1, 1, 16)
print("W_n for seeds (W_2, W_3, W_4) = (1, -1, 1):")
print(" ", {n: str(seq.w(n)) for n in range(0, 13)})

worst = max(
    (abs(seq.recurrence_residual(n)) for n in range(-10, 11)),
    default=0,
)
print("recurrence residual, all |n| <= 10:", worst)

violations = sum(
    eds_property_residual(seq, k, p, q) != 0
    for k, p, q in product(range(-8, 9), repeat=3)
)
print("three-term product identity violations, |k|,|p|,|q| <= 8:", violations)

kernel = eds_kernel(seq)
report = verify_inversion(pair_from_kernel(kernel, (1, 6)))
print(f"delta on [1,6]: passed={report.passed} worst={report.worst_value}")

closed_f, closed_g = eds_closed_entries(seq)
bad = sum(
    closed_f(n, k) != f_entry(kernel, n, k) or closed_g(n, k) != g_entry(kernel, n, k)
    for k in range(1, 7)
    for n in range(k, 7)
)
print("closed-form entry mismatches on [1,6]:", bad)
print("e.g. F(5,2) =", f_entry(kernel, 5, 2), " G(5,2) =", g_entry(kernel, 5, 2))
