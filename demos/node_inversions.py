"""Inversions from four sequences, and why they work.

Four bilateral sequences (a, b, s, m) with distinct nodes s generate a
matrix inversion.  The orthogonality sum collapses to a divided difference
of a polynomial of too-low degree, which vanishes; we demo that vanishing
statement directly, then the inversion, then the pivot substitution that
turns any triple-sum kernel into node sequences.
"""

import math
import random
from fractions import Fraction

from invrel import (
    NodeSequences,
    binomial_kernel,
    divided_difference,
    divided_difference_sum,
    f_entry,
    g_entry,
    kernel_to_nodes,
    node_entries,
    pair_from_nodes,
    verify_inversion,
)

# --- the vanishing statement ---------------------------------------------------
# With n+1 distinct nodes and deg H = n-1, the divided difference is zero.
nodes = (Fraction(0), Fraction(1), Fraction(5, 2), Fraction(-3), Fraction(7))
shifts = (Fraction(1), Fraction(-1), Fraction(4, 3))  # H(x) = (x+1)(x-1)(x+4/3)
H = lambda x: math.prod((x + a for a in shifts), start=1)
print("nodes:", [str(x) for x in nodes])
print("H(x) = (x+1)(x-1)(x+4/3), degree", len(shifts))
print("explicit sum form:", divided_difference_sum(H, nodes))
print("recursive form:   ", divided_difference(H, nodes))

# --- a random node inversion ----------------------------------------------------
rng = random.Random(5)
tbl = {name: {n: Fraction(rng.choice([v for v in range(-5, 6) if v])) for n in range(6)}
       for name in "abm"}
svals = {n: Fraction(3 * n + rng.randint(0, 2)) for n in range(6)}
seqs = NodeSequences(
    a=lambda n: tbl["a"][n],
    b=lambda n: tbl["b"][n],
    s=lambda n: svals[n],
    m=lambda n: tbl["m"][n],
)
report = verify_inversion(pair_from_nodes(seqs, (0, 5)))
print(f"\nrandom node inversion on [0,5]: passed={report.passed} worst={report.worst_value}")

# --- collapsing a kernel to node sequences ---------------------------------------
# Any kernel satisfying the triple sum identity can be rewritten as node
# sequences through an out-of-window pivot; entries agree exactly.
kernel = binomial_kernel()
seqs = kernel_to_nodes(kernel, pivot=-3)
mism = 0
for k in range(0, 5):
    for n in range(k, 5):
        f_val, g_val = node_entries(seqs, n, k)
        mism += (f_val != f_entry(kernel, n, k)) + (g_val != g_entry(kernel, n, k))
print(f"pivot round-trip mismatches on [0,4]: {mism}")
