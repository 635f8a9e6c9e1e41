#!/usr/bin/env python3
"""Taylor remainders in three equivalent forms, with Schatten-norm control.

The order-k remainder of a matrix function can be computed by definition,
as a single mixed-base operator integral, or as a weighted line integral;
its Schatten norms are controlled by the Hoelder bound for operator
integrals, applied to the mixed-base integral with the certified moment bound.
"""

import numpy as np

from moikit import (
    MoiOperands,
    MoiSymbol,
    WienerAtomic,
    moi_schatten_check,
    remainder_schatten_check,
    schatten_norm,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
from moikit.verify import random_hermitian, suite_rng

rng = suite_rng(11, 0)
cos = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])

a = random_hermitian(rng, 4, norm=0.9)
b = random_hermitian(rng, 4, norm=0.4)

print("cos, second-order remainder at a Hermitian pair:")
direct = taylor_remainder_direct(cos, 2, a, b)
mixed = taylor_remainder_moi(cos, 2, a, b)
line = taylor_remainder_integral(cos, 2, a, b)
scale = np.linalg.norm(direct)
print(f"  ||direct||_F                    = {scale:.6f}")
print(f"  direct vs mixed-base integral   = {np.linalg.norm(direct - mixed):.2e}")
print(f"  direct vs 32-node line integral = {np.linalg.norm(direct - line):.2e}")

# --- Schatten norms ---------------------------------------------------------
M = np.diag([3.0, 4.0])
print("\nSchatten norms of diag(3, 4):")
for p in (1.0, 2.0, np.inf):
    print(f"  p = {p:<4}: {schatten_norm(M, p):.4f}")

# --- remainder bound: the operator-integral bound on the mixed-base form ----
report = remainder_schatten_check(cos, 2, a, b, p=1.0)
check = report.checks[0]
print("\nremainder bound ||R_2(b)||_1 <= (moment_2/2!) ||b||_2^2:")
print(f"  left {check.lhs:.6f} <= right {check.rhs:.6f} -> "
      f"{'pass' if check.passed else 'FAIL'}")

# --- Hoelder-type bound for the operator integral itself --------------------
bases = [random_hermitian(rng, 4) for _ in range(3)]
middles = [random_hermitian(rng, 4) for _ in range(2)]
operands = MoiOperands.from_matrices(bases, middles)
symbol = MoiSymbol.from_function(cos, 2)
report = moi_schatten_check(symbol, operands, exponents=[2.0, 2.0])
check = report.checks[0]
print("\noperator-integral bound with slot exponents (2, 2), target p = 1:")
print(f"  left {check.lhs:.6f} <= right {check.rhs:.6f} -> "
      f"{'pass' if check.passed else 'FAIL'}")
