#!/usr/bin/env python3
"""Higher derivatives of matrix functions, cross-checked three ways.

The k-th derivative of ``A -> f(A)`` is a symmetrized operator integral
weighting projection sandwiches by the k-th divided difference.  For power
maps there is a closed form; for everything there is the tensor
central-difference stencil.
"""

import numpy as np

from moikit import (
    DerivativeRequest,
    Polynomial,
    WienerAtomic,
    finite_difference_derivative,
    matrix_function_derivative,
    moi_perturbation,
    power_map_derivative,
)
from moikit.verify import random_hermitian, suite_rng

rng = suite_rng(7, 0)
cos = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])


def rel(x, y):
    return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-30)


# --- first derivative of the square map ------------------------------------
A = random_hermitian(rng, 4)
B = random_hermitian(rng, 4)
via_moi = matrix_function_derivative(
    DerivativeRequest(Polynomial([0, 0, 1]), A, (B,), 1, "moi"))
print("square map, first derivative:")
print(f"  ||spectral sum - (AB + BA)|| = {np.linalg.norm(via_moi - (A @ B + B @ A)):.2e}")

# --- the three routes agree on a degree-5 polynomial, k = 2 ----------------
p = Polynomial([0.3, -1.0, 0.4, 0.0, 0.2, 1.0])
A = random_hermitian(rng, 5, norm=0.8)
dirs = tuple(random_hermitian(rng, 5, norm=1.0) for _ in range(2))

spectral = matrix_function_derivative(DerivativeRequest(p, A, dirs, 2, "moi"))
closed = matrix_function_derivative(DerivativeRequest(p, A, dirs, 2, "power"))
stencil = finite_difference_derivative(p, A, dirs)
print("\ndegree-5 polynomial, second derivative (3 strategies):")
print(f"  spectral sum vs closed form: rel = {rel(spectral, closed):.2e}")
print(f"  spectral sum vs stencil:     rel = {rel(spectral, stencil):.2e}")

# --- third derivative: the stencil runs in extended precision --------------
A = random_hermitian(rng, 4, norm=0.7)
dirs = tuple(random_hermitian(rng, 4, norm=1.0) for _ in range(3))
spectral = matrix_function_derivative(DerivativeRequest(cos, A, dirs, 3, "moi"))
stencil = finite_difference_derivative(cos, A, dirs)   # 30 digits at k >= 3
print("\ncos, third derivative:")
print(f"  spectral sum vs extended-precision stencil: rel = {rel(spectral, stencil):.2e}")

# --- power map orders beyond the exponent vanish ---------------------------
zero = power_map_derivative(2, A, list(dirs))
print(f"\nsquare map, third derivative: ||D^3|| = {np.linalg.norm(zero):.1f} (exactly zero)")

# --- the first-order perturbation identity ---------------------------------
A = random_hermitian(rng, 5)
B = random_hermitian(rng, 5)
report = moi_perturbation(cos, A, B)
check = report.checks[0]
print("\nperturbation identity f(A) - f(B) = integral of f^[1] against A - B:")
print(f"  residual {check.residual:.2e} vs tolerance {check.tolerance:.2e} -> "
      f"{'pass' if check.passed else 'FAIL'}")
