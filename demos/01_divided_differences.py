#!/usr/bin/env python3
"""Divided differences: four strategies, one value.

The k-th divided difference of a scalar function is the symmetric function
of k+1 nodes built from iterated difference quotients.  This script
evaluates the same quantities by every strategy the library implements and
shows the certified bounds that control them.
"""

import numpy as np

from moikit import (
    Polynomial,
    WienerAtomic,
    builtin_function,
    divided_difference_quadrature,
    divided_difference_recursive,
    divided_difference_sup_bound,
    poly_divided_difference,
    wiener_divided_difference,
    wiener_iptp_bound,
)

# --- a cubic through two nodes -------------------------------------------
p3 = Polynomial([0, 0, 0, 1])          # x^3
nodes = [1.0, 2.0]

closed = poly_divided_difference(p3, nodes)
recursive = divided_difference_recursive(p3, nodes)
print("cubic, nodes (1, 2):")
print(f"  closed form (1 + 2 + 4)      = {closed.real:.12f}")
print(f"  difference quotient (8-1)/1  = {recursive.real:.12f}")

# --- coincident nodes: the recursion falls back to derivatives -----------
p2 = Polynomial([0, 0, 1])
diag = divided_difference_recursive(p2, [3.0, 3.0])
print("\nsquare at the doubled node (3, 3):")
print(f"  confluent recursion = {diag.real:.12f}   (the derivative 2*3 = 6)")

# --- smooth functions: simplex quadrature of the k-th derivative ---------
exp = builtin_function("exp")
val = divided_difference_quadrature(exp, [0.0, 0.0, 0.0])
print("\nexp at (0, 0, 0):")
print(f"  quadrature over the 2-simplex = {val.real:.12f}   (exp''(0)/2! = 0.5)")

# --- oscillatory sums: integrate on the frequency side ---------------------
cos = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])
val = wiener_divided_difference(cos, [0.0, np.pi])
print("\ncos at (0, pi):")
print(f"  frequency-side formula = {val.real:.12f}   (-2/pi = {-2 / np.pi:.12f})")

# --- certified bounds ------------------------------------------------------
rng = np.random.default_rng(np.random.Philox(key=0))
f = Polynomial(rng.uniform(-1, 1, 7))
k, radius = 2, 2.0
bound = divided_difference_sup_bound(f, k, radius)
worst = max(
    abs(poly_divided_difference(f, rng.uniform(-radius, radius, k + 1)))
    for _ in range(2000)
)
print(f"\nrandom degree-6 polynomial, order {k}, nodes in [-2, 2]:")
print(f"  sup|f''|/2! bound   = {bound:.6f}")
print(f"  largest |f^[2]| seen = {worst:.6f}   (never exceeds the bound)")

print(f"\ncos separated-cost bound, order 2: {wiener_iptp_bound(cos, 2):.3f}"
      "   (moment_2 / 2! = 0.5, dominates sup |cos^[2]|)")
