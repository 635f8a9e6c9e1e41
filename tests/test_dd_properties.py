"""Property tests of the divided-difference table on adversarial node sets.

Rows are clusters of up to five nodes, around 0 or anywhere in [-50, 50],
with gaps drawn from exact repeats, the coincidence tolerance and either
side of it, and log-uniform widths up to 1.  Each row must match the
50-digit recursion, and every permutation of it must give the same value
bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moikit import Polynomial, WienerAtomic, builtin_function, divided_difference_batch
from moikit.scalar_functions import COINCIDENCE_TOL_FACTOR, divided_difference_mp

FUNCTIONS = {
    "polynomial": Polynomial([0.3, -1.0, 0.5, 0.25, -0.7, 0.1, 0.9, -0.2]),
    "wiener": WienerAtomic([(1.0, 0.5), (-1.0, 0.5), (2.3, 0.2 - 0.1j)]),
    "exp": builtin_function("exp"),
    "sin": builtin_function("sin"),
    "cos": builtin_function("cos"),
}
# 10x under the 1e-9 agreement gate of the verify suite
TOLERANCE = 1e-10

gap_kind = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 2.0]).map(lambda factor: ("tolerance", factor)),
    st.floats(-9.0, 0.0).map(lambda exponent: 10.0 ** exponent),
)


@st.composite
def clustered_rows(draw):
    k = draw(st.integers(1, 4))
    center = draw(st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))
    kinds = draw(st.lists(gap_kind, min_size=k, max_size=k))
    # the tolerance scales with the row's magnitude, which the other gaps set
    widths = [g for g in kinds if not isinstance(g, tuple)]
    scale = 1.0 + abs(center) + sum(widths)
    gaps = [g[1] * COINCIDENCE_TOL_FACTOR * scale if isinstance(g, tuple) else g
            for g in kinds]
    nodes = center + np.concatenate([[0.0], np.cumsum(gaps)])
    nodes -= 0.5 * (nodes[-1] - nodes[0]) * draw(st.sampled_from([0.0, 1.0]))
    permutation = draw(st.permutations(range(k + 1)))
    return nodes, nodes[list(permutation)]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(name=st.sampled_from(sorted(FUNCTIONS)), rows=clustered_rows())
def test_table_matches_mpmath_and_ignores_node_order(name, rows):
    f = FUNCTIONS[name]
    nodes, permuted = rows
    values = divided_difference_batch(f, np.stack([nodes, permuted]))
    assert values[0] == values[1]
    assert divided_difference_batch(f, permuted[None, :])[0] == values[0]
    reference = divided_difference_mp(f, nodes)
    assert abs(values[0] - reference) <= TOLERANCE * (1.0 + abs(reference))
