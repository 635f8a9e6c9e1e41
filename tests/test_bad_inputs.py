"""Bad inputs map to the documented exceptions.

One row per raise site that the other tests do not reach, called directly
through the public entry point that owns it, plus the bad inputs of the
function-spec parser and of ``derivative``.
"""

import json
import math

import numpy as np
import pytest
from mpmath import mp

from moikit import (
    ArityMismatch,
    CallableFunction,
    DerivativeRequest,
    DimensionMismatch,
    EvaluationDomain,
    HolderMismatch,
    MoiOperands,
    MoiSymbol,
    NotHermitian,
    Polynomial,
    SpectralDecomposition,
    WienerAtomic,
    block_triangular_derivative,
    builtin_function,
    divided_difference,
    divided_difference_batch,
    divided_difference_quadrature,
    divided_difference_recursive,
    divided_difference_sup_bound,
    finite_difference_derivative,
    function_from_spec,
    functional_calculus,
    hermitian_eigendecompose,
    matrix_function_derivative,
    moi_evaluate,
    moi_opnorm_bound_check,
    moi_polynomial,
    moi_schatten_check,
    moi_separated,
    poly_divided_difference,
    power_map_derivative,
    schatten_norm,
    simplex_rule,
    wiener_taylor_truncate,
)
from moikit.cli import main
from moikit.scalar_functions import divided_difference_mp
from moikit.spectral import matrix_to_dict

COS = WienerAtomic([(1.0, 0.5), (-1.0, 0.5)])
A = np.diag([1.0, 2.0])
B = np.array([[0.0, 1.0], [1.0, 0.0]])


def operands():
    D = hermitian_eigendecompose(A)
    return MoiOperands((D, D), (B,))


SYMBOL = MoiSymbol.from_function(COS, 1)

BAD_INPUTS = {
    # frechet
    "power_map_no_directions": (ValueError, lambda: power_map_derivative(2, A, [])),
    "power_map_negative_power": (ValueError, lambda: power_map_derivative(-1, A, [B])),
    "power_map_fractional_power": (ValueError, lambda: power_map_derivative(2.5, A, [B])),
    "finite_difference_no_directions":
        (ValueError, lambda: finite_difference_derivative(COS, A, [])),
    "block_triangular_no_directions":
        (ValueError, lambda: block_triangular_derivative(COS, A, [])),
    "power_closed_form_non_polynomial": (ValueError, lambda: matrix_function_derivative(
        DerivativeRequest(COS, A, (B,), 1, "power"))),
    "schatten_slot_exponent_below_one":
        (HolderMismatch, lambda: moi_schatten_check(SYMBOL, operands(), [0.5])),
    "schatten_norm_of_a_vector": (ValueError, lambda: schatten_norm(np.ones(3), 2.0)),
    "schatten_norm_of_a_stack": (ValueError, lambda: schatten_norm(np.zeros((2, 2, 2)), 2.0)),
    # moi
    "symbol_arity_below_two": (ArityMismatch, lambda: MoiSymbol(1, lambda lam: 1.0)),
    "tensor_list_count": (ArityMismatch, lambda: SYMBOL.tensor([[1.0]])),
    "operands_count": (DimensionMismatch, lambda: MoiOperands(operands().decomps * 2, (B,))),
    "operands_middle_shape":
        (DimensionMismatch, lambda: MoiOperands(operands().decomps, (np.eye(3),))),
    "separated_term_length":
        (ArityMismatch, lambda: moi_separated([(COS,)], [1.0], operands())),
    "opnorm_zero_probes": (ValueError, lambda: moi_opnorm_bound_check(SYMBOL, operands(), 0)),
    "polynomial_negative_power": (ValueError, lambda: moi_polynomial(-2, operands())),
    "polynomial_fractional_power": (ValueError, lambda: moi_polynomial(2.5, operands())),
    # scalar_functions
    "empty_node_list": (ValueError, lambda: poly_divided_difference(Polynomial([1.0]), [])),
    "sup_bound_radius": (ValueError, lambda: divided_difference_sup_bound(COS, 1, 0.0)),
    "sup_bound_radius_nan": (ValueError, lambda: divided_difference_sup_bound(COS, 1, math.nan)),
    "sup_bound_radius_inf": (ValueError, lambda: divided_difference_sup_bound(COS, 1, math.inf)),
    "simplex_rule_negative_order": (ValueError, lambda: simplex_rule(-1)),
    "truncation_degree": (ValueError, lambda: wiener_taylor_truncate(COS, -1)),
    "unknown_builtin": (ValueError, lambda: builtin_function("tan")),
    # finite inputs whose first derivative overflows, read at a repeated node
    "polynomial_derivative_overflow": (EvaluationDomain, lambda: divided_difference(
        Polynomial([0.0, 0.0, 1.5e308]), [0.5, 0.5])),
    "wiener_derivative_overflow": (EvaluationDomain, lambda: divided_difference(
        WienerAtomic([(1e300, 1e10)]), [0.5, 0.5])),
    # spectral
    "non_square_matrix": (NotHermitian, lambda: hermitian_eigendecompose(np.ones((2, 3)))),
    "decomposition_source_shape": (ValueError, lambda: SpectralDecomposition(
        np.array([[1.0]]), [1.0, 1.0], np.eye(2))),
}


@pytest.mark.parametrize("site", sorted(BAD_INPUTS))
def test_bad_input_raises_its_exception(site):
    exception, call = BAD_INPUTS[site]
    with pytest.raises(exception):
        call()


# every divided-difference entry point that takes nodes from its caller
NODE_ENTRY_POINTS = {
    "closed_form": lambda nodes: poly_divided_difference(Polynomial([0, 0, 1]), nodes),
    "recursion": lambda nodes: divided_difference_recursive(builtin_function("cos"), nodes),
    "quadrature": lambda nodes: divided_difference_quadrature(builtin_function("cos"), nodes),
    "mpmath": lambda nodes: divided_difference_mp(builtin_function("cos"), nodes),
    "table": lambda nodes: divided_difference(builtin_function("cos"), nodes),
    "batch": lambda nodes: divided_difference_batch(builtin_function("cos"), [nodes]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(NODE_ENTRY_POINTS))
def test_non_finite_node_is_a_value_error(entry, bad):
    # the first node that is not finite is named, not blamed on the function
    with pytest.raises(ValueError, match=f"node {bad!r} is not finite"):
        NODE_ENTRY_POINTS[entry]([1.0, bad, -bad])


@pytest.mark.parametrize("f", [builtin_function("cos"), Polynomial([1.0, 2.0, 3.0]),
                               WienerAtomic([(0.0, 1.0), (1.0, 2.0)])],
                         ids=["callable", "polynomial", "wiener"])
def test_negative_derivative_order_is_a_value_error(f):
    with pytest.raises(ValueError, match="nonnegative"):
        f.derivative(-1)
    x = np.array([-0.5, 0.0, 0.7])
    np.testing.assert_array_equal(f.derivative(0)(x), f(x))


@pytest.mark.parametrize("spec, key", [
    ({"kind": "polynomial"}, "coeffs"),
    ({"kind": "wiener"}, "atoms"),
    ({"kind": "builtin"}, "name"),
    ({"kind": "builtin", "name": "abs_pow"}, "exponent"),
    ({"kind": "builtin", "name": "exp", "params": {"exponent": 2}}, "exponent"),
    ({"kind": "builtin", "name": "cos", "params": {"max_ordr": 3}}, "max_ordr"),
    ({"kind": "builtin", "name": "exp", "params": {"max_order": -1}}, "max_order"),
    ({"kind": "builtin", "name": "sin", "params": {"max_order": 2.7}}, "max_order"),
    ({"kind": "builtin", "name": "cos", "params": {"max_order": True}}, "max_order"),
])
def test_spec_errors_name_the_key(spec, key):
    with pytest.raises(ValueError, match=key):
        function_from_spec(spec)


def test_list_middle_evaluates_as_its_array():
    D = hermitian_eigendecompose(A)
    listed = MoiOperands((D, D), ([[1, 0], [0, 1]],))
    np.testing.assert_array_equal(moi_evaluate(SYMBOL, listed),
                                  moi_evaluate(SYMBOL, MoiOperands((D, D), (np.eye(2),))))


def test_tail_bound_ignores_the_callers_precision():
    trunc = wiener_taylor_truncate(COS, 6)
    bound = trunc.tail_bound(1.0)
    with mp.workdps(3):
        assert trunc.tail_bound(1.0) == bound
    # sum_{m > 6} 1/m! = e - sum_{m <= 6} 1/m!
    assert bound == pytest.approx(math.e - sum(1 / math.factorial(m) for m in range(7)),
                                  rel=1e-12)


class TestPointwiseFallback:
    # a scalar-only callable fails on the array of eigenvalues and is
    # evaluated point by point
    def test_scalar_callable_matches_the_builtin(self):
        D = hermitian_eigendecompose(np.array([[1.0, 0.5], [0.5, -2.0]]))
        np.testing.assert_allclose(functional_calculus(CallableFunction(math.cos), D),
                                   functional_calculus(builtin_function("cos"), D),
                                   rtol=0, atol=1e-15)

    def test_failing_point_is_named(self):
        D = hermitian_eigendecompose(np.diag([-1.0, 2.0]))
        with pytest.raises(EvaluationDomain, match=r"-1\.0"):
            functional_calculus(CallableFunction(lambda x: math.log(x)), D)


def test_report_goes_to_stdout_without_out(tmp_path, capsys):
    fn = tmp_path / "square.json"
    fn.write_text(json.dumps({"kind": "polynomial", "coeffs": [[0, 0], [0, 0], [1, 0]]}))
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps(matrix_to_dict(A.astype(complex))))
    assert main(["eval", "--function", str(fn), "--matrix", str(mat)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "moikit" and report["overall_pass"]


def test_spec_without_a_key_exits_3(tmp_path):
    fn = tmp_path / "poly.json"
    fn.write_text(json.dumps({"kind": "polynomial"}))
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps(matrix_to_dict(A.astype(complex))))
    assert main(["eval", "--function", str(fn), "--matrix", str(mat)]) == 3
