"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps moikit's public entry points from outside the package:
each wrapped function is replaced at every module attribute that holds it,
because callers resolve them by module global (``hermitian_eigendecompose``
is imported by name into ``moi``, ``frechet``, ``verify`` and ``cli``; the
divided-difference routes are looked up as ``scalar_functions`` globals;
the verify suites are read from the ``SUITES`` dict).  Spans stay in memory
as ``[name, start, end, parent, request, note]`` lists and are written out
once the run ends.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# divided-difference spans; a route span maps to the strategy it implements
ROUTES = {
    "scalar_functions.poly_divided_difference": "closed_form",
    "scalar_functions.divided_difference_recursive": "recursion",
    "scalar_functions.wiener_divided_difference": "wiener_quadrature",
    "scalar_functions.divided_difference_quadrature": "quadrature",
}
DD_SPANS = {"scalar_functions.divided_difference", *ROUTES}
REMAINDER_SPANS = {"frechet.taylor_remainder_direct", "frechet.taylor_remainder_moi",
                   "frechet.taylor_remainder_integral"}

# which end-to-end metric each per-layer metric should move, on which workload
LAYER_MAP = {
    "spectral.jacobi_calls, spectral.jacobi_s, spectral.eig_calls, spectral.eig_self_s, "
    "spectral.funcalc_s":
        "spectral wall_s and p90_ms; derivative k1_s (n=64 cell); verify wall_s",
    "spectral.eig_repeat_ratio": "verify wall_s (remainder forms and Schatten checks "
                                 "re-decompose a and a+b)",
    "spectral.clusters_per_n": "diagnostic: sets moi.tuples; should not move",
    "scalar_functions.dd_calls, scalar_functions.dd_s, scalar_functions.route.*, "
    "scalar_functions.wiener_quadrature_s":
        "derivative k2_s, k3_s and wall_s; zero on spectral",
    "moi.evaluate_calls, moi.evaluate_self_s, moi.tuples, moi.dd_per_tuple":
        "derivative k2_s and k3_s; verify wall_s (perturbation and norm-bound suites)",
    "frechet.derivative_self_s, frechet.perm_evals": "derivative k3_s",
    "frechet.fd_calls, frechet.fd_s, frechet.fd_extended_calls, frechet.schatten_calls, "
    "frechet.schatten_s, frechet.remainder_s": "spectral p90_ms; verify wall_s",
    "verify.<suite>_s, verify.checks, verify.checks_failed": "verify wall_s and failed_ratio",
    "cli.overhead_s": "verify wall_s; expected negligible",
    "trace.overhead_s, trace.spans": "diagnostic: cost of the traced run",
}


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _note_decomposition(args, kwargs, result):
    a = np.ascontiguousarray(_argument(args, kwargs, 0, "A"))
    digest = hashlib.blake2b(a.tobytes(), digest_size=16)
    digest.update(repr((a.shape, a.dtype.str)).encode())
    return digest.digest(), len(result.clusters) / result.dimension


def _note_tuples(args, kwargs, result):
    operands = _argument(args, kwargs, 1, "operands")
    return math.prod(len(d.clusters) for d in operands.decomps)


def _note_extended(args, kwargs, result):
    extended = _argument(args, kwargs, 5, "extended")
    if extended is None:
        return len(_argument(args, kwargs, 2, "directions")) >= 3
    return bool(extended)


def _note_checks(args, kwargs, result):
    return len(result.checks), sum(not c.passed for c in result.checks)


# (span name, defining module, attribute, note taken from args and result)
TARGETS = (
    ("spectral.jacobi_eigh", "spectral", "jacobi_eigh", None),
    ("spectral.hermitian_eigendecompose", "spectral", "hermitian_eigendecompose",
     _note_decomposition),
    ("spectral.functional_calculus", "spectral", "functional_calculus", None),
    ("scalar_functions.divided_difference", "scalar_functions", "divided_difference", None),
    *((name, "scalar_functions", name.split(".")[1], None) for name in ROUTES),
    ("moi.moi_evaluate", "moi", "moi_evaluate", _note_tuples),
    ("frechet.matrix_function_derivative", "frechet", "matrix_function_derivative", None),
    ("frechet.finite_difference_derivative", "frechet", "finite_difference_derivative",
     _note_extended),
    ("frechet.schatten_norm", "frechet", "schatten_norm", None),
    *((name, "frechet", name.split(".")[1], None) for name in sorted(REMAINDER_SPANS)),
    ("cli.main", "cli", "main", None),
)


class SpanRecorder:
    """Spans of one traced run; ``request`` tags the spans of the current request."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for name, start, end, parent, request, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, request],
                                    separators=(",", ":")) + "\n")


@contextmanager
def traced(recorder: SpanRecorder):
    """Install the recorder's wrappers into moikit, restoring the originals on exit."""
    import moikit
    from moikit import cli, frechet, moi, scalar_functions, spectral, verify

    modules = {"spectral": spectral, "scalar_functions": scalar_functions, "moi": moi,
               "frechet": frechet, "verify": verify, "cli": cli}
    namespaces = [vars(m) for m in (moikit, *modules.values())] + [verify.SUITES]
    targets = [(name, vars(modules[home])[attr], note)
               for name, home, attr, note in TARGETS]
    targets += [(f"verify.{suite}", fn, _note_checks) for suite, fn in verify.SUITES.items()]

    saved = []
    try:
        for name, original, note in targets:
            wrapper = recorder.wrap(name, original, note)
            for ns in namespaces:
                for key in [k for k, v in ns.items() if v is original]:
                    saved.append((ns, key, original))
                    ns[key] = wrapper
        yield recorder
    finally:
        for ns, key, original in reversed(saved):
            ns[key] = original


def layer_metrics(spans, suites) -> dict:
    """Per-layer counts and times, as ``{name: (value, unit)}``.

    A span's self time is its duration minus that of its direct children.
    ``suites`` names the verify suites, so every suite gets a metric even
    when the workload never runs it.
    """
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            child[s[3]] += duration[i]

    def parent_name(i):
        return names[spans[i][3]] if spans[i][3] >= 0 else None

    def select(name):
        return by_name.get(name, [])

    def total(idx):
        return float(sum(duration[i] for i in idx))

    def self_time(idx):
        return float(sum(duration[i] - child[i] for i in idx))

    jacobi = select("spectral.jacobi_eigh")
    eig = select("spectral.hermitian_eigendecompose")
    seen, repeats = set(), 0
    for i in eig:
        digest = spans[i][5][0]
        repeats += digest in seen
        seen.add(digest)
    dd_outer = [i for i, n in enumerate(names)
                if n in DD_SPANS and parent_name(i) not in DD_SPANS]
    moi_calls = select("moi.moi_evaluate")
    tuples = sum(spans[i][5] for i in moi_calls)
    dd_in_moi = sum(parent_name(i) == "moi.moi_evaluate" for i in dd_outer)
    derivative = select("frechet.matrix_function_derivative")
    perms = sum(parent_name(i) == "frechet.matrix_function_derivative" for i in moi_calls)
    fd = select("frechet.finite_difference_derivative")
    schatten = select("frechet.schatten_norm")
    remainder = [i for i, n in enumerate(names)
                 if n in REMAINDER_SPANS and parent_name(i) not in REMAINDER_SPANS]
    suite_spans = [i for i, n in enumerate(names) if n.startswith("verify.")]

    out = {
        "spectral.jacobi_calls": (len(jacobi), "count"),
        "spectral.jacobi_s": (total(jacobi), "s"),
        "spectral.eig_calls": (len(eig), "count"),
        "spectral.eig_self_s": (self_time(eig), "s"),
        "spectral.funcalc_s": (total(select("spectral.functional_calculus")), "s"),
        "spectral.eig_repeat_ratio": (repeats / len(eig) if eig else 0.0, "ratio"),
        "spectral.clusters_per_n": (
            float(np.mean([spans[i][5][1] for i in eig])) if eig else 0.0, "ratio"),
        "scalar_functions.dd_calls": (len(dd_outer), "count"),
        "scalar_functions.dd_s": (total(dd_outer), "s"),
    }
    for span, route in ROUTES.items():
        out[f"scalar_functions.route.{route}"] = (len(select(span)), "count")
    out["scalar_functions.wiener_quadrature_s"] = (
        total(select("scalar_functions.wiener_divided_difference")), "s")
    out.update({
        "moi.evaluate_calls": (len(moi_calls), "count"),
        "moi.evaluate_self_s": (self_time(moi_calls), "s"),
        "moi.tuples": (tuples, "count"),
        "moi.dd_per_tuple": (dd_in_moi / tuples if tuples else 0.0, "ratio"),
        "frechet.derivative_self_s": (self_time(derivative), "s"),
        "frechet.perm_evals": (perms / len(derivative) if derivative else 0.0, "count"),
        "frechet.fd_calls": (len(fd), "count"),
        "frechet.fd_s": (total(fd), "s"),
        "frechet.fd_extended_calls": (sum(bool(spans[i][5]) for i in fd), "count"),
        "frechet.schatten_calls": (len(schatten), "count"),
        "frechet.schatten_s": (total(schatten), "s"),
        "frechet.remainder_s": (total(remainder), "s"),
    })
    for suite in suites:
        out[f"verify.{suite}_s"] = (total(select(f"verify.{suite}")), "s")
    out["verify.checks"] = (sum(spans[i][5][0] for i in suite_spans), "count")
    out["verify.checks_failed"] = (sum(spans[i][5][1] for i in suite_spans), "count")
    out["cli.overhead_s"] = (self_time(select("cli.main")), "s")
    out["trace.spans"] = (len(spans), "count")
    return out
