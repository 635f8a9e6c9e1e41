"""Command-line front end.

Subcommands: ``eval`` (apply a function to a matrix), ``derivative``,
``remainder`` and ``verify`` (the seeded identity suites).  ``SETTINGS``
names the settings each subcommand reads; they come from its flags and from
a ``--config`` JSON object keyed by the setting names, the flags winning
(tolerances per name), and each is checked after that merge, so a bad one
exits 3 whichever source it came from.  Inputs are JSON files (matrix and
function-spec formats from the core modules).  Each subcommand returns its
check rows, timings and result matrix, and :func:`_finish` writes every
report: JSON with a stable key order, timings outside the deterministic body.

Exit codes: 0 success, 1 failed checks, 2 violated preconditions
(e.g. non-Hermitian input), 3 unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import DimensionMismatch, EvaluationDomain, MoikitError
from .frechet import (
    STRATEGIES,
    DerivativeRequest,
    block_triangular_derivative,
    finite_difference_derivative,
    matrix_function_derivative,
    remainder_schatten_check,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
from .report import equality_check
from .scalar_functions import WienerAtomic, _matrix_form, load_function
from .spectral import (
    functional_calculus,
    hermitian_eigendecompose,
    load_matrix,
    save_matrix,
    validate_decomposition,
)
from .verify import DEFAULT_TOLERANCES, SUITES

logger = logging.getLogger("moikit")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3


@dataclass
class RunConfig:
    command: str
    function: str | None = None
    matrices: list[str] = field(default_factory=list)
    order: int = 1
    strategy: str = "moi"
    check: bool = False
    tolerances: dict = field(default_factory=dict)
    seed: int = 42
    out: str | None = None
    filter: str | None = None


def _finish(cfg: RunConfig, checks, timings, value=None) -> int:
    """Write the result matrix ``value`` to the ``out`` setting and the report
    beside it (or the report alone to ``out``), or the report to stdout when
    ``out`` is unset; return the exit code."""
    passed = all(c.passed for c in checks)
    body = {
        "tool": "moikit",
        "version": __version__,
        "config": asdict(cfg),
        "overall_pass": passed,
        "checks": [asdict(c) for c in checks],
    }
    text = json.dumps({**body, "timings_seconds": timings}, indent=2) + "\n"
    path = cfg.out
    if not path:
        sys.stdout.write(text)
    else:
        if value is not None:
            save_matrix(path, value)
            path += ".report.json"
        with open(path, "w") as fh:
            fh.write(text)
        with open(path + ".body", "w") as fh:
            fh.write(json.dumps(body, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# the settings each subcommand reads: its flags, and the keys its --config may hold
SETTINGS = {
    "eval": ("function", "matrices", "out"),
    "derivative": ("function", "matrices", "order", "strategy", "check", "tolerances", "out"),
    "remainder": ("function", "matrices", "order", "tolerances", "out"),
    "verify": ("seed", "tolerances", "out", "filter"),
}

# the flag of each setting, with its argparse keywords; values stay text until checked
_FLAGS = {
    "function": ("--function", {"help": "function-spec JSON path"}),
    "matrices": ("--matrix", {"action": "append", "help": "matrix JSON path (repeatable)"}),
    "order": ("--order", {"help": "derivative/remainder order k"}),
    "strategy": ("--strategy", {"help": "|".join(sorted(STRATEGIES))}),
    "check": ("--check", {"action": "store_const", "const": True,
                          "help": "also run an independent oracle and record the residual"}),
    "tolerances": ("--tolerance", {"action": "append", "metavar": "NAME=VALUE",
                                   "help": "override a named tolerance (repeatable)"}),
    "seed": ("--seed", {"help": "seed for all randomized suites, 0 <= seed < 2**128"}),
    "out": ("--out", {"help": "output path (matrix or report)"}),
    "filter": ("--filter", {"help": "run only suites whose name contains this"}),
}


def _integer(name, value) -> int:
    """An integer setting, from an int or its decimal text."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _build_config(args) -> RunConfig:
    """The ``--config`` file's settings overridden by the flags (tolerances per
    name), each checked the same whichever source it came from."""
    reads = SETTINGS[args.command]
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: expected a JSON object of settings")
        unread = sorted(set(data) - set(reads))
        if unread:
            raise ValueError(f"{args.config}: {args.command} does not read "
                             f"{', '.join(unread)}; it reads {', '.join(reads)}")
    if not isinstance(data.get("tolerances", {}), dict):
        raise ValueError(f"tolerances must map names to numbers, got {data['tolerances']!r}")
    flags = {name: value for name, value in vars(args).items()
             if name in reads and value is not None}
    if "tolerances" in flags:
        pairs = [item.partition("=") for item in flags["tolerances"]]
        if not all(eq for _, eq, _ in pairs):
            raise ValueError(f"--tolerance expects name=value, got {flags['tolerances']!r}")
        flags["tolerances"] = {**data.get("tolerances", {}),
                               **{name: float(value) for name, _, value in pairs}}
    cfg = RunConfig(args.command, **{**data, **flags})

    if "matrices" in reads:  # so does the function
        need = {"eval": 1, "remainder": 2}.get(cfg.command)
        if not isinstance(cfg.matrices, list) or need not in (None, len(cfg.matrices)):
            raise ValueError(f"{cfg.command} requires {need or 'a list of'} matrices, "
                             f"got {cfg.matrices!r}")
        for path in [cfg.function, *cfg.matrices]:
            if not isinstance(path, str):
                raise ValueError(f"function and matrices are file paths, got {path!r}")
            if not os.path.exists(path):
                raise FileNotFoundError(f"input file not found: {path}")
    cfg.order, cfg.seed = _integer("order", cfg.order), _integer("seed", cfg.seed)
    if not 0 <= cfg.seed < 2 ** 128:  # the Philox key range
        raise ValueError(f"seed must be in [0, 2**128), got {cfg.seed}")
    if "order" in reads and cfg.order < 1:
        raise ValueError(f"{cfg.command} requires order >= 1, got {cfg.order}")
    if not isinstance(cfg.check, bool):
        raise ValueError(f"check must be true or false, got {cfg.check!r}")
    if not isinstance(cfg.strategy, str) or cfg.strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {', '.join(sorted(STRATEGIES))}, "
                         f"got {cfg.strategy!r}")
    for name, value in cfg.tolerances.items():
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance {name!r}; "
                             f"known: {', '.join(sorted(DEFAULT_TOLERANCES))}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"tolerance {name} must be a number, got {value!r}")
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {name} must be finite and >= 0, got {value!r}")
    cfg.tolerances = {name: float(cfg.tolerances[name]) for name in sorted(cfg.tolerances)}
    if cfg.out is not None and not isinstance(cfg.out, str):
        raise ValueError(f"out must be a path, got {cfg.out!r}")
    if cfg.filter is not None and not (isinstance(cfg.filter, str)
                                       and any(cfg.filter in name for name in SUITES)):
        raise ValueError(f"filter {cfg.filter!r} matches no suite; "
                         f"suites: {', '.join(SUITES)}")
    return cfg


def cmd_eval(cfg: RunConfig):
    f = load_function(cfg.function)
    A = load_matrix(cfg.matrices[0])
    t0 = time.perf_counter()
    decomp = hermitian_eigendecompose(A)
    value = functional_calculus(f, decomp)
    timings = {"eval": time.perf_counter() - t0}
    return validate_decomposition(decomp).checks, timings, value


def _derivative_oracle(f, strategy):
    """The ``--check`` oracle, a function of ``(f, base, directions)``, with
    its row name, claim and tolerance name: the exact block-triangular
    identity where ``f`` has a matrix form (polynomials, atomic Fourier sums,
    builtin exp, cos and sin), else the tensor central-difference stencil,
    :class:`EvaluationDomain` if that is the ``strategy`` itself.  Resolving
    the matrix form imports scipy, so the oracle's timer reads the oracle alone."""
    try:
        _matrix_form(f)
    except EvaluationDomain:
        if strategy == "fd":
            raise EvaluationDomain(f"{f!r} has no matrix form, so --check has no "
                                   "oracle but the stencil the fd strategy ran") from None
        return (finite_difference_derivative, "derivative vs stencil oracle",
                "requested strategy agrees with tensor central differences",
                "derivative_fd")
    return (block_triangular_derivative, "derivative vs block-triangular oracle",
            "requested strategy agrees with the top-right blocks of f on "
            "block-bidiagonal matrices", "derivative_block")


def cmd_derivative(cfg: RunConfig):
    f = load_function(cfg.function)
    matrices = [load_matrix(p) for p in cfg.matrices]
    if len(matrices) != cfg.order + 1:
        raise DimensionMismatch(
            f"derivative of order {cfg.order} needs 1 base + {cfg.order} "
            f"direction matrices, got {len(matrices)}")
    base, dirs = matrices[0], tuple(matrices[1:])
    t0 = time.perf_counter()
    request = DerivativeRequest(f, base, dirs, cfg.order, cfg.strategy)
    value = matrix_function_derivative(request)
    timings = {"derivative": time.perf_counter() - t0}
    checks = []
    if cfg.check:
        oracle, name, claim, tol_name = _derivative_oracle(f, cfg.strategy)
        t0 = time.perf_counter()
        expected = oracle(f, base, dirs)
        timings["oracle"] = time.perf_counter() - t0
        if cfg.strategy == "fd":
            # a stencil on either side is gated at the stencil's tolerance
            tol_name = "derivative_fd"
        tol = cfg.tolerances.get(tol_name, DEFAULT_TOLERANCES[tol_name])
        # scaled residual: stays absolute when the exact derivative vanishes
        rel = float(np.linalg.norm(value - expected) / (1.0 + np.linalg.norm(value)))
        checks.append(equality_check(name, claim, residual=rel, tolerance=tol))
    return checks, timings, value


def cmd_remainder(cfg: RunConfig):
    f = load_function(cfg.function)
    a = load_matrix(cfg.matrices[0])
    b = load_matrix(cfg.matrices[1])
    k = cfg.order
    tols = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    t0 = time.perf_counter()
    direct = taylor_remainder_direct(f, k, a, b)
    via_moi = taylor_remainder_moi(f, k, a, b)
    via_int = taylor_remainder_integral(f, k, a, b)
    timings = {"remainder": time.perf_counter() - t0}
    scale = 1.0 + float(np.linalg.norm(direct))
    checks = [
        equality_check(
            "direct vs mixed-base integral",
            "remainder as an integral with the first slot at the shifted point",
            residual=float(np.linalg.norm(direct - via_moi)) / scale,
            tolerance=tols["remainder_moi"]),
        equality_check(
            "direct vs line-integral form",
            "remainder as the weighted line integral of the k-th derivative",
            residual=float(np.linalg.norm(direct - via_int)) / scale,
            tolerance=tols["remainder_integral"]),
    ]
    if isinstance(f, WienerAtomic):
        checks.extend(remainder_schatten_check(f, k, a, b, p=1.0).checks)
    return checks, timings, direct


def cmd_verify(cfg: RunConfig):
    checks, timings = [], {}
    t_total = time.perf_counter()
    for name, suite in SUITES.items():
        if cfg.filter and cfg.filter not in name:
            continue
        t0 = time.perf_counter()
        checks.extend(suite(cfg.seed, tolerances=cfg.tolerances or None).checks)
        timings[name] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total
    logger.info("verify: %d checks, overall pass = %s", len(checks),
                all(c.passed for c in checks))
    return checks, timings, None


_COMMANDS = {
    "eval": cmd_eval,
    "derivative": cmd_derivative,
    "remainder": cmd_remainder,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that they exit as bad settings."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moikit",
        description="matrix functions, divided differences, operator integrals")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, reads in SETTINGS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", help="JSON config file; flags override its entries")
        for name in reads:
            flag, keywords = _FLAGS[name]
            sub.add_argument(flag, dest=name, **keywords)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=_LOG_LEVELS.get(os.environ.get("MOIKIT_LOG", "warn"), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _build_config(build_parser().parse_args(argv))
        return _finish(cfg, *_COMMANDS[cfg.command](cfg))
    except (OSError, ValueError, KeyError) as exc:
        logger.error("cannot parse inputs: %s", exc)
        return EXIT_PARSE
    except MoikitError as exc:
        logger.error("precondition violated: %s", exc)
        return EXIT_PRECONDITION


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
