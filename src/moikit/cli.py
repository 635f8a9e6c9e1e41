"""Command-line front end.

Subcommands: ``eval`` (apply a function to a matrix), ``derivative``,
``remainder`` and ``verify`` (the seeded identity suites).  Inputs are
JSON files (matrix and function-spec formats from the core modules);
reports are JSON with a stable key order, with timings kept outside the
deterministic body.

Exit codes: 0 success, 1 failed checks, 2 violated preconditions
(e.g. non-Hermitian input), 3 unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DimensionMismatch, MoikitError, NotHermitian
from .frechet import (
    DerivativeRequest,
    finite_difference_derivative,
    matrix_function_derivative,
    remainder_schatten_check,
    taylor_remainder_direct,
    taylor_remainder_integral,
    taylor_remainder_moi,
)
from .report import Check, equality_check
from .scalar_functions import WienerAtomic, load_function
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

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "function": self.function,
            "matrices": list(self.matrices),
            "order": self.order,
            "strategy": self.strategy,
            "check": self.check,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "seed": self.seed,
            "out": self.out,
            "filter": self.filter,
        }


@dataclass
class ReportDocument:
    """Run report: config echo, check rows, and (non-deterministic) timings."""

    config: RunConfig
    checks: list[Check] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def body_dict(self) -> dict:
        """Everything that must be byte-identical across reruns."""
        return {
            "tool": "moikit",
            "version": __version__,
            "config": self.config.to_dict(),
            "overall_pass": self.overall_pass,
            "checks": [c.to_dict() for c in self.checks],
        }

    def body_json(self) -> str:
        return json.dumps(self.body_dict(), indent=2)

    def to_json(self) -> str:
        doc = self.body_dict()
        doc["timings_seconds"] = self.timings
        return json.dumps(doc, indent=2)


def _write_report(doc: ReportDocument, path: str | None) -> None:
    text = doc.to_json() + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        body_path = path + ".body"
        with open(body_path, "w") as fh:
            fh.write(doc.body_json() + "\n")
    else:
        sys.stdout.write(text)


def _parse_tolerance(items) -> dict:
    tols = {}
    for item in items or []:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tolerance expects name=value, got {item!r}")
        if name not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown tolerance {name!r}; "
                             f"known: {', '.join(sorted(DEFAULT_TOLERANCES))}")
        tols[name] = float(value)
    return tols


def _build_config(args) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)

    def pick(flag, key, default):
        value = getattr(args, flag, None)
        return value if value is not None else data.get(key, default)

    cfg = RunConfig(
        command=args.command,
        function=pick("function", "function", None),
        matrices=list(getattr(args, "matrix", None) or data.get("matrices", [])),
        order=int(pick("order", "order", 1)),
        strategy=pick("strategy", "strategy", "moi"),
        check=bool(getattr(args, "check", False) or data.get("check", False)),
        tolerances={**data.get("tolerances", {}),
                    **_parse_tolerance(getattr(args, "tolerance", None))},
        seed=int(pick("seed", "seed", 42)),
        out=pick("out", "out", None),
        filter=pick("filter", "filter", None),
    )
    if cfg.filter and not any(cfg.filter in name for name in SUITES):
        raise ValueError(f"--filter {cfg.filter!r} matches no suite; "
                         f"suites: {', '.join(SUITES)}")
    if cfg.command in ("derivative", "remainder") and cfg.order < 1:
        raise ValueError(f"{cfg.command} requires order >= 1, got {cfg.order}")
    for path in ([cfg.function] if cfg.function else []) + cfg.matrices:
        if not os.path.exists(path):
            raise FileNotFoundError(f"input file not found: {path}")
    return cfg


_STRATEGY_ALIASES = {"moi": "moi", "fd": "finite_difference",
                     "finite_difference": "finite_difference",
                     "power": "power_closed_form",
                     "power_closed_form": "power_closed_form"}


def cmd_eval(cfg: RunConfig) -> int:
    f = load_function(cfg.function)
    A = load_matrix(cfg.matrices[0])
    t0 = time.perf_counter()
    decomp = hermitian_eigendecompose(A)
    value = functional_calculus(f, decomp)
    elapsed = time.perf_counter() - t0
    doc = ReportDocument(cfg, timings={"eval": elapsed})
    doc.checks.extend(validate_decomposition(decomp).checks)
    if cfg.out:
        save_matrix(cfg.out, value)
        _write_report(doc, cfg.out + ".report.json")
    else:
        _write_report(doc, None)
    return EXIT_OK if doc.overall_pass else EXIT_CHECK_FAILED


def cmd_derivative(cfg: RunConfig) -> int:
    f = load_function(cfg.function)
    matrices = [load_matrix(p) for p in cfg.matrices]
    if len(matrices) != cfg.order + 1:
        raise DimensionMismatch(
            f"derivative of order {cfg.order} needs 1 base + {cfg.order} "
            f"direction matrices, got {len(matrices)}")
    base, dirs = matrices[0], tuple(matrices[1:])
    strategy = _STRATEGY_ALIASES[cfg.strategy]
    t0 = time.perf_counter()
    request = DerivativeRequest(f, base, dirs, cfg.order, strategy)
    value = matrix_function_derivative(request)
    timings = {"derivative": time.perf_counter() - t0}
    doc = ReportDocument(cfg, timings=timings)
    if cfg.check:
        t0 = time.perf_counter()
        oracle = finite_difference_derivative(f, base, dirs)
        timings["oracle"] = time.perf_counter() - t0
        tol = cfg.tolerances.get("derivative_fd", DEFAULT_TOLERANCES["derivative_fd"])
        # scaled residual: stays absolute when the exact derivative vanishes
        rel = float(np.linalg.norm(value - oracle) / (1.0 + np.linalg.norm(value)))
        doc.checks.append(equality_check(
            "derivative vs stencil oracle",
            "requested strategy agrees with tensor central differences",
            residual=rel, tolerance=tol))
    if cfg.out:
        save_matrix(cfg.out, value)
        _write_report(doc, cfg.out + ".report.json")
    else:
        _write_report(doc, None)
    return EXIT_OK if doc.overall_pass else EXIT_CHECK_FAILED


def cmd_remainder(cfg: RunConfig) -> int:
    f = load_function(cfg.function)
    a = load_matrix(cfg.matrices[0])
    b = load_matrix(cfg.matrices[1])
    k = cfg.order
    tols = {**DEFAULT_TOLERANCES, **cfg.tolerances}
    t0 = time.perf_counter()
    direct = taylor_remainder_direct(f, k, a, b)
    via_moi = taylor_remainder_moi(f, k, a, b)
    via_int = taylor_remainder_integral(f, k, a, b, steps=32)
    timings = {"remainder": time.perf_counter() - t0}
    scale = 1.0 + float(np.linalg.norm(direct))
    doc = ReportDocument(cfg, timings=timings)
    doc.checks.append(equality_check(
        "direct vs mixed-base integral",
        "remainder as an integral with the first slot at the shifted point",
        residual=float(np.linalg.norm(direct - via_moi)) / scale,
        tolerance=tols["remainder_moi"]))
    doc.checks.append(equality_check(
        "direct vs line-integral form",
        "remainder as the weighted line integral of the k-th derivative",
        residual=float(np.linalg.norm(direct - via_int)) / scale,
        tolerance=tols["remainder_integral"]))
    if isinstance(f, WienerAtomic):
        doc.checks.extend(remainder_schatten_check(f, k, a, b, p=1.0).checks)
    if cfg.out:
        save_matrix(cfg.out, direct)
        _write_report(doc, cfg.out + ".report.json")
    else:
        _write_report(doc, None)
    return EXIT_OK if doc.overall_pass else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig) -> int:
    timings = {}
    doc = ReportDocument(cfg, timings=timings)
    t_total = time.perf_counter()
    for report in _run_suites(cfg, timings):
        doc.checks.extend(report.checks)
    timings["total"] = time.perf_counter() - t_total
    _write_report(doc, cfg.out)
    logger.info("verify: %d checks, overall pass = %s", len(doc.checks),
                doc.overall_pass)
    return EXIT_OK if doc.overall_pass else EXIT_CHECK_FAILED


def _run_suites(cfg: RunConfig, timings: dict):
    for name, suite in SUITES.items():
        if cfg.filter and cfg.filter not in name:
            continue
        t0 = time.perf_counter()
        report = suite(cfg.seed, tolerances=cfg.tolerances or None)
        timings[name] = time.perf_counter() - t0
        yield report


_COMMANDS = {
    "eval": cmd_eval,
    "derivative": cmd_derivative,
    "remainder": cmd_remainder,
    "verify": cmd_verify,
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its entries")
    sub.add_argument("--function", help="function-spec JSON path")
    sub.add_argument("--matrix", action="append", help="matrix JSON path (repeatable)")
    sub.add_argument("--order", type=int, help="derivative/remainder order k")
    sub.add_argument("--strategy", choices=sorted(_STRATEGY_ALIASES),
                     help="derivative strategy")
    sub.add_argument("--check", action="store_true",
                     help="also run the stencil oracle and record the residual")
    sub.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                     help="override a named tolerance (repeatable)")
    sub.add_argument("--seed", type=int, help="seed for all randomized suites")
    sub.add_argument("--out", help="output path (matrix or report)")
    sub.add_argument("--filter", help="run only suites whose name contains this")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moikit",
        description="matrix functions, divided differences, operator integrals")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_common(subparsers.add_parser(name))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=_LOG_LEVELS.get(os.environ.get("MOIKIT_LOG", "warn"), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        logger.error("cannot load configuration: %s", exc)
        return EXIT_PARSE
    try:
        inputs_needed = {"eval": 1, "derivative": None, "remainder": 2}
        if cfg.command in ("eval", "derivative", "remainder"):
            if cfg.function is None or not cfg.matrices:
                logger.error("%s requires --function and --matrix", cfg.command)
                return EXIT_PARSE
            need = inputs_needed[cfg.command]
            if need is not None and len(cfg.matrices) < need:
                logger.error("%s requires %d matrices", cfg.command, need)
                return EXIT_PARSE
        return _COMMANDS[cfg.command](cfg)
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        logger.error("cannot parse inputs: %s", exc)
        return EXIT_PARSE
    except NotHermitian as exc:
        logger.error("precondition violated: %s", exc)
        return EXIT_PRECONDITION
    except MoikitError as exc:
        logger.error("precondition violated: %s", exc)
        return EXIT_PRECONDITION


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
