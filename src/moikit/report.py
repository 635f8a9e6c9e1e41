"""Structured pass/fail records for identity and inequality checks.

Every numerical verification in the package reduces to a list of
:class:`Check` rows: the two quantities compared, the residual, the
tolerance it was held to, and the verdict.  The ``identity`` string names
the mathematical statement being exercised so a failing report is
self-explanatory.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    identity: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool


def equality_check(name: str, identity: str, residual: float, tolerance: float,
                   lhs: float = 0.0, rhs: float = 0.0) -> Check:
    """Check that two quantities agree: ``residual <= tolerance``.

    ``lhs``/``rhs`` record the magnitudes of the two sides for context.
    """
    residual = float(residual)
    return Check(name, identity, float(lhs), float(rhs), residual,
                 float(tolerance), residual <= tolerance)


def inequality_check(name: str, identity: str, lhs: float, rhs: float,
                     slack: float = 0.0) -> Check:
    """Check a one-sided bound ``lhs <= rhs`` up to rounding ``slack``."""
    lhs, rhs = float(lhs), float(rhs)
    residual = max(lhs - rhs, 0.0)
    return Check(name, identity, lhs, rhs, residual, float(slack),
                 lhs <= rhs + slack)


@dataclass
class VerificationReport:
    """A named bundle of checks; passes iff every check passes."""

    name: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            lines.append(
                f"  {verdict}  {c.name}: residual={c.residual:.3e} "
                f"tol={c.tolerance:.3e}  ({c.identity})"
            )
        return "\n".join(lines)
