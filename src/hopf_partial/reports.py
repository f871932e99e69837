"""Uniform pass/fail reports for axiom checkers.

Checkers never raise on a mathematical failure; they return a report whose
checks carry a witness (usually a tuple of basis indices) locating the
first violated identity.  Structural problems (wrong array shapes) raise
ShapeError instead.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: object = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = list(self.witness) if isinstance(self.witness, tuple) \
                else self.witness
        return out


@dataclass
class ValidationReport:
    subject: str
    checks: list = field(default_factory=list)

    def record(self, name, passed, witness=None):
        self.checks.append(Check(name, bool(passed), witness))

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def check_named(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {"subject": self.subject,
                "ok": self.ok,
                "checks": [c.to_json() for c in self.checks]}

    def __str__(self):
        lines = [f"[{self.subject}]"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = f"  witness={c.witness}" if (not c.passed and c.witness is not None) else ""
            lines.append(f"  {mark} {c.name}{extra}")
        return "\n".join(lines)


class ValidationError(ValueError):
    """Raised when a constructor refuses invalid algebraic input."""

    def __init__(self, report_or_msg):
        self.report = report_or_msg if isinstance(report_or_msg, ValidationReport) else None
        msg = str(report_or_msg)
        if self.report is not None:
            bad = ", ".join(c.name for c in self.report.failures())
            msg = f"{self.report.subject}: failed checks: {bad}"
        super().__init__(msg)


def require(cond, msg):
    """Raise ValidationError(msg) unless cond holds."""
    if not cond:
        raise ValidationError(msg)
