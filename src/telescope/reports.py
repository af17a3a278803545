"""Structured check reports; certificates embed them as-is.

A report is never a bare boolean: it carries the check name, the
parameters the check ran with, and a witness list backing the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    name: str
    parameters: dict
    passed: bool
    witnesses: list = field(default_factory=list)

    @property
    def status(self):
        return "pass" if self.passed else "fail"

    def as_dict(self):
        return {
            "name": self.name,
            "parameters": self.parameters,
            "status": self.status,
            "witnesses": self.witnesses,
        }
