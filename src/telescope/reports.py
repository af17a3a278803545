"""Structured check reports; ``certify.emit_certificate`` lays each one out
by ``as_dict``, the one layout of a certificate's check entry.

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

    def as_dict(self):
        return {
            "name": self.name,
            "parameters": self.parameters,
            "status": "pass" if self.passed else "fail",
            "witnesses": self.witnesses,
        }
