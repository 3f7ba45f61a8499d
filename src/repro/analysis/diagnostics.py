"""The diagnostic model: what a lint finding *is*.

A :class:`Diagnostic` pins a rule code (``TL0xx``, see
:mod:`repro.analysis.rules`) to a source region with a severity, an
explanatory message, and an optional *fix-it* -- replacement source text
that, substituted for the flagged region, resolves the finding.  The
renderers (:mod:`repro.analysis.render`) know nothing about how findings
were produced; everything they need lives here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..lang.ast import SYNTHETIC_SPAN, Span


@dataclass(frozen=True)
class FlowStep:
    """One hop of a source-to-sink flow path.

    ``kind`` is one of ``source`` (where the secret enters), ``flow`` (a
    value assignment that propagates it), ``branch`` (a guard that turns
    it into control flow), ``timing`` (a command whose duration it
    influences), or ``sink`` (the flagged command).
    """

    kind: str
    message: str
    span: Span = SYNTHETIC_SPAN
    node_id: Optional[int] = None

    def as_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "message": self.message,
            "span": {
                "line": self.span.line,
                "column": self.span.column,
                "end_line": self.span.end_line,
                "end_column": self.span.end_column,
            },
        }
        if self.node_id is not None:
            doc["node_id"] = self.node_id
        return doc


#: A full source-to-sink derivation: source first, sink last.
FlowPath = Tuple[FlowStep, ...]


class Severity(enum.Enum):
    """How bad a finding is.  Order matters: errors sort first."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` for this severity."""
        return {"error": "error", "warning": "warning", "info": "note"}[
            self.value
        ]

    @property
    def rank(self) -> int:
        return ("error", "warning", "info").index(self.value)

    def __str__(self) -> str:
        return self.value


def location_of(diag: dict) -> str:
    """``path:line:col`` of a diagnostic's JSON form (parts omitted when
    unknown)."""
    where = diag.get("path") or "<program>"
    span = diag["span"]
    if span["line"]:
        where += f":{span['line']}:{span['column']}"
    elif "node_id" in diag:
        where += f":node#{diag['node_id']}"
    return where


@dataclass
class Diagnostic:
    """One lint finding, anchored to a source span."""

    code: str
    message: str
    severity: Severity
    span: Span = SYNTHETIC_SPAN
    node_id: Optional[int] = None
    path: Optional[str] = None
    #: Replacement source for the flagged region that resolves the finding.
    fix: Optional[str] = None
    rule: Optional[str] = field(default=None)
    #: Source-to-sink derivation (``repro lint --explain``), when computed.
    flow: Optional[FlowPath] = field(default=None)

    def sort_key(self) -> Tuple:
        return (
            self.path or "",
            self.span.line,
            self.span.column,
            self.severity.rank,
            self.code,
        )

    def location(self) -> str:
        """``path:line:col`` (parts omitted when unknown)."""
        return location_of(self.as_dict())

    def as_dict(self) -> dict:
        doc = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "span": {
                "line": self.span.line,
                "column": self.span.column,
                "end_line": self.span.end_line,
                "end_column": self.span.end_column,
            },
        }
        if self.rule:
            doc["rule"] = self.rule
        if self.path is not None:
            doc["path"] = self.path
        if self.node_id is not None:
            doc["node_id"] = self.node_id
        if self.fix is not None:
            doc["fix"] = self.fix
        if self.flow:
            doc["flow"] = [step.as_dict() for step in self.flow]
        return doc
