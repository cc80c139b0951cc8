"""Check reports: the single result currency of every verification step.

A report either passes, or carries a concrete witness for the failure.
Serialization is deterministic: fixed key order and no wall-clock field,
so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckReport:
    """One verification step: what was checked, over which degrees, whether
    it held, and the witnesses behind a failure (or supporting evidence).

    All payload values must already be JSON-ready (strings, ints, bools,
    lists, dicts); polynomial witnesses are stored rendered.
    """

    name: str
    params: dict[str, Any]
    passed: bool
    degrees_checked: list[int] = field(default_factory=list)
    witnesses: list[Any] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": self.params,
            "pass": self.passed,
            "degrees_checked": list(self.degrees_checked),
            "witnesses": self.witnesses,
            "notes": list(self.notes),
            # a pinned-format constant; it goes when a benchmark change re-pins the hashes
            "millis": 0,
        }


def dumps_report(document: dict[str, Any]) -> str:
    """Stable JSON text: insertion key order, two-space indent, trailing
    newline."""
    return json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
