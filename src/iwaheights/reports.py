"""Check reports: machine- and human-readable, deterministic, witness-carrying.

Every verdict line carries the algebraic law it checked (the anchor) and
enough witness data to re-verify the claim by hand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckRecord:
    name: str
    anchor: str
    ok: bool
    witness: Any = None


@dataclass
class Report:
    title: str
    checks: list[CheckRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, anchor: str, ok: bool, witness: Any = None) -> None:
        self.checks.append(CheckRecord(name, anchor, bool(ok), witness))

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_ok else 1

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "meta": self.meta,
            "all_ok": self.all_ok,
            "checks": [
                {
                    "name": c.name,
                    "anchor": c.anchor,
                    "verdict": "pass" if c.ok else "fail",
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        for key in sorted(self.meta):
            lines.append(f"   {key}: {self.meta[key]}")
        for c in self.checks:
            tag = "PASS" if c.ok else "FAIL"
            line = f"[{tag}] {c.name} | {c.anchor}"
            if c.witness is not None:
                line += f" | {json.dumps(c.witness, sort_keys=True)}"
            lines.append(line)
        verdict = "all checks passed" if self.all_ok else "FAILURES PRESENT"
        lines.append(f"-- {verdict} ({len(self.checks)} checks)")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_text()
