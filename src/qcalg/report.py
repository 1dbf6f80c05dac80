"""Deterministic report documents with a stable, versioned JSON layout.

Identical inputs and flags produce byte-identical JSON: keys are sorted,
insertion orders are canonical, and every number is exact (integers, or
num/den strings for scalars).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import __version__

SCHEMA = "qcalg-report/1"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReportDocument:
    schema: str
    tool: dict
    input: dict
    options: dict
    results: dict

    @classmethod
    def build(cls, input_name: str, input_kind: str, input_text: str,
              options: dict, results: dict) -> "ReportDocument":
        return cls(
            schema=SCHEMA,
            tool={"name": "qcalg", "version": __version__},
            input={"name": input_name, "kind": input_kind,
                   "sha256": sha256_text(input_text)},
            options=options,
            results=results,
        )

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "tool": self.tool,
            "input": self.input,
            "options": self.options,
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
