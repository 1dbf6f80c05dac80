"""Deterministic report documents with a stable, versioned JSON layout.

Identical inputs and flags produce byte-identical JSON: keys are sorted,
insertion orders are canonical, and every number is exact (integers, or
num/den strings for scalars).

The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False)``, written in one recursive pass (``json_text``) that
escapes every string with ``json.encoder.encode_basestring``: with an
indent, ``json.dumps`` runs the standard library's pure-Python encoder
(Python 3.10 to 3.13).  Only what a report holds is written: ``str``,
``int``, ``bool`` and ``None``, in dicts (keys of those types too), lists
and tuples; any other value, a float included, raises ``TypeError``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json.encoder import encode_basestring

from . import __version__

SCHEMA = "qcalg-report/1"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _literal(value) -> str:
    """null, true, false or an int's digits, as json.dumps writes them;
    a dict key of these types is written in quotes."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write(value, indent: str, emit) -> None:
    if isinstance(value, str):
        emit(encode_basestring(value))
    elif value.__class__ is int:  # the commonest leaf, ahead of the containers
        emit(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            return emit("[]")
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = ",\n" + inner
        emit("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            return emit("{}")
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            name = encode_basestring(key) if isinstance(key, str) else f'"{_literal(key)}"'
            emit(sep + name + ": ")
            _write(value[key], inner, emit)
            sep = ",\n" + inner
        emit("\n" + indent + "}")
    else:
        emit(_literal(value))


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``
    for the values a report holds."""
    out: list[str] = []
    _write(value, "", out.append)
    return "".join(out)


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
        return json_text(self.as_dict()) + "\n"
