"""Output checks that do not trust the program.

Each op carries one of these expectations.  Expected numbers come from
the benchmark's own model of the input (see gen.py) or, for fixed
builtin inputs, from SHA-256 goldens of the ``--json`` report recorded
at the commit that introduced the benchmark.  Every report must also
validate against ``docs/report-schema.json``.  A failed check raises
CheckFailed, which the runner counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    pass


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _want(label: str, got, expected) -> None:
    if got != expected:
        raise CheckFailed(f"{label}: got {got!r}, expected {expected!r}")


class Checker:
    """Validates one op's exit code and stdout against its expectation."""

    def __init__(self, schema_path: Path, goldens_path: Path = HERE / "goldens.json"):
        import jsonschema  # the repo's test extra; the checks need it

        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.goldens = json.loads(goldens_path.read_text(encoding="utf-8"))

    def check(self, op, rc, out: str) -> None:
        _want("exit code", rc, op.rc)
        if op.golden:
            _want("report sha256", _sha(out), self.goldens.get(op.golden))
        try:
            doc = json.loads(out)
        except ValueError as exc:
            raise CheckFailed(f"stdout is not a JSON report: {exc}") from None
        errors = sorted(e.message for e in self.validator.iter_errors(doc))
        if errors:
            raise CheckFailed(f"report fails the schema: {errors[0]}")
        if op.input_text is not None:
            _want("input sha256", doc["input"]["sha256"], _sha(op.input_text))
        if op.expect is not None:
            op.expect(doc)


# -- expectations built from the benchmark's own model -------------------------

def _filtration(q) -> dict:
    counts = q.length_counts()
    return {"dims": counts, "stabilized_at": len(counts) - 1}


def analyze_quiver(q, n: int, growing: set, field: str):
    """analyze on a quiver family at bound n."""
    def expect(doc):
        r, opts = doc["results"], doc["options"]
        _want("N", opts["N"], n)
        _want("sweep", opts["sweep"], list(range(1, max(2, n) + 1)))
        _want("field", opts["field"], field)
        _want("dim", r["dim"], len(q.paths()))
        _want("basis", sorted(r["basis"]), sorted(p[0] for p in q.paths()))
        _want("filtration", r["filtration"], _filtration(q))
        _want("loewy series", r["loewy_right"], _filtration(q))
        lf = r["verdicts"][0]
        _want("first criterion", lf["criterion"], "locally_finite")
        if growing:
            _want("locally_finite", lf["verdict"], "fails")
            _want("witness pair is growing", tuple(lf["witness"]["pair"]) in growing, True)
        else:
            _want("locally_finite", lf["verdict"], "holds")
            # C0, C1 and one span per vertex, every ordered pair checked.
            oracle = r["verdicts"][-1]["witness"]["duality_oracle"]
            _want("oracle pairs", oracle["pairs_checked"], (2 + len(q.vertices)) ** 2)
    return expect


def analyze_finite(q):
    """analyze on a structure-constants file: the finite-dimensional battery."""
    def expect(doc):
        r = doc["results"]
        _want("dim", r["dim"], len(q.paths()))
        _want("filtration", r["filtration"], _filtration(q))
        _want("loewy series", r["loewy_right"], _filtration(q))
        _want("verdicts", {e["verdict"] for e in r["verdicts"]}, {"holds"})
    return expect


def check_passes(q):
    def expect(doc):
        _want("check", doc["results"], {"dim": len(q.paths()), "ok": True, "failures": []})
    return expect


def filtration(q):
    def expect(doc):
        r = doc["results"]
        _want("filtration", {"dims": r["dims"], "stabilized_at": r["stabilized_at"]},
              _filtration(q))
    return expect


def dim_is(key: str, value: int):
    """wedge/skew/hom report 'dim', mult reports 'count'."""
    def expect(doc):
        r = doc["results"]
        _want(key, r[key], value)
        if "basis" in r:
            _want("basis size", len(r["basis"]), value)
    return expect


def socle_is(mults: dict):
    def expect(doc):
        r = doc["results"]
        _want("socle dim", r["dim"], sum(mults.values()))
        _want("multiplicities", r["multiplicities"], mults)
    return expect
