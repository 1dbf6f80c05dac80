"""qcalg command line: check, analyze, compute, example.

Exit codes: 0 success; 1 a requested check or expectation failed; 2 input
error (syntax, unknown labels, missing, unreadable or non-UTF-8 files, a
malformed --expect file, a negative bound); 3 internal invariant
violation (a bug: two independent computation routes disagreed), which
prints a diagnostic dump.  Set QCALG_COLOR=0 or 1 to force colour off/on.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .coalg import (
    Coalgebra,
    RadicalRangeError,
    check_axioms,
    coradical_filtration,
    skew_primitives,
    wedge,
)
from .comod import (
    Comodule,
    check_comodule,
    hom_space,
    multiplicity,
    multiplicity_table,
    quotient_with_projection,
    regular_comodule,
    simple_comodule,
    socle,
)
from .exactlin import Field, PrimeField, QQ, Subspace, field_named
from .quiverlab import builtin_kind, builtin_names, builtin_text, compile_truncation, parse_spec
from .quiverlab.analyze import (
    CRITERIA,
    VerdictEntry,
    analyze_spec,
    filtration_report,
)
from .quiverlab.dsl import DslError, QuiverSpec, _split_toplevel_commas
from .report import ReportDocument
from .textfmt import FormatError
from .textfmt import loads as load_structure

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    pass


def field_display(field: Field) -> str:
    return f"gf({field.p})" if isinstance(field, PrimeField) else "rational"


def _use_color() -> bool:
    env = os.environ.get("QCALG_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _use_color() else text


def _verdict_word(v: str) -> str:
    codes = {"holds": "32", "fails": "31", "undecided": "33",
             "PASS": "32", "FAIL": "31"}
    return _paint(v, codes.get(v, "0"))


# -- input loading ---------------------------------------------------------------

@dataclass
class InputBundle:
    name: str
    kind: str  # quiver-dsl | structure-constants
    text: str
    field: Field
    spec: "QuiverSpec | None"
    coalgebra: "Coalgebra | None"
    comodule: "Comodule | None"


def _sniff_kind(text: str) -> str:
    for raw in text.splitlines():
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        keyword = stmt.split(None, 1)[0]
        if keyword in ("dim", "delta", "epsilon", "epsilon:", "rho"):
            return "structure-constants"
        if keyword in ("vertex", "arrow", "path", "mode", "param"):
            return "quiver-dsl"
    return "quiver-dsl"


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of a user-named file; anything unreadable is an input error."""
    try:
        return path.read_text(encoding="utf-8")
    except IsADirectoryError:
        raise InputError(f"{what} {str(path)!r} is a directory, not a file") from None
    except UnicodeDecodeError:
        raise InputError(f"{what} {str(path)!r} is not UTF-8 text") from None
    except OSError as exc:
        raise InputError(f"{what} {str(path)!r} cannot be read: {exc.strerror}") from None


def _load_input(name: str, field_flag: "str | None", check: bool) -> InputBundle:
    if name in builtin_names():
        text, kind = builtin_text(name), builtin_kind(name)
    else:
        path = Path(name)
        if not path.exists():
            raise InputError(f"no builtin or file named {name!r} "
                             f"(builtins: {', '.join(builtin_names())})")
        text = _read_text(path, "input")
        kind = _sniff_kind(text)
    try:
        override = field_named(field_flag) if field_flag else None
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if kind == "quiver-dsl":
        spec = parse_spec(text)
        if override is not None:
            spec = replace(spec, field=override)
        return InputBundle(name, kind, text, spec.field, spec, None, None)
    loaded = load_structure(text, field=override or QQ, check=check)
    return InputBundle(name, kind, text, override or QQ, None,
                       loaded.coalgebra, loaded.comodule)


def _probe_bound(bundle: InputBundle, args) -> int:
    if getattr(args, "N", None) is not None:
        if args.N < 0:
            raise InputError("--N must be nonnegative")
        return args.N
    if bundle.spec is not None:
        defaults = bundle.spec.param_map()
        if defaults:
            name = max(defaults, key=defaults.get)
            if defaults[name] < 0:
                raise InputError(f"the largest parameter default, {name} = "
                                 f"{defaults[name]}, must be nonnegative; give --N")
            return defaults[name]
    return 1


def _load_expect(name: "str | None") -> "dict | None":
    """The --expect file's {criterion: verdict} object, read before any analysis."""
    if name is None:
        return None
    text = _read_text(Path(name), "--expect file")
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"--expect file {name!r} is not JSON: {exc}") from None
    if not isinstance(expected, dict):
        raise InputError(f"--expect file {name!r} must hold a JSON object of "
                         f"criterion: verdict pairs, not {type(expected).__name__}")
    return expected


def _parse_sweep(text: "str | None") -> "list[int] | None":
    """The --sweep bounds a..b; None when the flag is absent, so the
    analyzer's default sweep applies."""
    if text is None:
        return None
    m = re.fullmatch(r"(\d+)\s*\.\.\s*(\d+)", text.strip())
    if not m:
        raise InputError(f"--sweep wants 'a..b', got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b or a < 0:
        raise InputError(f"bad sweep range {a}..{b}")
    return list(range(a, b + 1))


# -- named subspaces ---------------------------------------------------------------

_COMPACT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*?)(\d+)\Z")
_CTERM = re.compile(r"C(\d+)\Z")
_VTERM = re.compile(r"V(\d+)\Z")


def _resolve_label(coalgebra: Coalgebra, token: str) -> int:
    try:
        return coalgebra.label_index(token)
    except KeyError:
        pass
    m = _COMPACT.fullmatch(token)
    if m:
        try:
            return coalgebra.label_index(f"{m.group(1)}[{m.group(2)}]")
        except KeyError:
            pass
    raise InputError(f"unknown basis label {token!r}")


def _resolve_subspaces(coalgebra: Coalgebra, texts: "list[str]",
                       basis=None) -> "list[Subspace]":
    """The span named by each text's labels and special tokens full, zero,
    C<k>, V<k>.

    C<k> is the k-th coradical filtration term, computed at most once for
    all the texts; V<k> (quiver inputs only) spans the basis paths whose
    family indices are all at most k.
    """
    chain = None

    def span(text: str) -> Subspace:
        nonlocal chain
        rows: list[dict] = []
        for token in _split_toplevel_commas(text):
            token = token.strip()
            if not token:
                continue
            if token == "full":
                return Subspace.full(coalgebra.field, coalgebra.dim)
            if token in ("zero", "0"):
                continue
            if token not in coalgebra.labels:
                m = _CTERM.fullmatch(token)
                if m:
                    if chain is None:
                        chain = coradical_filtration(coalgebra)
                    k = min(int(m.group(1)), len(chain.terms) - 1)
                    rows.extend(chain.terms[k].basis_dicts())
                    continue
                m = _VTERM.fullmatch(token)
                if m:
                    if basis is None:
                        raise InputError("V<k> spans need a quiver input")
                    k = int(m.group(1))
                    for idx, p in enumerate(basis.paths):
                        if all(i <= k for i in p.family_indices()):
                            rows.append({idx: coalgebra.field.one})
                    continue
            rows.append({_resolve_label(coalgebra, token): coalgebra.field.one})
        return Subspace.span(coalgebra.field, coalgebra.dim, rows)

    return [span(text) for text in texts]


# -- commands -----------------------------------------------------------------------

def _emit(args, doc: ReportDocument, human_lines: Iterable[str]) -> None:
    """The report as JSON under --json, else its human lines; a generator
    of lines is run only in the second case."""
    if args.json:
        sys.stdout.write(doc.to_json())
    else:
        for line in human_lines:
            print(line)


def _base_options(bundle: InputBundle, args, command: str, n=None, sweep=None) -> dict:
    return {
        "command": command,
        "N": n,
        "depth": getattr(args, "depth", None),
        "sweep": sweep,
        "field": field_display(bundle.field),
    }


def cmd_example(args) -> int:
    try:
        text = builtin_text(args.name)
    except KeyError:
        raise InputError(f"unknown builtin {args.name!r} "
                         f"(have: {', '.join(builtin_names())})") from None
    sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    bundle = _load_input(args.input, args.field, check=False)
    n = None
    if bundle.spec is not None:
        n = _probe_bound(bundle, args)
        coalgebra, _ = compile_truncation(bundle.spec, n, args.depth)
    else:
        coalgebra = bundle.coalgebra
    reports = [("coalgebra", check_axioms(coalgebra))]
    if bundle.comodule is not None:
        reports.append(("comodule", check_comodule(bundle.comodule)))
    ok = all(rep.ok for _, rep in reports)
    failures = [
        {"target": target, "law": f.law, "element": f.element,
         "position": list(f.position), "lhs": f.lhs, "rhs": f.rhs}
        for target, rep in reports for f in rep.failures
    ]
    doc = ReportDocument.build(
        bundle.name, bundle.kind, bundle.text,
        _base_options(bundle, args, "check", n=n),
        {"dim": coalgebra.dim, "ok": ok, "failures": failures})
    lines = [f"check {bundle.name}: {_verdict_word('PASS' if ok else 'FAIL')}"]
    for target, rep in reports:
        first = rep.first()
        if first is not None:
            lines.append(f"  {target}: {first}")
    _emit(args, doc, lines)
    return EXIT_OK if ok else EXIT_VERDICT


def _finite_dimensional_results(coalgebra: Coalgebra) -> dict:
    report = check_axioms(coalgebra)
    if not report.ok:
        raise InputError(f"input is not a coalgebra: {report.first()}")
    rule = ("the input coalgebra is finite-dimensional: its dual is a "
            "finite-dimensional algebra, so every ideal is finitely "
            "generated, injective comodules are finite-dimensional, and "
            "all the battery's criteria hold",)
    verdicts = [VerdictEntry(c, "holds", None, rule).as_dict() for c in CRITERIA]
    return {
        "N": None,
        "depth": None,
        "sweep": None,
        "dim": coalgebra.dim,
        "basis": list(coalgebra.labels),
        **filtration_report(coalgebra, coradical_filtration(coalgebra)),
        "degree_tables": None,
        "fnoetherian_sweep": None,
        "verdicts": verdicts,
    }


def cmd_analyze(args) -> int:
    bundle = _load_input(args.input, args.field, check=False)
    expected = _load_expect(args.expect)
    if bundle.spec is not None:
        n = _probe_bound(bundle, args)
        results = analyze_spec(bundle.spec, n, _parse_sweep(args.sweep), args.depth)
    else:
        n = None
        results = _finite_dimensional_results(bundle.coalgebra)
    doc = ReportDocument.build(bundle.name, bundle.kind, bundle.text,
                               _base_options(bundle, args, "analyze", n=n,
                                             sweep=results["sweep"]),
                               results)

    mismatches = {}
    if expected is not None:
        got = {e["criterion"]: e["verdict"] for e in results["verdicts"]}
        mismatches = {
            crit: (want, got.get(crit)) for crit, want in sorted(expected.items())
            if got.get(crit) != want
        }
    _emit(args, doc, _analyze_lines(bundle, n, results, mismatches))
    return EXIT_VERDICT if mismatches else EXIT_OK


def _analyze_lines(bundle: InputBundle, n, results: dict,
                   mismatches: dict) -> Iterator[str]:
    """The human lines of an analyze report, built as _emit prints them."""
    yield (f"analyze {bundle.name} "
           f"(dim {results['dim']}, N={n}, field {field_display(bundle.field)})")
    filt = results["filtration"]
    yield (f"coradical filtration dims: "
           f"{' '.join(str(d) for d in filt['dims'])} "
           f"(stabilized at {filt['stabilized_at']})")
    for entry in results["verdicts"]:
        reason = entry["rule_chain"][0] if entry["rule_chain"] else ""
        if entry["verdict"] == "fails" and entry["witness"]:
            reason = f"witness: {json.dumps(entry['witness'], sort_keys=True)}"
        yield f"  {entry['criterion']:<20} {_verdict_word(entry['verdict']):<10} {reason}"
    for crit, (want, actual) in mismatches.items():
        yield f"expect mismatch: {crit}: wanted {want}, got {actual}"


def _comodule_for(args, coalgebra: Coalgebra, basis) -> Comodule:
    m = regular_comodule(coalgebra, args.side)
    if getattr(args, "quotient_by", None):
        (x,) = _resolve_subspaces(coalgebra, [args.quotient_by], basis)
        try:
            m, _ = quotient_with_projection(m, x)
        except ValueError as exc:
            raise InputError(f"--quotient-by {args.quotient_by!r}: {exc}") from None
    return m


def cmd_compute(args) -> int:
    bundle = _load_input(args.input, args.field, check=args.check)
    basis = None
    if bundle.spec is not None:
        n = _probe_bound(bundle, args)
        coalgebra, basis = compile_truncation(bundle.spec, n, args.depth)
    else:
        n = None
        coalgebra = bundle.coalgebra
    op = args.operation
    results: dict = {"operation": op}
    lines: list[str] = []

    if op == "wedge":
        if not (args.x and args.y):
            raise InputError("wedge needs --x and --y")
        x, y = _resolve_subspaces(coalgebra, [args.x, args.y], basis)
        w = wedge(x, y, coalgebra)
        rendered = [coalgebra.format_vector(v) for v in w.basis_dicts()]
        results.update({"dim": w.dim, "basis": rendered})
        lines.append(f"wedge dim: {w.dim}")
        lines.extend(f"  {r}" for r in rendered)
    elif op == "filtration":
        chain = coradical_filtration(coalgebra)
        results.update({"dims": list(chain.dims()),
                        "stabilized_at": chain.stabilized_at})
        lines.append("filtration dims: " + " ".join(str(d) for d in chain.dims())
                     + f" (stabilized at {chain.stabilized_at})")
    elif op == "socle":
        m = _comodule_for(args, coalgebra, basis)
        s = socle(m)
        mults = {k: v for k, v in sorted(multiplicity_table(m).items()) if v}
        results.update({"dim": s.dim, "multiplicities": mults, "side": args.side})
        lines.append(f"socle dim: {s.dim}")
        lines.extend(f"  [M; {k}] = {v}" for k, v in mults.items())
    elif op == "mult":
        if not args.s:
            raise InputError("mult needs --s <simple label>")
        m = _comodule_for(args, coalgebra, basis)
        g = _resolve_label(coalgebra, args.s)
        try:
            count = multiplicity(m, coalgebra.labels[g])
        except ValueError as exc:
            raise InputError(f"--s {args.s!r}: {exc}") from None
        results.update({"simple": coalgebra.labels[g], "count": count,
                        "side": args.side})
        lines.append(f"[M; {coalgebra.labels[g]}] = {count}")
    elif op == "skew":
        if not (args.g and args.h):
            raise InputError("skew needs --g and --h")
        gi = _resolve_label(coalgebra, args.g)
        hi = _resolve_label(coalgebra, args.h)
        try:
            space = skew_primitives(gi, hi, coalgebra)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        rendered = [coalgebra.format_vector(v) for v in space.basis_dicts()]
        results.update({"dim": space.dim, "basis": rendered})
        lines.append(f"skew-primitive dim: {space.dim}")
        lines.extend(f"  {r}" for r in rendered)
    elif op == "hom":
        if not args.simple:
            raise InputError("hom needs --simple <grouplike label>")
        gi = _resolve_label(coalgebra, args.simple)
        try:
            s = simple_comodule(coalgebra, gi, args.side)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        target = _comodule_for(args, coalgebra, basis)
        dim, _ = hom_space(s, target)
        results.update({"dim": dim, "simple": coalgebra.labels[gi],
                        "side": args.side})
        lines.append(f"hom dim: {dim}")
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown operation {op!r}")

    doc = ReportDocument.build(bundle.name, bundle.kind, bundle.text,
                               _base_options(bundle, args, f"compute.{op}", n=n),
                               results)
    _emit(args, doc, lines)
    return EXIT_OK


# -- wiring -----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, sweep: bool = False,
                expect: bool = False) -> None:
    p.add_argument("--N", type=int, default=None,
                   help="family bound (sets every parameter)")
    p.add_argument("--depth", type=int, default=None,
                   help="maximum path length in the truncation")
    p.add_argument("--field", default=None,
                   help="rational (default) or gf:p / gf(p)")
    p.add_argument("--json", action="store_true",
                   help="emit the canonical JSON report")
    if sweep:
        p.add_argument("--sweep", default=None,
                       help="bounds a..b for the multiplicity growth sweep")
    if expect:
        p.add_argument("--expect", default=None,
                       help="JSON file of expected verdicts; mismatches exit 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcalg",
        description="Exact coalgebra computations over quiver presentations "
                    "and structure-constants files.")
    parser.add_argument("--version", action="version", version=f"qcalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, compile and verify the axioms")
    p.add_argument("input", help="builtin name or file path")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="run the full verdict battery")
    p.add_argument("input")
    _add_common(p, sweep=True, expect=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compute", help="one-shot exact computations")
    p.add_argument("input")
    p.add_argument("operation",
                   choices=["wedge", "filtration", "socle", "mult", "skew", "hom"])
    _add_common(p)
    p.add_argument("--check", action="store_true",
                   help="validate coalgebra axioms when loading "
                        "structure-constants input")
    p.add_argument("--x", default=None, help="subspace (labels, C<k>, V<k>, full)")
    p.add_argument("--y", default=None, help="subspace for the second wedge slot")
    p.add_argument("--g", default=None, help="grouplike label")
    p.add_argument("--h", default=None, help="grouplike label")
    p.add_argument("--s", default=None, help="simple (grouplike) label")
    p.add_argument("--simple", default=None, help="source simple for hom")
    p.add_argument("--quotient-by", dest="quotient_by", default=None,
                   help="quotient the regular comodule by this subspace first")
    p.add_argument("--side", choices=["left", "right"], default="right")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("example", help="print a builtin presentation")
    p.add_argument("name")
    p.set_defaults(func=cmd_example)
    return parser


# Built once, at import: a parse builds a fresh namespace, so no state
# passes from one main() call to the next.
_PARSER = _build_parser()


def _bug_dump(exc: Exception) -> None:
    print("internal invariant violation; this is a bug in qcalg. "
          "Please report the dump below.", file=sys.stderr)
    traceback.print_exc()


def main(argv: "list[str] | None" = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if getattr(args, "depth", None) is not None and args.depth < 0:
            raise InputError("--depth must be nonnegative")
        return args.func(args)
    except (DslError, FormatError, InputError, RadicalRangeError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # an InternalCheckError, or anything unexpected: a bug
        _bug_dump(exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
