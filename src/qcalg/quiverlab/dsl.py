"""Line-oriented DSL for parametric quiver coalgebra presentations.

Grammar (one declaration per line, ``#`` starts a comment):

    coalgebra <name>
    field rational | gf(<p>)
    param <name> = <int>
    vertex <name>
    vertex <name>[i, j, ...], <range>, <range>, ...
    arrow <name>[...]: <src> -> <dst>, <range>, ...
    path <name>[...] = <seg> . <seg> . ..., <range>, ...
    mode declared | all

A <range> is ``var = lo..hi``; later ranges may reference variables bound
by earlier ones (so ``n=1..N, i=1..n`` declares a triangular family).
Bounds and reference indices are integer expressions over parameters and
bound variables with ``+ - *`` and parentheses.  Bracketed names in
vertex/arrow/path heads are binders; bracketed names in endpoints and
path segments are expressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from functools import lru_cache

from ..exactlin import Field, QQ, field_named


class DslError(ValueError):
    """Syntax or consistency error in a quiver DSL text."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ClosureError(DslError):
    """A declared path has an undeclared contiguous subpath."""


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")
_HEAD_RE = re.compile(rf"({_NAME})\s*(?:\[([^\]]*)\])?\s*\Z")


@lru_cache(maxsize=1024)
def _expr_plan(src: str) -> "tuple[int, object]":
    """How to evaluate an index expression, worked out once per source
    text: (1, name) for a bare name, read from the environment as it
    stands, and (0, tree) for any other expression, walked."""
    tree = ast.parse(src, mode="eval")
    if isinstance(tree.body, ast.Name):
        return 1, tree.body.id
    return 0, tree


def _eval_expr(src: str, env: "dict[str, int]", line: int) -> int:
    try:
        bare, plan = _expr_plan(src.strip())
    except SyntaxError as exc:
        raise DslError(f"bad index expression {src.strip()!r}", line,
                       getattr(exc, "offset", 1) or 1) from None
    if bare:
        try:
            return env[plan]
        except KeyError:
            raise DslError(f"unknown name {plan!r} in index expression", line) from None

    def walk(node: ast.AST) -> int:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            a, b = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            return a * b
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            v = walk(node.operand)
            return v if isinstance(node.op, ast.UAdd) else -v
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise DslError(f"unknown name {node.id!r} in index expression", line)
            return env[node.id]
        raise DslError(f"unsupported construct in index expression {src.strip()!r}", line)

    return walk(plan)


@dataclass(frozen=True)
class IndexRange:
    var: str
    lo: str
    hi: str
    line: int


@dataclass(frozen=True)
class Ref:
    """A reference like b[n] or x[n, i+1]; exprs are source strings."""

    name: str
    exprs: "tuple[str, ...]"
    line: int

    def instantiate(self, env: "dict[str, int]") -> "tuple[str, tuple[int, ...]]":
        return self.name, tuple(_eval_expr(e, env, self.line) for e in self.exprs)


@dataclass(frozen=True)
class VertexDecl:
    name: str
    binders: "tuple[str, ...]"
    ranges: "tuple[IndexRange, ...]"
    line: int


@dataclass(frozen=True)
class ArrowDecl:
    name: str
    binders: "tuple[str, ...]"
    src: Ref
    dst: Ref
    ranges: "tuple[IndexRange, ...]"
    line: int


@dataclass(frozen=True)
class PathDecl:
    name: str
    binders: "tuple[str, ...]"
    segments: "tuple[Ref, ...]"
    ranges: "tuple[IndexRange, ...]"
    line: int


@dataclass(frozen=True)
class QuiverSpec:
    """Parsed parametric presentation of a pointed path subcoalgebra."""

    name: str
    field: Field
    params: "tuple[tuple[str, int], ...]"
    vertices: "tuple[VertexDecl, ...]"
    arrows: "tuple[ArrowDecl, ...]"
    extra_paths: "tuple[PathDecl, ...]"
    path_mode: str
    source_text: str

    def param_map(self) -> "dict[str, int]":
        return dict(self.params)


def _split_toplevel_commas(text: str) -> "list[str]":
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_head(text: str, line: int, binders: bool) -> "tuple[str, tuple[str, ...]]":
    m = _HEAD_RE.match(text.strip())
    if not m:
        raise DslError(f"bad name {text.strip()!r}", line)
    name, inner = m.group(1), m.group(2)
    if inner is None:
        return name, ()
    items = tuple(s.strip() for s in inner.split(","))
    if binders:
        for it in items:
            if not _NAME_RE.match(it):
                raise DslError(f"index binder must be a plain name, got {it!r}", line)
    return name, items


def _parse_ranges(parts: "list[str]", line: int) -> "tuple[IndexRange, ...]":
    ranges = []
    for part in parts:
        part = part.strip()
        if "=" not in part or ".." not in part:
            raise DslError(f"expected a range 'var=lo..hi', got {part!r}", line)
        var, bounds = part.split("=", 1)
        var = var.strip()
        if not _NAME_RE.match(var):
            raise DslError(f"bad range variable {var!r}", line)
        lo, hi = bounds.split("..", 1)
        ranges.append(IndexRange(var, lo.strip(), hi.strip(), line))
    return tuple(ranges)


def _check_binders(binders: "tuple[str, ...]", ranges: "tuple[IndexRange, ...]",
                   line: int) -> None:
    range_vars = [r.var for r in ranges]
    if len(set(range_vars)) != len(range_vars):
        raise DslError("duplicate range variable", line)
    if set(binders) != set(range_vars):
        raise DslError(
            f"declared indices {list(binders)} must match range variables {range_vars}",
            line)


def _parse_ref(text: str, line: int) -> Ref:
    name, exprs = _parse_head(text, line, binders=False)
    return Ref(name, exprs, line)


def parse_spec(text: str) -> QuiverSpec:
    """Parse a DSL text and validate it (including a closure dry run)."""
    name = None
    field: Field = QQ
    params: "dict[str, int]" = {}
    vertices: list[VertexDecl] = []
    arrows: list[ArrowDecl] = []
    paths: list[PathDecl] = []
    mode = "declared"

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        keyword, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if keyword == "coalgebra":
            if not _NAME_RE.match(rest):
                raise DslError(f"bad coalgebra name {rest!r}", lineno)
            name = rest
        elif keyword == "field":
            try:
                field = field_named(rest)
            except ValueError as exc:
                raise DslError(str(exc), lineno) from None
        elif keyword == "param":
            if "=" not in rest:
                raise DslError("expected 'param <name> = <int>'", lineno)
            pname, val = rest.split("=", 1)
            pname = pname.strip()
            if not _NAME_RE.match(pname):
                raise DslError(f"bad parameter name {pname!r}", lineno)
            try:
                params[pname] = int(val.strip())
            except ValueError:
                raise DslError(f"parameter default {val.strip()!r} is not an integer",
                               lineno) from None
        elif keyword == "vertex":
            parts = _split_toplevel_commas(rest)
            vname, binders = _parse_head(parts[0], lineno, binders=True)
            ranges = _parse_ranges(parts[1:], lineno)
            _check_binders(binders, ranges, lineno)
            vertices.append(VertexDecl(vname, binders, ranges, lineno))
        elif keyword == "arrow":
            parts = _split_toplevel_commas(rest)
            core = parts[0]
            if ":" not in core:
                raise DslError("expected 'arrow <name>: <src> -> <dst>'", lineno)
            head, endpoints = core.split(":", 1)
            aname, binders = _parse_head(head, lineno, binders=True)
            if "->" not in endpoints:
                raise DslError("expected '<src> -> <dst>'", lineno)
            src_text, dst_text = endpoints.split("->", 1)
            ranges = _parse_ranges(parts[1:], lineno)
            _check_binders(binders, ranges, lineno)
            arrows.append(ArrowDecl(aname, binders,
                                    _parse_ref(src_text, lineno),
                                    _parse_ref(dst_text, lineno),
                                    ranges, lineno))
        elif keyword == "path":
            parts = _split_toplevel_commas(rest)
            core = parts[0]
            if "=" not in core:
                raise DslError("expected 'path <name> = <arrow> . <arrow> ...'", lineno)
            head, chain = core.split("=", 1)
            pname, binders = _parse_head(head, lineno, binders=True)
            segs = tuple(_parse_ref(s, lineno) for s in chain.split("."))
            if len(segs) < 2:
                raise DslError("a declared path needs at least two arrows", lineno)
            ranges = _parse_ranges(parts[1:], lineno)
            _check_binders(binders, ranges, lineno)
            paths.append(PathDecl(pname, binders, segs, ranges, lineno))
        elif keyword == "mode":
            if rest not in ("declared", "all"):
                raise DslError(f"mode must be 'declared' or 'all', got {rest!r}", lineno)
            mode = rest
        else:
            raise DslError(f"unknown keyword {keyword!r}", lineno)

    if name is None:
        raise DslError("missing 'coalgebra <name>' declaration", 1)

    seen: set[str] = set()
    for decl in sorted([*vertices, *arrows, *paths], key=lambda d: d.line):
        if decl.name in seen:
            raise DslError(f"name {decl.name!r} is declared twice", decl.line)
        seen.add(decl.name)

    spec = QuiverSpec(name=name, field=field, params=tuple(sorted(params.items())),
                      vertices=tuple(vertices), arrows=tuple(arrows),
                      extra_paths=tuple(paths), path_mode=mode, source_text=text)

    # Dry-run instantiation at the declared defaults validates endpoints,
    # composability and subpath closure at parse time.
    from .paths import dry_run_validate
    dry_run_validate(spec)
    return spec
