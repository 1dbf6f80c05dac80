"""Structure-constants text format for standalone finite coalgebras.

Grammar (line-oriented, ``#`` starts a comment, blanks ignored):

    coalgebra <name>          optional display name
    dim <n>                   required, first content line
    label <i> <name>          optional; default labels are e0, e1, ...
    delta <i>: <j> <k> <num[/den]>; <j> <k> <num[/den]>; ...
    epsilon: <v_0> <v_1> ... <v_{n-1}>
    side left|right           optional, applies to rho (default right)
    mdim <n>                  comodule dimension (default: dim)
    mlabel <i> <name>         optional comodule labels
    rho <i>: <j> <k> <num[/den]>; ...

``delta i: j k c`` contributes c * e_j (x) e_k to the comultiplication of
e_i.  ``rho`` lines, when present, define a standalone comodule over the
coalgebra in the same file, with the same (j, k, c) placement convention
as :mod:`qcalg.comod`.  Scalars are exact: integers or num/den.  Each of
coalgebra, dim, mdim, side and epsilon is given at most once, and each
label, mlabel, delta and rho index at most once.

Loading is lazily validated: well-formedness (dimensions, index ranges)
is always enforced, the coalgebra and comodule axioms only when
``check=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalg import Coalgebra, check_axioms
from .comod import Comodule, check_comodule
from .exactlin import Field, QQ


class FormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class LoadedFile:
    name: "str | None"
    coalgebra: Coalgebra
    comodule: "Comodule | None"


def _int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"bad {what} {text!r}", line) from None


def _scalar(text: str, field: Field, line: int):
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad scalar {text!r}", line) from None


def _parse_terms(body: str, field: Field, line: int) -> "tuple[tuple[int, int, object], ...]":
    terms = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = chunk.split()
        if len(bits) != 3:
            raise FormatError(f"expected 'j k coeff', got {chunk!r}", line)
        j, k = _int(bits[0], "tensor index", line), _int(bits[1], "tensor index", line)
        c = _scalar(bits[2], field, line)
        if c:
            terms.append((j, k, c))
    return tuple(terms)


def _final_labels(declared: dict, prefix: str, n: int,
                  keyword: str) -> "tuple[str, ...]":
    """The labels of n elements, <prefix><i> where none is declared; a label
    given twice is a fault at the later declaration's line."""
    final = tuple(declared[i][0] if i in declared else f"{prefix}{i}" for i in range(n))
    first_index: dict[str, int] = {}
    for i, lab in enumerate(final):
        if lab in first_index:
            # Default labels are distinct, so one of the pair was declared.
            line = max(declared[t][1] for t in (first_index[lab], i) if t in declared)
            raise FormatError(f"duplicate {keyword} {lab!r}", line)
        first_index[lab] = i
    return final


def loads(text: str, field: Field = QQ, check: bool = False) -> LoadedFile:
    name = None
    dim = None
    mdim = None
    side = "right"
    # Every parsed entry keeps the line it came from, so a range fault
    # found after the whole file is read still names its own line.
    labels: dict[int, tuple[str, int]] = {}
    mlabels: dict[int, tuple[str, int]] = {}
    delta: dict[int, tuple[tuple, int]] = {}
    rho: dict[int, tuple[tuple, int]] = {}
    epsilon = None
    singletons: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        keyword, _, rest = stmt.partition(" ")
        rest = rest.strip()
        once = "epsilon" if keyword == "epsilon:" else keyword
        if once in ("coalgebra", "dim", "mdim", "side", "epsilon"):
            # A second line would silently override the first.
            if once in singletons:
                raise FormatError(f"{once} given twice", lineno)
            singletons.add(once)
        if keyword == "coalgebra":
            name = rest
        elif keyword == "dim":
            dim = _int(rest, "dimension", lineno)
            if dim < 0:
                raise FormatError("dimension must be nonnegative", lineno)
        elif keyword == "mdim":
            mdim = _int(rest, "comodule dimension", lineno)
            if mdim < 0:
                raise FormatError("comodule dimension must be nonnegative", lineno)
        elif keyword == "side":
            if rest not in ("left", "right"):
                raise FormatError("side must be left or right", lineno)
            side = rest
        elif keyword in ("label", "mlabel"):
            bits = rest.split(None, 1)
            if len(bits) != 2:
                raise FormatError("expected '<index> <name>'", lineno)
            target = labels if keyword == "label" else mlabels
            i = _int(bits[0], f"{keyword} index", lineno)
            if i in target:
                raise FormatError(f"{keyword} {i} given twice", lineno)
            target[i] = (bits[1].strip(), lineno)
        elif keyword in ("delta", "rho"):
            head, sep, body = rest.partition(":")
            if not sep:
                raise FormatError(f"expected '{keyword} <i>: ...'", lineno)
            i = _int(head.strip(), f"{keyword} index", lineno)
            target = delta if keyword == "delta" else rho
            if i in target:
                raise FormatError(f"{keyword} {i} given twice", lineno)
            target[i] = (_parse_terms(body, field, lineno), lineno)
        elif keyword in ("epsilon", "epsilon:"):
            body = rest.removeprefix(":") if keyword == "epsilon" else rest
            epsilon = tuple(_scalar(tok, field, lineno) for tok in body.split())
            epsilon_line = lineno
        else:
            raise FormatError(f"unknown keyword {keyword!r}", lineno)

    if dim is None:
        raise FormatError("missing 'dim' line", 1)
    if epsilon is None:
        raise FormatError("missing 'epsilon' line", 1)
    if len(epsilon) != dim:
        raise FormatError(f"epsilon has {len(epsilon)} entries, expected {dim}",
                          epsilon_line)
    m = mdim if mdim is not None else dim
    for keyword, target, bound in (("label", labels, dim), ("mlabel", mlabels, m)):
        for i, (_, line) in target.items():
            if not 0 <= i < bound:
                raise FormatError(f"{keyword} index {i} out of range", line)
    for i, (terms, line) in delta.items():
        if not 0 <= i < dim:
            raise FormatError(f"delta index {i} out of range", line)
        for j, k, _ in terms:
            if not (0 <= j < dim and 0 <= k < dim):
                raise FormatError(f"delta {i}: tensor index out of range", line)

    coalgebra = Coalgebra(field=field, dim=dim,
                          labels=_final_labels(labels, "e", dim, "label"),
                          delta=tuple(delta[i][0] if i in delta else () for i in range(dim)),
                          epsilon=epsilon)

    comodule = None
    if rho:
        for i, (terms, line) in rho.items():
            if not 0 <= i < m:
                raise FormatError(f"rho index {i} out of range", line)
            for j, k, _ in terms:
                mod, coalg = (j, k) if side == "right" else (k, j)
                if not (0 <= mod < m and 0 <= coalg < dim):
                    raise FormatError(f"rho {i}: tensor index out of range", line)
        comodule = Comodule(side=side, dim=m, over=coalgebra,
                            coaction=tuple(rho[i][0] if i in rho else () for i in range(m)),
                            labels=_final_labels(mlabels, "m", m, "mlabel"))

    def fault_line(entries: dict, index: int) -> int:
        """The failing element's own delta or rho line, else the epsilon line."""
        return entries[index][1] if index in entries else epsilon_line

    if check:
        report = check_axioms(coalgebra)
        if not report.ok:
            first = report.first()
            raise FormatError(f"coalgebra axioms fail: {first}",
                              fault_line(delta, coalgebra.label_index(first.element)))
        if comodule is not None:
            report = check_comodule(comodule)
            if not report.ok:
                first = report.first()
                raise FormatError(f"comodule axioms fail: {first}",
                                  fault_line(rho, comodule.label_index(first.element)))
    return LoadedFile(name=name, coalgebra=coalgebra, comodule=comodule)


def dumps_coalgebra(c: Coalgebra, name: "str | None" = None) -> str:
    lines = []
    if name:
        lines.append(f"coalgebra {name}")
    lines.append(f"dim {c.dim}")
    for i, lab in enumerate(c.labels):
        if lab != f"e{i}":
            lines.append(f"label {i} {lab}")
    fmt = c.field.format
    for i in range(c.dim):
        terms = c.delta_dict(i)
        if not terms:
            continue
        rendered = "; ".join(f"{j} {k} {fmt(terms[(j, k)])}" for j, k in sorted(terms))
        lines.append(f"delta {i}: {rendered}")
    lines.append("epsilon: " + " ".join(fmt(v) for v in c.epsilon))
    return "\n".join(lines) + "\n"


def dumps_comodule(m: Comodule, name: "str | None" = None) -> str:
    """Coalgebra block followed by the comodule extension lines."""
    lines = [dumps_coalgebra(m.over, name=name).rstrip("\n")]
    lines.append(f"side {m.side}")
    if m.dim != m.over.dim:
        lines.append(f"mdim {m.dim}")
    for i, lab in enumerate(m.labels):
        if lab != f"m{i}":
            lines.append(f"mlabel {i} {lab}")
    fmt = m.field.format
    for i in range(m.dim):
        if not m.coaction[i]:
            continue
        rendered = "; ".join(f"{j} {k} {fmt(c)}" for j, k, c in m.coaction[i])
        lines.append(f"rho {i}: {rendered}")
    return "\n".join(lines) + "\n"
