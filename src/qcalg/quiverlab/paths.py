"""Path enumeration and compilation of quiver specs into coalgebras.

A truncation is selected by a family bound (every parameter set to N) and
an optional maximum path length.  The enumerated basis is closed under
contiguous subpaths, which is exactly what makes its span a subcoalgebra
of the full path coalgebra; closure is validated on declared paths (all-mode
walks grow from enumerated walks) and violations name the missing subpath.

Compilation splits each basis path at every position, with the trivial
source/target vertex paths at the ends, and sets the counit to 1 on
vertices and 0 on longer paths.  Increasing the truncation only adds
basis elements; the comultiplication of an existing path never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..coalg import Coalgebra
from .dsl import ClosureError, DslError, QuiverSpec, _eval_expr


def format_label(name: str, indices: "tuple[int, ...]") -> str:
    if not indices:
        return name
    return f"{name}[{','.join(str(i) for i in indices)}]"


@dataclass(frozen=True)
class Vertex:
    name: str
    indices: "tuple[int, ...]"

    @property
    def label(self) -> str:
        return format_label(self.name, self.indices)


@dataclass(frozen=True)
class Arrow:
    """An instantiated arrow; ``line`` is the DSL line of its declaration."""

    name: str
    indices: "tuple[int, ...]"
    src: Vertex
    dst: Vertex
    line: int = field(default=1, compare=False)

    @property
    def label(self) -> str:
        return format_label(self.name, self.indices)


@dataclass(frozen=True)
class Path:
    """A vertex (length 0) or a composable chain of arrows; ``line`` is the
    DSL line of the declaration a declared path came from."""

    label: str
    source: Vertex
    target: Vertex
    arrows: "tuple[Arrow, ...]"
    line: int = field(default=1, compare=False)

    @property
    def length(self) -> int:
        return len(self.arrows)

    def key(self) -> tuple:
        if not self.arrows:
            return (("vertex", self.source.name, self.source.indices),)
        return tuple(("arrow", a.name, a.indices) for a in self.arrows)

    def sort_key(self) -> tuple:
        if not self.arrows:
            return (0, ((self.source.name, self.source.indices),))
        return (self.length, tuple((a.name, a.indices) for a in self.arrows))

    def family_indices(self) -> "tuple[int, ...]":
        seen: list[int] = []
        if not self.arrows:
            seen.extend(self.source.indices)
        for a in self.arrows:
            seen.extend(a.indices)
            seen.extend(a.src.indices)
            seen.extend(a.dst.indices)
        return tuple(seen)


@dataclass(frozen=True)
class PathBasis:
    """Basis paths in the canonical order: by length, then lexicographic."""

    paths: "tuple[Path, ...]"

    @cached_property
    def _by_key(self) -> "dict[tuple, int]":
        return {p.key(): i for i, p in enumerate(self.paths)}

    @cached_property
    def _by_label(self) -> "dict[str, int]":
        return {p.label: i for i, p in enumerate(self.paths)}

    def __len__(self) -> int:
        return len(self.paths)

    def index_of_key(self, key: tuple) -> int:
        return self._by_key[key]

    def index_of_label(self, label: str) -> int:
        if label not in self._by_label:
            raise KeyError(f"unknown basis label {label!r}")
        return self._by_label[label]

    def labels(self) -> "tuple[str, ...]":
        return tuple(p.label for p in self.paths)

    def vertices(self) -> "list[Vertex]":
        return [p.source for p in self.paths if p.length == 0]


@dataclass(frozen=True)
class QuiverInstance:
    vertices: "tuple[Vertex, ...]"
    arrows: "tuple[Arrow, ...]"
    declared_paths: "tuple[Path, ...]"


# The most values one index range, the most vertices, arrows and declared
# paths one instantiation, and the most candidate paths one all-mode
# enumeration may hold.  An input past it is refused as an input error at
# the line that would pass it, before the loops that would build it run.
SIZE_BUDGET = 100_000


def _iter_envs(ranges, params: "dict[str, int]"):
    """All assignments of the range variables, nested left to right.

    Every value given to a range other than the innermost counts against
    the size budget, so nested ranges that yield few or no assignments
    still cannot walk without bound."""
    walked = 0

    def rec(idx: int, env: "dict[str, int]"):
        nonlocal walked
        if idx == len(ranges):
            yield dict(env)
            return
        r = ranges[idx]
        lo = _eval_expr(r.lo, {**params, **env}, r.line)
        hi = _eval_expr(r.hi, {**params, **env}, r.line)
        if hi - lo + 1 > SIZE_BUDGET:
            raise DslError(f"range {r.var}={lo}..{hi} has {hi - lo + 1} values, "
                           f"more than the size budget of {SIZE_BUDGET}", r.line)
        for val in range(lo, hi + 1):
            if idx < len(ranges) - 1:
                walked += 1
                if walked > SIZE_BUDGET:
                    raise DslError(f"the ranges enclosing {ranges[-1].var} take "
                                   f"more than {SIZE_BUDGET} values: past the size budget",
                                   r.line)
            env[r.var] = val
            yield from rec(idx + 1, env)
        env.pop(r.var, None)
    yield from rec(0, {})


def instantiate(spec: QuiverSpec, n_bound: "int | None" = None) -> QuiverInstance:
    """Concrete vertices, arrows and declared paths at a family bound.

    ``n_bound`` overrides every parameter; None keeps the declared
    defaults.
    """
    params = spec.param_map()
    if n_bound is not None:
        if n_bound < 0:
            raise ValueError("family bound must be nonnegative")
        params = {k: n_bound for k in params}

    size = 0

    def envs(decl):
        """The assignments of decl's ranges, each counted against the budget."""
        nonlocal size
        for env in _iter_envs(decl.ranges, params):
            size += 1
            if size > SIZE_BUDGET:
                raise DslError(f"more than {SIZE_BUDGET} vertices, arrows and "
                               "declared paths: past the size budget", decl.line)
            yield env

    vertices: dict[tuple, Vertex] = {}
    for decl in spec.vertices:
        for env in envs(decl):
            v = Vertex(decl.name, tuple(env[b] for b in decl.binders))
            key = (v.name, v.indices)
            if key in vertices:
                raise DslError(f"vertex {v.label} instantiated twice", decl.line)
            vertices[key] = v

    def vertex_ref(ref, env) -> Vertex:
        key = ref.instantiate(env)
        if key not in vertices:
            raise DslError(
                f"endpoint {format_label(*key)} is not a declared vertex", ref.line)
        return vertices[key]

    arrows: dict[tuple, Arrow] = {}
    for decl in spec.arrows:
        for env in envs(decl):
            full_env = {**params, **env}
            a = Arrow(decl.name, tuple(env[b] for b in decl.binders),
                      vertex_ref(decl.src, full_env), vertex_ref(decl.dst, full_env),
                      decl.line)
            key = (a.name, a.indices)
            if key in arrows:
                raise DslError(f"arrow {a.label} instantiated twice", decl.line)
            arrows[key] = a

    declared: list[Path] = []
    for decl in spec.extra_paths:
        for env in envs(decl):
            full_env = {**params, **env}
            chain: list[Arrow] = []
            for seg in decl.segments:
                key = seg.instantiate(full_env)
                if key not in arrows:
                    raise ClosureError(
                        f"path {decl.name} uses undeclared arrow {format_label(*key)}",
                        seg.line)
                chain.append(arrows[key])
            for first, second in zip(chain, chain[1:]):
                if first.dst != second.src:
                    raise DslError(
                        f"path {decl.name}: {first.label} ends at {first.dst.label} "
                        f"but {second.label} starts at {second.src.label}", decl.line)
            label = format_label(decl.name, tuple(env[b] for b in decl.binders))
            declared.append(Path(label, chain[0].src, chain[-1].dst, tuple(chain),
                                 decl.line))

    return QuiverInstance(tuple(vertices.values()), tuple(arrows.values()),
                          tuple(declared))


def _closure_check(paths: "list[Path]") -> None:
    keys = {p.key() for p in paths}
    for p in paths:
        if p.length < 2:
            continue
        for i in range(p.length):
            for j in range(i + 1, p.length + 1):
                if (i, j) == (0, p.length):
                    continue
                sub = tuple(("arrow", a.name, a.indices) for a in p.arrows[i:j])
                if sub not in keys:
                    missing = ".".join(a.label for a in p.arrows[i:j])
                    raise ClosureError(
                        f"subpath {missing} of {p.label} is not declared", p.line)


def reachability(inst: QuiverInstance) -> "dict[str, set[str]]":
    """For each vertex label, the labels reachable by a walk of one or more
    arrows; a vertex lies on a cycle exactly when it reaches itself."""
    successors: dict[str, set[str]] = {v.label: set() for v in inst.vertices}
    for a in inst.arrows:
        successors[a.src.label].add(a.dst.label)
    reach: dict[str, set[str]] = {}
    for v, first in successors.items():
        seen: set[str] = set()
        stack = list(first)
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack.extend(successors[w])
        reach[v] = seen
    return reach


def cycle_vertices(reach: "dict[str, set[str]]") -> "list[str]":
    """The sorted labels that lie on a cycle, from a reachability map."""
    return sorted(v for v, seen in reach.items() if v in seen)


def enumerate_paths(spec: QuiverSpec, n_bound: "int | None" = None,
                    depth: "int | None" = None) -> PathBasis:
    """All admissible paths at a family bound, up to an optional length."""
    return enumerate_instance(spec, instantiate(spec, n_bound), depth)


def enumerate_instance(spec: QuiverSpec, inst: QuiverInstance,
                       depth: "int | None" = None) -> PathBasis:
    """All admissible paths of an instance of spec, up to an optional length.

    Declared mode takes the declared set; all mode walks the instantiated
    graph and therefore refuses cyclic instances unless a depth bound is
    given.
    """
    candidates: list[Path] = [Path(v.label, v, v, ()) for v in inst.vertices]
    if depth is None or depth >= 1:
        candidates.extend(Path(a.label, a.src, a.dst, (a,)) for a in inst.arrows)

    if spec.path_mode == "declared":
        for p in inst.declared_paths:
            if depth is None or p.length <= depth:
                candidates.append(p)
    else:
        if depth is None:
            reach = reachability(inst)
            cyclic = cycle_vertices(reach)
            if cyclic:
                v = cyclic[0]
                # The first declared arrow out of v whose target leads back to v.
                on_cycle = next(a for a in inst.arrows if a.src.label == v
                                and (a.dst.label == v or v in reach[a.dst.label]))
                raise DslError("all-paths mode on a cyclic quiver needs a depth "
                               f"bound (cycle through {v})", on_cycle.line)
        adjacency: dict[Vertex, list[Arrow]] = {}
        for a in inst.arrows:
            adjacency.setdefault(a.src, []).append(a)
        frontier = [p for p in candidates if p.length == 1]
        while frontier:
            longer: list[Path] = []
            for p in frontier:
                if depth is not None and p.length + 1 > depth:
                    continue
                for a in adjacency.get(p.target, []):
                    if len(candidates) + len(longer) >= SIZE_BUDGET:
                        raise DslError(f"more than {SIZE_BUDGET} paths in all-paths "
                                       "mode: past the size budget", a.line)
                    chain = p.arrows + (a,)
                    label = ".".join(x.label for x in chain)
                    longer.append(Path(label, p.source, a.dst, chain))
            candidates.extend(longer)
            frontier = longer

    unique: dict[tuple, Path] = {}
    for p in candidates:
        key = p.key()
        if key in unique:
            raise DslError(f"paths {unique[key].label} and {p.label} coincide",
                           max(unique[key].line, p.line))
        unique[key] = p
    ordered = sorted(unique.values(), key=Path.sort_key)
    if spec.path_mode == "declared":
        _closure_check(ordered)
    labels = [p.label for p in ordered]
    if len(set(labels)) != len(labels):
        raise DslError("duplicate path labels after instantiation", 1)
    return PathBasis(tuple(ordered))


def dry_run_validate(spec: QuiverSpec) -> None:
    """Parse-time validation: endpoints, composability, subpath closure.

    Runs at the declared parameter defaults.  Deliberately tolerates
    cyclic all-mode quivers, which only need a depth bound later.
    """
    inst = instantiate(spec)
    candidates = [Path(v.label, v, v, ()) for v in inst.vertices]
    candidates.extend(Path(a.label, a.src, a.dst, (a,)) for a in inst.arrows)
    candidates.extend(inst.declared_paths)
    _closure_check(candidates)


def compile_truncation(spec: QuiverSpec, n_bound: "int | None" = None,
                       depth: "int | None" = None) -> "tuple[Coalgebra, PathBasis]":
    """Compile a truncation into a coalgebra by concatenation splitting."""
    basis = enumerate_paths(spec, n_bound, depth)
    field = spec.field
    one = field.one
    delta: list = []
    epsilon: list = []
    for p in basis.paths:
        if p.length == 0:
            i = basis.index_of_key(p.key())
            delta.append(((i, i, one),))
            epsilon.append(one)
            continue
        terms = []
        for cut in range(p.length + 1):
            if cut == 0:
                left_key = (("vertex", p.source.name, p.source.indices),)
            else:
                left_key = tuple(("arrow", a.name, a.indices) for a in p.arrows[:cut])
            if cut == p.length:
                right_key = (("vertex", p.target.name, p.target.indices),)
            else:
                right_key = tuple(("arrow", a.name, a.indices) for a in p.arrows[cut:])
            terms.append((basis.index_of_key(left_key),
                          basis.index_of_key(right_key), one))
        delta.append(tuple(terms))
        epsilon.append(field.zero)
    coalgebra = Coalgebra(field=field, dim=len(basis), labels=basis.labels(),
                          delta=tuple(delta), epsilon=tuple(epsilon))
    return coalgebra, basis
