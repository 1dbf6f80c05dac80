"""Path enumeration and compilation of quiver specs into coalgebras.

A truncation is selected by a family bound (every parameter set to N) and
an optional maximum path length.  The enumerated basis is closed under
contiguous subpaths, which is exactly what makes its span a subcoalgebra
of the full path coalgebra.  All-mode walks grow from enumerated walks.  A
declared list is closed when each path's prefix and tail are listed, so
closure is checked through the links the compile reads (declared_paths),
and a missing subpath is looked for only to name it.  The probes' path
counts (path_counts) read the same check and cycle test, so they refuse
an instance where enumeration does.

The basis is a path trie: each path records the index of its prefix (its
last arrow dropped) and of its tail (its first arrow dropped), and an
all-mode walk takes its label from its prefix's.  Compilation splits each
basis path at every position along those links: the cut after c of its L
arrows is (prefix^(L-c) p, tail^c p), the trivial source/target vertex
paths at the ends, so Delta costs O(L) per path.  The counit is 1 on
vertices and 0 on longer paths.  Increasing the truncation only adds basis
elements; the comultiplication of an existing path never changes.
"""

from __future__ import annotations

from collections import Counter
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
class QuiverInstance:
    vertices: "tuple[Vertex, ...]"
    arrows: "tuple[Arrow, ...]"
    declared_paths: "tuple[Path, ...]"

    @cached_property
    def reachability(self) -> "dict[str, set[str]]":
        """For each vertex label, the labels reachable by a walk of one or
        more arrows, found once per instance; a vertex lies on a cycle
        exactly when it reaches itself."""
        successors: dict[str, set[str]] = {v.label: set() for v in self.vertices}
        for a in self.arrows:
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


@dataclass(frozen=True)
class PathBasis:
    """Basis paths in the canonical order: by length, then lexicographic.

    prefix[i] and tail[i] index path i with its last and with its first
    arrow dropped; a vertex is its own prefix and tail.  instance and depth
    are the instance the paths were enumerated from and the length bound.
    """

    paths: "tuple[Path, ...]"
    prefix: "tuple[int, ...]"
    tail: "tuple[int, ...]"
    instance: "QuiverInstance | None" = field(default=None, compare=False)
    depth: "int | None" = field(default=None, compare=False)

    @cached_property
    def _by_label(self) -> "dict[str, int]":
        return {p.label: i for i, p in enumerate(self.paths)}

    def __len__(self) -> int:
        return len(self.paths)

    def index_of_label(self, label: str) -> int:
        if label not in self._by_label:
            raise KeyError(f"unknown basis label {label!r}")
        return self._by_label[label]

    def labels(self) -> "tuple[str, ...]":
        return tuple(p.label for p in self.paths)

    def vertices(self) -> "list[Vertex]":
        return [p.source for p in self.paths if p.length == 0]

    def place_in(self, other: "PathBasis") -> "list[int] | None":
        """other's index of each path of self when every path of self is a
        path of other, equal label, endpoints and arrows, else None.

        A vertex or an arrow is compared whole; a longer path by its links,
        as it is the one path with that prefix and that tail, both placed
        already (the order is by length).  A basis placed so spans a
        subcoalgebra of other's, with the same Delta: Delta splits a path
        into its subpaths, which the basis holds."""
        by_label = other._by_label
        place: list[int] = []
        for i, p in enumerate(self.paths):
            j = by_label.get(p.label)
            if j is None:
                return None
            if len(p.arrows) < 2:
                if other.paths[j] != p:
                    return None
            elif (other.prefix[j] != place[self.prefix[i]]
                  or other.tail[j] != place[self.tail[i]]):
                return None
            place.append(j)
        return place


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


def _refuse_unclosed(arrows: "tuple[Arrow, ...]", paths) -> None:
    """_closure_check of declared paths, run only when some prefix or tail
    is neither declared nor an arrow: else, by induction, every subpath is."""
    keys = {p.key() for p in paths} | {(("arrow", a.name, a.indices),) for a in arrows}
    if any(key[:-1] not in keys or key[1:] not in keys for key in keys if len(key) > 1):
        _closure_check(keys, paths)


def _closure_check(keys: "set[tuple]", paths) -> None:
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

    Declared mode takes the sorted vertices and arrows and the declared
    list that declared_paths checks, linked by key: a vertex to itself, an
    arrow to its endpoints and a declared path to its prefix and tail.  All
    mode walks the instantiated graph and therefore refuses cyclic
    instances unless a depth bound is given.
    """
    vertices = [Path(v.label, v, v, ()) for v in inst.vertices]
    arrows = ([Path(a.label, a.src, a.dst, (a,)) for a in inst.arrows]
              if depth is None or depth >= 1 else [])
    if spec.path_mode == "declared":
        ordered = sorted(vertices + arrows, key=Path.sort_key) + declared_paths(inst, depth)
        keys = [p.key() for p in ordered]
        at = {key: i for i, key in enumerate(keys)}
        # The key of each vertex, for the empty prefix and tail of a vertex or an arrow.
        own = {p.source: key for p, key in zip(ordered, keys) if not p.arrows}
        prefix = [at[key[:-1] or own[p.source]] for p, key in zip(ordered, keys)]
        tail = [at[key[1:] or own[p.target]] for p, key in zip(ordered, keys)]
    else:
        ordered, prefix, tail = _walks(inst, vertices, arrows, depth)
    labels = [p.label for p in ordered]
    if len(set(labels)) != len(labels):
        raise DslError("duplicate path labels after instantiation", 1)
    return PathBasis(tuple(ordered), tuple(prefix), tuple(tail), inst, depth)


def declared_paths(inst: QuiverInstance, depth: "int | None" = None) -> "list[Path]":
    """inst's declared paths up to depth in canonical order, refused as
    enumeration refuses them.

    Two paths that coincide are refused first, in declaration order, at the
    later line; a declared path has two arrows or more, so it never
    coincides with an arrow.  Then _refuse_unclosed looks each path's
    prefix and tail up by key: the list is closed under subpaths when each
    is listed (by induction on the length), and only on a miss does
    _closure_check name the first path in canonical order that is not
    closed, and its missing subpath, at its line.
    """
    unique: dict[tuple, Path] = {}
    for p in inst.declared_paths:
        if depth is not None and p.length > depth:
            continue
        key = p.key()
        if key in unique:
            raise DslError(f"paths {unique[key].label} and {p.label} coincide",
                           max(unique[key].line, p.line))
        unique[key] = p
    ordered = sorted(unique.values(), key=Path.sort_key)
    _refuse_unclosed(inst.arrows, ordered)
    return ordered


def path_counts(spec: QuiverSpec, inst: QuiverInstance) -> "dict[str, dict[str, int]]":
    """For each side, the number of paths of enumerate_instance(spec, inst)
    ending at (left) or starting at (right) each vertex label, the
    dimensions of the injective indecomposables on that side, or its
    refusal.

    Declared mode counts the vertices, the arrows and the list that
    declared_paths checks.  The duplicate-label refusal cannot meet a
    count: parse_spec refuses a name declared twice, and a declaration's
    binders are exactly its range variables.  All mode counts along the
    arrows, the paths into v being v and each path into u followed by an
    arrow u -> v, and dually out of v, taking each arrow u -> v after those
    into u: with no cycle (cycle_vertices), |reach(u)| > |reach(v)|.  A
    cyclic instance, or one whose count passes the size budget, is
    enumerated, which refuses it with its message and line.
    """
    into = {v.label: 1 for v in inst.vertices}
    out_of = dict(into)
    if spec.path_mode == "declared":
        ends = [(a.src, a.dst) for a in inst.arrows]
        ends += [(q.source, q.target) for q in declared_paths(inst)]
        for src, dst in ends:
            out_of[src.label] += 1
            into[dst.label] += 1
        return {"left": into, "right": out_of}
    reach = inst.reachability
    if not cycle_vertices(reach):
        by_reach = sorted(inst.arrows, key=lambda a: len(reach[a.src.label]))
        for a in reversed(by_reach):
            into[a.dst.label] += into[a.src.label]
        for a in by_reach:
            out_of[a.src.label] += out_of[a.dst.label]
        if sum(into.values()) <= SIZE_BUDGET:
            return {"left": into, "right": out_of}
    basis = enumerate_instance(spec, inst)
    return {"left": dict(Counter(q.target.label for q in basis.paths)),
            "right": dict(Counter(q.source.label for q in basis.paths))}


def _walks(inst: QuiverInstance, vertices: "list[Path]", arrows: "list[Path]",
           depth: "int | None") -> "tuple[list[Path], list[int], list[int]]":
    """Every walk of inst up to depth in canonical order, with the prefix
    and tail index of each.

    Walks grow one length at a time, each walk by the arrows out of its
    target in declared order, so the size budget refuses at the arrow that
    passes it.  A walk's tail is its prefix's tail extended by the same
    arrow.  Each length is then ordered by its prefix's position and its
    last arrow, which is the canonical order.
    """
    if depth is None:
        reach = inst.reachability
        cyclic = cycle_vertices(reach)
        if cyclic:
            v = cyclic[0]
            # The first declared arrow out of v whose target leads back to v.
            on_cycle = next(a for a in inst.arrows if a.src.label == v
                            and (a.dst.label == v or v in reach[a.dst.label]))
            raise DslError("all-paths mode on a cyclic quiver needs a depth "
                           f"bound (cycle through {v})", on_cycle.line)
    rank = {a.label: r for r, a in enumerate(sorted(inst.arrows,
                                                    key=lambda a: (a.name, a.indices)))}
    paths = vertices + arrows
    vertex_at = {p.source.label: i for i, p in enumerate(vertices)}
    prefix = list(range(len(vertices)))
    tail = list(prefix)
    target = list(vertex_at)  # each walk's target label
    last = [-1] * len(vertices)  # each walk's last arrow, by rank
    step: dict[tuple, int] = {}  # (walk, arrow label) -> that walk extended
    out: dict[str, list[tuple]] = {}  # source label -> (arrow, label, target label)
    for i, p in enumerate(arrows, len(vertices)):
        a = p.arrows[0]
        label, src, dst = p.label, a.src.label, a.dst.label
        prefix.append(vertex_at[src])
        tail.append(vertex_at[dst])
        target.append(dst)
        last.append(rank[label])
        step[(prefix[i], label)] = i
        out.setdefault(src, []).append((a, label, dst))
    levels = [list(range(len(vertices))), list(range(len(vertices), len(paths)))]
    while levels[-1] and (depth is None or len(levels) <= depth):
        longer: list[int] = []
        for w in levels[-1]:
            p = paths[w]
            for a, label, dst in out.get(target[w], ()):
                if len(paths) >= SIZE_BUDGET:
                    raise DslError(f"more than {SIZE_BUDGET} paths in all-paths "
                                   "mode: past the size budget", a.line)
                i = len(paths)
                paths.append(Path(f"{p.label}.{label}", p.source, a.dst, p.arrows + (a,)))
                prefix.append(w)
                tail.append(step[(tail[w], label)])
                target.append(dst)
                last.append(rank[label])
                step[(w, label)] = i
                longer.append(i)
        levels.append(longer)

    position = [0] * len(paths)

    def canonical(i: int) -> tuple:
        p = paths[i]
        if not p.arrows:
            return (p.source.name, p.source.indices)
        # A longer walk's arrows but the last are its prefix's, placed already.
        return (position[prefix[i]] if len(p.arrows) > 1 else -1, last[i])

    order: list[int] = []
    for level in levels:
        for i in sorted(level, key=canonical):
            position[i] = len(order)
            order.append(i)
    return ([paths[i] for i in order], [position[prefix[i]] for i in order],
            [position[tail[i]] for i in order])


def dry_run_validate(spec: QuiverSpec) -> None:
    """Parse-time validation: endpoints, composability, subpath closure.

    Runs at the declared parameter defaults.  Deliberately tolerates
    cyclic all-mode quivers, which only need a depth bound later.
    """
    inst = instantiate(spec)
    _refuse_unclosed(inst.arrows, inst.declared_paths)


def compile_truncation(spec: QuiverSpec, n_bound: "int | None" = None,
                       depth: "int | None" = None, *,
                       instance: "QuiverInstance | None" = None
                       ) -> "tuple[Coalgebra, PathBasis]":
    """Compile a truncation into a coalgebra by concatenation splitting.

    instance, when given, is spec's instance at n_bound, built already;
    otherwise the bound is instantiated here.  The cut of a path p of
    length L after c arrows is (prefix^(L-c) p, tail^c p), read along the
    basis's links.
    """
    if instance is None:
        instance = instantiate(spec, n_bound)
    basis = enumerate_instance(spec, instance, depth)
    one, zero = spec.field.one, spec.field.zero
    prefix, tail = basis.prefix, basis.tail
    delta: list = []
    for i, p in enumerate(basis.paths):
        lefts, rights = [i], [i]
        for _ in p.arrows:
            lefts.append(prefix[lefts[-1]])
            rights.append(tail[rights[-1]])
        delta.append(tuple((j, k, one) for j, k in zip(reversed(lefts), rights)))
    epsilon = tuple(zero if p.arrows else one for p in basis.paths)
    coalgebra = Coalgebra(field=spec.field, dim=len(basis), labels=basis.labels(),
                          delta=tuple(delta), epsilon=epsilon)
    return coalgebra, basis
