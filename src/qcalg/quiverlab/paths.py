"""Path enumeration and compilation of quiver specs into coalgebras.

A truncation is selected by a family bound (every parameter set to N) and
an optional maximum path length.  The enumerated basis is closed under
contiguous subpaths, which is exactly what makes its span a subcoalgebra
of the full path coalgebra.  Both modes start from the vertices and the
arrows sorted once by name and indices (BY_NAME).  All-mode walks then
grow from them one length at a time, each walk in order extended by the
sorted arrows out of its target, so every length comes out in canonical
order and the size budget refuses at the walk that passes it in that
order.  A declared list is closed when each path's prefix and tail are
listed, so closure is checked through the links the compile reads
(declared_paths), and a missing subpath is looked for only to name it.
The probes' path counts (path_counts) read the same check and cycle
test, so they refuse an instance where enumeration does.

A spec keeps one table (QuiverSpec.table, a SpecTable) of the vertices
and arrows instantiate hands out, so every bound of one spec shares one
object per vertex, keyed by name and indices, and per arrow, keyed also
by its endpoints' keys (in ``x[i]: a -> b[N]`` the arrow x[1] ends at
b[N], elsewhere at each bound).  Each object builds its label and its
one-element path once.  Each instance still builds its own dicts, so the
duplicate, endpoint and size budget checks read that instance alone;
index expressions are compiled once per source text (dsl._expr_plan).
Enumeration links an arrow to its endpoints by label, declared mode
builds key tuples only for declared paths, and PathBasis.place_in
compares shared objects, which a comparison settles by identity.

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
from operator import attrgetter, itemgetter

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
    label: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "label", format_label(self.name, self.indices))

    @cached_property
    def path(self) -> "Path":
        """The vertex as a path of length 0."""
        return Path(self.label, self, self, ())


@dataclass(frozen=True)
class Arrow:
    """An instantiated arrow; ``line`` is the DSL line of its declaration."""

    name: str
    indices: "tuple[int, ...]"
    src: Vertex
    dst: Vertex
    line: int = field(default=1, compare=False)
    label: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "label", format_label(self.name, self.indices))

    @cached_property
    def path(self) -> "Path":
        """The arrow as a path of length 1."""
        return Path(self.label, self.src, self.dst, (self,))


# The canonical order of vertices, and of arrows, among the paths of one
# length; analyze lists its vertex tables in it too.
BY_NAME = attrgetter("name", "indices")


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

    def key(self) -> "tuple[str, ...]":
        """The labels of its arrows: a path of one arrow or more is the one
        with that key, as a label names one arrow."""
        return tuple(a.label for a in self.arrows)

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


class SpecTable:
    """The vertices and arrows that instantiate hands out for one spec
    (QuiverSpec.table), one object each at every bound: a vertex keyed by
    its name and indices, an arrow by those and its endpoints' (in a
    family like ``x[i]: a -> b[N]`` an arrow ends elsewhere at each
    bound).  Each object builds its label and its one-element path once.
    Two threads may build one object at once: setdefault keeps the first,
    and each instance holds the one kept.
    """

    def __init__(self):
        self.vertices: "dict[tuple, Vertex]" = {}
        self.arrows: "dict[tuple, Arrow]" = {}


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


def _iter_envs(decl, env: "dict[str, int]", counted: "list[int]", idx: int = 0,
               walked: "list[int] | None" = None):
    """All assignments of decl's range variables, nested left to right,
    each set in env (which holds the parameters) when it is yielded; env
    is as it was once they are all yielded.

    Each assignment counts against the size budget, in counted[0], which
    every declaration of one instance shares.  So does every value given
    to a range other than the innermost, in walked[0], so nested ranges
    that yield few or no assignments still cannot walk without bound."""
    ranges = decl.ranges
    if not ranges:
        _count(decl, counted)
        yield
        return
    r = ranges[idx]
    lo = _eval_expr(r.lo, env, r.line)
    hi = _eval_expr(r.hi, env, r.line)
    if hi - lo + 1 > SIZE_BUDGET:
        raise DslError(f"range {r.var}={lo}..{hi} has {hi - lo + 1} values, "
                       f"more than the size budget of {SIZE_BUDGET}", r.line)
    var, held = r.var, env.get(r.var, _UNSET)
    if idx == len(ranges) - 1:
        for val in range(lo, hi + 1):
            env[var] = val
            _count(decl, counted)
            yield
    else:
        walked = walked or [0]
        for val in range(lo, hi + 1):
            walked[0] += 1
            if walked[0] > SIZE_BUDGET:
                raise DslError(f"the ranges enclosing {ranges[-1].var} take "
                               f"more than {SIZE_BUDGET} values: past the size budget",
                               r.line)
            env[var] = val
            yield from _iter_envs(decl, env, counted, idx + 1, walked)
    if held is _UNSET:
        env.pop(var, None)
    else:
        env[var] = held


_UNSET = object()


def _count(decl, counted: "list[int]") -> None:
    counted[0] += 1
    if counted[0] > SIZE_BUDGET:
        raise DslError(f"more than {SIZE_BUDGET} vertices, arrows and "
                       "declared paths: past the size budget", decl.line)


def _not_a_vertex(key: tuple, ref) -> DslError:
    return DslError(f"endpoint {format_label(*key)} is not a declared vertex", ref.line)


def _indices_of(binders: "tuple[str, ...]"):
    """A function of env to the tuple of its values at binders."""
    if len(binders) == 1:
        (name,) = binders
        return lambda env: (env[name],)
    if not binders:
        return lambda env: ()
    return itemgetter(*binders)


def instantiate(spec: QuiverSpec, n_bound: "int | None" = None) -> QuiverInstance:
    """Concrete vertices, arrows and declared paths at a family bound.

    ``n_bound`` overrides every parameter; None keeps the declared
    defaults.  The vertices and arrows are spec.table's, shared by every
    bound; the checks (a duplicate, an endpoint that is not a vertex, the
    size budget) are this instance's own.
    """
    params = spec.param_map()
    if n_bound is not None:
        if n_bound < 0:
            raise ValueError("family bound must be nonnegative")
        params = {k: n_bound for k in params}
    table = spec.table
    env = dict(params)
    counted = [0]

    vertices: dict[tuple, Vertex] = {}
    shared_vertices = table.vertices
    for decl in spec.vertices:
        name, indices_of = decl.name, _indices_of(decl.binders)
        for _ in _iter_envs(decl, env, counted):
            key = (name, indices_of(env))
            if key in vertices:
                raise DslError(f"vertex {format_label(*key)} instantiated twice", decl.line)
            vertices[key] = (shared_vertices.get(key)
                             or shared_vertices.setdefault(key, Vertex(*key)))

    arrows: dict[tuple, Arrow] = {}
    shared_arrows = table.arrows
    for decl in spec.arrows:
        name, indices_of = decl.name, _indices_of(decl.binders)
        src_of, dst_of = decl.src.instantiate, decl.dst.instantiate
        for _ in _iter_envs(decl, env, counted):
            key = (name, indices_of(env))
            src_key = src_of(env)
            if src_key not in vertices:
                raise _not_a_vertex(src_key, decl.src)
            dst_key = dst_of(env)
            if dst_key not in vertices:
                raise _not_a_vertex(dst_key, decl.dst)
            if key in arrows:
                raise DslError(f"arrow {format_label(*key)} instantiated twice", decl.line)
            ends = (key, src_key, dst_key)
            arrows[key] = shared_arrows.get(ends) or shared_arrows.setdefault(
                ends, Arrow(*key, vertices[src_key], vertices[dst_key], decl.line))

    declared: list[Path] = []
    for decl in spec.extra_paths:
        indices_of = _indices_of(decl.binders)
        for _ in _iter_envs(decl, env, counted):
            chain: list[Arrow] = []
            for seg in decl.segments:
                key = seg.instantiate(env)
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
            declared.append(Path(format_label(decl.name, indices_of(env)), chain[0].src,
                                 chain[-1].dst, tuple(chain), decl.line))

    return QuiverInstance(tuple(vertices.values()), tuple(arrows.values()),
                          tuple(declared))


def _refuse_unclosed(arrows: "tuple[Arrow, ...]", paths) -> None:
    """_closure_check of declared paths, run only when some prefix or tail
    is neither declared nor an arrow: else, by induction, every subpath is."""
    if not paths:
        return
    keys = {p.key() for p in paths}
    labels = {a.label for a in arrows}
    if not all(_listed(key[:-1], keys, labels) and _listed(key[1:], keys, labels)
               for key in keys):
        _closure_check(keys, labels, paths)


def _listed(key: "tuple[str, ...]", keys: "set[tuple]", labels: "set[str]") -> bool:
    """Whether the path with key is an arrow (one of labels) or declared."""
    return key[0] in labels if len(key) == 1 else key in keys


def _closure_check(keys: "set[tuple]", labels: "set[str]", paths) -> None:
    for p in paths:
        if p.length < 2:
            continue
        key = p.key()
        for i in range(p.length):
            for j in range(i + 1, p.length + 1):
                if (i, j) == (0, p.length):
                    continue
                if not _listed(key[i:j], keys, labels):
                    missing = ".".join(key[i:j])
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

    Both modes start from the sorted vertices and arrows: a vertex is its
    own prefix and tail, an arrow's are its endpoints, found by label.
    Declared mode then appends the list that declared_paths checks, each
    path's prefix and tail found by key.  All mode extends the walks in
    place (_extend_walks), and refuses a cyclic instance unless a depth
    bound is given.
    """
    declared_mode = spec.path_mode == "declared"
    if not declared_mode and depth is None:
        _refuse_cycle(inst)
    vertices = sorted(inst.vertices, key=BY_NAME)
    arrows = sorted(inst.arrows, key=BY_NAME) if depth is None or depth >= 1 else []
    paths = [v.path for v in vertices] + [a.path for a in arrows]
    at = {v.label: i for i, v in enumerate(vertices)}
    prefix = list(range(len(vertices)))
    tail = list(prefix)
    prefix += [at[a.src.label] for a in arrows]
    tail += [at[a.dst.label] for a in arrows]
    if not declared_mode:
        _extend_walks(paths, prefix, tail, arrows, depth)
    else:
        declared = declared_paths(inst, depth)
        # Each path of one arrow or more by its key, for its prefix and tail.
        at = {(a.label,): i for i, a in enumerate(arrows, len(vertices))}
        keys = [p.key() for p in declared]
        at.update((key, i) for i, key in enumerate(keys, len(paths)))
        paths += declared
        prefix += [at[key[:-1]] for key in keys]
        tail += [at[key[1:]] for key in keys]
    labels = [p.label for p in paths]
    if len(set(labels)) != len(labels):
        raise DslError("duplicate path labels after instantiation", 1)
    return PathBasis(tuple(paths), tuple(prefix), tuple(tail), inst, depth)


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


def _refuse_cycle(inst: QuiverInstance) -> None:
    """Refuse all-mode enumeration of a cyclic instance with no depth
    bound, at the first declared arrow out of the first vertex on a cycle
    whose target leads back to it."""
    reach = inst.reachability
    cyclic = cycle_vertices(reach)
    if cyclic:
        v = cyclic[0]
        on_cycle = next(a for a in inst.arrows if a.src.label == v
                        and (a.dst.label == v or v in reach[a.dst.label]))
        raise DslError("all-paths mode on a cyclic quiver needs a depth "
                       f"bound (cycle through {v})", on_cycle.line)


def _extend_walks(paths: "list[Path]", prefix: "list[int]", tail: "list[int]",
                  arrows: "list[Arrow]", depth: "int | None") -> None:
    """Extend the vertices and sorted arrows in paths, linked in prefix and
    tail, by every longer walk up to depth, in place and in canonical order.

    Each walk of the last length, in order, is extended by the arrows out
    of its target, in order, so each length comes out ordered by its
    prefix's position and then its last arrow, which is the canonical
    order, and the size budget refuses at the last arrow of the walk that
    passes it.  A walk's tail is its prefix's tail extended by the same
    arrow, placed already.
    """
    out: dict[str, list[tuple]] = {}  # source label -> (arrow, label)
    step: dict[tuple, int] = {}  # (walk, arrow label) -> that walk extended
    start = len(paths) - len(arrows)
    for i, a in enumerate(arrows, start):
        out.setdefault(a.src.label, []).append((a, a.label))
        step[(prefix[i], a.label)] = i
    while start < len(paths) and (depth is None or paths[start].length < depth):
        end = len(paths)
        for w in range(start, end):
            p = paths[w]
            for a, label in out.get(p.target.label, ()):
                if len(paths) >= SIZE_BUDGET:
                    raise DslError(f"more than {SIZE_BUDGET} paths in all-paths "
                                   "mode: past the size budget", a.line)
                step[(w, label)] = len(paths)
                prefix.append(w)
                tail.append(step[(tail[w], label)])
                paths.append(Path(f"{p.label}.{label}", p.source, a.dst, p.arrows + (a,)))
        start = end


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
