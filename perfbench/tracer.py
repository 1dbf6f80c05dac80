"""Per-layer tracing of qcalg from outside the package.

The tracer wraps public functions of each module (the layers) and
replaces every reference to them in the loaded ``qcalg`` modules, so a
call through a by-name import such as ``qcalg.cli.wedge`` is traced as
well as one through ``qcalg.coalg.wedge``.  Each call records a span
(name, start, end, parent span, op id) in memory; counters are taken in
the same wrappers.  Self time is a span's duration minus the time its
child spans cover.  Nothing under ``src/`` is modified: ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer).  An attribute "Class.method" wraps a method.
TARGETS = (
    ("qcalg.quiverlab.analyze", "locally_finite_verdict", "analyze"),
    ("qcalg.quiverlab.analyze", "semiperfect_verdict", "analyze"),
    ("qcalg.quiverlab.analyze", "degree_tables", "analyze"),
    ("qcalg.quiverlab.analyze", "fnoetherian_sweep", "analyze"),
    ("qcalg.quiverlab.analyze", "_duality_oracle", "analyze"),
    ("qcalg.coalg", "wedge", "coalg"),
    ("qcalg.coalg", "ideal_product", "coalg"),
    ("qcalg.coalg", "radical", "coalg"),
    ("qcalg.coalg", "skew_primitives", "coalg"),
    ("qcalg.coalg", "check_axioms", "coalg"),
    ("qcalg.coalg", "coradical_filtration", "coalg"),
    ("qcalg.comod", "loewy_series", "comod"),
    ("qcalg.comod", "quotient_with_projection", "comod"),
    ("qcalg.comod", "weight_space", "comod"),
    ("qcalg.comod", "socle", "comod"),
    ("qcalg.comod", "hom_space", "comod"),
    ("qcalg.exactlin", "_rref", "exactlin"),
    ("qcalg.exactlin", "kernel", "exactlin"),
    ("qcalg.exactlin", "preimage", "exactlin"),
    ("qcalg.exactlin", "Subspace.intersect", "exactlin"),
    ("qcalg.quiverlab.paths", "compile_truncation", "paths"),
    ("qcalg.quiverlab.paths", "enumerate_paths", "paths"),
    ("qcalg.quiverlab.paths", "instantiate", "paths"),
    ("qcalg.quiverlab.dsl", "parse_spec", "dsl"),
    ("qcalg.textfmt", "loads", "textfmt"),
    ("qcalg.report", "ReportDocument.to_json", "report/cli"),
)

ROOT_SPAN = "cli.main"
LAYERS = ("exactlin", "coalg", "comod", "paths", "dsl", "analyze", "textfmt",
          "report/cli")

# Per-layer metrics: (name, unit, better, source).  The source is
# ("incl", fn) inclusive seconds, ("self", fn) self seconds, ("calls", fn),
# or ("count", key) for a counter kept by a hook.  Values are totals over
# the traced pass.
_STAGES = ("locally_finite_verdict", "semiperfect_verdict", "degree_tables",
           "fnoetherian_sweep", "_duality_oracle")
_CALLS_AND_SELF = (
    ("coalg", ("wedge", "ideal_product", "radical", "skew_primitives",
               "check_axioms", "coradical_filtration")),
    ("comod", ("loewy_series", "quotient_with_projection", "weight_space",
               "socle", "hom_space")),
    ("exactlin", ("_rref", "kernel", "preimage", "Subspace.intersect")),
    ("paths", ("compile_truncation", "enumerate_paths", "instantiate")),
)


def metric_specs() -> "list[tuple[str, str, str, tuple]]":
    specs = [(f"analyze.{fn}.s", "s", "lower", ("incl", fn)) for fn in _STAGES]
    specs.append(("analyze._duality_oracle.pairs", "count", "higher",
                  ("count", "_duality_oracle.pairs")))
    for layer, fns in _CALLS_AND_SELF:
        for fn in fns:
            specs.append((f"{layer}.{fn}.calls", "count", "lower", ("calls", fn)))
            specs.append((f"{layer}.{fn}.self_s", "s", "lower", ("self", fn)))
    specs += [
        ("comod.dual_and_radical.calls", "count", "lower",
         ("count", "dual_and_radical.calls")),
        ("comod.dual_and_radical.hit_ratio", "ratio", "higher",
         ("count", "dual_and_radical.hit_ratio")),
        ("exactlin._rref.rows_in", "count", "lower", ("count", "_rref.rows_in")),
        ("exactlin._rref.rank_ratio", "ratio", "higher", ("count", "_rref.rank_ratio")),
        ("exactlin.preimage.max_rows", "count", "lower", ("count", "preimage.max_rows")),
        ("paths.compile_truncation.distinct_ratio", "ratio", "higher",
         ("count", "compile_truncation.distinct_ratio")),
        ("dsl.parse_spec.self_s", "s", "lower", ("self", "parse_spec")),
        ("textfmt.loads.self_s", "s", "lower", ("self", "loads")),
        ("report.to_json.self_s", "s", "lower", ("self", "ReportDocument.to_json")),
    ]
    return specs


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, meth, owner.__dict__[meth]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters for the ops run while installed."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict = defaultdict(int)
        self.max_rows = 0
        self._compile_keys: set = set()
        self._distinct_compiles = 0
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op_id)

    def _wrapper(self, name: str, fn):
        hook = getattr(self, "_hook_" + name.lstrip("_").replace(".", "_"), None)
        if hook is not None:
            return lambda *args, **kwargs: hook(fn, args, kwargs)
        return lambda *args, **kwargs: self.span(name, fn, args, kwargs)

    # -- counters at the same boundaries -------------------------------------

    def _hook_rref(self, fn, args, kwargs):
        rows = list(args[0])
        out = self.span("_rref", fn, (rows,), kwargs)
        self.counts["_rref.rows_in"] += len(rows)
        self.counts["_rref.rows_out"] += len(out)
        return out

    def _hook_preimage(self, fn, args, kwargs):
        f = args[0] if args else kwargs["f"]
        self.max_rows = max(self.max_rows, f.rows)
        return self.span("preimage", fn, args, kwargs)

    def _hook_duality_oracle(self, fn, args, kwargs):
        out = self.span("_duality_oracle", fn, args, kwargs)
        self.counts["_duality_oracle.pairs"] += out["pairs_checked"]
        return out

    def _hook_compile_truncation(self, fn, args, kwargs):
        bound = self._compile_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (bound.arguments["spec"], bound.arguments["n_bound"],
               bound.arguments["depth"])
        if key not in self._compile_keys:
            self._compile_keys.add(key)
            self._distinct_compiles += 1
        return self.span("compile_truncation", fn, args, kwargs)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "qcalg" or name.startswith("qcalg.")]
        for module, attr, _ in TARGETS:
            owner, key, original = _resolve(module, attr)
            if attr == "compile_truncation":
                self._compile_sig = inspect.signature(original)
            wrapped = self._wrapper(attr, original)
            self._saved.append((owner, key, original))
            setattr(owner, key, wrapped)
            if owner is sys.modules[module]:
                for mod in loaded:
                    for ref, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, ref, original))
                            setattr(mod, ref, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def run_op(self, op_id: int, call):
        """Run one op under a root span; per-op state resets here."""
        self.op_id = op_id
        self._compile_keys = set()
        return self.span(ROOT_SPAN, call, (), {})

    def note_cache(self, info) -> None:
        """Hits and misses of the dual_and_radical cache for one op, read
        from cache_info() before the cache is cleared for the next op."""
        self.counts["dual_and_radical.hits"] += info.hits
        self.counts["dual_and_radical.calls"] += info.hits + info.misses

    # -- reduction -----------------------------------------------------------

    def summary(self) -> "tuple[dict, dict]":
        """(per-layer metric values, self seconds per layer) of the traced ops."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child_time[idx]
        c = self.counts
        derived = {
            "_duality_oracle.pairs": c["_duality_oracle.pairs"],
            "dual_and_radical.calls": c["dual_and_radical.calls"],
            "dual_and_radical.hit_ratio": _ratio(c["dual_and_radical.hits"],
                                                 c["dual_and_radical.calls"]),
            "_rref.rows_in": c["_rref.rows_in"],
            "_rref.rank_ratio": _ratio(c["_rref.rows_out"], c["_rref.rows_in"]),
            "preimage.max_rows": self.max_rows,
            "compile_truncation.distinct_ratio": _ratio(
                self._distinct_compiles, calls["compile_truncation"]),
        }
        source = {"incl": incl, "self": self_s, "calls": calls, "count": derived}
        values = {metric: source[kind][key]
                  for metric, _, _, (kind, key) in metric_specs()}
        layer_of = {attr: layer for _, attr, layer in TARGETS}
        layer_of[ROOT_SPAN] = "report/cli"
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, secs in self_s.items():
            by_layer[layer_of[name]] += secs
        return values, by_layer

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
