"""End-to-end and per-layer benchmark of the qcalg command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-oracle --seed 1 --seconds 15 --trace 0

One process runs one workload: a single client calls ``qcalg.cli.main``
in process on a fixed list of seeded ops, each op after the previous one
finished (a closed loop), repeating passes over the list until
``--seconds`` have gone by.  Every output is checked (see checks.py).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A traced run first measures
untraced passes, then runs one more pass with the layer wrappers of
tracer.py installed; its reports must be byte-identical to the untraced
ones, and the wall-time difference is the tracing overhead.  Reported
times are scaled to a quiet reference host by timing a fixed routine just
before and after every op (hostspeed.py); the raw times are printed too.

Workloads (why each was chosen):

* analyze-oracle: ``analyze`` over QQ on locally finite path coalgebras
  with 0/1 structure constants (ex1, ex2, seeded declared-mode bouquets
  and fans, an acyclic all-mode ladder).  The wedge/ideal-product duality
  oracle takes most of the time here.
* analyze-sweep-gf: ``analyze`` over GF(101) on families where one vertex
  pair gets more parallel arrows as N grows.  Local finiteness fails, so
  the oracle is skipped; time goes to the F-Noetherian sweeps and Loewy
  series with GF(p) scalars.  Dims stay at most 100 < p, the range where
  the radical is valid.
* oneshot-dense: one-shot ``check``, ``analyze`` and every ``compute``
  operation, each loading its input fresh, on quiver truncations and on
  the same coalgebras written as structure-constants files in a seeded
  integer change of basis, so scalars are not 0/1.  It is the only
  workload that reaches ``textfmt.loads``, ``hom_space`` and wedges of
  arbitrary operands, and nothing is reused across its ops.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 15
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
GF_FIELD = "gf(101)"

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import checks  # noqa: E402
import gen  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed, scaled  # noqa: E402


@dataclass
class Op:
    argv: "list[str]"
    rc: int = 0
    golden: "str | None" = None  # key into goldens.json
    input_text: "str | None" = None
    expect: "Callable[[dict], None] | None" = None


class Inputs:
    """Seeded input files of one process, removed when it ends."""

    def __init__(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=SCRATCH))
        self.count = 0

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = self.dir / f"{self.count:02d}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- workloads ---------------------------------------------------------------------

def _golden(argv: "list[str]", rc: int = 0) -> Op:
    return Op(argv, rc=rc, golden=" ".join(argv))


def _analyze_quiver(shape: gen.Shape, n: int, inputs: Inputs, field: str) -> Op:
    text = shape.dsl(field)
    path = inputs.write(text, ".qd")
    return Op(["analyze", path, "--json", "--N", str(n)], input_text=text,
              expect=checks.analyze_quiver(shape.at(n), n, shape.growing_pairs(n),
                                           field))


def analyze_oracle(rng: random.Random, inputs: Inputs, tiny: bool) -> "list[Op]":
    fixed = [("ex1", 2)] if tiny else [("ex1", 3), ("ex2", 3), ("ex1", 4), ("ex2", 4)]
    ops = [_golden(["analyze", name, "--json", "--N", str(n)]) for name, n in fixed]
    # Op sizes are chosen so that the median and the tail sample each fall
    # inside a group of equal-cost ops whatever the number of passes: the
    # three N=5 ops and the ladder are the heaviest, so they hold the tail.
    sizes = ([("bouquet", 2, False), ("fan", 2, True)] if tiny else
             [("bouquet", 3, False), ("fan", 3, True), ("bouquet", 4, True),
              ("fan", 4, False), ("ladder", 3, False), ("bouquet", 5, False),
              ("fan", 5, True), ("bouquet", 5, True)])
    ops += [_analyze_quiver(gen.make_shape(kind, rng, flip), n, inputs, "rational")
            for kind, n, flip in sizes]
    return ops


def analyze_sweep_gf(rng: random.Random, inputs: Inputs, tiny: bool) -> "list[Op]":
    # The median sample falls in the middle of the three N=6 ops and the
    # tail sample among the three N=7 ops, whatever the number of passes.
    bounds = ((2, False), (3, True)) if tiny else (
        (4, False), (4, True), (5, False), (6, True), (6, True), (6, True),
        (7, False), (7, False), (7, False))
    return [_analyze_quiver(gen.make_shape("growing", rng, flip), n, inputs, GF_FIELD)
            for n, flip in bounds]


def _mult(q: gen.Quiver, g: str, quotient_by: "list[str]", side: str) -> int:
    """Socle multiplicity of the simple at vertex g in C / span(quotient_by).

    In a path coalgebra the weight-g vectors of that quotient are g itself
    (unless divided out) and the arrows that start in the divided-out set
    and end at g (right comodule), or start at g and end in it (left).
    """
    arrows = (q.arrow_count(set(quotient_by), {g}) if side == "right"
              else q.arrow_count({g}, set(quotient_by)))
    return (g not in quotient_by) + arrows


def _one_coalgebra(shape: gen.Shape, n: int, side: str, rng: random.Random,
                   inputs: Inputs) -> "list[Op]":
    """Every one-shot command on one truncation, once as quiver DSL and once
    as a structure-constants file in a changed basis.

    Operands sit at fixed positions of the vertex list (the hub or first
    vertex, the last two, ...): which vertex an op names changes its cost
    by up to a third, so the seed does not choose it.
    """
    q = shape.at(n)
    verts = list(q.vertices)
    quot = verts[-2:]
    g = verts[0]
    wx, wy = [verts[0], verts[-1]], [verts[1]]
    sg, sh = verts[1], verts[0]
    mults = {v: _mult(q, v, quot, side) for v in verts}
    wedge_dim = len(set(wx) | set(wy)) + q.arrow_count(set(wx), set(wy))
    counts = q.length_counts()
    qflag = ["--quotient-by", ",".join(quot), "--side", side]
    dsl = shape.dsl()
    sc = gen.changed_basis_text(q, rng, f"{shape.names['coalg']}_cb")
    ops: list[Op] = []
    for text, suffix, extra in ((dsl, ".qd", ["--N", str(n)]), (sc, ".sc", [])):
        path = inputs.write(text, suffix)

        def op(args, expect):
            return Op(args[:1] + [path] + args[1:] + ["--json"] + extra,
                      input_text=text, expect=expect)

        analyze = (checks.analyze_quiver(q, n, shape.growing_pairs(n), "rational")
                   if suffix == ".qd" else checks.analyze_finite(q))
        ops += [
            op(["check"], checks.check_passes(q)),
            op(["analyze"], analyze),
            op(["compute", "filtration"], checks.filtration(q)),
            op(["compute", "wedge", "--x", "C0", "--y", "C1"],
               checks.dim_is("dim", counts[min(2, len(counts) - 1)])),
            op(["compute", "wedge", "--x", ",".join(wx), "--y", ",".join(wy)],
               checks.dim_is("dim", wedge_dim)),
            op(["compute", "socle"] + qflag,
               checks.socle_is({v: m for v, m in mults.items() if m})),
            op(["compute", "mult", "--s", g] + qflag, checks.dim_is("count", mults[g])),
            op(["compute", "hom", "--simple", g] + qflag, checks.dim_is("dim", mults[g])),
            op(["compute", "skew", "--g", sg, "--h", sh],
               checks.dim_is("dim", q.arrow_count({sg}, {sh}) + 1)),
        ]
    return ops


def oneshot_dense(rng: random.Random, inputs: Inputs, tiny: bool) -> "list[Op]":
    ops = [
        _golden(["check", "mutant-ex1", "--json"], rc=1),
        _golden(["compute", "ex1", "wedge", "--x", "C0", "--y", "C0", "--json", "--N", "3"]),
        _golden(["compute", "ex2", "socle", "--json", "--N", "3"]),
    ]
    if not tiny:
        # The tail sample (the 11th slowest of about 300) must fall inside
        # one group of ops of equal cost, whatever the number of passes.
        # With this op, the four analyze ops of 0.38-0.43 s form that group;
        # without it, the tail sample jumped to the 0.33 s op below them.
        ops.append(_golden(["analyze", "ex1", "--json", "--N", "4"]))
    sizes = ([("bouquet", 2, False, "left"), ("fan", 2, True, "right")] if tiny else
             [("bouquet", 5, False, "left"), ("fan", 5, True, "right"),
              ("ladder", 3, False, "right")])
    for kind, n, flip, side in sizes:
        ops += _one_coalgebra(gen.make_shape(kind, rng, flip), n, side, rng, inputs)
    return ops


WORKLOADS = {
    "analyze-oracle": analyze_oracle,
    "analyze-sweep-gf": analyze_sweep_gf,
    "oneshot-dense": oneshot_dense,
}


def setup(workload: str, seed: int, tiny: bool = False) -> "tuple[list[Op], Inputs]":
    """Import the program and write the seeded inputs; all a user's run
    of the op list needs before its first op."""
    import qcalg.cli  # noqa: F401

    inputs = Inputs()
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, inputs, tiny), inputs


# -- running ops -------------------------------------------------------------------

def _call(argv: "list[str]") -> "tuple[object, str, str]":
    from qcalg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def run_pass(ops: "list[Op]", speed: HostSpeed,
             tracer=None) -> "tuple[list[tuple[float, object, str, str]], list[float]]":
    """Run every op once.  Returns (seconds, exit code, stdout, stderr) per
    op, and per op the host's reference time around it: the mean of the
    probes just before and just after the op (see hostspeed.py).

    The dual_and_radical lru_cache is global and unbounded.  A user runs
    each command in a new process and pays for it every time, so it is
    cleared before every op; kept warm, repeats of ``compute socle`` ran
    about twice as fast, which would measure a program no user runs.
    """
    from qcalg.comod import dual_and_radical

    results = []
    probes = []
    for idx, op in enumerate(ops):
        dual_and_radical.cache_clear()
        gc.collect()
        probes.append(speed.probe())
        start = perf_counter()
        if tracer is None:
            rc, out, err = _call(op.argv)
        else:
            rc, out, err = tracer.run_op(idx, lambda: _call(op.argv))
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.note_cache(dual_and_radical.cache_info())
        results.append((elapsed, rc, out, err))
    probes.append(speed.probe())
    return results, [(a + b) / 2 for a, b in zip(probes, probes[1:])]


def check_pass(checker, ops, results, reference) -> "list[str]":
    """Failure messages for one pass; reference holds the first pass's
    stdout, which every later pass must repeat byte for byte."""
    failures = []
    for idx, (op, (_, rc, out, err)) in enumerate(zip(ops, results)):
        try:
            if reference is not None and out != reference[idx]:
                raise checks.CheckFailed("report bytes differ from the first pass")
            checker.check(op, rc, out)
        except (checks.CheckFailed, KeyError, TypeError, IndexError) as exc:
            detail = err.strip().splitlines()[-1:] if err.strip() else []
            failures.append(f"{' '.join(op.argv)}: {exc!r} {' '.join(detail)}")
    return failures


def measure_setup(workload: str, seed: int,
                  speed: HostSpeed) -> "list[tuple[float, float]]":
    """Time from starting a fresh interpreter until its op list is ready,
    for SETUP_PROBES child processes: (seconds, host reference time around
    it) per child."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
        times[-1] = (times[-1], (before + speed.probe()) / 2)
    return times


def tail_latency(latencies: "list[float]") -> "tuple[float, float]":
    """(latency, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def traced_pass(ops, speed: HostSpeed):
    """One pass with the layer wrappers installed: (tracer, results, reference
    times around each op)."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        results, around = run_pass(ops, speed, tracer)
    finally:
        tracer.uninstall()
    return tracer, results, around


def traced_metrics(workload: str, ops, checker, reference, tracer, results,
                   traced_s: float, wall_s: float) -> "tuple[dict, list[str]]":
    """Per-layer metrics from the traced pass, and its failed checks.

    The traced reports must repeat the untraced ones byte for byte; the
    overhead is the traced pass's time minus the untraced ``wall_s``, both
    scaled to the same host speed.  Span times are as measured, unscaled.
    """
    from tracer import LAYERS, metric_specs

    failures = [f"traced: {msg}" for msg in check_pass(checker, ops, results, reference)]
    values, by_layer = tracer.summary()
    values["trace.overhead_s"] = traced_s - wall_s
    units = {name: unit for name, unit, _, _ in metric_specs()}
    units["trace.overhead_s"] = "s"
    print(f"traced pass: {len(ops)} ops, {len(tracer.spans)} spans, "
          f"{traced_s:.3f} s traced vs {wall_s:.3f} s untraced")
    total = sum(by_layer.values())
    for layer in LAYERS:
        print(f"  self time {layer:<10} {by_layer[layer]:10.4f} s "
              f"{100.0 * by_layer[layer] / total:6.2f} %")
    spans_path = SCRATCH / f"spans-{workload}.jsonl"
    tracer.write_spans(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, failures


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, ops: "list[Op] | None" = None) -> dict:
    """Measure one workload and return the result object.

    Every time reported as an end-to-end metric is scaled to the speed of a
    quiet reference host (see hostspeed.py): raw seconds times REFERENCE_S
    over the host's reference time around the op.  The raw figures are
    printed too.
    """
    speed = HostSpeed()
    setups = measure_setup(workload, seed, speed) if not trace else []
    built, inputs = setup(workload, seed, tiny)
    ops = ops if ops is not None else built
    checker = checks.Checker(ROOT / "docs" / "report-schema.json")
    try:
        passes: list = []  # raw seconds per op, one list per pass
        arounds: list = []  # host reference time around each of those ops
        failures: list = []
        reference = None
        begin = last = perf_counter()
        # Stop before a pass that would end after --seconds, so a run never
        # measures much longer than asked (at least one pass always runs).
        while not passes or 2 * perf_counter() - last - begin <= seconds:
            last = perf_counter()
            results, around = run_pass(ops, speed)
            failures += check_pass(checker, ops, results, reference)
            reference = reference or [out for _, _, out, _ in results]
            passes.append([r[0] for r in results])
            arounds.append(around)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Every op's median latency over the passes; their sum is one pass's
        # wall time.  Per-op medians resist the bursts of load that remain.
        op_s = [statistics.median(scaled(t, a) for t, a in zip(column, refs))
                for column, refs in zip(zip(*passes), zip(*arounds))]
        raw_op_s = [statistics.median(column) for column in zip(*passes)]
        wall_s = sum(op_s)
        latencies = [scaled(t, a) for p, r in zip(passes, arounds)
                     for t, a in zip(p, r)]
        attempted = len(latencies)
        print(f"{workload}: {len(ops)} ops per pass, {len(passes)} passes; host "
              f"reference {1e3 * statistics.median(speed.probes):.3f} ms median, "
              f"{1e3 * min(speed.probes):.3f} ms quickest, "
              f"{1e3 * REFERENCE_S:.3f} ms on the reference host")
        print(f"raw (unscaled): wall_s {sum(raw_op_s):.4f} s, "
              f"op_p50_s {statistics.median(raw_op_s):.4f} s")
        if trace:
            tracer, results, around = traced_pass(ops, speed)
            traced_s = sum(scaled(r[0], a) for r, a in zip(results, around))
            metrics, traced_failures = traced_metrics(
                workload, ops, checker, reference, tracer, results, traced_s, wall_s)
            attempted += len(ops)
            failures += traced_failures
        else:
            tail, pct = tail_latency(latencies)
            setup_s = statistics.median(scaled(t, a) for t, a in setups)
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                # The median over the op list of each op's median latency:
                # where the middle of all samples falls between two ops of
                # unequal cost, the plain sample median jumps between them.
                "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
                "op_tail_s": {"value": tail, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            print(f"{len(ops) / wall_s:.3f} ops/s; op_tail_s is p{pct:.1f} "
                  f"of {attempted} samples; raw setup_s "
                  f"{statistics.median(t for t, _ in setups):.4f} s")
        failed = len(failures)
        for msg in failures[:10]:
            print(f"FAILED {msg}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        print(f"fail_ratio {failed / attempted!r} ratio")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        inputs.remove()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcalg").is_dir():
        print(f"error: no qcalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["QCALG_COLOR"] = "0"
    if args.setup_probe:
        _, inputs = setup(args.workload, args.seed)
        print("ready", flush=True)
        inputs.remove()
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
