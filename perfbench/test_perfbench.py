"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench

Tiny-size smoke passes of every workload, a check that every metric in
BENCHMARK.json prints with its unit, and checks that the output checks are
live: a wrong golden, wrong expected dims or a wrong exit code must count
as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from dataclasses import replace

import pytest

import run
from tracer import metric_specs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _printed_units(text: str) -> dict:
    units = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3:
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
    printed = _printed_units(capsys.readouterr().out)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert printed["fail_ratio"] == "ratio"


def test_benchmark_json_lists_the_tracer_metrics():
    names = [(name, unit, better) for name, unit, better, _ in metric_specs()]
    names.append(("trace.overhead_s", "s", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == names
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def _failed(workload: str, ops) -> int:
    result = run.run(workload, seed=3, seconds=0, trace=False, tiny=True, ops=ops)
    assert result["attempted"] == len(ops)
    return result["failed"]


def test_a_wrong_golden_fails_the_op():
    ops, inputs = run.setup("analyze-oracle", 3, tiny=True)
    inputs.remove()
    op = next(o for o in ops if o.golden)
    assert _failed("analyze-oracle", [op]) == 0
    wrong = replace(op, golden="check mutant-ex1 --json")  # another report's hash
    assert _failed("analyze-oracle", [wrong]) == 1


def test_wrong_expected_dims_fail_the_op():
    shape = run.gen.make_shape("fan", run.random.Random(0))
    inputs = run.Inputs()
    try:
        good = run._analyze_quiver(shape, 2, inputs, "rational")
        bad = replace(good, expect=run.checks.analyze_quiver(
            shape.at(3), 2, set(), "rational"))
        filt = replace(good, argv=["compute", good.argv[1], "filtration", "--json",
                                   "--N", "2"], expect=run.checks.filtration(shape.at(3)))
        assert _failed("analyze-oracle", [good]) == 0
        assert _failed("analyze-oracle", [bad]) == 1
        assert _failed("analyze-oracle", [filt]) == 1
        assert _failed("analyze-oracle", [replace(good, rc=1)]) == 1
    finally:
        inputs.remove()


def test_basis_change_keeps_the_coalgebra():
    from qcalg.coalg import check_axioms, coradical_filtration
    from qcalg.textfmt import loads

    q = run.gen.make_shape("ladder", run.random.Random(1)).at(3)
    text = run.gen.changed_basis_text(q, run.random.Random(2), "cb")
    coalgebra = loads(text).coalgebra
    assert check_axioms(coalgebra).ok
    assert list(coradical_filtration(coalgebra).dims()) == q.length_counts()
    assert any(c not in (-1, 0, 1) for row in coalgebra.delta for _, _, c in row)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "oneshot-dense", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
