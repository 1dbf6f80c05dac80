from __future__ import annotations

import hashlib
import json
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_coalg import LADDER_ALL as LADDER
from test_coalg import change_basis
from test_report_hashes import CASES as HASHED_CASES
from test_report_hashes import inputs  # noqa: F401  (a fixture)

from qcalg.cli import main
from qcalg.exactlin import Subspace
from qcalg.quiverlab.registry import EX1, EX2
from qcalg.textfmt import dumps_coalgebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def moved(term):
    """A subspace of term's dimension, term not being the whole space,
    that is not term: its last basis row traded for a unit vector off
    term's pivots, which term does not hold."""
    outside = min(set(range(term.ambient_dim)) - set(term.pivot_columns()))
    rows = term.basis_dicts()[:-1] + [{outside: term.field.one}]
    space = Subspace.span(term.field, term.ambient_dim, rows)
    assert space.dim == term.dim and space != term
    return space


class TestExample:
    def test_prints_builtin(self, capsys):
        code, out, _ = run(capsys, "example", "ex1")
        assert code == 0
        assert out.startswith("coalgebra ex1")

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "example", "nope")
        assert code == 2
        assert "unknown builtin" in err


class TestCheck:
    def test_compiled_truncation_passes(self, capsys):
        code, out, _ = run(capsys, "check", "ex1", "--N", "2", "--depth", "2")
        assert code == 0
        assert "PASS" in out

    def test_mutant_fails_naming_the_entry(self, capsys):
        code, out, _ = run(capsys, "check", "mutant-ex1")
        assert code == 1
        assert "FAIL" in out
        assert "coassociativity" in out and "p[1]" in out

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "check", "no-such-thing")
        assert code == 2
        assert "no builtin or file" in err

    def test_bad_dsl_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.quiver"
        bad.write_text("coalgebra broken\nvertex u\narrow x: u -> nowhere\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "nowhere" in err

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "check", "ex2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["ok"] is True


class TestAnalyze:
    def test_ex1_filtration_via_cli(self, capsys):
        code, out, _ = run(capsys, "analyze", "ex1", "--N", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["filtration"] == {"dims": [4, 10, 13],
                                                "stabilized_at": 2}

    def test_determinism_byte_identical(self, capsys):
        _, first, _ = run(capsys, "analyze", "ex2", "--sweep", "1..4", "--json")
        _, second, _ = run(capsys, "analyze", "ex2", "--sweep", "1..4", "--json")
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_report_round_trips(self, capsys):
        _, out, _ = run(capsys, "analyze", "ex2", "--N", "2", "--json")
        assert json.dumps(json.loads(out), sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n" == out

    def test_expect_match_and_mismatch(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"locally_finite": "holds",
                                    "right_semiperfect": "holds"}))
        code, _, _ = run(capsys, "analyze", "ex2", "--N", "2",
                         "--expect", str(good))
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"left_semiperfect": "holds"}))
        code, out, _ = run(capsys, "analyze", "ex2", "--N", "2",
                           "--expect", str(bad))
        assert code == 1
        assert "expect mismatch" in out

    def test_bad_sweep_syntax(self, capsys):
        code, _, err = run(capsys, "analyze", "ex2", "--sweep", "five")
        assert code == 2
        assert "sweep" in err

    def test_structure_constants_input_all_holds(self, tmp_path, capsys, ex1_n1):
        c, _ = ex1_n1
        path = tmp_path / "finite.sc"
        path.write_text(dumps_coalgebra(c, name="finite"))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        verdicts = {v["criterion"]: v["verdict"] for v in doc["results"]["verdicts"]}
        assert set(verdicts.values()) == {"holds"}
        assert doc["results"]["filtration"]["dims"] == [2, 4, 5]

    def test_structure_constants_loewy_disagreement_exits_3(
            self, tmp_path, capsys, patch_everywhere, ex1_n1):
        from qcalg.coalg import FiltrationChain
        from qcalg.comod import loewy_series

        c, _ = ex1_n1
        path = tmp_path / "finite.sc"
        path.write_text(dumps_coalgebra(c, name="finite"))
        patch_everywhere(loewy_series,
                         lambda m: FiltrationChain(loewy_series(m).terms[:-1], None))
        code, _, err = run(capsys, "analyze", str(path), "--json")
        assert code == 3
        assert "socle series" in err


class TestCompute:
    def test_wedge_named_v1(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "wedge",
                           "--x", "V1", "--y", "V1", "--N", "1")
        assert code == 0
        assert "wedge dim: 5" in out

    def test_wedge_label_list(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "wedge",
                           "--x", "a,b1", "--y", "a,b1", "--N", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["dim"] == 4

    @pytest.mark.parametrize("x,y", [("C0", "C1"), ("C0,C1", "a")],
                             ids=["x-and-y", "one-list"])
    def test_wedge_computes_the_filtration_once(self, capsys, patch_everywhere, x, y):
        from qcalg.coalg import coradical_filtration
        calls: list = []

        def recorder(c):
            calls.append(c)
            return coradical_filtration(c)

        patch_everywhere(coradical_filtration, recorder)
        code, _, _ = run(capsys, "compute", "ex1", "wedge",
                         "--x", x, "--y", y, "--N", "2")
        assert code == 0
        assert len(calls) == 1

    def test_multiplicity_oracle_value(self, capsys):
        code, out, _ = run(capsys, "compute", "ex2", "mult",
                           "--quotient-by", "a", "--s", "b3", "--N", "3")
        assert code == 0
        assert "[M; b[3]] = 4" in out

    def test_skew_dimension(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "skew",
                           "--g", "a", "--h", "b1", "--N", "1")
        assert code == 0
        assert "skew-primitive dim: 2" in out

    def test_hom_growth(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "hom",
                           "--simple", "a", "--quotient-by", "C1",
                           "--side", "left", "--N", "4")
        assert code == 0
        assert "hom dim: 4" in out

    def test_socle_table(self, capsys):
        code, out, _ = run(capsys, "compute", "ex2", "socle",
                           "--quotient-by", "a", "--N", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["multiplicities"] == {"b[1]": 2, "b[2]": 3}

    def test_filtration(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "filtration", "--N", "2")
        assert code == 0
        assert "3 7 9" in out

    def test_unknown_label_is_input_error(self, capsys):
        code, _, err = run(capsys, "compute", "ex1", "skew",
                           "--g", "a", "--h", "qq", "--N", "1")
        assert code == 2
        assert "unknown basis label" in err

    def test_non_grouplike_is_input_error(self, capsys):
        code, _, err = run(capsys, "compute", "ex1", "skew",
                           "--g", "a", "--h", "x1", "--N", "1")
        assert code == 2
        assert "not grouplike" in err

    def test_gf_field_small_truncation(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "filtration",
                           "--N", "1", "--field", "gf:7")
        assert code == 0
        assert "2 4 5" in out

    def test_gf_field_out_of_radical_range(self, capsys):
        code, _, err = run(capsys, "compute", "ex1", "filtration",
                           "--N", "3", "--field", "gf:7")
        assert code == 2
        assert "validity range" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "compute", "ex1", "wedge", "--N", "1")
        assert code == 2
        assert "--x" in err


class TestExitCodes:
    def test_argparse_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing input positional
        assert exc.value.code == 2


class TestCheckFlag:
    """--check validates structure-constants input as it loads; only
    compute reads it (check and analyze always check the axioms)."""

    @pytest.mark.parametrize("command", ["check", "analyze"])
    def test_check_and_analyze_refuse_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "ex1", "--check"])
        assert exc.value.code == 2
        assert "--check" in capsys.readouterr().err

    def test_compute_validates_on_load(self, capsys):
        code, out, err = run(capsys, "compute", "mutant-ex1", "filtration", "--check")
        assert code == 2 and out == ""
        assert "coalgebra axioms fail: coassociativity fails on p[1]" in err
        code, _, _ = run(capsys, "compute", "mutant-ex1", "filtration")
        assert code == 0
        code, out, _ = run(capsys, "compute", "ex1", "filtration", "--check", "--json")
        assert code == 0
        assert json.loads(out)["results"]["operation"] == "filtration"


class TestInputFaults:
    """Faults in what the user passed exit 2 with a message, never 3."""

    @pytest.mark.parametrize("content,phrase", [
        ("{not json", "is not JSON"),
        ('["locally_finite", "holds"]', "must hold a JSON object"),
        ("", "is not JSON"),
    ])
    def test_malformed_expect_file_is_read_before_the_analysis(
            self, tmp_path, capsys, monkeypatch, content, phrase):
        def no_analysis(*args, **kwargs):
            raise AssertionError("the analysis ran before --expect was read")
        monkeypatch.setattr("qcalg.cli.analyze_spec", no_analysis)
        bad = tmp_path / "verdicts.json"
        bad.write_text(content)
        code, out, err = run(capsys, "analyze", "ex2", "--N", "2",
                             "--expect", str(bad))
        assert code == 2
        assert str(bad) in err and phrase in err
        assert out == ""

    def test_missing_expect_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code, _, err = run(capsys, "analyze", "ex2", "--N", "2",
                           "--expect", str(missing))
        assert code == 2
        assert str(missing) in err

    @pytest.mark.parametrize("command", [["check"], ["analyze"],
                                         ["compute", "filtration"]])
    def test_directory_input(self, tmp_path, capsys, command):
        argv = [command[0], str(tmp_path), *command[1:]]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "is a directory" in err and str(tmp_path) in err

    def test_non_utf8_input(self, tmp_path, capsys):
        latin = tmp_path / "latin1.quiver"
        latin.write_bytes("coalgebra caf\xe9\nvertex u\n".encode("latin-1"))
        code, _, err = run(capsys, "check", str(latin))
        assert code == 2
        assert "not UTF-8" in err and str(latin) in err

    @pytest.mark.parametrize("argv", [
        ["check", "ex1", "--N", "2"],
        ["analyze", "ex1", "--N", "2"],
        ["compute", "ex1", "filtration", "--N", "2"],
    ])
    def test_negative_depth(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--depth", "-1")
        assert code == 2
        assert "--depth must be nonnegative" in err
        assert out == ""

    @pytest.mark.parametrize("text,argv,phrase", [
        ("dim 1\ndelta x: 0 0 1\nepsilon: 1\n", ["check"],
         "line 2: bad delta index 'x'"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nrho x: 0 0 1\n", ["check"],
         "line 4: bad rho index 'x'"),
        ("dim 1\nlabel z a\ndelta 0: 0 0 1\nepsilon: 1\n", ["check"],
         "line 2: bad label index 'z'"),
        ("dim 1\nmdim q\ndelta 0: 0 0 1\nepsilon: 1\n", ["check"],
         "line 2: bad comodule dimension 'q'"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: abc\n", ["check"],
         "line 3: bad scalar 'abc'"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1/0\n", ["compute", "filtration"],
         "line 3: bad scalar '1/0'"),
        ("dim 1\ndelta 0: 0 0 1\nmdim -1\nepsilon: 1\n", ["check"],
         "line 3: comodule dimension must be nonnegative"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nmdim -1\nrho 0: 0 0 1\n", ["check"],
         "line 4: comodule dimension must be nonnegative"),
        ("dim 1\nlabel 7 zz\ndelta 0: 0 0 1\nepsilon: 1\n", ["check"],
         "line 2: label index 7 out of range"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nmlabel 3 w\nrho 0: 0 0 1\n", ["check"],
         "line 4: mlabel index 3 out of range"),
        ("dim 1\ndelta 0: 0 0 1\ndelta 5: 0 0 1\nepsilon: 1\n", ["check"],
         "line 3: delta index 5 out of range"),
        ("dim 1\ndelta 0: 0 3 1\nepsilon: 1\n", ["check"],
         "line 2: delta 0: tensor index out of range"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nrho 2: 0 0 1\n", ["check"],
         "line 4: rho index 2 out of range"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nside left\nrho 0: 4 0 1\n", ["check"],
         "line 5: rho 0: tensor index out of range"),
        ("dim 2\ndelta 0: 0 0 1\ndelta 1: 1 1 1\nepsilon: 1\n", ["check"],
         "line 4: epsilon has 1 entries, expected 2"),
        ("dim 2\nlabel 1 e0\ndelta 0: 0 0 1\ndelta 1: 1 1 1\nepsilon: 1 1\n", ["check"],
         "line 2: duplicate label 'e0'"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nmdim 2\nmlabel 0 m\nmlabel 1 m\n"
         "rho 0: 0 0 1\n", ["check"], "line 6: duplicate mlabel 'm'"),
        ("dim 2\nlabel 0 a\nlabel 1 b\ndelta 0: 0 0 1; 0 1 1\ndelta 1: 1 1 1\n"
         "epsilon: 1 1\n", ["compute", "filtration", "--check"],
         "line 4: coalgebra axioms fail: coassociativity fails on a at a (x) b (x) a"),
        ("dim 2\ndelta 0: 0 0 1\nepsilon: 1 1\n", ["compute", "filtration", "--check"],
         "line 3: coalgebra axioms fail: counit-left fails on e1 at e1: 0 != 1"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\n# m0\nrho 0: 0 0 2\n",
         ["compute", "filtration", "--check"],
         "line 5: comodule axioms fail: coaction-coassociativity fails on m0"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nmdim 2\nrho 0: 0 0 1\n",
         ["compute", "filtration", "--check"],
         "line 3: comodule axioms fail: coaction-counit fails on m1 at m1: 0 != 1"),
        ("dim 2\nlabel 0 a\nlabel 0 b\ndelta 0: 0 0 1\ndelta 1: 1 1 1\nepsilon: 1 1\n",
         ["check"], "line 3: label 0 given twice"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nmdim 2\nmlabel 1 u\nmlabel 1 w\n"
         "rho 0: 0 0 1\n", ["check"], "line 6: mlabel 1 given twice"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nepsilon 1\n", ["check"],
         "line 4: epsilon given twice"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nside left\nside right\nrho 0: 0 0 1\n",
         ["check"], "line 5: side given twice"),
        ("dim 1\ndim 1\ndelta 0: 0 0 1\nepsilon: 1\n", ["check"],
         "line 2: dim given twice"),
        ("dim 1\ndelta 0: 0 0 1\nepsilon: 1\nmdim 1\nmdim 1\nrho 0: 0 0 1\n",
         ["check"], "line 5: mdim given twice"),
        ("coalgebra one\ndim 1\ncoalgebra two\ndelta 0: 0 0 1\nepsilon: 1\n",
         ["check"], "line 3: coalgebra given twice"),
        (None, ["compute", "ex1", "socle", "--quotient-by", "x1", "--N", "1"],
         "--quotient-by 'x1'"),
        (None, ["compute", "ex1", "mult", "--s", "x1", "--N", "1"],
         "--s 'x1': 'x[1]' is not grouplike"),
        (None, ["analyze", "ex1", "--N", "1", "--field", "gf:318665857834031151167461"],
         "modulus 318665857834031151167461 is past the range where primality "
         "is decided exactly"),
        (None, ["analyze", "ex1", "--N", "1", "--field", "gf(abc)"],
         "error: unknown field 'gf(abc)'"),
        (None, ["analyze", "ex1", "--N", "1", "--field", "gf:"],
         "error: unknown field 'gf:'"),
        ("coalgebra t\nfield gf(318665857834031151167461)\nvertex v\n", ["check"],
         "line 2, col 1: modulus 318665857834031151167461 is past the range"),
        ("coalgebra t\nfield gf()\nvertex v\n", ["check"],
         "line 2, col 1: unknown field 'gf()'"),
    ], ids=["delta-index", "rho-index", "label-index", "mdim", "scalar",
            "zero-denominator", "negative-mdim", "negative-mdim-with-rho",
            "label-out-of-range", "mlabel-out-of-range", "delta-out-of-range",
            "delta-tensor-index", "rho-out-of-range", "rho-tensor-index",
            "epsilon-length", "duplicate-label", "duplicate-mlabel", "axioms-delta-line",
            "axioms-epsilon-line", "comodule-rho-line", "comodule-epsilon-line",
            "repeated-label", "repeated-mlabel", "repeated-epsilon", "repeated-side",
            "repeated-dim", "repeated-mdim", "repeated-coalgebra",
            "quotient-by", "mult-simple", "gf-pseudoprime-flag", "gf-not-integer-flag",
            "gf-empty-flag", "gf-pseudoprime-dsl", "gf-empty-dsl"])
    def test_fault_names_the_line_or_flag(self, tmp_path, capsys, text, argv, phrase):
        if text is not None:
            path = tmp_path / "bad.sc"
            path.write_text(text)
            argv = [argv[0], str(path), *argv[1:]]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert phrase in err
        assert out == ""

    # Faults that no other test reaches, by flag, by DSL line and by
    # structure-constants line; the DSL cases declare a vertex past the
    # header below.
    DSL_HEADER = "coalgebra t\nfield rational\nparam N = 2\nvertex a\n"

    @pytest.mark.parametrize("text,suffix,argv,phrase", [
        (None, None, ["analyze", "ex2", "--sweep", "3..1"], "bad sweep range 3..1"),
        (None, None, ["compute", "ex1", "mult"], "mult needs --s <simple label>"),
        (None, None, ["compute", "ex1", "skew", "--g", "a"], "skew needs --g and --h"),
        (None, None, ["compute", "ex1", "hom"], "hom needs --simple <grouplike label>"),
        (None, None, ["compute", "ex1", "hom", "--simple", "x1"],
         "'x[1]' is not grouplike"),
        (DSL_HEADER + "vertex b[k], k=1..M\n", ".quiver", ["check"],
         "line 5, col 1: unknown name 'M' in index expression"),
        (DSL_HEADER + "vertex b[k], k=1..4/2\n", ".quiver", ["check"],
         "line 5, col 1: unsupported construct in index expression '4/2'"),
        (DSL_HEADER + "vertex b[k], k=1..2**3\n", ".quiver", ["check"],
         "line 5, col 1: unsupported construct in index expression '2**3'"),
        (DSL_HEADER + "vertex v[k,k], k=1..2, k=1..2\n", ".quiver", ["check"],
         "line 5, col 1: duplicate range variable"),
        (DSL_HEADER + "arrow x: a -> a\npath p x . x\n", ".quiver", ["check"],
         "line 6, col 1: expected 'path <name> = <arrow> . <arrow> ...'"),
        (DSL_HEADER + "arrow x: a -> a\npath p = x\n", ".quiver", ["check"],
         "line 6, col 1: a declared path needs at least two arrows"),
        ("field rational\nvertex a\n", ".quiver", ["check"],
         "line 1, col 1: missing 'coalgebra <name>' declaration"),
        ("dim -1\nepsilon:\n", ".sc", ["check"], "line 1: dimension must be nonnegative"),
        ("dim 1\ndelta 0 0 0 1\nepsilon: 1\n", ".sc", ["check"],
         "line 2: expected 'delta <i>: ...'"),
        ("dim 1\ndelta 0: 0 0 1\n", ".sc", ["check"], "line 1: missing 'epsilon' line"),
    ], ids=["sweep-range", "mult-without-s", "skew-without-h", "hom-without-simple",
            "hom-simple-not-grouplike", "range-unknown-name", "range-division",
            "range-power", "duplicate-range-variable", "path-without-equals",
            "path-of-one-arrow", "no-coalgebra-line", "negative-dim",
            "delta-without-colon", "no-epsilon-line"])
    def test_each_fault_exits_2_with_its_message(self, tmp_path, capsys, text, suffix,
                                                 argv, phrase):
        if text is not None:
            path = tmp_path / f"bad{suffix}"
            path.write_text(text)
            argv = [argv[0], str(path), *argv[1:]]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"error: {phrase}" in err
        assert out == ""

    def test_unary_minus_in_an_index_expression(self, tmp_path, capsys):
        path = tmp_path / "unary.quiver"
        path.write_text(self.DSL_HEADER + "vertex b[k], k=1..-(-N)\n")
        code, out, err = run(capsys, "compute", str(path), "filtration", "--N", "4")
        assert code == 0, err
        assert out == "filtration dims: 5 (stabilized at 0)\n"

    def test_zero_depth_is_still_accepted(self, capsys):
        code, out, _ = run(capsys, "check", "ex1", "--N", "2", "--depth", "0")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("command", [["check"], ["analyze"],
                                         ["compute", "filtration"]])
    def test_negative_parameter_default_without_n(self, tmp_path, capsys, command):
        # Only the bound read off the defaults is at fault: --N 2 runs.
        f = tmp_path / "neg.quiver"
        f.write_text("coalgebra neg\nparam N = -1\nvertex a\n")
        argv = [command[0], str(f), *command[1:]]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "N = -1, must be nonnegative" in err
        assert out == ""
        code, _, err = run(capsys, *argv, "--N", "2")
        assert code == 0, err


# What the structure-constants fuzz splices in: small integers (two draws
# in three, so that many mutants still parse and reach the algebra), a
# fraction, a bad scalar, the separators and every keyword of the format.
_SMALL_INTEGER = st.integers(-2, 9).map(str)
FUZZ_TOKENS = st.one_of(
    _SMALL_INTEGER, _SMALL_INTEGER,
    st.sampled_from(["1/2", "x", ":", ";", "\n", "coalgebra", "dim", "label", "delta",
                     "epsilon", "epsilon:", "side", "left", "right", "mdim", "mlabel",
                     "rho"]))
FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(["replace", "replace", "insert"]),
                                st.integers(0, 10**6), FUZZ_TOKENS),
                      min_size=1, max_size=3)
FUZZ_TOKEN = re.compile(r"\n|[ \t]+|[:;]|[^\s:;]+")


def mutate(text: str, edits, pattern=FUZZ_TOKEN) -> str:
    """Replace a word or insert a token, once per edit; positions wrap.

    A respell edit replaces only a number.
    """
    tokens = pattern.findall(text)
    for kind, position, token in edits:
        if kind == "insert":
            tokens.insert(position % (len(tokens) + 1), f" {token} ")
            continue
        words = [i for i, t in enumerate(tokens) if not t.isspace()]
        if kind == "respell":
            words = [i for i in words if tokens[i].isdigit()]
        tokens[words[position % len(words)]] = token
    return "".join(tokens)


class TestStructureConstantsFuzz:
    """Mutated structure-constants files exit 0, 1 or 2, never 3.

    The examples are derandomized, so the test replays the same bounded
    set of inputs on every run.
    """

    @pytest.fixture(scope="class")
    def base(self, ex1_n1):
        return dumps_coalgebra(change_basis(ex1_n1[0], seed=3), name="fuzzed")

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=FUZZ_EDITS)
    def test_exit_code_contract(self, base, tmp_path, capsys, edits):
        path = tmp_path / "fuzzed.sc"
        path.write_text(mutate(base, edits))
        for argv in (["check"], ["analyze"], ["compute", "socle"]):
            code, _, _ = run(capsys, argv[0], str(path), *argv[1:])
            assert code in (0, 1, 2), (argv, path.read_text())


# What the DSL fuzz splices in.  Two edits in three respell a number, as
# 0..3 or N, so that many mutants still parse and reach the algebra;
# numbers stop at 3, since larger ones let a mutant of the all-mode ladder
# run for seconds.  The other edits replace any word, or insert a token:
# such a number, a name the built-ins bind, the punctuation of heads,
# ranges and paths, or a keyword of the DSL.
_DSL_NUMBER = st.sampled_from(["0", "1", "2", "3", "N"])
DSL_FUZZ_TOKENS = st.one_of(
    _DSL_NUMBER,
    st.sampled_from(["n", "i", "k", "a", "b", "v", "x", "->", ".", "..", ",", "=", ":",
                     "[", "]", "-", "+", "\n", "#", "coalgebra", "field", "rational",
                     "gf(2)", "gf(101)", "param", "vertex", "arrow", "path", "mode",
                     "all", "declared"]))
_RESPELL = st.tuples(st.just("respell"), st.integers(0, 10**6), _DSL_NUMBER)
DSL_FUZZ_EDITS = st.lists(
    st.one_of(_RESPELL, _RESPELL,
              st.tuples(st.sampled_from(["replace", "insert"]), st.integers(0, 10**6),
                        DSL_FUZZ_TOKENS)),
    min_size=1, max_size=3)
DSL_FUZZ_TOKEN = re.compile(r"\n|[ \t]+|->|\.\.|[-:,=\[\].+*()]|[^\s:,=\[\].+*()-]+")


class TestQuiverDslFuzz:
    """Mutated quiver presentations exit 0, 1 or 2, never 3, at N <= 3.

    The examples are derandomized, so the test replays the same bounded
    set of inputs on every run.
    """

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=st.sampled_from([EX1, EX2, LADDER]), edits=DSL_FUZZ_EDITS,
           n=st.integers(1, 3))
    def test_exit_code_contract(self, tmp_path, capsys, base, edits, n):
        path = tmp_path / "fuzzed.quiver"
        path.write_text(mutate(base, edits, DSL_FUZZ_TOKEN))
        for argv in (["check"], ["analyze"], ["compute", "socle"]):
            code, _, _ = run(capsys, argv[0], str(path), *argv[1:], "--N", str(n))
            assert code in (0, 1, 2), (argv, n, path.read_text())


class TestReportSchema:
    def test_emitted_reports_validate_against_shipped_schema(self, capsys):
        import pathlib

        import jsonschema

        schema = json.loads(
            pathlib.Path(__file__).resolve().parents[1]
            .joinpath("docs", "report-schema.json").read_text())
        for argv in (["analyze", "ex2", "--N", "2", "--json"],
                     ["check", "mutant-ex1", "--json"],
                     ["compute", "ex1", "wedge", "--x", "V1", "--y", "V1",
                      "--N", "1", "--json"],
                     ["compute", "ex2", "socle", "--quotient-by", "a",
                      "--N", "2", "--json"]):
            code = main(argv)
            out = capsys.readouterr().out
            jsonschema.validate(json.loads(out), schema)
            assert code in (0, 1)


class TestSubprocessInterface:
    def test_console_script_determinism_across_processes(self):
        import subprocess
        import sys as _sys
        from pathlib import Path

        import qcalg

        cmd = [_sys.executable, "-m", "qcalg.cli", "analyze", "ex2",
               "--sweep", "1..3", "--json"]
        # The children get a stripped environment, plus the directory this
        # process imported qcalg from, so that they find the package whether
        # it is installed or only on PYTHONPATH. Distinct hash seeds make the
        # two runs differ in string hashing.
        import_root = str(Path(qcalg.__file__).resolve().parent.parent)
        runs = []
        for hash_seed in ("1", "2"):
            env = {"PATH": "/usr/bin:/bin", "QCALG_COLOR": "0",
                   "PYTHONPATH": import_root, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            runs.append(proc)
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "qcalg 1.0.0" in capsys.readouterr().out


class TestCyclicAllPathsAnalysis:
    def test_needs_depth_bound(self, tmp_path, capsys):
        f = tmp_path / "loop.quiver"
        f.write_text("coalgebra loop\nvertex a\nvertex b\n"
                     "arrow f: a -> b\narrow g: b -> a\nmode all\n")
        code, _, err = run(capsys, "analyze", str(f), "--N", "1")
        assert code == 2
        assert "depth" in err

    @pytest.mark.parametrize("arrows,line", [
        ("arrow f: a -> b\narrow g: b -> a\n", 4),
        ("arrow g: b -> a\narrow f: a -> b\n", 5),
    ], ids=["closing-arrow-first", "closing-arrow-second"])
    def test_names_the_line_of_an_arrow_on_the_cycle(self, tmp_path, capsys,
                                                     arrows, line):
        f = tmp_path / "loop.quiver"
        f.write_text("coalgebra loop\nvertex a\nvertex b\n" + arrows + "mode all\n")
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 2
        assert out == ""
        assert f"line {line}, col 1: " in err and "(cycle through a)" in err

    def test_bounded_depth_analyzes(self, tmp_path, capsys):
        f = tmp_path / "loop.quiver"
        f.write_text("coalgebra loop\nvertex a\nvertex b\n"
                     "arrow f: a -> b\narrow g: b -> a\nmode all\n")
        code, out, _ = run(capsys, "analyze", str(f), "--N", "1",
                           "--depth", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        verdicts = {v["criterion"]: v["verdict"] for v in doc["results"]["verdicts"]}
        # the cycle kills semiperfectness, but one arrow per vertex pair
        # keeps the coalgebra locally finite and F-Noetherian on both sides
        assert verdicts["locally_finite"] == "holds"
        assert verdicts["right_semiperfect"] == "fails"
        assert verdicts["left_semiperfect"] == "fails"
        assert verdicts["left_fnoetherian"] == "holds"
        assert verdicts["right_fnoetherian"] == "holds"
        assert verdicts["left_torsion_rat"] == "holds"
        assert verdicts["right_torsion_rat"] == "holds"


# LADDER has two parallel arrows per step: v[1]'s socle-multiplicity
# column reads [1, 3, 3, 3] over the sweep 1..4, which is not growth.


class TestShortSweeps:
    @pytest.mark.parametrize("n", ["1", "2"])
    def test_ladder_two_bound_sweep_is_not_a_growth_witness(self, n, tmp_path,
                                                           capsys):
        f = tmp_path / "ladder.quiver"
        f.write_text(LADDER)
        code, out, err = run(capsys, "analyze", str(f), "--N", n, "--json")
        assert code == 0, err
        doc = json.loads(out)
        verdicts = {v["criterion"]: v["verdict"] for v in doc["results"]["verdicts"]}
        assert verdicts["right_fnoetherian"] == "holds"

    def test_ex2_two_bound_sweep_is_undecided(self, capsys):
        code, out, _ = run(capsys, "analyze", "ex2", "--sweep", "1..2", "--json")
        assert code == 0
        doc = json.loads(out)
        verdicts = {v["criterion"]: v["verdict"] for v in doc["results"]["verdicts"]}
        assert verdicts["right_fnoetherian"] == "undecided"


# The vertex v[N] is a different label at every bound.
SHIFTING_VERTEX = """\
coalgebra shift
param N = 3
vertex a
vertex v[k], k=N..N
arrow x[k]: a -> v[k], k=N..N
"""


class TestShiftingVertexSweep:
    @pytest.mark.parametrize("sweep,bounds", [([], [1, 2, 3]),
                                              (["--sweep", "1..4"], [1, 2, 3, 4])])
    def test_only_vertices_at_every_bound_get_a_column(self, tmp_path, capsys,
                                                       sweep, bounds):
        f = tmp_path / "shift.quiver"
        f.write_text(SHIFTING_VERTEX)
        code, out, err = run(capsys, "analyze", str(f), "--N", "3", *sweep, "--json")
        assert code == 0, err
        doc = json.loads(out)
        for side, mult in (("left", 1), ("right", 2)):
            table = doc["results"]["fnoetherian_sweep"][side]
            assert table["sweep"] == bounds
            # C/ka holds the weight-v[N] vector v[N], and on the right the
            # arrow x[N] too.
            assert table["tables"] == {"a": [
                {"N": b, "max_multiplicity": mult, "at_simple": f"v[{b}]"}
                for b in bounds]}


# Eight factors of N: 10**8 vertices at --N 10, 4**8 = 65536 at --N 4.
HUGE_FAMILY = """\
coalgebra huge
param N = 2
vertex v[k], k=1..N*N*N*N*N*N*N*N
arrow e[k]: v[k] -> v[k], k=1..N*N*N*N*N*N*N*N
"""


class TestSizeBudget:
    """Oversized instances exit 2 at the line that passes the budget,
    before the loops that would build them run."""

    def test_a_range_past_the_budget_is_refused_before_the_loop(self, tmp_path,
                                                                capsys):
        f = tmp_path / "huge.quiver"
        f.write_text(HUGE_FAMILY)
        start = time.perf_counter()
        code, out, err = run(capsys, "check", str(f), "--N", "10")
        assert time.perf_counter() - start < 2
        assert code == 2
        assert out == ""
        assert "line 3, col 1: range k=1..100000000 has 100000000 values" in err

    def test_the_running_count_is_refused_at_the_line_that_passes_it(
            self, tmp_path, capsys):
        # Each range is within the budget, but 400 * 400 vertices are not.
        f = tmp_path / "square.quiver"
        f.write_text("coalgebra square\nvertex u\n"
                     "vertex v[k,i], k=1..400, i=1..400\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 2
        assert out == ""
        assert "line 3, col 1: more than 100000 vertices" in err

    def test_all_paths_growth_names_the_appended_arrow(self, tmp_path, capsys):
        f = tmp_path / "ladder.quiver"
        f.write_text(LADDER)
        code, out, err = run(capsys, "check", str(f), "--N", "40")
        assert code == 2
        assert out == ""
        assert "line 4, col 1: more than 100000 paths in all-paths mode" in err

    def test_nested_ranges_that_yield_nothing_are_refused(self, tmp_path, capsys):
        # The innermost range is empty, so no vertex is ever counted; the
        # values the outer ranges take are.
        f = tmp_path / "escape.quiver"
        f.write_text("coalgebra esc\n"
                     "vertex v[k,j,i], k=1..90000, j=1..90000, i=1..0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "check", str(f))
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert ("line 2, col 1: the ranges enclosing i take more than 100000 "
                "values") in err

    def test_an_over_budget_sweep_fails_before_its_middle_bounds(
            self, capsys, patch_everywhere):
        # The sweep instantiates its smallest bound and then its largest,
        # which is past the budget; no bound in between is built.
        from qcalg.quiverlab import paths
        built: list = []
        for name in ("instantiate", "compile_truncation"):
            original = getattr(paths, name)

            def recorder(spec, n_bound=None, *args, _name=name, _original=original,
                         **kwargs):
                built.append((_name, n_bound))
                return _original(spec, n_bound, *args, **kwargs)

            patch_everywhere(original, recorder)
        code, out, err = run(capsys, "analyze", "ex2", "--N", "3", "--sweep", "1..5000")
        assert code == 2
        assert out == ""
        assert ("line 6, col 1: more than 100000 vertices, arrows and declared "
                "paths: past the size budget") in err
        # The parse-time check at the declared defaults, the instance at N
        # and the truncation compiled from it, the probes N+1 and N+2 (the
        # cross-check's depth 1 embeds in the truncation), then the sweep.
        assert built == [("instantiate", None), ("instantiate", 3),
                         ("compile_truncation", 3), ("instantiate", 4),
                         ("instantiate", 5), ("instantiate", 1), ("instantiate", 5000)]

    @pytest.mark.parametrize("name", ["ex1", "ex2"])
    def test_builtins_at_thirty_are_within_it(self, capsys, name):
        code, out, _ = run(capsys, "check", name, "--N", "30")
        assert code == 0
        assert "PASS" in out


class TestInternalErrorHandling:
    def test_internal_check_error_exits_3(self, capsys, monkeypatch):
        from qcalg import cli as climod
        from qcalg.quiverlab.analyze import InternalCheckError

        def boom(*args, **kwargs):
            raise InternalCheckError("routes disagreed (synthetic)")

        monkeypatch.setattr(climod, "analyze_spec", boom)
        code, _, err = run(capsys, "analyze", "ex1", "--N", "1")
        assert code == 3
        assert "bug" in err

    def test_skew_primitive_mismatch_exits_3(self, capsys, monkeypatch, ex1_spec):
        # One arrow count off by one: the cross-check against the compiled
        # truncation's skew primitives is the route that disagrees.
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.degree_tables

        def bumped(spec, n):
            tables = original(spec, n)
            tables["pairs"][0]["count"] += 1
            return tables

        monkeypatch.setattr(analyze, "degree_tables", bumped)
        with pytest.raises(InternalCheckError, match="skew-primitive dimension"):
            analyze.analyze_spec(ex1_spec, 1)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "1")
        assert code == 3
        assert out == ""
        assert "skew-primitive dimension" in err

    def test_a_broken_cut_exits_3_through_the_cross_check(self, capsys, monkeypatch,
                                                          ex1_spec):
        # The cut of one vertex pair, (a, b[1]), loses a dimension: the
        # cross-check reads each depth through the cut of the analyzed
        # truncation's table, so that pair no longer matches its arrow x[1]
        # plus one, and the first depth probed, 1, raises.
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze._pair_wedges

        def one_short(reference, place):
            within = original(reference, place)

            def read(pair):
                space = within(pair)
                if pair == (0, 1):
                    return Subspace(space.field, space.ambient_dim, space.basis[:-1])
                return space
            return read

        monkeypatch.setattr(analyze, "_pair_wedges", one_short)
        message = ("skew-primitive dimension 1 for (a, b[1]) at depth 1 does not "
                   "match arrow count 2")
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            analyze.analyze_spec(ex1_spec, 2)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_vertex_pair_duality_mismatch_exits_3(self, capsys, monkeypatch, ex1_spec):
        # One vertex pair's ideal-side entry is the zero space, which no
        # wedge kg ^ kh is: the oracle's two routes disagree on that pair.
        # The ideal side of the pairs (kg, kh) is the one cut of
        # restrict_product_perp that fixes I_g = (kg)^perp, of codimension 1.
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.restrict_product_perp
        broken: list = []

        def one_wrong(shared, fixed, a, grouplikes, slot):
            table = original(shared, fixed, a, grouplikes, slot)
            if slot == 1 and fixed.dim == a.dim - 1:
                (g,) = set(range(a.dim)) - set(fixed.pivot_columns())
                if g == min(grouplikes):
                    h = sorted(table)[1]
                    table[h] = Subspace.zero(a.field, a.dim)
                    broken.append(f"(span{{{a.labels[g]}}}, span{{{a.labels[h]}}})")
            return table

        monkeypatch.setattr(analyze, "restrict_product_perp", one_wrong)
        with pytest.raises(InternalCheckError,
                           match=re.escape("wedge/ideal-product duality broke on (span{")
                           ) as raised:
            analyze.analyze_spec(ex1_spec, 2)
        assert broken[-1] == "(span{a}, span{b[1]})"
        assert str(raised.value).endswith(broken[-1])
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert f"wedge/ideal-product duality broke on {broken[-1]}" in err

    def test_line_with_filtration_term_duality_mismatch_exits_3(
            self, capsys, monkeypatch, ex1_spec):
        # The oracle cuts kg ^ C1 from C0 ^ C1, the call of restrict_wedge
        # with the line in slot 0 and C1 fixed; a zero space for the line
        # of a is not a ^ C1, so the two routes disagree on that pair.
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.restrict_wedge

        def one_wrong(shared, fixed, c, grouplikes, slot):
            table = original(shared, fixed, c, grouplikes, slot)
            if slot == 0 and fixed != Subspace.coordinates(c.field, c.dim, grouplikes):
                table[c.label_index("a")] = Subspace.zero(c.field, c.dim)
            return table

        monkeypatch.setattr(analyze, "restrict_wedge", one_wrong)
        message = "wedge/ideal-product duality broke on (span{a}, C1)"
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            analyze.analyze_spec(ex1_spec, 2)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_line_with_coradical_duality_mismatch_exits_3(
            self, capsys, monkeypatch, ex1_spec):
        # The oracle cuts the ideal side of (kg, C0), P_g =
        # (I_g * (kG)^perp)^perp, from that of (C0, C0), the call of
        # restrict_product_perp with the line in slot 0 and C0^perp fixed;
        # a zero space for the line of a is not a ^ C0.
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.restrict_product_perp

        def one_wrong(shared, fixed, a, grouplikes, slot):
            table = original(shared, fixed, a, grouplikes, slot)
            c0 = Subspace.coordinates(a.field, a.dim, grouplikes)
            if slot == 0 and fixed == c0.perp():
                table[a.labels.index("a")] = Subspace.zero(a.field, a.dim)
            return table

        monkeypatch.setattr(analyze, "restrict_product_perp", one_wrong)
        message = "wedge/ideal-product duality broke on (span{a}, C0)"
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            analyze.analyze_spec(ex1_spec, 2)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_coradical_other_than_the_grouplike_span_exits_3(
            self, capsys, monkeypatch, ex1_spec):
        # The oracle cuts its line pairs on C0 = kG; a C0 that lacks one
        # grouplike stops it before any pair is compared.
        from qcalg.coalg import FiltrationChain
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.coradical_filtration

        def short_c0(c):
            chain = original(c)
            c0 = Subspace.coordinates(c.field, c.dim, c.grouplike_indices()[1:])
            return FiltrationChain((c0,) + chain.terms[1:], chain.stabilized_at)

        monkeypatch.setattr(analyze, "coradical_filtration", short_c0)
        message = "coradical filtration term C0 is not the span of the grouplikes"
        with pytest.raises(InternalCheckError, match=message):
            analyze.analyze_spec(ex1_spec, 2)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_wedge_of_filtration_terms_mismatch_exits_3(
            self, capsys, monkeypatch, ex1_spec):
        # C0 ^ C0 = C1 (Sweedler 9.1); a C1 of the right dimension that is
        # not the wedge fails that check, and names the term.
        from qcalg.coalg import FiltrationChain
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.coradical_filtration

        def moved_c1(c):
            chain = original(c)
            terms = list(chain.terms)
            terms[1] = moved(terms[1])
            return FiltrationChain(tuple(terms), chain.stabilized_at)

        monkeypatch.setattr(analyze, "coradical_filtration", moved_c1)
        message = "the wedge C0 ^ C0 is not the coradical filtration term C1"
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            analyze.analyze_spec(ex1_spec, 2)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_socle_series_term_mismatch_exits_3(self, capsys, monkeypatch, ex1_spec):
        # The socle series of C_C is the coradical filtration term by term;
        # a term of the right dimension that differs is named.
        from qcalg.coalg import FiltrationChain
        from qcalg.quiverlab import analyze
        from qcalg.quiverlab.analyze import InternalCheckError
        original = analyze.loewy_series

        def moved_term(m):
            chain = original(m)
            terms = list(chain.terms)
            terms[1] = moved(terms[1])
            return FiltrationChain(tuple(terms), chain.stabilized_at)

        monkeypatch.setattr(analyze, "loewy_series", moved_term)
        message = ("coradical filtration term C1 differs from the regular "
                   "right comodule's socle series term 1")
        with pytest.raises(InternalCheckError, match=re.escape(message)):
            analyze.analyze_spec(ex1_spec, 2)
        code, out, err = run(capsys, "analyze", "ex1", "--N", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        from qcalg import cli as climod

        def boom(*args, **kwargs):
            raise ZeroDivisionError("synthetic")

        monkeypatch.setattr(climod, "analyze_spec", boom)
        code, _, err = run(capsys, "analyze", "ex1", "--N", "1")
        assert code == 3


class TestColorControl:
    def test_color_forced_on_and_off(self, capsys, monkeypatch):
        monkeypatch.setenv("QCALG_COLOR", "1")
        code = main(["check", "ex1", "--N", "1"])
        out = capsys.readouterr().out
        assert code == 0 and "\x1b[32m" in out
        monkeypatch.setenv("QCALG_COLOR", "0")
        main(["check", "ex1", "--N", "1"])
        out = capsys.readouterr().out
        assert "\x1b[" not in out


class TestLeftSideCli:
    def test_left_socle_of_the_regular_comodule(self, capsys):
        code, out, _ = run(capsys, "compute", "ex1", "socle",
                           "--side", "left", "--N", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["dim"] == 3
        assert doc["results"]["multiplicities"] == {"a": 1, "b[1]": 1, "b[2]": 1}


class TestOneParserPerProcess:
    """main() parses with one parser built at import; a parse builds a
    fresh namespace, so no option of one call reaches the next."""

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_pinned_reports_in_one_process(self, order, inputs, monkeypatch, capsys):
        monkeypatch.chdir(inputs)
        cases = HASHED_CASES if order == "forward" else HASHED_CASES[::-1]
        for argv, code, digest in cases:
            got = main(list(argv))
            out = capsys.readouterr().out
            assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, digest), argv

    def test_side_does_not_outlive_its_call(self, inputs, monkeypatch, capsys):
        monkeypatch.chdir(inputs)
        socle = ["compute", "ex1-n2.sc", "socle", "--json"]
        outs = []
        for extra in (["--side", "left"], [], ["--side", "right"], ["--side", "left"]):
            assert main(socle + extra) == 0
            outs.append(capsys.readouterr().out)
        left, default, right, again = outs
        assert default == right != left == again
        assert hashlib.sha256(left.encode("utf-8")).hexdigest() == \
            "1f21e53c10c7850208a2e35ff797a2687a040aceb90d26fb594a2cf5c572fa98"

    def test_version_and_usage_errors_exit_as_before(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == "qcalg 1.0.0\n"
            with pytest.raises(SystemExit) as exc:
                main(["analyze"])
            assert exc.value.code == 2
            assert "the following arguments are required: input" in capsys.readouterr().err
            assert run(capsys, "check", "ex1", "--N", "1")[0] == 0
