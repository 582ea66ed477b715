import json
import subprocess
import sys

import pytest

from ditalg.cli import main
from ditalg.fixtures import (
    ALL_FIXTURES, ex1, ex2, exa, exi, exk, exl, stellar_case1, stellar_case2,
)
from ditalg.modcat import simple_at
from ditalg.presentation import (
    emit_module, emit_presentation, load_presentation, parse_presentation,
    save_presentation,
)
from ditalg.scalars import PrimeField, QQ

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, dit in (("ex1", ex1(F2)), ("ex2", ex2(F5)), ("exi", exi(F2)),
                      ("exk", exk(F3)), ("exl", exl(F5))):
        p = tmp_path / f"{name}.json"
        save_presentation(dit, str(p))
        paths[name] = str(p)
    return paths, tmp_path


def test_roundtrip_canonical(files):
    paths, _ = files
    for p in paths.values():
        d = load_presentation(p)
        once = emit_presentation(d)
        twice = emit_presentation(parse_presentation(once))
        assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)


def test_layer_levels_are_derived_not_read():
    # a valid but non-least filtration in the file is not read: the emitted
    # levels are the least ones, and a cyclic delta emits none
    data = {"field": "F5",
            "points": [{"name": "1", "factor": "trivial"},
                       {"name": "2", "factor": "trivial"}],
            "solid_arrows": [{"name": "a", "source": "1", "target": "2"},
                             {"name": "b", "source": "1", "target": "2"},
                             {"name": "c", "source": "2", "target": "1"}],
            "dashed_arrows": [{"name": "v", "source": "1", "target": "2"}],
            "differential": {"a": [["1", "v", "1", "c", "1", "b", "1"]]},
            "w0_filtration": [["b"], ["b", "c"], ["a", "b", "c"]]}
    out = emit_presentation(parse_presentation(data))
    assert out["w0_filtration"] == [["b", "c"], ["a", "b", "c"]]
    assert "w1_filtration" not in out
    data["differential"]["a"] = [["1", "v", "1", "c", "1", "a", "1"]]
    assert "w0_filtration" not in emit_presentation(parse_presentation(data))


def test_cmd_check_passes(files, capsys):
    paths, _ = files
    assert main(["check", paths["exi"]]) == 0
    out = capsys.readouterr().out
    for key in ("directed", "triangular_layer", "triangular_ideal", "balanced",
                "interlaced", "roiter"):
        assert f"{key}: pass" in out


def test_cmd_check_cycle(tmp_path, capsys):
    data = {"field": "F5",
            "points": [{"name": "1", "factor": "trivial"},
                       {"name": "2", "factor": "trivial"}],
            "solid_arrows": [{"name": "a", "source": "1", "target": "2"}],
            "dashed_arrows": [{"name": "v", "source": "2", "target": "1"}]}
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "directed: FAIL (cycle through a -> v)" in out


def test_cmd_check_names_a_delta_dependency_cycle(tmp_path, capsys):
    # delta(a) = a c v: the solid a depends on itself, so no triangular
    # layer filtration exists, and check names the cycle a -> a
    data = {"field": "F5",
            "points": [{"name": "1", "factor": "trivial"},
                       {"name": "2", "factor": "trivial"}],
            "solid_arrows": [{"name": "a", "source": "1", "target": "2"},
                             {"name": "b", "source": "1", "target": "2"},
                             {"name": "c", "source": "2", "target": "1"}],
            "dashed_arrows": [{"name": "v", "source": "1", "target": "2"}],
            "differential": {"a": [["1", "v", "1", "c", "1", "a", "1"]]}}
    p = tmp_path / "cyclic_delta.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "triangular_layer: FAIL (delta-dependency cycle a -> a)" in out
    data["differential"]["a"] = [["1", "v", "1", "c", "1", "b", "1"]]
    p.write_text(json.dumps(data))
    main(["check", str(p)])
    assert "triangular_layer: pass" in capsys.readouterr().out


def test_cmd_check_names_an_ideal_component_without_a_level(tmp_path, capsys):
    # a loop ell at 1, a: 1 -> 2, b: 2 -> 3, I = <b a> and delta(b) = w: the
    # one component b a has delta w a, and nothing lies below it
    data = {"field": "F3",
            "points": [{"name": p, "factor": "trivial"} for p in "123"],
            "solid_arrows": [{"name": "ell", "source": "1", "target": "1"},
                             {"name": "a", "source": "1", "target": "2"},
                             {"name": "b", "source": "2", "target": "3"}],
            "dashed_arrows": [{"name": "w", "source": "2", "target": "3"}],
            "differential": {"b": [["1", "w", "1"]]},
            "ideal": [[["1", "b", "1", "a", "1"]]]}
    p = tmp_path / "loop_then_path.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "triangular_ideal: FAIL (no level for ideal component b*a: delta = w*a)" in out
    del data["differential"]
    p.write_text(json.dumps(data))
    main(["check", str(p)])
    assert "triangular_ideal: pass" in capsys.readouterr().out


def _no_witness_on_a_pass(monkeypatch, name):
    from ditalg import cli

    def refuse(dit):
        raise AssertionError(f"{name} computed on a pass")

    monkeypatch.setattr(cli, name, refuse)


def test_cmd_check_names_an_unbalanced_ideal_generator(tmp_path, capsys, monkeypatch):
    # a: 1 -> 2 with I = <a> and delta(a) = v: delta of the generator a is
    # v, which no word through a spans
    data = {"field": "F3",
            "points": [{"name": p, "factor": "trivial"} for p in "12"],
            "solid_arrows": [{"name": "a", "source": "1", "target": "2"}],
            "dashed_arrows": [{"name": "v", "source": "1", "target": "2"}],
            "differential": {"a": [["1", "v", "1"]]},
            "ideal": [[["1", "a", "1"]]]}
    p = tmp_path / "unbalanced.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "balanced: FAIL (delta of ideal generator a = v lies outside I*V + V*I)" in out
    del data["differential"]
    p.write_text(json.dumps(data))
    _no_witness_on_a_pass(monkeypatch, "unbalanced_generator")
    main(["check", str(p)])
    assert "balanced: pass" in capsys.readouterr().out


def test_cmd_check_names_an_arrow_whose_square_leaves_its_window(tmp_path, capsys, monkeypatch):
    # delta(a) = v and delta(v) = w u with a zero ideal: delta^2(a) = w u is
    # not zero, so it lies outside the (zero) degree-2 window
    data = {"field": "F3",
            "points": [{"name": p, "factor": "trivial"} for p in "123"],
            "solid_arrows": [{"name": "a", "source": "1", "target": "3"}],
            "dashed_arrows": [{"name": "u", "source": "1", "target": "2"},
                              {"name": "w", "source": "2", "target": "3"},
                              {"name": "v", "source": "1", "target": "3"}],
            "differential": {"a": [["1", "v", "1"]], "v": [["1", "w", "1", "u", "1"]]}}
    p = tmp_path / "not_interlaced.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 3
    out = capsys.readouterr().out
    assert "interlaced: FAIL (delta^2(a) = w*u lies outside its window)" in out
    del data["differential"]["v"]
    p.write_text(json.dumps(data))
    _no_witness_on_a_pass(monkeypatch, "uninterlaced_arrow")
    main(["check", str(p)])
    assert "interlaced: pass" in capsys.readouterr().out


@pytest.mark.parametrize("bogus", [[[["1", "a", "1"]]], [[["1", "nope", "1"]]], "levels"])
def test_cmd_check_ignores_an_ideal_filtration_key(files, tmp_path, capsys, bogus):
    # the key is accepted but not read: the ideal levels come from delta
    paths, _ = files
    with open(paths["exi"], encoding="utf8") as fh:
        data = json.load(fh)
    data["ideal_filtration"] = bogus
    p = tmp_path / "exi_filtration.json"
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 0
    assert "triangular_ideal: pass" in capsys.readouterr().out
    assert emit_presentation(load_presentation(str(p))) == \
        emit_presentation(load_presentation(paths["exi"]))


def test_cmd_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["check", str(p)]) == 2


@pytest.mark.parametrize("literal", ["1/0", "0/0"])
def test_cmd_check_rejects_a_zero_denominator_over_q(tmp_path, capsys, literal):
    p = tmp_path / "exl.json"
    save_presentation(exl(QQ), str(p))
    data = json.loads(p.read_text())
    data["ideal"][0][0][0] = literal
    p.write_text(json.dumps(data))
    assert main(["check", str(p)]) == 2
    assert f"parse error: zero denominator (at {literal})" in capsys.readouterr().err


def test_cmd_check_names_a_cycle_that_closes(tmp_path, capsys):
    # the arrow c: z0 -> 1 leads into the loop ell but lies on no cycle
    p = tmp_path / "exa.json"
    save_presentation(exa(F5), str(p))
    assert main(["check", str(p)]) == 3
    assert "directed: FAIL (cycle through ell)" in capsys.readouterr().out


# presentation files that are parse errors, each with the key that the parse
# error names
_POINTS = [{"name": "1", "factor": "trivial"}, {"name": "2", "factor": "trivial"}]
BAD_PRESENTATIONS = {
    "points_as_a_string": {"field": "F5", "points": "x"},
    "point_without_a_name": {"field": "F5", "points": [{"factor": "trivial"}]},
    "solid_arrow_without_a_target": {"field": "F5", "points": _POINTS,
                                     "solid_arrows": [{"name": "a", "source": "1"}]},
    "inverted_as_a_number": {"field": "F5", "points": [
        {"name": "1", "factor": "rational", "inverted": [3]}]},
    "inverted_zero": {"field": "F5", "points": [
        {"name": "1", "factor": "rational", "inverted": ["0"]}]},
    "inverted_zero_mod_3": {"field": "F3", "points": [
        {"name": "1", "factor": "rational", "inverted": ["3"]}]},
    "differential_as_a_list": {"field": "F5", "points": _POINTS, "differential": [1]},
    "arrows_under_an_unknown_key": {"field": "F5", "points": _POINTS,
                                    "solid": [{"name": "a", "source": "1", "target": "2"}]},
    "point_with_an_unknown_key": {"field": "F5", "points": [
        {"name": "1", "factr": "rational"}]},
    "arrow_with_an_unknown_key": {"field": "F5", "points": _POINTS, "solid_arrows": [
        {"name": "a", "source": "1", "target": "2", "wieght": 3}]},
    "dashed_arrow_with_an_unknown_key": {"field": "F5", "points": _POINTS, "dashed_arrows": [
        {"name": "v", "source": "1", "target": "2", "kind": "dashed"}]},
}
BAD_PRESENTATION_KEYS = {
    "points_as_a_string": "points", "point_without_a_name": "points[0]",
    "solid_arrow_without_a_target": "solid_arrows[0]",
    "inverted_as_a_number": "points[0].inverted", "inverted_zero": "points[0].inverted",
    "inverted_zero_mod_3": "points[0].inverted", "differential_as_a_list": "differential",
    "arrows_under_an_unknown_key": "solid", "point_with_an_unknown_key": "points[0].factr",
    "arrow_with_an_unknown_key": "solid_arrows[0].wieght",
    "dashed_arrow_with_an_unknown_key": "dashed_arrows[0].kind",
}


@pytest.mark.parametrize("case", sorted(BAD_PRESENTATIONS))
def test_cmd_check_rejects_a_bad_presentation_file(tmp_path, capsys, case):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(BAD_PRESENTATIONS[case]))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and f"(at {BAD_PRESENTATION_KEYS[case]})" in err


@pytest.mark.parametrize("build", sorted(ALL_FIXTURES.values(), key=lambda f: f.__name__)
                         + [stellar_case1, stellar_case2], ids=lambda f: f.__name__)
@pytest.mark.parametrize("field", [F3, QQ])
def test_every_emitted_presentation_loads(tmp_path, build, field):
    p = tmp_path / "dit.json"
    save_presentation(build(field), str(p))
    once = json.loads(p.read_text())
    assert emit_presentation(load_presentation(str(p))) == once


@pytest.mark.parametrize("field", [F3, QQ])
def test_cmd_classify_rejects_a_bad_lambda_sample(tmp_path, capsys, field):
    p = tmp_path / "exk.json"
    save_presentation(exk(field), str(p))
    assert main(["classify", str(p), "--dim", "2", "--lambda-sample", "0,x"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "--lambda-sample" in err


def test_cmd_classify_rejects_a_lambda_sample_with_denominator_zero(files, capsys):
    paths, _ = files
    assert main(["classify", paths["exk"], "--dim", "2", "--lambda-sample", "1/3"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "'1/3'" in err and "--lambda-sample" in err


def test_cmd_classify_reads_a_fraction_as_a_lambda_sample(files, capsys):
    # 1/2 = 2 and -1/2 = 1 in F3, as in a presentation file's coefficients
    paths, tp = files
    out_path = tp / "report.json"
    assert main(["classify", paths["exk"], "--dim", "2",
                 "--lambda-sample", "1/2,-1/2", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert [s["lambda"] for s in report["families"][0]["sample_specializations"]] == \
        ["2", "1"]


def test_cmd_hom(files, tmp_path, capsys):
    paths, tp = files
    d = ex1(F2)
    s1 = emit_module(simple_at(d, "1"))
    s2 = emit_module(simple_at(d, "2"))
    m1 = tp / "s1.json"
    m2 = tp / "s2.json"
    m1.write_text(json.dumps(s1))
    m2.write_text(json.dumps(s2))
    assert main(["hom", paths["ex1"], str(m1), str(m1)]) == 0
    assert "dim hom = 1" in capsys.readouterr().out
    assert main(["hom", paths["ex1"], str(m1), str(m2)]) == 0
    assert "dim hom = 0" in capsys.readouterr().out


def test_cmd_hom_ex2(files, tmp_path, capsys):
    paths, tp = files
    d = ex2(F5)
    m1 = tp / "m1.json"
    m2 = tp / "m2.json"
    m1.write_text(json.dumps(emit_module(simple_at(d, "1"))))
    m2.write_text(json.dumps(emit_module(simple_at(d, "2"))))
    assert main(["hom", paths["ex2"], str(m1), str(m2)]) == 0
    # the paper's U-condition forces f1 = 0 here (see the decisions ledger)
    assert "dim hom = 0" in capsys.readouterr().out


def test_cmd_reduce_auto(files, tmp_path, capsys):
    paths, tp = files
    out_path = tp / "target.json"
    assert main(["reduce", paths["ex2"], "--auto", "2", "--out", str(out_path)]) == 0
    log = capsys.readouterr().out
    assert "regularization" in log and "minimal" in log
    target = load_presentation(str(out_path))
    assert not target.bigraph.solid_arrows()


def test_cmd_reduce_budget_zero(files, capsys):
    paths, _ = files
    assert main(["reduce", paths["exk"], "--auto", "2", "--budget", "0"]) == 4
    assert "obstruction" in capsys.readouterr().out


def test_cmd_reduce_plan(files, tmp_path, capsys):
    paths, tp = files
    plan = tp / "plan.json"
    plan.write_text(json.dumps({"steps": [{"kind": "regularization", "solid": ["a"]}]}))
    assert main(["reduce", paths["ex2"], "--plan", str(plan)]) == 0
    assert "regularization" in capsys.readouterr().out


def test_cmd_reduce_plan_step_that_fails(files, tmp_path, capsys):
    # exk has delta = 0, so regularizing a cannot be applied: exit 4 with the
    # step named, not a traceback
    paths, tp = files
    plan = tp / "plan.json"
    plan.write_text(json.dumps({"steps": [{"kind": "regularization", "solid": ["a"]}]}))
    assert main(["reduce", paths["exk"], "--plan", str(plan)]) == 4
    assert "step 0 (regularization) failed: " in capsys.readouterr().out
    plan.write_text(json.dumps({"steps": [{"kind": "factor_out", "solid": ["zz"]}]}))
    assert main(["reduce", paths["exk"], "--plan", str(plan)]) == 4
    assert "step 0 (factor_out) failed: no point or arrow 'zz'" in capsys.readouterr().out


def test_cmd_reduce_plan_step_without_its_data(files, tmp_path, capsys):
    paths, tp = files
    plan = tp / "plan.json"
    plan.write_text(json.dumps({"steps": [{"kind": "deletion"}]}))
    assert main(["reduce", paths["exk"], "--plan", str(plan)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "'kept'" in err and "steps[0]" in err


def test_cmd_reduce_plan_deletion_of_an_unknown_point(files, tmp_path, capsys):
    # keeping a point ex2 does not have fails the step: exit 4, no file
    paths, tp = files
    plan, out = tp / "plan.json", tp / "target.json"
    plan.write_text(json.dumps({"steps": [{"kind": "deletion", "kept": ["zz", "1"]}]}))
    assert main(["reduce", paths["ex2"], "--plan", str(plan), "--out", str(out)]) == 4
    assert ("step 0 (deletion) failed: kept points not in the presentation: zz"
            in capsys.readouterr().out)
    assert not out.exists()


def test_cmd_reduce_takes_a_plan_or_auto_not_both(files, tmp_path, capsys):
    paths, tp = files
    plan = tp / "plan.json"
    plan.write_text(json.dumps({"steps": [{"kind": "regularization", "solid": ["a"]}]}))
    assert main(["reduce", paths["ex2"], "--plan", str(plan), "--auto", "2"]) == 2
    captured = capsys.readouterr()
    assert "not both" in captured.err and captured.out == ""
    assert main(["reduce", paths["ex2"]]) == 2
    assert "reduce needs --plan or --auto D" in capsys.readouterr().err


# module files that ex1 (solid a: 1 -> 2, both points trivial) rejects, each
# with the key that the parse error names
BAD_MODULES = {
    "unknown_arrow": ({"dims": {"1": 1, "2": 1}, "arrows": {"zz": [["1"]]}}, "arrows[zz]"),
    "unknown_point": ({"dims": {"1": 1}, "points": {"9": [["1"]]}}, "points[9]"),
    "non_integer_dims": ({"dims": {"1": "x"}}, "dims[1]"),
    "x_action_at_a_trivial_point": ({"dims": {"1": 1}, "points": {"1": [["0"]]}}, "points[1]"),
    "matrix_of_the_wrong_shape": ({"dims": {"1": 1, "2": 1}, "arrows": {"a": [["1", "0"]]}},
                                  "arrows[a]"),
    "polynomial_matrix_entry": ({"dims": {"1": 1, "2": 1}, "arrows": {"a": [["x"]]}},
                                "arrows[a]"),
    "dims_as_a_list": ({"dims": [1]}, "dims"),
    "unknown_key": ({"dims": {"1": 1}, "dimz": {"2": 1}}, "dimz"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODULES))
def test_cmd_hom_rejects_a_bad_module_file(files, capsys, case):
    paths, tp = files
    data, key = BAD_MODULES[case]
    good, bad = tp / "good.json", tp / "bad.json"
    good.write_text(json.dumps(emit_module(simple_at(ex1(F2), "1"))))
    bad.write_text(json.dumps(data))
    assert main(["hom", paths["ex1"], str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and key in err


def test_cmd_hom_rejects_a_missing_module_file(files, capsys):
    paths, tp = files
    missing = str(tp / "missing.json")
    assert main(["hom", paths["ex1"], missing, missing]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "missing.json" in err


# plan file contents that are parse errors (None: no file), each with the
# key or place that the parse error names
BAD_PLANS = {
    "missing_file": (None, "plan.json"),
    "invalid_json": ("{not json", "plan.json"),
    "kept_as_a_string": (json.dumps({"steps": [{"kind": "deletion", "kept": "12"}]}),
                         "steps[0].kept"),
    "loop_as_a_number": (json.dumps({"steps": [{"kind": "absorption", "loop": 3}]}),
                         "steps[0].loop"),
    "misspelled_steps": (json.dumps({"step": [{"kind": "deletion", "kept": ["1"]}]}), "step"),
    "unknown_step_key": (json.dumps({"steps": [{"kind": "deletion", "kept": ["1"], "x": 0}]}),
                         "steps[0].x"),
    "another_kinds_key": (json.dumps({"steps": [{"kind": "deletion", "kept": ["1"],
                                                 "solid": ["a"]}]}), "steps[0].solid"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLANS))
def test_cmd_reduce_rejects_a_bad_plan_file(files, capsys, case):
    paths, tp = files
    text, key = BAD_PLANS[case]
    plan = tp / "plan.json"
    if text is not None:
        plan.write_text(text)
    assert main(["reduce", paths["exk"], "--plan", str(plan)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and key in err


def test_cmd_classify_ex1(files, tmp_path, capsys):
    paths, tp = files
    out_path = tp / "report.json"
    assert main(["classify", paths["ex1"], "--dim", "3", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert {"steps", "minimal", "indecomposables", "families"} <= report.keys()
    assert len(report["indecomposables"]) == 3
    assert report["families"] == []


def test_cmd_classify_exk(files, tmp_path, capsys):
    paths, tp = files
    out_path = tp / "report.json"
    assert main(["classify", paths["exk"], "--dim", "2",
                 "--lambda-sample", "0,1,2", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert len(report["families"]) == 1
    assert [s["lambda"] for s in report["families"][0]["sample_specializations"]] == \
        ["0", "1", "2"]
    assert report["exhaustive_residue"] == []


def test_cmd_classify_minimal_input(tmp_path, capsys):
    data = {"field": "F3",
            "points": [{"name": "1", "factor": "rational", "inverted": ["x"]}]}
    p = tmp_path / "min.json"
    p.write_text(json.dumps(data))
    assert main(["classify", str(p), "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "0 reduction steps" in out
    assert "family at 1" in out


def test_cli_determinism(files, tmp_path):
    paths, tp = files
    o1, o2 = tp / "r1.json", tp / "r2.json"
    main(["classify", paths["exk"], "--dim", "2", "--out", str(o1)])
    main(["classify", paths["exk"], "--dim", "2", "--out", str(o2)])
    assert o1.read_text() == o2.read_text()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ditalg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classify" in proc.stdout


def test_classify_demo_script(capsys):
    # the demo cross-checks each emitted family against the functor images
    import runpy
    from pathlib import Path

    demo = Path(__file__).resolve().parent.parent / "scripts" / "run_classify_demo.py"
    runpy.run_path(str(demo), run_name="demo")["main"]()
    out = capsys.readouterr().out
    assert "family check at" in out
    assert "MISMATCH" not in out
    assert "0 missing" in out


def test_compare_classes_compares_obstruction_reasons(tmp_path, capsys):
    # two runs that stopped at an obstruction match only when the reasons
    # agree, and every line carries each side's plan length
    import importlib.util
    import pathlib

    script = pathlib.Path(__file__).parent.parent / "scripts" / "compare_classes.py"
    spec = importlib.util.spec_from_file_location("compare_classes", script)
    compare_classes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_classes)
    a, b, c = (tmp_path / n for n in "abc")
    for side, reason, steps in ((a, "stalled", 3), (b, "stalled", 2), (c, "budget", 3)):
        side.mkdir()
        (side / "exa-F3-3.json").write_text(json.dumps(
            {"obstruction": reason, "steps": [{}] * steps}))
    assert compare_classes.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "exa F3 d=3: MATCH obstruction; plan steps 3 / 2\n"
    assert compare_classes.main([str(a), str(c)]) == 1
    assert capsys.readouterr().out == \
        "exa F3 d=3: MISMATCH obstruction reasons differ; plan steps 3 / 3\n"


def test_uncovered_lines_runs_the_suite_unless_a_path_is_named(tmp_path, monkeypatch):
    # options alone keep tests/; a named path, also with a node id, is made
    # absolute from the calling directory and replaces tests/
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "uncovered_lines", root / "scripts" / "uncovered_lines.py")
    uncovered_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(uncovered_lines)
    tests = str(root / "tests")
    (tmp_path / "test_x.py").write_text("")
    monkeypatch.chdir(tmp_path)
    assert uncovered_lines.pytest_args([]) == [tests]
    assert uncovered_lines.pytest_args(["-q", "-x"]) == ["-q", "-x", tests]
    assert uncovered_lines.pytest_args(["-k", "nowhere.py"]) == ["-k", "nowhere.py", tests]
    assert uncovered_lines.pytest_args(["-q", "test_x.py::test_a"]) == \
        ["-q", str(tmp_path / "test_x.py::test_a")]
    assert uncovered_lines.pytest_args([".", "-x"]) == [str(tmp_path), "-x"]


@pytest.mark.parametrize("argv", [["classify", "--dim", "-2"], ["reduce", "--auto", "-1"],
                                  ["classify", "--dim", "2", "--budget", "-1"],
                                  ["reduce", "--auto", "2", "--budget", "-3"]],
                         ids=["dim", "auto", "classify-budget", "reduce-budget"])
def test_a_negative_bound_is_a_usage_error(files, capsys, argv):
    paths, _ = files
    with pytest.raises(SystemExit) as exc:
        main([argv[0], paths["exk"], *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must not be negative" in captured.err and captured.out == ""


def test_a_zero_bound_is_accepted(files, capsys):
    paths, _ = files
    assert main(["classify", paths["exk"], "--dim", "0"]) == 0
    assert main(["reduce", paths["exk"], "--auto", "0"]) == 0
