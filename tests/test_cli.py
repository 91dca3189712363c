"""Golden reports of the CLI subcommands and their exit codes.

The files under tests/golden/ hold the reports as the CLI printed them; a
refactor of the exact layer must reproduce `verify` and `fiber` byte for
byte.  The `gap` and `crosscheck` reports carry floats from an iterative
eigensolver, and `gap` a measured `runtime_ms`, so they are compared with
the measurement removed, integers exactly and floats to a relative 1e-9."""

import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from transdirac import cli
from transdirac import clifford_fiber as cf
from transdirac import frame_geometry as fg
from transdirac import operator_calculus as oc
from transdirac.exact import rational

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("name", ["flat_t3", "heisenberg", "sol", "t3_landau"])
def test_verify_report_matches_golden(capsys, name):
    code, out = run_cli(capsys, "verify", "--model", name)
    assert code == cli.EXIT_PASS
    assert out == (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")


def test_verify_invalid_model_exits_2_without_report(capsys):
    code, out = run_cli(capsys, "verify", "--model", "bad_bundlelike")
    assert code == cli.EXIT_INVALID
    assert out == ""


@pytest.mark.parametrize("spec", ["sol.json", "typo/t3_landau.json", "/nonexistent/dir/sol.json"])
def test_missing_model_path_exits_2_and_loads_no_bundled_model(capsys, monkeypatch, tmp_path,
                                                               spec):
    """Only a bundled model's own name loads it: a path that names no file
    is unreadable input, whatever its stem."""
    monkeypatch.chdir(tmp_path)
    code = cli.main(["verify", "--model", spec])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read model file {spec}: ")


def test_verify_warns_on_a_non_unimodular_frame(capsys, tmp_path):
    """[u1,u2] = 2u1, [u2,u3] = u1 is admissible, but has no compact quotient
    with invariant volume: `verify` passes on it and says so on stderr.
    ad u2 sends u1 to -2u1 and u3 to u1, so tr(ad u2) = -2 (= -div u2)."""
    path = write_landau(tmp_path, "non_unimodular", brackets=[[1, 2, 1, "2"], [2, 3, 1, "1"]])
    code = cli.main(["verify", "--model", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PASS
    assert captured.err == ("warning: non-unimodular frame: tr(ad u2) = -2 != 0 "
                            "(no compact quotient with invariant volume)\n")
    assert json.loads(captured.out)["identities_passed"] == 9


def test_fiber_report_matches_golden(capsys):
    code, out = run_cli(capsys, "fiber", "--q", "4", "--trials", "10", "--seed", "3")
    assert code == cli.EXIT_PASS
    assert out == (GOLDEN / "fiber_q4_trials10_seed3.json").read_text(encoding="utf-8")


def test_fiber_fails_when_it_lists_a_failure(capsys, monkeypatch):
    """A battery that records a failed pair does not pass, whichever flag
    the failure left set."""
    real = cf.odd_lower_bound
    monkeypatch.setattr(cf, "odd_lower_bound",
                        lambda A, mus: real(A, mus)._replace(attained=False))
    code, out = run_cli(capsys, "fiber", "--q", "4", "--trials", "3", "--seed", "1")
    report = json.loads(out)
    assert code == cli.EXIT_VIOLATION
    assert report["passed"] is False
    assert [f["check"] for f in report["failures"]] == ["odd-lower-bound"] * 3


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_main_defaults_blas_to_one_thread(capsys, monkeypatch, preset, expected):
    """The CLI asks OpenBLAS for one thread unless the caller chose a count."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")  # restored at teardown
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    run_cli(capsys, "fiber", "--q", "2", "--trials", "1")
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected


def test_fiber_without_trials_exits_2_without_report(capsys):
    """A battery of no pairs would pass without checking anything."""
    code, out = run_cli(capsys, "fiber", "--trials", "0")
    assert code == cli.EXIT_INVALID
    assert out == ""


def test_oversized_fiber_exits_2_before_the_battery(capsys, monkeypatch):
    """q = 18 would build 512-dimensional spinor matrices for seconds per
    trial, and a larger q until memory runs out (exit 1, a MemoryError):
    the ceiling is q = 16, checked before any battery work."""
    def refuse(*args):
        raise AssertionError("fiber_battery called")

    monkeypatch.setattr(cf, "fiber_battery", refuse)
    code = cli.main(["fiber", "--q", "18", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID
    assert captured.out == ""
    assert "q=18 > 16" in captured.err


def test_parser_lists_the_bundled_models_once(monkeypatch):
    """Every run builds the parser; the three subcommands that take --model
    share one listing of the models directory."""
    calls = []
    real = cli.fg.bundled_model_names
    monkeypatch.setattr(cli.fg, "bundled_model_names", lambda: calls.append(1) or real())
    cli.build_parser()
    assert len(calls) == 1


def test_settable_values_per_subcommand():
    """The settable CLI values are a tracked number: a new flag changes it
    here, visibly."""
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in sub.choices.items()}
    assert counts == {"verify": 4, "gap": 6, "crosscheck": 6, "fiber": 5}
    assert sum(counts.values()) == 21


def defaulted_parameters(node: ast.AST, prefix: str = "") -> dict[str, int]:
    """{qualified name: number of defaulted parameters} of every def below
    `node` that has any."""
    out = {}
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{prefix}{child.name}."
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            if count:
                out[prefix + child.name] = count
        out.update(defaulted_parameters(child, inner))
    return out


def test_defaulted_src_parameters():
    """The defaulted parameters of the package's functions are a tracked
    number too: a new default changes it here, visibly."""
    counts = {}
    for path in sorted((SRC / "transdirac").glob("*.py")):
        found = defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
        assert not counts.keys() & found.keys(), path
        counts.update(found)
    assert counts == {"main": 1, "rational": 1, "Scalar.__new__": 4, "make_model": 2,
                      "Mat.__init__": 1}
    assert sum(counts.values()) == 9


@pytest.mark.parametrize("argv", [
    ("gap", "--model", "t3_landau", "--seed", "1"),
    ("crosscheck", "--model", "t3_landau", "--trials", "3"),
    ("verify", "--model", "sol", "--N", "8"),
    ("fiber", "--N", "8"),
    ("verify", "--model", "t3_landau", "--k", "2..3"),
])
def test_flag_a_subcommand_does_not_read_exits_2(capsys, argv):
    """Each subcommand declares only the flags it reads, and `verify` takes
    one tensor power, not a range it would cut down to its first value."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == cli.EXIT_INVALID
    assert capsys.readouterr().out == ""


def test_every_benchmark_argv_parses(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import run

    jobs = run.exact_suite(1, tmp_path) + run.fiber_gap(1, tmp_path)
    assert jobs
    for job in jobs:
        args = cli.build_parser().parse_args(list(job.argv))
        assert args.command == job.argv[0]


MODEL_COMMANDS = (["verify"], ["gap", "--k", "1", "--N", "16"],
                  ["crosscheck", "--k", "1", "--N", "16"])


def write_landau(tmp_path, stem, **changes):
    """t3_landau as a model file named `stem`, with some keys replaced
    (None drops one)."""
    model = {"name": stem, "p": 1, "q": 2, "brackets": [],
             "line_bundle": {"B": [["0", "-1i"], ["1i", "0"]]},
             "J": [["0", "-1"], ["1", "0"]]}
    model.update(changes)
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps({k: v for k, v in model.items() if v is not None}),
                    encoding="utf-8")
    return str(path)


def invalid_input_errors(capsys, commands, path):
    """stderr of each command on the model file, which must exit 2 without
    a report."""
    errors = []
    for argv in commands:
        code = cli.main(argv + ["--model", path])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID, (argv, captured.err)
        assert captured.out == ""
        errors.append(captured.err)
    return errors


def test_model_without_complex_structure_exits_2_in_every_command(capsys, tmp_path):
    """The theorem assumes a transverse complex structure, so `verify`,
    `gap` and `crosscheck` all refuse a model file without "J", for the
    same reason, instead of choosing a J for it."""
    errors = invalid_input_errors(capsys, MODEL_COMMANDS,
                                  write_landau(tmp_path, "t3_landau_no_j", J=None))
    assert "carries no complex structure" in errors[0]
    assert errors == [errors[0]] * 3


@pytest.mark.parametrize("p, q", [(fg.MAX_DIM - 1, 2), (1, fg.MAX_Q + 2)])
def test_oversized_model_exits_2_in_every_command_before_validation(capsys, monkeypatch,
                                                                     tmp_path, p, q):
    """n = p + q one above 64, or q one above 16: every command refuses the
    file at load, before the model is built or validated."""
    def refuse(*args):
        raise AssertionError("validate called")

    monkeypatch.setattr(fg, "validate", refuse)
    errors = invalid_input_errors(capsys, MODEL_COMMANDS, write_landau(tmp_path, "big", p=p, q=q))
    assert errors == [f"error: model 'big' is too large: q={q} (at most {fg.MAX_Q}) "
                      f"and n=p+q={p + q} (at most {fg.MAX_DIM})\n"] * 3


@pytest.mark.parametrize("command", sorted(cli.MAX_N))
def test_oversized_lattice_exits_2_before_any_work(capsys, monkeypatch, command):
    """`gap` holds N^2 floats and `crosscheck` about 8N^3, so each has its own
    --N ceiling, checked before the model is read: one grid step above it
    exits 2, the ceiling itself goes on to the model."""
    ceiling, _ = cli.MAX_N[command]

    def reached(args):
        raise cli.InputError("model reached")

    monkeypatch.setattr(cli, "_load_model", reached)
    argv = [command, "--model", "t3_landau", "--k", "1", "--N"]
    assert cli.main(argv + [str(ceiling + 2)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: N={ceiling + 2} > {ceiling}: {command} holds ")
    assert cli.main(argv + [str(ceiling)]) == cli.EXIT_INVALID
    assert capsys.readouterr().err == "error: model reached\n"
    assert ceiling > {"gap": 64, "crosscheck": 32}[command]  # the largest N CI runs


def test_unknown_bare_model_name_lists_the_bundled_models(capsys, monkeypatch, tmp_path):
    """A bare name that is neither a file nor a bundled model is most likely
    a mistyped bundled name: every command says which names there are."""
    monkeypatch.chdir(tmp_path)
    errors = invalid_input_errors(capsys, MODEL_COMMANDS, "nosuchmodel")
    assert errors[0] == ("error: no model file or bundled model 'nosuchmodel'; the bundled "
                         "models are bad_bundlelike, flat_t3, heisenberg, sol, t3_landau\n")
    assert errors == [errors[0]] * 3


def test_a_directory_does_not_shadow_a_bundled_model(capsys, monkeypatch, tmp_path):
    """A bare name loads a file of that name where one exists, else the
    bundled model: a directory of that name is not a model file."""
    for name in ("sol", "t3_landau"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "verify", "--model", "sol")[0] == cli.EXIT_PASS
    code, _ = run_cli(capsys, "gap", "--model", "t3_landau", "--k", "1", "--N", "16")
    assert code == cli.EXIT_PASS


@pytest.mark.parametrize("jrows, reason", [
    ([["1", "0"], ["0", "1"]], "J^2 != -Identity"),
    ([["1", "-2"], ["1", "-1"]], "J not orthogonal"),
    ([["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]], "not q x q"),
])
def test_model_with_invalid_complex_structure_exits_2_in_every_command(
        capsys, tmp_path, jrows, reason):
    """A "J" that is not an orthogonal complex structure on the transverse
    space is invalid input for every command, for the same reason."""
    errors = invalid_input_errors(capsys, MODEL_COMMANDS,
                                  write_landau(tmp_path, "t3_landau_bad_j", J=jrows))
    assert reason in errors[0]
    assert errors == [errors[0]] * 3


@pytest.mark.parametrize("brows", [
    [["0", "0"], ["0", "0"]],            # degenerate
    [["0", "1i"], ["-1i", "0"]],         # i B_12 = -1: reversed orientation
])
def test_line_bundle_not_positive_for_j_exits_2_on_the_lattice(capsys, tmp_path, brows):
    """The gap and Riemann-Roch checks assume the theorem's positive line
    bundle; outside it `gap` and `crosscheck` exit 2, not 1."""
    path = write_landau(tmp_path, "t3_not_positive", line_bundle={"B": brows})
    errors = invalid_input_errors(capsys, MODEL_COMMANDS[1:], path)
    assert "not positive for J" in errors[0]
    assert errors == [errors[0]] * 2


def test_line_bundle_positive_for_a_reversed_j_passes_on_the_lattice(capsys, tmp_path):
    """t3_landau mirrored: J and B both reversed, so B is positive for J and
    its Chern number i B_12 = -1 is negative in the frame's orientation.
    Riemann-Roch counts k|c| even kernel states, not k*c."""
    path = write_landau(tmp_path, "t3_mirrored", J=[["0", "1"], ["-1", "0"]],
                        line_bundle={"B": [["0", "1i"], ["-1i", "0"]]})
    code, out = run_cli(capsys, "gap", "--model", path, "--k", "1..2", "--N", "16")
    assert code == cli.EXIT_PASS, out
    report = json.loads(out)
    assert [(r["kernel_even"], r["kernel_odd"]) for r in report["rows"]] == [(1, 0), (2, 0)]
    assert report["notes"] == []
    code, out = run_cli(capsys, "crosscheck", "--model", path, "--k", "1..2", "--N", "16")
    assert code == cli.EXIT_PASS, out


@pytest.mark.parametrize("argv, module, name", [
    (("verify", "--model", "sol"), oc, "verify_suite"),
    (("gap", "--model", "t3_landau", "--k", "1", "--N", "16"), cli.spec, "gap_scan"),
    (("crosscheck", "--model", "t3_landau", "--k", "1", "--N", "16"),
     cli.spec, "crosscheck_rows"),
], ids=["verify", "gap", "crosscheck"])
@pytest.mark.parametrize("error, code", [(oc.SetupError, cli.EXIT_INVALID),
                                         (cli.spec.SolverError, cli.EXIT_NUMERICAL)],
                         ids=["setup", "solver"])
def test_every_command_maps_typed_errors_to_one_exit_code(
        capsys, monkeypatch, argv, module, name, error, code):
    """Each command's computation may raise; `main` turns a setup error
    into exit 2 and a solver failure into exit 3, with no report."""
    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(module, name, fail)
    assert cli.main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: injected failure\n"


def test_an_unmapped_exception_propagates(capsys, monkeypatch):
    """An exception outside the mapping is a bug, not an exit code."""
    def fail(*args):
        raise cf.IncompatiblePair("injected failure")

    monkeypatch.setattr(cf, "fiber_battery", fail)
    with pytest.raises(cf.IncompatiblePair, match="injected failure"):
        cli.main(["fiber", "--q", "2", "--trials", "1"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("changes, reason", [
    ({"brackets": [[2, 3, 1, "1/0"]]}, "zero denominator"),
    ({"J": [["0", "-1/0"], ["1", "0"]]}, "zero denominator"),
    ({"line_bundle": {"B": [["0", "-1/0i"], ["1/0i", "0"]]}}, "zero denominator"),
    ({"brackets": [[2, 3, 1, 4]]}, "must be a string"),
    ({"J": [[0, -1], [1, 0]]}, "must be a string"),
    ({"line_bundle": {"B": [[0, "-1i"], ["1i", "0"]]}}, "must be a string"),
    ({"p": -1}, "p must be a nonnegative integer"),
    ({"p": 1.5}, "p must be a nonnegative integer"),
    ({"p": True}, "p must be a nonnegative integer"),
    ({"q": "2"}, "q must be a nonnegative integer"),
    ({"brackets": [[2, 3, 1.9, "1"]]}, "bracket index must be"),
    ({"q": 0, "line_bundle": None, "J": []}, "codimension must be even and >= 2"),
    ({"name": {"a": 1}}, "name must be a string"),
    ({"brackets": [[2, 2, 3, "5"]]}, "with itself"),
], ids=["bracket-1/0", "J-1/0", "B-1/0", "bracket-number", "J-numbers", "B-number",
        "p-negative", "p-float", "p-bool", "q-string", "index-float", "q-zero",
        "name-object", "self-bracket"])
def test_malformed_model_value_exits_2_in_every_command(capsys, tmp_path, changes, reason):
    """A malformed value is invalid input, not a traceback (a zero
    denominator, a JSON number for a scalar string) and not a different
    model ("p": 1.5 read as 1, a self-bracket [u2, u2] = 5 u3 dropped)."""
    errors = invalid_input_errors(capsys, MODEL_COMMANDS,
                                  write_landau(tmp_path, "t3_malformed", **changes))
    assert all(err.startswith("error: ") for err in errors)
    assert reason in errors[0]  # `verify`'s; the lattice commands may refuse q first


def test_model_file_not_a_json_object_exits_2_in_every_command(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    errors = invalid_input_errors(capsys, MODEL_COMMANDS, str(path))
    assert "must be a JSON object" in errors[0]


@pytest.mark.parametrize("argv", [
    ("verify", "--model", "sol"),
    ("fiber", "--q", "2", "--trials", "1"),
    ("gap", "--model", "t3_landau", "--k", "1", "--N", "16"),
])
def test_out_into_missing_directory_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv) + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_INVALID
    assert "no directory" in capsys.readouterr().err
    assert not out.parent.exists()


def test_out_leaves_a_sibling_tmp_file_alone(capsys, tmp_path):
    """The report goes through a temporary file named after the whole
    output name, so neither report.tmp nor the other format's output is
    touched."""
    sibling = tmp_path / "report.tmp"
    sibling.write_text("keep", encoding="utf-8")
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        argv = ["fiber", "--q", "2", "--trials", "1", "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_PASS
        assert out.read_text(encoding="utf-8")
    assert sibling.read_text(encoding="utf-8") == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json", "report.tmp"]
    assert capsys.readouterr().out == ""


def test_out_naming_a_directory_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fiber", "--q", "2", "--trials", "1", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_INVALID
    assert "is a directory" in capsys.readouterr().err
    assert list(tmp_path.parent.glob(tmp_path.name + ".tmp")) == []


def test_out_whose_tmp_name_is_a_directory_exits_2_without_traceback(capsys, tmp_path):
    """A report that cannot be written is refused input, not a violation:
    with a directory where the temporary file goes, `verify` runs the suite,
    then exits 2 with one error line and leaves the directory alone."""
    out = tmp_path / "r.json"
    (tmp_path / "r.json.tmp").mkdir()
    code = cli.main(["verify", "--model", "sol", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json.tmp"]


def test_out_on_a_full_disk_exits_2_and_removes_its_tmp_file(capsys, monkeypatch, tmp_path):
    """A write that fails part way (here ENOSPC after the file exists)
    leaves neither the report nor its temporary file."""
    def full_disk(path, text, encoding):
        with open(path, "w", encoding=encoding) as fh:
            fh.write(text[:10])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full_disk)
    out = tmp_path / "r.json"
    code = cli.main(["fiber", "--q", "2", "--trials", "1", "--out", str(out)])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err == (f"error: cannot write {out}: "
                                       "[Errno 28] No space left on device\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "1", "1.5", "inf", "0", "-0.05", "x"])
def test_gap_tol_outside_unit_interval_exits_2(capsys, tol):
    """At tol >= 1 the bound 2km(1 - tol) is vacuous, and NaN fails no
    comparison, so only 0 < tol < 1 is accepted."""
    for command in ("gap", "crosscheck"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--model", "t3_landau", "--k", "1", "--N", "16",
                      "--tol", tol])
        assert exc.value.code == cli.EXIT_INVALID
        assert "--tol" in capsys.readouterr().err


def test_gap_tol_default_is_inside_the_unit_interval(capsys):
    assert cli.build_parser().parse_args(["gap", "--model", "t3_landau"]).tol == 0.05
    code, _ = run_cli(capsys, "gap", "--model", "t3_landau", "--k", "1", "--N", "16",
                      "--tol", "0.05")
    assert code == cli.EXIT_PASS


def assert_close_tree(got, want, path="$"):
    """Equal structure; ints, bools and strings exact, floats to rel 1e-9."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_close_tree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_tree(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9), (path, got, want)
    else:
        assert got == want, path


def test_gap_report_matches_golden(capsys):
    code, out = run_cli(capsys, "gap", "--model", "t3_landau", "--k", "1..2", "--N", "16")
    assert code == cli.EXIT_PASS
    report = json.loads(out)
    for row in report["rows"]:
        del row["runtime_ms"]
    want = json.loads((GOLDEN / "gap_t3_landau_k1-2_N16.json").read_text(encoding="utf-8"))
    assert_close_tree(report, want)


def test_crosscheck_report_matches_golden(capsys):
    code, out = run_cli(capsys, "crosscheck", "--model", "t3_landau", "--k", "1..2", "--N", "16")
    assert code == cli.EXIT_PASS
    want = json.loads((GOLDEN / "crosscheck_t3_landau_k1-2_N16.json").read_text(encoding="utf-8"))
    assert_close_tree(json.loads(out), want)


def test_failed_identity_reports_worst_monomial(capsys, monkeypatch):
    """A scalar curvature off by 1/7 breaks (a), (d) and (i), the identities
    whose right-hand side carries S/4, in the degree-0 monomial; passing
    identities keep the report without the key."""
    derive = oc.derive_connection

    def tweaked(model):
        geom = derive(model)
        return geom._replace(K=geom.K + rational(1, 7))

    monkeypatch.setattr(oc, "derive_connection", tweaked)
    code, out = run_cli(capsys, "verify", "--model", "sol")
    assert code == cli.EXIT_VIOLATION
    by_key = {it["key"]: it for it in json.loads(out)["identities"]}
    for key in "adi":
        residual = by_key[key]["residual"]
        assert not residual["exact_zero"] and residual["worst_monomial"] == "1"
    for key in "bcefgh":
        assert by_key[key]["status"] == "pass"
        assert "worst_monomial" not in by_key[key]["residual"]


def test_a_run_imports_only_what_it_uses():
    """Importing the CLI loads every module the benchmark tracer wraps, and
    verify, fiber and gap load none of the standard-library machinery they
    do not use.  python -S keeps site from preloading any of it."""
    script = textwrap.dedent("""
        import io, sys
        import transdirac.cli as cli
        after_import = set(sys.modules)

        def run(*argv):
            stdout, sys.stdout = sys.stdout, io.StringIO()
            try:
                return cli.main(list(argv))
            finally:
                sys.stdout = stdout

        assert run("verify", "--model", "heisenberg") == cli.EXIT_PASS
        assert run("fiber", "--q", "4", "--trials", "2") == cli.EXIT_PASS
        assert run("gap", "--model", "t3_landau", "--k", "0..2", "--N", "16") == cli.EXIT_PASS
        unused = ("dataclasses", "inspect", "typing", "importlib.resources", "csv",
                  "fractions", "decimal", "numbers")
        loaded = [m for m in unused if m in sys.modules]
        assert loaded == [], loaded
        from perfbench.tracer import SPANNED
        missing = {f"transdirac.{mod}" for _, mod, _, _ in SPANNED} - after_import
        assert not missing, missing
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), str(ROOT), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, header", [
    (("verify", "--model", "sol"), ["key", "status", "max_abs"]),
    (("gap", "--model", "t3_landau", "--k", "1..2", "--N", "16"),
     ["k", "N", "gap", "2km", "fitted_C", "kernel_odd", "kernel_even", "runtime_ms"]),
    (("fiber", "--q", "4", "--trials", "2"), ["q", "trials", "passed"]),
])
def test_csv_format_writes_the_report_rows(capsys, argv, header):
    """--format csv writes one line per row of the JSON report: its
    identities, its rows, or the report itself for fiber."""
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == cli.EXIT_PASS
    rows = list(csv.DictReader(io.StringIO(out)))
    report = json.loads(run_cli(capsys, *argv)[1])
    want = report.get("rows") or report.get("identities") or [report]
    assert len(rows) == len(want)
    for row, entry in zip(rows, want):
        assert list(row) == header
        for key in set(row) & set(entry) - {"runtime_ms"}:
            assert row[key] == str(entry[key]), key


def test_exact_subcommands_do_not_load_numpy_or_scipy():
    """verify and fiber compute exactly, and gap counts eigenvalues in plain
    floats; only crosscheck needs numpy, for its eigenvectors and its
    site-basis D, and loads it when it runs.  Nothing loads scipy."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        import transdirac.cli as cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                return cli.main(list(argv))

        def loaded():
            return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

        assert loaded() == [], loaded()
        assert run("verify", "--model", "heisenberg") == cli.EXIT_PASS
        assert run("verify", "--model", "bad_bundlelike") == cli.EXIT_INVALID
        assert run("fiber", "--q", "4", "--trials", "2") == cli.EXIT_PASS
        assert loaded() == [], loaded()
        assert run("gap", "--model", "t3_landau", "--k", "0..2", "--N", "16") == cli.EXIT_PASS
        assert loaded() == [], loaded()
        assert run("crosscheck", "--model", "t3_landau", "--k", "1", "--N", "16") == cli.EXIT_PASS
        assert loaded() == ["numpy"], loaded()
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# The process path: `python -m transdirac.cli` ends through `cli.run`.

def process(*argv, stdout=subprocess.PIPE, prelude=None):
    """A new interpreter running the CLI on argv: `python -m transdirac.cli`,
    or `prelude` followed by `cli.run()` as a -c script.  Its stdout is
    buffered, as by default, so a report that `run` left unflushed is lost."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if prelude is None:
        cmd = [sys.executable, "-m", "transdirac.cli", *argv]
    else:
        script = f"import sys\nimport transdirac.cli as cli\n{prelude}\ncli.run()\n"
        cmd = [sys.executable, "-c", script, *argv]
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=300)


@pytest.mark.parametrize("argv, golden", [
    (("verify", "--model", "sol"), "verify_sol.json"),
    (("fiber", "--q", "4", "--trials", "10", "--seed", "3"), "fiber_q4_trials10_seed3.json"),
])
def test_process_report_matches_golden_on_stdout_and_in_out(tmp_path, argv, golden):
    """The report a process prints is its golden byte for byte, and --out
    writes the same bytes."""
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    proc = process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_PASS, want, "")
    out = tmp_path / "report.json"
    proc = process(*argv, "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_PASS, "", "")
    assert out.read_text(encoding="utf-8") == want


def test_process_exit_codes_and_help(monkeypatch):
    """Invalid input and a usage error exit 2; --help exits 0 with the
    whole help text on stdout."""
    proc = process("verify", "--model", "bad_bundlelike")
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INVALID, "")
    assert proc.stderr.startswith("error: invalid model 'bad_bundlelike': ")
    proc = process("verify")
    assert (proc.returncode, proc.stdout) == (cli.EXIT_INVALID, "")
    assert "the following arguments are required: --model" in proc.stderr
    monkeypatch.setenv("COLUMNS", "80")
    proc = process("--help")
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PASS, "")
    assert proc.stdout == cli.build_parser().format_help()


def test_process_prints_the_non_unimodular_warning(tmp_path):
    path = write_landau(tmp_path, "non_unimodular", brackets=[[1, 2, 1, "2"], [2, 3, 1, "1"]])
    proc = process("verify", "--model", path)
    assert proc.returncode == cli.EXIT_PASS
    assert proc.stderr == ("warning: non-unimodular frame: tr(ad u2) = -2 != 0 "
                           "(no compact quotient with invariant volume)\n")
    assert json.loads(proc.stdout)["identities_passed"] == 9


@pytest.mark.parametrize("code", [cli.EXIT_VIOLATION, cli.EXIT_NUMERICAL])
def test_run_exits_with_the_code_main_returns(code):
    proc = process(prelude=f"cli.main = lambda: {code}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")


def test_run_ends_the_process_without_interpreter_teardown():
    """After a run that returns a code, the process ends at once: an atexit
    handler registered before it does not fire."""
    prelude = ("import atexit\n"
               "atexit.register(lambda: print('atexit handler ran', file=sys.stderr))")
    proc = process("fiber", "--q", "2", "--trials", "1", prelude=prelude)
    assert proc.returncode == cli.EXIT_PASS
    assert json.loads(proc.stdout)["passed"] is True
    assert proc.stderr == ""


@pytest.mark.parametrize("raised, code, shown", [
    ("RuntimeError('injected failure')", 1, "RuntimeError: injected failure"),
    ("SystemExit('injected message')", 1, "injected message"),
])
def test_run_leaves_an_exception_to_the_normal_exit(raised, code, shown):
    """An exception from `main` is a bug: it keeps its traceback and exit 1.
    A SystemExit with a message exits as the interpreter exits on it."""
    prelude = ("import atexit\n"
               "atexit.register(lambda: print('atexit handler ran', file=sys.stderr))\n"
               f"def fail():\n    raise {raised}\n"
               "cli.main = fail")
    proc = process(prelude=prelude)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert shown in proc.stderr
    assert "atexit handler ran" in proc.stderr
    assert ("Traceback" in proc.stderr) == raised.startswith("RuntimeError")


def assert_refused_stdout(proc, reason):
    assert proc.returncode == cli.EXIT_INVALID
    assert proc.stderr == f"error: cannot write the report to stdout: {reason}\n"


def test_report_into_a_closed_pipe_exits_2_without_traceback():
    """A report that cannot reach stdout was not delivered: exit 2 with one
    error line, not exit 1 with a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = process("verify", "--model", "sol", stdout=write_end)
    finally:
        os.close(write_end)
    assert_refused_stdout(proc, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_onto_a_full_device_exits_2_without_traceback():
    with open("/dev/full", "w") as full:
        proc = process("fiber", "--q", "4", "--trials", "2", stdout=full)
    assert_refused_stdout(proc, "[Errno 28] No space left on device")
