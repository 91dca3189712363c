"""Golden reports of the CLI subcommands and their exit codes.

The files under tests/golden/ hold the reports as the CLI printed them; a
refactor of the exact layer must reproduce `verify` and `fiber` byte for
byte.  The `gap` and `crosscheck` reports carry floats from an iterative
eigensolver, and `gap` a measured `runtime_ms`, so they are compared with
the measurement removed, integers exactly and floats to a relative 1e-9."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from transdirac import cli
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


def test_fiber_report_matches_golden(capsys):
    code, out = run_cli(capsys, "fiber", "--q", "4", "--trials", "10", "--seed", "3")
    assert code == cli.EXIT_PASS
    assert out == (GOLDEN / "fiber_q4_trials10_seed3.json").read_text(encoding="utf-8")


def test_fiber_without_trials_exits_2_without_report(capsys):
    """A battery of no pairs would pass without checking anything."""
    code, out = run_cli(capsys, "fiber", "--trials", "0")
    assert code == cli.EXIT_INVALID
    assert out == ""


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


def test_model_without_complex_structure_exits_2_in_every_command(capsys, tmp_path):
    """The theorem assumes a transverse complex structure, so `verify`,
    `gap` and `crosscheck` all refuse a model file without "J", for the
    same reason, instead of choosing a J for it."""
    model = {"name": "t3_landau_no_j", "p": 1, "q": 2, "brackets": [],
             "line_bundle": {"B": [["0", "-1i"], ["1i", "0"]]}}
    path = tmp_path / "t3_landau_no_j.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    errors = []
    for argv in (["verify"], ["gap", "--k", "1", "--N", "16"],
                 ["crosscheck", "--k", "1", "--N", "16"]):
        code = cli.main(argv + ["--model", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID
        assert captured.out == ""
        errors.append(captured.err)
    assert "carries no complex structure" in errors[0]
    assert errors == [errors[0]] * 3


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
        return dataclasses.replace(geom, K=geom.K + rational(1, 7))

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


def test_exact_subcommands_do_not_load_numpy_or_scipy():
    """verify and fiber compute exactly; only gap and crosscheck need the
    float stack, and it is loaded when one of them runs."""
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
        assert run("gap", "--model", "t3_landau", "--k", "1", "--N", "16") == cli.EXIT_PASS
        assert loaded() == ["numpy", "scipy"], loaded()
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
