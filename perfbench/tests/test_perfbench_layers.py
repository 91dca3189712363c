import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, run  # noqa: E402


def job(spans, import_s=0.5, spectral_import_s=0.25):
    return {"import_s": import_s, "spectral_import_s": spectral_import_s, "spans": spans}


def test_self_time_subtracts_direct_children():
    ms = 1_000_000
    spans = [  # (id, parent, name, t0 ns, t1 ns, value)
        (3, 2, "frame_geometry.validate", 10 * ms, 30 * ms, None),
        (4, 2, "operator_calculus.compose", 40 * ms, 60 * ms, 7),
        (5, 4, "matrices.Mat.matmul", 45 * ms, 50 * ms, None),
        (2, 1, "operator_calculus.verify_suite", 0, 100 * ms, None),
        (6, 1, "frame_geometry.validate", 100 * ms, 110 * ms, None),
        (1, 0, "cli.main", 0, 120 * ms, None),
    ]
    m = layers.pass_metrics([job(spans), job([(1, 0, "frame_geometry.validate", 0, 1, None)])])
    assert abs(m["operator_calculus.verify_suite.s"] - 0.060) < 1e-12
    assert abs(m["operator_calculus.compose.s"] - 0.015) < 1e-12
    assert abs(m["matrices.Mat.matmul.s"] - 0.005) < 1e-12
    assert m["frame_geometry.validate.calls"] == 3
    assert m["frame_geometry.validate.calls_per_job"] == 1.5
    assert m["operator_calculus.normal_form_terms"] == 7
    assert m["cli.import_s"] == 1.0 and m["spectral.import_s"] == 0.5
    assert m["spectral.eigen.calls_per_flux"] == 0


def test_combine_takes_median_times_and_checks_counts():
    a = layers.pass_metrics([job([(1, 0, "spectral.eigen", 0, 10, 64),
                                  (2, 0, "spectral.spectrum_report", 0, 30, None)])])
    b = layers.pass_metrics([job([(1, 0, "spectral.eigen", 0, 20, 64),
                                  (2, 0, "spectral.spectrum_report", 0, 40, None)])])
    counts = layers.count_metrics([{"scalar_calls": {"mul": 5, "add": 2, "inverse": 0},
                                    "max_height_bits": 9}])
    out, repeat = layers.combine([a, b, b], counts, 0.125)
    assert repeat
    assert out["spectral.eigen.s"] == 20e-9
    assert out["spectral.eigen.max_dim"] == 64
    assert out["spectral.eigen.calls_per_flux"] == 1
    assert out["exact.Scalar.mul.calls"] == 5 and out["exact.Scalar.max_height_bits"] == 9
    assert out["trace.overhead_s"] == 0.125
    assert set(out) == set(layers.metric_units())
    c = layers.pass_metrics([job([(1, 0, "spectral.eigen", 0, 20, 128)])])
    assert not layers.combine([a, c], counts, 0.0)[1]


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.metric_units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_tracer_records_spans_and_counts(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for mode in ("spans", "counts"):
        path = tmp_path / f"{mode}.json"
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), mode,
                               str(path), "--", "verify", "--model", "heisenberg"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
        out[mode] = json.loads(path.read_text())
    spans = out["spans"]["spans"]
    names = [s[2] for s in spans]
    roots = [s for s in spans if s[1] == 0]
    assert [s[2] for s in roots] == ["cli.main"]
    # validate is reached through cli, derive_connection and both setups,
    # the latter two through require_valid bound by name in operator_calculus
    assert names.count("frame_geometry.validate") == 4
    assert names.count("frame_geometry.derive_connection") == 1
    assert all(s[5] > 0 for s in spans if s[2] == "operator_calculus.compose")
    counts = out["counts"]
    assert counts["spans"] == []
    assert counts["scalar_calls"]["mul"] > 0 and counts["scalar_calls"]["add"] > 0
    assert counts["max_height_bits"] >= 1
