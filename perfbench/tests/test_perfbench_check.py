import copy
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import check  # noqa: E402


def verify_report(model="heisenberg", k=1):
    return {"command": "verify", "model": model, "k": k, "passed": True,
            "identities_passed": 9,
            "identities": [{"key": key, "identity": f"identity {key}", "status": "pass",
                            "reported_only": key == "h",
                            "residual": {"exact_zero": True, "max_abs": 0.0}}
                           for key in "abcdefghi"]}


def gap_report(N=24):
    rows = []
    for k in (1, 2, 3, 4):
        two_km = 4 * math.pi * k
        gap = two_km * (1 - 0.003 * k)
        rows.append({"k": k, "N": N, "gap": gap, "2km": two_km,
                     "fitted_C": two_km - gap, "kernel_odd": 0, "kernel_even": k,
                     "runtime_ms": 12.5})
    return {"command": "gap", "model": "t3_landau", "N": N, "rows": rows,
            "fitted_C": rows[-1]["fitted_C"], "notes": [], "passed": True}


def check_verify(report, exit_code=0):
    return check.check_output(exit_code, json.dumps(report), 0,
                              check.expected_verify("heisenberg", True))


def check_gap(report):
    return check.check_output(0, json.dumps(report), 0,
                              lambda r: check.expected_gap(r, "t3_landau", 24, (1, 2, 3, 4),
                                                           chern=1, mu=1.0))


def test_verify_report_accepted_and_measurements_ignored():
    report = verify_report()
    assert check_verify(report) == []
    report["metrics"] = {"stages": {"validate": 0.1}}
    report["identities"][0]["runtime_ms"] = 3.0
    assert check_verify(report) == []


def test_verify_report_alterations_rejected():
    alterations = [
        lambda r: r["identities"][2].update(status="FAIL"),
        lambda r: r.update(identities_passed=8),
        lambda r: r.update(passed=1),                      # int where bool is due
        lambda r: r["identities"][4]["residual"].update(max_abs=1e-300),
        lambda r: r["identities"].pop(),
        lambda r: r.update(k=0),
        lambda r: r.update(extra="field"),
        lambda r: r["identities"][0].update(identity=""),
        lambda r: r["identities"][7].update(reported_only=False),
    ]
    for alter in alterations:
        report = verify_report()
        alter(report)
        assert check_verify(report), alter
    assert check_verify(verify_report(), exit_code=1) == ["exit code 1, expected 0"]


def test_flat_model_has_tensor_power_zero():
    expected = check.expected_verify("flat_t3", False)
    assert check.compare(verify_report("flat_t3", 0), expected) == []


def test_gap_report_checked_against_continuum():
    assert check_gap(gap_report()) == []
    bad = []
    r = gap_report(); r["rows"][1]["kernel_odd"] = 1; bad.append(r)
    r = gap_report(); r["rows"][2]["kernel_even"] = 2; bad.append(r)
    r = gap_report(); r["rows"][0]["gap"] *= 0.9; r["rows"][0]["fitted_C"] = r["rows"][0]["2km"] - r["rows"][0]["gap"]; bad.append(r)
    r = gap_report(); r["rows"][3]["fitted_C"] += 0.01; bad.append(r)
    r = gap_report(); r["rows"][3]["2km"] *= 1.001; bad.append(r)
    r = gap_report(); r["fitted_C"] = 0.0; bad.append(r)
    r = gap_report(); r["notes"] = ["k=1: odd kernel dimension 1 != 0"]; bad.append(r)
    r = gap_report(); del r["rows"][3]; bad.append(r)
    for report in bad:
        assert check_gap(report), report


def test_gap_tolerance_allows_another_eigensolver():
    report = gap_report()
    for row in report["rows"]:
        row["gap"] *= 1 + 1e-8
        row["fitted_C"] = row["2km"] - row["gap"]
    report["fitted_C"] = report["rows"][-1]["fitted_C"]
    assert check_gap(report) == []


def test_invalid_model_expects_exit_without_report():
    assert check.check_output(2, "", 2, None) == []
    assert check.check_output(0, "", 2, None) == ["exit code 0, expected 2"]
    assert check.check_output(2, "{}", 2, None) == ["report written where none was expected"]


def test_fiber_report():
    expected = check.expected_fiber(6, 60, 3)
    report = {"command": "fiber", "q": 6, "trials": 60, "seed": 3,
              "bottom_eigenvalue_exact": True, "odd_bound_margin_nonnegative": True,
              "failures": [], "passed": True}
    assert check.compare(report, expected) == []
    broken = copy.deepcopy(report)
    broken["failures"] = [{"trial": 4, "check": "odd-lower-bound"}]
    assert check.compare(broken, expected)
    assert check.check_output(0, "not json", 0, expected) == ["report is not JSON"]
