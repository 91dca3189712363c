"""Output checker: each job's report against the report the mathematics
predicts.

Measurement fields (``runtime_ms`` and any ``metrics`` key) are removed
before comparing.  Integers, booleans and strings must match exactly.
Floats that follow exactly from the inputs match at FLOAT_RTOL; the lattice
gap, which only approximates its continuum value, at GAP_TOL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# Relative tolerance for floats fixed by the inputs, such as 2km.  Loose
# enough for a different eigensolver: two solvers of the same lattice
# operator agree to about 1e-8.
FLOAT_RTOL = 1e-6
# Relative tolerance of the lattice gap against the continuum gap 2km.  The
# lattice lowers each level by O((k/N)^2), 1.4% at k=4, N=24; this is also
# the CLI's default --tol.
GAP_TOL = 0.05

MEASUREMENT_KEYS = frozenset({"runtime_ms", "metrics"})
IDENTITY_KEYS = "abcdefghi"


def strip_measurements(report):
    if isinstance(report, dict):
        return {k: strip_measurements(v) for k, v in report.items()
                if k not in MEASUREMENT_KEYS}
    if isinstance(report, list):
        return [strip_measurements(v) for v in report]
    return report


@dataclass(frozen=True)
class Approx:
    """A float within `tol` of `value`, relative to `scale` (default |value|)."""
    value: float
    tol: float = FLOAT_RTOL
    scale: float | None = None

    def mismatch(self, actual) -> str | None:
        if not _is_number(actual):
            return f"expected a number near {self.value!r}, got {actual!r}"
        scale = abs(self.value) if self.scale is None else self.scale
        if not abs(actual - self.value) <= self.tol * scale:
            return f"{actual!r} differs from {self.value!r} by more than {self.tol} x {scale!r}"
        return None


@dataclass(frozen=True)
class NonEmptyString:
    def mismatch(self, actual) -> str | None:
        if isinstance(actual, str) and actual:
            return None
        return f"expected a non-empty string, got {actual!r}"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def compare(actual, expected, path: str = "$") -> list[str]:
    """Every difference between a report and its expectation, by JSON path."""
    if isinstance(expected, (Approx, NonEmptyString)):
        err = expected.mismatch(actual)
        return [f"{path}: {err}"] if err else []
    if isinstance(expected, float):
        return compare(actual, Approx(expected), path)
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        errs = [f"{path}: unexpected key {k!r}" for k in sorted(actual.keys() - expected.keys())]
        errs += [f"{path}: missing key {k!r}" for k in sorted(expected.keys() - actual.keys())]
        for k in sorted(expected.keys() & actual.keys()):
            errs += compare(actual[k], expected[k], f"{path}.{k}")
        return errs
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}, got {actual!r}"]
        errs = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            errs += compare(a, e, f"{path}[{i}]")
        return errs
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


# ---------------------------------------------------------------------------
# expected reports

def expected_verify(model: str, has_line_bundle: bool) -> dict:
    """All nine identities hold exactly on every admissible model the suite
    accepts; (h) is the one reported per model.  The CLI's tensor power is
    its default k=1 when the model carries a line bundle, else 0."""
    identities = [{"key": key, "identity": NonEmptyString(), "status": "pass",
                   "reported_only": key == "h",
                   "residual": {"exact_zero": True, "max_abs": 0.0}}
                  for key in IDENTITY_KEYS]
    return {"command": "verify", "model": model, "k": 1 if has_line_bundle else 0,
            "identities": identities, "passed": True,
            "identities_passed": len(IDENTITY_KEYS)}


def expected_fiber(q: int, trials: int, seed: int) -> dict:
    """The curvature action is exactly -lambda on the bottom component and
    at least -(lambda - 2 mu_min) on the odd part, for every compatible pair."""
    return {"command": "fiber", "q": q, "trials": trials, "seed": seed,
            "bottom_eigenvalue_exact": True, "odd_bound_margin_nonnegative": True,
            "failures": [], "passed": True}


def expected_gap(actual: dict, model: str, N: int, ks, chern: int, mu: float) -> dict:
    """Flat torus with a line bundle of Chern number c and curvature 2 pi mu:
    the odd kernel of D_k^2 vanishes, the even kernel has dimension k c
    (Riemann-Roch), and the gap is the continuum value 2km with m = 2 pi mu.
    fitted_C is defined from the reported gap as max(0, 2km - gap)."""
    rows, fitted = [], []
    for i, k in enumerate(ks):
        two_km = 2 * k * 2 * math.pi * mu
        gap = _reported(actual, ("rows", i, "gap"))
        fitted_c = max(0.0, two_km - gap) if _is_number(gap) else math.nan
        fitted.append(fitted_c)
        rows.append({"k": k, "N": N, "2km": two_km, "gap": Approx(two_km, GAP_TOL),
                     "fitted_C": Approx(fitted_c, FLOAT_RTOL, scale=two_km),
                     "kernel_odd": 0, "kernel_even": k * chern})
    top = max(fitted, default=0.0)
    return {"command": "gap", "model": model, "N": N, "rows": rows,
            "fitted_C": Approx(top, FLOAT_RTOL, scale=rows[-1]["2km"] if rows else 1.0),
            "notes": [], "passed": True}


def _reported(report, keys):
    for key in keys:
        try:
            report = report[key]
        except (KeyError, IndexError, TypeError):
            return None
    return report


def check_output(exit_code: int, stdout: str, expected_exit: int, expected) -> list[str]:
    """Problems with one job's result: a wrong exit code, a report where none
    is due, or a report unlike `expected` (a dict, or a function of the
    parsed report that returns one).  None expects no report on stdout."""
    errs = []
    if exit_code != expected_exit:
        errs.append(f"exit code {exit_code}, expected {expected_exit}")
    if expected is None:
        if stdout.strip():
            errs.append("report written where none was expected")
        return errs
    try:
        report = json.loads(stdout)
    except ValueError:
        return errs + ["report is not JSON"]
    if callable(expected):
        expected = expected(report)
    return errs + compare(strip_measurements(report), expected)
