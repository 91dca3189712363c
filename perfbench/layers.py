"""Per-layer metrics from the spans and counters of the traced run.

A span's self time is its duration minus the durations of its direct
children; times are summed over all calls in a pass.  Counts are exact and
repeat between passes; times are taken as the median over traced passes.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

BUILDERS = ("dirac", "dirac_prime", "lichnerowicz_rhs", "dirac_prime_square_rhs",
            "dirac_square_full_curvature_rhs", "hodge_laplacian", "hodge_bochner_rhs",
            "d_horizontal", "d_horizontal_star", "dh_square_rhs", "dh_star_square_rhs",
            "basic_tau_rhs")

# Spans reported as "<name>.s" (self seconds) and "<name>.calls".
SELF_TIMED = (
    "frame_geometry.resolve_model", "frame_geometry.validate",
    "frame_geometry.derive_connection",
    "operator_calculus.spinor_setup", "operator_calculus.forms_setup",
    "operator_calculus.compose", "operator_calculus.residual",
    "operator_calculus.verify_suite",
    *(f"operator_calculus.{b}" for b in BUILDERS),
    "matrices.Mat.matmul", "matrices.certificate",
    "clifford_fiber.fiber_battery", "clifford_fiber.random_compatible_pair",
    "clifford_fiber.check_rl1", "clifford_fiber.odd_lower_bound",
    "clifford_fiber.skew_invariants", "clifford_fiber.spinor_cliffords",
    "spectral.magnetic_bochner", "spectral.parity_blocks", "spectral.eigen",
    "spectral.spectrum_report", "spectral.gap_scan",
)
CALLS_COUNTED = (
    "frame_geometry.validate", "frame_geometry.derive_connection",
    "operator_calculus.compose", "matrices.Mat.matmul", "matrices.Mat.kron",
    "clifford_fiber.spinor_cliffords", "spectral.eigen",
)
SCALAR_OPS = ("mul", "add", "inverse")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.import_s": "s", "spectral.import_s": "s"}
    units.update({f"{n}.s": "s" for n in SELF_TIMED})
    units.update({f"{n}.calls": "count" for n in CALLS_COUNTED})
    units.update({
        "frame_geometry.validate.calls_per_job": "calls/job",
        "operator_calculus.normal_form_terms": "count",
        "spectral.eigen.max_dim": "count",
        "spectral.eigen.calls_per_flux": "calls/flux",
        **{f"exact.Scalar.{op}.calls": "count" for op in SCALAR_OPS},
        "exact.Scalar.max_height_bits": "bits",
        "trace.overhead_s": "s",
    })
    return units


def pass_metrics(jobs: list[dict]) -> dict[str, float]:
    """Span metrics of one traced pass.  Each job is a dict with `import_s`,
    `spectral_import_s` and `spans`: (id, parent id, name, t0 ns, t1 ns, value)."""
    calls, self_ns, values = Counter(), Counter(), defaultdict(list)
    validate_per_job = []
    for job in jobs:
        child_ns = Counter()
        for _, parent, _, t0, t1, _ in job["spans"]:
            child_ns[parent] += t1 - t0
        job_calls = Counter()
        for sid, _, name, t0, t1, value in job["spans"]:
            job_calls[name] += 1
            self_ns[name] += t1 - t0 - child_ns[sid]
            if value is not None:
                values[name].append(value)
        calls.update(job_calls)
        if job_calls["frame_geometry.validate"]:
            validate_per_job.append(job_calls["frame_geometry.validate"])
    out = {"cli.import_s": sum(j["import_s"] for j in jobs),
           "spectral.import_s": sum(j["spectral_import_s"] for j in jobs)}
    out.update({f"{n}.s": self_ns[n] / 1e9 for n in SELF_TIMED})
    out.update({f"{n}.calls": calls[n] for n in CALLS_COUNTED})
    out["frame_geometry.validate.calls_per_job"] = (
        statistics.median(validate_per_job) if validate_per_job else 0)
    out["operator_calculus.normal_form_terms"] = sum(values["operator_calculus.compose"])
    out["spectral.eigen.max_dim"] = max(values["spectral.eigen"], default=0)
    reports = calls["spectral.spectrum_report"]
    out["spectral.eigen.calls_per_flux"] = calls["spectral.eigen"] / reports if reports else 0
    return out


def count_metrics(jobs: list[dict]) -> dict[str, int]:
    """Scalar counters of one count pass, summed over its jobs."""
    out = {f"exact.Scalar.{op}.calls": sum(j["scalar_calls"][op] for j in jobs)
           for op in SCALAR_OPS}
    out["exact.Scalar.max_height_bits"] = max((j["max_height_bits"] for j in jobs), default=0)
    return out


def combine(traced_passes: list[dict], counts: dict, overhead_s: float) -> tuple[dict, bool]:
    """Per-layer metrics: medians of times over the traced passes, counts of
    the first pass.  The flag says whether every count repeated exactly."""
    units = metric_units()
    out, repeat = {}, True
    for name in traced_passes[0]:
        vals = [p[name] for p in traced_passes]
        if units[name] == "s":
            out[name] = statistics.median(vals)
        else:
            out[name] = vals[0]
            repeat = repeat and all(v == vals[0] for v in vals)
    out.update(counts)
    out["trace.overhead_s"] = overhead_s
    return out, repeat
