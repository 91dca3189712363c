"""Command-line front end.

Subcommands:
  verify      run the exact operator-identity suite on a model file
  gap         spectral gap / kernel scan of the Dirac square on a torus model
  fiber       randomized exact battery on the spinor fiber (no model needed)
  crosscheck  O(h^2) convergence of the squared lattice D to the operator
              `gap` diagonalises, on the spinors and the forms

Exit codes: 0 pass, 1 mathematical violation, 2 invalid input, 3 numerical
failure.  Reports are deterministic for a fixed seed, `gap` included: its
eigensolver starts from a fixed vector (the runtime_ms column is
measurement, not content).

`gap` and `crosscheck` read neither --trials nor --seed.  Both exit 2 on
k < 0 and on flux too dense for the grid (2kc/N^2 above --tol).

Only `gap` and `crosscheck` compute in floating point: numpy and scipy are
loaded when one of them runs, so `verify` and `fiber` load neither.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import clifford_fiber as cf
from . import frame_geometry as fg
from . import operator_calculus as oc
from . import spectral as spec

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

# Least accepted r(N)/r(2N) of `crosscheck`: second-order convergence of the
# squared lattice D gives 4, a wrong flux sign or fiber term about 1.
MIN_RATIO = 3.0


@dataclass
class RunConfig:
    command: str
    model: str | None = None
    k_min: int = 1
    k_max: int = 4
    N: int = 32
    q: int = 4
    trials: int = 100
    seed: int = 0
    tol: float = 0.05
    fmt: str = "json"
    out: str | None = None

    def validate(self) -> str | None:
        if self.k_min > self.k_max:
            return f"empty k range {self.k_min}..{self.k_max}"
        if self.N < 4 or self.N % 2:
            return f"N={self.N} must be even and >= 4"
        if self.trials < 0:
            return "trials must be >= 0"
        return None


def _parse_k_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _emit(config: RunConfig, payload: dict, csv_rows: list[dict] | None = None):
    """Write the report atomically (or print it); CSV only when rows given."""
    if config.fmt == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()) if csv_rows else ["empty"])
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        tmp = Path(config.out).with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, config.out)
    else:
        sys.stdout.write(text)


def _load_model(config: RunConfig) -> fg.FrameModel | int:
    if not config.model:
        print("error: --model is required", file=sys.stderr)
        return EXIT_INVALID
    try:
        model = fg.resolve_model(config.model)
    except fg.ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    rep = fg.validate(model)
    for w in rep.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not rep.ok:
        print(f"error: invalid model {model.name!r}: {rep.first_failure()}",
              file=sys.stderr)
        return EXIT_INVALID
    return model


# ---------------------------------------------------------------------------

def cmd_verify(config: RunConfig) -> int:
    model = _load_model(config)
    if isinstance(model, int):
        return model
    k = config.k_min if model.line_b is not None else 0
    try:
        report = oc.verify_suite(model, k=k)
    except (oc.SetupError, fg.ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    items = []
    rows = []
    for it in report.items:
        entry = {
            "key": it.key,
            "identity": it.label,
            "status": it.status(),
            "reported_only": it.reported_only,
        }
        if it.residual is not None:
            entry["residual"] = {"exact_zero": it.residual.exact_zero,
                                 "max_abs": it.residual.max_abs}
            if not it.residual.exact_zero:
                entry["residual"]["worst_monomial"] = it.residual.worst_monomial
        if it.skipped:
            entry["reason"] = it.reason
        items.append(entry)
        rows.append({"key": it.key, "status": it.status(),
                     "max_abs": it.residual.max_abs if it.residual else ""})
    payload = {"command": "verify", "model": report.model, "k": report.k,
               "identities": items, "passed": report.all_passed,
               "identities_passed": report.counted_passes()}
    _emit(config, payload, rows)
    return EXIT_PASS if report.all_passed else EXIT_VIOLATION


def _lattice_scan(config: RunConfig, require_bundle: bool) \
        -> tuple[spec.FlatTorus, list[int]] | int:
    """The flat torus and the k values of `gap` or `crosscheck` (k = 0 on a
    model without a line bundle), or the exit code of an input they cannot
    resolve."""
    model = _load_model(config)
    if isinstance(model, int):
        return model
    try:
        torus = spec.flat_torus(model)
    except fg.ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if require_bundle and model.line_b is None:
        print("error: gap scan requires a line bundle", file=sys.stderr)
        return EXIT_INVALID
    if config.k_min < 0:
        print(f"error: k={config.k_min} < 0: L^k then carries the reversed "
              "curvature, outside the theorem's regime of positive powers",
              file=sys.stderr)
        return EXIT_INVALID
    ks = list(range(config.k_min, config.k_max + 1)) if model.line_b is not None else [0]
    # The lattice lowers the gap by about 1.95*kc/N^2 relative to 2km
    # (measured for flux per plaquette kc/N^2 from 0.004 to 0.18), so a finer
    # --tol than 2*kc/N^2 cannot separate a violation from grid error.
    flux = max(abs(k * torus.c) for k in ks) / config.N ** 2
    if 2 * flux > config.tol:
        print(f"error: under-resolved: flux per plaquette kc/N^2 = {flux:.4g} "
              f"gives a lattice gap error near 2kc/N^2 = {2 * flux:.3g}, above "
              f"--tol {config.tol:g}; increase N", file=sys.stderr)
        return EXIT_INVALID
    return torus, ks


def cmd_gap(config: RunConfig) -> int:
    scan = _lattice_scan(config, require_bundle=True)
    if isinstance(scan, int):
        return scan
    torus, ks = scan
    c = torus.c
    try:
        reports = spec.gap_scan(torus, ks, config.N)
    except spec.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for r in reports:
        if r.ambiguous:
            print(f"error: ambiguous kernel cluster at k={r.k}, N={r.N}: gap "
                  f"{r.gap:.6g} lies within 4x the kernel threshold 2km/10",
                  file=sys.stderr)
            return EXIT_NUMERICAL
    rows = [r.row() for r in reports]
    ok = True
    notes = []
    for r in reports:
        if r.k == 0:
            notes.append("k=0: vanishing asserted only for large k; "
                         f"odd kernel dimension {r.kernel_dim_odd}")
            continue
        if r.kernel_dim_odd != 0:
            ok = False
            notes.append(f"k={r.k}: odd kernel dimension {r.kernel_dim_odd} != 0")
        if r.kernel_dim_even != r.k * c:
            ok = False
            notes.append(f"k={r.k}: even kernel dimension {r.kernel_dim_even} "
                         f"!= kc = {r.k * c} (Riemann-Roch)")
        target = 2 * r.k * r.m
        if r.gap < target * (1 - config.tol):
            ok = False
            notes.append(f"k={r.k}: gap {r.gap:.6g} below 2km(1-tol) "
                         f"= {target * (1 - config.tol):.6g}")
    fitted = max((r.fitted_C for r in reports), default=0.0)
    payload = {"command": "gap", "model": torus.model.name, "N": config.N,
               "rows": rows, "fitted_C": fitted, "notes": notes, "passed": ok}
    _emit(config, payload, rows)
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_fiber(config: RunConfig) -> int:
    if config.q % 2 or config.q < 2:
        print("error: codimension must be even and >= 2", file=sys.stderr)
        return EXIT_INVALID
    rng = random.Random(config.seed)
    result = cf.fiber_battery(rng, config.q, config.trials)
    payload = {
        "command": "fiber", "q": config.q, "trials": result.trials,
        "seed": config.seed,
        "bottom_eigenvalue_exact": result.all_exact,
        "odd_bound_margin_nonnegative": result.all_margin_nonneg,
        "failures": list(result.failures),
        "passed": result.ok,
    }
    if config.trials == 0:
        payload["note"] = "zero-trial no-op report"
    rows = [{"q": config.q, "trials": result.trials, "passed": result.ok}]
    _emit(config, payload, rows)
    return EXIT_PASS if result.ok else EXIT_VIOLATION


def cmd_crosscheck(config: RunConfig) -> int:
    scan = _lattice_scan(config, require_bundle=False)
    if isinstance(scan, int):
        return scan
    torus, ks = scan
    try:
        rows = spec.crosscheck_rows(torus, ks, config.N)
    except spec.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for row in rows:
        row["ok"] = row["ratio"] >= MIN_RATIO
    ok = all(row["ok"] for row in rows)
    payload = {"command": "crosscheck", "model": torus.model.name, "N": config.N,
               "min_ratio": MIN_RATIO, "rows": rows, "passed": ok}
    _emit(config, payload, rows)
    return EXIT_PASS if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transdirac",
        description="Exact transverse-Dirac identity suite and lattice spectra "
                    "on foliated frame models.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model_required=True):
        if model_required:
            p.add_argument("--model", required=True,
                           help="model file path or bundled name "
                                f"({', '.join(fg.bundled_model_names())})")
        p.add_argument("--k", default="1..4", help="tensor power range A..B or single K")
        p.add_argument("--N", type=int, default=32, help="grid points per transverse direction")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=0.05)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (atomic write)")

    pv = sub.add_parser("verify", help="exact operator-identity suite")
    common(pv)
    pg = sub.add_parser("gap", help="spectral gap and kernel scan")
    common(pg)
    pf = sub.add_parser("fiber", help="random fiber battery")
    common(pf, model_required=False)
    pf.add_argument("--q", type=int, default=4, help="even codimension")
    pc = sub.add_parser("crosscheck", help="O(h^2) convergence of the squared lattice D")
    common(pc)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    k_min, k_max = _parse_k_range(args.k)
    return RunConfig(command=args.command, model=getattr(args, "model", None),
                     k_min=k_min, k_max=k_max, N=args.N,
                     q=getattr(args, "q", 4), trials=args.trials,
                     seed=args.seed, tol=args.tol, fmt=args.fmt, out=args.out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    err = config.validate()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    handler = {"verify": cmd_verify, "gap": cmd_gap,
               "fiber": cmd_fiber, "crosscheck": cmd_crosscheck}[config.command]
    return handler(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
