"""Command-line front end.

Subcommands, each with the flags it reads (all take --format and --out):
  verify      run the exact operator-identity suite on a model file
              --model, --k K (default 1; 0 on a model without a line bundle)
  gap         spectral gap / kernel scan of the Dirac square on a torus model
              --model, --k A..B or K (default 1..4), --N (even, 4..1024),
              --tol (0 < tol < 1, default 0.05)
  fiber       randomized exact battery on the spinor fiber (no model needed)
              --q (even, 2..16), --trials (>= 1), --seed
  crosscheck  O(h^2) convergence of the squared lattice D to the operator
              `gap` diagonalises, on the spinors and the forms
              --model, --k A..B or K (default 1..4), --N (even, 4..64),
              --tol (0 < tol < 1, default 0.05)

A flag that a subcommand does not read is rejected (exit 2), and so is an
--out that names a directory or a file in a missing one.  Every model must carry its
transverse complex structure "J", a q x q orthogonal matrix with J^2 = -1:
the theorem assumes one, so a model file without it, or with any other
"J", is invalid input for every subcommand, as is a model file whose JSON
top level is not an object, or that holds a malformed value (p, q or a
bracket index that is not a nonnegative JSON integer, a name or scalar that
is not a string, a zero denominator).

Exit codes: 0 pass, 1 mathematical violation, 2 invalid input, 3 numerical
failure.  Each command returns its report, or raises; `main` alone maps the
outcome to the exit code.  A `frame_geometry.ModelError` (a model file that
cannot be read, is not admissible, lies outside the lattice commands' flat
q = 2 torus or positive bundle, or has a D^2 outside the lattice's regime),
an `operator_calculus.SetupError` and an `InputError` (a flag value outside
what the command accepts, or a report that cannot be written: an --out
onto a full disk, or a stdout that is a closed pipe or a full device) give
2, a `spectral.SolverError` gives 3 (for `crosscheck`, an eigensolver that
did not converge; for `gap`, no value above the kernel threshold in the
whole lattice spectrum, or an ambiguous kernel cluster): each prints
`error: ...` and writes no report.  Any other exception is a bug and
propagates.  Reports are deterministic for a fixed seed: `gap` counts and
bisects eigenvalues, and `crosscheck`'s eigensolver starts from fixed
vectors (runtime_ms is measurement, not content).

A process run (`python -m transdirac.cli`, the `transdirac` console script)
goes through `run`, which ends the process with `os._exit` as soon as
`main` returns and stderr is flushed.  `main` has written and flushed the
report itself, so the interpreter's teardown would only free what the run
built: 4-7 ms, measured on a 2-CPU Linux host with Python 3.11, added to
every short job.  No atexit handler runs after a run that returns a code;
an exception still takes the normal exit, traceback and all.

Sizes have ceilings, checked before any work (exit 2); the costs below were
measured on a 2-CPU Linux host with Python 3.11.  A model file may have
q <= 16 and n = p + q <= 64 (`fg.MAX_Q`, `fg.MAX_DIM`), checked at load,
before its bracket table is built.  `verify` builds the
2^q-dimensional forms fiber: on the generated h_q it took 9.8 s and 140 MiB
at q = 14 and 103 s and 576 MiB at q = 16, about 10 times the time and 4
times the memory per step of 2.  On a flat q = 2 model it took 0.09 s at
n = 34 and 0.11 s at n = 64 (18 MiB), best of 5 processes that compile the
sources as they start; it took 0.26 s and 1.3 s (22 MiB) while a model
was a dense n^3 tensor of structure constants.  `fiber --q` has the same
ceiling: its spinor fiber has dimension 2^(q/2), and one trial takes seconds
from q = 18 on.
`gap` holds the N^2 diagonal entries of its Harper chains as floats and
sweeps them about 66 times per k: at N = 1024, its ceiling, one k took
5.8 s with a 65 MiB peak.  `crosscheck` also solves at 2N, where
`_chain_solver` holds 8N^3 floats in each of two block arrays (17 MB at
N = 64, 134 MB at N = 128): its peak was 220 MiB at N = 64, its ceiling,
and 326 MiB at N = 80.  CI and the benchmark run `gap` up to N = 64 and
`crosscheck` at N = 32.

`gap` and `crosscheck` exit 2 on k < 0, on a line bundle that is not
positive for J (i B(v, Jv) > 0 fails, a degenerate B included): the
theorem's hypothesis, on a non-integer Chern number c = i B_12, and on flux
too dense for the grid: 2|Phi|/N^2 above --tol at the largest k, where the
flux Phi = kc, read per k off the verified curvature (`spectral.plane_flux`),
is largest.  `gap` checks the even kernel dimension against the Riemann-Roch
count |Phi| = k|c|: c has the frame's orientation, and is positive in J's.

Only `gap` and `crosscheck` compute in floating point.  `gap` does so in
plain Python floats and does not load numpy, like `verify` and `fiber`;
`crosscheck` loads numpy when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
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

# The largest --N of each lattice command, and what grows with it (see above).
MAX_N = {"gap": (1024, "N^2 floats per k"),
         "crosscheck": (64, "about 8 N^3 floats at 2N")}


class InputError(ValueError):
    """A flag value outside what the command accepts, or an --out that cannot
    be written (exit 2)."""


def _k_range(text: str) -> tuple[int, int]:
    """--k of `gap` and `crosscheck`: A..B, or K for the range K..K."""
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or K, got {text!r}") from None


def _tol(text: str) -> float:
    """--tol of `gap` and `crosscheck`: the relative gap tolerance.  At
    tol >= 1 the bound 2km(1 - tol) is vacuous, and NaN passes every check."""
    tol = float(text)
    if not 0 < tol < 1:
        raise argparse.ArgumentTypeError(f"expected 0 < tol < 1, got {text!r}")
    return tol


def _out_path(text: str) -> str:
    """--out: a file in an existing directory, checked before any work."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no directory {str(path.parent)!r} for {text!r}")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory, not a file")
    return text


def _emit(args: argparse.Namespace, payload: dict, csv_rows: list[dict]):
    """Write the report atomically (or print it); --format csv writes the rows."""
    if args.fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0]))
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        tmp = Path(f"{args.out}.tmp")  # r.json -> r.json.tmp, never r.tmp
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, args.out)
        except OSError as exc:
            if tmp.is_file():  # a partial write of ours; a directory is not
                tmp.unlink()
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        # flushed here, so that a closed pipe or a full disk is refused
        # output, not an exception at exit (see `run`)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise InputError(f"cannot write the report to stdout: {exc}") from exc


def _load_model(args: argparse.Namespace) -> fg.FrameModel:
    model = fg.resolve_model(args.model)
    for w in fg.require_valid(model).warnings:
        print(f"warning: {w}", file=sys.stderr)
    return model


# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    model = _load_model(args)
    report = oc.verify_suite(model, k=args.k)
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
    return payload, rows


def _lattice_scan(args: argparse.Namespace, require_bundle: bool) \
        -> tuple[list[oc.BundleSetup], float]:
    """The spinor setup of each k of `gap` or `crosscheck` (k = 0 on a model
    without a line bundle), and m = 2*pi|c| of the flat torus."""
    k_min, k_max = args.k
    if k_min > k_max:
        raise InputError(f"empty k range {k_min}..{k_max}")
    if args.N < 4 or args.N % 2:
        raise InputError(f"N={args.N} must be even and >= 4")
    max_n, held = MAX_N[args.command]
    if args.N > max_n:
        raise InputError(f"N={args.N} > {max_n}: {args.command} holds {held}")
    model = _load_model(args)
    geom, m = spec.flat_torus(model)
    if require_bundle and model.line_b is None:
        raise InputError("gap scan requires a line bundle")
    if k_min < 0:
        raise InputError(f"k={k_min} < 0: L^k then carries the reversed curvature, "
                         "outside the theorem's regime of positive powers")
    ks = range(k_min, k_max + 1) if model.line_b is not None else range(1)
    # The lattice lowers the gap by about 1.95*kc/N^2 relative to 2km (measured
    # for kc/N^2 from 0.004 to 0.18), so a --tol finer than 2*kc/N^2 cannot tell
    # a violation from grid error.  |kc| grows with k: the largest k decides.
    top = oc.spinor_setup(model, geom, ks[-1])
    flux = abs(spec.plane_flux(top)) / args.N ** 2
    if 2 * flux > args.tol:
        raise InputError(f"under-resolved: flux per plaquette kc/N^2 = {flux:.4g} "
                         f"gives a lattice gap error near 2kc/N^2 = {2 * flux:.3g}, "
                         f"above --tol {args.tol:g}; increase N")
    return [*(oc.spinor_setup(model, geom, k) for k in ks[:-1]), top], m


def cmd_gap(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    setups, m = _lattice_scan(args, require_bundle=True)
    sectors = [spec.sector(s) for s in setups]
    reports = spec.gap_scan(sectors, m, args.N)
    rows = [r.row() for r in reports]
    ok = True
    notes = []
    for sector, r in zip(sectors, reports):
        if r.k == 0:
            notes.append("k=0: vanishing asserted only for large k; "
                         f"odd kernel dimension {r.kernel_dim_odd}")
            continue
        if r.kernel_dim_odd != 0:
            ok = False
            notes.append(f"k={r.k}: odd kernel dimension {r.kernel_dim_odd} != 0")
        if r.kernel_dim_even != abs(sector.flux):
            ok = False
            notes.append(f"k={r.k}: even kernel dimension {r.kernel_dim_even} "
                         f"!= k|c| = {abs(sector.flux)} (Riemann-Roch)")
        bound = 2 * r.k * r.m * (1 - args.tol)
        if r.gap < bound:
            ok = False
            notes.append(f"k={r.k}: gap {r.gap:.6g} below 2km(1-tol) = {bound:.6g}")
    fitted = max((r.fitted_C for r in reports), default=0.0)
    payload = {"command": "gap", "model": setups[0].model.name, "N": args.N,
               "rows": rows, "fitted_C": fitted, "notes": notes, "passed": ok}
    return payload, rows


def cmd_fiber(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    if args.q % 2 or args.q < 2:
        raise InputError("codimension must be even and >= 2")
    if args.trials < 1:
        raise InputError(f"trials={args.trials}: a battery of no pairs checks "
                         "nothing; give --trials >= 1")
    if args.q > fg.MAX_Q:
        raise InputError(f"q={args.q} > {fg.MAX_Q}: the spinor fiber has dimension 2^(q/2), "
                         "and one trial takes seconds from q = 18 on")
    result = cf.fiber_battery(random.Random(args.seed), args.q, args.trials)
    payload = {
        "command": "fiber", "q": args.q, "trials": result.trials,
        "seed": args.seed,
        "bottom_eigenvalue_exact": result.all_exact,
        "odd_bound_margin_nonnegative": result.all_margin_nonneg,
        "failures": list(result.failures),
        "passed": result.ok,
    }
    return payload, [{"q": args.q, "trials": result.trials, "passed": result.ok}]


def cmd_crosscheck(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    setups, _ = _lattice_scan(args, require_bundle=False)
    rows = spec.crosscheck_rows(setups, args.N)
    for row in rows:
        row["ok"] = row["ratio"] >= MIN_RATIO
    payload = {"command": "crosscheck", "model": setups[0].model.name, "N": args.N,
               "min_ratio": MIN_RATIO, "rows": rows,
               "passed": all(row["ok"] for row in rows)}
    return payload, rows


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transdirac",
        description="Exact transverse-Dirac identity suite and lattice spectra "
                    "on foliated frame models.")
    sub = ap.add_subparsers(dest="command", required=True)
    bundled = ", ".join(fg.bundled_model_names())

    def model_arg(p):
        p.add_argument("--model", required=True,
                       help=f"model file path or bundled name ({bundled})")

    def output_args(p):
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=_out_path, help="output path (atomic write)")

    pv = sub.add_parser("verify", help="exact operator-identity suite")
    model_arg(pv)
    pv.add_argument("--k", type=int, default=1,
                    help="tensor power K of the line bundle (0 without one)")
    output_args(pv)
    for name, text in (("gap", "spectral gap and kernel scan"),
                       ("crosscheck", "O(h^2) convergence of the squared lattice D")):
        p = sub.add_parser(name, help=text)
        model_arg(p)
        p.add_argument("--k", type=_k_range, default="1..4", metavar="A..B",
                       help="tensor power range A..B or single K")
        p.add_argument("--N", type=int, default=32, help="grid points per transverse direction")
        p.add_argument("--tol", type=_tol, default=0.05,
                       help="relative gap tolerance, 0 < tol < 1")
        output_args(p)
    pf = sub.add_parser("fiber", help="random fiber battery")
    pf.add_argument("--q", type=int, default=4, help="even codimension")
    pf.add_argument("--trials", type=int, default=100)
    pf.add_argument("--seed", type=int, default=0)
    output_args(pf)
    return ap


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread (unless the caller sets one): on the small lattice solves
    # of `crosscheck` a second one only spins, adding CPU time, not speed.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "gap": cmd_gap,
               "fiber": cmd_fiber, "crosscheck": cmd_crosscheck}[args.command]
    try:
        payload, csv_rows = handler(args)
        _emit(args, payload, csv_rows)
    except (fg.ModelError, oc.SetupError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except spec.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_PASS if payload["passed"] else EXIT_VIOLATION


def run() -> None:
    """The process entry point: `main`, then `os._exit` with its code.

    By then the report is written and flushed and the warnings are on
    stderr, so nothing is left for the interpreter's teardown to do but
    free memory, which the process exit does at no cost.  A `SystemExit`
    from argparse (None after --help, 2 after a usage error) ends the same
    way, its help text flushed first.  An exception, and a `SystemExit`
    that carries a message, propagate to the normal interpreter exit."""
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        sys.stdout.flush()
        code = exc.code or EXIT_PASS
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
