"""Run one transdirac CLI job in this interpreter with its layers wrapped.

    python perfbench/tracer.py spans  OUT.json -- verify --model sol
    python perfbench/tracer.py counts OUT.json -- verify --model sol

``spans`` wraps the public functions listed in SPANNED and records one span
per call: (id, parent id, name, start ns, end ns, value), kept in memory and
written to OUT.json when the job ends.  Each wrapper replaces every binding
of the function in every loaded transdirac module, since several modules
import functions by name.

``counts`` wraps only the Scalar arithmetic and counts calls, with the
largest numerator or denominator bit length any of them produced.  It is a
separate pass because a span on each of 10^5-10^6 Scalar operations would
swamp the times of the layers above.

The job's exit code is this process's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute, value recorded with the span or None)
SPANNED = (
    ("cli.main", "cli", "main", None),
    ("frame_geometry.resolve_model", "frame_geometry", "resolve_model", None),
    ("frame_geometry.validate", "frame_geometry", "validate", None),
    ("frame_geometry.derive_connection", "frame_geometry", "derive_connection", None),
    ("operator_calculus.spinor_setup", "operator_calculus", "spinor_setup", None),
    ("operator_calculus.forms_setup", "operator_calculus", "forms_setup", None),
    ("operator_calculus.compose", "operator_calculus", "compose", "terms"),
    ("operator_calculus.residual", "operator_calculus", "residual", None),
    ("operator_calculus.verify_suite", "operator_calculus", "verify_suite", None),
    *((f"operator_calculus.{b}", "operator_calculus", b, None) for b in (
        "dirac", "dirac_prime", "lichnerowicz_rhs", "dirac_prime_square_rhs",
        "dirac_square_full_curvature_rhs", "hodge_laplacian", "hodge_bochner_rhs",
        "d_horizontal", "d_horizontal_star", "dh_square_rhs", "dh_star_square_rhs",
        "basic_tau_rhs")),
    ("matrices.Mat.matmul", "matrices", "Mat.__matmul__", None),
    ("matrices.Mat.kron", "matrices", "Mat.kron", None),
    ("matrices.certificate", "matrices", "Mat.is_psd", None),
    ("matrices.certificate", "matrices", "Mat.is_pd", None),
    ("clifford_fiber.fiber_battery", "clifford_fiber", "fiber_battery", None),
    ("clifford_fiber.random_compatible_pair", "clifford_fiber", "random_compatible_pair", None),
    ("clifford_fiber.check_rl1", "clifford_fiber", "check_rl1", None),
    ("clifford_fiber.odd_lower_bound", "clifford_fiber", "odd_lower_bound", None),
    ("clifford_fiber.skew_invariants", "clifford_fiber", "skew_invariants", None),
    ("clifford_fiber.spinor_cliffords", "clifford_fiber", "spinor_cliffords", None),
    ("spectral.magnetic_bochner", "spectral", "magnetic_bochner", None),
    ("spectral.parity_blocks", "spectral", "parity_blocks", None),
    ("spectral.eigen", "spectral", "eigen", "dim"),
    ("spectral.spectrum_report", "spectral", "spectrum_report", None),
    ("spectral.gap_scan", "spectral", "gap_scan", None),
)

# Scalar methods counted in the count pass; __rsub__ delegates to __sub__,
# and __truediv__ to __mul__ and inverse, so neither is wrapped.
COUNTED = (("mul", "__mul__"), ("mul", "__rmul__"), ("add", "__add__"),
           ("add", "__radd__"), ("add", "__sub__"), ("inverse", "inverse"))


def _value(kind, args, result):
    if kind == "terms":
        return len(result.terms)
    if kind == "dim":
        return getattr(args[0], "matrix", args[0]).shape[0]
    return None


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1

    def wrap(self, name, fn, kind):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1,
                              None if result is None else _value(kind, args, result)))
        return traced


class ScalarCounter:
    def __init__(self):
        self.calls = {"mul": 0, "add": 0, "inverse": 0}
        self.max_height_bits = 0

    def wrap(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args):
            result = fn(*args)
            calls[key] += 1
            if result is not NotImplemented:
                bits = max(result.ra.numerator.bit_length(), result.ra.denominator.bit_length(),
                           result.rb.numerator.bit_length(), result.rb.denominator.bit_length(),
                           result.ia.numerator.bit_length(), result.ia.denominator.bit_length(),
                           result.ib.numerator.bit_length(), result.ib.denominator.bit_length())
                if bits > self.max_height_bits:
                    self.max_height_bits = bits
            return result
        return counted


def _rebind(old, new):
    """Point every binding of `old` in a loaded transdirac module to `new`."""
    for modname, module in list(sys.modules.items()):
        if modname == "transdirac" or modname.startswith("transdirac."):
            for attr, val in list(vars(module).items()):
                if val is old:
                    setattr(module, attr, new)


def install_spans(recorder: SpanRecorder):
    for name, modname, attr, kind in SPANNED:
        module = sys.modules[f"transdirac.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth), kind))
        else:
            old = getattr(module, attr)
            _rebind(old, recorder.wrap(name, old, kind))


def install_counts(counter: ScalarCounter):
    from transdirac.exact import Scalar
    for key, meth in COUNTED:
        setattr(Scalar, meth, counter.wrap(key, getattr(Scalar, meth)))


def main(argv: list[str]) -> int:
    mode, out_path, sep, *cli_argv = argv
    if mode not in ("spans", "counts") or sep != "--":
        raise SystemExit("usage: tracer.py spans|counts OUT.json -- CLI-ARGS...")
    t0 = time.perf_counter()
    import transdirac.cli as cli
    import_s = time.perf_counter() - t0
    # Every module is loaded now: cli imports the whole package.
    recorder, counter = SpanRecorder(), ScalarCounter()
    if mode == "spans":
        install_spans(recorder)
    else:
        install_counts(counter)
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans,
                       "scalar_calls": counter.calls,
                       "max_height_bits": counter.max_height_bits}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
