"""Child processes: run one to completion with its resource usage, and
describe the environment the benchmark ran in."""

from __future__ import annotations

import json
import os
import platform
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Finished:
    exit_code: int
    wall_s: float
    cpu_s: float        # user + system CPU of the child
    maxrss_kib: int     # peak resident set size of the child
    stdout: str
    stderr: str


def run(argv: list[str], env: dict, scratch: Path, timeout_s: float) -> Finished:
    """Run argv with stdout and stderr in files under `scratch`, wait for it
    with os.wait4 and return its exit code, wall time and rusage.  A child
    still running after `timeout_s` is killed and reported with -SIGKILL."""
    out, err = scratch / "stdout", scratch / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o600)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        # A pidfd stays bound to this child, so the kill cannot hit another
        # process that reuses the pid.
        pidfd = os.pidfd_open(pid)
        try:
            if not select.select([pidfd], [], [], timeout_s)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            os.close(pidfd)
    finally:
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Finished(exit_code=os.waitstatus_to_exitcode(status), wall_s=wall,
                    cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kib=usage.ru_maxrss,
                    stdout=out.read_text(encoding="utf-8", errors="replace"),
                    stderr=err.read_text(encoding="utf-8", errors="replace"))


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


# Run in a child so that the benchmark process itself loads no BLAS threads.
_LIBRARY_PROBE = r"""
import ctypes, json, numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = None
try:
    maps = open("/proc/self/maps").read().splitlines()
    libs = sorted({l.split()[-1] for l in maps if "openblas" in l and l.endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                threads = fn()
                break
except OSError:
    pass
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


def environment(env: dict, scratch: Path) -> dict:
    """Interpreter, library and machine description for a result record."""
    info = {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in env}}
    probe = run([sys.executable, "-c", _LIBRARY_PROBE], env, scratch, 60.0)
    if probe.exit_code == 0:
        info.update(json.loads(probe.stdout))
    else:
        info["library_probe_error"] = probe.stderr.strip()[-500:]
    return info
