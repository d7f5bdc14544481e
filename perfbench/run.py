"""memscat benchmark: real CLI ops, run in-process in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One op is one `memscat.cli.main(argv)` call; one client runs the next op
only after the previous one returns, and a pass is the workload's fixed op
list in order (see workloads.py).  Run from a source checkout: the package
is imported from `src/` next to this directory, and the run fails without
printing a result when it is missing.

--trace 0 measures, with tracing off:
  norm_wall_s  pass time at a fixed machine speed: each op's wall time is
            divided by the time of a reference kernel run just before and
            just after it (see `Reference`), the per-op medians over the
            passes that fill --seconds are summed, and the sum is scaled by
            REF_NOMINAL_S.  A shared host changes its speed by up to 2x in
            phases of 10 s to minutes, so raw pass times of the same code
            spread by 20-30% between runs; the reference slows with them.
            The raw median pass time and its quartiles go to a log line;
  setup_s   time from process start to the end of `import memscat` plus
            writing the workload's scenes, in fresh interpreters: each probe
            is divided by the reference kernel around it and scaled by
            REF_NOMINAL_S like norm_wall_s, and the median is reported;
  peak_mib  tracemalloc peak over one extra, untimed pass (it also warms up).
--trace 1 alternates untraced and traced passes after a warm-up pass,
reports the per-layer metrics of tracing.py (medians over the traced passes)
and writes the spans of the last traced pass to
.perfbench_work/<workload>/spans.json.

The whole run is pinned to one CPU and OpenBLAS to one thread: on a shared
2-core host one of the cores is often slowed by a neighbour, two BLAS threads
then wait for the slower one, and a reference kernel only follows the op it
brackets when both run on the same core.

Every op's output is checked after its pass, outside the timed section; an
unexpected exit code or a failed check counts the op as failed.  The last
stdout line is the JSON result; the line before it is the run record
(machine, BLAS, versions, git rev, seed).  Scratch files go to
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# set before numpy is first imported, here and in the setup probes
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# reference kernel time (s) that norm_wall_s and setup_s are scaled to: about
# its median time on a shared 2-core Xeon VM.  A fixed constant, so it only
# sets units.
REF_NOMINAL_S = 0.03


def import_memscat():
    """Import the package from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "memscat" / "__init__.py").is_file():
        raise FileNotFoundError(f"no memscat sources under {src}")
    sys.path.insert(0, str(src))
    import memscat
    import memscat.cli
    if Path(memscat.__file__).resolve().parent != src / "memscat":
        raise ImportError(f"memscat imported from {memscat.__file__}")
    return memscat


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_op(cli, argv):
    """One CLI call with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the op failed; the run goes on and counts it
            rc = None
            traceback.print_exc()
    if rc != 0:
        print(f"op {' '.join(argv)!r} exited {rc!r}: {err.getvalue()[-2000:]}",
              file=sys.stderr)
    return rc, out.getvalue()


def run_pass(workload, cli):
    """Run every op in order; returns (pass seconds, results)."""
    workload.clear_outputs()
    results = []
    t0 = time.perf_counter()
    for op in workload.ops:
        results.append(run_op(cli, op.argv))
    return time.perf_counter() - t0, results


class Reference:
    """Fixed numpy and scipy work that no memscat change can move, used to
    read the current speed of the core the run is pinned to: scipy.special
    Bessel and Hankel functions, small LU solves, and a backward three-term
    recurrence over a small array (the shape of most specfun work).  Of the
    kernels tried around the real ops (also a pure-Python loop, a
    longdouble series, a memory-streaming loop and a matrix product), this
    mix followed their times best."""

    def __init__(self):
        import numpy as np
        import scipy.linalg
        import scipy.special
        rng = np.random.default_rng(0)
        self._np, self._special, self._linalg = np, scipy.special, scipy.linalg
        self._m = np.arange(-10, 11)[:, None]
        self._z = rng.uniform(0.1, 20.0, 400)[None, :]
        self._a = (rng.standard_normal((120, 120))
                   + 1j * rng.standard_normal((120, 120)))
        self._inv_x = 1.0 / rng.uniform(0.1, 20.0, 64)
        for _ in range(3):
            self.seconds()

    def seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        self._special.hankel1(self._m, self._z)
        self._special.jv(self._m, self._z)
        for _ in range(10):
            self._linalg.lu_solve(self._linalg.lu_factor(self._a),
                                  self._a[:, 0])
        f_prev, f = np.zeros(self._inv_x.size), np.ones(self._inv_x.size)
        for k in range(600, 0, -1):
            f_next = (2.0 * k) * self._inv_x * f - f_prev
            big = np.abs(f_next) > 1e100
            if np.any(big):
                f_next[big] *= 1e-100
                f[big] *= 1e-100
            f_prev, f = f, f_next
        return time.perf_counter() - t0


def timed_pass(workload, cli, ref):
    """Run every op in order with the reference kernel before the first op
    and after each op; returns (op seconds, reference seconds, results),
    with one more reference time than ops."""
    workload.clear_outputs()
    times, refs, results = [], [ref.seconds()], []
    for op in workload.ops:
        t0 = time.perf_counter()
        results.append(run_op(cli, op.argv))
        times.append(time.perf_counter() - t0)
        refs.append(ref.seconds())
    return times, refs, results


def count_failures(workload, results) -> int:
    failed = 0
    for op, (rc, stdout) in zip(workload.ops, results):
        try:
            reason = op.check(rc, stdout)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failed += 1
            print(f"check failed for {' '.join(op.argv)!r}: {reason}",
                  file=sys.stderr)
    return failed


def measure_setup(args, ref) -> tuple[float, float]:
    """Time from spawning a fresh interpreter to the end of its set-up
    (import plus scene files), read on the system-wide monotonic clock, with
    the reference kernel run before and after each probe.  Returns the
    median raw time and the median time at REF_NOMINAL_S reference speed."""
    raw, scaled = [], []
    r0 = ref.seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        r1 = ref.seconds()
        scaled.append(REF_NOMINAL_S * 2.0 * raw[-1] / (r0 + r1))
        r0 = r1
    return statistics.median(raw), statistics.median(scaled)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _openblas_threads(libdir: Path):
    import ctypes
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(args, memscat) -> dict:
    import numpy
    import scipy
    import tomllib
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        blas[mod.__name__] = {"name": dep.get("name"),
                              "version": dep.get("version"),
                              "threads": _openblas_threads(libdir)}
    rev = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                check=True, timeout=30,
                env={**os.environ, "GIT_DIR": str(ROOT / ".git")}
            ).stdout.strip()
    with open(ROOT / "pyproject.toml", "rb") as fh:
        pyproject_version = tomllib.load(fh)["project"]["version"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "pinned_to": sorted(os.sched_getaffinity(0)),
            "cpu": cpu, "blas": blas,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_rev": rev,
            "memscat_version": {"pyproject": pyproject_version,
                                "__version__": memscat.__version__}}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def memory_pass(workload, cli):
    """tracemalloc peak (bytes) over one pass.  Garbage is collected before
    each op, as a fresh CLI process would start without it; otherwise the
    peak moves with the collector's timing."""
    import gc
    import tracemalloc
    workload.clear_outputs()
    tracemalloc.start()
    try:
        results = []
        for op in workload.ops:
            gc.collect()
            results.append(run_op(cli, op.argv))
        return tracemalloc.get_traced_memory()[1], results
    finally:
        tracemalloc.stop()


def measure_end_to_end(args, workload, cli, ref):
    peak, results = memory_pass(workload, cli)
    attempted, failed = len(results), count_failures(workload, results)
    passes, scaled, ref_all = [], [], []
    t_end = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < t_end:
        times, refs, results = timed_pass(workload, cli, ref)
        passes.append(sum(times))
        scaled.append([2.0 * t / (r0 + r1)
                       for t, r0, r1 in zip(times, refs, refs[1:])])
        ref_all += refs
        attempted += len(results)
        failed += count_failures(workload, results)
    q1, med, q3 = quartiles(passes)
    norm = REF_NOMINAL_S * sum(statistics.median(op) for op in zip(*scaled))
    print(f"raw pass time: {len(passes)} passes, median {med:.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s; reference kernel median "
          f"{statistics.median(ref_all):.4f} s; norm_wall_s {norm:.4f} s")
    metrics = {"norm_wall_s": (norm, "s"), "setup_s": (args.setup_s, "s"),
               "peak_mib": (peak / 2**20, "MiB")}
    return attempted, failed, metrics


def measure_layers(args, workload, cli, memscat):
    import tracing
    tracer = tracing.Tracer(memscat)
    _, results = run_pass(workload, cli)              # warm-up
    attempted, failed = len(results), count_failures(workload, results)
    plain, traced, samples = [], [], []
    while sum(plain) + sum(traced) < args.seconds or not traced:
        dt, results = run_pass(workload, cli)
        plain.append(dt)
        attempted += len(results)
        failed += count_failures(workload, results)
        tracer.reset()
        with tracer.installed():
            dt, results = run_pass(workload, cli)
        traced.append(dt)
        samples.append(tracer.pass_metrics())
        attempted += len(results)
        failed += count_failures(workload, results)
    spans_path = WORK / args.workload / "spans.json"
    tracer.write_spans(spans_path)
    layers = tracing.median_metrics(samples)
    layers["trace.pass_s"] = statistics.median(traced)
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    print(f"traced {len(traced)} passes; layer self times sum to "
          f"{sum(layers[k] for k in tracing.SELF_METRICS):.4f} s of "
          f"{layers['trace.pass_s']:.4f} s; spans in {spans_path}")
    metrics = {k: (v, tracing.METRICS[k]) for k, v in layers.items()}
    return attempted, failed, metrics


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        memscat = import_memscat()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed,
                        WORK / f"{args.workload}-probe")
        print(repr(time.perf_counter()))
        return 0

    if args.trace == 0:
        ref = Reference()
        raw_setup, args.setup_s = measure_setup(args, ref)
        print(f"set-up: median {raw_setup:.4f} s over {SETUP_PROBES} fresh "
              f"interpreters; setup_s {args.setup_s:.4f} s")
    workload = workloads.build(args.workload, args.seed, WORK / args.workload)
    record = run_record(args, memscat)
    if args.trace == 0:
        attempted, failed, metrics = measure_end_to_end(
            args, workload, memscat.cli, ref)
    else:
        attempted, failed, metrics = measure_layers(
            args, workload, memscat.cli, memscat)
    print(f"ops: {attempted} attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.6g}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
