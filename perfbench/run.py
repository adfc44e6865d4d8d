"""linrel benchmark: one workload, closed loop, oracle-checked.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload schur-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same ops twice, untraced for half of
``--seconds`` and then traced, checks that both passes produce identical
outputs, and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process and prints each report.

BLAS is pinned to one thread before numpy is imported.  See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import os

# pin BLAS before anything imports numpy
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
HOST_REF_REPEATS = 60
WORKLOAD_NAMES = ("schur-small", "schur-large", "verify", "cli-schur")


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import linrel; print(time.perf_counter() - t)")


def import_linrel() -> float:
    """Import the library from ``src``; return the seconds it took."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import linrel  # noqa: F401  (imports numpy and every layer)
    return time.perf_counter() - start


def import_times(first: float) -> list:
    """``first`` plus the import time seen by fresh interpreters.

    A process imports a module once, so further samples of the import cost
    come from child interpreters, each waited for.
    """
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return times


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def host_ref() -> float:
    """Seconds for a fixed numpy SVD loop; tracks host speed, not linrel."""
    import numpy as np
    rng = np.random.default_rng(20211014)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    start = time.perf_counter()
    for _ in range(HOST_REF_REPEATS):
        np.linalg.svd(m)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_desc = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "commit": git_commit(),
        "env": {var: os.environ.get(var) for var in PINNED_ENV},
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def run_ops(wl, inputs, *, seconds=None, count=None, tracer=None) -> list:
    """Closed loop: one op at a time until ``seconds`` of op time or ``count`` ops.

    Returns one record per op: ``(index, seconds, ok, gap, fingerprint,
    error)``.  Only the op call itself is timed; preparing its input and
    checking its output happen between ops.
    """
    records = []
    busy = 0.0
    i = 0
    while (count is None or i < count) and (seconds is None or busy < seconds):
        arg = wl.prepare(inputs, i)
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(arg)
            else:
                with tracer.op(i):
                    out = wl.op(arg)
        except Exception:  # an op that raises counts as failed; keep measuring
            out = None
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        busy += elapsed
        if error is None:
            try:
                ok, gap, fingerprint = wl.check(inputs, i, out)
            except Exception:
                ok, gap, fingerprint = False, float("inf"), None
                error = "check failed:\n" + traceback.format_exc(limit=3)
        else:
            ok, gap, fingerprint = False, float("inf"), None
        records.append((i, elapsed, ok, gap, fingerprint, error))
        i += 1
    return records


def summarize(records: list) -> dict:
    times = [r[1] for r in records]
    correct = sum(1 for r in records if r[2])
    out = {
        "n": len(records),
        "failed": len(records) - correct,
        "p50": statistics.median(times),
        "ops_per_s": correct / sum(times),
        # ops without a comparable output are failures, listed on their own
        "gap_max": max((r[3] for r in records if math.isfinite(r[3])), default=0.0),
    }
    # a p90 needs at least ten samples beyond it
    if len(records) >= 100:
        out["p90"] = percentile(times, 90)
    return out


def layer_metrics(tracer, ops: int) -> dict:
    from tracer import LAYERS
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tracer.layer_calls[layer] / ops, "count")
        m[f"{layer}.self_s"] = (tracer.layer_self[layer] / ops, "s")
        m[f"{layer}.errors"] = (tracer.layer_errors[layer] / ops, "count")
    np_calls = tracer.numpy_calls
    m["kernel.svd_calls"] = (np_calls["svd"] / ops, "count")
    m["kernel.norm2_calls"] = (np_calls["norm2"] / ops, "count")
    m["kernel.eig_calls"] = (np_calls["eig"] / ops, "count")
    m["kernel.qr_calls"] = (np_calls["qr"] / ops, "count")
    m["kernel.lapack_s"] = (tracer.lapack_s / ops, "s")
    m["kernel.svd_flops_est"] = (tracer.svd_flops / ops, "flop")
    m["kernel.opnorm_calls"] = (tracer.func_calls["kernel.opnorm"] / ops, "count")
    m["kernel.opnorm_s"] = (tracer.func_time["kernel.opnorm"] / ops, "s")
    m["block.analyze_calls"] = (tracer.func_calls["block.analyze"] / ops, "count")
    m["nonneg.validate_calls"] = (tracer.func_calls["nonneg.validate"] / ops, "count")
    m["nonneg.leq_report_calls"] = (tracer.func_calls["nonneg.leq_report"] / ops, "count")
    m["relation.compose_calls"] = (
        tracer.func_calls["relation.LinearRelation.compose"] / ops, "count")
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            import_s: float) -> dict:
    """Run one workload; return its metrics, records and tracer."""
    from tracer import Tracer, traced
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.build(seed, workdir)
        builds.append(time.perf_counter() - start)
    imports = import_times(import_s)
    setup_s = statistics.median(imports) + statistics.median(builds)

    host_before = host_ref()
    wl.warmup(inputs)
    result = {"setup_s": setup_s, "imports": imports, "builds": builds,
              "host_before": host_before, "describe": lambda i: wl.describe(inputs, i)}
    if not trace:
        records = run_ops(wl, inputs, seconds=seconds)
        result["correct"] = all(r[2] for r in records)
    else:
        plain = run_ops(wl, inputs, seconds=seconds / 2)
        tracer = Tracer()
        with traced(tracer):
            records = run_ops(wl, inputs, count=len(plain), tracer=tracer)
        result["plain_records"] = plain
        result["plain_summary"] = summarize(plain)
        result["identical"] = [r[4] for r in plain] == [r[4] for r in records]
        result["correct"] = (result["identical"] and all(r[2] for r in plain)
                             and all(r[2] for r in records))
        result["tracer"] = tracer
    result["records"] = records
    result["summary"] = summarize(records)
    result["host_after"] = host_ref()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    """The metrics of the final JSON line, as ``name -> (value, unit)``."""
    s = result["summary"]
    if not trace:
        return {
            "setup_s": (result["setup_s"], "s"),
            "op_s.p50": (s["p50"], "s"),
            "ops_per_s": (s["ops_per_s"], "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    m = layer_metrics(result["tracer"], s["n"])
    m["schur.oracle_gap_max"] = (max(s["gap_max"], result["plain_summary"]["gap_max"]),
                                 "ratio")
    m["trace.overhead_s"] = (s["p50"] - result["plain_summary"]["p50"], "s")
    m["host.ref_s"] = (result["host_before"], "s")
    m["host.ref_after_s"] = (result["host_after"], "s")
    return m


def report_lines(name: str, args, env: dict, result: dict) -> list:
    s = result["summary"]
    n = s["n"]
    lines = [
        f"# linrel benchmark  workload={name} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# host  cpu={env['cpu']!r} nproc={env['nproc']} python={env['python']} "
        f"numpy={env['numpy']} blas={env['blas']!r} commit={env['commit']}",
        "# env   " + " ".join(f"{k}={v}" for k, v in env["env"].items())
        + " (threadpoolctl is not installed; these are the values the process saw)",
        f"setup_s           {result['setup_s']:.6f} s   (median of {SETUP_REPEATS} imports "
        + ", ".join(f"{t:.6f}" for t in result["imports"])
        + f" + median of {SETUP_REPEATS} input builds "
        + ", ".join(f"{b:.6f}" for b in result["builds"]) + ")",
        f"op_s.p50          {s['p50']:.6f} s   (n={n})",
    ]
    if "p90" in s:
        lines.append(f"op_s.p90          {s['p90']:.6f} s   (n={n})")
    else:
        lines.append(f"op_s.p90          not reported: n={n} leaves fewer than 10 samples beyond it")
    lines += [
        f"ops_per_s         {s['ops_per_s']:.6f} 1/s",
        f"fail_ratio        {s['failed'] / n:.6f}   ({s['failed']}/{n})",
        f"peak_rss_mb       {result['peak_rss_mb']:.3f} MB",
        f"host.ref_s        {result['host_before']:.6f} s before, "
        f"{result['host_after']:.6f} s after",
        f"schur.oracle_gap_max {s['gap_max']:.3e}",
    ]
    if args.trace:
        lines.insert(4, f"untraced op_s.p50 {result['plain_summary']['p50']:.6f} s   "
                        "(the same ops, before tracing; the lines below are traced)")
        lines.append(f"traced outputs identical to untraced: {result['identical']}")
    for i, _, ok, gap, _, error in result.get("plain_records", []) + result["records"]:
        if not ok:
            lines.append(f"FAILED op {i}: {result['describe'](i)} gap={gap!r}")
            if error:
                lines.extend("    " + ln for ln in error.rstrip().splitlines())
    return lines


def run_all(args) -> int:
    """Every workload in its own process; each report in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
        print()
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    try:
        import_s = import_linrel()
    except ImportError as exc:
        print(f"error: cannot import linrel from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    origin = Path(sys.modules["linrel"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"error: linrel came from {origin}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    env = environment()

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print("\n".join(report_lines(args.workload, args, env, result)))
    s = result["summary"]
    final = {
        "correct": result["correct"],
        "attempted": s["n"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics_of(result, bool(args.trace)).items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
