"""connlab benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (plus trace_overhead_s against an untraced run of the same
list).  --workload all runs the four workloads one after another.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from worker import REFERENCE_S, reference_matrix, reference_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every compared run uses this BLAS thread count.  With OpenBLAS's default of
# two threads on a 2-core machine, single eigh calls stalled for up to a
# second in some processes; with one thread they did not.
BLAS_THREADS = "1"
# Set-up probes run in two halves, before and after the workload, so that a
# run's median set-up time samples the machine at two moments.
SETUP_PROBES = 8
RUN_TIMEOUT_S = 170

# Time from interpreter start until the first operation could run.
SETUP_PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
sys.path.insert(1, {str(HERE)!r})
from worker import setup
setup()
print("ready", flush=True)
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(count: int, deadline: float) -> tuple[list[float], list[float]]:
    """Set-up times of count probe processes: (at reference speed, raw).

    Each probe is bracketed by the worker's speed reference, run here in the
    parent, and scaled the same way as an operation's latency.
    """
    matrix = reference_matrix()
    samples, raw = [], []
    for _ in range(count):
        before = min(reference_time(matrix), reference_time(matrix))
        clock = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, env=child_env(), text=True
        )
        # a probe that hangs before printing is killed at the deadline, which
        # ends the blocking readline
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - clock)
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
        after = min(reference_time(matrix), reference_time(matrix))
        samples.append(raw[-1] * REFERENCE_S * 2 / (before + after))
    return samples, raw


def run_worker(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--trace-out", str(OUT / f"spans-{workload}-seed{seed}.json")]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# environment record


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas=blas.get("name"), blas_version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        info.update(blas="unknown", blas_version="unknown")
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        **blas_info(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten
    operations beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    k = len(ordered) - 10
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def check_digests(workload: str, seed: int, seconds: int, ops: list[dict]) -> None:
    """Mark operations whose stdout differs from an earlier run with the same seed.

    The first run of a (workload, seed, seconds) stores its digests under
    .perfbench_out; later runs, traced or not, must reproduce them byte for byte.
    """
    path = OUT / f"digests-{workload}-seed{seed}-s{seconds}.json"
    labels = [op["label"] for op in ops]
    digests = [op["digest"] for op in ops]
    if path.exists():
        stored = json.loads(path.read_text())
        if stored["labels"] == labels:
            for op, want in zip(ops, stored["digests"]):
                if op["digest"] is not None and want is not None and op["digest"] != want:
                    op["problems"].append("stdout digest differs from an earlier run with this seed")
            return
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"labels": labels, "digests": digests}))
    os.replace(tmp, path)


def end_to_end(doc: dict, setup_samples: tuple[list[float], list[float]]) -> dict:
    latencies = [op["latency_s"] for op in doc["ops"] if op["latency_s"] is not None]
    if not latencies:
        raise RuntimeError("no operation completed")
    value, pct = tail(latencies)
    return {
        "wall_s": sum(latencies),
        "raw_wall_s": sum(op["raw_latency_s"] for op in doc["ops"] if op["raw_latency_s"] is not None),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "op_tail_percentile": pct,
        "operations": len(doc["ops"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples[0]),
        "raw_setup_s": statistics.median(setup_samples[1]),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    half = 0 if trace else SETUP_PROBES // 2
    first = measure_setup(half, deadline)
    plain = run_worker(workload, seed, seconds, 0, deadline)
    second = measure_setup(half, deadline)
    check_digests(workload, seed, seconds, plain["ops"])
    result = {"env": {**environment(), "blas_threads": plain["blas_threads"]}, "plain": plain}
    ops = plain["ops"]
    if not trace:
        result["e2e"] = end_to_end(plain, (first[0] + second[0], first[1] + second[1]))
    else:
        traced = run_worker(workload, seed, seconds, 1, deadline)
        check_digests(workload, seed, seconds, traced["ops"])
        ops = ops + traced["ops"]
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        # both walls at reference speed, so machine drift between the two
        # worker processes cancels
        wall = [sum(op["latency_s"] or 0.0 for op in doc["ops"]) for doc in (traced, plain)]
        layers["trace_overhead_s"] = (wall[0] - wall[1], "s")
        result["layers"] = layers
    result["attempted"] = len(ops)
    result["failed"] = sum(1 for op in ops if op["problems"])
    result["problems"] = [f"{op['label']}: {p}" for op in ops for p in op["problems"]]
    (OUT / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result))
    return result


# ---------------------------------------------------------------------------
# report


def print_report(workload: str, seed: int, res: dict, trace: int) -> dict[str, dict]:
    env = res["env"]
    print(f"== {workload} (seed {seed})")
    print(
        f"   python {env['python']}, numpy {env['numpy']}, {env['blas']} {env['blas_version']} "
        f"with {env['blas_threads']} BLAS thread(s), nproc {env['nproc']}, {env['cpu']}, "
        f"commit {env['commit']}"
    )
    for line in res["problems"][:20]:
        print(f"   FAIL {line}")
    fail_rate = res["failed"] / res["attempted"]
    if not trace:
        e2e = res["e2e"]
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        for name, unit in END_TO_END_UNITS.items():
            extra = ""
            if name == "op_tail_s":
                extra = f"   (p{e2e['op_tail_percentile']:.1f} of {e2e['operations']} operations)"
            print(f"   {name:<14} {e2e[name]:12.6f} {unit}{extra}")
        print(f"   {'fail_rate':<14} {fail_rate:12.6f} ratio   ({res['failed']} of {res['attempted']})")
        print(f"   {'raw wall':<14} {e2e['raw_wall_s']:12.6f} s       (not scaled by the speed reference)")
        print(f"   {'raw setup':<14} {e2e['raw_setup_s']:12.6f} s")
        return metrics
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["layers"].items()}
    for name, (value, unit) in res["layers"].items():
        print(f"   {name:<36} {value:16.6f} {unit}")
    print(f"   {'fail_rate':<36} {fail_rate:16.6f} ratio   ({res['failed']} of {res['attempted']})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S * (4 if args.workload == "all" else 1)

    if not (SRC / "connlab" / "__init__.py").is_file():
        print(f"error: connlab sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            metrics = print_report(workload, args.seed, res, args.trace)
            if args.workload == "all":
                metrics = {f"{workload}.{k}": v for k, v in metrics.items()}
            summary["metrics"].update(metrics)
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
