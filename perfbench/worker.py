"""One workload in one process: set up, warm up, run the timed list, check it.

Started by run.py with the BLAS thread count already pinned in the
environment.  There is one caller in a closed loop: the next operation starts
when the previous one returns.  Only the call itself is timed; output
capture, digests, oracle checks and garbage collection run between
operations, outside the timed region.  Prints one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


# Machine-speed reference.  On the shared 2-core Xeon VM this benchmark was
# built on, a fixed piece of pure-Python work took anywhere from 21 to 34 ms
# depending on the moment, and whole runs of an identical operation list
# differed by up to 40 %.  So each operation is bracketed by a fixed
# pure-Python integer matrix product, the same instruction mix as connlab's
# dense exact layer, timed twice before and twice after (the faster of each
# pair, to drop interrupts), and its latency is divided by the speed factor
# they give.  The reported times are therefore seconds at the reference
# speed REFERENCE_S; the raw wall times are kept beside them in the run
# record.
REFERENCE_N = 32
REFERENCE_S = 0.003


def reference_matrix() -> tuple[list[list[int]], list[tuple[int, ...]]]:
    rows = [[(7 * i + 3 * j) % 7 - 3 for j in range(REFERENCE_N)] for i in range(REFERENCE_N)]
    return rows, list(zip(*rows))


def reference_time(matrix) -> float:
    rows, cols = matrix
    clock = time.perf_counter()
    [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
    return time.perf_counter() - clock


def setup() -> None:
    """What every connlab invocation pays before its first operation."""
    import numpy as np

    import connlab.cli  # noqa: F401

    a = np.arange(64 * 64, dtype=float).reshape(64, 64) % 7
    np.linalg.eigh(a + a.T)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_op(op, connlab) -> tuple[float, int, str, object]:
    """Time one operation; returns (seconds, exit code, stdout, library result)."""
    if op.command == "certify":
        clock = time.perf_counter()
        g = connlab.from_spec(op.graphs[0])
        b = connlab.bundle_for(g)
        green = b.green
        summary = {
            "residual": connlab.hydrogen_residual(b).max_abs(),
            "det": b.connection_det,
            "energy": green.entry_sum(),
        }
        elapsed = time.perf_counter() - clock
        text = json.dumps(summary, sort_keys=True) + "\n" + repr(green.rows) + "\n"
        return elapsed, 0, text, (b, summary)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        clock = time.perf_counter()
        try:
            code = connlab.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - clock
    return elapsed, code, out.getvalue(), None


def check_op(op, index: int, code: int, stdout: str, result, shapes, frozen, oracle) -> tuple[list[str], int]:
    """Oracle problems and the Newton iteration count (0 for other commands).

    shapes maps each graph spec to (vertex count, edge list); frozen maps the
    reference-table specs to their pinned rows.
    """
    n, edges = shapes[op.graphs[0]]
    if op.command == "certify":
        b, summary = result
        return oracle.check_certify(
            n, edges, b.connection.rows, b.green.rows, b.hodge_signless.rows, summary
        ), 0
    if op.command == "verify":
        return oracle.check_verify(stdout, code, op.field), 0
    if op.command == "product":
        return oracle.check_product(stdout, code, [shapes[spec] for spec in op.graphs]), 0
    if op.command == "bounds":
        return oracle.check_bounds(stdout, code, n, edges, frozen.get(op.graphs[0])), 0
    if op.command in ("walk", "automaton"):
        return oracle.check_walk(stdout, code, n, edges, op.steps, op.field, seed=index), 0
    if op.command == "newton":
        return oracle.check_newton(stdout, code, n, edges)
    raise ValueError(f"no oracle for {op.command!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="file for the raw spans of a traced run")
    args = parser.parse_args()

    setup()
    import connlab
    import connlab.cli

    if not Path(connlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"connlab imported from {connlab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import oracle
    import workloads

    from connlab.tables import REFERENCE_TABLES

    warmup, timed = workloads.build(args.workload, args.seed, args.seconds)
    # graphs for the oracle are built before tracing starts, so the oracle
    # adds no spans
    shapes = {}
    for op in timed:
        for spec in op.graphs:
            if spec not in shapes:
                g = connlab.from_spec(spec)
                shapes[spec] = (g.n, g.edges)
    frozen = {spec: row for table in REFERENCE_TABLES.values() for spec, row in table}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    for op in warmup:
        run_op(op, connlab)
    if tracer is not None:
        tracer.reset()

    records = []
    newton_iterations = 0
    matrix = reference_matrix()
    for index, op in enumerate(timed):
        before = min(reference_time(matrix), reference_time(matrix))
        gc.collect()
        if tracer is not None:
            tracer.op_id = index
        try:
            elapsed, code, stdout, result = run_op(op, connlab)
        except Exception as exc:  # an operation that raises counts as failed
            records.append({"label": op.label, "latency_s": None, "raw_latency_s": None, "digest": None,
                            "problems": [f"{type(exc).__name__}: {exc}"]})
            continue
        finally:
            if tracer is not None:
                tracer.op_id = -1
        after = min(reference_time(matrix), reference_time(matrix))
        speed = REFERENCE_S * 2 / (before + after)
        try:
            problems, iterations = check_op(op, index, code, stdout, result, shapes, frozen, oracle)
        except (KeyError, TypeError, ValueError) as exc:
            problems, iterations = [f"output does not parse: {type(exc).__name__}: {exc}"], 0
        newton_iterations += iterations
        records.append({
            "label": op.label,
            "nominal_s": op.nominal_s,
            "latency_s": elapsed * speed,
            "raw_latency_s": elapsed,
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
            "problems": problems,
        })
        del stdout, result
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    doc = {
        "ops": records,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "graphs": sum(len(op.graphs) for op in timed),
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.layer_metrics(doc["graphs"], newton_iterations)
        if args.trace_out:
            tracer.dump(args.trace_out)
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
