"""superskel benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/`` next to
this directory.  One client in one thread issues each operation after the
previous one returns.  An operation is a primary route, its oracle route and
their exact comparison; a mismatch, an exception or overrunning
``OP_LIMIT_S`` counts as a failed operation.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
the same workload with every layer wrapped by ``tracer.Tracer``, replays its
first ``REPLAY_OPS`` operations untraced to measure the tracing overhead,
runs the workload's stress rows and reports the per-layer metrics.  Either
way the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
run (input digest, host drift, stress rows), and a copy of everything goes
to ``.bench_out/``.  The exit code is 0 when at least one operation was
verified, 1 when none was, and 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OP_LIMIT_S = 30.0
MIN_OPS = 100          # latency_p90_ms then has at least 10 samples beyond it
SIZE_PREFIX = 100      # result sizes are counted on this many first operations
SETUP_REPEATS = 3
DEGREE_SAMPLE = 20     # traced run: results whose stored degree is reduced by sympy
STRESS_BUDGET_S = 60.0  # traced run: no stress row starts after this many seconds
REPLAY_OPS = 100       # traced run: operations replayed untraced for the overhead


def fraction_drift() -> float:
    """Seconds for a fixed pure-Fraction loop: a host-speed probe, not a metric."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 20000):
        acc += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, 5)
    return time.perf_counter() - start


def import_library():
    """Import ``superskel`` from this checkout's ``src/``, never another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import superskel
    except ImportError as exc:
        print(f"error: cannot import superskel from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(superskel.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: superskel was imported from {superskel.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def measure_setup(args) -> float:
    """Median wall time of SETUP_REPEATS fresh interpreters that import the
    library, generate the inputs, write the files and exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--setup-only"], check=True, cwd=ROOT, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Loop:
    """Closed-loop results: latencies, failures and result sizes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.degree_max = 0
        self.terms: list[int] = []
        self.results = []


def run_loop(workload, seconds: float, min_ops: int, count=None, tracer=None,
             keep_results: int = 0) -> Loop:
    """Run operations in schedule order until ``seconds`` have passed and at
    least ``min_ops`` were issued (or exactly ``count`` when given)."""
    from limits import OpTimeout, time_limit
    from workloads import Mismatch

    loop = Loop()
    ops = workload.ops
    deadline = time.perf_counter() + seconds
    hard_stop = deadline + 2 * seconds
    index = 0
    while True:
        now = time.perf_counter()
        if count is not None:
            if index >= count:
                break
        elif (now >= deadline and index >= min_ops) or now >= hard_stop:
            break
        op = ops[index % len(ops)]
        if tracer is not None:
            tracer.op = index
        result = None
        start = time.perf_counter()
        try:
            with time_limit(OP_LIMIT_S):
                result = op()
        except OpTimeout:
            loop.failures.append(f"op {index}: timeout after {OP_LIMIT_S} s")
            if tracer is not None:
                tracer.reset_stack()
        except Mismatch as exc:
            loop.failures.append(f"op {index}: {exc}")
        except Exception as exc:  # any library error is a failed operation
            loop.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        loop.latencies.append(time.perf_counter() - start)
        if index < SIZE_PREFIX and result is not None:
            degree, terms = workload.sizes(result)
            loop.degree_max = max(loop.degree_max, degree)
            loop.terms.extend(terms)
        if index < keep_results and result is not None:
            loop.results.append(result)
        index += 1
    return loop


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat = sorted(loop.latencies)
    n = len(lat)
    verified = n - len(loop.failures)
    return {
        "ops_per_s": (verified / sum(lat), "op/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        # nearest-rank p90; with n >= 100 at least 10 samples lie beyond it
        "latency_p90_ms": (lat[math.ceil(0.9 * n) - 1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "result_degree_max": (loop.degree_max, "count"),
        "result_terms_mean": (statistics.mean(loop.terms) if loop.terms else 0, "count"),
    }


def per_layer(loop: Loop, tracer, untraced: Loop) -> dict:
    """Per-layer metrics of a traced loop.  Calls and times are per operation,
    so they compare across runs that fit different numbers of operations in
    the same seconds; sizes are maxima over the run."""
    import stress

    n = len(loop.latencies)

    def calls(*names):
        return (tracer.total(names, "calls") / n, "count/op")

    def self_s(*names):
        return (tracer.total(names, "self_s") / n, "s/op")

    def outer_s(*names):
        return (tracer.total(names, "outer_s") / n, "s/op")

    def size(key):
        return (tracer.counters.get(key, 0), "count")

    def split(key):
        return (tracer.counters.get(key, 0.0) / n, "s/op")

    metrics = {}
    for layer, (layer_calls, layer_self) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (layer_calls / n, "count/op")
        metrics[f"{layer}.self_s"] = (layer_self / n, "s/op")
    poly_mul = ("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__")
    grassmann_mul = ("grassmann.GrassmannElement.__mul__",
                     "grassmann.GrassmannElement.__rmul__")
    superfn_mul = ("superfn.SuperFunction.__mul__", "superfn.SuperFunction.__rmul__")
    stored = reduced = 0
    for result in loop.results:
        if not hasattr(result, "even_values"):  # lambda-points have no coefficients
            s, r = stress.reduced_degrees(list(result))
            stored, reduced = stored + s, reduced + (s if r is None else r)
    metrics.update({
        "poly.mul_calls": calls(*poly_mul),
        "poly.mul_self_s": self_s(*poly_mul),
        "poly.den_degree_max": size("poly.den_degree_max"),
        "poly.num_degree_max": size("poly.num_degree_max"),
        "poly.terms_max": size("poly.terms_max"),
        # stored / reduced degree; 1 when no result has a coefficient to reduce
        "poly.degree_excess_ratio": (stored / reduced if reduced else 1.0, "ratio"),
        "grassmann.mul_calls": calls(*grassmann_mul),
        "grassmann.mul_self_s": self_s(*grassmann_mul),
        "grassmann.invert_calls": calls("grassmann.GrassmannElement.invert"),
        "grassmann.terms_max": size("grassmann.terms_max"),
        "superfn.mul_calls": calls(*superfn_mul),
        "superfn.mul_self_s": self_s(*superfn_mul),
        "superfn.invert_calls": calls("superfn.SuperFunction.invert"),
        "superfn.invert_self_s": self_s("superfn.SuperFunction.invert"),
        "superfn.substitute_self_s": self_s("superfn.SuperFunction.substitute"),
        "spaces.excluded_max": size("spaces.excluded_max"),
        "spaces.contains_calls": calls("spaces.DeWittDomain.contains_body"),
    })
    for route in ("eval_subst", "eval_taylor"):
        metrics[f"continuation.{route}_s"] = outer_s(f"continuation.{route}")
        for rank in (4, 5, 6, 7, 8):
            key = f"continuation.{route}_s.rank{rank}"
            metrics[key] = split(key)
    metrics.update({
        "calculus.apply_calls": calls("calculus.DerivativeData.apply"),
        "calculus.apply_s": outer_s("calculus.DerivativeData.apply"),
        "calculus.bgn_quotient_s": outer_s("calculus.bgn_quotient"),
    })
    for route in ("compose_subst", "compose_formula"):
        metrics[f"morphisms.{route}_s"] = outer_s(f"morphisms.{route}")
        for odd in (1, 2, 3, 4):
            key = f"morphisms.{route}_s.odd{odd}"
            metrics[key] = split(key)
    metrics.update({
        "atlas.transport_s": outer_s("atlas.transport"),
        "atlas.check_cocycle_s": outer_s("atlas.check_cocycle"),
        "parsing.parse_s": (tracer.group_s["parsing.parse"] / n, "s/op"),
        "parsing.format_s": (tracer.group_s["parsing.format"] / n, "s/op"),
        "parsing.bytes": (tracer.counters.get("parsing.bytes", 0) / n, "B/op"),
        "cli.main_s": outer_s("cli.main"),
        "failed_ratio": (len(loop.failures) / n, "fraction"),
        # traced / untraced time of the same first operations
        "trace.overhead_ratio": (sum(loop.latencies[:len(untraced.latencies)])
                                 / sum(untraced.latencies), "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_contents = any(scratch_root.iterdir())
        if not with_contents:
            scratch_root.rmdir()


def measure(args, workdir: Path) -> int:
    import workloads

    drift_start = fraction_drift()
    setup_s = measure_setup(args) if not args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    print(f"workload {workload.name} seed {args.seed}: input digest {workload.digest}, "
          f"{len(workload.ops)} generated operations")

    report = {"workload": workload.name, "seed": args.seed, "digest": workload.digest,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracer import Tracer
        import stress

        tracer = Tracer()
        tracer.install()
        try:
            loop = run_loop(workload, args.seconds, 1, tracer=tracer,
                            keep_results=DEGREE_SAMPLE)
        finally:
            tracer.remove()
        untraced = run_loop(workload, 0, 0, count=min(len(loop.latencies), REPLAY_OPS))
        rows_for = stress.ROWS.get(workload.name, lambda seed, deadline: [])
        rows = rows_for(args.seed, time.perf_counter() + STRESS_BUDGET_S)
        metrics = per_layer(loop, tracer, untraced)
        for row in rows:
            print("stress " + json.dumps(row))
        report["stress_rows"] = rows
    else:
        loop = run_loop(workload, args.seconds, MIN_OPS)
        metrics = end_to_end(loop, setup_s)
    drift_end = fraction_drift()

    attempted, failed = len(loop.latencies), len(loop.failures)
    verified = attempted - failed
    for line in loop.failures[:10]:
        print(f"FAILED {line}")
    if attempted > len(workload.ops):
        print(f"warning: {attempted} operations wrapped around the pool of "
              f"{len(workload.ops)}, so later operations reused inputs")
    print(f"{attempted} operations, {failed} failed "
          f"(failed_ratio {failed / attempted:.6f}); "
          f"{attempted - math.ceil(0.9 * attempted)} samples "
          f"beyond latency_p90")
    print(f"host drift: Fraction probe {drift_start:.4f} s at start, "
          f"{drift_end:.4f} s at end (not a metric)")
    result = {
        "correct": failed == 0 and verified > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report.update(result=result, drift_s=[drift_start, drift_end],
                  failures=loop.failures)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        tracer.write(out / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0 if verified > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
