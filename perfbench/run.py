"""netpad benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload messaging --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps netpad's public functions and
reports the per-layer metrics instead.  ``--smoke`` runs a few operations,
to check that the benchmark itself works.

``setup_s`` is the median of three set-ups, each timed from process start
to the first timed operation: this process's own, and two more in child
processes (``--setup-only``) started after the measurement, so that each
one pays the cold costs a deployment pays once.

Operations and set-up are timed in process CPU time (user + system).  The
loop is single-threaded and CPU-bound, so on an idle core this equals wall
time; on a shared virtual machine it leaves out the time the host gives
the core to other guests, which no change to netpad can move.  The run
length itself is wall time.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# p90 is reported, so a run times at least this many operations to leave
# ten samples beyond it, even if that takes longer than --seconds.
MIN_OPS = 100
# A run whose operations keep failing ends here, within the 180 s a run may
# take, short of MIN_OPS timed operations.
MAX_SECONDS = 120
SMOKE_OPS = 3
SETUP_CHILDREN = 2

END_TO_END = {
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_kbit_s": "kbit/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_netpad():
    """Import netpad from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import netpad
    except ImportError as exc:
        sys.exit(f"cannot import netpad from {SRC}: {exc}")
    if Path(netpad.__file__).resolve().parent.parent != SRC:
        sys.exit(f"netpad was imported from {netpad.__file__}, not from {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["messaging", "provisioning", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print setup_s and exit (used for setup_s samples)")
    return parser.parse_args(argv)


def set_up(workload_cls, args, workdir, tracer):
    """Build the fixtures and run one warm-up operation."""
    workload = workload_cls(args.seed, workdir, tracer)
    workload.setup()
    op = workload.prepare()
    workload.run(op)
    if not workload.check(op):
        sys.exit("warm-up operation failed its correctness check")
    return workload


def child_setup_s(args) -> float:
    """setup_s of a fresh process that sets up the same workload."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"set-up in a child process exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload, args, tracer):
    latencies, bits = [], 0
    attempted = failed = 0
    correct = True
    start = perf_counter()
    while True:
        for _ in range(workload.round_size):
            op = workload.prepare()
            attempted += 1
            tracer.recording = bool(args.trace)
            t0 = process_time()
            try:
                workload.run(op)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                elapsed = process_time() - t0
                tracer.recording = False
                tracer.end_op()
            try:
                ok = workload.check(op)
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"operation {attempted} failed its correctness check", file=sys.stderr)
                failed += 1
                correct = False
                continue
            latencies.append(elapsed)
            bits += workload.bits(op)
        elapsed_s = perf_counter() - start
        if args.smoke:
            if attempted >= SMOKE_OPS:
                break
        elif (elapsed_s >= args.seconds and len(latencies) >= MIN_OPS
              or elapsed_s >= MAX_SECONDS):
            break
    return latencies, bits, attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    import_netpad()
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    if args.trace:
        tracer.install()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = set_up(WORKLOADS[args.workload], args, workdir, tracer)
        setup_s = process_time()  # CPU time since process start, imports included
        if args.setup_only:
            print(setup_s)
            return 0
        latencies, bits, attempted, failed, correct = measure(workload, args, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir)
    if not latencies:
        sys.exit("no operation succeeded")

    p50_ms = statistics.median(latencies) * 1e3
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.op_p50_ms"] = {"value": p50_ms, "unit": "ms"}
    else:
        values = {
            "p50_ms": p50_ms,
            "p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "throughput_kbit_s": bits / sum(latencies) / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(
                [setup_s] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload}: {attempted} operations, {failed} failed, "
          f"p50 {p50_ms:.1f} ms", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
