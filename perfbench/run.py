"""sftkit benchmark: time to an exact verdict, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of ``spans.py`` and ``trace_overhead_ratio``.  Either way
every operation passes the correctness gate of its workload, and the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run record (machine, Python, sftkit source,
seed, output digest) is printed before it and written under
``perfbench/.work/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3


def load_sftkit():
    """Import sftkit from this checkout's ``src/``, afresh each time."""
    for name in [n for n in sys.modules
                 if n == "sftkit" or n.startswith("sftkit.")]:
        del sys.modules[name]
    sk = importlib.import_module("sftkit")
    for sub in ("cli", "io", "samples", "errors"):
        importlib.import_module(f"sftkit.{sub}")
    return sk


class Tally:
    """Latencies, claims and gate outcomes of the operations run so far."""

    def __init__(self, workload):
        self.wl = workload
        self.times = []
        self.claims = 0
        self.failed = 0
        self.digests = {}   # input index -> digest of its first output
        self.passed = {}    # input index -> claims, once its output passed
        self.problems = []

    def run_pass(self, tracer=None, budget_s=None):
        """One pass over the pool, or passes until ``budget_s`` seconds of
        operations have run (always at least one whole pass)."""
        items = self.wl.items
        spent = 0.0
        i = 0
        while i < len(items) or (budget_s is not None and spent < budget_s):
            spent += self.op(i % len(items), tracer)
            i += 1
        return i, spent

    def op(self, idx, tracer=None):
        item = self.wl.items[idx]
        if tracer:
            tracer.on = True
        t0 = time.perf_counter()
        try:
            result = self.wl.run(item)
            error = None
        except Exception as e:   # a raising operation is a failed verdict
            error = f"raised {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.on = False
        self.times.append(dt)
        if error:
            self._fail(idx, [error])
            return dt
        try:
            digest = self.wl.digest(item, result)
            if self.digests.setdefault(idx, digest) != digest:
                problems, claims = ["output digest differs from an earlier "
                                    "run of the same input"], 0
            elif idx in self.passed:   # the same output passed the gate
                problems, claims = [], self.passed[idx]
            else:
                problems, claims = self.wl.check(item, result)
        except Exception as e:   # so is one the gate cannot evaluate
            problems, claims = [f"check raised {e!r}"], 0
        if problems:
            self._fail(idx, problems)
        else:
            self.passed[idx] = claims
            self.claims += claims
        return dt

    def _fail(self, idx, problems):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"item {idx}: {'; '.join(problems)}")

    def digest(self):
        """sha256 over the per-input digests, in pool order."""
        h = hashlib.sha256()
        for i in range(len(self.wl.items)):
            h.update(f"{i}:{self.digests[i]}\n".encode())
        return h.hexdigest()


def tail(times):
    """(value, percentile, operations beyond it) for the highest percentile,
    in tenths, that leaves at least ten operations above it."""
    n = len(times)
    tenths = max(500, (1000 * n - 10000) // n) if n > 20 else 500
    rank = -(-tenths * n // 1000)          # nearest rank, 1-based
    return sorted(times)[rank - 1], tenths / 10, n - rank


def metadata(workload, seed, seconds, trace):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "sftkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "cpu": cpu, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sftkit_commit": git_commit(), "sftkit_source_sha256": src.hexdigest(),
        "flags": {k: getattr(sys.flags, k) for k in sys.flags.__match_args__},
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O; sftkit keeps real "
              "checks in assert statements, which -O strips", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sftkit" / "__init__.py").is_file():
        print(f"perfbench: no sftkit sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    scratch = WORK / f"oe-{os.getpid()}"
    try:
        return measure(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, make_workload, scratch) -> int:
    started = time.perf_counter()
    # set-up: import, generate inputs, write files, one warm-up operation
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sk = load_sftkit()
        wl = make_workload(sk, args.seed, str(scratch))
        wl.run(wl.items[0])
        setups.append(time.perf_counter() - t0)

    tally = Tally(wl)
    record = metadata(args.workload, args.seed, args.seconds, args.trace)
    if not args.trace:
        n_ops, spent = tally.run_pass(budget_s=args.seconds)
        value, pct, beyond = tail(tally.times)
        metrics = {
            "verdicts_per_s": (n_ops / spent, "1/s"),
            "verdict_p50_ms": (1000 * statistics.median(tally.times), "ms"),
            "verdict_tail_ms": (1000 * value, "ms"),
            "claims_per_s": (tally.claims / spent, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        record.update(tail_percentile=pct, tail_beyond=beyond,
                      operations=n_ops, setup_runs_s=setups)
    else:
        # whole untraced passes before and after the traced one, so both
        # rates cover the same inputs and a drift in machine speed cancels
        def untraced():
            ops = spent = 0
            while spent < args.seconds / 4:
                n, s = tally.run_pass()
                ops, spent = ops + n, spent + s
            return ops, spent

        before = untraced()
        tracer = Tracer(sk)
        tracer.install()
        try:
            traced_ops, traced_s = tally.run_pass(tracer=tracer)
        finally:
            tracer.uninstall()
        after = untraced()
        untraced_ops, untraced_s = before[0] + after[0], before[1] + after[1]
        ratio = (untraced_ops / untraced_s) / (traced_ops / traced_s)
        units = dict(metric_names())
        metrics = {k: (v, units[k]) for k, v in tracer.metrics().items()}
        metrics["trace_overhead_ratio"] = (ratio, "ratio")
        record.update(operations=untraced_ops + traced_ops,
                      traced_operations=traced_ops)

    attempted = len(tally.times)
    record.update(pool=len(wl.items), attempted=attempted,
                  failed=tally.failed, failed_frac=tally.failed / attempted,
                  claims=tally.claims, output_sha256=tally.digest(),
                  problems=tally.problems,
                  wall_s=time.perf_counter() - started,
                  metrics={k: v for k, (v, _) in metrics.items()})
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"failed_frac = {tally.failed / attempted} "
          f"({tally.failed} of {attempted})")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
