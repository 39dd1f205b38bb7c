"""treecount benchmark: closed-loop, single-process runs of the CLI.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {stream,exact,roundtrip} \\
        --seed N --seconds S --trace {0,1}

One client calls ``treecount.cli.main`` in this process, one invocation
at a time, each waiting for the previous one, with argv lists built from
the seed (see ``workloads.py``).  Every op's stdout goes to an in-memory
sink that is checked against the benchmark's own arithmetic afterwards,
outside the timed region.  Each op starts as cold as a fresh process:
every memo cache of the package is cleared first, and all ``TREECOUNT_*``
variables are removed before the package is imported (its enumeration
caps are read at import time).

End-to-end times are CPU time of the measuring thread or process,
scaled to a reference speed.  The program is single-threaded, CPU-bound
and writes to memory here, so on an idle machine CPU time equals wall
time; on a shared virtual machine CPU time leaves out the time the host
gives to other guests, but the same code still runs up to half again
slower in some phases, of seconds to minutes, than in others.  So the
benchmark times a fixed reference load (``calibrate.py``) before every
case and after the last, and scales each op's CPU time by
``calibrate.REFERENCE_MS`` over the mean of the two loads around its
case; each set-up probe is scaled by loads run in its own process.
``--trace 0`` repeats the op list for ``--seconds`` of wall time and
takes each op's median scaled time over the passes.  The raw CPU times
and the reference loads go in the meta line.  The per-layer times of
``--trace 1`` are raw CPU times.

``--trace 0`` reports the end-to-end metrics of untraced ops.
``--trace 1`` runs the op list twice, with layer spans (``spans.py``) and
without, and reports the per-layer metrics of the traced pass plus the
cost of tracing.  Stdout ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``{"meta": ...}`` with the machine, the run and every failure by op kind.

``failed`` counts ops that ended in a traceback or in wrong output.  The
two known defects fail today (``count total`` past the 4300-digit
int-to-str limit, and the n = 1 Prufer round trip); they are counted
there and in ``ok_ratio``.  ``correct`` turns false when any other op
fails, or when a known-defect op fails in some other way.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

import calibrate
import oracle
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
TAIL_PERCENTILES = (99.9, *range(99, 49, -1))
TAIL_MIN_BEYOND = 10


class Runner:
    """Runs cases op by op, checking each outcome outside the timed region."""

    def __init__(self, cli, caches, tracer: Tracer | None = None):
        self.cli = cli
        self.caches = caches
        self.tracer = tracer
        self.deg_v1 = [0, 0]  # trees written, trees decoded on --deg-v1 ops
        self.loads: list = []  # CPU seconds of every reference load

    def run_op(self, op: workloads.Op, stdin: str) -> workloads.Outcome:
        for cache in self.caches:
            cache.cache_clear()
        sin, out, err = io.StringIO(stdin), io.StringIO(), io.StringIO()
        main = self.cli.main  # the span wrapper while a tracer is installed
        rc, exc = None, None
        t0 = thread_time()
        try:
            rc = main(op.argv, stdin=sin, stdout=out, stderr=err)
        except Exception as e:  # an uncaught error: a traceback for a user
            exc = e
        dt = thread_time() - t0
        return workloads.Outcome(rc, out.getvalue(), err.getvalue(), exc, dt)

    def run_case(self, ops: list) -> list:
        done: dict = {}
        results = []
        for op in ops:
            if op.stdin_from and op.stdin_from not in done:
                results.append(None)  # its input was refused or wrong: nothing to pipe
                continue
            stdin = done[op.stdin_from].out if op.stdin_from else ""
            yielded = self.tracer.counts["enumeration.trees_yielded"] if self.tracer else 0
            if self.tracer:
                self.tracer.begin_op()
            o = self.run_op(op, stdin)
            refused = op.may_refuse and workloads.is_diagnostic(o)
            ok, items, note = True, 0, ""
            if o.exc is not None:
                ok, note = False, f"{type(o.exc).__name__}: {o.exc}"
            elif not refused:
                try:
                    items = op.check(o, done)
                except Exception as e:  # a parse error is wrong output too
                    ok, note = False, f"{type(e).__name__}: {e}"
            if self.tracer:
                self.tracer.end_op(o.exc is not None or o.rc in (2, 3))
                if "--deg-v1" in op.argv:
                    self.deg_v1[0] += items
                    self.deg_v1[1] += self.tracer.counts["enumeration.trees_yielded"] - yielded
            if ok and not refused and op.name:
                done[op.name] = o
            known = not ok and op.known_defect is not None and op.known_defect(o)
            results.append({"kind": op.kind, "s": o.seconds, "ok": ok,
                            "items": items, "known": known, "note": note[:200]})
        return results

    def run_pass(self, cases: list) -> list:
        """Run every case, with a reference load before each case and
        after the last; each op record gets its CPU time scaled by the
        loads around its case (``scaled_s``)."""
        # Start each pass with an empty young generation and the
        # benchmark's own objects frozen out of the collector's view, so
        # the ops' collections scan what a fresh process would hold.
        gc.collect()
        gc.freeze()
        results = []
        before = calibrate.seconds()
        self.loads.append(before)
        for case in cases:
            rs = self.run_case(case)
            after = calibrate.seconds()
            self.loads.append(after)
            scale = calibrate.REFERENCE_MS / 1000 / ((before + after) / 2)
            for r in rs:
                if r is not None:
                    r["scaled_s"] = r["s"] * scale
            results += rs
            before = after
        return results


def merge(passes: list) -> list:
    """One record per op from its runs in several passes: the median
    scaled and raw CPU times, and a failure if any run failed."""
    merged = []
    for runs in zip(*passes):
        runs = [r for r in runs if r is not None]
        if not runs:
            continue
        bad = [r for r in runs if not r["ok"]]
        merged.append({
            "kind": runs[0]["kind"],
            "s": statistics.median(r["scaled_s"] for r in runs),
            "cpu_s": statistics.median(r["s"] for r in runs),
            "ok": not bad,
            "items": 0 if bad else runs[0]["items"],
            "known": bool(bad) and all(r["known"] for r in bad),
            "note": bad[0]["note"] if bad else "",
        })
    return merged


def tail(latencies_ms: list) -> tuple[float, float, int]:
    """(percentile, value, ops beyond) at the highest percentile, 99.9 or
    a whole number, with at least TAIL_MIN_BEYOND ops above it."""
    xs = sorted(latencies_ms)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p / 100 * len(xs)) - 1)
        beyond = len(xs) - idx - 1
        if beyond >= TAIL_MIN_BEYOND or p == TAIL_PERCENTILES[-1]:
            return p, xs[idx], beyond
    raise AssertionError("unreachable")


def setup_seconds(src: str, env: dict, argv: list) -> list:
    """Import plus one warm-up op, each in a fresh interpreter: pairs of
    (CPU seconds, CPU seconds of the reference load in that process)."""
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), json.dumps(argv)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        setup_s, load_s = map(float, done.stdout.split()[-2:])
        samples.append((setup_s, load_s))
    return samples


def git_rev(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WARMUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "treecount", "cli.py")):
        print(f"perfbench: no treecount sources under {src}; run from the repo root",
              file=sys.stderr)
        return 2
    unset = sorted(k for k in os.environ if k.startswith("TREECOUNT_"))
    for k in unset:
        del os.environ[k]
    sys.path.insert(0, src)
    from treecount import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"perfbench: imported treecount from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    package = [m for n, m in sorted(sys.modules.items()) if n.startswith("treecount")]
    caches = {f"{m.__name__}.{name}": obj for m in package
              for name, obj in vars(m).items() if callable(getattr(obj, "cache_clear", None))}

    warmup = workloads.WARMUP[args.workload]
    setup = setup_seconds(src, dict(os.environ), warmup)
    cli.main(warmup, stdin=io.StringIO(), stdout=io.StringIO(), stderr=io.StringIO())

    cases = workloads.op_list(args.workload, args.seed)
    pass_ends: list = []
    runner = Runner(cli, list(caches.values()))
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        tracer = Tracer()
        traced = Runner(cli, runner.caches, tracer)
        tracer.install()
        try:
            passes = [traced.run_pass(cases)]
        finally:
            tracer.uninstall()
        passes.append(runner.run_pass(cases))
        metrics.update(tracer.metrics(oracle.IDENTITY_IDS))
        kept, decoded = traced.deg_v1
        metrics["cli.deg_v1_kept_ratio"] = (kept / decoded if decoded else 0.0, "ratio")
        traced_s, plain_s = (sum(r["s"] for r in p if r) for p in passes)
        metrics["trace_overhead_s"] = (traced_s - plain_s, "s")
        results = merge(passes)
        lat_ms = [r["s"] * 1000 for r in passes[1] if r]
    else:
        # Repeat the op list while another pass fits in the time (at least
        # twice); each op's median over the passes is its latency.
        passes = []
        t0 = perf_counter()
        while True:
            passes.append(runner.run_pass(cases))
            spent = perf_counter() - t0
            pass_ends.append(spent)
            if len(passes) >= 2 and spent * (len(passes) + 1) / len(passes) > args.seconds:
                break
        results = merge(passes)
        lat_ms = [r["s"] * 1000 for r in results]

    attempted = len(results)
    failed = [r for r in results if not r["ok"]]
    pct, tail_ms, beyond = tail(lat_ms)
    if not args.trace:
        metrics.update({
            "items_per_s": (sum(r["items"] for r in results) / sum(lat_ms) * 1000, "items/s"),
            "op_ms_p50": (statistics.median(lat_ms), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "setup_s": (statistics.median(s * calibrate.REFERENCE_MS / 1000 / load
                                          for s, load in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_ratio": ((attempted - len(failed)) / attempted, "ratio"),
        })

    by_kind: dict = {}
    for r in failed:
        entry = by_kind.setdefault(r["kind"], {"failed": 0, "known_defect": r["known"],
                                               "example": r["note"]})
        entry["failed"] += 1
        entry["known_defect"] = entry["known_defect"] and r["known"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_rev": git_rev(root), "passes": len(passes), "pass_ends_s": pass_ends,
        "ops": attempted, "latency_samples": len(lat_ms), "op_seconds": sum(lat_ms) / 1000,
        "op_cpu_seconds": sum(r["cpu_s"] for r in results),
        "reference_ms": calibrate.REFERENCE_MS,
        "load_ms_quartiles": statistics.quantiles([x * 1000 for x in runner.loads], n=4),
        "op_ms_tail_percentile": pct, "op_ms_tail_ops_beyond": beyond,
        "setup_samples_cpu_and_load_s": setup, "env_unset": unset,
        "memo_cleared_per_op": sorted(caches),
        "failures_by_kind": by_kind,
    }
    print(json.dumps({"meta": meta}))
    correct = all(r["known"] for r in failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
