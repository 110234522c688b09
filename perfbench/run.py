"""Benchmark of the `plap certify` pipeline, end to end and per layer.

    python3 perfbench/run.py --workload certify_mixed --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark writes the seeded
corpus of the workload as graph files under `.perfbench_work/`, then calls
`plap.cli.main(["certify", ...])` on them in this process, one call after
another (a closed loop with one client), each under a latency limit.  It
checks every report, prints a table and, as its last line, one JSON object:
with `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  `--record` stores the calls' results as the
reference that later runs at the same seed are compared with.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
LATENCY_LIMIT_S = 20.0
SETUP_SAMPLES = 11
CAL_ROUNDS = 200
PROBE_INTERVAL_S = 0.1
SETUP_CODE = ("import time; t0 = time.perf_counter(); import plap.kernels; "
              "plap.kernels.warmup(); print(time.perf_counter() - t0)")


class CallTimeout(BaseException):
    """Raised into a call that outlives the latency limit.

    A BaseException, so that no handler inside the program can swallow it.
    """


class _Alarm:
    armed = False

    @classmethod
    def fire(cls, signum, frame):
        if cls.armed:
            raise CallTimeout


def _setup_seconds() -> float:
    """Median time of `import plap` plus `kernels.warmup()` in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _calibrate() -> float:
    """Seconds for a fixed loop of small numpy reductions and float arithmetic.

    The host this benchmark was built on runs the same code up to 1.6 times
    slower in bursts that last from a fraction of a second to many seconds.
    A call's time divided by this loop's time, taken before, during and
    after the call, barely moves with those bursts.
    """
    x = np.arange(20.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ROUNDS):
        acc += float(np.sum(np.abs(x - i))) + i * 0.5
    return time.perf_counter() - t0


class _Probe:
    """Times the reference loop every PROBE_INTERVAL_S of CPU time in a call."""
    samples: list[float] = []

    @classmethod
    def fire(cls, signum, frame):
        cls.samples.append(_calibrate())


def _certify(main, argv):
    """(exit code or None on timeout, wall seconds, captured output, calibration)."""
    sink = io.StringIO()
    code = None
    signal.signal(signal.SIGALRM, _Alarm.fire)
    signal.signal(signal.SIGPROF, _Probe.fire)
    _Probe.samples = [_calibrate()]
    signal.setitimer(signal.ITIMER_REAL, LATENCY_LIMIT_S)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        try:
            _Alarm.armed = True
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        finally:
            _Alarm.armed = False
    except CallTimeout:
        pass
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    _Probe.samples.append(_calibrate())
    return code, wall, sink.getvalue(), statistics.fmean(_Probe.samples)


def _measure(calls, files, tracer=None):
    """Make every call once; the results carry exit code, wall time and report."""
    from plap import cli
    main = cli.main if tracer is None else tracer.root(cli.main)
    results = []
    for call in calls:
        graph_path, report_path = files[call.ident]
        report_path.unlink(missing_ok=True)
        argv = ["certify", str(graph_path), *call.options, "--json", str(report_path)]
        if tracer is not None:
            tracer.begin_call()
        code, wall, output, cal = _certify(main, argv)
        if tracer is not None and code is not None:
            tracer.end_call()
        report = None
        if code is not None and report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
        lines = output.strip().splitlines()
        results.append({"call": call, "exit": code, "wall": wall, "cal": cal,
                        "report": report, "message": lines[-1] if lines else ""})
    return results


def _check(results, reference):
    """Mark each result failed or not; return whether every output was correct."""
    correct = True
    for r in results:
        call, report = r["call"], r["report"]
        r["problems"] = [] if report is None else checks.report_problems(
            report, call.digest, call.p_list)
        if r["exit"] in (0, 1) and report is None:
            r["problems"].append("no report written")
        r["summary"] = dict(checks.summary(r["exit"], report), digest=call.digest)
        ref = reference.get(call.ident)
        r["mismatches"] = []
        if ref is not None and r["exit"] is not None:
            if ref["digest"] != call.digest:
                r["mismatches"].append("input differs from the reference input")
            else:
                r["mismatches"] = checks.reference_mismatches(r["summary"], ref)
        correct = correct and not r["problems"] and not r["mismatches"]
        if r["exit"] is None:
            r["status"] = f"latency limit {LATENCY_LIMIT_S:g}s"
        elif r["problems"] or r["mismatches"]:
            r["status"] = "; ".join(r["problems"] + r["mismatches"])
        elif r["exit"] != 0:
            r["status"] = f"exit {r['exit']}: {r['message']}"
        elif not report["all_pass"]:
            r["status"] = "all_pass false"
        else:
            r["status"] = "ok"
        r["failed"] = r["status"] != "ok"
    return correct


def _print_calls(results):
    print(f"{'call':<11}{'n':>3}{'m':>4} {'mu':<9}{'exit':>5}{'wall_s':>10}"
          f"{'cal':>10}  status")
    for r in results:
        c = r["call"]
        code = "-" if r["exit"] is None else r["exit"]
        name = f"{c.ident}#{c.repeat}" if c.repeat else c.ident
        print(f"{name:<11}{c.n:>3}{c.m:>4} {c.mu_mode:<9}{code:>5}"
              f"{r['wall']:>10.4f}{r['wall'] / r['cal']:>10.1f}  {r['status']}")


def _load_reference(workload, seed):
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def _record(workload, results):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    ref[workload] = {r["call"].ident: r["summary"] for r in results
                     if r["exit"] is not None}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def _result_line(correct, results, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def _end_to_end(workload, seed, calls, files, reference, record):
    setup_s = _setup_seconds()
    results = _measure(calls, files)
    correct = _check(results, reference)
    if record:
        _record(workload, results)
    walls = [r["wall"] for r in results]
    failed = sum(r["failed"] for r in results)
    metrics = {
        "op_p50_cal": (statistics.median(r["wall"] / r["cal"] for r in results), "cal"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    _print_calls(results)
    print(f"workload {workload}, seed {seed}, {len(results)} calls, "
          f"reference {'on' if reference else 'off'}")
    print(f"setup_s      {setup_s:.4f} s   median of {SETUP_SAMPLES} fresh processes")
    print(f"run_s        {sum(walls):.4f} s   sum of {len(walls)} certify calls")
    print(f"op_p50_s     {statistics.median(walls):.4f} s   median of {len(walls)} calls")
    print(f"op_p50_cal   {metrics['op_p50_cal'][0]:.4f} cal median of {len(walls)} calls, "
          f"each over the reference loop timed next to it")
    print(f"fail_ratio   {failed / len(results):.4f} 1   {failed} of {len(results)} calls")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    return _result_line(correct, results, metrics)


def _traced(workload, seed, calls, files, reference):
    import spans
    plain = _measure(calls, files)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _measure(calls, files, tracer)
    finally:
        tracer.uninstall()
    plain_correct = _check(plain, reference)
    correct = _check(traced, reference) and plain_correct
    both = [(a, b) for a, b in zip(plain, traced)
            if a["exit"] is not None and b["exit"] is not None]
    untraced_s = sum(a["wall"] for a, _ in both)
    traced_s = sum(b["wall"] for _, b in both)
    # the host's speed drifts between the two passes by more than the
    # tracing costs, so compare them in reference loops, then convert back
    # to seconds at the mean loop time of both passes
    cal_s = statistics.fmean(r["cal"] for pair in both for r in pair) if both else 0.0
    overhead_s = cal_s * sum(b["wall"] / b["cal"] - a["wall"] / a["cal"] for a, b in both)
    layer = tracer.metrics()
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in layer.items()}
    metrics["eigensolver.repair_useful_ratio"] = (
        layer["eigensolver.repair_useful_ratio"], "1")
    metrics["cheeger.hk_calls"] = (layer["cheeger.hk_calls"], "count/call")
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    _print_calls(traced)
    accounted = sum(layer[name] for name in spans.SELF_TIMES)
    print(f"workload {workload}, seed {seed}, {len(traced)} calls traced, "
          f"{tracer.calls} finished under the tracer")
    print(f"traced run_s {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
          f"overhead at equal host speed {overhead_s:.4f} s, "
          f"layer self times {accounted:.4f} s "
          f"({100 * accounted / traced_s if traced_s else 0:.1f}% of traced run_s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36}{value:>16.6g} {unit}")
    return _result_line(correct, traced, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the results as the reference for this seed")
    args = parser.parse_args(argv)
    if not (SRC / "plap" / "__init__.py").is_file():
        print(f"error: no plap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus
    import plap
    if Path(plap.__file__).resolve().parent != SRC / "plap":
        print(f"error: imported plap from {plap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record and (args.trace or args.seed != DEFAULT_SEED):
        print("error: --record needs --trace 0 and the default seed", file=sys.stderr)
        return 2
    plap.kernels.warmup()
    calls = corpus.WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        calls = corpus.traced_prefix(calls)
    reference = {} if args.record else _load_reference(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        files = {}
        for call in calls:
            graph_path = work / f"{call.ident}.txt"
            graph_path.write_text(call.text, encoding="utf-8")
            files[call.ident] = (graph_path, work / f"{call.ident}.json")
        if args.trace:
            line = _traced(args.workload, args.seed, calls, files, reference)
        else:
            line = _end_to_end(args.workload, args.seed, calls, files, reference,
                               args.record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
