"""Time-to-verdict benchmark for pisotile.

    python3 bench/run.py --workload pisot-sweep --seed 1 --seconds 20 --trace 0

Runs one workload in this process, driving the program the way a user does:
``pisotile.cli.main`` with ``analyze <file>`` or ``msc <file> --map-level n``
on JSON files generated from ``--seed``.  A round runs every input, in a
seeded order; rounds repeat while another one fits in ``--seconds`` (there
is always at least one).  Every verdict is checked against the input's
reference (see inputs.py).

With ``--trace 0`` the last line carries the end-to-end metrics, measured
with tracing off.  With ``--trace 1`` it carries the per-layer metrics:
untraced and traced passes alternate, the traced ones record spans
(tracer.py), and the layer microbenchmarks (micro.py) run after them.  The
line before it is a JSON report: provenance, every input with its reference,
the inputs not decided, the tail percentile used and the absent metrics.

Workloads (one process; the program runs in one thread, beside the host
speed sampler; closed loop of one caller):

- pisot-sweep: the corpus, the four ROADMAP inputs and seeded 2-letter
  inputs through ``analyze`` with the ROADMAP's 5 s per-input limit.
- cubic-closure: three cubics whose time goes to overlap seeding and closure.
- msc-deep: ``msc --map-level n`` on corpus inputs; never builds the
  overlap graph.

An input that does not get a correct verdict within the per-input limit
(time-out, cap error, crash) counts as not decided, and enters the timing
percentiles at the larger of its elapsed time and the limit.  Untraced, a
decided input that took at most 5 s (the ROADMAP target) runs twice, a pass
apart, and counts with its best time (see run_round).  verdicts_per_s is
decided inputs per second of the summed input times.

The host's speed drifts by tens of percent over tens of seconds (other
tenants), so the end-to-end times -- the verdict times, the per-input limit
and setup_s -- are in seconds at a fixed reference speed: a sampler thread
(hostspeed.py) measures the host's speed throughout the run, and each
call's wall time is scaled by it.  The report line also carries the same
figures from raw wall times.  So are the traced self times and pass times
(each span by the speed during the input call it belongs to); the layer
microbenchmarks, a few seconds back to back, report raw times.

Every call starts with sympy's caches cleared, as a fresh ``pisotile``
process does, and the inputs and their references are computed in a child
process (inputs.load_inputs), so peak_rss_mb covers only the import, the
warm-up and the program's calls.  An input the run deadline leaves out of a
pass counts as not decided.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 9  # split between before and after the timed passes
CALLS = 2
REPEAT_MAX_S = 5.0
RUN_DEADLINE_S = 150.0  # start no new input after this; the run must end by 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

WARMUP_INPUT = {"alphabet": ["1", "2"], "rules": {"1": ["1", "2"], "2": ["1"]}}


class InputTimeout(BaseException):
    """Raised in the program by SIGALRM when an input exceeds its limit.
    A BaseException so that no ``except Exception`` in the program hides it."""


def _on_alarm(signum, frame):
    raise InputTimeout()


# -- one call ---------------------------------------------------------------------------


def clear_caches():
    """Empty sympy's caches (cacheit's LRU caches and the real-root caches of
    CRootOf), so that no call finds them filled by an earlier one."""
    from sympy.core.cache import clear_cache
    from sympy.polys.rootoftools import ComplexRootOf

    clear_cache()
    ComplexRootOf.clear_cache()


def call_cli(cli, argv, limit_s, speed=None):
    """(exit code or outcome, start, wall seconds, stdout) of one
    pisotile.cli.main call, started with sympy's caches cleared (outside the
    timed region).  With a hostspeed.Sampler, limit_s is in seconds at the
    reference speed."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    if speed is not None:
        limit_s *= speed.slowdown_now()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except InputTimeout:
        rc = "timeout"
    except Exception as e:  # a crash is an outcome to report, not a harness failure
        rc = f"crash: {type(e).__name__}: {e}"[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, t0, time.perf_counter() - t0, out.getvalue()


def judge(inp, rc, stdout) -> str:
    """'decided', 'wrong' or the reason it is not decided."""
    if rc == 1:
        return "wrong"  # VerdictMismatch: OC and MSC disagree
    if rc != 0:
        return {2: "gate or input error (exit 2)", 3: "cap exhausted (exit 3)"}.get(rc, str(rc))
    report = json.loads(stdout)
    if inp.command == "msc":
        verdict = report["verdict"]
        ok = report["level"] == inp.map_level
    else:
        verdict = report["overlap"]["verdict"]
        ok = report["agreement"] is True and report["msc"]["verdict"] == verdict
    if inp.reference is not None:
        ok = ok and verdict == inp.reference
    return "decided" if ok else "wrong"


# -- passes --------------------------------------------------------------------------------


SKIPPED = "skipped (run deadline)"


def run_pass(cli, inputs, paths, limit_s, deadline, speed, trace=None):
    """One pass over the inputs: list of (input, outcome, calls), wall s, where
    calls is [(start, wall seconds)].  Inputs reached after the deadline are
    not called; their outcome is SKIPPED and their calls are []."""
    samples = []
    t0 = time.perf_counter()
    for inp in inputs:
        if time.perf_counter() > deadline:
            samples.append((inp, SKIPPED, []))
            continue
        if trace is not None:
            trace.input_id = inp.id
            trace.open("input")
        rc, start, dt, stdout = call_cli(cli, inp.argv(paths[inp.id]), limit_s, speed)
        if trace is not None:
            trace.close_all()
            trace.finish_input()
        samples.append((inp, judge(inp, rc, stdout), [(start, dt)]))
    return samples, time.perf_counter() - t0


def run_round(cli, inputs, paths, limit_s, deadline, speed):
    """A pass over every input, then CALLS - 1 more passes over the decided
    inputs that took at most REPEAT_MAX_S at the reference speed; each input
    counts with its best call (see input_time).  Spacing the calls a pass
    apart keeps a passing disturbance out of both.  An input a repeat fails
    to decide keeps that outcome; one a repeat skips keeps its first call."""
    samples, _ = run_pass(cli, inputs, paths, limit_s, deadline, speed)
    best = {inp.id: [inp, o, calls] for inp, o, calls in samples}
    for _ in range(CALLS - 1):
        again = [inp for inp, o, calls in best.values()
                 if o == "decided" and speed.scale(*calls[0]) <= REPEAT_MAX_S]
        for inp, o, calls in run_pass(cli, again, paths, limit_s, deadline, speed)[0]:
            if o == SKIPPED:
                continue
            b = best[inp.id]
            b[1], b[2] = (b[1] if o == "decided" else o), b[2] + calls
    return [tuple(b) for b in best.values()]


def percentile(sorted_values, p):
    """Nearest-rank percentile: (value, samples beyond it)."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(values):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it;
    with fewer than 20 samples none has, and the maximum stands in."""
    vs = sorted(values)
    for p in TAIL_PERCENTILES:
        v, beyond = percentile(vs, p)
        if beyond >= 10:
            return v, {"percentile": p, "samples": len(vs), "beyond": beyond}
    return vs[-1], {"percentile": 100.0, "samples": len(vs), "beyond": 0,
                    "note": "fewer than 20 samples: the maximum stands in for the tail"}


def input_time(outcome, calls, limit_s, scale):
    """An input's time: its best call, each call's time given by
    scale(start, wall seconds); an undecided (or skipped) input counts at the
    larger of that and the limit."""
    t = min((scale(start, dt) for start, dt in calls), default=0.0)
    return t if outcome == "decided" else max(t, limit_s)


def end_to_end(samples, limit_s, scale):
    """The end-to-end metrics other than setup_s, with times from scale."""
    decided = sum(1 for _, o, _ in samples if o == "decided")
    times = [input_time(o, calls, limit_s, scale) for _, o, calls in samples]
    tail_v, tail_info = tail(times)
    metrics = {
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (tail_v, "s"),
        "verdicts_per_s": (decided / sum(times), "1/s"),
        "decided_frac": (decided / len(samples), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, tail_info


def setup_seconds(n):
    """(start, wall seconds) of n fresh interpreters importing pisotile.cli.
    The wait blocks (subprocess's wait with a timeout polls, in steps of up
    to 50 ms); a timer kills an import that hangs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import pisotile.cli"]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
            killer.join()
        times.append((t0, time.perf_counter() - t0))
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return times


# -- provenance --------------------------------------------------------------------------------


def git_revision() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, limit_s) -> dict:
    import sympy

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "per_input_limit_s": limit_s,
        "baselines": json.loads((BENCH_DIR / "baseline.json").read_text()),
    }


# -- main ----------------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pisotile" / "cli.py").is_file():
        print(f"error: no pisotile sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import inputs as workloads
    import pisotile.cli as cli

    if args.workload not in workloads.LIMITS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.LIMITS)}", file=sys.stderr)
        return 2
    limit_s = workloads.LIMITS[args.workload]
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    inputs = workloads.load_inputs(args.workload, args.seed, RUN_DEADLINE_S)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        paths = workloads.write_inputs(inputs, workdir)
        warm = workdir / "warmup.json"
        warm.write_text(json.dumps(WARMUP_INPUT))
        call_cli(cli, ["analyze", str(warm)], 60)  # lazy imports and caches
        with hostspeed.Sampler() as speed:
            if args.trace == 0:
                result, report = measure(cli, args, inputs, paths, limit_s, deadline, speed)
            else:
                result, report = measure_traced(cli, args, inputs, paths, limit_s, deadline,
                                                speed)
        report["host_speed"] = speed.summary()
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    report["provenance"] = provenance(args, limit_s)
    report["inputs"] = [i.record() for i in inputs]
    report["run_wall_s"] = time.perf_counter() - start
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _repeat_within(run_once, seconds, deadline):
    """Repeat run_once while another call fits in the time budget (at least once)."""
    t0 = time.perf_counter()
    runs = [run_once()]
    while True:
        elapsed = time.perf_counter() - t0
        per_pass = elapsed / len(runs)
        if elapsed + per_pass > seconds or time.perf_counter() + per_pass > deadline:
            return runs
        runs.append(run_once())


def _complete(samples):
    return all(o != SKIPPED for _, o, _ in samples)


def _not_decided(samples):
    return sorted({(inp.id, o) for inp, o, _ in samples if o != "decided"})


def _wrong(samples):
    return sum(1 for _, o, _ in samples if o == "wrong")


def measure(cli, args, inputs, paths, limit_s, deadline, speed):
    setup = setup_seconds(SETUP_SAMPLES // 2)
    runs = _repeat_within(lambda: run_round(cli, inputs, paths, limit_s, deadline, speed),
                          args.seconds, deadline)
    samples = [s for round_samples in runs for s in round_samples]
    setup += setup_seconds(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics, tail_info = end_to_end(samples, limit_s, speed.scale)
    metrics["setup_s"] = (statistics.median(speed.scale(*s) for s in setup), "s")
    raw, raw_tail = end_to_end(samples, limit_s, lambda start, dt: dt)
    raw["setup_s"] = (statistics.median(dt for _, dt in setup), "s")
    wrong = _wrong(samples)
    report = {
        "rounds": len(runs),
        "skipped": sorted({inp.id for inp, o, _ in samples if o == SKIPPED}),
        "wrong_verdicts": {"value": wrong, "unit": "count"},
        "verdict_s.tail": tail_info,
        "setup_s_samples": [round(speed.scale(*s), 4) for s in setup],
        "raw_wall_time": {"note": "the same metrics from unscaled wall times; the limit "
                                  "stays in seconds at the reference speed",
                          "verdict_s.tail": raw_tail,
                          **{m: raw[m][0] for m in ("verdict_s.p50", "verdict_s.tail",
                                                   "verdicts_per_s", "setup_s")}},
        "not_decided": _not_decided(samples),
        "samples": [[inp.id, o, round(input_time(o, calls, limit_s, speed.scale), 4),
                     [round(dt, 4) for _, dt in calls]] for inp, o, calls in samples],
    }
    return _result(samples, wrong, metrics), report


def measure_traced(cli, args, inputs, paths, limit_s, deadline, speed):
    import micro
    import tracer

    trace = tracer.Trace()
    pairs = []  # (untraced pass samples, traced pass samples)

    def pair():
        untraced, _ = run_pass(cli, inputs, paths, limit_s, deadline, speed)
        trace.install()
        try:
            traced, _ = run_pass(cli, inputs, paths, limit_s, deadline, speed, trace)
        finally:
            trace.uninstall()
        pairs.append((untraced, traced))

    def pass_s(samples):
        return sum(speed.scale(*c) for _, _, calls in samples for c in calls)

    _repeat_within(pair, args.seconds, deadline)
    passes = len(pairs)
    all_samples = [s for untraced, traced in pairs for s in untraced + traced]
    untraced_s = [pass_s(u) for u, _ in pairs]
    traced_s = [pass_s(t) for _, t in pairs]
    complete = [_complete(u) and _complete(t) for u, t in pairs]
    layer = trace.layer_metrics(passes, speed.scale)
    absent = dict(trace.absent)
    # Only pairs whose two passes called every input compare like with like.
    if any(complete):
        layer["trace.overhead_frac"] = (
            sum(t for t, c in zip(traced_s, complete) if c)
            / sum(u for u, c in zip(untraced_s, complete) if c) - 1)
    else:
        absent["trace.overhead_frac"] = "no pass pair called every input before the deadline"
    counts = {}
    for run_micro, names in (
        (lambda: micro.numberfield_micro(list(trace.substitutions.values())),
         micro.NUMBERFIELD_METRICS),
        (lambda: micro.inflate_class_micro(trace.classes, trace.control_points),
         ("overlap.inflate_class_us",)),
    ):
        try:
            m, c, a = run_micro()
        except (AttributeError, TypeError) as e:  # the layer's interface changed
            m, c, a = {}, {}, {n: f"{type(e).__name__}: {e}" for n in names}
        layer.update(m)
        counts.update(c)
        absent.update(a)
    wrong = _wrong(all_samples)
    metrics = {m: (v, _unit(m)) for m, v in layer.items()}
    report = {
        "traced_passes": passes,
        "skipped": sorted({inp.id for inp, o, _ in all_samples if o == SKIPPED}),
        "wrong_verdicts": {"value": wrong, "unit": "count"},
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": len(trace.spans),
        "absent": absent,
        "operation_counts": counts,
        "not_decided": _not_decided(all_samples),
        "self_s_by_input": trace.self_times_by_input(speed.scale),
    }
    return _result(all_samples, wrong, metrics), report


def _unit(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ns", "ns"), ("_frac", "fraction"),
                         ("_yield", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _result(samples, wrong, metrics) -> dict:
    failed = sum(1 for _, o, _ in samples if o not in ("decided", "timeout", SKIPPED))
    return {
        "correct": wrong == 0,
        "attempted": sum(len(calls) for _, _, calls in samples),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
