"""Benchmark of starcheck: time to a certified verdict, and how often one
is reached.

    python3 perfbench/run.py --workload squares|term-search|calculus \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; starcheck is imported from
``src/``.  A run makes passes over the workload's inputs (every input
once) for about ``--seconds``, and at least two.  Every verdict is checked against an answer that does not come from
starcheck (see oracle.py).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("squares", "term-search", "calculus")
# An input still running at the limit is stopped and counts as undecided,
# at the limit's cost.  Each limit is well above the slowest input of its
# workload that finishes today.
TIME_LIMIT_S = {"squares": 90.0, "term-search": 6.0, "calculus": 60.0}
SETUP_PROBES = 5
# A cheap input is called again, with cold caches, until this much time is
# spent, and timed by its fastest call: on a shared machine, interference
# only ever adds time.
REPEAT_UNTIL_S = 0.05
STOPPED = "stopped at the time limit"
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


class TimeLimit(BaseException):
    """Raised in the benchmark process when an input reaches its limit."""


@dataclass
class Sample:
    label: str
    seconds: float  # at the reference speed (see calibrate.py)
    decided: bool
    correct: bool
    note: str
    slowdown: float = 1.0  # of the machine around the timed calls


# --- library workloads (squares, term-search) ----------------------------------


def _on_alarm(signum, frame):
    raise TimeLimit


def library_inputs(workload: str, seed: int, sc):
    make = {"squares": workloads.squares_inputs, "term-search": workloads.term_search_inputs}
    return make[workload](seed, sc)


def timed_call(item, limit: float, caches, meter: calibrate.Meter):
    """One call of an input with cold caches: (result, seconds, outcome),
    where outcome is set when the call did not return a result."""
    for cache in caches:
        cache.cache_clear()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result, seconds = meter.timed(item.run)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return result, seconds, None
    except TimeLimit:
        return None, limit, (False, True, STOPPED)
    except Exception as exc:  # a program error: recorded, the run goes on
        return None, time.perf_counter() - start, (False, False, f"raised {exc!r}")


def order(n: int, reverse: bool):
    return range(n - 1, -1, -1) if reverse else range(n)


def library_pass(items, limit: float, caches, stopped: set[int], repeat_until: float,
                 reverse: bool = False, tracer=None) -> list[Sample]:
    """Every input once; a cheap input is called again until repeat_until
    seconds are spent, and timed by its fastest call.  An input stopped at
    the time limit is not run again in later passes of the run (it costs
    the limit once per run)."""
    timed = [None] * len(items)
    for i in order(len(items), reverse):
        if i in stopped:
            timed[i] = (None, limit, 1.0, (False, True, STOPPED))
            continue
        if tracer is not None:
            tracer.current_input = i
        calls = []
        with calibrate.Meter() as meter:
            while True:
                result, seconds, outcome = timed_call(items[i], limit, caches, meter)
                calls.append(seconds)
                if outcome or sum(calls) >= repeat_until:
                    break
        if outcome and outcome[2] == STOPPED:
            stopped.add(i)
            timed[i] = (None, limit, 1.0, outcome)
            continue
        slow = meter.slowdown()
        timed[i] = (result, min(calls) / slow, slow, outcome)
    samples = []
    for item, (result, seconds, slow, outcome) in zip(items, timed):
        decided, correct, note = outcome or item.check(result)
        samples.append(Sample(item.label, seconds, decided, correct, note, slow))
    return samples


def setup_time(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time until starcheck is
    imported and the inputs are generated, at the reference speed."""
    times = []
    for _ in range(SETUP_PROBES):
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append((probe["ready"] - spawn) / probe["slowdown"])
    return statistics.median(times)


def run_library(workload: str, seed: int, seconds: float, trace: bool, trace_dir: Path):
    sys.path.insert(0, str(SRC))
    import starcheck as sc

    signal.signal(signal.SIGALRM, _on_alarm)
    limit = TIME_LIMIT_S[workload]
    caches = spans.starcheck_caches()
    items = library_inputs(workload, seed, sc)
    if not trace:
        setup_s = setup_time(workload, seed)
        stopped: set[int] = set()
        passes = repeat(
            lambda reverse: library_pass(items, limit, caches, stopped, REPEAT_UNTIL_S, reverse),
            seconds,
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return passes, {"setup_s": setup_s, "peak_rss_mb": rss_mb}, None

    # Both passes call every input exactly once, so the traced work counts
    # do not depend on the machine's speed and the overhead compares like
    # with like.
    untraced = library_pass(items, limit, caches, set(), 0)
    tracer = spans.Tracer(TimeLimit)
    tracer.install()
    traced_items = library_inputs(workload, seed, sc)  # binds the wrapped functions
    traced = library_pass(traced_items, limit, caches, set(), 0, tracer=tracer)
    layers = tracer.summarize()
    tracer.dump(trace_dir / "proc-0.spans")
    return [untraced, traced], None, layers


# --- calculus: one fresh interpreter per CLI command ----------------------------


def run_cli(cmd, trace: bool, spans_path: str, repeat_until: float):
    """One command in a fresh interpreter: (sample, set-up seconds or None,
    per-layer summary or None)."""
    limit = TIME_LIMIT_S["calculus"]
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "cli", str(int(trace)), spans_path,
         str(repeat_until), *cmd.argv],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(cmd.label, limit, False, True, STOPPED), None, None
    header, _, report = out.partition("\n")
    if proc.returncode != 0 or not header.startswith("{"):
        note = f"child exited {proc.returncode}: {err.strip()[-300:]}"
        return Sample(cmd.label, limit, False, False, note), None, None
    meta = json.loads(header)
    decided, correct, note = cmd.check(report, meta["code"])
    correct = correct and meta["code"] != 2
    slow = meta["slowdown"]
    sample = Sample(cmd.label, meta["main_s"] / slow, decided, correct, note, slow)
    return sample, (meta["ready"] - spawn) / slow, meta.get("layers")


def cli_pass(commands, repeat_until: float, reverse: bool = False, trace_dir: Path | None = None):
    """Every command once; traced when trace_dir is given."""
    results = [None] * len(commands)
    for i in order(len(commands), reverse):
        spans_path = str(trace_dir / f"proc-{i}.spans") if trace_dir else "-"
        results[i] = run_cli(commands[i], trace_dir is not None, spans_path, repeat_until)
    samples = [sample for sample, _, _ in results]
    setups = [setup for _, setup, _ in results if setup is not None]
    summaries = [summary for _, _, summary in results if summary is not None]
    return samples, setups, summaries


def run_calculus(seed: int, seconds: float, trace: bool, trace_dir: Path):
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="calculus-", dir=WORK))
    try:
        commands = workloads.calculus_commands(seed, ROOT, workdir)
        if not trace:
            setups: list[float] = []

            def one_pass(reverse: bool):
                samples, times, _ = cli_pass(commands, REPEAT_UNTIL_S, reverse)
                setups.extend(times)
                return samples

            passes = repeat(one_pass, seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            return passes, {"setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}, None
        untraced, _, _ = cli_pass(commands, 0)
        traced, _, summaries = cli_pass(commands, 0, trace_dir=trace_dir)
        return [untraced, traced], None, spans.merge(summaries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- measurement and report ------------------------------------------------------


def repeat(one_pass, seconds: float) -> list[list[Sample]]:
    """At least two passes, then more while the next one is expected to end
    no more than half a pass after ``seconds``.  Odd passes run the inputs
    in reverse order, so that the two calls of one input are far apart in
    time and a burst of interference on the machine rarely hits both."""
    passes = []
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(one_pass(reverse=len(passes) % 2 == 1))
        now = time.monotonic()
        if len(passes) >= 2 and now - begin + (now - start) / 2 > seconds:
            return passes


def tail(times: list[float]) -> float:
    ordered = sorted(times)
    return ordered[max(len(ordered) - 1 - TAIL_BEYOND, 0)]


def end_to_end(passes: list[list[Sample]], extra: dict[str, float]) -> dict:
    """Each input is timed by its fastest call in the run; run_s is the sum
    of those times, and the verdict statistics are taken over them."""
    samples = [s for p in passes for s in p]
    per_input = [min(times) for times in zip(*([s.seconds for s in p] for p in passes))]
    values = {
        "setup_s": (extra["setup_s"], "s"),
        "run_s": (sum(per_input), "s"),
        "verdict_p50_s": (statistics.median(per_input), "s"),
        "verdict_tail_s": (tail(per_input), "s"),
        "decided_ratio": (sum(s.decided for s in samples) / len(samples), "ratio"),
        "peak_rss_mb": (extra["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(passes: list[list[Sample]], layers: dict[str, float]) -> dict:
    untraced, traced = (sum(s.seconds for s in p) for p in passes)
    values = dict(layers)
    clone = layers["terms.clone_elements"]
    values["terms.witnesses_per_kelement"] = layers["terms.witnesses"] / clone * 1000 if clone else 0.0
    values["trace.untraced_run_s"] = untraced
    values["trace.traced_run_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["bench.time_limited"] = sum(s.note == STOPPED for s in passes[1])
    out = {}
    for name, value in values.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("per_kelement"):
            unit = "1/kelement"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starcheck" / "__init__.py").is_file():
        print(f"perfbench: no starcheck sources under {SRC}", file=sys.stderr)
        return 2

    trace_dir = WORK / "trace" / args.workload
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    if args.workload == "calculus":
        passes, extra, layers = run_calculus(args.seed, args.seconds, bool(args.trace), trace_dir)
    else:
        passes, extra, layers = run_library(
            args.workload, args.seed, args.seconds, bool(args.trace), trace_dir
        )

    samples = [s for p in passes for s in p]
    failures = [s for s in samples if not s.correct]
    metrics = per_layer(passes, layers) if args.trace else end_to_end(passes, extra)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) "
          f"of {len(passes[0])} inputs, taking "
          + ", ".join(f"{sum(s.seconds for s in p):.3f}" for p in passes) + " s")
    slowdown = statistics.median(s.slowdown for s in samples)
    print(f"  times are at the reference speed; the machine ran {slowdown:.3g}x slower "
          f"than that (median over inputs)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {len(failures) / len(samples):.6g} ({len(failures)}/{len(samples)})")
    if not args.trace:
        print(f"  verdict_tail_s is taken over {len(passes[0])} inputs, "
              f"with {TAIL_BEYOND} beyond it")
    for s in passes[-1]:
        if not s.decided:
            print(f"  undecided: {s.label}: {s.note}")
    for s in failures:
        print(f"  FAILED: {s.label}: {s.note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
