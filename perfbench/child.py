"""Fresh-interpreter helpers of the benchmark.

    child.py setup <workload> <seed>
        Import starcheck and generate a library workload's inputs, then print
        {"ready": <monotonic clock>, "slowdown": <machine slowdown>}: the
        set-up a library user pays.

    child.py cli <trace 0|1> <spans file or -> <repeat seconds> <argv ...>
        Run one CLI command through starcheck.cli.main.  Untraced, a cheap
        command is run again with cold caches until <repeat seconds> is
        spent, and the fastest call is reported.  Prints one JSON line
        (ready time, time inside main, machine slowdown around the calls,
        exit code, per-layer summary when traced) followed by the report
        of the first call.
"""

from __future__ import annotations

import io
import json
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import starcheck as sc

    import workloads

    make = {"squares": workloads.squares_inputs, "term-search": workloads.term_search_inputs}
    make[workload](seed, sc)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "slowdown": calibrate.slowdown_now()}))


def cli(trace: bool, spans_path: str, repeat_s: float, argv: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import starcheck.cli

    ready = time.monotonic()
    import spans

    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.current_input = 0
    caches = spans.starcheck_caches()
    calls = []
    first = None
    with calibrate.Meter() as meter:
        while True:
            for cache in caches:
                cache.cache_clear()
            out = io.StringIO()
            code, seconds = meter.timed(lambda: starcheck.cli.main(argv, out=out))
            calls.append(seconds)
            first = first or (code, out.getvalue())
            if sum(calls) >= repeat_s:
                break
    result = {"ready": ready, "main_s": min(calls), "slowdown": meter.slowdown(), "code": first[0]}
    if tracer is not None:
        result["layers"] = tracer.summarize()
        tracer.dump(Path(spans_path))
    sys.stdout.write(json.dumps(result) + "\n" + first[1])


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    else:
        cli(sys.argv[2] == "1", sys.argv[3], float(sys.argv[4]), sys.argv[5:])
