"""One workload process: set up, run whole passes over the cases, report.

    python3 bench/worker.py INPUTS MODE SECONDS [TRACE_FILE]

INPUTS is the JSON written by run.py.  MODE is ``setup`` (set up, report the
moment set-up ended, exit), ``measure`` (untraced passes until SECONDS have
passed) or ``trace`` (pairs of one untraced and one traced pass until
SECONDS have passed; the spans go to TRACE_FILE).  A pass runs every case
once, in order, one at a time; in trace mode it first builds the corpus
systems again, so that set-up work shows in the per-layer figures.  The
report is one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from time import perf_counter_ns

import cases as bench_cases
from speed import reference_ns, speed_sample

# Reference-loop samples on each side of a case within which the median
# gives the local speed for that case.
SPEED_WINDOW = 3


def run_pass(mp, cases, systems, tracer=None):
    """Time every case once.

    Returns the case times in ns, the failure messages, the number of bytes
    the CLI cases printed to stdout, and reference-loop samples taken
    before each case and after the last one.
    """
    times, failures, out_bytes, speeds = [], [], 0, []
    for case in cases:
        speeds.append(speed_sample())
        if tracer is not None:
            tracer.begin_case(case["key"])
        start = perf_counter_ns()
        try:
            output = bench_cases.execute(mp, case, systems)
            error = None
        except Exception as exc:  # a failed case is counted, not fatal
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        end = perf_counter_ns()
        if tracer is not None:
            tracer.end_case()
        times.append(end - start)
        if error is None and case["op"] == "cli":
            out_bytes += len(output[1].encode())
        if error is None:
            error = bench_cases.verify(mp, case, output, systems)
        if error is not None:
            failures.append(f"{case['key']}: {error}")
    speeds.append(speed_sample())
    return times, failures, out_bytes, speeds


def local_speeds(speeds: list[int]) -> list[int]:
    """For case i of a pass, the median reference time around it."""
    out = []
    for i in range(len(speeds) - 1):
        window = sorted(speeds[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 2])
        out.append(window[len(window) // 2])
    return out


def timed_setup(mp, texts, tracer=None) -> int:
    """Build the corpus systems again, as one case named ``setup``."""
    if tracer is not None:
        tracer.begin_case("setup")
    start = perf_counter_ns()
    bench_cases.build_systems(mp, texts)
    end = perf_counter_ns()
    if tracer is not None:
        tracer.end_case()
    return end - start


def main(argv) -> int:
    inputs_path, mode, seconds = argv[0], argv[1], float(argv[2])
    mp = bench_cases.import_maxplus()
    with open(inputs_path, encoding="utf-8") as handle:
        run = json.load(handle)
    systems = bench_cases.build_systems(mp, run["systems"])
    ready = time.monotonic()
    # The speed right after set-up, to scale the set-up time with.
    setup_speed = sorted(reference_ns() for _ in range(31))[15]
    report = {"ready": ready, "setup_speed_ns": setup_speed}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    cases = run["cases"]
    deadline = time.monotonic() + seconds
    times, failures, passes = [], [], 0
    if mode == "measure":
        local = []
        while passes == 0 or time.monotonic() < deadline:
            t, f, _, v = run_pass(mp, cases, systems)
            times += t
            failures += f
            local += local_speeds(v)
            passes += 1
        attempted = len(times)
        report["case_speed_ns"] = local
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Imported here, so that set-up time in the other modes excludes them.
        import gzip
        import statistics

        from tracing import Tracer

        tracer = Tracer()
        untraced = traced = out_bytes = 0
        # Both totals are in units of the pass's median reference time, so
        # that a change of machine speed between the two passes cancels.
        with gzip.open(argv[3], "wt", compresslevel=1) as spans_out:
            while passes == 0 or time.monotonic() < deadline:
                setup = timed_setup(mp, run["systems"])
                t, f, _, v = run_pass(mp, cases, systems)
                untraced += (setup + sum(t)) / statistics.median(v)
                failures += f
                tracer.install(mp)
                try:
                    setup = timed_setup(mp, run["systems"], tracer)
                    t, f, b, v = run_pass(mp, cases, systems, tracer)
                finally:
                    tracer.uninstall()
                tracer.flush(spans_out)
                traced += (setup + sum(t)) / statistics.median(v)
                times += t
                failures += f
                out_bytes += b
                passes += 1
        attempted = 2 * len(times)
        report["layers"] = dict(tracer.totals)
        report["counts"] = dict(tracer.counts)
        report["maxima"] = dict(tracer.maxima)
        report["overhead_frac"] = traced / untraced - 1
        report["cli_output_bytes"] = out_bytes
    report.update(case_ns=times, attempted=attempted, failures=failures, passes=passes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
