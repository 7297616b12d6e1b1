"""Run one workload of the maxplus benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it finds the sources next to this
directory.  The cases of the workload are generated from the seed, checked
against ``golden.json``, and run in fresh single-threaded Python processes
(``worker.py``), one case at a time.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus
from speed import REFERENCE_NS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# Processes that only set up; with the measuring process they give the
# samples whose median is setup_s.
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 160


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with >= p% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def above(values, threshold) -> int:
    return sum(v > threshold for v in values)


def spawn(args: list[str]) -> tuple[dict, float]:
    """Run a worker process; returns its report and its set-up time in s.

    The set-up time is scaled by the reference speed the worker measured
    right after its set-up.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report, (report["ready"] - start) * REFERENCE_NS / report["setup_speed_ns"]


def prepare(workload: str, seed: int, workdir: Path) -> Path:
    """Generate the run's inputs, attach recorded expectations, write them."""
    run = corpus.build_run(workload, seed)
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[workload]
    for case in run["cases"]:
        record = golden.get(case["key"])
        if record is not None and record["input"] == corpus.input_digest(case, run["systems"]):
            case["expect"] = record["expect"]
    corpus.materialize(run, workdir, ROOT)
    path = workdir / "inputs.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    return path


def end_to_end(report: dict, setups: list[float]) -> dict:
    """Latency of a case is the median of its passes, each pass's time
    scaled to the reference speed; percentiles run over the cases.
    Throughput is the cases of a pass over that pass's scaled timed time,
    the median over the passes."""
    passes = report["passes"]
    raw = [ns / 1e6 for ns in report["case_ns"]]
    scaled = [t * REFERENCE_NS / v for t, v in zip(raw, report["case_speed_ns"])]
    count = len(raw) // passes
    ms = [statistics.median(scaled[i::count]) for i in range(count)]
    unscaled = [statistics.median(raw[i::count]) for i in range(count)]

    def per_pass_s(times):
        return statistics.median(sum(times[i : i + count]) / 1000 for i in range(0, len(times), count))

    p90 = percentile(ms, 90)
    print(f"  {count} cases x {passes} passes; set-up sampled {len(setups)} times")
    print(f"  case_ms.p90 has {above(ms, p90)} of {count} cases above it")
    print(f"  unscaled: p50 {percentile(unscaled, 50):.4g} ms, p90 {percentile(unscaled, 90):.4g} ms,"
          f" {count / per_pass_s(raw):.4g} cases/s")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "case_ms.p50": (percentile(ms, 50), "ms"),
        "case_ms.p90": (p90, "ms"),
        "cases_per_s": (count / per_pass_s(scaled), "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(report: dict) -> dict:
    """Per traced pass: every count and time is divided by the pass count."""
    passes = report["passes"]
    layers, counts, maxima = report["layers"], report["counts"], report["maxima"]

    def calls(name):
        return (layers.get(name, [0, 0])[0] / passes, "count")

    def self_ms(name):
        return (layers.get(name, [0, 0])[1] / 1e6 / passes, "ms")

    def count(name, unit="count"):
        return (counts.get(name, 0) / passes, unit)

    def share(part, whole):
        total = counts.get(whole, 0)
        return (counts.get(part, 0) / total if total else 0.0, "share")

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "maxplus").rglob("*.py"))
    )
    return {
        "matrix.matmul.calls": calls("matrix.matmul"),
        "matrix.matmul.self_ms": self_ms("matrix.matmul"),
        "matrix.matmul.ops": count("matrix.matmul.ops", "computed_ops"),
        "matrix.star.calls": calls("matrix.star"),
        "matrix.star.self_ms": self_ms("matrix.star"),
        "matrix.star.ops": count("matrix.star.ops", "computed_ops"),
        "matrix.star.max_n": (maxima.get("matrix.star.max_n", 0), "rows"),
        "matrix.add.self_ms": self_ms("matrix.add"),
        "matrix.compare.calls": calls("matrix.compare"),
        "matrix.compare.self_ms": self_ms("matrix.compare"),
        "matrix.from_blocks.self_ms": self_ms("matrix.from_blocks"),
        "matrix.fraction_share": share("matrix.fraction_entries", "matrix.operand_entries"),
        "pteg.check.calls": calls("pteg.check"),
        "pteg.check.self_ms": self_ms("pteg.check"),
        "pteg.closure_steps": count("pteg.closure_steps"),
        "pteg.wasted_step_share": share("pteg.wasted_steps", "pteg.closure_steps"),
        "pteg.synthesize.self_ms": self_ms("pteg.synthesize"),
        "pteg.validate.self_ms": self_ms("pteg.validate"),
        "precedence.build_block.self_ms": self_ms("precedence.build_block"),
        "precedence.unrolled_n.max": (maxima.get("precedence.unrolled_n.max", 0), "rows"),
        "precedence.weak_feasibility.self_ms": self_ms("precedence.weak_feasibility"),
        "precedence.export_dot.self_ms": self_ms("precedence.export_dot"),
        "invariance.iterate.calls": calls("invariance.iterate"),
        "invariance.iterate.self_ms": self_ms("invariance.iterate"),
        "invariance.generators_assembled": calls("invariance.assemble"),
        "invariance.generators_retained": (
            maxima.get("invariance.generators_retained", 0), "count"),
        "problems.parse.calls": calls("problems.parse"),
        "problems.parse.self_ms": self_ms("problems.parse"),
        "problems.instantiate.self_ms": self_ms("problems.instantiate"),
        "semiring.parse.calls": calls("semiring.parse"),
        "semiring.format.calls": calls("semiring.format"),
        "semiring.format.self_ms": self_ms("semiring.format"),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.output_bytes": (report["cli_output_bytes"] / passes, "bytes"),
        "trace.overhead_frac": (report["overhead_frac"], "share"),
        "src.lines": (src_lines, "lines"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/maxplus/__init__.py", corpus.RAILWAY_FILE) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a maxplus checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        inputs = str(prepare(args.workload, args.seed, workdir))
        seconds = str(args.seconds)
        print(f"{args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            report, _ = spawn([inputs, "trace", seconds, str(trace_file)])
            metrics = per_layer(report)
            print(f"  {report['passes']} traced passes; spans in {trace_file.relative_to(ROOT)}")
        else:
            setups = [spawn([inputs, "setup", "0"])[1] for _ in range(SETUP_PROBES)]
            report, setup = spawn([inputs, "measure", seconds])
            metrics = end_to_end(report, setups + [setup])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = report["failures"]
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    attempted = report["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':36} {len(failures) / attempted:>14.6g} ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
