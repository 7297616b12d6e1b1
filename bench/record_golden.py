"""Record the expected output of every pool candidate into golden.json.

    python3 bench/record_golden.py

The recorded outputs are the reference that every later version of maxplus
must reproduce byte for byte, so run this only on the commit whose outputs
are the reference, or when the benchmark's inputs change.  A candidate is
recorded only if its output also passes the independent checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import cases as bench_cases
import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def record(mp, workload: str, workdir: Path) -> dict:
    golden = {}
    for _, _, systems, slot_cases in corpus.candidates(workload):
        digests = [corpus.input_digest(case, systems) for case in slot_cases]
        run = {"systems": systems, "cases": slot_cases}
        corpus.materialize(run, workdir, ROOT)
        built = bench_cases.build_systems(mp, systems)
        for case, input_digest in zip(slot_cases, digests):
            output = bench_cases.execute(mp, case, built)
            case["expect"] = bench_cases.summarize(case, output)
            error = bench_cases.verify(mp, case, output, built)
            if error is not None:
                raise SystemExit(f"{workload} {case['key']}: {error}")
            golden[case["key"]] = {"input": input_digest, "expect": case["expect"]}
    return golden


def main() -> int:
    mp = bench_cases.import_maxplus()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=out))
    try:
        golden = {w: record(mp, w, workdir) for w in corpus.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    blocks = []
    for workload, records in golden.items():
        lines = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in sorted(records.items())
        )
        blocks.append(f"{json.dumps(workload)}: {{\n{lines}\n}}")
    text = "{\n" + ",\n".join(blocks) + "\n}\n"
    (BENCH / "golden.json").write_text(text, encoding="utf-8")
    print(f"recorded {sum(len(g) for g in golden.values())} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
