"""Running one benchmark case against maxplus, and checking its output.

``execute`` is the timed part: exactly the library or CLI call a user would
make.  ``summarize`` reduces an output to the small record kept in
``golden.json``; ``verify`` compares it with that record and applies the
independent checks (construction witnesses, trajectory validation, finite
feasibility cross-checks).  Both run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_maxplus():
    """Import the maxplus sources of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import maxplus
    import maxplus.cli

    if Path(maxplus.__file__).resolve().parent != src / "maxplus":
        raise ImportError(f"maxplus was imported from {maxplus.__file__}, not {src}")
    return maxplus


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _scalar_text(v) -> str:
    # Independent of maxplus.format_scalar, so a formatting change shows up
    # only in CLI bytes.
    if v == float("inf"):
        return "+inf"
    if v == float("-inf"):
        return "-inf"
    return str(v)


def rows_digest(rows) -> str:
    return digest(";".join(" ".join(_scalar_text(v) for v in row) for row in rows))


def build_systems(mp, systems: dict[str, str]) -> dict:
    """Parse and instantiate every generated problem text."""
    return {key: mp.parse_problem(text).instantiate() for key, text in systems.items()}


def execute(mp, case: dict, systems: dict):
    op = case["op"]
    if op == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mp.cli.main(case["argv"])
        return code, out.getvalue(), err.getvalue()
    system = systems[case["system"]]
    if op == "check":
        return mp.check_consistency(system)
    if op == "synthesize":
        trajectory = mp.synthesize_trajectory(system, case["horizon"])
        return trajectory, mp.validate_trajectory(system, trajectory)
    if op == "feasibility":
        return mp.finite_weak_feasibility(system.block_spec(), case["horizon"])
    if op == "dot":
        return mp.export_dot(system.block_spec(), case["horizon"])
    raise ValueError(f"unknown case op {op!r}")


def summarize(case: dict, output) -> dict:
    op = case["op"]
    if op == "cli":
        code, out, err = output
        return {"exit": code, "stdout": digest(out), "stderr": digest(err)}
    if op == "check":
        closure = output.fixed_closure
        return {
            "verdict": output.kind.value,
            "first_divergent": output.first_divergent,
            "verified_up_to": output.verified_up_to,
            "closure": None if closure is None else rows_digest(closure.to_rows()),
        }
    if op == "synthesize":
        trajectory, _ = output
        return {"states": rows_digest(trajectory.states)}
    if op == "feasibility":
        return {"feasible": output}
    if op == "dot":
        return {"dot": digest(output)}
    raise ValueError(f"unknown case op {op!r}")


def _check_verdict(mp, case: dict, verdict, system) -> str | None:
    kind = verdict.kind
    if "witness" in case:
        if kind is not mp.ConsistencyKind.CONSISTENT:
            return f"consistent by construction, got {kind.value}"
        p = mp.TropicalMatrix.column(case["witness"])
        if not verdict.fixed_closure @ p <= p:
            return "the construction schedule violates the fixed closure"
        return None
    index = verdict.first_divergent
    if kind is not mp.ConsistencyKind.NOT_WEAKLY_CONSISTENT or index != case["divergent_at"]:
        return f"expected NotWeaklyConsistent at {case['divergent_at']}, got {kind.value} at {index}"
    # closure k covers k+1 occurrences: that horizon must be infeasible,
    # and the one before it feasible.
    spec = system.block_spec()
    if mp.finite_weak_feasibility(spec, index + 1):
        return f"horizon {index + 1} is feasible, yet closure {index} diverged"
    if index > 0 and not mp.finite_weak_feasibility(spec, index):
        return f"horizon {index} is infeasible, yet closure {index - 1} stayed finite"
    return None


def verify(mp, case: dict, output, systems: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    summary = summarize(case, output)
    expect = case.get("expect")
    if expect is None:
        return "no expected value recorded for this input"
    if summary != expect:
        return f"output {summary} differs from recorded {expect}"
    op = case["op"]
    if op == "check":
        return _check_verdict(mp, case, output, systems[case["system"]])
    if op == "synthesize":
        trajectory, valid = output
        if not valid or trajectory.horizon != case["horizon"]:
            return "synthesized trajectory failed validation"
    if op == "feasibility" and not output:
        return "a consistent system is infeasible over a finite horizon"
    return None
