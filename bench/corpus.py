"""Seeded inputs of the benchmark workloads.

Every case a run can use comes from a finite pool: each workload is a fixed
list of slots (one stratum of input size or cost each), and each slot has
``POOL`` candidate inputs.  Candidate ``c`` of a slot is built by a generator
seeded with the string ``"<workload>/<slot>/<c>"``, so it is the same bytes
on every machine.  A run's ``--seed`` picks one candidate per slot and the
order of the cases, which keeps the cost of a pass steady from seed to seed
while ``golden.json`` can hold the expected output of every candidate.

This module builds plain data only; it never imports maxplus, so the library
receives nothing but the generated problem text and command lines.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

POOL = 4
NEG = "-inf"
MAX_SLACK = 5
# Share of finite entries in A, L and C; Rtilde gets half of it.
DENSITY = 0.3

WORKLOADS = ("consistency-corpus", "railway-sweep", "schedule-horizon")

RAILWAY_FILE = "samples/railway.json"
RAILWAY_PROBE = "2100"

# (n, consistent slots, perturbed slots) per pass: mostly small systems.
# Perturbed cases stop at closure 0 or 1 and cost about as much as a
# consistent n=4 case, so the median falls inside the 75 cheapest cases
# and the 90th percentile inside the n=12 consistent group.
CONSISTENCY_STRATA = ((4, 50, 12), (8, 8, 7), (12, 14, 4), (16, 3, 2))

# (n, horizon, systems, systems also run through the CLI) per pass.  The
# eight cases above 50 ms come from (6, 20), (8, 20), (12, 10) and (12, 20);
# the 90th percentile then falls among the ten n=8, horizon 10 cases, whose
# cost varies little from system to system.
SCHEDULE_STRATA = (
    (4, 5, 4, 4),
    (4, 10, 4, 4),
    (4, 20, 2, 0),
    (6, 5, 4, 2),
    (6, 10, 3, 0),
    (6, 20, 1, 0),
    (8, 5, 3, 0),
    (8, 10, 5, 0),
    (8, 20, 1, 0),
    (12, 5, 2, 0),
    (12, 10, 1, 0),
    (12, 20, 1, 0),
)

# Railway slots as (name, side, delta range, slots): ell = -14 - delta on the
# consistent side and -14 + delta on the divergent side, where the shrinking
# iteration empties after about 2/delta steps.  Divergent strata are cut
# geometrically, so every slot spans the same ratio of step counts.
RAILWAY_STRATA = (
    ("consistent", -1, (0.01, 6.0), 16),
    ("far", 1, (0.2, 8.0), 12),
    ("mid", 1, (0.02, 0.2), 12),
    ("slow", 1, (0.004, 0.02), 8),
)
# Fixed points: the boundary and the paper's slowest divergence (step 2000).
RAILWAY_FIXED = ("-14", "-13.999")
# Mid slots (10 to 26 steps) whose check prints every closure (--emit-pi)
# or whose invariant run prints every generator (--emit-s).
RAILWAY_EMIT_PI = ("mid-9", "mid-10")
RAILWAY_EMIT_S = ("mid-7", "mid-11")


def _rng(workload: str, slot: str, candidate: int) -> random.Random:
    return random.Random(f"{workload}/{slot}/{candidate}")


def consistent_system(rng: random.Random, n: int):
    """A window system that the 1-periodic schedule ``p_i + k*lam`` satisfies.

    Every finite entry lies 1 to ``MAX_SLACK`` below the largest value that
    schedule allows, so each constraint holds with slack.  Returns the four
    integer grids (``None`` for -inf) and the witness ``(p, lam)``.
    """
    p = [rng.randint(0, 30) for _ in range(n)]
    lam = rng.randint(1, 10)

    def block(shift: int, dens: float):
        return [
            [
                p[i] - p[j] + shift - rng.randint(1, MAX_SLACK)
                if rng.random() < dens
                else None
                for j in range(n)
            ]
            for i in range(n)
        ]

    grids = {
        "A": block(lam, DENSITY),
        "L": block(-lam, DENSITY),
        "C": block(0, DENSITY),
        "Rtilde": block(lam, DENSITY / 2),
    }
    return grids, (p, lam)


def perturb(rng: random.Random, grids, witness):
    """Push one entry past its slack so that a positive circuit appears.

    Index 0: a within-occurrence pair i -> j -> i gets positive weight.
    Index 1: a backward arc i <- j(next occurrence) and a forward arc
    j(next) <- i close a positive circuit across two occurrences, while the
    within block stays satisfiable.  Returns the new grids and the closure
    index at which consistency checking must find divergence.
    """
    p, lam = witness
    n = len(p)
    grids = {key: [row[:] for row in grid] for key, grid in grids.items()}
    i, j = rng.sample(range(n), 2)
    slack = rng.randint(1, MAX_SLACK)
    excess = rng.randint(1, MAX_SLACK)
    index = rng.randint(0, 1)
    if index == 0:
        grids["C"][j][i] = p[j] - p[i] - slack
        grids["C"][i][j] = p[i] - p[j] + slack + excess
    else:
        grids["Rtilde"][j][i] = p[j] - p[i] + lam - slack
        grids["L"][i][j] = p[i] - p[j] - lam + slack + excess
    return grids, index


def problem_text(grids) -> str:
    """The grids as a maxplus problem document (entries as exact strings)."""
    n = len(grids["A"])
    doc = {"n": n}
    for key in ("A", "L", "C", "Rtilde"):
        doc[key] = [[NEG if v is None else str(v) for v in row] for row in grids[key]]
    return json.dumps(doc, indent=1) + "\n"


def railway_slots():
    """Slot names with their ell text (fixed slots) or (side, delta bounds)."""
    slots = [(f"fixed-{k}", ell) for k, ell in enumerate(RAILWAY_FIXED)]
    for name, side, (lo, hi), count in RAILWAY_STRATA:
        for k in range(count):
            if side > 0:
                bounds = (lo * (hi / lo) ** (k / count), lo * (hi / lo) ** ((k + 1) / count))
            else:
                bounds = (lo + (hi - lo) * k / count, lo + (hi - lo) * (k + 1) / count)
            slots.append((f"{name}-{k}", (side, bounds)))
    return slots


def railway_ell(rng: random.Random, spec) -> str:
    """The ell value of one railway slot candidate, as exact text.

    Half the values are decimals with 4 places, half are p/q with q drawn
    from 1001..2999, so both parsing routes and large denominators occur.
    """
    if isinstance(spec, str):
        return spec
    side, (lo, hi) = spec
    # Stay in the middle fifth of the slot, so that a slot's cost moves by
    # only a few percent from candidate to candidate.
    x = lo + (hi - lo) * (0.4 + 0.2 * rng.random())
    q = 10**4 if rng.random() < 0.5 else rng.randint(1001, 2999)
    ell = -14 + side * Fraction(round(x * q), q)
    scaled = ell * 10**4
    if scaled.denominator != 1:
        return str(ell)
    whole, frac = divmod(abs(scaled.numerator), 10**4)
    return f"{'-' if ell < 0 else ''}{whole}.{frac:04d}"


def _railway_cases(slot_key: str, ell: str):
    slot = slot_key.split("/")[0]
    base = ["--param", f"ell={ell}", "--probe-bound", RAILWAY_PROBE, "--format", "json"]
    check = ["check", RAILWAY_FILE] + base + (["--emit-pi"] if slot in RAILWAY_EMIT_PI else [])
    inv = ["invariant", RAILWAY_FILE] + base + (["--emit-s"] if slot in RAILWAY_EMIT_S else [])
    return [
        {"key": f"{slot_key}/check", "op": "cli", "argv": check},
        {"key": f"{slot_key}/invariant", "op": "cli", "argv": inv},
    ]


def _consistency_slots():
    for n, cons, pert in CONSISTENCY_STRATA:
        for k in range(cons):
            yield f"n{n}-cons-{k}", n, False
        for k in range(pert):
            yield f"n{n}-pert-{k}", n, True


def _consistency_candidate(slot: str, n: int, perturbed: bool, c: int):
    rng = _rng("consistency-corpus", slot, c)
    grids, witness = consistent_system(rng, n)
    case = {"key": f"{slot}/{c}/check", "op": "check", "system": f"{slot}/{c}"}
    if perturbed:
        grids, index = perturb(rng, grids, witness)
        case["divergent_at"] = index
    else:
        case["witness"] = witness[0]
    return problem_text(grids), [case]


def _schedule_slots():
    for n, horizon, count, with_cli in SCHEDULE_STRATA:
        for k in range(count):
            yield f"n{n}-h{horizon}-{k}", n, horizon, k < with_cli


def _schedule_candidate(slot: str, n: int, horizon: int, with_cli: bool, c: int):
    grids, _ = consistent_system(_rng("schedule-horizon", slot, c), n)
    sys_key = f"{slot}/{c}"
    cases = [
        {"key": f"{sys_key}/{op}", "op": op, "system": sys_key, "horizon": horizon}
        for op in ("synthesize", "feasibility", "dot")
    ]
    if with_cli:
        h = str(horizon)
        cases.append({"key": f"{sys_key}/cli-trajectory", "op": "cli", "system": sys_key,
                      "argv": ["trajectory", None, "--horizon", h, "--format", "json"]})
        cases.append({"key": f"{sys_key}/cli-graph", "op": "cli", "system": sys_key,
                      "argv": ["graph", None, "--horizon", h]})
    return problem_text(grids), cases


def candidates(workload: str):
    """Every (slot, candidate index, systems, cases) of a workload's pool.

    ``systems`` maps a system key to problem text; cases name the system
    they run on.  A CLI case on a generated system has ``None`` where the
    problem file path goes.
    """
    if workload == "consistency-corpus":
        for slot, n, perturbed in _consistency_slots():
            for c in range(POOL):
                text, cases = _consistency_candidate(slot, n, perturbed, c)
                yield slot, c, {f"{slot}/{c}": text}, cases
    elif workload == "schedule-horizon":
        for slot, n, horizon, with_cli in _schedule_slots():
            for c in range(POOL):
                text, cases = _schedule_candidate(slot, n, horizon, with_cli, c)
                yield slot, c, {f"{slot}/{c}": text}, cases
    elif workload == "railway-sweep":
        for slot, spec in railway_slots():
            for c in range(POOL):
                ell = railway_ell(_rng("railway-sweep", slot, c), spec)
                yield slot, c, {}, _railway_cases(f"{slot}/{c}", ell)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def build_run(workload: str, seed: int) -> dict:
    """The inputs of one run: one candidate per slot, cases in seeded order."""
    pick = random.Random(seed)
    chosen: dict[str, int] = {}
    systems: dict[str, str] = {}
    cases: list[dict] = []
    for slot, c, slot_systems, slot_cases in candidates(workload):
        if slot not in chosen:
            chosen[slot] = pick.randrange(POOL)
        if c == chosen[slot]:
            systems.update(slot_systems)
            cases.extend(slot_cases)
    pick.shuffle(cases)
    return {"workload": workload, "seed": seed, "systems": systems, "cases": cases}


def input_digest(case: dict, systems: dict[str, str]) -> str:
    """Digest of everything a case feeds the library (before file paths)."""
    fed = [case["op"], case.get("argv"), case.get("horizon"), systems.get(case.get("system"))]
    return hashlib.sha256(json.dumps(fed).encode()).hexdigest()[:16]


def materialize(run: dict, workdir, root) -> None:
    """Write the problem file of every CLI case and put its path in argv."""
    for case in run["cases"]:
        argv = case.get("argv")
        if argv is None or None not in argv:
            continue
        path = workdir / (case["system"].replace("/", "_") + ".json")
        if not path.exists():
            path.write_text(run["systems"][case["system"]], encoding="utf-8")
        argv[argv.index(None)] = str(path.relative_to(root))
