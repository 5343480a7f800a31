"""Answer checking: every operation's output is verified, three ways.

1. **Validator.**  Each returned package is re-validated against its
   query with :func:`repro.core.validator.validate` — the repo's
   ground-truth oracle — and the objective is recomputed from the
   package (done by the workloads, outside the timed region).
2. **Consistency.**  Within a run one question over one relation
   content has one answer: a replay, a served repeat or a restart
   that disagrees with the first answer fails.
3. **Independent optimum.**  Status and objective are compared with an
   independent path — the HiGHS backend (``solver_backend="scipy"``)
   without sharding or reduction, and the ``pushdown="materialize"``
   scan for the out-of-core workload.  For seed 0 that reference is the
   committed ``expected/<workload>.seed0.json`` (written by
   ``run.py --record-expected``, compared to 1e-9 relative); keys the
   file does not hold, and every other seed, are cross-checked live on
   a seeded sample of the distinct questions when scipy imports, and
   are validator-only otherwise.

A mismatch marks every operation that asked that question as failed.
"""

from __future__ import annotations

import json
import random

from harness import BENCH_DIR, log

EXPECTED_DIR = BENCH_DIR / "expected"

#: Relative tolerance for "the same objective".
TOLERANCE = 1e-9

#: HiGHS stops at a relative MIP gap of 1e-4, so a live reference may
#: legitimately sit that far *behind* the program's exact optimum; it
#: may never be ahead of it.
HIGHS_GAP = 1e-4

#: Cycles ``--record-expected`` runs and records; HiGHS needs up to
#: 20 s per large model, so the file covers the first cycles and later
#: ones are cross-checked live.
RECORD_CYCLES = 2

#: Distinct questions cross-checked live per run (per query family the
#: sample is spread evenly); keeps verification to a few seconds.
LIVE_CHECKS = 6


def same(left, right, tolerance=TOLERANCE):
    if left is None or right is None:
        return left is None and right is None
    return abs(left - right) <= tolerance * max(1.0, abs(left), abs(right))


def validate_package(package, query):
    """``(valid, objective)`` from the repo's validator."""
    from repro.core.validator import validate

    if package is None:
        return True, None
    report = validate(package, query)
    return report.valid, report.objective


def scipy_ready():
    from repro.solver.scipy_backend import available

    return available()


def expected_path(workload_name):
    return EXPECTED_DIR / f"{workload_name}.seed0.json"


def load_expected(workload_name):
    path = expected_path(workload_name)
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["entries"]


def write_expected(workload_name, entries):
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    with open(expected_path(workload_name), "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload_name, "seed": 0, "entries": entries},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")


def _against_file(row, entry):
    if row.status != entry["status"]:
        return f"status {row.status!r}, expected {entry['status']!r}"
    if not same(row.objective, entry["objective"]):
        return f"objective {row.objective!r}, expected {entry['objective']!r}"
    return None


def _against_live(row, status, objective, maximize):
    if status == "infeasible" and row.status != "infeasible":
        # The validator already proved the program's package feasible;
        # HiGHS is known to misreport such instances (tests/
        # test_branch_and_bound.py), so its claim carries no weight.
        return None
    if row.status != status:
        return f"status {row.status!r}, HiGHS says {status!r}"
    if row.objective is None or objective is None:
        return None if row.objective is objective else "objective missing"
    scale = max(1.0, abs(row.objective), abs(objective))
    lead = (row.objective - objective) if maximize else (objective - row.objective)
    if lead < -TOLERANCE * scale:
        return f"objective {row.objective!r} is worse than HiGHS {objective!r}"
    if lead > HIGHS_GAP * scale + 1e-6:
        return f"objective {row.objective!r} beats HiGHS {objective!r} beyond its gap"
    return None


def verify(rows, expected, reference, seed, maximize_of):
    """Check ``rows`` (query ops only); return a list of problem strings.

    Args:
        expected: ``{key: {"status", "objective"}}`` from the committed
            file (empty for other seeds and scaled runs).
        reference: ``op -> (status, objective)`` via the independent
            path, or ``None`` when it cannot run here.
        maximize_of: ``op -> bool`` (the query's objective direction).
    """
    problems = []
    by_key = {}
    for row in rows:
        if row.op.kind == "query":
            by_key.setdefault(row.op.key, []).append(row)

    def fail(key, message):
        problems.append(f"{key}: {message}")
        for row in by_key[key]:
            row.fail(message)

    for key, asked in by_key.items():
        first = asked[0]
        for row in asked[1:]:
            if row.status != first.status or not same(row.objective, first.objective):
                fail(key, f"answers differ within the run: {first.objective!r} "
                          f"vs {row.objective!r}")
                break

    unchecked = []
    for key, asked in by_key.items():
        entry = expected.get(key)
        if entry is None:
            unchecked.append(key)
            continue
        message = _against_file(asked[0], entry)
        if message:
            fail(key, message)

    if unchecked and reference is not None:
        rng = random.Random(f"{seed}:live-checks")
        families = {}
        for key in unchecked:
            families.setdefault(by_key[key][0].op.family, []).append(key)
        for keys in families.values():
            rng.shuffle(keys)
        sample = []
        while len(sample) < LIVE_CHECKS and any(families.values()):
            for keys in families.values():
                if keys and len(sample) < LIVE_CHECKS:
                    sample.append(keys.pop())
        for key in sample:
            op = by_key[key][0].op
            status, objective = reference(op)
            message = _against_live(by_key[key][0], status, objective, maximize_of(op))
            if message:
                fail(key, message)
        log(f"oracle: {len(by_key) - len(unchecked)} answers compared with the expected "
            f"file, {len(sample)} of {len(unchecked)} others cross-checked live")
    elif unchecked:
        log(f"oracle: scipy unavailable; {len(unchecked)} answers validator-only")
    return problems


def record(rows, reference):
    """Build the expected-file entries for one recorded run.

    Every distinct question is answered by the independent path and
    must agree with what the program returned; a disagreement aborts
    the recording, because one of the two is wrong.
    """
    entries = {}
    for row in rows:
        if row.op.kind != "query" or row.op.key in entries:
            continue
        status, objective = reference(row.op)
        if status != row.status or not same(objective, row.objective):
            raise SystemExit(
                f"cannot record {row.op.key}: program says {row.status}/"
                f"{row.objective!r}, reference says {status}/{objective!r}"
            )
        entries[row.op.key] = {
            "status": row.status,
            "objective": row.objective,
            "valid": row.ok,
        }
    return entries
