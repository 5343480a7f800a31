"""The 60-query count table: the builtin search's answers, pinned.

Twenty queries from each of the paper's three demo scenarios (meal
planner, vacation planner, portfolio) run cold under
``strategy="auto"`` over the demo relations at workload sizes (300
recipes, 300 flights, 20 stocks; the generators' default seeds).  The
texts were drawn by the scenario generators of ``bench/workloads.py``
with a fresh ``random.Random(1)`` per family, and are stored in
``solver_counts.json`` beside the status, ``repr(objective)`` and
package ``counts`` that commit 8363d1e returned for each.

Every change to the search (pivot rules, branching, pruning, fixing)
must leave this table identical: ties between packages of equal cost
are where a search change shows first, and ``repr`` keeps the last
ulp of the objective.

Print the table at the current commit, with node and iteration totals
per family, with::

    PYTHONPATH=src python3 tests/test_solver_counts.py

and re-capture the golden file from the current commit (run it at the
parent of a search change, then diff the two printouts) with::

    PYTHONPATH=src python3 tests/test_solver_counts.py --write
"""

import json
import pathlib
import sys

import pytest

from repro.core.engine import EngineOptions, PackageQueryEvaluator
from repro.datasets import generate_recipes, generate_stocks, generate_travel_products

GOLDEN = pathlib.Path(__file__).with_name("solver_counts.json")
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


def build_relations():
    return {
        "meal": generate_recipes(300),
        "vacation": generate_travel_products(n_flights=300),
        "portfolio": generate_stocks(20),
    }


def evaluate(relation, text):
    """``(status, repr(objective), counts, nodes, iterations)`` of one query."""
    evaluator = PackageQueryEvaluator(relation)
    try:
        result = evaluator.evaluate(text, EngineOptions(strategy="auto"))
    finally:
        evaluator.close()
    package = result.package
    counts = [] if package is None else [list(pair) for pair in package.counts]
    return (
        result.status.value,
        repr(result.objective),
        counts,
        result.stats.get("nodes", 0),
        result.stats.get("iterations", 0),
    )


@pytest.fixture(scope="module")
def relations():
    return build_relations()


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{case['family']}-{case['index']:02d}" for case in CASES]
)
def test_answer_matches_the_golden_file(relations, case):
    status, objective, counts, _, _ = evaluate(relations[case["family"]], case["text"])
    assert (status, objective, counts) == (
        case["status"],
        case["objective"],
        case["counts"],
    )


def main(argv):
    relations = build_relations()
    totals = {}
    rows = []
    for case in CASES:
        status, objective, counts, nodes, iterations = evaluate(
            relations[case["family"]], case["text"]
        )
        same = (status, objective, counts) == (
            case["status"],
            case["objective"],
            case["counts"],
        )
        print(
            f"{case['family']:<9} {case['index']:>2}  {status:<10} {objective:<22}"
            f" nodes {nodes:>4}  iterations {iterations:>5}"
            f"  {'same' if same else 'DIFFERS'}"
        )
        family = totals.setdefault(case["family"], [0, 0, 0, 0])
        family[0] += nodes
        family[1] += iterations
        family[2] += same
        family[3] += 1
        rows.append(dict(case, status=status, objective=objective, counts=counts))
    print()
    for name, (nodes, iterations, same, queries) in totals.items():
        print(
            f"{name:<9} nodes {nodes:>5}  iterations {iterations:>6}"
            f"  same {same}/{queries}"
        )
    print(
        f"{'total':<9} nodes {sum(t[0] for t in totals.values()):>5}"
        f"  iterations {sum(t[1] for t in totals.values()):>6}"
        f"  same {sum(t[2] for t in totals.values())}/{len(CASES)}"
    )
    if "--write" in argv:
        lines = ",\n".join(json.dumps(row) for row in rows)
        GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
