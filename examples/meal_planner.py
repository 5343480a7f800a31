"""Meal planner — the paper's demo application, end to end.

Walks the full PackageBuilder workflow headlessly:

1. parse + natural-language description of the query (Figure 1's
   "natural language descriptions" panel);
2. evaluation through the DBMS: the table lives in sqlite and WHERE is
   pushed down, with every batch rechecked by the engine's kernels;
3. alternative packages via no-good-cut enumeration, with a diverse
   subset (Section 5's "diverse package results");
4. constraint suggestions from a highlighted column (Section 3.1).

Run:  python examples/meal_planner.py
"""

from repro import EngineOptions, PackageQueryEvaluator
from repro.core import enumerate_top, diverse_subset, suggest_for_column
from repro.core.validator import objective_value
from repro.datasets import MEAL_PLANNER_QUERY, generate_recipes
from repro.paql import describe_text, parse
from repro.relational.sql_relation import SqlRelation


def show_package(package, objective=None):
    for row in package.rows():
        print(
            f"  - {row['name']:<30} {row['calories']:>7.1f} kcal"
            f" {row['protein']:>6.1f} g protein"
        )
    if objective is not None:
        print(f"    -> total protein {objective:.1f} g")


def main():
    recipes = generate_recipes(400, seed=21)

    print("=== 1. The query, in English ===")
    print(describe_text(parse(MEAL_PLANNER_QUERY)))
    print()

    print("=== 2. Evaluation through the DBMS ===")
    # The table lives in sqlite: WHERE runs there as a prefilter, and
    # every surviving batch is rechecked by the engine's own kernels.
    with SqlRelation.from_relation(recipes) as table:
        evaluator = PackageQueryEvaluator(table)
        result = evaluator.evaluate(
            MEAL_PLANNER_QUERY, EngineOptions(pushdown="always")
        )
        print(
            f"status={result.status.value} strategy={result.strategy} "
            f"where={result.stats['where_path']} "
            f"candidates={result.candidate_count} "
            f"bounds=[{result.bounds.lower}, {result.bounds.upper}] "
            f"({result.elapsed_seconds * 1000:.1f} ms)"
        )
        show_package(result.package, result.objective)
        print()

        print("=== 3. More packages: top-5, then a diverse trio ===")
        # Candidate rids are absolute, so they index the in-memory copy.
        query = evaluator.prepare(MEAL_PLANNER_QUERY)
        candidates = evaluator.candidates(query)
    top = enumerate_top(query, recipes, candidates, 5)
    for rank, package in enumerate(top, start=1):
        value = objective_value(package, query)
        names = ", ".join(row["name"] for row in package.rows())
        print(f"  #{rank} ({value:.1f} g): {names}")
    print("  diverse subset:")
    for package in diverse_subset(top, 3):
        names = ", ".join(row["name"] for row in package.rows())
        print(f"    * {names}")
    print()

    print("=== 4. Suggestions when the user highlights 'fat' ===")
    for suggestion in suggest_for_column(recipes, "fat"):
        print(f"  [{suggestion.kind:<9}] {suggestion.paql}")
        print(f"              ({suggestion.rationale})")


if __name__ == "__main__":
    main()
