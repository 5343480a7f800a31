"""The ``sql`` strategy: the paper's generate-and-validate SQL option.

The demo paper's option (i): enumerate candidate packages with plain
SQL statements and validate them in the database.  Exact, but the
generated SQL joins grow with package cardinality, so it is only
sensible on small pruned spaces — which is why it is dispatch-only:
``evaluate(strategy="sql")`` runs it, ``auto`` never picks it.

Each run loads the relation into a private in-memory sqlite database.
The engine has already decided WHERE, so the statements restrict each
join alias to the kept candidate rids instead of re-deciding it.
"""

from __future__ import annotations

from repro.core.result import EvaluationResult, ResultStatus
from repro.core.strategies.base import Strategy, StrategyEstimate


class SQLStrategy(Strategy):
    name = "sql"
    exact = True
    auto_eligible = False
    summary = (
        "generate-and-validate SQL against the sqlite backend; exact "
        "and database-resident, but joins grow with cardinality "
        "(explicit dispatch only, never chosen by auto)"
    )

    def applicable(self, query, ctx):
        return query.repeat == 1

    def estimate(self, ctx):
        return StrategyEstimate(
            eligible=False,
            tier=4,
            cost=float("inf"),
            reason="sql is explicit-dispatch only (never chosen by auto)",
        )

    def run(self, ctx):
        from repro.core.sql_generate import sql_find_best
        from repro.relational.sqlite_backend import Database

        with Database() as db:
            db.load_relation(ctx.relation)
            package = sql_find_best(
                db,
                ctx.query,
                ctx.relation,
                ctx.candidate_rids,
                ctx.bounds,
                columns=ctx.columns,
            )
        # ``is not None``: the empty package is falsy but may be optimal.
        status = (
            ResultStatus.OPTIMAL
            if package is not None
            else ResultStatus.INFEASIBLE
        )
        return EvaluationResult(
            package=package,
            status=status,
            strategy=self.name,
            query=ctx.query,
            stats={"bounds": [ctx.bounds.lower, ctx.bounds.upper]},
        )
