"""Human-readable package reports: why is this package (in)valid?

The PackageBuilder interface shows users how their current package
relates to each constraint ("selecting a constraint shows the rows and
columns affected" — Figure 1).  This module computes that feedback
headlessly: per-constraint actual-versus-required values, which tuples
break the base constraints, and a one-line verdict — used by the CLI's
``--explain`` output, the examples, and anywhere a strategy's result
needs to be narrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.paql import ast
from repro.paql.describe import _condition_sentence
from repro.paql.eval import eval_expr
from repro.paql.printer import print_expr
from repro.core.formula import conjunctive_leaves, normalize_formula
from repro.core.validator import holds, validate


@dataclass
class ConstraintReport:
    """One global-constraint conjunct's status for a package.

    Attributes:
        paql: the conjunct as PaQL text.
        sentence: the conjunct in English.
        satisfied: whether the package meets it, by the validator's
            tolerant rule.
        actual: the measured aggregate-side value (None when the
            conjunct is not a simple comparison or is NULL-valued).
    """

    paql: str
    sentence: str
    satisfied: bool
    actual: float | None = None


@dataclass
class PackageReport:
    """Full narrated validation of one package against one query.

    Attributes:
        valid: the overall verdict (:func:`~repro.core.validator.validate`'s).
        cardinality: the package's COUNT(*).
        objective: objective value (None without an objective clause).
        base_violations: ``(rid, row)`` pairs failing the WHERE clause.
        repeat_violations: rids exceeding the REPEAT cap.
        constraints: per-conjunct :class:`ConstraintReport` list; when
            the formula's top level is a disjunction it is reported as
            a single entry.
    """

    valid: bool
    cardinality: int
    objective: float | None
    base_violations: list = field(default_factory=list)
    repeat_violations: list = field(default_factory=list)
    constraints: list = field(default_factory=list)

    def lines(self):
        """Render the report as printable text lines."""
        out = []
        verdict = "VALID" if self.valid else "INVALID"
        summary = f"package of {self.cardinality} tuple(s): {verdict}"
        if self.objective is not None:
            summary += f" (objective {self.objective:g})"
        out.append(summary)
        for rid, row in self.base_violations:
            label = _row_label(row)
            out.append(f"  base constraint violated by tuple {rid} ({label})")
        for rid in self.repeat_violations:
            out.append(f"  tuple {rid} exceeds the REPEAT multiplicity cap")
        for report in self.constraints:
            mark = "ok " if report.satisfied else "FAIL"
            line = f"  [{mark}] {report.paql}"
            if report.actual is not None:
                line += f"  (actual: {report.actual:g})"
            out.append(line)
        return out

    def text(self):
        return "\n".join(self.lines())


def _row_label(row):
    for key in ("name", "ticker", "label"):
        if key in row and row[key] is not None:
            return str(row[key])
    first_key = next(iter(row))
    return f"{first_key}={row[first_key]}"


def _leaf_actual(leaf, package):
    """The measured left-hand value of a simple comparison leaf."""
    if not isinstance(leaf, ast.Comparison):
        return None
    # Prefer the side that carries aggregates; report its value.
    side = leaf.left if ast.contains_aggregate(leaf.left) else leaf.right
    value = eval_expr(side, None, package.aggregate)
    return None if value is None else float(value)


def explain(package, query):
    """Build a :class:`PackageReport` for ``package`` under ``query``.

    The query must be analyzed (unqualified references).  The verdict,
    the base and the repeat violations are one
    :func:`~repro.core.validator.validate` call's, so a package the
    engine returns is never explained as invalid.
    """
    verdict = validate(package, query)

    constraints = []
    if query.such_that is not None:
        normalized = normalize_formula(query.such_that)
        for leaf in conjunctive_leaves(normalized):
            constraints.append(
                ConstraintReport(
                    paql=print_expr(leaf),
                    sentence=_condition_sentence(leaf, "the package"),
                    satisfied=holds(leaf, package),
                    actual=_leaf_actual(leaf, package),
                )
            )

    return PackageReport(
        valid=verdict.valid,
        cardinality=package.cardinality,
        objective=verdict.objective,
        base_violations=[
            (rid, package.relation[rid]) for rid in verdict.base_violations
        ],
        repeat_violations=verdict.repeat_violations,
        constraints=constraints,
    )
