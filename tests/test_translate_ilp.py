"""Tests for the PaQL-to-ILP translation.

The central correctness property: for every translatable query, the
ILP's optimal package matches pruned brute force — same feasibility
verdict and same optimal objective value.  Exercised across every
encoding: COUNT/SUM linear constraints, AVG multiply-through, MIN/MAX
set encodings, strict comparisons, disjunctions (big-M indicators),
negations, REPEAT multiplicities, and no-good cuts.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ILPTranslationError,
    find_best,
    is_valid,
    translate,
    validate,
)
from repro.core.validator import objective_value
from repro.paql.errors import PaQLError
from repro.paql.printer import print_expr
from repro.paql.semantics import parse_and_analyze
from repro.relational import Column, ColumnType, Relation, Schema
from repro.solver import solve_milp, Status

from tests.paql_strategies import COLUMN_NAMES, aggregate_numeric, global_formulas
from tests.scalar_translate_reference import ScalarTranslator


def value_relation(values, extra=None):
    columns = {"value": ColumnType.FLOAT}
    if extra:
        columns.update({name: ColumnType.FLOAT for name in extra})
    schema = Schema.of(**columns)
    rows = []
    for i, v in enumerate(values):
        row = {"value": None if v is None else float(v)}
        if extra:
            for name, column_values in extra.items():
                cell = column_values[i]
                row[name] = None if cell is None else float(cell)
        rows.append(row)
    return Relation("T", schema, rows)


def solve_text(text, relation, candidates=None):
    query = parse_and_analyze(text, relation.schema)
    candidates = list(range(len(relation))) if candidates is None else candidates
    translation = translate(query, relation, candidates)
    solution = solve_milp(translation.model)
    if not solution.status.has_solution:
        return query, None
    return query, translation.decode(solution)


def assert_matches_brute_force(text, relation):
    """ILP and pruned brute force agree on feasibility and optimum."""
    query = parse_and_analyze(text, relation.schema)
    candidates = list(range(len(relation)))
    translation = translate(query, relation, candidates)
    solution = solve_milp(translation.model)
    exact = find_best(query, relation, candidates)

    if exact is None:
        assert solution.status is Status.INFEASIBLE, (
            f"brute force says infeasible, ILP returned {solution.status}"
        )
        return None
    assert solution.status is Status.OPTIMAL
    package = translation.decode(solution)
    assert is_valid(package, query)
    if query.objective is not None:
        assert objective_value(package, query) == pytest.approx(
            objective_value(exact, query), abs=1e-6
        )
    return package


class TestLinearConstraints:
    def test_count_and_sum(self):
        rel = value_relation([10, 20, 30, 40, 50])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND SUM(T.value) BETWEEN 50 AND 70 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_infeasible_detected(self):
        rel = value_relation([10, 20])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) >= 1000", rel
        )

    def test_arithmetic_between_aggregates(self):
        rel = value_relation([10, 20, 30], extra={"w": [1, 2, 3]})
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "SUM(T.value) - 5 * SUM(T.w) >= 10 AND COUNT(*) >= 1 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_strict_count_comparisons_exact(self):
        rel = value_relation([1, 1, 1, 1])
        package = assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) > 1 AND COUNT(*) < 3 "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        assert package.cardinality == 2

    def test_strict_sum_comparison(self):
        rel = value_relation([10.5, 20.25, 30.75])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT SUM(T.value) > 31 "
            "MINIMIZE SUM(T.value)",
            rel,
        )

    def test_sum_with_nulls_contributes_zero(self):
        rel = value_relation([10, None, 30])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 3 AND SUM(T.value) = 40",
            rel,
        )
        assert package is not None
        assert package.cardinality == 3

    def test_count_expr_skips_nulls(self):
        rel = value_relation([10, None, 30, None])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 3 AND COUNT(T.value) = 1 "
            "MINIMIZE SUM(T.value)",
            rel,
        )
        assert package is not None
        assert validate(package, query).valid


class TestAvgEncoding:
    def test_avg_upper_bound(self):
        rel = value_relation([10, 20, 30, 40])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND AVG(T.value) <= 20 MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_avg_requires_nonempty_support(self):
        # AVG of an empty package is NULL -> no comparison holds; the
        # support constraint must prevent the ILP from returning empty.
        rel = value_relation([10, 20])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T SUCH THAT AVG(T.value) <= 100", rel
        )
        assert package is not None
        assert package.cardinality >= 1

    def test_avg_with_nulls(self):
        rel = value_relation([10, None, 50])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) >= 2 AND AVG(T.value) >= 30 MAXIMIZE COUNT(*)",
            rel,
        )

    def test_avg_against_nonconstant_rejected(self):
        rel = value_relation([10, 20], extra={"w": [1, 2]})
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T SUCH THAT AVG(T.value) <= SUM(T.w)",
            rel.schema,
        )
        with pytest.raises(ILPTranslationError, match="AVG"):
            translate(query, rel, [0, 1])


class TestMinMaxEncodings:
    @pytest.mark.parametrize(
        "constraint",
        [
            "MIN(T.value) >= 15",
            "MIN(T.value) > 15",
            "MIN(T.value) <= 15",
            "MIN(T.value) < 15",
            "MIN(T.value) = 20",
            "MAX(T.value) <= 35",
            "MAX(T.value) < 35",
            "MAX(T.value) >= 35",
            "MAX(T.value) > 35",
            "MAX(T.value) = 30",
            "MIN(T.value) <> 20",
            "NOT MIN(T.value) >= 15",
        ],
    )
    def test_minmax_operator_matrix(self, constraint):
        rel = value_relation([10, 15, 20, 30, 35, 40])
        assert_matches_brute_force(
            f"SELECT PACKAGE(T) FROM T SUCH THAT "
            f"COUNT(*) BETWEEN 1 AND 3 AND {constraint} "
            f"MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_minmax_threshold_on_boundary_value(self):
        rel = value_relation([10, 20, 20, 30])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND MIN(T.value) = 20 MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_minmax_with_nulls_ignored(self):
        rel = value_relation([10, None, 30])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) >= 1 AND MIN(T.value) >= 20 MAXIMIZE COUNT(*)",
            rel,
        )

    def test_negated_coefficient_flips_operator(self):
        rel = value_relation([10, 20, 30])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND -MIN(T.value) <= -15 MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_minmax_against_aggregate_rejected(self):
        rel = value_relation([10, 20])
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T SUCH THAT MIN(T.value) <= COUNT(*)",
            rel.schema,
        )
        with pytest.raises(ILPTranslationError, match="MIN/MAX"):
            translate(query, rel, [0, 1])

    def test_minmax_objective_rejected(self):
        rel = value_relation([10, 20])
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T MAXIMIZE MIN(T.value)", rel.schema
        )
        with pytest.raises(ILPTranslationError, match="objectives"):
            translate(query, rel, [0, 1])

    def test_same_support_witness_emitted_once(self):
        # MIN(e) >= c and MAX(e') <= c with differently-spelled but
        # same-support arguments used to emit the identical non-NULL
        # witness row twice; dedup is on row content, not AST spelling.
        rel = value_relation([10, 20, 30, None])
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "MIN(T.value + 0) >= 15 AND MAX(0 + T.value) <= 35",
            rel.schema,
        )
        translation = translate(query, rel, [0, 1, 2, 3])
        witness_rows = [
            frozenset(constraint.coeffs)
            for constraint in translation.model.constraints
            if constraint.sense.value == ">=" and constraint.rhs == 1.0
        ]
        assert len(witness_rows) == len(set(witness_rows)) == 1

    def test_forced_ones_become_lower_bounds(self):
        rel = value_relation([10, 20, 30])
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) <= 2 "
            "MAXIMIZE SUM(T.value)",
            rel.schema,
        )
        translation = translate(query, rel, [0, 1, 2], forced_ones={1})
        lowers = translation.model.lower[translation.x_vars]
        assert lowers.tolist() == [0.0, 1.0, 0.0]
        solution = solve_milp(translation.model)
        assert solution.status is Status.OPTIMAL
        assert translation.decode(solution).multiplicity(1) == 1


class TestBooleanStructure:
    def test_top_level_disjunction(self):
        rel = value_relation([10, 20, 30, 40])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "(COUNT(*) = 1 AND SUM(T.value) >= 40) OR "
            "(COUNT(*) = 3 AND SUM(T.value) <= 60) "
            "MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_nested_or_inside_and(self):
        rel = value_relation([5, 10, 15, 20, 25])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND (SUM(T.value) <= 16 OR SUM(T.value) >= 44) "
            "MINIMIZE SUM(T.value)",
            rel,
        )

    def test_or_of_or(self):
        rel = value_relation([1, 2, 3, 4])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 1 OR (COUNT(*) = 2 OR COUNT(*) = 4) "
            "MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_not_over_conjunction(self):
        rel = value_relation([10, 20, 30])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) BETWEEN 1 AND 2 AND "
            "NOT (SUM(T.value) >= 30 AND SUM(T.value) <= 40) "
            "MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_in_list_over_count(self):
        rel = value_relation([1, 2, 3, 4, 5])
        package = assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) IN (1, 4) "
            "MAXIMIZE SUM(T.value)",
            rel,
        )
        assert package.cardinality == 4

    def test_or_with_minmax_branch(self):
        rel = value_relation([10, 20, 300, 400])
        assert_matches_brute_force(
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "COUNT(*) = 2 AND (MAX(T.value) <= 25 OR SUM(T.value) >= 700) "
            "MAXIMIZE SUM(T.value)",
            rel,
        )

    def test_false_literal_infeasible(self):
        rel = value_relation([1])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T SUCH THAT FALSE", rel
        )
        assert package is None

    def test_true_literal_trivial(self):
        rel = value_relation([1])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T SUCH THAT TRUE", rel
        )
        assert package is not None  # the empty package satisfies TRUE


class TestRepeat:
    def test_repeat_allows_multiplicity(self):
        rel = value_relation([10])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T REPEAT 3 SUCH THAT SUM(T.value) = 30",
            rel,
        )
        assert package is not None
        assert package.multiplicity(0) == 3

    def test_repeat_cap_respected(self):
        rel = value_relation([10])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT SUM(T.value) = 30",
            rel,
        )
        assert package is None

    def test_repeat_objective(self):
        rel = value_relation([10, 25])
        query, package = solve_text(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT "
            "SUM(T.value) <= 60 MAXIMIZE SUM(T.value)",
            rel,
        )
        assert objective_value(package, query) == pytest.approx(60)


class TestNoGoodCuts:
    def test_exclusion_binary(self):
        rel = value_relation([10, 20, 30])
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE SUM(T.value)",
            rel.schema,
        )
        translation = translate(query, rel, [0, 1, 2])
        first = translation.decode(solve_milp(translation.model))
        translation.exclude_package(first)
        second = translation.decode(solve_milp(translation.model))
        assert first != second
        assert is_valid(second, query)
        assert objective_value(second, query) <= objective_value(first, query)

    def test_exclusion_with_repeat(self):
        rel = value_relation([10, 20])
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT "
            "SUM(T.value) >= 30 MINIMIZE SUM(T.value)",
            rel.schema,
        )
        translation = translate(query, rel, [0, 1])
        first = translation.decode(solve_milp(translation.model))
        translation.exclude_package(first)
        solution = solve_milp(translation.model)
        assert solution.status.has_solution
        second = translation.decode(solution)
        assert second != first
        assert is_valid(second, query)


class TestEveryColumnIsBoxed:
    """Every column the translator emits has a finite upper bound.

    So the dual simplex starts every package query's root LP from a
    dual feasible slack basis; only hand-built LPs with a column the
    cost pulls toward ``+inf`` take its dual phase 1.
    """

    @pytest.mark.parametrize(
        "text",
        [
            # REPEAT 1: one binary per candidate.
            "SELECT PACKAGE(T) FROM T SUCH THAT COUNT(*) = 2 "
            "MAXIMIZE SUM(T.value)",
            # REPEAT > 1: general integers.
            "SELECT PACKAGE(T) FROM T REPEAT 3 SUCH THAT "
            "SUM(T.value) <= 70 MAXIMIZE SUM(T.value)",
            # OR: indicator binaries, with an AVG and a MIN/MAX branch.
            "SELECT PACKAGE(T) FROM T SUCH THAT "
            "(COUNT(*) = 1 AND SUM(T.value) >= 40) OR "
            "(COUNT(*) = 3 AND AVG(T.value) <= 20) OR "
            "(COUNT(*) = 2 AND MAX(T.value) <= 25) MAXIMIZE SUM(T.value)",
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT "
            "SUM(T.value) <= 30 OR COUNT(*) >= 5 MINIMIZE SUM(T.value)",
        ],
    )
    def test_translated_and_no_good_columns_are_boxed(self, text):
        rel = value_relation([10, 20, 30, 40])
        query = parse_and_analyze(text, rel.schema)
        translation = translate(query, rel, [0, 1, 2, 3])
        assert np.isfinite(translation.model.upper).all()
        solution = solve_milp(translation.model)
        assert solution.status is Status.OPTIMAL
        # The no-good cut's deviation binaries (REPEAT > 1) too.
        translation.exclude_package(translation.decode(solution))
        assert np.isfinite(translation.model.upper).all()


@st.composite
def random_instances(draw):
    n = draw(st.integers(3, 7))
    values = draw(
        st.lists(st.integers(1, 50), min_size=n, max_size=n)
    )
    conjuncts = []
    count_hi = draw(st.integers(1, min(4, n)))
    conjuncts.append(f"COUNT(*) BETWEEN 1 AND {count_hi}")
    sum_op = draw(st.sampled_from(["<=", ">="]))
    sum_rhs = draw(st.integers(5, 120))
    conjuncts.append(f"SUM(T.value) {sum_op} {sum_rhs}")
    if draw(st.booleans()):
        minmax = draw(st.sampled_from(["MIN", "MAX"]))
        op = draw(st.sampled_from(["<=", ">="]))
        threshold = draw(st.integers(1, 50))
        conjuncts.append(f"{minmax}(T.value) {op} {threshold}")
    direction = draw(st.sampled_from(["MAXIMIZE", "MINIMIZE"]))
    text = (
        "SELECT PACKAGE(T) FROM T SUCH THAT "
        + " AND ".join(conjuncts)
        + f" {direction} SUM(T.value)"
    )
    return values, text


class TestRandomizedEquivalence:
    @given(random_instances())
    @settings(max_examples=60, deadline=None)
    def test_ilp_matches_brute_force(self, instance):
        values, text = instance
        rel = value_relation(values)
        assert_matches_brute_force(text, rel)


# ---------------------------------------------------------------------------
# Array-native translation == the scalar per-row reference
# ---------------------------------------------------------------------------

_MIXED_SCHEMA = Schema(
    [Column(name, ColumnType.INT) for name in COLUMN_NAMES[:2]]
    + [Column(name, ColumnType.FLOAT) for name in COLUMN_NAMES[2:]]
)

# NULLs and exact zeros are over-represented on purpose: they are the
# entries a SUM row drops, a COUNT(e) row keeps or drops, and an
# AVG/MIN/MAX support row is defined by.
_int_cell = st.one_of(st.none(), st.just(0), st.integers(-20, 20))
_float_cell = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@st.composite
def reference_instances(draw):
    """``(relation, query text, forced rids)`` over the shared PaQL
    generators: COUNT(*), COUNT(e), SUM, AVG, MIN/MAX, BETWEEN, IN,
    AND/OR/NOT over NULL- and zero-laden INT and FLOAT columns."""
    rows = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    **{name: _int_cell for name in COLUMN_NAMES[:2]},
                    **{name: _float_cell for name in COLUMN_NAMES[2:]},
                }
            ),
            min_size=1,
            max_size=7,
        )
    )
    relation = Relation("T", _MIXED_SCHEMA, rows)
    repeat = draw(st.sampled_from([1, 1, 3]))
    text = f"SELECT PACKAGE(T) FROM T REPEAT {repeat}"
    text += " SUCH THAT " + print_expr(draw(global_formulas()))
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["MAXIMIZE", "MINIMIZE"]))
        text += f" {direction} " + print_expr(draw(aggregate_numeric()))
    forced = draw(st.sets(st.integers(0, len(rows) - 1), max_size=2))
    return relation, text, forced


class TestMatchesScalarReference:
    """``translate`` builds its rows with mask arithmetic over whole
    columns; the reference evaluates one row and one coefficient at a
    time.  Same model, entry for entry."""

    @given(reference_instances())
    @settings(max_examples=300, deadline=None)
    def test_lp_arrays_equal_the_per_row_reference(self, instance):
        relation, text, forced = instance
        try:
            query = parse_and_analyze(text, relation.schema)
        except PaQLError:
            assume(False)
        rids = list(range(len(relation)))
        try:
            expected = ScalarTranslator(query, relation, rids, forced).translate()
        except ILPTranslationError:
            with pytest.raises(ILPTranslationError):
                translate(query, relation, rids, forced_ones=forced)
            return
        model = translate(query, relation, rids, forced_ones=forced).model
        c, A, senses, b, lower, upper = model.lp_arrays()
        ref_c, ref_A, ref_senses, ref_b, ref_lower, ref_upper = expected.lp_arrays()
        assert senses == ref_senses
        np.testing.assert_array_equal(A, ref_A)
        np.testing.assert_array_equal(b, ref_b)
        np.testing.assert_array_equal(c, ref_c)
        np.testing.assert_array_equal(lower, ref_lower)
        np.testing.assert_array_equal(upper, ref_upper)
        assert model.is_integer.tolist() == expected.is_integer.tolist()
        assert model.objective_sense is expected.objective_sense
        assert model.objective_constant == expected.objective_constant

    def test_reference_covers_every_encoding(self):
        # The property is only as good as its draw: one hand-written
        # query through every aggregate, NULLs, zeros and a nested OR.
        relation = Relation(
            "T",
            _MIXED_SCHEMA,
            [
                dict(calories=0, protein=None, fat=1.5, price=0.0, rating=None),
                dict(calories=3, protein=2, fat=None, price=4.25, rating=2.0),
                dict(calories=None, protein=0, fat=-2.0, price=9.0, rating=5.0),
                dict(calories=7, protein=5, fat=0.0, price=None, rating=1.0),
            ],
        )
        query = parse_and_analyze(
            "SELECT PACKAGE(T) FROM T REPEAT 2 SUCH THAT "
            "COUNT(*) >= 1 AND COUNT(T.protein) <= 3 AND "
            "(AVG(T.fat) < 1 OR (MIN(T.price) >= 1 AND MAX(T.rating) = 5)) AND "
            "SUM(T.calories) - SUM(T.price) > -4.5 "
            "MAXIMIZE SUM(T.fat) + COUNT(T.calories)",
            relation.schema,
        )
        rids = [0, 1, 2, 3]
        model = translate(query, relation, rids, forced_ones={2}).model
        expected = ScalarTranslator(query, relation, rids, {2}).translate()
        assert model.num_constraints == expected.num_constraints >= 8
        for mine, theirs in zip(model.lp_arrays(), expected.lp_arrays()):
            assert np.array_equal(mine, theirs)


# ---------------------------------------------------------------------------
# The solver's walk is pinned: arrays changed how the model is stored,
# not what the LP sees
# ---------------------------------------------------------------------------

#: ``(query, variables, nodes, simplex iterations, package)`` on
#: ``clustered_relation(2000, seed=11)`` with ``strategy="ilp",
#: shards=8`` and the builtin solver.  Variables and packages are as
#: commit 943e808 (dict-of-Variable models, scalar presolve and
#: rounding) produced them.  The multi-node walks were re-pinned when
#: children began to re-solve by dual simplex from their parent's
#: basis and nodes began to fix variables by reduced cost
#: (non-selective 3 nodes / 64 iterations → 3 / 25, disjunction
#: 19 / 7004 → 31 / 485).  Every walk's iterations were re-pinned, with
#: the same variables, nodes and packages, when the cold two-phase
#: primal gave way to the dual simplex with bound flips from the slack
#: basis at the root (band 18 → 4, disjunction 485 → 81, max-fixing
#: 17 → 2, non-selective 25 → 9).  Identical ``c, A, b, lower, upper``
#: give identical pivots; a drift here means a coefficient, a bound or
#: a tie-break moved.
PINNED_WALKS = {
    "max-fixing": (
        "SELECT PACKAGE(R) FROM Readings R "
        "SUCH THAT COUNT(*) <= 10 AND MAX(R.ts) <= 25.5 MAXIMIZE SUM(R.gain)",
        510, 1, 2,
        ((54, 1), (92, 1), (127, 1), (219, 1), (289, 1), (301, 1), (309, 1),
         (325, 1), (334, 1), (407, 1)),
    ),
    "band": (
        "SELECT PACKAGE(R) FROM Readings R "
        "WHERE R.ts BETWEEN 40.5 AND 47.25 AND R.cost + R.weight <= 70 "
        "SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 150 MAXIMIZE SUM(R.gain)",
        31, 1, 4,
        ((818, 1), (840, 1), (855, 1), (860, 1), (899, 1)),
    ),
    "non-selective": (
        "SELECT PACKAGE(R) FROM Readings R "
        "WHERE R.cost + R.weight <= 60.5 AND R.gain >= 20 "
        "SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 150 MAXIMIZE SUM(R.gain)",
        286, 3, 9,
        ((92, 1), (573, 1), (1111, 1), (1134, 1), (1917, 1)),
    ),
    "disjunction": (
        "SELECT PACKAGE(R) FROM Readings R WHERE R.gain >= 90 SUCH THAT "
        "(COUNT(*) = 3 AND SUM(R.cost) <= 60) OR "
        "(COUNT(*) = 6 AND AVG(R.weight) <= 30) MAXIMIZE SUM(R.gain)",
        195, 31, 81,
        ((219, 1), (573, 1), (1111, 1), (1134, 1), (1267, 1), (1828, 1)),
    ),
}


class TestPinnedSolverWalk:
    @pytest.fixture(scope="class")
    def readings(self):
        from repro.datasets import clustered_relation

        return clustered_relation(2000, seed=11)

    @pytest.mark.parametrize("family", sorted(PINNED_WALKS))
    def test_nodes_iterations_and_package_match_the_dict_era(
        self, readings, family
    ):
        from repro.core.engine import EngineOptions, PackageQueryEvaluator

        text, variables, nodes, iterations, counts = PINNED_WALKS[family]
        options = EngineOptions(strategy="ilp", shards=8, solver_backend="builtin")
        evaluator = PackageQueryEvaluator(readings)
        try:
            result = evaluator.evaluate(text, options)
        finally:
            evaluator.close()
        walk = (
            result.stats["variables"],
            result.stats["nodes"],
            result.stats["iterations"],
        )
        assert walk == (variables, nodes, iterations)
        assert result.package.counts == counts
