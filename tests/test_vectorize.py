"""Compiled-kernel / row-interpreter agreement (the vectorize oracle).

The vectorized expression compiler promises *exact* agreement with
:mod:`repro.paql.eval` on everything it compiles, including NULL
propagation, three-valued logic, mixed INT/FLOAT/TEXT columns, and
runtime faults (division by zero raises for both).  These properties
drive random predicates and scalar expressions from
:mod:`tests.paql_strategies` over random relations and assert
element-for-element parity — plus that unsupported expressions fall
back cleanly through every layer that consumes the compiler.

To keep exact equality a legitimate property, numeric literals and row
values are drawn so both sides perform the same IEEE-double arithmetic:
floats everywhere (float ops are identical in Python and numpy), and in
the mixed-integer case magnitudes small enough (<= 100, trees of <= 6
leaves) that Python's exact integers stay within float64's 2**53 exact
range.  Outside that regime the compiler's documented float64 semantics
may legitimately round where Python's big ints do not.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paql import ast
from repro.paql.eval import EvaluationError, eval_predicate, eval_scalar
from repro.relational import Column, ColumnType, Relation, Schema
from repro.core.vectorize import (
    UnsupportedExpression,
    VectorEvaluator,
    aggregate_value,
    evaluator_for,
    try_predicate_mask,
    where_positions,
)

from tests.paql_strategies import (
    COLUMN_NAMES,
    TEXT_COLUMN_NAMES,
    predicates,
    scalar_numeric,
)

# ---------------------------------------------------------------------------
# Random relations and literal normalization
# ---------------------------------------------------------------------------

_FLOAT_SCHEMA = Schema(
    [Column(name, ColumnType.FLOAT) for name in COLUMN_NAMES]
    + [Column(name, ColumnType.TEXT) for name in TEXT_COLUMN_NAMES]
)

_MIXED_SCHEMA = Schema(
    [Column(name, ColumnType.INT) for name in COLUMN_NAMES[:2]]
    + [Column(name, ColumnType.FLOAT) for name in COLUMN_NAMES[2:]]
    + [Column(name, ColumnType.TEXT) for name in TEXT_COLUMN_NAMES]
)

_text_values = st.one_of(
    st.none(), st.sampled_from(["", "x", "y", "free", "full"])
)


def _rows(draw_value):
    return st.lists(
        st.fixed_dictionaries(
            {
                **{name: draw_value for name in COLUMN_NAMES},
                **{name: _text_values for name in TEXT_COLUMN_NAMES},
            }
        ),
        min_size=1,
        max_size=8,
    )


_float_value = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
)

_small_int_value = st.one_of(st.none(), st.integers(min_value=-100, max_value=100))


def _float_rows():
    return _rows(_float_value)


def _mixed_rows():
    """INT columns get small ints, FLOAT columns small floats."""
    small_float = st.one_of(
        st.none(),
        st.floats(
            allow_nan=False, allow_infinity=False, min_value=-100, max_value=100
        ),
    )
    return st.lists(
        st.fixed_dictionaries(
            {
                **{name: _small_int_value for name in COLUMN_NAMES[:2]},
                **{name: small_float for name in COLUMN_NAMES[2:]},
                **{name: _text_values for name in TEXT_COLUMN_NAMES},
            }
        ),
        min_size=1,
        max_size=8,
    )


def _map_literals(node, convert):
    """Rebuild ``node`` with every numeric literal passed through ``convert``."""
    if isinstance(node, ast.Literal):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return node
        return ast.Literal(convert(value))
    if isinstance(node, ast.ColumnRef):
        return node
    if isinstance(node, ast.UnaryMinus):
        return ast.UnaryMinus(_map_literals(node.operand, convert))
    if isinstance(node, ast.BinaryOp):
        return ast.BinaryOp(
            node.op,
            _map_literals(node.left, convert),
            _map_literals(node.right, convert),
        )
    if isinstance(node, ast.Comparison):
        return ast.Comparison(
            node.op,
            _map_literals(node.left, convert),
            _map_literals(node.right, convert),
        )
    if isinstance(node, ast.Between):
        return ast.Between(
            _map_literals(node.expr, convert),
            _map_literals(node.low, convert),
            _map_literals(node.high, convert),
            node.negated,
        )
    if isinstance(node, ast.InList):
        return ast.InList(
            _map_literals(node.expr, convert),
            tuple(_map_literals(item, convert) for item in node.items),
            node.negated,
        )
    if isinstance(node, ast.IsNull):
        return ast.IsNull(_map_literals(node.expr, convert), node.negated)
    if isinstance(node, ast.And):
        return ast.And(tuple(_map_literals(arg, convert) for arg in node.args))
    if isinstance(node, ast.Or):
        return ast.Or(tuple(_map_literals(arg, convert) for arg in node.args))
    if isinstance(node, ast.Not):
        return ast.Not(_map_literals(node.arg, convert))
    return node


def _as_float(value):
    return float(value)


def _as_small_int(value):
    return int(max(-100, min(100, round(value))))


def _both_paths(relation, run_rows, run_vector):
    """Run both paths, asserting fault parity; returns (rows, vector)."""
    try:
        expected = run_rows()
        rows_raised = False
    except EvaluationError:
        expected, rows_raised = None, True
    try:
        got = run_vector()
        vector_raised = False
    except EvaluationError:
        got, vector_raised = None, True
    assert rows_raised == vector_raised, (
        f"fault divergence: rows_raised={rows_raised} "
        f"vector_raised={vector_raised}"
    )
    return expected, got


# ---------------------------------------------------------------------------
# Predicate agreement
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(node=predicates(), rows=_float_rows())
def test_predicate_mask_matches_interpreter_on_floats(node, rows):
    node = _map_literals(node, _as_float)
    relation = Relation("r", _FLOAT_SCHEMA, rows)
    evaluator = VectorEvaluator(relation)
    expected, got = _both_paths(
        relation,
        lambda: [eval_predicate(node, row) for row in relation],
        lambda: evaluator.predicate_mask(node).tolist(),
    )
    if expected is not None:
        assert got == expected


@settings(max_examples=200, deadline=None)
@given(node=predicates(), rows=_mixed_rows())
def test_predicate_mask_matches_interpreter_on_mixed_types(node, rows):
    node = _map_literals(node, _as_small_int)
    relation = Relation("r", _MIXED_SCHEMA, rows)
    evaluator = VectorEvaluator(relation)
    expected, got = _both_paths(
        relation,
        lambda: [eval_predicate(node, row) for row in relation],
        lambda: evaluator.predicate_mask(node).tolist(),
    )
    if expected is not None:
        assert got == expected


@settings(max_examples=100, deadline=None)
@given(node=predicates(), rows=_float_rows(), data=st.data())
def test_predicate_mask_row_subsets(node, rows, data):
    """Masks over rid subsets agree with per-row interpretation."""
    node = _map_literals(node, _as_float)
    relation = Relation("r", _FLOAT_SCHEMA, rows)
    rids = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(rows) - 1),
            min_size=0,
            max_size=6,
        )
    )
    evaluator = VectorEvaluator(relation)
    expected, got = _both_paths(
        relation,
        lambda: [eval_predicate(node, relation[rid]) for rid in rids],
        lambda: evaluator.predicate_mask(node, rids).tolist(),
    )
    if expected is not None:
        assert got == expected


# ---------------------------------------------------------------------------
# Scalar agreement
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(node=scalar_numeric(), rows=_float_rows())
def test_scalar_values_match_interpreter(node, rows):
    node = _map_literals(node, _as_float)
    relation = Relation("r", _FLOAT_SCHEMA, rows)
    evaluator = VectorEvaluator(relation)

    def run_vector():
        values, nulls = evaluator.scalar_arrays(node)
        return [
            None if null else value
            for value, null in zip(values.tolist(), nulls.tolist())
        ]

    expected, got = _both_paths(
        relation,
        lambda: [eval_scalar(node, row) for row in relation],
        run_vector,
    )
    if expected is None:
        return
    for have, want in zip(got, expected):
        if want is None:
            assert have is None
        else:
            assert have == float(want)


# ---------------------------------------------------------------------------
# Aggregate agreement
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    func=st.sampled_from(list(ast.AggFunc)),
    argument=scalar_numeric(),
    rows=_float_rows(),
    data=st.data(),
)
def test_aggregate_matches_row_fallback(func, argument, rows, data):
    """Vectorized package aggregates equal the row-loop computation."""
    argument = _map_literals(argument, _as_float)
    relation = Relation("r", _FLOAT_SCHEMA, rows)
    counts = data.draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=len(rows) - 1),
            st.integers(min_value=1, max_value=3),
            min_size=1,
            max_size=len(rows),
        )
    )
    node = ast.Aggregate(func, argument)
    from repro.core.package import Package

    package = Package(relation, counts)
    rids = [rid for rid, _ in package.counts]
    weights = [mult for _, mult in package.counts]
    try:
        expected = package._compute_aggregate_rows(node)
        rows_raised = False
    except EvaluationError:
        expected, rows_raised = None, True
    try:
        got = aggregate_value(node, relation, rids, weights)
        vector_raised = False
    except EvaluationError:
        got, vector_raised = None, True
    assert rows_raised == vector_raised
    if rows_raised:
        return
    if expected is None:
        assert got is None
    elif math.isnan(float(expected)):
        # e.g. SUM(4 / x) over subnormal x of both signs: inf + -inf.
        assert math.isnan(got)
    else:
        assert got == pytest.approx(float(expected), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Unsupported expressions fall back cleanly
# ---------------------------------------------------------------------------

#: Arithmetic over text columns: the interpreter happily concatenates
#: strings, the compiler refuses — the canonical fallback trigger.
_TEXT_CONCAT_WHERE = ast.Comparison(
    ast.CmpOp.EQ,
    ast.BinaryOp(
        ast.BinOp.ADD,
        ast.ColumnRef(None, "gluten"),
        ast.ColumnRef(None, "gluten"),
    ),
    ast.Literal("freefree"),
)


def test_unsupported_expression_raises_and_try_returns_none(meals):
    evaluator = VectorEvaluator(meals)
    with pytest.raises(UnsupportedExpression):
        evaluator.predicate_mask(_TEXT_CONCAT_WHERE)
    assert try_predicate_mask(_TEXT_CONCAT_WHERE, meals) is None
    # ... and the verdict is memoized without poisoning later calls.
    with pytest.raises(UnsupportedExpression):
        evaluator.predicate_mask(_TEXT_CONCAT_WHERE)


def test_engine_falls_back_to_interpreter_on_unsupported_where(meals):
    """The candidate pipeline keeps working off the columnar path."""
    from dataclasses import replace

    from repro.core.engine import PackageQueryEvaluator

    evaluator = PackageQueryEvaluator(meals)
    query = evaluator.prepare(
        "SELECT PACKAGE(R) FROM Recipes R WHERE R.gluten = 'free' "
        "SUCH THAT COUNT(*) = 2"
    )
    twisted = replace(query, where=_TEXT_CONCAT_WHERE)
    rids, path, _ = evaluator._candidates_with_path(twisted)
    assert path == "interpreted"
    assert rids == [
        rid
        for rid in range(len(meals))
        if eval_predicate(_TEXT_CONCAT_WHERE, meals[rid])
    ]
    ctx = evaluator.context(twisted)
    assert ctx.where_path == "interpreted"


def test_engine_reports_vectorized_where_path(meals):
    from repro.core.engine import PackageQueryEvaluator

    result = PackageQueryEvaluator(meals).evaluate(
        "SELECT PACKAGE(R) FROM Recipes R WHERE R.gluten = 'free' "
        "SUCH THAT COUNT(*) = 2 MAXIMIZE SUM(R.protein)"
    )
    assert result.stats["where_path"] == "vectorized"
    assert result.found


#: Query shapes over ``uniform_relation(10000, ...)`` (every column
#: uniform in [0, 100]) whose WHERE must compile: a compound filter over
#: three columns, and the selective and constrained partition shapes.
_COLUMNAR_SHAPES = {
    "filter": """
        SELECT PACKAGE(U) FROM Uniform U
        WHERE U.cost BETWEEN 5 AND 90
            AND NOT (U.weight > 85 OR U.gain < 2)
            AND U.cost + U.weight <= 160
        SUCH THAT COUNT(*) = 5
        MAXIMIZE SUM(U.gain)
    """,
    "selective": """
        SELECT PACKAGE(U) FROM Uniform U
        WHERE U.cost <= 80
        SUCH THAT COUNT(*) = 5
        MAXIMIZE SUM(U.gain)
    """,
    "constrained": """
        SELECT PACKAGE(U) FROM Uniform U
        WHERE U.weight <= 90
        SUCH THAT COUNT(*) BETWEEN 4 AND 8
            AND SUM(U.cost) BETWEEN 47.5 AND 48
        MAXIMIZE SUM(U.gain)
    """,
}


def _uniform_10k():
    from repro.datasets import uniform_relation

    return uniform_relation(10000, columns=("cost", "gain", "weight"), seed=3)


@pytest.mark.parametrize("shape", sorted(_COLUMNAR_SHAPES))
def test_query_shapes_stay_on_the_vectorized_where_path(shape):
    """Compiler coverage: no silent fallback to the row interpreter."""
    from repro.core.engine import PackageQueryEvaluator
    from repro.core.validator import validate

    result = PackageQueryEvaluator(_uniform_10k()).evaluate(
        _COLUMNAR_SHAPES[shape]
    )
    assert result.stats["where_path"] == "vectorized"
    assert result.found
    assert validate(result.package, result.query).valid


def test_filter_where_and_validate_stay_columnar(monkeypatch):
    """The kernels pick the interpreter's rows, and validate() runs on
    the kernels: no per-row WHERE, no per-row package aggregate."""
    import repro.core.vectorize as vectorize_module
    from repro.core.engine import PackageQueryEvaluator
    from repro.core.package import Package
    from repro.core.validator import validate

    relation = _uniform_10k()
    evaluator = PackageQueryEvaluator(relation)
    query = evaluator.prepare(_COLUMNAR_SHAPES["filter"])
    rids, path, _ = evaluator._candidates_with_path(query)
    assert path == "vectorized"
    assert rids == [
        rid
        for rid in range(len(relation))
        if eval_predicate(query.where, relation[rid])
    ]

    row_calls = []
    monkeypatch.setattr(
        vectorize_module,
        "eval_predicate",
        lambda *args: row_calls.append("where") or eval_predicate(*args),
    )
    monkeypatch.setattr(
        Package,
        "_compute_aggregate_rows",
        lambda self, node: row_calls.append("aggregate"),
    )
    for start in range(0, 200, 5):
        validate(Package(relation, range(start, start + 5)), query)
    assert row_calls == []


def test_local_search_scores_moves_on_the_columnar_path(monkeypatch):
    """Local search scores its moves with a VectorMoveScorer and never
    materializes a neighbour package per move."""
    from repro.core.engine import EngineOptions, PackageQueryEvaluator
    from repro.core.local_search import LocalSearch, VectorMoveScorer
    from repro.core.validator import validate

    scorers = []
    build = VectorMoveScorer.__init__

    def recording_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        scorers.append(self)

    row_moves = []
    monkeypatch.setattr(VectorMoveScorer, "__init__", recording_build)
    monkeypatch.setattr(
        LocalSearch,
        "_single_moves",
        lambda self, package: row_moves.append(package) or iter(()),
    )
    result = PackageQueryEvaluator(_uniform_10k()).evaluate(
        _COLUMNAR_SHAPES["constrained"],
        EngineOptions(strategy="local-search"),
    )
    assert len(scorers) == 1
    assert row_moves == []
    assert result.stats["moves_evaluated"] > 0
    assert result.found
    assert validate(result.package, result.query).valid


def test_validator_base_check_falls_back(meals):
    """The base-constraint verdict agrees with the interpreter on an
    unsupported WHERE: where_positions over a package's rids, validate()
    and explain()."""
    from dataclasses import replace

    from repro.core.engine import PackageQueryEvaluator
    from repro.core.package import Package
    from repro.core.report import explain
    from repro.core.validator import validate
    from repro.core.vectorize import where_positions

    evaluator = PackageQueryEvaluator(meals)
    query = evaluator.prepare(
        "SELECT PACKAGE(R) FROM Recipes R WHERE R.gluten = 'free' "
        "SUCH THAT COUNT(*) >= 1"
    )
    twisted = replace(query, where=_TEXT_CONCAT_WHERE)
    rids = [1, 0, 4]
    package = Package(meals, rids)
    report = validate(package, twisted)
    expected = [
        rid
        for rid in sorted(rids)
        if not eval_predicate(_TEXT_CONCAT_WHERE, meals[rid])
    ]
    assert report.base_violations == expected
    assert [rid for rid, _ in explain(package, twisted).base_violations] == expected

    positions, path = where_positions(_TEXT_CONCAT_WHERE, meals, rids)
    assert path == "interpreted"
    assert [rids[i] for i in positions] == [
        rid for rid in rids if eval_predicate(_TEXT_CONCAT_WHERE, meals[rid])
    ]


def test_evaluator_for_is_cached_per_relation(meals):
    assert evaluator_for(meals) is evaluator_for(meals)


def test_null_only_relation_aggregates():
    relation = Relation(
        "n",
        Schema([Column("a", ColumnType.FLOAT)]),
        [{"a": None}, {"a": None}],
    )
    node = ast.Aggregate(ast.AggFunc.AVG, ast.ColumnRef(None, "a"))
    assert aggregate_value(node, relation, [0, 1]) is None
    total = ast.Aggregate(ast.AggFunc.SUM, ast.ColumnRef(None, "a"))
    assert aggregate_value(total, relation, [0, 1]) == 0


# ---------------------------------------------------------------------------
# OverflowPrecisionWarning: the audited float64/INT deviation
# ---------------------------------------------------------------------------

def _int_relation(values, name="Big"):
    return Relation(
        name,
        Schema([Column("v", ColumnType.INT)]),
        [{"v": value} for value in values],
    )


def _parse_predicate(text, relation):
    from repro.paql.parser import parse
    from repro.paql.semantics import analyze

    query = parse(
        f"SELECT PACKAGE(B) FROM {relation.name} B WHERE {text} "
        "SUCH THAT COUNT(*) >= 0"
    )
    return analyze(query, relation.schema).where


class TestOverflowPrecisionWarning:
    def test_multiplication_past_2_53_warns(self):
        from repro.core.vectorize import OverflowPrecisionWarning

        relation = _int_relation([2**40, 3, 2**41])
        where = _parse_predicate("B.v * B.v >= 0", relation)
        with pytest.warns(OverflowPrecisionWarning, match="2\\*\\*53"):
            try_predicate_mask(where, relation)

    def test_addition_past_2_53_warns(self):
        from repro.core.vectorize import OverflowPrecisionWarning

        relation = _int_relation([2**52 + 11, 2**52 + 7])
        where = _parse_predicate("B.v + B.v > 0", relation)
        with pytest.warns(OverflowPrecisionWarning):
            try_predicate_mask(where, relation)

    def test_binary_overflow_warns_once_per_compiled_kernel(self):
        import warnings

        from repro.core.vectorize import OverflowPrecisionWarning, evaluator_for

        # A sharded scan re-runs the same compiled kernel once per
        # shard; the audit must emit a single warning per kernel, not
        # one per evaluation (shard-specific magnitudes would defeat
        # the warnings module's dedup and spam stderr).
        relation = _int_relation([2**52 + 11, 2**52 + 7, 3, 4])
        where = _parse_predicate("B.v + B.v > 0", relation)
        evaluator = evaluator_for(relation)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluator.predicate_mask(where)
            evaluator.predicate_mask(where, rids=slice(0, 2))
            evaluator.predicate_mask(where, rids=slice(2, 4))
        emitted = [
            entry
            for entry in caught
            if issubclass(entry.category, OverflowPrecisionWarning)
        ]
        assert len(emitted) == 1

    @pytest.mark.parametrize(
        "peak",
        [2**53, 2**53 + 1, 2**53 + 2, -(2**53)],
        ids=["2**53", "2**53+1", "2**53+2", "-(2**53)"],
    )
    def test_column_values_past_2_53_take_the_interpreter(self, peak):
        import warnings

        from repro.core.vectorize import OverflowPrecisionWarning

        # 2**53 + 1 rounds back to exactly 2**53 in float64, so from
        # 2**53 on the float64 array cannot tell integers apart: no
        # kernel compiles, and the caller runs the row interpreter.
        relation = _int_relation([peak, 5])
        where = _parse_predicate("B.v > 0", relation)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowPrecisionWarning)
            assert try_predicate_mask(where, relation) is None
        positions, path = where_positions(where, relation)
        assert path == "interpreted"
        assert positions.tolist() == ([0, 1] if peak > 0 else [1])

    def test_column_values_below_2_53_compile(self):
        relation = _int_relation([2**53 - 1, 5])
        where = _parse_predicate("B.v > 0", relation)
        assert try_predicate_mask(where, relation) is not None

    @pytest.mark.parametrize(
        "literal",
        [2**53 + 1, -(2**53) - 1, 10**400],
        ids=["2**53+1", "-(2**53)-1", "10**400"],
    )
    def test_inexact_int_literals_take_the_interpreter(self, literal):
        relation = _int_relation([5, 7])
        where = _parse_predicate(f"B.v < {literal}", relation)
        assert try_predicate_mask(where, relation) is None
        positions, path = where_positions(where, relation)
        assert path == "interpreted"
        assert positions.tolist() == ([0, 1] if literal > 0 else [])

    def test_safe_magnitudes_stay_silent(self):
        import warnings

        from repro.core.vectorize import OverflowPrecisionWarning

        relation = _int_relation([2**20, -(2**20), 123])
        where = _parse_predicate("B.v * B.v + B.v >= 0", relation)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowPrecisionWarning)
            mask = try_predicate_mask(where, relation)
        assert mask is not None and mask.all()

    def test_float_columns_never_warn(self):
        import warnings

        relation = Relation(
            "Big",
            Schema([Column("v", ColumnType.FLOAT)]),
            [{"v": 2.0**60}, {"v": 3.0}],
        )
        where = _parse_predicate("B.v * B.v > 0", relation)
        from repro.core.vectorize import OverflowPrecisionWarning

        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowPrecisionWarning)
            assert try_predicate_mask(where, relation) is not None

    def test_division_is_outside_the_integer_domain(self):
        import warnings

        from repro.core.vectorize import OverflowPrecisionWarning

        relation = _int_relation([2**50, 2**50])
        where = _parse_predicate("B.v / 3 > 0", relation)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowPrecisionWarning)
            assert try_predicate_mask(where, relation) is not None

    def test_sum_aggregate_past_2_53_warns(self):
        from repro.core.vectorize import OverflowPrecisionWarning

        relation = _int_relation([2**43] * 3)
        node = ast.Aggregate(ast.AggFunc.SUM, ast.ColumnRef(None, "v"))
        # 3 rows alone stay exact; weight mass 2048 pushes the sum
        # past 2**53.
        with pytest.warns(OverflowPrecisionWarning, match="SUM"):
            aggregate_value(node, relation, [0, 1, 2], weights=[1024, 1024, 1])

    def test_small_sum_aggregate_stays_silent(self):
        import warnings

        from repro.core.vectorize import OverflowPrecisionWarning

        relation = _int_relation([2**20, 5, 7])
        node = ast.Aggregate(ast.AggFunc.SUM, ast.ColumnRef(None, "v"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowPrecisionWarning)
            assert aggregate_value(node, relation, [0, 1, 2]) == 2**20 + 12

    def test_null_entries_do_not_poison_the_check(self):
        import warnings

        from repro.core.vectorize import OverflowPrecisionWarning

        relation = Relation(
            "Big",
            Schema([Column("v", ColumnType.INT)]),
            [{"v": None}, {"v": 9}],
        )
        where = _parse_predicate("B.v + B.v >= 0", relation)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowPrecisionWarning)
            assert try_predicate_mask(where, relation) is not None


class TestIntegersPast2_53:
    """2**53 and 2**53 + 1 are one float64 value; every path must still
    answer with the exact integers the row interpreter compares."""

    QUERY = (
        "SELECT PACKAGE(T) FROM T T WHERE T.id = 9007199254740993 "
        "SUCH THAT COUNT(*) = 1 MINIMIZE SUM(T.v)"
    )

    @pytest.fixture
    def relation(self):
        return Relation(
            "T",
            Schema([Column("id", ColumnType.INT), Column("v", ColumnType.FLOAT)]),
            [
                {"id": 2**53, "v": 1.0},
                {"id": 2**53 + 1, "v": 2.0},
                {"id": 5, "v": 0.5},
            ],
        )

    @pytest.mark.parametrize("strategy", ["ilp", "brute-force"])
    def test_strategies_pick_the_exact_match(self, relation, strategy):
        from repro.core.engine import EngineOptions, evaluate
        from repro.core.result import ResultStatus

        result = evaluate(
            self.QUERY, relation, options=EngineOptions(strategy=strategy)
        )
        assert result.status is ResultStatus.OPTIMAL
        assert result.package.counts == ((1, 1),)
        assert result.objective == 2.0

    def test_validate_rejects_the_rounded_twin(self, relation):
        from repro.core.engine import PackageQueryEvaluator
        from repro.core.package import Package
        from repro.core.validator import validate

        query = PackageQueryEvaluator(relation).prepare(self.QUERY)
        assert validate(Package(relation, [1]), query).valid
        report = validate(Package(relation, [0]), query)
        assert report.base_violations == [0]

    def test_sql_pushdown_picks_the_exact_match(self, relation):
        from repro.core.engine import EngineOptions, PackageQueryEvaluator
        from repro.relational.sql_relation import SqlRelation

        sql = SqlRelation.from_relation(relation)
        result = PackageQueryEvaluator(sql).evaluate(
            self.QUERY, EngineOptions(pushdown="always")
        )
        assert result.package.counts == ((1, 1),)
        assert result.objective == 2.0


# ---------------------------------------------------------------------------
# CandidateColumns: one gather per argument per query
# ---------------------------------------------------------------------------

_special_float = st.one_of(
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
)


def _gathered(columns, node):
    """``columns.get(node)``, or ``None`` when the row interpreter
    would raise too (division by zero on a candidate)."""
    try:
        return columns.get(node)
    except EvaluationError:
        return None


def _assert_same_pair(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(got[1], want[1])


class TestCandidateColumns:
    @settings(max_examples=150, deadline=None)
    @given(
        node=scalar_numeric(),
        rows=st.lists(
            st.fixed_dictionaries(
                {
                    **{name: _special_float for name in COLUMN_NAMES},
                    **{name: _text_values for name in TEXT_COLUMN_NAMES},
                }
            ),
            min_size=1,
            max_size=24,
        ),
        data=st.data(),
    )
    def test_narrowed_sharded_and_interpreted_columns_agree(
        self, node, rows, data
    ):
        from unittest import mock

        import repro.core.vectorize as vectorize
        from repro.relational.sharding import ShardedRelation

        node = _map_literals(node, _as_float)
        relation = Relation("r", _FLOAT_SCHEMA, rows)
        rids = sorted(
            data.draw(
                st.sets(st.integers(min_value=0, max_value=len(rows) - 1))
            )
        )
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(rids), max_size=len(rids))
        )
        kept = [rid for rid, chosen in zip(rids, keep) if chosen]

        # Gathered, then narrowed == a fresh gather over the kept rids.
        columns = vectorize.CandidateColumns(relation, rids)
        full = _gathered(columns, node)
        fresh = _gathered(vectorize.CandidateColumns(relation, kept), node)
        if full is not None:
            columns.narrow(np.asarray(keep, dtype=bool))
            assert columns.rids.tolist() == kept
            _assert_same_pair(columns.get(node), fresh)

        # Sharded (fan-out forced on) == unsharded.
        shards = data.draw(st.integers(min_value=1, max_value=5))
        with mock.patch.object(vectorize, "SHARD_GATHER_MIN_CANDIDATES", 1):
            sharded = vectorize.CandidateColumns(
                relation, rids, sharded=ShardedRelation(relation, shards)
            )
            _assert_same_pair(_gathered(sharded, node), full)

        # The interpreter fallback == the kernels == eval_scalar rows.
        with mock.patch.object(
            vectorize.VectorEvaluator, "supports", lambda *args, **kw: False
        ):
            interpreted = _gathered(
                vectorize.CandidateColumns(relation, rids), node
            )
        _assert_same_pair(interpreted, full)
        if full is not None:
            raw = [eval_scalar(node, relation[rid]) for rid in rids]
            rows_values = np.array(
                [math.nan if value is None else float(value) for value in raw],
                dtype=np.float64,
            )
            assert np.array_equal(full[0], rows_values, equal_nan=True)
            assert full[1].tolist() == [value is None for value in raw]

    def test_concurrent_first_requests_keep_one_pair_per_argument(self):
        # The partition strategy gathers its binning attributes from
        # worker threads; no request may lose another's gather.
        import sys
        import threading

        from repro.core.vectorize import CandidateColumns

        row = dict.fromkeys(TEXT_COLUMN_NAMES)
        relation = Relation(
            "r",
            _FLOAT_SCHEMA,
            [{**row, **dict.fromkeys(COLUMN_NAMES, float(i))} for i in range(64)],
        )
        nodes = [
            ast.BinaryOp(
                ast.BinOp.ADD, ast.ColumnRef(None, name), ast.Literal(float(k))
            )
            for name in COLUMN_NAMES
            for k in range(8)
        ]
        columns = CandidateColumns(relation, range(64))
        seen = [[] for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda out=out: out.extend(
                        columns.get(node) for node in nodes
                    )
                )
                for out in seen
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        stored = [columns.get(node) for node in nodes]
        for pairs in seen:
            assert all(pair is kept for pair, kept in zip(pairs, stored))

    def test_every_argument_is_gathered_once_per_query(self, monkeypatch):
        # A band query through the prune/reduce fixpoint (two rounds,
        # aggressive dominance, four shards), the ILP translation and
        # the greedy warm start: each distinct aggregate argument is
        # gathered once, the objective over the candidates fixing kept
        # (dominance ranks them), everything after it by narrowing.
        # Validation is out of scope: the package-level aggregates the
        # validator computes are its own path.
        import repro.core.validator as validator
        import repro.core.vectorize as vectorize
        from repro.core.engine import EngineOptions, PackageQueryEvaluator
        from repro.core.pipeline import run_analysis
        from repro.core.strategies.ilp import _warm_start
        from repro.core.translate_ilp import translate
        from repro.datasets import clustered_relation

        relation = clustered_relation(3000, seed=4)
        evaluator = PackageQueryEvaluator(relation)
        query = evaluator.prepare(
            "SELECT PACKAGE(R) FROM Readings R "
            "WHERE R.ts BETWEEN 10 AND 60 AND R.cost + R.weight <= 70 "
            "SUCH THAT COUNT(*) = 5 AND SUM(R.cost) <= 150 "
            "MAXIMIZE SUM(R.gain)"
        )
        options = EngineOptions(strategy="ilp", shards=4, reduce="aggressive")
        gathers = {}
        scalar_arrays = vectorize.VectorEvaluator.scalar_arrays

        def counting(self, node, rids=None):
            gathers.setdefault(node, []).append(len(rids))
            return scalar_arrays(self, node, rids)

        monkeypatch.setattr(vectorize.VectorEvaluator, "scalar_arrays", counting)
        monkeypatch.setattr(validator, "is_valid", lambda package, query: True)

        state = run_analysis(evaluator, query, options)
        assert state.sharded is not None
        assert state.reduction.rounds >= 2
        translation = state.ctx.translation()
        assert _warm_start(state.ctx, translation) is not None

        cost = ast.ColumnRef(None, "cost")
        gain = ast.ColumnRef(None, "gain")
        assert set(gathers) == {cost, gain}
        assert gathers[cost] == [state.base_candidate_count]
        (gain_rows,) = gathers[gain]
        assert len(state.ctx.candidate_rids) < gain_rows
        assert gain_rows <= state.base_candidate_count

        # Narrowed columns give the model a fresh gather gives.
        monkeypatch.undo()
        fresh = translate(
            state.ctx.query,
            relation,
            state.ctx.candidate_rids,
            lower_bounds=dict.fromkeys(state.ctx.forced_rids, 1),
        )
        got = translation.model.lp_arrays()
        want = fresh.model.lp_arrays()
        assert got[2] == want[2]
        for have, expected in zip(got[:2] + got[3:], want[:2] + want[3:]):
            np.testing.assert_array_equal(have, expected)
