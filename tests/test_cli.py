"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.relational import write_csv


@pytest.fixture
def recipes_csv(tmp_path, meals):
    path = tmp_path / "Recipes.csv"
    write_csv(meals, path)
    return str(path)


QUERY = (
    "SELECT PACKAGE(R) AS P FROM Recipes R "
    "WHERE R.gluten = 'free' "
    "SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 1200 AND 1600 "
    "MAXIMIZE SUM(P.protein)"
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestQueryCommand:
    def test_basic_query(self, recipes_csv):
        code, text = run(["query", "--csv", recipes_csv, "--query", QUERY])
        assert code == 0
        assert "status: optimal" in text
        assert "objective:" in text
        assert "steak" in text  # highest-protein gluten-free meal

    def test_query_from_file(self, recipes_csv, tmp_path):
        query_path = tmp_path / "q.paql"
        query_path.write_text(QUERY)
        code, text = run(
            ["query", "--csv", recipes_csv, "--query-file", str(query_path)]
        )
        assert code == 0

    def test_json_output(self, recipes_csv):
        code, text = run(
            ["query", "--csv", recipes_csv, "--query", QUERY, "--json"]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["status"] == "optimal"
        assert payload["package"]["cardinality"] == 3

    def test_infeasible_exit_code(self, recipes_csv):
        bad = QUERY.replace("BETWEEN 1200 AND 1600", "BETWEEN 1 AND 2")
        code, text = run(["query", "--csv", recipes_csv, "--query", bad])
        assert code == 1
        assert "no valid package" in text

    def test_top_k(self, recipes_csv):
        code, text = run(
            ["query", "--csv", recipes_csv, "--query", QUERY, "--top", "3"]
        )
        assert code == 0
        assert text.count("== package #") == 3

    def test_top_k_json(self, recipes_csv):
        code, text = run(
            [
                "query", "--csv", recipes_csv, "--query", QUERY,
                "--top", "3", "--json",
            ]
        )
        payload = json.loads(text)
        assert len(payload) == 3
        objectives = [p["objective"] for p in payload]
        assert objectives == sorted(objectives, reverse=True)

    def test_diverse_subset(self, recipes_csv):
        code, text = run(
            [
                "query", "--csv", recipes_csv, "--query", QUERY,
                "--top", "5", "--diverse", "2",
            ]
        )
        assert code == 0
        assert text.count("== package #") == 2

    def test_explain(self, recipes_csv):
        code, text = run(
            ["query", "--csv", recipes_csv, "--query", QUERY, "--explain"]
        )
        assert "cardinality bounds" in text

    def test_strategy_choice(self, recipes_csv):
        code, text = run(
            [
                "query", "--csv", recipes_csv, "--query", QUERY,
                "--strategy", "brute-force",
            ]
        )
        assert code == 0
        assert "strategy: brute-force" in text

    def test_relation_override(self, tmp_path, meals):
        path = tmp_path / "data.csv"
        write_csv(meals, path)
        code, text = run(
            [
                "query", "--csv", str(path), "--relation", "Recipes",
                "--query", QUERY,
            ]
        )
        assert code == 0


class TestErrorHandling:
    def test_missing_csv(self):
        code, _ = run(["query", "--csv", "/nope/missing.csv", "--query", QUERY])
        assert code == 2

    def test_missing_query(self, recipes_csv):
        code, _ = run(["query", "--csv", recipes_csv])
        assert code == 2

    def test_both_query_sources(self, recipes_csv, tmp_path):
        query_path = tmp_path / "q.paql"
        query_path.write_text(QUERY)
        code, _ = run(
            [
                "query", "--csv", recipes_csv,
                "--query", QUERY, "--query-file", str(query_path),
            ]
        )
        assert code == 2

    def test_bad_paql_reported(self, recipes_csv):
        code, _ = run(
            ["query", "--csv", recipes_csv, "--query", "SELECT nonsense"]
        )
        assert code == 2

    def test_wrong_relation_name(self, recipes_csv):
        query = QUERY.replace("Recipes", "Other")
        code, _ = run(
            ["query", "--csv", recipes_csv, "--query", query]
        )
        assert code == 2


class TestExplainCommand:
    def test_executed_stage_table(self, recipes_csv):
        code, text = run(["explain", "--csv", recipes_csv, "--query", QUERY])
        assert code == 0
        assert "status: optimal" in text
        for stage in (
            "rewrite",
            "where-filter",
            "zone-skip",
            "prune-bounds",
            "reduction",
            "strategy-dispatch",
            "validate",
        ):
            assert stage in text
        assert "rows in" in text

    def test_simulated_stage_table(self, recipes_csv):
        code, text = run(
            ["explain", "--csv", recipes_csv, "--query", QUERY, "--simulate"]
        )
        assert code == 0
        assert "(simulated)" in text
        assert "strategy-dispatch" in text

    def test_simulated_header_honors_explicit_strategy(self, recipes_csv):
        # --simulate with a fixed --strategy must report that strategy
        # (what execution would dispatch), not the cost model's pick.
        code, text = run(
            [
                "explain",
                "--csv",
                recipes_csv,
                "--query",
                QUERY,
                "--simulate",
                "--strategy",
                "brute-force",
            ]
        )
        assert code == 0
        assert "strategy: brute-force (simulated)" in text

    def test_skip_reasons_rendered(self, recipes_csv):
        code, text = run(
            [
                "explain",
                "--csv",
                recipes_csv,
                "--query",
                QUERY,
                "--reduce",
                "off",
            ]
        )
        assert code == 0
        assert "reduction disabled (reduce=off)" in text


class TestReplCommand:
    def _batch(self, tmp_path, statements):
        path = tmp_path / "queries.paql"
        path.write_text(";\n".join(statements) + ";")
        return str(path)

    def test_batch_file_shares_one_session(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, [QUERY, QUERY])
        code, text = run(
            ["repl", "--csv", recipes_csv, "--file", batch, "--stats"]
        )
        assert code == 0
        assert text.count("status: optimal") == 2
        assert "[session cache]" in text  # the repeat replayed
        assert "session cache stats" in text

    def test_batch_json_payloads(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, [QUERY, QUERY])
        code, text = run(
            ["repl", "--csv", recipes_csv, "--file", batch, "--json"]
        )
        assert code == 0
        payloads = json.loads(text)
        assert len(payloads) == 2
        assert payloads[0]["cached"] is False
        assert payloads[1]["cached"] is True
        assert (
            payloads[0]["package"]["objective"]
            == payloads[1]["package"]["objective"]
        )

    def test_explain_prefix_appends_stage_table(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, ["EXPLAIN " + QUERY])
        code, text = run(["repl", "--csv", recipes_csv, "--file", batch])
        assert code == 0
        assert "strategy-dispatch" in text

    def test_explain_prefix_accepts_a_newline(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, ["EXPLAIN\n" + QUERY])
        code, text = run(["repl", "--csv", recipes_csv, "--file", batch])
        assert code == 0
        assert "strategy-dispatch" in text

    def test_json_stats_meta_command_stays_parseable(
        self, recipes_csv, monkeypatch
    ):
        source = io.StringIO(f"{QUERY};\n\\stats\n")
        source.isatty = lambda: True  # even a tty must not print prompts
        monkeypatch.setattr("sys.stdin", source)
        code, text = run(["repl", "--csv", recipes_csv, "--json"])
        assert code == 0
        payloads = json.loads(text)  # one parseable document
        assert payloads[1]["cache_stats"]["queries_run"] == 1

    def test_bad_statement_reports_and_continues(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, ["SELECT NONSENSE", QUERY])
        code, text = run(["repl", "--csv", recipes_csv, "--file", batch])
        assert code == 1
        assert "error:" in text
        assert "status: optimal" in text

    def test_semicolon_inside_string_literal(self, recipes_csv, tmp_path):
        # The splitter must not cut inside a quoted PaQL string.
        statement = (
            "SELECT PACKAGE(R) FROM Recipes R WHERE R.name = 'a;b' "
            "SUCH THAT COUNT(*) <= 1"
        )
        batch = self._batch(tmp_path, [statement])
        code, text = run(["repl", "--csv", recipes_csv, "--file", batch])
        assert code == 0
        assert "error" not in text
        assert text.count("status:") == 1

    def test_two_statements_on_one_line(self, recipes_csv, monkeypatch):
        source = io.StringIO(f"{QUERY}; {QUERY};\n")
        source.isatty = lambda: False
        monkeypatch.setattr("sys.stdin", source)
        code, text = run(["repl", "--csv", recipes_csv])
        assert code == 0
        assert text.count("status: optimal") == 2
        assert "[session cache]" in text

    def test_json_with_stats_is_one_document(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, [QUERY])
        code, text = run(
            ["repl", "--csv", recipes_csv, "--file", batch, "--json", "--stats"]
        )
        assert code == 0
        document = json.loads(text)  # a single parseable document
        assert len(document["statements"]) == 1
        assert document["cache_stats"]["queries_run"] == 1

    def test_json_explain_includes_stages(self, recipes_csv, tmp_path):
        batch = self._batch(tmp_path, ["EXPLAIN " + QUERY])
        code, text = run(
            ["repl", "--csv", recipes_csv, "--file", batch, "--json"]
        )
        assert code == 0
        (payload,) = json.loads(text)
        assert [s["name"] for s in payload["stages"]][0] == "rewrite"

    def test_interactive_stream(self, recipes_csv, monkeypatch):
        source = io.StringIO(f"\\stats\n{QUERY};\n\\quit\n")
        source.isatty = lambda: False
        monkeypatch.setattr("sys.stdin", source)
        code, text = run(["repl", "--csv", recipes_csv])
        assert code == 0
        assert '"queries_run": 0' in text  # \stats before any query
        assert "status: optimal" in text

    def test_quit_aborts_a_half_typed_statement(self, recipes_csv, monkeypatch):
        # The buffered fragment is itself valid PaQL, so this guards
        # that \quit *discards* it rather than evaluating it.
        source = io.StringIO("SELECT PACKAGE(R) FROM Recipes R\n\\quit\n")
        source.isatty = lambda: False
        monkeypatch.setattr("sys.stdin", source)
        code, text = run(["repl", "--csv", recipes_csv])
        assert code == 0
        assert "error" not in text
        assert "status:" not in text  # nothing was evaluated


class TestDescribeCommand:
    def test_describe(self):
        code, text = run(["describe", "--query", QUERY])
        assert code == 0
        assert "gluten is exactly free" in text
        assert "maximize the total protein" in text


class TestDemoCommand:
    def test_meal_demo(self):
        code, text = run(["demo", "meal"])
        assert code == 0
        assert "status: optimal" in text

    def test_vacation_demo(self):
        code, text = run(["demo", "vacation"])
        assert code == 0

    def test_portfolio_demo(self):
        code, text = run(["demo", "portfolio"])
        assert code == 0
