"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestAnalyze:
    def test_tree_schema(self, capsys):
        assert main(["analyze", "ab,bc,cd"]) == 0
        output = capsys.readouterr().out
        assert "tree schema (alpha-acyclic): True" in output
        assert "qual tree" in output

    def test_cyclic_schema_suggests_treefication(self, capsys):
        assert main(["analyze", "ab,bc,ac"]) == 0
        output = capsys.readouterr().out
        assert "tree schema (alpha-acyclic): False" in output
        assert "smallest treefying relation" in output
        assert "abc" in output

    def test_multi_character_attributes(self, capsys):
        assert main(
            ["--attribute-separator", " ", "analyze", "emp dept, dept mgr"]
        ) == 0
        output = capsys.readouterr().out
        assert "tree schema (alpha-acyclic): True" in output


class TestCanonicalConnection:
    def test_section6_example(self, capsys):
        assert main(["cc", "abg,bcg,acf,ad,de,ea", "abc"]) == 0
        output = capsys.readouterr().out
        assert "CC(D, X) = (abg, bcg, ac)" in output
        assert "'ad'" in output and "'de'" in output


class TestLossless:
    def test_implied_case_exits_zero(self, capsys):
        assert main(["lossless", "ab,bc,cd", "ab,bc"]) == 0
        assert "True" in capsys.readouterr().out

    def test_not_implied_case_exits_one(self, capsys):
        assert main(["lossless", "abc,ab,bc", "ab,bc"]) == 1
        assert "False" in capsys.readouterr().out


class TestTreefy:
    def test_cyclic_schema(self, capsys):
        assert main(["treefy", "ab,bc,cd,da"]) == 0
        output = capsys.readouterr().out
        assert "add U(GR(D)) = abcd" in output

    def test_tree_schema(self, capsys):
        assert main(["treefy", "ab,bc"]) == 0
        assert "already a tree schema" in capsys.readouterr().out


class TestTableau:
    def test_section6_example_folds_three_rows(self, capsys):
        assert main(["tableau", "abg,bcg,acf,ad,de,ea", "abc"]) == 0
        output = capsys.readouterr().out
        assert "standard tableau Tab(D, X) (6 rows):" in output
        assert "minimization removed 3 rows (r3, r4, r5):" in output
        assert "CC(D, X) = (abg, bcg, ac)" in output

    def test_already_minimal(self, capsys):
        assert main(["tableau", "ab,bc,cd", "ad"]) == 0
        output = capsys.readouterr().out
        assert "already minimal; no rows removed" in output
        assert "CC(D, X) =" in output

    def test_renders_summary_row(self, capsys):
        assert main(["tableau", "ab,bc", "ac"]) == 0
        output = capsys.readouterr().out
        assert "summary" in output


class TestJsonOutput:
    def test_analyze_tree_schema(self, capsys):
        assert main(["analyze", "--json", "ab,bc,cd"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha_acyclic"] is True
        assert payload["gamma_acyclic"] is True
        assert payload["relations"] == 3
        assert payload["attributes"] == 4
        assert payload["qual_tree"] is not None
        assert "treefying_relation" not in payload

    def test_analyze_cyclic_schema(self, capsys):
        assert main(["analyze", "--json", "ab,bc,ac"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha_acyclic"] is False
        assert payload["qual_tree"] is None
        assert payload["gyo_residue"] == "ab,bc,ac"
        assert payload["treefying_relation"] == "abc"

    def test_cc_section6_example(self, capsys):
        assert main(["cc", "--json", "abg,bcg,acf,ad,de,ea", "abc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical_connection"] == "abg,bcg,ac"
        assert payload["irrelevant_relations"] == ["ad", "de", "ae"]
        assert payload["relevant_relations"] == ["abg", "bcg", "acf"]

    def test_lossless_implied(self, capsys):
        assert main(["lossless", "--json", "ab,bc,cd", "ab,bc"]) == 0
        assert json.loads(capsys.readouterr().out)["lossless"] is True

    def test_lossless_not_implied_exits_one(self, capsys):
        assert main(["lossless", "--json", "abc,ab,bc", "ab,bc"]) == 1
        assert json.loads(capsys.readouterr().out)["lossless"] is False

    def test_treefy_cyclic(self, capsys):
        assert main(["treefy", "--json", "ab,bc,cd,da"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["already_tree"] is False
        assert payload["added_relation"] == "abcd"
        assert payload["treefied"].endswith("abcd")

    def test_treefy_tree_schema(self, capsys):
        assert main(["treefy", "--json", "ab,bc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["already_tree"] is True
        assert payload["added_relation"] is None

    def test_tableau_section6_example(self, capsys):
        assert main(["tableau", "--json", "abg,bcg,acf,ad,de,ea", "abc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 6
        assert payload["minimal_rows"] == 3
        assert payload["kept_rows"] == [0, 1, 2]
        assert sorted(payload["removed_rows"]) == [3, 4, 5]
        assert payload["canonical_connection"] == "abg,bcg,ac"

    def test_json_with_attribute_separator(self, capsys):
        assert main(
            ["--attribute-separator", " ", "analyze", "--json", "emp dept, dept mgr"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["alpha_acyclic"] is True


class TestParser:
    def test_parser_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_missing_positional_exits_nonzero(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["cc", "ab,bc"])  # target missing

    @pytest.mark.parametrize(
        "command", ["analyze", "cc", "lossless", "treefy", "tableau"]
    )
    def test_every_subcommand_has_json_flag(self, command):
        parser = build_parser()
        argv = {
            "analyze": ["analyze", "--json", "ab"],
            "cc": ["cc", "--json", "ab", "a"],
            "lossless": ["lossless", "--json", "ab", "a"],
            "treefy": ["treefy", "--json", "ab"],
            "tableau": ["tableau", "--json", "ab", "a"],
        }[command]
        arguments = parser.parse_args(argv)
        assert arguments.json is True
        assert arguments.command == command

    def test_json_defaults_to_false(self):
        arguments = build_parser().parse_args(["analyze", "ab,bc"])
        assert arguments.json is False

    def test_prog_name(self):
        assert build_parser().prog == "repro"


class TestQuery:
    def test_random_state_text_output(self, capsys):
        assert main(["query", "ab,bc,cd", "ad", "--random", "15"]) == 0
        output = capsys.readouterr().out
        assert "backend: compiled" in output
        assert "semijoins" in output and "answer" in output

    def test_backend_flag_routes_classic(self, capsys):
        assert main(
            ["query", "ab,bc,cd", "ad", "--random", "10", "--backend", "classic"]
        ) == 0
        assert "backend: classic" in capsys.readouterr().out

    def test_json_reports_backend_and_stats(self, capsys):
        assert main(
            ["query", "ab,bc,cd", "ad", "--random", "10", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "compiled"
        assert payload["semijoin_count"] == 4
        assert payload["join_count"] == 2
        assert payload["compiled_stats"]["slots_encoded"] >= 3
        assert isinstance(payload["result"], list)

    def test_classic_json_has_no_compiled_stats(self, capsys):
        assert main(
            [
                "query", "ab,bc,cd", "ad",
                "--random", "10", "--backend", "classic", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "classic"
        assert "compiled_stats" not in payload

    def test_data_file_state(self, tmp_path, capsys):
        data = tmp_path / "state.json"
        data.write_text(json.dumps([
            [{"a": 1, "b": 2}],
            [{"b": 2, "c": 3}],
            [{"c": 3, "d": 4}],
        ]))
        assert main(["query", "ab,bc,cd", "ad", "--data", str(data), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == [{"a": 1, "d": 4}]

    def test_batch_of_states(self, capsys):
        assert main(
            ["query", "ab,bc,cd", "ad", "--random", "8", "--states", "4"]
        ) == 0
        output = capsys.readouterr().out
        assert "4 state(s)" in output
        assert "answer sizes" in output

    def test_data_and_random_are_exclusive(self, tmp_path):
        data = tmp_path / "state.json"
        data.write_text("[]")
        with pytest.raises(SystemExit):
            main(["query", "ab,bc", "a", "--data", str(data), "--random", "5"])

    def test_wrong_relation_count_rejected(self, tmp_path):
        data = tmp_path / "state.json"
        data.write_text(json.dumps([[{"a": 1, "b": 2}]]))
        with pytest.raises(SystemExit):
            main(["query", "ab,bc,cd", "ad", "--data", str(data)])

    def test_missing_data_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "ab,bc", "a"])

    def test_states_requires_random(self, tmp_path):
        data = tmp_path / "state.json"
        data.write_text(json.dumps([
            [{"a": 1, "b": 2}],
            [{"b": 2, "c": 3}],
        ]))
        with pytest.raises(SystemExit):
            main(["query", "ab,bc", "a", "--data", str(data), "--states", "3"])


class TestQueryRobustnessFlags:
    def test_robustness_flags_require_parallel_backend(self):
        for flags in (
            ["--shard-timeout", "5"],
            ["--retries", "3"],
            ["--failure-policy", "degrade"],
        ):
            with pytest.raises(SystemExit):
                main(["query", "ab,bc", "a", "--random", "5"] + flags)

    def test_failure_policy_choices_validated_by_parser(self):
        parser = build_parser()
        arguments = parser.parse_args(
            [
                "query", "ab,bc", "a", "--random", "5",
                "--backend", "parallel",
                "--shard-timeout", "5", "--retries", "3",
                "--failure-policy", "degrade",
            ]
        )
        assert arguments.shard_timeout == 5.0
        assert arguments.retries == 3
        assert arguments.failure_policy == "degrade"
        with pytest.raises(SystemExit):
            parser.parse_args(
                [
                    "query", "ab,bc", "a", "--random", "5",
                    "--backend", "parallel", "--failure-policy", "ignore",
                ]
            )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--backend", "parallel", "--workers", "0"], "positive"),
            (["--backend", "parallel", "--retries", "-1"], "non-negative"),
            (["--backend", "parallel", "--shard-timeout", "0"], "positive"),
            (["--stream", "--max-inflight", "0"], "positive"),
            (["--domain", "0"], "positive"),
            (["--states", "0"], "positive"),
            (["--random", "-1"], "non-negative"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, flags, message, capsys):
        arguments = ["query", "ab,bc", "ab"]
        if "--random" not in flags:
            arguments += ["--random", "5"]
        with pytest.raises(SystemExit) as excinfo:
            main(arguments + flags)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_parallel_json_includes_failure_stats(self, capsys):
        assert main(
            [
                "query", "ab,bc,cd", "ad",
                "--random", "8", "--states", "4",
                "--backend", "parallel", "--workers", "2",
                "--retries", "2", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "parallel"
        failure = payload["parallel_stats"]["failure_stats"]
        assert failure["failure_policy"] == "raise"
        # A healthy run exercises none of the recovery machinery.
        assert failure["respawns"] == 0
        assert failure["quarantined"] == []
        assert set(failure) == {
            "failure_policy", "retries", "respawns", "timeouts",
            "bisections", "fallback_runs", "quarantined", "worker_crashes",
        }
        assert payload["answer_rows"] and all(
            rows is not None for rows in payload["answer_rows"]
        )


class TestCatalogCommand:
    @pytest.fixture(autouse=True)
    def _no_env_catalog(self, monkeypatch):
        monkeypatch.delenv("REPRO_CATALOG_DIR", raising=False)

    def _seed(self, directory, capsys):
        from repro.engine import clear_analysis_cache

        clear_analysis_cache()
        assert main(
            [
                "query", "ab,bc,cd,da", "ac",
                "--random", "10", "--catalog", str(directory), "--json",
            ]
        ) == 0
        return json.loads(capsys.readouterr().out)

    def test_query_catalog_miss_then_hit(self, tmp_path, capsys):
        from repro.engine import clear_analysis_cache

        first = self._seed(tmp_path / "cat", capsys)
        assert first["catalog_stats"]["misses"] == 1
        assert first["catalog_stats"]["stores"] == 1
        clear_analysis_cache()
        second = self._seed(tmp_path / "cat", capsys)
        assert second["catalog_stats"]["hits"] == 1
        assert second["catalog_stats"]["quarantined"] == 0
        assert second["answer_rows"] == first["answer_rows"]
        assert second["result"] == first["result"]

    def test_query_text_mode_prints_catalog_line(self, tmp_path, capsys):
        from repro.engine import clear_analysis_cache

        clear_analysis_cache()
        assert main(
            [
                "query", "ab,bc,cd,da", "ac",
                "--random", "10", "--catalog", str(tmp_path / "cat"),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "catalog:" in output
        assert "1 store(s)" in output

    def test_env_default_catalog_surfaces_stats(self, tmp_path, capsys, monkeypatch):
        from repro.engine import clear_analysis_cache

        monkeypatch.setenv("REPRO_CATALOG_DIR", str(tmp_path / "envcat"))
        clear_analysis_cache()
        assert main(
            ["query", "ab,bc,cd,da", "ac", "--random", "10", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "catalog_stats" in payload
        assert payload["catalog_stats"]["stores"] >= 1

    def test_catalog_ls_verify_gc_cycle(self, tmp_path, capsys):
        directory = tmp_path / "cat"
        self._seed(directory, capsys)

        assert main(["catalog", "ls", str(directory), "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["records"]) == 1
        assert listing["records"][0]["ok"] is True
        assert listing["records"][0]["schema"] == "ab,bc,cd,ad"
        assert listing["records"][0]["choices"] == 1

        assert main(["catalog", "verify", str(directory)]) == 0
        assert "1 ok" in capsys.readouterr().out

        # Corrupt the record: verify flags (exit 1) and quarantines it.
        import os as _os

        record = next(
            name
            for name in _os.listdir(str(directory))
            if name.endswith(".plan")
        )
        path = str(directory / record)
        with open(path, "r+b") as handle:
            handle.truncate(12)
        assert main(["catalog", "verify", str(directory), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["quarantined"] == [record]

        assert main(["catalog", "gc", str(directory), "--json"]) == 0
        cleaned = json.loads(capsys.readouterr().out)
        assert cleaned["removed_corrupt"] == 1

    def test_catalog_gc_rejects_negative_keep(self, tmp_path, capsys):
        directory = tmp_path / "cat"
        self._seed(directory, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["catalog", "gc", str(directory), "--keep", "-1"])
        assert excinfo.value.code == 2
        assert "non-negative" in capsys.readouterr().err
        assert main(["catalog", "ls", str(directory), "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["records"]) == 1

    def test_catalog_requires_existing_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["catalog", "ls", str(tmp_path / "absent")])

    def test_catalog_parser_accepts_actions(self):
        parser = build_parser()
        for argv in (
            ["catalog", "ls", "d"],
            ["catalog", "verify", "d", "--json"],
            ["catalog", "gc", "d", "--keep", "3"],
        ):
            arguments = parser.parse_args(argv)
            assert arguments.command == "catalog"
