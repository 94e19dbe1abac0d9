from __future__ import annotations

import json
from pathlib import Path

import pytest

from higen.errors import ConfigError
from higen.llm_client import LLMClient, MockBackend
from higen.runner import (
    build_client,
    evaluate,
    load_config,
    parse_config,
    read_metric_rows,
    read_records,
    run,
)

from conftest import DATA_DIR


def _config_dict(tmp_path, **overrides) -> dict:
    base = {
        "dataset": {"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport"},
        "methods": ["direct"],
        "model": "mock-model",
        "run_dir": str(tmp_path / "run"),
        "cache_dir": str(tmp_path / "cache"),
        "endpoint": {"base_url": "mock://echo_first_k?scorer=overlap"},
        "k": 2,
        "concurrency": 2,
        "max_tokens": 200,
        "attribution": {"m": 8},
    }
    base.update(overrides)
    return base


def _write_config(tmp_path, **overrides) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_dict(tmp_path, **overrides)))
    return path


class TestLoadConfig:
    def test_minimal_defaults_filled(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            "dataset:\n  path: data.jsonl\nmodel: m\nrun_dir: out\nmethods: [direct]\n"
        )
        config = load_config(path)
        assert config.k == 30
        assert config.concurrency == 4
        assert config.attribution.m == 64
        assert config.lexrank.damping == 0.85
        assert config.family() == "gov"

    def test_json_is_valid_yaml(self, tmp_path):
        path = _write_config(tmp_path)
        config = load_config(path)
        assert config.model == "mock-model"

    def test_unknown_method_rejected(self, tmp_path):
        path = _write_config(tmp_path, methods=["bogus"])
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_k_omitted_defaults_to_30(self):
        config = parse_config(
            {"dataset": {"path": "x"}, "model": "m", "run_dir": "r", "methods": ["direct"]}
        )
        assert config.k == 30

    def test_invalid_ranges_named(self):
        base = {"dataset": {"path": "x"}, "model": "m", "run_dir": "r", "methods": ["direct"]}
        with pytest.raises(ConfigError, match="k"):
            parse_config({**base, "k": 0})
        with pytest.raises(ConfigError, match="concurrency"):
            parse_config({**base, "concurrency": 0})
        with pytest.raises(ConfigError, match="schema"):
            parse_config({**base, "dataset": {"path": "x", "schema": "huh"}})

    def test_missing_dataset_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            parse_config({"model": "m", "run_dir": "r"})

    def test_qmsum_schema_selects_family(self):
        config = parse_config(
            {
                "dataset": {"path": "x", "schema": "scrolls_qmsum"},
                "model": "m",
                "run_dir": "r",
                "methods": ["direct"],
            }
        )
        assert config.family() == "qmsum"
        assert config.generation_budget() == 256

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_shuffle_seed_draws_deterministic_sample(self, tmp_path):
        from higen.runner import _load_documents

        plain = parse_config(_config_dict(tmp_path, dataset={
            "path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport", "limit": 3,
        }))
        shuffled = parse_config(_config_dict(tmp_path, dataset={
            "path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport",
            "limit": 3, "shuffle_seed": 13,
        }))
        prefix_ids = [d.id for d in _load_documents(plain)]
        sample_ids = [d.id for d in _load_documents(shuffled)]
        assert prefix_ids == ["doc00", "doc01", "doc02"]
        assert len(sample_ids) == 3
        assert sample_ids != prefix_ids  # seed 13 reorders this corpus
        assert sample_ids == [d.id for d in _load_documents(shuffled)]


class TestRun:
    def test_ten_docs_direct(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        backend = MockBackend(score_fn="overlap")
        client = LLMClient(backend, cache_dir=config.cache_dir, concurrency=2)
        run_dir = run(config, client=client)
        records = read_records(run_dir)
        assert len(records) == 10
        assert all(r.ok for r in records)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["counts"]["direct"] == {"ok": 10, "failed": 0, "fallback": 0}

    def test_resume_makes_zero_calls(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        run(config)
        backend = MockBackend(score_fn="overlap")
        client = LLMClient(backend, cache_dir=config.cache_dir, concurrency=2)
        run(config, client=client)
        assert backend.calls == 0
        assert client.cache_hits == 0  # resume skips before reaching the cache
        assert len(read_records(config.run_dir)) == 10

    def test_all_five_methods_bookkeeping(self, tmp_path):
        config = parse_config(
            _config_dict(
                tmp_path,
                methods=["direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc"],
            )
        )
        run_dir = run(config)
        records = read_records(run_dir)
        assert len(records) == 50
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for method, counts in manifest["counts"].items():
            assert counts["ok"] + counts["failed"] == 10, method

    def test_kill_and_resume(self, tmp_path):
        config = parse_config(_config_dict(tmp_path, concurrency=1))
        run(config, stop_after_records=4)
        assert len(read_records(config.run_dir)) == 4
        run(config)
        records = read_records(config.run_dir)
        assert len(records) == 10
        pairs = {(r.doc_id, r.method) for r in records}
        assert len(pairs) == 10

    def test_no_duplicate_pairs_after_resume(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        run(config)
        run(config)
        records = read_records(config.run_dir)
        pairs = [(r.doc_id, r.method) for r in records]
        assert len(pairs) == len(set(pairs)) == 10

    def test_warm_cache_fresh_run_dir_issues_no_backend_calls(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        run(config)
        fresh = parse_config(_config_dict(tmp_path, run_dir=str(tmp_path / "run2")))
        backend = MockBackend(score_fn="overlap")
        client = LLMClient(backend, cache_dir=fresh.cache_dir, concurrency=2)
        run(fresh, client=client)
        assert backend.calls == 0
        assert client.cache_hits > 0

    def test_qmsum_dataset_end_to_end(self, tmp_path):
        config = parse_config(
            _config_dict(
                tmp_path,
                dataset={"path": str(DATA_DIR / "qmsum_record.jsonl"), "schema": "scrolls_qmsum"},
                methods=["direct", "e2e", "two_stage_lexrank"],
                max_tokens=None,
            )
        )
        assert config.family() == "qmsum"
        assert config.generation_budget() == 256
        run_dir = run(config)
        records = read_records(run_dir)
        assert len(records) == 3
        assert all(r.ok for r in records)
        evaluate(config)
        rows = read_metric_rows(run_dir)
        assert any(r.get("metric") == "rouge_l" for r in rows)

    def test_one_worker_writes_records_in_a_fixed_order(self, tmp_path, monkeypatch):
        import concurrent.futures

        # Hand the writer every record as one finished set, the case where
        # set iteration order would show.
        monkeypatch.setattr("higen.runner.wait", lambda fs, return_when: concurrent.futures.wait(fs))
        methods = ["direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc"]

        def outputs(name: str) -> list[dict]:
            config = parse_config(
                _config_dict(
                    tmp_path,
                    methods=methods,
                    run_dir=str(tmp_path / name),
                    cache_dir=str(tmp_path / f"{name}_cache"),
                    concurrency=1,
                )
            )
            lines = (run(config) / "outputs.jsonl").read_text(encoding="utf-8").splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"} for line in lines]

        first, second = outputs("a"), outputs("b")
        assert first == second
        doc_ids = sorted({r["doc_id"] for r in first})
        assert [(r["doc_id"], r["method"]) for r in first] == [(d, m) for d in doc_ids for m in methods]

    def test_cache_dir_monotone_growth(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        cache = Path(config.cache_dir)
        run(config)
        first = len(list(cache.glob("*.json")))
        config2 = parse_config(_config_dict(tmp_path, run_dir=str(tmp_path / "run2"), methods=["e2e"]))
        run(config2)
        second = len(list(cache.glob("*.json")))
        assert second >= first > 0


class TestEvaluate:
    def test_rows_per_doc_and_metric(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        run(config)
        metrics_path = evaluate(config)
        rows = read_metric_rows(config.run_dir)
        value_rows = [r for r in rows if "metric" in r]
        # 10 docs x 1 method x 3 metrics (rouge_l, tokens, tokens_alnum)
        assert len(value_rows) == 30
        assert {r["metric"] for r in value_rows} == {"rouge_l", "tokens", "tokens_alnum"}
        assert metrics_path.exists()

    def test_external_scores_joined(self, tmp_path):
        scores_path = tmp_path / "external.jsonl"
        lines = [json.dumps({"doc_id": f"doc{i:02d}", "score": i / 10}) for i in range(10)]
        scores_path.write_text("\n".join(lines) + "\n")
        config = parse_config(
            _config_dict(
                tmp_path,
                metrics={"external_scores": [{"name": "summac", "path": str(scores_path)}]},
            )
        )
        run(config)
        evaluate(config)
        rows = read_metric_rows(config.run_dir)
        summac_rows = [r for r in rows if r.get("metric") == "summac"]
        assert len(summac_rows) == 10

    def test_missing_reference_warning_row(self, tmp_path):
        data_path = tmp_path / "norefs.jsonl"
        data_path.write_text('{"id":"d1","input":"Alpha beta. Gamma delta.","output":""}\n')
        config = parse_config(_config_dict(tmp_path, dataset={"path": str(data_path), "schema": "scrolls_govreport"}))
        run(config)
        evaluate(config)
        rows = read_metric_rows(config.run_dir)
        warnings = [r for r in rows if "warning" in r]
        assert any("rouge_l" in w["warning"] for w in warnings)
        assert not any(r.get("metric") == "rouge_l" for r in rows)

    def test_factscore_rows_with_scripted_judge(self, tmp_path):
        from conftest import ScriptedBackend

        data_path = tmp_path / "one.jsonl"
        data_path.write_text('{"id":"d1","input":"Alpha beta. Gamma delta.","output":"Alpha beta."}\n')
        config = parse_config(
            _config_dict(
                tmp_path,
                dataset={"path": str(data_path), "schema": "scrolls_govreport"},
                metrics={"enable_factscore": True},
            )
        )
        run(config)
        judge = LLMClient(
            ScriptedBackend(["1. Fact one.\n2. Fact two.", "Answer: yes", "Answer: no"]),
            cache_dir=tmp_path / "judge_cache",
        )
        evaluate(config, client=judge)
        rows = read_metric_rows(config.run_dir)
        [fact_row] = [r for r in rows if r.get("metric") == "factscore"]
        assert fact_row["value"] == pytest.approx(0.5)

    def test_factscore_fan_out_writes_the_same_bytes_as_one_worker(self, tmp_path):
        def judge(req):
            head, _, tail = req.user_prompt.rpartition("\n\n")
            if req.user_prompt.startswith("You are given a summary."):
                facts = [f for f in tail.split(". ") if f.strip()][:4]
                return "\n".join(f"{i}. {fact.strip('.')}." for i, fact in enumerate(facts, start=1))
            document = head.lower()
            words = tail.lower().strip(".").split()
            return "Answer: yes" if sum(w in document for w in words) > len(words) / 2 else "Answer: no"

        base = _config_dict(
            tmp_path, methods=["direct", "e2e", "two_stage_lexrank"], metrics={"enable_factscore": True}
        )
        run(parse_config(base))
        written = []
        for workers in (1, 4):
            config = parse_config({**base, "concurrency": workers})
            backend = MockBackend(generate_fn=judge)
            evaluate(config, client=LLMClient(backend, cache_dir=tmp_path / f"judge{workers}", concurrency=workers))
            assert backend.gen_calls > 30
            written.append((Path(config.run_dir) / "metrics.jsonl").read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b'"metric": "factscore"') == 30

    def test_evaluate_never_segments_a_document(self, tmp_path, monkeypatch):
        from higen.corpus import Document

        config = parse_config(
            _config_dict(tmp_path, methods=["direct", "two_stage_lexrank"], metrics={"enable_factscore": True})
        )
        run(config)

        def segmented(document):
            raise AssertionError(f"evaluate segmented {document.id}")

        def judge(req):
            return "1. A fact." if req.user_prompt.startswith("You are given a summary.") else "Answer: yes"

        monkeypatch.setattr(Document, "sentences", property(segmented))
        evaluate(config, client=LLMClient(MockBackend(generate_fn=judge), cache_dir=tmp_path / "judge"))
        rows = read_metric_rows(config.run_dir)
        assert sum(r.get("metric") == "rouge_l" for r in rows) == 20
        assert sum(r.get("metric") == "factscore" for r in rows) == 20

    def test_evaluate_without_outputs_errors(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        with pytest.raises(ConfigError, match="outputs.jsonl"):
            evaluate(config)

    def test_failed_records_get_warning_rows(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        run_dir = Path(config.run_dir)
        run_dir.mkdir(parents=True)
        failed = {
            "doc_id": "doc00",
            "method": "direct",
            "model": "m",
            "highlights": {"method": "direct", "k_requested": 0, "items": []},
            "summary": "",
            "raw_responses": [],
            "fallback_used": False,
            "prompt_tokens": 0,
            "completion_tokens": 0,
            "wall_ms": 0,
            "error": "boom",
            "error_stage": "direct",
            "error_prompt_hash": "ab",
        }
        (run_dir / "outputs.jsonl").write_text(json.dumps(failed) + "\n")
        evaluate(config)
        rows = read_metric_rows(config.run_dir)
        assert rows
        assert all("warning" in r for r in rows)


class TestBuildClient:
    def test_mock_url(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        client = build_client(config)
        assert isinstance(client.backend, MockBackend)

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HIGEN_API_BASE", "mock://echo_first_k")
        config = parse_config(_config_dict(tmp_path, endpoint={}))
        client = build_client(config)
        assert isinstance(client.backend, MockBackend)


class TestFailureBoundary:
    def test_empty_document_fails_one_record_not_the_run(self, tmp_path):
        data_path = tmp_path / "with_empty.jsonl"
        normal = (DATA_DIR / "minicorpus.jsonl").read_text().splitlines()[0]
        data_path.write_text('{"id":"empty","input":"","output":""}\n' + normal + "\n")
        config = parse_config(
            _config_dict(
                tmp_path,
                dataset={"path": str(data_path), "schema": "scrolls_govreport"},
                methods=["direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc"],
            )
        )
        run_dir = run(config)
        records = read_records(run_dir)
        pairs = [(r.doc_id, r.method) for r in records]
        assert len(pairs) == len(set(pairs)) == 10
        [failed] = [r for r in records if not r.ok]
        assert (failed.doc_id, failed.method, failed.error_stage) == ("empty", "two_stage_cc", "attribution")
        assert failed.highlights.method == "two_stage_cc" and failed.highlights.items == ()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["counts"]["two_stage_cc"]["failed"] == 1

    def test_non_higen_exception_becomes_failed_record(self, tmp_path, monkeypatch):
        def broken_highlighter(*args, **kwargs):
            raise RuntimeError("highlighter bug")

        monkeypatch.setattr("higen.pipeline.lexrank_highlights", broken_highlighter)
        config = parse_config(_config_dict(tmp_path, methods=["two_stage_lexrank"]))
        run_dir = run(config)
        records = read_records(run_dir)
        assert len(records) == 10
        assert all(r.error == "highlighter bug" and r.error_stage == "stage1" for r in records)
        assert all(r.error_prompt_hash is None for r in records)  # no prompt was sent
        assert (run_dir / "manifest.json").exists()

    def test_resume_retries_a_failed_pair(self, tmp_path):
        from conftest import ScriptedBackend

        data_path = tmp_path / "one.jsonl"
        data_path.write_text('{"id":"d1","input":"Alpha beta. Gamma delta.","output":"Alpha beta."}\n')
        config = parse_config(_config_dict(tmp_path, dataset={"path": str(data_path), "schema": "scrolls_govreport"}))
        failing = LLMClient(ScriptedBackend([]), cache_dir=config.cache_dir)
        run(config, client=failing)
        [first] = read_records(config.run_dir)
        assert not first.ok and first.error_stage == "direct"

        backend = ScriptedBackend(["Summary: Alpha beta."])
        run(config, client=LLMClient(backend, cache_dir=config.cache_dir))
        assert len(backend.requests) == 1
        [latest] = read_records(config.run_dir)
        assert latest.ok and latest.summary == "Alpha beta."
        assert len((Path(config.run_dir) / "outputs.jsonl").read_text().splitlines()) == 2
        manifest = json.loads((Path(config.run_dir) / "manifest.json").read_text())
        assert manifest["counts"]["direct"] == {"ok": 1, "failed": 0, "fallback": 0}
        evaluate(config)
        assert not any("warning" in r for r in read_metric_rows(config.run_dir))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="concurency"):
            parse_config(_config_dict(tmp_path, concurency=8))

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="methods"):
            parse_config(_config_dict(tmp_path, methods=[]))
