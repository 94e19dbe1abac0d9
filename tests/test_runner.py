from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

import pytest

from higen.corpus import load_dataset, tokenize
from higen.errors import ConfigError, DatasetError
from higen.llm_client import GenRequest, LLMClient, MockBackend, echo_first_k
from higen.pipeline import METHODS, SummaryRecord
from higen.runner import (
    build_client,
    evaluate,
    load_config,
    parse_config,
    read_metric_rows,
    read_records,
    run,
)

from conftest import DATA_DIR, RecordingBackend


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
    """The config as JSON, which the YAML loader reads, with an infinite
    number spelled as YAML spells it (JSON's Infinity is a string to YAML)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_dict(tmp_path, **overrides)).replace("Infinity", ".inf"))
    return path


# The opening sentence of every template of each family.
_OPENING = {"gov": "You are given a report by a government agency.", "qmsum": "Read the following meeting transcript."}

_MINICORPUS_FIELDS = {"id_field": "id", "input_field": "input", "output_field": "output"}


def _requests_sent(tmp_path, **overrides) -> list[GenRequest]:
    """The generation requests a run of all five methods sends."""
    config = parse_config(_config_dict(tmp_path, methods=list(METHODS), **overrides))
    backend = RecordingBackend()
    run(config, client=LLMClient(backend, cache_dir=config.cache_dir))
    assert all(r.ok for r in read_records(config.run_dir))
    return [r for r in backend.requests if isinstance(r, GenRequest)]


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
        assert config.max_tokens is None

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

    def test_qmsum_schema_selects_family(self, tmp_path):
        dataset = {"path": str(DATA_DIR / "qmsum_record.jsonl"), "schema": "scrolls_qmsum"}
        requests = _requests_sent(tmp_path, dataset=dataset, max_tokens=None)
        assert requests
        assert all(r.user_prompt.startswith(_OPENING["qmsum"]) and r.max_tokens == 256 for r in requests)

    @pytest.mark.parametrize(
        ("dataset", "max_tokens", "family", "sent_max_tokens"),
        [
            ({"schema": "scrolls_govreport"}, None, "gov", 1200),
            ({"schema": "generic_jsonl", "field_map": _MINICORPUS_FIELDS}, None, "gov", 1200),
            ({"schema": "scrolls_govreport"}, 77, "gov", 77),
            ({"schema": "scrolls_qmsum", "path": str(DATA_DIR / "qmsum_record.jsonl")}, 77, "qmsum", 77),
        ],
        ids=["govreport", "generic_jsonl", "govreport-max_tokens", "qmsum-max_tokens"],
    )
    def test_each_documents_kind_selects_its_prompts_and_budget(
        self, tmp_path, dataset, max_tokens, family, sent_max_tokens
    ):
        dataset = {"path": str(DATA_DIR / "minicorpus.jsonl"), "limit": 2, **dataset}
        requests = _requests_sent(tmp_path, dataset=dataset, max_tokens=max_tokens)
        assert requests
        assert all(r.user_prompt.startswith(_OPENING[family]) for r in requests)
        assert {r.max_tokens for r in requests} == {sent_max_tokens}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize(
        "case",
        [
            ({"k": "30"}, r"in 'config': k must be an integer >= 1, got '30'"),
            ({"concurrency": "2"}, r"in 'config': concurrency must be an integer >= 1, got '2'"),
            ({"retry": {"attempts": 0}}, r"in 'retry': attempts must be an integer >= 1, got 0"),
            ({"attribution": {"keep_prob": 0}}, r"in 'attribution': keep_prob must be in \(0, 1\), got 0"),
            ({"metrics": {"external_scores": ["x"]}}, r"in 'metrics': external score entries need name and path"),
            ({"methods": ["direct", "direct"]}, r"in 'config': methods must be a non-empty list of distinct methods"),
            ({"attribution": {"m": 1}}, r"in 'attribution': m must be an integer >= 2"),
            ({"attribution": {"lambda_frac": -0.1}}, r"in 'attribution': lambda_frac must be >= 0"),
            ({"lexrank": {"damping": 1}}, r"in 'lexrank': damping must be in \(0, 1\)"),
            ({"retry": {"base_delay": -1}}, r"in 'retry': base_delay must be >= 0"),
            ({"max_tokens": 0}, r"in 'config': max_tokens must be an integer >= 1"),
            ({"k": 2.5}, r"in 'config': k must be an integer >= 1, got 2.5"),
            ({"seed": "7"}, r"in 'config': seed must be an integer, got '7'"),
            ({"model": 5}, r"in 'config': model must be a string, got 5"),
            ({"run_dir": 5}, r"in 'config': run_dir must be a string, got 5"),
            ({"judge_model": 5}, r"in 'config': judge_model must be a string, got 5"),
            ({"cache_dir": 5}, r"in 'config': cache_dir must be a string when set, got 5"),
            ({"dataset": {"path": 5}}, r"in 'dataset': path must be a string, got 5"),
            ({"lexrank": {"threshold": "0.1"}}, r"in 'lexrank': threshold must be in \[0, 1\]"),
            # LexRank's solver tolerance and iteration cap, and the backoff's
            # factor and jitter, are constants.
            ({"lexrank": {"max_iter": "200"}}, r"unknown key\(s\) in 'lexrank': \['max_iter'\]"),
            ({"lexrank": {"tol": 1e-8}}, r"unknown key\(s\) in 'lexrank': \['tol'\]"),
            ({"endpoint": {"timeout": "120"}}, r"in 'endpoint': timeout must be a number > 0, got '120'"),
            ({"endpoint": {"timeout": -1}}, r"in 'endpoint': timeout must be a number > 0, got -1"),
            ({"endpoint": {"base_url": 5}}, r"in 'endpoint': base_url must be a string when set, got 5"),
            ({"endpoint": {"api_key_env": 5}}, r"in 'endpoint': api_key_env must be a string when set, got 5"),
            ({"retry": {"factor": "2"}}, r"unknown key\(s\) in 'retry': \['factor'\]"),
            ({"retry": {"factor": 0.5}}, r"unknown key\(s\) in 'retry': \['factor'\]"),
            ({"retry": {"jitter": "0.2"}}, r"unknown key\(s\) in 'retry': \['jitter'\]"),
            ({"retry": {"jitter": 1}}, r"unknown key\(s\) in 'retry': \['jitter'\]"),
            (
                {"metrics": {"external_scores": [{"name": "x", "path": 5}]}},
                r"in 'metrics': external score path must be a non-empty string, got 5",
            ),
            (
                {"metrics": {"external_scores": [{"name": 7, "path": "s.jsonl"}]}},
                r"in 'metrics': external score name must be a non-empty string, got 7",
            ),
            (
                {"metrics": {"external_scores": [{"name": "x", "path": "s.jsonl", "metod": "direct"}]}},
                r"in 'metrics': unknown key\(s\) in external score entry .*: \['metod'\]",
            ),
            (
                {"metrics": {"external_scores": [{"name": "x", "path": "s.jsonl", "method": "summac"}]}},
                r"in 'metrics': external score method must be unset or one of direct, e2e, ",
            ),
            (
                {"dataset": {"path": "x", "schema": "scrolls_govreport", "field_map": {"id_field": "doc"}}},
                r"in 'dataset': field_map must be unset unless the schema is generic_jsonl, got \{'id_field': 'doc'\}",
            ),
            (
                {"dataset": {"path": "x", "schema": "generic_jsonl", "field_map": {
                    "id_field": "id", "input_field": "text", "output_field": "summary", "query_field": "q",
                }}},
                r"in 'dataset': field_map must be a map with no keys besides id_field, input_field, output_field",
            ),
            # Each document's kind picks the prompts and the budget; no key overrides the family.
            ({"prompt_family": "qmsum"}, r"unknown key\(s\) in 'config': \['prompt_family'\]"),
            ({"align_threshold": 0.5}, r"unknown key\(s\) in 'config': \['align_threshold'\]"),
            # YAML's true and false are bools, which Python counts as ints; no
            # integer or numeric value takes one.
            ({"k": True}, r"in 'config': k must be an integer >= 1, got True"),
            ({"concurrency": True}, r"in 'config': concurrency must be an integer >= 1, got True"),
            ({"seed": False}, r"in 'config': seed must be an integer, got False"),
            ({"max_tokens": True}, r"in 'config': max_tokens must be an integer >= 1, got True"),
            ({"retry": {"attempts": True}}, r"in 'retry': attempts must be an integer >= 1, got True"),
            ({"dataset": {"path": "x", "limit": True}}, r"in 'dataset': limit must be an integer >= 0, got True"),
            ({"lexrank": {"threshold": True}}, r"in 'lexrank': threshold must be in \[0, 1\], got True"),
            ({"lexrank": {"threshold": False}}, r"in 'lexrank': threshold must be in \[0, 1\], got False"),
            ({"attribution": {"lambda_frac": True}}, r"in 'attribution': lambda_frac must be >= 0, got True"),
            ({"retry": {"base_delay": True}}, r"in 'retry': base_delay must be >= 0, got True"),
            ({"endpoint": {"timeout": True}}, r"in 'endpoint': timeout must be a number > 0, got True"),
            # YAML's .inf loads as a float; no timeout, delay or rate is infinite.
            ({"endpoint": {"timeout": math.inf}}, r"in 'endpoint': timeout must be a number > 0, got inf"),
            ({"retry": {"base_delay": math.inf}}, r"in 'retry': base_delay must be >= 0, got inf"),
            ({"attribution": {"lambda_frac": math.inf}}, r"in 'attribution': lambda_frac must be >= 0, got inf"),
            # A quoted seed would draw another sample than the integer.
            ({"dataset": {"path": "x", "shuffle_seed": "7"}}, r"in 'dataset': shuffle_seed must be an integer when set, got '7'"),
            ({"dataset": {"path": "x", "shuffle_seed": 2.5}}, r"in 'dataset': shuffle_seed must be an integer when set, got 2.5"),
            # A quoted "no" is truthy and would turn the judge fan-out on.
            ({"metrics": {"enable_factscore": "no"}}, r"in 'metrics': enable_factscore must be true or false, got 'no'"),
            ({"metrics": {"enable_factscore": 1}}, r"in 'metrics': enable_factscore must be true or false, got 1"),
        ],
        ids=lambda case: json.dumps(case[0]),
    )
    def test_a_bad_value_is_a_config_error_naming_its_section(self, tmp_path, case):
        overrides, message = case
        with pytest.raises(ConfigError, match=message):
            load_config(_write_config(tmp_path, **overrides))

    def test_the_readme_quickstart_config_parses(self):
        import yaml

        readme = (DATA_DIR.parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Quickstart", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        config = parse_config(yaml.safe_load(block))
        assert config.methods == ["direct", "two_stage_gen", "two_stage_lexrank", "two_stage_cc"]
        assert (config.k, config.lexrank.threshold, config.lexrank.damping) == (30, 0.1, 0.85)

    def test_a_null_nested_key_takes_its_default(self, tmp_path):
        config = load_config(_write_config(tmp_path, attribution={"m": None}, metrics={"external_scores": None}))
        assert config.attribution.m == 64 and config.metrics.external_scores == []

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
        backend = MockBackend()
        client = LLMClient(backend, cache_dir=config.cache_dir, concurrency=2)
        run_dir = run(config, client=client)
        records = read_records(run_dir)
        assert len(records) == 10
        assert all(r.ok for r in records)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["counts"]["direct"] == {"ok": 10, "failed": 0, "fallback": 0}

    def test_the_mock_backend_keeps_only_its_counts(self, tmp_path):
        config = parse_config(_config_dict(tmp_path, methods=["direct", "two_stage_cc"]))
        client = build_client(config)
        backend = client.backend
        run(config, client=client)
        assert backend.gen_calls > 0 and backend.score_calls > 0
        assert set(vars(backend)) == {"generate_fn", "score_fn", "gen_calls", "score_calls", "_lock"}

    def test_resume_makes_zero_calls(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        run(config)
        backend = MockBackend()
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
        # A crash leaves the records flushed so far and a half-written line.
        config = parse_config(_config_dict(tmp_path, concurrency=1))
        run(config)
        outputs = Path(config.run_dir) / "outputs.jsonl"
        lines = outputs.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 10
        outputs.write_text("".join(lines[:4]) + lines[4][: len(lines[4]) // 2], encoding="utf-8")
        kept = {(r.doc_id, r.method) for r in read_records(config.run_dir)}
        assert len(kept) == 4

        run(config)
        resumed = outputs.read_text(encoding="utf-8").splitlines()[5:]
        redone = [(r["doc_id"], r["method"]) for r in map(json.loads, resumed)]
        all_pairs = {(json.loads(line)["doc_id"], "direct") for line in lines}
        assert sorted(redone) == sorted(all_pairs - kept)
        records = read_records(config.run_dir)
        pairs = [(r.doc_id, r.method) for r in records]
        assert len(pairs) == len(set(pairs)) == 10

    def test_a_line_cut_inside_a_utf8_character_is_skipped_on_resume(self, tmp_path):
        config = parse_config(_config_dict(tmp_path, concurrency=1))
        run(config)
        outputs = Path(config.run_dir) / "outputs.jsonl"
        lines = outputs.read_bytes().splitlines(keepends=True)
        fragment = lines[9].replace(b'"summary": "', '"summary": "Caf\u00e9 '.encode("utf-8"))
        outputs.write_bytes(b"".join(lines[:9]) + fragment[: fragment.index(b"\xc3") + 1])
        assert len(read_records(config.run_dir)) == 9
        run(config)
        assert len(read_records(config.run_dir)) == 10

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
        backend = MockBackend()
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
        run_dir = run(config)
        records = read_records(run_dir)
        assert len(records) == 3
        assert all(r.ok for r in records)
        evaluate(config)
        rows = read_metric_rows(run_dir)
        assert any(r.get("metric") == "rouge_l" for r in rows)

    def test_one_worker_writes_records_in_a_fixed_order(self, tmp_path):
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

    def test_four_workers_write_the_lines_of_one_in_task_order(self, tmp_path):
        methods = ["direct", "e2e", "two_stage_lexrank"]

        def uneven(req):
            # 0-7 ms by prompt length, so four workers finish tasks out of task order.
            time.sleep(0.001 * (7 - len(req.user_prompt) % 8))
            return echo_first_k(req)

        def outputs(concurrency: int) -> list[dict]:
            config = parse_config(
                _config_dict(
                    tmp_path,
                    methods=methods,
                    run_dir=str(tmp_path / f"run{concurrency}"),
                    cache_dir=None,
                    concurrency=concurrency,
                )
            )
            client = LLMClient(MockBackend(generate_fn=uneven), concurrency=concurrency)
            lines = (run(config, client=client) / "outputs.jsonl").read_text(encoding="utf-8").splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"} for line in lines]

        one, four = outputs(1), outputs(4)
        assert four == one
        doc_ids = sorted({r["doc_id"] for r in one})
        assert [(r["doc_id"], r["method"]) for r in four] == [(d, m) for d in doc_ids for m in methods]

    def test_an_interrupted_write_cancels_the_tasks_not_started(self, tmp_path, monkeypatch):
        from higen.pipeline import SummaryRecord

        def slow(req):
            time.sleep(0.02)
            return echo_first_k(req)

        def interrupt(record):
            raise KeyboardInterrupt

        monkeypatch.setattr(SummaryRecord, "to_dict", interrupt)
        config = parse_config(_config_dict(tmp_path, cache_dir=None, concurrency=1))
        backend = MockBackend(generate_fn=slow)
        with pytest.raises(KeyboardInterrupt):
            run(config, client=LLMClient(backend, concurrency=1))
        # direct makes one generation per document; the run has ten.
        assert 1 <= backend.gen_calls <= 3

    def test_a_failed_manifest_write_leaves_the_previous_manifest(self, tmp_path, monkeypatch):
        # The manifest is written whole to a temporary file and renamed over
        # the old one, so a crash mid-write leaves the old one, not a part.
        config = parse_config(_config_dict(tmp_path, cache_dir=None))
        run(config)
        manifest = Path(config.run_dir) / "manifest.json"
        before = manifest.read_bytes()

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("os.replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            run(config)
        assert manifest.read_bytes() == before
        assert sorted(path.name for path in Path(config.run_dir).iterdir()) == ["manifest.json", "outputs.jsonl"]

    def test_each_document_is_released_after_its_last_record(self, tmp_path, monkeypatch):
        import higen.runner as runner_mod

        documents = load_dataset(DATA_DIR / "minicorpus.jsonl", "scrolls_govreport")
        monkeypatch.setattr(runner_mod, "_load_documents", lambda config: list(documents))
        config = parse_config(_config_dict(tmp_path, methods=["two_stage_lexrank", "two_stage_cc"]))
        run(config)
        records = read_records(config.run_dir)
        assert len(records) == 20 and all(r.ok for r in records)
        artifacts = {"sentences", "token_index", "labelled_sentences"}
        assert [sorted(artifacts & vars(doc).keys()) for doc in documents] == [[]] * len(documents)
        # released artifacts are rebuilt on the next read
        assert [len(doc.sentences) for doc in documents] == [5] * len(documents)

    def test_a_finished_document_is_collectable_while_later_documents_run(self, tmp_path, monkeypatch):
        import gc
        import weakref

        import higen.runner as runner_mod

        refs: dict[str, weakref.ref] = {}
        plain_load, plain_run_method = runner_mod._load_documents, runner_mod.run_method

        def load(config):
            documents = plain_load(config)
            refs.update((doc.id, weakref.ref(doc)) for doc in documents)
            return documents

        collected_before_last = []

        def run_method(client, document, method, params):
            if document.id == max(refs) and not collected_before_last:
                # The records of the earlier documents are written by the
                # main thread while this task runs; wait for them.
                earlier = [ref for doc_id, ref in sorted(refs.items()) if doc_id != document.id]
                deadline = time.monotonic() + 5.0
                while any(ref() is not None for ref in earlier) and time.monotonic() < deadline:
                    gc.collect()
                    time.sleep(0.01)
                collected_before_last.append([ref() is None for ref in earlier])
            return plain_run_method(client, document, method, params)

        monkeypatch.setattr(runner_mod, "_load_documents", load)
        monkeypatch.setattr(runner_mod, "run_method", run_method)
        config = parse_config(_config_dict(tmp_path, methods=["direct", "e2e"], concurrency=1))
        run(config)
        assert collected_before_last == [[True] * 9]
        assert len(read_records(config.run_dir)) == 20
        manifest = json.loads((Path(config.run_dir) / "manifest.json").read_text())
        assert manifest["corpus_size"] == 10

    def test_workers_run_at_most_two_tasks_per_worker_ahead_of_the_writer(self, tmp_path, monkeypatch):
        import gc
        import weakref

        import higen.runner as runner_mod

        refs: dict[str, weakref.ref] = {}
        plain_load, plain_run_method = runner_mod._load_documents, runner_mod.run_method
        plain_to_dict = SummaryRecord.to_dict

        def load(config):
            documents = plain_load(config)
            refs.update((doc.id, weakref.ref(doc)) for doc in documents)
            return documents

        alive_behind: dict[str, list[str]] = {}

        def run_method(client, document, method, params):
            # The documents two or more tasks behind this one, still alive.
            gc.collect()
            ids = sorted(refs)
            behind = ids[: max(ids.index(document.id) - 1, 0)]
            alive_behind[document.id] = [doc_id for doc_id in behind if refs[doc_id]() is not None]
            return plain_run_method(client, document, method, params)

        def slow_to_dict(record):
            # A slow writer, which workers free to run ahead would outpace.
            time.sleep(0.1)
            return plain_to_dict(record)

        monkeypatch.setattr(runner_mod, "_load_documents", load)
        monkeypatch.setattr(runner_mod, "run_method", run_method)
        monkeypatch.setattr(SummaryRecord, "to_dict", slow_to_dict)
        config = parse_config(_config_dict(tmp_path, concurrency=1, cache_dir=None))
        run(config)
        # At one worker, task j is submitted only once task j - 2 is written,
        # and its document then has no other task to hold it.
        assert len(alive_behind) == 10
        assert alive_behind == {doc_id: [] for doc_id in refs}
        assert len(read_records(config.run_dir)) == 10

    def test_cache_dir_monotone_growth(self, tmp_path):
        config = parse_config(_config_dict(tmp_path))
        cache = Path(config.cache_dir)
        run(config)
        first = len(list(cache.glob("*.json")))
        config2 = parse_config(_config_dict(tmp_path, run_dir=str(tmp_path / "run2"), methods=["e2e"]))
        run(config2)
        second = len(list(cache.glob("*.json")))
        assert second >= first > 0


def _files(*directories) -> dict:
    return {path: path.read_bytes() for directory in directories for path in Path(directory).rglob("*") if path.is_file()}


class TestResumeUnderAnotherConfig:
    def test_a_rerun_with_another_model_and_k_is_refused_and_writes_nothing(self, tmp_path):
        methods = ["direct", "two_stage_lexrank"]
        first = parse_config(_config_dict(tmp_path, methods=methods, model="a", k=30))
        run(first)
        before = _files(first.run_dir, first.cache_dir)
        changed = parse_config(_config_dict(tmp_path, methods=methods, model="b", k=5))
        backend = MockBackend()
        with pytest.raises(ConfigError, match=r"another config \(model 'a' -> 'b'; k 30 -> 5\)"):
            run(changed, client=LLMClient(backend, cache_dir=changed.cache_dir))
        assert backend.calls == 0 and _files(first.run_dir, first.cache_dir) == before
        assert {r.model for r in read_records(first.run_dir)} == {"a"}

    def test_a_run_killed_before_its_end_is_checked_too(self, tmp_path, monkeypatch):
        def interrupt(record):
            raise KeyboardInterrupt

        config = parse_config(_config_dict(tmp_path, concurrency=1))
        with monkeypatch.context() as patch:
            patch.setattr(SummaryRecord, "to_dict", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run(config)
        manifest = json.loads((Path(config.run_dir) / "manifest.json").read_text())
        assert set(manifest) == {"artifact_version", "config", "started"}
        with pytest.raises(ConfigError, match=r"another config \(k 2 -> 3\)"):
            run(parse_config(_config_dict(tmp_path, k=3)))
        run(config)
        assert json.loads((Path(config.run_dir) / "manifest.json").read_text())["counts"]["direct"]["ok"] == 10

    @pytest.mark.parametrize(
        "change",
        [{"model": "b"}, {"k": 3}, {"max_tokens": 100}, {"seed": 1}, {"attribution": {"m": 16}}, {"lexrank": {"threshold": 0.2}}],
        ids=lambda change: next(iter(change)),
    )
    def test_each_pipeline_param_is_compared(self, tmp_path, change):
        run(parse_config(_config_dict(tmp_path)))
        with pytest.raises(ConfigError, match=rf"another config \({next(iter(change))} "):
            run(parse_config(_config_dict(tmp_path, **change)))

    def test_more_methods_a_larger_limit_and_other_run_settings_resume(self, tmp_path):
        run(parse_config(_config_dict(tmp_path, dataset={**_config_dict(tmp_path)["dataset"], "limit": 5})))
        wider = parse_config(
            _config_dict(
                tmp_path,
                methods=["direct", "e2e"],
                concurrency=1,
                judge_model="another-judge",
                cache_dir=str(tmp_path / "another-cache"),
                retry={"attempts": 2},
            )
        )
        backend = MockBackend()
        run(wider, client=LLMClient(backend, cache_dir=wider.cache_dir))
        assert backend.gen_calls == 5 + 10  # direct for the 5 new documents, e2e for all 10
        assert len(read_records(wider.run_dir)) == 20

    @pytest.mark.parametrize("text", ["not json", "[]", '{"config": []}', "{}"])
    def test_a_manifest_without_a_readable_config_is_refused(self, tmp_path, text):
        config = parse_config(_config_dict(tmp_path))
        Path(config.run_dir).mkdir()
        (Path(config.run_dir) / "manifest.json").write_text(text)
        with pytest.raises(ConfigError, match="could not read the config in"):
            run(config)
        assert sorted(path.name for path in Path(config.run_dir).iterdir()) == ["manifest.json"]


def _oracle_rouge_l_f1(candidate: str, reference: str) -> float:
    """ROUGE-L F1 as evaluate computed it before a document's records shared
    its reference: both texts tokenized, and the longer one's bit table built,
    for every record."""
    cand, ref = tokenize(candidate), tokenize(reference)
    if not cand or not ref:
        return 0.0
    a, b = (ref, cand) if len(cand) < len(ref) else (cand, ref)
    positions: dict[str, int] = {}
    for i, item in enumerate(a):
        positions[item] = positions.get(item, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for item in b:
        u = v & positions.get(item, 0)
        v = ((v + u) | (v - u)) & full
    lcs = len(a) - v.bit_count()
    precision, recall = lcs / len(cand), lcs / len(ref)
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


class TestEvaluate:
    @pytest.mark.parametrize(
        ("name", "schema"), [("minicorpus.jsonl", "scrolls_govreport"), ("qmsum_record.jsonl", "scrolls_qmsum")]
    )
    def test_rouge_l_equals_the_per_record_oracle_on_the_fixture_datasets(self, tmp_path, name, schema):
        dataset = {"path": str(DATA_DIR / name), "schema": schema}
        config = parse_config(_config_dict(tmp_path, dataset=dataset, methods=list(METHODS), attribution={"m": 16}))
        run(config)
        evaluate(config)
        references = {doc.id: doc.reference_summary for doc in load_dataset(DATA_DIR / name, schema)}
        records = read_records(config.run_dir)
        assert len(records) == len(METHODS) * len(references) and all(r.ok for r in records)
        rows = read_metric_rows(config.run_dir)
        values = {(r["doc_id"], r["method"]): r["value"] for r in rows if r.get("metric") == "rouge_l"}
        assert values == {(r.doc_id, r.method): _oracle_rouge_l_f1(r.summary, references[r.doc_id]) for r in records}
        # The minicorpus has candidates shorter and longer than their
        # reference, so both orientations of the LCS; the transcript's are all longer.
        longer = {len(tokenize(r.summary)) >= len(tokenize(references[r.doc_id])) for r in records}
        assert longer == ({True, False} if name == "minicorpus.jsonl" else {True})

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

    def test_a_null_output_is_no_reference_and_skips_rouge_l(self, tmp_path):
        data_path = tmp_path / "null.jsonl"
        data_path.write_text('{"id":"d1","input":"Alpha beta. Gamma delta.","output":null}\n')
        config = parse_config(_config_dict(tmp_path, dataset={"path": str(data_path), "schema": "scrolls_govreport"}))
        run(config)
        evaluate(config)
        rows = read_metric_rows(config.run_dir)
        assert {"doc_id": "d1", "method": "direct", "warning": "no reference summary; rouge_l skipped"} in rows
        assert not any(row.get("metric") == "rouge_l" for row in rows)

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

    def test_external_scores_join_only_ok_pairs(self, tmp_path):
        data_path = tmp_path / "two.jsonl"
        data_path.write_text(
            '{"id":"d1","input":"Alpha beta. Gamma delta.","output":"Alpha."}\n{"id":"d2","input":"","output":"B."}\n'
        )
        scores_path = tmp_path / "external.jsonl"
        scores_path.write_text("".join(json.dumps({"doc_id": d, "score": 0.5}) + "\n" for d in ("d1", "d2", "ghost")))
        config = parse_config(
            _config_dict(
                tmp_path,
                dataset={"path": str(data_path), "schema": "scrolls_govreport"},
                methods=["direct", "two_stage_cc"],
                metrics={"external_scores": [{"name": "summac", "path": str(scores_path)}]},
            )
        )
        run(config)
        evaluate(config)
        records = read_records(config.run_dir)
        assert ("d2", "two_stage_cc") in {(r.doc_id, r.method) for r in records if not r.ok}
        joined = {(r["doc_id"], r["method"]) for r in read_metric_rows(config.run_dir) if r.get("metric") == "summac"}
        assert joined == {(r.doc_id, r.method) for r in records if r.ok}

    def test_a_missing_external_scores_file_fails_before_any_judge_call(self, tmp_path):
        present = tmp_path / "present.jsonl"
        present.write_text(json.dumps({"doc_id": "doc00", "score": 0.5}) + "\n")
        missing = tmp_path / "absent.jsonl"
        external = [{"name": "summac", "path": str(present)}, {"name": "bert", "path": str(missing)}]
        config = parse_config(
            _config_dict(tmp_path, metrics={"enable_factscore": True, "external_scores": external})
        )
        run(config)
        backend = RecordingBackend()
        with pytest.raises(ConfigError) as raised:
            evaluate(config, client=LLMClient(backend, cache_dir=tmp_path / "judge"))
        assert str(raised.value) == f"external scores file not found: {missing}"
        assert backend.requests == []
        assert not (Path(config.run_dir) / "metrics.jsonl").exists()

    def test_a_damaged_external_scores_line_fails_before_any_judge_call(self, tmp_path):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({"doc_id": "doc00", "score": 0.5}) + "\nnot json\n")
        dataset = {"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport", "limit": 2}
        metrics = {"enable_factscore": True, "external_scores": [{"name": "summac", "path": str(scores)}]}
        config = parse_config(_config_dict(tmp_path, dataset=dataset, metrics=metrics))
        run(config)
        backend = RecordingBackend()
        with pytest.raises(DatasetError, match=f"{scores}:2: malformed JSON line"):
            evaluate(config, client=LLMClient(backend, cache_dir=tmp_path / "judge"))
        assert backend.requests == []
        assert not (Path(config.run_dir) / "metrics.jsonl").exists()

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

    def test_a_failed_verification_leaves_only_its_factscore_absent(self, tmp_path):
        from higen.errors import EndpointError

        def judge(req):
            if req.user_prompt.startswith("You are given a summary."):
                return "1. A fact.\n2. Another fact."
            raise EndpointError(500, "judge down")

        config = parse_config(
            _config_dict(tmp_path, methods=["direct", "two_stage_lexrank"], metrics={"enable_factscore": True})
        )
        run(config)
        evaluate(config, client=LLMClient(MockBackend(generate_fn=judge), cache_dir=tmp_path / "judge"))
        rows = read_metric_rows(config.run_dir)
        ok_pairs = {(r.doc_id, r.method) for r in read_records(config.run_dir) if r.ok}
        assert ok_pairs
        assert {(r["doc_id"], r["method"]) for r in rows if r.get("metric") == "rouge_l"} == ok_pairs
        assert not any(r.get("metric") == "factscore" for r in rows)
        warning = "factscore verification failed; score absent"
        assert {(r["doc_id"], r["method"]) for r in rows if r.get("warning") == warning} == ok_pairs

    def test_a_factscore_without_a_parseable_verdict_says_so(self, tmp_path):
        def judge(req):
            return "1. A fact." if req.user_prompt.startswith("You are given a summary.") else "I cannot tell"

        config = parse_config(_config_dict(tmp_path, methods=["direct"], metrics={"enable_factscore": True}))
        run(config)
        evaluate(config, client=LLMClient(MockBackend(generate_fn=judge), cache_dir=tmp_path / "judge"))
        rows = read_metric_rows(config.run_dir)
        warnings = {r["warning"] for r in rows if "warning" in r}
        assert warnings == {"factscore has no parseable verdict; score absent"}
        assert sum(r.get("metric") == "rouge_l" for r in rows) == 10

    def test_a_judge_bug_propagates_out_of_evaluate(self, tmp_path):
        def judge(req):
            raise RuntimeError("judge bug")

        config = parse_config(_config_dict(tmp_path, methods=["direct"], metrics={"enable_factscore": True}))
        run(config)
        with pytest.raises(RuntimeError, match="judge bug"):
            evaluate(config, client=LLMClient(MockBackend(generate_fn=judge)))

    def test_one_record_fills_the_in_flight_bound(self, tmp_path):
        lock = threading.Lock()
        in_flight = [0]
        peaks = []
        threads = set()

        def judge(req):
            with lock:
                in_flight[0] += 1
                peaks.append(in_flight[0])
                threads.add(threading.get_ident())
            try:
                time.sleep(0.02)
                if req.user_prompt.startswith("You are given a summary."):
                    return "\n".join(f"{i}. Fact number {i}." for i in range(1, 7))
                return "Answer: yes"
            finally:
                with lock:
                    in_flight[0] -= 1

        data_path = tmp_path / "one.jsonl"
        data_path.write_text('{"id":"d1","input":"Alpha beta. Gamma delta.","output":"Alpha beta."}\n')
        config = parse_config(
            _config_dict(
                tmp_path,
                dataset={"path": str(data_path), "schema": "scrolls_govreport"},
                concurrency=3,
                metrics={"enable_factscore": True},
            )
        )
        run(config)
        backend = MockBackend(generate_fn=judge)
        evaluate(config, client=LLMClient(backend, concurrency=3))
        assert backend.gen_calls == 7
        assert max(peaks) == 3
        assert len(threads) <= 3
        [fact_row] = [r for r in read_metric_rows(config.run_dir) if r.get("metric") == "factscore"]
        assert fact_row["value"] == 1.0

    def test_without_a_cache_each_judge_request_is_sent_once(self, tmp_path, monkeypatch):
        import higen.metrics as metrics_mod

        # Small windows, so a statement may need several of them.
        monkeypatch.setattr(metrics_mod, "VERIFY_CHUNK_TOKENS", 12)
        monkeypatch.setattr(metrics_mod, "VERIFY_CHUNK_OVERLAP", 2)
        config = parse_config(
            _config_dict(
                tmp_path,
                methods=["direct", "e2e", "two_stage_lexrank"],
                concurrency=4,
                metrics={"enable_factscore": True},
            )
        )
        run(config)
        backend = RecordingBackend()
        evaluate(config, client=LLMClient(backend, concurrency=4))

        prompts = [req.user_prompt for req in backend.requests]
        assert len(prompts) == len(set(prompts))
        extractions = [p for p in prompts if p.startswith("You are given a summary.")]
        summaries = {r.summary for r in read_records(config.run_dir) if r.ok}
        assert len(extractions) == len(summaries)
        # The records share facts, and some facts need more than one window,
        # so a record-by-record judge without a cache sends some requests again.
        statements = [
            (r.doc_id, statement)
            for r in read_records(config.run_dir)
            if r.ok
            for statement in metrics_mod.extract_facts(r.summary, LLMClient(MockBackend()), "j")
        ]
        assert len(statements) > len(set(statements))
        assert len(prompts) - len(extractions) > len(set(statements))
        assert sum(r.get("metric") == "factscore" for r in read_metric_rows(config.run_dir)) == 30

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

    def test_no_endpoint_is_a_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HIGEN_API_BASE", raising=False)
        with pytest.raises(ConfigError, match="no endpoint configured"):
            build_client(parse_config(_config_dict(tmp_path, endpoint={})))

    def test_the_key_is_read_from_api_key_env_else_higen_api_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HIGEN_API_KEY", "default-key")
        monkeypatch.setenv("OTHER_KEY", "other-key")
        for endpoint, key in (({}, "default-key"), ({"api_key_env": "OTHER_KEY"}, "other-key")):
            config = parse_config(_config_dict(tmp_path, endpoint={"base_url": "http://localhost:1", **endpoint}))
            assert build_client(config).backend.api_key == key


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

    def test_a_lone_surrogate_in_a_document_fails_the_run_before_any_record(self, tmp_path):
        # Every prompt and cache key of the document would be UTF-8 it has no
        # form in; the dataset line is named instead of failing each record.
        data_path = tmp_path / "lone.jsonl"
        normal = (DATA_DIR / "minicorpus.jsonl").read_text().splitlines()[0]
        data_path.write_text(normal + "\n" + json.dumps({"id": "bad", "input": "Emoji \ud83d here.", "output": "A."}) + "\n")
        config = parse_config(
            _config_dict(tmp_path, dataset={"path": str(data_path), "schema": "scrolls_govreport"}, methods=["direct"])
        )
        with pytest.raises(DatasetError, match=r"lone\.jsonl:2: field 'input' holds a lone surrogate"):
            run(config)
        assert not (tmp_path / "run").exists() and not (tmp_path / "cache").exists()

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
