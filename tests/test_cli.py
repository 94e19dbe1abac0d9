from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from higen.cli import main
from higen.llm_client import LLMClient, MockBackend

from conftest import DATA_DIR, RecordingBackend


def _write_config(tmp_path, **overrides) -> Path:
    config = {
        "dataset": {"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport", "limit": 3},
        "methods": ["direct"],
        "model": "mock-model",
        "run_dir": str(tmp_path / "run"),
        "cache_dir": str(tmp_path / "cache"),
        "endpoint": {"base_url": "mock://echo_first_k?scorer=overlap"},
        "k": 2,
        "concurrency": 1,
        "max_tokens": 200,
        "attribution": {"m": 8},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main([]) == 1
        assert main(["run"]) == 1
        assert main(["frobnicate"]) == 1

    def test_config_error_is_2(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        assert main(["run", "-c", str(missing)]) == 2

    def test_a_value_of_the_wrong_type_is_2(self, tmp_path, capsys):
        assert main(["run", "-c", str(_write_config(tmp_path, k="30"))]) == 2
        assert "config error: invalid value in 'config': k must be an integer >= 1, got '30'" in capsys.readouterr().err

    def test_a_misspelled_mock_url_is_2(self, tmp_path, capsys):
        path = _write_config(tmp_path, endpoint={"base_url": "mock://echo_first_k?scorer=overlapp"})
        assert main(["run", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: unknown mock endpoint 'mock://echo_first_k?scorer=overlapp';"
            " the mock is 'mock://echo_first_k?scorer=overlap'"
        ]

    def test_a_missing_dataset_file_is_2_and_creates_no_directory(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        path = _write_config(tmp_path, dataset={"path": str(missing), "schema": "scrolls_govreport"})
        assert main(["run", "-c", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: dataset file not found: {missing}"]
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "cache").exists()

    def test_a_malformed_dataset_line_is_2_and_creates_no_directory(self, tmp_path, capsys):
        data_path = tmp_path / "bad.jsonl"
        data_path.write_text((DATA_DIR / "minicorpus.jsonl").read_text().splitlines()[0] + "\nnot json\n")
        path = _write_config(tmp_path, dataset={"path": str(data_path), "schema": "scrolls_govreport"})
        assert main(["run", "-c", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"dataset error: {data_path}:2: malformed JSON line")
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "cache").exists()

    def test_a_bad_endpoint_is_2_and_creates_no_run_directory(self, tmp_path, capsys):
        path = _write_config(tmp_path, endpoint={"base_url": "mock://x"})
        assert main(["run", "-c", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown mock endpoint 'mock://x'")
        assert not (tmp_path / "run").exists()

    def test_partial_failures_are_3(self, tmp_path, monkeypatch):
        # A generator that never answers with the "Summary:" marker fails every record.
        backend = MockBackend(generate_fn=lambda req: "The assistant rambles without the requested structure.")
        monkeypatch.setattr("higen.runner.build_client", lambda config: LLMClient(backend, cache_dir=tmp_path / "c"))
        path = _write_config(tmp_path)
        assert main(["run", "-c", str(path)]) == 3
        records = [
            json.loads(line)
            for line in (tmp_path / "run" / "outputs.jsonl").read_text().splitlines()
        ]
        assert records
        assert all(r["error"] for r in records)

    def test_clean_run_is_0(self, tmp_path):
        path = _write_config(tmp_path)
        assert main(["run", "-c", str(path)]) == 0

    def test_empty_document_run_completes_with_3(self, tmp_path):
        data_path = tmp_path / "with_empty.jsonl"
        normal = (DATA_DIR / "minicorpus.jsonl").read_text().splitlines()[0]
        data_path.write_text('{"id":"empty","input":"","output":""}\n' + normal + "\n")
        path = _write_config(
            tmp_path,
            dataset={"path": str(data_path), "schema": "scrolls_govreport"},
            methods=["direct", "two_stage_cc"],
        )
        assert main(["run", "-c", str(path)]) == 3
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_report_without_manifest_is_2(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        ("argv", "bad"),
        [
            (["report", "--run-dir", "{truncated_run}"], "{truncated_run}/manifest.json"),
            (["report", "--run-dir", "{latin1_run}"], "{latin1_run}/manifest.json"),
            (["report", "--run-dir", "{list_run}"], "{list_run}/manifest.json"),
            (["report", "--run-dir", "{list_config_run}"], "{list_config_run}/manifest.json"),
            (["report", "--run-dir", "{list_dataset_run}"], "{list_dataset_run}/manifest.json"),
            (["report", "--run-dir", "{number_path_run}"], "{number_path_run}/manifest.json"),
            (["report", "--run-dir", "{number_methods_run}"], "{number_methods_run}/manifest.json"),
            (["report", "--run-dir", "{number_model_run}"], "{number_model_run}/manifest.json"),
            (["highlight", "--method", "lexrank", "--doc", "{latin1}"], "{latin1}"),
            (["attribute", "--doc", "{latin1}", "--response", "{response}", "-c", "{config}"], "{latin1}"),
            (["attribute", "--doc", "{doc}", "--response", "{latin1}", "-c", "{config}"], "{latin1}"),
            (["run", "-c", "{latin1}"], "{latin1}"),
        ],
        ids=[
            "truncated-manifest", "non-utf8-manifest", "non-object-manifest",
            "non-object-manifest-config", "non-object-manifest-dataset",
            "non-string-manifest-dataset-path", "non-list-manifest-methods", "non-string-manifest-model",
            "highlight-doc", "attribute-doc", "response", "config",
        ],
    )
    def test_an_unusable_input_file_is_a_config_error(self, tmp_path, capsys, argv, bad):
        manifests = {
            "truncated_run": b'{"config": {"methods": [',
            "latin1_run": b'{"model": "\xe9"}',
            "list_run": b"[]",
            "list_config_run": b'{"config": []}',
            "list_dataset_run": b'{"config": {"methods": ["direct"], "dataset": []}}',
            "number_path_run": b'{"config": {"dataset": {"path": 5}}}',
            "number_methods_run": b'{"config": {"methods": 5}}',
            "number_model_run": b'{"config": {"model": 5}}',
        }
        paths = {name: tmp_path / name for name in (*manifests, "latin1", "doc", "response")}
        paths["config"] = _write_config(tmp_path)
        paths["doc"].write_text("Alpha one here. Beta two there.", encoding="utf-8")
        paths["response"].write_text("Alpha one here.", encoding="utf-8")
        paths["latin1"].write_bytes("Caf\u00e9 one here. Beta two there.".encode("latin-1"))
        for run_dir, manifest in manifests.items():
            paths[run_dir].mkdir()
            (paths[run_dir] / "manifest.json").write_bytes(manifest)
        names = {name: str(path) for name, path in paths.items()}
        assert main([arg.format(**names) for arg in argv]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and bad.format(**names) in line


class TestHighlightCommand:
    def test_lexrank_prints_numbered_sentences(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        assert main(["highlight", "--method", "lexrank", "--doc", str(doc_path), "-k", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[0].startswith("1. ")

    def test_a_k_below_1_is_a_usage_error(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there.")
        for k in ("0", "-1"):
            assert main(["highlight", "--method", "lexrank", "--doc", str(doc_path), "-k", k]) == 1
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("usage error: ") and "k must be an integer >= 1" in line

    def test_k_defaults_to_the_configs_k_or_30(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text(" ".join(f"Sentence number {i} talks about topic {i}." for i in range(40)))
        assert main(["highlight", "--method", "lexrank", "--doc", str(doc_path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 30
        config = _write_config(tmp_path, k=3)
        assert main(["highlight", "--method", "lexrank", "--doc", str(doc_path), "-c", str(config)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert main(["highlight", "--method", "lexrank", "--doc", str(doc_path), "-c", str(config), "-k", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_lexrank_similarity_dump(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there.")
        dump = tmp_path / "sim.csv"
        rc = main(
            ["highlight", "--method", "lexrank", "--doc", str(doc_path), "-k", "1",
             "--dump-similarity", str(dump)]
        )
        assert rc == 0
        rows = dump.read_text().strip().splitlines()
        assert len(rows) == 2
        assert len(rows[0].split(",")) == 2

    def test_generative_needs_config(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one. Beta two.")
        assert main(["highlight", "--method", "generative", "--doc", str(doc_path)]) == 2

    def test_generative_with_mock_config(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "generative", "--doc", str(doc_path), "-k", "2", "-c", str(config)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["1. Alpha one here.", "2. Beta two there."]

    def test_generative_follows_the_document_not_the_configs_schema(self, tmp_path, capsys, monkeypatch):
        backend = RecordingBackend()
        monkeypatch.setattr("higen.cli.build_client", lambda config: LLMClient(backend, cache_dir=tmp_path / "c"))
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        dataset = {"path": str(DATA_DIR / "qmsum_record.jsonl"), "schema": "scrolls_qmsum"}
        config = _write_config(tmp_path, dataset=dataset, max_tokens=None)
        rc = main(["highlight", "--method", "generative", "--doc", str(doc_path), "-k", "2", "-c", str(config)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["1. Alpha one here.", "2. Beta two there."]
        [request] = backend.requests
        assert request.user_prompt.startswith("You are given a report by a government agency.")
        assert request.max_tokens == 1200

    def test_contextcite_with_mock_config(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "contextcite", "--doc", str(doc_path), "-k", "2", "-c", str(config)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out  # overlap scorer gives the draft's source sentences positive weight

    def test_contextcite_makes_only_the_draft_call(self, tmp_path, capsys, monkeypatch):
        backend = MockBackend()
        monkeypatch.setattr("higen.cli.build_client", lambda config: LLMClient(backend, cache_dir=tmp_path / "c"))
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "contextcite", "--doc", str(doc_path), "-k", "2", "-c", str(config)])
        assert rc == 0
        assert backend.gen_calls == 1
        assert len(capsys.readouterr().out.strip().splitlines()) <= 2

    def test_contextcite_on_an_empty_document_is_an_error_line_and_2(self, tmp_path, capsys):
        doc_path = tmp_path / "empty.txt"
        doc_path.write_text("")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "contextcite", "--doc", str(doc_path), "-c", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("dataset error: ") and "no sentences" in err
        assert "Traceback" not in err

    def test_missing_doc_file_is_2(self, tmp_path):
        assert main(["highlight", "--method", "lexrank", "--doc", str(tmp_path / "nope.txt")]) == 2


class TestAttributeCommand:
    def test_attribute_outputs_json(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        response_path = tmp_path / "resp.txt"
        response_path.write_text("Alpha one here.")
        config = _write_config(tmp_path)
        dump = tmp_path / "ablations.jsonl"
        rc = main(
            ["attribute", "--doc", str(doc_path), "--response", str(response_path),
             "-c", str(config), "--dump-ablations", str(dump)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scores"]) == 3
        assert payload["num_ablations"] == 8
        assert isinstance(payload["iterations"], int)
        assert payload["converged"] is True
        assert 0.0 <= payload["kkt_residual"] <= 1e-9
        # dumped pairs support offline refits
        pairs = [json.loads(line) for line in dump.read_text().splitlines()]
        assert len(pairs) == 8
        assert all(len(p["mask"]) == 3 for p in pairs)
        assert all(type(bit) is int and bit in (0, 1) for p in pairs for bit in p["mask"])
        assert all(math.isfinite(p["logit"]) for p in pairs)

    def test_attribute_prints_the_scoring_requests_it_sent(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        response_path = tmp_path / "resp.txt"
        response_path.write_text("Alpha one here.")
        config = _write_config(tmp_path)
        argv = ["attribute", "--doc", str(doc_path), "--response", str(response_path), "-c", str(config)]
        payloads = []
        for _ in range(2):
            assert main(argv) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        # The 8 short contexts fit in one request; the rerun reads the packed entry.
        assert [payload.pop("scoring_requests") for payload in payloads] == [1, 0]
        assert payloads[0] == payloads[1]

    def test_attribute_on_an_empty_document_is_an_error_line_and_2(self, tmp_path, capsys):
        doc_path = tmp_path / "empty.txt"
        doc_path.write_text("  \n")
        response_path = tmp_path / "resp.txt"
        response_path.write_text("Alpha.")
        config = _write_config(tmp_path)
        rc = main(["attribute", "--doc", str(doc_path), "--response", str(response_path), "-c", str(config)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dataset error: ") and "no sentences" in captured.err

    def test_attribute_on_a_blank_response_is_an_error_line_and_2(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there.")
        response_path = tmp_path / "resp.txt"
        response_path.write_text(" \n\t\n")
        config = _write_config(tmp_path)
        rc = main(["attribute", "--doc", str(doc_path), "--response", str(response_path), "-c", str(config)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dataset error: response {response_path} is empty\n"

    def test_attribute_needs_config(self, tmp_path):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha.")
        response_path = tmp_path / "resp.txt"
        response_path.write_text("Alpha.")
        assert main(["attribute", "--doc", str(doc_path), "--response", str(response_path)]) == 2


class TestEvaluateAndReportCommands:
    def test_full_cycle(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["run", "-c", str(config)]) == 0
        assert main(["evaluate", "-c", str(config)]) == 0
        assert main(["report", "--run-dir", str(tmp_path / "run"), "--format", "md"]) == 0
        report = (tmp_path / "run" / "report.md").read_text()
        assert report.startswith("| Method |")
        assert "tokens_alnum" not in report  # stored in metrics.jsonl, not tabled
        metrics_rows = [
            json.loads(line)
            for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        ]
        assert any(r.get("metric") == "tokens_alnum" for r in metrics_rows)

    def test_report_on_a_truncated_metrics_line_is_an_error_line_and_2(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        assert main(["run", "-c", str(config)]) == 0
        assert main(["evaluate", "-c", str(config)]) == 0
        metrics_path = tmp_path / "run" / "metrics.jsonl"
        lines = metrics_path.read_text().splitlines()
        metrics_path.write_text("\n".join(lines[:-1] + [lines[-1][:10]]))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("dataset error: ") and f"metrics.jsonl:{len(lines)}: malformed JSON line" in line
        assert not (tmp_path / "run" / "report.md").exists()

    @pytest.mark.parametrize(
        "row",
        [
            {"doc_id": "d2", "method": "direct", "metric": "rouge_l", "value": "abc"},
            {"method": "direct", "metric": "rouge_l", "value": 0.5},
            {"doc_id": "d2", "method": "direct", "metric": "rouge_l", "value": math.nan},
            {"doc_id": "d2", "method": "direct", "metric": "rouge_l", "value": None},
        ],
        ids=["string_value", "no_doc_id", "nan_value", "null_value"],
    )
    def test_report_on_a_damaged_metric_row_is_an_error_line_and_2(self, tmp_path, capsys, row):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(json.dumps({"config": {"methods": ["direct"]}}))
        good = [
            {"doc_id": "d0", "method": "direct", "metric": "rouge_l", "value": 0.5},
            {"doc_id": "d1", "method": "direct", "warning": "no reference summary; rouge_l skipped"},
        ]
        metrics_path = run_dir / "metrics.jsonl"
        metrics_path.write_text("".join(json.dumps(r) + "\n" for r in good))
        assert main(["report", "--run-dir", str(run_dir), "--format", "md"]) == 0
        (run_dir / "report.md").unlink()
        metrics_path.write_text("".join(json.dumps(r) + "\n" for r in [*good, row]))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("dataset error: ") and "metrics.jsonl:3: a metric row needs" in line
        assert not (run_dir / "report.md").exists()

    def test_a_missing_external_scores_file_is_2_and_writes_no_metrics(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        config = _write_config(
            tmp_path,
            metrics={"enable_factscore": True, "external_scores": [{"name": "summac", "path": str(missing)}]},
        )
        assert main(["run", "-c", str(config)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "-c", str(config)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: external scores file not found: {missing}"]
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_evaluate_with_a_nan_external_score_is_2_and_writes_no_metrics(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.jsonl"
        scores_path.write_text('{"doc_id": "gov_a", "score": NaN}\n')
        config = _write_config(tmp_path, metrics={"external_scores": [{"name": "bertscore", "path": str(scores_path)}]})
        assert main(["run", "-c", str(config)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dataset error: ") and "scores.jsonl:1: bertscore score nan is not a number" in err
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_evaluate_with_a_non_object_external_score_line_is_an_error_line_and_2(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.jsonl"
        scores_path.write_text('{"doc_id": "gov_a", "score": 0.5}\n5\n')
        config = _write_config(tmp_path, metrics={"external_scores": [{"name": "bertscore", "path": str(scores_path)}]})
        assert main(["run", "-c", str(config)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dataset error: ") and "scores.jsonl:2: expected a JSON object" in err

    def test_factscore_on_the_mock_backend_writes_a_row_per_record(self, tmp_path):
        config = _write_config(
            tmp_path,
            dataset={"path": str(DATA_DIR / "minicorpus.jsonl"), "schema": "scrolls_govreport", "limit": 2},
            metrics={"enable_factscore": True},
        )
        assert main(["run", "-c", str(config)]) == 0
        assert main(["evaluate", "-c", str(config)]) == 0
        rows = [json.loads(line) for line in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        assert not [row for row in rows if "warning" in row]
        factscores = [row for row in rows if row.get("metric") == "factscore"]
        assert [row["doc_id"] for row in factscores] == ["doc00", "doc01"]
        assert all(0.0 <= row["value"] <= 1.0 for row in factscores)


_FOOTPRINT_SCRIPT = """
import json, sys
import higen, higen.cli, higen.llm_client, higen.runner
loaded = lambda: [name for name in ("requests", "yaml") if name in sys.modules]
steps = {"import": loaded()}
higen.llm_client.backend_from_url("http://localhost:8000")
steps["backend_from_url"] = loaded()
higen.runner.load_config(sys.argv[1])
steps["load_config"] = loaded()
print(json.dumps(steps))
"""


class TestImportFootprint:
    def test_requests_and_yaml_load_only_where_they_are_used(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        config = _write_config(tmp_path)
        done = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(config)], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(done.stdout) == {
            "import": [],
            "backend_from_url": ["requests"],
            "load_config": ["requests", "yaml"],
        }
