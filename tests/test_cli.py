from __future__ import annotations

import json
import math
from pathlib import Path

from higen.cli import main

from conftest import DATA_DIR


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

    def test_partial_failures_are_3(self, tmp_path):
        path = _write_config(tmp_path, endpoint={"base_url": "mock://no_summary"})
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


class TestHighlightCommand:
    def test_lexrank_prints_numbered_sentences(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        assert main(["highlight", "--method", "lexrank", "--doc", str(doc_path), "-k", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[0].startswith("1. ")

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

    def test_contextcite_with_mock_config(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "contextcite", "--doc", str(doc_path), "-k", "2", "-c", str(config)])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out  # overlap scorer gives the draft's source sentences positive weight

    def test_contextcite_makes_only_the_draft_call(self, tmp_path, capsys, monkeypatch):
        from higen.llm_client import LLMClient, MockBackend

        backend = MockBackend(score_fn="overlap")
        monkeypatch.setattr("higen.cli.build_client", lambda config: LLMClient(backend, cache_dir=tmp_path / "c"))
        doc_path = tmp_path / "doc.txt"
        doc_path.write_text("Alpha one here. Beta two there. Gamma three everywhere.")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "contextcite", "--doc", str(doc_path), "-k", "2", "-c", str(config)])
        assert rc == 0
        assert backend.gen_calls == 1
        assert len(capsys.readouterr().out.strip().splitlines()) <= 2

    def test_contextcite_on_an_empty_document_is_an_error_line_and_3(self, tmp_path, capsys):
        doc_path = tmp_path / "empty.txt"
        doc_path.write_text("")
        config = _write_config(tmp_path)
        rc = main(["highlight", "--method", "contextcite", "--doc", str(doc_path), "-c", str(config)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no sentences" in err
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

    def test_attribute_on_an_empty_document_is_an_error_line_and_3(self, tmp_path, capsys):
        doc_path = tmp_path / "empty.txt"
        doc_path.write_text("  \n")
        response_path = tmp_path / "resp.txt"
        response_path.write_text("Alpha.")
        config = _write_config(tmp_path)
        rc = main(["attribute", "--doc", str(doc_path), "--response", str(response_path), "-c", str(config)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no sentences" in captured.err

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
