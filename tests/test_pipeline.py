from __future__ import annotations

import json
import logging
from dataclasses import asdict

import pytest

from higen.attribution import AttributionParams
from higen.corpus import make_document
from higen.llm_client import LLMClient, MockBackend, GenRequest, prompt_hash
from higen.pipeline import (
    METHODS,
    PipelineParams,
    SummaryRecord,
    plan,
    run_method,
)
from higen.prompts import HighlightSet, render

from conftest import RecordingBackend, ScriptedBackend, doc_from_sentences, make_mock_client, per_token_scorer


def _params(**kwargs) -> PipelineParams:
    defaults = dict(model="mock-model", k=2, max_tokens=200)
    defaults.update(kwargs)
    return PipelineParams(**defaults)


@pytest.fixture
def doc():
    return doc_from_sentences(
        ["Alpha opens the report.", "Bravo covers the middle.", "Charlie closes the report."]
    )


class TestRunDirect:
    def test_mock_summary_and_empty_highlights(self, tmp_path, doc):
        client, _ = make_mock_client(tmp_path)
        record = run_method(client, doc, "direct", _params())
        assert record.ok
        assert record.summary == "Alpha opens the report. Bravo covers the middle."
        assert record.highlights.items == ()
        assert record.method == "direct"
        assert len(record.raw_responses) == 1

    def test_parse_failure_retries_once_then_fails(self, tmp_path, doc):
        backend = ScriptedBackend(["no marker here", "still no marker"])
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        record = run_method(client, doc, "direct", _params())
        assert not record.ok
        assert record.error_stage == "direct"
        assert len(record.raw_responses) == 2
        assert record.error_prompt_hash
        gen_requests = [r for r in backend.requests if isinstance(r, GenRequest)]
        assert len(gen_requests) == 2
        assert gen_requests[1].user_prompt.startswith(gen_requests[0].user_prompt)
        assert "Summary:" in gen_requests[1].user_prompt.splitlines()[-1]

    def test_malformed_then_valid_recovers(self, tmp_path, doc):
        backend = ScriptedBackend(["garbage", "Summary: recovered fine"])
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        record = run_method(client, doc, "direct", _params())
        assert record.ok
        assert record.summary == "recovered fine"
        assert len(record.raw_responses) == 2

    def test_direct_never_calls_highlighters(self, tmp_path, doc, monkeypatch):
        from higen.errors import HigenError

        calls = {"lexrank": 0, "attribution": 0}

        def probe_lexrank(*args, **kwargs):
            calls["lexrank"] += 1
            raise HigenError("probe")

        def probe_attr(*args, **kwargs):
            calls["attribution"] += 1
            raise HigenError("probe")

        monkeypatch.setattr("higen.pipeline.lexrank_highlights", probe_lexrank)
        monkeypatch.setattr("higen.pipeline.contextcite_attribute", probe_attr)
        client, _ = make_mock_client(tmp_path)
        record = run_method(client, doc, "direct", _params())
        assert record.ok
        assert calls == {"lexrank": 0, "attribution": 0}
        # sanity: the probes are live for two-stage methods
        failed = run_method(client, doc, "two_stage_lexrank", _params())
        assert calls["lexrank"] == 1
        assert not failed.ok


class TestRunE2E:
    def test_echo_first_k(self, tmp_path, doc):
        client, _ = make_mock_client(tmp_path)
        record = run_method(client, doc, "e2e", _params(k=2))
        assert record.ok
        assert [h.source_index for h in record.highlights.items] == [0, 1]
        assert all(h.alignment_score == pytest.approx(1.0) for h in record.highlights.items)
        assert record.summary == "Alpha opens the report. Bravo covers the middle."
        assert record.highlights.k_requested == 2

    def test_k_clamped_to_document_size(self, tmp_path, doc):
        client, _ = make_mock_client(tmp_path)
        record = run_method(client, doc, "e2e", _params(k=30))
        assert [h.source_index for h in record.highlights.items] == [0, 1, 2]

    def test_malformed_then_valid_bookkeeping(self, tmp_path, doc):
        backend = ScriptedBackend(["oops", "Key Sentences:\n1. Alpha opens the report.\nSummary: ok then"])
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        record = run_method(client, doc, "e2e", _params())
        assert record.ok
        assert len(record.raw_responses) == 2
        assert record.summary == "ok then"


class TestRunTwoStage:
    def test_lexrank_wiring_single_generate_call(self, tmp_path, doc):
        client, backend = make_mock_client(tmp_path)
        record = run_method(client, doc, "two_stage_lexrank", _params(k=2))
        assert record.ok
        assert record.method == "two_stage_lexrank"
        assert record.highlights.method == "lexrank"
        indices = [h.source_index for h in record.highlights.items]
        assert indices == sorted(indices)
        assert backend.gen_calls == 1
        assert len(record.raw_responses) == 1

    def test_contextcite_single_cause(self, tmp_path):
        sentences = [
            "Anchor apple arrives.",
            "Bridge banana builds.",
            "Canyon cherry crosses.",
            "Desert damson drifts.",
            "Ember elder evolves.",
            "Forest feijoa flows.",
        ]
        doc = doc_from_sentences(sentences)

        def scorer(context: str, continuation: str) -> float:
            bit = 1 if sentences[3] in context else 0
            return -(2 - bit)

        backend = RecordingBackend(score_fn=scorer)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        record = run_method(client, doc, "two_stage_cc", _params(k=2, attribution=AttributionParams(m=16)))
        assert record.ok
        assert [h.source_index for h in record.highlights.items] == [3]
        stage2_prompts = [
            r.user_prompt
            for r in backend.requests
            if isinstance(r, GenRequest) and "key points:" in r.user_prompt
        ]
        assert len(stage2_prompts) == 1
        assert "1. Desert damson drifts." in stage2_prompts[0]
        assert "2." not in stage2_prompts[0].split("key points:")[1]
        assert len(record.raw_responses) == 2  # draft + stage 2

    def test_generative_highlights_verbatim_in_stage2_prompt(self, tmp_path, doc):
        client, backend = make_mock_client(tmp_path)
        record = run_method(client, doc, "two_stage_gen", _params(k=2))
        assert record.ok
        assert record.method == "two_stage_gen"
        assert len(record.raw_responses) == 2
        stage2 = [
            r.user_prompt
            for r in backend.requests
            if isinstance(r, GenRequest) and "key points:" in r.user_prompt
        ]
        assert len(stage2) == 1
        for highlight in record.highlights.items:
            assert highlight.text in stage2[0]

    def test_every_emitted_highlight_in_stage2_prompt(self, tmp_path, doc):
        # invariant across all two-stage highlighters
        for method in ("two_stage_gen", "two_stage_lexrank"):
            backend = RecordingBackend(score_fn=per_token_scorer)
            client = LLMClient(backend, cache_dir=tmp_path / f"cache_{method}")
            record = run_method(client, doc, method, _params(k=2))
            assert record.ok
            stage2 = [
                r.user_prompt
                for r in backend.requests
                if isinstance(r, GenRequest) and "key points:" in r.user_prompt
            ]
            for highlight in record.highlights.items:
                assert highlight.text in stage2[-1]

    def test_empty_highlights_fall_back_to_direct(self, tmp_path, doc):
        # constant scorer -> zero attribution everywhere -> empty plan -> fallback
        backend = RecordingBackend(score_fn=lambda ctx, cont: -2.0)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        record = run_method(client, doc, "two_stage_cc", _params(k=2, attribution=AttributionParams(m=8)))
        assert record.ok
        assert record.fallback_used
        assert record.method == "two_stage_cc"
        assert record.highlights.items == ()
        assert record.summary  # direct-path summary
        assert not any(
            isinstance(r, GenRequest) and "key points:" in r.user_prompt for r in backend.requests
        )

    def test_a_failed_fallback_keeps_its_stage_and_prompt_and_no_fallback_flag(self, doc, monkeypatch):
        empty = HighlightSet(method="lexrank", k_requested=2, items=())
        monkeypatch.setattr("higen.pipeline.lexrank_highlights", lambda *args: empty)
        backend = ScriptedBackend([])  # the fallback's direct call finds the script exhausted
        record = run_method(LLMClient(backend), doc, "two_stage_lexrank", _params())
        assert not record.ok
        assert record.error_stage == "fallback_direct"
        assert record.fallback_used is False
        [request] = backend.requests
        assert request.user_prompt == render("direct_gov", doc)
        assert record.error_prompt_hash == prompt_hash(request.user_prompt)

    def test_stage_tagged_failure(self, tmp_path, doc):
        # stage-2 parse failure after a healthy lexrank stage 1
        responses = ["broken output", "still broken"]
        backend = ScriptedBackend(responses)
        client = LLMClient(backend, cache_dir=tmp_path / "cache")
        record = run_method(client, doc, "two_stage_lexrank", _params(k=2))
        assert not record.ok
        assert record.error_stage == "stage2"
        assert record.highlights.items  # stage-1 plan preserved on the failed record

    def test_unknown_highlighter(self, tmp_path, doc):
        client, _ = make_mock_client(tmp_path)
        with pytest.raises(ValueError):
            plan(client, doc, "bogus", _params())


# What each method makes of a document too short to plan from. An empty
# document has nothing to attribute, so two_stage_cc fails there, while the
# generative and LexRank planners return an empty plan and fall back to
# direct. On one sentence every ablation mask keeps it, every attribution
# weight is 0, and two_stage_cc falls back. Every other pair is ok.
_SHORT_DOCUMENT_OUTCOMES = {
    (0, "two_stage_cc"): "failed at attribution",
    (0, "two_stage_gen"): "fallback",
    (0, "two_stage_lexrank"): "fallback",
    (1, "two_stage_cc"): "fallback",
}


@pytest.mark.parametrize("text", ["", "Only one sentence here."], ids=["0_sentences", "1_sentence"])
@pytest.mark.parametrize("method", METHODS)
def test_short_document_outcomes(tmp_path, text, method):
    doc = make_document("short", text)
    client, _ = make_mock_client(tmp_path)
    record = run_method(client, doc, method, _params())
    if not record.ok:
        outcome = f"failed at {record.error_stage}"
    else:
        outcome = "fallback" if record.fallback_used else "ok"
    assert outcome == _SHORT_DOCUMENT_OUTCOMES.get((len(doc.sentences), method), "ok")


def test_a_ruled_out_attribution_keeps_its_stage_and_draft(tmp_path):
    doc = doc_from_sentences([f"Sentence number {i} stands here." for i in range(12)])
    client, backend = make_mock_client(tmp_path)
    direct = run_method(client, doc, "direct", _params())
    record = run_method(client, doc, "two_stage_cc", _params(attribution=AttributionParams(m=7)))
    assert not record.ok
    assert record.error_stage == "attribution"
    assert "need at least 8 usable" in record.error
    assert record.raw_responses == direct.raw_responses  # the draft is direct's request, served by the cache
    assert (record.prompt_tokens, record.completion_tokens) == (direct.prompt_tokens, direct.completion_tokens)
    assert backend.gen_calls == 1 and backend.score_calls == 0


def test_an_ok_record_hashes_no_prompt(tmp_path, monkeypatch):
    hashed = []
    monkeypatch.setattr("higen.pipeline.prompt_hash", lambda prompt: hashed.append(prompt) or prompt_hash(prompt))
    sentences = ["Anchor apple arrives.", "Bridge banana builds.", "Canyon cherry crosses.", "Desert damson drifts."]
    doc = doc_from_sentences(sentences)
    backend = RecordingBackend(score_fn=lambda context, continuation: -1.0 - (sentences[3] not in context))
    client = LLMClient(backend, cache_dir=tmp_path / "cache")
    record = run_method(client, doc, "two_stage_cc", _params(attribution=AttributionParams(m=16)))
    assert record.ok and record.highlights.items and not record.fallback_used
    assert hashed == [] and record.error_prompt_hash is None
    assert "_last_prompt" not in record.to_dict()


def test_an_attribution_failure_keeps_the_hash_of_the_draft_prompt(tmp_path):
    doc = doc_from_sentences([f"Sentence number {i} stands here." for i in range(12)])
    client, _ = make_mock_client(tmp_path)
    record = run_method(client, doc, "two_stage_cc", _params(attribution=AttributionParams(m=7)))
    assert not record.ok and record.error_stage == "attribution"
    assert record.error_prompt_hash == prompt_hash(render("direct_gov", doc))


class TestFailureLogging:
    def test_a_bug_logs_its_traceback_with_the_prompt_hash_only(self, tmp_path, doc, monkeypatch, caplog):
        def broken_parser(text):
            raise RuntimeError("parser bug")

        monkeypatch.setattr("higen.pipeline.parse_highlights", broken_parser)
        client, backend = make_mock_client(tmp_path)
        with caplog.at_level(logging.WARNING, logger="higen"):
            record = run_method(client, doc, "two_stage_gen", _params())
        assert record.error == "parser bug" and record.error_stage == "stage1"
        [logged] = caplog.records
        assert logged.levelno == logging.WARNING and logged.name.startswith("higen")
        assert logged.exc_info[0] is RuntimeError
        message = logged.getMessage()
        assert all(part in message for part in ("two_stage_gen", doc.id, "stage1", record.error_prompt_hash))
        prompt = backend.requests[0].user_prompt
        assert prompt not in message and prompt not in caplog.text

    def test_an_expected_failure_logs_nothing_at_warning(self, tmp_path, caplog):
        doc = doc_from_sentences([f"Sentence number {i} stands here." for i in range(12)])
        client, _ = make_mock_client(tmp_path)
        with caplog.at_level(logging.WARNING, logger="higen"):
            record = run_method(client, doc, "two_stage_cc", _params(attribution=AttributionParams(m=7)))
        assert record.error_stage == "attribution"
        assert caplog.records == []


class TestQmsumFamily:
    @pytest.fixture
    def transcript_doc(self):
        from higen.corpus import make_document

        return make_document(
            "qm1",
            "Alice: We ship in June. The tests look stable.\nBob: I want one more review pass.",
            kind="transcript",
            query="What was decided about the ship date?",
        )

    def test_e2e_on_fenced_transcript(self, tmp_path, transcript_doc):
        client, backend = make_mock_client(tmp_path)
        record = run_method(client, transcript_doc, "e2e", _params(k=2))
        assert record.ok
        assert record.summary
        assert len(record.highlights.items) == 2
        # highlights align to source sentences despite the speaker prefixes
        assert [h.source_index for h in record.highlights.items] == [0, 1]
        prompt = backend.requests[0].user_prompt
        assert prompt.count("==========") >= 2
        assert "Query: What was decided about the ship date?" in prompt

    def test_two_stage_lexrank_on_transcript(self, tmp_path, transcript_doc):
        client, backend = make_mock_client(tmp_path)
        record = run_method(client, transcript_doc, "two_stage_lexrank", _params(k=2))
        assert record.ok
        stage2 = backend.requests[-1].user_prompt
        assert "key points:" in stage2
        for highlight in record.highlights.items:
            assert highlight.text in stage2


class TestDeterminism:
    def test_records_bit_reproducible_under_mock(self, tmp_path, doc):
        def snapshot(cache_suffix: str) -> list[dict]:
            client = LLMClient(MockBackend(), cache_dir=tmp_path / cache_suffix)
            params = _params(k=2, seed=7, attribution=AttributionParams(m=8))
            records = [run_method(client, doc, method, params).to_dict() for method in METHODS]
            for record in records:
                record.pop("wall_ms")  # a measured duration, not an output
            return records

        first = snapshot("a")
        second = snapshot("b")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_raw_responses_counts_generate_calls(self, tmp_path, doc):
        client, backend = make_mock_client(tmp_path)
        run_method(client, doc, "direct", _params())
        first_calls = backend.gen_calls
        record = run_method(client, doc, "direct", _params())  # cache hit, still one raw response
        assert backend.gen_calls == first_calls
        assert len(record.raw_responses) == 1


class TestSerialization:
    def test_record_round_trip(self, tmp_path, doc):
        client, _ = make_mock_client(tmp_path)
        record = run_method(client, doc, "e2e", _params(k=2))
        clone = SummaryRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record

    # The outputs.jsonl lines of one ok and one failed record, byte for byte.
    _OK_LINE = '{"doc_id": "doc", "method": "e2e", "model": "mock-model", "highlights": {"method": "e2e", "k_requested": 2, "items": [{"text": "Alpha opens the report.", "source_index": 0, "alignment_score": 1.0}, {"text": "Bravo covers the middle.", "source_index": 1, "alignment_score": 1.0}]}, "summary": "Alpha opens the report. Bravo covers the middle.", "raw_responses": ["Key Sentences:\\n1. Alpha opens the report.\\n2. Bravo covers the middle.\\nSummary: Alpha opens the report. Bravo covers the middle."], "fallback_used": false, "prompt_tokens": 76, "completion_tokens": 21, "wall_ms": 7, "error": null, "error_stage": null, "error_prompt_hash": null}'
    _FAILED_LINE = '{"doc_id": "doc", "method": "two_stage_lexrank", "model": "mock-model", "highlights": {"method": "lexrank", "k_requested": 2, "items": [{"text": "Alpha opens the report.", "source_index": 0, "alignment_score": 1.0}, {"text": "Bravo covers the middle.", "source_index": 1, "alignment_score": 1.0}]}, "summary": "", "raw_responses": ["broken output", "still broken"], "fallback_used": false, "prompt_tokens": 164, "completion_tokens": 4, "wall_ms": 7, "error": "no \\"Summary:\\" marker found in model output", "error_stage": "stage2", "error_prompt_hash": "04ee3b04f8d1f074"}'

    def test_record_lines_are_pinned(self, tmp_path, doc):
        client, _ = make_mock_client(tmp_path)
        ok = run_method(client, doc, "e2e", _params())
        failed_client = LLMClient(ScriptedBackend(["broken output", "still broken"]), cache_dir=tmp_path / "b")
        failed = run_method(failed_client, doc, "two_stage_lexrank", _params())
        ok.wall_ms = failed.wall_ms = 7  # a measured duration, fixed here
        assert json.dumps(ok.to_dict()) == self._OK_LINE
        assert json.dumps(failed.to_dict()) == self._FAILED_LINE

    def test_to_dict_equals_asdict(self, tmp_path):
        doc = doc_from_sentences([f"Sentence {i} names the {i}th finding." for i in range(40)])
        client, _ = make_mock_client(tmp_path)
        ok = run_method(client, doc, "two_stage_lexrank", _params(k=30))
        empty = run_method(client, doc, "direct", _params())
        failed_client = LLMClient(ScriptedBackend(["broken output", "still broken"]), cache_dir=tmp_path / "b")
        failed = run_method(failed_client, doc, "two_stage_lexrank", _params(k=30))
        assert ok.ok and len(ok.highlights.items) == 30 and empty.ok and not empty.highlights.items and not failed.ok
        for record in (ok, empty, failed):
            record._last_prompt = "a prompt held while the method runs"
            assert record.to_dict() == asdict(record)
            assert json.dumps(record.to_dict()) == json.dumps(asdict(record))
            assert "_last_prompt" not in record.to_dict() and record._last_prompt not in json.dumps(record.to_dict())
