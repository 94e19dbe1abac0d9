from __future__ import annotations

import json

import pytest

from higen.attribution import AttributionParams
from higen.llm_client import LLMClient, MockBackend, GenRequest
from higen.pipeline import (
    METHODS,
    PipelineParams,
    SummaryRecord,
    plan,
    run_method,
)

from conftest import ScriptedBackend, doc_from_sentences, make_mock_client


def _params(**kwargs) -> PipelineParams:
    defaults = dict(model="mock-model", k=2, template_family="gov", max_tokens=200)
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

        backend = MockBackend(score_fn=scorer)
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
            backend = MockBackend()
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
        backend = MockBackend(score_fn=lambda ctx, cont: -2.0)
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
        record = run_method(client, transcript_doc, "e2e", _params(template_family="qmsum", k=2))
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
        record = run_method(client, transcript_doc, "two_stage_lexrank", _params(template_family="qmsum", k=2))
        assert record.ok
        stage2 = backend.requests[-1].user_prompt
        assert "key points:" in stage2
        for highlight in record.highlights.items:
            assert highlight.text in stage2


class TestDeterminism:
    def test_records_bit_reproducible_under_mock(self, tmp_path, doc):
        def snapshot(cache_suffix: str) -> list[dict]:
            client = LLMClient(MockBackend(score_fn="overlap"), cache_dir=tmp_path / cache_suffix)
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
