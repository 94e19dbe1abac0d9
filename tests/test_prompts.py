from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higen.corpus import make_document, tokenize
from higen.errors import ParseError, RenderError
from higen.prompts import (
    Highlight,
    align,
    format_highlights,
    load_template,
    parse_highlights,
    parse_planned,
    render,
)

from conftest import doc_from_sentences, load_jsonl


@pytest.fixture
def gov_doc():
    return doc_from_sentences(
        ["The program expanded rapidly.", "Costs doubled within a year.", "Oversight lagged behind."]
    )


@pytest.fixture
def qmsum_doc():
    doc = make_document(
        "q1",
        "Alice: We should ship in June. Bob: The tests are not done yet.",
        kind="transcript",
        query="What was decided about the ship date?",
    )
    return doc


class TestRender:
    def test_stage1_gov_contains_scaffold_and_document(self, gov_doc):
        prompt = render("stage1_highlights_gov", gov_doc, k=30)
        assert "Key Sentences:" in prompt
        assert gov_doc.normalized_text in prompt
        assert "list of 30 key sentences" in prompt

    def test_e2e_gov_contains_both_markers(self, gov_doc):
        prompt = render("e2e_gov", gov_doc, k=5)
        assert "Key Sentences:" in prompt
        assert "Summary:" in prompt
        assert "{Sentence Text}" in prompt  # literal scaffold slots survive rendering

    def test_stage2_qmsum_ends_with_numbered_highlights(self, qmsum_doc):
        highlights = [Highlight(text="We ship in June."), Highlight(text="Tests are unfinished.")]
        prompt = render("stage2_summary_qmsum", qmsum_doc, highlights=highlights)
        assert "key points:" in prompt
        assert prompt.endswith("1. We ship in June.\n2. Tests are unfinished.")

    def test_direct_template_ignores_k(self, gov_doc):
        prompt = render("direct_gov", gov_doc)
        assert gov_doc.normalized_text in prompt
        assert "{k}" not in prompt

    def test_stage2_without_highlights_errors(self, gov_doc):
        with pytest.raises(RenderError, match="highlights"):
            render("stage2_summary_gov", gov_doc)

    def test_qmsum_without_query_errors(self):
        doc = make_document("q2", "Alice: Hello there.", kind="transcript")
        with pytest.raises(RenderError, match="query"):
            render("direct_qmsum", doc)

    def test_unknown_template_id(self, gov_doc):
        with pytest.raises(RenderError):
            render("nope", gov_doc)

    @pytest.mark.parametrize("template_id", ["../templates/direct_gov", "direct_gov.txt", ""])
    def test_a_template_id_names_a_file_of_the_templates_directory(self, template_id):
        assert load_template("direct_gov").startswith("You are given a report")
        with pytest.raises(RenderError, match="unknown template id"):
            load_template(template_id)


class TestParsePlanned:
    def test_scaffold_parsed(self):
        planned = parse_planned("Key Sentences:\n1. Foo.\n2. Bar.\nSummary: Baz.")
        assert list(planned.highlights) == ["Foo.", "Bar."]
        assert planned.summary == "Baz."

    def test_summary_only(self):
        planned = parse_planned("Summary: Only summary.")
        assert planned.highlights == ()
        assert planned.summary == "Only summary."

    def test_think_block_stripped(self):
        raw = "<think>planning the answer...</think>\nSummary: Clean."
        assert parse_planned(raw).summary == "Clean."

    def test_last_summary_marker_wins(self):
        raw = "Summary: draft one\nmore text\nSummary: final answer"
        assert parse_planned(raw).summary == "final answer"

    def test_numbering_gaps_tolerated(self):
        planned = parse_planned("Key Sentences:\n1. A\n5. B\n12) C\nSummary: s")
        assert list(planned.highlights) == ["A", "B", "C"]

    def test_markdown_decorated_marker(self):
        planned = parse_planned("Key Sentences:\n1. A\n## Summary: done")
        assert planned.summary == "done"

    def test_no_marker_raises(self):
        with pytest.raises(ParseError):
            parse_planned("Key Sentences:\n1. A\n2. B")

    def test_empty_summary_raises(self):
        with pytest.raises(ParseError):
            parse_planned("Summary:   ")

    def test_summary_never_contains_scaffold(self):
        planned = parse_planned("Key Sentences:\n1. A\nSummary: tail text")
        assert "Key Sentences:" not in planned.summary

    def test_stray_scaffold_after_summary_trimmed(self):
        raw = "Summary: the real answer\nKey Sentences:\n1. stray block"
        planned = parse_planned(raw)
        assert planned.summary == "the real answer"
        assert "Key Sentences:" not in planned.summary


def _random_scaffold(rng: random.Random) -> tuple[list[str], str, str]:
    words = ["delta", "omega", "ution", "harbor", "signal", "metric", "panel", "quartz"]
    items = []
    count = rng.randint(1, 40)
    for _ in range(count):
        items.append(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))))
    summary_lines = [
        " ".join(rng.choice(words) for _ in range(rng.randint(2, 8))) for _ in range(rng.randint(1, 3))
    ]
    summary = "\n".join(summary_lines)
    number = 0
    lines = ["Key Sentences:"]
    for item in items:
        number += rng.randint(1, 3)  # numbering gaps
        indent = " " * rng.randint(0, 3)
        punct = rng.choice([".", ")"])
        lines.append(f"{indent}{number}{punct} {item}")
        if rng.random() < 0.2:
            lines.append("")  # stray blank line
    lines.append(f"Summary: {summary}")
    return items, summary, "\n".join(lines)


class TestScaffoldRoundTrip:
    def test_100_randomized_scaffolds_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(100):
            items, summary, raw = _random_scaffold(rng)
            planned = parse_planned(raw)
            assert list(planned.highlights) == items
            assert planned.summary == summary

    def test_render_parse_round_trip_via_scaffold(self, gov_doc):
        # A model that echoes the rendered scaffold returns the highlights verbatim.
        highlights = [Highlight(text=s.text) for s in gov_doc.sentences]
        echoed = "Key Sentences:\n" + format_highlights(highlights) + "\nSummary: done"
        planned = parse_planned(echoed)
        assert list(planned.highlights) == [h.text for h in highlights]


class TestParseHighlights:
    def test_without_summary_marker(self):
        assert parse_highlights("Key Sentences:\n1. A\n2. B") == ["A", "B"]

    def test_stops_at_summary(self):
        assert parse_highlights("Key Sentences:\n1. A\nSummary: 2. not an item") == ["A"]

    def test_no_items_is_empty(self):
        assert parse_highlights("nothing structured here") == []


class TestAlign:
    def test_exact_match(self):
        doc = doc_from_sentences(["Zero one.", "Two three.", "Four five.", "Six seven."])
        [h] = align(doc, ["Six seven."])
        assert h.source_index == 3
        assert h.alignment_score == pytest.approx(1.0)

    def test_disjoint_text(self):
        doc = doc_from_sentences(["Alpha beta.", "Gamma delta."])
        [h] = align(doc, ["unrelated words entirely"])
        assert h.source_index is None
        assert h.alignment_score == 0.0

    def test_paraphrase_fixture(self):
        correct = 0
        cases = load_jsonl("alignment_cases.jsonl")
        assert len(cases) == 20
        for case in cases:
            doc = doc_from_sentences(case["sentences"])
            [h] = align(doc, [case["text"]])
            correct += h.source_index == case["expected_index"]
        assert correct >= 18

    def test_brute_force_f1_oracle_agrees(self):
        # best index must maximize F1 computed independently over all sentences
        from collections import Counter

        from higen.metrics import tokenize

        def f1(a, b):
            ca, cb = Counter(tokenize(a)), Counter(tokenize(b))
            common = sum((ca & cb).values())
            if not common:
                return 0.0
            p, r = common / sum(ca.values()), common / sum(cb.values())
            return 2 * p * r / (p + r)

        for case in load_jsonl("alignment_cases.jsonl"):
            doc = doc_from_sentences(case["sentences"])
            [h] = align(doc, [case["text"]])
            scores = [f1(case["text"], s) for s in case["sentences"]]
            assert h.alignment_score == pytest.approx(max(scores))

    def test_400_sentence_document_matches_counter_f1_oracle_exactly(self):
        # a small vocabulary makes F1 ties common; sentence 300 repeats
        # sentence 7; some texts carry tokens absent from the document
        import random
        from collections import Counter

        from higen.metrics import tokenize

        rng = random.Random(4242)
        words = [f"w{i}" for i in range(40)]
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 15))).capitalize() + "." for _ in range(400)
        ]
        sentences[300] = sentences[7]
        doc = doc_from_sentences(sentences)
        assert len(doc.sentences) == 400
        texts = [sentences[7], sentences[123], "zzz qqq", "", "W3 w3 w3 absentword w5"]
        texts += [" ".join(rng.choice(words + ["absent", "missing"]) for _ in range(rng.randint(1, 20))) for _ in range(60)]
        source = [Counter(tokenize(s.text)) for s in doc.sentences]
        highlights = align(doc, texts)
        assert [h.text for h in highlights] == texts
        assert highlights[0].source_index == 7
        for h, text in zip(highlights, texts):
            wanted = Counter(tokenize(text))
            best_score, best_index = 0.0, None
            for i, have in enumerate(source):
                common = sum((wanted & have).values())
                if common:
                    p, r = common / sum(wanted.values()), common / sum(have.values())
                    score = 2 * p * r / (p + r)
                    if score > best_score:
                        best_score, best_index = score, i
            assert h.alignment_score == best_score
            assert h.source_index == (best_index if best_score >= 0.6 else None)

    def test_no_texts_give_no_highlights(self):
        assert align(doc_from_sentences(["Aa bb.", "Cc dd."]), []) == []

    def test_a_batch_sharing_no_token_scores_float_zero(self):
        doc = doc_from_sentences(["Aa bb.", "Cc dd."])
        texts = ["zz yy", "", "!!"]
        highlights = align(doc, texts)
        assert highlights == [Highlight(text=text, source_index=None, alignment_score=0.0) for text in texts]
        # a float 0.0, as one text's miss gives, so records serialize the same
        assert all(type(h.alignment_score) is float for h in highlights)

    def test_a_sentence_without_tokens_is_never_chosen(self):
        # "É" opens a sentence but is no [a-z0-9] token once lowercased
        doc = make_document("doc", "... Aa bb. Éé! Cc dd.")
        assert [s.text for s in doc.sentences] == ["...", "Aa bb.", "Éé!", "Cc dd."]
        assert [len(tokenize(s.text)) for s in doc.sentences] == [0, 2, 0, 2]
        highlights = align(doc, ["Cc dd.", "...", "Cc dd ee.", "éé"])
        assert [h.source_index for h in highlights] == [3, None, 3, None]
        assert [h.alignment_score for h in highlights] == [1.0, 0.0, 0.8, 0.0]

    def test_one_call_equals_one_call_per_text(self):
        rng = random.Random(65)
        words = [f"w{i}" for i in range(30)]
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 12))).capitalize() + "." for _ in range(80)
        ]
        doc = doc_from_sentences(sentences)
        texts = [" ".join(rng.choice(words + ["absent"]) for _ in range(rng.randint(0, 16))) for _ in range(65)]
        assert align(doc, texts) == [h for text in texts for h in align(doc, [text])]

    def test_order_preserving_one_per_text(self):
        doc = doc_from_sentences(["Aa bb.", "Cc dd."])
        texts = ["Cc dd.", "Aa bb.", "zz"]
        highlights = align(doc, texts)
        assert [h.text for h in highlights] == texts

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=5))
    def test_self_alignment_is_perfect(self, words):
        text = " ".join(words).capitalize() + "."
        doc = doc_from_sentences([text, "Completely different tokens here."])
        [h] = align(doc, [text])
        assert h.source_index == 0
        assert h.alignment_score == pytest.approx(1.0)
