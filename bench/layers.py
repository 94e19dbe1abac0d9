"""The higen functions a traced run wraps, and the per-layer metrics derived
from their spans.

Each function is wrapped at the attribute its caller looks up: the pipeline
calls ``higen.pipeline.align``, not ``higen.prompts.align``, so that is the
one patched. ``PER_LAYER`` lists every metric with its unit, its better
direction, and the end-to-end metric and workloads it should move. Values
are per pass over the workload's corpus; a ``.cpu_s`` is thread CPU time
summed over the calls, a ``.wall_s`` is wall time summed over the calls.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from higen import attribution, lexrank, llm_client, metrics, pipeline, runner
from tracing import Span, Tracer

_E2E_ALL = ("gov_cold", "gov_cc_warm", "qmsum_http")


def _per_method(kind: str) -> list[tuple]:
    return [
        (f"pipeline.{m}.{kind}", "s", "lower", "records_ok_per_min", ("qmsum_http",)) for m in pipeline.METHODS
    ]


# (name, unit, better, end-to-end metric it should move, workloads)
PER_LAYER: list[tuple] = [
    ("corpus.load_dataset.calls", "count", "lower", "records_ok_per_min", _E2E_ALL),
    ("corpus.load_dataset.cpu_s", "s", "lower", "records_ok_per_min", _E2E_ALL),
    ("lexrank.build_similarity_graph.cpu_s", "s", "lower", "cpu_ms_per_ok_record", ("gov_cold", "qmsum_http")),
    ("lexrank.centrality.cpu_s", "s", "lower", "cpu_ms_per_ok_record", ("gov_cold", "qmsum_http")),
    ("lexrank.centrality.iterations", "count", "lower", "cpu_ms_per_ok_record", ("gov_cold", "qmsum_http")),
    ("lexrank.centrality.converged_share", "ratio", "higher", "records_ok_per_min", ("gov_cold", "qmsum_http")),
    ("prompts.align.cpu_s", "s", "lower", "records_ok_per_min", ("gov_cold",)),
    ("prompts.align.pairs", "count", "lower", "records_ok_per_min", ("gov_cold",)),
    ("prompts.align.aligned_share", "ratio", "higher", "records_ok_per_min", ("gov_cold",)),
    ("prompts.render.cpu_s", "s", "lower", "records_ok_per_min", ("gov_cold",)),
    ("attribution.attribute.calls", "count", "lower", "failed_share", ("gov_cold", "qmsum_http")),
    ("attribution.fit_share", "ratio", "higher", "failed_share", ("gov_cold", "qmsum_http")),
    ("attribution.fit_lasso.cpu_s", "s", "lower", "records_ok_per_min", ("gov_cc_warm",)),
    ("attribution.sample_masks.cpu_s", "s", "lower", "records_ok_per_min", ("gov_cc_warm",)),
    ("attribution.ablate.cpu_s", "s", "lower", "records_ok_per_min", ("gov_cc_warm",)),
    ("attribution.r_squared_median", "ratio", "higher", "records_ok_per_min", ("gov_cc_warm",)),
    ("llm_client.generate.calls", "count", "lower", "round_trips_per_ok_record", ("qmsum_http", "gov_cold")),
    ("llm_client.score.calls", "count", "lower", "round_trips_per_ok_record", ("qmsum_http", "gov_cold")),
    ("llm_client.cache_hit_ratio", "ratio", "higher", "round_trips_per_ok_record", ("qmsum_http", "gov_cold")),
    ("llm_client.backend.attempts", "count", "lower", "round_trips_per_ok_record", ("qmsum_http", "gov_cold")),
    ("llm_client.backend.retryable_failures", "count", "lower", "round_trips_per_ok_record", ("qmsum_http",)),
    ("stub.requests", "count", "lower", "round_trips_per_ok_record", ("qmsum_http",)),
    ("stub.faults_injected", "count", "lower", "round_trips_per_ok_record", ("qmsum_http",)),
    ("stub.request_mb", "MB", "lower", "round_trips_per_ok_record", ("qmsum_http",)),
    ("llm_client.backend.wall_s", "s", "lower", "records_ok_per_min", ("qmsum_http",)),
    ("llm_client.client_self_wall_s", "s", "lower", "records_ok_per_min", ("gov_cc_warm", "qmsum_http")),
    ("llm_client.wait_s", "s", "lower", "records_ok_per_min", ("gov_cc_warm", "qmsum_http")),
    *_per_method("wall_s"),
    *_per_method("cpu_s"),
    ("runner.run.overlap", "ratio", "higher", "records_ok_per_min", ("qmsum_http",)),
    ("runner.run.wall_s", "s", "lower", "records_ok_per_min", _E2E_ALL),
    ("runner.evaluate.wall_s", "s", "lower", "records_ok_per_min", _E2E_ALL),
    ("report.wall_s", "s", "lower", "records_ok_per_min", _E2E_ALL),
    ("metrics.rouge_l.calls", "count", "lower", "records_ok_per_min", ("gov_cold",)),
    ("metrics.rouge_l.cpu_s", "s", "lower", "records_ok_per_min", ("gov_cold",)),
    ("metrics.factscore.wall_s", "s", "lower", "records_ok_per_min", ("qmsum_http",)),
    ("metrics.factscore.cpu_s", "s", "lower", "records_ok_per_min", ("qmsum_http",)),
    ("metrics.factscore.judge_calls", "count", "lower", "records_ok_per_min", ("qmsum_http",)),
    ("trace.process_cpu_s", "s", "lower", "cpu_ms_per_ok_record", _E2E_ALL),
    ("trace.unexplained_cpu_share", "ratio", "lower", "cpu_ms_per_ok_record", _E2E_ALL),
    ("trace.overhead_share", "ratio", "lower", "records_ok_per_min", _E2E_ALL),
]
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def _centrality(span: Span, result, *args, **kwargs) -> None:
    span.attrs.update(iterations=result.iterations, converged=result.converged)


def _align(span: Span, result, document, texts, *args, **kwargs) -> None:
    span.attrs.update(
        pairs=len(texts) * len(document.sentences),
        highlights=len(result),
        aligned=sum(h.source_index is not None for h in result),
    )


def _fit(span: Span, result, *args, **kwargs) -> None:
    span.attrs["r_squared"] = result[2]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics read; ``tracer.restore`` undoes it."""
    patch = tracer.patch
    patch(runner, "run", "runner.run")
    patch(runner, "evaluate", "runner.evaluate")
    patch(runner, "load_dataset", "corpus.load_dataset")
    patch(
        runner,
        "run_method",
        lambda client, document, method, params: f"pipeline.{method}",
        trace_id=lambda client, document, method, params: f"{document.id}/{method}",
    )
    patch(pipeline, "lexrank_highlights", "lexrank.highlights")
    patch(lexrank, "build_similarity_graph", "lexrank.build_similarity_graph")
    patch(lexrank, "centrality", "lexrank.centrality", on_result=_centrality)
    patch(pipeline, "align", "prompts.align", on_result=_align)
    patch(pipeline, "render", "prompts.render")
    patch(pipeline, "contextcite_attribute", "attribution.attribute")
    patch(attribution, "sample_masks", "attribution.sample_masks")
    patch(attribution, "ablate", "attribution.ablate")
    patch(attribution, "fit_lasso", "attribution.fit_lasso", on_result=_fit)
    patch(llm_client.LLMClient, "generate", "llm_client.generate")
    patch(llm_client.LLMClient, "score_continuation", "llm_client.score")
    for backend in (llm_client.MockBackend, llm_client.HTTPBackend):
        patch(backend, "complete", "llm_client.backend")
        patch(backend, "score", "llm_client.backend")
    patch(metrics, "rouge_l", "metrics.rouge_l")
    patch(
        metrics,
        "factscore",
        "metrics.factscore",
        trace_id=lambda summary, document, *args, **kwargs: f"{document.id}/factscore",
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], process_cpu_s: float, stub_counts: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's corpus."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name: str) -> float:
        return float(len(by_name[name]))

    def cpu(name: str) -> float:
        return sum(s.cpu for s in by_name[name])

    def wall(name: str) -> float:
        return sum(s.wall for s in by_name[name])

    centralities = by_name["lexrank.centrality"]
    aligns = by_name["prompts.align"]
    fits = by_name["attribution.fit_lasso"]
    clients = by_name["llm_client.generate"] + by_name["llm_client.score"]
    backends = by_name["llm_client.backend"]
    missed = {s.parent for s in backends}
    stub_counts = stub_counts or {}
    out = {
        "corpus.load_dataset.calls": calls("corpus.load_dataset"),
        "corpus.load_dataset.cpu_s": cpu("corpus.load_dataset"),
        "lexrank.build_similarity_graph.cpu_s": cpu("lexrank.build_similarity_graph"),
        "lexrank.centrality.cpu_s": cpu("lexrank.centrality"),
        "lexrank.centrality.iterations": float(sum(s.attrs["iterations"] for s in centralities)),
        "lexrank.centrality.converged_share": _share(sum(s.attrs["converged"] for s in centralities), len(centralities)),
        "prompts.align.cpu_s": cpu("prompts.align"),
        "prompts.align.pairs": float(sum(s.attrs["pairs"] for s in aligns)),
        "prompts.align.aligned_share": _share(
            sum(s.attrs["aligned"] for s in aligns), sum(s.attrs["highlights"] for s in aligns)
        ),
        "prompts.render.cpu_s": cpu("prompts.render"),
        "attribution.attribute.calls": calls("attribution.attribute"),
        "attribution.fit_share": _share(len(fits), len(by_name["attribution.attribute"])),
        "attribution.fit_lasso.cpu_s": cpu("attribution.fit_lasso"),
        "attribution.sample_masks.cpu_s": cpu("attribution.sample_masks"),
        "attribution.ablate.cpu_s": cpu("attribution.ablate"),
        "attribution.r_squared_median": statistics.median(s.attrs["r_squared"] for s in fits) if fits else 0.0,
        "llm_client.generate.calls": calls("llm_client.generate"),
        "llm_client.score.calls": calls("llm_client.score"),
        "llm_client.cache_hit_ratio": _share(sum(s.id not in missed for s in clients), len(clients)),
        "llm_client.backend.attempts": float(len(backends)),
        "llm_client.backend.retryable_failures": float(sum(s.attrs.get("error") == "_Retryable" for s in backends)),
        "stub.requests": float(stub_counts.get("requests", 0)),
        "stub.faults_injected": float(stub_counts.get("faults_injected", 0)),
        "stub.request_mb": stub_counts.get("request_bytes", 0) / 1e6,
        "llm_client.backend.wall_s": wall("llm_client.backend"),
        "llm_client.client_self_wall_s": sum(s.self_wall for s in clients),
        "llm_client.wait_s": sum(s.wall - s.cpu for s in clients),
    }
    for method in pipeline.METHODS:
        out[f"pipeline.{method}.wall_s"] = wall(f"pipeline.{method}")
        out[f"pipeline.{method}.cpu_s"] = cpu(f"pipeline.{method}")
    run_wall = wall("runner.run")
    out.update(
        {
            "runner.run.overlap": _share(sum(wall(f"pipeline.{m}") for m in pipeline.METHODS), run_wall),
            "runner.run.wall_s": run_wall,
            "runner.evaluate.wall_s": wall("runner.evaluate"),
            "report.wall_s": wall("report"),
            "metrics.rouge_l.calls": calls("metrics.rouge_l"),
            "metrics.rouge_l.cpu_s": cpu("metrics.rouge_l"),
            "metrics.factscore.wall_s": wall("metrics.factscore"),
            "metrics.factscore.cpu_s": cpu("metrics.factscore"),
            "metrics.factscore.judge_calls": float(
                sum((s.trace_id or "").endswith("/factscore") for s in by_name["llm_client.generate"])
            ),
            # Self CPU of every span, over all threads, reconciled against the
            # process CPU of the same pass; the rest ran outside any span.
            "trace.process_cpu_s": process_cpu_s,
            "trace.unexplained_cpu_share": _share(process_cpu_s - sum(s.self_cpu for s in spans), process_cpu_s),
        }
    )
    return out
