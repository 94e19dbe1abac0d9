"""Experiment orchestration: config loading, the run loop, and evaluation.

A run directory accumulates three artifacts: outputs.jsonl (one summary
record per document x method, appended and flushed as completed),
metrics.jsonl (one row per document x method x metric), and manifest.json
(config snapshot plus bookkeeping). Re-invoking a run skips the pairs that
already have an ok record and retries the failed ones, so interrupted
experiments resume for free; readers see only the latest record of a pair.
"""

from __future__ import annotations

import datetime as _dt
import json
import random
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from . import metrics as metrics_mod
from .attribution import AttributionParams
from .corpus import Document, load_dataset
from .errors import ConfigError
from .lexrank import LexRankParams
from .llm_client import LLMClient, RetryPolicy, backend_from_url, resolve_endpoint
from .pipeline import METHODS, PipelineParams, SummaryRecord, run_method

ARTIFACT_VERSION = "0.1.0"

# Generation budgets sized to the reference-summary lengths of each family.
DEFAULT_MAX_TOKENS = {"gov": 1200, "qmsum": 256}


@dataclass
class DatasetConfig:
    path: str
    schema: str = "scrolls_govreport"
    limit: int | None = None
    field_map: dict[str, str] | None = None
    shuffle_seed: int | None = None


@dataclass
class EndpointConfig:
    base_url: str | None = None
    api_key_env: str | None = None
    timeout: float = 120.0


@dataclass
class MetricsConfig:
    enable_factscore: bool = False
    external_scores: list[dict] = field(default_factory=list)


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    model: str
    run_dir: str
    methods: list[str] = field(default_factory=lambda: ["direct"])
    judge_model: str = "gpt-4o-mini"
    k: int = 30
    prompt_family: str | None = None
    max_tokens: int | None = None
    align_threshold: float = 0.6
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    concurrency: int = 4
    cache_dir: str | None = None
    seed: int = 0
    attribution: AttributionParams = field(default_factory=AttributionParams)
    lexrank: LexRankParams = field(default_factory=LexRankParams)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def family(self) -> str:
        if self.prompt_family:
            return self.prompt_family
        return "qmsum" if self.dataset.schema == "scrolls_qmsum" else "gov"

    def generation_budget(self) -> int:
        if self.max_tokens is not None:
            return self.max_tokens
        return DEFAULT_MAX_TOKENS[self.family()]

    def pipeline_params(self) -> PipelineParams:
        return PipelineParams(
            model=self.model,
            k=self.k,
            template_family=self.family(),
            align_threshold=self.align_threshold,
            max_tokens=self.generation_budget(),
            seed=self.seed,
            attribution=self.attribution,
            lexrank=self.lexrank,
        )

    def snapshot(self) -> dict:
        return asdict(self)


def _build(section: dict | None, cls, name: str):
    section = section or {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    return cls(**section)


_SECTIONS = {
    "dataset": DatasetConfig,
    "endpoint": EndpointConfig,
    "attribution": AttributionParams,
    "lexrank": LexRankParams,
    "metrics": MetricsConfig,
    "retry": RetryPolicy,
}


def parse_config(data: dict) -> ExperimentConfig:
    """Build the config from a mapping. A key left out or set to null takes
    the dataclass default; an unknown key at any level is an error."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping")
    if "dataset" not in data or not isinstance(data["dataset"], dict) or "path" not in data["dataset"]:
        raise ConfigError("config is missing dataset.path")
    for key in ("model", "run_dir"):
        if key not in data:
            raise ConfigError(f"config is missing {key}")

    top = {key: value for key, value in data.items() if value is not None}
    top.update({name: _build(data.get(name), cls, name) for name, cls in _SECTIONS.items()})
    config = _build(top, ExperimentConfig, "config")

    if not config.methods:
        raise ConfigError("methods must name at least one method")
    for method in config.methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; valid methods: {', '.join(METHODS)}")
    if config.k < 1:
        raise ConfigError("k must be >= 1")
    if config.concurrency < 1:
        raise ConfigError("concurrency must be >= 1")
    if config.dataset.schema not in ("scrolls_govreport", "scrolls_qmsum", "generic_jsonl"):
        raise ConfigError(f"unknown dataset schema {config.dataset.schema!r}")
    if config.prompt_family not in (None, "gov", "qmsum"):
        raise ConfigError(f"unknown prompt_family {config.prompt_family!r}")
    if config.dataset.limit is not None and config.dataset.limit < 0:
        raise ConfigError("dataset.limit must be >= 0")
    if not 0 < config.align_threshold <= 1:
        raise ConfigError("align_threshold must be in (0, 1]")
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML (superset of JSON) config file and validate it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse config {path}: {exc}") from exc
    return parse_config(data or {})


def build_client(config: ExperimentConfig) -> LLMClient:
    base_url, api_key = resolve_endpoint(config.endpoint.base_url, config.endpoint.api_key_env)
    backend = backend_from_url(
        base_url, api_key=api_key, timeout=config.endpoint.timeout, concurrency=config.concurrency
    )
    return LLMClient(
        backend,
        cache_dir=config.cache_dir,
        concurrency=config.concurrency,
        retry=config.retry,
    )


def _load_documents(config: ExperimentConfig) -> list[Document]:
    """Dataset documents; with a shuffle seed the sample is drawn after a
    seeded shuffle instead of taking the file-order prefix."""
    if config.dataset.shuffle_seed is None:
        return load_dataset(
            config.dataset.path,
            config.dataset.schema,
            limit=config.dataset.limit,
            field_map=config.dataset.field_map,
        )
    docs = load_dataset(config.dataset.path, config.dataset.schema, field_map=config.dataset.field_map)
    random.Random(config.dataset.shuffle_seed).shuffle(docs)
    if config.dataset.limit is not None:
        docs = docs[: config.dataset.limit]
    return docs


def read_records(run_dir: str | Path) -> list[SummaryRecord]:
    """The latest record of each (document, method) pair in outputs.jsonl,
    read tolerantly (a truncated trailing line is skipped)."""
    path = Path(run_dir) / "outputs.jsonl"
    latest: dict[tuple[str, str], SummaryRecord] = {}
    if not path.exists():
        return []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = SummaryRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
            latest[(record.doc_id, record.method)] = record
    return list(latest.values())


def run(
    config: ExperimentConfig,
    client: LLMClient | None = None,
    stop_after_records: int | None = None,
) -> Path:
    """Produce a SummaryRecord for every (document, method) pair without an ok
    one: a pair whose latest record failed is tried again.

    Records append to run_dir/outputs.jsonl as they complete (flushed per
    record); the manifest is written at the end. Per-record failures are
    recorded, never raised. Returns the run directory.
    """
    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    outputs_path = run_dir / "outputs.jsonl"

    documents = sorted(_load_documents(config), key=lambda d: d.id)
    done = {(r.doc_id, r.method) for r in read_records(run_dir) if r.ok}
    tasks = [
        (doc, method)
        for doc in documents
        for method in config.methods
        if (doc.id, method) not in done
    ]

    if client is None:
        client = build_client(config)
    params = config.pipeline_params()
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    wall_start = time.monotonic()

    written = 0
    stopped = False
    if tasks:
        with outputs_path.open("a", encoding="utf-8") as out, ThreadPoolExecutor(
            max_workers=config.concurrency
        ) as pool:
            pending = [pool.submit(run_method, client, doc, method, params) for doc, method in tasks]
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                # Each finished set is written in submission order, so a run
                # with one worker always writes its records in the same order.
                done_now = [f for f in pending if f in finished]
                pending = [f for f in pending if f not in finished]
                for future in done_now:
                    record = future.result()
                    out.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")
                    out.flush()
                    written += 1
                    if stop_after_records is not None and written >= stop_after_records:
                        stopped = True
                        break
                if stopped:
                    for future in pending:
                        future.cancel()
                    break

    records = read_records(run_dir)
    counts: dict[str, dict[str, int]] = {}
    for method in config.methods:
        method_records = [r for r in records if r.method == method]
        counts[method] = {
            "ok": sum(1 for r in method_records if r.ok),
            "failed": sum(1 for r in method_records if not r.ok),
            "fallback": sum(1 for r in method_records if r.fallback_used),
        }
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config": config.snapshot(),
        "started": started,
        "finished": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "wall_seconds": round(time.monotonic() - wall_start, 3),
        "corpus_size": len(documents),
        "counts": counts,
        "llm_calls": client.backend_calls,
        "cache_hits": client.cache_hits,
        "stopped_early": stopped,
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2), encoding="utf-8"
    )
    return run_dir


def evaluate(config: ExperimentConfig, run_dir: str | Path | None = None, client: LLMClient | None = None) -> Path:
    """Compute metric rows for every completed record into metrics.jsonl.

    ROUGE-L and token counts always; FactScore when enabled; external scores
    joined by doc_id. Records are evaluated by ``concurrency`` workers. Rows
    are sorted by (doc_id, method, metric) so repeated evaluation of the same
    outputs is byte-identical.
    """
    run_dir = Path(run_dir or config.run_dir)
    outputs_path = run_dir / "outputs.jsonl"
    if not outputs_path.exists():
        raise ConfigError(f"no outputs.jsonl under {run_dir}; run the experiment first")

    documents = {doc.id: doc for doc in _load_documents(config)}
    records = read_records(run_dir)

    if config.metrics.enable_factscore and client is None:
        client = build_client(config)

    def rows_of(record: SummaryRecord) -> list[dict]:
        base = {"doc_id": record.doc_id, "method": record.method}
        if not record.ok:
            return [{**base, "warning": f"record failed at stage {record.error_stage}; metrics skipped"}]
        document = documents.get(record.doc_id)
        if document is None:
            return [{**base, "warning": "document missing from dataset; metrics skipped"}]

        rows = []
        if document.reference_summary:
            score = metrics_mod.rouge_l(record.summary, document.reference_summary)
            rows.append({**base, "metric": "rouge_l", "value": score.f1})
        else:
            rows.append({**base, "warning": "no reference summary; rouge_l skipped"})

        # both counts persist; the table defaults to the backend-reported one
        alnum_count = metrics_mod.summary_tokens(record.summary)
        reported = record.completion_tokens
        rows.append({**base, "metric": "tokens", "value": float(reported if reported > 0 else alnum_count)})
        rows.append({**base, "metric": "tokens_alnum", "value": float(alnum_count)})

        if config.metrics.enable_factscore:
            report = metrics_mod.factscore(record.summary, document, client, config.judge_model)
            if report.score is None:
                rows.append({**base, "warning": "factscore extraction failed; score absent"})
            else:
                rows.append({**base, "metric": "factscore", "value": report.score})
        return rows

    # FactScore's judge calls dominate, so records are evaluated concurrently;
    # map keeps the record order, and the rows are sorted below in any case.
    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        rows = [row for per_record in pool.map(rows_of, records) for row in per_record]

    methods_present = sorted({r.method for r in records})
    for entry in config.metrics.external_scores:
        name = entry.get("name")
        path = entry.get("path")
        if not name or not path:
            raise ConfigError("external score entries need name and path")
        scores = metrics_mod.load_external_scores(path, name)
        target_methods = [entry["method"]] if entry.get("method") else methods_present
        for method in target_methods:
            for doc_id, value in sorted(scores.items()):
                if any(r.doc_id == doc_id and r.method == method and r.ok for r in records):
                    rows.append({"doc_id": doc_id, "method": method, "metric": name, "value": value})

    rows.sort(key=lambda r: (r["doc_id"], r["method"], r.get("metric", ""), r.get("warning", "")))
    metrics_path = run_dir / "metrics.jsonl"
    with metrics_path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return metrics_path


def read_metric_rows(run_dir: str | Path) -> list[dict]:
    path = Path(run_dir) / "metrics.jsonl"
    if not path.exists():
        raise ConfigError(f"no metrics.jsonl under {run_dir}; evaluate first")
    rows = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rows.append(json.loads(line))
    return rows
