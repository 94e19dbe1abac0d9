"""Experiment orchestration: config loading, the run loop, and evaluation.

A run directory accumulates three artifacts: outputs.jsonl (one summary
record per document x method, appended and flushed in task order),
metrics.jsonl (one row per document x method x metric), and manifest.json
(config snapshot plus bookkeeping). Re-invoking a run skips the pairs that
already have an ok record and retries the failed ones, so interrupted
experiments resume for free; readers see only the latest record of a pair.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import metrics as metrics_mod
from .attribution import AttributionParams
from .corpus import FIELD_KEYS, SCHEMAS, Document, load_dataset, read_jsonl
from .errors import ConfigError, DatasetError, is_number, require
from .lexrank import LexRankParams
from .llm_client import LLMClient, RetryPolicy, backend_from_url, write_atomically
from .pipeline import METHODS, PipelineParams, SummaryRecord, run_method

ARTIFACT_VERSION = "0.1.0"


@dataclass
class DatasetConfig:
    path: str
    schema: str = "scrolls_govreport"
    limit: int | None = None
    field_map: dict[str, str] | None = None
    shuffle_seed: int | None = None

    def __post_init__(self) -> None:
        require("path", self.path, lambda p: isinstance(p, str), "a string")
        require("schema", self.schema, SCHEMAS.__contains__, f"one of {', '.join(SCHEMAS)}")
        require("limit", self.limit, lambda n: n is None or is_number(n, int) and n >= 0, "an integer >= 0")
        require("shuffle_seed", self.shuffle_seed, lambda s: s is None or is_number(s, int), "an integer when set")
        rule = "unset unless the schema is generic_jsonl"
        require("field_map", self.field_map, lambda m: m is None or self.schema == "generic_jsonl", rule)
        # generic_jsonl documents are prose, whose prompts take no query_field.
        keys, rule = set(FIELD_KEYS), f"a map with no keys besides {', '.join(FIELD_KEYS)}"
        require("field_map", self.field_map, lambda m: m is None or isinstance(m, dict) and m.keys() <= keys, rule)


@dataclass
class EndpointConfig:
    base_url: str | None = None
    api_key_env: str | None = None
    timeout: float = 120.0

    def __post_init__(self) -> None:
        for name in ("base_url", "api_key_env"):
            require(name, getattr(self, name), lambda v: v is None or isinstance(v, str), "a string when set")
        require("timeout", self.timeout, lambda t: is_number(t) and t > 0, "a number > 0")


@dataclass
class MetricsConfig:
    enable_factscore: bool = False
    external_scores: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        require("enable_factscore", self.enable_factscore, lambda v: isinstance(v, bool), "true or false")
        for entry in self.external_scores:
            if not isinstance(entry, dict) or not entry.get("name") or not entry.get("path"):
                raise ValueError(f"external score entries need name and path, got {entry!r}")
            unknown = set(entry) - {"name", "path", "method"}
            if unknown:
                raise ValueError(f"unknown key(s) in external score entry {entry!r}: {sorted(unknown)}")
            for key in ("name", "path"):
                require(f"external score {key}", entry[key], lambda v: isinstance(v, str), "a non-empty string")
            rule = f"unset or one of {', '.join(METHODS)}"
            require("external score method", entry.get("method"), lambda m: m is None or m in METHODS, rule)


@dataclass(kw_only=True)
class ExperimentConfig(PipelineParams):
    """The pipeline's params, and what the run around the pipeline needs."""

    dataset: DatasetConfig
    run_dir: str
    methods: list[str] = field(default_factory=lambda: ["direct"])
    judge_model: str = "gpt-4o-mini"
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    concurrency: int = 4
    cache_dir: str | None = None
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        require("methods", self.methods, lambda ms: len(set(ms)) == len(ms) > 0, "a non-empty list of distinct methods")
        for method in self.methods:
            require("each method", method, METHODS.__contains__, f"one of {', '.join(METHODS)}")
        super().__post_init__()
        for name in ("run_dir", "judge_model"):
            require(name, getattr(self, name), lambda v: isinstance(v, str), "a string")
        require("cache_dir", self.cache_dir, lambda v: v is None or isinstance(v, str), "a string when set")
        require("concurrency", self.concurrency, lambda c: is_number(c, int) and c >= 1, "an integer >= 1")


def _build(section: dict | None, cls, name: str):
    """One config dataclass from its section. A key set to null takes the
    field's default; a value the dataclass rejects is a ConfigError."""
    section = section or {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = set(section) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    try:
        return cls(**{key: value for key, value in section.items() if value is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {name!r}: {exc}") from None


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

    sections = {name: _build(data.get(name), cls, name) for name, cls in _SECTIONS.items()}
    return _build({**data, **sections}, ExperimentConfig, "config")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of an input file; a file that is missing, unreadable or
    not UTF-8 is a ConfigError naming ``what`` and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not read {what} file {path}: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML (superset of JSON) config file and validate it. PyYAML
    is imported here, so a process that reads no config file never loads it."""
    import yaml

    try:
        data = yaml.safe_load(read_text(path, "config"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse config {path}: {exc}") from exc
    return parse_config(data or {})


def build_client(config: ExperimentConfig) -> LLMClient:
    endpoint = config.endpoint
    base_url = endpoint.base_url or os.environ.get("HIGEN_API_BASE")
    if not base_url:
        raise ConfigError("no endpoint configured: set endpoint.base_url or HIGEN_API_BASE")
    api_key = os.environ.get(endpoint.api_key_env or "HIGEN_API_KEY")
    backend = backend_from_url(base_url, api_key=api_key, timeout=endpoint.timeout, concurrency=config.concurrency)
    return LLMClient(
        backend,
        cache_dir=config.cache_dir,
        concurrency=config.concurrency,
        retry=config.retry,
    )


def _load_documents(config: ExperimentConfig) -> list[Document]:
    """Dataset documents; with a shuffle seed the sample is drawn after a
    seeded shuffle instead of taking the file-order prefix."""
    dataset = config.dataset
    shuffled = dataset.shuffle_seed is not None
    limit = None if shuffled else dataset.limit
    docs = load_dataset(dataset.path, dataset.schema, limit=limit, field_map=dataset.field_map)
    if shuffled:
        random.Random(dataset.shuffle_seed).shuffle(docs)
    return docs[: dataset.limit]


def read_records(run_dir: str | Path) -> list[SummaryRecord]:
    """The latest record of each (document, method) pair in outputs.jsonl,
    read tolerantly: a blank line, or a truncated one (which may end inside
    a UTF-8 character), is skipped."""
    path = Path(run_dir) / "outputs.jsonl"
    latest: dict[tuple[str, str], SummaryRecord] = {}
    if not path.exists():
        return []
    with path.open("rb") as handle:
        for line in handle:
            try:
                record = SummaryRecord.from_dict(json.loads(line))
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                continue
            latest[(record.doc_id, record.method)] = record
    return list(latest.values())


def run(config: ExperimentConfig, client: LLMClient | None = None) -> Path:
    """Produce a SummaryRecord for every (document, method) pair without an ok
    one: a pair whose latest record failed is tried again.

    Records append to run_dir/outputs.jsonl in task order (document id, then
    config method order) at any concurrency, each flushed as it is written;
    the manifest is replaced whole at the end. A record that finishes behind a
    slower one waits in memory until that one is written: a crash before
    then loses it, and resume redoes it, from cache_dir without a backend
    call when there is a cache and with all its calls again when there is
    none. An exception while writing (an interrupt, a full disk) cancels the
    tasks not yet started and propagates. Per-record failures are recorded,
    never raised. Once a document's last record is written, its cached
    artifacts are released (``Document.release``) and the run lets go of the
    document itself, so it can be freed while later documents run; the
    executor's queue holds each document not yet started. Returns the run
    directory.
    """
    # Every config error (dataset, endpoint) is raised before anything is
    # written, so a failed start leaves no run or cache directory behind.
    documents = sorted(_load_documents(config), key=lambda d: d.id)
    if client is None:
        client = build_client(config)
    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    outputs_path = run_dir / "outputs.jsonl"

    done = {(r.doc_id, r.method) for r in read_records(run_dir) if r.ok}
    tasks = deque(
        (doc, method)
        for doc in documents
        for method in config.methods
        if (doc.id, method) not in done
    )
    corpus_size = len(documents)
    # From here on each document is held by its unwritten tasks alone.
    del documents

    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    wall_start = time.monotonic()

    if tasks:
        with outputs_path.open("a", encoding="utf-8") as out, ThreadPoolExecutor(
            max_workers=config.concurrency
        ) as pool:
            # A crash can leave a half-written last line. End it, so the first
            # new record starts a line of its own; readers skip the fragment.
            if out.tell():
                with outputs_path.open("rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    if tail.read(1) != b"\n":
                        out.write("\n")
            # run_method is looked up at call time, so a patch of it applies.
            # The map is no local: an exception here drops it, which cancels
            # the tasks not yet started.
            for record in pool.map(lambda task: run_method(client, *task, config), tasks):
                out.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")
                out.flush()
                # The written task is tasks[0]. A document's tasks are
                # adjacent, so its last one is followed by another
                # document's or by none.
                if len(tasks) == 1 or tasks[1][0] is not tasks[0][0]:
                    tasks[0][0].release()
                tasks.popleft()

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
        "config": asdict(config),
        "started": started,
        "finished": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "wall_seconds": round(time.monotonic() - wall_start, 3),
        "corpus_size": corpus_size,
        "counts": counts,
        "llm_calls": client.backend_calls,
        "cache_hits": client.cache_hits,
    }
    write_atomically(run_dir / "manifest.json", json.dumps(manifest, ensure_ascii=False, indent=2))
    return run_dir


def evaluate(config: ExperimentConfig, run_dir: str | Path | None = None, client: LLMClient | None = None) -> Path:
    """Compute metric rows for every completed record into metrics.jsonl.

    ROUGE-L and token counts always, on the calling thread; FactScore when
    enabled, for every ok record whose document is present, in one
    ``metrics.factscores`` call whose ``concurrency`` workers judge each
    distinct summary and fact once; external scores joined by doc_id. Rows
    are sorted by (doc_id, method, metric) so repeated evaluation of the same
    outputs is byte-identical, whatever the worker count. The external scores
    files are read before any of this starts: a missing one is a ConfigError,
    a damaged one a DatasetError.
    """
    run_dir = Path(run_dir or config.run_dir)
    outputs_path = run_dir / "outputs.jsonl"
    if not outputs_path.exists():
        raise ConfigError(f"no outputs.jsonl under {run_dir}; run the experiment first")
    external = []
    for entry in config.metrics.external_scores:
        if not Path(entry["path"]).is_file():
            raise ConfigError(f"external scores file not found: {entry['path']}")
        external.append((entry, metrics_mod.load_external_scores(entry["path"], entry["name"])))

    documents = {doc.id: doc for doc in _load_documents(config)}
    records = read_records(run_dir)

    if config.metrics.enable_factscore and client is None:
        client = build_client(config)

    rows: list[dict] = []
    judged: list[dict] = []  # the row base of each item FactScore judges
    items: list[tuple[str, Document]] = []
    for record in records:
        base = {"doc_id": record.doc_id, "method": record.method}
        if not record.ok:
            rows.append({**base, "warning": f"record failed at stage {record.error_stage}; metrics skipped"})
            continue
        document = documents.get(record.doc_id)
        if document is None:
            rows.append({**base, "warning": "document missing from dataset; metrics skipped"})
            continue

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
            judged.append(base)
            items.append((record.summary, document))

    if items:
        reports = metrics_mod.factscores(items, client, config.judge_model, config.concurrency)
        for base, report in zip(judged, reports):
            if report.score is not None:
                rows.append({**base, "metric": "factscore", "value": report.score})
            elif report.failed_step:
                rows.append({**base, "warning": f"factscore {report.failed_step} failed; score absent"})
            else:
                rows.append({**base, "warning": "factscore has no parseable verdict; score absent"})

    methods_present = sorted({r.method for r in records})
    ok_pairs = {(r.doc_id, r.method) for r in records if r.ok}
    for entry, scores in external:
        target_methods = [entry["method"]] if entry.get("method") else methods_present
        for method in target_methods:
            for doc_id, value in sorted(scores.items()):
                if (doc_id, method) in ok_pairs:
                    rows.append({"doc_id": doc_id, "method": method, "metric": entry["name"], "value": value})

    rows.sort(key=lambda r: (r["doc_id"], r["method"], r.get("metric", ""), r.get("warning", "")))
    metrics_path = run_dir / "metrics.jsonl"
    with metrics_path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    return metrics_path


def read_metric_rows(run_dir: str | Path) -> list[dict]:
    """The rows of a run's metrics.jsonl. Every row needs a string doc_id and
    method, and a row with a metric also a string metric and a finite number
    value; any other row is a DatasetError naming its line. Warning rows pass
    as they are."""
    path = Path(run_dir) / "metrics.jsonl"
    if not path.exists():
        raise ConfigError(f"no metrics.jsonl under {run_dir}; evaluate first")
    rows = []
    for lineno, row in read_jsonl(path):
        if not (isinstance(row.get("doc_id"), str) and isinstance(row.get("method"), str)):
            raise DatasetError(f"{path}:{lineno}: a metric row needs a string doc_id and method")
        if "metric" in row and not (isinstance(row["metric"], str) and is_number(row.get("value"))):
            raise DatasetError(f"{path}:{lineno}: a metric row needs a string metric and a finite number value")
        rows.append(row)
    return rows
