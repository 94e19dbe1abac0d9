"""Command-line interface.

Exit codes: 0 ok, 1 usage error, 2 configuration or dataset error, 3
completed with partial failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .attribution import contextcite_attribute
from .corpus import make_document
from .errors import ConfigError, DatasetError, HigenError
from .lexrank import build_similarity_graph, dump_similarity_csv
from .pipeline import PipelineParams, plan
from .prompts import ranked_highlights
from .report import aggregate, emit
from .runner import build_client, evaluate, load_config, read_metric_rows, read_records, read_text, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _k_option(text: str) -> int:
    """The value of ``highlight -k``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"k must be an integer >= 1, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="higen", description="Highlight-guided summarization pipeline and evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured methods over the dataset")
    p_run.add_argument("-c", "--config", required=True)

    p_eval = sub.add_parser("evaluate", help="compute metrics for a completed run")
    p_eval.add_argument("-c", "--config", required=True)
    p_eval.add_argument("--run-dir", default=None)

    p_report = sub.add_parser("report", help="aggregate metrics into the results table")
    p_report.add_argument("--run-dir", required=True)
    p_report.add_argument("--format", choices=["md", "csv", "both"], default="both")

    p_hl = sub.add_parser("highlight", help="extract highlights from a document file")
    p_hl.add_argument("--method", choices=["lexrank", "contextcite", "generative"], required=True)
    p_hl.add_argument("--doc", required=True)
    p_hl.add_argument("-k", type=_k_option, help="highlights to extract (default: the config's k, or 30)")
    p_hl.add_argument("-c", "--config", default=None)
    p_hl.add_argument("--dump-similarity", default=None, help="write the LexRank similarity matrix as CSV")

    p_attr = sub.add_parser("attribute", help="attribute a response to document sentences")
    p_attr.add_argument("--doc", required=True)
    p_attr.add_argument("--response", required=True)
    p_attr.add_argument("-c", "--config", default=None)
    p_attr.add_argument("--dump-ablations", default=None, help="write (mask, logit) pairs as JSONL")
    return parser


def _document_from_file(path: str, need_sentences: bool = False):
    document = make_document(Path(path).stem, read_text(path, "document"))
    if need_sentences and not document.sentences:
        raise DatasetError(f"document {path} has no sentences to attribute")
    return document


def _cmd_run(args) -> int:
    config = load_config(args.config)
    run_dir = run(config)
    records = read_records(run_dir)
    failed = sum(1 for r in records if not r.ok)
    print(f"run complete: {len(records)} records in {run_dir} ({failed} failed)")
    return EXIT_PARTIAL if failed else EXIT_OK


def _cmd_evaluate(args) -> int:
    config = load_config(args.config)
    path = evaluate(config, run_dir=args.run_dir)
    print(f"metrics written to {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    try:
        manifest = json.loads(read_text(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path} is not a JSON object")
    snapshot = manifest.get("config", {})
    if not isinstance(snapshot, dict) or not isinstance(snapshot.get("dataset", {}), dict):
        raise ConfigError(f"{manifest_path}: config and config.dataset must be JSON objects")
    dataset_path, model = snapshot.get("dataset", {}).get("path", ""), snapshot.get("model", "")
    methods = snapshot.get("methods", [])
    if not all(isinstance(value, str) for value in (dataset_path, model)):
        raise ConfigError(f"{manifest_path}: config.dataset.path and config.model must be strings")
    if not isinstance(methods, list) or not all(isinstance(method, str) for method in methods):
        raise ConfigError(f"{manifest_path}: config.methods must be a list of strings")
    table = aggregate(read_metric_rows(run_dir), methods, dataset=Path(dataset_path).stem, model=model)
    for path in emit(table, run_dir, fmt=args.format):
        print(f"report written to {path}")
    return EXIT_OK


def _cmd_highlight(args) -> int:
    document = _document_from_file(args.doc, need_sentences=args.method == "contextcite")
    config = load_config(args.config) if args.config else None
    if config is None and args.method != "lexrank":
        raise ConfigError(f"--method {args.method} needs a config with an endpoint and model")
    params = config or PipelineParams(model="")
    if args.k is not None:
        params = replace(params, k=args.k)
    if args.dump_similarity:
        weights = build_similarity_graph(document.token_index, threshold=params.lexrank.threshold)
        dump_similarity_csv(weights, args.dump_similarity)
    client = build_client(config) if args.method != "lexrank" else None
    for i, item in enumerate(plan(client, document, args.method, params).items, start=1):
        print(f"{i}. {item.text}")
    return EXIT_OK


def _cmd_attribute(args) -> int:
    if not args.config:
        raise ConfigError("attribute needs a config with an endpoint and model")
    config = load_config(args.config)
    document = _document_from_file(args.doc, need_sentences=True)
    response_text = read_text(args.response, "response").strip()
    if not response_text:
        raise DatasetError(f"response {args.response} is empty")
    client = build_client(config)
    result = contextcite_attribute(
        client,
        document,
        response_text,
        config.model,
        config.attribution,
        seed=config.seed,
        dump_path=args.dump_ablations,
    )
    highlights = ranked_highlights("contextcite", document, result.scores, config.k)
    print(
        json.dumps(
            {
                "doc_id": document.id,
                "scores": result.scores,
                "intercept": result.intercept,
                "lambda": result.lambda_,
                "num_ablations": result.num_ablations,
                "r_squared": result.r_squared,
                "iterations": result.iterations,
                "converged": result.converged,
                "kkt_residual": result.kkt_residual,
                "scoring_requests": result.scoring_requests,
                "seed": result.seed,
                "highlight_indices": [h.source_index for h in highlights.items],
            },
            ensure_ascii=False,
        )
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "run": _cmd_run,
        "evaluate": _cmd_evaluate,
        "report": _cmd_report,
        "highlight": _cmd_highlight,
        "attribute": _cmd_attribute,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HigenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
