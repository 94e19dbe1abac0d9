"""Aggregate per-document metric rows into a results table.

Per metric column the best mean is bolded; the next-best method earns a star
when a paired t-test against the best is significant at p < 0.05 (strict).
Length columns are descriptive and never bolded. Significance reuses the
metrics module's paired t-test; nothing is reimplemented here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ReportError
from .metrics import paired_t_test

SIGNIFICANCE_LEVEL = 0.05

# Columns reported but excluded from best/star marking.
LENGTH_METRICS = {"tokens"}

# Stored alongside the default length column but not tabled (the table keeps
# the single #Tokens column; the alternate count stays in metrics.jsonl).
UNTABLED_METRICS = {"tokens_alnum"}

_DISPLAY_NAMES = {"rouge_l": "R-L", "factscore": "FactScore", "tokens": "#Tokens"}


@dataclass
class Cell:
    mean: float
    n: int
    is_best: bool = False
    is_sig_next_best: bool = False


@dataclass
class ResultTable:
    methods: list[str]
    metrics: list[str]
    cells: dict[tuple[str, str], Cell]
    dataset: str = ""
    model: str = ""
    tie_notes: list[str] = field(default_factory=list)


def _metric_order(names: set[str]) -> list[str]:
    """R-L first, FactScore second, external metrics alphabetically, length last."""
    return sorted(
        names - UNTABLED_METRICS, key=lambda name: (name != "rouge_l", name != "factscore", name in LENGTH_METRICS, name)
    )


def aggregate(
    metric_rows: list[dict],
    methods_order: list[str],
    dataset: str = "",
    model: str = "",
) -> ResultTable:
    """Build the results table from (doc_id, method, metric, value) rows.

    Means are taken over the inner join of documents scored for every method
    that reports the metric. Ties for best go to the earlier method in config
    order and are footnoted.
    """
    values: dict[str, dict[str, dict[str, float]]] = {}
    for row in metric_rows:
        if "metric" not in row or "value" not in row:
            continue
        values.setdefault(row["metric"], {}).setdefault(row["method"], {})[row["doc_id"]] = float(row["value"])

    metric_names = _metric_order(set(values))
    cells: dict[tuple[str, str], Cell] = {}
    tie_notes: list[str] = []

    for metric in metric_names:
        per_method = values[metric]
        methods = [m for m in methods_order if m in per_method]
        if not methods:
            continue
        joined = set.intersection(*(set(per_method[m]) for m in methods))
        if not joined:
            raise ReportError(f"empty document join for metric {metric!r} across methods {methods}")
        doc_order = sorted(joined)
        for method in methods:
            vals = [per_method[method][d] for d in doc_order]
            cells[(method, metric)] = Cell(mean=sum(vals) / len(vals), n=len(vals))

        if metric in LENGTH_METRICS:
            continue

        best_mean = max(cells[(m, metric)].mean for m in methods)
        best_candidates = [m for m in methods if cells[(m, metric)].mean == best_mean]
        best = best_candidates[0]
        if len(best_candidates) > 1:
            tie_notes.append(
                f"{metric}: tie for best broken toward {best!r} (config order)"
            )
        cells[(best, metric)].is_best = True

        rest = [m for m in methods if m != best]
        if not rest:
            continue
        next_best = max(rest, key=lambda m: (cells[(m, metric)].mean, -methods.index(m)))
        if cells[(next_best, metric)].n >= 2:
            best_vals = [per_method[best][d] for d in doc_order]
            next_vals = [per_method[next_best][d] for d in doc_order]
            result = paired_t_test(best_vals, next_vals)
            if result.p < SIGNIFICANCE_LEVEL:
                cells[(next_best, metric)].is_sig_next_best = True

    methods_present = [m for m in methods_order if any((m, metric) in cells for metric in metric_names)]
    return ResultTable(
        methods=methods_present,
        metrics=metric_names,
        cells=cells,
        dataset=dataset,
        model=model,
        tie_notes=tie_notes,
    )


def _format_cell(cell: Cell | None) -> str:
    if cell is None:
        return "-"
    text = f"{cell.mean:.2f}"
    if cell.is_best:
        return f"**{text}**"
    if cell.is_sig_next_best:
        return f"{text}*"
    return text


def to_markdown(table: ResultTable) -> str:
    header = "| Method | " + " | ".join(_DISPLAY_NAMES.get(m, m) for m in table.metrics) + " |"
    separator = "|" + "---|" * (len(table.metrics) + 1)
    lines = [header, separator]
    for method in table.methods:
        cells = [_format_cell(table.cells.get((method, metric))) for metric in table.metrics]
        lines.append("| " + method + " | " + " | ".join(cells) + " |")
    for note in table.tie_notes:
        lines.append(f"(note: {note})")
    return "\n".join(lines) + "\n"


def to_csv(table: ResultTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["dataset", "model", "method", "metric", "mean", "n", "is_best", "is_sig_next_best"])
    for method in table.methods:
        for metric in table.metrics:
            cell = table.cells.get((method, metric))
            if cell is None:
                continue
            writer.writerow(
                [table.dataset, table.model, method, metric, repr(cell.mean), cell.n, cell.is_best, cell.is_sig_next_best]
            )
    return buffer.getvalue()


def emit(table: ResultTable, run_dir: str | Path, fmt: str = "both") -> list[Path]:
    """Write report.md and/or report.csv into the run directory."""
    if fmt not in ("md", "csv", "both"):
        raise ValueError("format must be md, csv, or both")
    run_dir = Path(run_dir)
    written = []
    if fmt in ("md", "both"):
        path = run_dir / "report.md"
        path.write_text(to_markdown(table), encoding="utf-8")
        written.append(path)
    if fmt in ("csv", "both"):
        path = run_dir / "report.csv"
        path.write_text(to_csv(table), encoding="utf-8")
        written.append(path)
    return written
