"""higen benchmark: the user's ``run -> evaluate -> report`` path on seeded
synthetic corpora, driven from outside the package.

    python3 bench/run.py --workload gov_cold --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one process, ``concurrency: 2`` workers, and
passes over the workload's corpus repeated until ``--seconds`` of measured
time have elapsed, and at least the workload's ``passes`` times. A pass is
``runner.run``, ``runner.evaluate`` and ``report.aggregate``/``report.emit``,
the calls ``higen.cli`` makes, into a fresh run directory.

  gov_cold     GovReport-shaped prose, all five methods, mock backend, default
               config (k=30, m=64), a fresh cache every pass.
  gov_cc_warm  the same generator with its own structure seed, two_stage_cc
               only with attribution.m=256; set-up fills the cache with a cold
               run, and every pass rereads it with zero backend calls.
  qmsum_http   QMSum-shaped transcripts, all five methods plus FactScore,
               against the stub OpenAI-compatible server in its own process,
               with the default retry policy.

``--seed`` spells the corpus words; the corpus structure is fixed per
workload (see corpus_gen.py), so runs with different seeds do equal work on
different text. With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics of the traced passes, with the spans written to
``.bench_out/``. Every pass is checked; a failed check prints
``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    shape: str
    docs: int
    structure_seed: int
    methods: tuple[str, ...]
    config: dict = field(default_factory=dict)
    http: bool = False
    warm: bool = False
    passes: int = 5  # passes per run at least; rates are their median
    setups: int = 9  # set-ups per run; setup_s is their median

    @property
    def schema(self) -> str:
        return "scrolls_qmsum" if self.shape == "qmsum" else "scrolls_govreport"


ALL_METHODS = ("direct", "e2e", "two_stage_gen", "two_stage_lexrank", "two_stage_cc")
WORKLOADS = {
    # The first structure seed whose corpus has a document at or below the
    # floor, so that two_stage_cc both fails and fits in every pass.
    # A set-up is one ~80 ms corpus generation, so many are cheap.
    "gov_cold": Workload("gov", docs=4, structure_seed=3, methods=ALL_METHODS, setups=21),
    "gov_cc_warm": Workload(
        "gov",
        docs=3,
        structure_seed=2,
        methods=("two_stage_cc",),
        config={"attribution": {"m": 256}},
        warm=True,
        setups=3,  # each set-up is a full cold fill
    ),
    # Retries sleep the default backoff (1 s base), a cost every user pays.
    # A pass is long and mostly waiting, so three passes already agree.
    "qmsum_http": Workload(
        "qmsum",
        docs=1,
        structure_seed=3,
        methods=ALL_METHODS,
        config={"metrics": {"enable_factscore": True}},
        http=True,
        passes=3,
    ),
}
END_TO_END_UNITS = {
    "records_ok_per_min": "1/min",
    "failed_share": "ratio",
    "round_trips_per_ok_record": "count",
    "cpu_ms_per_ok_record": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    ok: int
    round_trips: int
    digest: str
    by_method: dict
    stub_counts: dict | None = None


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.stub = None
        self.corpus = work / "corpus.jsonl"
        self.fill: Pass | None = None
        self.fill_outputs: dict | None = None
        self.sentences: dict[str, int] = {}

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> float:
        """Generate the corpus, start the stub, fill the cache; returns seconds."""
        started = time.perf_counter()
        w = self.workload
        records = corpus_gen.generate(w.shape, w.docs, self.seed, w.structure_seed)
        corpus_gen.write_jsonl(records, self.corpus)
        self.sentences = {r["id"]: r["sentences"] for r in records}
        if w.http:
            if self.stub is not None:
                self.stub.close()
            self.stub = StubProcess()
        if w.warm:
            for stale in ("fill", "fill_cache"):
                shutil.rmtree(self.work / stale, ignore_errors=True)
            self.fill = None  # so that check_pass checks the fill as a cold pass
            self.fill = self.one_pass(self.work / "fill", self.work / "fill_cache")
            self.fill_outputs = outputs_by_pair(self.work / "fill")
        return time.perf_counter() - started

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    # -- one pass -------------------------------------------------------------

    def config(self, run_dir: Path, cache_dir: Path):
        w = self.workload
        data = {
            "dataset": {"path": str(self.corpus), "schema": w.schema},
            "methods": list(w.methods),
            "model": "bench-model",
            "run_dir": str(run_dir),
            "endpoint": {"base_url": self.stub.base_url if w.http else "mock://echo_first_k?scorer=overlap"},
            "concurrency": 2,
            "cache_dir": str(cache_dir),
            **w.config,
        }
        return runner.parse_config(data)

    def one_pass(self, run_dir: Path, cache_dir: Path, tracer=None) -> Pass:
        config = self.config(run_dir, cache_dir)
        client = runner.build_client(config)
        if self.stub is not None:
            self.stub.reset()
        span = tracer.span if tracer else (lambda name: nullcontext())
        cpu0, wall0 = time.process_time(), time.perf_counter()
        runner.run(config, client=client)
        runner.evaluate(config, client=client)
        with span("report"):
            emit_report(run_dir)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        stub_counts = self.stub.reset() if self.stub is not None else None
        round_trips = stub_counts["requests"] if stub_counts is not None else client.backend.calls
        attempted, ok = self.check_pass(run_dir, client, stub_counts)
        by_method = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["counts"]
        return Pass(wall, cpu, attempted, ok, round_trips, outputs_digest(run_dir), by_method, stub_counts)

    def check_pass(self, run_dir: Path, client, stub_counts: dict | None) -> tuple[int, int]:
        w = self.workload
        records = runner.read_records(run_dir)
        pairs = [(r.doc_id, r.method) for r in records]
        expected = {(doc, method) for doc in self.sentences for method in w.methods}
        check(len(pairs) == len(set(pairs)) and set(pairs) == expected, "not exactly one record per (document, method)")
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        check(manifest["corpus_size"] == len(self.sentences), "manifest corpus_size differs from the corpus")
        for method in w.methods:
            mine = [r for r in records if r.method == method]
            counts = {
                "ok": sum(r.ok for r in mine),
                "failed": sum(not r.ok for r in mine),
                "fallback": sum(r.fallback_used for r in mine),
            }
            check(manifest["counts"][method] == counts, f"manifest counts for {method} differ from the records")
        rows = runner.read_metric_rows(run_dir)
        scored = {(r["doc_id"], r["method"]) for r in rows if r.get("metric") == "rouge_l"}
        ok_pairs = {(r.doc_id, r.method) for r in records if r.ok}
        check(bool(ok_pairs), "no record succeeded")
        check(ok_pairs <= scored, "metrics.jsonl lacks a rouge_l row for an ok record")
        if w.config.get("metrics", {}).get("enable_factscore"):
            facts = {(r["doc_id"], r["method"]) for r in rows if r.get("metric") == "factscore"}
            check(ok_pairs <= facts, "metrics.jsonl lacks a factscore row for an ok record")
        if w.warm and self.fill is not None:
            check(client.backend_calls == 0 and client.backend.calls == 0, "warm pass made backend calls")
            check(outputs_by_pair(run_dir) == self.fill_outputs, "warm outputs differ from the cold fill's")
        if stub_counts is not None:
            check(stub_counts["requests"] >= client.backend_calls, "stub saw fewer requests than the client sent")
        return len(records), len(ok_pairs)

    def check_corpus(self) -> None:
        docs = corpus.load_dataset(self.corpus, self.workload.schema)
        segmented = {d.id: len(d.sentences) for d in docs}
        check(segmented == self.sentences, "higen segments the corpus into other sentence counts than generated")


def emit_report(run_dir: Path) -> None:
    """What ``higen report`` does: aggregate metrics.jsonl, write report.md/csv."""
    snapshot = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["config"]
    table = report.aggregate(
        runner.read_metric_rows(run_dir),
        snapshot["methods"],
        dataset=Path(snapshot["dataset"]["path"]).stem,
        model=snapshot["model"],
    )
    report.emit(table, run_dir)


def outputs_by_pair(run_dir: Path) -> dict:
    """Records keyed by (doc, method), every field but the timing ``wall_ms``."""
    out = {}
    for line in (run_dir / "outputs.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("wall_ms")
        out[(record["doc_id"], record["method"])] = record
    return out


def outputs_digest(run_dir: Path) -> str:
    records = sorted(outputs_by_pair(run_dir).items())
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode("utf-8")).hexdigest()


def end_to_end(bench: Bench, passes: list[Pass], setups: list[float]) -> dict[str, float]:
    """Every pass repeats the same work, so rates are medians over passes: a
    burst of load on the host moves one pass, not the run's figure."""
    ok = sum(p.ok for p in passes)
    attempted = sum(p.attempted for p in passes)
    # Warm passes make no round trips by design (checked); their records cost
    # the round trips of the cold fill that serves them.
    trips = bench.fill.round_trips / bench.fill.ok if bench.workload.warm else sum(p.round_trips for p in passes) / ok
    return {
        "records_ok_per_min": statistics.median(60.0 * p.ok / p.wall_s for p in passes),
        "failed_share": (attempted - ok) / attempted,
        "round_trips_per_ok_record": trips,
        "cpu_ms_per_ok_record": statistics.median(1000.0 * p.cpu_s / p.ok for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


def measure(bench: Bench, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, list[Pass]]:
    passes: list[Pass] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    spans = []
    if trace:
        tracing.self_test()
        tracer = tracing.Tracer()
    elapsed = 0.0
    index = 0
    # Traced runs order passes untraced, traced, traced, untraced, ... so that
    # warm-up and drift fall on both sides of the overhead estimate.
    while elapsed < seconds or len(passes) < bench.workload.passes or (trace and index % 4):
        run_dir = bench.work / f"run{index}"
        cache_dir = bench.work / "fill_cache" if bench.workload.warm else bench.work / f"cache{index}"
        if trace and index % 4 in (1, 2):
            layers.instrument(tracer)
            try:
                result = bench.one_pass(run_dir, cache_dir, tracer)
            finally:
                tracer.restore()
            pass_spans = tracer.take()
            layer_runs.append(layers.layer_metrics(pass_spans, result.cpu_s, result.stub_counts))
            traced_walls.append(result.wall_s)
            spans.extend(pass_spans)
        else:
            result = bench.one_pass(run_dir, cache_dir)
            untraced_walls.append(result.wall_s)
        passes.append(result)
        check(result.digest == passes[0].digest, "outputs differ between passes of the same inputs")
        elapsed += result.wall_s
        shutil.rmtree(run_dir)
        if not bench.workload.warm:
            shutil.rmtree(cache_dir)
        index += 1
    if not trace:
        return {}, passes
    out_dir.mkdir(exist_ok=True)
    tracing.Tracer.dump(spans, out_dir / f"trace-{bench.name}-seed{bench.seed}.jsonl")
    per_layer = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    per_layer["trace.overhead_share"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    return per_layer, passes


def check_definition() -> None:
    """The metric names this file prints must be the ones BENCHMARK.json lists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    for key, names in (("end_to_end", END_TO_END_UNITS), ("per_layer", layers.UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != names:
            raise SystemExit(f"bench/run.py: BENCHMARK.json {key} differs from the metrics this benchmark prints")


def main() -> int:
    parser = argparse.ArgumentParser(description="higen benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_definition()

    # On SIGTERM, unwind through the finally below: stop the stub, drop the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    random.seed(args.seed)  # the client's retry jitter draws from the global generator
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        setups = [bench.set_up() for _ in range(bench.workload.setups)]
        bench.check_corpus()
        metrics, passes = measure(bench, args.seconds, bool(args.trace), ROOT / ".bench_out")
        if not args.trace:
            metrics = end_to_end(bench, passes, setups)
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        metrics, passes, correct = {}, [], False
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)

    # two_stage_cc fails unless m > n/2 + 2, i.e. above n = 2m - 4 sentences
    floor = 2 * bench.workload.config.get("attribution", {}).get("m", 64) - 4
    above = sum(n > floor for n in bench.sentences.values())
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes")
    print(f"sentences per document: {json.dumps(bench.sentences)}")
    print(f"documents above the {floor}-sentence floor of two_stage_cc: {above}/{len(bench.sentences)}")
    if passes:
        print(f"outputs sha256: {passes[0].digest}")
        print(f"records by method, first pass: {json.dumps(passes[0].by_method)}")
        print(f"pass wall seconds: {json.dumps([round(p.wall_s, 3) for p in passes])}")
    units = END_TO_END_UNITS if not args.trace else layers.UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted = sum(p.attempted for p in passes)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": attempted - sum(p.ok for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "higen" / "__init__.py").is_file():
        print(f"bench/run.py: no higen sources under {ROOT / 'src'}; run it from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import corpus_gen
    import layers
    import tracing
    from higen import corpus, report, runner
    from stub_server import StubProcess

    sys.exit(main())
