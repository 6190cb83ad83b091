"""elia's benchmark: seeded offline workloads through the CLI, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

One client runs the workload's chain of ``elia.cli.main`` subcommands in a
closed loop: each repetition starts in a fresh process with a clean store
and output directory, after the previous one ended. Repetitions continue
while the next one is expected to finish within ``--seconds`` (at least
three, or two traced pairs, unless ``--seconds`` has already run out).
Every repetition's outputs are checked against references computed from
the generator's ground truth (see reference.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, the
self time of each ``cli.*`` span and the tracing overhead (traced minus
untraced median chain time). Metric names, units and bounds live in
BENCHMARK.json at the repository root. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; ``attempted`` and
``failed`` count CLI stages, a stage failing when it exits non-zero or one
of the checks on its output fails.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import check_outputs, expected_retained
from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_REPEATS = 3
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60

# Per-layer call counts and the span whose calls they count.
CALL_COUNTS = {
    "core.content_hash_calls": "core.content_hash",
    "store.load_calls": "store.load_store",
    "store.save_calls": "store.save_store",
    "extraction.backend_calls": "extraction.backend_complete",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run (missing program, broken generator)."""


def load_definition() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchmarkError(f"{path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def chain_for(workload: str, inputs: str, out: str) -> list[tuple[str, list[str]]]:
    """The workload's CLI stages as (subcommand, argv) pairs."""
    store = ["--store", os.path.join(out, "store")]
    if workload == "pipeline":
        pre = store + ["--config", os.path.join(inputs, "elia.conf")]
        transcripts = sorted(glob.glob(os.path.join(inputs, "*.txt")))
        return [
            ("ingest-bol", pre + ["ingest-bol", os.path.join(inputs, "bol.csv"),
                                  "--normalize-products"]),
            ("ingest-transcripts", pre + ["ingest-transcripts", *transcripts]),
            ("extract", pre + ["extract", "--backend", "recorded",
                               "--fixture", os.path.join(inputs, "responses.ndjson")]),
            ("resolve", pre + ["resolve"]),
            ("build", pre + ["build", "--factors", os.path.join(inputs, "factors.ndjson")]),
            ("propagate", pre + ["propagate"]),
            ("query", pre + ["query", "top", "-k", "10"]),
            ("export", pre + ["export", "--format", "gexf", "--with-report",
                              "--out", os.path.join(out, "graph.gexf")]),
            ("eval", pre + ["eval", "--pred", os.path.join(inputs, "pred.ndjson"),
                            "--gold", os.path.join(inputs, "gold.ndjson"),
                            "--out", os.path.join(out, "metrics.json")]),
        ]
    graph = ["--graph", os.path.join(inputs, "graph.json")]
    report = os.path.join(out, "report.json")
    cycle = ["--on-cycle", "iterate"] if workload == "graph_cyclic" else []
    fmt = "dot" if workload == "graph_cyclic" else "gexf"
    return [
        ("propagate", store + ["propagate", *cycle, *graph, "--out", report]),
        ("query", store + ["query", "top", "-k", "10", *graph, "--report", report]),
        ("export", store + ["export", "--format", fmt, "--with-report", *graph,
                            "--report", report, "--out", os.path.join(out, f"graph.{fmt}")]),
    ]


def _tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def setup(workload: str, seed: int, work: str, scale: str):
    """Generate the inputs several times; each copy must be byte-identical."""
    times, digests = [], set()
    for i in range(SETUP_REPEATS):
        target = os.path.join(work, f"inputs{i}")
        started = time.perf_counter()
        truth = generate(workload, seed, target, scale)
        times.append(time.perf_counter() - started)
        digests.add(_tree_digest(target))
        if i:
            shutil.rmtree(target)
    if len(digests) != 1:
        raise BenchmarkError(f"generator is not deterministic for {workload} seed {seed}")
    return truth, os.path.join(work, "inputs0"), times


def run_child(stages, trace: bool, work: str) -> dict:
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"stages": stages, "trace": trace, "result": result_path}, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed hash seed gives every repetition the same set and dict layouts.
    env["PYTHONHASHSEED"] = "0"
    with open(os.path.join(work, "stderr.txt"), "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "chain.py"), spec_path],
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not os.path.exists(result_path):
        with open(os.path.join(work, "stderr.txt"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        return {"crashed": f"chain process exit {code}: {tail}", "stages": []}
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def repetition(workload, truth, expected, inputs, work, trace: bool) -> dict:
    """One clean run of the chain plus its output checks."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    stages = chain_for(workload, inputs, out)
    result = run_child(stages, trace, work)
    ran = result["stages"]
    failed = {s["name"]: f"exit {s['code']} {s['error'][-300:]}".strip()
              for s in ran if s["code"] != 0}
    if "crashed" in result:
        failed["chain"] = result["crashed"]
    if len(ran) == len(stages) and not failed:
        stdout = {s["name"]: s["stdout"] for s in ran}
        for stage, name, ok, detail in check_outputs(truth, expected, out, stdout):
            if not ok:
                failed.setdefault(stage, f"check '{name}' failed: {detail}")
    result["traced"] = trace
    result["attempted"] = max(len(ran), 1)
    result["failed"] = failed
    result["output_bytes"] = _tree_bytes(out)
    return result


def layer_metrics(names: list[str], summary: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from one traced repetition; names it never reached."""
    spans, counts, values = summary["spans"], summary["counts"], summary["values"]
    out, absent = {}, []
    for name in names:
        if name == "trace.overhead_s":
            continue  # needs the untraced repetitions; set by summarize
        if name in CALL_COUNTS:
            span = spans.get(CALL_COUNTS[name])
            value = span["calls"] if span else None
        elif name.endswith("_self_s"):
            span = spans.get(name[: -len("_self_s")])
            value = span["self_s"] if span else None
        elif name.endswith("_s"):
            span = spans.get(name[: -len("_s")])
            value = span["total_s"] if span else None
        elif name == "extraction.triples_per_call":
            calls = spans.get(CALL_COUNTS["extraction.backend_calls"], {}).get("calls")
            value = counts.get("extraction.triples", 0) / calls if calls else None
        elif name in values:
            value = values[name]
        else:
            value = counts.get(name)
        if value is None:
            absent.append(name)
            value = 0
        out[name] = value
    return out, absent


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", emit=print) -> dict:
    if not os.path.exists(os.path.join(SRC, "elia", "__init__.py")):
        raise BenchmarkError(f"elia sources not found under {SRC}")
    definition = load_definition()
    work = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        truth, inputs, gen_times = setup(workload, seed, work, scale)
        expected = expected_retained(truth)
        reps: list[dict] = []
        step_times: list[float] = []
        min_steps = MIN_TRACED_PAIRS if trace else MIN_REPS
        started = time.perf_counter()
        while True:
            step_started = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                reps.append(repetition(workload, truth, expected, inputs, work, traced))
            step_times.append(time.perf_counter() - step_started)
            elapsed = time.perf_counter() - started
            if elapsed >= seconds or (len(step_times) >= min_steps
                                      and elapsed + _median(step_times) > seconds):
                break
        measured_s = time.perf_counter() - started
        return summarize(workload, seed, definition, truth, reps, gen_times, trace,
                         measured_s, emit)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _samples_line(chain: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    ordered = sorted(chain)
    line = (f"# pipeline_s samples: n={len(chain)} min={ordered[0]:.4f} "
            f"median={statistics.median(ordered):.4f} max={ordered[-1]:.4f}")
    rank = len(ordered) - 10
    if rank > len(ordered) / 2:
        line += f" p{100 * rank / len(ordered):.0f}={ordered[rank - 1]:.4f}"
    return line


def summarize(workload, seed, definition, truth, reps, gen_times, trace, measured_s,
              emit) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    plain = [r for r in reps if not r["traced"] and "chain_s" in r]
    chain = [r["chain_s"] for r in plain]
    pipeline_s = _median(chain)
    emit(f"# workload {workload}, seed {seed}: {len(reps)} repetitions "
         f"({len(plain)} untraced) in {measured_s:.1f} s; closed loop, one client, "
         f"{truth.items} input items")
    if chain:
        emit(_samples_line(chain))
        stage_s = {}
        for r in plain:
            for stage in r["stages"]:
                stage_s.setdefault(stage["name"], []).append(stage["wall_s"])
        emit("# stage medians (untraced): " + ", ".join(
            f"{name} {_median(times):.3f} s" for name, times in stage_s.items()))
    emit(f"# failed_ratio {failed / attempted:.4f} ({failed} of {attempted} stages)")
    for stage, why in sorted({kv for r in reps for kv in r["failed"].items()}):
        emit(f"# FAILED {stage}: {why}")

    if not trace:
        import_s = _median([r["import_s"] for r in plain])
        values = {
            "setup_s": _median(gen_times) + import_s,
            "pipeline_s": pipeline_s,
            "items_per_s": truth.items / pipeline_s if pipeline_s else 0.0,
            "peak_rss_mb": _median([r["maxrss_kb"] / 1024.0 for r in plain]),
            "output_bytes": _median([r["output_bytes"] for r in plain]),
            "stages_ok_ratio": 1.0 - failed / attempted,
        }
        specs = definition["end_to_end"]
    else:
        names = [m["name"] for m in definition["per_layer"]]
        traced = [r for r in reps if r["traced"] and r.get("trace")]
        rows, absent = [], []
        for r in traced:
            row, absent = layer_metrics(names, r["trace"])
            rows.append(row)
        values = {n: _median([row[n] for row in rows]) for n in rows[0]} if rows else {}
        traced_chain = _median([r["chain_s"] for r in traced])
        values["trace.overhead_s"] = traced_chain - pipeline_s
        emit(f"# traced pipeline_s {traced_chain:.4f} - untraced {pipeline_s:.4f} "
             f"= overhead {values['trace.overhead_s']:.4f} s")
        emit(f"# absent on {workload} (reported as 0): {', '.join(absent) or 'none'}")
        specs = definition["per_layer"]
        os.makedirs(WORK, exist_ok=True)
        if traced:
            with open(os.path.join(WORK, f"trace-{workload}-s{seed}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(traced[-1]["trace"], fh, indent=1, sort_keys=True)

    metrics = {}
    for spec in specs:
        value = values.get(spec["name"], 0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        emit(f"{spec['name']:<36} {value:>16.6g} {spec['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
