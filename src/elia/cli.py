"""Command-line pipeline: ingest -> extract -> resolve -> build -> report.

Logs go to stderr, data to stdout or files. Exit codes: 0 success, 1
validation/configuration error, 2 I/O or transport error. The only
network-capable path is ``extract --backend live``; everything else is
offline by construction.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import logging
import math
import os
import sys
from pathlib import Path

from .bol import normalize_product_desc, parse_bol_file
from .config import Config, load_config
from .core import EmissionFactor, no_gc, replace_file
from .errors import ConfigError, EliaError, UsageError
from .evalkit import load_triples_flat, metrics_to_dict, render_metrics_table, score
from .exporter import (
    ExportOptions,
    export,
    import_graph_json,
    load_report_json,
    save_report_json,
)
from .extraction import (
    HttpCompletionBackend,
    PromptConfig,
    RecordedBackend,
    RuleBasedBackend,
    extract_batch,
    load_examples,
)
from .graph import (
    MODES,
    ON_CYCLE,
    FactorSampler,
    build_graph,
    load_factor_table,
    propagate,
    query,
)
from .resolution import apply_overrides, load_overrides, resolve
from .store import load_store, new_store, save_store
from .transcripts import (
    detect_mentions,
    gazetteer_from_store,
    load_transcript,
    prefilter,
    read_gazetteer_names,
    segment,
)

log = logging.getLogger("elia")

GRAPH_FILE = "graph.json"
REPORT_FILE = "report.json"


def fixtures_dir() -> Path:
    return Path(importlib.resources.files("elia")) / "fixtures"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise UsageError(message)


def _one_character(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _store_stage(name: str, store_dir: str, stage, *stage_args, create: bool = False) -> int:
    """Load the store (with ``create``, a new one if none exists), run ``stage``, save, print."""
    # Module globals looked up per call, so a wrapper set on load_store or save_store is seen.
    store = new_store() if create and not os.path.isdir(store_dir) else load_store(store_dir)
    counts = stage(store, *stage_args)
    save_store(store, store_dir)
    print(f"{name}: " + " ".join(f"{key}={value}" for key, value in counts.items()))
    return 0


def _ingest_bol(store, path: str, delimiter: str = ",", normalize: bool = False) -> dict[str, int]:
    # The module global, looked up per call, so a wrapper set on it is seen.
    transform = normalize_product_desc if normalize else None
    records, report = parse_bol_file(path, delimiter=delimiter, product_transform=transform)
    added = skipped = 0
    for rec in records:
        if rec.record_id in store.records:
            skipped += 1
        else:
            store.add_record(rec)
            added += 1
    for line_no, reason in report.rejects:
        log.warning("line %d rejected: %s", line_no, reason)
    return {"accepted": report.accepted, "rejected": report.rejected,
            "added": added, "skipped_existing": skipped}


def _ingest_transcripts(store, paths, gazetteer: str | None = None) -> dict[str, int]:
    extra = tuple(read_gazetteer_names(gazetteer)) if gazetteer else ()
    gaz = gazetteer_from_store(store, extra=extra)
    added = skipped = total = 0
    for path in paths:
        transcript_id, text = load_transcript(path)
        for sentence in segment(text, transcript_id):
            total += 1
            tagged = detect_mentions(sentence, gaz)
            if tagged.id in store.sentences:
                skipped += 1
            else:
                store.add_sentence(tagged)
                added += 1
    return {"sentences": total, "added": added, "skipped_existing": skipped}


def _ingest_demo_inputs(store) -> None:
    """Ingest the bundled shipments and transcripts, as ``demo`` does."""
    fx = fixtures_dir()
    _ingest_bol(store, str(fx / "bol_demo.csv"), normalize=True)
    transcripts = [str(p) for p in sorted((fx / "transcripts").glob("*.txt"))]
    _ingest_transcripts(store, transcripts, str(fx / "gazetteer.txt"))


@no_gc()
def cmd_ingest_bol(args, cfg: Config) -> int:
    return _store_stage("ingest-bol", args.store, _ingest_bol, args.path,
                        "\t" if args.tab else args.delimiter, args.normalize_products, create=True)


@no_gc()
def cmd_ingest_transcripts(args, cfg: Config) -> int:
    return _store_stage("ingest-transcripts", args.store, _ingest_transcripts, args.paths,
                        args.gazetteer, create=True)


def _make_backend(name: str, fixture: str | None, cfg: Config, sentences):
    if name == "recorded":
        if not fixture:
            raise UsageError("--fixture FILE is required with --backend recorded")
        return RecordedBackend.from_fixture(fixture, sentences)
    if name == "rule":
        return RuleBasedBackend()
    if name == "live":
        if not cfg.api_endpoint:
            raise ConfigError("api_endpoint must be configured for the live backend")
        if not os.environ.get(cfg.api_key_env):
            raise ConfigError(
                f"environment variable {cfg.api_key_env} is not set; "
                "refusing to select the live backend"
            )
        return HttpCompletionBackend(cfg.api_endpoint, api_key_env=cfg.api_key_env)
    raise UsageError(f"unknown backend: {name!r}")


def _extract(store, cfg: Config, backend: str, fixture: str | None = None,
             examples: str | None = None) -> dict[str, int]:
    sentences = list(store.sentences.values())
    kept = prefilter(sentences)
    already = {t.source_id for t in store.triples.values()}
    pending = [s for s in kept if s.id not in already]
    prompt_cfg = PromptConfig(
        examples=load_examples(examples or str(fixtures_dir() / "few_shot.ndjson")),
        temperature=cfg.temperature,
        model_name=cfg.model_name,
    )
    triples, errors = extract_batch(
        pending, prompt_cfg, _make_backend(backend, fixture, cfg, sentences),
        concurrency=cfg.concurrency_limit,
    )
    for triple in triples:
        store.add_triple(triple)
    for sentence_id, error in errors:
        log.warning("extraction failed for %s: %s", sentence_id, error)
    return {"prefiltered": len(kept), "pending": len(pending),
            "triples": len(triples), "errors": len(errors)}


# Not no_gc(): live requests make garbage no offline run can bound; a recorded run spends ~3 ms in gc.
def cmd_extract(args, cfg: Config) -> int:
    return _store_stage("extract", args.store, _extract, cfg, args.backend, args.fixture,
                        args.examples)


def _resolve(store, cfg: Config, threshold: float | None = None,
             overrides: str | None = None) -> dict[str, int]:
    if threshold is None:
        threshold = cfg.resolution_threshold
    result = resolve(store.referenced_names(), threshold=threshold)
    if overrides:
        result = apply_overrides(result, load_overrides(overrides))
    store.alias_map = dict(result.alias_map)
    return {"names": len(result.alias_map), "entities": len(result.entities)}


@no_gc()
def cmd_resolve(args, cfg: Config) -> int:
    return _store_stage("resolve", args.store, _resolve, cfg, args.threshold, args.overrides)


def _factor_source(args, cfg: Config):
    sampler = FactorSampler(mean=args.mean, std=args.std, seed=cfg.sampler_seed)
    if args.factors:
        return load_factor_table(args.factors, fallback=sampler)
    if args.constant_factor is not None:
        return EmissionFactor(args.constant_factor, "manual")
    return sampler


def _build(store, factors):
    graph, report = build_graph(store, store.alias_map, factors)
    for ref, reason in report.skipped:
        log.warning("skipped %s: %s", ref, reason)
    return graph, report


@no_gc()
def cmd_build(args, cfg: Config) -> int:
    store = load_store(args.store)
    graph, report = _build(store, _factor_source(args, cfg))
    out = args.out or os.path.join(args.store, GRAPH_FILE)
    export(graph, None, ExportOptions(format="graph_json"), out)
    print(
        f"build: nodes={len(graph.nodes)} edges={len(graph.edges)} "
        f"(records={report.edges_from_records} triples={report.edges_from_triples} "
        f"skipped={len(report.skipped)}) -> {out}"
    )
    return 0


@no_gc()
def cmd_propagate(args, cfg: Config) -> int:
    graph_path = args.graph or os.path.join(args.store, GRAPH_FILE)
    graph = import_graph_json(graph_path)
    mode = args.mode or cfg.propagation_mode
    report = propagate(graph, mode=mode, on_cycle=args.on_cycle)
    total_retained = sum(r.retained_kg for r in report.nodes.values())
    if not math.isfinite(total_retained):  # finite rows can still sum past the float range
        raise ValueError(f"total_retained_kg must be finite, got {total_retained!r}")
    out = args.out or os.path.join(args.store, REPORT_FILE)
    save_report_json(report, out)
    print(
        f"propagate: mode={mode} nodes={len(report.nodes)} "
        f"total_retained_kg={total_retained:.6f} residual={report.residual:.3e} -> {out}"
    )
    return 0


def _resolve_node_arg(graph, value: str) -> str:
    if value in graph.nodes:
        return value
    matches = [nid for nid, node in graph.nodes.items() if node.display_name == value]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise UsageError(f"no node with id or display name {value!r}")
    raise UsageError(f"display name {value!r} is ambiguous: {sorted(matches)}")


@no_gc()
def cmd_query(args, cfg: Config) -> int:
    graph = import_graph_json(args.graph or os.path.join(args.store, GRAPH_FILE))
    report = None
    report_path = args.report or os.path.join(args.store, REPORT_FILE)
    if os.path.exists(report_path):
        report = load_report_json(report_path)
    node = None if args.node is None else _resolve_node_arg(graph, args.node)
    result = query(graph, report, args.selector, by=args.by, k=args.k, node=node,
                   prefix=args.prefix)
    print(result.render())
    return 0


@no_gc()
def cmd_eval(args, cfg: Config) -> int:
    gold = load_triples_flat(args.gold)
    predictions = load_triples_flat(args.pred)
    metrics = score(predictions, gold)
    print(render_metrics_table(metrics))
    if args.out:
        text = json.dumps(metrics_to_dict(metrics), indent=2, sort_keys=True)
        replace_file(args.out, [text, "\n"])
    return 0


@no_gc()
def cmd_export(args, cfg: Config) -> int:
    graph = import_graph_json(args.graph or os.path.join(args.store, GRAPH_FILE))
    report = None
    if args.with_report:
        report = load_report_json(args.report or os.path.join(args.store, REPORT_FILE))
    opts = ExportOptions(
        format=args.format.replace("-", "_"),
        weight_attr=args.weight,
        include_isolates=not args.no_isolates,
    )
    export(graph, report, opts, args.out)
    print(f"export: {args.format} -> {args.out}")
    return 0


@no_gc()
def cmd_demo(args, cfg: Config) -> int:
    """Full offline pipeline over the bundled fixtures."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store_dir = str(out_dir / "store")
    fx = fixtures_dir()

    store = new_store()
    _ingest_demo_inputs(store)
    extracted = _extract(store, cfg, "recorded", str(fx / "mock_responses.ndjson"))
    _resolve(store, cfg)
    save_store(store, store_dir)

    sampler = FactorSampler(seed=cfg.sampler_seed)
    graph, _ = _build(store, load_factor_table(str(fx / "factors_demo.ndjson"), fallback=sampler))
    report = propagate(graph, mode=cfg.propagation_mode)

    graph_path = str(out_dir / "graph.json")
    export(graph, report, ExportOptions(format="graph_json"), graph_path)
    gexf_path = str(out_dir / "graph.gexf")
    export(graph, report, ExportOptions(format="gexf"), gexf_path)
    save_report_json(report, str(out_dir / "report.json"))

    print(f"demo: {len(store.records)} shipments, {len(store.sentences)} sentences, "
          f"{extracted['triples']} extracted relations, {len(graph.nodes)} companies, "
          f"{len(graph.edges)} edges")
    print()
    print("Top companies by retained liability (kg CO2e):")
    print(query(graph, report, "top", by="retained", k=5).render())
    print()
    print("Extraction scoring on the bundled gold fixture:")
    gold = load_triples_flat(str(fx / "eval" / "gold.ndjson"))
    predictions = load_triples_flat(str(fx / "eval" / "pred.ndjson"))
    print(render_metrics_table(score(predictions, gold)))
    print()
    print(f"demo: store -> {store_dir}")
    print(f"demo: exports -> {graph_path}, {gexf_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elia", description=__doc__)
    parser.add_argument("--store", default="elia-store", help="dataset store directory")
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-bol", help="parse a bill-of-lading file into the store")
    p.add_argument("path")
    p.add_argument("--delimiter", default=",", type=_one_character)
    p.add_argument("--tab", action="store_true", help="tab-delimited input")
    p.add_argument("--normalize-products", action="store_true",
                   help="strip boilerplate from product descriptions")
    p.set_defaults(func=cmd_ingest_bol)

    p = sub.add_parser("ingest-transcripts", help="segment transcripts and detect mentions")
    p.add_argument("paths", nargs="+")
    p.add_argument("--gazetteer", help="file with one company name per line")
    p.set_defaults(func=cmd_ingest_transcripts)

    p = sub.add_parser("extract", help="run the completion backend over prefiltered sentences")
    p.add_argument("--backend", choices=("recorded", "rule", "live"), default="rule")
    p.add_argument("--fixture", help="recorded-response ndjson (recorded backend)")
    p.add_argument("--examples", help="few-shot example ndjson (default: bundled)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("resolve", help="canonicalize company names")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--overrides", help="manual override ndjson {raw, canonical}")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("build", help="build the supply graph and write graph.json")
    p.add_argument("--factors", help="emission-factor table ndjson")
    p.add_argument("--constant-factor", type=float, default=None,
                   help="use one factor (kg CO2e per kg) for every item")
    p.add_argument("--mean", type=float, default=1.0, help="sampler mean")
    p.add_argument("--std", type=float, default=0.25, help="sampler std deviation")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("propagate", help="compute liability report from graph.json")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--on-cycle", choices=ON_CYCLE, default="error")
    p.add_argument("--graph")
    p.add_argument("--out")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("query", help="aggregate queries over the built graph")
    p.add_argument("selector", choices=("top", "breakdown", "item-total", "supplier-count"))
    p.add_argument("--by", choices=("retained", "inherited"), default="retained")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--node", help="canonical id or exact display name")
    p.add_argument("--prefix", help="item text prefix for item-total")
    p.add_argument("--graph")
    p.add_argument("--report")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="score predictions against gold triples")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="also write metrics as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="write gexf / dot / graph-json")
    p.add_argument("--format", choices=("gexf", "dot", "graph-json"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weight", choices=("edge_liability", "mass"), default="edge_liability")
    p.add_argument("--no-isolates", action="store_true")
    p.add_argument("--with-report", action="store_true")
    p.add_argument("--graph")
    p.add_argument("--report")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("demo", help="run the full bundled-fixture pipeline offline")
    p.add_argument("--out", default="elia-demo")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    log.setLevel(logging.INFO)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else Config()
        return args.func(args, cfg)
    except EliaError as exc:
        log.error("%s", exc)
        return exc.exit_code
    except ValueError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
