"""Seeded synthetic inputs for the three benchmark workloads.

Everything here is plain Python and never imports elia: the inputs, and the
ground truth the output checks compare against, must not come from the code
under test. The same (workload, seed, scale) always writes byte-identical
files.

Workloads
---------
pipeline      the full user chain over a bill-of-lading CSV, earnings-call
              transcripts, a recorded-response fixture, a factor table and
              eval files. Shipments follow a 5-tier DAG; every company is
              written under several spellings that normalize to one form.
graph_dag     a ready-made 6-tier graph.json (no ingest layers).
graph_cyclic  the same tiered shape plus ~2% low-mass return edges. Every
              node above the last tier keeps a forward edge, so every SCC
              can drain into the sinks and the pool equations have one
              finite solution.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("pipeline", "graph_dag", "graph_cyclic")

# Input sizes. "full" is what the benchmark measures; "tiny" keeps the
# benchmark's own smoke tests fast. The pipeline gazetteer (every raw
# spelling in the store) stays above the 512-pattern cache of Python's `re`
# module at full size on purpose: that is where mention detection is slow.
SIZES = {
    "full": {
        "pipeline": dict(companies=200, spellings=3, rows=4000, dirty_every=50,
                         transcripts=4, relations_per_transcript=5,
                         fillers_per_transcript=2, eval_pairs=2000),
        "graph_dag": dict(nodes=6000, edges=24000, return_share=0.0),
        "graph_cyclic": dict(nodes=5000, edges=20000, return_share=0.02),
    },
    "tiny": {
        "pipeline": dict(companies=25, spellings=3, rows=200, dirty_every=20,
                         transcripts=2, relations_per_transcript=3,
                         fillers_per_transcript=2, eval_pairs=40),
        "graph_dag": dict(nodes=60, edges=200, return_share=0.0),
        "graph_cyclic": dict(nodes=60, edges=200, return_share=0.05),
    },
}

PIPELINE_TIERS = 5
GRAPH_TIERS = 6

# Product base names with their emission factors (kg CO2e per kg). No base
# is a prefix of another, so the factor table's first-match rule is exact.
PRODUCTS = (
    ("IRON ORE PELLETS", 2.1), ("METALLURGICAL COKE", 3.2), ("STEEL COILS", 1.9),
    ("ALUMINIUM INGOTS", 8.6), ("COPPER CATHODES", 3.8), ("POLYETHYLENE RESIN", 1.8),
    ("GLASS SHEETS", 0.9), ("CEMENT CLINKER", 0.85), ("COTTON YARN", 2.7),
    ("LEATHER HIDES", 1.4), ("WIRING HARNESS", 2.3), ("LITHIUM CELLS", 5.1),
    ("DISPLAY PANELS", 4.4), ("WASHING MACHINES", 1.5), ("DOOR PANELS", 1.7),
    ("BRAKE ASSEMBLIES", 2.0), ("PAPER PULP", 0.6), ("RUBBER COMPOUND", 1.6),
    ("TITANIUM DIOXIDE", 2.9), ("SOLAR WAFERS", 6.3),
)

# Boilerplate clauses stripped by --normalize-products.
BOILERPLATE = (
    "THIS SHIPMENT CONTAINS NO WOOD PACKAGING MATERIALS",
    "NO WOOD PACKAGING MATERIAL IS USED IN THE SHIPMENT",
    "NO SOLID WOOD PACKING MATERIAL",
)

# Trailing tokens that elia's name normalization strips, so every spelling
# of one company resolves to one canonical form.
SUFFIX_SPELLINGS = ("LTD", "LTD.", "CO LTD", "CO., LTD", "INC", "INC.", "CORP", "LLC",
                    "GMBH", "PLC")

FILLERS = (
    "Revenue grew in every region during the quarter.",
    "We expect margins to improve as freight costs normalize.",
    "Capital expenditure remained in line with our guidance.",
    "Our inventory position is healthier than a year ago.",
    "Demand stayed resilient despite softer consumer sentiment.",
    "We returned cash to shareholders through buybacks and dividends.",
    "Working capital improved on better collections.",
    "Thank you all for joining the call today.",
)

RELATION_TEMPLATES = (
    "{buyer} relies on {supplier} for {item}.",
    "We noted that {supplier} supplies {item} to {buyer} under a multi-year contract.",
    "{buyer} buys {item} from {supplier} at stable prices.",
    "{supplier} remains the main source of {item} for {buyer} this year.",
)

_CONSONANTS = "BDFGKLMNPRSTVZ"
_VOWELS = "AEIOU"


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 3)))


def sentence_id(transcript_id: str, index: int, text: str) -> str:
    """The store's sentence id: sha256 over the JSON list of the parts."""
    payload = json.dumps([transcript_id, str(index), text], separators=(",", ":"))
    return "s" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class Truth:
    """What the generator placed, for the output checks."""

    workload: str
    items: int = 0
    rows_accepted: int = 0
    rows_rejected: int = 0
    sentences: int = 0
    relations: int = 0
    # company index -> its raw spellings that reach the store (pipeline)
    spellings: list[list[str]] = field(default_factory=list)
    # reference graph: node ids, direct emissions and (source, target, mass, factor) edges
    nodes: list[str] = field(default_factory=list)
    direct: dict[str, float] = field(default_factory=dict)
    edges: list[tuple[str, str, float, float]] = field(default_factory=list)
    eval_expected: dict[str, dict[str, int]] = field(default_factory=dict)


def _tiers(ids: list, tiers: int) -> list[list]:
    """Split ids into consecutive tiers; the first ones take the remainder."""
    size, extra = divmod(len(ids), tiers)
    out, start = [], 0
    for t in range(tiers):
        end = start + size + (1 if t < extra else 0)
        out.append(ids[start:end])
        start = end
    return out


def _company_names(rng: random.Random, count: int) -> list[str]:
    """Distinct two- or three-word stems; distinct token sets never merge."""
    seen, names = set(), []
    while len(names) < count:
        tokens = [_word(rng) for _ in range(rng.choice((2, 2, 3)))]
        key = frozenset(tokens)
        if len(key) == len(tokens) and key not in seen:
            seen.add(key)
            names.append(" ".join(tokens))
    return names


def _spellings(rng: random.Random, stem: str, count: int) -> list[str]:
    """Spelling variants that all normalize to ``stem``: case, punctuation, suffix."""
    out: list[str] = []
    while len(out) < count:
        words = stem.split()
        style = rng.randrange(4)
        if style == 1:
            words = [w.capitalize() for w in words]
        elif style == 2 and len(words) > 1:
            words = [words[0] + "-" + words[1]] + words[2:]
        suffix = rng.choice(SUFFIX_SPELLINGS)
        if style == 1:
            suffix = suffix.capitalize() if suffix != "GMBH" else "GmbH"
        name = " ".join(words) + " " + suffix
        if name not in out:
            out.append(name)
    return out


def _write_pipeline(rng: random.Random, size: dict, out_dir: str) -> Truth:
    truth = Truth(workload="pipeline")
    stems = _company_names(rng, size["companies"])
    spellings = [_spellings(rng, stem, size["spellings"]) for stem in stems]
    used: set[str] = set()
    tiers = _tiers(list(range(size["companies"])), PIPELINE_TIERS)

    # Every company gets at least one shipment in and/or out, the rest of
    # the rows connect random companies in consecutive tiers.
    pairs: list[tuple[int, int]] = []
    for t in range(PIPELINE_TIERS - 1):
        for c in tiers[t]:
            pairs.append((c, rng.choice(tiers[t + 1])))
        for c in tiers[t + 1]:
            pairs.append((rng.choice(tiers[t]), c))
    while len(pairs) < size["rows"]:
        t = rng.randrange(PIPELINE_TIERS - 1)
        pairs.append((rng.choice(tiers[t]), rng.choice(tiers[t + 1])))
    rng.shuffle(pairs)

    seen_keys = set()
    rows = []
    for i, (s, c) in enumerate(pairs):
        base, factor = rng.choice(PRODUCTS)
        clean = f"{base} HS {rng.randint(1000, 9999)}"
        while True:
            qty = rng.randint(1, 2000)
            weight = round(rng.uniform(100.0, 30000.0), 1)
            arrival = f"2021-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            shipper = rng.choice(spellings[s])
            consignee = rng.choice(spellings[c])
            key = (shipper, consignee, arrival, clean, qty, weight)
            if key not in seen_keys:
                seen_keys.add(key)
                break
        desc = clean
        if rng.random() < 0.4:
            phrase = rng.choice(BOILERPLATE)
            desc = f"{clean}  {phrase if rng.random() < 0.5 else phrase.lower()}."
        row = [shipper, consignee, desc, str(qty), f"{weight}", arrival]
        if size["dirty_every"] and i % size["dirty_every"] == size["dirty_every"] - 1:
            kind = (i // size["dirty_every"]) % 5
            if kind == 0:
                row[0] = ""
            elif kind == 1:
                row[3] = f"{qty}x"
            elif kind == 2:
                row[4] = "n/a"
            elif kind == 3:
                row[3] = f"-{qty}"
            else:
                row[5] = "2021-13-45"
            truth.rows_rejected += 1
        else:
            truth.rows_accepted += 1
            used.update((shipper, consignee))
            truth.edges.append((f"{s}", f"{c}", weight, factor))
        rows.append(row)

    with open(os.path.join(out_dir, "bol.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Shipper Name", "Consignee Name", "Product Desc", "Quantity",
                         "Weight", "Arrival Date"])
        writer.writerows(rows)
    truth.nodes = [f"{c}" for c in sorted({int(n) for e in truth.edges for n in e[:2]})]

    with open(os.path.join(out_dir, "factors.ndjson"), "w", encoding="utf-8") as fh:
        for base, factor in PRODUCTS:
            fh.write(json.dumps({"item_pattern": f"{base}*", "per_kg_co2e": factor,
                                 "provenance": "table"}) + "\n")

    # Transcripts: relation sentences between shipping partners in
    # consecutive tiers (so they never close a cycle), spelled without
    # periods so that sentence breaks fall only where the generator put them.
    plain = [[n for n in names if "." not in n and n in used] for names in spellings]
    partner_edges = sorted({(int(a), int(b)) for a, b, _, _ in truth.edges})
    fixture = []
    for t in range(size["transcripts"]):
        tid = f"call_{t:02d}_q{rng.randint(1, 4)}_2021"
        kinds = (["rel"] * size["relations_per_transcript"]
                 + ["fill"] * size["fillers_per_transcript"])
        rng.shuffle(kinds)
        texts = []
        for kind in kinds:
            if kind == "fill":
                texts.append(rng.choice(FILLERS))
                continue
            supplier, buyer = rng.choice([(a, b) for a, b in partner_edges
                                          if plain[a] and plain[b]])
            item = rng.choice(PRODUCTS)[0].lower()
            b, s = rng.choice(plain[buyer]), rng.choice(plain[supplier])
            text = rng.choice(RELATION_TEMPLATES).format(buyer=b, supplier=s, item=item)
            text = text[0].upper() + text[1:]
            fixture.append({"sentence_id": sentence_id(tid, len(texts), text),
                            "response_text": f"Buyer: {b}, Supplier: {s}, Item: {item}"})
            texts.append(text)
        path = os.path.join(out_dir, f"{tid}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(" ".join(texts) + "\n")
        truth.sentences += len(texts)
    truth.relations = len(fixture)
    with open(os.path.join(out_dir, "responses.ndjson"), "w", encoding="utf-8") as fh:
        for row in fixture:
            fh.write(json.dumps(row) + "\n")

    truth.spellings = [[n for n in names if n in used] for names in spellings]
    _write_eval(rng, size["eval_pairs"], spellings, truth, out_dir)
    with open(os.path.join(out_dir, "elia.conf"), "w", encoding="utf-8") as fh:
        fh.write(f"concurrency_limit = {min(4, os.cpu_count() or 1)}\n")
    truth.items = truth.rows_accepted + truth.rows_rejected + truth.sentences
    return truth


def _write_eval(rng: random.Random, count: int, spellings: list[list[str]], truth: Truth,
                out_dir: str) -> None:
    """Gold and predicted flat triples with known per-field outcomes."""
    expected = {f: {"tp": 0, "fp": 0, "fn": 0} for f in ("buyer", "supplier", "item")}
    gold_rows, pred_rows = [], []
    for i in range(count):
        gold = {"source_id": f"g{i:06d}",
                "buyer": rng.choice(rng.choice(spellings)),
                "supplier": rng.choice(rng.choice(spellings)),
                "item": rng.choice(PRODUCTS)[0].lower()}
        if rng.random() < 0.1:
            gold["supplier"] = None
        pred = dict(gold)
        roll = rng.random()
        if roll < 0.05:
            pred = None  # no prediction: every non-null gold field is missed
        elif roll < 0.15:
            pred["item"] = "assorted goods"  # wrong value: FP and FN
        elif roll < 0.2:
            pred["buyer"] = None  # omitted value: FN
        elif roll < 0.25:
            pred["buyer"] = gold["buyer"].lower()  # case-folded match: TP
        gold_rows.append(gold)
        if pred is not None:
            pred_rows.append(pred)
        for f in expected:
            g, p = gold[f], pred[f] if pred is not None else None
            if g is None and p is None:
                continue
            if g is None:
                expected[f]["fp"] += 1
            elif p is None:
                expected[f]["fn"] += 1
            elif " ".join(p.split()).casefold() == " ".join(g.split()).casefold():
                expected[f]["tp"] += 1
            else:
                expected[f]["fp"] += 1
                expected[f]["fn"] += 1
    truth.eval_expected = expected
    for name, rows in (("gold.ndjson", gold_rows), ("pred.ndjson", pred_rows)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def _write_graph(rng: random.Random, size: dict, out_dir: str, workload: str) -> Truth:
    truth = Truth(workload=workload)
    ids: list[str] = []
    seen = set()
    while len(ids) < size["nodes"]:
        nid = "c%012x" % rng.getrandbits(48)
        if nid not in seen:
            seen.add(nid)
            ids.append(nid)
    tiers = _tiers(ids, GRAPH_TIERS)
    tier_of = {nid: t for t, members in enumerate(tiers) for nid in members}
    names = _company_names(rng, len(ids))
    for nid in ids:
        truth.direct[nid] = round(rng.uniform(1e3, 1e5), 3) if rng.random() < 0.3 else 0.0
    truth.nodes = list(ids)

    def forward(src: str) -> str:
        t = tier_of[src]
        hop = 2 if t + 2 < GRAPH_TIERS and rng.random() < 0.1 else 1
        return rng.choice(tiers[t + hop])

    pairs: list[tuple[str, str, bool]] = []
    for t in range(GRAPH_TIERS - 1):
        for nid in tiers[t]:
            pairs.append((nid, rng.choice(tiers[t + 1]), False))
        for nid in tiers[t + 1]:
            pairs.append((rng.choice(tiers[t]), nid, False))
    returns = int(size["edges"] * size["return_share"])
    while len(pairs) < size["edges"] - returns:
        src = rng.choice(ids[: len(ids) - len(tiers[-1])])
        pairs.append((src, forward(src), False))
    # Return edges start below the first tier and above the sinks, so the
    # sinks keep no outgoing mass and every cycle can drain into them.
    middle = [nid for t in range(1, GRAPH_TIERS - 1) for nid in tiers[t]]
    for _ in range(returns):
        src = rng.choice(middle)
        pairs.append((src, rng.choice(tiers[rng.randrange(tier_of[src])]), True))
    rng.shuffle(pairs)

    edges = []
    for i, (src, dst, back) in enumerate(pairs, start=1):
        base, factor = rng.choice(PRODUCTS)
        mass = round(rng.uniform(1.0, 50.0) if back else rng.uniform(100.0, 30000.0), 1)
        truth.edges.append((src, dst, mass, factor))
        edges.append({"edge_id": f"e{i:06d}", "source": src, "target": dst,
                      "item": base, "mass_kg": mass,
                      "factor": {"per_kg_co2e": factor, "provenance": "table"},
                      "edge_liability_kg": mass * factor})
    doc = {
        "format": "supply-graph", "version": 1, "directed": True,
        "nodes": [{"id": nid, "display_name": name, "direct_emissions_kg": truth.direct[nid]}
                  for nid, name in zip(ids, names)],
        "edges": edges,
    }
    with open(os.path.join(out_dir, "graph.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    truth.items = len(edges)
    return truth


def generate(workload: str, seed: int, out_dir: str, scale: str = "full") -> Truth:
    """Write the workload's inputs into ``out_dir`` and return the ground truth."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[scale][workload]
    if workload == "pipeline":
        return _write_pipeline(rng, size, out_dir)
    return _write_graph(rng, size, out_dir, workload)
