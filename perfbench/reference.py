"""Reference answers and output checks that do not come from elia.

The retained liabilities are recomputed from the generator's ground truth:
by a topological pass of the pool equations on acyclic graphs, and by a
sparse linear solve of the same equations on cyclic ones. The pool model is
the one elia documents: a node's pool is its direct emissions plus, for
every incoming edge, the edge liability and the share passed along it; a
node with outgoing mass passes its whole pool on in proportion to mass, a
node without outgoing mass retains it.

Each check returns ``(stage, name, ok, detail)``; the stage is the CLI
subcommand whose output the check reads, so a failed check fails that stage.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict, deque

from workloads import Truth

# Relative tolerance on retained liability. Reference entries of (nearly)
# zero, i.e. nodes that pass their pool on, are compared against this share
# of the total injected liability instead.
REL_TOL = 1e-9
ZERO_TOL = 1e-12
CONSERVATION_TOL = 1e-9
# `propagate --on-cycle iterate` stops when the largest pool change is
# below this absolute tolerance (the CLI default).
CLI_RESIDUAL_TOL = 1e-9
TOP_K = 10


def _injected(truth: Truth) -> dict[str, float]:
    pool = {n: truth.direct.get(n, 0.0) for n in truth.nodes}
    for src, dst, mass, factor in truth.edges:
        pool[dst] += mass * factor
    return pool


def _out_mass(truth: Truth) -> dict[str, float]:
    out = {n: 0.0 for n in truth.nodes}
    for src, _, mass, _ in truth.edges:
        out[src] += mass
    return out


def retained_topological(truth: Truth) -> dict[str, float]:
    """Retained liability per node of an acyclic graph, in one Kahn pass."""
    pool = _injected(truth)
    out_mass = _out_mass(truth)
    outgoing = defaultdict(list)
    indegree = {n: 0 for n in truth.nodes}
    for src, dst, mass, _ in truth.edges:
        outgoing[src].append((dst, mass))
        indegree[dst] += 1
    ready = deque(n for n, d in indegree.items() if d == 0)
    seen = 0
    while ready:
        node = ready.popleft()
        seen += 1
        for dst, mass in outgoing[node]:
            if out_mass[node] > 0.0:
                pool[dst] += pool[node] * (mass / out_mass[node])
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    if seen != len(truth.nodes):
        raise ValueError("reference graph is cyclic")
    return {n: (pool[n] if out_mass[n] <= 0.0 else 0.0) for n in truth.nodes}


def retained_linear_solve(truth: Truth) -> dict[str, float]:
    """Retained liability per node from a sparse solve of T = b + P^T T."""
    import numpy as np
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.linalg import spsolve

    index = {n: i for i, n in enumerate(truth.nodes)}
    out_mass = _out_mass(truth)
    rows, cols, vals = [], [], []
    for src, dst, mass, _ in truth.edges:
        if out_mass[src] > 0.0:
            rows.append(index[dst])
            cols.append(index[src])
            vals.append(mass / out_mass[src])
    size = len(truth.nodes)
    pt = csr_matrix((vals, (rows, cols)), shape=(size, size))
    injected = _injected(truth)
    b = np.array([injected[n] for n in truth.nodes])
    pools = spsolve((identity(size, format="csr") - pt).tocsc(), b)
    return {n: (float(pools[index[n]]) if out_mass[n] <= 0.0 else 0.0) for n in truth.nodes}


def expected_retained(truth: Truth) -> dict[str, float]:
    if truth.workload == "graph_cyclic":
        return retained_linear_solve(truth)
    return retained_topological(truth)


def _read_ndjson(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _company_ids(truth: Truth, alias_map: dict[str, str]):
    """Map company index -> canonical id; None when resolution split or merged."""
    ids = {}
    for company, names in enumerate(truth.spellings):
        if not names:
            continue  # every row of this company was a rejected one
        cids = {alias_map.get(name) for name in names}
        if len(cids) != 1 or None in cids:
            return None, f"company {company} spellings map to {sorted(map(str, cids))}"
        ids[str(company)] = cids.pop()
    if len(set(ids.values())) != len(ids):
        return None, "distinct companies share a canonical id"
    return ids, ""


def _report_checks(truth, expected, report_path, node_ids):
    stage = "propagate"
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    rows = report["nodes"]
    total = sum(_injected(truth).values())
    worst, where = 0.0, ""
    missing = [n for n in expected if node_ids[n] not in rows]
    for node, want in expected.items():
        if node_ids[node] not in rows:
            continue
        got = rows[node_ids[node]]["retained_kg"]
        err = abs(got - want) / max(abs(want), ZERO_TOL * total / REL_TOL)
        if err > worst:
            worst, where = err, f"{node_ids[node]}: got {got!r}, want {want!r}"
    retained_sum = sum(r["retained_kg"] for r in rows.values())
    conservation = abs(retained_sum - total) / total
    checks = [
        (stage, "report covers every node", not missing and len(rows) == len(expected),
         f"{len(rows)} rows, {len(missing)} expected nodes missing"),
        (stage, "retained matches reference", worst <= REL_TOL, f"max rel err {worst:.3e} {where}"),
        (stage, "conservation", conservation <= CONSERVATION_TOL, f"{conservation:.3e}"),
    ]
    residual = float(report["residual"])
    if truth.workload == "graph_cyclic":
        checks.append((stage, "residual below CLI tolerance", residual < CLI_RESIDUAL_TOL,
                       f"{residual:.3e}"))
    else:
        checks.append((stage, "acyclic residual is zero", residual == 0.0, f"{residual:.3e}"))
    return checks


def _top_check(truth, expected, node_ids, query_stdout):
    """The printed top-k ranks nodes by reference value; near-equal values may swap."""
    tol = ZERO_TOL * sum(_injected(truth).values())
    by_id = {node_ids[n]: v for n, v in expected.items()}
    want = sorted(by_id.values(), reverse=True)[:TOP_K]
    lines = query_stdout.strip().splitlines()[2:]
    got = [by_id.get(line.split()[0]) for line in lines if line.strip()]
    ok = len(got) == len(want) and all(
        g is not None and abs(g - w) <= max(tol, REL_TOL * abs(w)) for g, w in zip(got, want))
    return ("query", "top-k matches reference", ok, f"got {got[:3]}..., want {want[:3]}...")


def _export_check(path, fmt, edges):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "gexf":
        count = len(re.findall(r"<edge ", text))
    else:
        count = sum(1 for line in text.splitlines() if " -> " in line)
    return ("export", f"{fmt} edge count", count == edges, f"{count} edges, want {edges}")


def check_pipeline(truth: Truth, expected, out_dir: str, stdout: dict[str, str]):
    store = os.path.join(out_dir, "store")
    checks = []
    m = re.search(r"accepted=(\d+) rejected=(\d+)", stdout.get("ingest-bol", ""))
    accepted, rejected = (int(m.group(1)), int(m.group(2))) if m else (-1, -1)
    checks.append(("ingest-bol", "accepted/rejected rows",
                   (accepted, rejected) == (truth.rows_accepted, truth.rows_rejected),
                   f"{accepted}/{rejected}, want {truth.rows_accepted}/{truth.rows_rejected}"))
    records = _count_lines(os.path.join(store, "records.ndjson"))
    checks.append(("ingest-bol", "stored records", records == truth.rows_accepted,
                   f"{records}, want {truth.rows_accepted}"))
    sentences = _count_lines(os.path.join(store, "sentences.ndjson"))
    checks.append(("ingest-transcripts", "stored sentences", sentences == truth.sentences,
                   f"{sentences}, want {truth.sentences}"))
    triples = _count_lines(os.path.join(store, "triples.ndjson"))
    checks.append(("extract", "triple count", triples == truth.relations,
                   f"{triples}, want {truth.relations}"))
    alias_map = {row["raw"]: row["canonical_id"]
                 for row in _read_ndjson(os.path.join(store, "aliases.ndjson"))}
    node_ids, why = _company_ids(truth, alias_map)
    checks.append(("resolve", "spellings resolve to one id per company", node_ids is not None, why))
    if node_ids is None:
        return checks
    with open(os.path.join(store, "graph.json"), encoding="utf-8") as fh:
        edges = len(json.load(fh)["edges"])
    want_edges = truth.rows_accepted + truth.relations
    checks.append(("build", "graph edge count", edges == want_edges, f"{edges}, want {want_edges}"))
    checks += _report_checks(truth, expected, os.path.join(store, "report.json"), node_ids)
    checks.append(_top_check(truth, expected, node_ids, stdout.get("query", "")))
    checks.append(_export_check(os.path.join(out_dir, "graph.gexf"), "gexf", want_edges))
    with open(os.path.join(out_dir, "metrics.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)
    got = {f: {k: metrics[f][k] for k in ("tp", "fp", "fn")} for f in truth.eval_expected}
    checks.append(("eval", "tp/fp/fn per field", got == truth.eval_expected,
                   f"{got}, want {truth.eval_expected}"))
    return checks


def check_graph(truth: Truth, expected, out_dir: str, stdout: dict[str, str]):
    node_ids = {n: n for n in truth.nodes}
    checks = _report_checks(truth, expected, os.path.join(out_dir, "report.json"), node_ids)
    checks.append(_top_check(truth, expected, node_ids, stdout.get("query", "")))
    fmt = "dot" if truth.workload == "graph_cyclic" else "gexf"
    checks.append(_export_check(os.path.join(out_dir, f"graph.{fmt}"), fmt, len(truth.edges)))
    return checks


def check_outputs(truth: Truth, expected, out_dir: str, stdout: dict[str, str]):
    """Run every output check of the workload; a missing file fails its stage."""
    try:
        if truth.workload == "pipeline":
            return check_pipeline(truth, expected, out_dir, stdout)
        return check_graph(truth, expected, out_dir, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [("output", "outputs readable", False, f"{type(exc).__name__}: {exc}")]
