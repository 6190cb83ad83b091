"""The benchmark's own tests: generator, output checks, tiny smoke runs.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


@pytest.fixture(autouse=True)
def _work_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = generate(workload, 7, str(tmp_path / "a"), "tiny")
    generate(workload, 7, str(tmp_path / "b"), "tiny")
    generate(workload, 8, str(tmp_path / "c"), "tiny")
    digest = run._tree_digest
    assert digest(str(tmp_path / "a")) == digest(str(tmp_path / "b"))
    assert digest(str(tmp_path / "a")) != digest(str(tmp_path / "c"))
    assert first.items > 0 and first.edges


def test_fixture_ids_are_content_hashes_of_generated_sentences(tmp_path):
    truth = generate("pipeline", 3, str(tmp_path), "tiny")
    with open(tmp_path / "responses.ndjson", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == truth.relations
    assert all(row["sentence_id"].startswith("s") and len(row["sentence_id"]) == 17
               for row in rows)


def _outputs(tmp_path, workload):
    """Inputs, truth, reference and the checked outputs of one tiny repetition."""
    work = str(tmp_path / workload)
    os.makedirs(work)
    truth, inputs, _ = run.setup(workload, 5, work, "tiny")
    expected = reference.expected_retained(truth)
    rep = run.repetition(workload, truth, expected, inputs, work, trace=False)
    assert rep["failed"] == {}, rep["failed"]
    stdout = {s["name"]: s["stdout"] for s in rep["stages"]}
    return truth, expected, os.path.join(work, "out"), stdout


def _failed(checks):
    return {name for _, name, ok, _ in checks if not ok}


def _edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _bump_first_retained(doc):
    row = max(doc["nodes"].values(), key=lambda r: r["retained_kg"])
    row["retained_kg"] *= 1.0 + 1e-6


def test_checks_reject_corrupted_dag_report_and_export(tmp_path):
    truth, expected, out, stdout = _outputs(tmp_path, "graph_dag")
    assert _failed(reference.check_outputs(truth, expected, out, stdout)) == set()

    report = os.path.join(out, "report.json")
    shutil.copy(report, report + ".orig")
    _edit_json(report, _bump_first_retained)
    failed = _failed(reference.check_outputs(truth, expected, out, stdout))
    assert "retained matches reference" in failed and "conservation" in failed
    shutil.copy(report + ".orig", report)

    _edit_json(report, lambda doc: doc.update(residual=1e-12))
    assert "acyclic residual is zero" in _failed(
        reference.check_outputs(truth, expected, out, stdout))
    shutil.copy(report + ".orig", report)

    gexf = os.path.join(out, "graph.gexf")
    with open(gexf, encoding="utf-8") as fh:
        text = fh.read()
    with open(gexf, "w", encoding="utf-8") as fh:
        fh.write(text.replace("<edge ", "<dropped ", 1))
    assert "gexf edge count" in _failed(reference.check_outputs(truth, expected, out, stdout))


def test_checks_reject_unconverged_cyclic_report_and_bad_top(tmp_path):
    truth, expected, out, stdout = _outputs(tmp_path, "graph_cyclic")
    assert _failed(reference.check_outputs(truth, expected, out, stdout)) == set()

    _edit_json(os.path.join(out, "report.json"), lambda doc: doc.update(residual=2e-9))
    assert "residual below CLI tolerance" in _failed(
        reference.check_outputs(truth, expected, out, stdout))

    lines = stdout["query"].splitlines()
    swapped = dict(stdout, query="\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]))
    assert "top-k matches reference" in _failed(
        reference.check_outputs(truth, expected, out, swapped))


def test_checks_reject_corrupted_pipeline_outputs(tmp_path):
    truth, expected, out, stdout = _outputs(tmp_path, "pipeline")
    assert _failed(reference.check_outputs(truth, expected, out, stdout)) == set()

    bad_counts = dict(stdout, **{"ingest-bol": stdout["ingest-bol"].replace(
        f"rejected={truth.rows_rejected}", f"rejected={truth.rows_rejected - 1}")})
    assert "accepted/rejected rows" in _failed(
        reference.check_outputs(truth, expected, out, bad_counts))

    aliases = os.path.join(out, "store", "aliases.ndjson")
    with open(aliases, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    shutil.copy(aliases, aliases + ".orig")
    rows[0]["canonical_id"] = "c000000000000"
    with open(aliases, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)
    assert "spellings resolve to one id per company" in _failed(
        reference.check_outputs(truth, expected, out, stdout))
    shutil.copy(aliases + ".orig", aliases)

    _edit_json(os.path.join(out, "store", "report.json"), _bump_first_retained)
    assert "retained matches reference" in _failed(
        reference.check_outputs(truth, expected, out, stdout))

    _edit_json(os.path.join(out, "metrics.json"),
               lambda doc: doc["item"].update(tp=doc["item"]["tp"] + 1))
    assert "tp/fp/fn per field" in _failed(reference.check_outputs(truth, expected, out, stdout))


def test_references_agree_on_an_acyclic_graph(tmp_path):
    truth = generate("graph_dag", 11, str(tmp_path), "tiny")
    topo = reference.retained_topological(truth)
    solved = reference.retained_linear_solve(truth)
    total = sum(topo.values())
    for node, value in topo.items():
        assert abs(solved[node] - value) <= 1e-9 * max(abs(value), total * 1e-3)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda: sum(range(20000)))
    with tracer.span("cli.outer"):
        inner()
        inner()
    spans = tracer.summary()["spans"]
    outer, child = spans["cli.outer"], spans["layer.inner"]
    assert child["calls"] == 2 and child["self_s"] == pytest.approx(child["total_s"])
    assert outer["self_s"] == pytest.approx(outer["total_s"] - child["total_s"])
    assert 0 <= outer["self_s"] < outer["total_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(workload, trace):
    lines = []
    result = run.run_workload(workload, 2, 0, trace, scale="tiny", emit=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    section = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in run.load_definition()[section]]
    assert list(result["metrics"]) == names
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)
    elif workload == "pipeline":
        assert any(line.endswith("(reported as 0): none") for line in lines), lines


def test_missing_program_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "nowhere"))
    assert run.main(["--workload", "graph_dag", "--seed", "1", "--seconds", "1"]) == 2
