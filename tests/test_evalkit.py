from __future__ import annotations

import random

import pytest

from conftest import fixture_path

from elia.core import CompanyRef, TransactionTriple
from elia.errors import InputError
from elia.evalkit import (
    FIELDS,
    MatchOutcome,
    load_triples_flat,
    match_field,
    metrics_to_dict,
    render_metrics_table,
    score,
)


def test_match_field_casefold_tp():
    assert match_field("LG Display", "lg display") is MatchOutcome.TP


def test_match_field_whitespace_collapse():
    assert match_field("  LG   Display ", "LG Display") is MatchOutcome.TP


def test_match_field_missed_gold_is_fn():
    assert match_field(None, "UPS") is MatchOutcome.FN


def test_match_field_spurious_prediction_is_fp():
    assert match_field("UPS", None) is MatchOutcome.FP


def test_match_field_mismatch_is_both():
    assert match_field("FedEx", "UPS") is MatchOutcome.FP_AND_FN


def test_match_field_both_null_is_tn():
    assert match_field(None, None) is MatchOutcome.TN


def triple(sid, buyer, supplier, item):
    return TransactionTriple(
        buyer=CompanyRef(buyer, role_hint="buyer") if buyer else None,
        supplier=CompanyRef(supplier, role_hint="supplier") if supplier else None,
        item=item,
        source_id=sid,
    )


def test_score_on_bundled_fixture_reproduces_published_numbers():
    gold = load_triples_flat(str(fixture_path("eval", "gold.ndjson")))
    pred = load_triples_flat(str(fixture_path("eval", "pred.ndjson")))
    assert len(gold) == 24
    metrics = score(pred, gold)
    buyer = metrics["buyer"]
    assert (buyer.precision, buyer.recall, buyer.f1, buyer.accuracy) == (1.0, 1.0, 1.0, 1.0)
    for field in ("supplier", "item"):
        m = metrics[field]
        assert m.tp == 23 and m.fn == 1 and m.fp == 0
        assert m.precision == 1.0
        assert m.recall == pytest.approx(23 / 24)
        assert m.f1 == pytest.approx(2 * (23 / 24) / (1 + 23 / 24))
        assert m.accuracy == pytest.approx(23 / 24)
        assert round(m.recall, 3) == 0.958
        assert round(m.f1, 3) == 0.979


def test_score_all_correct_is_all_ones():
    gold = [triple("s1", "A", "B", "c"), triple("s2", "D", "E", "f")]
    pred = [triple("s1", "a", "b", "C"), triple("s2", "d", "e", "F")]
    metrics = score(pred, gold)
    for f in FIELDS:
        m = metrics[f]
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)


def test_score_zero_predictions_vacuous_precision():
    gold = [triple("s1", "A", "B", "c")]
    metrics = score([], gold)
    for f in FIELDS:
        assert metrics[f].precision == 1.0
        assert metrics[f].recall == 0.0
        assert metrics[f].f1 == 0.0
        assert metrics[f].accuracy == 0.0


def test_score_stray_prediction_counts_fp():
    gold = [triple("s1", "A", "B", "c")]
    pred = [triple("s1", "A", "B", "c"), triple("s2", "X", None, None)]
    metrics = score(pred, gold)
    assert metrics["buyer"].fp == 1
    assert metrics["buyer"].precision == pytest.approx(0.5)


def test_score_duplicate_gold_source_id_is_input_error():
    gold = [triple("s1", "A", "B", "c"), triple("s1", "A", "B", "c")]
    with pytest.raises(InputError):
        score([], gold)


def test_score_mismatch_counts_fp_and_fn():
    gold = [triple("s1", "A", "UPS", "c")]
    pred = [triple("s1", "A", "FedEx", "c")]
    m = score(pred, gold)["supplier"]
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


def test_score_permutation_invariant():
    gold = [triple(f"s{i}", f"B{i}", f"S{i}", f"i{i}") for i in range(10)]
    pred = [triple(f"s{i}", f"B{i}", f"S{i}" if i % 3 else None, f"i{i}") for i in range(10)]
    forward = metrics_to_dict(score(pred, gold))
    rng = random.Random(3)
    shuffled_pred, shuffled_gold = list(pred), list(gold)
    rng.shuffle(shuffled_pred)
    rng.shuffle(shuffled_gold)
    assert metrics_to_dict(score(shuffled_pred, shuffled_gold)) == forward


def test_score_counting_identity_random():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 15)
        gold, pred = [], []
        for i in range(n):
            gold.append(
                triple(
                    f"s{i}",
                    f"B{rng.randrange(3)}" if rng.random() < 0.9 else None,
                    f"S{rng.randrange(3)}" if rng.random() < 0.9 else None,
                    f"i{rng.randrange(3)}" if rng.random() < 0.9 else "x",
                )
            )
            pred.append(
                triple(
                    f"s{i}",
                    f"B{rng.randrange(3)}" if rng.random() < 0.8 else None,
                    f"S{rng.randrange(3)}" if rng.random() < 0.8 else None,
                    f"i{rng.randrange(3)}" if rng.random() < 0.8 else "y",
                )
            )
        metrics = score(pred, gold)
        for f in FIELDS:
            gold_non_null = sum(
                1 for g in gold
                if (g.item if f == "item" else getattr(g, f)) is not None
            )
            m = metrics[f]
            assert m.tp + m.fn == gold_non_null
            for value in (m.precision, m.recall, m.f1, m.accuracy):
                assert 0.0 <= value <= 1.0


def test_render_metrics_table_alignment():
    gold = load_triples_flat(str(fixture_path("eval", "gold.ndjson")))
    pred = load_triples_flat(str(fixture_path("eval", "pred.ndjson")))
    table = render_metrics_table(score(pred, gold))
    lines = table.splitlines()
    assert lines[0].startswith("Field")
    assert any(line.startswith("Buyer") and "1.000" in line for line in lines)
    assert any(line.startswith("Supplier") and "0.958" in line and "0.979" in line for line in lines)
