"""Exact-match scoring of extracted triples against gold labels.

Slot-filling conventions: a both-non-null mismatch counts as a false
positive AND a false negative; accuracy is true positives over the gold
non-null count, which makes it coincide with recall whenever the predictor
never hallucinates a value for a null gold slot.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

from .core import CompanyRef, TransactionTriple, read_ndjson
from .errors import InputError
from .graph import QueryResult

FIELDS = ("buyer", "supplier", "item")


class MatchOutcome(Enum):
    TP = "TP"
    FP = "FP"
    FN = "FN"
    FP_AND_FN = "FP_and_FN"
    TN = "TN"


def _normalize(value: str) -> str:
    return " ".join(value.split()).casefold()


def match_field(predicted: str | None, gold: str | None) -> MatchOutcome:
    """Compare one slot after trim + case-fold + whitespace collapse."""
    if gold is None and predicted is None:
        return MatchOutcome.TN
    if gold is None:
        return MatchOutcome.FP
    if predicted is None:
        return MatchOutcome.FN
    if _normalize(predicted) == _normalize(gold):
        return MatchOutcome.TP
    return MatchOutcome.FP_AND_FN


@dataclass
class FieldMetrics:
    field: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    precision: float = 1.0
    recall: float = 1.0
    f1: float = 0.0
    accuracy: float = 1.0

    def finalize(self, gold_non_null: int) -> "FieldMetrics":
        self.precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0
        self.recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0
        pr = self.precision + self.recall
        self.f1 = 2 * self.precision * self.recall / pr if pr else 0.0
        self.accuracy = self.tp / gold_non_null if gold_non_null else 1.0
        return self


def _field_value(triple: TransactionTriple | None, field_name: str) -> str | None:
    if triple is None:
        return None
    if field_name == "item":
        return triple.item
    ref: CompanyRef | None = getattr(triple, field_name)
    return ref.raw_name if ref is not None else None


def score(
    predictions: list[TransactionTriple], gold: list[TransactionTriple]
) -> dict[str, FieldMetrics]:
    """Per-field precision/recall/F1/accuracy over source_id-aligned pairs.

    Gold rows without a prediction score as all-null predictions; stray
    predictions without a gold row score as all-null gold. Duplicate
    source_ids in gold are an input error.
    """
    gold_by_id: dict[str, TransactionTriple] = {}
    for g in gold:
        if g.source_id in gold_by_id:
            raise InputError(f"duplicate source_id in gold: {g.source_id}")
        gold_by_id[g.source_id] = g
    pred_by_id: dict[str, TransactionTriple] = {}
    for p in predictions:
        if p.source_id in pred_by_id:
            raise InputError(f"duplicate source_id in predictions: {p.source_id}")
        pred_by_id[p.source_id] = p

    all_ids = sorted(set(gold_by_id) | set(pred_by_id))
    metrics = {f: FieldMetrics(field=f) for f in FIELDS}
    gold_non_null = {f: 0 for f in FIELDS}
    for sid in all_ids:
        g, p = gold_by_id.get(sid), pred_by_id.get(sid)
        for f in FIELDS:
            gold_value = _field_value(g, f)
            if gold_value is not None:
                gold_non_null[f] += 1
            outcome = match_field(_field_value(p, f), gold_value)
            if outcome is MatchOutcome.TP:
                metrics[f].tp += 1
            elif outcome is MatchOutcome.FP:
                metrics[f].fp += 1
            elif outcome is MatchOutcome.FN:
                metrics[f].fn += 1
            elif outcome is MatchOutcome.FP_AND_FN:
                metrics[f].fp += 1
                metrics[f].fn += 1

    for f in FIELDS:
        metrics[f].finalize(gold_non_null[f])
    return metrics


def render_metrics_table(metrics: dict[str, FieldMetrics]) -> str:
    """Aligned text table with one row per field, three-decimal values."""
    headers = ("Field", "Precision", "Recall", "F1 Score", "Accuracy")
    rows = [
        (
            f.capitalize(),
            f"{m.precision:.3f}",
            f"{m.recall:.3f}",
            f"{m.f1:.3f}",
            f"{m.accuracy:.3f}",
        )
        for f, m in ((f, metrics[f]) for f in FIELDS)
    ]
    return QueryResult(headers, rows).render()


def metrics_to_dict(metrics: dict[str, FieldMetrics]) -> dict:
    """Each field's counts and scores, keyed as ``FieldMetrics`` names them."""
    return {f: {k: v for k, v in asdict(m).items() if k != "field"} for f, m in metrics.items()}


def load_triples_flat(path: str) -> list[TransactionTriple]:
    """Read ndjson rows {"source_id", "buyer", "supplier", "item"[, "confidence"]}.

    Buyer/supplier are plain strings (or null) in this flat interchange
    format, unlike the richer store schema.
    """
    triples = []
    for lineno, row in read_ndjson(path, InputError, "triple row", {"source_id": str}):
        try:
            triple = TransactionTriple(
                buyer=CompanyRef(row["buyer"], role_hint="buyer") if row.get("buyer") else None,
                supplier=CompanyRef(row["supplier"], role_hint="supplier")
                if row.get("supplier")
                else None,
                item=row.get("item"),
                source_id=row["source_id"],
                confidence=float(row.get("confidence", 1.0)),
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"{path}:{lineno}: malformed triple row: {exc}") from exc
        triples.append(triple)
    return triples
