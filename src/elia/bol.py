"""Parse bill-of-lading records from delimited text files.

Row-level failures are non-fatal: dirty rows are skipped and reported so a
large public dataset never aborts mid-file. Only a broken header (missing
mandatory column) is fatal.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import date, datetime

from .core import CompanyRef, ShipmentRecord, utf8_error
from .errors import SchemaError

# Recognized header spellings, lower-cased. Aggregator exports disagree on
# exact column names; anything not listed here is ignored.
HEADER_ALIASES = {
    "shipper": {"shipper name", "shipper_name", "shipper"},
    "shipper_address": {"shipper address", "shipper_address"},
    "consignee": {"consignee name", "consignee_name", "consignee"},
    "consignee_address": {"consignee address", "consignee_address"},
    "arrival_date": {"arrival date", "arrival_date", "date"},
    "product": {
        "product desc",
        "product_desc",
        "product description",
        "product_description",
        "product name",
        "product_name",
        "product",
    },
    "quantity": {"quantity", "qty"},
    "weight": {"weight", "weight kg", "weight_kg", "weight (kg)"},
}

MANDATORY_COLUMNS = ("shipper", "consignee", "product", "quantity", "weight")

STOP_PHRASES = (
    "THIS SHIPMENT CONTAINS NO WOOD PACKAGING MATERIALS",
    "NO WOOD PACKAGING MATERIAL IS USED IN THE SHIPMENT",
    "NO SOLID WOOD PACKING MATERIAL",
)
_STOP_PATTERNS = tuple(re.compile(re.escape(phrase) + r"[.,;]?", re.IGNORECASE)
                       for phrase in STOP_PHRASES)


@dataclass
class BolParseReport:
    accepted: int = 0
    rejected: int = 0
    rejects: list[tuple[int, str]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str) -> None:
        self.rejected += 1
        self.rejects.append((line_no, reason))


def _map_header(header: list[str], path: str) -> dict[str, int]:
    mapping: dict[str, int] = {}
    for idx, cell in enumerate(header):
        key = cell.strip().lower()
        for canonical, aliases in HEADER_ALIASES.items():
            if key in aliases and canonical not in mapping:
                mapping[canonical] = idx
    missing = [c for c in MANDATORY_COLUMNS if c not in mapping]
    if missing:
        raise SchemaError(f"{path}: header is missing mandatory column(s): {', '.join(missing)}")
    return mapping


def _parse_int(text: str) -> int:
    return int(text.replace(",", "").replace(" ", ""))


def _parse_float(text: str) -> float:
    value = float(text.replace(",", "").replace(" ", ""))
    if not math.isfinite(value):  # a NaN or infinite weight is unparseable, not fatal
        raise ValueError(text)
    return value


# ASCII digits only: ``strptime`` also reads other Unicode digits.
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def _parse_date(text: str) -> date | None:
    text = text.strip()
    if not text:
        return None
    if _ISO_DATE.fullmatch(text):
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass  # no such day; the loop below rejects it and names the text
    for fmt in ("%Y-%m-%d", "%m/%d/%Y", "%d.%m.%Y"):
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unrecognized date: {text!r}")


def parse_bol_file(
    path: str, delimiter: str = ",", product_transform: Callable[[str], str] | None = None
) -> tuple[list[ShipmentRecord], BolParseReport]:
    """Parse one delimited file into shipment records plus a reject report.

    The header row must map at least shipper, consignee, product, quantity
    and weight (see HEADER_ALIASES). Quoted fields are supported. Raw names
    are trimmed but otherwise kept exactly as written (case preserved).
    ``product_transform``, if given, maps each non-empty product description
    before the record (and so its id) is built.
    """
    report = BolParseReport()
    records: list[ShipmentRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: file is empty, no header row")
            columns = _map_header(header, path)
            for row in reader:
                if not any(cell.strip() for cell in row):
                    continue
                rec, reason = _row_to_record(row, columns, product_transform)
                if rec is None:
                    report.reject(reader.line_num, reason)
                else:
                    records.append(rec)
                    report.accepted += 1
        except UnicodeDecodeError as exc:
            raise utf8_error(path, SchemaError) from exc
        except csv.Error as exc:
            # e.g. an unterminated quote that runs a field past csv's size limit
            raise SchemaError(f"{path}:{reader.line_num}: unreadable row: {exc}") from exc
    return records, report


def _cell(row: list[str], columns: dict[str, int], key: str) -> str:
    idx = columns.get(key)
    if idx is None or idx >= len(row):
        return ""
    return row[idx].strip()


def _row_to_record(row: list[str], columns: dict[str, int], product_transform):
    shipper = _cell(row, columns, "shipper")
    consignee = _cell(row, columns, "consignee")
    product = _cell(row, columns, "product")
    if not shipper:
        return None, "empty shipper name"
    if not consignee:
        return None, "empty consignee name"
    if not product:
        return None, "empty product description"
    try:
        quantity = _parse_int(_cell(row, columns, "quantity"))
    except ValueError:
        return None, f"unparseable quantity: {_cell(row, columns, 'quantity')!r}"
    try:
        weight = _parse_float(_cell(row, columns, "weight"))
    except ValueError:
        return None, f"unparseable weight: {_cell(row, columns, 'weight')!r}"
    if quantity < 0:
        return None, "negative quantity"
    if weight < 0:
        return None, "negative weight"
    try:
        arrival = _parse_date(_cell(row, columns, "arrival_date"))
    except ValueError as exc:
        return None, str(exc)

    if product_transform is not None:
        product = product_transform(product)
    record = ShipmentRecord(
        shipper=CompanyRef(shipper, role_hint="shipper"),
        consignee=CompanyRef(consignee, role_hint="consignee"),
        product_desc=product,
        quantity=quantity,
        weight_kg=weight,
        shipper_address=_cell(row, columns, "shipper_address") or None,
        consignee_address=_cell(row, columns, "consignee_address") or None,
        arrival_date=arrival,
    )
    return record, ""


def normalize_product_desc(text: str) -> str:
    """Collapse whitespace and strip boilerplate clauses from a description.

    Never returns empty for non-empty input: if removing stop phrases would
    empty the text, the whitespace-collapsed original is returned instead.
    """
    collapsed = " ".join(text.split())
    stripped = collapsed
    for pattern in _STOP_PATTERNS:
        stripped = pattern.sub(" ", stripped)
    stripped = " ".join(stripped.split()).strip(" .,;")
    return stripped if stripped else collapsed
