"""On-disk dataset store: shipment records, sentences, triples, aliases.

Layout of a store directory:

    records.ndjson    one ShipmentRecord per line
    sentences.ndjson  one Sentence per line
    triples.ndjson    one TransactionTriple per line
    aliases.ndjson    one {"raw": ..., "canonical_id": ...} per line
    manifest.json     {"format_version": 1, "created_at": iso-8601}

The store is single-writer; loaded stores are safe to share read-only.

Rows are immutable once added: nothing changes a record, sentence or
triple in place after ``add_*``, and the alias map is only ever replaced
or extended. So a table's ordered ids (the alias map's items) say whether
it changed, and ``save_store`` writes only the tables whose ids differ from
what that directory was last loaded from or saved with, or whose file is
missing. Each file goes through ``core.replace_file`` (``<name>.tmp`` in
the same directory, then ``os.replace`` over the old one), the manifest
last, so a process killed mid-save leaves every file either old or new,
never short. There is no fsync: this guards against a crash of the
process, not of the machine. ``load_store`` builds its rows with the
cyclic garbage collector off (``core.no_gc``): rows hold no cycles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .core import (Sentence, ShipmentRecord, TransactionTriple, no_gc, read_json, read_ndjson,
                   replace_file)
from .errors import DuplicateIdError, StoreFormatError, StoreVersionError

FORMAT_VERSION = 1

RECORDS_FILE = "records.ndjson"
SENTENCES_FILE = "sentences.ndjson"
TRIPLES_FILE = "triples.ndjson"
ALIASES_FILE = "aliases.ndjson"
MANIFEST_FILE = "manifest.json"


@dataclass
class DatasetStore:
    records: dict[str, ShipmentRecord] = field(default_factory=dict)
    sentences: dict[str, Sentence] = field(default_factory=dict)
    triples: dict[str, TransactionTriple] = field(default_factory=dict)
    alias_map: dict[str, str] = field(default_factory=dict)
    # The directory (realpath) this store was last loaded from or saved to,
    # and per table file the snapshot (see ``_tables``) that it holds there.
    _saved_dir: str | None = field(default=None, init=False, repr=False, compare=False)
    _saved: dict[str, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_record(self, record: ShipmentRecord) -> str:
        if record.record_id in self.records:
            raise DuplicateIdError(f"record id already present: {record.record_id}")
        self.records[record.record_id] = record
        return record.record_id

    def add_sentence(self, sentence: Sentence) -> str:
        if sentence.id in self.sentences:
            raise DuplicateIdError(f"sentence id already present: {sentence.id}")
        self.sentences[sentence.id] = sentence
        return sentence.id

    def add_triple(self, triple: TransactionTriple) -> str:
        """Insert a triple, assigning the next counter-based id if unset."""
        if triple.triple_id is None:
            triple.triple_id = f"t{len(self.triples) + 1:06d}"
            while triple.triple_id in self.triples:
                triple.triple_id = f"t{int(triple.triple_id[1:]) + 1:06d}"
        if triple.triple_id in self.triples:
            raise DuplicateIdError(f"triple id already present: {triple.triple_id}")
        self.triples[triple.triple_id] = triple
        return triple.triple_id

    def referenced_names(self) -> list[str]:
        """All raw company names in records and triples, with multiplicity.

        Placeholder values like ``<Your company>`` are excluded: they do not
        denote real firms and must never enter the alias map.
        """
        names: list[str] = []
        for rec in self.records.values():
            names.append(rec.shipper.raw_name)
            names.append(rec.consignee.raw_name)
        for t in self.triples.values():
            for ref in (t.buyer, t.supplier):
                if ref is not None and not ref.placeholder:
                    names.append(ref.raw_name)
        return names


def new_store() -> DatasetStore:
    return DatasetStore()


# ``json.dumps(row, ensure_ascii=False, separators=(", ", ": "))``, without
# building a new encoder for every row.
_encode_row = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": ")).encode


def _tables(store: DatasetStore):
    """``(file name, snapshot, rows)`` per table, rows as lazy dicts.

    The snapshot says whether a table changed: its ordered ids, or for the
    alias map its items.
    """
    return (
        (RECORDS_FILE, tuple(store.records), (r.to_dict() for r in store.records.values())),
        (SENTENCES_FILE, tuple(store.sentences),
         (s.to_dict() for s in store.sentences.values())),
        (TRIPLES_FILE, tuple(store.triples), (t.to_dict() for t in store.triples.values())),
        (ALIASES_FILE, tuple(store.alias_map.items()),
         ({"raw": raw, "canonical_id": cid} for raw, cid in store.alias_map.items())),
    )


def save_store(store: DatasetStore, path: str) -> None:
    """Write the store's changed tables, then the manifest, to ``path``.

    ``path`` is a directory, created if missing. A table is written when it
    differs from what ``path`` was last loaded from or saved with, when
    ``path`` is another directory, or when its file is missing.
    """
    os.makedirs(path, exist_ok=True)
    real = os.path.realpath(path)
    if store._saved_dir != real:
        store._saved_dir, store._saved = real, {}
    for name, snapshot, rows in _tables(store):
        file_path = os.path.join(path, name)
        if store._saved.get(name) == snapshot and os.path.exists(file_path):
            continue
        replace_file(file_path, (_encode_row(row) + "\n" for row in rows))
        store._saved[name] = snapshot
    manifest = {
        "format_version": FORMAT_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    replace_file(os.path.join(path, MANIFEST_FILE), [json.dumps(manifest, indent=2), "\n"])


@no_gc()
def load_store(path: str) -> DatasetStore:
    """Load a store directory; raises on malformed files or version skew."""
    if not os.path.isdir(path):
        raise StoreFormatError(f"{path}: store directory does not exist (run ingest first)")
    manifest_path = os.path.join(path, MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        raise StoreFormatError(f"{path}: not a dataset store (missing {MANIFEST_FILE})")
    manifest = read_json(manifest_path, StoreFormatError, "manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StoreVersionError(
            f"{manifest_path}: format_version {version!r} unsupported (expected {FORMAT_VERSION})"
        )

    store = DatasetStore()
    _load_rows(path, RECORDS_FILE, ShipmentRecord, store.add_record)
    _load_rows(path, SENTENCES_FILE, Sentence, store.add_sentence)
    _load_rows(path, TRIPLES_FILE, TransactionTriple, store.add_triple)
    aliases_path = os.path.join(path, ALIASES_FILE)
    for _, d in read_ndjson(aliases_path, StoreFormatError,
                            required={"raw": str, "canonical_id": str}):
        store.alias_map[d["raw"]] = d["canonical_id"]
    store._saved_dir = os.path.realpath(path)
    store._saved = {name: snapshot for name, snapshot, _ in _tables(store)}
    return store


def _load_rows(path: str, name: str, cls, add) -> None:
    """Pass ``cls.from_dict`` of each row of one store file to ``add``.

    A row that does not parse or repeats an id already loaded names the
    file and line.
    """
    file_path = os.path.join(path, name)
    for lineno, d in read_ndjson(file_path, StoreFormatError):
        try:
            item = cls.from_dict(d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StoreFormatError(f"{file_path}:{lineno}: bad row {d!r}: {exc}") from exc
        try:
            add(item)
        except DuplicateIdError as exc:
            raise StoreFormatError(f"{file_path}:{lineno}: duplicate row: {exc}") from exc
