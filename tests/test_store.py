from __future__ import annotations

import gc
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from elia import store as store_module
from elia.core import ROLES, CompanyRef, Sentence, ShipmentRecord, TransactionTriple
from elia.errors import DuplicateIdError, StoreFormatError, StoreVersionError
from elia.store import load_store, new_store, save_store

TABLE_FILES = {"records.ndjson", "sentences.ndjson", "triples.ndjson", "aliases.ndjson"}


def make_record(shipper="ACME CO", consignee="BUYER LLC", product="WIDGETS", qty=1, weight=10.0):
    return ShipmentRecord(
        shipper=CompanyRef(shipper, role_hint="shipper"),
        consignee=CompanyRef(consignee, role_hint="consignee"),
        product_desc=product,
        quantity=qty,
        weight_kg=weight,
    )


def test_new_store_is_empty():
    store = new_store()
    assert len(store.records) == 0
    assert len(store.triples) == 0
    assert len(store.sentences) == 0


def test_single_insert_counts():
    store = new_store()
    store.add_record(make_record())
    assert len(store.records) == 1


def test_duplicate_record_id_rejected():
    store = new_store()
    rec = make_record()
    store.add_record(rec)
    with pytest.raises(DuplicateIdError):
        store.add_record(make_record())  # same content, same hash id


def test_duplicate_sentence_and_triple_ids_rejected():
    store = new_store()
    sentence = Sentence(transcript_id="t1", index=0, text="We ship daily.")
    store.add_sentence(sentence)
    with pytest.raises(DuplicateIdError):
        store.add_sentence(Sentence(transcript_id="t1", index=0, text="We ship daily."))
    triple = TransactionTriple(
        buyer=CompanyRef("A", role_hint="buyer"), supplier=None, item=None,
        source_id=sentence.id, triple_id="t000001",
    )
    store.add_triple(triple)
    with pytest.raises(DuplicateIdError):
        store.add_triple(
            TransactionTriple(buyer=CompanyRef("B", role_hint="buyer"), supplier=None,
                              item=None, source_id=sentence.id, triple_id="t000001")
        )


def test_triple_counter_ids_are_assigned():
    store = new_store()
    t1 = TransactionTriple(buyer=CompanyRef("A", role_hint="buyer"), supplier=None,
                           item=None, source_id="s1")
    t2 = TransactionTriple(buyer=CompanyRef("B", role_hint="buyer"), supplier=None,
                           item=None, source_id="s2")
    assert store.add_triple(t1) == "t000001"
    assert store.add_triple(t2) == "t000002"


def test_record_ids_stable_across_reingestion():
    assert make_record().record_id == make_record().record_id
    assert make_record().record_id != make_record(qty=2).record_id


def test_round_trip_sample_rows(sample_records, tmp_path):
    store = new_store()
    for rec in sample_records:
        store.add_record(rec)
    save_store(store, str(tmp_path / "store"))
    loaded = load_store(str(tmp_path / "store"))
    assert loaded == store


def test_round_trip_full_store(tmp_path):
    store = new_store()
    rng = random.Random(1234)
    for i in range(1000):
        store.add_record(
            make_record(
                shipper=f"SHIPPER {i} LTD",
                consignee=f"CONSIGNEE {rng.randrange(50)} INC",
                product=f"PRODUCT {rng.randrange(100)}",
                qty=rng.randrange(0, 5000),
                weight=round(rng.uniform(0, 9999), 3),
            )
        )
    sentence = Sentence(transcript_id="call1", index=0, text="ACME CO supplies us.")
    store.add_sentence(sentence)
    store.add_triple(
        TransactionTriple(
            buyer=CompanyRef("US CORP", role_hint="buyer"),
            supplier=CompanyRef("ACME CO", role_hint="supplier"),
            item="parts",
            source_id=sentence.id,
            confidence=0.75,
        )
    )
    store.alias_map["ACME CO"] = "c0001"
    save_store(store, str(tmp_path / "store"))
    assert load_store(str(tmp_path / "store")) == store


def test_round_trip_preserves_optional_fields(tmp_path):
    from datetime import date

    store = new_store()
    store.add_record(
        ShipmentRecord(
            shipper=CompanyRef("A CO", role_hint="shipper"),
            consignee=CompanyRef("B LLC", role_hint="consignee"),
            product_desc="THINGS",
            quantity=3,
            weight_kg=1.5,
            shipper_address="1 Dock Rd",
            consignee_address="2 Port Ave",
            arrival_date=date(2020, 12, 15),
        )
    )
    save_store(store, str(tmp_path / "s"))
    assert load_store(str(tmp_path / "s")) == store


_NAME = st.text(min_size=1, max_size=12).filter(str.strip)
_OPTIONAL_TEXT = st.none() | st.text(max_size=12)
_OPTIONAL_FIELDS = ("shipper_address", "consignee_address", "arrival_date")


def _party(slot: str):
    """A party in row slot ``slot``: its role half the time the slot, else any role."""
    return st.builds(CompanyRef, _NAME, st.just(slot) | st.sampled_from(ROLES))


def _row(item) -> dict:
    """``item.to_dict()`` as a store file holds it and ``read_ndjson`` gives it back."""
    return json.loads(store_module._encode_row(item.to_dict()))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_party("shipper"), _party("consignee"), _OPTIONAL_TEXT, _OPTIONAL_TEXT,
       st.none() | st.dates(), st.integers(0, 10**9), st.floats(0, 1e12))
def test_record_row_leaves_out_what_from_dict_restores(shipper, consignee, shipper_address,
                                                       consignee_address, arrival, qty, weight):
    record = ShipmentRecord(shipper=shipper, consignee=consignee, product_desc="GOODS",
                            quantity=qty, weight_kg=weight, shipper_address=shipper_address,
                            consignee_address=consignee_address, arrival_date=arrival)
    row = _row(record)
    assert ShipmentRecord.from_dict(row) == record
    for slot in ("shipper", "consignee"):
        assert ("role_hint" in row[slot]) == (getattr(record, slot).role_hint != slot)
    assert [k for k in _OPTIONAL_FIELDS if k in row] == [
        k for k in _OPTIONAL_FIELDS if getattr(record, k) is not None]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.none() | _party("buyer"), st.none() | _party("supplier"), _OPTIONAL_TEXT,
       st.floats(0, 1))
def test_triple_row_leaves_out_what_from_dict_restores(buyer, supplier, item, confidence):
    assume(buyer or supplier or item is not None)
    triple = TransactionTriple(buyer=buyer, supplier=supplier, item=item, source_id="s1",
                               confidence=confidence, triple_id="t000001")
    row = _row(triple)
    assert TransactionTriple.from_dict(row) == triple
    for slot in ("buyer", "supplier"):
        party = getattr(triple, slot)
        if party is None:
            assert row[slot] is None
        else:
            assert ("role_hint" in row[slot]) == (party.role_hint != slot)


def test_load_empty_manifest_is_parse_error(tmp_path):
    store_dir = tmp_path / "store"
    save_store(new_store(), str(store_dir))
    (store_dir / "manifest.json").write_text("")
    with pytest.raises(StoreFormatError):
        load_store(str(store_dir))


def test_load_missing_manifest(tmp_path):
    with pytest.raises(StoreFormatError):
        load_store(str(tmp_path / "nope"))


def test_load_malformed_ndjson_names_line(tmp_path):
    store_dir = tmp_path / "store"
    save_store(new_store(), str(store_dir))
    (store_dir / "records.ndjson").write_text('{"record_id": "r1"}\n{broken\n')
    with pytest.raises(StoreFormatError) as err:
        load_store(str(store_dir))
    assert ":2:" in str(err.value) or "records.ndjson" in str(err.value)


def test_version_mismatch(tmp_path):
    store_dir = tmp_path / "store"
    save_store(new_store(), str(store_dir))
    manifest = json.loads((store_dir / "manifest.json").read_text())
    manifest["format_version"] = 99
    (store_dir / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreVersionError):
        load_store(str(store_dir))


def small_store(n=5):
    store = new_store()
    for i in range(n):
        store.add_record(make_record(shipper=f"SHIPPER {i} LTD", qty=i))
    sentence = Sentence(transcript_id="call1", index=0, text="ACME CO supplies us.")
    store.add_sentence(sentence)
    store.add_triple(TransactionTriple(buyer=CompanyRef("US CORP", role_hint="buyer"),
                                       supplier=None, item="parts", source_id=sentence.id))
    store.alias_map["ACME CO"] = "c0001"
    return store


def file_state(store_dir):
    """Inode and bytes of each table file (the manifest carries a timestamp)."""
    return {
        name: ((store_dir / name).stat().st_ino, (store_dir / name).read_bytes())
        for name in TABLE_FILES
    }


def test_save_writes_only_changed_tables(tmp_path):
    store_dir = tmp_path / "store"
    store = small_store()
    save_store(store, str(store_dir))
    before = file_state(store_dir)
    store.add_record(make_record(shipper="LATE ARRIVAL CO"))
    save_store(store, str(store_dir))
    after = file_state(store_dir)
    assert after.pop("records.ndjson")[0] != before.pop("records.ndjson")[0]
    assert after == before
    assert load_store(str(store_dir)) == store


def test_loaded_store_saves_nothing_unchanged(tmp_path):
    store_dir = tmp_path / "store"
    save_store(small_store(), str(store_dir))
    # The loader skips blank lines, so a trailing one survives only if the
    # file is not written again.
    for name in TABLE_FILES:
        with open(store_dir / name, "a", encoding="utf-8") as fh:
            fh.write("\n")
    before = file_state(store_dir)
    loaded = load_store(str(store_dir))
    save_store(loaded, str(store_dir))
    assert file_state(store_dir) == before


def test_snapshot_is_left_out_of_eq_and_repr(tmp_path):
    saved = small_store()
    save_store(saved, str(tmp_path / "store"))
    fresh = small_store()
    assert saved == fresh
    assert repr(saved) == repr(fresh)


def test_save_to_a_second_directory_writes_every_file(tmp_path):
    save_store(small_store(2), str(tmp_path / "two"))
    store = small_store()
    save_store(store, str(tmp_path / "one"))
    save_store(store, str(tmp_path / "two"))
    assert {p.name for p in (tmp_path / "two").iterdir()} == TABLE_FILES | {"manifest.json"}
    for name in TABLE_FILES:
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    assert load_store(str(tmp_path / "two")) == store


def test_deleted_table_file_is_rewritten_on_next_save(tmp_path):
    store_dir = tmp_path / "store"
    store = small_store()
    save_store(store, str(store_dir))
    expected = (store_dir / "sentences.ndjson").read_bytes()
    (store_dir / "sentences.ndjson").unlink()
    save_store(store, str(store_dir))
    assert (store_dir / "sentences.ndjson").read_bytes() == expected
    assert load_store(str(store_dir)) == store


def test_failed_save_leaves_old_table_and_no_temp_file(tmp_path, monkeypatch):
    store_dir = tmp_path / "store"
    save_store(small_store(), str(store_dir))
    old_bytes = (store_dir / "records.ndjson").read_bytes()
    old_store = load_store(str(store_dir))

    grown = load_store(str(store_dir))
    for i in range(5, 10):
        grown.add_record(make_record(shipper=f"SHIPPER {i} LTD", qty=i))
    encode_row = store_module._encode_row
    encoded = []

    def encode_then_fail(row):
        if len(encoded) == 3:
            raise RuntimeError("disk on fire")
        encoded.append(row)
        return encode_row(row)

    monkeypatch.setattr(store_module, "_encode_row", encode_then_fail)
    with pytest.raises(RuntimeError, match="disk on fire"):
        save_store(grown, str(store_dir))
    assert len(encoded) == 3
    assert (store_dir / "records.ndjson").read_bytes() == old_bytes
    assert not list(store_dir.glob("*.tmp"))
    assert load_store(str(store_dir)) == old_store


def test_load_store_builds_rows_with_gc_off_and_restores_it(tmp_path, monkeypatch):
    save_store(small_store(), str(tmp_path))
    seen = []
    load_rows = store_module._load_rows

    def spy(*args):
        seen.append(gc.isenabled())
        return load_rows(*args)

    monkeypatch.setattr(store_module, "_load_rows", spy)
    assert gc.isenabled()
    assert load_store(str(tmp_path)) == small_store()
    assert seen == [False] * 3
    assert gc.isenabled()


def test_load_save_load_round_trips_bytes(tmp_path, sample_records):
    store = small_store()
    for rec in sample_records:
        store.add_record(rec)
    save_store(store, str(tmp_path / "a"))
    save_store(load_store(str(tmp_path / "a")), str(tmp_path / "b"))
    for name in TABLE_FILES:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
    assert load_store(str(tmp_path / "b")) == store
