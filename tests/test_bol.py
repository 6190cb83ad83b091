from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, strategies as st

from conftest import fixture_path
from oracles import oracle_parse_date

from elia.bol import _parse_date, normalize_product_desc, parse_bol_file
from elia.errors import SchemaError


def test_sample_rows_parse_to_expected_values(sample_bol_path):
    records, report = parse_bol_file(str(sample_bol_path))
    assert (report.accepted, report.rejected) == (3, 0)
    assert [r.quantity for r in records] == [20, 1445, 35]
    assert [r.weight_kg for r in records] == [990.0, 2767.0, 714.0]
    wine = records[2]
    assert wine.shipper.raw_name == "PELTER WINERY LTD"
    assert wine.consignee.raw_name == "ISRAELI WINE DIRECT LLC"
    assert wine.product_desc == "SLAC WINE ON 2 PACKAGES HS 220429"


def test_raw_names_keep_case_and_trim(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text(
        "shipper_name,consignee_name,product,qty,weight\n"
        "  Pelter Winery Ltd , ISRAELI WINE DIRECT LLC ,wine,1,10\n"
    )
    records, _ = parse_bol_file(str(path))
    assert records[0].shipper.raw_name == "Pelter Winery Ltd"


def test_negative_weight_rejected(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text(
        "Shipper Name,Consignee Name,Product Desc,Quantity,Weight\n"
        "A CO,B LLC,WIDGETS,5,-5\n"
    )
    records, report = parse_bol_file(str(path))
    assert records == []
    assert report.rejected == 1
    assert "negative weight" in report.rejects[0][1]


@pytest.mark.parametrize("weight", ["nan", "NaN", "inf", "Infinity", "-inf"])
def test_non_finite_weight_rejected_and_other_rows_kept(tmp_path, weight):
    path = tmp_path / "bol.csv"
    path.write_text(
        "Shipper Name,Consignee Name,Product Desc,Quantity,Weight\n"
        "A CO,B LLC,WIDGETS,5,100\n"
        f"A CO,B LLC,GADGETS,5,{weight}\n"
        "A CO,B LLC,GIZMOS,5,7\n"
    )
    records, report = parse_bol_file(str(path))
    assert [r.product_desc for r in records] == ["WIDGETS", "GIZMOS"]
    assert report.accepted == 2
    assert report.rejects == [(3, f"unparseable weight: {weight!r}")]


def test_bad_rows_are_skipped_not_fatal(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text(
        "Shipper Name,Consignee Name,Product Desc,Quantity,Weight\n"
        "A CO,B LLC,WIDGETS,5,100\n"
        ",B LLC,WIDGETS,5,100\n"
        "A CO,B LLC,,5,100\n"
        "A CO,B LLC,WIDGETS,notanumber,100\n"
        "A CO,B LLC,WIDGETS,-2,100\n"
        "A CO,B LLC,WIDGETS,5,abc\n"
    )
    records, report = parse_bol_file(str(path))
    assert report.accepted == len(records) == 1
    assert report.rejected == 5
    reasons = [reason for _, reason in report.rejects]
    assert any("shipper" in r for r in reasons)
    assert any("quantity" in r for r in reasons)


def test_count_conservation(tmp_path):
    path = tmp_path / "bol.csv"
    lines = ["Shipper Name,Consignee Name,Product Desc,Quantity,Weight"]
    for i in range(20):
        weight = "-1" if i % 3 == 0 else str(10 * i)
        lines.append(f"S{i} CO,C{i} LLC,ITEM {i},{i},{weight}")
    path.write_text("\n".join(lines) + "\n")
    records, report = parse_bol_file(str(path))
    assert report.accepted + report.rejected == 20
    assert report.accepted == len(records)


def test_missing_mandatory_column_is_fatal(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text("Shipper Name,Product Desc,Quantity,Weight\nA,B,1,2\n")
    with pytest.raises(SchemaError) as err:
        parse_bol_file(str(path))
    assert "consignee" in str(err.value)


def test_field_over_the_csv_limit_is_a_schema_error_naming_the_line(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text("Shipper Name,Consignee Name,Product Desc,Quantity,Weight\n"
                    "A CO,B LLC,X,1,2\n"
                    'A CO,"B LLC,X,1,2\n' + "x" * 200_000 + "\n")
    expected = f"^{re.escape(str(path))}:4: unreadable row: field larger than field limit"
    with pytest.raises(SchemaError, match=expected):
        parse_bol_file(str(path))


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        parse_bol_file(str(tmp_path / "missing.csv"))


def test_quoted_fields_and_thousands_separators(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text(
        "Shipper Name,Consignee Name,Product Desc,Quantity,Weight\n"
        '"ACME, INC","B LLC","BOLTS, NUTS","1,445","2,767"\n'
    )
    records, report = parse_bol_file(str(path))
    assert report.accepted == 1
    assert records[0].shipper.raw_name == "ACME, INC"
    assert records[0].quantity == 1445
    assert records[0].weight_kg == 2767.0


def test_tab_delimiter(tmp_path):
    path = tmp_path / "bol.tsv"
    path.write_text("Shipper Name\tConsignee Name\tProduct Desc\tQuantity\tWeight\nA CO\tB LLC\tX\t1\t2\n")
    records, _ = parse_bol_file(str(path), delimiter="\t")
    assert records[0].weight_kg == 2.0


def test_optional_columns_yield_null_fields(tmp_path):
    path = tmp_path / "bol.csv"
    path.write_text(
        "Shipper Name,Consignee Name,Product Desc,Quantity,Weight,Arrival Date\n"
        "A CO,B LLC,X,1,2,2020-12-01\n"
        "A CO,B LLC,Y,1,2,\n"
    )
    records, _ = parse_bol_file(str(path))
    assert records[0].arrival_date is not None
    assert records[1].arrival_date is None
    assert records[0].shipper_address is None


def test_parse_is_deterministic(sample_bol_path):
    first = parse_bol_file(str(sample_bol_path))
    second = parse_bol_file(str(sample_bol_path))
    assert [r.record_id for r in first[0]] == [r.record_id for r in second[0]]


def test_product_transform_equals_normalizing_parsed_records():
    path = str(fixture_path("bol_demo.csv"))
    plain, plain_report = parse_bol_file(path)
    normalized, report = parse_bol_file(path, product_transform=normalize_product_desc)
    assert report == plain_report
    assert normalized == [
        dataclasses.replace(rec, product_desc=normalize_product_desc(rec.product_desc),
                            record_id="")
        for rec in plain
    ]
    assert any(rec.product_desc != new.product_desc for rec, new in zip(plain, normalized))


def test_normalize_with_other_stop_phrases():
    assert normalize_product_desc("SEE INVOICE") == "SEE INVOICE"


def test_normalize_strips_boilerplate():
    text = "HANDBAG THIS SHIPMENT CONTAINS NO WOOD PACKAGING MATERIALS."
    assert normalize_product_desc(text) == "HANDBAG"


def test_normalize_collapses_whitespace():
    assert normalize_product_desc("  WINE   CASES ") == "WINE CASES"


def test_normalize_never_empties_nonempty_input():
    text = "THIS SHIPMENT CONTAINS NO WOOD PACKAGING MATERIALS"
    assert normalize_product_desc(text) == text


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120))
def test_normalize_is_idempotent(text):
    once = normalize_product_desc(text)
    assert normalize_product_desc(once) == once


@given(st.text(alphabet=st.sampled_from(" ABCDEFGHIJKLMNOPQRSTUVWXYZ."), min_size=1, max_size=80))
def test_normalize_nonempty_for_nonempty(text):
    if text.strip():
        assert normalize_product_desc(text) != ""


def _date_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("text", [
    "2021-03-04", " 2021-03-04 ", "2021-02-29", "2020-02-29", "0000-01-01", "0001-01-01",
    "9999-12-31", "2021-13-01", "2021-00-10", "2021-1-05", "2021-01-5", "20210105",
    "2021-W01-1", "2021-01-05T00:00", "٢٠٢١-٠١-٠٥", "２０２１-０１-０５", "03/04/2021",
    "3/4/2021", "13/04/2021", "04.03.2021", "4.3.2021", "31.02.2021", "", "   ", "n/a",
])
def test_parse_date_matches_strptime_loop(text):
    assert _date_outcome(_parse_date, text) == _date_outcome(oracle_parse_date, text)


@given(st.one_of(
    st.text(alphabet="0123456789-/.٠١٢ W", max_size=12),
    st.builds("{:04d}-{:02d}-{:02d}".format,
              st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)),
))
def test_parse_date_matches_strptime_loop_on_generated_text(text):
    assert _date_outcome(_parse_date, text) == _date_outcome(oracle_parse_date, text)
