from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from elia.core import Sentence
from elia.resolution import CORPORATE_SUFFIXES
from elia.store import new_store
from elia.transcripts import (
    Gazetteer,
    detect_mentions,
    gazetteer_from_store,
    prefilter,
    read_gazetteer_names,
    segment,
)
from oracles import oracle_mentions


def texts(sentences):
    return [s.text for s in sentences]


# Hand-segmented pairs: input on the left, expected sentence list on the
# right, worked out by applying the documented rules (decimal guard,
# abbreviation guard, initial guard) by hand.
HAND_SEGMENTED = [
    ("We ship daily. UPS handles it.", ["We ship daily.", "UPS handles it."]),
    ("Revenue grew 3.5 percent in Q1.", ["Revenue grew 3.5 percent in Q1."]),
    ("", []),
    ("   \n  ", []),
    (
        "Dr. Smith visited our plant. Production is up.",
        ["Dr. Smith visited our plant.", "Production is up."],
    ),
    # "Inc." is a guarded abbreviation, so no break after it
    (
        "We work with ACME Inc. The contract is new.",
        ["We work with ACME Inc. The contract is new."],
    ),
    (
        "Margins improved! We expect more. Why? Demand.",
        ["Margins improved!", "We expect more.", "Why?", "Demand."],
    ),
    ("J. Smith leads procurement. He is new.", ["J. Smith leads procurement.", "He is new."]),
    (
        "Costs fell to 1.2 billion. Approx. 40 percent was labor.",
        ["Costs fell to 1.2 billion.", "Approx. 40 percent was labor."],
    ),
    ("U.S. sales grew. EU sales fell.", ["U.S. sales grew.", "EU sales fell."]),
]


def test_hand_segmented_rule_table():
    for text, expected in HAND_SEGMENTED:
        assert texts(segment(text, "t")) == expected, f"segmenting {text!r}"


def test_indices_are_consecutive_from_zero():
    got = segment("One. Two. Three.", "t")
    assert [s.index for s in got] == [0, 1, 2]


def test_sentence_ids_unique_and_stable():
    first = segment("We ship daily. UPS handles it.", "t")
    second = segment("We ship daily. UPS handles it.", "t")
    assert [s.id for s in first] == [s.id for s in second]
    assert len({s.id for s in first}) == 2


def collapse(text: str) -> str:
    return " ".join(text.split())


def test_segmentation_is_loss_free_on_fixture():
    for text, _ in HAND_SEGMENTED:
        assert collapse(" ".join(texts(segment(text, "t")))) == collapse(text)


@given(
    st.lists(
        st.sampled_from(
            ["We grew.", "Sales fell 3.5 percent.", "Dr. Lee agreed!", "Is that so?", "ACME CO won."]
        ),
        max_size=8,
    )
)
def test_segmentation_is_loss_free_random(pieces):
    text = " ".join(pieces)
    assert collapse(" ".join(texts(segment(text, "t")))) == collapse(text)


def one_sentence(text: str) -> Sentence:
    return Sentence(transcript_id="t", index=0, text=text)


def test_gazetteer_mentions():
    gaz = Gazetteer(entries={"Samsung", "LG Display"})
    got = detect_mentions(
        one_sentence("Samsung's OLED screens are sourced mainly from LG Display."), gaz
    )
    assert [m.surface for m in got.mentions] == ["Samsung", "LG Display"]


def test_no_entity_no_mentions():
    gaz = Gazetteer(entries={"Samsung"})
    got = detect_mentions(one_sentence("The weather was nice."), gaz)
    assert got.mentions == []


def test_suffix_rule_with_empty_gazetteer():
    gaz = Gazetteer(entries=set())
    got = detect_mentions(
        one_sentence("THANH CONG TEXTILE GARMENT INVESTMENT TRADE JSC shipped goods."), gaz
    )
    assert [m.surface for m in got.mentions] == [
        "THANH CONG TEXTILE GARMENT INVESTMENT TRADE JSC"
    ]


def test_suffix_rule_trailing_punctuation():
    gaz = Gazetteer(entries=set())
    got = detect_mentions(one_sentence("They bought from Pelter Winery Ltd."), gaz)
    assert [m.surface for m in got.mentions] == ["Pelter Winery Ltd"]


def test_suffix_rule_uses_the_resolution_suffix_list():
    gaz = Gazetteer(entries=set())
    got = detect_mentions(one_sentence("Thyssen Krupp AG shipped coil."), gaz)
    assert [m.surface for m in got.mentions] == ["Thyssen Krupp AG"]
    for suffix in CORPORATE_SUFFIXES:
        got = detect_mentions(one_sentence(f"They bought from Acme Metals {suffix}."), gaz)
        assert [m.surface for m in got.mentions] == [f"Acme Metals {suffix}"]


def test_lone_suffix_token_is_not_a_mention():
    gaz = Gazetteer(entries=set())
    got = detect_mentions(one_sentence("Inc is a common suffix."), gaz)
    assert got.mentions == []


def test_longest_match_wins_on_overlap():
    gaz = Gazetteer(entries={"LG", "LG Display"})
    got = detect_mentions(one_sentence("Panels come from LG Display."), gaz)
    assert [m.surface for m in got.mentions] == ["LG Display"]


def test_gazetteer_and_suffix_rule_agree_on_same_span():
    gaz = Gazetteer(entries={"BAODING HUANGHENG BAGS MANUFACTURING CO LTD"})
    got = detect_mentions(
        one_sentence("BAODING HUANGHENG BAGS MANUFACTURING CO LTD sent handbags."), gaz
    )
    assert len(got.mentions) == 1


def test_case_insensitive_gazetteer_match():
    gaz = Gazetteer(entries={"samsung"})
    got = detect_mentions(one_sentence("Samsung reported growth."), gaz)
    assert [m.surface for m in got.mentions] == ["Samsung"]


def test_word_boundary_respected():
    gaz = Gazetteer(entries={"Ford"})
    got = detect_mentions(one_sentence("We were fording the river at Fordham."), gaz)
    assert got.mentions == []


@given(
    st.lists(
        st.sampled_from(
            ["ACME", "Corp", "Ltd", "widgets", "from", "Samsung", "JSC", "the", "Display", "LG"]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_mentions_sorted_and_non_overlapping(tokens):
    gaz = Gazetteer(entries={"Samsung", "LG Display", "ACME Corp"})
    got = detect_mentions(one_sentence(" ".join(tokens)), gaz)
    for first, second in zip(got.mentions, got.mentions[1:]):
        assert first.end <= second.start


def test_short_entry_kept_when_longer_entry_at_same_start_is_blocked():
    # "Gamma Delta Epsilon" is the longest span and blocks "Beta Gamma";
    # "Beta", which starts where "Beta Gamma" does, still fits.
    gaz = Gazetteer(entries={"Beta", "Beta Gamma", "Gamma Delta Epsilon"})
    sentence = one_sentence("Beta Gamma Delta Epsilon")
    got = detect_mentions(sentence, gaz)
    assert [m.surface for m in got.mentions] == ["Beta", "Gamma Delta Epsilon"]
    assert got.mentions == oracle_mentions(sentence, gaz).mentions


def test_entry_occurrences_do_not_overlap_each_other():
    # "Co & Co" occurs at 8 and, overlapping itself, at 13. As with a
    # per-entry finditer, only the first counts; "Brown & Co" then blocks it.
    gaz = Gazetteer(entries={"Brown & Co", "Co & Co"})
    sentence = one_sentence("Brown & Co & Co & Co")
    got = detect_mentions(sentence, gaz)
    assert [m.surface for m in got.mentions] == ["Brown & Co"]
    assert got.mentions == oracle_mentions(sentence, gaz).mentions


def test_gazetteer_larger_than_re_cache():
    # More entries than the re module caches compiled patterns (512).
    names = [f"Firm {i:03d} Trading" for i in range(600)]
    gaz = Gazetteer(entries=names)
    sentence = one_sentence("FIRM 007 TRADING ships to Firm 599 Trading, not firm 600 trading.")
    got = detect_mentions(sentence, gaz)
    assert [m.surface for m in got.mentions] == ["FIRM 007 TRADING", "Firm 599 Trading"]
    assert got.mentions == oracle_mentions(sentence, gaz).mentions


def test_gazetteer_is_immutable():
    gaz = Gazetteer(entries={"Samsung"})
    assert isinstance(gaz.entries, frozenset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gaz.entries = frozenset({"Apple"})


# Letters whose case rules differ between re.IGNORECASE and str.lower():
# dotted capital I, long s and the Kelvin sign, next to their ASCII kin.
_NAME_CHARS = "abAB iIİıksSſKK.&-("
_WORDS = ["a", "ab", "AB", "İı", "ſS", "KK", "Co", "Ltd", "&", "(b", "-"]


@st.composite
def gazetteer_cases(draw):
    words = draw(st.lists(
        st.sampled_from(_WORDS) | st.text(_NAME_CHARS, min_size=1, max_size=3),
        min_size=1, max_size=10,
    ))
    separators = draw(st.lists(st.sampled_from([" ", "", ", ", ". "]),
                               min_size=len(words), max_size=len(words)))
    text = "".join(word + sep for word, sep in zip(words, separators))
    # Entries are cut from the text, so they overlap each other and
    # themselves; each also brings a case variant, a longer entry with the
    # same prefix, one of equal length and one with punctuation at its edges.
    recase = st.sampled_from([str, str.upper, str.lower, str.swapcase])
    entries = set()
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, len(text) - 1))
        window = text[start:draw(st.integers(start + 1, len(text)))]
        entries.add(draw(recase)(window))
        entries.add(window + draw(st.text(_NAME_CHARS, min_size=1, max_size=3)))
        entries.add(draw(st.text(_NAME_CHARS, min_size=len(window), max_size=len(window))))
        entries.add(draw(st.sampled_from(".&(-")) + window + draw(st.sampled_from(".&)-")))
    return entries, text


@settings(max_examples=300)
@given(gazetteer_cases())
def test_detect_mentions_matches_oracle(case):
    entries, text = case
    gaz = Gazetteer(entries=entries)
    sentence = one_sentence(text)
    assert detect_mentions(sentence, gaz).mentions == oracle_mentions(sentence, gaz).mentions


def test_detect_mentions_is_pure_and_deterministic():
    gaz = Gazetteer(entries={"Samsung"})
    sentence = one_sentence("Samsung grew. Samsung again.")
    a = detect_mentions(sentence, gaz)
    b = detect_mentions(sentence, gaz)
    assert a.mentions == b.mentions
    assert sentence.mentions == []  # input untouched
    assert a.id == sentence.id


# Ten sentences, hand-labeled: keep means the sentence mentions a company
# (by gazetteer or suffix rule) and must survive the pre-filter.
PREFILTER_FIXTURE = [
    ("Samsung grew its display business.", True),
    ("The quarter was challenging.", False),
    ("We rely on LG Display for panels.", True),
    ("Margins improved across segments.", False),
    ("PELTER WINERY LTD shipped twelve pallets.", True),
    ("Demand softened in Europe.", False),
    ("Our partner MIAS FASHION MANUFACTURING COMPANY INC expanded.", True),
    ("Freight rates doubled.", False),
    ("Apple remains a key customer.", True),
    ("We expect rain tomorrow.", False),
]


def test_prefilter_matches_hand_labels():
    gaz = Gazetteer(entries={"Samsung", "LG Display", "Apple"})
    sentences = [
        detect_mentions(Sentence(transcript_id="t", index=i, text=text), gaz)
        for i, (text, _) in enumerate(PREFILTER_FIXTURE)
    ]
    kept = prefilter(sentences)
    expected = [text for text, keep in PREFILTER_FIXTURE if keep]
    assert texts(kept) == expected


def test_prefilter_is_order_preserving_subset():
    gaz = Gazetteer(entries={"Samsung"})
    sentences = [
        detect_mentions(Sentence(transcript_id="t", index=i, text=t), gaz)
        for i, t in enumerate(["Samsung won.", "No entity here.", "Samsung again."])
    ]
    kept = prefilter(sentences)
    assert [s.index for s in kept] == [0, 2]
    all_ids = [s.id for s in sentences]
    assert [all_ids.index(s.id) for s in kept] == sorted(all_ids.index(s.id) for s in kept)


def test_prefilter_identity_when_all_mentioned():
    gaz = Gazetteer(entries={"Samsung"})
    sentences = [
        detect_mentions(Sentence(transcript_id="t", index=i, text="Samsung won."), gaz)
        for i in range(3)
    ]
    assert prefilter(sentences) == sentences


def test_gazetteer_loader(tmp_path):
    path = tmp_path / "gaz.txt"
    path.write_text("Samsung\n# a comment\nLG Display  \n\n")
    assert read_gazetteer_names(str(path)) == {"Samsung", "LG Display"}


def test_gazetteer_from_store(sample_records):
    store = new_store()
    for rec in sample_records:
        store.add_record(rec)
    gaz = gazetteer_from_store(store, extra=("Samsung",))
    assert "PELTER WINERY LTD" in gaz.entries
    assert "Samsung" in gaz.entries
    assert len(gaz.entries) == 7  # 3 shippers + 3 consignees + 1 extra
