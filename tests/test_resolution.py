from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles import oracle_resolve

import elia
import elia.resolution as resolution_module
from elia.resolution import (
    apply_overrides,
    normalize_name,
    resolve,
    token_jaccard,
)


def test_normalize_strips_single_suffix():
    assert normalize_name("PELTER WINERY LTD") == "PELTER WINERY"


def test_normalize_strips_stacked_suffixes():
    assert (
        normalize_name("BAODING HUANGHENG BAGS MANUFACTURING CO LTD")
        == "BAODING HUANGHENG BAGS MANUFACTURING"
    )


def test_normalize_never_empties():
    assert normalize_name("LLC") == "LLC"
    assert normalize_name("CO LTD") == "CO LTD"


def test_normalize_case_and_punctuation():
    assert normalize_name("Samsung Electronics America, Inc.") == "SAMSUNG ELECTRONICS AMERICA"


def test_normalize_is_idempotent():
    for raw in ("PELTER WINERY LTD", "a.b.c co ltd", "LLC", "Global-Trade Partners PLC"):
        once = normalize_name(raw)
        assert normalize_name(once) == once


def test_case_punct_variants_merge():
    result = resolve(
        ["Samsung Electronics America Inc", "SAMSUNG ELECTRONICS AMERICA INC."], threshold=0.9
    )
    assert len(result.entities) == 1
    ids = set(result.alias_map.values())
    assert len(ids) == 1


def test_distinct_firms_stay_apart():
    result = resolve(["PELTER WINERY LTD", "ISRAELI WINE DIRECT LLC"], threshold=0.9)
    assert len(result.entities) == 2


def _spelling_variant_fixture():
    """40 raw names: 37 distinct firms plus 3 spellings of one more firm."""
    variants = [
        "GLOBAL TEXTILE TRADING PARTNERS LTD",
        "Global Textile Trading Partners Co Ltd",
        "GLOBAL TEXTILE TRADING PARTNER INC",
    ]
    firsts = [
        "ALFA", "BRAVO", "CYGNUS", "DELTA", "ECHO", "FOXTROT", "GRANITE", "HARBOR",
        "IRIS", "JUNIPER", "KESTREL", "LUMEN", "MERIDIAN", "NIMBUS", "ONYX", "PIONEER",
        "QUARTZ", "RIDGELINE", "SABLE", "TUNDRA", "UMBER", "VERTEX", "WILLOW", "XENON",
        "YARROW", "ZEPHYR", "AMBERLY", "BOREAL", "CINDER", "DUSKFIELD", "EMBERLY",
        "FALLOWS", "GREYSTONE", "HOLLOWAY", "IRONWOOD", "JETTISON", "KILNWORTH",
    ]
    seconds = ["MINING", "SHIPPING", "FOUNDRY", "LOGISTICS", "PACKAGING", "FREIGHT"]
    others = [f"{first} {seconds[i % len(seconds)]} CORP" for i, first in enumerate(firsts)]
    return variants, others


def test_fixture_similarity_structure():
    """Exhaustive pairwise check that the constructed fixture is valid:
    the variants chain together at 0.6 while every other pair stays below."""
    variants, others = _spelling_variant_fixture()
    forms = [normalize_name(n) for n in variants]
    assert forms[0] == forms[1]  # suffix-only variation
    assert token_jaccard(forms[0], forms[2]) >= 0.6
    other_forms = [normalize_name(n) for n in others]
    for i, fa in enumerate(other_forms):
        for fb in other_forms[i + 1 :]:
            assert token_jaccard(fa, fb) < 0.6, (fa, fb)
        for fv in forms:
            assert token_jaccard(fa, fv) < 0.6, (fa, fv)


def test_spelling_variants_collapse_to_38_entities():
    variants, others = _spelling_variant_fixture()
    names = variants + others
    assert len(names) == 40
    result = resolve(names, threshold=0.6)
    assert len(result.entities) == 38
    variant_ids = {result.alias_map[v] for v in variants}
    assert len(variant_ids) == 1


def test_resolve_deterministic_and_order_independent():
    variants, others = _spelling_variant_fixture()
    names = variants + others
    base = resolve(names, threshold=0.6)
    rng = random.Random(7)
    for _ in range(3):
        shuffled = list(names)
        rng.shuffle(shuffled)
        again = resolve(shuffled, threshold=0.6)
        assert again.alias_map == base.alias_map
        assert {cid: e.display_name for cid, e in again.entities.items()} == {
            cid: e.display_name for cid, e in base.entities.items()
        }


def test_resolve_idempotent_on_display_names():
    variants, others = _spelling_variant_fixture()
    first = resolve(variants + others, threshold=0.6)
    display_names = sorted(e.display_name for e in first.entities.values())
    second = resolve(display_names, threshold=0.6)
    assert len(second.entities) == len(first.entities)


def test_display_name_most_frequent_then_lexicographic():
    result = resolve(["ACME CO", "ACME CO", "ACME CO.", "ACME"], threshold=0.9)
    (entity,) = result.entities.values()
    assert entity.display_name == "ACME CO"
    tie = resolve(["ACME LTD", "ACME INC"], threshold=0.9)
    (entity,) = tie.entities.values()
    assert entity.display_name == "ACME INC"


def test_merge_partition_matches_pairwise_similarity():
    """The partition must be exactly the transitive closure of the pairwise
    similarity relation: similar pairs share an entity, and clusters that
    stayed apart contain no cross-pair at or above the threshold."""
    rng = random.Random(42)
    vocab = ["IRON", "COPPER", "TIN", "ZINC", "GOLD", "TRADING", "MINING", "GROUP", "WORKS"]
    for _ in range(25):
        names = [
            " ".join(rng.sample(vocab, rng.randint(1, 3)))
            for _ in range(rng.randint(2, 12))
        ]
        threshold = rng.choice([0.4, 0.6, 0.8])
        result = resolve(names, threshold=threshold)
        forms = {raw: normalize_name(raw) for raw in names}
        for a in names:
            for b in names:
                sim = token_jaccard(forms[a], forms[b])
                same = result.alias_map[a] == result.alias_map[b]
                if sim >= threshold:
                    assert same, (a, b, sim)
        # cross-cluster pairs must all be dissimilar
        clusters: dict[str, list[str]] = {}
        for raw in names:
            clusters.setdefault(result.alias_map[raw], []).append(raw)
        for cid_a, members_a in clusters.items():
            for cid_b, members_b in clusters.items():
                if cid_a >= cid_b:
                    continue
                for a in members_a:
                    for b in members_b:
                        assert token_jaccard(forms[a], forms[b]) < threshold


def test_threshold_one_with_distinct_token_sets():
    rng = random.Random(9)
    vocab = [f"TOKEN{i}" for i in range(30)]
    for _ in range(10):
        count = rng.randint(1, 10)
        picks = rng.sample(vocab, count)
        names = [f"{p} HOLDINGS" for p in picks]
        result = resolve(names, threshold=1.0)
        assert len(result.entities) == len(set(names))


def test_resolve_rejects_bad_threshold():
    with pytest.raises(ValueError):
        resolve(["A CO"], threshold=1.5)


def test_empty_names_yield_empty_result():
    result = resolve([], threshold=0.8)
    assert result.alias_map == {} and result.entities == {}


def test_source_counts():
    result = resolve(
        ["ACME LTD", "ACME INC", "OTHER CORP"],
        threshold=0.9,
        sources=["bol", "transcript", "bol"],
    )
    acme = result.entities[result.alias_map["ACME LTD"]]
    assert acme.source_count == {"bol": 1, "transcript": 1}


def test_manual_overrides_win():
    result = resolve(["Samsung", "SAMSUNG ELECTRONICS AMERICA INC"], threshold=0.8)
    assert result.alias_map["Samsung"] != result.alias_map["SAMSUNG ELECTRONICS AMERICA INC"]
    merged = apply_overrides(result, {"Samsung": "SAMSUNG ELECTRONICS AMERICA INC"})
    assert merged.alias_map["Samsung"] == merged.alias_map["SAMSUNG ELECTRONICS AMERICA INC"]
    assert len(merged.entities) == 1


def test_override_to_fresh_name_creates_entity():
    result = resolve(["ACME LTD"], threshold=0.8)
    patched = apply_overrides(result, {"ACME LTD": "Acme Holdings"})
    cid = patched.alias_map["ACME LTD"]
    assert patched.entities[cid].display_name == "Acme Holdings"
    assert patched.alias_map["Acme Holdings"] == cid


@pytest.mark.parametrize("target, counts", [
    ("SAMSUNG ELECTRONICS AMERICA INC", {"all": 3}),
    ("Samsung Group", {"all": 2}),
])
def test_override_moves_the_mentions_of_its_alias(target, counts):
    result = resolve(["Samsung", "Samsung", "SAMSUNG ELECTRONICS AMERICA INC"])
    patched = apply_overrides(result, {"Samsung": target})
    assert patched.entities[patched.alias_map["Samsung"]].source_count == counts


def _recount(names, sources, alias_map):
    counts = {}
    for raw, source in zip(names, sources or ["all"] * len(names)):
        entity = counts.setdefault(alias_map[raw], Counter())
        entity[source] += 1
    return counts


@settings(max_examples=200, deadline=None)
@given(
    names=st.lists(st.sampled_from(["Acme Ltd", "ACME", "Acme Steel", "Beta Co", "Beta",
                                    "Gamma Group"]), min_size=1, max_size=12),
    with_sources=st.booleans(),
    data=st.data(),
)
def test_source_counts_recount_the_names_after_overrides(names, with_sources, data):
    sources = None
    if with_sources:
        sources = data.draw(st.lists(st.sampled_from(["bol", "transcript"]),
                                     min_size=len(names), max_size=len(names)))
    raws = st.sampled_from(sorted(set(names)) + ["Unseen Inc"])
    targets = st.sampled_from(sorted(set(names)) + ["Acme Holdings", "Delta", "ACME LTD"])
    overrides = data.draw(st.dictionaries(raws, targets, max_size=4))
    result = apply_overrides(resolve(names, threshold=0.5, sources=sources), overrides)
    recount = _recount(names, sources, result.alias_map)
    for cid, entity in result.entities.items():
        assert entity.source_count == dict(recount.get(cid, {}))


def test_alias_map_order_independent_of_hash_seed():
    # One cluster of many spellings: set iteration order would differ by seed.
    names = ["Apex Steelworks", "APEX STEELWORKS LLC", "apex steelworks, llc",
             "Apex Steelworks Inc", "APEX STEELWORKS CO", "Apex  Steelworks Ltd",
             "APEX STEELWORKS CORP", "Other Firm"]
    script = (
        "import json, sys; from elia.resolution import resolve; "
        "print(json.dumps(list(resolve(json.loads(sys.argv[1])).alias_map.items())))"
    )
    orders = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(elia.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script, json.dumps(names)], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        orders.append(json.loads(done.stdout))
    assert orders[0] == orders[1]


def _entity_rows(result):
    return [
        (cid, e.canonical_id, e.display_name, sorted(e.aliases), e.source_count)
        for cid, e in result.entities.items()
    ]


# Few words, so names share most of their tokens; SHARED sits in many names,
# "!!!" normalizes to "" and a bare suffix such as "LLC" is kept as its form.
_WORDS = ["SHARED", "IRON", "TIN", "ZINC", "GOLD", "TRADING", "GROUP", "A", "B", "LLC", "CO"]
_name = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(" ".join),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(
        lambda words: "shared, " + "-".join(words).lower() + " Ltd."
    ),
    st.sampled_from(["!!!", "LLC", "CO LTD", "Co., Ltd.", "?", "A"]),
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(_name, min_size=1, max_size=25),
    threshold=st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 0.8, 1.0]),
    with_sources=st.booleans(),
    data=st.data(),
)
def test_resolve_matches_brute_force_oracle(names, threshold, with_sources, data):
    sources = None
    if with_sources:
        sources = data.draw(st.lists(st.sampled_from(["bol", "transcript"]),
                                     min_size=len(names), max_size=len(names)))
    got = resolve(names, threshold=threshold, sources=sources)
    want = oracle_resolve(names, threshold=threshold, sources=sources)
    assert list(got.alias_map.items()) == list(want.alias_map.items())
    assert _entity_rows(got) == _entity_rows(want)


def test_prefix_bound_survives_float_rounding():
    # 0.28 * 25 rounds up to 7.000000000000001, but 7 / 25 reaches 0.28. The
    # 18 rare tokens fill the long name's first 18 places, so an unadjusted
    # prefix of 25 - 8 + 1 = 18 would miss the 7 tokens it shares.
    rare = [f"R{i:02d}" for i in range(18)]
    shared = [f"S{i}" for i in range(7)]
    names = [" ".join(rare + shared), " ".join(shared)]
    assert token_jaccard(normalize_name(names[0]), normalize_name(names[1])) >= 0.28
    result = resolve(names, threshold=0.28)
    assert len(result.entities) == 1
    assert list(result.alias_map.items()) == list(oracle_resolve(names, 0.28).alias_map.items())


def test_verified_pairs_grow_linearly_with_disjoint_vocabularies(monkeypatch):
    calls = []

    def counting_jaccard(a, b):
        calls.append((a, b))
        return token_jaccard(a, b)

    monkeypatch.setattr(resolution_module, "token_jaccard", counting_jaccard)
    firms = 700
    names = []
    for i in range(firms):
        names += [f"FIRM{i} ALPHA{i} WORKS{i}", f"Firm{i} Alpha{i} Works{i} Ltd", f"FIRM{i} ALPHA{i}"]
    result = resolve(names, threshold=0.6)
    assert len(result.entities) == firms
    # Each firm has two forms, so one candidate pair per firm; the all-pairs
    # scan verified 1400 * 1399 / 2 = 979,300.
    assert len(calls) == firms
