"""Canonicalize company names across data sources.

Names are normalized (case, punctuation, corporate suffixes), then merged
with a union-find closure over token-set Jaccard similarity. Everything is
deterministic and order-independent so re-resolving a dataset always yields
the same canonical ids.

The similar pairs come from an exact all-pairs similarity join (Chaudhuri
et al. 2006; Bayardo, Ma & Srikant 2007) instead of comparing every pair of
forms. Each form's tokens are ordered rarest first (ascending count over
the distinct forms, then the token itself). Two forms x and y with Jaccard
>= t share at least ``ceil(t * max(|x|, |y|))`` tokens, so they share a
token among the first ``|x| - ceil(t * |x|) + 1`` of x and the first
``|y| - ceil(t * |y|) + 1`` of y: only these prefixes are indexed and
probed (prefix filter). A candidate whose size ratio is below t cannot
reach t and is skipped (length filter). Every remaining candidate is
verified with ``token_jaccard``, so the merges are exactly the pairwise
ones. Aliases are then gathered in one pass over the raw names, grouped by
normalized form.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from itertools import repeat

from .core import read_ndjson, sha256
from .errors import SchemaError

CORPORATE_SUFFIXES = frozenset(
    {"LTD", "INC", "LLC", "CO", "CORP", "JSC", "PLC", "GMBH", "SA", "AG", "BV", "NV", "SRL"}
)

_NON_ALNUM = re.compile(r"[^A-Z0-9]+")


@dataclass
class CanonicalEntity:
    canonical_id: str
    display_name: str
    aliases: set[str] = field(default_factory=set)
    source_count: dict[str, int] = field(default_factory=dict)


@dataclass
class ResolutionResult:
    alias_map: dict[str, str]
    entities: dict[str, CanonicalEntity]
    # per raw name, its mentions by source; an entity's source_count sums its aliases'
    name_counts: dict[str, dict[str, int]] = field(default_factory=dict)


def normalize_name(raw: str) -> str:
    """Normalized comparison form: upper-case, no punctuation, no suffixes.

    Trailing corporate-suffix tokens are dropped repeatedly (handles
    "CO LTD"). Never returns empty: if stripping suffixes would consume the
    whole name, the suffix stripping is skipped.
    """
    if not raw or not raw.strip():
        raise ValueError("name must be non-empty")
    upper = raw.upper()
    upper = _NON_ALNUM.sub(" ", upper).strip()
    tokens = upper.split()
    trimmed = list(tokens)
    while trimmed and trimmed[-1] in CORPORATE_SUFFIXES:
        trimmed.pop()
    if not trimmed:
        trimmed = tokens
    return " ".join(trimmed)


def token_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of the token sets of two normalized names."""
    sa, sb = set(a.split()), set(b.split())
    if not sa and not sb:
        return 1.0
    union = sa | sb
    return len(sa & sb) / len(union)


class _UnionFind:
    """Union-find whose root is always the smallest item of its set."""

    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic root: lexicographically smallest wins
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def display_name(raws: Collection[str], counts: Mapping[str, int]) -> str:
    """The name an entity shows: the most frequent of ``raws`` by ``counts``.

    Ties go to the smallest normalized form, then to the smallest raw name;
    only tied names are normalized.
    """
    top = max(counts[raw] for raw in raws)
    tied = [raw for raw in raws if counts[raw] == top]
    if len(tied) == 1:
        return tied[0]
    return min(tied, key=lambda raw: (normalize_name(raw), raw))


def canonical_id_for(normalized_form: str) -> str:
    return "c" + sha256(normalized_form.encode("utf-8")).hexdigest()[:12]


def resolve(
    names: list[str],
    threshold: float = 0.8,
    sources: list[str] | None = None,
) -> ResolutionResult:
    """Group raw names into canonical entities.

    Names with equal normalized forms always share an entity; distinct
    normalized forms merge when their token-set Jaccard similarity reaches
    ``threshold`` (transitively, via union-find). The display name follows
    ``display_name``. The canonical id hashes the cluster's smallest
    normalized form, so it does not depend on input order. ``sources``, when
    given, names each name's source for ``source_count``; otherwise every
    mention counts under "all".
    """
    if not names:
        return ResolutionResult(alias_map={}, entities={})
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    if sources is not None and len(sources) != len(names):
        raise ValueError("sources, when given, must align with names")

    name_counts: dict[str, dict[str, int]] = {}
    raw_counts: dict[str, int] = {}
    mentions = Counter(zip(names, repeat("all") if sources is None else sources))
    for (raw, source), count in mentions.items():
        name_counts.setdefault(raw, {})[source] = count
        raw_counts[raw] = raw_counts.get(raw, 0) + count
    raws_of: dict[str, list[str]] = {}
    for raw in raw_counts:
        raws_of.setdefault(normalize_name(raw), []).append(raw)
    forms = sorted(raws_of)

    uf = _UnionFind(forms)
    _merge_similar(forms, threshold, uf)

    # Forms are visited in sorted order, so each cluster is keyed by its
    # root, its smallest form, and clusters come in order of that form.
    clusters: dict[str, list[str]] = {}
    for form in forms:
        clusters.setdefault(uf.find(form), []).extend(raws_of[form])

    alias_map: dict[str, str] = {}
    entities: dict[str, CanonicalEntity] = {}
    for root, raws in clusters.items():
        cid = canonical_id_for(root)
        display = display_name(raws, raw_counts)
        for raw in sorted(raws):
            alias_map[raw] = cid
        entities[cid] = CanonicalEntity(canonical_id=cid, display_name=display, aliases=set(raws))

    for raw, counts in name_counts.items():
        _add_counts(entities[alias_map[raw]].source_count, counts, 1)

    return ResolutionResult(alias_map=alias_map, entities=entities, name_counts=name_counts)


def _add_counts(total: dict[str, int], counts: dict[str, int], sign: int) -> None:
    """Add (sign 1) or remove (sign -1) ``counts`` from ``total``; drop sources at 0."""
    for source, count in counts.items():
        left = total.get(source, 0) + sign * count
        if left:
            total[source] = left
        else:
            total.pop(source, None)


def _merge_similar(forms: list[str], threshold: float, uf: _UnionFind) -> None:
    """Union every two forms whose token Jaccard reaches ``threshold``.

    A prefix-filtered similarity join (see the module docstring). Forms are
    probed in order of token count, so every indexed candidate is no larger
    than the probe. The prefix bound subtracts 1e-9 before ``ceil`` so that
    float rounding (0.28 * 25 is 7.000000000000001, yet 7 / 25 reaches
    0.28) can only lengthen a prefix. Above 0 the empty form has no tokens
    and pairs with nothing; at 0 every two forms merge, as any two reach
    Jaccard >= 0.
    """
    if threshold == 0.0:
        for form in forms[1:]:
            uf.union(forms[0], form)
        return
    token_sets = [set(form.split()) for form in forms]
    counts = Counter(tok for toks in token_sets for tok in toks)
    ordered = [sorted(toks, key=lambda tok: (counts[tok], tok)) for toks in token_sets]
    index: dict[str, list[int]] = {}
    for i in sorted(range(len(forms)), key=lambda i: len(ordered[i])):
        toks = ordered[i]
        size = len(toks)
        prefix = toks[: size - math.ceil(threshold * size - 1e-9) + 1]
        candidates = {j for tok in prefix for j in index.get(tok, ())}
        for j in candidates:
            if len(ordered[j]) / size < threshold:
                continue
            if token_jaccard(forms[i], forms[j]) >= threshold:
                uf.union(forms[i], forms[j])
        for tok in prefix:
            index.setdefault(tok, []).append(i)


def apply_overrides(result: ResolutionResult, overrides: dict[str, str]) -> ResolutionResult:
    """Apply manual raw -> canonical-name overrides; they win over merges.

    The override target may be any known raw alias (the raw name joins that
    alias's entity) or a brand-new name (a fresh entity is created). The raw
    name's mention counts move with it, so every ``source_count`` still sums
    the mentions of the entity's aliases.
    """
    for raw, target in overrides.items():
        if target in result.alias_map:
            cid = result.alias_map[target]
        else:
            cid = canonical_id_for(normalize_name(target))
            if cid not in result.entities:
                result.entities[cid] = CanonicalEntity(
                    canonical_id=cid, display_name=target, aliases={target}
                )
                result.alias_map[target] = cid
        old_cid = result.alias_map.get(raw)
        if old_cid == cid:
            continue
        counts = result.name_counts.get(raw, {})
        if old_cid is not None and old_cid in result.entities:
            old = result.entities[old_cid]
            old.aliases.discard(raw)
            _add_counts(old.source_count, counts, -1)
            if not old.aliases:
                del result.entities[old_cid]
        result.alias_map[raw] = cid
        result.entities[cid].aliases.add(raw)
        _add_counts(result.entities[cid].source_count, counts, 1)
    return result


def load_overrides(path: str) -> dict[str, str]:
    """Read a manual override file: ndjson rows {"raw": ..., "canonical": ...}, neither blank."""
    overrides = {}
    required = {"raw": str, "canonical": str}
    for lineno, row in read_ndjson(path, SchemaError, "override row", required):
        for key in required:
            if not row[key].strip():
                raise SchemaError(f"{path}:{lineno}: malformed override row: {key!r} is blank")
        overrides[row["raw"]] = row["canonical"]
    return overrides
