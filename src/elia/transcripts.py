"""Load transcripts, segment into sentences, detect company mentions.

The mention detector is deterministic: a gazetteer of known names plus a
corporate-suffix heuristic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from .core import Mention, Sentence, read_lines, read_text
from .errors import InputError
from .resolution import CORPORATE_SUFFIXES
from .store import DatasetStore

# Tokens that end with a period without ending a sentence.
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
    "e.g", "i.e", "inc", "ltd", "co", "corp", "no", "u.s", "u.k", "approx",
}

_PUNCT_RUN = re.compile(r"[.!?]+")
_TOKEN = re.compile(r"\S+")
_SENT_OPENERS = "\"'“‘("


@dataclass(frozen=True)
class _LengthMatcher:
    """All gazetteer entries of one length, as one zero-width pattern.

    ``pattern`` matches, with zero width, at every start where some entry
    occurs as a whole word, so overlapping hits are all found. Each entry is
    its own capture group, and ``classes[g - 1]`` is the first group whose
    entry matches the same texts as group ``g``'s: under ``re.IGNORECASE``
    that relation is an equivalence.
    """

    length: int
    pattern: re.Pattern
    classes: tuple[int, ...]


def _compile_matchers(entries: frozenset[str]) -> tuple[_LengthMatcher, ...]:
    by_length: dict[int, list[str]] = {}
    for entry in sorted(entries):
        by_length.setdefault(len(entry), []).append(entry)
    matchers = []
    for length, group in sorted(by_length.items()):
        alternation = "|".join(f"({re.escape(entry)})" for entry in group)
        pattern = re.compile(rf"(?<!\w)(?=(?:{alternation})(?!\w))", re.IGNORECASE)
        # An entry's first matching group is the first entry of its class.
        classes = tuple(pattern.match(entry).lastindex for entry in group)
        matchers.append(_LengthMatcher(length, pattern, classes))
    return tuple(matchers)


@dataclass(frozen=True)
class Gazetteer:
    """Known company names plus corporate suffix tokens.

    The name matcher is compiled once, at construction, and ``entries`` is
    immutable, so the two cannot drift apart.
    """

    entries: frozenset[str] = frozenset()
    suffixes: ClassVar[frozenset[str]] = CORPORATE_SUFFIXES
    _matchers: tuple[_LengthMatcher, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = frozenset(e.strip() for e in self.entries if e and e.strip())
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_matchers", _compile_matchers(entries))


def read_gazetteer_names(path: str) -> set[str]:
    """Read a gazetteer file: one company name per line, # starts a comment."""
    return {name for _, name in read_lines(path, InputError)}


def gazetteer_from_store(store: DatasetStore, extra: tuple[str, ...] = ()) -> Gazetteer:
    """Seed a gazetteer from the store's shipment parties plus extra names."""
    entries = set(extra)
    for rec in store.records.values():
        entries.add(rec.shipper.raw_name)
        entries.add(rec.consignee.raw_name)
    return Gazetteer(entries=entries)


def _is_sentence_break(text: str, match: re.Match) -> bool:
    end = match.end()
    if end >= len(text) or not text[end].isspace():
        return False
    nxt = end
    while nxt < len(text) and text[nxt].isspace():
        nxt += 1
    if nxt >= len(text):
        return False
    lead = text[nxt]
    if not (lead.isupper() or lead.isdigit() or lead in _SENT_OPENERS):
        return False
    if match.group().endswith("."):
        start = match.start()
        word_start = start
        while word_start > 0 and not text[word_start - 1].isspace():
            word_start -= 1
        token = text[word_start:start]
        bare = token.lower().strip(".,;:()\"'")
        if bare in _ABBREVIATIONS:
            return False
        if len(bare) == 1 and bare.isalpha():
            return False
    return True


def segment(transcript_text: str, transcript_id: str) -> list[Sentence]:
    """Split a transcript into sentences with consecutive indices from 0.

    Splitting is loss-free modulo whitespace: joining the sentence texts
    with single spaces equals the whitespace-collapsed input. Decimal
    points, abbreviations and single initials do not end a sentence.
    """
    if not transcript_text or not transcript_text.strip():
        return []
    cuts = [
        m.end() for m in _PUNCT_RUN.finditer(transcript_text)
        if _is_sentence_break(transcript_text, m)
    ]
    pieces = []
    prev = 0
    for cut in cuts:
        pieces.append(transcript_text[prev:cut])
        prev = cut
    pieces.append(transcript_text[prev:])

    sentences = []
    for piece in pieces:
        stripped = piece.strip()
        if stripped:
            sentences.append(Sentence(transcript_id=transcript_id, index=len(sentences), text=stripped))
    return sentences


def _capitalized(token: str) -> bool:
    for ch in token:
        if ch.isalpha():
            return ch.isupper()
    return False


def _suffix_run_spans(text: str, suffixes: frozenset[str]) -> list[tuple[int, int]]:
    """Spans of maximal capitalized-token runs that end in a corporate suffix."""
    tokens = list(_TOKEN.finditer(text))
    spans = []
    for i, tok in enumerate(tokens):
        word = tok.group()
        core = re.sub(r"[\W_]+$", "", word)
        if not core or core.upper() not in suffixes or not _capitalized(word):
            continue
        run_start = i
        while run_start > 0 and _capitalized(tokens[run_start - 1].group()):
            run_start -= 1
        if run_start == i:
            continue  # a lone suffix token is not a company name
        start = tokens[run_start].start()
        end = tok.start() + len(core)
        spans.append((start, end))
    return spans


def _gazetteer_spans(text: str, gaz: Gazetteer) -> set[tuple[int, int]]:
    """Whole-word, case-insensitive occurrences of gazetteer entries.

    One entry's occurrences never overlap each other: after a hit, the same
    entry is looked for again only from the hit's end, as a per-entry
    ``finditer`` would. Entries of one class share that cursor.
    """
    spans = set()
    for matcher in gaz._matchers:
        resume_at: dict[int, int] = {}
        for m in matcher.pattern.finditer(text):
            start = m.start()
            cls = matcher.classes[m.lastindex - 1]
            if start >= resume_at.get(cls, 0):
                spans.add((start, start + matcher.length))
                resume_at[cls] = start + matcher.length
    return spans


def detect_mentions(sentence: Sentence, gaz: Gazetteer) -> Sentence:
    """Return a copy of the sentence with company mentions populated.

    A span is emitted when it case-insensitively matches a gazetteer entry,
    or when it is a maximal run of capitalized tokens ending in a corporate
    suffix. Overlaps are resolved longest-match-first; the result is sorted
    by start and non-overlapping.
    """
    text = sentence.text
    candidates = _gazetteer_spans(text, gaz)
    candidates.update(_suffix_run_spans(text, gaz.suffixes))

    chosen: list[tuple[int, int]] = []
    for start, end in sorted(candidates, key=lambda se: (se[0] - se[1], se[0])):
        if all(end <= s or start >= e for s, e in chosen):
            chosen.append((start, end))
    chosen.sort()

    mentions = [Mention(s, e, text[s:e]) for s, e in chosen]
    return Sentence(
        transcript_id=sentence.transcript_id,
        index=sentence.index,
        text=sentence.text,
        mentions=mentions,
        id=sentence.id,
    )


def prefilter(sentences: list[Sentence]) -> list[Sentence]:
    """Keep exactly the sentences with at least one mention, order preserved."""
    return [s for s in sentences if s.mentions]


def load_transcript(path: str) -> tuple[str, str]:
    """Read one transcript file; the filename stem is the transcript id."""
    return Path(path).stem, read_text(path, InputError)
