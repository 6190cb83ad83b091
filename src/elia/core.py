"""Domain types shared by every stage of the pipeline.

All types are plain dataclasses: they validate their invariants on
construction, compare by value, and serialize to flat dicts so the
newline-delimited store files stay diffable. The row types a store or
graph holds by the thousand are slotted, so each instance carries no
``__dict__``.

SHA-256 comes from the interpreter's builtin ``_sha2`` (CPython 3.12+) or
``_sha256`` (3.10, 3.11) module. ``hashlib`` would load OpenSSL, about
3.7 MiB of resident memory in every CLI process, to hash ids of about 100
bytes; it is the fallback for an interpreter built without either module.

Amounts follow one rule, ``check_amount``: finite and ``>= 0`` (a bare
``x < 0`` passes NaN). ``ShipmentRecord``, ``EmissionFactor``, ``graph.Node``,
``graph.FactorSampler``'s ``std`` apply it on construction, and
``graph.SupplyGraph.add_edge`` to an edge's mass and its liability, which
overflows to ``inf`` from two large amounts.

Store rows leave out what ``from_dict`` restores: a party's ``role_hint``
equal to its slot (``shipper``, ``consignee``, ``buyer``, ``supplier``), and a
record's ``shipper_address``, ``consignee_address`` or ``arrival_date`` that is
``None``. Rows that carry them, as older stores do, load unchanged. An older
elia reads an omitted ``role_hint`` as ``"unknown"``, which nothing here reads.

Input files are read here: ``read_text`` (transcripts; ``read_lines`` splits
gazetteer and config files, ``#`` starting a comment), ``read_json`` and
``read_ndjson``. Each names the first line that is not UTF-8 (``utf8_error``).
Both JSON readers call the scanner ``json.loads`` runs on one value at a
time: ``read_json`` can hand a caller the elements of a top-level array, or
the members of a top-level object, one by one (``stream``), reading the file
through a sliding window of about 64 KiB (``_Window``) instead of as one
string, and ``read_ndjson`` skips ``json.loads``'s whitespace handling for a
line that holds one value and its newline. Any other text goes through
``json.loads``, so results and messages are ``json``'s; an integer literal
too long for ``int``, a plain ``ValueError`` in ``json``, is malformed input
like any other.
"""

from __future__ import annotations

import codecs
import contextlib
import gc
import json
import math
import os
from dataclasses import dataclass, field
from datetime import date
from json.decoder import WHITESPACE, JSONDecodeError, scanstring
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

ROLES = ("shipper", "consignee", "buyer", "supplier", "unknown")

FACTOR_PROVENANCES = ("sampled", "table", "manual")


def content_hash(*parts: object, prefix: str = "", length: int = 16) -> str:
    """Deterministic id from the given parts (stable across re-ingestion).

    The hashed payload is ``json.dumps([str(p) for p in parts],
    separators=(",", ":"))``, built here without a per-call encoder.
    """
    payload = "[" + ",".join([encode_basestring_ascii(str(p)) for p in parts]) + "]"
    return prefix + sha256(payload.encode("utf-8")).hexdigest()[:length]


def _exact_int(name: str, value: int) -> int:
    """``value`` if it is an ``int`` and not a ``bool``; ``int()`` would turn 2.7 into 2."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return value


def check_amount(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_number(value: float) -> str:
    """A number as ``json`` writes it: ``repr``, with ``NaN`` and ``Infinity``."""
    text = repr(value)
    return _JSON_NONFINITE.get(text, text)


@contextlib.contextmanager
def no_gc():
    """Keep the cyclic garbage collector off for the body of the block.

    Bulk loaders build many thousands of objects that form no reference
    cycles, and each allocation burst would otherwise trigger collections
    that walk everything decoded so far. The collector's state on entry is
    restored on exit, also on an exception, so nested blocks and callers
    that already disabled it keep their setting. Use it as ``with no_gc():``
    or as a decorator, ``@no_gc()``.

    The loaders carry it for library callers. The CLI also runs every
    offline command under it: a command builds its objects once and exits,
    so collections during the command would only walk a freshly built graph
    or store to free a few argparse objects. ``extract`` is the exception:
    its live backend makes any number of HTTP requests whose garbage no
    offline run can bound, so it keeps the collector on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def replace_file(path: str, chunks, errors: str | None = None,
                 newline: str | None = None) -> None:
    """Write the strings ``chunks`` to ``path + ".tmp"``, then move it over ``path``.

    The file is opened as UTF-8 text with the given ``errors`` and
    ``newline`` (as for ``open``). On any error the temporary file is
    removed and ``path`` is untouched, so a killed or failing writer never
    leaves a short file. There is no fsync: this guards against a crash of
    the process, not of the machine. A symlink at ``path`` is followed, so
    the link stays and the file it names is replaced. A target that exists
    but is not a regular file (a pipe or device, such as ``/dev/stdout``)
    cannot be replaced and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", errors=errors, newline=newline) as fh:
            fh.writelines(chunks)
        return
    path = os.path.realpath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", errors=errors, newline=newline) as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def is_placeholder(text: str | None) -> bool:
    """True for angle-bracket placeholder values like ``<Your company>``."""
    if not text:
        return False
    stripped = text.strip()
    return stripped.startswith("<") and stripped.endswith(">") and len(stripped) > 2


def utf8_error(path: str, error: type[Exception]) -> Exception:
    """``error`` naming ``path`` and its first line that is not UTF-8.

    For a reader that has just failed to decode ``path``: the file is read
    again only here, so valid files cost nothing extra. ``bytes.splitlines``
    ends lines where text mode does, so line numbers agree with the reader's.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return error(f"{path}:{lineno}: not UTF-8: {exc}")
    return error(f"{path}: not UTF-8")


def read_text(path: str, error: type[Exception]) -> str:
    """The text of ``path``, the one reader of plain-text inputs; not UTF-8 raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise utf8_error(path, error) from exc


def read_lines(path: str, error: type[Exception]):
    """Yield ``(lineno, stripped text)`` per non-blank line of ``path``; ``#`` starts a comment."""
    for lineno, line in enumerate(read_text(path, error).split("\n"), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def read_json(path: str, error: type[Exception], what: str, stream=None,
              objects: bool = False) -> dict:
    """The JSON object in ``path``, the one reader of whole-file JSON documents.

    A file that is not UTF-8 raises ``error`` naming ``path:lineno``, and so
    does text that is not JSON; a top level that is not an object, or an
    integer too long for ``int`` (``json``'s plain ``ValueError``), raises
    ``error`` naming ``path``.

    ``stream(doc, key)``, when given, is asked before each top-level member
    whose value is an array, with the members read before it. It returns
    None, and the value is decoded whole, or ``(each, value)``: each element
    is then decoded on its own, passed to ``each(i, element)`` and dropped,
    and ``doc[key]`` becomes ``value``. With ``objects``, ``stream`` is
    asked about members whose value is an object instead, and each of that
    object's members goes to ``each(name, value)``, a repeated name again:
    ``json`` keeps its last value, in its first place, as a dict assignment
    does. With ``stream`` the file is read
    through a sliding window (``_Window``), so its whole text is never held.
    The document is decoded whole instead, as if there were no ``stream``,
    when the file is not one well-formed UTF-8 object with distinct keys, or
    when ``stream`` or ``each`` raises ``error``; the caller's own checks
    then give the result, or the error, that they give without streaming.
    """
    if stream is not None:
        try:
            with open(path, "rb") as fh:
                return _read_members(_Window(fh), stream, "{" if objects else "[")
        except (StopIteration, IndexError, ValueError, error):
            pass
    text = read_text(path, error)
    try:
        doc = json.loads(text)
    except JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: malformed {what}: {exc.msg}") from exc
    except ValueError as exc:
        raise error(f"{path}: malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: malformed {what}: not a JSON object")
    return doc


# The scanner json.loads runs, called here on one value at a time. It raises
# StopIteration where no value starts, and so do the walks below wherever
# json.loads must decide: a syntax error, a repeated key or extra data.
_scan_json = make_scanner(json.JSONDecoder())
_skip_space = WHITESPACE.match
_JSON_SPACE = " \t\n\r"

# Bytes read_json's streaming path reads at a time: its window, in characters
# for ASCII text. Decoding a window holds it about three times over (bytes,
# decoded text and the joined window), so it is kept small.
_WINDOW = 1 << 16


class _Window:
    """A sliding window over a file's text, for ``read_json``'s ``stream``.

    The file is opened in binary and decoded as UTF-8 a window at a time; a
    text-mode handle would keep the last chunk it read, raw and decoded,
    beside the window. Newlines are not translated, as text mode would:
    JSON reads ``\\r`` as whitespace, and inside a string either form of a
    line break is an error, which the fallback to ``json.loads`` reports.

    ``text`` holds the part being scanned. A scan that fails, or runs into
    its end, before end of file is retried from where it started once
    ``refill`` has read on (``run``), so a value or separator that the
    window's edge cuts reads as it would whole. Only at end of file is a
    failure the text's own.
    """

    def __init__(self, fh):
        self.fh = fh
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.size = _WINDOW
        self.text = ""
        self.refill(0)

    def refill(self, start: int) -> int:
        """Drop the text before ``start``, read on, and return ``start``'s new index, 0.

        A value that still fails from the window's start doubles the
        window, so rescanning a value longer than it stays linear; the next
        slide reads ``_WINDOW`` again. ``limit`` is the index past which a
        caller slides the window before its next value: an eighth of the
        window short of its end, or the end at end of file. The caller
        drops its own reference to ``text`` first, so that the old window is
        freed before the new one is read.
        """
        self.size = self.size * 2 if start == 0 and self.text else _WINDOW
        rest, self.text = self.text[start:], ""
        data = self.fh.read(self.size)
        self.eof = len(data) < self.size
        more = self.decode(data, self.eof)
        del data
        self.text = rest + more
        self.limit = len(self.text) - (0 if self.eof else self.size // 8)
        return 0

    def run(self, step, idx: int):
        """``step(text, idx)``, retried from ``idx`` after ``refill`` while it fails before EOF."""
        while True:
            try:
                return step(self.text, idx)
            except (StopIteration, IndexError, JSONDecodeError):
                if self.eof:
                    raise
                idx = self.refill(idx)


def _next(text: str, idx: int) -> int:
    """The index of the first character at or after ``idx`` that is not JSON whitespace."""
    idx = _skip_space(text, idx).end()
    text[idx]  # IndexError at the window's end: there is no such character yet
    return idx


def _open_object(text: str, idx: int) -> int:
    idx = _next(text, idx)
    if text[idx] != "{":
        raise StopIteration(idx)
    return _next(text, idx + 1)


def _member_key(text: str, idx: int):
    """The key at ``text[idx]`` and the index of its value."""
    if text[idx] != '"':
        raise StopIteration(idx)
    key, idx = scanstring(text, idx + 1)
    idx = _next(text, idx)
    if text[idx] != ":":
        raise StopIteration(idx)
    return key, _next(text, idx + 1)


def _member_end(text: str, idx: int) -> int:
    """The index of the ``,`` or ``}`` that ends a member at ``idx``, after whitespace.

    Any other character fails the step, also where the window's edge cut a
    number short (``1.`` of ``1.5``), so that it is scanned again whole.
    """
    idx = _next(text, idx)
    if text[idx] != "," and text[idx] != "}":
        raise StopIteration(idx)
    return idx


def _member_value(text: str, idx: int):
    """The value at ``text[idx]`` and the index of the ``,`` or ``}`` after it."""
    value, idx = _scan_json(text, idx)
    return value, _member_end(text, idx)


def _read_members(win: _Window, stream, opener: str) -> dict:
    """The object in ``win``'s file, read one top-level member at a time (``read_json``).

    ``stream`` is asked about each member whose value starts with ``opener``.
    """
    idx = win.run(_open_object, 0)
    doc = {}
    if win.text[idx] != "}":
        while True:
            key, idx = win.run(_member_key, idx)
            if key in doc:
                raise StopIteration(idx)
            streamed = stream(doc, key) if win.text[idx] == opener else None
            if streamed is None:
                doc[key], idx = win.run(_member_value, idx)
            else:
                each, doc[key] = streamed
                idx = _stream_values(win, idx, each)
            if win.text[idx] == "}":
                break
            idx = win.run(_next, idx + 1)
    idx += 1
    while _skip_space(win.text, idx).end() == len(win.text) and not win.eof:
        idx = win.refill(len(win.text))
    if _skip_space(win.text, idx).end() != len(win.text):
        raise StopIteration(idx)
    return doc


def _stream_values(win: _Window, idx: int, each) -> int:
    """Pass each element of the array at ``win.text[idx]`` to ``each(i, element)``.

    An object's members go to ``each(name, value)`` instead. Returns the
    index of the ``,`` or ``}`` after the array or object. Only the element
    being built is held. Separators are stepped over with character tests,
    which cost less per element than a regex match. The window slides once
    an element ends past its ``limit``; an element (or the separator after
    it) that the window's end cuts is scanned again from its start after
    ``refill``.
    """
    members = win.text[idx] == "{"
    scan, space, close = _scan_json, _JSON_SPACE, "}" if members else "]"
    idx = win.run(_next, idx + 1)
    if win.text[idx] == close:
        return win.run(_member_end, idx + 1)
    text, limit, i = win.text, win.limit, 0
    while True:
        start = idx
        try:
            if members:  # the name, and the ":" after it
                if text[idx] != '"':
                    raise StopIteration(idx)
                name, idx = scanstring(text, idx + 1)
                while text[idx] in space:
                    idx += 1
                if text[idx] != ":":
                    raise StopIteration(idx)
                idx += 1
                while text[idx] in space:
                    idx += 1
            element, idx = scan(text, idx)
            while text[idx] in space:
                idx += 1
            if text[idx] == ",":
                idx += 1
                while text[idx] in space:
                    idx += 1
            elif text[idx] == close:
                limit = -1  # the last element: no test on the common path
            else:
                raise StopIteration(idx)
        except (StopIteration, IndexError, JSONDecodeError):
            if win.eof:
                raise
            idx = start
        else:
            each(name if members else i, element)
            i += 1
            if idx <= limit:
                continue
            if limit < 0:
                return win.run(_member_end, idx + 1)
        text = None  # so that refill frees the old window before reading the next
        idx = win.refill(idx)
        text, limit = win.text, win.limit


def read_ndjson(path: str, error: type[Exception], what: str = "row",
                required: dict[str, type] | None = None):
    """Yield ``(lineno, row)`` for each non-blank line of an ndjson file.

    Every line-delimited input goes through here. A line that is not UTF-8
    or not JSON (an integer too long for ``int`` included), a row that is
    not an object, or a row without a field of ``required`` (field name ->
    type) raises ``error`` naming ``path:lineno``, so the caller picks the
    exit code.

    A line is decoded by the json scanner alone when it holds one value
    from its first character to its newline; any other line (leading or
    trailing space, a syntax error) goes through ``json.loads``, whose
    result or message it keeps.
    """
    scan = _scan_json
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row, end = scan(line, 0)
                except (StopIteration, ValueError):
                    end = 0
                if end != len(line) and line[end:] != "\n":
                    try:
                        row = json.loads(line)
                    except ValueError as exc:  # also an integer too long for int
                        raise error(f"{path}:{lineno}: malformed {what}: {exc}") from exc
                if not isinstance(row, dict):
                    raise error(f"{path}:{lineno}: malformed {what}: not a JSON object")
                for key, kind in (required or {}).items():
                    if key not in row:
                        raise error(f"{path}:{lineno}: missing field {key!r}")
                    if not isinstance(row[key], kind):
                        raise error(
                            f"{path}:{lineno}: malformed {what}: {key!r} is not {kind.__name__}"
                        )
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise utf8_error(path, error) from exc


@dataclass(slots=True)
class CompanyRef:
    """A company name as it appeared in a source; the store's alias map resolves it."""

    raw_name: str
    role_hint: str = "unknown"

    def __post_init__(self):
        if not isinstance(self.raw_name, str):
            raise TypeError(f"CompanyRef.raw_name must be a string, "
                            f"got {type(self.raw_name).__name__}")
        if not self.raw_name.strip():
            raise ValueError("CompanyRef.raw_name must be non-empty")
        self.raw_name = self.raw_name.strip()
        if self.role_hint not in ROLES:
            raise ValueError(f"unknown role_hint: {self.role_hint!r}")

    @property
    def placeholder(self) -> bool:
        return is_placeholder(self.raw_name)

    def to_dict(self, slot: str) -> dict:
        """The party in row slot ``slot``, leaving out a ``role_hint`` equal to ``slot``."""
        if self.role_hint == slot:
            return {"raw_name": self.raw_name}
        return {"raw_name": self.raw_name, "role_hint": self.role_hint}

    @classmethod
    def from_dict(cls, d: dict, slot: str) -> "CompanyRef":
        return cls(raw_name=d["raw_name"], role_hint=d.get("role_hint", slot))


@dataclass(slots=True)
class ShipmentRecord:
    """One bill-of-lading row.

    ``weight_kg`` is stored in kilograms exactly as given; the sample data's
    weight column carries no unit, kilograms is the documented assumption.
    ``quantity`` is a verbatim package/piece count with no unit semantics.
    """

    shipper: CompanyRef
    consignee: CompanyRef
    product_desc: str
    quantity: int
    weight_kg: float
    shipper_address: str | None = None
    consignee_address: str | None = None
    arrival_date: date | None = None
    record_id: str = ""

    def __post_init__(self):
        if not isinstance(self.product_desc, str) or not self.product_desc.strip():
            raise ValueError(f"product_desc must be a non-empty string, got {self.product_desc!r}")
        check_amount("quantity", self.quantity)
        check_amount("weight_kg", self.weight_kg)
        if not self.record_id:
            self.record_id = content_hash(
                self.shipper.raw_name,
                self.shipper_address or "",
                self.consignee.raw_name,
                self.consignee_address or "",
                self.arrival_date.isoformat() if self.arrival_date else "",
                self.product_desc,
                self.quantity,
                repr(self.weight_kg),
                prefix="r",
            )

    def to_dict(self) -> dict:
        """The row, without an address or ``arrival_date`` that is ``None``."""
        row = {"record_id": self.record_id, "shipper": self.shipper.to_dict("shipper")}
        if self.shipper_address is not None:
            row["shipper_address"] = self.shipper_address
        row["consignee"] = self.consignee.to_dict("consignee")
        if self.consignee_address is not None:
            row["consignee_address"] = self.consignee_address
        if self.arrival_date is not None:
            row["arrival_date"] = self.arrival_date.isoformat()
        row["product_desc"] = self.product_desc
        row["quantity"] = self.quantity
        row["weight_kg"] = self.weight_kg
        return row

    @classmethod
    def from_dict(cls, d: dict) -> "ShipmentRecord":
        return cls(
            shipper=CompanyRef.from_dict(d["shipper"], "shipper"),
            consignee=CompanyRef.from_dict(d["consignee"], "consignee"),
            product_desc=d["product_desc"],
            quantity=_exact_int("quantity", d["quantity"]),
            weight_kg=float(d["weight_kg"]),
            shipper_address=d.get("shipper_address"),
            consignee_address=d.get("consignee_address"),
            arrival_date=date.fromisoformat(d["arrival_date"]) if d.get("arrival_date") else None,
            record_id=d.get("record_id", ""),
        )


@dataclass(slots=True)
class TransactionTriple:
    """An extracted (buyer, supplier, item) relation with provenance.

    At least one of buyer/supplier/item must be non-null. ``source_id``
    points back at the sentence or record the relation came from.
    """

    buyer: CompanyRef | None
    supplier: CompanyRef | None
    item: str | None
    source_id: str
    confidence: float = 1.0
    triple_id: str | None = None

    def __post_init__(self):
        if not isinstance(self.item, (str, type(None))):
            raise TypeError(f"item must be a string or null, got {type(self.item).__name__}")
        if self.buyer is None and self.supplier is None and self.item is None:
            raise ValueError("at least one of buyer/supplier/item must be non-null")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")

    @property
    def has_placeholders(self) -> bool:
        return any(
            ref is not None and ref.placeholder for ref in (self.buyer, self.supplier)
        ) or is_placeholder(self.item)

    def to_dict(self) -> dict:
        return {
            "triple_id": self.triple_id,
            "source_id": self.source_id,
            "buyer": self.buyer.to_dict("buyer") if self.buyer else None,
            "supplier": self.supplier.to_dict("supplier") if self.supplier else None,
            "item": self.item,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransactionTriple":
        return cls(
            buyer=CompanyRef.from_dict(d["buyer"], "buyer") if d.get("buyer") else None,
            supplier=CompanyRef.from_dict(d["supplier"], "supplier") if d.get("supplier") else None,
            item=d.get("item"),
            source_id=d["source_id"],
            confidence=float(d.get("confidence", 1.0)),
            triple_id=d.get("triple_id"),
        )


@dataclass(frozen=True, slots=True)
class EmissionFactor:
    """kg CO2-equivalent emitted per kg shipped, with provenance."""

    per_kg_co2e: float
    provenance: str = "manual"

    def __post_init__(self):
        check_amount("per_kg_co2e", self.per_kg_co2e)
        if self.provenance not in FACTOR_PROVENANCES:
            raise ValueError(f"unknown factor provenance: {self.provenance!r}")

    def to_dict(self) -> dict:
        return {"per_kg_co2e": self.per_kg_co2e, "provenance": self.provenance}

    @classmethod
    def from_dict(cls, d: dict) -> "EmissionFactor":
        return cls(per_kg_co2e=float(d["per_kg_co2e"]), provenance=d.get("provenance", "manual"))


@dataclass(frozen=True, slots=True)
class Mention:
    """A detected company-name span inside a sentence."""

    start: int
    end: int
    surface: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError("mention span must satisfy 0 <= start < end")


@dataclass(slots=True)
class Sentence:
    """One transcript sentence with detected company mentions."""

    transcript_id: str
    index: int
    text: str
    mentions: list[Mention] = field(default_factory=list)
    id: str = ""

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("sentence index must be >= 0")
        for name, value in (("transcript_id", self.transcript_id), ("text", self.text),
                            ("id", self.id)):
            if not isinstance(value, str):
                raise TypeError(f"Sentence.{name} must be a string, got {type(value).__name__}")
        if not self.id:
            self.id = content_hash(self.transcript_id, self.index, self.text, prefix="s")
        self._check_spans()

    def _check_spans(self):
        last_end = -1
        for m in self.mentions:
            if m.end > len(self.text):
                raise ValueError(f"mention span {m} exceeds text bounds")
            if m.start < last_end:
                raise ValueError("mention spans must be sorted and non-overlapping")
            if self.text[m.start : m.end] != m.surface:
                raise ValueError("mention surface does not match text span")
            last_end = m.end

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "transcript_id": self.transcript_id,
            "index": self.index,
            "text": self.text,
            "mentions": [[m.start, m.end, m.surface] for m in self.mentions],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Sentence":
        return cls(
            transcript_id=d["transcript_id"],
            index=int(d["index"]),
            text=d["text"],
            mentions=[Mention(int(s), int(e), t) for s, e, t in d.get("mentions", [])],
            id=d.get("id", ""),
        )
