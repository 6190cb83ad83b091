from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import elia
from elia import core
from elia.core import check_amount, content_hash, no_gc, read_json, read_ndjson, replace_file
from elia.resolution import canonical_id_for


@pytest.fixture
def gc_state():
    """Give each test the collector on, and put back what it was afterwards."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if enabled else gc.disable)()


def test_no_gc_turns_collector_off_and_back_on(gc_state):
    with no_gc():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_no_gc_restores_collector_after_an_exception(gc_state):
    with pytest.raises(RuntimeError, match="load failed"):
        with no_gc():
            raise RuntimeError("load failed")
    assert gc.isenabled()


def test_no_gc_leaves_collector_off_when_it_was_off(gc_state):
    gc.disable()
    with no_gc():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_no_gc_restores_the_outer_state(gc_state):
    with no_gc():
        with no_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_no_gc_as_decorator_restores_collector_on_return_and_raise(gc_state):
    @no_gc()
    def load(fail):
        assert not gc.isenabled()
        if fail:
            raise ValueError("bad row")
        return "loaded"

    assert load(False) == "loaded"
    assert gc.isenabled()
    with pytest.raises(ValueError, match="bad row"):
        load(True)
    assert gc.isenabled()


def test_replace_file_writes_chunks_with_open_options(tmp_path):
    path = tmp_path / "out.txt"
    replace_file(str(path), ["a\n", "\ud800"], errors="xmlcharrefreplace", newline="\n")
    assert path.read_bytes() == b"a\n&#55296;"
    assert not list(tmp_path.glob("*.tmp"))


def test_replace_file_failing_partway_keeps_old_bytes_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old contents\n")
    written = []

    def chunks():
        for i in range(10_000):
            if i == 5_000:
                raise RuntimeError("disk on fire")
            written.append(i)
            yield f"line {i}\n"

    with pytest.raises(RuntimeError, match="disk on fire"):
        replace_file(str(path), chunks())
    assert len(written) == 5_000
    assert path.read_text() == "old contents\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_replace_file_follows_a_symlink_and_keeps_it(tmp_path):
    (tmp_path / "real.txt").write_text("old\n")
    link = tmp_path / "out.txt"
    link.symlink_to("real.txt")
    replace_file(str(link), ["new\n"])
    assert link.is_symlink()
    assert (tmp_path / "real.txt").read_text() == "new\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_replace_file_writes_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    replace_file(str(fifo), ["a", "b"])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"ab"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("value", [0, 0.0, -0.0, 5e-324, 1.5, 10**400])
def test_check_amount_accepts_finite_non_negative_numbers(value):
    check_amount("weight_kg", value)


@pytest.mark.parametrize("value, shown", [
    (-1, "-1"), (-5e-324, "-5e-324"), (float("nan"), "nan"), (float("inf"), "inf"),
    (float("-inf"), "-inf"),
])
def test_check_amount_rejects_negative_and_non_finite_numbers(value, shown):
    with pytest.raises(ValueError, match=f"^weight_kg must be >= 0 and finite, got {shown}$"):
        check_amount("weight_kg", value)


def _json_dumps_hash(*parts, prefix="", length=16):
    payload = json.dumps([str(p) for p in parts], separators=(",", ":"))
    return prefix + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:length]


_PART = st.one_of(
    st.text(),
    st.text(alphabet='"\\\x00\x1f\x7f\n\t/\u00e9\u2028\ud800\U0001f600'),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)


@given(st.lists(_PART, max_size=8), st.sampled_from(["", "r", "s"]), st.integers(1, 64))
def test_content_hash_matches_json_dumps_payload(parts, prefix, length):
    assert content_hash(*parts, prefix=prefix, length=length) == _json_dumps_hash(
        *parts, prefix=prefix, length=length
    )


def test_content_hash_of_record_shaped_parts():
    parts = ("Bodega \"Ñandú\" S.A.", "C:\\ports\\", "", "2021-03-04", "WINE\x01", 12, "3.5", None)
    assert content_hash(*parts, prefix="r") == _json_dumps_hash(*parts, prefix="r")
    assert content_hash() == _json_dumps_hash()


def _fresh_python(script: str) -> str:
    """stdout of ``script`` run by a new interpreter without ``site``.

    The test process has imported ``hashlib`` already (this module and
    hypothesis do), so what elia loads shows only in a fresh process.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(elia.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


def test_cli_import_loads_neither_openssl_nor_the_thread_pool():
    script = (
        "import json, sys; import elia.cli; "
        "print(json.dumps([m for m in ('_hashlib', 'hashlib', 'concurrent.futures')"
        " if m in sys.modules]))"
    )
    assert json.loads(_fresh_python(script)) == []


_HASH_PARTS = [["Bodega \"Ñandú\" S.A.", "2021-03-04", 12], [], ["\ud800", None, 3.5]]
_FORMS = ["APEX STEELWORKS", "", "ÑANDÚ"]


def test_hashlib_fallback_gives_the_same_ids():
    script = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from elia.core import content_hash\n"
        "from elia.resolution import canonical_id_for\n"
        f"parts, forms = {_HASH_PARTS!r}, {_FORMS!r}\n"
        "print(json.dumps(['hashlib' in sys.modules,"
        " [content_hash(*p, prefix='r') for p in parts],"
        " [canonical_id_for(f) for f in forms]]))\n"
    )
    used_hashlib, hashes, ids = json.loads(_fresh_python(script))
    assert used_hashlib
    assert hashes == [content_hash(*p, prefix="r") for p in _HASH_PARTS]
    assert ids == [canonical_id_for(f) for f in _FORMS]


class _DocError(Exception):
    pass


def _outcome(read):
    """What ``read()`` returns, or the message of the ``_DocError`` it raises."""
    try:
        return read()
    except _DocError as exc:
        return f"error: {exc}"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    doc=st.dictionaries(st.sampled_from(["a", "b", "edges", "", "\u00e9"]), _JSON_VALUES,
                        max_size=5),
    separators=st.sampled_from([(",", ":"), (", ", ": "), (" ,\n\t", "\r: ")]),
    edit=st.sampled_from(["none", "truncate", "repeat-key", "extra-data", "array", "bom",
                          "padding"]),
    cut=st.integers(min_value=0),
    fail_at=st.none() | st.integers(min_value=0, max_value=3),
)
def test_read_json_streamed_arrays_read_what_json_reads(doc, separators, edit, cut, fail_at):
    text = json.dumps(doc, separators=separators)
    text = {
        "none": text,
        "truncate": text[:cut % (len(text) + 1)],
        "repeat-key": text[:-1] + (", " if doc else "") + '"a": [1, {"b": [2]}]}',
        "extra-data": text + " []",
        "array": json.dumps(list(doc.values())),
        "bom": "\ufeff" + text,
        "padding": "\r\n " + text + " \t\n",
    }[edit]

    def stream(doc, key):
        elements = []

        def each(i, element):
            if i == fail_at:
                raise _DocError(f"element {i}")
            elements.append(element)

        return each, elements

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        whole = _outcome(lambda: read_json(path, _DocError, "doc"))
        assert whole == _outcome(lambda: read_json(path, _DocError, "doc", stream))
        assert whole == _outcome(lambda: read_json(path, _DocError, "doc", lambda d, k: None))
    if isinstance(whole, str):
        assert whole.startswith(f"error: {path}")


@pytest.mark.parametrize("text", [
    '{"a": [1}}', '{"a": [1]]', '{"a": [1,]}', '{"a": [1 2]}', '{"a": [1], }', '{"a" [1]}',
    '{"a": [1]} x', '{"a": [1]}}', '{"a": [1]', '{"a": [', '{"a": []', '{,}', '{"a": [1] "b": 2}',
    '{"a": [1]\n,\t"b": [[]]\r}', '{"a": [1], "a": [2]}', '{}', ' {"a": []} ', '[1]', '', ' ',
])
def test_read_json_streamed_arrays_read_what_json_reads_in_edge_cases(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")

    def stream(doc, key):
        elements = []
        return (lambda i, element: elements.append(element)), elements

    whole = _outcome(lambda: read_json(str(path), _DocError, "doc"))
    assert whole == _outcome(lambda: read_json(str(path), _DocError, "doc", stream))


class _Streamed(list):
    """The elements ``read_json`` passed to ``each`` for one streamed array."""


def _streaming(doc, key):
    elements = _Streamed()
    return (lambda i, element: elements.append(element)), elements


def _read_through_window(path, window, stream=_streaming):
    """``read_json``'s outcome with ``stream`` through a window of ``window`` bytes."""
    with mock.patch.object(core, "_WINDOW", window):
        return _outcome(lambda: read_json(path, _DocError, "doc", stream))


_KEYS = ["a", "b", "edges", "", "\u00e9"]


@settings(max_examples=300, deadline=None)
@given(
    doc=st.dictionaries(st.sampled_from(_KEYS), _JSON_VALUES, max_size=5),
    separators=st.sampled_from([(",", ":"), (", ", ": "), (" ,\r\n\t", "\r\n: ")]),
    cut=st.none() | st.integers(min_value=0),
    window=st.integers(min_value=1, max_value=24),
    declined=st.sets(st.sampled_from(_KEYS)),
)
def test_read_json_through_a_small_window_reads_what_json_loads_reads(doc, separators, cut,
                                                                      window, declined):
    text = json.dumps(doc, separators=separators)
    if cut is not None:
        text = text[:cut % (len(text) + 1)]

    def stream(doc, key):
        return None if key in declined else _streaming(doc, key)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        whole = _outcome(lambda: read_json(path, _DocError, "doc"))
        streamed = _read_through_window(path, window, stream)
    assert streamed == whole  # each element went to each, in order, and nothing else
    if cut is None:  # a whole document streams each array it is not told to decline
        assert ({key for key, value in streamed.items() if type(value) is _Streamed}
                == {key for key, value in doc.items() if type(value) is list} - declined)


class _StreamedObject(dict):
    """The members ``read_json`` passed to ``each`` for one streamed object."""


def _streaming_members(doc, key):
    members = _StreamedObject()
    return members.__setitem__, members


@settings(max_examples=300, deadline=None)
@given(
    doc=st.dictionaries(st.sampled_from(_KEYS), _JSON_VALUES, max_size=5),
    separators=st.sampled_from([(",", ":"), (", ", ": "), (" ,\r\n\t", "\r\n: ")]),
    cut=st.none() | st.integers(min_value=0),
    window=st.integers(min_value=1, max_value=24),
    declined=st.sets(st.sampled_from(_KEYS)),
    repeat=st.booleans(),
)
def test_read_json_streams_object_members_as_json_loads_reads_them(doc, separators, cut, window,
                                                                   declined, repeat):
    text = json.dumps(doc, separators=separators)
    if repeat:  # a name given twice in the first object below the top level
        text = text[:1] + re.sub(r'(\{\s*)("[^"]*"\s*:)', r'\1\2 0, \2', text[1:], count=1)
    if cut is not None:
        text = text[:cut % (len(text) + 1)]

    def stream(doc, key):
        return None if key in declined else _streaming_members(doc, key)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        whole = _outcome(lambda: read_json(path, _DocError, "doc"))
        with mock.patch.object(core, "_WINDOW", window):
            streamed = _outcome(lambda: read_json(path, _DocError, "doc", stream, objects=True))
    assert streamed == whole
    if cut is None and not repeat:  # a whole document streams each object not declined
        assert ({key for key, value in streamed.items() if type(value) is _StreamedObject}
                == {key for key, value in doc.items() if type(value) is dict} - declined)


@pytest.mark.parametrize("content, window", [
    pytest.param('{"a": {"x": 1, "y": [2, 3]}, "b": {}}', 4, id="members-across-windows"),
    pytest.param('{"a" :\r\n{ "x"\t:\n1 ,\r\n"y" : {"z": 2} } }', 3, id="spaced"),
    pytest.param('{"a": {"x": 1, "x": 2}}', 8, id="name-repeated"),
    pytest.param('{"a": {"x": 1,}}', 8, id="trailing-comma"),
    pytest.param('{"a": {"x" 1}}', 8, id="no-colon"),
    pytest.param('{"a": {1: 2}}', 8, id="name-not-a-string"),
    pytest.param('{"a": {"x": 1}', 8, id="truncated"),
    pytest.param('{"a": {"x\\u00e9": "\u00e9"}}', 9, id="escaped-name"),
])
def test_read_json_streams_object_members_in_edge_cases(tmp_path, content, window):
    path = tmp_path / "doc.json"
    path.write_bytes(content.encode("utf-8"))
    whole = _outcome(lambda: read_json(str(path), _DocError, "doc"))
    with mock.patch.object(core, "_WINDOW", window):
        streamed = _outcome(lambda: read_json(str(path), _DocError, "doc", _streaming_members,
                                              objects=True))
    assert streamed == whole


_LONG_NODES = [{"id": f"n{i}", "display_name": "N"} for i in range(40)]
_V1_LIKE = json.dumps({"format": "supply-graph", "version": 1, "nodes": _LONG_NODES,
                       "edges": [[i, "x"] for i in range(20)]})
_V2_LIKE = json.dumps({"format": "supply-graph", "version": 2,
                       "nodes": {"id": [node["id"] for node in _LONG_NODES]},
                       "edges": [[i, 0] for i in range(20)]})


# (file content, window in bytes, the arrays that stream, or None for a fault)
@pytest.mark.parametrize("content, window, streamed", [
    pytest.param('{"a": [12345, 6]}', 9, {"a"}, id="number-cut-in-an-array"),
    pytest.param('{"a": 12345, "b": [1]}', 8, {"b"}, id="number-cut-in-a-member"),
    pytest.param('{"a": 1.5, "b": [1]}', 8, {"b"}, id="member-number-cut-at-its-point"),
    pytest.param('{"a": [1.5, 2e+10, -3]}', 9, {"a"}, id="number-cut-at-its-point"),
    pytest.param('{"a": [1.5, 2e+10, -3]}', 15, {"a"}, id="number-cut-in-its-exponent"),
    pytest.param('{"a": [1.5, 2e+10, -3]}', 20, {"a"}, id="number-cut-at-its-sign"),
    pytest.param('{"a": ["x\\u00e9y", "\\n"]}', 10, {"a"}, id="escape-cut-after-backslash"),
    pytest.param('{"a": ["x\\u00e9y", "\\n"]}', 12, {"a"}, id="escape-cut-in-its-digits"),
    pytest.param('{"a": ["x\\u00e9y", "\\n"]}', 22, {"a"}, id="escape-cut-in-second-string"),
    pytest.param(b'{"a":\r\n[1,\r\n2]}', 6, {"a"}, id="crlf-cut-in-a-member"),
    pytest.param(b'{"a":\r\n[1,\r\n2]}', 11, {"a"}, id="crlf-cut-in-an-array"),
    pytest.param("{\"a\": [\"\u00e9\u00e9\", 1]}", 9, {"a"}, id="utf8-character-cut"),
    pytest.param(_V1_LIKE, 16, {"edges"}, id="declined-array-several-windows-long"),
    pytest.param(_V2_LIKE, 16, {"edges"}, id="object-several-windows-long"),
    pytest.param('{"a": [' + json.dumps(list(range(60))) + ', 5]}', 16, {"a"},
                 id="element-several-windows-long"),
    pytest.param('{"a": "' + "x" * 100 + '", "b": [1]}', 16, {"b"},
                 id="string-several-windows-long"),
    pytest.param('{"a": [1,' + " " * 300 + '2' + "\n" * 300 + '], "b": 3' + " " * 300 + "}", 32,
                 {"a"}, id="whitespace-longer-than-the-window"),
    pytest.param('{"a": [1, 2]}' + " " * 300, 16, {"a"}, id="trailing-whitespace"),
    pytest.param('{"a": [1, 2]}' + " " * 300 + "x", 16, None, id="extra-data-after-whitespace"),
    pytest.param('\ufeff{"a": [1]}', 4, None, id="bom"),
    pytest.param('{"a": [1, 2], "b": [3]' + " " * 100, 16, None, id="truncated-after-array"),
    pytest.param('{"a": [1,' + " " * 100 + ']}', 16, None, id="trailing-comma-far-from-the-end"),
])
def test_read_json_through_a_small_window_in_edge_cases(tmp_path, content, window, streamed):
    path = tmp_path / "doc.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    whole = _outcome(lambda: read_json(str(path), _DocError, "doc"))

    def stream(doc, key):  # the arrays named stream, the others are declined
        return _streaming(doc, key) if streamed is None or key in streamed else None

    doc = _read_through_window(str(path), window, stream)
    assert doc == whole
    if streamed is None:
        assert isinstance(whole, str)
    else:
        assert {key for key, value in doc.items() if type(value) is _Streamed} == streamed


def test_read_json_through_a_window_names_a_byte_that_is_not_utf8_past_the_first(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": [1,\n2,\n3,\n' + b"\xff" + b'4]}\n')
    whole = _outcome(lambda: read_json(str(path), _DocError, "doc"))
    assert whole.startswith(f"error: {path}:4: not UTF-8: ")
    assert _read_through_window(str(path), 6) == whole


_LINE_PADDING = st.sampled_from(["", " ", "\t", "\r", "\x0b", "\u00a0", "x", "{}"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_LINE_PADDING, _JSON_VALUES | st.dictionaries(st.text(max_size=3),
                                                                        _JSON_VALUES),
                          _LINE_PADDING, st.integers(min_value=0)), max_size=5),
       st.booleans())
def test_read_ndjson_reads_each_line_as_json_loads_does(lines, final_newline):
    text = "\n".join(before + json.dumps(value)[:cut] + after
                     for before, value, after, cut in lines)
    text += "\n" if final_newline else ""

    def expected(path):
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _DocError(f"{path}:{lineno}: malformed row: {exc}") from exc
            if not isinstance(row, dict):
                raise _DocError(f"{path}:{lineno}: malformed row: not a JSON object")
            yield lineno, row

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.ndjson")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (_outcome(lambda: list(read_ndjson(path, _DocError)))
                == _outcome(lambda: list(expected(path))))
