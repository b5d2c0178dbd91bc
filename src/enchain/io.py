"""Poset file parsing and report rendering.

Two input formats are accepted.  The text format has the element count on
the first line and one cover relation per line after it:

    3
    1 < 3
    2 < 3

The structured format is a JSON object {"n": ..., "covers": [[a, b], ...]}
whose numbers are all JSON integers.  Either format may give at most
MAX_INPUT_N elements; parse_poset refuses more with SizeLimit before any
work that grows with n.
Reports render as canonical JSON (sorted keys, two-space indent), or as
TSV / plain text projections of the flattened key paths; all three are
byte-deterministic for a fixed input and configuration.
"""

import json
import re
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote

from .errors import ParseError, SizeLimit
from .posets import poset_from_covers

MAX_INPUT_N = 256  # verify-all --poset on the 256-chain: 0.43-0.48 s, 36 MiB on a 2-core host
_COVER_LINE = re.compile(r"^(\d+)\s*<\s*(\d+)$")


def parse_poset(text):
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON poset: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "covers" not in obj:
            raise ParseError("JSON poset needs 'n' and 'covers' fields")
        try:
            covers = [(_json_int(a), _json_int(b)) for a, b in obj["covers"]]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed JSON poset: {exc}") from exc
        n = _json_int(obj["n"])
    else:
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines:
            raise ParseError("empty poset file")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise ParseError(f"first line must be the element count: {lines[0]!r}") from exc
        covers = []
        for line in lines[1:]:
            match = _COVER_LINE.match(line)
            if not match:
                raise ParseError(f"malformed cover line {line!r} (expected 'a < b')")
            covers.append((int(match.group(1)), int(match.group(2))))
    if n > MAX_INPUT_N:
        raise SizeLimit(f"a poset file may give at most {MAX_INPUT_N} elements, got n={n}")
    return poset_from_covers(n, covers)


def _json_int(value):
    """A JSON integer as is; a float, bool, string or anything else is an
    error rather than a number to truncate."""
    if type(value) is not int:
        raise ParseError(f"JSON poset numbers must be integers, got {json.dumps(value)}")
    return value


def load_poset(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read poset file {path}: {exc}") from exc
    return parse_poset(text)


def render_json(payload):
    """The payload as json.dumps(payload, sort_keys=True, indent=2) + "\\n"
    would write it, byte for byte, for the types reports are made of:
    dicts with str keys, lists, tuples, str, int, bool and None; anything
    else raises TypeError.  json turns off its C encoder whenever it
    indents, so this writer collects the pieces in one list itself.  A
    list of uniform rows (non-empty lists or tuples of one length whose
    leaves are all exactly str or all exactly int), such as the edges of
    the gamma complex, is written with C-level joins; every other value
    takes the recursive path."""
    pieces = []
    _write_json(payload, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


# One piece per block of uniform rows: one piece for the whole list holds
# its text twice at the peak, and one piece per row gives the speed back.
ROWS_PER_PIECE = 1024
_LEAF_WRITERS = {str: _quote, int: int.__repr__}


def _leaf_writer(rows):
    """_quote or int.__repr__ if rows is a list of uniform rows, else None."""
    if set(map(type, rows)) <= {list, tuple} and len(set(map(len, rows))) == 1 and rows[0]:
        leaves = set(map(type, chain.from_iterable(rows)))
        return _LEAF_WRITERS.get(leaves.pop()) if len(leaves) == 1 else None
    return None


def _write_json(value, newline, pieces):
    """Append the pieces of value, whose own line starts with `newline`
    (a newline and the indentation), to pieces."""
    if isinstance(value, str):
        pieces.append(_quote(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        writer = _leaf_writer(value)
        if writer is not None:
            leaf = inner + "  "
            row_separator = f"{inner}],{inner}[{leaf}"
            head = f"[{inner}[{leaf}"
            for start in range(0, len(value), ROWS_PER_PIECE):
                rows = map(map, repeat(writer), value[start : start + ROWS_PER_PIECE])
                pieces.append(head + row_separator.join(map(f",{leaf}".join, rows)))
                head = row_separator
            pieces.append(f"{inner}]{newline}]")
            return
        separator = "[" + inner
        for item in value:
            pieces.append(separator)
            _write_json(item, inner, pieces)
            separator = "," + inner
        pieces.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            pieces.append(separator + _quote(key) + ": ")
            _write_json(value[key], inner, pieces)
            separator = "," + inner
        pieces.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _flatten(payload, prefix=""):
    items = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            items.extend(_flatten(payload[key], f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)) and any(
        isinstance(v, (dict, list, tuple)) for v in payload
    ):
        for i, value in enumerate(payload):
            items.extend(_flatten(value, f"{prefix}{i}."))
    else:
        value = payload
        if isinstance(value, (list, tuple)):
            value = json.dumps(list(value))
        items.append((prefix[:-1], value))
    return items


def render_tsv(payload):
    lines = [f"{key}\t{value}" for key, value in _flatten(payload)]
    return "\n".join(lines) + "\n"


def render_text(payload):
    lines = [f"{key}: {value}" for key, value in _flatten(payload)]
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "tsv": render_tsv, "text": render_text}
