"""Binary codec primitives of the ``.rtrcx`` trace store.

Every value round-trips *exactly* (timestamps and metric values are
IEEE-754 lossless) while the metadata around the columns stays small:

* **varints** -- counts, ids, offsets and node fields are unsigned LEB128
  varints (zigzag for signed values), bounded at 64 bits of payload so a
  corrupt continuation bit cannot build an unbounded integer;
* **interned string and sentence tables** -- level, noun, verb, metric,
  and focus names are interned once per file and referenced by id; a
  sentence is its verb and nouns as string ids.  Both tables are written
  once, in the footer (:mod:`repro.trace.columnar`);
* **checked reads** -- every length, count and float read is validated
  against the bytes actually present and raises :class:`CodecError`, so
  a mangled file fails loudly instead of crashing or allocating wildly.

Noun/verb *descriptions* are not persisted: sentence identity is
``(name, abstraction)`` (descriptions are ``compare=False`` annotations),
so decoded events compare equal to the originals event-for-event.
"""

from __future__ import annotations

import struct

from ..core.nouns import Noun, Sentence, Verb
from ..core.mapping import MappingOrigin

__all__ = [
    "MAX_UVARINT_BYTES",
    "append_uvarint",
    "read_uvarint",
    "read_blob",
    "read_f64",
    "check_count",
    "decode_utf8",
    "zigzag",
    "unzigzag",
    "encode_node",
    "decode_node",
    "StringTable",
    "SentenceTable",
    "CodecError",
]

_PACK_D = struct.Struct("<d")


class CodecError(ValueError):
    """Malformed or truncated ``.rtrcx`` data."""


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
#: widest legal varint: a 64-bit value spans ten 7-bit groups.  Anything
#: longer is corrupt input trying to build an unbounded Python int.
MAX_UVARINT_BYTES = 10


def append_uvarint(buf: bytearray, value: int) -> None:
    """Append ``value`` (>= 0) to ``buf`` as a LEB128 varint."""
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data, pos: int) -> tuple[int, int]:
    """Decode a varint at ``pos``; returns ``(value, next_pos)``.

    Width is bounded at :data:`MAX_UVARINT_BYTES` (64 bits of payload), so
    corrupt continuation bits raise :class:`CodecError` instead of looping
    over the whole file accumulating an arbitrarily large integer.
    """
    value = 0
    shift = 0
    n = len(data)
    while True:
        if pos >= n:
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift >= 7 * MAX_UVARINT_BYTES:
            raise CodecError("varint wider than 64 bits (corrupt continuation bits)")


def read_blob(data, pos: int, length: int, what: str = "blob") -> tuple[bytes, int]:
    """Slice ``length`` validated bytes at ``pos``; returns ``(bytes, next_pos)``.

    A corrupt length field cannot silently short-slice (Python slicing
    clamps) or trigger a huge allocation: the requested span must lie
    entirely inside ``data``.
    """
    if length < 0 or pos + length > len(data):
        raise CodecError(f"truncated {what}: {length} bytes claimed at offset {pos}")
    return bytes(data[pos : pos + length]), pos + length


def read_f64(data, pos: int, what: str = "float") -> tuple[float, int]:
    """Read one little-endian IEEE-754 double with bounds checking."""
    if pos + 8 > len(data):
        raise CodecError(f"truncated {what} at offset {pos}")
    return _PACK_D.unpack_from(data, pos)[0], pos + 8


def check_count(count: int, pos: int, end: int, min_item_bytes: int, what: str) -> int:
    """Validate a decoded element count against the bytes actually present.

    Every element of a counted section costs at least ``min_item_bytes``,
    so a mangled count that could not possibly fit raises :class:`CodecError`
    up front instead of driving a huge-range loop or allocation.
    """
    if count < 0 or count * min_item_bytes > end - pos:
        raise CodecError(f"corrupt {what} count {count} at offset {pos}")
    return count


def decode_utf8(raw: bytes, what: str = "string") -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in {what}: {exc}") from exc


def zigzag(value: int) -> int:
    """Map a signed int to unsigned (0,-1,1,-2 -> 0,1,2,3)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# ----------------------------------------------------------------------
# small field codecs
# ----------------------------------------------------------------------
def encode_node(node_id: int | None) -> int:
    """Node ids may be None (standalone SAS); 0 encodes None."""
    return 0 if node_id is None else zigzag(node_id) + 1


def decode_node(field: int) -> int | None:
    return None if field == 0 else unzigzag(field - 1)


#: MappingOrigin wire values (stable across enum reordering).
ORIGIN_CODES = {MappingOrigin.STATIC: 0, MappingOrigin.DYNAMIC: 1}
ORIGIN_BY_CODE = {code: origin for origin, code in ORIGIN_CODES.items()}


# ----------------------------------------------------------------------
# interning tables
# ----------------------------------------------------------------------
class StringTable:
    """Write-side string interner.

    Ids are assigned densely in first-use order, the order the table is
    serialized in, so a reader's list index is the id.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []

    def intern(self, text: str) -> int:
        """Id of ``text``, assigning the next one to a new string."""
        sid = self._ids.get(text)
        if sid is None:
            sid = len(self.strings)
            self._ids[text] = sid
            self.strings.append(text)
        return sid

    def encode_table(self, buf: bytearray) -> None:
        append_uvarint(buf, len(self.strings))
        for text in self.strings:
            raw = text.encode("utf-8")
            append_uvarint(buf, len(raw))
            buf += raw

    @staticmethod
    def decode_table(data, pos: int) -> tuple[list[str], int]:
        count, pos = read_uvarint(data, pos)
        check_count(count, pos, len(data), 1, "string table")
        out: list[str] = []
        for _ in range(count):
            length, pos = read_uvarint(data, pos)
            raw, pos = read_blob(data, pos, length, "string table entry")
            out.append(decode_utf8(raw, "string table entry"))
        return out, pos


class SentenceTable:
    """Write-side sentence interner over a :class:`StringTable`."""

    def __init__(self, strings: StringTable) -> None:
        self._strings = strings
        self._ids: dict[Sentence, int] = {}
        self.sentences: list[Sentence] = []
        self._fields: list[list[int]] = []  # string ids, kept for the table

    def intern(self, sent: Sentence) -> int:
        """Id of ``sent``, interning its strings on first use."""
        sid = self._ids.get(sent)
        if sid is None:
            sid = len(self.sentences)
            self._ids[sent] = sid
            self.sentences.append(sent)
            self._fields.append(self._field_ids(sent))
        return sid

    def _field_ids(self, sent: Sentence) -> list[int]:
        intern = self._strings.intern
        fields = [intern(sent.verb.abstraction), intern(sent.verb.name)]
        for noun in sent.nouns:
            fields.append(intern(noun.abstraction))
            fields.append(intern(noun.name))
        return fields

    @staticmethod
    def _encode_fields(fields: list[int], buf: bytearray) -> None:
        append_uvarint(buf, fields[0])
        append_uvarint(buf, fields[1])
        append_uvarint(buf, (len(fields) - 2) // 2)
        for field in fields[2:]:
            append_uvarint(buf, field)

    def encode_table(self, buf: bytearray) -> None:
        append_uvarint(buf, len(self.sentences))
        for fields in self._fields:
            self._encode_fields(fields, buf)

    @staticmethod
    def decode_fields(data, pos: int, strings: list[str]) -> tuple[Sentence, int]:
        vlevel, pos = read_uvarint(data, pos)
        vname, pos = read_uvarint(data, pos)
        nnouns, pos = read_uvarint(data, pos)
        check_count(nnouns, pos, len(data), 2, "sentence noun")
        nouns = []
        try:
            for _ in range(nnouns):
                nlevel, pos = read_uvarint(data, pos)
                nname, pos = read_uvarint(data, pos)
                nouns.append(Noun(strings[nname], strings[nlevel]))
            verb = Verb(strings[vname], strings[vlevel])
            sent = Sentence(verb, tuple(nouns))
        except IndexError as exc:
            raise CodecError(f"sentence references unknown string id at {pos}") from exc
        except ValueError as exc:
            # Noun/Verb validation (empty name or abstraction) — corrupt
            # string bytes decoded into an out-of-domain table entry.
            raise CodecError(f"sentence table entry invalid at {pos}: {exc}") from exc
        return sent, pos

    @staticmethod
    def decode_table(data, pos: int, strings: list[str]) -> tuple[list[Sentence], int]:
        count, pos = read_uvarint(data, pos)
        check_count(count, pos, len(data), 3, "sentence table")
        out: list[Sentence] = []
        for _ in range(count):
            sent, pos = SentenceTable.decode_fields(data, pos, strings)
            out.append(sent)
        return out, pos
