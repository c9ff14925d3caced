"""Binary codec for the persistent trace store (``.rtrc`` files).

The on-disk format is a compact append-only record stream framed with
varints, designed so every value round-trips *exactly* (timestamps and
metric values are IEEE-754 lossless) while staying small:

* **varint framing** -- every record starts with a tag varint; payload
  fields are unsigned varints (zigzag for signed values);
* **interned string tables** -- level, noun, verb, metric, and focus names
  are interned once per file (``DEF_STR``) and referenced by id; sentences
  intern likewise (``DEF_SENT``) so a transition record is typically 4-6
  bytes;
* **delta-encoded timestamps** -- each timed record stores the XOR of its
  time's IEEE-754 bits against the previous timed record's; nearby times
  share their high (sign/exponent/top-mantissa) bits, so the XOR is a small
  integer and the varint short.  Identical times (the simulator batches
  same-instant events) cost one byte.  Snapshot records carry an absolute
  time and reset the chain, so a reader can start decoding at any snapshot
  offset.

The record stream is followed by a footer that repeats the complete string
and sentence tables plus the snapshot index, so :class:`~.store.TraceReader`
can seek without scanning the stream; the trailer stores the footer offset.

File layout::

    header  := MAGIC "RTRC" | version u8 | meta_len varint | meta_json
    records := (DEF_STR | DEF_SENT | TRANS | METRIC | MAPPING | SNAPSHOT)*
    footer  := string table | sentence table | snapshot index | counts | bounds
    trailer := footer_offset u64le | MAGIC_END "CRTR"

Noun/verb *descriptions* are not persisted: sentence identity is
``(name, abstraction)`` (descriptions are ``compare=False`` annotations),
so decoded events compare equal to the originals event-for-event.
"""

from __future__ import annotations

import struct

from ..core.nouns import Noun, Sentence, Verb
from ..core.mapping import MappingOrigin

__all__ = [
    "MAGIC",
    "MAGIC_END",
    "VERSION",
    "TAG_DEF_STR",
    "TAG_DEF_SENT",
    "TAG_TRANS",
    "TAG_METRIC",
    "TAG_MAPPING",
    "TAG_SNAPSHOT",
    "MAX_UVARINT_BYTES",
    "append_uvarint",
    "read_uvarint",
    "read_blob",
    "read_f64",
    "check_count",
    "decode_utf8",
    "zigzag",
    "unzigzag",
    "float_to_bits",
    "bits_to_float",
    "delta_bits",
    "undelta_bits",
    "encode_node",
    "decode_node",
    "StringTable",
    "SentenceTable",
    "CodecError",
]

MAGIC = b"RTRC"
MAGIC_END = b"CRTR"
VERSION = 1

TAG_DEF_STR = 1  # len varint | utf-8 bytes             -> next string id
TAG_DEF_SENT = 2  # verb(level,name) | n | n*(level,name) -> next sentence id
TAG_TRANS = 3  # sent_id | flags(bit0 activate, rest node) | tdelta
TAG_METRIC = 4  # name_sid | focus_sid | units_sid | tdelta | f64 value
TAG_MAPPING = 5  # src_sent | dst_sent | origin | tdelta
TAG_SNAPSHOT = 6  # f64 abs time | nevents | nentries | entries...

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


class CodecError(ValueError):
    """Malformed or truncated ``.rtrc``/``.rtrcx`` data."""


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
# lossless float deltas
# ----------------------------------------------------------------------
def float_to_bits(value: float) -> int:
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


def bits_to_float(bits: int) -> float:
    if bits >> 64:
        # a corrupt varint can decode to more than 64 bits; don't let
        # struct.error escape the codec boundary
        raise CodecError(f"float bit pattern exceeds 64 bits: {bits:#x}")
    return _PACK_D.unpack(_PACK_Q.pack(bits))[0]


def delta_bits(prev_bits: int, bits: int) -> int:
    """XOR delta of two IEEE-754 bit patterns.

    Nearby floats share their high (sign/exponent/top-mantissa) bits, so
    the XOR is a small integer and varints short; identical times XOR to 0
    (one byte).  XOR is an involution given ``prev_bits``, hence exactly
    lossless -- no subtraction rounding anywhere.
    """
    return prev_bits ^ bits


def undelta_bits(prev_bits: int, delta: int) -> int:
    return prev_bits ^ delta


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
    """Write-side string interner that emits ``DEF_STR`` records.

    Ids are assigned densely in first-use order; the same order is used
    when the table is re-serialized into the footer, so stream and footer
    agree on every id.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.strings: list[str] = []

    def intern(self, text: str, buf: bytearray | None = None) -> int:
        """Id of ``text``; a new string's ``DEF_STR`` goes to ``buf``
        (``None``: the table alone, for writers that keep it in a footer)."""
        sid = self._ids.get(text)
        if sid is None:
            sid = len(self.strings)
            self._ids[text] = sid
            self.strings.append(text)
            if buf is not None:
                raw = text.encode("utf-8")
                append_uvarint(buf, TAG_DEF_STR)
                append_uvarint(buf, len(raw))
                buf += raw
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
    """Write-side sentence interner that emits ``DEF_SENT`` records."""

    def __init__(self, strings: StringTable) -> None:
        self._strings = strings
        self._ids: dict[Sentence, int] = {}
        self.sentences: list[Sentence] = []
        self._fields: list[list[int]] = []  # string ids, kept for the table

    def intern(self, sent: Sentence, buf: bytearray | None = None) -> int:
        """Id of ``sent``, interning its strings first; a new sentence's
        ``DEF_STR``/``DEF_SENT`` records go to ``buf`` (``None``: none)."""
        sid = self._ids.get(sent)
        if sid is None:
            sid = len(self.sentences)
            self._ids[sent] = sid
            self.sentences.append(sent)
            # string interning first, so DEF_STRs precede the DEF_SENT
            fields = self._field_ids(sent, buf)
            self._fields.append(fields)
            if buf is not None:
                append_uvarint(buf, TAG_DEF_SENT)
                self._encode_fields(fields, buf)
        return sid

    def _field_ids(self, sent: Sentence, buf: bytearray | None) -> list[int]:
        intern = self._strings.intern
        fields = [intern(sent.verb.abstraction, buf), intern(sent.verb.name, buf)]
        for noun in sent.nouns:
            fields.append(intern(noun.abstraction, buf))
            fields.append(intern(noun.name, buf))
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
    def skip_fields(data, pos: int) -> int:
        """Skip one encoded sentence (shared by stream skip and table)."""
        _, pos = read_uvarint(data, pos)
        _, pos = read_uvarint(data, pos)
        nnouns, pos = read_uvarint(data, pos)
        check_count(nnouns, pos, len(data), 2, "sentence noun")
        for _ in range(2 * nnouns):
            _, pos = read_uvarint(data, pos)
        return pos

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
