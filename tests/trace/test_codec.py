"""Unit tests for the trace store's binary codec primitives."""

import pytest

from repro.core import Noun, Sentence, Verb
from repro.trace.codec import (
    CodecError,
    SentenceTable,
    StringTable,
    append_uvarint,
    decode_node,
    encode_node,
    read_uvarint,
    unzigzag,
    zigzag,
)


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 2**14, 2**21 - 1, 2**35, 2**63, 2**64 - 1]
    )
    def test_round_trip(self, value):
        buf = bytearray()
        append_uvarint(buf, value)
        got, pos = read_uvarint(buf, 0)
        assert got == value
        assert pos == len(buf)

    def test_one_byte_below_128(self):
        buf = bytearray()
        append_uvarint(buf, 127)
        assert len(buf) == 1
        append_uvarint(buf, 128)
        assert len(buf) == 3  # 127 took one, 128 takes two

    def test_sequence_decodes_in_order(self):
        buf = bytearray()
        values = [5, 0, 1000, 77]
        for v in values:
            append_uvarint(buf, v)
        pos = 0
        for v in values:
            got, pos = read_uvarint(buf, pos)
            assert got == v

    def test_truncated_raises(self):
        buf = bytearray()
        append_uvarint(buf, 2**21)
        with pytest.raises(CodecError):
            read_uvarint(buf[:-1], 0)
        with pytest.raises(CodecError):
            read_uvarint(b"", 0)


class TestZigzag:
    @pytest.mark.parametrize("value", [0, -1, 1, -2, 2, 12345, -12345, 2**40, -(2**40)])
    def test_round_trip(self, value):
        assert unzigzag(zigzag(value)) == value

    def test_small_magnitudes_stay_small(self):
        # the point of zigzag: -1 must not encode as a huge unsigned value
        assert zigzag(0) == 0
        assert zigzag(-1) == 1
        assert zigzag(1) == 2
        assert zigzag(-2) == 3


class TestNodeField:
    @pytest.mark.parametrize("node", [None, 0, 1, -1, 63, 1024])
    def test_round_trip(self, node):
        assert decode_node(encode_node(node)) == node

    def test_none_is_zero(self):
        assert encode_node(None) == 0
        assert encode_node(0) == 1  # distinct from None


class TestStringTable:
    def test_intern_dedupes_and_emits_defs_once(self):
        table = StringTable()
        a = table.intern("alpha")
        b = table.intern("beta")
        a2 = table.intern("alpha")
        assert (a, b, a2) == (0, 1, 0)
        assert table.strings == ["alpha", "beta"]  # one entry per string

    def test_footer_table_round_trip(self):
        table = StringTable()
        for text in ["", "HPF", "Sum", "unicode éµ"]:
            table.intern(text)
        footer = bytearray()
        table.encode_table(footer)
        decoded, pos = StringTable.decode_table(footer, 0)
        assert decoded == ["", "HPF", "Sum", "unicode éµ"]
        assert pos == len(footer)


class TestSentenceTable:
    def test_round_trip_preserves_identity_not_descriptions(self):
        strings = StringTable()
        table = SentenceTable(strings)
        described = Sentence(
            Verb("Sum", "HPF", "summation of an array"),
            (Noun("A", "HPF", "the A array"),),
        )
        nullary = Sentence(Verb("Idle", "CMRTS"), ())
        assert table.intern(described) == 0
        assert table.intern(nullary) == 1
        assert table.intern(described) == 0  # deduped

        footer = bytearray()
        strings.encode_table(footer)
        split = len(footer)
        table.encode_table(footer)
        decoded_strings, pos = StringTable.decode_table(footer, 0)
        assert pos == split
        decoded, pos = SentenceTable.decode_table(footer, pos, decoded_strings)
        assert pos == len(footer)
        # identity is (name, abstraction): descriptions are compare=False
        assert decoded == [described, nullary]
        assert decoded[0].verb.description == ""
