"""b-file parsing and frozen-prefix agreement for the vendored fixtures."""

import pytest

from conftest import FIXTURES

from karith import (
    AlternatingOnes,
    ArithProg,
    BFileParseError,
    GeomProg,
    PrefixComparison,
    UsualPrimes,
    ZeroOne,
    compare_prefix,
    cubes_sequence,
    parse_bfile,
    parse_bfile_text,
    squares_sequence,
)

OEIS = FIXTURES / "oeis"


class TestParsing:
    def test_basic(self):
        fx = parse_bfile_text("# comment\n0 1\n1 2\n2 4\n", "A000079")
        assert fx.sequence_id == "A000079"
        assert fx.terms == ((0, 1), (1, 2), (2, 4))
        assert fx.first_index == 0
        assert fx.term_at(2) == 4
        assert fx.term_at(99) is None

    def test_whitespace_and_blank_lines(self):
        fx = parse_bfile_text("  1   10 \n\n 2 20\n")
        assert fx.terms == ((1, 10), (2, 20))

    def test_malformed_line_reports_number(self):
        with pytest.raises(BFileParseError) as err:
            parse_bfile_text("1 10\nbogus line here\n")
        assert err.value.line_number == 2

    def test_non_integer_field(self):
        with pytest.raises(BFileParseError) as err:
            parse_bfile_text("1 x\n")
        assert err.value.line_number == 1

    def test_indices_must_increase(self):
        with pytest.raises(BFileParseError):
            parse_bfile_text("3 1\n3 2\n")
        with pytest.raises(BFileParseError):
            parse_bfile_text("3 1\n2 2\n")

    def test_empty_rejected(self):
        with pytest.raises(BFileParseError):
            parse_bfile_text("# only a comment\n")

    def test_sequence_id_from_filename(self):
        fx = parse_bfile(OEIS / "b000125.txt")
        assert fx.sequence_id == "A000125"


class TestComparison:
    def test_full_match(self):
        fx = parse_bfile_text("0 1\n1 2\n2 4\n")
        result = compare_prefix([1, 2, 4], fx, offset=0)
        assert result.matched and result.compared == 3

    def test_offset_alignment(self):
        fx = parse_bfile_text("0 0\n1 1\n2 3\n3 7\n")
        assert compare_prefix([1, 3, 7], fx, offset=1).matched

    def test_first_mismatch_reported(self):
        fx = parse_bfile_text("1 1\n2 2\n3 5\n")
        result = compare_prefix([1, 2, 4], fx, offset=1)
        assert not result.matched
        assert result.first_mismatch == (3, 4, 5)

    def test_running_past_the_fixture(self):
        fx = parse_bfile_text("1 1\n2 2\n")
        result = compare_prefix([1, 2, 3], fx, offset=1)
        assert not result.matched
        assert "no term at index 3" in result.detail

    def test_no_values_is_no_match(self):
        fx = parse_bfile_text("1 1\n2 2\n")
        assert compare_prefix([], fx, offset=1) == PrefixComparison(
            matched=False, compared=0, detail="no generated terms to compare")


# Hand-frozen prefix literals, ground truth for the vendored b-files.
FROZEN_PREFIXES = {
    "b000125.txt": (0, [1, 2, 4, 8, 15, 26, 42, 64, 93, 130]),
    "b004006.txt": (1, [1, 3, 7, 14, 25, 41, 63, 92, 129, 175]),
    "b000225.txt": (1, [1, 3, 7, 15, 31, 63, 127, 255, 511, 1023]),
    "b023538.txt": (1, [1, 4, 10, 21, 39, 68, 110, 169, 247, 348,
                        478, 639, 837, 1076, 1358, 1687, 2069]),
    "b032766.txt": (1, [1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18,
                        19, 21, 22, 24, 25, 27, 28, 30]),
    "b105638.txt": (4, [1, 5, 7, 14, 17, 27, 31, 44, 49, 65, 71, 90,
                        97, 119, 127, 152, 161, 189, 199, 230]),
    "b002620.txt": (2, [1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42,
                        49, 56, 64, 72, 81, 90, 100, 110]),
    "b005998.txt": (0, [1, 2, 7, 14, 29, 48, 79, 116, 169, 230, 311,
                        402, 517, 644, 799, 968, 1169]),
}


@pytest.mark.parametrize("fname", sorted(FROZEN_PREFIXES), ids=str)
def test_vendored_bfiles_carry_the_frozen_prefixes(fname):
    offset, expected = FROZEN_PREFIXES[fname]
    fx = parse_bfile(OEIS / fname)
    assert compare_prefix(expected, fx, offset=offset).matched


SEQUENCE_ALIGNMENTS = [
    ("b000125.txt", squares_sequence, ArithProg(0, 1), 10, 0),
    ("b004006.txt", squares_sequence, ArithProg(1, 1), 10, 1),
    ("b000225.txt", squares_sequence, GeomProg(1, 2), 10, 1),
    ("b023538.txt", squares_sequence, UsualPrimes(), 17, 1),
    ("b032766.txt", squares_sequence, AlternatingOnes(), 20, 1),
    ("b105638.txt", cubes_sequence, AlternatingOnes(), 20, 4),
    ("b002620.txt", squares_sequence, ZeroOne(), 20, 2),
    ("b005998.txt", cubes_sequence, ZeroOne(), 17, 0),
]


@pytest.mark.parametrize(
    "fname,fn,g,count,offset", SEQUENCE_ALIGNMENTS, ids=lambda v: str(v)
)
def test_generated_sequences_match_vendored_bfiles(fname, fn, g, count, offset):
    fx = parse_bfile(OEIS / fname)
    result = compare_prefix(fn(count, g), fx, offset=offset)
    assert result.matched, result.detail
