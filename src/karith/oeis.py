"""OEIS b-file parsing and prefix comparison.

b-files are plain text dumps with one "index value" pair per line, comment
lines starting with '#', and a sequence-specific starting index (the
offset).  Parsing is strict: anything else is rejected with its line number,
and indices must strictly increase.
"""

from __future__ import annotations

from pathlib import Path

from .core import _record

TYPE_CHECKING = False  # read as true by type checkers; never imports typing
if TYPE_CHECKING:
    from collections.abc import Sequence


class BFileParseError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@_record
class OeisFixture:
    sequence_id: str
    terms: tuple[tuple[int, int], ...]

    def term_at(self, index: int) -> int | None:
        for i, value in self.terms:
            if i == index:
                return value
        return None

    @property
    def first_index(self) -> int:
        return self.terms[0][0]


def parse_bfile_text(text: str, sequence_id: str = "") -> OeisFixture:
    terms: list[tuple[int, int]] = []
    previous_index: int | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"expected 'index value', got {raw!r}", line_number)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"non-integer field in {raw!r}", line_number) from None
        if previous_index is not None and index <= previous_index:
            raise BFileParseError(
                f"index {index} does not increase past {previous_index}", line_number
            )
        previous_index = index
        terms.append((index, value))
    if not terms:
        raise BFileParseError("no terms found", 1)
    return OeisFixture(sequence_id, tuple(terms))


def parse_bfile(path: str | Path, sequence_id: str | None = None) -> OeisFixture:
    path = Path(path)
    if sequence_id is None:
        stem = path.stem
        sequence_id = "A" + stem[1:] if stem.startswith("b") else stem
    return parse_bfile_text(path.read_text(), sequence_id)


@_record
class PrefixComparison:
    """Result of aligning a generated prefix against a b-file."""

    matched: bool
    compared: int
    first_mismatch: tuple[int, int, int] | None = None  # (index, got, expected)
    detail: str = ""


def compare_prefix(
    values: Sequence[int], fixture: OeisFixture, offset: int = 1
) -> PrefixComparison:
    """Compare values[j] against the fixture term at index offset + j; no values, no match."""
    if not values:
        return PrefixComparison(False, 0, None, "no generated terms to compare")
    index_map = dict(fixture.terms)
    for j, got in enumerate(values):
        index = offset + j
        expected = index_map.get(index)
        if expected is None:
            return PrefixComparison(
                False, j, None, f"{fixture.sequence_id or 'fixture'} has no term at index {index}")
        if expected != got:
            return PrefixComparison(
                False, j, (index, got, expected),
                f"first mismatch at index {index}: got {got}, expected {expected}")
    return PrefixComparison(True, len(values), None, "full match")
