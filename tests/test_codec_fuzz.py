"""Mutation fuzzing of the .rcol reader.

Hypothesis draws a small collection, writes it with codec_write and
mutates the bytes: it deletes, duplicates or swaps lines, replaces one
byte, or truncates the file.  Every mutated file must either parse to a
Collection or raise FormatError or RangeError, never anything else, and
``rturan detect`` must exit 4 on every file the reader rejects.  The draws
are derandomized, so every run checks the same files.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rturan import Collection, FormatError, RangeError, codec_read, codec_write
from rturan.cli import main

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# bytes that steer the parser: digits, separators, line ends, sign and
# underscore that int() would accept, and bytes that are not ASCII
INTERESTING = st.sampled_from(b"0123456789 \t\n\r+-_ncdetolr\x00\x7f\x80\xb2\xff")


@st.composite
def collections(draw) -> Collection:
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lists = [sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else [] for _ in range(t)]
    return Collection.from_edge_lists(n, lists)


@st.composite
def mutations(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        lines = data.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "byte", "truncate")))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        if kind in ("delete", "duplicate", "swap"):
            data = b"\n".join(lines)
        elif not data:
            break
        elif kind == "byte":
            at = draw(st.integers(0, len(data) - 1))
            byte = draw(st.one_of(INTERESTING, st.integers(0, 255)))
            data = data[:at] + bytes([byte]) + data[at + 1 :]
        else:
            data = data[: draw(st.integers(0, len(data) - 1))]
    return data


def _written(col: Collection, directory: str) -> bytes:
    path = os.path.join(directory, "orig.rcol")
    codec_write(col, path)
    with open(path, "rb") as fh:
        return fh.read()


def _detect_exit(path: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["detect", "--collection", path, "--pattern", "K2"])


@SETTINGS
@given(collections(), st.data())
def test_mutated_rcol_parses_or_is_rejected_cleanly(col, data):
    with tempfile.TemporaryDirectory() as directory:
        mutated = data.draw(mutations(_written(col, directory)))
        path = os.path.join(directory, "mutated.rcol")
        with open(path, "wb") as fh:
            fh.write(mutated)
        try:
            parsed = codec_read(path)
        except (FormatError, RangeError):
            assert _detect_exit(path) == 4
            return
        assert isinstance(parsed, Collection)
        assert _detect_exit(path) in (0, 1)


@pytest.mark.parametrize(
    "body, line",
    [
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0 \xff1\nend\n", 5),  # not UTF-8
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0\xc2\xa01\nend\n", 5),  # UTF-8 no-break space
        (b"rcol 1\nn \xb2\nt 1\ncolor 1\nend\n", 2),
    ],
)
def test_non_ascii_byte_is_a_format_error(tmp_path, capsys, body, line):
    path = tmp_path / "bad.rcol"
    path.write_bytes(body)
    with pytest.raises(FormatError) as err:
        codec_read(str(path))
    assert err.value.line == line
    assert main(["detect", "--collection", str(path), "--pattern", "K3"]) == 4
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize(
    "body, line",
    [
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0\x1f1\r\nend\n", 5),  # control characters
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0 1\r\nend\n", 5),  # CRLF line end
        (b"rcol 1\nn 3\nt 1\ncolor 1\r\n0 1\nend\n", 4),
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0\t1\nend\n", 5),  # tab
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0  1\nend\n", 5),  # doubled space
        (b"rcol 1\nn 3\nt 1\ncolor 1\n0 1 \nend\n", 5),  # trailing space
        (b"rcol 1\nn 3\nt 1\ncolor 1\n 0 1\nend\n", 5),  # leading space
        (b"rcol 1\nn\t3\nt 1\ncolor 1\nend\n", 2),
        (b"rcol 1\nn 3\nt  1\ncolor 1\nend\n", 3),
        (b"rcol 1\nn 3\nt 1\ncolor 1\n\nend\n", 5),  # empty line
    ],
)
def test_fields_take_exactly_one_space(tmp_path, capsys, body, line):
    path = tmp_path / "bad.rcol"
    path.write_bytes(body)
    with pytest.raises(FormatError) as err:
        codec_read(str(path))
    assert err.value.line == line
    assert main(["detect", "--collection", str(path), "--pattern", "K2"]) == 4
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("field", ["n", "t", "color", "vertex"])
def test_numeral_beyond_int_digit_limit_is_rejected(tmp_path, field):
    # int() refuses numerals of more than 4,300 digits with a bare ValueError
    huge = "9" * 5000
    body = {
        "n": f"rcol 1\nn {huge}\nt 1\ncolor 1\nend\n",
        "t": f"rcol 1\nn 3\nt {huge}\ncolor 1\nend\n",
        "color": f"rcol 1\nn 3\nt 1\ncolor {huge}\nend\n",
        "vertex": f"rcol 1\nn 3\nt 1\ncolor 1\n0 {huge}\nend\n",
    }[field]
    path = tmp_path / "huge.rcol"
    path.write_text(body)
    with pytest.raises((FormatError, RangeError)):
        codec_read(str(path))
