"""Vector files and the normalize sidecar: every decimal written is the
`repr` of its float64, every text file reads as `float()` of each token,
binary rows are read in one pass, and sidecar lines equal what
`json.JSONEncoder` writes."""

import json
import os
import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iterl2norm import vecio
from iterl2norm.errors import DataFormatError
from iterl2norm.fpformat import BF16, FP16, FP32, bits_to_values, round_array
from iterl2norm.norm_core import BatchNormResult
from iterl2norm.vecio import _json_row, _reprs, read_vectors, write_sidecar, write_vectors

from oracles import max_finite, quantum_exp

FORMATS = [FP32, FP16, BF16]


def repr_lines(rows) -> bytes:
    return "".join(",".join(map(repr, np.asarray(r, dtype=np.float64).tolist())) + "\n"
                   for r in rows).encode()


def subnormals(fmt):
    """The smallest subnormal of the format and three times it."""
    tiny = 2.0 ** quantum_exp(fmt)
    return tiny, 3 * tiny


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_text_rows_equal_per_element_repr(tmp_path, fmt):
    rng = np.random.default_rng(12)
    rows = [round_array(rng.uniform(-4, 4, d), fmt) for d in (1, 7, 300, 64)]
    rows.append(np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, *subnormals(fmt), 65504.0, -1.0]))
    # values the format cannot hold are written as given, not rounded
    rows.append(np.array([0.1, 1.0 + 2.0 ** -30, 1e300, -1e-300, 2.0 ** -26]))
    rows.append(np.array([0.1]))
    assert not np.array_equal(round_array(rows[-1], fmt), rows[-1])
    path = tmp_path / "v.txt"
    write_vectors(path, rows, fmt, binary=False)
    assert path.read_bytes() == repr_lines(rows)
    back, _ = read_vectors(path)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(back, rows))


# ---------------------------------------------------------------------------
# The decimal codec: orjson's digits where they are repr's, repr elsewhere
# ---------------------------------------------------------------------------

def assert_reprs(values: np.ndarray) -> None:
    """`_reprs` writes the `repr` of every value, one token each."""
    got = _reprs(values)
    want = [repr(v).encode() for v in values.tolist()]
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
    assert len(got) == len(want) and not bad, \
        f"{len(bad)} tokens differ, first {values[bad[0]]!r}: {got[bad[0]]!r} != {want[bad[0]]!r}"


@pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
def test_reprs_of_every_16_bit_pattern(fmt):
    assert_reprs(bits_to_values(np.arange(1 << 16), fmt))


def test_reprs_of_random_binary32_and_binary64_patterns():
    rng = np.random.default_rng(2018)
    n = 1 << 19
    assert_reprs(bits_to_values(rng.integers(0, 1 << 32, n, dtype=np.uint64), FP32))
    # mostly outside the range of orjson's digits, so mostly repr's own
    assert_reprs(rng.integers(0, 1 << 64, n // 4, dtype=np.uint64).view(np.float64))
    # random binary64 significands at exponents 2^-15 .. 2^54, around and
    # inside the range where orjson's digits are taken
    bits = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    bits |= rng.integers(1023 - 15, 1023 + 55, n, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    assert_reprs(bits.view(np.float64))


def split_rows(values: np.ndarray, lengths) -> list[np.ndarray]:
    """`values` cut into consecutive rows of the given lengths, repeated, the
    last row taking what is left."""
    cuts = np.cumsum(np.resize(lengths, len(values)))
    return np.split(values, cuts[cuts < len(values)])


@pytest.fixture
def tables(monkeypatch):
    """The token tables the writes of a test build, in the order built."""
    built = []

    class Recorded(vecio._TokenTable):
        def __init__(self, fmt):
            super().__init__(fmt)
            built.append(self)

    monkeypatch.setattr(vecio, "_TokenTable", Recorded)
    return built


@pytest.fixture
def rendered(monkeypatch):
    """The length of each array that `_reprs` renders in a test."""
    lengths = []
    reprs = vecio._reprs
    monkeypatch.setattr(vecio, "_reprs", lambda v: lengths.append(len(v)) or reprs(v))
    return lengths


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
def test_text_rows_of_every_16_bit_pattern(tmp_path, tables, rendered, fmt, dtype):
    # every pattern twice, each time shuffled, so that rows mix zeros,
    # subnormals, infinities and NaNs with normal values, rows of one and
    # two values among them; the second time the table is warm
    rng = np.random.default_rng(7)
    bits = np.concatenate([rng.permutation(1 << 16), rng.permutation(1 << 16)])
    wide = bits_to_values(bits, fmt)
    values = vecio.bits_to_binary32(bits, fmt) if dtype == np.float32 else wide
    lengths = [1, 2, 7, 1, 300, 1000, 64]
    path = tmp_path / "v.txt"
    write_vectors(path, split_rows(values, lengths), fmt, binary=False)
    assert path.read_bytes() == repr_lines(split_rows(wide, lengths))
    # one table, which rendered each pattern once; a NaN may take the
    # fallback, where the carry quiets it
    assert len(tables) == 1
    table = tables[0]
    assert table.filled[bits[~np.isnan(wide)]].all()
    fills = [n for n in rendered if n > 1000]  # longer than any row
    assert sum(fills) == table.filled.sum()
    # a second file of the same values builds its own table
    write_vectors(path, split_rows(values[::-1], lengths), fmt, binary=False)
    assert path.read_bytes() == repr_lines(split_rows(wide[::-1], lengths))
    assert len(tables) == 2 and (tables[1].filled == table.filled).all()


@pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
def test_table_is_filled_on_demand(tmp_path, tables, rendered, fmt):
    rows = [np.array([1.5, -0.25, 3.0], np.float32), np.array([1.5], np.float32)]
    write_vectors(tmp_path / "v.txt", rows, fmt, binary=False)
    # one rendering of the three patterns met, none for the rows
    assert rendered == [3]
    assert (tmp_path / "v.txt").read_bytes() == repr_lines(rows)
    (table,) = tables
    assert table.filled.sum() == 3
    assert sorted(table.tokens[table.filled].tolist()) == [b"-0.25", b"1.5", b"3.0"]
    assert sum(token is not None for token in table.tokens) == 3
    # rows of several blocks: the later blocks find their patterns filled
    many = [rows[0]] * (2 * vecio._TEXT_BLOCK // 3 + 1)
    write_vectors(tmp_path / "v.txt", many, fmt, binary=False)
    assert (tmp_path / "v.txt").read_bytes() == repr_lines(many)
    assert rendered == [3, 3] and len(tables) == 2


@pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
@pytest.mark.parametrize("odd", [1.0 + 2.0 ** -30, 1e300, 0.1, 2.0 ** -140, 1e-5])
def test_a_row_with_one_value_the_format_lacks(tmp_path, tables, rendered, fmt, odd):
    within = round_array(np.linspace(-3.0, 3.0, 9), fmt)
    rows = [within, np.concatenate([within[:4], [odd], within[4:]]), within[:1],
            np.array([odd])]
    assert not np.array_equal(round_array(rows[1], fmt), rows[1])
    write_vectors(tmp_path / "v.txt", rows, fmt, binary=False)
    assert (tmp_path / "v.txt").read_bytes() == repr_lines(rows)
    # the fill, then the two rows that hold the value, if orjson would not
    # print them (`1e300`, a subnormal and `1e-05` are outside its fixed notation)
    fixed = 1e-4 <= odd < 1e16
    assert rendered == [9] + ([] if fixed else [10, 1])
    # the pattern the value rounds to is not filled for it
    assert tables[0].filled.sum() == 9


def test_fp32_text_rows_over_several_blocks(tmp_path):
    # random binary32 patterns, every class of value among them, in float32
    # and in float64 rows
    bits = np.random.default_rng(8).integers(0, 1 << 32, 3 * vecio._TEXT_BLOCK, dtype=np.uint32)
    with np.errstate(invalid="ignore"):  # a signaling NaN widens to a quiet one
        for rows in (split_rows(bits.view(np.float32), [1, 500, 33]),
                     split_rows(bits.view(np.float32).astype(np.float64), [1000, 2])):
            write_vectors(tmp_path / "v.txt", rows, FP32, binary=False)
            assert (tmp_path / "v.txt").read_bytes() == repr_lines(rows)


def test_reprs_at_the_fixed_notation_bounds():
    edges = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0),
             np.nextafter(1e16, np.inf), 5e-324, 2.2250738585072014e-308, 1e-310,
             np.finfo(np.float64).max, 1.0, 0.1]
    assert_reprs(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, *edges,
                           *(-np.array(edges))]))


# ---------------------------------------------------------------------------
# The text reader: float() of each token, through orjson where it agrees
# ---------------------------------------------------------------------------

def float_reference(path, raw: bytes):
    """The rows of a text file read with `float()` on each comma-separated
    token of each stripped, non-blank line (lines end at \\n, \\r\\n or a lone
    \\r), or the DataFormatError message it gives."""
    rows = []
    lines = re.split(r"\r\n|\r|\n", raw.decode("utf-8"))
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(np.array([float(tok) for tok in line.split(",")], dtype=np.float64))
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
    return rows or f"{path}: no vectors found"


JSON_NUMBER = st.from_regex(r"-?(0|[1-9][0-9]{0,19})(\.[0-9]{1,19})?([eE][+-]?[0-9]{1,3})?",
                            fullmatch=True)
PYTHON_ONLY = st.sampled_from(["-0", ".5", "+1", "1_0", "nan", "-inf", "1e400", "1e-400",
                               "-1e-400", "\u0663.\u0665", "\uff17", "1.", "-0e-0", "", "1 2",
                               "0x1", "null", "true", '"1"', "[1]"])


@st.composite
def text_file(draw):
    """The bytes of a text vector file: JSON numbers, with or without tokens
    only `float()` reads (or none reads), padded by spaces and tabs; lines
    joined by \\n, \\r\\n or a lone \\r, with blank lines, a trailing comma and
    a byte-order mark here and there."""
    token = st.one_of(JSON_NUMBER, st.floats().map(repr))
    if draw(st.booleans()):
        token = st.one_of(token, PYTHON_ONLY)
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    line = st.lists(st.tuples(pad, token, pad).map("".join), min_size=1, max_size=6).map(",".join)
    line = st.one_of(line, line.map(lambda text: text + ","), st.sampled_from(["", " ", "\t"]))
    breaks = st.sampled_from(["\n", "\r\n"]) if draw(st.booleans()) \
        else st.sampled_from(["\n", "\r\n", "\r"])
    parts = [p for ln in draw(st.lists(line, max_size=6)) for p in (ln, draw(breaks))]
    if parts and draw(st.booleans()):
        parts.pop()  # no line break after the last line
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return (bom + "".join(parts)).encode()


@given(text_file())
@example(b"-0,1,2,3\n-0\n")
@example(b"1,2,\r3,4\n")
@example(b"1,2\n3,4\r5,6\n7,8\n")
@example(b"1,2\r\r\n3\n")
@settings(max_examples=100, deadline=None)
def test_text_reader_equals_float_of_each_token(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.txt"
        path.write_bytes(raw)
        want = float_reference(path, raw)
        if isinstance(want, str):
            with pytest.raises(DataFormatError) as exc:
                read_vectors(path)
            assert str(exc.value) == want
            return
        got, fmt = read_vectors(path)
    assert fmt is None and len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and np.array_equal(g.view(np.int64), w.view(np.int64))


def test_json_numbers_are_read_by_orjson():
    raw = b"1,2.5,-3e-7\n\n 0.25 ,\t-0.0\r\n\t\r\n1E+5,-0e0,12345678901234567890123"
    rows = [_json_row(line) for line in raw.splitlines(keepends=True) if line.strip()]
    assert [len(row) for row in rows] == [3, 2, 3]


def test_integer_tokens_read_as_float():
    # orjson reads an integer token as an int, of any size; the row holds
    # float() of each token, correctly rounded past 2^53 and 2^64
    line = (b"9007199254740993,-9223372036854775808,18446744073709551615,"
            b"123456789012345678901234567890,7,-3,0,1e308,5e-324\n")
    want = np.array([float(tok) for tok in line.split(b",")])
    row = _json_row(line)
    assert row.dtype == np.float64 and row.tobytes() == want.tobytes()


@pytest.mark.parametrize("raw, sent", [
    *[(raw, [raw]) for raw in (b"-0,1\n", b"1,-0", b"1,-0 ,2\n", b".5,1\n", b"+1,1\n", b"1_0,1\n",
                               b"nan,1\n", b"1e400,1\n", b"\xef\xbb\xbf1,2\n", b"1,2,\n", b"\x0c1,2\n")],
    (b"1,2\r,3,4\n", [b",3,4\n"]),
    (b"1,2\n3,\xc2\xa04\n5,6\n", [b"3,\xc2\xa04\n"]),
    (b"1,2\r3,4\r\r\n.5,6\r7\n", [b".5,6\r"]),
], ids=repr)
def test_other_syntax_is_left_to_float(raw, sent, tmp_path, monkeypatch):
    # orjson leaves such a line to float(); a lone \r or a non-ASCII byte
    # sends only its own line there
    read = []
    monkeypatch.setattr(vecio, "_float_row",
                        lambda path, lineno, line: read.append(line) or np.zeros(1))
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    read_vectors(path)
    assert read == sent


def test_one_odd_line_leaves_the_others_to_orjson(tmp_path, monkeypatch):
    # a no-break space on line 50 and a lone \r in line 150 of 200 JSON
    # lines: the \r ends a line of its own, so the file has 201 lines, and
    # only the line with the non-ASCII byte is read by float()
    lines = [b",".join(b"%r" % (k + j / 8) for j in range(5)) for k in range(200)]
    lines[49] = lines[49].replace(b",", b",\xc2\xa0", 1)
    lines[149] = lines[149].replace(b",", b"\r", 1)
    raw = b"\n".join(lines) + b"\n"
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    want = float_reference(path, raw)
    read = []
    float_row = vecio._float_row
    monkeypatch.setattr(vecio, "_float_row",
                        lambda *args: read.append(args[1:]) or float_row(*args))
    got, _ = read_vectors(path)
    assert read == [(50, lines[49] + b"\n")]
    assert len(got) == len(want) == 201 and all(
        np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))


@pytest.mark.parametrize("raw, line, message", [
    (b"1,2\n3,oops\n4,\xff5\n", 2, "could not convert string to float: 'oops'"),
    (b"1,2\n\xff\n3,oops\n", 2, "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                                  "position 0: invalid start byte"),
    (b"1,2\r3,4\r5,\xe2\x82\n", 3, "not UTF-8 text: 'utf-8' codec can't decode bytes in "
                                      "position 2-3: invalid continuation byte"),
], ids=["bad-token-first", "byte-first", "after-lone-cr"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, raw, line, message):
    # bad lines are reported in file order, a byte that is not UTF-8 too
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError) as exc:
        read_vectors(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize("bad", [False, True], ids=["rows", "error"])
def test_one_float_only_line_is_read_alone(tmp_path, monkeypatch, bad):
    # a `.5` line goes to float() on its own: the rows, and the message of a
    # bad token on a later line, are those of float() on every token
    lines = [b"0.25,-1e-3,3", b".5,2", b"", b"1,-0.0,7e2"] + ([b"4,oops"] if bad else [])
    raw = b"\n".join(lines * 50) + b"\n"
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    want = float_reference(path, raw)
    read = []
    float_row = vecio._float_row
    monkeypatch.setattr(vecio, "_float_row",
                        lambda *args: read.append(args[1]) or float_row(*args))
    if bad:
        with pytest.raises(DataFormatError) as exc:
            read_vectors(path)
        assert (str(exc.value), read) == (want, [2, 5])
        return
    got, _ = read_vectors(path)
    assert read == list(range(2, 200, 4))
    assert len(got) == len(want) and all(
        np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))


def test_binary_rows_are_views_of_one_array(tmp_path):
    path = tmp_path / "v.bin"
    rows = [round_array(np.arange(5.0) * k, BF16) for k in range(4)]
    write_vectors(path, rows, BF16, binary=True)
    back, fmt = read_vectors(path)
    assert fmt is BF16 and all(np.array_equal(a, b) for a, b in zip(back, rows))
    assert all(v.base is not None and v.base is back[0].base for v in back)
    assert isinstance(back, np.ndarray) and back.shape == (4, 5)


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_binary_write_of_a_transposed_array(tmp_path, fmt):
    # a Fortran-order (n, d) array is written row by row, as its C copy is
    x = round_array(np.arange(12.0).reshape(4, 3) - 5.5, fmt)
    write_vectors(tmp_path / "c.bin", x, fmt, binary=True)
    write_vectors(tmp_path / "f.bin", np.asfortranarray(x), fmt, binary=True)
    write_vectors(tmp_path / "t.bin", x.T.copy().T, fmt, binary=True)
    want = (tmp_path / "c.bin").read_bytes()
    assert (tmp_path / "f.bin").read_bytes() == want == (tmp_path / "t.bin").read_bytes()


def test_a_failed_write_leaves_no_old_bytes(tmp_path):
    # a write that fails partway removes the file it opened: neither new
    # bytes followed by old ones nor a short file is left
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n" * 1000)

    def chunks():
        yield b"new\n" * 10
        raise OSError(28, "No space left on device")

    with pytest.raises(DataFormatError, match="cannot write .*No space left"):
        vecio.write_file(path, chunks())
    assert not path.exists()


def test_a_failed_write_removes_only_a_regular_file(tmp_path, monkeypatch):
    # a device stays; so does a file that could not be opened
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda *a, **k: unlinked.append(a))

    def chunks():
        yield b"new\n"
        raise OSError(28, "No space left on device")

    with pytest.raises(DataFormatError, match="No space left"):
        vecio.write_file(os.devnull, chunks())
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(vecio, "open", refuse, raising=False)
    with pytest.raises(DataFormatError, match="Permission denied"):
        vecio.write_file(path, [b"new\n"])
    assert (unlinked, path.read_bytes()) == ([], b"old\n")


# ---------------------------------------------------------------------------
# The sidecar
# ---------------------------------------------------------------------------

def reference_sidecar(batches) -> str:
    """The sidecar as `json.JSONEncoder(allow_nan=False)` writes it, with
    null for each NaN or infinite value."""
    encode = json.JSONEncoder(allow_nan=False).encode
    lines = {}
    for rows, res in batches:
        d = res.z.shape[1]
        mean, m, traj = (np.where(np.isfinite(v), v, None).tolist()
                         for v in (res.mean, res.m, res.a_trajectory))
        steps, converged = res.steps.tolist(), res.converged.tolist()
        for j, i in enumerate(rows):
            lines[i] = encode({"index": i, "d": d, "mean": mean[j], "m": m[j],
                               "a_trajectory": traj[j][:steps[j] + 1], "steps": steps[j],
                               "converged": converged[j]}) + "\n"
    return "".join(lines[i] for i in sorted(lines))


def make_batch(d, mean, m, traj, steps, converged) -> BatchNormResult:
    """A BatchNormResult with the given diagnostics; its outputs are zeros."""
    n = len(mean)
    steps = np.asarray(steps, dtype=np.int64)
    traj = np.asarray(traj, dtype=np.float64).reshape(n, -1)
    return BatchNormResult(np.zeros((n, d)), np.asarray(mean, dtype=np.float64),
                           np.asarray(m, dtype=np.float64), traj, steps,
                           np.asarray(converged, dtype=bool))


def written_sidecar(batches) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "z.meta.jsonl"
        write_sidecar(path, batches)
        return path.read_bytes().decode("ascii")


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_sidecar_edge_cases_equal_json_encoder(fmt):
    tiny, tiny3 = subnormals(fmt)
    big = max_finite(fmt)
    inexact = [0.1, 1.0 + 2.0 ** -30, 1e-300]
    # one row with a 1-entry trajectory, one with 51 entries; a second batch
    # of another d interleaved in file order
    traj = np.full((2, 51), np.nan)
    traj[0, 0] = -0.0
    traj[1] = round_array(np.linspace(0.01, 2.0, 51), fmt)
    traj[1, 7:10] = [tiny, -tiny3, np.inf]
    traj[1, 20:23] = inexact
    first = make_batch(4, [-0.0, np.nan], [big, tiny], traj, [0, 50], [True, False])
    second = make_batch(1, [np.inf, 0.5, -np.inf], [0.0, 2.0 ** 60, 0.1],
                        [[1.0, 0.5], [-np.nan, 0.25], [inexact[1], np.inf]], [1, 1, 0],
                        [False, True, True])
    batches = [([0, 3], first), ([4, 1, 2], second)]
    assert written_sidecar(batches) == reference_sidecar(batches)


@st.composite
def sidecar_case(draw):
    """A format and one to three batches of sidecar diagnostics, their rows
    spread over the file in a random order."""
    fmt = draw(st.sampled_from(FORMATS))
    tiny, tiny3 = subnormals(fmt)
    value = st.one_of(
        st.floats(allow_subnormal=True).map(lambda v: float(round_array(v, fmt))),
        st.floats(min_value=1.0, max_value=max_finite(fmt))
        .map(lambda v: float(round_array(v, fmt))),
        st.sampled_from([-0.0, 0.0, tiny, -tiny3, max_finite(fmt), np.inf, -np.inf, np.nan]),
        st.floats(),  # any binary64 value, most of them inexact in the format
    )
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    order = draw(st.permutations(range(sum(sizes))))
    batches, start = [], 0
    for n in sizes:
        steps = draw(st.lists(st.sampled_from([0, 50]) | st.integers(0, 50),
                              min_size=n, max_size=n))
        width = max(steps) + 1
        batches.append((list(order[start:start + n]), make_batch(
            draw(st.integers(1, 1024)),
            draw(st.lists(value, min_size=n, max_size=n)),
            draw(st.lists(value, min_size=n, max_size=n)),
            draw(st.lists(value, min_size=n * width, max_size=n * width)),
            steps, draw(st.lists(st.booleans(), min_size=n, max_size=n)))))
        start += n
    return fmt, batches


@given(sidecar_case())
@settings(max_examples=100, deadline=None)
def test_sidecar_lines_equal_json_encoder(case):
    fmt, batches = case
    assert written_sidecar(batches) == reference_sidecar(batches)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
def test_a_file_without_a_size_is_read_whole(tmp_path, binary):
    # a named pipe reports size 0: its bytes are read to the end all the same
    rows = np.array([[1.5, -2.0, 0.25], [3.0, -0.0, 7.0]])
    src, pipe = tmp_path / "v", tmp_path / "pipe"
    write_vectors(src, rows, BF16, binary=binary)
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(src.read_bytes()))
    writer.start()
    try:
        got, fmt = read_vectors(pipe)
    finally:
        writer.join()
    assert fmt is (BF16 if binary else None)
    assert np.array_equal(np.array(got), rows)
