"""Vector files and the normalize sidecar: every decimal written is the
`repr` of its float64, every text file reads as `float()` of each token,
binary rows are read in one pass, and sidecar lines equal what
`json.JSONEncoder` writes."""

import json
import re
import tempfile
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

FORMATS = [FP32, FP16, BF16]


def repr_lines(rows) -> bytes:
    return "".join(",".join(map(repr, np.asarray(r, dtype=np.float64).tolist())) + "\n"
                   for r in rows).encode()


def subnormals(fmt):
    """The smallest subnormal of the format and three times it."""
    tiny = 2.0 ** fmt.quantum_exp
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
    """`_reprs` writes the `repr` of every value, joined by commas."""
    got = _reprs(values).split(b",")
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


@pytest.mark.parametrize("raw", [
    b"-0,1\n", b"1,-0", b"1,-0 ,2\n", b".5,1\n", b"+1,1\n", b"1_0,1\n", b"nan,1\n",
    b"1e400,1\n", b"1,2\r,3,4\n", b"\xef\xbb\xbf1,2\n", b"1,2,\n", b"\x0c1,2\n",
])
def test_other_syntax_is_left_to_float(raw, tmp_path, monkeypatch):
    # orjson leaves such a line to float(); a lone \r or a non-ASCII byte
    # leaves the whole file to it
    read = []
    monkeypatch.setattr(vecio, "_float_row",
                        lambda path, lineno, line: read.append(line) or np.zeros(1))
    monkeypatch.setattr(vecio, "_read_float_rows",
                        lambda path, raw: read.append(raw) or [np.zeros(1)])
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    read_vectors(path)
    assert read == [raw if raw in (b"1,2\r,3,4\n", b"\xef\xbb\xbf1,2\n") else raw.decode()]


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
    # the old file is emptied before the first chunk, so a write that fails
    # partway leaves a short file, never new bytes followed by old ones
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n" * 1000)

    def chunks():
        yield b"new\n" * 10
        raise OSError(28, "No space left on device")

    with pytest.raises(DataFormatError, match="cannot write .*No space left"):
        vecio.write_file(path, chunks())
    assert path.read_bytes() == b"new\n" * 10


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
    big = fmt.max_finite
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
        st.floats(min_value=1.0, max_value=fmt.max_finite)
        .map(lambda v: float(round_array(v, fmt))),
        st.sampled_from([-0.0, 0.0, tiny, -tiny3, fmt.max_finite, np.inf, -np.inf, np.nan]),
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
