"""Vector files and the normalize sidecar: the repr table of the 16-bit
formats, binary rows read in one pass, and sidecar lines equal to what
`json.JSONEncoder` writes."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterl2norm.fpformat import BF16, FP16, FP32, round_array
from iterl2norm.norm_core import BatchNormResult
from iterl2norm.vecio import read_vectors, write_sidecar, write_vectors

FORMATS = [FP32, FP16, BF16]


def repr_lines(rows) -> str:
    return "".join(",".join(map(repr, np.asarray(r, dtype=np.float64).tolist())) + "\n"
                   for r in rows)


def subnormals(fmt):
    """The smallest subnormal of the format and three times it."""
    tiny = 2.0 ** fmt.quantum_exp
    return tiny, 3 * tiny


@pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
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
    assert path.read_text() == repr_lines(rows)
    back, _ = read_vectors(path)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(back, rows))


def test_binary_rows_are_views_of_one_array(tmp_path):
    path = tmp_path / "v.bin"
    rows = [round_array(np.arange(5.0) * k, BF16) for k in range(4)]
    write_vectors(path, rows, BF16, binary=True)
    back, fmt = read_vectors(path)
    assert fmt is BF16 and all(np.array_equal(a, b) for a, b in zip(back, rows))
    assert all(v.base is not None and v.base is back[0].base for v in back)


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
    return BatchNormResult(np.zeros((n, d)), np.zeros((n, d)),
                           np.asarray(mean, dtype=np.float64), np.asarray(m, dtype=np.float64),
                           traj, traj.shape[1] - 1, steps, np.asarray(converged, dtype=bool))


def written_sidecar(fmt, batches) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "z.meta.jsonl"
        write_sidecar(path, fmt, batches)
        return path.read_text()


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
    assert written_sidecar(fmt, batches) == reference_sidecar(batches)


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
    assert written_sidecar(fmt, batches) == reference_sidecar(batches)
