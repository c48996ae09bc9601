"""Text output of the vector files: the repr table of the 16-bit formats."""

import numpy as np
import pytest

from iterl2norm.fpformat import BF16, FP16, round_array
from iterl2norm.vecio import read_vectors, write_vectors


def repr_lines(rows) -> str:
    return "".join(",".join(map(repr, np.asarray(r, dtype=np.float64).tolist())) + "\n"
                   for r in rows)


@pytest.mark.parametrize("fmt", [FP16, BF16], ids=["fp16", "bf16"])
def test_text_rows_equal_per_element_repr(tmp_path, fmt):
    rng = np.random.default_rng(12)
    # subnormals of the format: 2^-24 and 3 * 2^-24 for fp16, 2^-133 for bf16
    tiny = (2.0 ** -24, 3 * 2.0 ** -24) if fmt is FP16 else (2.0 ** -133, 3 * 2.0 ** -133)
    rows = [round_array(rng.uniform(-4, 4, d), fmt) for d in (1, 7, 300, 64)]
    rows.append(np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, *tiny, 65504.0, -1.0]))
    # values the format cannot hold are written as given, not rounded
    rows.append(np.array([0.1, 1.0 + 2.0 ** -30, 1e300, -1e-300, 2.0 ** -26]))
    rows.append(np.array([0.1]))
    assert not np.array_equal(round_array(rows[-1], fmt), rows[-1])
    path = tmp_path / "v.txt"
    write_vectors(path, rows, fmt, binary=False)
    assert path.read_text() == repr_lines(rows)
    back, _ = read_vectors(path)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(back, rows))
