"""The CSV writer's numpy cell formatter against ``repr``, cell by cell.

Each test writes one-column blocks through ``_write_csv`` and through the
row-by-row ``repr`` writer of ``oracles``, so every line of the two files
is one cell.  Every int and float block holds at least ``REPR_CELLS``
cells, so that it reaches the numpy formatter.  Float cells in ``repr``'s
positional range (1e-4 <= |x| < 1e16, and ±0.0) are built from an exact
shortest-digit search; the rest (nan, ±inf, subnormals, the exponent form,
exact ties between two shortest candidates) and -2^63 take ``repr`` itself.
Either way the bytes must be ``repr``'s.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refprice.harness import REPR_CELLS, _write_csv

from oracles import write_csv_rowwise


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _assert_cells_are_repr(out, columns):
    blocks = [[np.asarray(column)] for column in columns]
    _write_csv(out / "numpy.csv", {}, "h", blocks)
    write_csv_rowwise(out / "repr.csv", {}, "h", blocks)
    got = (out / "numpy.csv").read_text().splitlines()
    want = (out / "repr.csv").read_text().splitlines()
    assert len(got) == len(want)
    mismatches = [(w, g) for w, g in zip(want, got) if w != g]
    assert mismatches == []


def _positional_bits():
    """A float64 bit pattern of either sign with 2^-15 <= |x| < 2^54, the
    binades that meet the positional range."""
    return st.builds(
        lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
        st.integers(0, 1),
        st.integers(1023 - 15, 1023 + 53),
        st.integers(0, 2**52 - 1),
    )


# Three draws in four from the positional binades, one from every pattern.
FLOAT_BITS = st.one_of(_positional_bits(), _positional_bits(), _positional_bits(), st.integers(0, 2**64 - 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(bits=st.lists(FLOAT_BITS, min_size=REPR_CELLS, max_size=4 * REPR_CELLS))
def test_float_cells_are_repr(tmp_path_factory, bits):
    column = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_cells_are_repr(tmp_path_factory.getbasetemp(), [column])


def _neighbours(values, ulps):
    """``values`` and the floats up to ``ulps`` steps above and below each."""
    values = np.asarray(values, dtype=float)
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [up, down]
    return np.concatenate(out)


EDGE_FLOATS = [
    0.0, -0.0, math.nan, _from_bits(0x7FF8000000000001), math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, 9.999999999999999e-05, 1e-4, 0.1, 0.5, 1.0,
    4.0 / 3.0, 9999999999999998.0, 1e16,
    # Exactly halfway between two 17-digit candidates: repr rounds to even.
    1125899906842624.25, 1125899906842624.75, 123456789012345.125,
]


def test_edge_floats_are_repr(tmp_path):
    """Edges of the positional range and of the float64 format and every
    power of two with its neighbours, of both signs, and k * 10^j (k <
    5,000, j from -8 to 16) with 2 neighbours each side."""
    powers = _neighbours([2.0**k for k in range(-1074, 1024)], 1)
    k = np.arange(1, 5000, dtype=float)
    decimal = _neighbours(
        np.concatenate([k * 10.0**j if j >= 0 else k / 10.0 ** -j for j in range(-8, 17)]), 2
    )
    edges = np.concatenate([EDGE_FLOATS, powers])
    _assert_cells_are_repr(tmp_path, [edges, -edges, decimal])


def test_int_cells_are_repr(tmp_path):
    """int64 cells, the extremes among them: the powers of ten and their
    neighbours, of both signs."""
    powers = [10**k + d for k in range(19) for d in (-1, 0, 1)] + [2**62, 2**63 - 2]
    ints = np.array([0, 2**63 - 1] + powers + [-v for v in powers] + [-(2**63)], dtype=np.int64)
    _assert_cells_are_repr(tmp_path, [ints])


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint64, bool])
def test_other_dtypes_are_repr(tmp_path, dtype):
    column = (np.arange(REPR_CELLS) * 5 % 7 / 3).astype(dtype)
    _assert_cells_are_repr(tmp_path, [column])
