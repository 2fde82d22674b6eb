import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import halfwave
from halfwave import GridSpec, TorusField, fast_transform_length


def test_fast_transform_length_is_5_smooth():
    for n in (1, 7, 17, 129, 513):
        m = fast_transform_length(n)
        assert m >= n
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        assert r == 1


def test_fast_transform_length_rejects_lengths_below_one():
    """At n <= 0 the 5-smooth search never returned (every prime divides
    0), so the calls run in a child process that a timeout ends."""
    code = ("from halfwave.fields import GridSpec, _AnalyticGrid, fast_transform_length\n"
            "for call in (lambda: fast_transform_length(0), lambda: fast_transform_length(-3),\n"
            "             lambda: GridSpec.with_padding(-1), lambda: _AnalyticGrid.with_padding(-1)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(halfwave.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("a transform length must be at least 1") == 4


def test_grid_padding_invariant():
    g = GridSpec.with_padding(16)
    assert g.padded_len >= 4 * 16 + 1
    assert g.n_coeff == 33
    with pytest.raises(ValueError):
        GridSpec(16, 64)  # below 4N+1
    with pytest.raises(ValueError):
        GridSpec(0, 10)


def test_modes_ordering():
    g = GridSpec.with_padding(3)
    assert list(g.modes()) == [-3, -2, -1, 0, 1, 2, 3]


def test_field_length_and_finiteness(grid16):
    with pytest.raises(ValueError):
        TorusField(grid16, np.zeros(7, dtype=complex))
    bad = np.zeros(grid16.n_coeff, dtype=complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        TorusField(grid16, bad)


def test_field_equality_and_immutability(grid16):
    a = TorusField.from_modes(grid16, {1: 1.0, -2: 2j})
    b = TorusField.from_modes(grid16, {1: 1.0, -2: 2j})
    c = TorusField.from_modes(grid16, {1: 1.0})
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        a.coeff[0] = 1.0


def test_field_mode_access(grid16):
    f = TorusField.from_modes(grid16, {3: 2.5, -1: 1j})
    assert f.mode(3) == 2.5
    assert f.mode(-1) == 1j
    assert f.mode(100) == 0


def test_from_modes_rejects_out_of_band(grid16):
    with pytest.raises(ValueError):
        TorusField.from_modes(grid16, {17: 1.0})


def test_field_algebra(grid16):
    f = TorusField.from_modes(grid16, {1: 1.0})
    g = TorusField.from_modes(grid16, {2: 2.0})
    h = f + 2 * g - f
    assert h.mode(2) == 4.0
    assert (-h).mode(2) == -4.0


def test_grid_mismatch_rejected():
    f = TorusField.zeros(GridSpec.with_padding(4))
    g = TorusField.zeros(GridSpec.with_padding(5))
    with pytest.raises(ValueError):
        f + g
