import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from halfwave import GridSpec, TorusField
from halfwave.experiments import EXPERIMENTS

#: one profile for every property test: fixed examples, so the suite's
#: outcome does not vary between runs; each test sets its max_examples
settings.register_profile("halfwave", deadline=None, derandomize=True, database=None)
settings.load_profile("halfwave")


@pytest.fixture
def grid16():
    return GridSpec.with_padding(16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_field(grid, rng, support=None, decay=1.5, scale=1.0):
    """Seeded random field; support defaults to the full band."""
    n = grid.max_mode
    if support is None:
        support = n
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    for k in range(-support, support + 1):
        coeff[k + n] = (
            scale * (rng.standard_normal() + 1j * rng.standard_normal())
            * (1.0 + abs(k)) ** (-decay)
        )
    return TorusField(grid, coeff)


def random_analytic_field(grid, rng, support=None, decay=2.0, scale=1.0):
    n = grid.max_mode
    if support is None:
        support = n
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    for k in range(0, support + 1):
        coeff[k + n] = scale * (1.0 + k) ** (-decay) * np.exp(2j * np.pi * rng.random())
    return TorusField(grid, coeff)


def gauge_transform(u, t, eps, q0):
    """Multiply by the phase e^{2 i t eps^2 q0}.

    Maps solutions of the scaled half-wave flow to solutions of the
    gauged flow with the same q0 = ||u(0)||_{L2}^2, and is an isometry
    for every norm of the package.
    """
    return TorusField(u.grid, u.coeff * np.exp(2j * t * eps**2 * q0))


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_csv_columns():
    """README's CSV column table: {experiment: [column, ...]}."""
    rows = re.findall(r"^\| *(\w+) *\| *([a-z0-9_, ]+?) *\|$", README.read_text(), re.M)
    return {name: cols.split(", ") for name, cols in rows if name in EXPERIMENTS}


def readme_quick_tour():
    """The python block of README's "Library quick tour" section."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def readme_cli_names():
    """README's command-line names: the flags of its usage block (without
    the leading --) and the backticked keys of its config-key list."""
    text = README.read_text()
    usage = re.search(r"^halfwave <experiment>(.*?)^```$", text, re.S | re.M).group(1)
    keys = re.search(r"the keys are (.*?);", text, re.S).group(1)
    return re.findall(r"\[--([a-z-]+)", usage), re.findall(r"`(\w+)`", keys)
