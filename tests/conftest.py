"""Shared fixtures and measure-building strategies."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import freeprob as fp
from freeprob.cli import main as cli_main


@pytest.fixture(scope="session")
def uniform01():
    return fp.uniform_measure(0.0, 1.0)


@pytest.fixture(scope="session")
def arcsine2():
    return fp.arcsine_measure(-2.0, 2.0)


@pytest.fixture(scope="session")
def semicircle2():
    return fp.semicircle_measure(0.0, 2.0)


@pytest.fixture(scope="session")
def mixed_measure():
    """1/2 point mass at 0 plus 1/2 uniform on [1, 2].

    Closed-form energy: the cross term integrates log x over [1, 2]
    (2 log 2 - 1, weighted by 2 * 1/4), the diffuse square contributes
    (1/4)(-3/2), so E = log 2 - 7/8.
    """
    return fp.SpectralMeasure(
        support=(0.0, 2.0),
        atoms=(fp.Atom(0.0, 0.5),),
        diffuse=fp.DiffusePart("uniform", 0.5, {"lo": 1.0, "hi": 2.0}),
    )


MIXED_ENERGY = math.log(2.0) - 7.0 / 8.0


@pytest.fixture(scope="session")
def example42():
    return fp.example42_measure(1e-10)


@pytest.fixture(scope="session")
def two_atoms():
    return fp.atomic_measure([(0.0, 0.5), (1.0, 0.5)])


# ---------------------------------------------------------------------------
# Hypothesis strategies.  Weights are dyadic so masses sum exactly in floats.


def dyadic_weights(max_atoms: int = 4) -> st.SearchStrategy[list[float]]:
    """Lists of weights c_i = n_i / 64 with sum strictly below 1."""

    def to_floats(nums: list[int]) -> list[float]:
        return [n / 64.0 for n in nums]

    return (
        st.lists(st.integers(min_value=1, max_value=32), min_size=1,
                 max_size=max_atoms)
        .filter(lambda nums: sum(nums) < 64)
        .map(to_floats)
    )


@st.composite
def atomic_plus_uniform(draw) -> fp.SpectralMeasure:
    """Random finitely atomic + uniform remainder, total mass exactly 1."""
    weights = draw(dyadic_weights())
    n = len(weights)
    locations = sorted(draw(st.lists(
        st.integers(min_value=-40, max_value=40).map(lambda v: v / 8.0),
        min_size=n, max_size=n, unique=True)))
    rest = 1.0 - math.fsum(weights)
    atoms = tuple(fp.Atom(loc, w) for loc, w in zip(locations, weights))
    lo = min(locations) - 1.0
    hi = max(locations) + 1.0
    return fp.SpectralMeasure(
        support=(lo, hi),
        atoms=atoms,
        diffuse=fp.DiffusePart("uniform", rest, {"lo": lo, "hi": hi}),
    )


@st.composite
def purely_atomic(draw) -> fp.SpectralMeasure:
    """Random purely atomic probability measure with dyadic weights."""
    numerators = draw(
        st.lists(st.integers(min_value=1, max_value=32), min_size=2,
                 max_size=5).filter(lambda nums: sum(nums) <= 64))
    n = len(numerators)
    locations = sorted(draw(st.lists(
        st.integers(min_value=-40, max_value=40).map(lambda v: v / 8.0),
        min_size=n, max_size=n, unique=True)))
    total = sum(numerators)
    # Top up the last numerator so the masses sum to exactly 1.
    numerators = list(numerators)
    numerators[-1] += 64 - total
    weights = [v / 64.0 for v in numerators]
    return fp.atomic_measure(list(zip(locations, weights)))


# ---------------------------------------------------------------------------
# CLI runner.


class CliResult:
    def __init__(self, code: int, stdout: str, stderr: str):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    @property
    def json(self):
        return json.loads(self.stdout)


def run_cli(*argv: str) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse --version / --help
            code = int(exc.code or 0)
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="session")
def cli():
    return run_cli


@pytest.fixture()
def measure_file(tmp_path):
    def write(measure: fp.SpectralMeasure, name: str = "measure.json") -> str:
        path = tmp_path / name
        fp.dump_measure(measure, str(path))
        return str(path)

    return write


def selberg_exact(k: int) -> Fraction:
    """Exact Selberg value prod_{j=0}^{k-1} j!^2 (j+1)! / (k+j)!.

    This is the textbook product form of the squared-Vandermonde
    integral over the unit cube, independent of the log-Gamma aggregate
    the library evaluates.
    """
    fact = [Fraction(1)]
    for j in range(1, 2 * k):
        fact.append(fact[-1] * j)
    value = Fraction(1)
    for j in range(k):
        value *= fact[j] ** 2 * fact[j + 1] / fact[k + j]
    return value
