"""Shared fixtures and measure-building strategies."""

from __future__ import annotations

import importlib.util
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
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


def affine_pushforward(measure: fp.SpectralMeasure, scale: float,
                       shift: float = 0.0) -> fp.SpectralMeasure:
    """Pushforward under x -> scale * x + shift (scale nonzero).

    Energies transform as E -> E + log|scale|; a negative scale also
    reflects the measure, which leaves energies unchanged.  Moved atoms
    are no longer the named family's, so ``family`` is cleared unless
    the map is the identity.
    """
    if scale == 0.0:
        raise ValueError("scale must be nonzero")
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise ValueError(f"scale and shift must be finite, got {scale!r}, "
                         f"{shift!r}")

    def mv(x: float) -> float:
        return scale * x + shift

    a, b = measure.support
    support = (mv(a), mv(b)) if scale > 0 else (mv(b), mv(a))
    atoms = tuple(fp.Atom(mv(at.location), at.weight) for at in measure.atoms)
    d = measure.diffuse
    if d.kind == "empty":
        diffuse = d
    elif d.kind in ("uniform", "arcsine"):
        lo, hi = d.interval()
        lo2, hi2 = (mv(lo), mv(hi)) if scale > 0 else (mv(hi), mv(lo))
        diffuse = fp.DiffusePart(d.kind, d.mass, {"lo": lo2, "hi": hi2})
    elif d.kind == "semicircle":
        diffuse = fp.DiffusePart(
            "semicircle", d.mass,
            {"center": mv(float(d.params["center"])),
             "radius": abs(scale) * float(d.params["radius"])})
    else:
        knots = d.params["knots"]
        if scale > 0:
            new = [[mv(float(x)), float(c)] for x, c in knots]
        else:
            # reflection reverses the points; cumulative masses flip to
            # mass - c so they stay strictly increasing from 0
            new = [[mv(float(x)), d.mass - float(c)]
                   for x, c in reversed(knots)]
            new[0][1] = 0.0
            new[-1][1] = d.mass
        diffuse = fp.DiffusePart("piecewise_linear_cdf", d.mass,
                                 {"knots": new})
    tail_loc = measure.truncated_tail_location
    moved = not (scale == 1.0 and shift == 0.0)
    return fp.SpectralMeasure(
        support=support, atoms=atoms, diffuse=diffuse,
        family=None if moved else measure.family,
        family_tol=None if moved else measure.family_tol,
        truncated_tail=measure.truncated_tail,
        truncated_tail_location=None if tail_loc is None else mv(tail_loc))


def distinct(spectrum) -> dict:
    """A raw spectrum in the one form the pair kernels take: the keyword
    arguments ``values`` (sorted and distinct) and ``counts``."""
    values, counts = np.unique(np.asarray(spectrum, dtype=float),
                               return_counts=True)
    return {"values": values, "counts": counts}


def log_ball_volume(k: int) -> float:
    """log of the Lebesgue volume of the radius-sqrt(k) ball in R^{k^2}.

    log L_k = (k^2/2) log(pi k) - log Gamma(k^2/2 + 1).  The normalized
    quantity k^{-2} log L_k + (1/2) log k tends to (1/2) log 2 pi e.
    """
    half_dim = 0.5 * k * k
    return half_dim * math.log(math.pi * k) - math.lgamma(half_dim + 1.0)


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


def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from its file and only read.

    It is registered under its own name: ``oracle`` imports ``workloads``
    by name, and dataclasses resolve their module.
    """
    if name not in sys.modules:
        path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


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


# ---------------------------------------------------------------------------
# Regularized-energy references: log((y - z)^2 + eps) = 2 Re log(y - z + i d)
# with d = sqrt(eps).


def uniform_regularized_energy(width: float, eps: float) -> float:
    """The regularized energy of the uniform law on an interval of the
    given width: 2 log w + F(sqrt(eps) / w), with F(delta) the integral
    of log(t^2 + delta^2) against the triangular density of y - z on
    [-1, 1], in mpmath."""
    with mpmath.workdps(40):
        delta = mpmath.sqrt(eps) / width
        f = (mpmath.log(1 + delta ** 2) - 3
             + 4 * delta * mpmath.atan(1 / delta)
             - delta ** 2 * mpmath.log1p(delta ** -2))
        return float(2 * mpmath.log(width) + f)


def chebyshev_reference(kind: str, radius: float, eps: float,
                        n: int = 2 ** 21) -> float:
    """The regularized energy of the semicircle or arcsine law of the
    given radius, as an n-node Gauss-Chebyshev sum (second or first kind)
    of 2 Re of its complex potential U at x + i sqrt(eps), in numpy.

    U(w) = log((w + s) / 2), plus w / (w + s) - 1/2 for the semicircle,
    with s = sqrt(w - r) sqrt(w + r).  The nodes are symmetric about 0,
    and so is the integrand, so only the first half is summed.
    """
    k = np.arange(1, n // 2 + 1)
    if kind == "semicircle":
        theta = k * np.pi / (n + 1)
        weights = 2.0 / (n + 1) * np.sin(theta) ** 2
    else:
        theta = (2 * k - 1) * np.pi / (2 * n)
        weights = np.full(k.size, 1.0 / n)
    w = radius * np.cos(theta) + 1j * math.sqrt(eps)
    s = np.sqrt(w - radius) * np.sqrt(w + radius)
    u = np.log(0.5 * w + 0.5 * s).real
    if kind == "semicircle":
        u += (w / (w + s)).real - 0.5
    return float(4.0 * np.dot(weights, u))
