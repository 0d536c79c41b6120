"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the test outcomes.
"""

import math

import numpy as np
import pytest

from conducta.bmo import bmo_norm, lemma1_ratio
from conducta.bounds import BoundConfig, hs_upper, theorem1_upper, trivial_upper
from conducta.cell_solver import (
    build_optimal_potential,
    constructive_value,
    solve_effective_tensor,
    traceless_hessian,
)
from conducta.cli import main
from conducta.microstructure import (
    generate_checkerboard,
    generate_laminate,
    generate_random,
)
from conducta.phases import PhaseSet, oscillation_closed_form, shifted_harmonic_L

from conftest import hessian_and_laplacian, level_labels, random_phase_set


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_closed_form_regression():
    ps = PhaseSet.from_pairs((1.0, 2.0, 5.0), (0.4, 0.4, 0.2), 3)
    hs = hs_upper(ps).value
    # hand evaluation: -10 + (0.4/11 + 0.4/12 + 0.2/15)^-1 = 280/137
    assert abs(hs - 2.0437956204379564) < 1e-9

    refined = theorem1_upper(ps, 2.0, BoundConfig(C=1.0)).value  # the three-phase refinement, S = sigma_2
    # hand evaluation of the refined three-phase formula at S = sigma_2:
    #   -(n-1) s2 + (sum mu_i (s_i + (n-1) s2)^-1)^-1
    #   + C (s3-s1)^2 (s3-s2) mu3 (1 - ln mu3)^2 / (s1 + (n-1) s2)^2
    hand = (
        -4.0
        + 1.0 / (0.4 / 5 + 0.4 / 6 + 0.2 / 9)
        + 16.0 * 3.0 * 0.2 * (1 - math.log(0.2)) ** 2 / 25.0
    )
    assert abs(hand - 4.535772459616748) < 1e-12
    assert abs(refined - hand) < 1e-9
    _ok(1, f"hs={hs:.12f}, theorem1(S=sigma_2)={refined:.12f} match hand evaluation to 1e-9")


def test_criterion_2_theorem1_hs_consistency():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        k = int(rng.integers(1, 6))
        n = int(rng.choice((2, 3)))
        ps = random_phase_set(rng, k, n, sigma_range=(0.1, 20.0))
        hs = hs_upper(ps).value
        for cfg in (BoundConfig(), BoundConfig(use_simplified_E=False)):
            t1 = theorem1_upper(ps, ps.sup_sigma, cfg).value
            worst = max(worst, abs(t1 - hs) / abs(hs))
    assert worst <= 1e-12
    _ok(2, f"theorem1(S=sup sigma) == hs on 1000 random phase sets (worst rel dev {worst:.2e})")


def test_criterion_3_asymptotic_convergence():
    n = 3
    s1, s2, s3 = 1.0, 2.0, 5.0
    base = (0.5, 0.5)
    two = PhaseSet.from_pairs((s1, s2), base, n)
    hs2 = hs_upper(two).value
    shift = (n - 1) * s2
    w = [s1 + shift, s2 + shift, s3 + shift]
    h2 = base[0] / w[0] + base[1] / w[1]
    L2 = 1.0 / h2

    mu3_values = [10.0**-k for k in range(1, 7)]
    diffs = []
    for mu3 in mu3_values:
        ps = PhaseSet.from_pairs(
            (s1, s2, s3), (base[0] * (1 - mu3), base[1] * (1 - mu3), mu3), n
        )
        diffs.append(abs(theorem1_upper(ps, s2, BoundConfig(C=1.0)).value - hs2))
    # Lipschitz modulus of the H part in mu3: |L3 - L2| <= |h2 - 1/w3| L2 Lmax mu3
    L_max = max(
        1.0 / (h2 * (1 - mu3) + mu3 / w[2]) for mu3 in mu3_values
    )
    modulus = abs(h2 - 1.0 / w[2]) * L2 * L_max
    for mu3, diff in zip(mu3_values, diffs):
        e_bound = 2.0 * (s3 - s1) ** 2 * (s3 - s2) * mu3 * (1 - math.log(mu3)) ** 2 / w[0] ** 2
        assert diff <= e_bound + modulus * mu3
    below = [d for mu3, d in zip(mu3_values, diffs) if mu3 <= 1e-2]
    assert all(b < a for a, b in zip(below, below[1:]))
    _ok(3, f"refined -> two-phase hs with certified rate; diffs {['%.2e' % d for d in diffs]}")


def test_criterion_4_milton_discontinuity():
    ps2 = PhaseSet.from_pairs((1.0, 2.0), (0.5, 0.5), 3)
    # the HS bound of a vanishing third phase at 5.0, minus the two-phase HS bound
    gap = theorem1_upper(ps2, 5.0).H_term - hs_upper(ps2).H_term
    assert gap > 1e-3
    assert abs(gap - 0.023719) < 1e-5
    _ok(4, f"Milton jump H(5) - H(sigma_2) = {gap:.9f} (> 1e-3, within 1e-5 of the regression value)")


def test_criterion_5_solver_oracles():
    lam = generate_laminate(PhaseSet.from_pairs((1.0, 4.0), (0.5, 0.5), 2), 0, (64, 64))
    t = solve_effective_tensor(lam)
    eigs = sorted(t.eigenvalues)
    assert abs(eigs[0] - 1.6) / 1.6 <= 1e-3
    assert abs(eigs[1] - 2.5) / 2.5 <= 1e-3

    cb = generate_checkerboard(1.0, 4.0, (256, 256))
    sb = solve_effective_tensor(cb).sigma_bar
    assert abs(sb - 2.0) / 2.0 <= 0.02
    _ok(5, f"laminate eigenvalues {eigs[0]:.6f}/{eigs[1]:.6f}, checkerboard sigma_bar {sb:.6f}")


def test_criterion_6_bound_validity_corpus():
    rng = np.random.default_rng(606)
    violations = 0
    worst_slack = np.inf
    for seed in range(50):
        ps = random_phase_set(rng, 2, 2, sigma_range=(1.0, 5.0))
        grid = generate_random(ps, (64, 64), seed=seed)
        sb = solve_effective_tensor(grid).sigma_bar
        emp = grid.phase_set
        for bound in (trivial_upper(emp).value, hs_upper(emp).value):
            slack = (bound - sb) / bound
            worst_slack = min(worst_slack, slack)
            if slack < -1e-6:
                violations += 1
    assert violations == 0
    _ok(6, f"0 trivial/hs violations on 50 random two-phase grids (worst slack {worst_slack:.3e})")


def _criterion7_grids():
    rng = np.random.default_rng(707)
    grids = []
    for i in range(14):
        k = 2 if i % 2 == 0 else 3
        mode = "smooth" if i % 5 == 0 else "iid"
        ps = random_phase_set(rng, k, 2, sigma_range=(0.5, 6.0))
        grids.append(generate_random(ps, (64, 64), seed=100 + i, mode=mode))
    for i in range(6):
        k = 2 if i % 2 == 0 else 3
        ps = random_phase_set(rng, k, 3, sigma_range=(0.5, 6.0))
        grids.append(generate_random(ps, (16, 16, 16), seed=200 + i))
    return grids


def test_criterion_7_constructive_proof_consistency():
    worst = {"i1": 0.0, "hess": 0.0, "traceless": -np.inf, "margin": np.inf}
    for grid in _criterion7_grids():
        emp = grid.phase_set
        n = grid.dimension
        sb = solve_effective_tensor(grid).sigma_bar
        s_values = (emp.inf_sigma, 0.5 * (emp.inf_sigma + emp.sup_sigma), emp.sup_sigma)
        for S in s_values:
            pf = build_optimal_potential(grid, S)
            # (a) quadrature vs closed form
            closed = -(n - 1) * S + shifted_harmonic_L(emp, S)
            rel = abs(pf.I1 - closed) / abs(closed)
            worst["i1"] = max(worst["i1"], rel)
            assert rel <= 1e-8
            # (b) positive part vanishes at S = sup sigma
            if S == emp.sup_sigma:
                assert pf.I2_positive_part == 0.0
            # (c) admissibility
            cu = constructive_value(pf)
            worst["margin"] = min(worst["margin"], (cu - sb) / sb)
            assert cu >= sb - 1e-5 * sb
            # (d) Hessian-Laplacian energy identity
            h, lap = hessian_and_laplacian(pf.p_hat, grid.shape)
            h2 = float(np.sum(h**2, axis=(0, 1)).mean())
            l2 = float((lap**2).mean())
            dev = abs(h2 - l2) / max(1.0, l2)
            worst["hess"] = max(worst["hess"], dev)
            assert dev <= 1e-8
            # (e) traceless-Hessian energy below (n-1)/n of the theta energy
            tr = traceless_hessian(pf)
            lhs = float(np.sum(tr**2, axis=(0, 1)).mean())
            rhs = (n - 1) / n * float((pf.theta**2).mean())
            worst["traceless"] = max(worst["traceless"], lhs - rhs)
            assert lhs <= rhs + 1e-8 * max(1.0, rhs)
    _ok(
        7,
        "I1 quad/closed rel dev <= {i1:.1e}; I2+=0 at sup; min margin {margin:.2e}; "
        "hessian-laplacian dev <= {hess:.1e}; traceless excess <= {traceless:.1e}".format(**worst),
    )


def test_criterion_8_bmo_lemma_constants():
    rng = np.random.default_rng(808)
    ratios = []
    osc_worst = 0.0
    checked = 0
    for i in range(8):
        k = 2 if i % 2 == 0 else 3
        ps = random_phase_set(rng, k, 2, sigma_range=(1.0, 5.0))
        grid = generate_random(ps, (64, 64), seed=300 + i)
        emp = grid.phase_set
        for S in (0.5 * (emp.inf_sigma + emp.sup_sigma), emp.sup_sigma):
            pf = build_optimal_potential(grid, S)
            osc_worst = max(
                osc_worst, abs((pf.theta.max() - pf.theta.min()) - oscillation_closed_form(emp, S))
            )
            field = traceless_hessian(pf)
            est = bmo_norm(field, spatial_ndim=2)
            # the largest ratio over the superlevel sets {sigma > t} and the whole cube
            ratios.append(lemma1_ratio(field, level_labels(grid.conductivity_field()), bmo=est, spatial_ndim=2))
            checked += 1
    empirical_C = max(ratios)
    assert np.isfinite(empirical_C)
    assert all(r <= empirical_C for r in ratios)
    assert osc_worst <= 1e-10
    _ok(
        8,
        f"{len(ratios)} lemma1 ratios on {checked} fields below empirical C = {empirical_C:.6f}; "
        f"osc theta dev {osc_worst:.2e}",
    )


def test_criterion_9_verify_determinism(tmp_path):
    args = ["verify", "--count", "6", "--shape", "32", "--dim", "2", "--seed", "99"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # replay from the saved manifest reproduces the same bytes again
    first = a.read_bytes()
    assert main(["replay", str(tmp_path / "a.csv.manifest.json")]) == 0
    assert a.read_bytes() == first
    _ok(9, f"verify CSV bodies byte-identical across reruns and manifest replay ({len(first)} bytes)")
