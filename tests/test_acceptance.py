"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The finite-difference
criteria (3 and 4) dominate the runtime (a few minutes); everything else
finishes in seconds.
"""

import math
import time

import numpy as np
import pytest
from conftest import at_volume_fraction, exceptional_splitting_check, random_order_two_pairs

from bandscan import capacitance as cap
from bandscan import dirichlet, lattice, meshes, twomode
from bandscan.globalscan import global_scan
from bandscan.oracle import fd as fd_oracle
from bandscan.oracle.pwe import pwe_transmission_eigenvalues
from bandscan.transmission import MaterialSpec, TransmissionParams
from bandscan.twomode import order_two_admissibility

PI3 = (2.0 * math.pi) ** 3
SQ2 = math.sqrt(2.0) / 2.0
WEAK = MaterialSpec(gamma_plus=1.0, gamma_minus=1.2, rho_plus=1.2, rho_minus=1.0)


def _report(num, desc, ok, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}: {desc}{stamp}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_gap_condition_property():
    """The predicted gap is nonempty iff |k0|/|m0| < sqrt(2)/2 over 500+ random pairs."""
    t0 = time.time()
    rng = np.random.default_rng(20260811)
    pairs = random_order_two_pairs(rng, 500, ratio_band=1e-3)
    p_dir = dirichlet.DirichletParams(a=0.1)
    p_tr = at_volume_fraction(WEAK, 0.01)
    ok = True
    below = above = 0
    for k0, m0, ratio in pairs:
        want = ratio < SQ2
        below += want
        above += not want
        adm = order_two_admissibility(k0, m0, 1e-3)
        _, gd = twomode.pair_model(k0, m0, p_dir, admissibility=adm).gap()
        _, gt = twomode.pair_model(k0, m0, p_tr, admissibility=adm).gap()
        ok &= (gd is not None) == want
        ok &= (gt is not None) == want
    elapsed = time.time() - t0
    ok &= below > 50 and above > 50
    ok &= elapsed < 5.0
    _report(1, f"{len(pairs)} pairs ({below} below, {above} above threshold), "
               "both problems", ok, elapsed)


def test_criterion_2_splitting_consistency():
    """Branch splitting at delta_tilde = 0 equals a_tilde/|k0| and the
    eps-root difference times |k0|, both to 1e-12 relative."""
    t0 = time.time()
    ok = True
    cases = [
        ((0.0, 0.0, 0.5), (0, 0, 1), 0.1, 1.0),
        ((0.5, 0.2, 0.0), (1, 0, 0), 0.25, 1.7),
        ((0.25, -0.5, 0.35), (0, -1, 0), 0.05, 0.6),
    ]
    for k0, m0, a, q in cases:
        p = dirichlet.DirichletParams(a=a, q=q)
        knorm = float(np.linalg.norm(k0))
        lo, hi = twomode.pair_model(k0, m0, p).branches(0.0)
        split = hi - lo
        ok &= abs(split - p.a_tilde / knorm) <= 1e-12 * (p.a_tilde / knorm)
        e1, e2 = exceptional_splitting_check(k0, m0, p)
        ok &= abs(split - (e1 - e2) * knorm) <= 1e-12 * split
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(2, "branch splitting == c*a_tilde/|k0| == (eps1-eps2)*c*|k0| "
               "to 1e-12", ok, elapsed)


def test_criterion_3_dirichlet_oracle_agreement():
    """FD shift matches eps(a)|k| within 25% at n=48, and the remainder
    against the exact discrete-inclusion capacitance scales as O(a^2).

    The ratio rows use self-similar grid pairs (a, n=48) vs (a/2, n=96):
    the masked node pattern is identical, so the staircase geometry drops
    out exactly and the remainder isolates the quadratic term.
    """
    t0 = time.time()
    k = np.array([0.2, 0.1, 0.15])
    k2 = float(k @ k)
    knorm = math.sqrt(k2)

    def measured_shift(a, n):
        res = fd_oracle.fd_dirichlet_eigenvalues(k, a, n, 1)
        return math.sqrt(res.eigenvalues[0]) - knorm

    ok = True
    details = []

    shifts48 = {}
    for a in (0.2, 0.3, 0.4):
        shift = measured_shift(a, 48)
        shifts48[a] = shift
        asym = 2.0 * math.pi * a / (k2 * PI3) * knorm
        rel = abs(shift - asym) / asym
        details.append(f"a={a}: rel={rel:.3f}")
        ok &= rel <= 0.25

    def remainder(a, n):
        h = 2.0 * math.pi / n
        pattern = fd_oracle.mask_pattern(n, a)
        assert int(fd_oracle.sphere_mask(n, a).sum()) == len(pattern)
        cap_d = fd_oracle.discrete_inclusion_capacitance(pattern, h)
        pred = 2.0 * math.pi * cap_d / (k2 * PI3) * knorm
        shift = shifts48[a] if n == 48 and a in shifts48 else measured_shift(a, n)
        return shift - pred

    for a in (0.2, 0.3, 0.4):
        num = remainder(a, 48)
        den = remainder(a / 2.0, 96)
        ratio = abs(num) / abs(den)
        details.append(f"a={a}: remainder ratio={ratio:.2f}")
        ok &= 2.5 <= ratio <= 6.0
    elapsed = time.time() - t0
    _report(3, "; ".join(details), ok, elapsed)


def test_criterion_4_transmission_oracle_and_factor_discrimination():
    """PWE two-band splitting within 25% of c*mu/|k0|; the FD oracle at the
    exceptional point selects the interaction-matrix eigenvalue factor over
    the background-theory two-root display (candidates differ by 2x)."""
    t0 = time.time()
    ok = True
    details = []

    params = at_volume_fraction(WEAK, 0.01)
    res = pwe_transmission_eigenvalues((0.0, 0.0, 0.5), params, 3, 2)
    omegas = np.sqrt(res.eigenvalues) / params.materials.c_plus
    split = float(omegas[1] - omegas[0])
    rel = abs(split - 1.9375e-3) / 1.9375e-3
    details.append(f"pwe splitting rel={rel:.3f}")
    ok &= rel <= 0.25

    fd_res = fd_oracle.fd_dirichlet_eigenvalues((0.0, 0.0, 0.5), 0.3, 48, 2)
    eps_meas = math.sqrt(fd_res.eigenvalues[1]) / 0.5 - 1.0
    a_tilde = 4.0 * math.pi * 0.3 / PI3
    cand_full = a_tilde / 0.25  # from the 2x2 matrix eigenvalues {0, 2}
    cand_half = cand_full / 2.0  # the two-root display value
    rel_full = abs(eps_meas - cand_full) / cand_full
    details.append(f"fd eps1 rel to matrix factor={rel_full:.3f}, "
                   f"to halved factor={abs(eps_meas - cand_half) / cand_half:.3f}")
    ok &= rel_full <= 0.25
    ok &= abs(eps_meas - cand_full) < abs(eps_meas - cand_half)
    elapsed = time.time() - t0
    _report(4, "; ".join(details), ok, elapsed)


def test_criterion_5_capacitance():
    """BEM unit sphere (1280 panels) and prolate spheroid (5120 panels)
    within 2% of the analytic values, in under 30 s."""
    t0 = time.time()
    q_sphere = cap.capacitance_bem(meshes.icosphere(3)).q
    q_spheroid = cap.capacitance_bem(meshes.ellipsoid_mesh(2.0, 1.0, 1.0, 4)).q
    exact = cap.capacitance_ellipsoid(2.0, 1.0, 1.0).q
    elapsed = time.time() - t0
    rel_s = abs(q_sphere - 1.0)
    rel_e = abs(q_spheroid - exact) / exact
    ok = rel_s <= 0.02 and rel_e <= 0.02 and elapsed < 30.0
    _report(5, f"sphere q={q_sphere:.5f} (rel {rel_s:.4f}), "
               f"spheroid q={q_spheroid:.5f} vs {exact:.5f} (rel {rel_e:.4f})",
            ok, elapsed)


def test_criterion_6_face_map_disk():
    """101x101 face raster flags exactly the disk k1^2+k2^2 < 1/4 up to one
    pixel; flagged area within 3% of pi/4 (pi/16 per unit window area with
    the [-1,1]^2 window documented in the report)."""
    t0 = time.time()
    fmap = lattice.face_gap_region((0, 0, 1), samples=101)
    T1, T2 = np.meshgrid(fmap.t1, fmap.t2, indexing="ij")
    r2 = T1**2 + T2**2
    pix = (2.0 / 100.0) * math.sqrt(2.0)
    interior = r2 < (0.5 - pix) ** 2
    exterior = r2 > (0.5 + pix) ** 2
    ok = bool(fmap.flagged[interior].all()) and not bool(fmap.flagged[exterior].any())
    area = fmap.flagged_area()
    frac = fmap.flagged_fraction()
    ok &= abs(area - math.pi / 4.0) <= 0.03 * (math.pi / 4.0)
    ok &= abs(frac - math.pi / 16.0) <= 0.03 * (math.pi / 16.0)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(6, f"area={area:.4f} (pi/4={math.pi/4:.4f}), "
               f"per-unit-face={frac:.4f} (pi/16={math.pi/16:.4f}), "
               "flagged set = disk within one pixel", ok, elapsed)


def test_criterion_7_no_global_gap():
    """Every omega in [0.4, 1.2] (100 samples, a=0.1) is attained by a
    non-exceptional Bloch wave with residual < 1e-10."""
    t0 = time.time()
    p = dirichlet.DirichletParams(a=0.1)
    rows = global_scan(0.4, 1.2, 100, p)
    worst = max(r.residual for r in rows)
    ok = len(rows) == 100
    ok &= all(r.order == 1 for r in rows)
    ok &= worst < 1e-10
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    _report(7, f"100 frequencies covered, max residual {worst:.2e}", ok, elapsed)


def test_criterion_8_cone_recovery():
    """At a=0 (Dirichlet) and zero contrast (transmission) the branches
    reproduce the two exact cones to first order: error <= 10*delta^2."""
    t0 = time.time()
    p0 = dirichlet.DirichletParams(a=0.0)
    mats0 = MaterialSpec(1.0, 1.0, 1.0, 1.0)
    pt0 = TransmissionParams(materials=mats0, a=0.5)
    cases = [
        ((0.0, 0.0, 0.5), (0, 0, 1)),
        ((0.5, 0.2, 0.0), (1, 0, 0)),
        ((0.5, 0.6, 0.3), (1, 0, 0)),
    ]
    ok = True
    worst = 0.0
    for k0, m0 in cases:
        models = (twomode.pair_model(k0, m0, p0), twomode.pair_model(k0, m0, pt0))
        k0v = np.asarray(k0)
        m0v = np.asarray(m0, dtype=float)
        m2 = float(m0v @ m0v)
        for delta in np.linspace(-0.05, 0.05, 41):
            dt = float(delta * m2 / 2.0)
            cones = sorted(
                (
                    float(np.linalg.norm((1 + delta) * k0v)),
                    float(np.linalg.norm((1 + delta) * k0v - m0v)),
                )
            )
            for lo, hi in (model.branches(dt) for model in models):
                err = max(abs(lo - cones[0]), abs(hi - cones[1]))
                worst = max(worst, err - 10.0 * delta * delta)
                ok &= err <= 10.0 * delta * delta + 1e-14
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report(8, f"branches vs exact cones, max excess over 10*delta^2 bound: "
               f"{worst:.2e}", ok, elapsed)
