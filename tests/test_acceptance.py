"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import homnet as hn
from homnet import dynamics as dyn
from homnet import electrical as el
from homnet import exact
from homnet import geometry as geo
from homnet import kinematics as kin
from homnet import statics as st
from conftest import random_chain, random_cochain, random_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def announce(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag} {detail}".rstrip(), flush=True)
    assert passed, f"criterion {criterion} failed: {detail}"


# -- 1: worked-example reproduction --------------------------------------------

def test_criterion_1_worked_examples():
    start = time.perf_counter()

    circle = hn.build_complex(["A", "B", "C"], [("A", "B"), ("A", "C"), ("B", "C")])
    ok = circle.incidence_1 == [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    ok = ok and hn.betti_numbers(circle) == [1, 1]
    ok = ok and hn.euler_characteristic(circle) == 0

    disc = hn.build_complex(
        ["A", "B", "C", "D"],
        [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")],
        faces=[("A", "B", "D"), ("B", "C", "D"), ("A", "D", "C")],
    )
    # published boundary data: node-by-branch and branch-by-face layouts
    node_by_branch = [
        [-1, -1, -1, 0, 0, 0],
        [1, 0, 0, -1, -1, 0],
        [0, 1, 0, 1, 0, -1],
        [0, 0, 1, 0, 1, 1],
    ]
    branch_by_face = [
        [1, 0, 0],
        [0, 0, -1],
        [-1, 0, 1],
        [0, 1, 0],
        [1, -1, 0],
        [0, 1, -1],
    ]
    transpose = lambda m: [list(col) for col in zip(*m)]
    ok = ok and disc.incidence_1 == transpose(node_by_branch)
    ok = ok and disc.incidence_2 == transpose(branch_by_face)
    ok = ok and hn.betti_numbers(disc) == [1, 0, 0]
    ok = ok and hn.euler_characteristic(disc) == 1

    cover = hn.Chain(disc, 2, {0: 1, 1: 1, 2: 1}, hn.INTEGER)
    rim = hn.boundary(cover)
    ok = ok and dict(rim.coeffs) == {0: 1, 3: 1, 1: -1}  # AB + BC - AC

    elapsed = time.perf_counter() - start
    announce(1, ok and elapsed < 1.0, f"(worked examples, {elapsed:.3f}s)")


# -- 2: Kirchhoff laws -----------------------------------------------------------

def test_criterion_2_kirchhoff():
    start = time.perf_counter()
    rng = random.Random(2025)

    # random connected circuit with exactly 10 branches: a 6-node tree plus
    # five chords (first homology rank 5)
    labels = [f"n{i}" for i in range(6)]
    branches = []
    for i in range(1, 6):
        j = rng.randrange(i)
        branches.append((labels[j], labels[i]))
    while len(branches) < 10:
        i, j = rng.sample(range(6), 2)
        branches.append((labels[i], labels[j]))
    cx = hn.build_complex(labels, branches, branch_labels=[f"b{k}" for k in range(10)])

    basis = hn.cycle_basis(cx, 1)
    current = hn.Chain.zero(cx, 1, hn.RATIONAL)
    for z in basis:
        w = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        current = current + z.as_module(hn.RATIONAL).scaled(w)
    state = el.CircuitState(complex=cx, current=current)
    report = el.kcl_check(state)
    ok = report.conserved and report.residual.is_zero(0)

    eps = Fraction(3, 7)
    bumped = current + hn.Chain(cx, 1, {4: eps}, hn.RATIONAL)
    residual = hn.boundary(bumped)
    max_norm = max(abs(v) for v in residual.coeffs.values())
    ok = ok and max_norm == eps

    # KVL: derived drops pass and recover the potential up to a constant
    voltage = hn.Cochain(
        cx, 0,
        {i: Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for i in range(6)},
        hn.RATIONAL,
    )
    dv = hn.coboundary(voltage)
    verdict = el.kvl_check(dv)
    ok = ok and verdict.passed
    diff = verdict.potential - voltage
    for comp in hn.path_components(cx):
        ok = ok and len({diff[i] for i in comp}) == 1

    # a non-coboundary drop fails with a violated cycle
    cycle_edge = next(iter(basis[0].coeffs))
    bad = dv + hn.Cochain(cx, 1, {cycle_edge: Fraction(1)}, hn.RATIONAL)
    verdict = el.kvl_check(bad)
    ok = ok and not verdict.passed
    ok = ok and verdict.cycle_sum != 0
    ok = ok and hn.is_cycle(verdict.witness_cycle)

    elapsed = time.perf_counter() - start
    announce(2, ok and elapsed < 1.0, f"(KCL/KVL exact, {elapsed:.3f}s)")


# -- 3: statics --------------------------------------------------------------------

def test_criterion_3_statics(triangle_geo, tetra_geo):
    start = time.perf_counter()

    sol = st.solve_statics(
        tetra_geo, hn.Chain.zero(tetra_geo.complex, 0, hn.covector(2))
    )
    ok = sol.classification == "indeterminate" and sol.self_stress_dim == 1
    ok = ok and hn.boundary(sol.basis_force_chain(0)).is_zero(0)

    coeffs = {0: Fraction(2), 1: Fraction(-1), 2: Fraction(1, 3)}
    f_int = st.tension_force_chain(triangle_geo, coeffs)
    f_ext = -hn.boundary(f_int)
    sol = st.solve_statics(triangle_geo, f_ext)
    ok = ok and sol.classification == "determinate"
    reconstruction = f_ext + hn.boundary(sol.internal_force_chain())
    ok = ok and reconstruction.is_zero(0)

    lopsided = hn.Chain(
        triangle_geo.complex, 0, {0: (Fraction(1), Fraction(0))}, hn.covector(2)
    )
    sol = st.solve_statics(triangle_geo, lopsided)
    ok = ok and sol.classification == "infeasible"

    elapsed = time.perf_counter() - start
    announce(3, ok and elapsed < 1.0, f"(statics exact, {elapsed:.3f}s)")


# -- 4: rigidity --------------------------------------------------------------------

def test_criterion_4_rigidity(circle_geo, rectangle_geo):
    ok = geo.maxwell_dof(circle_geo) == 0
    ok = ok and geo.maxwell_dof(rectangle_geo) == 1

    s, h = 0.6, 0.8
    sheared = geo.GeometricComplex(
        complex=rectangle_geo.complex, n=2,
        positions=[(0, 0), (1, 0), (1 + s, h), (s, h)],
    )
    ok = ok and not geo.is_rigid_motion(rectangle_geo, sheared, tol=1e-9)

    rng = random.Random(4104)
    cases = 0
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi)
        c, sn = math.cos(theta), math.sin(theta)
        tx, ty = rng.uniform(-10, 10), rng.uniform(-10, 10)
        reflect = rng.random() < 0.5
        def image(p):
            x, y = p
            if reflect:
                x = -x
            return (c * x - sn * y + tx, sn * x + c * y + ty)
        moved = geo.GeometricComplex(
            complex=rectangle_geo.complex, n=2,
            positions=[image(p) for p in rectangle_geo.positions],
        )
        cases += geo.is_rigid_motion(rectangle_geo, moved, tol=1e-9)
    ok = ok and cases == 100
    announce(4, ok, "(Maxwell counts, shear, 100 random isometries)")


# -- 5: conservation suite -------------------------------------------------------------

def test_criterion_5_conservation():
    start = time.perf_counter()
    dt, samples = 1e-3, 1001
    t = np.arange(samples) * dt

    # two bodies with equal-and-opposite internal axial forces
    pair = hn.build_complex(["A", "B"], [("A", "B")])
    m, amp, om, gap = 1.0, 0.1, 1.0, 1.0
    xa = np.stack([-gap - amp * np.cos(om * t), np.zeros(samples)], axis=1)
    xb = np.stack([gap + amp * np.cos(om * t), np.zeros(samples)], axis=1)
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=dt, trajectories={0: xa, 1: xb},
        masses={0: m, 1: m},
    )
    tension = -m * amp * om**2 * np.cos(om * t)
    f_int = {0: np.stack([tension, np.zeros(samples)], axis=1)}
    report = dyn.momentum_balance_check(d, f_int=f_int)
    ok = report.max_collective <= 1e-6
    detail = [f"collective={report.max_collective:.2e}"]

    # impulse equals momentum change exactly on piecewise-linear data
    single = hn.build_complex(["P"], [])
    alpha, beta = 2.0, 3.0
    force = np.stack([alpha + beta * t, np.zeros(samples)], axis=1)
    p = np.stack([alpha * t + 0.5 * beta * t**2, np.zeros(samples)], axis=1)
    ds = dyn.DynamicsState(
        complex=single, n=2, dt=dt, masses={0: 1.0}, momenta={0: p},
        trajectories={0: np.stack(
            [alpha * t**2 / 2 + beta * t**3 / 6, np.zeros(samples)], axis=1
        )},
    )
    imp_gap = dyn.impulse_momentum_gap(ds, {0: force}, 0, samples - 1)
    ok = ok and imp_gap <= 1e-9
    detail.append(f"impulse={imp_gap:.2e}")

    # central-force orbit: angular momentum drift
    orbit = np.stack([np.cos(om * t), np.sin(om * t)], axis=1)
    do = dyn.DynamicsState(
        complex=single, n=2, dt=dt, trajectories={0: orbit}, masses={0: 1.0}
    )
    rep = dyn.angular_momentum_balance(do, forces={0: -(om**2) * orbit})
    ok = ok and rep.max_drift <= 1e-6
    detail.append(f"L-drift={rep.max_drift:.2e}")

    # free fall: work equals kinetic-energy change
    g_acc, mass = 9.81, 2.0
    x = np.stack([np.zeros(samples), 100 - 0.5 * g_acc * t**2], axis=1)
    df = dyn.DynamicsState(
        complex=single, n=2, dt=dt, trajectories={0: x}, masses={0: mass}
    )
    snaps = [
        geo.GeometricComplex(complex=single, n=2, positions=[tuple(x[a])])
        for a in range(samples)
    ]
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.tile([0.0, -mass * g_acc], (samples - 1, 1))}
    we = dyn.work_energy_check(df, k, forces, tol=1e-6)
    delta_ke = 0.5 * mass * (g_acc * t[-1]) ** 2
    rel = we.max_work_energy_gap / abs(delta_ke)
    ok = ok and we.passed and rel <= 1e-6
    detail.append(f"work-energy={rel:.2e}")

    elapsed = time.perf_counter() - start
    announce(5, ok and elapsed < 10.0, f"({', '.join(detail)}, {elapsed:.2f}s)")


# -- 6: virtual work and d'Alembert ------------------------------------------------------

def test_criterion_6_virtual_work():
    rng = random.Random(606)
    mismatches = 0
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        cx = random_complex(rng, max_nodes=5, with_faces=False)
        if cx.r[1] == 0:
            cx = hn.build_complex(["A", "B"], [("A", "B")])
        positions = {}
        taken = set()
        for lab in cx.node_labels:
            while True:
                p = (Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8)))
                if p not in taken:
                    taken.add(p)
                    positions[lab] = p
                    break
        g = geo.realize(cx, 2, positions)
        coeffs = {
            a: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for a in range(cx.r[1])
        }
        f_int = st.tension_force_chain(g, coeffs)
        f_ext = -hn.boundary(f_int)
        if rng.random() < 0.5:
            f_ext = f_ext + hn.Chain(
                cx, 0,
                {rng.randrange(cx.r[0]): (Fraction(rng.randint(1, 5)), Fraction(0))},
                f_ext.module,
            )
        fc = st.ForceComplex(g=g, f_ext=f_ext, f_int=f_int)
        direct = st.equilibrium_check(fc).in_equilibrium
        swept = st.equilibrium_via_virtual_work(fc)
        mismatches += direct != swept
        verdicts[direct] += 1
    ok = mismatches == 0 and verdicts[True] > 0 and verdicts[False] > 0

    # d'Alembert residual on exact free fall, then linear growth under
    # acceleration perturbations
    single = hn.build_complex(["P"], [])
    dt, samples, m, g_acc = 1e-3, 1001, 2.0, 9.81
    t = np.arange(samples) * dt
    f_ext = {0: np.tile([0.0, -m * g_acc], (samples, 1))}

    def residual_for(eps):
        x = np.stack(
            [np.zeros(samples), 100 - 0.5 * g_acc * (1 + eps) * t**2], axis=1
        )
        d = dyn.DynamicsState(
            complex=single, n=2, dt=dt, trajectories={0: x}, masses={0: m}
        )
        worst = 0.0
        for direction in [(1.0, 0.0), (0.0, 1.0)]:
            worst = max(
                worst, dyn.dalembert_residual(d, {0: direction}, f_ext=f_ext)
            )
        return worst

    base = residual_for(0.0)
    ok = ok and base <= 1e-6

    epsilons = [1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3]
    residuals = [residual_for(e) for e in epsilons]
    slope, intercept = np.polyfit(epsilons, residuals, 1)
    fitted = slope * np.array(epsilons) + intercept
    ss_res = float(np.sum((np.array(residuals) - fitted) ** 2))
    ss_tot = float(np.sum((np.array(residuals) - np.mean(residuals)) ** 2))
    r2 = 1 - ss_res / ss_tot
    ok = ok and r2 >= 0.999
    announce(
        6, ok,
        f"(500 complexes 0 mismatches [{verdicts[True]} balanced/"
        f"{verdicts[False]} not], d'Alembert={base:.2e}, R2={r2:.6f})",
    )


# -- 7: structural properties ---------------------------------------------------------------

def test_criterion_7_structural_properties():
    rng = random.Random(707)
    start = time.perf_counter()
    for trial in range(1000):
        cx = random_complex(rng, max_nodes=6)
        if cx.r[1]:
            c1 = random_chain(rng, cx, 1)
            assert hn.augmented_boundary(hn.boundary(c1)) == 0
            if cx.r[2]:
                c2 = random_chain(rng, cx, 2)
                assert hn.boundary(hn.boundary(c2)).is_zero(0)
                v = random_cochain(rng, cx, 0)
                assert hn.coboundary(hn.coboundary(v)).is_zero(0)
                c = random_cochain(rng, cx, 1)
                x = random_chain(rng, cx, 2)
                assert hn.evaluate(hn.coboundary(c), x) == hn.evaluate(
                    c, hn.boundary(x)
                )
            c = random_cochain(rng, cx, 0)
            x = random_chain(rng, cx, 1)
            assert hn.evaluate(hn.coboundary(c), x) == hn.evaluate(c, hn.boundary(x))
        hn.euler_characteristic(cx)  # double-count agreement, raises on mismatch

    snf_checked = 0
    for _ in range(200):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        result = exact.smith_normal_form(mat)
        for a, b in zip(result.d, result.d[1:]):
            assert b % a == 0
        assert _det(result.U) in (1, -1)
        assert _det(result.V) in (1, -1)
        prod = _triple_product(result.U, mat, result.V)
        assert prod == result.diagonal_matrix(rows, cols)
        assert len(result.d) == exact.rank(mat)
        snf_checked += 1

    elapsed = time.perf_counter() - start
    announce(
        7, snf_checked == 200,
        f"(1000 random complexes, 200 SNF matrices, {elapsed:.2f}s)",
    )


def _det(mat):
    n = len(mat)
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return 0
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def _triple_product(u, mat, v):
    m, n = len(mat), len(mat[0])
    um = [
        [sum(u[i][k] * mat[k][j] for k in range(m)) for j in range(n)]
        for i in range(m)
    ]
    return [
        [sum(um[i][l] * v[l][j] for l in range(n)) for j in range(n)]
        for i in range(m)
    ]


# -- 8: determinism ------------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    env = dict(os.environ)
    outputs = []
    for seed in ("1", "2"):  # different hash seeds: order must not leak through
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [
                sys.executable, "-m", "homnet.cli", "report-all",
                "--input-dir", str(FIXTURES), "--format", "json",
            ],
            capture_output=True, env=env, cwd=str(FIXTURES.parent),
        )
        outputs.append(result.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    # and the text format as well
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        result = subprocess.run(
            [
                sys.executable, "-m", "homnet.cli", "report-all",
                "--input-dir", str(FIXTURES), "--format", "text",
            ],
            capture_output=True, env=env, cwd=str(FIXTURES.parent),
        )
        outputs.append(result.stdout)
    ok = ok and outputs[2] == outputs[3] and len(outputs[2]) > 0
    announce(8, ok, f"({len(outputs[0])} bytes json, {len(outputs[2])} bytes text)")
