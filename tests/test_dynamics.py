import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import homnet as hn
from homnet import dynamics as dyn
from homnet import errors
from homnet import geometry as geo
from homnet import homology
from homnet import kinematics as kin
from homnet.coeffs import series_derivative, wedge_components
from conftest import EXACT_COORDINATES, motions


@pytest.fixture
def single_node():
    return hn.build_complex(["P"], [])


@pytest.fixture
def pair():
    return hn.build_complex(["A", "B"], [("A", "B")])


def snapshots_from_trajectories(complex, trajectories, n):
    samples = next(iter(trajectories.values())).shape[0]
    out = []
    for a in range(samples):
        out.append(
            geo.GeometricComplex(
                complex=complex,
                n=n,
                positions=[tuple(trajectories[i][a]) for i in range(complex.r[0])],
            )
        )
    return out


# -- mass balance ---------------------------------------------------------------

def test_constant_masses_with_cycle_flow():
    cx = hn.build_complex(["A", "B"], [("A", "B"), ("B", "A")])
    dt, samples = 0.1, 11
    flow = np.full(samples, 0.5)
    d = dyn.DynamicsState(
        complex=cx, n=2, dt=dt,
        masses={0: 2.0, 1: 3.0},
        flows={0: flow, 1: flow},
    )
    report = dyn.mass_balance_check(d)
    assert report.max_residual <= 1e-12
    assert report.flow_is_cycle
    assert report.total_mass_constant


def test_total_mass_is_constant_per_sample_on_a_cycle_flow():
    triangle = hn.build_complex(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
    dt, samples = 0.1, 11
    circulation = 1.0 + np.arange(samples) * dt  # the same on every branch
    d = dyn.DynamicsState(
        complex=triangle, n=2, dt=dt,
        masses={0: 2.0, 1: 3.0, 2: 0.5},
        flows={a: circulation for a in range(3)},
    )
    report = dyn.mass_balance_check(d)
    assert report.flow_is_cycle
    assert report.total_mass.tolist() == [5.5] * samples


def test_pumping_mass_between_nodes(pair):
    dt, samples = 0.05, 21
    t = np.arange(samples) * dt
    rate = 0.5
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=dt,
        masses={0: 2.0 - rate * t, 1: 1.0 + rate * t},
        flows={0: np.full(samples, rate)},
    )
    report = dyn.mass_balance_check(d)
    assert report.max_residual <= 1e-12
    assert not report.flow_is_cycle
    assert report.total_mass_constant


def test_flow_without_mass_change_leaves_residual(pair):
    dt, samples = 0.05, 21
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=dt,
        masses={0: 2.0, 1: 1.0},
        flows={0: np.full(samples, 0.5)},
    )
    report = dyn.mass_balance_check(d)
    assert report.max_residual == pytest.approx(0.5)


# -- momentum balance ---------------------------------------------------------------

def test_constant_force_linear_momentum(single_node):
    dt, samples, m = 1e-3, 1001, 2.0
    t = np.arange(samples) * dt
    f = np.array([1.5, -0.5])
    x = np.stack([0.5 * (f[0] / m) * t**2, 0.5 * (f[1] / m) * t**2], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: m}
    )
    report = dyn.momentum_balance_check(d, f_ext={0: np.tile(f, (samples, 1))})
    assert report.max_residual <= 1e-8
    assert report.max_collective <= 1e-8


def test_isolated_pair_conserves_total_momentum(pair):
    # equal and opposite internal axial forces: individual momenta change,
    # the collective sum does not
    dt, samples = 1e-3, 1001
    t = np.arange(samples) * dt
    m, amp, om, d0 = 1.0, 0.1, 1.0, 1.0
    xa = np.stack([-d0 - amp * np.cos(om * t), np.zeros(samples)], axis=1)
    xb = np.stack([d0 + amp * np.cos(om * t), np.zeros(samples)], axis=1)
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=dt, trajectories={0: xa, 1: xb},
        masses={0: m, 1: m},
    )
    f = -m * amp * om**2 * np.cos(om * t)  # axial tension coefficient
    f_int = {0: np.stack([f, np.zeros(samples)], axis=1)}
    report = dyn.momentum_balance_check(d, f_int=f_int)
    assert report.max_collective <= 1e-9
    assert report.max_residual <= 1e-6
    assert report.max_residual_full <= 1e-4  # one-sided stencils at the ends


def test_static_network_momenta_vanish(pair):
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=0.1,
        trajectories={
            0: np.tile([0.0, 0.0], (11, 1)),
            1: np.tile([1.0, 0.0], (11, 1)),
        },
        masses={0: 1.0, 1: 2.0},
    )
    report = dyn.momentum_balance_check(d)
    assert report.max_residual <= 1e-12


# -- impulse ---------------------------------------------------------------------------

def test_constant_force_impulse(single_node):
    dt, samples = 0.1, 11
    f = np.tile([2.0, 1.0], (samples, 1))
    imp = dyn.impulse({0: f}, dt, 0, samples - 1)
    assert np.allclose(imp[0], [2.0, 1.0])


def test_zero_force_zero_impulse(single_node):
    imp = dyn.impulse({0: np.zeros((11, 2))}, 0.1, 0, 10)
    assert np.allclose(imp[0], 0)


def test_impulse_matches_momentum_change_on_linear_data(single_node):
    dt, samples, m = 1e-3, 1001, 1.0
    t = np.arange(samples) * dt
    alpha, beta = 2.0, 3.0
    force = np.stack([alpha + beta * t, np.zeros(samples)], axis=1)
    # integrate the ramp exactly: p = alpha t + beta t^2 / 2
    p = np.stack([alpha * t + 0.5 * beta * t**2, np.zeros(samples)], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, masses={0: m},
        momenta={0: p},
        trajectories={0: np.stack([alpha * t**2 / 2 + beta * t**3 / 6,
                                   np.zeros(samples)], axis=1)},
    )
    gap = dyn.impulse_momentum_gap(d, {0: force}, 0, samples - 1)
    assert gap <= 1e-9


def test_impulse_window_validated(single_node):
    with pytest.raises(errors.RangeError):
        dyn.impulse({0: np.zeros((11, 2))}, 0.1, 5, 20)
    # a static force has no sample count, but its window still runs forward
    for t0, t1 in ((1, 1), (2, 1), (-1, 1)):
        with pytest.raises(errors.RangeError):
            dyn.impulse({0: np.ones(2)}, 0.1, t0, t1)


def test_static_force_impulse_is_force_times_window(single_node):
    # a static (n,) force is constant over the window, not an n-sample series
    imp = dyn.impulse({0: np.array([1.0, 2.0])}, 0.1, 0, 1)
    assert np.allclose(imp[0], [0.1, 0.2])
    # the window may run past n samples, and matches the broadcast series
    static = dyn.impulse({0: np.array([2.0, 1.0])}, 0.1, 3, 10)
    series = dyn.impulse({0: np.tile([2.0, 1.0], (11, 1))}, 0.1, 3, 10)
    assert np.allclose(static[0], [1.4, 0.7]) and np.allclose(static[0], series[0])


def test_gap_without_a_force_is_the_momentum_change(single_node):
    # a node at constant velocity: no force, so no impulse, and the gap is
    # its momentum change, zero; a kicked momentum shows the change
    dt, samples = 0.1, 11
    t = np.arange(samples) * dt
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, masses={0: 2.0},
        trajectories={0: np.stack([3.0 * t, np.zeros(samples)], axis=1)},
    )
    assert dyn.impulse_momentum_gap(d, {}, 0, samples - 1) == pytest.approx(0)
    p = np.zeros((samples, 2))
    p[5:] = (1.0, -2.0)
    kicked = dyn.DynamicsState(complex=single_node, n=2, dt=dt, momenta={0: p},
                               trajectories=d.trajectories)
    assert dyn.impulse_momentum_gap(kicked, {}, 0, samples - 1) == 2.0
    with pytest.raises(errors.RangeError):
        dyn.impulse_momentum_gap(d, {}, 5, samples)


# -- angular momentum --------------------------------------------------------------------

def orbit_state(single_node, om=1.0, m=1.0, dt=1e-3, samples=1001):
    t = np.arange(samples) * dt
    x = np.stack([np.cos(om * t), np.sin(om * t)], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: m}
    )
    return d, t, x


def test_central_force_conserves_angular_momentum(single_node):
    d, t, x = orbit_state(single_node)
    forces = {0: -x}  # central, pointing at the origin
    report = dyn.angular_momentum_balance(d, forces=forces)
    assert report.max_drift <= 1e-6
    assert report.max_residual <= 1e-6


def test_straight_line_motion_conserves_angular_momentum(single_node):
    dt, samples = 1e-3, 1001
    t = np.arange(samples) * dt
    x = np.stack([1.0 + 2.0 * t, -3.0 + 0.5 * t], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: 1.4}
    )
    report = dyn.angular_momentum_balance(d)
    assert report.max_drift <= 1e-9
    assert report.max_residual <= 1e-9


def test_tangential_force_balances_but_changes_L(single_node):
    # spiral-free tangential thrust: with x(t) on the unit circle at angular
    # rate phi(t), choose phi so the thrust is tangential
    dt, samples = 1e-4, 2001
    t = np.arange(samples) * dt
    # angular speed grows linearly: phi = 0.5 a t^2, |v| = a t on unit circle
    a = 2.0
    phi = 0.5 * a * t**2
    x = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: 1.0}
    )
    # resultant force = m (d^2x/dt^2); compute it in closed form
    phidot = a * t
    phiddot = a
    cos, sin = np.cos(phi), np.sin(phi)
    acc = np.stack(
        [
            -phiddot * sin - phidot**2 * cos,
            phiddot * cos - phidot**2 * sin,
        ],
        axis=1,
    )
    report = dyn.angular_momentum_balance(d, forces={0: acc})
    assert report.max_residual <= 1e-5
    assert report.max_drift > 1e-2  # L really changes under the thrust


def test_nonconvective_momentum_rejected(single_node):
    d, t, x = orbit_state(single_node, samples=101)
    d.momenta = {0: np.ones((101, 2))}
    with pytest.raises(errors.NonConvectiveMomentum):
        dyn.angular_momentum_balance(d)


def test_moment_impulse_matches_angular_momentum_change(single_node):
    d, t, x = orbit_state(single_node, samples=1001)
    gap = dyn.moment_impulse_gap(d, {0: -x}, None, 2, 998)
    assert gap <= 1e-6


def test_moment_gap_reads_a_missing_force_as_zero():
    # A accelerates with no force entry, B coasts under an explicit zero
    # force: both gaps see A's unbalanced change, as a zero force would
    pair = hn.build_complex(["A", "B"], [])
    dt, samples = 0.1, 21
    t = np.arange(samples) * dt
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=dt, masses={0: 1.0, 1: 1.0},
        trajectories={
            0: np.stack([1 + t**2 / 2, np.ones(samples)], axis=1),
            1: np.stack([t, np.full(samples, 2.0)], axis=1),
        },
    )
    forces = {1: np.zeros((samples, 2))}
    explicit = {0: np.zeros((samples, 2)), **forces}
    gap = dyn.moment_impulse_gap(d, forces, None, 0, samples - 1)
    assert gap == pytest.approx(2.0)
    assert gap == dyn.moment_impulse_gap(d, explicit, None, 0, samples - 1)
    assert dyn.impulse_momentum_gap(d, forces, 0, samples - 1) == pytest.approx(2.0)


def test_moment_gap_window_is_the_impulse_window(single_node):
    d, t, x = orbit_state(single_node, samples=11)
    for forces in ({}, {0: -x}):
        with pytest.raises(errors.RangeError, match=r"^window \[5, 11\] outside 0..10$"):
            dyn.moment_impulse_gap(d, forces, None, 5, 11)
        with pytest.raises(errors.RangeError, match=r"^window \[5, 11\] outside 0..10$"):
            dyn.impulse_momentum_gap(d, forces, 5, 11)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_wedge_is_wedge_components_per_sample(n):
    rng = np.random.default_rng(n)
    r, f = rng.standard_normal((2, 7, n))
    got = dyn._wedge_series(r, f)
    assert got.shape == (7, n * (n - 1) // 2)
    for a in range(7):
        assert tuple(got[a].tolist()) == wedge_components(r[a].tolist(), f[a].tolist())


# -- kinetic energy -----------------------------------------------------------------------

def test_kinetic_energy_of_single_mass(single_node):
    dt, samples = 0.1, 11
    t = np.arange(samples) * dt
    x = np.stack([3.0 * t, np.zeros(samples)], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: 2.0}
    )
    per_node, total = dyn.kinetic_energy(d)
    assert per_node[5, 0] == pytest.approx(9.0)
    assert total[5] == pytest.approx(9.0)


def test_kinetic_energy_at_rest(single_node):
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=0.1,
        trajectories={0: np.tile([1.0, 1.0], (11, 1))}, masses={0: 5.0},
    )
    _, total = dyn.kinetic_energy(d)
    assert total[3] == 0.0


def test_total_is_sum_of_nodes(pair, rng):
    dt, samples = 0.01, 51
    t = np.arange(samples) * dt
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=dt,
        trajectories={
            0: np.stack([t, 2 * t], axis=1),
            1: np.stack([1 - t, t**2], axis=1),
        },
        masses={0: 1.0, 1: 2.0},
    )
    per_node, total = dyn.kinetic_energy(d)
    assert np.allclose(per_node[:, 0] + per_node[:, 1], total)


# -- work ------------------------------------------------------------------------------------

def test_gravity_work_over_drop(single_node):
    m, g_acc, h = 2.0, 9.81, 5.0
    snaps = snapshots_from_trajectories(
        single_node,
        {0: np.array([[0.0, h], [0.0, 0.0]])},
        2,
    )
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.array([[0.0, -m * g_acc]])}
    assert dyn.work_values(k, forces)[0].sum() == pytest.approx(m * g_acc * h)


def test_perpendicular_force_does_no_work(single_node):
    snaps = snapshots_from_trajectories(
        single_node, {0: np.array([[0.0, 0.0], [3.0, 0.0]])}, 2
    )
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.array([[0.0, 7.0]])}
    assert dyn.work_values(k, forces)[0].sum() == 0.0


def test_closed_path_under_constant_force(single_node):
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    snaps = snapshots_from_trajectories(single_node, {0: square}, 2)
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.tile([2.0, -1.0], (4, 1))}
    assert dyn.work_values(k, forces)[0].sum() == pytest.approx(0.0)
    # the work pairs to zero with the trace loop
    report = dyn.conservative_check(k, forces)
    assert report.conservative


def test_friction_on_square_loop_is_nonconservative(single_node):
    mu = 0.3
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    snaps = snapshots_from_trajectories(single_node, {0: square}, 2)
    k = kin.build_kinematical_complex(snaps)
    forces = []
    for a in range(4):
        disp = np.asarray(k.displacement(0, a), dtype=float)
        forces.append(-mu * disp / np.linalg.norm(disp))
    report = dyn.conservative_check(k, {0: np.array(forces)})
    assert not report.conservative
    assert report.cycle_work == pytest.approx(-4 * mu) or report.cycle_work == pytest.approx(4 * mu)


def test_zero_force_is_conservative(single_node):
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    snaps = snapshots_from_trajectories(single_node, {0: square}, 2)
    k = kin.build_kinematical_complex(snaps)
    report = dyn.conservative_check(k, {0: np.zeros((4, 2))})
    assert report.conservative
    assert all(np.allclose(u, u[0]) for u in report.potential)


def test_constant_field_potential_matches(single_node):
    path = np.array([[0, 0], [1, 0], [1, 2], [3, 2]], dtype=float)
    snaps = snapshots_from_trajectories(single_node, {0: path}, 2)
    k = kin.build_kinematical_complex(snaps)
    field = {0: (0.0, -9.81)}
    u = dyn.constant_field_potential(k, field)
    forces = {0: np.tile(field[0], (3, 1))}
    report = dyn.conservative_check(k, forces)
    assert report.conservative
    # recovered and closed-form potentials differ by a constant
    diff = report.potential[0] - u[0]
    assert np.allclose(diff, diff[0])


def test_back_and_forth_under_time_varying_force_detected(single_node):
    # same segment walked twice in the same direction with different force
    path = np.array([[0, 0], [1, 0], [0, 0], [1, 0]], dtype=float)
    snaps = snapshots_from_trajectories(single_node, {0: path}, 2)
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]])}
    report = dyn.conservative_check(k, {0: forces[0]})
    assert not report.conservative


def trace_complex_oracle(k, forces, tol):
    """The conservative check on a full trace Complex: a vertex per distinct
    position of each node, a branch per nonzero step, the work paired with
    the cycle basis, and the potential integrated over the complex's own
    spanning forest.  Returns (conservative, witness coefficients, cycle
    work, potential)."""
    labels, walks = [], []
    for i in range(k.base.r[0]):
        seen = {}
        walk = []
        for pos in map(tuple, k.positions[:, i].tolist()):
            if pos not in seen:
                seen[pos] = len(labels)
                labels.append(f"{i}@p{len(seen) - 1}")
            walk.append(seen[pos])
        walks.append(walk)
    w = dyn.work_values(k, forces)
    endpoints, steps, values = [], [], {}
    for i, walk in enumerate(walks):
        for a in range(k.steps):
            if walk[a] != walk[a + 1]:
                values[len(endpoints)] = float(w[i][a])
                endpoints.append((walk[a], walk[a + 1]))
                steps.append(f"{i}@{a}")
    trace = hn.Complex(labels, endpoints, branch_labels=steps)
    work = hn.Cochain(trace, 1, values, hn.REAL64)
    for z in hn.cycle_basis(trace, 1):
        total = hn.evaluate(work, z)
        if abs(float(total)) > tol:
            return False, z.coeffs, float(total), None
    integrated = homology.integrate(work)
    potential = {
        i: -np.array([integrated[v] for v in walk]) for i, walk in enumerate(walks)
    }
    return True, None, None, potential


def assert_matches_trace_complex_oracle(k, forces, tol):
    report = dyn.conservative_check(k, forces, tol)
    conservative, witness, cycle_work, potential = trace_complex_oracle(k, forces, tol)
    assert report.conservative == conservative
    if conservative:
        assert report.witness_cycle is None and report.cycle_work is None
        assert len(report.potential) == len(potential)
        for i, u in potential.items():
            assert report.potential[i].tobytes() == u.tobytes()
    else:
        assert report.potential is None
        assert report.witness_cycle.coeffs == witness
        assert np.float64(report.cycle_work).tobytes() == np.float64(cycle_work).tobytes()


@settings(deadline=None)
@given(motions(), st.data())
def test_conservative_check_matches_the_trace_complex(k, data):
    # zero, constant-field and arbitrary forces; an infinite tolerance
    # passes every cycle, so the potential is integrated on looping traces
    r0, n = k.base.r[0], k.n
    kind = data.draw(st.sampled_from(("zero", "field", "free")))
    if kind == "free":
        coords = st.floats(-1e3, 1e3, allow_nan=False)
        rows = st.lists(st.tuples(*[coords] * n), min_size=k.steps, max_size=k.steps)
        forces = {i: np.array(data.draw(rows)).reshape(k.steps, n) for i in range(r0)}
    else:
        field = st.tuples(*[st.integers(-3, 3)] * n) if kind == "field" else st.just((0,) * n)
        forces = {i: np.tile(np.array(data.draw(field), dtype=float), (k.steps, 1))
                  for i in range(r0)}
    tol = data.draw(st.sampled_from((dyn.DEFAULT_TOL, math.inf)))
    assert_matches_trace_complex_oracle(k, forces, tol)


def forest_loop_potential(per_time, work):
    """The per-sample forest loop ``conservative_check`` runs only on walks
    that revisit a position, kept as the oracle of its cumsum: U(root) = 0
    and U(head) = U(tail) - w(step) into each newly visited vertex."""
    integrated = {per_time[0]: 0.0}
    for tail, head, step in zip(per_time, per_time[1:], work.tolist()):
        if head not in integrated:
            integrated[head] = integrated[tail] + step
    return -np.array([integrated[v] for v in per_time])


@settings(deadline=None)
@given(st.one_of(motions(), motions(coordinates=EXACT_COORDINATES)), st.data())
def test_chord_free_potential_matches_the_forest_loop(k, data):
    # an infinite tolerance passes every cycle, so every walk's potential
    # is integrated; the chord-free ones by the cumsum, bit for bit
    r0, n = k.base.r[0], k.n
    coords = st.floats(-1e3, 1e3, allow_nan=False)
    rows = st.lists(st.tuples(*[coords] * n), min_size=k.steps, max_size=k.steps)
    forces = {i: np.array(data.draw(rows)).reshape(k.steps, n) for i in range(r0)}
    report = dyn.conservative_check(k, forces, math.inf)
    trace = kin.spatial_trace(k)
    for i, per_time in enumerate(trace.node_vertices):
        want = forest_loop_potential(per_time, report.work[i])
        assert report.potential[i].tobytes() == want.tobytes()


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


def friction(path, mu=0.3):
    disp = np.diff(np.asarray(path, dtype=float), axis=0)
    return -mu * disp / np.linalg.norm(disp, axis=1)[:, None]


@pytest.mark.parametrize(
    "path, forces",
    [
        (SQUARE, np.tile([2.0, -1.0], (4, 1))),
        (SQUARE, friction(SQUARE)),
        (SQUARE, np.zeros((4, 2))),
        ([[0, 0], [1, 0], [0, 0], [1, 0]], [[1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]]),
        ([[0, 0], [1, 0], [1, 0], [0, 0], [2, 0]], np.tile([0.5, 0.0], (4, 1))),
    ],
    ids=["square-field", "square-friction", "square-zero", "back-and-forth",
         "pause-and-return"],
)
def test_conservative_check_matches_the_trace_complex_on_loops(path, forces):
    k = kin.KinematicalComplex(
        base=hn.build_complex(["P"], []),
        positions=np.asarray(path, dtype=float)[:, None, :],
    )
    assert kin.spatial_trace(k).chords >= 1
    assert_matches_trace_complex_oracle(k, {0: np.asarray(forces)}, dyn.DEFAULT_TOL)


@settings(deadline=None)
@given(motions(), st.data())
def test_work_values_match_the_per_step_loop(k, data):
    r0, n = k.base.r[0], k.n
    coords = st.floats(-1e6, 1e6, allow_nan=False)
    rows = st.lists(st.tuples(*[coords] * n), min_size=k.steps, max_size=k.steps)
    forces = {i: np.array(data.draw(rows)) for i in range(r0)}
    work = dyn.work_values(k, forces)
    field = {i: f[0] for i, f in forces.items()}
    potential = dyn.constant_field_potential(k, field)
    for i in range(r0):
        want = np.empty(k.steps)
        for a in range(k.steps):
            disp = np.asarray(k.displacement(i, a), dtype=float)
            want[a] = float(forces[i][a] @ disp)
        assert work[i].tobytes() == want.tobytes()
        want = np.array([-float(field[i] @ np.asarray(tuple(x), dtype=float))
                         for x in k.positions[:, i]])
        assert potential[i].tobytes() == want.tobytes()


# -- work-energy and total energy ---------------------------------------------------------------

def free_fall_state(single_node, m=2.0, g_acc=9.81, dt=1e-3, samples=1001):
    t = np.arange(samples) * dt
    x = np.stack([np.zeros(samples), 100.0 - 0.5 * g_acc * t**2], axis=1)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: m}
    )
    snaps = snapshots_from_trajectories(single_node, {0: x}, 2)
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.tile([0.0, -m * g_acc], (samples - 1, 1))}
    return d, k, forces


def test_work_energy_on_free_fall(single_node):
    d, k, forces = free_fall_state(single_node)
    report = dyn.work_energy_check(d, k, forces, tol=1e-6)
    assert report.passed
    delta_ke = 0.5 * 2.0 * (9.81 * 1.0) ** 2
    assert report.max_work_energy_gap / delta_ke <= 1e-6


def test_work_energy_computes_the_work_once(single_node, monkeypatch):
    d, k, forces = free_fall_state(single_node, samples=21)
    calls = []

    def counted(*args):
        calls.append(args)
        return work_values(*args)

    work_values = dyn.work_values
    monkeypatch.setattr(dyn, "work_values", counted)
    assert dyn.work_energy_check(d, k, forces, tol=1e-6).passed
    assert len(calls) == 1


def test_static_network_work_energy(pair):
    traj = {
        0: np.tile([0.0, 0.0], (5, 1)),
        1: np.tile([1.0, 0.0], (5, 1)),
    }
    d = dyn.DynamicsState(complex=pair, n=2, dt=0.1, trajectories=traj,
                          masses={0: 1.0, 1: 1.0})
    snaps = snapshots_from_trajectories(pair, traj, 2)
    k = kin.build_kinematical_complex(snaps)
    forces = {0: np.zeros((4, 2)), 1: np.zeros((4, 2))}
    report = dyn.work_energy_check(d, k, forces, tol=1e-9)
    assert report.passed
    assert report.max_work_energy_gap == 0.0


def test_friction_input_rejected(single_node):
    mu = 0.3
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    snaps = snapshots_from_trajectories(single_node, {0: square}, 2)
    k = kin.build_kinematical_complex(snaps)
    d = dyn.DynamicsState(
        complex=single_node, n=2, dt=0.25, trajectories={0: square},
        masses={0: 1.0},
    )
    forces = []
    for a in range(4):
        disp = np.asarray(k.displacement(0, a), dtype=float)
        forces.append(-mu * disp / np.linalg.norm(disp))
    with pytest.raises(errors.HypothesesUnmet):
        dyn.work_energy_check(d, k, {0: np.array(forces)}, tol=1e-9)


# -- d'Alembert -----------------------------------------------------------------------------------

def test_dalembert_on_free_fall(single_node):
    d, k, forces = free_fall_state(single_node)
    f_ext = {0: np.tile([0.0, -2.0 * 9.81], (d.samples, 1))}
    for direction in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.7)]:
        assert dyn.dalembert_residual(d, {0: direction}, f_ext=f_ext) <= 1e-6


def test_dalembert_scales_linearly_in_perturbation(single_node):
    m, g_acc, dt, samples = 2.0, 9.81, 1e-3, 1001
    t = np.arange(samples) * dt
    f_ext = {0: np.tile([0.0, -m * g_acc], (samples, 1))}
    residuals = []
    epsilons = [1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3]
    for eps in epsilons:
        x = np.stack(
            [np.zeros(samples), 100.0 - 0.5 * g_acc * (1 + eps) * t**2], axis=1
        )
        d = dyn.DynamicsState(
            complex=single_node, n=2, dt=dt, trajectories={0: x}, masses={0: m}
        )
        residuals.append(dyn.dalembert_residual(d, {0: (0.0, 1.0)}, f_ext=f_ext))
    slope, intercept = np.polyfit(epsilons, residuals, 1)
    fitted = slope * np.array(epsilons) + intercept
    ss_res = float(np.sum((np.array(residuals) - fitted) ** 2))
    ss_tot = float(np.sum((np.array(residuals) - np.mean(residuals)) ** 2))
    assert 1 - ss_res / ss_tot >= 0.999
    assert slope == pytest.approx(2.0 * 9.81, rel=1e-4)  # m*g per unit epsilon


def test_dalembert_reduces_to_virtual_work_when_static(pair):
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=0.1,
        trajectories={
            0: np.tile([0.0, 0.0], (11, 1)),
            1: np.tile([1.0, 0.0], (11, 1)),
        },
        masses={0: 1.0, 1: 1.0},
    )
    f_ext = {0: np.tile([3.0, 0.0], (11, 1))}
    res = dyn.dalembert_residual(d, {0: (1.0, 0.0)}, f_ext=f_ext)
    assert res == pytest.approx(3.0)


# -- verdicts at the given tolerance -------------------------------------------------------------

def sampled_check(name, pair, **tol):
    """The report of one sampled check on data that no balance law fits
    exactly, and the largest residual its verdict reads."""
    t = np.arange(12) * 0.1
    if name == "mass":
        d = dyn.DynamicsState(
            complex=pair, n=2, dt=0.1, masses={0: 1 + t**3, 1: 2 - t},
            flows={0: np.cos(t)},
        )
        report = dyn.mass_balance_check(d, **tol)
        return report, report.max_residual
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=0.1, masses={0: 1.0, 1: 2.0},
        trajectories={
            0: np.stack([np.sin(t), t**3], axis=1),
            1: np.stack([1 + np.cos(t), t], axis=1),
        },
    )
    f_int = {0: np.stack([t, -(t**2)], axis=1)}
    if name == "momentum":
        report = dyn.momentum_balance_check(d, f_int=f_int, **tol)
        return report, max(report.max_residual, report.max_collective)
    if name == "angular":
        report = dyn.angular_momentum_balance(d, **tol)
        return report, report.max_residual
    report = dyn.dalembert_check(d, f_int=f_int, **tol)
    return report, report.max_residual


@pytest.mark.parametrize("name", ["mass", "momentum", "angular", "dalembert"])
def test_sampled_check_passes_up_to_its_largest_residual(pair, name):
    _, worst = sampled_check(name, pair)
    assert 0 < worst < math.inf
    assert sampled_check(name, pair, tol=worst)[0].passed
    assert not sampled_check(name, pair, tol=math.nextafter(worst, 0))[0].passed


def test_dalembert_check_sweeps_every_unit_displacement(pair):
    d = dyn.DynamicsState(
        complex=pair, n=2, dt=0.1, masses={0: 1.0, 1: 1.0},
        trajectories={
            0: np.tile([0.0, 0.0], (11, 1)),
            1: np.tile([1.0, 0.0], (11, 1)),
        },
    )
    f_ext = {1: np.tile([0.0, -4.0], (11, 1))}
    f_int = {0: np.tile([3.0, 0.0], (11, 1))}
    swept = max(
        dyn.dalembert_residual(d, {i: unit}, f_ext=f_ext, f_int=f_int)
        for i in range(2)
        for unit in [(1.0, 0.0), (0.0, 1.0)]
    )
    report = dyn.dalembert_check(d, f_ext=f_ext, f_int=f_int)
    assert report.max_residual == swept == 4.0
    assert not report.passed


# -- node-stacked arrays against the per-node loop --------------------------------------------

# finite values, signed zeros, and values whose differences overflow to inf
STATE_VALUES = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from((0.0, -0.0, 1e307, -1e307))
)


@st.composite
def dynamics_cases(draw):
    """A ``DynamicsState`` with nodes without trajectories, explicit
    momenta, scalar and sampled masses, and branch flows, plus static,
    sampled and missing external forces, branch forces and an origin."""
    r0, n, N = draw(st.integers(1, 10)), draw(st.integers(1, 3)), draw(st.integers(3, 9))
    pairs = [(a, b) for a in range(r0) for b in range(r0) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    cx = hn.build_complex([f"v{i}" for i in range(r0)],
                          [(f"v{a}", f"v{b}") for a, b in edges],
                          branch_labels=[f"b{a}" for a in range(len(edges))])

    def some(count, at_least=0):
        if not count:
            return []
        return draw(st.lists(st.integers(0, count - 1), min_size=at_least, unique=True))

    def series(*shape):
        return draw(arrays(float, shape, elements=STATE_VALUES))

    def vector():
        return series(n) if draw(st.booleans()) else series(N, n)

    masses = {}
    for i in some(r0):
        kind = draw(st.sampled_from(("scalar", "constant", "sampled")))
        m = draw(STATE_VALUES)
        masses[i] = m if kind == "scalar" else np.full(N, m) if kind == "constant" else series(N)
    d = dyn.DynamicsState(
        complex=cx, n=n, dt=draw(st.sampled_from((0.1, 1e-3, 0.25))),
        # one trajectory at least, which gives the sample count
        trajectories={i: series(N, n) for i in some(r0, at_least=1)},
        masses=masses,
        flows={a: series(N) for a in some(len(edges))},
    )
    kind = draw(st.sampled_from(("none", "convective", "free")))
    if kind != "none":
        with np.errstate(all="ignore"):
            mass, vel, _ = per_node_series(d)
            d.momenta = {
                i: mass[i][:, None] * vel[i] if kind == "convective" else series(N, n)
                for i in some(r0)
            }
    f_ext = {i: vector() for i in some(r0)}
    f_int = {a: vector() for a in some(len(edges))}
    origin = series(n) if draw(st.booleans()) else None
    return d, f_ext, f_int, origin


def per_node_series(d):
    """Each node's mass samples, velocity and momentum, node by node: the
    velocity of a node without a trajectory is zero, and so is its
    momentum unless one is given."""
    N, n = d.samples, d.n
    mass, vel, mom = {}, {}, {}
    for i in range(d.complex.r[0]):
        m = np.asarray(d.masses.get(i, 0.0), dtype=float)
        mass[i] = np.full(N, float(m)) if m.ndim == 0 else m
        moving = i in d.trajectories
        vel[i] = series_derivative(d.trajectories[i], d.dt) if moving else np.zeros((N, n))
        if d.momenta is not None and i in d.momenta:
            mom[i] = np.asarray(d.momenta[i], dtype=float)
        else:
            mom[i] = mass[i][:, None] * vel[i] if moving else np.zeros((N, n))
    return mass, vel, mom


def loop_max(arrays):
    """Largest |entry| over the arrays, one array at a time; NaN when any
    entry is NaN."""
    worst = 0.0
    for a in arrays:
        worst = float(np.maximum(worst, np.max(np.abs(a), initial=0.0)))
    return worst


def per_node_boundary(d, values, shape):
    out = {i: np.zeros(shape) for i in range(d.complex.r[0])}
    for a, value in values.items():
        tail, head = d.complex.branches[a]
        out[head] += np.asarray(value, dtype=float)
        out[tail] -= np.asarray(value, dtype=float)
    return out


def per_node_wedge(r, f):
    cols = wedge_components(r.T, f.T)
    return np.stack(cols, axis=1) if cols else np.zeros((len(r), 0))


def per_node_numbers(d, f_ext, f_int, origin):
    """The numbers of the momentum, angular, d'Alembert, mass and kinetic
    checks from a loop over the nodes; a hypothesis the angular balance
    finds unmet is its error, raised here as there."""
    N, n, r0 = d.samples, d.n, d.complex.r[0]
    trim = slice(2, -2) if N > 5 else slice(None)
    mass, vel, mom = per_node_series(d)
    pdot = {i: series_derivative(p, d.dt) for i, p in mom.items()}
    ext = {i: np.asarray(f_ext.get(i, 0.0), dtype=float) for i in range(r0)}
    internal = per_node_boundary(d, f_int, (N, n))
    res = [pdot[i] - ext[i] - internal[i] for i in range(r0)]
    total_pdot, total_ext = np.zeros((N, n)), np.zeros((N, n))
    for i in range(r0):
        total_pdot += pdot[i]
        total_ext += ext[i]
    nets = [ext[i] + internal[i] - pdot[i] for i in range(r0)]
    incident = per_node_boundary(d, d.flows, (N,))
    total_mass = np.zeros(N)
    for i in range(r0):
        total_mass = total_mass + mass[i]
    moving = [i for i in range(r0) if i in d.trajectories]
    ke = {i: 0.5 * np.sum(mom[i] * vel[i], axis=1) for i in moving}
    total_ke = np.zeros(N)
    for i in moving:
        total_ke = total_ke + ke[i]
    numbers = {
        "momentum": (loop_max(r[trim] for r in res), loop_max(res),
                     loop_max([total_pdot - total_ext])),
        "dalembert": loop_max(net @ unit for net in nets for unit in np.eye(n)),
        "mass": (loop_max(series_derivative(mass[i], d.dt) - incident[i]
                          for i in range(r0)),
                 total_mass, loop_max(incident.values())),
        "kinetic": ([ke[i] for i in moving], total_ke),
    }
    try:
        for i in d.momenta or {}:
            err = float(np.max(np.abs(mom[i] - mass[i][:, None] * vel[i]), initial=0.0))
            if err > dyn._HYPOTHESIS_TOL:
                raise errors.NonConvectiveMomentum(
                    f"momentum at node {i} deviates from m*v by {err:.3e}"
                )
        for i in range(r0):
            if float(np.max(mass[i]) - np.min(mass[i])) > dyn._HYPOTHESIS_TOL:
                raise errors.HypothesesUnmet("angular-momentum balance needs constant masses")
    except errors.HomnetError as exc:
        numbers["angular"] = (type(exc), str(exc))
        return numbers
    x0 = np.zeros(n) if origin is None else origin
    drift, worst = [], []
    for i in moving:
        r = d.trajectories[i] - x0
        L = per_node_wedge(r, mom[i])
        f = np.asarray(f_ext.get(i, np.zeros((N, n))), dtype=float)
        worst.append(series_derivative(L, d.dt) - per_node_wedge(r, f))
        drift.append(L - L[0])
    numbers["angular"] = (loop_max(w[trim] for w in worst), loop_max(worst), loop_max(drift))
    return numbers


def bits(x):
    """The bytes of a float array with every NaN made one NaN."""
    a = np.asarray(x, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


@settings(deadline=None, max_examples=150)
@given(dynamics_cases())
def test_stacked_checks_match_the_per_node_loop_bit_for_bit(case):
    d, f_ext, f_int, origin = case
    with np.errstate(all="ignore"):
        want = per_node_numbers(d, f_ext, f_int, origin)
        momentum = dyn.momentum_balance_check(d, f_ext=f_ext, f_int=f_int)
        dalembert = dyn.dalembert_check(d, f_ext=f_ext, f_int=f_int)
        mass = dyn.mass_balance_check(d)
        ke, total_ke = dyn.kinetic_energy(d)
        try:
            angular = dyn.angular_momentum_balance(d, forces=f_ext, origin=origin)
            got_angular = (angular.max_residual, angular.max_residual_full, angular.max_drift)
        except errors.HomnetError as exc:
            got_angular = (type(exc), str(exc))
    assert bits([momentum.max_residual, momentum.max_residual_full,
                 momentum.max_collective]) == bits(want["momentum"])
    assert bits(dalembert.max_residual) == bits(want["dalembert"])
    residual, total_mass, incident = want["mass"]
    assert bits(mass.max_residual) == bits(residual)
    assert bits(mass.total_mass) == bits(total_mass)
    assert mass.flow_is_cycle == (incident <= dyn.DEFAULT_TOL)
    per_node_ke, want_total_ke = want["kinetic"]
    assert [bits(ke[:, j]) for j in range(ke.shape[1])] == list(map(bits, per_node_ke))
    assert bits(total_ke) == bits(want_total_ke)
    if isinstance(got_angular[0], float):
        assert bits(got_angular) == bits(want["angular"])
    else:
        assert got_angular == want["angular"]
