"""Torque envelope extrema, LP correctness, sweep and CSV contracts."""

import csv
import math

import numpy as np
import pytest

from tvcsim.config import EnvelopeSettings
from tvcsim.envelope import (
    ENVELOPE_CSV_HEADER,
    EnvelopeConstraint,
    EnvelopeInfeasibleError,
    _level_ratio_and_sweep,
    _rows,
    envelope_rows,
    envelope_sweep,
    lp_max_covering,
    max_pitch_torque_dt,
    max_pitch_torque_tvc,
    tvc_dt_ratio,
    write_envelope_csv,
)
from tvcsim.oracles import envelope_extrema_grid
from tvcsim.robot import GRAVITY, FanLimits, Posture, builtin_posture, geometry_from_posture
from tvcsim.wrench import FanState, pitch_arms, total_wrench

P1_POSTURE = builtin_posture("P1")
P1 = geometry_from_posture(P1_POSTURE)
HOVER = EnvelopeConstraint.hover(P1, P1_POSTURE)


def lp_oracle(c, a, floor, cap):
    """Vertex enumeration for the covering-constraint LP."""
    best = None
    candidates = [(x, y, z) for x in (0.0, cap) for y in (0.0, cap) for z in (0.0, cap)]
    for free in range(3):
        if a[free] == 0.0:
            continue
        others = [k for k in range(3) if k != free]
        for b1 in (0.0, cap):
            for b2 in (0.0, cap):
                val = (floor - a[others[0]] * b1 - a[others[1]] * b2) / a[free]
                if -1e-9 <= val <= cap + 1e-9:
                    point = [0.0, 0.0, 0.0]
                    point[others[0]], point[others[1]] = b1, b2
                    point[free] = min(max(val, 0.0), cap)
                    candidates.append(tuple(point))
    for point in candidates:
        if sum(ai * xi for ai, xi in zip(a, point)) >= floor - 1e-9:
            value = sum(ci * xi for ci, xi in zip(c, point))
            if best is None or value > best:
                best = value
    return best


def greedy_reference(c, a, floor, cap):
    """The greedy one row at a time in plain floats: (value, x) or None. The
    covering constraint holds to 6e-12 of the floor's magnitude, and a floor
    <= 0, which x = 0 meets, is met by every row."""
    n, tol = len(c), 6e-12 * abs(floor)
    reach = sum(a[i] * cap for i in range(n) if a[i] > 0.0)
    if reach < floor - tol:
        return None
    x = [cap if c[i] > 0.0 or (c[i] == 0.0 and a[i] > 0.0) else 0.0 for i in range(n)]
    gap = floor - sum(a[i] * x[i] for i in range(n))
    moves = sorted((-(c[i] / a[i]), i, 1.0 if x[i] == 0.0 else -1.0) for i in range(n)
                   if (x[i] == 0.0 and a[i] > 0.0) or (x[i] == cap and a[i] < 0.0))
    for _, i, direction in moves if gap > tol else ():
        gain = abs(a[i]) * cap
        if gain >= gap - tol:
            span = max(0.0, gap / abs(a[i]))
            x[i] = span if direction > 0.0 else cap - span
            gap = 0.0
            break
        x[i] = cap if direction > 0.0 else 0.0
        gap -= gain
    if gap > tol and floor > 0.0:
        return None
    return sum(c[i] * x[i] for i in range(n)), x


# (c, a, floor) rows the random draw almost never produces, each solved at a cap of 40
DEGENERATE_LPS = [
    ([0.5, -0.3, 0.2], [1.0, 0.0, 0.5], 30.0),  # a_i = 0
    ([-0.4, 0.0, 0.3], [2.0, 0.0, -1.0], 10.0),  # a_i = 0 with c_i = 0
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 50.0),  # c = 0: every point ties
    ([0.0, -0.2, 0.4], [-1.0, 0.5, 1.0], 20.0),  # c_i = 0, a_i < 0
    ([-0.5, -0.5, -1.0], [1.0, 1.0, 2.0], 30.0),  # equal ratios
    ([-1.0, 1.0, -0.5], [1.0, 1.0, 1.0], 0.0),  # floor = 0
    ([-1.0, 1.0, -0.5], [-1.0, 1.0, 1.0], -5.0),  # floor < 0
    ([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 121.0),  # above the box
    ([1.0, 0.0, 0.0], [-1.0, -1.0, -0.5], 1.0),  # no a_i > 0
    ([0.3, 0.3, 0.3], [0.0, 0.0, 0.0], 1.0),  # a = 0, floor > 0
]
EQUAL_RATIOS = 4  # the DEGENERATE_LPS row whose moves all cost the same


@pytest.mark.parametrize("floor, cap", sorted(
    {(floor, 40.0) for *_, floor in DEGENERATE_LPS} | {(2.0, 2.0), (-1.0, 2.0), (1.0, 0.5)}))
def test_lp_is_the_row_by_row_greedy_and_meets_vertex_enumeration(floor, cap):
    # the envelope passes one floor and one cap: one kernel call solves the
    # random rows, the degenerate rows (each at its own floor with a cap of 40
    # among the pairs) and integer rows in -2..2, where ties and zero
    # coefficients abound, also with c negated, so its zeros are -0.0; each row
    # takes the greedy's steps bit for bit and meets the scalar oracle
    rng = np.random.default_rng(21)
    ties = rng.integers(-2, 3, (2, 500, 3)).astype(float)
    extra_c, extra_a, _ = zip(*DEGENERATE_LPS)
    c = np.vstack([rng.uniform(-1.0, 1.0, (500, 3)), extra_c, ties[0], -ties[0]])
    a = np.vstack([rng.uniform(-1.0, 2.0, (500, 3)), extra_a, ties[1], ties[1]])
    value, x = lp_max_covering(c, a, floor, cap)
    assert value.shape == (len(c),) and x.shape == c.shape
    for i in range(len(c)):
        ref = greedy_reference(c[i].tolist(), a[i].tolist(), floor, cap)
        if ref is None:
            assert value[i] == -math.inf
        else:
            assert value[i] == ref[0] and x[i].tolist() == ref[1], i
        want = lp_oracle(c[i], a[i], floor, cap)
        if want is None:
            assert value[i] == -math.inf
            continue
        assert value[i] == pytest.approx(want, abs=1e-7)
        assert c[i] @ x[i] == pytest.approx(value[i], abs=1e-9)
        assert a[i] @ x[i] >= floor - 1e-7
        assert np.all(x[i] >= -1e-9) and np.all(x[i] <= cap + 1e-9)
    # no value is -0.0, so _table's maxima do not depend on which tie they read
    assert not (np.signbit(value) & (value == 0.0)).any()
    # x = 0 meets a floor <= 0; the a = 0 row misses every floor above 0
    assert (value == -math.inf).any() == (floor > 0.0)
    if 0.0 < floor <= cap:  # equal objective-per-slack ratios go to the lower index
        assert x[500 + EQUAL_RATIOS].tolist() == [floor, 0.0, 0.0]


def test_dt_extrema_hand_arithmetic():
    # tau_max at level attitude: back fan maxed, feet maxed, front fan at the
    # smallest value that still meets the vertical floor
    point = max_pitch_torque_dt(P1, 0.0, HOVER)
    weight = 17.0 * GRAVITY
    f_front_min = weight - 50.0 - 100.0
    expected_max = 50.0 * 0.175 - f_front_min * 0.125 + 100.0 * 0.005
    assert point.tau_max == pytest.approx(expected_max, rel=1e-9)
    expected_min = (weight - 50.0 - 100.0) * 0.175 - 50.0 * 0.125 + 100.0 * 0.005
    assert point.tau_min == pytest.approx(expected_min, rel=1e-9)


def test_dt_matches_grid_oracle():
    for theta_pitch in (-0.4, 0.0, 0.25):
        point = max_pitch_torque_dt(P1, theta_pitch, HOVER)
        lo, hi = envelope_extrema_grid(P1, theta_pitch, HOVER, dt_strategy=True)
        assert point.tau_max == pytest.approx(hi, rel=1e-9)
        assert point.tau_min == pytest.approx(lo, rel=1e-9)


def test_symmetric_geometry_antisymmetric_envelope():
    posture = Posture("SYM", (0.0, -0.25), (0.0, -0.6), (-74.0, 90.0))
    geo = geometry_from_posture(posture)
    c = EnvelopeConstraint.hover(geo, posture)
    dt = max_pitch_torque_dt(geo, 0.0, c)
    assert dt.tau_max == pytest.approx(-dt.tau_min, abs=1e-9)
    tvc = max_pitch_torque_tvc(geo, 0.0, c)
    assert tvc.tau_max == pytest.approx(-tvc.tau_min, rel=1e-6)


def test_infeasible_above_total_thrust():
    c = EnvelopeConstraint(min_vertical_force=201.0, per_fan_max=50.0,
                           foot_angle_range=P1_POSTURE.foot_pitch_range)
    with pytest.raises(EnvelopeInfeasibleError):
        max_pitch_torque_dt(P1, 0.0, c)
    with pytest.raises(EnvelopeInfeasibleError):
        max_pitch_torque_tvc(P1, 0.0, c)


def test_tvc_matches_grid_oracle():
    for theta_pitch in (-0.3, 0.0, 0.2):
        point = max_pitch_torque_tvc(P1, theta_pitch, HOVER)
        lo, hi = envelope_extrema_grid(P1, theta_pitch, HOVER)
        assert point.tau_max == pytest.approx(hi, rel=0.01)
        assert point.tau_min == pytest.approx(lo, rel=0.01)


def random_envelope_cases(seed, count):
    """(geometry, constraint) over P1-P3 with drawn mass, waist spacing and cap;
    every fourth foot range has zero width."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        posture = builtin_posture(("P1", "P2", "P3")[k % 3])
        geo = geometry_from_posture(posture, mass_total=float(rng.uniform(8.0, 20.0)),
                                    fan_spacing_waist=float(rng.uniform(0.1, 0.8)))
        lo, hi = posture.foot_pitch_range
        feet = (lo, hi) if k % 4 else (float(rng.uniform(lo, hi)),) * 2
        cap = float(rng.uniform(0.3, 1.2)) * geo.weight / 2.0
        cases.append((geo, EnvelopeConstraint(geo.weight, cap, feet)))
    return cases


def test_tvc_extrema_are_exact_against_a_dense_foot_grid():
    # the candidate angles reach the LP's maximum over the foot range, so no
    # angle of a 0.01 deg grid does better
    pitches = np.linspace(-0.5, 0.5, 7)
    for geo, constraint in random_envelope_cases(seed=6, count=12):
        lo, hi = constraint.foot_angle_range
        grid = np.linspace(lo, hi, max(2, int(math.degrees(hi - lo) / 0.01) + 1))
        x_c, z_c = geo.com_body[0], geo.com_body[2]
        half_l = 0.5 * geo.fan_spacing_waist
        c = np.stack(np.broadcast_arrays(
            -(half_l - x_c), half_l + x_c,
            2.0 * (np.cos(grid) * (x_c - geo.fan_foot_x) + np.sin(grid) * (geo.fan_foot_z - z_c))),
            axis=-1)
        for theta_pitch, p in zip(pitches, envelope_sweep(geo, constraint, (-0.5, 0.5), 7)):
            cp = math.cos(theta_pitch)
            a = np.stack(np.broadcast_arrays(cp, cp, 2.0 * np.cos(theta_pitch + grid)), axis=-1)
            best_max = lp_max_covering(c, a, constraint.min_vertical_force,
                                       constraint.per_fan_max)[0].max()
            best_min = -lp_max_covering(-c, a, constraint.min_vertical_force,
                                        constraint.per_fan_max)[0].max()
            if p.tvc is None:
                assert best_max == -math.inf
                continue
            tvc = p.tvc
            assert tvc.tau_max >= best_max - 1e-9 * max(1.0, abs(tvc.tau_max))
            assert tvc.tau_min <= best_min + 1e-9 * max(1.0, abs(tvc.tau_min))


@pytest.mark.parametrize("foot_range_deg", [(5.0, 20.0), (-60.0, -5.0)])
def test_foot_range_excluding_zero_matches_grid_oracle(foot_range_deg):
    # DT is the LP at foot angle 0 even where 0 is outside the foot range;
    # TVC must then search the range alone, not fall back on DT's column
    foot_range = tuple(map(math.radians, foot_range_deg))
    for name in ("P1", "P2", "P3"):
        geo = geometry_from_posture(builtin_posture(name))
        c = EnvelopeConstraint(geo.weight, 50.0, foot_range)
        for p in envelope_sweep(geo, c, (-0.3, 0.3), 5):
            th = p.theta_pitch
            for point, dt_strategy in ((p.dt, True), (p.tvc, False)):
                want = envelope_extrema_grid(geo, th, c, dt_strategy=dt_strategy)
                assert (point is None) == (want is None), (name, th, dt_strategy)
                if point is None:
                    continue
                tol = 0.01 * max(map(abs, want))
                assert point.tau_min == pytest.approx(want[0], abs=tol), (name, th, dt_strategy)
                assert point.tau_max == pytest.approx(want[1], abs=tol), (name, th, dt_strategy)


def test_degenerate_foot_range_collapses_to_dt():
    c = EnvelopeConstraint(min_vertical_force=P1.weight, per_fan_max=50.0,
                           foot_angle_range=(0.0, 0.0))
    tvc = max_pitch_torque_tvc(P1, 0.0, c)
    dt = max_pitch_torque_dt(P1, 0.0, HOVER)
    assert tvc.tau_max == pytest.approx(dt.tau_max, abs=1e-9)
    assert tvc.tau_min == pytest.approx(dt.tau_min, abs=1e-9)


def test_ratio_at_least_three_all_postures():
    for name in ("P1", "P2", "P3"):
        posture = builtin_posture(name)
        geo = geometry_from_posture(posture)
        ratio_max, ratio_min = tvc_dt_ratio(geo, EnvelopeConstraint.hover(geo, posture))
        assert ratio_max >= 3.0
        assert ratio_min >= 3.0


def test_level_ratio_raises_like_the_single_pitch_search():
    # DT is checked first, so the ratio names the feet-up search
    weak = EnvelopeConstraint.hover(P1, P1_POSTURE, FanLimits(thrust_max_per_fan=41.0))
    with pytest.raises(EnvelopeInfeasibleError) as single:
        max_pitch_torque_dt(P1, 0.0, weak)
    with pytest.raises(EnvelopeInfeasibleError) as ratio:
        tvc_dt_ratio(P1, weak, 0.0)
    assert str(ratio.value) == str(single.value)
    assert str(ratio.value).endswith("with feet up")


def test_unconstrained_envelope_closed_form():
    # a vanishing vertical floor frees every actuator: back and feet saturate,
    # the front fan idles, and the foot angle rides its range boundary
    c = EnvelopeConstraint(min_vertical_force=1e-9, per_fan_max=50.0,
                           foot_angle_range=P1_POSTURE.foot_pitch_range)
    point = max_pitch_torque_tvc(P1, 0.0, c)
    theta = math.radians(-74.0)
    expected = (
        50.0 * 0.175
        + 100.0 * (math.cos(theta) * 0.005 - math.sin(theta) * 0.367)
    )
    assert point.tau_max == pytest.approx(expected, rel=1e-6)


def test_lp_rows_are_the_wrench_kernels():
    # the LP's objective and constraint rows over (f_front, f_back, f_feet),
    # both feet at one thrust and one angle, against the full wrench
    rng = np.random.default_rng(10)
    for name in ("P1", "P2", "P3"):
        geo = geometry_from_posture(builtin_posture(name))
        for _ in range(50):
            f_front, f_back, f_feet = rng.uniform(0.0, 60.0, 3)
            theta_feet, theta_pitch = rng.uniform(-math.pi / 2, math.pi / 2, 2)
            x = np.array([f_front, f_back, f_feet])
            w = total_wrench(FanState(f_front, f_back, f_feet, f_feet, theta_feet, theta_feet),
                             geo, theta_pitch)
            arms = pitch_arms(geo, geo.com_body[0], geo.com_body[2])
            c, a = _rows(arms, np.array([[theta_pitch]]), np.array([[theta_feet]]))
            assert c[0] @ x == pytest.approx(w.torque_body[1], rel=1e-9)
            assert a[0] @ x == pytest.approx(w.force_world[2] + geo.weight, rel=1e-9)
            # tau_min's row is the negated torque over the same constraint row
            assert c[1].tolist() == (-c[0]).tolist() and a[1].tolist() == a[0].tolist()


def test_sweep_enclosure_and_shape():
    points = envelope_sweep(P1, HOVER)
    assert len(points) == 61
    thetas = [p.theta_pitch for p in points]
    assert thetas == sorted(thetas)
    for p in points:
        assert p.dt is not None and p.tvc is not None
        assert p.tvc.tau_max >= p.dt.tau_max - 1e-9
        assert p.tvc.tau_min <= p.dt.tau_min + 1e-9
    # where a balanced hover exists (level attitude), zero torque is attainable
    level = points[30]
    assert level.theta_pitch == pytest.approx(0.0, abs=1e-12)
    assert level.dt.tau_min <= 0.0 <= level.dt.tau_max
    assert level.tvc.tau_min <= 0.0 <= level.tvc.tau_max


def test_sweep_marks_infeasible_points():
    tight = EnvelopeConstraint(min_vertical_force=199.0, per_fan_max=50.0,
                               foot_angle_range=P1_POSTURE.foot_pitch_range)
    points = envelope_sweep(P1, tight, theta_pitch_range=(-math.pi / 6, math.pi / 6),
                            n_points=21)
    feasible = [p for p in points if p.dt is not None]
    infeasible = [p for p in points if p.dt is None]
    assert feasible and infeasible  # marked, not fatal


@pytest.mark.parametrize("theta_pitch_range, n_points, message", [
    ((-0.1, 0.1), 1, "n_points must be >= 2"),
    ((0.1, -0.1), 5, r"theta_pitch_range must be ordered \(min, max\)"),
    ((math.nan, 0.1), 5, r"theta_pitch_range must be ordered \(min, max\)"),
    ((-0.1, math.nan), 5, r"theta_pitch_range must be ordered \(min, max\)"),
])
def test_sweep_checks_its_settings_as_envelope_settings_does(theta_pitch_range, n_points,
                                                             message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        envelope_sweep(P1, HOVER, theta_pitch_range, n_points)


def test_zero_width_sweep_matches_point_operations():
    points = envelope_sweep(P1, HOVER, theta_pitch_range=(0.1, 0.1), n_points=5)
    assert len(points) == 1
    dt = max_pitch_torque_dt(P1, 0.1, HOVER)
    assert points[0].dt.tau_max == pytest.approx(dt.tau_max, abs=1e-12)
    tvc = max_pitch_torque_tvc(P1, 0.1, HOVER)
    assert points[0].tvc.tau_min == pytest.approx(tvc.tau_min, abs=1e-12)


def test_envelope_csv_format(tmp_path):
    _, rows = _level_ratio_and_sweep(P1, HOVER, EnvelopeSettings((-0.1, 0.1), 5))
    path = tmp_path / "envelope.csv"
    write_envelope_csv(rows, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ENVELOPE_CSV_HEADER
    assert len(rows) == 6
    for row in rows[1:]:
        assert row[5] == "1"
        assert float(row[2]) >= float(row[1])  # dt max >= dt min


def _csv_writer_reference(rows, path):
    """The envelope CSV as csv.writer writes it, one formatted cell at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENVELOPE_CSV_HEADER)
        for theta, *taus, flag in rows:
            writer.writerow([f"{theta:.6g}",
                             *("nan" if math.isnan(tau) else f"{tau:.10g}" for tau in taus),
                             str(flag)])


def test_envelope_csv_rows_are_the_csv_writer_bytes(tmp_path):
    # one % operation per row writes what csv.writer writes cell by cell: signed
    # zeros, the smallest subnormal, the largest doubles, nan pairs, and values
    # that round at the 6th (pitch) or 10th (torque) significant digit
    taus = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            1.23456789049, 1.23456789051, -9999999999.5, 0.99999999995, 1e-5, 123456.78905]
    degrees = [29.9999999999, -29.9999999999, 0.0, -0.0, 9.9999995, 99999.95, 999999.5,
               1.234565, -1e-320, 180.0]
    table, nan = [], math.nan
    for k in range(len(degrees)):
        a, b, c, d = (taus[(k + j) % len(taus)] for j in range(4))
        table.append(([nan, nan] if k % 3 == 1 else [a, b])
                     + ([nan, nan] if k % 4 == 2 else [c, d]))
    rows = envelope_rows(np.radians(degrees), table)
    weak = EnvelopeConstraint.hover(P1, P1_POSTURE, FanLimits(thrust_max_per_fan=43.0))
    rows += _level_ratio_and_sweep(P1, weak, EnvelopeSettings(n_points=21))[1]  # infeasible ends
    assert any(math.isnan(r[1]) for r in rows) and any(math.isnan(r[3]) for r in rows)
    for _, *taus, flag in rows:  # the flag is 0 exactly where a pair is nan
        assert flag == (0 if any(math.isnan(tau) for tau in taus) else 1)
    write_envelope_csv(rows, tmp_path / "rows.csv")
    _csv_writer_reference(rows, tmp_path / "reference.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_constraint_validation():
    with pytest.raises(ValueError):
        EnvelopeConstraint(min_vertical_force=0.0, per_fan_max=50.0,
                           foot_angle_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        EnvelopeConstraint(min_vertical_force=100.0, per_fan_max=-1.0,
                           foot_angle_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        EnvelopeConstraint(min_vertical_force=100.0, per_fan_max=50.0,
                           foot_angle_range=(1.0, -1.0))
    # a NaN fails with its field's message, not later in the search
    with pytest.raises(ValueError, match="^min_vertical_force must be positive$"):
        EnvelopeConstraint(math.nan, 50.0, (-1.0, 1.0))
    with pytest.raises(ValueError, match="^per_fan_max must be positive$"):
        EnvelopeConstraint(P1.weight, math.nan, (-1.0, 1.0))
    with pytest.raises(ValueError, match=r"^foot_angle_range must be ordered \(min, max\)$"):
        EnvelopeConstraint(P1.weight, 50.0, (math.nan, 1.0))
    with pytest.raises(ValueError, match="thrust floor"):
        # the LP's per-fan floor is 0 N; a nonzero one is refused, not ignored
        EnvelopeConstraint.hover(P1, P1_POSTURE, FanLimits(thrust_min=1.0))
