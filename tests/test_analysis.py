import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from imexks import analysis
from imexks.analysis import (
    StabilityField,
    amplification_factor,
    gre,
    linear_truncation_check,
    max_norm_error,
    observed_order,
    self_difference_error,
    stability_scan,
    write_boundary_csv,
    write_field_csv,
)
from imexks.stepper import scalar_amplification


# ------------------------------------------------------------------- norms


def test_max_norm_trivial_cases():
    assert max_norm_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert max_norm_error([1.0, 2.0], [1.5, 2.0]) == 0.5


def test_max_norm_length_check():
    with pytest.raises(ValueError):
        max_norm_error([1.0], [1.0, 2.0])


def test_gre_trivial_cases():
    assert gre([1.0, 2.0], [1.0, 2.0]) == 0.0
    exact = np.array([3.0, 4.0, 5.0])
    assert gre(exact, 1.01 * exact) == pytest.approx(0.01, abs=1e-12)


def test_gre_zero_reference_rejected():
    with pytest.raises(ValueError):
        gre([0.0, 0.0], [1.0, 1.0])


def test_observed_order_identities():
    assert observed_order(16.0, 1.0) == pytest.approx(4.0, abs=1e-14)
    assert observed_order(6.157e-03, 3.775e-04) == pytest.approx(4.0278, abs=5e-4)
    assert observed_order(9.031e-04, 6.291e-05) == pytest.approx(3.8436, abs=5e-4)


@settings(max_examples=50, deadline=None)
@given(e=st.floats(1e-12, 1e3))
def test_observed_order_of_sixteenfold_drop(e):
    assert observed_order(16.0 * e, e) == pytest.approx(4.0, abs=1e-9)


def test_observed_order_rejects_nonpositive():
    with pytest.raises(ValueError):
        observed_order(0.0, 1.0)


def test_self_difference_error():
    assert self_difference_error([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert self_difference_error([2.0, 0.0], [0.5, 0.0]) == 1.5


def test_norms_satisfy_triangle_inequality():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a, b, c = rng.standard_normal((3, 17))
        assert max_norm_error(a, c) <= max_norm_error(a, b) + max_norm_error(b, c) + 1e-12


# --------------------------------------------------------------- truncation


def test_linear_truncation_ratios_near_thirty_two():
    results = linear_truncation_check(2.0, 1.0, [0.1, 0.05, 0.025, 0.0125])
    errors = [e for (_, e) in results]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for a, b in zip(errors, errors[1:]):
        assert 24.0 <= a / b <= 40.0


def test_linear_truncation_without_explicit_part_is_pade_defect():
    (k, err), = linear_truncation_check(2.0, 0.0, [0.1])
    z = 0.2
    pade = (12 - 6 * z + z * z) / (12 + 6 * z + z * z)
    assert err == pytest.approx(abs(pade - math.exp(-z)), rel=1e-10)


def test_linear_truncation_rejects_bad_steps():
    with pytest.raises(ValueError):
        linear_truncation_check(2.0, 1.0, [0.1, 0.2])
    with pytest.raises(ValueError):
        linear_truncation_check(2.0, 1.0, [-0.1])


# ------------------------------------------------------------ amplification


def test_amplification_at_origin():
    assert amplification_factor(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_amplification_reduces_to_rk4_polynomial_without_implicit_part():
    rng = np.random.default_rng(17)
    for x in rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20):
        rk4 = 1 + x + x**2 / 2 + x**3 / 6 + x**4 / 24
        assert abs(amplification_factor(x, 0.0) - rk4) <= 1e-12


def test_amplification_reduces_to_pade_without_explicit_part():
    assert amplification_factor(0.0, -1.0) == pytest.approx(7.0 / 19.0, abs=1e-14)


def test_amplification_is_degree_four_in_x():
    y = -3.0 + 0.5j
    nodes = np.array([0.3, 1.1, -0.7, 2.2, -1.9], dtype=complex)
    vander = np.vander(nodes, 5, increasing=True)
    coeff = np.linalg.solve(vander, np.array([amplification_factor(x, y) for x in nodes]))
    probes = np.array([0.9 - 0.4j, -2.0 + 1.3j, 3.7 + 0.1j, 0.01 + 2.4j])
    for x in probes:
        fitted = np.polyval(coeff[::-1], x)
        assert abs(fitted - amplification_factor(x, y)) <= 1e-10


def _x_taylor_coefficients(y):
    nodes = np.array([0.0, 0.1, -0.1, 0.2, -0.2], dtype=complex)
    vander = np.vander(nodes, 5, increasing=True)
    return np.linalg.solve(vander, np.array([amplification_factor(x, y) for x in nodes]))


def test_amplification_series_coefficients():
    c_at_zero = _x_taylor_coefficients(0.0)
    assert np.abs(c_at_zero - [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0]).max() <= 1e-9
    # first-order variation in y by central differences
    dy = 1e-5
    slope = (_x_taylor_coefficients(dy) - _x_taylor_coefficients(-dy)) / (2 * dy)
    assert np.abs(slope - [1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 32.0]).max() <= 1e-6


def test_amplification_pole_proximity_is_an_error():
    pole = complex(-3.0, math.sqrt(3.0))
    with pytest.raises(ValueError):
        amplification_factor(1.0, -pole)


# ------------------------------------------------------------ stability scan


def test_scan_boundary_matches_real_axis_crossing():
    field = stability_scan(0.0, window=(-4.0, 1.0, -4.0, 4.0), resolution=96)
    crossing = brentq(lambda t: abs(amplification_factor(t, 0.0)) - 1.0, -3.0, -2.5)
    assert crossing == pytest.approx(-2.7853, abs=1e-3)
    pts = np.vstack(field.boundary)
    on_axis = pts[np.abs(pts[:, 1]) < 0.05]
    assert np.abs(on_axis[:, 0] - crossing).min() <= 0.05


def test_scan_boundary_points_lie_on_level_set():
    field = stability_scan(-2.0, window=(-6.0, 3.0, -6.0, 6.0), resolution=48)
    pts = np.vstack(field.boundary)
    mags = np.array([abs(amplification_factor(complex(px, qy), -2.0)) for px, qy in pts])
    assert np.abs(mags - 1.0).max() <= 1e-3


def test_scan_area_grows_toward_negative_y():
    areas = [stability_scan(y, window=(-8.0, 4.0, -8.0, 8.0), resolution=128).area()
             for y in (-2.0, -6.0, -10.0)]
    assert areas[0] < areas[1] < areas[2]


def test_scan_imaginary_pair_is_conjugate_symmetric():
    window = (-4.0, 2.0, -6.0, 6.0)
    minus = stability_scan(-5j, window=window, resolution=64)
    plus = stability_scan(5j, window=window, resolution=64)
    assert np.abs(minus.magnitudes - plus.magnitudes[::-1, :]).max() <= 1e-10
    pts_minus, pts_plus = np.vstack(minus.boundary), np.vstack(plus.boundary)
    assert pts_minus.shape == pts_plus.shape
    mirrored = pts_plus[:, 0] - 1j * pts_plus[:, 1]
    gaps = np.abs((pts_minus[:, 0] + 1j * pts_minus[:, 1])[:, None] - mirrored[None, :])
    assert gaps.min(axis=0).max() <= 1e-9
    assert gaps.min(axis=1).max() <= 1e-9


def test_scan_flags_empty_window():
    field = stability_scan(0.0, window=(50.0, 60.0, 50.0, 60.0), resolution=16)
    assert field.is_empty
    assert field.boundary == []
    assert field.area() == 0.0


def test_scan_resolution_guard():
    with pytest.raises(ValueError):
        stability_scan(0.0, resolution=8)
    with pytest.raises(ValueError):
        stability_scan(0.0, window=(1.0, 1.0, 0.0, 2.0))


def test_boundary_polylines_are_chained():
    field = stability_scan(0.0, window=(-4.0, 1.0, -4.0, 4.0), resolution=64)
    assert len(field.boundary) >= 1
    main = max(field.boundary, key=len)
    gaps = np.linalg.norm(np.diff(main, axis=0), axis=1)
    cell = (field.re_axis[1] - field.re_axis[0]) + (field.im_axis[1] - field.im_axis[0])
    assert gaps.max() <= 2.0 * cell
    # the region lies inside the window: every polyline is closed and runs
    # counter-clockwise, with |r| <= 1 on its left
    for line in field.boundary:
        assert np.array_equal(line[0], line[-1])
        x, y = line[:, 0], line[:, 1]
        assert np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]) > 0.0


def test_link_segments_opens_loops_at_their_smallest_node():
    # loops 4 -> 9 -> 1 and 6 -> 11 -> 2 -> 7, each listed from a node that is
    # not its smallest; paths 5 -> 0 -> 10 and 3 -> 8, the first starting
    # above both loops' smallest nodes
    segments = [(9, 1), (5, 0), (6, 11), (3, 8), (2, 7), (4, 9), (0, 10), (11, 2), (1, 4), (7, 6)]
    tails, heads = (np.array(column) for column in zip(*segments))
    lines = analysis._link_segments(tails, heads, np.arange(12) * (1.0 - 2.0j))
    assert [line[:, 0].tolist() for line in lines] == [
        [1, 4, 9, 1], [2, 7, 6, 11, 2], [3, 8], [5, 0, 10]]
    assert all(np.array_equal(line[:, 1], -2.0 * line[:, 0]) for line in lines)
    assert [np.array_equal(line[0], line[-1]) for line in lines] == [True, True, False, False]
    empty = np.array([], dtype=int)
    assert analysis._link_segments(empty, empty, np.array([], dtype=complex)) == []


def test_scan_boundary_contract():
    field = stability_scan(-2.0, window=(-6.0, 3.0, -6.0, 6.0), resolution=128)
    pts = np.vstack(field.boundary)
    # every point lies on a grid edge: one coordinate is exactly a sample
    assert (np.isin(pts[:, 0], field.re_axis) | np.isin(pts[:, 1], field.im_axis)).all()
    mags = np.abs(amplification_factor(pts[:, 0] + 1j * pts[:, 1], -2.0))
    assert np.abs(mags - 1.0).max() <= 1e-9


def _product_field(x, y):
    """|r| <= 1 exactly where Re x * Im x >= 0: one saddle, at the origin."""
    x = np.asarray(x, dtype=complex)
    return np.exp(-x.real * x.imag)


def _reference_segments(field, amp):
    """The scan's segments, found cell by cell with one scalar bisection per crossing."""
    re, im, y = field.re_axis, field.im_axis, field.y

    def bisect(p_in, p_out):
        for _ in range(48):
            mid = 0.5 * (p_in + p_out)
            if abs(amp(mid, y)) <= 1.0:
                p_in = mid
            else:
                p_out = mid
            if abs(p_out - p_in) < 1e-12:
                break
        return 0.5 * (p_in + p_out)

    segments = []
    for j in range(len(im) - 1):
        for i in range(len(re) - 1):
            cell = [(j, i), (j, i + 1), (j + 1, i + 1), (j + 1, i)]
            corners = [complex(re[b], im[a]) for a, b in cell]
            flags = [field.magnitudes[a, b] <= 1.0 for a, b in cell]
            pts = []
            for k in range(4):
                p, q = corners[k], corners[(k + 1) % 4]
                if flags[k] != flags[(k + 1) % 4]:
                    pts.append(bisect(p, q) if flags[k] else bisect(q, p))
            if len(pts) == 2:
                segments.append(pts)
            elif len(pts) == 4:
                centre = 0.5 * (corners[0] + corners[2])
                if (abs(amp(centre, y)) <= 1.0) == flags[0]:
                    segments += [[pts[0], pts[1]], [pts[2], pts[3]]]
                else:
                    segments += [[pts[0], pts[3]], [pts[1], pts[2]]]
    return np.array(segments, dtype=complex).reshape(-1, 2)


def _polyline_segments(field):
    lines = [line[:, 0] + 1j * line[:, 1] for line in field.boundary]
    return np.vstack([np.column_stack((p[:-1], p[1:])) for p in lines])


@pytest.mark.parametrize("y, window, resolution, saddle", [
    (-2.0, (-6.0, 3.0, -6.0, 6.0), 48, False),
    (-5j, (-4.0, 2.0, -6.0, 6.0), 40, False),
    (0.0, (-1.1, 0.9, -1.05, 0.95), 16, True),
])
def test_scan_matches_cell_by_cell_reference(monkeypatch, y, window, resolution, saddle):
    if saddle:
        monkeypatch.setattr(analysis, "scalar_amplification", _product_field)
    field = stability_scan(y, window=window, resolution=resolution)
    ref = _reference_segments(field, analysis.scalar_amplification)
    got = _polyline_segments(field)
    assert ref.shape == got.shape
    same = np.maximum(np.abs(ref[:, None, 0] - got[None, :, 0]), np.abs(ref[:, None, 1] - got[None, :, 1]))
    swapped = np.maximum(np.abs(ref[:, None, 0] - got[None, :, 1]), np.abs(ref[:, None, 1] - got[None, :, 0]))
    gaps = np.minimum(same, swapped)
    assert gaps.min(axis=0).max() <= 1e-10
    assert gaps.min(axis=1).max() <= 1e-10


@pytest.mark.parametrize("im_window, centre_in", [((-1.05, 0.95), False), ((-0.95, 1.05), True)])
def test_saddle_cell_cuts_off_corners_unlike_its_centre(monkeypatch, im_window, centre_in):
    monkeypatch.setattr(analysis, "scalar_amplification", _product_field)
    field = stability_scan(0.0, window=(-1.1, 0.9) + im_window, resolution=16)
    re, im = field.re_axis, field.im_axis
    i, j = np.searchsorted(re, 0.0) - 1, np.searchsorted(im, 0.0) - 1
    assert re[i] < 0.0 < re[i + 1] and im[j] < 0.0 < im[j + 1]
    centre = complex(0.5 * (re[i] + re[i + 1]), 0.5 * (im[j] + im[j + 1]))
    assert (centre.real * centre.imag >= 0.0) == centre_in

    def cell_edge(p):
        """Which edge of the origin's cell a boundary point lies on, if any."""
        inner_re, inner_im = re[i] < p[0] < re[i + 1], im[j] < p[1] < im[j + 1]
        sides = {"bottom": inner_re and p[1] == im[j], "right": inner_im and p[0] == re[i + 1],
                 "top": inner_re and p[1] == im[j + 1], "left": inner_im and p[0] == re[i]}
        return next((name for name, hit in sides.items() if hit), None)

    crossings = {cell_edge(p) for p in np.vstack(field.boundary)} - {None}
    assert crossings == {"bottom", "right", "top", "left"}
    segments = {frozenset((cell_edge(a), cell_edge(b)))
                for line in field.boundary for a, b in zip(line[:-1], line[1:])
                if cell_edge(a) and cell_edge(b)}
    # corners by the two edges that meet there; quadrants I and III are inside
    corners = {frozenset(("bottom", "left")): True, frozenset(("bottom", "right")): False,
               frozenset(("top", "right")): True, frozenset(("top", "left")): False}
    assert segments == {edges for edges, corner_in in corners.items() if corner_in != centre_in}


def test_scan_amplification_calls_do_not_grow_with_resolution(monkeypatch):
    counts = {}

    def counted(x, y):
        counts[resolution] += 1
        return scalar_amplification(x, y)

    monkeypatch.setattr(analysis, "scalar_amplification", counted)
    for resolution in (64, 256):
        counts[resolution] = 0
        stability_scan(-5j, window=(-15.0, 12.0, -16.0, 16.0), resolution=resolution)
    assert counts[256] <= counts[64] <= 50


# ------------------------------------------------------------------ output


def test_field_csv_format(tmp_path):
    field = stability_scan(0.0, window=(-4.0, 1.0, -4.0, 4.0), resolution=16)
    path = tmp_path / "stab.csv"
    write_field_csv(field, path)
    header = path.read_text().splitlines()[0]
    assert header == "re_x,im_x,abs_r"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (16 * 16, 3)


def test_field_csv_bytes_match_savetxt(tmp_path):
    field = stability_scan(-5j, window=(-4.0, 2.0, -6.0, 6.0), resolution=32)
    re = np.broadcast_to(field.re_axis[None, :], field.magnitudes.shape)
    im = np.broadcast_to(field.im_axis[:, None], field.magnitudes.shape)
    data = np.column_stack([re.ravel(), im.ravel(), field.magnitudes.ravel()])
    np.savetxt(tmp_path / "savetxt.csv", data, delimiter=",", fmt="%.17e",
               header="re_x,im_x,abs_r", comments="")
    write_field_csv(field, tmp_path / "field.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_boundary_csv_format(tmp_path):
    field = stability_scan(0.0, window=(-4.0, 1.0, -4.0, 4.0), resolution=32)
    path = tmp_path / "boundary.csv"
    write_boundary_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "polyline,re_x,im_x"
    assert len(lines) > 10


def test_empty_boundary_csv(tmp_path):
    field = StabilityField(y=0.0, window=(0, 1, 0, 1), re_axis=np.array([0.0, 1.0]),
                           im_axis=np.array([0.0, 1.0]), magnitudes=np.full((2, 2), 2.0))
    path = tmp_path / "empty.csv"
    write_boundary_csv(field, path)
    assert path.read_text() == "polyline,re_x,im_x\n"
