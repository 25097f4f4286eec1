"""Error norms, convergence orders and stability regions of r(x, y): step's stages on one mode."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .stepper import amplification_polynomial


def _pair(exact, numeric) -> Tuple[np.ndarray, np.ndarray]:
    exact = np.asarray(exact, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    if exact.shape != numeric.shape:
        raise ValueError(f"length mismatch: {exact.shape} vs {numeric.shape}")
    return exact, numeric


def max_norm_error(exact, numeric) -> float:
    """max_i |exact_i - numeric_i|."""
    exact, numeric = _pair(exact, numeric)
    return float(np.max(np.abs(exact - numeric)))


def gre(exact, numeric) -> float:
    """Global relative error: sum_i |exact_i - numeric_i| / sum_i |exact_i|."""
    exact, numeric = _pair(exact, numeric)
    denom = float(np.sum(np.abs(exact)))
    if denom == 0.0:
        raise ValueError("GRE undefined for an identically zero reference")
    return float(np.sum(np.abs(exact - numeric))) / denom


def observed_order(e_coarse: float, e_fine: float) -> float:
    """log2 of the error drop under one halving of the discretization."""
    if not (e_coarse > 0 and e_fine > 0):
        raise ValueError("observed order needs two positive errors")
    return math.log10(e_coarse / e_fine) / math.log10(2.0)


DEFAULT_WINDOW = (-8.0, 4.0, -8.0, 8.0)
DEFAULT_RESOLUTION = 512
# samples per block of rows of a scan and of the field CSV: a scan block's Horner
# temporaries are a few complex arrays, near 2 MB at any resolution, 8 blocks at 512 x 512
_SAMPLES_PER_CALL = 1 << 15


@dataclass(eq=False)
class StabilityField:
    """Sampled |r(x, y)| over a rectangle of the complex x plane."""

    y: complex
    re_axis: np.ndarray
    im_axis: np.ndarray
    magnitudes: np.ndarray  # shape (len(im_axis), len(re_axis))
    boundary: List[np.ndarray] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the window contains no |r| <= 1 samples."""
        return not bool(np.any(self.magnitudes <= 1.0))

    def area(self) -> float:
        """Grid-cell estimate of the |r| <= 1 area inside the window."""
        cell = (self.re_axis[1] - self.re_axis[0]) * (self.im_axis[1] - self.im_axis[0])
        return float(np.sum(self.magnitudes <= 1.0) * cell)


def _bisect_crossings(r, p_in: np.ndarray, p_out: np.ndarray) -> np.ndarray:
    """Points on the segments [p_in, p_out] where |r| crosses 1, all bisected at once.

    ``r`` is the scan's r(x) and ``p_in`` holds the |r| <= 1 end of each
    segment.  Each pass evaluates every midpoint in one call, until every
    interval is shorter than 1e-12 or has no float64 midpoint strictly inside
    it, and returns the midpoints.  The loop ends for finite ends: each pass
    moves an end of every interval with a midpoint strictly inside to that
    midpoint, and a finite interval holds finitely many float64.
    """
    while True:
        mid = 0.5 * (p_in + p_out)
        if np.all((np.abs(p_out - p_in) < 1e-12) | (mid == p_in) | (mid == p_out)):
            return mid
        mid_in = np.abs(r(mid)) <= 1.0
        p_in, p_out = np.where(mid_in, mid, p_in), np.where(mid_in, p_out, mid)


def _link_segments(tails: np.ndarray, heads: np.ndarray, points: np.ndarray) -> List[np.ndarray]:
    """Chain the directed segments ``tails[s] -> heads[s]`` into polylines.

    Nodes are crossing-edge indices into ``points``.  Each node starts at most
    one segment and ends at most one, so the chains are open paths and closed
    loops.  The open paths are walked first, each from a node that no segment
    enters; the remaining nodes are then visited in increasing order, so each
    loop is opened at its smallest node and ends on its first point.  The
    polylines are ordered by their first node.
    """
    following = dict(zip(tails.tolist(), heads.tolist()))
    path_starts = sorted(following.keys() - following.values())
    chains = []
    for node in path_starts + sorted(following):
        chain = [node]
        while node in following:
            node = following.pop(node)
            chain.append(node)
        if len(chain) > 1:  # a node of a chain already walked yields [node]
            chains.append(chain)
    chains.sort()  # by first node: no two chains share one
    polylines = [points[chain] for chain in chains]
    return [np.column_stack((pts.real, pts.imag)) for pts in polylines]


def scan_axes(window: tuple, resolution: int) -> Tuple[np.ndarray, np.ndarray]:
    """The real and imaginary axes of a scan: ``resolution`` >= 16 points across the window."""
    re_min, re_max, im_min, im_max = map(float, window)
    if not np.isfinite(window).all():
        raise ValueError(f"the window {window} must be finite")
    if not (re_max > re_min and im_max > im_min):
        raise ValueError(f"window {window} must satisfy re_min < re_max and im_min < im_max")
    if not isinstance(resolution, numbers.Integral) or isinstance(resolution, bool):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16 samples per axis, got {resolution}")
    if not math.isfinite((re_max - re_min) * (im_max - im_min) * (resolution / (resolution - 1)) ** 2):
        raise ValueError(f"the area of window {window} overflows float64")
    return np.linspace(re_min, re_max, resolution), np.linspace(im_min, im_max, resolution)


def stability_scan(y, window: tuple = DEFAULT_WINDOW,
                   resolution: int = DEFAULT_RESOLUTION) -> StabilityField:
    """Sample |r(x, y)| on the window and extract the |r| = 1 level set.

    r is its quartic in x, from :func:`~imexks.stepper.amplification_polynomial`
    once per y and evaluated by Horner's rule in blocks of whole rows, about
    ``_SAMPLES_PER_CALL`` points each, so the scan's working memory is the
    field plus a few bytes per sample of boolean masks.  A point where the
    quartic overflows lies outside the |r| <= 1 region.

    Marching squares over the sample grid: every grid edge whose two samples
    lie on different sides of |r| = 1 is a crossing edge.  Each crossing edge
    is bisected once on the same quartic, all edges together, to 1e-12 or to
    float resolution where that is coarser (see :func:`_bisect_crossings`), so
    boundary points lie on grid edges and satisfy ||r| - 1| <= 1e-3
    regardless of resolution.  Each cell joins its crossing edges in pairs
    (a saddle cell by its centre sample), oriented with |r| <= 1 on the left.
    A walk over the crossing edges in the order of their grid indices (h edge
    (j, i)-(j, i+1) is j (res - 1) + i, and v edge (j, i)-(j+1, i) is
    res (res - 1) + j res + i; see :func:`_link_segments`) chains the segments
    into open polylines, which end on the window's edge, and closed ones,
    which end on their first point.  An empty field (window entirely outside
    the stability region) is flagged, not an error.
    """
    y = complex(y)
    if not np.isfinite(y):
        raise ValueError(f"y = {y} must be finite")
    re_axis, im_axis = scan_axes(window, resolution)
    quartic = amplification_polynomial(y)

    def r(x):  # |r| is inf or nan where the quartic overflows, and counts as outside
        with np.errstate(over="ignore", invalid="ignore"):
            return quartic(x)

    rows = max(1, _SAMPLES_PER_CALL // resolution)
    magnitudes = np.empty((resolution, resolution))
    for lo in range(0, resolution, rows):
        np.abs(r(re_axis + 1j * im_axis[lo:lo + rows, None]), out=magnitudes[lo:lo + rows])

    def x_at(j, i):  # the sample points re_axis[i] + i im_axis[j], as the blocks build them
        return re_axis[i] + 1j * im_axis[j]

    inside = magnitudes <= 1.0
    # every edge by its grid index: h edges (j, i)-(j, i+1), then v edges (j, i)-(j+1, i)
    n_h = resolution * (resolution - 1)
    crosses = np.empty(2 * n_h, dtype=bool)
    cross_h, cross_v = crosses[:n_h].reshape(resolution, -1), crosses[n_h:].reshape(-1, resolution)
    np.not_equal(inside[:, :-1], inside[:, 1:], out=cross_h)
    np.not_equal(inside[:-1], inside[1:], out=cross_v)
    ids = np.flatnonzero(crosses)
    vertical = ids >= n_h
    j, i = np.where(vertical, np.divmod(ids - n_h, resolution), np.divmod(ids, resolution - 1))
    ends = x_at(j, i), x_at(j + vertical, i + ~vertical)
    points = _bisect_crossings(r, *np.where(inside[j, i], ends, ends[::-1]))  # inside end first

    # cells (j, i) with a crossing; edge k runs counter-clockwise from corner k:
    # bottom, right, top, left from corners (j, i), (j, i+1), (j+1, i+1), (j+1, i)
    jc, ic = np.nonzero(cross_h[:-1] | cross_h[1:] | cross_v[:, :-1] | cross_v[:, 1:])
    bottom, left = jc * (resolution - 1) + ic, n_h + jc * resolution + ic
    edges = np.stack((bottom, left + 1, bottom + resolution - 1, left), axis=1)
    crossing = crosses[edges]
    # a crossing edge k leaves the |r| <= 1 region exactly when corner k is inside
    leaving = inside[jc[:, None] + [0, 0, 1, 1], ic[:, None] + [0, 1, 1, 0]]
    # a segment runs from each leaving edge k to the first crossing edge met counter-
    # clockwise, or to edge k+3 in a saddle cell whose centre sample is outside
    cell, k = np.nonzero(crossing & leaving)
    ahead = 1 + np.argmax(crossing[cell[:, None], (k[:, None] + np.arange(1, 4)) % 4], axis=1)
    saddle = crossing.all(axis=1)
    sj, si = jc[saddle], ic[saddle]
    centre = x_at(sj, si) + 0.5 * (x_at(sj + 1, si + 1) - x_at(sj, si))
    clockwise = saddle.copy()
    clockwise[saddle] = ~(np.abs(r(centre)) <= 1.0)
    turn = np.where(clockwise[cell], 3, ahead)
    tails, heads = np.searchsorted(ids, (edges[cell, k], edges[cell, (k + turn) % 4]))

    boundary = _link_segments(tails, heads, points)
    return StabilityField(y=y, re_axis=re_axis, im_axis=im_axis, magnitudes=magnitudes,
                          boundary=boundary)


def _decade_start(e: int) -> float:
    """The least float64 >= 10^e."""
    x = float(f"1e{e}")
    n, d = x.as_integer_ratio()
    return x if n * 10 ** max(-e, 0) >= d * 10 ** max(e, 0) else math.nextafter(x, math.inf)


# `%.17e` in integer arithmetic (see write_field_csv): where the decades 10^-10..10^18
# start, 5^k < 2^63 for k <= 27, and the ASCII texts of three digits and of exponents
_DECADES = np.array([_decade_start(e) for e in range(-10, 19)])
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_DIGITS3 = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_EXPONENTS = np.frombuffer("".join(f"e{e:+03d}" for e in range(-11, 19)).encode(), np.uint8)


def _e17_records(values: np.ndarray):
    """``%.17e`` of each float64 of a 1-D array as 23 ASCII bytes, and where they are exact."""
    e = np.searchsorted(_DECADES, values, side="right") - 11  # 10^e <= v < 10^(e+1)
    bits = values.view(np.uint64)
    k, m = 17 - e, (bits & ((1 << 52) - 1)) | (1 << 52)
    shift = 1075 - (bits >> 52).astype(np.int64) - k  # -(E + k), E = biased exponent - 1075
    exact = (k <= 27) & (shift > 0)  # so k >= 0 (v < 1e18) and shift <= 59 (v >= 1e-10)
    f, s = _POW5[np.clip(k, 0, 27)], np.clip(shift, 1, 63).astype(np.uint64)
    m1, m0, f1, f0 = m >> 32, m & 0xFFFFFFFF, f >> 32, f & 0xFFFFFFFF
    low = m0 * f0
    mid = m1 * f0 + m0 * f1 + (low >> 32)  # < 2^53 + 2^63 + 2^32
    high = m1 * f1 + (mid >> 32)  # m 5^k = high 2^64 + low
    low = (low & 0xFFFFFFFF) | (mid << 32)
    digits = (high << (64 - s)) | (low >> s)
    rest, half = low & ((1 << s) - 1), 1 << (s - 1)
    digits += (rest > half) | ((rest == half) & (digits & 1 == 1))
    groups = np.empty((len(values), 6), np.intp)
    for g in range(5, -1, -1):
        digits, groups[:, g] = np.divmod(digits, 1000)
    text = np.take(_DIGITS3, groups, axis=0).reshape(-1, 18)
    records = np.empty((len(values), 23), np.uint8)
    records[:, 0], records[:, 1], records[:, 2:19] = text[:, 0], ord("."), text[:, 1:]
    records[:, 19:] = np.take(_EXPONENTS.reshape(-1, 4), e + 11, axis=0)
    return records, exact


def write_field_csv(stability_field: StabilityField, path):
    """Flatten the sampled field to rows of (re_x, im_x, abs_r).

    The file is byte for byte what ``np.savetxt`` writes for the stacked
    columns with ``fmt="%.17e"``, header ``re_x,im_x,abs_r`` and no comment
    prefix.  Each axis value is formatted once.  The magnitudes go in blocks
    of whole rows, about ``_SAMPLES_PER_CALL`` samples each: a row's text is
    a template of its axis texts with 23 bytes left before each newline,
    into which the magnitudes' records from ``_e17_records`` are copied.
    Where each record goes is arithmetic on the template: split at ``{im}``
    into pieces p_0..p_n, a row whose ``im`` text has w bytes holds record i
    at len(p_0 + ... + p_i) + (i + 1) w + 1.

    Those records are Python's correctly rounded ``%.17e`` in integer
    arithmetic.  A positive normal float64 is v = m 2^E with m < 2^53.  Its
    decade e, 10^e <= v < 10^(e+1), is found among the least float64 at or
    above each of 10^-10..10^18.  With k = 17 - e the text is the 18 digits
    of D = round-half-even(m 5^k 2^(E+k)) and the exponent e.  For
    0 <= k <= 27, 5^k < 2^63, so m 5^k < 2^116 is formed exactly in two
    64-bit words of 32-bit limb products (each below 2^64), and for a right
    shift s = -(E + k) in (0, 64) the floor and the remainder that decides
    the rounding are exact too.  D stays below 10^18, since no float64 in
    [1e-10, 1e18) lies within 5e-19 of the next power of ten.  This covers
    every v in [1e-10, 1e14).  A row holding any other value (0, negatives,
    subnormals, larger or smaller values, inf or nan) is formatted by
    Python's ``%`` instead.
    """
    magnitudes = np.asarray(stability_field.magnitudes, dtype=float)
    template = "".join(f"{re:.17e},{{im}},%.17e\n" for re in stability_field.re_axis.tolist())
    by_python = template.encode().split(b"{im}")
    by_records = template.replace("%.17e", "0" * 23).encode().split(b"{im}")
    lead = np.cumsum([len(piece) for piece in by_records[:-1]], dtype=np.intp) + 1
    rows = max(1, _SAMPLES_PER_CALL // max(1, magnitudes.shape[1]))
    with open(path, "wb") as fh:
        fh.write(b"re_x,im_x,abs_r\n")
        for lo in range(0, len(magnitudes), rows):
            block = magnitudes[lo:lo + rows]
            records, exact = _e17_records(block.ravel())
            fast = exact.reshape(block.shape).all(axis=1)
            ims = [f"{im:.17e}".encode() for im in stability_field.im_axis[lo:lo + rows].tolist()]
            lines = [im.join(by_records) if ok else im.join(by_python) % tuple(row.tolist())
                     for im, row, ok in zip(ims, block, fast)]
            sizes = np.array([len(line) for line in lines])
            widths = np.array([len(im) for im in ims])
            starts = (np.cumsum(sizes) - sizes)[fast, None] + lead
            starts += widths[fast, None] * np.arange(1, lead.size + 1)
            text = bytearray().join(lines)
            # the records go through a view of 23-byte items that start at every byte
            items = np.ndarray((max(len(text) - 22, 0),), dtype="V23", buffer=text, strides=(1,))
            items[starts.ravel()] = records.view("V23").reshape(block.shape)[fast].ravel()
            fh.write(text)


def write_boundary_csv(stability_field: StabilityField, path):
    """Boundary polylines as (polyline_index, re_x, im_x) rows.

    Byte for byte ``np.savetxt`` with ``fmt=("%d", "%.17e", "%.17e")`` and header
    ``polyline,re_x,im_x``: no polylines give only the header line.
    """
    text = "".join(f"{idx},{px:.17e},{py:.17e}\n" for idx, line in enumerate(stability_field.boundary)
                   for px, py in line.tolist())
    with open(path, "wb") as fh:
        fh.write(("polyline,re_x,im_x\n" + text).encode())
