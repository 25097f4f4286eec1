"""Error norms, convergence orders, truncation checks and stability regions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .stepper import scalar_amplification

amplification_factor = scalar_amplification


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


def self_difference_error(u_k, u_2k) -> float:
    """E_k = ||U_k - U_2k||_inf between final states at steps k and 2k."""
    u_k, u_2k = _pair(u_k, u_2k)
    return float(np.max(np.abs(u_k - u_2k)))


def linear_truncation_check(l_value: float, r_value: float,
                            k_list: Sequence[float]) -> List[Tuple[float, float]]:
    """One-step errors of the scheme on u' = -L u + R u, starting from u = 1.

    R is treated explicitly, L implicitly; the error is measured against the
    exact propagator exp((R - L) k).  Consecutive halvings shrink the error
    by about 2^5.
    """
    ks = list(k_list)
    if any(k <= 0 for k in ks):
        raise ValueError("step sizes must be positive")
    if any(b >= a for a, b in zip(ks, ks[1:])):
        raise ValueError("step sizes must decrease")
    out = []
    for k in ks:
        u1 = scalar_amplification(r_value * k, -l_value * k)
        out.append((k, abs(u1 - math.exp((r_value - l_value) * k))))
    return out


DEFAULT_WINDOW = (-8.0, 4.0, -8.0, 8.0)
DEFAULT_RESOLUTION = 512


@dataclass(eq=False)
class StabilityField:
    """Sampled |r(x, y)| over a rectangle of the complex x plane."""

    y: complex
    window: tuple
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
        return float(np.sum(self.magnitudes <= 1.0)) * cell


def _bisect_crossings(y: complex, p_in: np.ndarray, p_out: np.ndarray,
                      iterations: int = 48) -> np.ndarray:
    """Points on the segments [p_in, p_out] where |r| crosses 1, all bisected at once.

    ``p_in`` holds the |r| <= 1 end of each segment.  Each iteration evaluates
    every midpoint in one call; the bisection stops once every interval is
    shorter than 1e-12.
    """
    for _ in range(iterations):
        mid = 0.5 * (p_in + p_out)
        mid_in = np.abs(scalar_amplification(mid, y)) <= 1.0
        p_in, p_out = np.where(mid_in, mid, p_in), np.where(mid_in, p_out, mid)
        if np.all(np.abs(p_out - p_in) < 1e-12):
            break
    return 0.5 * (p_in + p_out)


def _link_segments(tails: np.ndarray, heads: np.ndarray, points: np.ndarray) -> List[np.ndarray]:
    """Chain the directed segments ``tails[s] -> heads[s]`` into polylines.

    Nodes are crossing-edge indices into ``points``.  Each node starts at most
    one segment and ends at most one, so the chains are open paths and closed
    loops.  Pointer jumping gives every node its chain's label (the first node
    of a path, the smallest node of a loop) and its rank along the chain.
    Closed loops end on their first point.
    """
    n = points.size
    if n == 0:
        return []
    nodes = np.arange(n)
    pred = np.full(n, -1, dtype=np.intp)
    pred[heads] = tails
    rounds = n.bit_length()  # 2**rounds > n, longer than any chain

    jump = np.where(pred >= 0, pred, nodes)
    low = nodes
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    closed = pred[jump] >= 0  # a path's jump has stopped at its first node
    label = np.where(closed, low, jump)

    cut = np.where(closed & (label == nodes), -1, pred)  # open each loop at its label
    rank = (cut >= 0).astype(np.intp)
    jump = np.where(cut >= 0, cut, nodes)
    for _ in range(rounds):
        rank = rank + rank[jump]
        jump = jump[jump]

    order = np.lexsort((rank, label))
    chains = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    polylines = []
    for chain in chains:
        if closed[chain[0]]:
            chain = np.append(chain, chain[0])
        pts = points[chain]
        polylines.append(np.column_stack((pts.real, pts.imag)))
    return polylines


def stability_scan(y, window: tuple = DEFAULT_WINDOW,
                   resolution: int = DEFAULT_RESOLUTION) -> StabilityField:
    """Sample |r(x, y)| on the window and extract the |r| = 1 level set.

    Marching squares over the sample grid: every grid edge whose two samples
    lie on different sides of |r| = 1 is a crossing edge.  Each crossing edge
    is bisected once on the exact scalar scheme, all edges together, so
    boundary points lie on grid edges and satisfy ||r| - 1| <= 1e-3
    regardless of resolution.  Each cell joins its crossing edges in pairs
    (a saddle cell by its centre sample), oriented with |r| <= 1 on the left,
    and the segments are linked into polylines by crossing-edge index.  An
    empty field (window entirely outside the stability region) is flagged,
    not an error.
    """
    y = complex(y)
    re_min, re_max, im_min, im_max = window
    if not (re_max > re_min and im_max > im_min):
        raise ValueError(f"degenerate window {window}")
    if resolution < 16:
        raise ValueError("resolution must be at least 16 samples per axis")
    re_axis = np.linspace(re_min, re_max, resolution)
    im_axis = np.linspace(im_min, im_max, resolution)
    x_grid = re_axis[None, :] + 1j * im_axis[:, None]
    magnitudes = np.abs(scalar_amplification(x_grid, y))

    inside = magnitudes <= 1.0
    cross_h = inside[:, :-1] != inside[:, 1:]  # edge (j, i)-(j, i+1)
    cross_v = inside[:-1, :] != inside[1:, :]  # edge (j, i)-(j+1, i)
    jh, ih = np.nonzero(cross_h)
    jv, iv = np.nonzero(cross_v)
    n_h = jh.size
    edge_h = np.full(cross_h.shape, -1, dtype=np.int32)
    edge_h[jh, ih] = np.arange(n_h, dtype=np.int32)
    edge_v = np.full(cross_v.shape, -1, dtype=np.int32)
    edge_v[jv, iv] = np.arange(n_h, n_h + jv.size, dtype=np.int32)

    first = np.concatenate((x_grid[jh, ih], x_grid[jv, iv]))
    second = np.concatenate((x_grid[jh, ih + 1], x_grid[jv + 1, iv]))
    first_in = np.concatenate((inside[jh, ih], inside[jv, iv]))
    points = _bisect_crossings(y, np.where(first_in, first, second),
                               np.where(first_in, second, first))

    # cells (j, i) with a crossing; edge k runs counter-clockwise from corner k:
    # bottom, right, top, left from corners (j, i), (j, i+1), (j+1, i+1), (j+1, i)
    jc, ic = np.nonzero(cross_h[:-1] | cross_h[1:] | cross_v[:, :-1] | cross_v[:, 1:])
    edges = np.stack((edge_h[jc, ic], edge_v[jc, ic + 1], edge_h[jc + 1, ic], edge_v[jc, ic]), axis=1)
    # a crossing edge k leaves the |r| <= 1 region exactly when corner k is inside
    leaving = np.stack((inside[jc, ic], inside[jc, ic + 1], inside[jc + 1, ic + 1],
                        inside[jc + 1, ic]), axis=1)
    crossing = edges >= 0
    saddle = crossing.all(axis=1)

    # two crossings: the segment runs from the leaving edge to the entering one
    two = ~saddle
    tails = edges[two][crossing[two] & leaving[two]]
    heads = edges[two][crossing[two] & ~leaving[two]]

    # four crossings: the centre sample decides which corners are cut off; a
    # leaving edge k pairs with the entering edge k+1 if the centre is in, else k-1
    sj, si = jc[saddle], ic[saddle]
    centre = x_grid[sj, si] + 0.5 * (x_grid[sj + 1, si + 1] - x_grid[sj, si])
    centre_in = np.abs(scalar_amplification(centre, y)) <= 1.0
    k_tail = np.where(leaving[saddle, 0], 0, 1)[:, None] + np.array([0, 2])
    k_head = (k_tail + np.where(centre_in, 1, 3)[:, None]) % 4
    rows = np.arange(sj.size)[:, None]
    tails = np.concatenate((tails, edges[saddle][rows, k_tail].ravel()))
    heads = np.concatenate((heads, edges[saddle][rows, k_head].ravel()))

    boundary = _link_segments(tails, heads, points)
    return StabilityField(y=y, window=tuple(window), re_axis=re_axis, im_axis=im_axis,
                          magnitudes=magnitudes, boundary=boundary)


def write_field_csv(stability_field: StabilityField, path):
    """Flatten the sampled field to rows of (re_x, im_x, abs_r).

    The file is byte for byte what ``np.savetxt`` writes for the stacked
    columns with ``fmt="%.17e"``, header ``re_x,im_x,abs_r`` and no comment
    prefix.  Each axis value is formatted once; per row of the field only the
    magnitudes are.
    """
    row_template = "".join(f"{re:.17e},{{im}},%.17e\n"
                           for re in stability_field.re_axis.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_x,im_x,abs_r\n")
        for im, row in zip(stability_field.im_axis.tolist(), stability_field.magnitudes):
            fh.write(row_template.replace("{im}", f"{im:.17e}") % tuple(row.tolist()))


def write_boundary_csv(stability_field: StabilityField, path):
    """Boundary polylines as (polyline_index, re_x, im_x) rows."""
    rows = []
    for idx, line in enumerate(stability_field.boundary):
        for px, py in line:
            rows.append((idx, px, py))
    if rows:
        np.savetxt(path, np.array(rows), delimiter=",",
                   fmt=("%d", "%.17e", "%.17e"), header="polyline,re_x,im_x", comments="")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("polyline,re_x,im_x\n")
