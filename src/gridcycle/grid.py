"""The n-grid: coordinates, canonical edge indexing, boundary, tiles, rings.

Vertices are 1-based coordinate pairs ``(x, y)`` with ``(1, 1)`` at the
bottom-left corner; ``x`` indexes columns, ``y`` indexes rows.  The grid is
thought of as embedded in the plane with unit-square faces, so geometric
language (peripheral, concentric, bounding box) is meaningful throughout.

Edge indexing contract, shared by every file format in this package:

* horizontal edge ``{(x,y), (x+1,y)}`` has id ``(y-1)*(n-1) + (x-1)``,
* vertical edge ``{(x,y), (x,y+1)}`` has id ``n*(n-1) + (y-1)*n + (x-1)``.

All objects here are immutable after construction and all functions are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidSizeError, LayerError, OutOfRangeError,
                     TilingError, TooLargeError)

Coord = tuple[int, int]

# The largest side whose vertex indices 0..n^2-1 fit in int32, the dtype of
# every vertex-indexed array of the package.
MAX_SIDE = 46340

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class Edge:
    """A grid edge with its canonical id; ``a`` is the smaller endpoint."""

    a: Coord
    b: Coord
    orientation: str
    id: int


@dataclass(frozen=True)
class SubgridRef:
    """Inclusive coordinate ranges of an axis-aligned subgrid."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    @property
    def side(self) -> int:
        return self.x_hi - self.x_lo + 1

    def contains(self, v: Coord) -> bool:
        x, y = v
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def clamp(self, v: Coord) -> Coord:
        """L1-nearest point of the subgrid box; unique for points outside."""
        x, y = v
        return (min(max(x, self.x_lo), self.x_hi),
                min(max(y, self.y_lo), self.y_hi))


class GridGraph:
    """The n-grid: Cartesian product of two n-vertex paths."""

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise InvalidSizeError(f"grid side must be a positive integer, got {n!r}")
        if n > MAX_SIDE:
            raise TooLargeError(f"grid side {n} exceeds {MAX_SIDE}: its vertex "
                                "indices would not fit in int32")
        self.n = int(n)

    def __repr__(self):
        return f"GridGraph(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, GridGraph) and other.n == self.n

    def __hash__(self):
        return hash(("GridGraph", self.n))

    @property
    def num_vertices(self) -> int:
        return self.n * self.n

    @property
    def num_edges(self) -> int:
        return 2 * self.n * (self.n - 1)

    # -- vertices ----------------------------------------------------------

    def contains(self, v: Coord) -> bool:
        x, y = v
        return 1 <= x <= self.n and 1 <= y <= self.n

    def check_vertex(self, v: Coord) -> None:
        if not self.contains(v):
            raise OutOfRangeError(f"vertex {v} outside {self}")

    def vertices(self):
        """All vertices in index order (row-major, bottom row first)."""
        n = self.n
        return [(x, y) for y in range(1, n + 1) for x in range(1, n + 1)]

    def vertex_index(self, v: Coord) -> int:
        x, y = v
        return (y - 1) * self.n + (x - 1)

    def vertex_at(self, idx: int) -> Coord:
        y, x = divmod(idx, self.n)
        return (x + 1, y + 1)

    def degree(self, v: Coord) -> int:
        self.check_vertex(v)
        x, y = v
        return ((x > 1) + (x < self.n) + (y > 1) + (y < self.n))

    # -- edges -------------------------------------------------------------

    def edge_id(self, u: Coord, v: Coord) -> int:
        """Canonical id of the edge {u, v}; raises if not a grid edge."""
        self.check_vertex(u)
        self.check_vertex(v)
        (ux, uy), (vx, vy) = u, v
        n = self.n
        if uy == vy and abs(ux - vx) == 1:
            return (uy - 1) * (n - 1) + (min(ux, vx) - 1)
        if ux == vx and abs(uy - vy) == 1:
            return n * (n - 1) + (min(uy, vy) - 1) * n + (ux - 1)
        raise OutOfRangeError(f"{u} and {v} are not adjacent in {self}")

    def edge(self, eid: int) -> Edge:
        """Edge carrying the given canonical id."""
        n = self.n
        if not 0 <= eid < self.num_edges:
            raise OutOfRangeError(f"edge id {eid} outside [0, {self.num_edges})")
        if eid < n * (n - 1):
            y, x = divmod(eid, n - 1)
            return Edge((x + 1, y + 1), (x + 2, y + 1), HORIZONTAL, eid)
        k = eid - n * (n - 1)
        y, x = divmod(k, n)
        return Edge((x + 1, y + 1), (x + 1, y + 2), VERTICAL, eid)

    def edges(self) -> list[Edge]:
        return [self.edge(i) for i in range(self.num_edges)]

    def edge_endpoint_indices(self, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized edge id -> int32 (vertex index of a, vertex index of b).

        Horizontal edge (y-1)(n-1) + (x-1) starts at vertex (y-1)n + (x-1),
        its id plus its row; vertical edge n(n-1) + k starts at vertex k."""
        eids = np.asarray(eids, dtype=np.int64)
        n = self.n
        nh = n * (n - 1)
        horiz = eids < nh
        ua = np.empty(eids.shape, dtype=np.int32)
        he = eids[horiz]
        ua[horiz] = he + he // max(n - 1, 1)
        ua[~horiz] = eids[~horiz] - nh
        ub = ua + 1
        ub[~horiz] += n - 1
        return ua, ub

    def edge_ids(self, ua, ub) -> np.ndarray:
        """Vectorized inverse of :meth:`edge_endpoint_indices`, endpoints in
        either order; raises if any pair is not a grid edge."""
        ua, ub = np.asarray(ua, dtype=np.int64), np.asarray(ub, dtype=np.int64)
        n = self.n
        lo, d = np.minimum(ua, ub), np.abs(ua - ub)
        horiz = (d == 1) & (lo % n != n - 1)
        ok = (horiz | (d == n)) & (lo >= 0) & (np.maximum(ua, ub) < n * n)
        if not ok.all():
            j = int(np.argmin(ok))
            raise OutOfRangeError(f"vertex indices {int(ua.flat[j])} and "
                                  f"{int(ub.flat[j])} are not adjacent in {self}")
        y, x = np.divmod(lo, n)
        return np.where(horiz, y * (n - 1) + x, n * (n - 1) + lo)

    # -- boundary ----------------------------------------------------------

    def is_peripheral(self, v: Coord) -> bool:
        """True iff v has degree < 4, i.e. lies on the outer face."""
        self.check_vertex(v)
        x, y = v
        return x == 1 or x == self.n or y == 1 or y == self.n

    def boundary_cycle(self) -> list[Coord]:
        """Peripheral vertices in counterclockwise order starting at (1, 1)."""
        return self.concentric_cycle(1) if self.n >= 2 else [(1, 1)]

    def boundary_position(self, v: Coord) -> int:
        """Index of a peripheral vertex along the boundary cycle."""
        self.check_vertex(v)
        x, y = v
        n = self.n
        if n == 1:
            return 0
        if y == 1:
            return x - 1
        if x == n:
            return (n - 1) + (y - 1)
        if y == n:
            return 2 * (n - 1) + (n - x)
        if x == 1:
            return 3 * (n - 1) + (n - y)
        raise OutOfRangeError(f"{v} is not peripheral in {self}")

    def boundary_distance(self, u: Coord, v: Coord) -> int:
        """Shortest path length between peripheral vertices along the boundary."""
        if self.n == 1:
            return 0
        d = abs(self.boundary_position(u) - self.boundary_position(v))
        per = 4 * self.n - 4
        return min(d, per - d)

    # -- tiles and rings ---------------------------------------------------

    def tile_5x5(self) -> list[SubgridRef]:
        """The 25 subgrids of side n/5 tiling the grid, row-major from the
        bottom-left; tile 13 (1-based) is the central one."""
        n = self.n
        if n % 5 != 0:
            raise TilingError(f"side {n} is not divisible by 5")
        m = n // 5
        tiles = []
        for j in range(5):
            for i in range(5):
                tiles.append(SubgridRef(i * m + 1, (i + 1) * m,
                                        j * m + 1, (j + 1) * m))
        return tiles

    def central_tile(self) -> SubgridRef:
        return self.tile_5x5()[12]

    def concentric_cycle(self, i: int) -> list[Coord]:
        """Ring of vertices at L-infinity distance i-1 from the boundary,
        counterclockwise starting at (i, i).

        Valid for 1 <= i <= n // 2; beyond that the layer degenerates to a
        path or a single vertex and is not a cycle.
        """
        n = self.n
        if not isinstance(i, (int, np.integer)) or i < 1 or i > n // 2:
            raise LayerError(f"layer {i} of the {n}-grid is not a cycle")
        lo, hi = i, n + 1 - i
        ring = [(x, lo) for x in range(lo, hi)]
        ring += [(hi, y) for y in range(lo, hi)]
        ring += [(x, hi) for x in range(hi, lo, -1)]
        ring += [(lo, y) for y in range(hi, lo, -1)]
        return ring


def make_grid(n: int) -> GridGraph:
    """Construct the n-grid; n must be a positive integer."""
    return GridGraph(n)
