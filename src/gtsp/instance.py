"""GTSP instances: TSPLIB parsing, integer Euclidean costs, center-based clustering.

An instance is a complete graph with non-negative integer edge costs whose
nodes are partitioned into clusters; a feasible tour visits exactly one node
per cluster. Instances are immutable after construction and safe to share
read-only across concurrent solver runs: their arrays (coordinates, costs,
the node -> cluster map and the per-cluster member arrays) are read-only, and
they compare and hash by identity, so they can key a dict or sit in a set.

Costs are stored in the narrowest of int16/int32/int64 that holds the largest
cost (`cost_dtype`); TSPLIB EUC_2D costs on a 1000 x 1000 grid fit int16, so
a matrix takes 2 bytes per node pair. No sum of costs is taken in that type:
tour costs sum in int64, and the solvers widen before they add.
`load_instance_file` reads every kind of instance file, raw, clustered or
with a cluster file, through one path, `_read_file`; a fault in the sets
is a `ParseError` and costs that overflow are a `CostOverflowError`,
whichever kind the file is. Loading a raw TSPLIB file (`_scan_records`,
`_parse_coords`, `euc2d_costs`, `cluster_instance`, the one raw-file path,
which `gtsp cluster` reads through too) holds one n x n matrix at a time:
costs are computed in row blocks into the matrix, `CostMatrix` keeps that
array as a read-only view instead of copying it, and clustering reads it in
place.
Every blocked loop, here and in `gtsp.aco` and `gtsp.exact`, sizes its
temporaries by one byte budget, `BLOCK_BYTES`, read when the loop runs.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """An instance file is malformed; the message names the offending record."""


class CostOverflowError(ValueError):
    """Costs do not fit in int64: distances between far-apart coordinates, or
    the cost sums of an instance's tours, which `GtspInstance` refuses when it
    is built."""


@dataclass(frozen=True, eq=False)
class NodeCoords:
    """Planar coordinates indexed by 0-based node id, read-only."""

    points: np.ndarray  # shape (n, 2), float64, read-only

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) coordinate array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("need at least 2 nodes")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        pts = pts.view()  # the flag goes on a view, not on the caller's array
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


# The cost types, narrowest first, with the largest value each holds.
_COST_TYPES = [(t, int(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64)]


def cost_dtype(max_cost: int) -> type:
    """The narrowest of int16, int32 and int64 that holds `max_cost`."""
    for t, top in _COST_TYPES:
        if max_cost <= top:
            return t
    raise CostOverflowError(f"largest cost {max_cost} does not fit in int64")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Complete n x n matrix of non-negative integer edge costs, zero diagonal.

    The costs are stored in `cost_dtype` of the largest one, in C order:
    the colony indexes them, and the arrays it makes from them, by flat
    index i * n + j. The `symmetric` flag is computed from the data, never
    trusted from input. An array already in that type and order is kept as a
    read-only view, not copied: it shares memory with the caller's array, so
    the caller must not write to it afterwards. Other integer arrays, and
    floats holding integers, are converted.
    """

    cost: np.ndarray  # shape (n, n), int16/int32/int64, C order, read-only
    symmetric: bool = field(init=False)
    max_cost: int = field(init=False)  # the largest cost, 0 for an empty matrix

    def __post_init__(self) -> None:
        c = np.asarray(self.cost)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {c.shape}")
        if c.dtype.kind not in "iu":
            as_int = c.astype(np.int64)
            if not np.array_equal(as_int, c):
                raise ValueError("costs must be integers")
            c = as_int
        if c.size and c.min() < 0:
            raise ValueError("costs must be non-negative")
        object.__setattr__(self, "max_cost", int(c.max()) if c.size else 0)
        narrow = cost_dtype(self.max_cost)
        c = c.view() if c.dtype == narrow and c.flags.c_contiguous else c.astype(narrow, order="C")
        c.flags.writeable = False
        if np.diagonal(c).any():
            raise ValueError("diagonal costs must be zero")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "symmetric", _is_symmetric(c))

    @property
    def n(self) -> int:
        return self.cost.shape[0]


# Bytes of one temporary array in a blocked loop: the row blocks of
# `euc2d_costs`, the tiles of `_is_symmetric`, the row blocks that seed the
# colony's weights, the colony's blocks of uniform draws and the min-plus
# steps of `exact_solve`.
BLOCK_BYTES = 1 << 19


def per_block(item_bytes: int) -> int:
    """How many items of `item_bytes` bytes one temporary of `BLOCK_BYTES`
    holds, at least one. It reads `BLOCK_BYTES` at each call."""
    return max(1, BLOCK_BYTES // item_bytes)


def _is_symmetric(c: np.ndarray) -> bool:
    """`np.array_equal(c, c.T)` tile by tile, stopping at the first mismatch.

    Each tile on or above the diagonal is compared with the transpose of its
    mirror tile, so no n x n temporary is built and an asymmetric matrix is
    usually refused after one tile. A tile is the largest square within
    `BLOCK_BYTES`; its comparison builds a bool tile of a byte per cell.
    """
    n, b = c.shape[0], math.isqrt(per_block(c.itemsize))
    for lo in range(0, n, b):
        for lo2 in range(lo, n, b):
            if not np.array_equal(c[lo:lo + b, lo2:lo2 + b], c[lo2:lo2 + b, lo:lo + b].T):
                return False
    return True


@dataclass(frozen=True, eq=False)
class GtspInstance:
    """A cost matrix plus a partition of the nodes into p >= 2 clusters.

    A tour has p edges, so `max_cost * p` bounds every tour cost. An instance
    whose bound exceeds int64 is refused with CostOverflowError when it is
    built, so every tour sum of an instance is exact in int64.
    """

    name: str
    costs: CostMatrix
    clusters: tuple[tuple[int, ...], ...]
    cluster_of: np.ndarray = field(init=False)  # node id -> cluster index, read-only

    def __post_init__(self) -> None:
        clusters, cluster_of = _partition(self.clusters, self.costs.n)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "cluster_of", cluster_of)
        if self.max_cost * self.p > _INT64_MAX:
            raise CostOverflowError(
                f"costs too large for exact int64 tour sums: largest cost {self.max_cost}"
                f" times {self.p} clusters exceeds {_INT64_MAX}"
            )

    @property
    def n(self) -> int:
        return self.costs.n

    @property
    def p(self) -> int:
        return len(self.clusters)

    @property
    def max_cost(self) -> int:
        """The largest edge cost."""
        return self.costs.max_cost

    @cached_property
    def cluster_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-cluster member ids as read-only int64 arrays, ascending within each cluster."""
        arrays = tuple(np.asarray(c, dtype=np.int64) for c in self.clusters)
        for a in arrays:
            a.flags.writeable = False
        return arrays


def _partition(clusters, n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Clusters with members ascending, and the node -> cluster index array.

    One scan of the clusters in order, members ascending, builds both and
    raises ValueError at the first failure it meets: a node id that is not
    an integer (read with `operator.index`, so numpy integers pass and
    0.5 does not), an empty cluster, a node out of range or a node seen
    before; after the scan, the lowest node in no cluster.
    """
    clusters = list(clusters)
    if len(clusters) < 2:
        raise ValueError(f"need at least 2 clusters, got {len(clusters)}")
    owner = [-1] * n
    scanned = []
    for k, members in enumerate(clusters):
        try:
            members = sorted(map(operator.index, members))
        except TypeError as exc:
            raise ValueError(f"node ids must be integers; cluster {k}: {exc}") from None
        if not members:
            raise ValueError(f"empty cluster {k}")
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"node {v} out of range 0..{n - 1}")
            if owner[v] >= 0:
                raise ValueError(f"not a partition: node {v} is in clusters {owner[v]} and {k}")
            owner[v] = k
        scanned.append(tuple(members))
    if -1 in owner:
        raise ValueError(f"not a partition: node {owner.index(-1)} is in no cluster")
    cluster_of = np.array(owner, dtype=np.int64)
    cluster_of.flags.writeable = False
    return tuple(scanned), cluster_of


def parse_tsplib(text: str) -> NodeCoords:
    """Parse a TSPLIB file with EUC_2D coordinates into 0-based node order."""
    headers, coord_records, _ = _scan_records(text)
    return _parse_coords(headers, coord_records)


def _parse_coords(
    headers: dict[str, tuple[int, str]], coord_records: list[tuple[int, str]] | None
) -> NodeCoords:
    dim = _required_int_header(headers, "DIMENSION")
    if dim < 2:
        raise ParseError(f"line {headers['DIMENSION'][0]}: DIMENSION {dim} is below 2")
    ew_lineno, ew_type = headers.get("EDGE_WEIGHT_TYPE", (0, ""))
    if not ew_type:
        raise ParseError("missing EDGE_WEIGHT_TYPE record")
    if ew_type.upper() != "EUC_2D":
        raise ParseError(f"line {ew_lineno}: unsupported EDGE_WEIGHT_TYPE {ew_type!r}")
    if coord_records is None:
        raise ParseError("missing NODE_COORD_SECTION")
    if len(coord_records) != dim:
        raise ParseError(
            f"dimension mismatch: DIMENSION {dim} but {len(coord_records)} coordinate records"
        )
    points = np.full((dim, 2), np.nan)
    seen: dict[int, int] = {}
    for lineno, line in coord_records:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: bad coordinate record {line!r}")
        try:
            node = int(parts[0])
            x, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: bad coordinate record {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {lineno}: coordinates must be finite, got {line!r}")
        if not 1 <= node <= dim:
            raise ParseError(f"line {lineno}: node id {node} outside 1..{dim}")
        if node in seen:
            raise ParseError(f"line {lineno}: duplicate record for node {node}")
        seen[node] = lineno
        points[node - 1] = (x, y)
    return NodeCoords(points)


# Distances are cast to an integer type; 2^63 is the first float that no
# int64 holds.
_INT64_LIMIT = float(2**63)
_INT64_MAX = 2**63 - 1


def euc2d_costs(coords: NodeCoords) -> CostMatrix:
    """Integer Euclidean costs: nearest-integer distances, halves rounding up.

    Each cost is `floor(sqrt(dx*dx + dy*dy) + 0.5)` in float64, computed in
    row blocks from the x and y columns and written straight into the
    matrix; each of a block's two float64 temporaries stays within
    `BLOCK_BYTES` (one row at least) whatever n is. Only the blocks
    on and above the diagonal are computed; the rest is their mirror. The
    bounding box's diagonal bounds every distance, so the matrix is
    allocated in its `cost_dtype` and no cast wraps (`CostMatrix` narrows
    it with one copy in the rare case that no pair spans nearly the whole
    diagonal and the largest cost fits a narrower type). Raises
    `CostOverflowError` before any n^2 work when that diagonal does not fit
    in int64.
    """
    pts = coords.points
    n = len(pts)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    # float subtraction, squaring, sqrt and rounding are all monotone, so no
    # pair's value exceeds the one computed from the box's sides
    with np.errstate(over="ignore"):
        span_x, span_y = x.max() - x.min(), y.max() - y.min()
        longest = np.floor(np.sqrt(span_x * span_x + span_y * span_y) + 0.5)
    if not longest < _INT64_LIMIT:
        raise CostOverflowError(
            f"coordinates span {span_x:g} x {span_y:g}; their distances overflow int64 costs"
        )
    cost = np.empty((n, n), dtype=cost_dtype(int(longest)))
    rows = per_block(8 * n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # the block's rows from column lo on; fl(a - b) == -fl(b - a), so
        # the part below the block is its exact mirror
        dist = x[lo:hi, None] - x[lo:]
        dy = y[lo:hi, None] - y[lo:]
        dist *= dist
        dy *= dy
        dist += dy
        np.sqrt(dist, out=dist)
        dist += 0.5
        np.floor(dist, out=dist)
        cost[lo:hi, lo:] = dist
        cost[hi:, lo:hi] = cost[lo:hi, hi:].T
    np.fill_diagonal(cost, 0)
    return CostMatrix(cost)


def default_cluster_count(n: int) -> int:
    """Default number of clusters, one fifth of the nodes rounded up."""
    return math.ceil(n / 5)


def check_cluster_count(m: int, n: int) -> None:
    """The bound on a partition of n nodes into m clusters: 2 <= m <= n."""
    if m < 2 or m > n:
        raise ValueError(f"cluster count m={m} must satisfy 2 <= m <= n={n}")


def cluster_instance(costs: CostMatrix, m: int | None = None, name: str = "") -> GtspInstance:
    """Partition nodes into m clusters around mutually-far centers.

    The first center is the lowest-id node on a maximum-cost pair; each next
    center maximizes its minimum cost to the centers already chosen; every
    other node joins its nearest center. All ties break to the lowest node id
    (or lowest center index), so the result is a pure function of its inputs.
    """
    n = costs.n
    if m is None:
        m = default_cluster_count(n)
    check_cluster_count(m, n)

    # rows[c][v] is the cost from node v to center c; for symmetric costs
    # that is row c itself, read contiguously
    rows = costs.cost if costs.symmetric else costs.cost.T
    centers = _farthest_centers(rows, m, costs.symmetric)
    to_centers = rows[centers]
    # argmin over axis 0 with its tie rule (lowest center index), without
    # the transposed copy np.argmin(to_centers, axis=0) would make
    assign = (to_centers == to_centers.min(axis=0)).argmax(axis=0)
    # a center anchors its own cluster even under zero-cost ties
    assign[centers] = np.arange(m)
    members: list[list[int]] = [[] for _ in range(m)]
    for v, k in enumerate(assign.tolist()):
        members[k].append(v)  # ascending node ids
    return GtspInstance(
        name=format_instance_name(name, m, n),
        costs=costs,
        clusters=tuple(map(tuple, members)),
    )


def _farthest_centers(rows: np.ndarray, m: int, symmetric: bool) -> list[int]:
    """Centers in selection order; `rows[c][v]` is the cost from v to c.

    The first center is the lowest node id whose row or column holds the
    largest cost. The zero diagonal cannot hold it unless every cost is 0,
    and then node 0 is first either way.
    """
    node_max = rows.max(axis=1)
    if not symmetric:  # a node's largest cost may lie in its row or its column
        np.maximum(node_max, rows.max(axis=0), out=node_max)
    first = int(node_max.argmax())  # ties: lowest node id

    centers = [first]
    min_to_centers = rows[first].copy()
    min_to_centers[first] = -1  # chosen nodes never re-selected
    for _ in range(m - 1):
        nxt = int(min_to_centers.argmax())  # ties: lowest node id
        centers.append(nxt)
        np.minimum(min_to_centers, rows[nxt], out=min_to_centers)
        min_to_centers[nxt] = -1
    return centers


def _clustered(coords: NodeCoords, set_headers, set_records, path: Path) -> GtspInstance:
    """The instance of coordinate file `path`'s parsed coordinates and a set
    file's scanned headers and set records (`_scan_records`); the set file is
    `path` itself for a clustered file and the cluster file of a
    `cluster_file` load. The set file's DIMENSION must equal the coordinate
    count. The instance takes the set file's NAME record, or the stem of
    `path` when it has none. A fault in the sets is a `ParseError`; costs
    that overflow are a `CostOverflowError`, as on every load."""
    n = _required_int_header(set_headers, "DIMENSION")
    clusters = _parse_set_section(set_headers, set_records, n)
    if n != len(coords):
        raise ParseError(f"cluster file covers {n} nodes but {path.name} has {len(coords)}")
    try:
        return GtspInstance(name=set_headers.get("NAME", (0, ""))[1] or path.stem,
                            costs=euc2d_costs(coords), clusters=clusters)
    except CostOverflowError:
        raise
    except ValueError as exc:  # the partition, which the set records give
        raise ParseError(str(exc)) from None


def load_instance_file(
    path: str | Path,
    clusters: int | None = None,
    cluster_file: str | Path | None = None,
) -> GtspInstance:
    """Load a clustered instance, or cluster a raw TSPLIB file on the fly.

    After its argument check, every load takes the one path of `_read_file`.
    A file is clustered when its one scan finds a set section: a line,
    before any EOF line, that is GTSP_SET_SECTION stripped and in any case.
    Its instance comes from its own sets, and `clusters` must then be None;
    a raw file is partitioned by `cluster_instance` into `clusters` sets
    (default one fifth of the nodes). `cluster_file` substitutes the sets of
    another clustered file, of which only the headers and sets are read;
    `clusters` must then be None too.
    """
    if clusters is not None and cluster_file is not None:
        raise ValueError(f"--clusters {clusters} given together with a cluster file;"
                         " the partition comes from one or the other")
    return _read_file(Path(path), clusters, cluster_file=cluster_file)[1]


def _read_file(
    path: Path, clusters: int | None, raw_only: bool = False,
    cluster_file: str | Path | None = None,
) -> tuple[NodeCoords | None, GtspInstance]:
    """The coordinates and instance of file `path`; the only code that reads
    instance files, for `load_instance_file` and `gtsp cluster`.

    `path` takes one `_scan_records` pass and its coordinates are parsed;
    a clustered `path` is refused first when `clusters` is given or
    `raw_only` is set. `cluster_file`, when given, then takes one pass for
    its headers and sets. The sets come from `cluster_file`, or else from
    the set section of `path`'s scan; with sets, `_clustered` builds the
    instance, returned without coordinates. With none, `path` is raw:
    `euc2d_costs`, then `cluster_instance` into `clusters` sets.
    """
    headers, coord_records, set_records = _scan_records(path.read_text())
    if cluster_file is None and set_records is not None:
        if clusters is not None:
            raise ValueError(f"--clusters {clusters} given, but {path.name} is already"
                             " clustered; the flag applies to raw TSPLIB files only")
        if raw_only:
            raise ValueError(f"{path.name} is already clustered; only a raw TSPLIB file"
                             " can be clustered")
    coords = _parse_coords(headers, coord_records)
    if cluster_file is not None:
        headers, _, set_records = _scan_records(Path(cluster_file).read_text())
    elif set_records is None:
        return coords, cluster_instance(euc2d_costs(coords), m=clusters, name=path.stem)
    return None, _clustered(coords, headers, set_records, path)


def _parse_set_section(
    headers: dict[str, tuple[int, str]], set_records: list[tuple[int, str]] | None, n: int
) -> tuple[tuple[int, ...], ...]:
    """The GTSP_SETS sets of the set section as 0-based node ids."""
    p = _required_int_header(headers, "GTSP_SETS")
    if set_records is None:
        raise ParseError("missing GTSP_SET_SECTION")
    tokens: list[tuple[int, int]] = []  # (lineno, value)
    for lineno, line in set_records:
        for tok in line.split():
            try:
                tokens.append((lineno, int(tok)))
            except ValueError:
                raise ParseError(f"line {lineno}: bad set record token {tok!r}") from None

    sets: list[tuple[int, ...]] = []
    owner: dict[int, int] = {}  # 1-based node id -> 1-based set id
    pos = 0
    for _ in range(p):
        if pos >= len(tokens):
            raise ParseError(f"expected {p} set records, found {len(sets)}")
        lineno, set_id = tokens[pos]
        pos += 1
        if set_id != len(sets) + 1:
            raise ParseError(f"line {lineno}: expected set {len(sets) + 1}, got {set_id}")
        members: list[int] = []
        while True:
            if pos >= len(tokens):
                raise ParseError(f"line {lineno}: set {set_id} not terminated by -1")
            lineno, v = tokens[pos]
            pos += 1
            if v == -1:
                break
            if not 1 <= v <= n:
                raise ParseError(f"line {lineno}: node {v} outside 1..{n}")
            if v in owner:
                raise ParseError(
                    f"line {lineno}: not a partition: node {v} is in sets {owner[v]} and {set_id}"
                )
            owner[v] = set_id
            members.append(v - 1)
        if not members:
            raise ParseError(f"line {lineno}: empty cluster {set_id}")
        sets.append(tuple(members))
    if pos < len(tokens):
        raise ParseError(f"line {tokens[pos][0]}: unexpected data after set {p}")
    for v in range(1, n + 1):
        if v not in owner:
            raise ParseError(f"not a partition: node {v} is in no set")
    return tuple(sets)


def format_clustered(name: str, coords: NodeCoords, clusters: tuple[tuple[int, ...], ...]) -> str:
    """Render a clustered instance file that `load_instance_file` reads back
    verbatim."""
    lines = [
        f"NAME : {name}",
        "TYPE : GTSP",
        f"DIMENSION : {len(coords)}",
        f"GTSP_SETS : {len(clusters)}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(coords.points, start=1):
        lines.append(f"{i} {_fmt_coord(x)} {_fmt_coord(y)}")
    lines.append("GTSP_SET_SECTION")
    for k, members in enumerate(clusters, start=1):
        ids = " ".join(str(v + 1) for v in sorted(members))
        lines.append(f"{k} {ids} -1")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def _fmt_coord(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


GRID = 1000  # generated points lie on the GRID x GRID integer grid


def check_node_count(nodes: int, name: str = "nodes") -> None:
    """The bound on a generated instance: at most GRID^2 nodes, one per grid
    point. `name` names the value in the error."""
    if nodes > GRID * GRID:
        raise ValueError(f"{name} must be at most {GRID * GRID}, the points of the"
                         f" {GRID} x {GRID} grid, got {nodes}")


def generate_instance(
    nodes: int, clusters: int, seed: int, name: str = "rand"
) -> tuple[NodeCoords, GtspInstance]:
    """Random planar instance: `nodes` distinct points of the GRID x GRID
    integer grid (so at most GRID^2), clustered as usual."""
    check_node_count(nodes)
    check_cluster_count(clusters, nodes)
    rng = np.random.default_rng(seed)
    flat = rng.choice(GRID * GRID, size=nodes, replace=False)
    pts = np.stack([flat % GRID, flat // GRID], axis=1).astype(float)
    coords = NodeCoords(pts)
    return coords, cluster_instance(euc2d_costs(coords), m=clusters, name=name)


def format_instance_name(base: str, nc: int, n: int) -> str:
    """Benchmark naming: cluster count, then the letters of the base name, then n."""
    stem = re.sub(r"[^A-Za-z]+", "", base).upper() or "X"
    return f"{nc}{stem}{n}"


_SECTION_KEYWORDS = {
    "NODE_COORD_SECTION": "coords",
    "GTSP_SET_SECTION": "sets",
}


# The header records the loader reads; each may appear once in a file. Others,
# such as COMMENT, which TSPLIB files repeat, may appear any number of times.
_READ_KEYS = frozenset({"NAME", "DIMENSION", "EDGE_WEIGHT_TYPE", "GTSP_SETS"})


def _scan_records(text: str):
    """Split a file into header records and raw section lines, in one pass
    over its non-blank lines before the first EOF line. A repeated record of
    `_READ_KEYS` is a `ParseError` naming both lines.

    Returns (headers, coord_records, set_records) where headers maps KEY to
    (lineno, value) and each *_records is a list of (lineno, line) or None if
    the section is absent.
    """
    headers: dict[str, tuple[int, str]] = {}
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not (line := raw.strip()):
            continue
        if (upper := line.upper()) == "EOF":
            break
        if upper in _SECTION_KEYWORDS:
            current = _SECTION_KEYWORDS[upper]
            sections.setdefault(current, [])
            continue
        if current is not None and line.lstrip("-")[:1].isdigit():
            sections[current].append((lineno, line))
            continue
        current = None
        key, _, value = line.partition(":")
        if not _:
            raise ParseError(f"line {lineno}: expected 'KEY : VALUE' record, got {line!r}")
        if (key := key.strip().upper()) in headers and key in _READ_KEYS:
            raise ParseError(f"line {lineno}: repeated {key} record, first on line"
                             f" {headers[key][0]}")
        headers[key] = (lineno, value.strip())
    return headers, sections.get("coords"), sections.get("sets")


def _required_int_header(headers: dict[str, tuple[int, str]], key: str) -> int:
    if key not in headers:
        raise ParseError(f"missing {key} record")
    lineno, value = headers[key]
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: {key} is not an integer: {value!r}") from None
