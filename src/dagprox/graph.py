"""DAG representation and the group systems that encode hierarchical sparsity.

A directed acyclic graph over ``N`` nodes, each carrying one or more
variables, induces the ancestor groups ``g_i = ancestors(i) | {i}`` of the
latent overlapping group (LOG) penalty, whose support is a union of groups
and therefore conforms to the strong-hierarchy reading of the graph.

Node indices are 0-based throughout.  Groups are ordered by node index so
that group construction is deterministic; :meth:`GroupSet.restrict` keeps
any selection of the groups, in any order, and maps stacked vectors onto it.
"""

from __future__ import annotations

import hashlib
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import (
    CycleDetected,
    DagproxError,
    DimensionMismatch,
    DuplicateEdge,
    EmptyGroup,
    IndexOutOfRange,
    NonFiniteInput,
)

__all__ = [
    "Dag",
    "GroupSet",
    "HierarchyReport",
    "HierarchyViolation",
    "validate_dag",
    "ancestor_groups",
    "build_index_map",
    "check_hierarchy_conformance",
    "read_edge_list",
    "write_edge_list",
    "read_group_file",
    "write_group_file",
]


#: a coefficient counts as nonzero, in supports and hierarchy checks, above this magnitude
SUPPORT_THRESHOLD = 1e-8


def _check_int(value, name: str) -> int:
    """``value`` as an ``int``; ``ValueError("… must be an integer, got …")`` unless it is one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_vector(v, length: int, name: str) -> np.ndarray:
    """``v`` as a float array of shape ``(length,)`` with finite entries."""
    v = np.asarray(v, dtype=float)
    if v.shape != (length,):
        raise DimensionMismatch(f"{name} has shape {v.shape} (length {v.size}), expected ({length},)")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return v


@dataclass(frozen=True)
class Dag:
    """Validated directed acyclic graph with per-node variable counts.

    Instances are immutable; construct them through :func:`validate_dag`.

    Attributes
    ----------
    num_nodes : int
        Number of nodes ``N``.
    edges : tuple of (int, int)
        Ordered ``(parent, child)`` pairs.
    node_dims : tuple of int
        Variables per node; the ambient dimension is ``d = sum(node_dims)``.
    topo_order : tuple of int
        A cached topological order of the nodes: the index order when every
        edge points from a lower id to a higher one, Kahn's FIFO order
        otherwise.
    parent_lists : tuple of tuple of int
        The parents of every node, in edge order; read through :meth:`parents`.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_dims: tuple[int, ...]
    topo_order: tuple[int, ...]
    parent_lists: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @cached_property
    def d(self) -> int:
        """Total number of variables."""
        return sum(self.node_dims)

    @cached_property
    def node_offsets(self) -> np.ndarray:
        """Start coordinate of each node's variable block, as an ``intp`` array."""
        dims = np.array(self.node_dims, dtype=np.intp)
        return np.cumsum(dims) - dims

    def _check_node(self, node) -> int:
        """``node`` as an ``int`` id in ``[0, num_nodes)``; negative ids do not wrap."""
        node = _check_int(node, "node")
        if not 0 <= node < self.num_nodes:
            raise IndexOutOfRange(f"node {node} outside [0, {self.num_nodes})")
        return node

    def node_coords(self, node: int) -> range:
        """Coordinate indices occupied by ``node``."""
        node = self._check_node(node)
        start = self.node_offsets[node]
        return range(start, start + self.node_dims[node])

    def parents(self, node: int) -> tuple[int, ...]:
        """Immediate parents of ``node``, in edge order."""
        return self.parent_lists[self._check_node(node)]


def validate_dag(num_nodes, edges, node_dims=None) -> Dag:
    """Check an edge list and return a :class:`Dag` with a cached topological order.

    When every edge points from a lower id to a higher one, the index order
    is topological and proves the graph acyclic, so it is the order kept.
    Otherwise the order is Kahn's, with a FIFO queue seeded by the sources
    in index order; a node it never reaches lies on a cycle.

    Parameters
    ----------
    num_nodes : int
        Number of nodes, at least 1.
    edges : iterable of (int, int)
        Ordered ``(parent, child)`` pairs.
    node_dims : sequence of int, optional
        Variables per node; defaults to one per node.

    Raises
    ------
    ValueError
        ``num_nodes < 1``, an edge that is not a pair, or a count, endpoint
        or dimension that is no integer.
    IndexOutOfRange
        An edge endpoint is outside ``[0, num_nodes)``.
    DuplicateEdge
        The same ordered pair appears twice.
    CycleDetected
        The graph admits no topological order.
    DimensionMismatch
        ``node_dims`` has the wrong length or a non-positive entry.
    """
    num_nodes = _check_int(num_nodes, "num_nodes")
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")

    ordered_edges: dict[tuple[int, int], None] = {}  # a set that keeps insertion order
    # A node's first parent is stored as the 1-tuple it keeps; a list is made
    # only at a second parent, so a tree builds no list per node for the
    # garbage collector to scan and promote.
    preds: list[tuple[int, ...] | list[int]] = [()] * num_nodes
    forward = True  # every edge so far points from a lower id to a higher one
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge must be a (parent, child) pair, got {e!r}") from None
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:  # the checks name the endpoint that is not an integer
            u, v = _check_int(u, "edge endpoint"), _check_int(v, "edge endpoint")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise IndexOutOfRange(
                f"edge ({u}, {v}) has an endpoint outside [0, {num_nodes})"
            )
        edge = u, v
        if edge in ordered_edges:
            raise DuplicateEdge(f"edge ({u}, {v}) appears more than once")
        ordered_edges[edge] = None
        p = preds[v]
        if not p:
            preds[v] = (u,)
        elif isinstance(p, tuple):
            preds[v] = [*p, u]
        else:
            p.append(u)
        if u >= v:
            forward = False

    if node_dims is None:
        dims = (1,) * num_nodes
    else:
        dims = tuple(_check_int(k, "node_dims entry") for k in node_dims)
        if len(dims) != num_nodes:
            raise DimensionMismatch(
                f"node_dims has length {len(dims)}, expected {num_nodes}"
            )
        if any(k < 1 for k in dims):
            raise DimensionMismatch("node_dims entries must be positive")

    if forward:  # the index order is topological, so there is no cycle
        order = range(num_nodes)
    else:  # Kahn's algorithm; a leftover node means a cycle (self-loops included)
        succ: list[list[int]] = [[] for _ in range(num_nodes)]
        for u, v in ordered_edges:
            succ[u].append(v)
        indeg = [len(p) for p in preds]
        order = [i for i in range(num_nodes) if indeg[i] == 0]
        for u in order:  # the order grows while it is read: it is the FIFO queue
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    order.append(v)
        if len(order) != num_nodes:
            raise CycleDetected("edge set contains a directed cycle")

    return Dag(
        num_nodes=num_nodes,
        edges=tuple(ordered_edges),
        node_dims=dims,
        topo_order=tuple(order),
        parent_lists=tuple(map(tuple, preds)),  # a tuple passes through as itself
    )


@dataclass(frozen=True)
class GroupSet:
    """Ordered coordinate groups with weights, stored as one stacked index array.

    The ``g``-th group occupies the contiguous half-open range
    ``index_ranges[g]`` of the stacked latent vector of length
    ``n = sum(sizes)``; ``stacked_coords`` holds the ambient coordinate of
    every stacked entry, the groups one after another in listing order, so
    the ranges partition ``[0, n)`` exactly.  Each group is sorted and
    distinct; ``groups`` gives them as views of ``stacked_coords``.

    Construct instances through :func:`build_index_map` (or the group
    builders in this module), which validate the invariants.
    """

    stacked_coords: np.ndarray
    sizes: np.ndarray
    weights: np.ndarray
    d: int

    @property
    def n(self) -> int:
        """Stacked dimension, sum of group sizes."""
        return self.stacked_coords.size

    @property
    def num_groups(self) -> int:
        return self.sizes.size

    @cached_property
    def sqrt_sizes(self) -> np.ndarray:
        """``sqrt(|g|)`` per group: bounds ``||v_g||_2`` by ``sqrt(|g|) max |v|``."""
        return np.sqrt(self.sizes)

    @cached_property
    def starts(self) -> np.ndarray:
        """Range starts, suitable for segment reductions over the stacked vector."""
        return np.cumsum(self.sizes) - self.sizes

    @cached_property
    def index_ranges(self) -> tuple[tuple[int, int], ...]:
        """Half-open stacked range ``(lo, hi)`` of every group."""
        return tuple(zip(self.starts.tolist(), (self.starts + self.sizes).tolist()))

    @cached_property
    def groups(self) -> tuple[np.ndarray, ...]:
        """Every group's coordinates, as a view of ``stacked_coords``."""
        return tuple(self.stacked_coords[lo:hi] for lo, hi in self.index_ranges)

    @cached_property
    def cover_counts(self) -> np.ndarray:
        """How many groups contain each coordinate (length ``d``)."""
        return np.bincount(self.stacked_coords, minlength=self.d)

    def uncovered(self) -> np.ndarray:
        """Coordinates in ``[0, d)`` not contained in any group (reported, never enforced)."""
        return np.flatnonzero(self.cover_counts == 0)

    @cached_property
    def nested_order(self) -> np.ndarray | None:
        """Group indices ordered by inclusion, or ``None`` if the groups are not nested.

        The groups are nested (``G_1 ⊆ … ⊆ G_m``, as along a chain) exactly
        when every covered coordinate lies in all groups from the first one
        that holds it, in size order, to the last, i.e. when its cover count
        is ``m`` minus that first rank.  Computed on first use, in O(n).
        """
        m = self.num_groups
        order = np.argsort(self.sizes, kind="stable")
        rank = np.empty(m, dtype=np.intp)
        rank[order] = np.arange(m)
        first = np.full(self.d, m, dtype=np.intp)
        np.minimum.at(first, self.stacked_coords, np.repeat(rank, self.sizes))
        covered = self.cover_counts > 0
        if np.any(first[covered] + self.cover_counts[covered] != m):
            return None
        return order

    def restrict(self, keep) -> tuple["GroupSet", np.ndarray]:
        """The groups ``keep`` in that order, and the positions of their entries in ``self``.

        ``keep`` is a 1-D sequence of group ids: a subset, a permutation,
        repeated ids or none.  ``entries`` holds the stacked position in
        ``self`` of every stacked entry of the result, so ``x[entries]``
        carries a stacked vector onto it.  The kept groups are valid already,
        so nothing but ``keep`` is checked: an id that is no integer or lies
        outside ``[0, num_groups)`` (negative ids do not wrap) is an
        :class:`IndexOutOfRange`.
        """
        keep = np.asarray(keep)
        if keep.size == 0:
            keep = keep.astype(np.intp)  # an empty list reads as float
        if keep.ndim != 1 or keep.dtype.kind not in "iu" or (
            keep.size and (keep.min() < 0 or keep.max() >= self.num_groups)
        ):
            raise IndexOutOfRange(f"keep must be a 1-D sequence of group ids in [0, {self.num_groups})")
        sizes = self.sizes[keep]
        entries = np.repeat(self.starts[keep] - (np.cumsum(sizes) - sizes), sizes)
        entries += np.arange(entries.size)
        return GroupSet(self.stacked_coords[entries], sizes, self.weights[keep], self.d), entries

    def canonical_text(self) -> str:
        """Serialized group-file form; stable input for content hashing."""
        lines = [
            f"{w:.17g}: " + " ".join(map(str, g.tolist()))
            for g, w in zip(self.groups, self.weights)
        ]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def build_index_map(groups, weights=None, d=None) -> GroupSet:
    """Assign contiguous stacked ranges to ``groups`` in listing order.

    Parameters
    ----------
    groups : sequence of int sequences
        Coordinate index sets; each is sorted and deduplicated internally.
        Repeated groups are legal.
    weights : sequence of float, optional
        Positive per-group weights; defaults to ``sqrt(len(group))``.
    d : int, optional
        Ambient dimension; defaults to ``max coordinate + 1``.

    Raises
    ------
    EmptyGroup
        Some group has no coordinates.
    ValueError
        There is no group, a group is not one-dimensional, a coordinate or
        ``d`` is not an integer, or a weight is not positive and finite.
    IndexOutOfRange
        A coordinate falls outside ``[0, d)``.
    """
    arrs: list[np.ndarray] = []
    for g in groups:
        a = np.asarray(g)
        if a.size == 0:
            raise EmptyGroup("groups must be nonempty")
        if a.ndim != 1:
            raise ValueError(f"a group must be a flat sequence of coordinates, got shape {a.shape}")
        if a.dtype.kind not in "biu":  # the rule names the first coordinate that breaks it
            for c in a.ravel().tolist():
                _check_int(c, "group coordinate")
        a = np.unique(a.astype(np.intp, copy=False))
        if a[0] < 0:
            raise IndexOutOfRange(f"negative coordinate {a[0]} in group")
        arrs.append(a)
    if not arrs:
        raise ValueError("a group system needs at least one group")
    if d is None:
        d = int(max(a[-1] for a in arrs)) + 1
    d = _check_int(d, "d")
    for a in arrs:
        if a[-1] >= d:
            raise IndexOutOfRange(f"coordinate {a[-1]} outside [0, {d})")
    sizes = np.array([a.size for a in arrs], dtype=np.intp)
    return _index_map(np.concatenate(arrs), sizes, weights, d)


def _index_map(coords: np.ndarray, sizes: np.ndarray, weights, d: int) -> GroupSet:
    """:func:`build_index_map` of stacked groups, each sorted, distinct and inside ``[0, d)``."""
    if weights is None:
        w = np.sqrt(sizes.astype(float))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != sizes.shape:
            raise DimensionMismatch(
                f"got {w.size} weights for {sizes.size} groups"
            )
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("group weights must be positive and finite")
    return GroupSet(stacked_coords=coords, sizes=sizes, weights=w, d=d)


def ancestor_groups(dag: Dag) -> GroupSet:
    """One group per node: the node plus all its ancestors, in node order.

    Groups are built in topological order, each a sorted ``array('q')`` of
    node ids made from its parents' groups; arrays, unlike lists, hold
    their ids unboxed, 8 B each.  A node with one
    parent appends its id to a copy of the parent's group when it is the
    largest id there, as when the ids are topological, and otherwise
    inserts it at its sorted place.  A node with several parents takes the
    C-level union of their ancestor sets, each built once.  The parents are
    visited largest group first, so one already in the union, an ancestor
    of another parent, is skipped.

    The groups are flattened once.  Node ids sort like their coordinate
    runs, so with one variable per node the ids are the coordinates;
    otherwise one vectorised pass expands each node to its run.  The
    weights are ``sqrt(|g|)`` with ``|g|`` counted in coordinates; for
    others, pass the groups and weights to :func:`build_index_map`.
    """
    ids = array("q", range(dag.num_nodes))
    parent_lists = dag.parent_lists
    groups: list[array] = [ids] * dag.num_nodes  # every entry is replaced
    sizes = [0] * dag.num_nodes
    node_sets: dict[int, set[int]] = {}  # kept only where several parents meet
    for i in dag.topo_order:
        ps = parent_lists[i]
        if len(ps) == 1:
            g = groups[ps[0]]
            if g[-1] < i:
                g = g + ids[i:i + 1]
            else:
                k = bisect_left(g, i)
                g = g[:k] + ids[i:i + 1] + g[k:]
        elif ps:
            s = set()  # empty, so the first union takes CPython's copying fast path
            for p in sorted(ps, key=sizes.__getitem__, reverse=True):
                if p not in s:
                    sp = node_sets.get(p)
                    if sp is None:
                        sp = node_sets[p] = set(groups[p])
                    s |= sp
            s.add(i)
            node_sets[i] = s
            g = array("q", sorted(s))
        else:
            g = ids[i:i + 1]
        groups[i] = g
        sizes[i] = len(g)
    flat = reduce(operator.iadd, groups, array("q"))
    nodes = np.frombuffer(flat, dtype=np.int64).astype(np.intp, copy=False)
    sizes = np.array(sizes, dtype=np.intp)
    # each group is sorted, distinct and inside [0, d) by construction
    if dag.d == dag.num_nodes:
        return _index_map(nodes, sizes, None, dag.d)
    # the run of node j counts up from node_offsets[j]
    lens = np.array(dag.node_dims, dtype=np.intp)[nodes]
    coords = np.repeat(dag.node_offsets[nodes] - (np.cumsum(lens) - lens), lens)
    coords += np.arange(coords.size)
    return _index_map(coords, np.add.reduceat(lens, np.cumsum(sizes) - sizes), None, dag.d)


@dataclass(frozen=True)
class HierarchyViolation:
    """A node whose support contradicts the hierarchy.

    For strong mode, ``parents`` holds the single zero parent of the
    violated implication; for weak mode it holds all (zero) parents.
    """

    child: int
    parents: tuple[int, ...]


@dataclass(frozen=True)
class HierarchyReport:
    mode: str
    threshold: float
    nonzero_nodes: tuple[int, ...]
    violations: tuple[HierarchyViolation, ...]

    @property
    def num_violations(self) -> int:
        return len(self.violations)


def check_hierarchy_conformance(
    dag: Dag, beta, threshold: float = SUPPORT_THRESHOLD, mode: str = "strong"
) -> HierarchyReport:
    """Report hierarchy violations of a coefficient vector's support.

    A node is nonzero when any of its coordinates exceeds ``threshold``
    in magnitude.  Under strong hierarchy a nonzero node with *some* zero
    immediate parent is a violation (one record per zero parent); under
    weak hierarchy a nonzero node violates only when *all* its immediate
    parents are zero.

    Parameters
    ----------
    dag : Dag
    beta : array of length ``dag.d``
    threshold : float, > 0
    mode : {"strong", "weak"}
    """
    beta = _check_vector(beta, dag.d, "beta")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")

    # every node has at least one coordinate, so no segment is empty
    peaks = np.maximum.reduceat(np.abs(beta), dag.node_offsets)
    nz = np.flatnonzero(peaks > threshold).tolist()
    nz_set = set(nz)
    violations: list[HierarchyViolation] = []
    for i in nz:
        ps = dag.parent_lists[i]
        if not ps:
            continue
        zero_parents = tuple(p for p in ps if p not in nz_set)
        if mode == "strong":
            for p in zero_parents:
                violations.append(HierarchyViolation(child=i, parents=(p,)))
        else:
            if len(zero_parents) == len(ps):
                violations.append(HierarchyViolation(child=i, parents=zero_parents))
    return HierarchyReport(
        mode=mode,
        threshold=float(threshold),
        nonzero_nodes=tuple(nz),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# file formats


def read_edge_list(path) -> Dag:
    """Parse the edge-list text format.

    First non-comment line is ``nodes N``; an optional ``dims d_1 ... d_N``
    line follows; every remaining line is a 0-based ``u v`` pair.  ``#``
    starts a comment.  Every parse or validation error names ``path``;
    a :class:`DagproxError` keeps its type, anything else is a
    ``ValueError``.
    """
    return _parse_file(path, _parse_edge_list)


def _parse_file(path, parse, *args, **kwargs):
    """``parse(lines, *args, **kwargs)`` over ``path``, naming ``path`` in every error.

    The lines keep their endings (``newline=""``, as :mod:`csv` requires).
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            return parse(fh, *args, **kwargs)
        except DagproxError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        except ValueError as exc:  # also a file that is not UTF-8
            raise ValueError(f"{path}: {exc}") from exc


def _parse_edge_list(lines) -> Dag:
    num_nodes = None
    dims = None
    edges: list[tuple[int, int]] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "nodes":
            if num_nodes is not None:
                raise ValueError("repeated 'nodes' line")
            if len(parts) != 2:
                raise ValueError(f"malformed nodes line {line!r}")
            num_nodes = int(parts[1])
        elif parts[0] == "dims":
            if num_nodes is None:
                raise ValueError("'dims' before 'nodes'")
            if dims is not None:
                raise ValueError("repeated 'dims' line")
            dims = [int(x) for x in parts[1:]]
        else:
            if num_nodes is None:
                raise ValueError("missing 'nodes N' header line")
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if num_nodes is None:
        raise ValueError("missing 'nodes N' header line")
    return validate_dag(num_nodes, edges, node_dims=dims)


def write_edge_list(dag: Dag, path) -> None:
    """Serialize a :class:`Dag` in the edge-list text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {dag.num_nodes}\n")
        if any(k != 1 for k in dag.node_dims):
            fh.write("dims " + " ".join(str(k) for k in dag.node_dims) + "\n")
        for u, v in dag.edges:
            fh.write(f"{u} {v}\n")


def read_group_file(path, d=None) -> GroupSet:
    """Parse the group text format: one ``w: i1 i2 ...`` line per group.

    ``#`` starts a comment.  Every parse or validation error names ``path``
    as in :func:`read_edge_list`.
    """
    return _parse_file(path, _parse_group_file, d)


def _parse_group_file(lines, d) -> GroupSet:
    groups: list[list[int]] = []
    weights: list[float] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"malformed group line {line!r}")
        wpart, ipart = line.split(":", 1)
        weights.append(float(wpart))
        groups.append([int(t) for t in ipart.split()])
    return build_index_map(groups, weights=weights, d=d)


def write_group_file(group_set: GroupSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(group_set.canonical_text())
