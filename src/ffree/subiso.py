"""Subgraph-copy detection and enumeration.

A copy of pattern J in G is a subgraph of G isomorphic to J, identified by
its edge set (one Copy per distinct edge set; automorphisms of J do not
multiply-count).  Copies are not required to be induced.

The search is plain backtracking over the non-isolated pattern vertices in a
connected-first, descending-degree order, pruning candidate images through
neighbor bitmasks.  Fast enough for the sparse graphs this project samples
(n up to a few hundred, patterns up to ~10 vertices).

enumerate_copies finds each copy once: symmetry-breaking order constraints
(Grochow & Kellis, RECOMB 2007) pass only its lexicographically least embedding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import LabeledGraph, PatternGraph, pair_index


@dataclass(frozen=True)
class Copy:
    vertex_image: tuple[int, ...]   # images of the pattern's non-isolated vertices
    edge_ids: tuple[int, ...]       # sorted pair indices covered by the copy

    def __post_init__(self):
        # edge_mask is set once here, not a field: eq, hash and repr ignore it
        object.__setattr__(self, "edge_mask", sum(1 << k for k in self.edge_ids))


def _search_order(pattern: PatternGraph, first_edge: tuple[int, ...] = ()
                  ) -> tuple[list[int], list[list[int]], list[int]]:
    """Order non-isolated pattern vertices connected-first by degree.

    The order starts with the endpoints of `first_edge` when one is given.
    Returns (order, prior_neighbors, need) where prior_neighbors[i] lists the
    positions j < i whose vertex is adjacent to order[i] and need[i] is the
    degree of order[i], the least host degree of its image.
    """
    deg = pattern.degrees()
    verts = [v for v in range(pattern.vertex_count) if deg[v] > 0]
    adj = {v: set() for v in verts}
    for u, v in pattern.edges:
        adj[u].add(v)
        adj[v].add(u)
    order: list[int] = list(first_edge)
    placed: set[int] = set(order)
    while len(order) < len(verts):
        candidates = [v for v in verts if v not in placed]
        # prefer vertices attached to the partial order, then high degree
        candidates.sort(key=lambda v: (-len(adj[v] & placed), -deg[v], v))
        order.append(candidates[0])
        placed.add(candidates[0])
    pos = {v: i for i, v in enumerate(order)}
    prior = [[pos[w] for w in adj[v] if pos[w] < i] for i, v in enumerate(order)]
    return order, prior, [deg[v] for v in order]


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _host(g: LabeledGraph) -> tuple[list[int], list[int]]:
    """Neighbor bitmasks and degrees of G, the host arguments of _embeddings."""
    adj = g.adjacency_masks()
    return adj, [m.bit_count() for m in adj]


def _embeddings(adj: list[int], gdeg: list[int], pattern: PatternGraph,
                plan: tuple[list[int], list[list[int]]] | None = None,
                root: tuple[int, ...] = (), above: list[list[int]] | None = None):
    """Yield injective maps (as tuples of images per search position).

    The host is given by its neighbor bitmasks `adj` and degrees `gdeg`.
    `plan` is the search order from _search_order (computed when omitted);
    `root` fixes the images of its first len(root) positions; `above[i]`
    lists earlier positions j whose image must be below images[i].
    """
    order, prior, need = plan or _search_order(pattern)
    k = len(order)
    if k == 0:
        yield ()
        return
    all_mask = (1 << len(adj)) - 1
    images = [0] * k
    used = 0

    def extend(i: int):
        nonlocal used
        if i == k:
            yield tuple(images)
            return
        if prior[i]:
            dom = all_mask
            for j in prior[i]:
                dom &= adj[images[j]]
            dom &= ~used
        else:
            dom = all_mask & ~used
        if i < len(root):
            dom &= 1 << root[i]
        if above and above[i]:
            for j in above[i]:
                dom &= ~((2 << images[j]) - 1)
        for v in _iter_bits(dom):
            if gdeg[v] < need[i]:
                continue
            images[i] = v
            used |= 1 << v
            yield from extend(i + 1)
            used ^= 1 << v

    yield from extend(0)


def contains_copy(g: LabeledGraph, f: PatternGraph) -> bool:
    """True iff G has a subgraph isomorphic to F (G is F-free iff False)."""
    if g.n < f.vertex_count:
        # isolated pattern vertices still need distinct host vertices
        return False
    if f.edge_count == 0:
        return True
    for _ in _embeddings(*_host(g), f):
        return True
    return False


@functools.lru_cache(maxsize=64)
def _automorphisms(f: PatternGraph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Pairs (i, perm) over the positions i of _search_order(F): for each
    other w in the orbit of i under the automorphisms fixing the positions
    before i, one of them, perm[i] == w, as a permutation of positions.
    They generate Aut(F) without listing it (K8 has 40320 automorphisms)."""
    plan = order, _, _ = _search_order(f)
    pos = {v: i for i, v in enumerate(order)}
    host = _host(LabeledGraph.from_edges(f.vertex_count, f.edges))
    # embeddings of F into itself are automorphisms
    maps = ((i, next(_embeddings(*host, f, plan, root=(*order[:i], order[w])), None))
            for i in range(len(order)) for w in range(i + 1, len(order)))
    return tuple((i, tuple(pos[v] for v in images)) for i, images in maps if images)


@functools.lru_cache(maxsize=64)
def _edge_roots(f: PatternGraph) -> tuple:
    """Search plans starting a, b, for one oriented edge (a, b) per orbit of
    Aut(F).

    A host edge (u, v) lies in a copy of F iff some root's plan embeds with
    its first two positions at (u, v): an automorphism carrying (a, b) to
    (c, d) turns an embedding with c, d at u, v into one with a, b there.
    """
    order, _, _ = _search_order(f)
    gens = [{order[i]: order[w] for i, w in enumerate(perm)} for _, perm in _automorphisms(f)]
    roots = []
    covered: set[tuple[int, int]] = set()
    for x, y in (e for u, v in f.edges for e in ((u, v), (v, u))):
        if (x, y) not in covered:
            roots.append(_search_order(f, (x, y)))
            orbit = [(x, y)]
            for a, b in orbit:   # the orbit grows while it is scanned
                new = {(s[a], s[b]) for s in gens} - covered
                covered |= new
                orbit += new
    return tuple(roots)


def first_completing_edge(n: int, pairs, f: PatternGraph) -> int | None:
    """Position in `pairs` of the edge whose arrival first completes a copy of F.

    The graph on [n] starts empty and gains the pairs (u, v) in the given
    order.  After each arrival only copies using the new edge are searched,
    rooted at it (see _edge_roots).  None if the graph never contains a copy.
    """
    if f.edge_count < 1:
        raise ValueError("pattern must have at least one edge")
    if n < f.vertex_count:
        return None
    roots = _edge_roots(f)
    adj = [0] * n
    gdeg = [0] * n
    for i, (u, v) in enumerate(pairs):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        gdeg[u] += 1
        gdeg[v] += 1
        for plan in roots:
            need = plan[2]
            if gdeg[u] < need[0] or gdeg[v] < need[1]:
                continue
            for _ in _embeddings(adj, gdeg, f, plan, root=(u, v)):
                return i
    return None


def enumerate_copies(g: LabeledGraph, j: PatternGraph) -> list[Copy]:
    """All copies of J in G, one per edge set, in lexicographic edge-id order."""
    if j.edge_count < 1:
        raise ValueError("pattern must have at least one edge")
    if g.n < j.vertex_count:
        return []
    plan = order, _, _ = _search_order(j)
    pos = {v: i for i, v in enumerate(order)}
    pat_edges = [(pos[u], pos[v]) for u, v in j.edges]
    above = [[] for _ in order]
    for i, perm in _automorphisms(j):
        above[perm[i]].append(i)   # images[i] < images[perm[i]]
    copies = []
    for images in _embeddings(*_host(g), j, plan, above=above):
        ids = sorted(pair_index(*sorted((images[a], images[b])), g.n) for a, b in pat_edges)
        copies.append(Copy(images, tuple(ids)))
    return sorted(copies, key=lambda c: c.edge_ids)


def copies_sharing_edge(g: LabeledGraph, j: PatternGraph, h: LabeledGraph) -> int:
    """Number of edge-set-distinct J-copies in G touching an edge of H."""
    if g.n != h.n:
        raise ValueError(f"dimension mismatch: G on {g.n} vertices, H on {h.n}")
    return sum(1 for c in enumerate_copies(g, j) if c.edge_mask & h.bits)
