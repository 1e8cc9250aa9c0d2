"""Subgraph-copy detection and enumeration.

A copy of pattern J in G is a subgraph of G isomorphic to J, identified by
its edge set and returned as its edge mask, the int whose bit pair_index(u, v)
is set for each edge (one mask per distinct edge set; automorphisms of J do
not multiply-count).  Copies are not required to be induced.

Every search runs one kernel, _embeddings: backtracking in a single frame
over the non-isolated pattern vertices in a connected-first,
descending-degree order, each position's candidates one bitmask of host
vertices.  Symmetry-breaking order constraints (Grochow & Kellis, RECOMB
2007) pass only the least embedding in each orbit of Aut(J), or of the
automorphisms fixing a rooted search's first edge, so enumerate_copies
finds each copy once and existence searches skip symmetric dead ends.
pack_copies packs copies first-fit over pair ids, one rooted search per edge:
the greedy scan of enumerate_copies' sorted list, without building the list.
"""

from __future__ import annotations

import functools

from .graphs import LabeledGraph, PatternGraph


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


def _host(g: LabeledGraph, top: int) -> tuple[list[int], list[int]]:
    """Host arguments of _embeddings: the neighbor bitmasks of G and, for each
    d <= top, the mask of the vertices of degree >= d."""
    adj = g.adjacency_masks()
    deg = [m.bit_count() for m in adj]
    return adj, [sum(1 << v for v, dv in enumerate(deg) if dv >= d) for d in range(top + 1)]


def _embeddings(adj: list[int], ge: list[int], plan, root: tuple[int, ...] = (), above=None):
    """Yield injective maps (as tuples of images per search position).

    The host is given by its neighbor bitmasks `adj` and `ge`, where ge[d]
    masks its vertices of degree >= d.  `plan` is from _search_order; `root`
    fixes the images of its first len(root) positions; `above[i]` lists
    earlier positions j whose image must be below images[i].  rest[i] holds
    the untried candidates of position i, tried lowest first.
    """
    _, prior, need = plan
    last = len(need) - 1
    images = [0] * (last + 1)
    rest = images[:]
    rest[0] = ge[need[0]] & (1 << root[0]) if root else ge[need[0]]
    used = i = 0   # used: the images of positions 0..i-1
    while True:
        cand = rest[i]
        if cand:
            low = cand & -cand
            rest[i] = cand ^ low
            images[i] = low.bit_length() - 1
            if i == last:
                yield tuple(images)
                continue
            used |= low
            i += 1
            dom = ge[need[i]] & ~used
            for j in prior[i]:
                dom &= adj[images[j]]
            if i < len(root):
                dom &= 1 << root[i]
            if above:
                for j in above[i]:
                    dom &= -2 << images[j]   # clears bits 0..images[j]
            rest[i] = dom
        elif i:
            i -= 1
            used ^= 1 << images[i]
        else:
            return


@functools.lru_cache(maxsize=256)
def _plan(f: PatternGraph, first_edge: tuple[int, ...] = ()) -> tuple:
    """(plan, above, gens) for plan = _search_order(F, first_edge).  gens holds
    pairs (i, perm) over the positions i >= len(first_edge): for each other w
    in the orbit of i under the automorphisms fixing the positions before i,
    one of them, perm[i] == w, as a permutation of positions.  They generate
    the automorphisms fixing `first_edge` without listing them (K8 has 40320);
    `above` passes only the least embedding in each of their orbits."""
    plan = order, _, need = _search_order(f, first_edge)
    pos = {v: i for i, v in enumerate(order)}
    host = _host(LabeledGraph.from_edges(f.vertex_count, f.edges), max(need))
    # embeddings of F into itself are automorphisms
    maps = ((i, next(_embeddings(*host, plan, (*order[:i], order[w])), None))
            for i in range(len(first_edge), len(order)) for w in range(i + 1, len(order)))
    gens = tuple((i, tuple(pos[v] for v in images)) for i, images in maps if images)
    above = [[] for _ in order]
    for i, perm in gens:
        above[perm[i]].append(i)   # images[i] < images[perm[i]]
    return plan, above, gens


def contains_copy(g: LabeledGraph, f: PatternGraph) -> bool:
    """True iff G has a subgraph isomorphic to F (G is F-free iff False)."""
    if g.n < f.vertex_count:
        # isolated pattern vertices still need distinct host vertices
        return False
    if f.edge_count == 0:
        return True
    plan, above, _ = _plan(f)
    for _ in _embeddings(*_host(g, max(plan[2])), plan, above=above):
        return True
    return False


@functools.lru_cache(maxsize=64)
def _edge_roots(f: PatternGraph) -> tuple:
    """Pairs (plan, above) from _plan(F, (a, b)), for one oriented edge
    (a, b) per orbit of Aut(F).

    A host edge (u, v) lies in a copy of F iff some root's plan embeds with
    its first two positions at (u, v): an automorphism carrying (a, b) to
    (c, d) turns an embedding with c, d at u, v into one with a, b there.
    """
    (order, _, _), _, gens = _plan(f)
    gens = [{order[i]: order[w] for i, w in enumerate(perm)} for _, perm in gens]
    roots = []
    covered: set[tuple[int, int]] = set()
    for x, y in (e for u, v in f.edges for e in ((u, v), (v, u))):
        if (x, y) not in covered:
            roots.append(_plan(f, (x, y))[:2])
            orbit = [(x, y)]
            for a, b in orbit:   # the orbit grows while it is scanned
                new = {(s[a], s[b]) for s in gens} - covered
                covered |= new
                orbit += new
    return tuple(roots)


def first_completing_edge(n: int, pairs, f: PatternGraph) -> tuple[int, int] | None:
    """The pair (u, v) whose arrival first completes a copy of F.

    The graph on [n] starts empty and gains the pairs (u, v) in the given
    order.  After each arrival only copies using the new edge are searched,
    rooted at it (see _edge_roots).  None if the graph never contains a copy.
    """
    if f.edge_count < 1:
        raise ValueError("pattern must have at least one edge")
    if n < f.vertex_count:
        return None
    roots = _edge_roots(f)
    top = max(f.degrees())
    adj = [0] * n
    ge = [(1 << n) - 1] + [0] * top   # ge[d]: the vertices of degree >= d
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        du, dv = adj[u].bit_count(), adj[v].bit_count()
        ge[min(du, top)] |= 1 << u
        ge[min(dv, top)] |= 1 << v
        for plan, above in roots:
            need = plan[2]
            if du < need[0] or dv < need[1]:
                continue
            for _ in _embeddings(adj, ge, plan, (u, v), above):
                return u, v
    return None


def enumerate_copies(g: LabeledGraph, j: PatternGraph) -> list[int]:
    """The edge mask of every copy of J in G, one per edge set, in the
    lexicographic order of the copies' sorted edge ids."""
    if j.edge_count < 1:
        raise ValueError("pattern must have at least one edge")
    if g.n < j.vertex_count:
        return []
    plan, above, _ = _plan(j)
    pos = {v: i for i, v in enumerate(plan[0])}
    pat_edges = [(pos[u], pos[v]) for u, v in j.edges]
    copies = []
    for images in _embeddings(*_host(g, max(plan[2])), plan, above=above):
        ids, mask = [], 0
        for a, b in pat_edges:
            x, y = images[a], images[b]
            k = y * (y - 1) // 2 + x if x < y else x * (x - 1) // 2 + y   # pair_index
            ids.append(k)
            mask |= 1 << k
        ids.sort()
        copies.append((ids, mask))
    copies.sort()
    return [mask for _, mask in copies]


def pack_copies(g: LabeledGraph, j: PatternGraph) -> list[int]:
    """The edge masks a scan of enumerate_copies(G, J) keeps, in its order, when
    it keeps each copy disjoint from those kept before; J has two edges or more.

    The walk takes G's edges by increasing pair id.  At each edge e still present
    it packs the least copy through e by sorted edge ids (rooted searches, see
    _edge_roots), or else deletes e alone.  This is the scan's packing:
    - no present edge below e lies in a copy disjoint from the packed edges,
      or it would have been packed when the walk reached it;
    - so such copies through e have e as their least edge, and the least of
      them is the first copy of e's block that the scan accepts;
    - a passed edge lies in no copy the scan can still accept, so deleting it
      changes no later answer and prunes every later search.
    """
    if j.edge_count < 2:
        raise ValueError("pattern must have at least two edges")
    if g.n < j.vertex_count:
        return []
    adj, ge = _host(g, max(j.degrees()))
    roots = [(plan, plan[1], above, ge[plan[2][2]]) for plan, above in _edge_roots(j)]
    packed = []
    for v in range(g.n):
        below = (1 << v) - 1   # the u < v not yet walked
        while cand := adj[v] & below:
            u = (cand & -cand).bit_length() - 1
            below &= -2 << u
            root, best = (u, v), (None, [(u, v)])   # (ids, edges) of the least copy, else e
            for plan, prior, above, third in roots:
                for i in prior[2]:   # the third position's candidates
                    third &= adj[root[i]]
                if not third & ~(1 << u | 1 << v):
                    continue
                for images in _embeddings(adj, ge, plan, root, above):
                    pairs = [(images[i], y) for y, prev in zip(images, prior) for i in prev]
                    ids = sorted(y * (y - 1) // 2 + x if x < y else x * (x - 1) // 2 + y
                                 for x, y in pairs)   # pair_index
                    if best[0] is None or ids < best[0]:
                        best = ids, pairs
            for x, y in best[1]:
                adj[x] ^= 1 << y
                adj[y] ^= 1 << x
            if best[0]:
                packed.append(sum(1 << k for k in best[0]))
    return packed
