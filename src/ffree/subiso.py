"""Subgraph-copy detection and enumeration.

A copy of pattern J in G is a subgraph of G isomorphic to J, identified by
its edge set and returned as its edge mask, the int whose bit pair_index(u, v)
is set for each edge (one mask per distinct edge set; automorphisms of J do
not multiply-count).  Copies are not required to be induced.

A search backtracks over the non-isolated pattern vertices in a
connected-first, descending-degree order, each position's candidates one
bitmask of host vertices.  Symmetry-breaking order constraints (Grochow &
Kellis, RECOMB 2007) pass only the least embedding in each orbit of Aut(J), or
of the automorphisms fixing a rooted search's first edge, so each copy is found
once and existence searches skip symmetric dead ends.

The generic kernel, _embeddings, interprets a search plan in a single frame;
contains_copy and the searches of a pattern in itself run it.  The rooted
searches, one per edge orbit of the pattern (see _edge_roots), run as Python
compiled once per pattern (_walk): each plan's positions are nested loops with
their domains written out, visiting the nodes _embeddings would, in its order,
and searches deeper than _DEEPEST positions go on in _embeddings.  Copies come
from one walk over the host's edges by pair id with searches rooted at each
edge, _blocks; enumerate_copies lists its copies and pack_copies packs them
first-fit.  The hitting-time scan, first_completing_edge, is compiled whole: it
adds the arrivals one at a time and roots the searches at each.
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


def _self_host(f: PatternGraph) -> tuple[list[int], list[int]]:
    """Host arguments for searching F in itself, with ge[d] the vertices of degree exactly d:
    such embeddings are automorphisms, which keep degrees, so the same ones pass."""
    adj, ge = _host(LabeledGraph.from_edges(f.vertex_count, f.edges), max(f.degrees()) + 1)
    return adj, [a & ~b for a, b in zip(ge, ge[1:])]


def _embeddings(adj: list[int], ge: list[int], plan, root: tuple[int, ...] = (), above=None):
    """Yield injective maps (as tuples of images per search position).

    The host is `adj`, its neighbor bitmasks, and `ge`, where ge[d] masks the
    images a degree-d vertex may take (degree >= d, or == d from _self_host).
    `plan` is from _search_order; `root` fixes the images of its first len(root)
    positions; `above[i]` lists earlier positions j whose image must be below
    images[i].  The root is placed before the loop, each image only if it lies in
    the domain the loop would build, and the loop never backtracks into it.
    rest[i] holds the untried candidates of position i, tried lowest first.
    """
    _, prior, need = plan
    last = len(need) - 1
    images = [0] * (last + 1)
    rest = images[:]
    used = 0   # the images of positions 0..i-1
    for i, x in enumerate(root):
        bit = 1 << x
        if used & bit or not ge[need[i]] & bit:
            return
        for j in prior[i]:
            if not adj[images[j]] & bit:
                return
        if above:
            for j in above[i]:
                if images[j] >= x:
                    return
        images[i] = x
        used |= bit
    base = i = len(root)
    if i > last:
        yield tuple(images)
        return
    while True:
        dom = ge[need[i]] & ~used   # position i's candidates
        for j in prior[i]:
            dom &= adj[images[j]]
        if above:
            for j in above[i]:
                dom &= -2 << images[j]   # clears bits 0..images[j]
        rest[i] = dom
        while True:
            cand = rest[i]
            if cand:
                low = cand & -cand
                rest[i] = cand ^ low
                images[i] = low.bit_length() - 1
                if i < last:
                    break
                yield tuple(images)
            elif i > base:
                i -= 1
                used ^= 1 << images[i]
            else:
                return
        used |= low
        i += 1


@functools.lru_cache(maxsize=256)
def _plan(f: PatternGraph, first_edge: tuple[int, ...] = ()) -> tuple:
    """(plan, above) for plan = _search_order(F, first_edge).  above[w] lists each
    position i >= len(first_edge) that an automorphism fixing the positions before
    i carries to w > i, so images[i] < images[w]: this passes only the least
    embedding in each orbit of the automorphisms fixing `first_edge`."""
    plan = order, _, _ = _search_order(f, first_edge)
    host = _self_host(f)
    above = [[] for _ in order]
    for i in range(len(first_edge), len(order)):
        for w in range(i + 1, len(order)):
            # embeddings of F into itself are automorphisms
            if next(_embeddings(*host, plan, (*order[:i], order[w])), None):
                above[w].append(i)
    return plan, above


def contains_copy(g: LabeledGraph, f: PatternGraph) -> bool:
    """True iff G has a subgraph isomorphic to F (G is F-free iff False)."""
    if g.n < f.vertex_count:
        # isolated pattern vertices still need distinct host vertices
        return False
    if f.edge_count == 0:
        return True
    plan, above = _plan(f)
    for _ in _embeddings(*_host(g, max(plan[2])), plan, above=above):
        return True
    return False


@functools.lru_cache(maxsize=64)
def _edge_roots(f: PatternGraph) -> tuple:
    """Pairs (plan, above) from _plan(F, (a, b)), for one oriented edge (a, b) per
    orbit of Aut(F), the first of its orbit in F.edges order.

    A host edge (u, v) lies in a copy of F iff some root's plan embeds with
    its first two positions at (u, v): an automorphism carrying (a, b) to
    (c, d) turns an embedding with c, d at u, v into one with a, b there.
    """
    host = _self_host(f)
    oriented = [e for u, v in f.edges for e in ((u, v), (v, u))]
    roots, covered = [], set()
    for e in oriented:
        if e not in covered:
            plan, above = _plan(f, e)
            roots.append((plan, above))
            # (c, d) is in the orbit of e iff F embeds in itself with e at (c, d)
            covered.update(r for r in oriented if next(_embeddings(*host, plan, r), None))
    return tuple(roots)


# CPython 3.10-3.12 refuse more than 20 statically nested blocks.  A compiled walk
# nests a loop per position it writes out, below at most two more (the scan's
# arrival loop and the hand-off to _embeddings past this position).
_DEEPEST = 17


@functools.lru_cache(maxsize=64)
def _walk(f: PatternGraph, scan: bool):
    """F's rooted searches (see _edge_roots) compiled into one function.

    Each root's positions 2.. are nested loops written out, position i's domain
    `ge[need] & ~(b_j ...) & adj[x_j] ... & (-2 << x_k) ...` as _embeddings builds
    it: the b_j are the placed images that neither an adjacency nor an order
    constraint already excludes.  Candidates are taken lowest first, so the
    searches visit the nodes _embeddings visits, in its order, and an empty
    first domain ends a root.  Past position _DEEPEST a search goes on in
    _embeddings, rooted at the images placed so far.

    scan: walk(pairs, adj, ge) adds the pairs (x0, x1) to the empty host (adj, ge)
    one at a time, as first_completing_edge does, and returns the index of the
    first whose rooted searches embed F (None if none does), after testing the
    root images' fresh degrees d0 and d1; its last position is one mask test.  Otherwise
    walk(adj, ge, x0, x1) returns the copies through host edge (x0, x1), x0 < x1,
    as (sorted edge ids, edge pairs), as _blocks reads them.
    """
    roots = _edge_roots(f)
    top = max(f.degrees())
    if scan:
        lines = ["def walk(pairs, adj, ge):",
                 " for k, (x0, x1) in enumerate(pairs):",
                 "  b0 = 1 << x0", "  b1 = 1 << x1",
                 "  adj[x0] |= b1", "  adj[x1] |= b0",
                 "  d0 = adj[x0].bit_count()", "  d1 = adj[x1].bit_count()",
                 f"  ge[d0 if d0 < {top} else {top}] |= b0",
                 f"  ge[d1 if d1 < {top} else {top}] |= b1"]
        base = 2
    else:
        lines = ["def walk(adj, ge, x0, x1):", " b0 = 1 << x0", " b1 = 1 << x1", " block = []"]
        base = 1
    for r, ((_, prior, need), above) in enumerate(roots):
        last = len(need) - 1
        tail = min(last, _DEEPEST)   # the deepest position written out
        tests = [f"d{i} >= {need[i]}" if scan else f"ge[{need[i]}] & b{i}"
                 for i in (0, 1) if need[i] > 1]   # an edge's ends have degree >= 1
        depth = base
        if tests:
            lines.append(" " * depth + f"if {' and '.join(tests)}:")
            depth += 1
        for i in range(2, tail + 1):
            off = [f"b{j}" for j in range(i) if j not in prior[i] and j not in above[i]]
            dom = " & ".join([f"ge[{need[i]}]",
                              *([f"~({' | '.join(off)})"] if off else []),
                              *(f"adj[x{j}]" for j in prior[i]),
                              *(f"(-2 << x{j})" for j in above[i])])
            pad = " " * depth
            if scan and i == last:
                lines.append(pad + f"if {dom}:")
            else:
                lines += [pad + f"d{i} = {dom}", pad + f"while d{i}:",
                          pad + f" b{i} = d{i} & -d{i}", pad + f" d{i} ^= b{i}",
                          pad + f" x{i} = b{i}.bit_length() - 1"]
            depth += 1
        if last > tail:
            images = ", ".join(f"x{i}" for i in range(last + 1))
            placed = ", ".join(f"x{i}" for i in range(tail + 1))
            lines.append(" " * depth + f"for {images} in _embeddings(adj, ge, roots[{r}][0], "
                         f"({placed}), roots[{r}][1]):")
            depth += 1
        if scan:
            lines.append(" " * depth + "return k")
        else:
            edges = ", ".join(f"(x{i}, x{y})" for y in range(1, last + 1) for i in prior[y])
            lines += [" " * depth + f"pairs = [{edges}]",
                      " " * depth + "block.append((sorted([y * (y - 1) // 2 + x if x < y else "
                      "x * (x - 1) // 2 + y for x, y in pairs]), pairs))"]   # pair_index
    lines.append(" return None" if scan else " return block")
    space = {"_embeddings": _embeddings, "roots": roots}
    exec(compile("\n".join(lines), "<ffree.subiso walk>", "exec"), space)
    return space["walk"]


def first_completing_edge(n: int, pairs, f: PatternGraph) -> int | None:
    """Index in `pairs` of the pair (u, v) whose arrival first completes a copy of F.

    The graph on [n] starts empty and gains the pairs (u, v) in the given
    order.  After each arrival only copies using the new edge are searched,
    rooted at it (see _edge_roots), by F's compiled scan (see _walk): a root
    runs only if its images have the degrees it needs, and stops at once if
    its third position has no candidate.  None if the graph never contains a
    copy.
    """
    if f.edge_count < 1:
        raise ValueError("pattern must have at least one edge")
    if n < f.vertex_count:
        return None
    ge = [(1 << n) - 1] + [0] * max(f.degrees())   # ge[d]: the vertices of degree >= d
    return _walk(f, True)(pairs, [0] * n, ge)


def _blocks(g: LabeledGraph, j: PatternGraph):
    """Walk G's edges e by increasing pair id, deleting each after its turn.  At
    each e that copies of J go through, yield (adj, block): G's neighbor
    bitmasks less the deleted edges, which a reader may delete more from, and
    those copies as (sorted edge ids, edge pairs), least first, found by J's
    compiled rooted searches at e (see _walk).  Each copy comes once, in the
    block of its least edge."""
    if j.edge_count < 1:
        raise ValueError("pattern must have at least one edge")
    if g.n < j.vertex_count:
        return   # isolated pattern vertices still need distinct host vertices
    adj, ge = _host(g, max(j.degrees()))
    walk = _walk(j, False)
    for v in range(g.n):
        below = (1 << v) - 1   # the u < v not yet walked
        while cand := adj[v] & below:
            u = (cand & -cand).bit_length() - 1
            below &= -2 << u
            if block := walk(adj, ge, u, v):
                block.sort()
                yield adj, block
            adj[u] &= ~(1 << v)   # not ^=: a reader may have deleted e already
            adj[v] &= ~(1 << u)


def enumerate_copies(g: LabeledGraph, j: PatternGraph) -> list[int]:
    """The edge mask of every copy of J in G, one per edge set, in the lexicographic
    order of their sorted edge ids: every copy of every block of _blocks(G, J)."""
    return [sum(1 << k for k in ids) for _, block in _blocks(g, j) for ids, _ in block]


def pack_copies(g: LabeledGraph, j: PatternGraph) -> list[int]:
    """The edge masks a scan of enumerate_copies(G, J) keeps, in its order, when it
    keeps each copy disjoint from those kept before: the first copy of each block
    of _blocks(G, J), its edges deleted before the walk resumes.  A block's copies
    avoid the deleted edges, so they are those with least edge e disjoint from the
    copies kept; the scan keeps the least of them and no other, as they share e."""
    packed = []
    for adj, block in _blocks(g, j):
        ids, pairs = block[0]
        for x, y in pairs:
            adj[x] ^= 1 << y
            adj[y] ^= 1 << x
        packed.append(sum(1 << k for k in ids))
    return packed
