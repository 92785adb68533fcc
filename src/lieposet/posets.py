"""Finite naturally-labeled posets and their derived combinatorics.

Elements are the integers 1..n and every strict relation (i, j) satisfies
i < j, so the identity labeling is a linear extension.  The strict relation
is stored transitively closed as a boolean n x n table (one int bitmask per
row); covers, heights, components and extremal data are derived lazily and
cached on the instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .errors import (
    HeightBound,
    InternalInvariant,
    LabelOrderViolation,
    NotInterior,
    OutOfRange,
    SizeBound,
)

#: Canonical forms and enumeration are exact but exponential; this is the
#: largest n they accept.
ENUMERATION_BOUND = 9


def _close(succ: list[int]) -> tuple[int, ...]:
    """Transitively close bitmask rows in place (bit j-1 of succ[i-1] means i < j)."""
    n = len(succ)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = succ[i]
            m = acc
            while m:
                k = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= succ[k]
            if acc != succ[i]:
                succ[i] = acc
                changed = True
    return tuple(succ)


def _bits(mask: int) -> Iterator[int]:
    """Yield 1-based element labels set in a mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask &= mask - 1


@dataclass(frozen=True)
class Poset:
    """A finite poset on {1..n} with a transitively closed strict relation.

    Instances are immutable and hashable; all derived combinatorics is
    cached.  :func:`make_poset` closes generator relations; direct
    construction checks that the masks are closed and naturally labelled.
    """

    n: int
    succ: tuple[int, ...]  # succ[i-1] bit (j-1) set  <=>  i strictly below j

    def __post_init__(self):
        if len(self.succ) != self.n:
            raise InternalInvariant(f"{len(self.succ)} successor masks for n = {self.n}")
        for i, m in enumerate(self.succ):
            if m & ((2 << i) - 1) or m >> self.n or any(self.succ[j - 1] & ~m for j in _bits(m)):
                raise InternalInvariant(f"mask {m:#b} of {i + 1} is not natural and closed")

    # -- raw views ---------------------------------------------------------

    @cached_property
    def pred(self) -> tuple[int, ...]:
        pred = [0] * self.n
        for i in range(self.n):
            for j in _bits(self.succ[i]):
                pred[j - 1] |= 1 << i
        return tuple(pred)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All strict relations (i, j), sorted."""
        return tuple(
            (i, j) for i in range(1, self.n + 1) for j in _bits(self.succ[i - 1])
        )

    @cached_property
    def pair_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.pairs)

    def related(self, i: int, j: int) -> bool:
        """Comparable in either direction (and not equal)."""
        return bool(self.succ[i - 1] >> (j - 1) & 1 or self.succ[j - 1] >> (i - 1) & 1)

    # -- derived combinatorics ----------------------------------------------

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i, j in self.pairs:
            between = self.succ[i - 1] & self.pred[j - 1]
            if not between:
                out.append((i, j))
        return tuple(out)

    @cached_property
    def minimal(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if not self.pred[i - 1])

    @cached_property
    def maximal(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if not self.succ[i - 1])

    @cached_property
    def ext(self) -> tuple[int, ...]:
        return tuple(
            i
            for i in range(1, self.n + 1)
            if not self.pred[i - 1] or not self.succ[i - 1]
        )

    @cached_property
    def interior(self) -> tuple[int, ...]:
        return tuple(
            i
            for i in range(1, self.n + 1)
            if self.pred[i - 1] and self.succ[i - 1]
        )

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """heights[i-1] = rank of i in a longest chain ending at i."""
        h = [0] * self.n
        for j in range(1, self.n + 1):  # labels are a linear extension
            if self.pred[j - 1]:
                h[j - 1] = 1 + max(h[i - 1] for i in _bits(self.pred[j - 1]))
        return tuple(h)

    @property
    def height(self) -> int:
        return max(self.heights) if self.n else 0

    @cached_property
    def component_ids(self) -> tuple[int, ...]:
        """Connected component index (0-based) of each element, under cover edges."""
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.pairs:
            ra, rb = find(i - 1), find(j - 1)
            if ra != rb:
                parent[rb] = ra
        roots = {}
        ids = []
        for v in range(self.n):
            r = find(v)
            ids.append(roots.setdefault(r, len(roots)))
        return tuple(ids)

    @property
    def components(self) -> int:
        return len(set(self.component_ids)) if self.n else 0

    @property
    def is_connected(self) -> bool:
        return self.components == 1

    def __repr__(self):
        return f"Poset(n={self.n}, rel={list(self.pairs)})"


@dataclass(frozen=True)
class ExtremalData:
    ext: tuple[int, ...]
    rel_e: tuple[tuple[int, int], ...]
    interior: tuple[int, ...]


# ---------------------------------------------------------------------------
# construction


def make_poset(n: int, generators) -> Poset:
    """Build the poset on {1..n} whose strict relation is the transitive
    closure of `generators`.

    Raises LabelOrderViolation for a generator (i, j) with i >= j, and
    OutOfRange for elements outside {1..n}.
    """
    if n < 1:
        raise OutOfRange(f"poset must have at least one element, got n={n}")
    succ = [0] * n
    for i, j in generators:
        if not (1 <= i <= n and 1 <= j <= n):
            raise OutOfRange(f"relation ({i}, {j}) outside 1..{n}")
        if i >= j:
            raise LabelOrderViolation(
                f"relation ({i}, {j}) violates natural labeling (need i < j)"
            )
        succ[i - 1] |= 1 << (j - 1)
    return Poset(n, _close(succ))


def complete_poset(ranks) -> Poset:
    """The pure poset with ranks[i] elements at rank i and every cross-rank
    relation, labeled rank by rank."""
    ranks = list(ranks)
    if not ranks or any(r < 1 for r in ranks):
        raise ValueError("ranks must be a nonempty list of positive integers")
    n = sum(ranks)
    gens = []
    start = 1
    starts = []
    for r in ranks:
        starts.append(start)
        start += r
    for lo in range(len(ranks)):
        for hi in range(lo + 1, len(ranks)):
            for a in range(starts[lo], starts[lo] + ranks[lo]):
                for b in range(starts[hi], starts[hi] + ranks[hi]):
                    gens.append((a, b))
    return make_poset(n, gens)


def disjoint_sum(P: Poset, Q: Poset) -> Poset:
    """Disjoint sum; Q's elements are shifted up by |P|."""
    gens = list(P.pairs) + [(i + P.n, j + P.n) for i, j in Q.pairs]
    return make_poset(P.n + Q.n, gens)


def relabel(P: Poset, perm: dict[int, int]) -> Poset:
    """Relabel through a bijection {1..n} -> {1..n}; the image must again be
    naturally labeled."""
    return make_poset(P.n, [(perm[i], perm[j]) for i, j in P.pairs])


def induced_subposet(P: Poset, elements) -> tuple[Poset, dict[int, int]]:
    """Induced subposet on `elements`, relabeled naturally by ascending label.

    Returns (subposet, mapping original -> new label).
    """
    elems = sorted(set(elements))
    if not elems:
        raise OutOfRange("induced subposet needs at least one element")
    if elems[0] < 1 or elems[-1] > P.n:
        raise OutOfRange(f"elements {elems} not all inside 1..{P.n}")
    to_new = {v: k + 1 for k, v in enumerate(elems)}
    gens = [
        (to_new[i], to_new[j]) for (i, j) in P.pairs if i in to_new and j in to_new
    ]
    return make_poset(len(elems), gens), to_new


def split_components(P: Poset) -> list[tuple[Poset, dict[int, int]]]:
    """Connected components as standalone posets, ordered by smallest element.

    Each entry is (component, mapping original -> component label).
    """
    groups: dict[int, list[int]] = {}
    for v in range(1, P.n + 1):
        groups.setdefault(P.component_ids[v - 1], []).append(v)
    comps = sorted(groups.values(), key=lambda g: g[0])
    return [induced_subposet(P, g) for g in comps]


# ---------------------------------------------------------------------------
# extremal and neighborhood data


def extremal_data(P: Poset) -> ExtremalData:
    """Minimal-or-maximal elements, the strict relations among them, and the interior."""
    ext = set(P.ext)
    rel_e = tuple((i, j) for (i, j) in P.pairs if i in ext and j in ext)
    return ExtremalData(P.ext, rel_e, P.interior)


def up_down(P: Poset, j: int) -> tuple[int, int, int]:
    """(D, U, UD) for element j: counts of strict predecessors and successors,
    and |U - D| with the convention that equal counts give 2."""
    if not 1 <= j <= P.n:
        raise OutOfRange(f"element {j} outside 1..{P.n}")
    d = bin(P.pred[j - 1]).count("1")
    u = bin(P.succ[j - 1]).count("1")
    return d, u, (abs(u - d) if u != d else 2)


def interior_shape(P: Poset, i: int) -> tuple[int, int, int]:
    """Shape (D, 1, U) of the neighborhood of an interior element of a
    height-at-most-two poset."""
    d, u, _ = up_down(P, i)
    return d, 1, u


def interior_neighborhood(P: Poset, i: int) -> Poset:
    """Induced subposet on everything comparable to the interior element i,
    relabeled naturally.

    For height <= 2 this is always the complete poset of shape
    (D(P, i), 1, U(P, i)).
    """
    if P.height > 2:
        raise HeightBound("interior neighborhoods are classified only for height <= 2")
    if not 1 <= i <= P.n:
        raise OutOfRange(f"element {i} outside 1..{P.n}")
    if i in P.ext:
        raise NotInterior(f"element {i} is extremal")
    elems = [i] + list(_bits(P.pred[i - 1])) + list(_bits(P.succ[i - 1]))
    sub, _ = induced_subposet(P, elems)
    return sub


# ---------------------------------------------------------------------------
# Hasse diagram cycles


def _find_cycle(vertices, edges) -> Optional[list[int]]:
    """First undirected simple cycle found by DFS (ascending order), or None."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for v in adj:
        adj[v].sort()
    visited = set()
    for start in sorted(adj):
        if start in visited:
            continue
        stack = [(start, 0, iter(adj[start]))]
        on_path = [start]
        index = {start: 0}
        visited.add(start)
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in index:
                    return on_path[index[w]:]
                if w in visited:
                    continue
                visited.add(w)
                index[w] = len(on_path)
                on_path.append(w)
                stack.append((w, v, iter(adj[w])))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.pop()
                del index[v]
    return None


def is_forest(P: Poset, restrict_to_ext: bool = False) -> tuple[bool, Optional[list[int]]]:
    """Whether the (optionally Ext-restricted) Hasse diagram is acyclic as an
    undirected graph.  Returns (flag, witness cycle or None); the witness is a
    vertex list in original labels, cyclically closed."""
    if restrict_to_ext:
        # an element strictly between two others is neither minimal nor
        # maximal, so every relation among Ext is a cover of Ext
        edges = list(extremal_data(P).rel_e)
        vertices = list(P.ext)
    else:
        edges = list(P.covers)
        vertices = list(range(1, P.n + 1))
    cycle = _find_cycle(vertices, edges)
    return cycle is None, cycle


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def _refine_classes(P: Poset, extra_color=None):
    """Partition {1..n} into isomorphism-invariant classes, returned as lists
    ordered by (height, ...) so that block labeling stays natural.

    `extra_color` optionally maps an element to extra invariant data that a
    relabeling must preserve (used when canonicalizing decorated posets).
    """
    preds = [tuple(_bits(m)) for m in P.pred]
    succs = [tuple(_bits(m)) for m in P.succ]
    raw = [
        (h, len(d), len(u), () if extra_color is None else extra_color(v))
        for v, h, d, u in zip(range(1, P.n + 1), P.heights, preds, succs)
    ]
    while True:
        rank = {r: c for c, r in enumerate(sorted(set(raw)))}
        color = [None] + [rank[r] for r in raw]  # indexed by label
        raw = [
            (color[v], tuple(sorted([color[u] for u in d])), tuple(sorted([color[u] for u in s])))
            for v, d, s in zip(range(1, P.n + 1), preds, succs)
        ]
        if len(set(raw)) == len(rank):
            break
    classes: list[list[int]] = [[] for _ in rank]
    for v in range(1, P.n + 1):
        classes[color[v]].append(v)
    return classes


def _canonical_encoding(P: Poset, extra_color=None, decorate=None):
    """Minimum relabeled encoding over all class-respecting bijections.

    `decorate(relabel)` may return extra invariant data to fold into the
    encoding (and the minimization), given the candidate relabeling map.
    """
    classes = _refine_classes(P, extra_color)
    pairs = P.pairs
    if not pairs and decorate is None:
        return ()
    best = None
    for perm_choice in itertools.product(*(itertools.permutations(c) for c in classes)):
        new = {}
        label = 1
        for members in perm_choice:
            for v in members:
                new[v] = label
                label += 1
        enc = tuple(sorted((new[a], new[b]) for a, b in pairs))
        if decorate is not None:
            enc = (enc, decorate(new))
        if best is None or enc < best:
            best = enc
    return best


def canonical_form(P: Poset):
    """A complete isomorphism invariant: the minimum relation-set encoding of
    P over all order-preserving relabelings.  Two posets are isomorphic iff
    their canonical forms are equal."""
    if P.n > ENUMERATION_BOUND:
        raise SizeBound(f"canonical form limited to n <= {ENUMERATION_BOUND}")
    return _canonical_encoding(P)


def canonical_poset(P: Poset) -> Poset:
    """The canonically labeled representative of P's isomorphism class."""
    return make_poset(P.n, canonical_form(P))


def are_isomorphic(P: Poset, Q: Poset) -> bool:
    if P.n != Q.n:
        return False
    return canonical_form(P) == canonical_form(Q)


# ---------------------------------------------------------------------------
# enumeration


def _is_lex_least(preds: list[int], k: int) -> bool:
    """Whether preds[1..k] is the least pred-mask tuple over the natural
    labellings of the poset it induces on {1..k}.  A DFS gives new labels
    1, 2, ... to elements whose predecessors are placed: a pred mask in new
    labels below preds[pos] rejects, above it cuts the branch, equal to it
    goes deeper.  Per level only one of each group of twins (equal pred and
    succ masks, an automorphism) is tried, so a k-antichain costs k, not k!."""
    succs = [0] * (k + 1)
    for j in range(2, k + 1):
        for i in _bits(preds[j]):
            succs[i] |= 1 << (j - 1)
    new = [0] * (k + 1)

    def smaller(pos: int, placed: int) -> bool:
        tried = set()
        for v in range(1, k + 1):
            if placed >> (v - 1) & 1 or preds[v] & ~placed or (preds[v], succs[v]) in tried:
                continue
            tried.add((preds[v], succs[v]))
            m = 0
            for u in _bits(preds[v]):
                m |= 1 << (new[u] - 1)
            if m < preds[pos]:
                return True
            if m == preds[pos] and pos < k:
                new[v] = pos
                if smaller(pos + 1, placed | 1 << (v - 1)):
                    return True
        return False

    return not smaller(1, 0)


def _labeled_posets(n: int, max_height: Optional[int]) -> Iterator[tuple[int, ...]]:
    """The least natural labelling of each poset on {1..n}, as pred-mask
    tuples in increasing order (Read's orderly generation): element k takes
    each closed predecessor set in turn, and the prefix preds[1..k] survives
    only if `_is_lex_least`.  The first k labels form an order ideal, so a
    smaller labelling of a prefix extends, unchanged past k, to a smaller
    labelling of the whole; hence each class survives once, at its unique
    least labelling.  Sets below preds[k-1] leave k-1, k incomparable, and
    swapping the two is smaller, so they are skipped outright."""
    preds = [0] * (n + 1)
    hts = [0] * (n + 1)

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        if k > n:
            yield tuple(preds[1:])
            return
        for s in range(preds[k - 1], 1 << (k - 1)):
            m = s
            ok = True
            h = 0
            while m:
                low = m & -m
                i = low.bit_length()
                m &= m - 1
                if preds[i] & ~s:
                    ok = False
                    break
                if hts[i] + 1 > h:
                    h = hts[i] + 1
            if not ok or (max_height is not None and h > max_height):
                continue
            preds[k] = s
            hts[k] = h
            if _is_lex_least(preds, k):
                yield from rec(k + 1)
        preds[k] = 0
        hts[k] = 0

    return rec(1)


def enumerate_posets(
    n: int, max_height: Optional[int] = None, connected_only: bool = False
) -> Iterator[Poset]:
    """One canonically labeled representative per isomorphism class of posets
    on n elements with height <= max_height, ordered by least labelling."""
    if n > ENUMERATION_BOUND:
        raise SizeBound(f"enumeration limited to n <= {ENUMERATION_BOUND}")
    if n < 1:
        return
    seen = set()
    for pred_masks in _labeled_posets(n, max_height):
        succ = [0] * n
        for j in range(1, n + 1):
            for i in _bits(pred_masks[j - 1]):
                succ[i - 1] |= 1 << (j - 1)
        key = _canonical_encoding(Poset(n, tuple(succ)))
        packed = sum(1 << (i * n + j) for i, j in key)  # a small int per class
        if packed in seen:
            raise InternalInvariant(f"orderly generation repeated the class {key}")
        seen.add(packed)
        succ = [0] * n
        for i, j in key:  # the key is closed, and Poset checks it is natural
            succ[i - 1] |= 1 << (j - 1)
        Q = Poset(n, tuple(succ))
        if connected_only and not Q.is_connected:
            continue
        yield Q


# ---------------------------------------------------------------------------
# interchange formats


def poset_to_json(P: Poset) -> dict:
    return {"n": P.n, "relations": [list(p) for p in P.pairs]}


def json_int(x) -> int:
    """x itself if it is a JSON integer; floats and booleans raise
    TypeError rather than being truncated."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def poset_from_json(data: dict) -> Poset:
    try:
        n = json_int(data["n"])
        rels = [(json_int(i), json_int(j)) for i, j in data["relations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise OutOfRange(f"malformed poset JSON: {exc}") from exc
    return make_poset(n, rels)


def poset_to_dot(P: Poset) -> str:
    """Hasse diagram in DOT format with rank-based layout hints."""
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=circle];"]
    by_height: dict[int, list[int]] = {}
    for v in range(1, P.n + 1):
        by_height.setdefault(P.heights[v - 1], []).append(v)
    for h in sorted(by_height):
        row = " ".join(f'"{v}";' for v in by_height[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for i, j in P.covers:
        lines.append(f'  "{i}" -> "{j}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
