"""Order complexes of posets and exact rational simplicial homology.

Faces are sorted element tuples grouped by dimension; boundary matrices use
lexicographic face ordering and the standard alternating-sign incidence.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .errors import HeightBound, MorseConditionViolated, OutOfRange, SizeBound
from .linalg import exact_rank
from .posets import Poset, json_int

BETTI_DIM_BOUND = 3


class SimplicialComplex:
    """A finite simplicial complex, closed under taking subsets."""

    __slots__ = ("faces_by_dim",)

    def __init__(self, faces: Iterable):
        closed: set[tuple[int, ...]] = set()
        for face in faces:
            face = tuple(sorted(set(face)))
            if not face:
                continue
            for k in range(1, len(face) + 1):
                closed.update(combinations(face, k))
        by_dim: dict[int, list] = {}
        for face in closed:
            by_dim.setdefault(len(face) - 1, []).append(face)
        self.faces_by_dim = tuple(
            tuple(sorted(by_dim.get(d, []))) for d in range(max(by_dim, default=-1) + 1)
        )

    @property
    def dimension(self) -> int:
        return len(self.faces_by_dim) - 1

    def faces(self, dim: int) -> tuple:
        if 0 <= dim < len(self.faces_by_dim):
            return self.faces_by_dim[dim]
        return ()

    def face_counts(self) -> list[int]:
        return [len(fs) for fs in self.faces_by_dim]

    def all_faces(self):
        for fs in self.faces_by_dim:
            yield from fs

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(fs) for d, fs in enumerate(self.faces_by_dim))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.faces_by_dim == other.faces_by_dim
        )

    def __repr__(self):
        return f"SimplicialComplex(f={self.face_counts()})"


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex whose (k-1)-faces are the k-element chains of P."""
    chains: list[tuple[int, ...]] = []

    def grow(chain: list[int]):
        chains.append(tuple(chain))
        m = P.succ[chain[-1] - 1]
        while m:
            low = m & -m
            chain.append(low.bit_length())
            grow(chain)
            chain.pop()
            m ^= low

    for v in range(1, P.n + 1):
        grow([v])
    return SimplicialComplex(chains)


def boundary_matrix(K: SimplicialComplex, dim: int) -> list[dict[int, int]]:
    """The boundary map from dim-faces to (dim-1)-faces, as sparse integer
    rows, one per (dim-1)-face, each a dict from dim-face index to sign."""
    lower = {f: i for i, f in enumerate(K.faces(dim - 1))}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for j, face in enumerate(K.faces(dim)):
        for drop in range(len(face)):
            sub = face[:drop] + face[drop + 1:]
            rows[lower[sub]][j] = (-1) ** drop
    return rows


def check_homology_dimension(dim: int) -> None:
    """SizeBound unless a complex of dimension `dim` is within the homology
    guard; lets callers refuse an input before building its faces."""
    if dim > BETTI_DIM_BOUND:
        raise SizeBound(f"homology limited to dimension <= {BETTI_DIM_BOUND}")


def betti_numbers(
    K: SimplicialComplex, reduced: bool = False, up_to: Optional[int] = None
) -> list[int]:
    """Exact Betti numbers over the rationals, degrees 0..dimension (or
    0..up_to).  The reduced variant subtracts the augmentation from b0."""
    top = K.dimension if up_to is None else min(K.dimension, up_to)
    check_homology_dimension(min(K.dimension, top + 1))
    counts = K.face_counts()
    ranks = [0] * (top + 2)  # ranks[k] = rank of boundary from k-faces
    for k in range(1, top + 2):
        if k <= K.dimension:
            ranks[k] = exact_rank(boundary_matrix(K, k))
    out = []
    for k in range(top + 1):
        fk = counts[k] if k < len(counts) else 0
        out.append(fk - ranks[k + 1] - (ranks[k] if k >= 1 else 0))
    if reduced and out:
        out[0] -= 1
    return out


def verify_acyclic(P: Poset) -> bool:
    """Vanishing reduced rational homology plus connectivity of the order
    complex (the computable part of contractibility)."""
    if P.height > 2:
        raise HeightBound("acyclicity check requires height <= 2")
    K = order_complex(P)
    reduced = betti_numbers(K, reduced=True)
    return all(b == 0 for b in reduced)


def check_morse(K: SimplicialComplex, f: dict) -> list[tuple[int, ...]]:
    """Validate a discrete Morse function and return its critical faces.

    For each face, at most one codimension-1 coface may have a value <= the
    face's, at most one codimension-1 face may have a value >= it, and not
    both; faces with neither are critical.  Violations raise
    MorseConditionViolated with the offending face.
    """
    values = {}
    for face in K.all_faces():
        if face not in f:
            raise ValueError(f"assignment missing a value for face {face}")
        values[face] = f[face]
    critical = []
    for face in K.all_faces():
        fv = values[face]
        dim = len(face) - 1
        up = sum(
            1
            for tau in K.faces(dim + 1)
            if set(face) < set(tau) and values[tau] <= fv
        )
        down = 0
        if dim > 0:
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1:]
                if values[sub] >= fv:
                    down += 1
        if up > 1 or down > 1 or (up == 1 and down == 1):
            raise MorseConditionViolated(face)
        if up == 0 and down == 0:
            critical.append(face)
    return sorted(critical, key=lambda s: (len(s), s))


def complex_to_json(K: SimplicialComplex) -> dict:
    return {"faces": [list(face) for face in K.all_faces()]}


def complex_from_json(data: dict) -> SimplicialComplex:
    """SimplicialComplex from {"faces": [[v, ...], ...]} with integer
    vertices; malformed input raises OutOfRange.  A face of more than
    BETTI_DIM_BOUND + 1 vertices raises SizeBound before the closure builds
    its 2^k - 1 subsets."""
    try:
        faces = data["faces"]
        if type(faces) is not list or any(type(face) is not list for face in faces):
            raise TypeError("faces must be a list of vertex lists")
        faces = [set(json_int(v) for v in face) for face in faces]
    except (KeyError, TypeError) as exc:
        raise OutOfRange(f"malformed complex JSON: {exc}") from exc
    check_homology_dimension(max(map(len, faces), default=0) - 1)
    return SimplicialComplex(faces)
