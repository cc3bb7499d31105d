"""Truncated simplicial sets: operators, nerves, components, homology.

A ``TruncatedSimplicialSet`` stores simplex names per level together
with the face/degeneracy generator actions; general operators act via
the canonical epi-mono factorization.  Homology is taken of the
normalized chain complex over exact integers (hand-rolled Smith normal
form, no overflow at desk scale).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import MALFORMED, InputError
from .fincat import FiniteCategory, UnionFind


@dataclass(frozen=True)
class SimplicialOperator:
    """A monotone map [source_dim] -> [target_dim]; it acts on simplex
    data contravariantly, carrying level ``target_dim`` to ``source_dim``."""

    source_dim: int
    target_dim: int
    images: tuple

    def __post_init__(self):
        if self.source_dim < 0 or self.target_dim < 0:
            raise InputError("dimensions must be non-negative")
        if len(self.images) != self.source_dim + 1:
            raise InputError("images length must be source_dim + 1")
        if any(v < 0 or v > self.target_dim for v in self.images):
            raise InputError("image out of range")
        if any(a > b for a, b in zip(self.images, self.images[1:])):
            raise InputError("images must be nondecreasing")

    @staticmethod
    def identity(n):
        return SimplicialOperator(n, n, tuple(range(n + 1)))

    @staticmethod
    def coface(n, i):
        """delta_i : [n-1] -> [n] (the injection missing i); acts as d_i."""
        if not 0 <= i <= n:
            raise InputError("coface index out of range")
        return SimplicialOperator(n - 1, n, tuple(v for v in range(n + 1) if v != i))

    @staticmethod
    def codegeneracy(n, i):
        """sigma_i : [n+1] -> [n] (hits i twice); acts as s_i."""
        if not 0 <= i <= n:
            raise InputError("codegeneracy index out of range")
        images = list(range(i + 1)) + [i] + list(range(i + 1, n + 1))
        return SimplicialOperator(n + 1, n, tuple(images))

    def is_identity(self):
        return self.source_dim == self.target_dim and self.images == tuple(range(self.source_dim + 1))


def compose_operators(p: SimplicialOperator, q: SimplicialOperator) -> SimplicialOperator:
    """Diagrammatic composite: first p, then q (requires matching middles)."""
    if p.target_dim != q.source_dim:
        raise InputError(
            f"operator dims mismatch: [{p.source_dim}]->[{p.target_dim}] then "
            f"[{q.source_dim}]->[{q.target_dim}]"
        )
    return SimplicialOperator(p.source_dim, q.target_dim, tuple(q.images[v] for v in p.images))


def monotone_maps(m, n):
    """All monotone maps [m] -> [n]; there are C(n+m+1, m+1) of them."""
    return [
        SimplicialOperator(m, n, images)
        for images in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]


class TruncatedSimplicialSet:
    """Simplex names per level 0..N with generator face/degeneracy maps.

    ``faces[(k, name, i)]`` is d_i of a level-k simplex (1 <= k <= N);
    ``degeneracies[(k, name, i)]`` is s_i of a level-k simplex (k < N).
    """

    __slots__ = ("truncation", "levels", "faces", "degeneracies", "_level_sets", "_degenerate")

    def __init__(self, truncation, levels, faces, degeneracies):
        self.truncation = int(truncation)
        self.levels = tuple(tuple(level) for level in levels)
        self.faces = dict(faces)
        self.degeneracies = dict(degeneracies)
        if self.truncation < 0:
            raise InputError("truncation must be >= 0")
        if len(self.levels) != self.truncation + 1:
            raise InputError("levels must cover 0..truncation")
        for level in self.levels:
            if len(set(level)) != len(level):
                raise InputError("duplicate simplex names within a level")
        self._level_sets = tuple(frozenset(level) for level in self.levels)
        degenerate = [set() for _ in range(self.truncation + 1)]
        for (k, name, i), img in self.degeneracies.items():
            degenerate[k + 1].add(img)
        self._degenerate = tuple(frozenset(s) for s in degenerate)

    def level(self, k):
        return self.levels[k]

    def has_simplex(self, k, name):
        return name in self._level_sets[k]

    def face(self, k, i, name):
        return self.faces[(k, name, i)]

    def degeneracy(self, k, i, name):
        return self.degeneracies[(k, name, i)]

    def nondegenerate(self, k):
        return tuple(s for s in self.levels[k] if s not in self._degenerate[k])

    def to_json(self):
        return {
            "truncation": self.truncation,
            "levels": [list(level) for level in self.levels],
            "faces": {
                str(k): {name: [self.faces[(k, name, i)] for i in range(k + 1)]
                         for name in self.levels[k]}
                for k in range(1, self.truncation + 1)
            },
            "degeneracies": {
                str(k): {name: [self.degeneracies[(k, name, i)] for i in range(k + 1)]
                         for name in self.levels[k]}
                for k in range(0, self.truncation)
            },
        }

    @staticmethod
    def from_json(data) -> "TruncatedSimplicialSet":
        try:
            truncation = data["truncation"]
            levels = data["levels"]
            faces = {}
            for k_str, entries in data.get("faces", {}).items():
                k = int(k_str)
                for name, imgs in entries.items():
                    for i, img in enumerate(imgs):
                        faces[(k, name, i)] = img
            degeneracies = {}
            for k_str, entries in data.get("degeneracies", {}).items():
                k = int(k_str)
                for name, imgs in entries.items():
                    for i, img in enumerate(imgs):
                        degeneracies[(k, name, i)] = img
            names = (*(n for level in levels for n in level), *faces.values(),
                     *degeneracies.values())
            if not all(isinstance(n, str) for n in names):
                raise InputError("simplex names must be strings")
            return TruncatedSimplicialSet(truncation, levels, faces, degeneracies)
        except MALFORMED as exc:
            raise InputError(f"malformed simplicial-set JSON: {exc}") from exc


def validate_sset(x: TruncatedSimplicialSet) -> list[str]:
    """Totality, typing and the simplicial identities, exhaustively."""
    report = []
    N = x.truncation
    for k in range(1, N + 1):
        for name in x.levels[k]:
            for i in range(k + 1):
                img = x.faces.get((k, name, i))
                if img is None:
                    report.append(f"missing face: d_{i} of {name} at level {k}")
                elif not x.has_simplex(k - 1, img):
                    report.append(f"face image unknown: d_{i} of {name} at level {k}")
    for k in range(0, N):
        for name in x.levels[k]:
            for i in range(k + 1):
                img = x.degeneracies.get((k, name, i))
                if img is None:
                    report.append(f"missing degeneracy: s_{i} of {name} at level {k}")
                elif not x.has_simplex(k + 1, img):
                    report.append(f"degeneracy image unknown: s_{i} of {name} at level {k}")
    if report:
        return report
    for k in range(2, N + 1):
        for name in x.levels[k]:
            for j in range(k + 1):
                for i in range(j):
                    lhs = x.face(k - 1, i, x.face(k, j, name))
                    rhs = x.face(k - 1, j - 1, x.face(k, i, name))
                    if lhs != rhs:
                        report.append(f"d_{i} d_{j} != d_{j-1} d_{i} at {name} (level {k})")
    for k in range(0, N - 1):
        for name in x.levels[k]:
            for j in range(k + 1):
                for i in range(j + 1):
                    lhs = x.degeneracy(k + 1, i, x.degeneracy(k, j, name))
                    rhs = x.degeneracy(k + 1, j + 1, x.degeneracy(k, i, name))
                    if lhs != rhs:
                        report.append(f"s_{i} s_{j} != s_{j+1} s_{i} at {name} (level {k})")
    for k in range(0, N):
        for name in x.levels[k]:
            for j in range(k + 1):
                sj = x.degeneracy(k, j, name)
                for i in range(k + 2):
                    img = x.face(k + 1, i, sj)
                    if i == j or i == j + 1:
                        if img != name:
                            report.append(f"d_{i} s_{j} != id at {name} (level {k})")
                    elif i < j:
                        if k >= 1 and img != x.degeneracy(k - 1, j - 1, x.face(k, i, name)):
                            report.append(f"d_{i} s_{j} != s_{j-1} d_{i} at {name} (level {k})")
                    else:
                        if k >= 1 and img != x.degeneracy(k - 1, j, x.face(k, i - 1, name)):
                            report.append(f"d_{i} s_{j} != s_{j} d_{i-1} at {name} (level {k})")
    return report


def operator_steps(op: SimplicialOperator) -> list:
    """The canonical epi-mono factorization of ``op`` as generator steps
    ``(kind, level, i)`` in the order they act: faces ``"d"`` (largest
    missing vertex first), then degeneracies ``"s"``; ``level`` is the
    dimension the step acts on."""
    hit = sorted(set(op.images))
    steps = []
    k = op.target_dim
    for j in sorted(set(range(op.target_dim + 1)) - set(hit), reverse=True):
        steps.append(("d", k, j))
        k -= 1
    epi = [hit.index(v) for v in op.images]
    degen_indices = []
    while len(epi) > k + 1:
        i = next(idx for idx in range(len(epi) - 1) if epi[idx] == epi[idx + 1])
        degen_indices.append(i)
        del epi[i + 1]
    for i in reversed(degen_indices):
        steps.append(("s", k, i))
        k += 1
    return steps


def apply_operator(x: TruncatedSimplicialSet, op: SimplicialOperator, name):
    """Act on a level-``target_dim`` simplex, landing in ``source_dim``."""
    if op.target_dim > x.truncation or op.source_dim > x.truncation:
        raise InputError("operator exceeds truncation")
    if not x.has_simplex(op.target_dim, name):
        raise InputError(f"unknown simplex {name!r} at level {op.target_dim}")
    for kind, k, i in operator_steps(op):
        name = x.face(k, i, name) if kind == "d" else x.degeneracy(k, i, name)
    return name


# --- nerve ----------------------------------------------------------------


def _chain_name(chain):
    return "|".join(chain)


def nerve(c: FiniteCategory, truncation: int) -> TruncatedSimplicialSet:
    """Level k = composable k-chains of morphisms; level 0 = objects."""
    for m in c.morphisms:
        if "|" in m:
            raise InputError("morphism names may not contain '|'")
    levels = [tuple(c.objects)]
    chains = {0: [(x,) for x in c.objects]}
    for k in range(1, truncation + 1):
        level_chains = []
        if k == 1:
            level_chains = [(m,) for m in c.morphisms]
        else:
            for chain in chains[k - 1]:
                for m in c.from_object(c.cod[chain[-1]]):
                    level_chains.append(chain + (m,))
        chains[k] = level_chains
        levels.append(tuple(_chain_name(ch) for ch in level_chains))

    faces = {}
    degeneracies = {}
    for k in range(1, truncation + 1):
        for chain in chains[k]:
            name = _chain_name(chain)
            if k == 1:
                faces[(1, name, 0)] = c.cod[chain[0]]
                faces[(1, name, 1)] = c.dom[chain[0]]
                continue
            faces[(k, name, 0)] = _chain_name(chain[1:])
            faces[(k, name, k)] = _chain_name(chain[:-1])
            for i in range(1, k):
                merged = chain[:i - 1] + (c.compose(chain[i], chain[i - 1]),) + chain[i + 1:]
                faces[(k, name, i)] = _chain_name(merged)
    for k in range(0, truncation):
        for chain in chains[k]:
            name = _chain_name(chain) if k > 0 else chain[0]
            for i in range(k + 1):
                if k == 0:
                    degeneracies[(0, name, 0)] = c.identity[chain[0]]
                else:
                    obj = c.dom[chain[0]] if i == 0 else c.cod[chain[i - 1]]
                    expanded = chain[:i] + (c.identity[obj],) + chain[i:]
                    degeneracies[(k, name, i)] = _chain_name(expanded)
    return TruncatedSimplicialSet(truncation, levels, faces, degeneracies)


# --- components -----------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Deterministic partition: classes ordered by first occurrence."""

    elements: tuple
    class_of: dict
    classes: tuple

    @staticmethod
    def from_pairs(elements, pairs) -> "Partition":
        elements = tuple(elements)
        uf = UnionFind(elements)
        for a, b in pairs:
            uf.union(a, b)
        return Partition.of(uf, elements)

    @staticmethod
    def of(uf: UnionFind, elements) -> "Partition":
        """The classes of ``uf`` on ``elements``, by first occurrence."""
        elements = tuple(elements)
        classes = tuple(frozenset(g) for g in uf.groups(elements).values())
        class_of = {e: idx for idx, cls in enumerate(classes) for e in cls}
        return Partition(elements, class_of, classes)

    def same(self, a, b) -> bool:
        return self.class_of[a] == self.class_of[b]

    def renamed(self, name) -> "Partition":
        """The same partition with each element ``e`` written ``name[e]``."""
        return Partition(tuple(name[e] for e in self.elements),
                         {name[e]: idx for e, idx in self.class_of.items()},
                         tuple(frozenset(name[e] for e in cls) for cls in self.classes))


def pi0(x: TruncatedSimplicialSet) -> Partition:
    """Connected components of the level-0 simplices along level-1 edges."""
    if x.truncation < 1:
        raise InputError("components need truncation >= 1")
    pairs = [
        (x.face(1, 1, s), x.face(1, 0, s))
        for s in x.levels[1]
    ]
    return Partition.from_pairs(x.levels[0], pairs)


# --- integral homology ----------------------------------------------------


def smith_diagonal(rows: list) -> list:
    """Nonzero diagonal of the Smith normal form (d1 | d2 | ...), exact."""
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    n = len(A[0]) if A else 0
    divisors = []
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            done = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for i in range(t, m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        done = False
            if done:
                break
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            for j in range(t, n):
                A[t][j] += A[stray][j]
            continue
        divisors.append(abs(A[t][t]))
        t += 1
        if t >= m or t >= n:
            break
    return divisors


def _rational_echelon(rows: list):
    """Reduced row echelon form over Q by Gaussian elimination: the
    reduced rows and the pivot column of each nonzero one, in order."""
    A = [[Fraction(v) for v in r] for r in rows]
    n = len(A[0]) if A else 0
    pivots = []
    for col in range(n):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        scale = A[rank][col]
        A[rank] = [a / scale for a in A[rank]]
        for i, row in enumerate(A):
            if i != rank and row[col]:
                factor = row[col]
                A[i] = [a - factor * b for a, b in zip(row, A[rank])]
        pivots.append(col)
        if len(pivots) == len(A):
            break
    return A, pivots


def rational_rank(rows: list) -> int:
    return len(_rational_echelon(rows)[1])


def rational_kernel_basis(rows: list) -> list:
    """Basis of the rational kernel (list of column vectors as lists)."""
    A, pivots = _rational_echelon(rows)
    n = len(A[0]) if A else 0
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * n
        vec[j] = Fraction(1)
        for rix, col in enumerate(pivots):
            vec[col] = -A[rix][j]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class HomologyGroup:
    free_rank: int
    torsion: tuple

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


@dataclass(frozen=True)
class ChainComplexReport:
    """Homology of the normalized chains in degrees 0..truncation-1."""

    truncation: int
    groups: tuple

    def group(self, k) -> HomologyGroup:
        return self.groups[k]

    def to_json(self):
        return {
            "truncation": self.truncation,
            "homology": [
                {"degree": k, **g.to_json()} for k, g in enumerate(self.groups)
            ],
        }


def boundary_matrix(x: TruncatedSimplicialSet, k: int):
    """Normalized boundary from level k to level k-1 (integer matrix)."""
    rows_basis = x.nondegenerate(k - 1)
    cols_basis = x.nondegenerate(k)
    row_index = {name: i for i, name in enumerate(rows_basis)}
    matrix = [[0] * len(cols_basis) for _ in rows_basis]
    for j, name in enumerate(cols_basis):
        for i in range(k + 1):
            img = x.face(k, i, name)
            r = row_index.get(img)
            if r is not None:
                matrix[r][j] += (-1) ** i
    return matrix, rows_basis, cols_basis


def homology(x: TruncatedSimplicialSet) -> ChainComplexReport:
    if x.truncation < 1:
        raise InputError("homology needs truncation >= 1")
    N = x.truncation
    counts = [len(x.nondegenerate(k)) for k in range(N + 1)]
    snf = {}
    for k in range(1, N + 1):
        matrix, _, _ = boundary_matrix(x, k)
        snf[k] = smith_diagonal(matrix) if matrix and matrix[0] else []
    groups = []
    for k in range(N):
        rank_in = len(snf[k + 1])
        rank_out = len(snf[k]) if k >= 1 else 0
        free = counts[k] - rank_out - rank_in
        torsion = tuple(d for d in snf[k + 1] if d > 1)
        groups.append(HomologyGroup(free, torsion))
    return ChainComplexReport(N, tuple(groups))
