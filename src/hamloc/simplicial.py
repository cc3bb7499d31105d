"""Truncated simplicial sets: operators, nerves, components, homology.

A ``TruncatedSimplicialSet`` numbers the simplices of each level and
stores the face/degeneracy generator actions as tuples of numbers, one
per generator; names are kept for the boundary, made from a level's grids
only when a caller reads them (:class:`Names`), and one converter reads
maps given by name.  Components, the simplicial identities, homology and
general operators (via the canonical epi-mono factorization) run on the
numbers.  Homology is taken of the normalized chain complex over exact
integers (hand-rolled Smith normal form, no overflow at desk scale).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
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


def monotone_maps(m, n):
    """All monotone maps [m] -> [n]; there are C(n+m+1, m+1) of them."""
    return [
        SimplicialOperator(m, n, images)
        for images in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]


class Names(Sequence):
    """The simplex names of one level, in number order.  Given ``namer``,
    ``items`` are the level's grids and their names are ``namer(items)``,
    made the first time a name is read; else ``items`` are the names.
    ``len`` reads no name; ``item_number`` and ``number`` (an item's and a
    name's position, one map for a level given by name) are built on use;
    a :meth:`numbered` level is given its ``item_number``."""

    __slots__ = ("_items", "_namer", "_names", "_item_number", "_number")

    def __init__(self, items, namer=None):
        self._items = tuple(items)
        self._namer = namer
        self._names = self._items if namer is None else None
        self._item_number = self._number = None

    @classmethod
    def numbered(cls, item_number: dict, namer) -> "Names":
        """The level of the items of ``item_number`` (item -> position,
        in position order), which it keeps as :attr:`item_number`."""
        names = cls(item_number, namer)
        names._item_number = item_number
        return names

    def _all(self):
        if self._names is None:
            self._names = tuple(self._namer(self._items))
        return self._names

    def __len__(self):
        return len(self._items)

    def __getitem__(self, s):
        return self._all()[s]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other):
        return isinstance(other, Sequence) and self._all() == tuple(other)

    __hash__ = None

    def __repr__(self):
        return f"Names({self._all()!r})"

    @property
    def item_number(self) -> dict:
        if self._item_number is None:
            self._item_number = {item: n for n, item in enumerate(self._items)}
        return self._item_number

    @property
    def number(self) -> dict:
        if self._number is None:
            self._number = self.item_number if self._namer is None else {
                name: n for n, name in enumerate(self._all())}
        return self._number


class TruncatedSimplicialSet:
    """Numbered simplices per level 0..N with generator face/degeneracy maps.

    ``levels[k]`` holds the simplex names of level k in order (a
    :class:`Names`, whose names a mapping space makes only when they are
    read; ``len`` counts without them), and ``number[k]`` maps a name to
    its position there, its number.  ``faces[k][i]`` gives, by number, the
    number of d_i of each level-k simplex (1 <= k <= N; ``faces[0]`` is
    empty); ``degeneracies[k][i]`` gives s_i likewise (k < N).  Only
    :attr:`levels`, :attr:`number`, :meth:`level`, :meth:`has_simplex`,
    :meth:`to_json`, :meth:`from_named` and the messages of
    :func:`validate_sset` speak names.  A level given as names, as the
    loaders give it, is checked for duplicates here.
    """

    __slots__ = ("truncation", "levels", "faces", "degeneracies")

    def __init__(self, truncation, levels, faces, degeneracies):
        self.truncation = int(truncation)
        given = tuple(levels)
        self.levels = tuple(level if isinstance(level, Names) else Names(level)
                            for level in given)
        self.faces = tuple(tuple(map(tuple, table)) for table in faces)
        self.degeneracies = tuple(tuple(map(tuple, table)) for table in degeneracies)
        if self.truncation < 0:
            raise InputError("truncation must be >= 0")
        if len(self.levels) != self.truncation + 1:
            raise InputError("levels must cover 0..truncation")
        if any(len(level.number) != len(level)
               for level, names in zip(self.levels, given) if not isinstance(names, Names)):
            raise InputError("duplicate simplex names within a level")

    @property
    def number(self):
        return tuple(level.number for level in self.levels)

    def size(self, k) -> int:
        """The number of level-k simplices, counted without their names."""
        return len(self.levels[k])

    def level(self, k):
        return self.levels[k]

    def has_simplex(self, k, name):
        return name in self.levels[k].number

    def nondegenerate(self, k):
        """The numbers of the level-k simplices that are not degeneracies."""
        degenerate = set().union(*self.degeneracies[k - 1]) if k else ()
        return tuple(s for s in range(self.size(k)) if s not in degenerate)

    def to_json(self):
        levels = self.levels
        return {
            "truncation": self.truncation,
            "levels": [list(level) for level in levels],
            "faces": {str(k): _named(levels[k], self.faces[k], levels[k - 1])
                      for k in range(1, self.truncation + 1)},
            "degeneracies": {str(k): _named(levels[k], self.degeneracies[k], levels[k + 1])
                             for k in range(0, self.truncation)},
        }

    @staticmethod
    def from_named(truncation, levels, faces, degeneracies) -> "TruncatedSimplicialSet":
        """The set whose maps are given by name in the JSON shape
        ``faces[k][name] = [d_0, ..., d_k]`` (likewise ``degeneracies``),
        with integer levels k.  Levels outside 1..N (0..N-1 for
        degeneracies), names outside ``levels`` and images past the k+1st
        are ignored.  A missing image is stored as None and an unknown one
        as -1; :func:`validate_sset` reports both."""
        x = TruncatedSimplicialSet(truncation, levels, (), ())
        N, levels, number = x.truncation, x.levels, x.number
        x.faces = ((),) + tuple(_numbered(faces.get(k, {}), levels[k], number[k - 1], k + 1)
                                for k in range(1, N + 1))
        x.degeneracies = tuple(_numbered(degeneracies.get(k, {}), levels[k], number[k + 1], k + 1)
                               for k in range(N))
        return x

    @staticmethod
    def from_json(data) -> "TruncatedSimplicialSet":
        try:
            truncation = truncation_value(data["truncation"])
            levels = data["levels"]
            faces, degeneracies = {}, {}
            for table, named in ((data.get("faces", {}), faces),
                                 (data.get("degeneracies", {}), degeneracies)):
                for k_str, entries in table.items():
                    named[level_key(k_str)] = {name: list(images)
                                               for name, images in entries.items()}
            names = (*(n for level in levels for n in level),
                     *(img for named in (faces, degeneracies) for per_name in named.values()
                       for images in per_name.values() for img in images))
            if not all(isinstance(n, str) for n in names):
                raise InputError("simplex names must be strings")
            return TruncatedSimplicialSet.from_named(truncation, levels, faces, degeneracies)
        except MALFORMED as exc:
            raise InputError(f"malformed simplicial-set JSON: {exc}") from exc


def level_key(key) -> int:
    """The level named by a key of a JSON per-level table.  Only the
    canonical decimal spelling is read (``"1"``, not ``"01"`` or ``"+1"``),
    so no level can be given twice."""
    k = int(key)
    if str(k) != key:
        raise InputError(f"level key {key!r} is not a canonical integer")
    return k


def truncation_value(value) -> int:
    """A JSON document's truncation: an integer, not a bool, float or string."""
    if type(value) is not int:
        raise InputError(f"truncation {value!r} is not an integer")
    return value


def _named(names, table, target):
    """``{name: [image names by i]}`` of a number table on ``names``."""
    return {name: [target[column[s]] for column in table] for s, name in enumerate(names)}


def _numbered(named, names, target, count):
    """The number table of ``count`` maps given by name (``named[name]``
    lists the images), on the simplices ``names``, into the numbering
    ``target``: None for a missing image, -1 for an unknown one."""
    return tuple(
        tuple(None if i >= len(images) else target.get(images[i], -1)
              for images in (named.get(name, ()) for name in names))
        for i in range(count))


def validate_sset(x: TruncatedSimplicialSet) -> list[str]:
    """Totality, typing and the simplicial identities, exhaustively, on
    numbers: a message names its simplex."""
    report = []
    N, levels, F, S = x.truncation, x.levels, x.faces, x.degeneracies
    for k, table, kind, op in ([(k, F[k], "face", "d") for k in range(1, N + 1)]
                               + [(k, S[k], "degeneracy", "s") for k in range(N)]):
        for s in range(x.size(k)):
            for i, column in enumerate(table):
                img = column[s]
                if img is None:
                    report.append(f"missing {kind}: {op}_{i} of {levels[k][s]} at level {k}")
                elif img < 0:
                    report.append(f"{kind} image unknown: {op}_{i} of {levels[k][s]} at level {k}")
    if report:
        return report
    for k in range(2, N + 1):
        for s in range(x.size(k)):
            for j in range(k + 1):
                for i in range(j):
                    if F[k - 1][i][F[k][j][s]] != F[k - 1][j - 1][F[k][i][s]]:
                        report.append(f"d_{i} d_{j} != d_{j-1} d_{i} at {levels[k][s]} (level {k})")
    for k in range(0, N - 1):
        for s in range(x.size(k)):
            for j in range(k + 1):
                for i in range(j + 1):
                    if S[k + 1][i][S[k][j][s]] != S[k + 1][j + 1][S[k][i][s]]:
                        report.append(f"s_{i} s_{j} != s_{j+1} s_{i} at {levels[k][s]} (level {k})")
    for k in range(0, N):
        for s in range(x.size(k)):
            for j in range(k + 1):
                sj = S[k][j][s]
                for i in range(k + 2):
                    img = F[k + 1][i][sj]
                    if i == j or i == j + 1:
                        if img != s:
                            report.append(f"d_{i} s_{j} != id at {levels[k][s]} (level {k})")
                    elif i < j:
                        if k >= 1 and img != S[k - 1][j - 1][F[k][i][s]]:
                            report.append(f"d_{i} s_{j} != s_{j-1} d_{i} at {levels[k][s]} (level {k})")
                    else:
                        if k >= 1 and img != S[k - 1][j][F[k][i - 1][s]]:
                            report.append(f"d_{i} s_{j} != s_{j} d_{i-1} at {levels[k][s]} (level {k})")
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


def apply_operator(x: TruncatedSimplicialSet, op: SimplicialOperator, s):
    """Act on the level-``target_dim`` simplex numbered ``s``: the number
    of its image at level ``source_dim``."""
    if op.target_dim > x.truncation or op.source_dim > x.truncation:
        raise InputError("operator exceeds truncation")
    for kind, k, i in operator_steps(op):
        s = (x.faces[k] if kind == "d" else x.degeneracies[k])[i][s]
    return s


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

    faces = {k: {} for k in range(1, truncation + 1)}
    degeneracies = {k: {} for k in range(truncation)}
    for k in range(1, truncation + 1):
        for chain in chains[k]:
            if k == 1:
                faces[1][chain[0]] = [c.cod[chain[0]], c.dom[chain[0]]]
                continue
            faces[k][_chain_name(chain)] = [_chain_name(chain[1:])] + [
                _chain_name(chain[:i - 1] + (c.compose(chain[i], chain[i - 1]),) + chain[i + 1:])
                for i in range(1, k)] + [_chain_name(chain[:-1])]
    for k in range(0, truncation):
        for chain in chains[k]:
            if k == 0:
                degeneracies[0][chain[0]] = [c.identity[chain[0]]]
                continue
            images = degeneracies[k][_chain_name(chain)] = []
            for i in range(k + 1):
                obj = c.dom[chain[0]] if i == 0 else c.cod[chain[i - 1]]
                images.append(_chain_name(chain[:i] + (c.identity[obj],) + chain[i:]))
    return TruncatedSimplicialSet.from_named(truncation, levels, faces, degeneracies)


# --- components -----------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Deterministic partition: classes ordered by first occurrence."""

    elements: tuple
    class_of: dict
    classes: tuple

    @staticmethod
    def of(uf: UnionFind, elements) -> "Partition":
        """The classes of ``uf`` on ``elements``, by first occurrence."""
        elements = tuple(elements)
        classes = tuple(frozenset(g) for g in uf.groups(elements).values())
        class_of = {e: idx for idx, cls in enumerate(classes) for e in cls}
        return Partition(elements, class_of, classes)


def pi0(x: TruncatedSimplicialSet) -> Partition:
    """Connected components of the level-0 simplices, by number, along
    level-1 edges."""
    if x.truncation < 1:
        raise InputError("components need truncation >= 1")
    vertices = range(len(x.levels[0]))
    components = UnionFind(len(vertices))
    components.union_pairs(zip(x.faces[1][1], x.faces[1][0]))
    return Partition.of(components, vertices)


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


def rational_rank(rows: list) -> int:
    """Rank over Q, by Gaussian elimination."""
    A = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((i for i in range(rank, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pivot = A[rank]
        for i in range(rank + 1, len(A)):
            if A[i][col]:
                factor = A[i][col] / pivot[col]
                A[i] = [a - factor * b for a, b in zip(A[i], pivot)]
        rank += 1
        if rank == len(A):
            break
    return rank


@dataclass(frozen=True)
class HomologyGroup:
    free_rank: int
    torsion: tuple

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


@dataclass(frozen=True)
class ChainComplexReport:
    """Homology of the normalized chains in degrees 0..truncation-1, and
    ``boundary_ranks[k]``, the length of the Smith diagonal of the
    boundary out of level k (0 for k = 0); the ranks stay out of the JSON."""

    truncation: int
    groups: tuple
    boundary_ranks: tuple

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
    """Normalized boundary from level k to level k-1 (integer matrix),
    with the numbers of its row and column simplices."""
    rows_basis = x.nondegenerate(k - 1)
    cols_basis = x.nondegenerate(k)
    row_index = {s: r for r, s in enumerate(rows_basis)}
    matrix = [[0] * len(cols_basis) for _ in rows_basis]
    for i, column in enumerate(x.faces[k]):
        for j, s in enumerate(cols_basis):
            r = row_index.get(column[s])
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
    return ChainComplexReport(N, tuple(groups), (0, *(len(snf[k]) for k in range(1, N + 1))))
