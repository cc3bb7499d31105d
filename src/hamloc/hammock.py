"""Hammocks and width-bounded hammock localization.

A hammock is a commuting grid between two shared end objects: columns
are direction-homogeneous zigzag steps (backward steps and all vertical
maps are weak equivalences), rows are zigzag paths, and every square
and end triangle commutes.  Reduced hammocks (no all-identity column,
adjacent columns alternate) are the canonical forms; the k-simplices of
a mapping space are the reduced hammocks of height k.

Enumeration runs on morphism numbers (``FiniteCategory.mor_index``):
one :class:`_Context` per relative category holds the numbered
composition and right-factor tables, and grids are plain ``(directions,
rows, layers)`` tuples of numbers.  One routine, :func:`_normal_form`,
reduces them (Dwyer-Kan: delete all-identity columns, merge
equal-direction neighbours): a vertex row in ``pi0`` detail, a face in
``full`` detail, an outer face image of the dimensionwise localization
and :func:`reduce_hammock`, each distinct grid once per mapping space or
diagonal hom (memos that live for that one call).  Names
(:func:`hammock_name`) and :class:`Hammock` objects are made once per
kept simplex, or per vertex in ``pi0`` detail, and carry faces,
degeneracies and composites from there on.  Composition reduces only
where two reduced hammocks can reduce, at their junction (the cascade of
:func:`_junction`, on names), and an entrywise degeneracy map keeps a
hammock reduced, so neither takes the normal form.  Along an alternating
pattern a grid is reduced exactly when the identity bitmasks of its rows
(:func:`_identity_mask`) share no bit, so the full-detail enumeration
builds a grid's last row only with non-identity entries in the columns
its other rows leave as identities.

Width is the one genuine approximation: enumeration is exhaustive up to
``w_max`` columns, faces and reduction only shrink width, and every
result carries a stabilization verdict: one union-find, grown in order
of width, has the same components at w_max-1 as at w_max.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CompositionUnavailable, ConsistencyError, InputError
from .fincat import FiniteCategory, UnionFind
from .relcat import RelativeCategory
from .simplicial import Partition, TruncatedSimplicialSet
from . import scat as scat_mod


class Hammock:
    """Immutable hammock data; equality and hashing go through ``key``."""

    __slots__ = ("source", "sink", "directions", "rows", "verticals", "key", "name", "_hash")

    def __init__(self, source, sink, directions, rows, verticals):
        self.source = source
        self.sink = sink
        self.directions = tuple(directions)
        self.rows = tuple(tuple(r) for r in rows)
        self.verticals = tuple(tuple(v) for v in verticals)
        if not self.rows:
            raise InputError("a hammock has at least one row")
        if len(self.verticals) != len(self.rows) - 1:
            raise InputError("need one vertical layer between consecutive rows")
        width = len(self.directions)
        for row in self.rows:
            if len(row) != width:
                raise InputError("row width mismatch")
        for layer in self.verticals:
            if len(layer) != max(width - 1, 0):
                raise InputError("vertical layer width mismatch")
        self.key = (self.source, self.sink, self.directions, self.rows, self.verticals)
        self.name = hammock_name(self.directions, self.rows, self.verticals)
        self._hash = hash(self.key)

    @property
    def width(self):
        return len(self.directions)

    @property
    def height(self):
        return len(self.rows) - 1

    def __eq__(self, other):
        return isinstance(other, Hammock) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Hammock({self.source}->{self.sink}, w={self.width}, h={self.height})"


def hammock_name(directions, rows, verticals) -> str:
    """The simplex name of a hammock with these (tuple) entries."""
    return repr((directions, rows, verticals))


def width_zero(x, height=0) -> Hammock:
    return Hammock(x, x, (), ((),) * (height + 1), ((),) * height)


def _normal_form(post, identities, directions, rows, layers):
    """The reduced normal form of a grid of morphism numbers, given as
    plain ``(directions, rows, layers)`` tuples: delete all-identity
    columns and merge equal-direction neighbours until neither applies,
    taking the leftmost move (a deletion before a merge at the same
    column); the normal form does not depend on the order.  ``post[g][f]``
    is g after f and ``identities`` holds the identity numbers.  After a
    move at column ``col`` no column left of ``col - 1`` admits one, so the
    scan resumes there.  ``layers`` may be empty, which skips the vertical
    checks: verticals never change the width.  None when a merge needs a
    composite the table lacks."""
    directions = list(directions)
    rows = list(map(list, rows))
    layers = list(map(list, layers))
    first, others = rows[0], rows[1:]
    col = 0
    while col < len(directions):
        width = len(directions)
        if first[col] in identities and (
                not others or all(row[col] in identities for row in others)):
            # the two vertex lines of the deleted column become one
            boundary = col in (0, width - 1)
            at = col - 1 if col == width - 1 else col
            for layer in layers if width > 1 else ():
                if boundary and layer[at] not in identities:
                    raise ConsistencyError("boundary identity column with non-identity vertical")
                if not boundary and layer[col - 1] != layer[col]:
                    raise ConsistencyError("identity column flanked by unequal verticals")
                del layer[at]
            del directions[col]
            for row in rows:
                del row[col]
            col = max(col - 1, 0)
        elif col + 1 < width and directions[col] == directions[col + 1]:
            forward = directions[col] == "f"
            for row in rows:
                a, b = row[col], row.pop(col + 1)
                m = post[b].get(a) if forward else post[a].get(b)
                if m is None:
                    return None
                row[col] = m
            del directions[col + 1]
            for layer in layers:
                del layer[col]
        else:
            col += 1
    return tuple(directions), tuple(map(tuple, rows)), tuple(map(tuple, layers))


def _numbered(index, rows):
    return tuple(tuple(index[m] for m in row) for row in rows)


def _named(morphisms, rows):
    name = morphisms.__getitem__
    return tuple(tuple(map(name, row)) for row in rows)


def _hammock(morphisms, x, y, grid) -> Hammock:
    """The :class:`Hammock` from x to y of a grid of morphism numbers."""
    directions, rows, layers = grid
    return Hammock(x, y if directions else x, directions, _named(morphisms, rows),
                   _named(morphisms, layers))


def _reduce(ctx, grid):
    """:func:`_normal_form` of a grid of morphism numbers with the tables
    of ``ctx``; CompositionUnavailable when a merge needs a missing
    composite."""
    reduced = _normal_form(ctx.post, ctx.identities, *grid)
    if reduced is None:
        raise CompositionUnavailable("reduction needs a composite the table lacks")
    return reduced


def reduce_hammock(r: RelativeCategory, h: Hammock) -> Hammock:
    """The normal form of ``h`` (see :func:`_normal_form`), numbered and
    named again at this boundary."""
    index = r.cat.mor_index
    grid = (h.directions, _numbered(index, h.rows), _numbered(index, h.verticals))
    return _hammock(r.cat.morphisms, h.source, h.sink, _reduce(_Context(r), grid))


def _check_composable(g: Hammock, f: Hammock):
    if f.sink != g.source:
        raise InputError(f"hammocks not composable: {f.sink} vs {g.source}")
    if f.height != g.height:
        raise InputError("hammocks must have equal heights")


def _junction(cat: FiniteCategory, g: Hammock, f: Hammock, w_max=None):
    """The normal form of ``f`` then ``g`` (reduced, of positive width) as
    plain tuples, or None when it is wider than ``w_max``.

    Two reduced hammocks can reduce only at their junction.  When the
    junction columns differ in direction nothing reduces.  Otherwise they
    merge; the merged column's neighbours both point the other way, so the
    only further move is to delete it when it is all identities, which
    brings the next pair of columns together.  This cascade is the one
    move sequence :func:`_normal_form` makes on the concatenated grid,
    with the same checks on verticals; a missing composite raises
    CompositionUnavailable.  The width is known before any row is built."""
    d1, d2 = f.directions, g.directions
    w1, w2 = len(d1), len(d2)
    rows1, rows2 = f.rows, g.rows
    layers1, layers2 = f.verticals, g.verticals
    if d1[-1] != d2[0]:
        if w_max is not None and w1 + w2 > w_max:
            return None
        junction = (cat.identity[f.sink],)
        return (d1 + d2, tuple(a + b for a, b in zip(rows1, rows2)),
                tuple(a + junction + b for a, b in zip(layers1, layers2)))
    compose, is_identity = cat.compose, cat.is_identity
    forward = d2[0] == "f"
    left, right = w1 - 1, 0  # the columns f[left] and g[right] merge
    while True:
        if forward:
            merged = tuple(compose(b[right], a[left]) for a, b in zip(rows1, rows2))
        else:
            merged = tuple(compose(a[left], b[right]) for a, b in zip(rows1, rows2))
        if not all(map(is_identity, merged)):
            break
        # delete the merged column: its two vertex lines become one
        if left and right + 1 < w2:
            for a, b in zip(layers1, layers2):
                if a[left - 1] != b[right]:
                    raise ConsistencyError("identity column flanked by unequal verticals")
            left, right, forward = left - 1, right + 1, not forward
            continue
        # at a boundary the one vertex line that stays must be identities
        if left:
            ends = [a[left - 1] for a in layers1]
        elif right + 1 < w2:
            ends = [b[right] for b in layers2]
        else:
            ends = ()
        if not all(map(is_identity, ends)):
            raise ConsistencyError("boundary identity column with non-identity vertical")
        if w_max is not None and left + w2 - right - 1 > w_max:
            return None
        if left:
            return (d1[:left], tuple(a[:left] for a in rows1),
                    tuple(a[:left - 1] for a in layers1))
        return (d2[right + 1:], tuple(b[right + 1:] for b in rows2),
                tuple(b[right + 1:] for b in layers2))
    if w_max is not None and left + w2 - right > w_max:
        return None
    return (d1[:left] + d2[right:],
            tuple(a[:left] + (m,) + b[right + 1:] for a, m, b in zip(rows1, merged, rows2)),
            tuple(a[:left] + b[right:] for a, b in zip(layers1, layers2)))


def compose_hammocks(r: RelativeCategory, h2: Hammock, h1: Hammock) -> Hammock:
    """Widthwise concatenation (h1 then h2), reduced at the junction."""
    _check_composable(h2, h1)
    if h1.width == 0 or h2.width == 0:
        return h2 if h1.width == 0 else h1
    return Hammock(h1.source, h2.sink, *_junction(r.cat, h2, h1))


@dataclass
class ComposeCounts:
    """Composite requests by outcome: a representable composite, an
    overflow known from the junction directions alone (width ``w1 + w2``
    over the bound), or an overflow the junction cascade found (too wide,
    or a composite the table lacks).  Deterministic counts for progress
    output, never report bytes."""

    composites: int = 0
    junction_overflows: int = 0
    cascade_overflows: int = 0

    @property
    def requests(self):
        return self.composites + self.junction_overflows + self.cascade_overflows


def bounded_composite(r: RelativeCategory, g: Hammock, f: Hammock, w_max, enumerated,
                      counts: ComposeCounts):
    """Name of the reduced composite of ``g`` after ``f`` (reduced, each at
    most ``w_max`` wide), or None when it needs a composite ``r`` lacks or
    is wider than ``w_max``; ``counts`` tallies the outcome.  A result
    missing from ``enumerated`` (the target's names) is inconsistent."""
    _check_composable(g, f)
    if f.width == 0 or g.width == 0:
        name = g.name if f.width == 0 else f.name
    else:
        try:
            grid = _junction(r.cat, g, f, w_max)
        except CompositionUnavailable:
            grid = None
        if grid is None:
            if f.directions[-1] != g.directions[0]:
                counts.junction_overflows += 1
            else:
                counts.cascade_overflows += 1
            return None
        name = hammock_name(*grid)
    if name not in enumerated:
        raise ConsistencyError("composite missing from enumeration")
    counts.composites += 1
    return name


def embed_morphism(r: RelativeCategory, m, height: int = 0) -> Hammock:
    """The width-<=1 forward hammock on a morphism, degenerately tall."""
    if r.cat.is_identity(m):
        return width_zero(r.cat.dom[m], height)
    return Hammock(
        r.cat.dom[m], r.cat.cod[m], ("f",),
        ((m,),) * (height + 1), ((),) * height,
    )


# --- enumeration -------------------------------------------------------------


class _Context:
    """Per-relative-category lookup tables for hammock enumeration, on
    morphism numbers (``FiniteCategory.mor_index``); objects keep their
    names.  ``post[g][f]`` is g after f; ``right[f][h]`` lists the g with
    g after f equal to h, ``right_weq[f][h]`` the weak equivalences among
    them; ``dom``/``cod`` are indexed by number, ``identity[x]`` is the
    number of x's identity (``identities`` holds them all); ``from_any``, ``weq_into`` and ``weq_from`` list an object's morphisms
    out, weak equivalences in and weak equivalences out; and
    ``sink_moves[m]`` / ``source_moves[m]`` are the non-identity weak
    equivalences out of the codomain / domain of m."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        index = c.mor_index
        weq = {index[m] for m in r.weq}
        self.cat = c
        self.dom = [c.dom[m] for m in c.morphisms]
        self.cod = [c.cod[m] for m in c.morphisms]
        self.identity = {x: index[m] for x, m in c.identity.items()}
        self.identities = frozenset(self.identity.values())
        self.from_any = {x: tuple(index[m] for m in c.from_object(x)) for x in c.objects}
        self.weq_into = {x: tuple(index[m] for m in c.to_object(x) if index[m] in weq)
                         for x in c.objects}
        self.weq_from = {x: tuple(m for m in self.from_any[x] if m in weq) for x in c.objects}
        self.fwd_adj = {x: {self.cod[m] for m in self.from_any[x]} for x in c.objects}
        self.weq_src_adj = {x: {self.dom[m] for m in self.weq_into[x]} for x in c.objects}
        self.post = [{} for _ in c.morphisms]
        self.right = [{} for _ in c.morphisms]
        self.right_weq = [{} for _ in c.morphisms]
        for (g, f), h in c.table.items():
            g, f, h = index[g], index[f], index[h]
            self.post[g][f] = h
            self.right[f].setdefault(h, []).append(g)
            if g in weq:
                self.right_weq[f].setdefault(h, []).append(g)
        moves = {x: tuple(m for m in self.weq_from[x] if m not in self.identities)
                 for x in c.objects}
        self.sink_moves = [moves[x] for x in self.cod]
        self.source_moves = [moves[x] for x in self.dom]

    def row_objects(self, x, directions, row):
        """The objects 0..width along a row that starts at ``x``."""
        objects = [x]
        for d, m in zip(directions, row):
            objects.append(self.cod[m] if d == "f" else self.dom[m])
        return tuple(objects)

    def paths(self, x, y, directions):
        """All rows (identity entries allowed) from x to y along the
        direction pattern."""
        width = len(directions)
        if width == 0:
            return [()] if x == y else []
        objects = self.cat.objects
        feasible = [set() for _ in range(width + 1)]
        feasible[width] = {y}
        for col in range(width - 1, -1, -1):
            adj = self.fwd_adj if directions[col] == "f" else self.weq_src_adj
            feasible[col] = {u for u in objects if adj[u] & feasible[col + 1]}
        if x not in feasible[0]:
            return []
        dom, cod = self.dom, self.cod
        out = []

        def walk(col, at, row):
            if col == width:
                if at == y:
                    out.append(row)
                return
            if directions[col] == "f":
                for m in self.from_any[at]:
                    nxt = cod[m]
                    if nxt in feasible[col + 1]:
                        walk(col + 1, nxt, row + (m,))
            else:
                for m in self.weq_into[at]:
                    nxt = dom[m]
                    if nxt in feasible[col + 1]:
                        walk(col + 1, nxt, row + (m,))

        walk(0, x, ())
        return out

    def extensions(self, directions, row, objects, nonidentity):
        """All (interior verticals, next row) pairs below ``row``, whose
        objects are ``objects``, whose next row has no identity entry in
        the columns of the bitmask ``nonidentity`` (0: every pair).  With
        the columns in which every row of a grid is an identity, the next
        rows are exactly those that make the taller grid reduced
        (:func:`_identity_mask`)."""
        width = len(directions)
        if width == 0:
            yield (), ()
            return
        post, right, right_weq = self.post, self.right, self.right_weq
        identities = self.identities
        id_end = self.identity[objects[width]]

        def rec(col, vprev, vacc, racc):
            if col == width:
                yield vacc, racc
                return
            if col + 1 == width:
                candidates = (id_end,)
            else:
                candidates = self.weq_from[objects[col + 1]]
            h = row[col]
            forward = directions[col] == "f"
            for vnext in candidates:
                if forward:
                    sols = right[vprev].get(post[vnext].get(h), ())
                else:
                    sols = right_weq[vnext].get(post[vprev].get(h), ())
                if nonidentity >> col & 1:
                    sols = [s for s in sols if s not in identities]
                if not sols:
                    continue
                vacc2 = vacc if col + 1 == width else vacc + (vnext,)
                for h2 in sols:
                    yield from rec(col + 1, vnext, vacc2, racc + (h2,))

        yield from rec(0, self.identity[objects[0]], (), ())


def _alternating(width, start):
    return tuple(("f" if (start + i) % 2 == 0 else "b") for i in range(width))


def _patterns(w_max):
    pats = [()]
    for w in range(1, w_max + 1):
        pats.append(_alternating(w, 0))
        pats.append(_alternating(w, 1))
    return pats


@dataclass
class MappingSpace:
    """Reduced hammocks from x to y as a truncated simplicial set.

    ``verdict`` is "stable" when the components at width bound w_max are
    those a run at w_max-1 finds, else (or after pruning in "full" mode)
    "bound_limited".  "pi0" detail keeps only vertices and partition; it
    joins them along generator grids (see :func:`_pi0_edges`), while
    "full" detail joins them along its kept 1-simplices.

    ``grids`` counts the joins handed to the union-find: the kept
    1-simplices in "full" detail; in "pi0" detail, the distinct vertices
    each live row is joined to, summed over the rows.
    ``fallback_rows`` ("pi0" detail only) counts the live rows with a
    dead generator neighbour, from which the fallback walked on.
    ``face_normal_forms`` ("full" detail only) counts the distinct
    dropped grids the faces reduced.  All three are deterministic counts
    for progress output, never report bytes.
    """

    x: str
    y: str
    truncation: int
    w_max: int
    verdict: str
    vertices: tuple
    partition: Partition
    sset: TruncatedSimplicialSet | None
    by_name: dict = field(repr=False)
    grids: int = 0
    fallback_rows: int | None = None
    face_normal_forms: int | None = None

    @property
    def stable(self):
        return self.verdict == "stable"


def _stability(partition, sub):
    """"stable" when each class of ``partition`` holds exactly one class of
    ``sub``, an earlier snapshot of the same union-find.  Unions only
    merge, so that is: as many classes, and each one meets ``sub``."""
    same = len(partition.classes) == len(sub.classes) and all(
        not cls.isdisjoint(sub.class_of) for cls in partition.classes)
    return "stable" if same else "bound_limited"


def _check_bounds(truncation, w_max, detail):
    if truncation < 1:
        raise InputError("truncation must be >= 1")
    if w_max < 1:
        raise InputError("width bound must be >= 1")
    if detail not in ("full", "pi0"):
        raise InputError("detail must be full or pi0")


def mapping_space(r: RelativeCategory, x, y, truncation: int, w_max: int,
                  detail: str = "full") -> MappingSpace:
    """Exhaustive reduced-hammock enumeration with bound accounting."""
    _check_bounds(truncation, w_max, detail)
    ctx = _Context(r)
    return _mapping_space(ctx, x, y, truncation, w_max, detail)


def _mapping_space(ctx: _Context, x, y, truncation, w_max, detail) -> MappingSpace:
    if detail == "pi0":
        return _pi0_mapping_space(ctx, x, y, truncation, w_max)
    identities = ctx.identities
    # the enumerated grids of morphism numbers, by height
    simplices = [[] for _ in range(truncation + 1)]
    for pattern in _patterns(w_max):
        width = len(pattern)
        if width == 0 and x != y:
            continue
        rows0 = ctx.paths(x, y, pattern)
        for row in rows0:
            # no identity entry along an alternating pattern: reduced
            if identities.isdisjoint(row):
                simplices[0].append((pattern, (row,), ()))
        for row in rows0:
            _grow(ctx, x, y, pattern, (row,), ctx.row_objects(x, pattern, row), (),
                  _identity_mask(identities, row), truncation, simplices)

    morphisms = ctx.cat.morphisms
    # Keep only simplices all of whose iterated faces are representable:
    # over a partially represented ambient category a face can need a
    # composite outside the width bound, and such simplices cannot be
    # carried in the truncated data.  ``kept[k]`` maps a grid to its
    # Hammock; ``memo`` maps a dropped grid to its normal form, or False
    # when that needs a missing composite, seeded with the vertices.
    kept = [{grid: _hammock(morphisms, x, y, grid) for grid in simplices[0]}]
    memo = {grid: grid for grid in simplices[0]}
    face_cache = {}
    pruned = False
    for k in range(1, truncation + 1):
        below, level_kept = kept[k - 1], {}
        for grid in simplices[k]:
            try:
                images = [_face(ctx, grid, i, memo) for i in range(k + 1)]
            except CompositionUnavailable:
                pruned = True
                continue
            if all(img in below for img in images):
                h = level_kept[grid] = _hammock(morphisms, x, y, grid)
                for i, img in enumerate(images):
                    face_cache[(k, h.name, i)] = below[img].name
            else:
                pruned = True
        kept.append(level_kept)

    levels = [tuple(h.name for h in sorted(level.values(), key=lambda h: (h.width, h.name)))
              for level in kept]
    degeneracies = {}
    for k in range(truncation):
        for grid, h in kept[k].items():
            for i in range(k + 1):
                img = kept[k + 1].get(_degeneracy(ctx, x, grid, i))
                if img is None:
                    raise ConsistencyError("degeneracy left the kept set")
                degeneracies[(k, h.name, i)] = img.name
    sset = TruncatedSimplicialSet(truncation, levels, face_cache, degeneracies)
    by_name = {h.name: h for level in kept for h in level.values()}
    vertices = tuple(by_name[name] for name in levels[0])

    # levels[1] is sorted by width: the snapshot before the first edge of
    # width w_max is the partition one width bound lower
    components = UnionFind(levels[0])
    sub = None
    sub_names = [h.name for h in vertices if h.width < w_max]
    for s in levels[1]:
        if sub is None and by_name[s].width == w_max:
            sub = Partition.of(components, sub_names)
        components.union(face_cache[(1, s, 1)], face_cache[(1, s, 0)])
    if sub is None:
        sub = Partition.of(components, sub_names)
    partition = Partition.of(components, levels[0])
    verdict = "bound_limited" if pruned else _stability(partition, sub)
    return MappingSpace(x, y, truncation, w_max, verdict, vertices, partition, sset,
                        by_name, len(levels[1]),
                        face_normal_forms=len(memo) - len(simplices[0]))


def _identity_mask(identities, row):
    """Bit ``col`` is set when ``row[col]`` is an identity.  A grid along
    an alternating pattern is reduced exactly when the masks of its rows
    have no bit in common."""
    mask = 0
    for col, m in enumerate(row):
        if m in identities:
            mask |= 1 << col
    return mask


def _pi0_mapping_space(ctx: _Context, x, y, truncation, w_max) -> MappingSpace:
    """Vertices and partition, joined along generator grids (:func:`_pi0_edges`)
    by a union-find over vertex numbers; vertices are named at the end."""
    found = []  # vertex number -> (pattern, row)
    components = UnionFind()
    row_numbers = {}  # pattern -> row -> vertex number of its normal form, -1 if dead
    sub = None
    grids = fallback_rows = 0
    for pattern in _patterns(w_max):
        width = len(pattern)
        if width == 0 and x != y:
            continue
        if width == w_max and sub is None:
            # every narrower edge is in: the partition of a run at w_max-1
            sub = Partition.of(components, range(len(found)))
        rows0 = ctx.paths(x, y, pattern)
        numbers = row_numbers[pattern] = {}
        for row in rows0:
            # no identity entry along an alternating pattern: reduced
            if ctx.identities.isdisjoint(row):
                numbers[row] = len(found)
                components.add(len(found))
                found.append((pattern, row))
        for upper, lowers, fallback in _pi0_edges(ctx, pattern, rows0, row_numbers):
            grids += len(lowers)
            fallback_rows += fallback
            components.union_all(upper, lowers)

    name = ctx.cat.morphisms.__getitem__
    hammocks = [Hammock(x, y if pattern else x, pattern, (tuple(map(name, row)),), ())
                for pattern, row in found]
    order = sorted(range(len(found)), key=lambda n: (hammocks[n].width, hammocks[n].name))
    partition = Partition.of(components, order)
    vertices = tuple(hammocks[n] for n in order)
    return MappingSpace(x, y, truncation, w_max, _stability(partition, sub), vertices,
                        partition.renamed([h.name for h in hammocks]), None,
                        {h.name: h for h in vertices}, grids, fallback_rows)


def _pi0_edges(ctx: _Context, pattern, rows0, row_numbers):
    """For each live row of ``rows0`` (one whose normal form the table can
    name): its vertex number, the numbers of the live rows it is joined
    to along ``pattern``, and whether it took the fallback.
    ``row_numbers[p][row]`` is the vertex number of a row's normal form
    along pattern ``p``, or -1 for a dead row.

    Only the partition is needed, and a generating set of two-row grids
    gives it (Dwyer-Kan): the grids with one non-identity vertical ``v``,
    a weak equivalence out of an interior vertex ``X_i``.  At a sink
    (``-> X_i <-``) the lower entries are ``v.h[i-1]`` and ``v.h[i]`` (a
    weak equivalence: the weak equivalences are closed under the
    composites the table has); at a source (``<- X_i ->``) they are right
    factors through ``v`` of ``h[i-1]`` (a weak equivalence) and ``h[i]``.

    Every grid factors into generator grids: apply its sink verticals one
    at a time, then its source verticals.  Each column has one sink end
    and one source end, so the steps touch disjoint columns, and the grid
    looks up every entry of the intermediate rows, so those rows exist
    even over a partially represented table.  Conversely, a chain of
    generator steps at distinct vertices, sinks before sources, composes
    into one grid (the table has every composite with an identity, which
    the other verticals of that grid need).  An intermediate row can still be *dead*: its normal
    form needs a composite the table lacks, so it is no vertex.  The
    fallback is at dead rows: from a live row, chains are followed
    through dead rows, and the row is joined to the first live row on
    each.  The live rows along any grid's chain are then joined in turn,
    and every join is a grid, so the components, pattern by pattern, are
    those of all grids, and so is the snapshot one width lower."""
    width = len(pattern)
    if not width:
        return
    post, right, right_weq = ctx.post, ctx.right, ctx.right_weq
    sink_moves, source_moves = ctx.sink_moves, ctx.source_moves
    identities = ctx.identities
    numbers = row_numbers[pattern]

    def number_of(row):
        number = numbers.get(row)
        if number is None:
            reduced = _normal_form(post, identities, pattern, (row,), ())
            number = -1 if reduced is None else row_numbers[reduced[0]][reduced[1][0]]
            numbers[row] = number
        return number

    interior = tuple(range(1, width))
    for row in rows0:
        upper = number_of(row)
        if upper < 0:
            continue
        # chains of generator steps from ``row``, each vertex used once
        # and no sink after a source, followed through dead rows only
        lowers, seen = set(), set()
        chains = [(row, interior)]
        while chains:
            at, free = chains.pop()
            for i in free:
                left, right_entry = at[i - 1], at[i]
                head, tail = at[:i - 1], at[i + 1:]
                sink = pattern[i - 1] == "f"
                if sink:
                    lows = []
                    for v in sink_moves[left]:
                        a, b = post[v].get(left), post[v].get(right_entry)
                        if a is not None and b is not None:
                            lows.append(head + (a, b) + tail)
                else:
                    lows = [head + (a, b) + tail for v in source_moves[left]
                            for a in right_weq[v].get(left, ())
                            for b in right[v].get(right_entry, ())]
                rest = None
                for row2 in lows:
                    number = numbers.get(row2)
                    if number is None:
                        number = number_of(row2)
                    if number >= 0:
                        lowers.add(number)
                        continue
                    if rest is None:
                        rest = tuple(j for j in free
                                     if j != i and (sink or pattern[j - 1] == "b"))
                    if (row2, rest) not in seen:
                        seen.add((row2, rest))
                        chains.append((row2, rest))
        yield upper, lowers, bool(seen)


def _grow(ctx, x, y, pattern, rows, objects, layers, common, truncation, simplices):
    """Extend the grid of morphism numbers one row at a time, appending
    its reduced simplices to ``simplices`` by height.

    ``objects`` are those of the last row (:meth:`_Context.row_objects`),
    and ``common`` is the AND of the rows' identity masks
    (:func:`_identity_mask`), so the grid is reduced when it is 0; each new
    row's mask is computed once.  A grid unreduced at height h can become
    reduced at h+1, so a row that is not the last is extended unfiltered.
    The last row (height ``truncation``) is built only where the grid is
    then reduced: the columns of ``common`` must get non-identity entries,
    which is the mask :meth:`_Context.extensions` takes."""
    height = len(rows) - 1
    if height + 1 == truncation:
        last = simplices[truncation]
        for vacc, row2 in ctx.extensions(pattern, rows[-1], objects, common):
            last.append((pattern, rows + (row2,), layers + (vacc,)))
        return
    cod = ctx.cod
    for vacc, row2 in ctx.extensions(pattern, rows[-1], objects, 0):
        common2 = common & _identity_mask(ctx.identities, row2)
        rows2, layers2 = rows + (row2,), layers + (vacc,)
        if not common2:
            simplices[height + 1].append((pattern, rows2, layers2))
        # the objects of the next row: the codomains of the verticals
        objects2 = (x,) + tuple(cod[v] for v in vacc) + (y,) if pattern else (x,)
        _grow(ctx, x, y, pattern, rows2, objects2, layers2, common2, truncation, simplices)


def _face(ctx, grid, i, memo):
    """The i-th face of a grid of morphism numbers: drop row i, compose
    the two vertical layers at it, and reduce.  Each distinct dropped grid
    is reduced once: ``memo`` keeps its normal form, or False when that
    needs a missing composite, which raises CompositionUnavailable each
    time, as does a missing composite of verticals."""
    directions, rows, layers = grid
    k = len(rows) - 1
    rows = rows[:i] + rows[i + 1:]
    if i == 0:
        layers = layers[1:]
    elif i == k:
        layers = layers[:-1]
    else:
        post = ctx.post
        fused = tuple(post[b].get(a) for a, b in zip(layers[i - 1], layers[i]))
        if None in fused:
            raise CompositionUnavailable("face needs a composite the table lacks")
        layers = layers[:i - 1] + (fused,) + layers[i + 1:]
    key = (directions, rows, layers)
    reduced = memo.get(key)
    if reduced is None:
        reduced = memo[key] = _normal_form(ctx.post, ctx.identities, *key) or False
    if reduced is False:
        raise CompositionUnavailable("face needs a composite the table lacks")
    return reduced


def _degeneracy(ctx, x, grid, i):
    """The i-th degeneracy of a grid of morphism numbers from ``x``: repeat
    row i with an identity layer.  Its rows are those of the grid, so it is
    reduced when the grid is."""
    directions, rows, layers = grid
    objects = ctx.row_objects(x, directions, rows[i])
    identity_layer = tuple(ctx.identity[o] for o in objects[1:-1])
    return (directions, rows[:i + 1] + (rows[i],) + rows[i + 1:],
            layers[:i] + (identity_layer,) + layers[i:])


# --- localization ------------------------------------------------------------


class Localization:
    """Hammock localization data at a fixed truncation and width bound.

    Composition is materialized on demand; a composite wider than the
    bound is not represented.  ``overflows`` counts the component-category
    builds that found no representative composite; ``compose_counts``
    tallies the composite requests (:class:`ComposeCounts`).
    """

    def __init__(self, r: RelativeCategory, truncation, w_max, detail="full",
                 pair_filter=None, progress=None):
        _check_bounds(truncation, w_max, detail)
        self.relcat = r
        self.truncation = truncation
        self.w_max = w_max
        self.detail = detail
        self.context = _Context(r)
        if pair_filter is not None:
            unknown = sorted({name for pair in pair_filter for name in pair} - set(r.cat.objects))
            if unknown:
                raise InputError(f"pair filter names an unknown object: {unknown[0]}")
        self.pairs = {}
        for x in r.cat.objects:
            for y in r.cat.objects:
                if pair_filter is not None and (x, y) not in pair_filter:
                    continue
                self.pairs[(x, y)] = _mapping_space(
                    self.context, x, y, truncation, w_max, detail
                )
                if progress is not None:
                    progress(x, y, self.pairs[(x, y)])
        self.overflows = 0
        self.compose_counts = ComposeCounts()
        self._scat = None

    @property
    def verdict(self):
        return "stable" if all(p.stable for p in self.pairs.values()) else "bound_limited"

    def pair(self, x, y) -> MappingSpace:
        return self.pairs[(x, y)]

    def bounds_json(self):
        return {
            "truncation": self.truncation,
            "width": self.w_max,
            "verdict": self.verdict,
            "overflows": self.overflows,
        }

    def composite(self, x, y, z, level, g_name, f_name):
        """Name of the composite simplex, or None on width overflow (a
        simplex name carries its level)."""
        return bounded_composite(self.relcat, self.pairs[(y, z)].by_name[g_name],
                                 self.pairs[(x, y)].by_name[f_name], self.w_max,
                                 self.pairs[(x, z)].by_name, self.compose_counts)

    def scat(self) -> scat_mod.TruncatedSimplicialCategory:
        if self.detail != "full":
            raise InputError("simplicial category needs detail='full'")
        if self._scat is None:
            identities = {
                x: width_zero(x).name for x in self.relcat.cat.objects
            }
            self._scat = scat_mod.TruncatedSimplicialCategory(
                self.relcat.cat.objects, self.truncation,
                {pair: ms.sset for pair, ms in self.pairs.items()},
                identities, composer=self.composite,
            )
        return self._scat

    def to_json(self, include_compose=True):
        """Simplicial-category JSON plus the bounds block.  Composites the
        width bound cannot represent are omitted from the table, and the
        bounds block counts them."""
        if self.detail != "full":
            raise InputError("serialization needs detail='full'")
        objects = [x for x in self.relcat.cat.objects]
        data = {
            "objects": objects,
            "truncation": self.truncation,
            "homs": {},
            "identities": {x: width_zero(x).name for x in objects
                           if (x, x) in self.pairs},
        }
        for (x, y), ms in sorted(self.pairs.items()):
            data["homs"][f"{x}|{y}"] = ms.sset.to_json()
            data["homs"][f"{x}|{y}"]["verdict"] = ms.verdict
        omitted = 0
        if include_compose:
            compose = {}
            for x, y, z in itertools.product(objects, repeat=3):
                if (x, y) not in self.pairs or (y, z) not in self.pairs \
                        or (x, z) not in self.pairs:
                    continue
                for level in range(self.truncation + 1):
                    for g in self.pairs[(y, z)].sset.level(level):
                        for f in self.pairs[(x, y)].sset.level(level):
                            h = self.composite(x, y, z, level, g, f)
                            if h is None:
                                omitted += 1
                                continue
                            compose.setdefault(f"{x}|{y}|{z}", {}).setdefault(
                                str(level), []
                            ).append([g, f, h])
            data["compose"] = compose
        data["bounds"] = dict(self.bounds_json(), overflows=omitted)
        return data


def hammock_localization(r: RelativeCategory, truncation: int, w_max: int,
                         detail: str = "full", pair_filter=None, progress=None) -> Localization:
    return Localization(r, truncation, w_max, detail, pair_filter, progress)


def staged(progress, stage):
    """The per-pair callback ``progress(x, y, ms, stage)`` with its pairs
    tagged by ``stage`` (after any tag of an inner stage); None stays None."""
    if progress is None:
        return None
    return lambda x, y, ms, inner=None: progress(
        x, y, ms, stage if inner is None else f"{stage} {inner}")


def homotopy_category_of_localization(loc: Localization, wellcheck_cap: int = 6):
    """Category of components of a localization (see
    :func:`scat.component_category`); class composites come from
    representatives whose composite stays inside the width bound."""
    try:
        return scat_mod.component_category(
            loc.relcat.cat.objects,
            {pair: ms.partition for pair, ms in loc.pairs.items()},
            {pair: [h.name for h in ms.vertices] for pair, ms in loc.pairs.items()},
            {x: width_zero(x).name for x in loc.relcat.cat.objects},
            lambda x, y, z, g, f: loc.composite(x, y, z, 0, g, f), wellcheck_cap,
        )
    except CompositionUnavailable:
        loc.overflows += 1
        raise


# --- localization of relative simplicial categories -------------------------


def _map_hammock(morphism_map, h: Hammock):
    """The entrywise image of ``h`` as a plain ``(directions, rows,
    layers)`` grid, not reduced."""
    rows = tuple(tuple(morphism_map[m] for m in row) for row in h.rows)
    verticals = tuple(tuple(morphism_map[v] for v in layer) for layer in h.verticals)
    return h.directions, rows, verticals


@dataclass
class DiagonalCounts:
    """Work of one diagonal hom of a :class:`RelscatLocalization`: the
    entrywise images taken, under every outer face and degeneracy, and
    the distinct face images reduced.  Deterministic counts for progress
    output, never report bytes."""

    images: int
    normal_forms: int


class RelscatLocalization:
    """Dimensionwise hammock localization of (ambient, sub): one
    :class:`Localization` per level n of the ambient (``levels``, over
    the level categories ``level_rel``), and hom by hom their diagonal
    (Dwyer-Kan).  Level n of ``diag_homs[(x, y)]`` is inner level n of
    the level-n localization.  A face or degeneracy of a diagonal simplex
    maps its one hammock through the outer level map, then takes the
    inner face or degeneracy; the off-diagonal entries are never mapped.
    An outer degeneracy is injective and sends identities to identities,
    so the image of a reduced hammock is reduced and is named as it is;
    the image under an outer face is reduced first, once per distinct
    image grid.  ``row_spaces[(x, y, n)]`` is the mapping space of the
    level-n localization.  ``progress`` gets each pair of each level,
    tagged ``level n``, then the :class:`DiagonalCounts` of each diagonal
    hom."""

    def __init__(self, rs, truncation, w_max, progress=None):
        ambient = rs.ambient
        if ambient.truncation < truncation:
            raise InputError("ambient truncation too small")
        self.rs = rs
        self.truncation = truncation

        self.level_rel = []
        for n in range(truncation + 1):
            level_cat = scat_mod.level_category(ambient, n)
            weq = set()
            for x in ambient.objects:
                for y in ambient.objects:
                    for s in rs.sub[(x, y)][n]:
                        weq.add(scat_mod.level_morphism_name(x, y, s))
            self.level_rel.append(RelativeCategory(level_cat, weq))
        self.levels = [Localization(rel, truncation, w_max,
                                    progress=staged(progress, f"level {n}"))
                       for n, rel in enumerate(self.level_rel)]
        self.row_spaces = {(x, y, n): ms for n, loc in enumerate(self.levels)
                           for (x, y), ms in loc.pairs.items()}

        # face and degeneracy maps, once each: a face sends level-morphism
        # names to the numbers of the level below, where its images are
        # reduced; a degeneracy's images are reduced, so it keeps names
        outer = {}
        for n in range(1, truncation + 1):
            index = self.level_rel[n - 1].cat.mor_index
            for i in range(n + 1):
                outer[(n, "d", i)] = {a: index[b] for a, b
                                      in scat_mod.level_map(ambient, n, "d", i).items()}
        outer.update({(n, "s", i): scat_mod.level_map(ambient, n, "s", i)
                      for n in range(truncation) for i in range(n + 1)})
        self.diag_homs = {}
        for x in ambient.objects:
            for y in ambient.objects:
                self.diag_homs[(x, y)], counts = self._diagonal(x, y, outer)
                if progress is not None:
                    progress(x, y, counts)
        self._scat = None

    def _diagonal(self, x, y, outer):
        """The diagonal hom from x to y and its :class:`DiagonalCounts`."""
        spaces = [self.row_spaces[(x, y, n)] for n in range(self.truncation + 1)]
        levels = [ms.sset.level(n) for n, ms in enumerate(spaces)]
        faces, degeneracies = {}, {}
        reduced = {}  # (target level, image grid) -> name of its normal form
        images = 0
        for (n, kind, i), image_of in outer.items():
            m = n - 1 if kind == "d" else n + 1
            ctx, target = self.levels[m].context, spaces[m]
            morphisms = ctx.cat.morphisms
            for name in levels[n]:
                grid = _map_hammock(image_of, spaces[n].by_name[name])
                images += 1
                if kind == "s":
                    image = hammock_name(*grid)
                else:
                    image = reduced.get((m, grid))
                    if image is None:
                        directions, rows, layers = _reduce(ctx, grid)
                        image = reduced[(m, grid)] = hammock_name(
                            directions, _named(morphisms, rows), _named(morphisms, layers))
                if image not in target.by_name:
                    raise ConsistencyError("entrywise image missing from enumeration")
                if kind == "d":
                    faces[(n, name, i)] = target.sset.face(n, i, image)
                else:
                    degeneracies[(n, name, i)] = target.sset.degeneracy(n, i, image)
        sset = TruncatedSimplicialSet(self.truncation, levels, faces, degeneracies)
        return sset, DiagonalCounts(images, len(reduced))

    @property
    def verdict(self):
        return ("stable"
                if all(loc.verdict == "stable" for loc in self.levels)
                else "bound_limited")

    def composite(self, x, y, z, level, g_name, f_name):
        """Name of the composite simplex, or None on width overflow."""
        return self.levels[level].composite(x, y, z, level, g_name, f_name)

    def scat(self) -> scat_mod.TruncatedSimplicialCategory:
        if self._scat is None:
            identities = {x: width_zero(x).name for x in self.rs.ambient.objects}
            self._scat = scat_mod.TruncatedSimplicialCategory(
                self.rs.ambient.objects, self.truncation, self.diag_homs,
                identities, composer=self.composite,
            )
        return self._scat


def hammock_localization_relscat(rs, truncation: int, w_max: int,
                                 progress=None) -> RelscatLocalization:
    return RelscatLocalization(rs, truncation, w_max, progress)


def embed_relscat(rs, rsloc: RelscatLocalization) -> scat_mod.SimplicialFunctor:
    """The natural comparison map into the dimensionwise localization."""
    ambient = rs.ambient
    smap = {}
    for x in ambient.objects:
        for y in ambient.objects:
            sset = ambient.homs[(x, y)]
            for level in range(rsloc.truncation + 1):
                rel = rsloc.level_rel[level]
                for s in sset.level(level):
                    name = scat_mod.level_morphism_name(x, y, s)
                    smap[(x, y, level, s)] = embed_morphism(rel, name, level).name
    return scat_mod.SimplicialFunctor(
        ambient, rsloc.scat(), {x: x for x in ambient.objects}, smap
    )
