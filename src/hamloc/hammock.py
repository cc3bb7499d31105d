"""Hammocks and width-bounded hammock localization.

A hammock is a commuting grid between two shared end objects: columns
are direction-homogeneous zigzag steps (backward steps and all vertical
maps are weak equivalences), rows are zigzag paths, and every square
and end triangle commutes.  Reduced hammocks (no all-identity column,
adjacent columns alternate) are the canonical forms; the k-simplices of
a mapping space are the reduced hammocks of height k.

Past the boundary everything runs on morphism numbers
(``FiniteCategory.mor_index``, with the category's numbered table
``post`` and ``identity_numbers``), and a simplex is a plain
``(directions, rows, layers)`` grid of numbers from enumeration through
composition and the dimensionwise diagonal; one :class:`_Context` per
relative category adds the tables enumeration needs.  One routine,
:func:`_normal_form`, reduces grids (Dwyer-Kan: delete all-identity
columns, merge equal-direction neighbours): a vertex row in ``pi0``
detail, a face in ``full`` detail, an outer face image of the
dimensionwise localization and :func:`reduce_hammock`, each distinct
grid once per mapping space or diagonal hom.  A simplex is named
(:func:`hammock_name`) once, when it is kept, by a namer that joins the
kept texts of its rows (:func:`_namer`).  Each level of a full-detail
mapping space is sorted by (width, name) as soon as it is kept and is
numbered in that order: the level above takes its faces as numbers, the
simplicial set holds number tables, and the :class:`MappingSpace` keeps
its grids in the same order.  The diagonal takes its tables from those
of the level localizations, and a composite is looked up by grid and
returned as a number.  Composition reduces only at the junction of two
reduced grids (the cascade of
:func:`_junction`), and an entrywise degeneracy map keeps a grid
reduced, so neither takes the normal form.  Only the boundary functions
(:func:`reduce_hammock`, :func:`compose_hammocks`,
:func:`embed_morphism`, :func:`width_zero`) make :class:`Hammock`
objects, whose entries are names.  Along an alternating pattern a grid
is reduced exactly when the identity bitmasks of its rows
(:func:`_identity_mask`) share no bit, so the full-detail enumeration
builds a grid's last row only with non-identity entries in the columns
its other rows leave as identities; the rows below a row are built
column by column from the context's table of column steps, each step
computed once (:meth:`_Context.extensions`).  The context and the namer
are freed with the localization or mapping space that made them, by
reference counting: the package builds no reference cycles around them.

Width is the one genuine approximation: enumeration is exhaustive up to
``w_max`` columns, faces and reduction only shrink width, and every
result carries a stabilization verdict: one union-find, grown in order
of width, has the same components at w_max-1 as at w_max.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial

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


def _mapped(image, rows):
    """``rows`` with each entry m replaced by ``image[m]``."""
    image = image.__getitem__
    return tuple(tuple(map(image, row)) for row in rows)


def _grid(cat: FiniteCategory, h: Hammock):
    """The grid of morphism numbers of ``h``."""
    return h.directions, _mapped(cat.mor_index, h.rows), _mapped(cat.mor_index, h.verticals)


def _tuple_text(parts):
    """``repr`` of a tuple whose entries have the reprs ``parts``."""
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _namer(morphisms):
    """The function that gives a grid of morphism numbers its simplex name,
    :func:`hammock_name` of the grid's entries in ``morphisms``.  It keeps
    the repr of each morphism and the text of each pattern, row and
    vertical layer it has seen, so a name is joined from kept texts."""
    # patterns (tuples of "f"/"b") and rows (tuples of numbers) share
    # ``texts``: the one key they can share, (), has the text "()" in both
    reprs, texts = {}, {}

    def text(numbers):
        parts = []
        for m in numbers:
            r = reprs.get(m)
            if r is None:
                r = reprs[m] = repr(morphisms[m])
            parts.append(r)
        texts[numbers] = t = _tuple_text(parts)
        return t

    def name(grid):
        directions, rows, layers = grid
        pattern = texts.get(directions)
        if pattern is None:
            pattern = texts[directions] = repr(directions)
        rows = [texts.get(row) or text(row) for row in rows]
        layers = [texts.get(layer) or text(layer) for layer in layers]
        return f"({pattern}, {_tuple_text(rows)}, {_tuple_text(layers)})"

    return name


def _hammock(morphisms, x, y, grid) -> Hammock:
    """The :class:`Hammock` from x to y of a grid of morphism numbers."""
    directions, rows, layers = grid
    return Hammock(x, y if directions else x, directions, _mapped(morphisms, rows),
                   _mapped(morphisms, layers))


# the name of width_zero(x), the same for every object x, and its number
# in hom(x, x): the one vertex of width 0 sorts first
_IDENTITY_NAME = hammock_name((), ((),), ())
_IDENTITY_NUMBER = 0


def _reduce(cat: FiniteCategory, grid):
    """:func:`_normal_form` of a grid of morphism numbers of ``cat``;
    CompositionUnavailable when a merge needs a missing composite."""
    reduced = _normal_form(cat.post, cat.identity_numbers, *grid)
    if reduced is None:
        raise CompositionUnavailable("reduction needs a composite the table lacks")
    return reduced


def reduce_hammock(r: RelativeCategory, h: Hammock) -> Hammock:
    """The normal form of ``h`` (see :func:`_normal_form`), numbered and
    named again at this boundary."""
    return _hammock(r.cat.morphisms, h.source, h.sink, _reduce(r.cat, _grid(r.cat, h)))


def _junction(cat: FiniteCategory, g, f, w_max=None):
    """The normal form of grid ``f`` then grid ``g`` (reduced, of positive
    width, numbered in ``cat``), or None when it is wider than ``w_max``.

    Two reduced grids can reduce only at their junction.  When the
    junction columns differ in direction nothing reduces.  Otherwise they
    merge; the merged column's neighbours both point the other way, so the
    only further move is to delete it when it is all identities, which
    brings the next pair of columns together.  This cascade is the one
    move sequence :func:`_normal_form` makes on the concatenated grid,
    with the same checks on verticals; a missing composite raises
    CompositionUnavailable.  The width is known before any row is built."""
    d1, rows1, layers1 = f
    d2, rows2, layers2 = g
    w1, w2 = len(d1), len(d2)
    if d1[-1] != d2[0]:
        if w_max is not None and w1 + w2 > w_max:
            return None
        # the identity of the object where the rows of f end
        last = cat.morphisms[rows1[0][-1]]
        sink = cat.cod[last] if d1[-1] == "f" else cat.dom[last]
        junction = (cat.mor_index[cat.identity[sink]],)
        return (d1 + d2, tuple(a + b for a, b in zip(rows1, rows2)),
                tuple(a + junction + b for a, b in zip(layers1, layers2)))
    post, identities = cat.post, cat.identity_numbers
    forward = d2[0] == "f"
    left, right = w1 - 1, 0  # the columns f[left] and g[right] merge
    while True:
        if forward:
            merged = tuple(post[b[right]].get(a[left]) for a, b in zip(rows1, rows2))
        else:
            merged = tuple(post[a[left]].get(b[right]) for a, b in zip(rows1, rows2))
        if None in merged:
            raise CompositionUnavailable("junction needs a composite the table lacks")
        if not identities.issuperset(merged):
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
        if not identities.issuperset(ends):
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
    """Widthwise concatenation (h1 then h2), reduced at the junction;
    numbered and named again at this boundary."""
    if h1.sink != h2.source:
        raise InputError(f"hammocks not composable: {h1.sink} vs {h2.source}")
    if h1.height != h2.height:
        raise InputError("hammocks must have equal heights")
    if h1.width == 0 or h2.width == 0:
        return h2 if h1.width == 0 else h1
    c = r.cat
    return _hammock(c.morphisms, h1.source, h2.sink, _junction(c, _grid(c, h2), _grid(c, h1)))


@dataclass
class ComposeCounts:
    """Composite requests by outcome: a representable composite, an
    overflow known from the junction directions alone (width ``w1 + w2``
    over the bound), an overflow the junction cascade found (too wide,
    or a composite the table lacks), or a reduced grid within the bound
    that the target space pruned (one of its faces needs a composite the
    table lacks).  Deterministic counts for progress output, never report
    bytes."""

    composites: int = 0
    junction_overflows: int = 0
    cascade_overflows: int = 0
    pruned_overflows: int = 0

    @property
    def requests(self):
        return (self.composites + self.junction_overflows + self.cascade_overflows
                + self.pruned_overflows)


def bounded_composite(r: RelativeCategory, g, f, w_max, enumerated, counts: ComposeCounts,
                      pruned=False):
    """The reduced composite of grid ``g`` after grid ``f`` (reduced,
    composable, of one height, each at most ``w_max`` wide) as the value
    ``enumerated`` (the target's map from its grids) holds for it, or None
    when it needs a composite ``r`` lacks or is wider than ``w_max``;
    ``counts`` tallies the outcome.  A result missing from ``enumerated``
    is an overflow when the target ``pruned`` simplices, else it is
    inconsistent."""
    if not f[0] or not g[0]:
        grid = g if not f[0] else f
    else:
        try:
            grid = _junction(r.cat, g, f, w_max)
        except CompositionUnavailable:
            grid = None
        if grid is None:
            if f[0][-1] != g[0][0]:
                counts.junction_overflows += 1
            else:
                counts.cascade_overflows += 1
            return None
    value = enumerated.get(grid)
    if value is None:
        if not pruned:
            raise ConsistencyError("composite missing from enumeration")
        counts.pruned_overflows += 1
        return None
    counts.composites += 1
    return value


def embed_morphism(r: RelativeCategory, m, height: int = 0) -> Hammock:
    """The width-<=1 forward hammock on a morphism, degenerately tall."""
    if r.cat.is_identity(m):
        return width_zero(r.cat.dom[m], height)
    return Hammock(r.cat.dom[m], r.cat.cod[m], ("f",), ((m,),) * (height + 1), ((),) * height)


# --- enumeration -------------------------------------------------------------


class _Context:
    """Per-relative-category lookup tables for hammock enumeration, on
    morphism numbers; objects keep their names.  ``post`` and
    ``identities`` are the category's ``post`` and ``identity_numbers``;
    ``right[f][h]`` lists the g with g after f equal to h, ``right_weq[f][h]``
    the weak equivalences among them; ``dom``/``cod`` are indexed by
    number, ``identity[x]`` is the number of x's identity; ``from_any``,
    ``weq_into`` and ``weq_from`` list an object's morphisms out, weak
    equivalences in and weak equivalences out; and ``sink_moves[m]`` /
    ``source_moves[m]`` are the non-identity weak equivalences out of the
    codomain / domain of m.  ``steps`` is the column-step table of
    :meth:`extensions`, filled on first use: ``(forward, vprev, h, last,
    nonidentity)`` (the column's direction, the vertical before it, its
    entry, whether it is the last column, and whether its next entry must
    not be an identity) maps to the ``(vnext, solutions)`` pairs with a
    solution, where ``vnext`` is the vertical after the column (the end
    identity in the last one) and the solutions are its entries below."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        index = c.mor_index
        weq = {index[m] for m in r.weq}
        self.cat = c
        self.post = c.post
        self.identities = c.identity_numbers
        self.dom = [c.dom[m] for m in c.morphisms]
        self.cod = [c.cod[m] for m in c.morphisms]
        self.identity = {x: index[m] for x, m in c.identity.items()}
        self.from_any = {x: tuple(index[m] for m in c.from_object(x)) for x in c.objects}
        self.weq_into = {x: tuple(index[m] for m in c.to_object(x) if index[m] in weq)
                         for x in c.objects}
        self.weq_from = {x: tuple(m for m in self.from_any[x] if m in weq) for x in c.objects}
        self.fwd_adj = {x: {self.cod[m] for m in self.from_any[x]} for x in c.objects}
        self.weq_src_adj = {x: {self.dom[m] for m in self.weq_into[x]} for x in c.objects}
        self.right = [{} for _ in c.morphisms]
        self.right_weq = [{} for _ in c.morphisms]
        for (g, f), h in c.table.items():
            g, f, h = index[g], index[f], index[h]
            self.right[f].setdefault(h, []).append(g)
            if g in weq:
                self.right_weq[f].setdefault(h, []).append(g)
        moves = {x: tuple(m for m in self.weq_from[x] if m not in self.identities)
                 for x in c.objects}
        self.sink_moves = [moves[x] for x in self.cod]
        self.source_moves = [moves[x] for x in self.dom]
        self.steps = {}

    def paths(self, x, y, directions):
        """All rows (identity entries allowed) from x to y along the
        direction pattern, built column by column in the order of a
        depth-first walk."""
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
        # the partial rows after each column, in order: (object, entries);
        # a recursive closure instead would be a reference cycle holding self
        partial = [(x, ())]
        for col in range(width):
            reach = feasible[col + 1]
            if directions[col] == "f":
                partial = [(cod[m], row + (m,)) for at, row in partial
                           for m in self.from_any[at] if cod[m] in reach]
            else:
                partial = [(dom[m], row + (m,)) for at, row in partial
                           for m in self.weq_into[at] if dom[m] in reach]
        return [row for _, row in partial]

    def extensions(self, directions, row, x, nonidentity):
        """All (interior verticals, next row) pairs below ``row``, which
        starts at ``x``, whose next row has no identity entry in the columns
        of the bitmask ``nonidentity`` (0: every pair), in the order of a
        depth-first walk.  With the columns in which every row of a grid is
        an identity, the next rows are exactly those that make the taller
        grid reduced (:func:`_identity_mask`).  The pairs are built column
        by column, each column step looked up in ``steps``."""
        width = len(directions)
        if width == 0:
            return [((), ())]
        steps = self.steps
        # the partial rows after each column, in order: (vertical, verticals, entries)
        partial = [(self.identity[x], (), ())]
        for col in range(width):
            forward, h, bit = directions[col] == "f", row[col], nonidentity >> col & 1
            last = col == width - 1
            grown = []
            for vprev, vacc, racc in partial:
                key = (forward, vprev, h, last, bit)
                options = steps.get(key)
                if options is None:
                    options = self._step(key)
                for vnext, sols in options:
                    # the end identity after the last column is no interior vertical
                    vacc2 = vacc if last else vacc + (vnext,)
                    for h2 in sols:
                        grown.append((vnext, vacc2, racc + (h2,)))
            partial = grown
        return [(vacc, racc) for _, vacc, racc in partial]

    def _step(self, key):
        """The entry of :attr:`steps` at ``key``, computed and kept."""
        forward, vprev, h, last, nonidentity = key
        # the column's next object follows from its entry
        nxt = self.cod[h] if forward else self.dom[h]
        post, identities = self.post, self.identities
        options = []
        for vnext in (self.identity[nxt],) if last else self.weq_from[nxt]:
            if forward:
                sols = self.right[vprev].get(post[vnext].get(h), ())
            else:
                sols = self.right_weq[vnext].get(post[vprev].get(h), ())
            if nonidentity:
                sols = [s for s in sols if s not in identities]
            if sols:
                options.append((vnext, tuple(sols)))
        options = self.steps[key] = tuple(options)
        return options


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

    ``vertices`` are the vertex names in order (by width, then name);
    ``partition`` partitions their positions there.  ``level_grids[k]``
    holds the grids of morphism numbers of level k in the order of
    ``sset.levels[k]``, so a simplex's number indexes both; ``by_grid``
    maps a grid to its number.  "pi0" detail keeps only vertices and
    partition, so its ``level_grids`` cover level 0 only; it joins the
    vertices along generator grids (see :func:`_pi0_edges`), while "full"
    detail joins them along its kept 1-simplices.  ``pruned`` ("full" detail) says
    that a simplex was left out because one of its faces needs a
    composite the table lacks.  ``verdict`` is "stable" when the
    components at width bound w_max are those a run at w_max-1 finds,
    else (or after pruning) "bound_limited".

    ``grids`` counts the joins handed to the union-find: the kept
    1-simplices in "full" detail; in "pi0" detail, the distinct vertices
    each live row is joined to, summed over the rows.
    ``fallback_rows`` ("pi0" detail only) counts the live rows with a
    dead generator neighbour, from which the fallback walked on.
    ``face_normal_forms`` ("full" detail only) counts the distinct
    dropped grids the faces reduced, and ``extension_rows`` ("full" detail
    only) the rows :meth:`_Context.extensions` built below other rows (at
    truncation 1, the two-row grids).  All four are deterministic counts
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
    level_grids: tuple = field(repr=False)
    pruned: bool = False
    grids: int = 0
    fallback_rows: int | None = None
    face_normal_forms: int | None = None
    extension_rows: int | None = None

    @property
    def stable(self):
        return self.verdict == "stable"

    @cached_property
    def by_grid(self):
        return {grid: n for grids in self.level_grids for n, grid in enumerate(grids)}


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
    return _mapping_space(_Context(r), x, y, truncation, w_max, detail)


def _mapping_space(ctx: _Context, x, y, truncation, w_max, detail) -> MappingSpace:
    if detail == "pi0":
        return _pi0_mapping_space(ctx, x, y, truncation, w_max)
    identities = ctx.identities
    # the enumerated grids of morphism numbers, by height
    simplices = [[] for _ in range(truncation + 1)]
    extension_rows = 0
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
            extension_rows += _grow(ctx, x, pattern, (row,), (), _identity_mask(identities, row),
                                    truncation, simplices)

    # Keep only simplices all of whose iterated faces are representable:
    # over a partially represented ambient category a face can need a
    # composite outside the width bound, and such simplices cannot be
    # carried in the truncated data.  Each level is sorted by (width,
    # name) as soon as it is kept, so the level above finds its faces by
    # number in ``below`` (grid -> number); ``memo`` maps a dropped grid
    # to its normal form, or False when that needs a missing composite,
    # seeded with the vertices.
    name_of = _namer(ctx.cat.morphisms)
    memo = {grid: grid for grid in simplices[0]}
    pruned = False
    levels, level_grids, faces, degeneracies = [], [], [()], []
    below = None
    for k in range(truncation + 1):
        kept, images = [], []
        for grid in simplices[k]:
            try:
                numbers = [below.get(_face(ctx, grid, i, memo)) for i in range(k + 1)] if k else ()
            except CompositionUnavailable:
                numbers = (None,)
            if None in numbers:
                pruned = True
            else:
                kept.append(grid)
                images.append(numbers)
        names = [name_of(grid) for grid in kept]
        order = sorted(range(len(kept)), key=lambda n: (len(kept[n][0]), names[n]))
        levels.append(tuple(names[n] for n in order))
        level_grids.append(tuple(kept[n] for n in order))
        below = {grid: n for n, grid in enumerate(level_grids[k])}
        if k:
            faces.append([[images[n][i] for n in order] for i in range(k + 1)])
            degeneracies.append([[below.get(_degeneracy(ctx, grid, i))
                                  for grid in level_grids[k - 1]] for i in range(k)])
            if any(None in column for column in degeneracies[-1]):
                raise ConsistencyError("degeneracy left the kept set")
    sset = TruncatedSimplicialSet(truncation, levels, faces, degeneracies)

    # levels[1] is sorted by width: the snapshot before the first edge of
    # width w_max is the partition one width bound lower
    vertices = range(len(levels[0]))
    components = UnionFind(vertices)
    sub = None
    narrow = [n for n in vertices if len(level_grids[0][n][0]) < w_max]
    for grid, a, b in zip(level_grids[1], faces[1][1], faces[1][0]):
        if sub is None and len(grid[0]) == w_max:
            sub = Partition.of(components, narrow)
        components.union(a, b)
    if sub is None:
        sub = Partition.of(components, narrow)
    partition = Partition.of(components, vertices)
    verdict = "bound_limited" if pruned else _stability(partition, sub)
    return MappingSpace(x, y, truncation, w_max, verdict, levels[0],
                        partition, sset, tuple(level_grids), pruned,
                        len(levels[1]), face_normal_forms=len(memo) - len(simplices[0]),
                        extension_rows=extension_rows)


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
    by a union-find over vertex numbers; vertices are named and sorted at
    the end, and the partition renumbered to match."""
    found = []  # vertex number -> grid
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
                found.append((pattern, (row,), ()))
        for upper, lowers, fallback in _pi0_edges(ctx, pattern, rows0, row_numbers):
            grids += len(lowers)
            fallback_rows += fallback
            components.union_all(upper, lowers)

    name = ctx.cat.morphisms.__getitem__
    names = [hammock_name(pattern, (tuple(map(name, row)),), ()) for pattern, (row,), _ in found]
    order = sorted(range(len(found)), key=lambda n: (len(found[n][0]), names[n]))
    partition = Partition.of(components, order)
    position = {n: p for p, n in enumerate(order)}
    return MappingSpace(x, y, truncation, w_max, _stability(partition, sub),
                        tuple(names[n] for n in order), partition.renamed(position), None,
                        (tuple(found[n] for n in order),), grids=grids,
                        fallback_rows=fallback_rows)


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


def _grow(ctx, x, pattern, rows, layers, common, truncation, simplices):
    """Extend the grid of morphism numbers from ``x`` one row at a time,
    appending its reduced simplices to ``simplices`` by height; the number
    of rows built.

    ``common`` is the AND of the rows' identity masks
    (:func:`_identity_mask`), so the grid is reduced when it is 0; each new
    row's mask is computed once.  A grid unreduced at height h can become
    reduced at h+1, so a row that is not the last is extended unfiltered.
    The last row (height ``truncation``) is built only where the grid is
    then reduced: the columns of ``common`` must get non-identity entries,
    which is the mask :meth:`_Context.extensions` takes."""
    height = len(rows) - 1
    if height + 1 == truncation:
        below = ctx.extensions(pattern, rows[-1], x, common)
        simplices[truncation].extend(
            (pattern, rows + (row2,), layers + (vacc,)) for vacc, row2 in below)
        return len(below)
    below = ctx.extensions(pattern, rows[-1], x, 0)
    built = len(below)
    for vacc, row2 in below:
        common2 = common & _identity_mask(ctx.identities, row2)
        rows2, layers2 = rows + (row2,), layers + (vacc,)
        if not common2:
            simplices[height + 1].append((pattern, rows2, layers2))
        built += _grow(ctx, x, pattern, rows2, layers2, common2, truncation, simplices)
    return built


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


def _degeneracy(ctx, grid, i):
    """The i-th degeneracy of a grid of morphism numbers: repeat row i with
    an identity layer, on the objects its entries end at.  Its rows are
    those of the grid, so it is reduced when the grid is."""
    directions, rows, layers = grid
    identity, dom, cod = ctx.identity, ctx.dom, ctx.cod
    identity_layer = tuple(identity[cod[m] if d == "f" else dom[m]]
                           for d, m in zip(directions[:-1], rows[i]))
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
        ctx = _Context(r)
        if pair_filter is not None:
            unknown = sorted({name for pair in pair_filter for name in pair} - set(r.cat.objects))
            if unknown:
                raise InputError(f"pair filter names an unknown object: {unknown[0]}")
        self.pairs = {}
        for x in r.cat.objects:
            for y in r.cat.objects:
                if pair_filter is not None and (x, y) not in pair_filter:
                    continue
                self.pairs[(x, y)] = _mapping_space(ctx, x, y, truncation, w_max, detail)
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

    def composite(self, x, y, z, level, g, f):
        """The number of the composite of level-``level`` simplices g after
        f (by number), or None on width overflow."""
        return _composite(self.relcat, self.pairs, self.w_max, self.compose_counts,
                          x, y, z, level, g, f)

    def scat(self) -> scat_mod.TruncatedSimplicialCategory:
        if self.detail != "full":
            raise InputError("simplicial category needs detail='full'")
        if self._scat is None:
            # the composer holds the localization's parts, not the
            # localization: a bound method would make the two a reference
            # cycle, and its grids would outlive it until a full collection
            self._scat = scat_mod.TruncatedSimplicialCategory(
                self.relcat.cat.objects, self.truncation,
                {pair: ms.sset for pair, ms in self.pairs.items()},
                dict.fromkeys(self.relcat.cat.objects, _IDENTITY_NUMBER),
                composer=partial(_composite, self.relcat, self.pairs, self.w_max,
                                           self.compose_counts),
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
            "identities": {x: _IDENTITY_NAME for x in objects if (x, x) in self.pairs},
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
                    gs, fs, hs = (self.pairs[pair].sset.levels[level]
                                  for pair in ((y, z), (x, y), (x, z)))
                    for g in range(len(gs)):
                        for f in range(len(fs)):
                            h = self.composite(x, y, z, level, g, f)
                            if h is None:
                                omitted += 1
                                continue
                            compose.setdefault(f"{x}|{y}|{z}", {}).setdefault(
                                str(level), []
                            ).append([gs[g], fs[f], hs[h]])
            data["compose"] = compose
        data["bounds"] = dict(self.bounds_json(), overflows=omitted)
        return data


def _composite(r, pairs, w_max, counts, x, y, z, level, g, f):
    """:meth:`Localization.composite` on the localization's parts."""
    target = pairs[(x, z)]
    return bounded_composite(r, pairs[(y, z)].level_grids[level][g],
                             pairs[(x, y)].level_grids[level][f], w_max, target.by_grid,
                             counts, target.pruned)


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


class _ClassMap(Mapping):
    """``classmap[(x, y, vertex name)]``: a vertex's class in the category
    of components, looked up by name only when asked."""

    def __init__(self, pairs, class_names):
        self.pairs, self.class_names = pairs, class_names

    def __getitem__(self, key):
        x, y, name = key
        ms = self.pairs[(x, y)]
        if name not in ms.vertices:
            raise KeyError(key)
        return self.class_names[(x, y)][ms.partition.class_of[ms.vertices.index(name)]]

    def __iter__(self):
        return ((x, y, name) for (x, y), ms in self.pairs.items() for name in ms.vertices)

    def __len__(self):
        return sum(len(ms.vertices) for ms in self.pairs.values())


def homotopy_category_of_localization(loc: Localization, wellcheck_cap: int = 6):
    """Category of components of a localization on vertex numbers (see
    :func:`scat.component_category`), and the name-keyed class map; class
    composites come from representatives inside the width bound."""
    try:
        cat, class_names = scat_mod.component_category(
            loc.relcat.cat.objects,
            {pair: ms.partition for pair, ms in loc.pairs.items()},
            dict.fromkeys(loc.relcat.cat.objects, _IDENTITY_NUMBER),
            lambda x, y, z, g, f: loc.composite(x, y, z, 0, g, f), wellcheck_cap,
        )
    except CompositionUnavailable:
        loc.overflows += 1
        raise
    return cat, _ClassMap(loc.pairs, class_names)


# --- localization of relative simplicial categories -------------------------


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
    maps its one grid through the outer level map (a list, on morphism
    numbers), then takes the inner face or degeneracy; the off-diagonal
    entries are never mapped.  An outer degeneracy is injective and sends
    identities to identities, so the image of a reduced grid is reduced
    and is looked up as it is; the image under an outer face is reduced
    first, once per distinct image grid.  ``row_spaces[(x, y, n)]`` is
    the mapping space of the level-n localization.  ``progress`` gets each pair of each level,
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

        # face and degeneracy maps, once each, from level n to level m, on
        # morphism numbers: a level category numbers its morphisms hom by
        # hom, each hom's simplices in level order (scat.level_category)
        homs = [ambient.homs[(x, y)] for x in ambient.objects for y in ambient.objects]
        outer = {}
        for n, kind, m in ([(n, "d", n - 1) for n in range(1, truncation + 1)]
                           + [(n, "s", n + 1) for n in range(truncation)]):
            starts = list(itertools.accumulate((len(hom.levels[m]) for hom in homs), initial=0))
            tables = [(hom.faces if kind == "d" else hom.degeneracies)[n] for hom in homs]
            for i in range(n + 1):
                outer[(n, kind, i)] = [start + s for start, table in zip(starts, tables)
                                       for s in table[i]]
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
        faces = [()] + [[None] * (n + 1) for n in range(1, self.truncation + 1)]
        degeneracies = [[None] * (n + 1) for n in range(self.truncation)]
        reduced = {}  # (target level, image grid) -> its normal form
        images = 0
        for (n, kind, i), image_of in outer.items():
            m = n - 1 if kind == "d" else n + 1
            cat, target = self.level_rel[m].cat, spaces[m]
            # inner level n of the level-m space, then its inner face or
            # degeneracy: diagonal level m
            inner = (target.sset.faces[n] if kind == "d" else target.sset.degeneracies[n])[i]
            column = []
            for directions, rows, layers in spaces[n].level_grids[n]:
                grid = directions, _mapped(image_of, rows), _mapped(image_of, layers)
                images += 1
                if kind == "d":
                    key = (m, grid)
                    grid = reduced.get(key)
                    if grid is None:
                        grid = reduced[key] = _reduce(cat, key[1])
                image = target.by_grid.get(grid)
                if image is None:
                    raise ConsistencyError("entrywise image missing from enumeration")
                column.append(inner[image])
            (faces if kind == "d" else degeneracies)[n][i] = tuple(column)
        levels = [space.sset.levels[n] for n, space in enumerate(spaces)]
        sset = TruncatedSimplicialSet(self.truncation, levels, faces, degeneracies)
        return sset, DiagonalCounts(images, len(reduced))

    @property
    def verdict(self):
        return ("stable"
                if all(loc.verdict == "stable" for loc in self.levels)
                else "bound_limited")

    def scat(self) -> scat_mod.TruncatedSimplicialCategory:
        if self._scat is None:
            self._scat = scat_mod.TruncatedSimplicialCategory(
                self.rs.ambient.objects, self.truncation, self.diag_homs,
                dict.fromkeys(self.rs.ambient.objects, _IDENTITY_NUMBER),
                # as in Localization.scat: no reference cycle through self
                composer=partial(_level_composite, self.levels),
            )
        return self._scat


def _level_composite(levels, x, y, z, level, g, f):
    """The number of the composite of level-``level`` simplices of the
    dimensionwise localization with level localizations ``levels``, or
    None on width overflow: it is composed in the level-``level``
    localization."""
    return levels[level].composite(x, y, z, level, g, f)


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
