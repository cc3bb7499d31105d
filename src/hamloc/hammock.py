"""Hammocks and width-bounded hammock localization.

A hammock is a commuting grid between two shared end objects: columns
are direction-homogeneous zigzag steps (backward steps and all vertical
maps are weak equivalences), rows are zigzag paths, and every square
and end triangle commutes.  Reduced hammocks (no all-identity column,
adjacent columns alternate) are the canonical forms; the k-simplices of
a mapping space are the reduced hammocks of height k.

Past the boundary a simplex is a plain ``(directions, rows, layers)``
grid of morphism numbers (``FiniteCategory.mor_index``, with the
category's numbered table ``post`` and ``identity_numbers``); one
:class:`_Context` per relative category adds the tables enumeration
needs.  One routine, :func:`_normal_form`, reduces grids (Dwyer-Kan:
delete all-identity columns, merge equal-direction neighbours), each
distinct grid once per mapping space or diagonal hom.  Each level of a
mapping space is put in (width, name) order without names, by morphism
ranks that order like the names (:attr:`_Context.rank_chars`), and
numbered in that order.  A simplex is found by its grid in its own
level's table (:meth:`MappingSpace.grid_numbers`: the table the
full-detail enumeration built, else built on that level's first
lookup), and named (:func:`_namer`) only when a caller reads a name
(:class:`simplicial.Names`): the output of ``localize``, ``ho`` and
``flatten``, a witness, a message, or the morphisms of a level category.
Only the boundary functions (:func:`reduce_hammock`,
:func:`compose_hammocks`, :func:`embed_morphism`, :func:`width_zero`)
make :class:`Hammock` objects, whose entries are names, for callers that
speak names: the benchmark worker and the tests.

Composition puts two reduced grids side by side (:func:`_concatenated`);
they can reduce only at their junction, so :func:`bounded_composite`
merges the junction columns itself and takes the normal form only when
the merged column is all identities; the junction alone often shows an
overflow (:func:`_junction`), so :func:`bounded_composites` composes two
homs by junction class.  The dimensionwise diagonal takes its tables
from the level localizations, a face through the level space's own
inner face, each distinct row and vertical layer mapped once per outer
map.

The full-detail enumeration numbers each row of a mapping space once,
as a leaf of a trie of the feasible row prefixes whose children follow
the rank order (:class:`_RowTrie`): its leaves are numbered in (width,
name) order, so level 0, the reduced rows, comes out sorted, and each
higher level sorts on leaf numbers and the ranks of its layers.  Along
an alternating pattern a grid is reduced exactly when no column has an
identity in every row (the AND of its rows' identity masks is 0), so a
grid's last row is built only with non-identity entries in the columns
its other rows leave as identities.  The enumeration grows one height
at a time on leaf numbers: rows 0 and 1 come from one column walk
(:meth:`_RowTrie.first_rows`), and each row below from another
(:meth:`_RowTrie.extensions`), only under the grids that were kept or
are unreduced, since a pruned grid is the last face of every grid grown
from it; both walk trie nodes and read one table of column steps.  A
level-1 face is the vertex of a row's normal form, reduced once per row;
a higher face is reduced once per distinct dropped grid of leaf numbers.
The trie lives while one space is built.

"pi0" detail builds only the vertices and their components.  It lists
each pattern's rows in rank order (:meth:`_Context.paths`), so its
vertices are numbered as it finds them, in (width, name) order, and
joined along generator grids whose steps come from a second table
(:func:`_pi0_joins`).  Claim 3.1 walks only some pairs (``pair_filter``
of :func:`hammock_localization`), and
:func:`homotopy_category_of_localization` builds its components over the
objects those pairs name.  The context, with its tables, and the namer
are freed with what made them, by reference counting: the package builds
no reference cycles around them.

Width is the one genuine approximation: enumeration is exhaustive up to
``w_max`` columns, faces and reduction only shrink width, and every
result carries a stabilization verdict: one union-find, grown in order
of width, has the same components at w_max-1 as at w_max.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial

from .errors import CompositionUnavailable, ConsistencyError, InputError
from .fincat import FiniteCategory, UnionFind
from .relcat import RelativeCategory
from .simplicial import Names, Partition, TruncatedSimplicialSet
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


def _mapped_once(image, mapped, rows):
    """:func:`_mapped` of ``rows``, with ``image`` a function, each
    distinct row mapped once: ``mapped`` keeps the image of every row it
    has seen."""
    out = []
    for row in rows:
        mapped_row = mapped.get(row)
        if mapped_row is None:
            mapped_row = mapped[row] = tuple(map(image, row))
        out.append(mapped_row)
    return tuple(out)


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


def _names(morphisms, grids):
    """The names of ``grids``, by one :func:`_namer` that goes with them."""
    return map(_namer(morphisms), grids)


def _hammock(morphisms, x, y, grid) -> Hammock:
    """The :class:`Hammock` from x to y of a grid of morphism numbers."""
    directions, rows, layers = grid
    return Hammock(x, y if directions else x, directions, _mapped(morphisms, rows),
                   _mapped(morphisms, layers))


# the number of width_zero(x) in hom(x, x): width 0 sorts first
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


def _concatenated(cat: FiniteCategory, g, f):
    """Grid ``f`` then grid ``g`` (composable, of one height and positive
    width, numbered in ``cat``) side by side, with the identity vertical
    at the junction."""
    d1, rows1, layers1 = f
    d2, rows2, layers2 = g
    # the identity of the object where the rows of f end
    last = cat.morphisms[rows1[0][-1]]
    sink = cat.cod[last] if d1[-1] == "f" else cat.dom[last]
    junction = (cat.mor_index[cat.identity[sink]],)
    return (d1 + d2, tuple(a + b for a, b in zip(rows1, rows2)),
            tuple(a + junction + b for a, b in zip(layers1, layers2)))


def compose_hammocks(r: RelativeCategory, h2: Hammock, h1: Hammock) -> Hammock:
    """Widthwise concatenation (h1 then h2), reduced to its normal form;
    numbered and named again at this boundary."""
    if h1.sink != h2.source:
        raise InputError(f"hammocks not composable: {h1.sink} vs {h2.source}")
    if h1.height != h2.height:
        raise InputError("hammocks must have equal heights")
    if h1.width == 0 or h2.width == 0:
        return h2 if h1.width == 0 else h1
    c = r.cat
    return _hammock(c.morphisms, h1.source, h2.sink,
                    _reduce(c, _concatenated(c, _grid(c, h2), _grid(c, h1))))


@dataclass
class ComposeCounts:
    """Composite requests by outcome: a representable composite, an
    overflow known from the junction directions alone (they differ, and
    the width ``w1 + w2`` is over the bound), an overflow found once the
    junction columns merged (the reduced grid is too wide, or needs a
    composite the table lacks), or a reduced grid within the bound that
    the target space pruned (one of its faces needs a composite the table
    lacks).  Each (g, f) pair a sweep (:func:`bounded_composites`) covers
    is one request.  Deterministic counts for progress output, never
    report bytes."""

    composites: int = 0
    junction_overflows: int = 0
    cascade_overflows: int = 0
    pruned_overflows: int = 0

    @property
    def requests(self):
        return (self.composites + self.junction_overflows + self.cascade_overflows
                + self.pruned_overflows)


def _junction(post, identities, g, f, w_max):
    """What the junction alone decides about grid ``g`` after grid ``f``
    (reduced, of positive width): two reduced grids can reduce only there.
    When the junction columns point different ways the concatenation is
    reduced, ``w1 + w2`` wide: "junction" (an overflow) or "concatenated".
    Otherwise they merge, and the merged column's neighbours point the
    other way: unless it is all identities ("normal form") nothing else
    reduces, the width is ``w1 + w2 - 1``, and the result is "cascade" (an
    overflow, as is a missing composite) or the merged column."""
    (d1, rows1, _), (d2, rows2, _) = f, g
    width = len(d1) + len(d2)
    if d1[-1] != d2[0]:
        return "junction" if width > w_max else "concatenated"
    if d1[-1] == "f":
        merged = tuple(post[b[0]].get(a[-1]) for a, b in zip(rows1, rows2))
    else:
        merged = tuple(post[a[-1]].get(b[0]) for a, b in zip(rows1, rows2))
    if None in merged:
        return "cascade"
    if identities.issuperset(merged):
        return "normal form"
    return "cascade" if width - 1 > w_max else merged


def bounded_composite(r: RelativeCategory, g, f, w_max, enumerated, counts: ComposeCounts,
                      pruned=False):
    """The reduced composite of grid ``g`` after grid ``f`` (reduced,
    composable, of one height, each at most ``w_max`` wide) as the value
    ``enumerated`` (the target level's :meth:`MappingSpace.grid_numbers`)
    holds for it, or None when it needs a composite ``r`` lacks or is wider
    than ``w_max``; ``counts`` tallies the outcome.  A result missing from
    ``enumerated`` is an overflow when the target ``pruned`` simplices,
    else it is inconsistent.

    The junction is read before any row is built (:func:`_junction`), and
    only an all-identity merge takes the concatenation to
    :func:`_normal_form`, with its checks on verticals."""
    if not f[0] or not g[0]:
        grid = g if not f[0] else f
    else:
        fate = _junction(r.cat.post, r.cat.identity_numbers, g, f, w_max)
        if fate == "junction":
            counts.junction_overflows += 1
            return None
        if fate == "concatenated":
            grid = _concatenated(r.cat, g, f)
        elif fate == "normal form":
            grid = _normal_form(r.cat.post, r.cat.identity_numbers, *_concatenated(r.cat, g, f))
            if grid is not None and len(grid[0]) > w_max:
                grid = None
        elif fate == "cascade":
            grid = None
        else:
            (d1, rows1, layers1), (d2, rows2, layers2) = f, g
            grid = (d1 + d2[1:],
                    tuple(a[:-1] + (m,) + b[1:] for a, m, b in zip(rows1, fate, rows2)),
                    tuple(a + b for a, b in zip(layers1, layers2)))
        if grid is None:
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


def bounded_composites(r: RelativeCategory, pairs, w_max, counts: ComposeCounts, x, y, z, level):
    """``(g, f, h)`` for each level-``level`` grid g of hom(y,z) after f of
    hom(x,y) (``pairs``: object pair -> :class:`MappingSpace`) that
    :func:`bounded_composite` composes to h, in (g, f) order.  The grids
    are grouped by what :func:`_junction` reads (the direction, width and
    entries of f's last and g's first column); it meets each pair of
    classes once, the pairs of an overflowing one are tallied together
    when the sweep starts, and only the others are asked one by one."""
    post, identities = r.cat.post, r.cat.identity_numbers
    gs, fs = pairs[(y, z)].level_grids[level], pairs[(x, y)].level_grids[level]
    target = pairs[(x, z)]
    enumerated = target.grid_numbers(level)
    ends, starts = {}, {}  # class -> grid numbers; width 0 is class ()
    for n, (d, rows, _) in enumerate(fs):
        ends.setdefault(d and (d[-1], len(d), tuple(row[-1] for row in rows)), []).append(n)
    for n, (d, rows, _) in enumerate(gs):
        starts.setdefault(d and (d[0], len(d), tuple(row[0] for row in rows)), []).append(n)
    asked = {}  # g -> the f to ask about, in order
    for start, members in starts.items():
        kept = []
        for end, ns in ends.items():
            fate = start and end and _junction(post, identities, gs[members[0]], fs[ns[0]],
                                               w_max)
            if fate == "junction":
                counts.junction_overflows += len(members) * len(ns)
            elif fate == "cascade":
                counts.cascade_overflows += len(members) * len(ns)
            else:
                kept += ns
        asked.update(dict.fromkeys(members, sorted(kept)))
    for g, grid in enumerate(gs):
        for f in asked[g]:
            h = bounded_composite(r, grid, fs[f], w_max, enumerated, counts, target.pruned)
            if h is not None:
                yield g, f, h


def embed_morphism(r: RelativeCategory, m, height: int = 0) -> Hammock:
    """The width-<=1 forward hammock on a morphism, degenerately tall."""
    c = r.cat
    return _hammock(c.morphisms, c.dom[m], c.cod[m], embedded_grid(c, m, height))


def embedded_grid(cat: FiniteCategory, m, height):
    """The grid of morphism numbers of :func:`embed_morphism` on the
    morphism ``m`` of ``cat``, ``height`` high."""
    if cat.is_identity(m):
        return (), ((),) * (height + 1), ((),) * height
    return ("f",), ((cat.mor_index[m],),) * (height + 1), ((),) * height


# --- enumeration -------------------------------------------------------------


class _Context:
    """Per-relative-category lookup tables for hammock enumeration, on
    morphism numbers; objects keep their names.  ``post`` and
    ``identities`` are the category's ``post`` and ``identity_numbers``;
    ``right[f][h]`` lists the g with g after f equal to h, ``right_weq[f][h]``
    the weak equivalences among them; ``dom``/``cod`` are indexed by
    number, ``identity[x]`` is the number of x's identity; ``from_any``,
    ``weq_into`` and ``weq_from`` list an object's morphisms out, weak
    equivalences in and weak equivalences out; and ``weq_moves[x]`` lists
    the non-identity weak equivalences out of x.  ``rank_chars[m]`` is one
    character whose code is the rank of ``repr`` of m's name among those of
    all morphisms, and ``ranked_from`` and ``ranked_weq_into`` are
    ``from_any`` and ``weq_into`` in that order, the order of
    :meth:`paths` and of a :class:`_RowTrie`'s children; ``namer`` names a
    level's grids (:func:`_names`).

    Rank order is name order.  The name :func:`hammock_name` is ``repr``
    of ``(directions, rows, layers)``: the pattern first, and ``('b', ...``
    sorts before ``('f', ...`` of the same width.  Within one pattern and
    one height every name has the same tuple shape, so two names agree up
    to the text of their first differing entry, ``repr`` of two morphism
    names.  A str ``repr`` is a self-delimiting literal: it ends at the
    first unescaped quote of its kind, so none is a proper prefix of
    another, and the two texts differ at some character that decides both
    their order and that of the names.  So the grids of one width sort by
    name as they do by (pattern, the ranks of their entries, rows first,
    then vertical layers, compared lexicographically).

    ``steps`` is the column-step table of the row walks of a
    :class:`_RowTrie` (:meth:`_RowTrie.first_rows`,
    :meth:`_RowTrie.extensions`), filled on first use: ``(forward, vprev,
    h, last, nonidentity)`` (the column's direction, the vertical before
    it, its entry, whether it is the last column, and whether its next
    entry must not be an identity) maps to the ``(vnext, solutions)`` pairs
    with a solution, where ``vnext`` is the vertical after the column (the
    end identity in the last one) and the solutions are its entries below.

    ``generators`` is the table of generator steps of :func:`_pi0_walk`,
    filled on first use: ``(sink, left, right)`` (whether the interior
    vertex is a sink, and the row's entries on either side of it) maps to
    the ``(a, b)`` pairs of entries that replace ``left`` and ``right``."""

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
        self.weq_moves = {x: tuple(m for m in self.weq_from[x] if m not in self.identities)
                          for x in c.objects}
        self.rank_chars = [""] * len(c.morphisms)
        for rank, m in enumerate(sorted(range(len(c.morphisms)),
                                        key=lambda m: repr(c.morphisms[m]))):
            self.rank_chars[m] = chr(rank)
        ranked = partial(sorted, key=self.rank_chars.__getitem__)
        self.ranked_from = {x: ranked(ms) for x, ms in self.from_any.items()}
        self.ranked_weq_into = {x: ranked(ms) for x, ms in self.weq_into.items()}
        self.namer = partial(_names, c.morphisms)
        self.steps = {}
        self.generators = {}

    def _feasible(self, y, directions):
        """``feasible[col]``: the objects from which a row along
        ``directions[col:]`` reaches y."""
        width = len(directions)
        objects = self.cat.objects
        feasible = [set() for _ in range(width + 1)]
        feasible[width] = {y}
        for col in range(width - 1, -1, -1):
            adj = self.fwd_adj if directions[col] == "f" else self.weq_src_adj
            feasible[col] = {u for u in objects if adj[u] & feasible[col + 1]}
        return feasible

    def paths(self, x, y, directions):
        """All rows (identity entries allowed) from x to y along the
        direction pattern, built column by column, each partial row grown
        by its entries in rank order: the rows come out in the
        lexicographic order of their ranks, which is name order."""
        width = len(directions)
        if width == 0:
            return [()] if x == y else []
        feasible = self._feasible(y, directions)
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
                           for m in self.ranked_from[at] if cod[m] in reach]
            else:
                partial = [(dom[m], row + (m,)) for at, row in partial
                           for m in self.ranked_weq_into[at] if dom[m] in reach]
        return [row for _, row in partial]

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

    def _generator(self, key):
        """The entry of :attr:`generators` at ``key``, computed and kept.  At
        a sink (``-> X_i <-``) a non-identity weak equivalence v out of X_i
        gives ``v.left`` and ``v.right`` (a weak equivalence: the weak
        equivalences are closed under the composites the table has); at a
        source (``<- X_i ->``) it gives the right factors through v of
        ``left`` (a weak equivalence) and of ``right``."""
        sink, left, right = key
        post = self.post
        steps = []
        if sink:
            for v in self.weq_moves[self.cod[left]]:
                a, b = post[v].get(left), post[v].get(right)
                if a is not None and b is not None:
                    steps.append((a, b))
        else:
            for v in self.weq_moves[self.dom[left]]:
                bs = self.right[v].get(right, ())
                for a in self.right_weq[v].get(left, ()):
                    steps += [(a, b) for b in bs]
        steps = self.generators[key] = tuple(steps)
        return steps


def _alternating(width, start):
    return tuple(("f" if (start + i) % 2 == 0 else "b") for i in range(width))


def _patterns(w_max):
    """The alternating patterns of width at most ``w_max`` in (width,
    pattern) order: ``('b', ...)`` before ``('f', ...)``, as in names."""
    pats = [()]
    for w in range(1, w_max + 1):
        pats.append(_alternating(w, 1))
        pats.append(_alternating(w, 0))
    return pats


# what a face's number is when it has none: its normal form is not in the
# level below, or needs a composite the table lacks
_ABSENT, _LACKING = -1, -2


class _RowTrie:
    """The rows of one full-detail mapping space from x to y, each
    numbered once: a trie of the feasible row prefixes
    (:meth:`_Context._feasible`) along each alternating pattern of width
    at most ``w_max``, the patterns in (width, pattern) order
    (:func:`_patterns`), each node's children in the rank order of their
    entries (``ranked_from``, ``ranked_weq_into``), the nodes of a pattern
    numbered breadth first.  A leaf is a row from x to y.  The rows along
    one pattern have one length, so its leaves are consecutive and
    numbered in the order of the rows' names (see
    :attr:`_Context.rank_chars`): the leaves of a space are numbered in
    (width, name) order, and a level's grids sort on their leaf numbers.

    ``roots`` maps each pattern with a row from x to y to its root, in
    order; ``kids[node]`` maps an entry to the child along it (None at a
    leaf); ``row[node]`` holds the node's entries and ``mask[node]`` their
    identity mask (bit ``col`` is set when column ``col`` is an identity).
    The per-leaf tables are filled as the enumeration asks:
    ``vertex[leaf]`` is the vertex number of the normal form of the leaf's
    row, or :data:`_ABSENT` or :data:`_LACKING` (``normal_forms`` counts
    the rows reduced for it).  A trie lives while one space is built."""

    def __init__(self, ctx: _Context, x, y, w_max):
        self.ctx, self.x = ctx, x
        self.roots, self.kids, self.row, self.mask = {}, [], [], []
        kids, rows, masks = self.kids, self.row, self.mask
        dom, cod, identities = ctx.dom, ctx.cod, ctx.identities
        for pattern in _patterns(w_max):
            feasible = ctx._feasible(y, pattern)
            if x not in feasible[0]:
                continue
            self.roots[pattern] = len(rows)
            level = [(len(rows), x)]  # the nodes of one depth and their objects
            kids.append(None)
            rows.append(())
            masks.append(0)
            for col, direction in enumerate(pattern):
                forward, reach = direction == "f", feasible[col + 1]
                moves = ctx.ranked_from if forward else ctx.ranked_weq_into
                grown = []
                for node, at in level:
                    children = kids[node] = {}
                    prefix, mask = rows[node], masks[node]
                    for h in moves[at]:
                        nxt = cod[h] if forward else dom[h]
                        if nxt in reach:
                            children[h] = len(rows)
                            grown.append((len(rows), nxt))
                            kids.append(None)
                            rows.append(prefix + (h,))
                            masks.append(mask | (h in identities) << col)
                level = grown
        self.vertex = [None] * len(rows)
        self.normal_forms = 0

    def first_rows(self, pattern, masked):
        """Each row 0 along ``pattern``, in leaf order, as ``(leaf, mask,
        pairs)``: its identity mask and the (interior verticals, row-1
        leaf) pairs below it that :meth:`extensions` gives with the
        nonidentity mask ``masked and mask`` (``masked``: row 1 is the last
        row), except the rows that are not reduced and have no pair.  One
        walk builds both rows column by column: a row-0 prefix carries its
        partial rows 1, so rows 0 that share a prefix share its column
        steps, and a prefix is dropped as soon as neither a reduced row 0
        nor a row 1 can follow it."""
        kids, masks, width = self.kids, self.mask, len(pattern)
        root = self.roots[pattern]
        # the row-0 nodes after each column, in order, with their partial
        # rows 1 (vertical, verticals, node)
        partial = [(root, [(self.ctx.identity[self.x], (), root)])]
        for col in range(width):
            forward, last = pattern[col] == "f", col == width - 1
            grown = []
            for node, below in partial:
                for h, child in kids[node].items():
                    mask = masks[child]
                    below2 = self._column(below, forward, h, last,
                                          mask >> col & 1 if masked else 0)
                    if below2 or not mask:
                        grown.append((child, below2))
            partial = grown
        return [(leaf, masks[leaf], [(vacc, leaf1) for _, vacc, leaf1 in below])
                for leaf, below in partial]

    def extensions(self, pattern, leaf, nonidentity):
        """All (interior verticals, leaf) pairs below the row of ``leaf``
        along ``pattern`` whose next row has no identity entry in the
        columns of the bitmask ``nonidentity`` (0: every pair), in the order
        of a depth-first walk.  With the columns in which every row of a
        grid is an identity, the next rows are exactly those that make the
        taller grid reduced.  The next row is walked column by column as
        trie nodes."""
        row, width = self.row[leaf], len(pattern)
        partial = [(self.ctx.identity[self.x], (), self.roots[pattern])]
        for col in range(width):
            partial = self._column(partial, pattern[col] == "f", row[col], col == width - 1,
                                   nonidentity >> col & 1)
        return [(vacc, node) for _, vacc, node in partial]

    def _column(self, partial, forward, h, last, nonidentity):
        """The partial rows ``partial`` (vertical, verticals, node) below a
        row, in order, each grown by the column steps below the entry
        ``h``, in order; ``forward``, ``last`` and ``nonidentity`` are as in
        :attr:`_Context.steps`.  A partial row whose node has no child
        along its new entry can never end at y, and is dropped."""
        ctx, kids = self.ctx, self.kids
        steps = ctx.steps
        grown = []
        for vprev, vacc, node in partial:
            key = (forward, vprev, h, last, nonidentity)
            options = steps.get(key)
            if options is None:
                options = ctx._step(key)
            children = kids[node]
            for vnext, sols in options:
                # the end identity after the last column is no interior vertical
                vacc2 = vacc if last else vacc + (vnext,)
                for h2 in sols:
                    child = children.get(h2)
                    if child is not None:
                        grown.append((vnext, vacc2, child))
        return grown

    def vertex_of(self, pattern, leaf, vertices):
        """``vertex[leaf]``, computed and kept; ``vertices`` maps the
        grids of level 0 to their numbers."""
        ctx = self.ctx
        reduced = _normal_form(ctx.post, ctx.identities, pattern, (self.row[leaf],), ())
        self.normal_forms += 1
        number = self.vertex[leaf] = (_LACKING if reduced is None
                                      else vertices.get(reduced, _ABSENT))
        return number


@dataclass
class MappingSpace:
    """Reduced hammocks from x to y as a truncated simplicial set.

    ``vertices`` (a :class:`Names`) are the vertex names in order, by
    width, then name, made only when read; ``len`` counts them without
    names.  ``partition`` partitions their positions there.
    ``level_grids[k]`` holds the grids of morphism numbers of level k in
    the order of ``sset.levels[k]``, so a simplex's number indexes both.
    "pi0" detail keeps only vertices and partition, so its ``level_grids``
    cover level 0 only; it joins the vertices along generator grids (see
    :func:`_pi0_joins`), "full" detail along its kept 1-simplices.
    ``pruned`` ("full" detail) says that a simplex was left out because
    one of its faces needs a composite the table lacks.  ``verdict`` is
    "stable" when the components at width bound w_max are those a run at
    w_max-1 finds, else (or after pruning) "bound_limited".

    ``grids`` counts the joins handed to the union-find: the kept
    1-simplices in "full" detail; in "pi0" detail, the distinct vertices
    each live row is joined to, summed over the rows.
    ``fallback_rows`` ("pi0" detail only) counts the live rows with a
    dead generator neighbour, from which the fallback walked on.
    ``face_normal_forms`` ("full" detail only) counts the distinct
    dropped grids the faces reduced, and ``extension_rows`` ("full" detail
    only) the complete rows built below other rows, one per grid they
    make, by :meth:`_RowTrie.first_rows` below row 0 and by
    :meth:`_RowTrie.extensions` further down (at truncation 1, the
    two-row grids).  Rows are built only below grids that were kept or
    are unreduced, so where a reduced grid is pruned, neither the rows
    below it nor their faces are counted.  All four are deterministic
    counts for progress output, never report bytes.
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

    def grid_numbers(self, level) -> dict:
        """Grid -> number at ``level``: its :attr:`Names.item_number`, the
        table the "full" detail enumeration built, or built on its first
        lookup ("pi0" detail has level 0 only)."""
        return (self.vertices if level == 0 else self.sset.levels[level]).item_number


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
        return _pi0_walk(ctx, x, y, truncation, w_max)
    # Grids are (pattern, leaves, layers) on the rows' leaf numbers
    # (:class:`_RowTrie`) until a level is kept.  Level 0 is the reduced
    # rows in leaf order, which is its order.
    trie = _RowTrie(ctx, x, y, w_max)
    rows, vertex, masks = trie.row.__getitem__, trie.vertex, trie.mask
    identities = ctx.identities
    simplices, grown = [], []
    for pattern in trie.roots:
        for leaf, mask, below in trie.first_rows(pattern, truncation == 1):
            # no identity entry along an alternating pattern: reduced
            if not mask:
                vertex[leaf] = len(simplices)
                simplices.append((pattern, (leaf,), ()))
            grown += [(pattern, (leaf, leaf1), (vacc,)) for vacc, leaf1 in below]
    extension_rows = len(grown)
    level_grids = [tuple([(pattern, (rows(leaf),), ()) for pattern, (leaf,), _ in simplices])]
    below = {grid: n for n, grid in enumerate(level_grids[0])}
    levels = [Names.numbered(below, ctx.namer)]

    # Grow one height at a time, and keep only the simplices all of whose
    # faces are kept: over a partially represented ambient category a face
    # can need a composite outside the width bound, and such simplices
    # cannot be carried in the truncated data.  Each level is sorted by
    # (width, name) as soon as it is kept, on leaf numbers and then the
    # ranks of its layers (see :attr:`_Context.rank_chars`), so the level
    # above finds its faces by number in ``below`` (grid -> number).  A
    # level-1 face is the vertex of a row (``trie.vertex``); above,
    # ``memo`` maps a dropped grid to its face's number, as ``trie.vertex``
    # does.  A face that needs a missing composite is the last one asked.
    pruned = False
    face_normal_forms = 0
    faces, degeneracies = [()], []
    chars, texts = ctx.rank_chars, {}  # layer -> its ranks as text
    for k in range(1, truncation + 1):
        top = k == truncation
        # ``live``: the kept and the unreduced grids, each with the columns
        # in which all its rows are identities
        kept, images, live, memo = [], [], [], {}
        for grid in grown:
            pattern, leaves, layers = grid
            # the last rows at the top were built to make their grids reduced
            common = 0
            if not top:
                common = -1
                for leaf in leaves:
                    common &= masks[leaf]
            if not common:
                if k == 1:
                    # d_0 drops row 0, and is asked first
                    face0 = vertex[leaves[1]]
                    if face0 is None:
                        face0 = trie.vertex_of(pattern, leaves[1], below)
                    face1 = _LACKING if face0 == _LACKING else vertex[leaves[0]]
                    if face1 is None:
                        face1 = trie.vertex_of(pattern, leaves[0], below)
                    numbers = None if face0 < 0 or face1 < 0 else (face0, face1)
                else:
                    numbers = _faces(trie, grid, memo, below)
                if numbers is None:
                    pruned = True
                    continue
                kept.append(grid)
                images.append(numbers)
            if not top:
                live.append((grid, common))
        del grown  # free the pruned grids before the level is numbered
        face_normal_forms += len(memo)
        keys = []
        for _, leaves, layers in kept:
            text = ""
            for layer in layers:
                t = texts.get(layer)
                if t is None:
                    t = texts[layer] = "".join([chars[m] for m in layer])
                text += t
            keys.append((leaves, text))
        order = sorted(range(len(kept)), key=keys.__getitem__)
        del keys
        simplices = [kept[n] for n in order]
        level_grids.append(tuple([(pattern, tuple(map(rows, leaves)), layers)
                                  for pattern, leaves, layers in simplices]))
        below = {grid: n for n, grid in enumerate(level_grids[k])}
        levels.append(Names.numbered(below, ctx.namer))
        faces.append([[images[n][i] for n in order] for i in range(k + 1)])
        # a kept grid whose rows i and i+1 are one leaf, with an identity
        # layer between them, is s_i of its face d_i; its number is read
        # from ``below``, so the table holds the int objects the level's
        # ``item_number`` holds, not copies
        degeneracies.append([[None] * len(level_grids[k - 1]) for _ in range(k)])
        for (_, leaves, layers), n in zip(simplices, below.values()):
            for i in range(k):
                if leaves[i] == leaves[i + 1] and identities.issuperset(layers[i]):
                    degeneracies[k - 1][i][faces[k][i][n]] = n
        if any(None in column for column in degeneracies[-1]):
            raise ConsistencyError("degeneracy left the kept set")
        # Only the grids of ``live`` grow: d_{k+1} of a grid grown from a
        # reduced grid G is G itself, so all are pruned below a pruned G.
        # An unreduced grid can become reduced lower down, so a row is built
        # unfiltered, except the last, which must clear the mask's columns.
        last = k + 1 == truncation
        grown = [(pattern, leaves + (leaf,), layers + (vacc,))
                 for (pattern, leaves, layers), common in live
                 for vacc, leaf in trie.extensions(pattern, leaves[-1], common if last else 0)]
        extension_rows += len(grown)
    sset = TruncatedSimplicialSet(truncation, levels, faces, degeneracies)

    # level 1 is sorted by width: the snapshot before the first edge of
    # width w_max is the partition one width bound lower
    vertices = range(len(level_grids[0]))
    components = UnionFind(len(vertices))
    narrow = [n for n in vertices if len(level_grids[0][n][0]) < w_max]
    edges = zip(faces[1][1], faces[1][0])
    narrower = next((n for n, grid in enumerate(level_grids[1]) if len(grid[0]) == w_max),
                    len(level_grids[1]))
    components.union_pairs(itertools.islice(edges, narrower))
    sub = Partition.of(components, narrow)
    components.union_pairs(edges)
    partition = Partition.of(components, vertices)
    verdict = "bound_limited" if pruned else _stability(partition, sub)
    return MappingSpace(x, y, truncation, w_max, verdict, sset.levels[0],
                        partition, sset, tuple(level_grids), pruned,
                        len(level_grids[1]),
                        face_normal_forms=face_normal_forms + trie.normal_forms,
                        extension_rows=extension_rows)


def _pi0_walk(ctx: _Context, x, y, truncation, w_max) -> MappingSpace:
    """The "pi0" detail mapping space from x to y: its vertices, joined
    along generator grids (:func:`_pi0_joins`) by one union-find over
    vertex numbers.  The patterns come in (width, pattern) order
    (:func:`_patterns`) and each pattern's rows in name order
    (:meth:`_Context.paths`), so the vertices are numbered as they are
    found, in (width, name) order, with no sort."""
    found = []  # vertex number -> grid, in (width, name) order
    components = UnionFind()
    row_numbers = {}  # pattern -> row -> vertex number of its normal form, -1 if dead
    snapshot = None
    grids = fallback_rows = 0
    for pattern in _patterns(w_max):
        width = len(pattern)
        if width == 0 and x != y:
            continue
        if width == w_max and snapshot is None:
            # every narrower edge is in: the partition of a run at w_max-1
            snapshot = Partition.of(components, range(len(found)))
        rows0 = ctx.paths(x, y, pattern)
        numbers = row_numbers[pattern] = {}
        for row in rows0:
            # no identity entry along an alternating pattern: reduced
            if ctx.identities.isdisjoint(row):
                numbers[row] = components.add()
                found.append((pattern, (row,), ()))
        for upper, lowers, fallback in _pi0_joins(ctx, pattern, rows0, row_numbers):
            grids += len(lowers)
            fallback_rows += fallback
            components.union_all(upper, lowers)

    partition = Partition.of(components, range(len(found)))
    vertices = tuple(found)
    return MappingSpace(x, y, truncation, w_max, _stability(partition, snapshot),
                        Names(vertices, ctx.namer), partition, None, (vertices,),
                        grids=grids, fallback_rows=fallback_rows)


def _pi0_joins(ctx: _Context, pattern, rows0, row_numbers):
    """For each live row of ``rows0`` (one whose normal form the table can
    name): its vertex number, the numbers of the live rows it is joined
    to along ``pattern``, and whether it took the fallback.
    ``row_numbers[p][row]`` is the vertex number of a row's normal form
    along pattern ``p``, or -1 for a dead row.

    Only the partition is needed, and a generating set of two-row grids
    gives it (Dwyer-Kan): the grids with one non-identity vertical ``v``,
    a weak equivalence out of an interior vertex ``X_i``, whose lower
    entries at ``i-1`` and ``i`` the table :attr:`_Context.generators`
    holds.

    Every grid factors into generator grids: apply its sink verticals one
    at a time, then its source verticals.  Each column has one sink end
    and one source end, so the steps touch disjoint columns, and the grid
    looks up every entry of the intermediate rows, so those rows exist
    even over a partially represented table.  Conversely, a chain of
    generator steps at distinct vertices, sinks before sources, composes
    into one grid (the table has every composite with an identity, which
    the other verticals of that grid need).  An intermediate row can still
    be *dead*: its normal form needs a composite the table lacks, so it is
    no vertex.  The fallback is at dead rows: from a live row, chains are
    followed through dead rows, and the row is joined to the first live
    row on each.  The live rows along any grid's chain are then joined in
    turn, and every join is a grid, so the components, pattern by pattern,
    are those of all grids, and so is the snapshot one width lower."""
    width = len(pattern)
    if not width:
        return
    post, identities = ctx.post, ctx.identities
    generators, generator = ctx.generators, ctx._generator
    numbers = row_numbers[pattern]
    sinks = [None] + [pattern[i - 1] == "f" for i in range(1, width)]

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
                key = (sinks[i], at[i - 1], at[i])
                steps = generators.get(key)
                if steps is None:
                    steps = generator(key)
                if not steps:
                    continue
                head, tail = at[:i - 1], at[i + 1:]
                rest = None
                for a, b in steps:
                    row2 = head + (a, b) + tail
                    number = numbers.get(row2)
                    if number is None:
                        number = number_of(row2)
                    if number >= 0:
                        lowers.add(number)
                        continue
                    if rest is None:
                        rest = tuple(j for j in free
                                     if j != i and (sinks[i] or not sinks[j]))
                    state = (row2, rest)
                    if state not in seen:
                        seen.add(state)
                        chains.append(state)
        yield upper, lowers, bool(seen)


def _faces(trie: _RowTrie, grid, memo, below):
    """The numbers of the faces d_0..d_k of a grid of height k >= 2 on
    leaf numbers, in ``below`` (grid -> number one level down), or None
    when one is missing there or needs a composite the table lacks; they
    are asked in order, and none after a missing composite.  The i-th face
    drops row i, composes the two vertical layers at it, and reduces.
    Each distinct dropped grid is reduced once: ``memo`` keeps its face's
    number, or :data:`_ABSENT` or :data:`_LACKING`; a missing composite of
    verticals is found each time."""
    pattern, leaves, layers = grid
    ctx = trie.ctx
    post, rows = ctx.post, trie.row.__getitem__
    k = len(leaves) - 1
    numbers = []
    for i in range(k + 1):
        if i == 0:
            dropped = layers[1:]
        elif i == k:
            dropped = layers[:-1]
        else:
            fused = tuple(post[b].get(a) for a, b in zip(layers[i - 1], layers[i]))
            if None in fused:
                return None
            dropped = layers[:i - 1] + (fused,) + layers[i + 1:]
        key = leaves[:i] + leaves[i + 1:], dropped
        number = memo.get(key)
        if number is None:
            reduced = _normal_form(post, ctx.identities, pattern, tuple(map(rows, key[0])),
                                   dropped)
            number = memo[key] = _LACKING if reduced is None else below.get(reduced, _ABSENT)
        if number == _LACKING:
            return None
        numbers.append(number)
    return None if _ABSENT in numbers else numbers


# --- localization ------------------------------------------------------------


class Localization:
    """Hammock localization data at a fixed truncation and width bound:
    ``pairs`` maps object pairs to their :class:`MappingSpace`, as
    :func:`hammock_localization` built them: every pair, or those of its
    ``pair_filter``.

    Composition is materialized on demand; a composite wider than the
    bound is not represented.  ``overflows`` counts the component-category
    builds that found no representative composite; ``compose_counts``
    tallies the composite requests (:class:`ComposeCounts`).
    """

    def __init__(self, r: RelativeCategory, truncation, w_max, detail, pairs):
        self.relcat = r
        self.truncation = truncation
        self.w_max = w_max
        self.detail = detail
        self.pairs = pairs
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

    def embedded(self, m):
        """The vertex number of :func:`embed_morphism` of ``m``, or None."""
        c = self.relcat.cat
        return self.pairs[(c.dom[m], c.cod[m])].grid_numbers(0).get(embedded_grid(c, m, 0))

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
            parts = self.relcat, self.pairs, self.w_max, self.compose_counts
            self._scat = scat_mod.TruncatedSimplicialCategory(
                self.relcat.cat.objects, self.truncation,
                {pair: ms.sset for pair, ms in self.pairs.items()},
                dict.fromkeys(self.relcat.cat.objects, _IDENTITY_NUMBER),
                composer=partial(_composite, *parts),
                sweep=partial(bounded_composites, *parts),
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
            "identities": {x: ms.vertices[_IDENTITY_NUMBER]
                           for (x, y), ms in self.pairs.items() if x == y},
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
                    omitted += len(gs) * len(fs)
                    for g, f, h in self.scat().composites(x, y, z, level):
                        omitted -= 1
                        compose.setdefault(f"{x}|{y}|{z}", {}).setdefault(str(level), []).append(
                            [gs[g], fs[f], hs[h]])
            data["compose"] = compose
        data["bounds"] = dict(self.bounds_json(), overflows=omitted)
        return data


def _composite(r, pairs, w_max, counts, x, y, z, level, g, f):
    """:meth:`Localization.composite` on the localization's parts."""
    target = pairs[(x, z)]
    return bounded_composite(r, pairs[(y, z)].level_grids[level][g],
                             pairs[(x, y)].level_grids[level][f], w_max,
                             target.grid_numbers(level), counts, target.pruned)


def hammock_localization(r: RelativeCategory, truncation: int, w_max: int,
                         detail: str = "full", pair_filter=None, progress=None) -> Localization:
    """The localization of ``r`` on the object pairs of ``pair_filter``
    (None: every pair); ``progress(x, y, space)`` gets each pair."""
    _check_bounds(truncation, w_max, detail)
    if pair_filter is not None:
        unknown = sorted({name for pair in pair_filter for name in pair} - set(r.cat.objects))
        if unknown:
            raise InputError(f"pair filter names an unknown object: {unknown[0]}")
    ctx = _Context(r)
    pairs = {}
    for x in r.cat.objects:
        for y in r.cat.objects:
            if pair_filter is not None and (x, y) not in pair_filter:
                continue
            ms = pairs[(x, y)] = _mapping_space(ctx, x, y, truncation, w_max, detail)
            if progress is not None:
                progress(x, y, ms)
    return Localization(r, truncation, w_max, detail, pairs)


def staged(progress, stage):
    """The per-pair callback ``progress(x, y, ms, stage)`` with its pairs
    tagged by ``stage`` (after any tag of an inner stage); None stays None."""
    if progress is None:
        return None
    return lambda x, y, ms, inner=None: progress(
        x, y, ms, stage if inner is None else f"{stage} {inner}")


class _ClassMap(Mapping):
    """``classmap[(x, y, vertex name)]``: a vertex's class in the category
    of components, looked up by name only when asked, through the pair's
    name -> number table (:attr:`Names.number`), built on its first lookup."""

    def __init__(self, pairs, class_names):
        self.pairs, self.class_names = pairs, class_names

    def __getitem__(self, key):
        x, y, name = key
        ms = self.pairs[(x, y)]
        n = ms.vertices.number.get(name)
        if n is None:
            raise KeyError(key)
        return self.class_names[(x, y)][ms.partition.class_of[n]]

    def __iter__(self):
        return ((x, y, name) for (x, y), ms in self.pairs.items() for name in ms.vertices)

    def __len__(self):
        return sum(len(ms.vertices) for ms in self.pairs.values())


def homotopy_category_of_localization(loc: Localization):
    """Category of components of a localization on vertex numbers (see
    :func:`scat.component_category`), over the objects its pairs name, and
    the name-keyed class map; class composites come from representatives
    inside the width bound.  The pairs must be every pair of those objects
    (InputError)."""
    named = {name for pair in loc.pairs for name in pair}
    objects = [x for x in loc.relcat.cat.objects if x in named]
    if len(loc.pairs) != len(objects) ** 2:
        raise InputError("components need every pair of the objects the pairs name")
    try:
        cat, class_names = scat_mod.component_category(
            objects,
            {pair: ms.partition for pair, ms in loc.pairs.items()},
            dict.fromkeys(objects, _IDENTITY_NUMBER),
            lambda x, y, z, g, f: loc.composite(x, y, z, 0, g, f),
        )
    except CompositionUnavailable:
        loc.overflows += 1
        raise
    return cat, _ClassMap(loc.pairs, class_names)


# --- localization of relative simplicial categories -------------------------


@dataclass
class DiagonalCounts:
    """Work of one diagonal hom of a :class:`RelscatLocalization`: the
    entrywise images taken (under each outer face d_i of level n, one per
    inner level-(n-1) simplex of the level-n space; under each outer
    degeneracy of level n, one per diagonal level-n simplex), and the
    distinct face images reduced.  Deterministic counts for progress
    output, never report bytes."""

    images: int
    normal_forms: int


class RelscatLocalization:
    """Dimensionwise hammock localization of (ambient, sub): one
    :class:`Localization` per level n of the ambient (``levels``, over
    the level categories ``level_rel``), and hom by hom their diagonal
    (Dwyer-Kan).  Level n of ``diag_homs[(x, y)]`` is inner level n of
    the level-n localization.  The outer level maps are lists on morphism
    numbers and map grids entrywise; the off-diagonal entries are never
    mapped.  A degeneracy s_i of a diagonal simplex maps its grid through
    the outer s_i, then takes the inner s_i.  An outer degeneracy is
    injective and sends identities to identities, so the image of a
    reduced grid is reduced and is looked up as it is.  A face d_i is the
    outer d_i after the inner one (a bisimplicial identity): the level-n
    space already holds its inner faces, so the outer face maps only its
    level-(n-1) simplices, each image reduced once per distinct image
    grid.  ``row_spaces[(x, y, n)]`` is the mapping space of the level-n
    localization.  ``progress`` gets each pair of each level, tagged
    ``level n``, then the :class:`DiagonalCounts` of each diagonal
    hom."""

    def __init__(self, rs, truncation, w_max, progress=None):
        ambient = rs.ambient
        if ambient.truncation < truncation:
            raise InputError("ambient truncation too small")
        self.rs = rs
        self.truncation = truncation

        # a level category numbers its morphisms hom by hom, each hom's
        # simplices in level order: simplex s of hom j is starts[n][j] + s
        pairs = list(itertools.product(ambient.objects, repeat=2))
        homs = [ambient.homs[pair] for pair in pairs]
        starts = [list(itertools.accumulate((hom.size(n) for hom in homs), initial=0))
                  for n in range(truncation + 1)]
        self.level_rel = []
        for n in range(truncation + 1):
            level_cat = scat_mod.level_category(ambient, n)
            weq = {level_cat.morphisms[start + s]
                   for start, pair in zip(starts[n], pairs) for s in rs.sub[pair][n]}
            self.level_rel.append(RelativeCategory(level_cat, weq))
        self.levels = [hammock_localization(rel, truncation, w_max,
                                            progress=staged(progress, f"level {n}"))
                       for n, rel in enumerate(self.level_rel)]
        self.row_spaces = {(x, y, n): ms for n, loc in enumerate(self.levels)
                           for (x, y), ms in loc.pairs.items()}

        # the face and degeneracy maps from level n to m, once each, on numbers
        outer = {}
        for n, kind, m in ([(n, "d", n - 1) for n in range(1, truncation + 1)]
                           + [(n, "s", n + 1) for n in range(truncation)]):
            tables = [(hom.faces if kind == "d" else hom.degeneracies)[n] for hom in homs]
            for i in range(n + 1):
                outer[(n, kind, i)] = [start + s for start, table in zip(starts[m], tables)
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
            # the outer map takes the simplices of inner level ``level`` of
            # the level-n space into the level-m space, at the same inner level
            m, level = (n - 1, n - 1) if kind == "d" else (n + 1, n)
            cat, target = self.level_rel[m].cat, spaces[m].grid_numbers(level)
            column, mapped, image_of = [], {}, image_of.__getitem__
            images += len(spaces[n].level_grids[level])
            for directions, rows, layers in spaces[n].level_grids[level]:
                grid = (directions, _mapped_once(image_of, mapped, rows),
                        _mapped_once(image_of, mapped, layers))
                if kind == "d":
                    key = (m, grid)
                    grid = reduced.get(key)
                    if grid is None:
                        grid = reduced[key] = _reduce(cat, key[1])
                image = target.get(grid)
                if image is None:
                    raise ConsistencyError("entrywise image missing from enumeration")
                column.append(image)
            if kind == "d":
                # the inner face, then the outer one: diagonal level n-1
                faces[n][i] = tuple(column[t] for t in spaces[n].sset.faces[n][i])
            else:
                # the outer degeneracy, then the inner one: diagonal level n+1
                inner = spaces[m].sset.degeneracies[n][i]
                degeneracies[n][i] = tuple(inner[image] for image in column)
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
                sweep=partial(_level_composites, self.levels),
            )
        return self._scat


def _level_composite(levels, x, y, z, level, g, f):
    """The number of the composite of level-``level`` simplices of the
    dimensionwise localization with level localizations ``levels``, or
    None on width overflow: it is composed in the level-``level``
    localization."""
    return levels[level].composite(x, y, z, level, g, f)


def _level_composites(levels, x, y, z, level):
    """The sweep of :func:`_level_composite`."""
    return levels[level].scat().composites(x, y, z, level)


def hammock_localization_relscat(rs, truncation: int, w_max: int,
                                 progress=None) -> RelscatLocalization:
    return RelscatLocalization(rs, truncation, w_max, progress)


def embed_relscat(rs, rsloc: RelscatLocalization) -> scat_mod.SimplicialFunctor:
    """The natural comparison map into the dimensionwise localization, on
    numbers: a level-n simplex of hom(x, y) goes to :func:`embedded_grid`
    of its morphism of the level-n category (numbered hom by hom, see
    :func:`scat.level_category`), n high, as the level-n space numbers it."""
    ambient = rs.ambient
    smap = {}
    for n, rel in enumerate(rsloc.level_rel):
        morphisms = iter(rel.cat.morphisms)
        for x in ambient.objects:
            for y in ambient.objects:
                numbers = rsloc.row_spaces[(x, y, n)].grid_numbers(n)
                for s in range(ambient.homs[(x, y)].size(n)):
                    smap[(x, y, n, s)] = numbers.get(embedded_grid(rel.cat, next(morphisms), n))
    return scat_mod.SimplicialFunctor(
        ambient, rsloc.scat(), {x: x for x in ambient.objects}, smap
    )
