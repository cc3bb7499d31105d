"""Test helpers: small constructions and checks that only the tests use.

The objects along a row of a hammock, a hammock validator (every row
typechecks, backward entries and verticals are weak equivalences, every
square commutes), the :class:`Hammock` of a mapping space's simplex
(which the library keeps as a grid of morphism numbers), the embedding
of a category into its hammock localization, identity and composite
functors, the list of all simplicial operators up to a dimension, the
endpoints of a typed word and the identity simplicial functor.  No
command calls them, so they live here rather than in ``src/hamloc``.
"""

from __future__ import annotations

from hamloc.errors import InputError
from hamloc.fincat import CatFunctor, FiniteCategory
from hamloc.hammock import Hammock, Localization, embed_morphism
from hamloc.relcat import RelativeCategory
from hamloc.scat import SimplicialFunctor, TruncatedSimplicialCategory, promote
from hamloc.simplicial import monotone_maps


def row_vertices(c: FiniteCategory, source, directions, row):
    """Vertex objects 0..width of one row; InputError if it typechecks badly."""
    vertices = [source]
    for d, m in zip(directions, row):
        at = vertices[-1]
        if d == "f":
            if c.dom[m] != at:
                raise InputError(f"forward entry {m} does not start at {at}")
            vertices.append(c.cod[m])
        else:
            if c.cod[m] != at:
                raise InputError(f"backward entry {m} does not end at {at}")
            vertices.append(c.dom[m])
    return tuple(vertices)


def validate_hammock(r: RelativeCategory, h: Hammock) -> list[str]:
    c = r.cat
    report = []
    if any(d not in ("f", "b") for d in h.directions):
        return [f"bad direction tuple {h.directions}"]
    grids = []
    for idx, row in enumerate(h.rows):
        try:
            vs = row_vertices(c, h.source, h.directions, row)
        except InputError as exc:
            report.append(f"row {idx}: {exc}")
            continue
        if vs[-1] != h.sink:
            report.append(f"row {idx}: ends at {vs[-1]}, not {h.sink}")
            continue
        grids.append(vs)
    if report or len(grids) != len(h.rows):
        return report
    for idx, row in enumerate(h.rows):
        for col, (d, m) in enumerate(zip(h.directions, row)):
            if d == "b" and m not in r.weq:
                report.append(f"row {idx} column {col}: backward entry {m} not a weq")
    width = h.width
    for layer_idx, layer in enumerate(h.verticals):
        upper, lower = grids[layer_idx], grids[layer_idx + 1]
        for j, v in enumerate(layer, start=1):
            if v not in r.weq:
                report.append(f"layer {layer_idx} vertex {j}: vertical {v} not a weq")
            elif c.dom[v] != upper[j] or c.cod[v] != lower[j]:
                report.append(f"layer {layer_idx} vertex {j}: vertical {v} mistyped")
    if report:
        return report

    def vert(layer, j):
        if j == 0:
            return c.identity[h.source]
        if j == width:
            return c.identity[h.sink]
        return h.verticals[layer][j - 1]

    for layer in range(len(h.verticals)):
        up, down = h.rows[layer], h.rows[layer + 1]
        for col in range(width):
            if h.directions[col] == "f":
                lhs = c.compose(vert(layer, col + 1), up[col])
                rhs = c.compose(down[col], vert(layer, col))
            else:
                lhs = c.compose(vert(layer, col), up[col])
                rhs = c.compose(down[col], vert(layer, col + 1))
            if lhs != rhs:
                report.append(f"square at layer {layer}, column {col} does not commute")
    return report


def simplex_number(ms, level, name) -> int:
    """The number of the level-``level`` simplex ``name`` of the mapping
    space ``ms`` (in "pi0" detail, of the vertex ``name``)."""
    return ms.sset.number[level][name] if ms.sset is not None else ms.vertices.index(name)


def simplex_hammock(r: RelativeCategory, ms, level, name) -> Hammock:
    """The level-``level`` simplex ``name`` of the mapping space ``ms``
    over ``r``, a grid of morphism numbers, as a :class:`Hammock` with
    named entries."""
    directions, rows, layers = ms.level_grids[level][simplex_number(ms, level, name)]
    named = r.cat.morphisms
    return Hammock(ms.x, ms.y if directions else ms.x, directions,
                   [[named[m] for m in row] for row in rows],
                   [[named[v] for v in layer] for layer in layers])


def vertex_hammocks(r: RelativeCategory, ms) -> list:
    """The vertices of the mapping space ``ms`` over ``r`` as
    :class:`Hammock` objects, in order."""
    return [simplex_hammock(r, ms, 0, name) for name in ms.vertices]


def embed(r: RelativeCategory, loc: Localization) -> SimplicialFunctor:
    """The natural embedding of the underlying category into its
    localization: a morphism goes to its forward one-column hammock,
    degenerately in all levels.  Strictly functorial (columns merge)."""
    source = promote(r.cat, loc.truncation)
    target = loc.scat()
    smap = {}
    for x in r.cat.objects:
        for y in r.cat.objects:
            for level in range(loc.truncation + 1):
                for m in r.cat.hom(x, y):
                    smap[(x, y, level, m)] = embed_morphism(r, m, level).name
    return SimplicialFunctor(
        source, target, {x: x for x in r.cat.objects}, smap
    )


def identity_functor(c: FiniteCategory) -> CatFunctor:
    return CatFunctor(c, c, {x: x for x in c.objects}, {m: m for m in c.morphisms})


def compose_functors(g: CatFunctor, f: CatFunctor) -> CatFunctor:
    if f.target is not g.source and f.target != g.source:
        raise InputError("functors not composable")
    return CatFunctor(
        f.source, g.target,
        {x: g.object_map[y] for x, y in f.object_map.items()},
        {m: g.morphism_map[n] for m, n in f.morphism_map.items()},
    )


def all_operators(max_dim):
    ops = []
    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            ops.extend(monotone_maps(m, n))
    return ops


def word_endpoints(c: FiniteCategory, word):
    """(start, end) of a typed word; InputError when not composable."""
    if not word:
        raise InputError("empty word has no intrinsic endpoints")
    points = []
    for d, m in word:
        if d == "f":
            points.append((c.dom[m], c.cod[m]))
        else:
            points.append((c.cod[m], c.dom[m]))
    for (a, b), (a2, b2) in zip(points, points[1:]):
        if b != a2:
            raise InputError("word does not typecheck")
    return points[0][0], points[-1][1]


def named_scat(objects, truncation, homs, identities, table) -> TruncatedSimplicialCategory:
    """The table-backed simplicial category whose identities and
    composition table ``(x, y, z, level, g, f) -> h`` are given by simplex
    name, numbered in ``homs``."""
    def number(pair, level, name):
        return homs[pair].number[level][name]

    return TruncatedSimplicialCategory(
        objects, truncation, homs,
        {x: number((x, x), 0, s) for x, s in identities.items()},
        {(x, y, z, level, number((y, z), level, g), number((x, y), level, f)):
         number((x, z), level, h) for (x, y, z, level, g, f), h in table.items()})


def identity_simplicial_functor(a: TruncatedSimplicialCategory) -> SimplicialFunctor:
    smap = {}
    for x in a.objects:
        for y in a.objects:
            for level in range(a.truncation + 1):
                for s in a.homs[(x, y)].level(level):
                    smap[(x, y, level, s)] = s
    return SimplicialFunctor(a, a, {x: x for x in a.objects}, smap)
