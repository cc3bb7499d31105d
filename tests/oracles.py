"""Test helpers: constructions no command runs, kept to check those that
do, and instances that several test modules share.

The general Grothendieck construction of a contravariant diagram of
finite categories over the levels 0..N is the oracle for
:func:`hamloc.flatten.flatten`: flattening a simplicial category is the
Grothendieck construction of its diagram of level categories
(:func:`level_diagram`).  It covers total categories only; the earlier
flattening, which walked every ordered pair of morphisms and built each
composite operator anew, is the reference on partial ones too
(:func:`reference_flatten`); both compose simplicial operators as
dataclasses (:func:`compose_operators`), where the flattening composes
image tuples.  The word oracle's earlier saturation, two
union-finds over string words, is the reference for
:func:`hamloc.relcat.oracle_localized_homset`
(:func:`reference_localized_homset`, which returns its own
:class:`ReferenceHomSet`).  The earlier ``oracle-ho`` output path over
word tuples, classes sorted as tuples and joined with dots and
composites looked up as ``w1 + w2``, is the reference for the one on
trie node numbers (:func:`reference_oracle_ho`).  The earlier dict-keyed
union-find is the reference for the one on dense numbers
(:class:`ReferenceUnionFind`, :func:`reference_iso_classes`); the
references that join words and vertex names run on it.  The equivalence
check that built a whole quasi-inverse with its unit and counit
(:func:`reference_equivalence_from_functor`, with its own
:class:`EquivalenceWitness`) is the reference for the one that returns
only the backward object map, and checks the functors the equivalence
search finds.  The full-detail hammock
enumeration that builds every grid row by row and reduces every face
and diagonal image anew, mapping each level-n simplex under the outer
face, is the reference for the one that builds rows 0 and 1 in one walk
and only last rows that can reduce, reduces each distinct grid once, and
takes a diagonal face through the level space's inner face
(:func:`reference_mapping_space`, :func:`reference_diagonal`).  The
"pi0" enumeration on string-keyed rows, with a union-find over vertex
names, is the reference for the one on morphism and vertex numbers
(:func:`reference_pi0_mapping_space`).  All of them run on the earlier
routines on morphism names (:class:`_NamedContext`, :func:`_normal_form`
with its leftmost and rightmost move orders, :func:`_degeneracy`), not on
the library's numbered ones; :func:`reference_reduce_hammock` is the
reduction the confluence checks compare with.  Three references do run
on the library's numbered context: the generator that derives every
column step of a row's extensions anew, for the memoized column-step
table and the row trie's walks (:func:`reference_extensions`); ``repr``
of the mapped grid, for the namer (:func:`_grid_name`); and the
full-detail enumeration on whole rows, before rows were numbered once
per mapping space in a trie, for the one on leaf numbers, down to its
progress counts (:func:`reference_numbered_mapping_space`).  The induced homology check through a
rational kernel basis is the reference for the block-rank check
(:func:`reference_induced_homology_iso`).  The simplicial-category
checks that composed, took faces and identities and partitioned
components by simplex name are the references for those on numbers
(:func:`reference_validate_scat`, :func:`reference_validate_relscat`,
:func:`reference_is_neglectable`,
:func:`reference_validate_simplicial_functor`,
:func:`reference_check_dk`).  :func:`level_map` gives an
ambient's face and degeneracy maps on level-morphism names, which the
dimensionwise localization reads as numbers, and :func:`sset_from_keyed`
reads the earlier ``(k, name, i)`` dicts of the references.  Asking
``bounded_composite`` or a simplicial category about each (g, f) pair in
turn is the reference for the sweeps by junction class
(:func:`reference_composites`, :func:`reference_scat_composites`), and
the normal form of the concatenated grids checks both
(:func:`normal_form_composite`).  Claim 3.1 over every pair of the
middle's and the flattening's objects, with the categories of components
on every object, is the reference for the claim over the pairs of
level-0 objects (:func:`reference_roundtrip`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial

from hamloc import instances as inst
from hamloc.errors import CompositionUnavailable, ConsistencyError, InputError
from hamloc.fincat import (
    CatFunctor,
    FiniteCategory,
    disjoint_union,
    find_equivalence,
    inverse,
    is_isomorphism,
    validate_functor,
)
from hamloc import hammock
from hamloc.flatten import (
    Flattening,
    flat_morphism_name,
    flat_object_name,
    flatten,
    relativization_unit,
)
from hamloc.hammock import (
    Hammock,
    MappingSpace,
    _mapped,
    _patterns,
    _stability,
    bounded_composite,
    hammock_name,
)
from hamloc.relcat import RelativeCategory, _RewriteTables, _saturate_source
from hamloc.scat import (
    DkCertificate,
    PairComparison,
    RelativeSimplicialCategory,
    TruncatedSimplicialCategory,
    level_category,
    level_morphism_name,
    promote,
    sub_from_morphisms,
)
from hamloc.simplicial import (
    Partition,
    SimplicialOperator,
    TruncatedSimplicialSet,
    apply_operator,
    boundary_matrix,
    monotone_maps,
    homology,
    operator_steps,
    pi0,
    rational_rank,
    validate_sset,
)
from helpers import renamed, row_vertices, simplex_hammock


def level_map(a: TruncatedSimplicialCategory, source_level: int, kind: str, i: int) -> dict:
    """The face (kind='d') or degeneracy (kind='s') map on level-morphism
    names, read off the hom simplicial sets."""
    mmap = {}
    target_level = source_level - 1 if kind == "d" else source_level + 1
    for x in a.objects:
        for y in a.objects:
            sset = a.homs[(x, y)]
            table = (sset.faces if kind == "d" else sset.degeneracies)[source_level][i]
            for s, img in zip(sset.level(source_level), table):
                mmap[level_morphism_name(x, y, s)] = level_morphism_name(
                    x, y, sset.levels[target_level][img])
    return mmap


def level_functor(a: TruncatedSimplicialCategory, source_level: int, kind: str, i: int) -> CatFunctor:
    """The face (kind='d') or degeneracy (kind='s') functor between level
    categories, acting on morphism simplices as :func:`level_map`."""
    target_level = source_level - 1 if kind == "d" else source_level + 1
    return CatFunctor(level_category(a, source_level), level_category(a, target_level),
                      {x: x for x in a.objects}, level_map(a, source_level, kind, i))


@dataclass
class SimplicialDiagram:
    """A contravariant diagram of finite categories over levels 0..N:
    one category per level, with face and degeneracy functors."""

    levels: list
    face_functors: dict  # (n, i): functor levels[n] -> levels[n-1]
    degeneracy_functors: dict  # (n, i): functor levels[n] -> levels[n+1]

    @property
    def truncation(self):
        return len(self.levels) - 1


def validate_diagram(d: SimplicialDiagram) -> list[str]:
    report = []
    N = d.truncation
    for n in range(1, N + 1):
        for i in range(n + 1):
            fun = d.face_functors.get((n, i))
            if fun is None:
                report.append(f"missing face functor d_{i} at level {n}")
            elif validate_functor(fun):
                report.append(f"face functor d_{i} at level {n} is not a functor")
    for n in range(N):
        for i in range(n + 1):
            fun = d.degeneracy_functors.get((n, i))
            if fun is None:
                report.append(f"missing degeneracy functor s_{i} at level {n}")
            elif validate_functor(fun):
                report.append(f"degeneracy functor s_{i} at level {n} is not a functor")
    if report:
        return report

    def maps_equal(f1, f2):
        return f1.object_map == f2.object_map and f1.morphism_map == f2.morphism_map

    def compose_maps(g, f):
        return CatFunctor(
            f.source, g.target,
            {x: g.object_map[y] for x, y in f.object_map.items()},
            {m: g.morphism_map[n] for m, n in f.morphism_map.items()},
        )

    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = compose_maps(d.face_functors[(n - 1, i)], d.face_functors[(n, j)])
                rhs = compose_maps(d.face_functors[(n - 1, j - 1)], d.face_functors[(n, i)])
                if not maps_equal(lhs, rhs):
                    report.append(f"functor identity d_{i} d_{j} fails at level {n}")
    for n in range(N):
        for j in range(n + 1):
            sj = d.degeneracy_functors[(n, j)]
            for i in range(n + 2):
                di = d.face_functors[(n + 1, i)]
                composite = compose_maps(di, sj)
                if i == j or i == j + 1:
                    ident = CatFunctor(
                        d.levels[n], d.levels[n],
                        {x: x for x in d.levels[n].objects},
                        {m: m for m in d.levels[n].morphisms},
                    )
                    if not maps_equal(composite, ident):
                        report.append(f"functor identity d_{i} s_{j} != id at level {n}")
    return report


def compose_operators(p: SimplicialOperator, q: SimplicialOperator) -> SimplicialOperator:
    """Diagrammatic composite: first p, then q (requires matching middles).
    No command composes operators: :func:`hamloc.flatten.flatten` composes
    their image tuples."""
    if p.target_dim != q.source_dim:
        raise InputError(
            f"operator dims mismatch: [{p.source_dim}]->[{p.target_dim}] then "
            f"[{q.source_dim}]->[{q.target_dim}]"
        )
    return SimplicialOperator(p.source_dim, q.target_dim, tuple(q.images[v] for v in p.images))


def operator_functor(d: SimplicialDiagram, op: SimplicialOperator) -> CatFunctor:
    """The contravariant action of a monotone map on the diagram: the
    functor levels[target_dim] -> levels[source_dim]."""
    if op.target_dim > d.truncation or op.source_dim > d.truncation:
        raise InputError("operator exceeds diagram truncation")
    ident = d.levels[op.target_dim]
    current = CatFunctor(ident, ident, {x: x for x in ident.objects},
                         {m: m for m in ident.morphisms})
    for kind, level, i in operator_steps(op):
        fun = (d.face_functors if kind == "d" else d.degeneracy_functors)[(level, i)]
        current = CatFunctor(
            current.source, fun.target,
            {x: fun.object_map[y] for x, y in current.object_map.items()},
            {m: fun.morphism_map[n] for m, n in current.morphism_map.items()},
        )
    return current


def grothendieck(d: SimplicialDiagram) -> FiniteCategory:
    """Total category of the diagram: objects (n, X), morphisms
    (q, f): (n1, X1) -> (n2, X2) with q monotone [n2] -> [n1] and
    f: q*(X1) -> X2 at level n2."""
    bad = validate_diagram(d)
    if bad:
        raise InputError(f"diagram invalid: {bad[0]}")
    N = d.truncation
    operators = {}
    for n1 in range(N + 1):
        for n2 in range(N + 1):
            for q in monotone_maps(n2, n1):
                operators[(n1, n2, q.images)] = (q, operator_functor(d, q))

    objects, object_names = [], {}
    for n in range(N + 1):
        for x in d.levels[n].objects:
            name = f"({x},{n})"
            object_names[(n, x)] = name
            objects.append(name)

    morphisms, dom, cod = [], {}, {}
    data = {}
    for n1 in range(N + 1):
        for n2 in range(N + 1):
            for q in monotone_maps(n2, n1):
                functor = operators[(n1, n2, q.images)][1]
                for x1 in d.levels[n1].objects:
                    carried = functor.object_map[x1]
                    for f in d.levels[n2].morphisms:
                        if d.levels[n2].dom[f] != carried:
                            continue
                        x2 = d.levels[n2].cod[f]
                        name = (
                            f"({x1},{n1})-({f};q=[{','.join(str(v) for v in q.images)}])"
                            f"->({x2},{n2})"
                        )
                        morphisms.append(name)
                        dom[name] = object_names[(n1, x1)]
                        cod[name] = object_names[(n2, x2)]
                        data[name] = (n1, x1, n2, x2, f, q)

    identity = {}
    for n in range(N + 1):
        ident_q = SimplicialOperator.identity(n)
        for x in d.levels[n].objects:
            ident_f = d.levels[n].identity[x]
            name = f"({x},{n})-({ident_f};q=[{','.join(str(v) for v in ident_q.images)}])->({x},{n})"
            identity[object_names[(n, x)]] = name

    index = {
        (n1, x1, n2, f, q.images): name
        for name, (n1, x1, n2, x2, f, q) in data.items()
    }
    table = {}
    for g, (gn1, gx1, gn2, gx2, gf, gq) in data.items():
        for f, (fn1, fx1, fn2, fx2, ff, fq) in data.items():
            if (fn2, fx2) != (gn1, gx1):
                continue
            carrier = operators[(fn2, gn2, gq.images)][1]
            carried = carrier.morphism_map[ff]
            composite = d.levels[gn2].compose(gf, carried)
            operator = compose_operators(gq, fq)
            table[(g, f)] = index[(fn1, fx1, gn2, composite, operator.images)]
    return FiniteCategory(objects, morphisms, dom, cod, identity, table)


def level_diagram(a: TruncatedSimplicialCategory) -> SimplicialDiagram:
    """The simplicial category seen as a diagram of its level categories."""
    levels = [level_category(a, n) for n in range(a.truncation + 1)]
    face_functors = {}
    degeneracy_functors = {}
    for n in range(1, a.truncation + 1):
        for i in range(n + 1):
            fun = level_functor(a, n, "d", i)
            face_functors[(n, i)] = CatFunctor(
                levels[n], levels[n - 1], fun.object_map, fun.morphism_map
            )
    for n in range(a.truncation):
        for i in range(n + 1):
            fun = level_functor(a, n, "s", i)
            degeneracy_functors[(n, i)] = CatFunctor(
                levels[n], levels[n + 1], fun.object_map, fun.morphism_map
            )
    return SimplicialDiagram(levels, face_functors, degeneracy_functors)


def reference_flatten(a: TruncatedSimplicialCategory) -> Flattening:
    """The flattening over every ordered pair of morphisms, skipping those
    that do not compose, with each composite operator built and validated
    as a :class:`SimplicialOperator`: the earlier construction of
    :func:`hamloc.flatten.flatten`, kept to check it."""
    N = a.truncation
    object_names = {(base, level): flat_object_name(base, level)
                    for base in a.objects for level in range(N + 1)}
    objects = list(object_names.values())

    identities_at = {(base, level): a.identity_at(base, level)
                     for base in a.objects for level in range(N + 1)}
    morphisms, dom, cod, identity = [], {}, {}, {}
    data, index = {}, {}
    marked = []
    for base1, base2 in itertools.product(a.objects, repeat=2):
        hom = a.homs[(base1, base2)]
        for n1 in range(N + 1):
            for n2 in range(N + 1):
                for q in monotone_maps(n2, n1):
                    for simplex, simplex_name in enumerate(hom.levels[n2]):
                        name = (f"{object_names[(base1, n1)]}-"
                                f"{flat_morphism_name(simplex_name, q)}->"
                                f"{object_names[(base2, n2)]}")
                        morphisms.append(name)
                        dom[name] = object_names[(base1, n1)]
                        cod[name] = object_names[(base2, n2)]
                        data[name] = ((base1, n1), (base2, n2), simplex, q)
                        index[(base1, n1, base2, n2, simplex, q.images)] = name
                        if base1 == base2 and simplex == identities_at[(base1, n2)]:
                            marked.append(name)
                            if q.is_identity():
                                identity[object_names[(base1, n1)]] = name

    # the carried simplices and the composites, each asked for once
    carried_of, composite_of = {}, {}
    table = {}
    overflows = 0
    for g, ((gb1, gn1), (gb2, gn2), ga, gq) in data.items():
        for f, ((fb1, fn1), (fb2, fn2), fa, fq) in data.items():
            if (fb2, fn2) != (gb1, gn1):
                continue
            key = (fb1, fb2, gq, fa)
            if key not in carried_of:
                carried_of[key] = apply_operator(a.homs[(fb1, fb2)], gq, fa)
            key = (fb1, fb2, gb2, gn2, ga, carried_of[key])
            if key not in composite_of:
                composite_of[key] = a.composite(*key)
            simplex = composite_of[key]
            if simplex is None:
                overflows += 1
                continue
            operator = compose_operators(gq, fq)
            table[(g, f)] = index[(fb1, fn1, gb2, gn2, simplex, operator.images)]

    cat = FiniteCategory(objects, morphisms, dom, cod, identity, table)
    rel = RelativeCategory(cat, marked)
    return Flattening(rel, N, object_names, index, overflows)


def neglectable_instances():
    """The neglectable relative simplicial categories of acceptance
    criterion 5, by name."""
    iso = inst.walking_iso()
    two_isos = disjoint_union(inst.walking_iso(), inst.walking_iso())
    z2 = inst.group_z2()
    chain = inst.chain3()
    instances = []
    p = promote(iso, 1)
    instances.append(("walking-iso-both-arrows",
                      RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))))
    instances.append(("walking-iso-one-arrow",
                      RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, ["idX", "idY", "u"]))))
    p2 = promote(two_isos, 1)
    instances.append(("two-walking-isos",
                      RelativeSimplicialCategory(p2, sub_from_morphisms(p2, two_isos, two_isos.morphisms))))
    p3 = promote(z2, 1)
    instances.append(("involution-group",
                      RelativeSimplicialCategory(p3, sub_from_morphisms(p3, z2, z2.morphisms))))
    p4 = promote(chain, 1)
    instances.append(("chain-identities",
                      RelativeSimplicialCategory(p4, sub_from_morphisms(p4, chain, chain.identity.values()))))
    z2s = inst.z2_nerve_scat(1)
    full_sub = {("o", "o"): tuple(
        frozenset(z2s.homs[("o", "o")].level(level)) for level in range(2)
    )}
    instances.append(("involution-nerve-category",
                      RelativeSimplicialCategory(z2s, full_sub)))
    return instances


def closed_weq(c: FiniteCategory, rng) -> RelativeCategory:
    """``c`` with its identities plus a random morphism set, closed under
    composition, as weak equivalences."""
    weq = set(c.identity.values()) | {m for m in c.morphisms if rng.random() < 0.4}
    grown = True
    while grown:
        grown = False
        for (g, f), h in c.table.items():
            if g in weq and f in weq and h not in weq:
                weq.add(h)
                grown = True
    return RelativeCategory(c, sorted(weq))


# --- the union-find on hashable items ---------------------------------------
#
# The reference for ``hamloc.fincat.UnionFind``, which runs on the dense
# numbers 0..n-1: the earlier dict-keyed union-find.  The references
# below that join words and vertex names run on it.


class ReferenceUnionFind:
    """Disjoint sets of hashable items.  ``union(a, b)`` keeps the root of
    ``a``; ``find`` of an item that was never added raises KeyError."""

    __slots__ = ("parent",)

    def __init__(self, items=()):
        self.parent = {a: a for a in items}

    def add(self, a):
        self.parent.setdefault(a, a)

    def find(self, a):
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def union_all(self, a, bs):
        """``union(a, b)`` for each ``b`` in ``bs``, finding ``a``'s root once;
        a ``b`` whose parent is that root is skipped without a find."""
        ra = self.find(a)
        find, parent = self.find, self.parent
        for b in bs:
            if parent[b] == ra:
                continue
            rb = find(b)
            if rb != ra:
                parent[rb] = ra

    def groups(self, items) -> dict:
        """Root -> members among ``items``, both in first-occurrence order."""
        groups = {}
        for a in items:
            groups.setdefault(self.find(a), []).append(a)
        return groups


# --- the word oracle's saturation before the snapshot ----------------------
#
# The reference for ``hamloc.relcat.oracle_localized_homset``: two
# union-finds over string words, one at ``max_len`` and one at
# ``max_len + 2``, with every rewrite recomputed per word.


class _ReferenceTables:
    """Per-category lookup tables used by the reference saturation."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        self.cat = c
        self.weq = r.weq
        self.fwd = {
            x: tuple(m for m in c.from_object(x) if not c.is_identity(m)) for x in c.objects
        }
        self.bwd = {
            x: tuple(w for w in c.to_object(x) if w in r.weq and not c.is_identity(w))
            for x in c.objects
        }
        # slide (f g)(b w) <-> (b v)(f g2) whenever g.v == w.g2 with v, w weq
        self.slide_fb = {}
        self.slide_bf = {}
        for g in c.morphisms:
            for w in r.weq:
                if c.cod[g] != c.cod[w]:
                    continue
                hits = []
                for v in r.weq:
                    if c.cod[v] != c.dom[g]:
                        continue
                    gv = c.compose(g, v)
                    for g2 in c.hom(c.dom[v], c.dom[w]):
                        if c.compose(w, g2) == gv:
                            hits.append((v, g2))
                if hits:
                    self.slide_fb[(g, w)] = tuple(hits)
                    for v, g2 in hits:
                        self.slide_bf.setdefault((v, g2), []).append((g, w))
        self.slide_bf = {k: tuple(vs) for k, vs in self.slide_bf.items()}

    def reach_table(self, y, max_len):
        """reach[k] = objects from which y is reachable in <= k letters."""
        c = self.cat
        reach = [set() for _ in range(max_len + 1)]
        reach[0] = {y}
        fwd_pred = {o: set() for o in c.objects}
        bwd_pred = {o: set() for o in c.objects}
        for x in c.objects:
            for m in self.fwd[x]:
                fwd_pred[c.cod[m]].add(x)
            for w in self.bwd[x]:
                bwd_pred[c.dom[w]].add(x)
        for k in range(1, max_len + 1):
            acc = set(reach[k - 1])
            for o in reach[k - 1]:
                acc |= fwd_pred[o]
                acc |= bwd_pred[o]
            reach[k] = acc
        return reach


def _reference_words(tables: _ReferenceTables, x, y, bound):
    """All identity-free typed words x ~> y with length <= bound."""
    c = tables.cat
    reach = tables.reach_table(y, bound)
    words = []
    if x == y:
        words.append(())

    def extend(word, at):
        depth = len(word)
        if depth >= bound:
            return
        remaining = bound - depth - 1
        for m in tables.fwd[at]:
            nxt = c.cod[m]
            if nxt in reach[remaining]:
                w2 = word + (("f", m),)
                if nxt == y:
                    words.append(w2)
                extend(w2, nxt)
        for w in tables.bwd[at]:
            nxt = c.dom[w]
            if nxt in reach[remaining]:
                w2 = word + (("b", w),)
                if nxt == y:
                    words.append(w2)
                extend(w2, nxt)

    extend((), x)
    # the recursive closure is a reference cycle: break it, so that its
    # cells (``words``, ``reach``) are freed now, not at a later collection
    del extend
    return words


def _strip_identities(c: FiniteCategory, letters):
    return tuple(l for l in letters if not c.is_identity(l[1]))


def _reference_rewrites(tables: _ReferenceTables, word):
    """Target words of all single rewrites at any position of ``word``."""
    c = tables.cat
    out = []
    for i in range(len(word) - 1):
        (d1, m1), (d2, m2) = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        if d1 == "f" and d2 == "f":
            out.append(head + _strip_identities(c, (("f", c.compose(m2, m1)),)) + tail)
        elif d1 == "b" and d2 == "b":
            out.append(head + _strip_identities(c, (("b", c.compose(m1, m2)),)) + tail)
        else:
            if m1 == m2:
                out.append(head + tail)
            if d1 == "f" and d2 == "b":
                for v, g2 in tables.slide_fb.get((m1, m2), ()):
                    mid = _strip_identities(c, (("b", v), ("f", g2)))
                    out.append(head + mid + tail)
            else:
                for g, w in tables.slide_bf.get((m1, m2), ()):
                    mid = _strip_identities(c, (("f", g), ("b", w)))
                    out.append(head + mid + tail)
    return out


@dataclass(frozen=True)
class ReferenceHomSet:
    """The reference oracle's answer for one hom-set: ``classes``, a tuple of
    frozensets of words ordered by their shortlex-least word, ``class_of``
    from each word to its class index, and the ``determined`` verdict."""

    classes: tuple
    class_of: dict
    determined: bool

    def class_index(self, word):
        return self.class_of.get(word)


def reference_localized_homset(r: RelativeCategory, x, y, max_len: int) -> ReferenceHomSet:
    """Zigzag-word classes from x to y in the localization, or Undetermined.

    Saturates at ``max_len`` and again at ``max_len + 2``; the answer is
    only reported when the class structure of the shorter-word fragment is
    unchanged by the extra slack (a heuristic, surfaced as ``determined``).
    """
    if x not in r.cat.obj_index or y not in r.cat.obj_index:
        raise InputError("unknown object")
    tables = _ReferenceTables(r)
    big_bound = max_len + 2
    words = _reference_words(tables, x, y, big_bound)
    wordset = set(words)

    uf_small = ReferenceUnionFind(w for w in words if len(w) <= max_len)
    uf_big = ReferenceUnionFind(words)
    for w in words:
        short = len(w) <= max_len
        for target in _reference_rewrites(tables, w):
            if target not in wordset:
                raise RuntimeError("rewrite left the enumerated set")  # pragma: no cover
            uf_big.union(w, target)
            if short and len(target) <= max_len:
                uf_small.union(w, target)

    groups_big = uf_big.groups(words)

    determined = True
    for members in groups_big.values():
        short_members = [w for w in members if len(w) <= max_len]
        if not short_members:
            determined = False
            break
        roots = {uf_small.find(w) for w in short_members}
        if len(roots) > 1:
            determined = False
            break

    classes = tuple(
        sorted(
            (frozenset(g) for g in groups_big.values()),
            key=lambda g: min((len(w), w) for w in g),
        )
    )
    class_of = {}
    for idx, cls in enumerate(classes):
        for w in cls:
            class_of[w] = idx
    return ReferenceHomSet(classes, class_of, determined)


# --- the oracle-ho output on word tuples -------------------------------------
#
# The reference for ``oracle-ho`` (``hamloc.cli``) and
# ``hamloc.relcat.oracle_ho_category``, which read the classes' order, the
# composites and the text off trie node numbers: the earlier path over the
# hom-sets' word classes (``OracleHomSet.classes`` and ``class_of``).  Each
# class is sorted as tuples and its words joined with dots, and a
# composite is the first ``w1 + w2`` that ``class_of`` holds, for the
# members sorted shortest first.


def _shortlex(word):
    return (len(word), word)


def _reference_composite_class(class_of, firsts, seconds):
    for w1 in firsts:
        for w2 in seconds:
            k = class_of.get(w1 + w2)
            if k is not None:
                return k
    return None


def _reference_oracle_category(c: FiniteCategory, pair):
    """The finite category of the classes of ``pair``, or None when an
    identity or a composite is missing."""
    names, dom, cod, morphisms = {}, {}, {}, []
    for x in c.objects:
        for y in c.objects:
            for k in range(len(pair[(x, y)].classes)):
                name = f"{x}->{y}#{k}"
                names[(x, y, k)] = name
                morphisms.append(name)
                dom[name] = x
                cod[name] = y
    identity = {}
    for x in c.objects:
        k = pair[(x, x)].class_of.get(())
        if k is None:
            return None
        identity[x] = names[(x, x, k)]
    ordered = {key: [sorted(cls, key=_shortlex) for cls in hs.classes]
               for key, hs in pair.items()}
    table = {}
    for x in c.objects:
        for y in c.objects:
            for z in c.objects:
                class_of = pair[(x, z)].class_of
                for k1, cls1 in enumerate(ordered[(x, y)]):
                    for k2, cls2 in enumerate(ordered[(y, z)]):
                        found = _reference_composite_class(class_of, cls1, cls2)
                        if found is None:
                            return None
                        table[(names[(y, z, k2)], names[(x, y, k1)])] = names[(x, z, found)]
    return FiniteCategory(c.objects, morphisms, dom, cod, identity, table)


def reference_oracle_ho(r: RelativeCategory, max_len: int):
    """``(exit code, output, verbose lines)`` of ``oracle-ho --max-len
    max_len`` on ``r``: the JSON output before serialization and the
    ``--verbose`` progress lines."""
    c = r.cat
    tables = _RewriteTables(r)
    pair, lines, determined = {}, [], True
    for x in c.objects:
        for hs, edges in _saturate_source(tables, x, max_len):
            pair[(x, hs.y)] = hs
            lines.append(f"pair ({x},{hs.y}): {len(hs.class_of)} words, {edges} rewrite edges, "
                         f"{len(hs.classes)} classes, "
                         f"{'determined' if hs.determined else 'undetermined'}")
            if not hs.determined:
                determined = False
                break
        if not determined:
            break
    category = _reference_oracle_category(c, pair) if determined else None
    output = {
        "max_len": max_len,
        "determined": category is not None,
        "classes": {
            f"{x}|{y}": [[".".join(f"{d}:{m}" for (d, m) in w) for w in sorted(cls)]
                         for cls in hs.classes]
            for (x, y), hs in sorted(pair.items())
        },
    }
    if category is not None:
        output["category"] = category.to_json()
    return (0 if category is not None else 3), output, lines


def reference_iso_classes(c: FiniteCategory) -> list:
    """``hamloc.fincat.iso_classes`` on object names, with the dict-keyed
    union-find."""
    uf = ReferenceUnionFind(c.objects)
    for m in c.morphisms:
        if is_isomorphism(c, m):
            uf.union(c.dom[m], c.cod[m])
    groups = uf.groups(c.objects)
    return [frozenset(groups[r]) for r in sorted(groups, key=c.obj_index.get)]


# --- the equivalence witness with quasi-inverse, unit and counit -----------


@dataclass
class EquivalenceWitness:
    """An equivalence of categories with all the data spelled out.

    ``unit[x] : x -> backward(forward(x))`` and
    ``counit[b] : forward(backward(b)) -> b`` are isomorphisms.
    """

    forward: CatFunctor
    backward: CatFunctor
    unit: dict
    counit: dict


def _is_fully_faithful(fun: CatFunctor) -> bool:
    src, tgt = fun.source, fun.target
    for x in src.objects:
        for y in src.objects:
            image = [fun.morphism_map[m] for m in src.hom(x, y)]
            cell = tgt.hom(fun.object_map[x], fun.object_map[y])
            if len(set(image)) != len(image) or len(image) != len(cell):
                return False
    return True


def _is_essentially_surjective(fun: CatFunctor) -> bool:
    hit = {fun.object_map[x] for x in fun.source.objects}
    return all(cls & hit for cls in reference_iso_classes(fun.target))


def reference_equivalence_from_functor(fun: CatFunctor) -> EquivalenceWitness | None:
    """Upgrade a fully faithful, essentially surjective functor to a full
    equivalence witness (quasi-inverse plus unit/counit).  Returns None if
    the functor is not an equivalence."""
    if validate_functor(fun):
        raise InputError("not a functor")
    if not (_is_fully_faithful(fun) and _is_essentially_surjective(fun)):
        return None
    src, tgt = fun.source, fun.target
    image = {}
    for x in src.objects:
        image.setdefault(fun.object_map[x], x)

    back_obj, counit = {}, {}
    for b in tgt.objects:
        if b in image:
            back_obj[b] = image[b]
            counit[b] = tgt.identity[b]
            continue
        for x in src.objects:
            fx = fun.object_map[x]
            tau = next((t for t in tgt.hom(fx, b) if is_isomorphism(tgt, t)), None)
            if tau is not None:
                back_obj[b] = x
                counit[b] = tau
                break

    def preimage(x, y, target_mor):
        for m in src.hom(x, y):
            if fun.morphism_map[m] == target_mor:
                return m
        return None

    back_mor = {}
    for beta in tgt.morphisms:
        b, b2 = tgt.dom[beta], tgt.cod[beta]
        conj = tgt.compose(inverse(tgt, counit[b2]), tgt.compose(beta, counit[b]))
        back_mor[beta] = preimage(back_obj[b], back_obj[b2], conj)

    backward = CatFunctor(tgt, src, back_obj, back_mor)
    unit = {}
    for x in src.objects:
        fx = fun.object_map[x]
        unit[x] = preimage(x, back_obj[fx], inverse(tgt, counit[fx]))
    return EquivalenceWitness(fun, backward, unit, counit)


# --- the enumeration routines on morphism names ----------------------------
#
# The earlier ``hamloc.hammock`` routines on rows of morphism names, which
# the references below use so that none of them calls a numbered routine:
# the enumeration context (``paths``, ``extensions`` and ``right_factor``),
# the normal form with both move orders, the degeneracy, the identity mask,
# ``_with_ends``, the junction cascade of composition and the entrywise
# image of a hammock under a morphism map, unchanged.


def _normal_form(cat: FiniteCategory, directions, rows, layers, strategy="leftmost"):
    """The reduced normal form of a grid given as plain tuples: delete
    all-identity columns and merge equal-direction neighbours until
    neither applies.  The move is the leftmost one (a deletion before a
    merge at the same column) or the rightmost one (a merge first); the
    normal form does not depend on the order.  ``layers`` may be empty,
    which skips the vertical checks: verticals never change the width.
    A merge whose composite ``cat`` lacks raises CompositionUnavailable."""
    leftmost = strategy == "leftmost"
    directions = list(directions)
    rows = [list(row) for row in rows]
    layers = [list(layer) for layer in layers]
    while True:
        width = len(directions)
        move = None
        for col in (range(width) if leftmost else reversed(range(width))):
            mergeable = col + 1 < width and directions[col] == directions[col + 1]
            if mergeable and not leftmost:
                move = (col, True)
            elif all(cat.is_identity(row[col]) for row in rows):
                move = (col, False)
            elif mergeable:
                move = (col, True)
            if move is not None:
                break
        if move is None:
            return tuple(directions), tuple(map(tuple, rows)), tuple(map(tuple, layers))
        col, merge = move
        if merge:
            forward = directions[col] == "f"
            for row in rows:
                a, b = row[col], row.pop(col + 1)
                row[col] = cat.compose(b, a) if forward else cat.compose(a, b)
            del directions[col + 1]
            for layer in layers:
                del layer[col]
        else:
            # the two vertex lines of the deleted column become one
            boundary = col in (0, width - 1)
            at = col - 1 if col == width - 1 else col
            for layer in layers if width > 1 else ():
                if boundary and not cat.is_identity(layer[at]):
                    raise ConsistencyError("boundary identity column with non-identity vertical")
                if not boundary and layer[col - 1] != layer[col]:
                    raise ConsistencyError("identity column flanked by unequal verticals")
                del layer[at]
            del directions[col]
            for row in rows:
                del row[col]



class _NamedContext:
    """Per-relative-category lookup tables for hammock enumeration."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        self.cat = c
        self.weq = set(r.weq)
        self.from_any = {x: tuple(c.from_object(x)) for x in c.objects}
        self.weq_into = {
            x: tuple(m for m in c.to_object(x) if m in r.weq) for x in c.objects
        }
        self.weq_from = {
            x: tuple(m for m in c.from_object(x) if m in r.weq) for x in c.objects
        }
        self.identities = frozenset(c.identity.values())
        self.fwd_adj = {x: {c.cod[m] for m in self.from_any[x]} for x in c.objects}
        self.weq_src_adj = {x: {c.dom[m] for m in self.weq_into[x]} for x in c.objects}

    @cached_property
    def right_factor(self):
        """(f, h) -> the g with g after f equal to h ("full" detail)."""
        right = {}
        for (g, f), h in self.cat.table.items():
            right.setdefault((f, h), []).append(g)
        return {k: tuple(v) for k, v in right.items()}


    def paths(self, x, y, directions):
        """All rows (identity entries allowed) from x to y along the
        direction pattern."""
        width = len(directions)
        if width == 0:
            return [()] if x == y else []
        feasible = [set() for _ in range(width + 1)]
        feasible[width] = {y}
        for col in range(width - 1, -1, -1):
            if directions[col] == "f":
                feasible[col] = {
                    u for u in self.cat.objects if self.fwd_adj[u] & feasible[col + 1]
                }
            else:
                feasible[col] = {
                    u for u in self.cat.objects if self.weq_src_adj[u] & feasible[col + 1]
                }
        if x not in feasible[0]:
            return []
        cat = self.cat
        out = []

        def walk(col, at, row):
            if col == width:
                if at == y:
                    out.append(row)
                return
            if directions[col] == "f":
                for m in self.from_any[at]:
                    nxt = cat.cod[m]
                    if nxt in feasible[col + 1]:
                        walk(col + 1, nxt, row + (m,))
            else:
                for m in self.weq_into[at]:
                    nxt = cat.dom[m]
                    if nxt in feasible[col + 1]:
                        walk(col + 1, nxt, row + (m,))

        walk(0, x, ())
        return out

    def extensions(self, directions, row, vertices, nonidentity):
        """All (interior verticals, next row) pairs below ``row`` whose next
        row has no identity entry in the columns of the bitmask
        ``nonidentity`` (0: every pair).  With the columns in which every
        row of a grid is an identity, the next rows are exactly those that
        make the taller grid reduced (:func:`_identity_mask`)."""
        width = len(directions)
        if width == 0:
            yield (), ()
            return
        cat = self.cat
        table = cat.table
        right = self.right_factor
        weq = self.weq
        identities = self.identities
        id_end = cat.identity[vertices[width]]

        def rec(col, vprev, vacc, racc):
            if col == width:
                yield vacc, racc
                return
            if col + 1 == width:
                candidates = (id_end,)
            else:
                candidates = self.weq_from[vertices[col + 1]]
            h = row[col]
            forward = directions[col] == "f"
            for vnext in candidates:
                if forward:
                    target = table.get((vnext, h))
                    sols = right.get((vprev, target), ()) if target is not None else ()
                else:
                    target = table.get((vprev, h))
                    sols = tuple(
                        s for s in right.get((vnext, target), ()) if s in weq
                    ) if target is not None else ()
                if nonidentity >> col & 1:
                    sols = [s for s in sols if s not in identities]
                if not sols:
                    continue
                vacc2 = vacc if col + 1 == width else vacc + (vnext,)
                for h2 in sols:
                    yield from rec(col + 1, vnext, vacc2, racc + (h2,))

        yield from rec(0, cat.identity[vertices[0]], (), ())



def _identity_mask(cat, row):
    """Bit ``col`` is set when ``row[col]`` is an identity.  A grid along
    an alternating pattern is reduced exactly when the masks of its rows
    have no bit in common."""
    mask = 0
    for col, m in enumerate(row):
        if cat.is_identity(m):
            mask |= 1 << col
    return mask



def _with_ends(ctx, grid, vacc, width):
    cat = ctx.cat
    return (cat.identity[grid[0]],) + tuple(vacc) + (cat.identity[grid[width]],)



def _degeneracy(ctx, h: Hammock, i) -> str:
    """The name of the i-th degeneracy of ``h``: repeat row i with an
    identity layer.  Its rows are those of ``h``, so it is reduced."""
    cat = ctx.cat
    rows = h.rows[:i + 1] + (h.rows[i],) + h.rows[i + 1:]
    vertices = row_vertices(cat, h.source, h.directions, h.rows[i]) if h.width else (h.source,)
    identity_layer = tuple(cat.identity[v] for v in vertices[1:-1]) if h.width else ()
    layers = h.verticals[:i] + (identity_layer,) + h.verticals[i:]
    return hammock_name(h.directions, rows, layers)


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


def _map_hammock(morphism_map, h: Hammock):
    """The entrywise image of ``h`` as a plain ``(directions, rows,
    layers)`` grid, not reduced."""
    rows = tuple(tuple(morphism_map[m] for m in row) for row in h.rows)
    verticals = tuple(tuple(morphism_map[v] for v in layer) for layer in h.verticals)
    return h.directions, rows, verticals



def reference_reduce_hammock(r: RelativeCategory, h: Hammock, strategy: str = "leftmost") -> Hammock:
    """The normal form of ``h`` (see :func:`_normal_form`).  The move order
    is a strategy knob so confluence can be tested."""
    if strategy not in ("leftmost", "rightmost"):
        raise InputError("strategy must be leftmost or rightmost")
    return Hammock(h.source, h.sink,
                   *_normal_form(r.cat, h.directions, h.rows, h.verticals, strategy))


# --- the numbered routines before the column-step table and the namer ------
#
# ``hamloc.hammock._Context.extensions`` as a generator that derives every
# column step anew, given the row's objects (``reference_row_objects``),
# and the simplex name of a grid of morphism numbers as ``repr`` of the
# mapped grid, unchanged but for ``self`` becoming ``ctx``.


def reference_row_objects(ctx, x, directions, row):
    """The objects 0..width along a row that starts at ``x``."""
    objects = [x]
    for d, m in zip(directions, row):
        objects.append(ctx.cod[m] if d == "f" else ctx.dom[m])
    return tuple(objects)


def reference_extensions(ctx, directions, row, objects, nonidentity):
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
    post, right, right_weq = ctx.post, ctx.right, ctx.right_weq
    identities = ctx.identities
    id_end = ctx.identity[objects[width]]

    def rec(col, vprev, vacc, racc):
        if col == width:
            yield vacc, racc
            return
        if col + 1 == width:
            candidates = (id_end,)
        else:
            candidates = ctx.weq_from[objects[col + 1]]
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

    yield from rec(0, ctx.identity[objects[0]], (), ())



# --- full-detail enumeration on rows, not row numbers ------------------------
#
# The reference for ``hamloc.hammock._mapping_space`` in "full" detail as
# it was before rows were numbered in one trie per mapping space: rows 0
# and 1 come from one column walk over the rows of ``_Context.paths``, in
# its order, each further row is built below a
# row's entries, every face is keyed and reduced on whole rows, and each
# level is sorted by :func:`reference_order`.  The code is the earlier
# one, the context's methods made functions of the context.


def reference_order(ctx: hammock._Context, grids) -> list:
    """The numbers of ``grids``, the simplices of one level of one mapping
    space, sorted by their (width, name) without a name: by (width,
    pattern, key), where the key joins ``ctx.rank_chars`` of the grid's
    entries, rows first, then vertical layers, each row's text made once.

    This orders like the name.  The name :func:`hammock_name` is ``repr``
    of ``(directions, rows, layers)``: the pattern first, and ``('b', ...``
    sorts before ``('f', ...`` of the same width.  Within one pattern and
    one height every name has the same tuple shape, so two names agree up
    to the text of their first differing entry, ``repr`` of two morphism
    names.  A str ``repr`` is a self-delimiting literal: it ends at the
    first unescaped quote of its kind, so none is a proper prefix of
    another, and the two texts differ at some character that decides both
    their order and that of the names.  So the names sort as the grids'
    entries do, compared lexicographically by the rank of their ``repr``;
    the keys, of equal length, are those rank sequences."""
    chars, texts = ctx.rank_chars, {}

    def text(row):
        t = texts.get(row)
        if t is None:
            t = texts[row] = "".join([chars[m] for m in row])
        return t

    keys = [(len(directions), directions, "".join([text(row) for row in rows]
                                                   + [text(layer) for layer in layers]))
            for directions, rows, layers in grids]
    return sorted(range(len(grids)), key=keys.__getitem__)


def reference_numbered_mapping_space(r: RelativeCategory, x, y, truncation,
                                     w_max) -> MappingSpace:
    """The "full" detail mapping space from ``x`` to ``y``, with the
    counts (``face_normal_forms``, ``extension_rows``) the progress output
    reads."""
    return _reference_numbered_mapping_space(hammock._Context(r), x, y, truncation, w_max)


def _reference_numbered_mapping_space(ctx, x, y, truncation, w_max) -> MappingSpace:
    # the vertices, and the two-row grids of morphism numbers
    vertices, grown = [], []
    for pattern in _patterns(w_max):
        if not pattern and x != y:
            continue
        for row, mask, below in _numbered_two_rows(ctx, x, y, pattern, truncation == 1):
            # no identity entry along an alternating pattern: reduced
            if not mask:
                vertices.append((pattern, (row,), ()))
            grown += [(pattern, (row, row1), (vacc,)) for vacc, row1 in below]
    extension_rows = len(grown)

    # Grow one height at a time, and keep only the simplices all of whose
    # faces are kept: over a partially represented ambient category a face
    # can need a composite outside the width bound, and such simplices
    # cannot be carried in the truncated data.  Each level is sorted by
    # (width, name) as soon as it is kept (:func:`reference_order`), so the
    # level above finds its faces by number in ``below`` (grid -> number);
    # ``memo`` maps a dropped grid to its normal form, or False when that
    # needs a missing composite, seeded with the vertices.
    level_grids = [tuple(vertices[n] for n in reference_order(ctx, vertices))]
    below = {grid: n for n, grid in enumerate(level_grids[0])}
    memo = {grid: grid for grid in level_grids[0]}
    pruned = False
    faces, degeneracies = [()], []
    for k in range(1, truncation + 1):
        top = k == truncation
        # ``live``: the kept and the unreduced grids, each with its identity
        # mask (:func:`_numbered_identity_mask`)
        kept, images, live = [], [], []
        for grid in grown:
            # the last rows at the top were built to make their grids reduced
            common = 0 if top else _numbered_identity_mask(ctx.identities, grid[1])
            if not common:
                try:
                    numbers = [below.get(_numbered_face(ctx, grid, i, memo))
                               for i in range(k + 1)]
                except CompositionUnavailable:
                    numbers = (None,)
                if None in numbers:
                    pruned = True
                    continue
                kept.append(grid)
                images.append(numbers)
            if not top:
                live.append((grid, common))
        del grown  # free the pruned grids before the level is numbered
        order = reference_order(ctx, kept)
        level_grids.append(tuple(kept[n] for n in order))
        below = {grid: n for n, grid in enumerate(level_grids[k])}
        faces.append([[images[n][i] for n in order] for i in range(k + 1)])
        degeneracies.append([[below.get(_numbered_degeneracy(ctx, grid, i))
                              for grid in level_grids[k - 1]] for i in range(k)])
        if any(None in column for column in degeneracies[-1]):
            raise ConsistencyError("degeneracy left the kept set")
        # Only the grids of ``live`` grow: d_{k+1} of a grid grown from a
        # reduced grid G is G itself, so all are pruned below a pruned G.
        # An unreduced grid can become reduced lower down, so a row is built
        # unfiltered, except the last, which must clear the mask's columns.
        last = k + 1 == truncation
        grown = [(directions, rows + (row2,), layers + (vacc,))
                 for (directions, rows, layers), common in live
                 for vacc, row2 in _numbered_extensions(ctx, directions, rows[-1], x,
                                                       common if last else 0)]
        extension_rows += len(grown)
    sset = TruncatedSimplicialSet(
        truncation, [hammock.Names(grids, ctx.namer) for grids in level_grids], faces,
        degeneracies)

    # level 1 is sorted by width: the snapshot before the first edge of
    # width w_max is the partition one width bound lower
    vertices = range(len(level_grids[0]))
    components = hammock.UnionFind(len(vertices))
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
    return MappingSpace(x, y, truncation, w_max, verdict, sset.levels[0],
                        partition, sset, tuple(level_grids), pruned,
                        len(level_grids[1]), face_normal_forms=len(memo) - len(level_grids[0]),
                        extension_rows=extension_rows)


def _numbered_identity_mask(identities, rows):
    """Bit ``col`` is set when every one of ``rows`` has an identity in
    column ``col``.  A grid along an alternating pattern is reduced
    exactly when the mask of its rows is 0."""
    mask = 0
    for col, column in enumerate(zip(*rows)):
        if identities.issuperset(column):
            mask |= 1 << col
    return mask


def _numbered_face(ctx, grid, i, memo):
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
        reduced = memo[key] = hammock._normal_form(ctx.post, ctx.identities, *key) or False
    if reduced is False:
        raise CompositionUnavailable("face needs a composite the table lacks")
    return reduced


def _numbered_degeneracy(ctx, grid, i):
    """The i-th degeneracy of a grid of morphism numbers: repeat row i with
    an identity layer, on the objects its entries end at.  Its rows are
    those of the grid, so it is reduced when the grid is."""
    directions, rows, layers = grid
    identity, dom, cod = ctx.identity, ctx.dom, ctx.cod
    identity_layer = tuple(identity[cod[m] if d == "f" else dom[m]]
                           for d, m in zip(directions[:-1], rows[i]))
    return (directions, rows[:i + 1] + (rows[i],) + rows[i + 1:],
            layers[:i] + (identity_layer,) + layers[i:])


def _numbered_two_rows(ctx, x, y, directions, masked):
    """Each row 0 from x to y along the direction pattern, as
    :meth:`_Context.paths` builds it, with its identity mask
    (:func:`_numbered_identity_mask`) and the (interior verticals, row 1) pairs
    below it that :func:`_numbered_extensions` gives with the nonidentity mask
    ``masked and mask`` (``masked``: row 1 is the last row), except the
    rows that are not reduced and have no pair.  One walk builds both
    rows column by column: a row-0 prefix carries its partial rows 1,
    so rows 0 that share a prefix share its column steps, and a prefix
    is dropped as soon as neither a reduced row 0 nor a row 1 can
    follow it."""
    width = len(directions)
    if width == 0:
        return [((), 0, [((), ())])] if x == y else []
    feasible = ctx._feasible(y, directions)
    if x not in feasible[0]:
        return []
    dom, cod, identities = ctx.dom, ctx.cod, ctx.identities
    # the partial rows 0 after each column, in order: (object, entries,
    # identity mask, the partial rows 1 below them)
    partial = [(x, (), 0, [(ctx.identity[x], (), ())])]
    for col in range(width):
        forward, last, reach = directions[col] == "f", col == width - 1, feasible[col + 1]
        grown = []
        for at, row, mask, below in partial:
            for h in ctx.from_any[at] if forward else ctx.weq_into[at]:
                nxt = cod[h] if forward else dom[h]
                if nxt not in reach:
                    continue
                bit = 1 if h in identities else 0
                below2 = _numbered_column(ctx, below, forward, h, last, bit if masked else 0)
                mask2 = mask | bit << col
                if below2 or not mask2:
                    grown.append((nxt, row + (h,), mask2, below2))
        partial = grown
    return [(row, mask, [(vacc, racc) for _, vacc, racc in below])
            for _, row, mask, below in partial]

def _numbered_extensions(ctx, directions, row, x, nonidentity):
    """All (interior verticals, next row) pairs below ``row``, which
    starts at ``x``, whose next row has no identity entry in the columns
    of the bitmask ``nonidentity`` (0: every pair), in the order of a
    depth-first walk.  With the columns in which every row of a grid is
    an identity, the next rows are exactly those that make the taller
    grid reduced (:func:`_numbered_identity_mask`).  The pairs are built column
    by column, each column step looked up in ``steps``."""
    width = len(directions)
    if width == 0:
        return [((), ())]
    # the partial rows after each column, in order
    partial = [(ctx.identity[x], (), ())]
    for col in range(width):
        partial = _numbered_column(ctx, partial, directions[col] == "f", row[col], col == width - 1,
                               nonidentity >> col & 1)
    return [(vacc, racc) for _, vacc, racc in partial]

def _numbered_column(ctx, partial, forward, h, last, nonidentity):
    """The partial rows ``partial`` (vertical, verticals, entries) below
    a row, in order, each grown by the column steps below the entry
    ``h``, in order; ``forward``, ``last`` and ``nonidentity`` are as in
    :attr:`_Context.steps`."""
    steps = ctx.steps
    grown = []
    for vprev, vacc, racc in partial:
        key = (forward, vprev, h, last, nonidentity)
        options = steps.get(key)
        if options is None:
            options = ctx._step(key)
        for vnext, sols in options:
            # the end identity after the last column is no interior vertical
            vacc2 = vacc if last else vacc + (vnext,)
            for h2 in sols:
                grown.append((vnext, vacc2, racc + (h2,)))
    return grown


def _grid_name(morphisms, grid) -> str:
    """The simplex name of a grid of morphism numbers."""
    directions, rows, layers = grid
    return hammock_name(directions, _mapped(morphisms, rows), _mapped(morphisms, layers))


def sset_from_keyed(truncation, levels, faces, degeneracies) -> TruncatedSimplicialSet:
    """The simplicial set whose face and degeneracy images are given by
    name in dicts keyed ``(k, name, i)``, the earlier layout, read through
    the library's one name-keyed converter."""
    shaped = []
    for keyed in (faces, degeneracies):
        named = {}
        for (k, name, i), image in sorted(keyed.items(), key=lambda item: item[0][2]):
            named.setdefault(k, {}).setdefault(name, []).append(image)
        shaped.append(named)
    return TruncatedSimplicialSet.from_named(truncation, levels, *shaped)


# --- full-detail hammock enumeration without the last-row mask or memos ----
#
# The reference for ``hamloc.hammock._mapping_space`` in "full" detail and
# for ``RelscatLocalization._diagonal``: every grid is grown row by row and
# checked for reducedness at every height, and every face and every
# diagonal face image is reduced anew.  The three enumeration routines are
# the earlier ones with the "pi0" branch left out; the diagonal is the
# earlier method body as a function.


def reference_mapping_space(r: RelativeCategory, x, y, truncation, w_max) -> MappingSpace:
    """The "full" detail mapping space from ``x`` to ``y``."""
    return _reference_mapping_space(_NamedContext(r), x, y, truncation, w_max)


def _reference_mapping_space(ctx: _NamedContext, x, y, truncation, w_max) -> MappingSpace:
    cat = ctx.cat
    vertices = []
    components = ReferenceUnionFind()
    sub = None
    simplices = [dict() for _ in range(truncation + 1)]

    def note_simplex(level, h):
        simplices[level][h.name] = h

    for pattern in _patterns(w_max):
        width = len(pattern)
        if width == 0 and x != y:
            continue
        rows0 = ctx.paths(x, y, pattern)
        for row in rows0:
            # no identity entry along an alternating pattern: reduced
            if ctx.identities.isdisjoint(row):
                h = Hammock(x, y if width else x, pattern, (row,), ())
                vertices.append(h)
                components.add(h.name)
                simplices[0][h.name] = h
        for row in rows0:
            vs = row_vertices(cat, x, pattern, row) if width else (x,)
            _reference_grow(ctx, x, y, pattern, [row], [vs], [], truncation, note_simplex)

    vertices.sort(key=lambda h: (h.width, h.name))
    vertex_names = [h.name for h in vertices]

    # Keep only simplices all of whose iterated faces are representable:
    # over a partially represented ambient category a face can need a
    # composite outside the width bound, and such simplices cannot be
    # carried in the truncated data.
    kept = [dict(simplices[0])]
    face_cache = {}
    pruned = False
    for k in range(1, truncation + 1):
        level_kept = {}
        for name, h in simplices[k].items():
            try:
                images = [_reference_face(ctx, h, i) for i in range(k + 1)]
            except CompositionUnavailable:
                pruned = True
                continue
            if all(img in kept[k - 1] for img in images):
                level_kept[name] = h
                for i, img in enumerate(images):
                    face_cache[(k, name, i)] = img
            else:
                pruned = True
        kept.append(level_kept)

    levels = [
        tuple(sorted(kept[k], key=lambda n: (kept[k][n].width, n)))
        for k in range(truncation + 1)
    ]
    degeneracies = {}
    for k in range(truncation):
        for name, h in kept[k].items():
            for i in range(k + 1):
                img = _degeneracy(ctx, h, i)
                if img not in kept[k + 1]:
                    raise ConsistencyError("degeneracy left the kept set")
                degeneracies[(k, name, i)] = img
    sset = sset_from_keyed(truncation, levels, face_cache, degeneracies)
    by_name = {h.name: h for level in kept for h in level.values()}

    # levels[1] is sorted by width: the snapshot before the first edge of
    # width w_max is the partition one width bound lower
    sub_names = [h.name for h in vertices if h.width < w_max]
    for s in levels[1]:
        if sub is None and by_name[s].width == w_max:
            sub = Partition.of(components, sub_names)
        components.union(face_cache[(1, s, 1)], face_cache[(1, s, 0)])
    if sub is None:
        sub = Partition.of(components, sub_names)
    partition = Partition.of(components, vertex_names)
    verdict = "bound_limited" if pruned else _stability(partition, sub)
    # the reference keeps each level's simplices as Hammock objects
    return MappingSpace(x, y, truncation, w_max, verdict, tuple(vertices), partition, sset,
                        level_grids=tuple(tuple(by_name[n] for n in level) for level in levels),
                        pruned=pruned, grids=len(levels[1]))


def _reference_grow(ctx, x, y, pattern, rows, grids, layers, truncation, note_simplex):
    """Extend the grid one row at a time, recording reduced simplices."""
    cat = ctx.cat
    width = len(pattern)
    height = len(rows) - 1
    if height >= 1:
        common = -1
        for row in rows:
            common &= _identity_mask(cat, row)
        if not common:
            note_simplex(height, Hammock(x, y if width else x, pattern, rows, layers))
    if height == truncation:
        return
    for vacc, row2 in ctx.extensions(pattern, rows[-1], grids[-1], 0):
        if width:
            grid2 = tuple(cat.cod[v] for v in _with_ends(ctx, grids[-1], vacc, width))
        else:
            grid2 = (x,)
        _reference_grow(ctx, x, y, pattern, rows + [row2], grids + [grid2], layers + [vacc],
                        truncation, note_simplex)


def _reference_face(ctx, h: Hammock, i) -> str:
    """The name of the i-th face of ``h``: drop row i, compose the two
    vertical layers at it, and reduce."""
    cat = ctx.cat
    k = h.height
    rows = h.rows[:i] + h.rows[i + 1:]
    if i == 0:
        layers = h.verticals[1:]
    elif i == k:
        layers = h.verticals[:-1]
    else:
        fused = tuple(
            cat.compose(h.verticals[i][j], h.verticals[i - 1][j])
            for j in range(len(h.verticals[i]))
        )
        layers = h.verticals[:i - 1] + (fused,) + h.verticals[i + 1:]
    return hammock_name(*_normal_form(cat, h.directions, rows, layers))


def reference_diagonal(rl, x, y) -> TruncatedSimplicialSet:
    """The diagonal hom from ``x`` to ``y`` of the dimensionwise
    localization ``rl``: a face or degeneracy maps each level-n simplex
    under the outer map, then takes the inner one; each outer face image
    is reduced anew."""
    ambient = rl.rs.ambient
    outer = {(n, "d", i): level_map(ambient, n, "d", i)
             for n in range(1, rl.truncation + 1) for i in range(n + 1)}
    outer.update({(n, "s", i): level_map(ambient, n, "s", i)
                  for n in range(rl.truncation) for i in range(n + 1)})
    spaces = [rl.row_spaces[(x, y, n)] for n in range(rl.truncation + 1)]
    levels = [ms.sset.level(n) for n, ms in enumerate(spaces)]
    faces, degeneracies = {}, {}
    for (n, kind, i), names in outer.items():
        m = n - 1 if kind == "d" else n + 1
        rel, target = rl.level_rel[m], spaces[m]
        for name in levels[n]:
            grid = _map_hammock(names, simplex_hammock(rl.level_rel[n], spaces[n], n, name))
            if kind == "d":
                grid = _normal_form(rel.cat, *grid)
            image = hammock_name(*grid)
            if not target.sset.has_simplex(n, image):
                raise ConsistencyError("entrywise image missing from enumeration")
            image = target.sset.number[n][image]
            if kind == "d":
                faces[(n, name, i)] = levels[n - 1][target.sset.faces[n][i][image]]
            else:
                degeneracies[(n, name, i)] = levels[n + 1][target.sset.degeneracies[n][i][image]]
    return sset_from_keyed(rl.truncation, levels, faces, degeneracies)


# --- pi0 mapping space on string-keyed rows -------------------------------
#
# The reference for ``hamloc.hammock._pi0_walk``, one relative category
# at a time (the walk's second space is compared with a run of this on
# the relative category with the smaller weak equivalences): rows are
# tuples of morphism names, the union-find runs over vertex names, every
# row's name (or False for a dead row) is cached, and composites and
# right factors are looked up in tuple-keyed tables.  It is the earlier
# "pi0" branch and its walk of generator steps, unchanged.


def reference_pi0_mapping_space(r: RelativeCategory, x, y, truncation, w_max) -> MappingSpace:
    """The "pi0" detail mapping space from ``x`` to ``y``."""
    ctx = _NamedContext(r)
    c = ctx.cat
    moves = {z: tuple(m for m in c.from_object(z) if m in ctx.weq and not c.is_identity(m))
             for z in c.objects}
    vertices = []
    components = ReferenceUnionFind()
    sub = None
    grids = fallback_rows = 0
    for pattern in _patterns(w_max):
        width = len(pattern)
        if width == 0 and x != y:
            continue
        if width == w_max and sub is None:
            # every narrower edge is in: the partition of a run at w_max-1
            sub = Partition.of(components, [h.name for h in vertices])
        rows0 = ctx.paths(x, y, pattern)
        names = {}
        for row in rows0:
            # no identity entry along an alternating pattern: reduced
            if ctx.identities.isdisjoint(row):
                h = Hammock(x, y if width else x, pattern, (row,), ())
                vertices.append(h)
                components.add(h.name)
                names[row] = h.name
        for upper, lowers, fallback in _reference_pi0_edges(ctx, moves, pattern, rows0, names):
            grids += len(lowers)
            fallback_rows += fallback
            components.union_all(upper, lowers)

    vertices.sort(key=lambda h: (h.width, h.name))
    partition = Partition.of(components, [h.name for h in vertices])
    return MappingSpace(x, y, truncation, w_max, _stability(partition, sub),
                        tuple(vertices), partition, None, level_grids=(tuple(vertices),),
                        grids=grids, fallback_rows=fallback_rows)


def _reference_pi0_edges(ctx, moves, pattern, rows0, names):
    """For each live row of ``rows0``: its vertex name, the names of the
    live rows it is joined to along generator grids (following chains of
    generator steps through dead rows), and whether it took that
    fallback.  ``names`` caches each row's name, False for a dead row."""
    cat = ctx.cat
    width = len(pattern)
    if not width:
        return
    dom, cod, table_get = cat.dom, cat.cod, cat.table.get
    right_get = ctx.right_factor.get
    weq = ctx.weq

    def name_of(row):
        name = names.get(row)
        if name is None:
            try:
                name = hammock_name(*_normal_form(cat, pattern, (row,), ()))
            except CompositionUnavailable:
                name = False
            names[row] = name
        return name

    interior = tuple(range(1, width))
    for row in rows0:
        upper = name_of(row)
        if upper is False:
            continue
        lowers, seen = set(), set()
        chains = [(row, interior)]
        while chains:
            at, free = chains.pop()
            for i in free:
                left, right = at[i - 1], at[i]
                head, tail = at[:i - 1], at[i + 1:]
                sink = pattern[i - 1] == "f"
                if sink:
                    lows = []
                    for v in moves[cod[left]]:
                        a, b = table_get((v, left)), table_get((v, right))
                        if a is not None and b is not None:
                            lows.append(head + (a, b) + tail)
                else:
                    lows = [head + (a, b) + tail for v in moves[dom[left]]
                            for a in right_get((v, left), ()) if a in weq
                            for b in right_get((v, right), ())]
                rest = None
                for row2 in lows:
                    name = name_of(row2)
                    if name is not False:
                        lowers.add(name)
                        continue
                    if rest is None:
                        rest = tuple(j for j in free
                                     if j != i and (sink or pattern[j - 1] == "b"))
                    if (row2, rest) not in seen:
                        seen.add((row2, rest))
                        chains.append((row2, rest))
        yield upper, lowers, bool(seen)


# --- the induced homology check through a kernel basis ----------------------
#
# The reference for ``hamloc.scat._induced_homology_iso``, which compares
# ranks of one block matrix: the earlier check maps a rational basis of
# the cycles and compares the rank of their images with the boundaries.
# Its reduced row echelon form is also the earlier ``rational_rank``.


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


def reference_induced_homology_iso(fun, x, y, level, src_hom, tgt_hom, src_report, tgt_report):
    """Rank-over-Q check that H_level of the mapped pair is an iso,
    given equal free ranks and torsion."""
    if src_report.group(level).free_rank != tgt_report.group(level).free_rank:
        return False
    if src_report.group(level).torsion != tgt_report.group(level).torsion:
        return False
    betti = src_report.group(level).free_rank
    if betti == 0:
        return True
    del_src, _, _ = boundary_matrix(src_hom, level)
    kernel = rational_kernel_basis(del_src) if del_src and del_src[0] else [
        [1 if i == j else 0 for i in range(len(src_hom.nondegenerate(level)))]
        for j in range(len(src_hom.nondegenerate(level)))
    ]
    # the chain map, read off the simplex map by name
    names = src_hom.levels[level]
    tgt_index = {tgt_hom.levels[level][t]: i for i, t in enumerate(tgt_hom.nondegenerate(level))}
    src_basis = src_hom.nondegenerate(level)
    fmat = [[0] * len(src_basis) for _ in tgt_index]
    smap = simplex_names(fun)
    for j, s in enumerate(src_basis):
        i = tgt_index.get(smap[(x, y, level, names[s])])
        if i is not None:
            fmat[i][j] = 1
    mapped = [
        [sum(fmat[i][k] * vec[k] for k in range(len(vec))) for vec in kernel]
        for i in range(len(fmat))
    ]
    if level + 1 <= tgt_hom.truncation:
        del_tgt, _, _ = boundary_matrix(tgt_hom, level + 1)
    else:
        del_tgt = []
    image_cols = len(del_tgt[0]) if del_tgt and del_tgt[0] else 0
    combined = [
        mapped[i] + (del_tgt[i] if image_cols else [])
        for i in range(len(fmat))
    ]
    rank_image = rational_rank(del_tgt) if image_cols else 0
    rank_combined = rational_rank(combined) if combined and combined[0] else 0
    return rank_combined - rank_image == betti


# --- the simplicial-category checks on simplex names ----------------------
#
# The references for ``validate_scat``, ``validate_relscat``,
# ``is_neglectable``, ``validate_simplicial_functor`` and ``check_dk``:
# the earlier routines, which composed, took faces and identities, and
# partitioned components by simplex name.  They read the numbered data
# through the name helpers below; every law is checked on names.


def _face_name(sset, k, i, name):
    return sset.levels[k - 1][sset.faces[k][i][sset.number[k][name]]]


def _degeneracy_name(sset, k, i, name):
    return sset.levels[k + 1][sset.degeneracies[k][i][sset.number[k][name]]]


def _composite_name(a, x, y, z, level, g, f):
    """The name of g after f (by name), None when not represented; a
    composite outside hom(x, z) comes back as ``("unknown", number)``."""
    h = a.composite(x, y, z, level, a.homs[(y, z)].number[level][g],
                    a.homs[(x, y)].number[level][f])
    if h is None:
        return None
    names = a.homs[(x, z)].levels[level]
    return names[h] if 0 <= h < len(names) else ("unknown", h)


def _identity_name(a, x, level):
    sset = a.homs[(x, x)]
    name = sset.levels[0][a.identities[x]]
    for k in range(level):
        name = _degeneracy_name(sset, k, 0, name)
    return name


def reference_validate_scat(a) -> list[str]:
    report = []
    for x in a.objects:
        for y in a.objects:
            if (x, y) not in a.homs:
                report.append(f"missing hom ({x},{y})")
                continue
            for line in validate_sset(a.homs[(x, y)]):
                report.append(f"hom ({x},{y}): {line}")
    if report:
        return report
    N = a.truncation
    # a composer keeps no answers: the reference keeps its own
    comp = cache(partial(_composite_name, a))

    for x, y, z in itertools.product(a.objects, repeat=3):
        for level in range(N + 1):
            for g in a.homs[(y, z)].level(level):
                for f in a.homs[(x, y)].level(level):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        if a.has_table():
                            report.append(
                                f"missing composite ({x},{y},{z}) level {level}: ({g},{f})")
                    elif not a.homs[(x, z)].has_simplex(level, h):
                        report.append(f"composite not in hom ({x},{z}) level {level}: ({g},{f})")
    if report:
        return report
    for x, y in itertools.product(a.objects, repeat=2):
        for level in range(N + 1):
            idx = _identity_name(a, x, level)
            idy = _identity_name(a, y, level)
            for f in a.homs[(x, y)].level(level):
                if comp(x, y, y, level, idy, f) not in (None, f):
                    report.append(f"unit: id.{f} at ({x},{y}) level {level}")
                if comp(x, x, y, level, f, idx) not in (None, f):
                    report.append(f"unit: {f}.id at ({x},{y}) level {level}")
    for w, x, y, z in itertools.product(a.objects, repeat=4):
        for level in range(N + 1):
            for h in a.homs[(y, z)].level(level):
                for g in a.homs[(x, y)].level(level):
                    hg = comp(x, y, z, level, h, g)
                    for f in a.homs[(w, x)].level(level):
                        gf = comp(w, x, y, level, g, f)
                        if hg is None or gf is None:
                            continue
                        left = comp(w, x, z, level, hg, f)
                        right = comp(w, y, z, level, h, gf)
                        if None not in (left, right) and left != right:
                            report.append(f"associativity at level {level}: ({h},{g},{f})")
    for x, y, z in itertools.product(a.objects, repeat=3):
        hom_xy, hom_yz, hom_xz = a.homs[(x, y)], a.homs[(y, z)], a.homs[(x, z)]
        for level in range(1, N + 1):
            for g in hom_yz.level(level):
                for f in hom_xy.level(level):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        continue
                    for i in range(level + 1):
                        expect = comp(x, y, z, level - 1, _face_name(hom_yz, level, i, g),
                                      _face_name(hom_xy, level, i, f))
                        if expect is not None and _face_name(hom_xz, level, i, h) != expect:
                            report.append(
                                f"composition not simplicial (d_{i}) at ({x},{y},{z}) level {level}"
                            )
        for level in range(N):
            for g in hom_yz.level(level):
                for f in hom_xy.level(level):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        continue
                    for i in range(level + 1):
                        expect = comp(x, y, z, level + 1, _degeneracy_name(hom_yz, level, i, g),
                                      _degeneracy_name(hom_xy, level, i, f))
                        if (expect is not None
                                and _degeneracy_name(hom_xz, level, i, h) != expect):
                            report.append(
                                f"composition not simplicial (s_{i}) at ({x},{y},{z}) level {level}"
                            )
    return report


def _named_sub(rs) -> dict:
    """``rs.sub`` by simplex name: a number is named in its hom and level,
    and a name the sub kept (one its hom lacks) stays as it is."""
    homs = rs.ambient.homs
    return {pair: tuple(frozenset(s if isinstance(s, str) else homs[pair].levels[k][s]
                                  for s in level) for k, level in enumerate(levels))
            for pair, levels in rs.sub.items()}


def reference_validate_relscat(rs) -> list[str]:
    report = []
    a, sub = rs.ambient, _named_sub(rs)
    N = a.truncation
    for (x, y), levels in sub.items():
        if len(levels) != N + 1:
            report.append(f"sub ({x},{y}): wrong number of levels")
            continue
        sset = a.homs[(x, y)]
        for k, level in enumerate(levels):
            for s in sorted(level):
                if not sset.has_simplex(k, s):
                    report.append(f"sub ({x},{y}) level {k}: unknown simplex {s}")
    if report:
        return report
    for x in a.objects:
        for k in range(N + 1):
            if _identity_name(a, x, k) not in sub[(x, x)][k]:
                report.append(f"sub missing identity at {x} level {k}")
    for (x, y), levels in sub.items():
        sset = a.homs[(x, y)]
        for k in range(1, N + 1):
            for s in sorted(levels[k]):
                for i in range(k + 1):
                    if _face_name(sset, k, i, s) not in levels[k - 1]:
                        report.append(f"sub ({x},{y}): face d_{i} of {s} escapes")
        for k in range(N):
            for s in sorted(levels[k]):
                for i in range(k + 1):
                    if _degeneracy_name(sset, k, i, s) not in levels[k + 1]:
                        report.append(f"sub ({x},{y}): degeneracy s_{i} of {s} escapes")
    if report:
        return report
    for x, y, z in itertools.product(a.objects, repeat=3):
        for level in range(N + 1):
            for g in sorted(sub[(y, z)][level]):
                for f in sorted(sub[(x, y)][level]):
                    h = _composite_name(a, x, y, z, level, g, f)
                    if h is None:
                        if a.has_table():
                            report.append(
                                f"sub pair ({g},{f}) has no composite at ({x},{y},{z}) "
                                f"level {level}")
                    elif h not in sub[(x, z)][level]:
                        report.append(
                            f"sub not closed under composition at ({x},{y},{z}) level {level}"
                        )
    return report


def _reference_component_category(objects, parts, members, identities, compose, wellcheck_cap):
    """The category of components and the simplex-name-to-class map."""
    names, dom, cod, morphisms = {}, {}, {}, []
    reps = {}
    for x in objects:
        for y in objects:
            class_of = parts[(x, y)].class_of
            for k in range(len(parts[(x, y)].classes)):
                name = f"{x}->{y}#{k}"
                names[(x, y, k)] = name
                morphisms.append(name)
                dom[name] = x
                cod[name] = y
                reps[(x, y, k)] = []
            for s in members[(x, y)]:
                chosen = reps[(x, y, class_of[s])]
                if len(chosen) < wellcheck_cap:
                    chosen.append(s)
    identity = {x: names[(x, x, parts[(x, x)].class_of[identities[x]])] for x in objects}
    table = {}
    for x, y, z in itertools.product(objects, repeat=3):
        class_of = parts[(x, z)].class_of
        for k2 in range(len(parts[(y, z)].classes)):
            for k1 in range(len(parts[(x, y)].classes)):
                targets = set()
                for g in reps[(y, z, k2)]:
                    for f in reps[(x, y, k1)]:
                        h = compose(x, y, z, g, f)
                        if h is not None:
                            targets.add(class_of[h])
                if not targets:
                    raise CompositionUnavailable(
                        f"no representative composite at ({x},{y},{z}) classes ({k2},{k1})"
                    )
                if len(targets) > 1:
                    raise ConsistencyError(
                        f"induced composition ill-defined at ({x},{y},{z}) classes ({k2},{k1})"
                    )
                table[(names[(y, z, k2)], names[(x, y, k1)])] = names[(x, z, targets.pop())]
    cat = FiniteCategory(objects, morphisms, dom, cod, identity, table)
    classmap = {
        (x, y, s): names[(x, y, parts[(x, y)].class_of[s])]
        for x in objects for y in objects for s in members[(x, y)]
    }
    return cat, classmap


def _named_pi0(sset) -> Partition:
    return renamed(pi0(sset), sset.levels[0])


def reference_homotopy_category_data(a, wellcheck_cap: int = 8):
    """The category of components, the name-keyed class map and the
    name-keyed partitions."""
    if a.truncation < 1:
        raise InputError("components need truncation >= 1")
    parts = {(x, y): _named_pi0(a.homs[(x, y)]) for x in a.objects for y in a.objects}
    members = {pair: a.homs[pair].level(0) for pair in parts}
    identities = {x: _identity_name(a, x, 0) for x in a.objects}
    cat, classmap = _reference_component_category(
        a.objects, parts, members, identities,
        lambda x, y, z, g, f: _composite_name(a, x, y, z, 0, g, f), wellcheck_cap)
    return cat, classmap, parts


def reference_is_neglectable(rs):
    ho, classmap, _ = reference_homotopy_category_data(rs.ambient)
    sub = _named_sub(rs)
    for x in rs.ambient.objects:
        for y in rs.ambient.objects:
            for s in sorted(sub[(x, y)][0]):
                if not is_isomorphism(ho, classmap[(x, y, s)]):
                    return False, (x, y, s)
    return True, None


def simplex_names(fun) -> dict:
    """The simplex map of ``fun`` by name: ``(x, y, level, source name) ->
    image name``, leaving out the simplices without an image."""
    src, tgt, omap = fun.source, fun.target, fun.object_map
    named = {}
    for (x, y, level, s), t in fun.simplex_map.items():
        target = tgt.homs.get((omap.get(x), omap.get(y)))
        if t is not None and target is not None:
            named[(x, y, level, src.homs[(x, y)].levels[level][s])] = target.levels[level][t]
    return named


def reference_validate_simplicial_functor(fun, composition_cap: int = 4000) -> list[str]:
    report = []
    src, tgt, smap = fun.source, fun.target, simplex_names(fun)
    for x in src.objects:
        if fun.object_map.get(x) not in tgt.objects:
            report.append(f"object not mapped into target: {x}")
    if report:
        return report
    for x in src.objects:
        for y in src.objects:
            sh = src.homs[(x, y)]
            th = tgt.homs[(fun.object_map[x], fun.object_map[y])]
            for level in range(src.truncation + 1):
                for s in sh.level(level):
                    t = smap.get((x, y, level, s))
                    if t is None or not th.has_simplex(level, t):
                        report.append(f"simplex not mapped: ({x},{y}) level {level}: {s}")
    if report:
        return report
    for x in src.objects:
        if (smap[(x, x, 0, _identity_name(src, x, 0))]
                != _identity_name(tgt, fun.object_map[x], 0)):
            report.append(f"identity not preserved at {x}")
    for x in src.objects:
        for y in src.objects:
            sh = src.homs[(x, y)]
            th = tgt.homs[(fun.object_map[x], fun.object_map[y])]
            for level in range(1, src.truncation + 1):
                for s in sh.level(level):
                    for i in range(level + 1):
                        lhs = smap[(x, y, level - 1, _face_name(sh, level, i, s))]
                        rhs = _face_name(th, level, i, smap[(x, y, level, s)])
                        if lhs != rhs:
                            report.append(f"face not preserved: ({x},{y}) level {level} d_{i} {s}")
            for level in range(src.truncation):
                for s in sh.level(level):
                    for i in range(level + 1):
                        lhs = smap[(x, y, level + 1, _degeneracy_name(sh, level, i, s))]
                        rhs = _degeneracy_name(th, level, i, smap[(x, y, level, s)])
                        if lhs != rhs:
                            report.append(
                                f"degeneracy not preserved: ({x},{y}) level {level} s_{i} {s}"
                            )
    if report:
        return report
    checked = 0
    for x, y, z in itertools.product(src.objects, repeat=3):
        fx, fy, fz = (fun.object_map[o] for o in (x, y, z))
        for level in range(src.truncation + 1):
            for g in src.homs[(y, z)].level(level):
                for f in src.homs[(x, y)].level(level):
                    if checked >= composition_cap:
                        return report
                    h = _composite_name(src, x, y, z, level, g, f)
                    if h is None:
                        continue
                    checked += 1
                    image = _composite_name(tgt, fx, fy, fz, level,
                                            smap[(y, z, level, g)],
                                            smap[(x, y, level, f)])
                    if image is None:
                        report.append(
                            f"composite not representable in target at ({x},{y},{z}) level {level}"
                        )
                        continue
                    if image != smap[(x, z, level, h)]:
                        report.append(
                            f"composition not preserved at ({x},{y},{z}) level {level}: ({g},{f})"
                        )
    return report


def reference_check_dk(fun) -> DkCertificate:
    """The DK certificate on names: components by name, each class
    represented by its least name, and the class maps keyed by name."""
    bad = reference_validate_simplicial_functor(fun)
    if bad:
        raise InputError(f"invalid simplicial functor: {bad[0]}")
    src, tgt, smap = fun.source, fun.target, simplex_names(fun)
    N = src.truncation
    pairs = {}
    verdict = "pass_partial"
    reason = ""
    src_parts = {(x, y): _named_pi0(src.homs[(x, y)]) for x in src.objects for y in src.objects}
    tgt_parts = {}
    for x in src.objects:
        for y in src.objects:
            fx, fy = fun.object_map[x], fun.object_map[y]
            if (fx, fy) not in tgt_parts:
                tgt_parts[(fx, fy)] = _named_pi0(tgt.homs[(fx, fy)])
            sp, tp = src_parts[(x, y)], tgt_parts[(fx, fy)]
            mapping = {k: tp.class_of[smap[(x, y, 0, min(cls))]]
                       for k, cls in enumerate(sp.classes)}
            injective = len(set(mapping.values())) == len(mapping)
            surjective = set(mapping.values()) == set(range(len(tp.classes)))
            pi0_ok = injective and surjective
            pi0_witness = None if pi0_ok else {
                "pair": [x, y], "source_classes": len(sp.classes),
                "target_classes": len(tp.classes), "injective": injective,
            }
            hom_witness = None if pi0_ok else {"pair": [x, y], "degree": 0}
            if pi0_ok and N >= 2:
                src_hom, tgt_hom = src.homs[(x, y)], tgt.homs[(fx, fy)]
                src_report, tgt_report = homology(src_hom), homology(tgt_hom)
                for level in range(1, N):
                    if not reference_induced_homology_iso(
                            fun, x, y, level, src_hom, tgt_hom, src_report, tgt_report):
                        hom_witness = {"pair": [x, y], "degree": level}
                        break
            hom_ok = hom_witness is None
            pairs[(x, y)] = PairComparison(pi0_ok, pi0_witness, hom_ok, hom_witness)
            if not (pi0_ok and hom_ok):
                verdict = "fail"
    ho_ok = False
    ho_witness = None
    try:
        ho_src, cmap_src, _ = reference_homotopy_category_data(src)
        ho_tgt, cmap_tgt, _ = reference_homotopy_category_data(tgt)
        omap = dict(fun.object_map)
        mmap = {}
        for x in src.objects:
            for y in src.objects:
                for s in src.homs[(x, y)].level(0):
                    cls = cmap_src[(x, y, s)]
                    target_cls = cmap_tgt[(omap[x], omap[y], smap[(x, y, 0, s)])]
                    if mmap.setdefault(cls, target_cls) != target_cls:
                        raise ConsistencyError(f"induced functor not well defined at {cls}")
        induced = CatFunctor(ho_src, ho_tgt, omap, mmap)
        if validate_functor(induced):
            ho_witness = {"error": "induced map on components is not a functor"}
            verdict = "fail"
        else:
            witness = reference_equivalence_from_functor(induced)
            if witness is None:
                ho_witness = {"error": "component categories not equivalent via induced functor"}
                verdict = "fail"
            else:
                ho_ok = True
                ho_witness = {"backward_objects": dict(witness.backward.object_map)}
    except CompositionUnavailable as exc:
        verdict = "undetermined"
        reason = f"composition bound: {exc}"
    return DkCertificate(N, pairs, ho_ok, ho_witness, verdict, reason)


# --- composition sweeps ------------------------------------------------------


def reference_composites(r: RelativeCategory, pairs, w_max, counts, x, y, z, level):
    """The represented composites ``(g, f, h)`` of hom(y,z) after hom(x,y)
    at ``level`` in (g, f) order, from
    :func:`hamloc.hammock.bounded_composite` asked about each pair: the
    reference for :func:`hamloc.hammock.bounded_composites`."""
    target, found = pairs[(x, z)], []
    numbers = target.grid_numbers(level)
    for g, grid in enumerate(pairs[(y, z)].level_grids[level]):
        for f, other in enumerate(pairs[(x, y)].level_grids[level]):
            h = bounded_composite(r, grid, other, w_max, numbers, counts, target.pruned)
            if h is not None:
                found.append((g, f, h))
    return found


def reference_scat_composites(a: TruncatedSimplicialCategory, x, y, z, level):
    """The represented composites ``(g, f, h)`` of ``a`` from hom(y,z)
    after hom(x,y) at ``level``, in (g, f) order, asked pair by pair: the
    reference for :meth:`TruncatedSimplicialCategory.composites`."""
    found = []
    for g in range(len(a.homs[(y, z)].levels[level])):
        for f in range(len(a.homs[(x, y)].levels[level])):
            h = a.composite(x, y, z, level, g, f)
            if h is not None:
                found.append((g, f, h))
    return found


def normal_form_composite(r: RelativeCategory, g, f, w_max, enumerated):
    """The value ``enumerated`` holds for the normal form of grid ``g``
    after grid ``f``, or None when that needs a missing composite, is
    wider than ``w_max`` or is not enumerated: what a composite must be,
    found without the junction rule."""
    if not f[0] or not g[0]:
        grid = g if not f[0] else f
    else:
        grid = hammock._normal_form(r.cat.post, r.cat.identity_numbers,
                                    *hammock._concatenated(r.cat, g, f))
    if grid is None or len(grid[0]) > w_max:
        return None
    return enumerated.get(grid)


# --- claim 3.1 over every pair -----------------------------------------------
#
# The reference for the re-localizations of ``hamloc.verify.check_roundtrip``,
# which walk only the pairs of level-0 objects: the earlier route, which
# re-localized the middle and the flattening on every pair of their
# objects, built the categories of components on every object, and
# searched for the two equivalences there.


@dataclass
class ReferenceRoundtrip:
    """The results of the two equivalence searches (``first``:
    Ho(input) ~ Ho(middle), ``second``: Ho(flattening) ~ Ho(middle)), both
    None when a category of components is undetermined, and ``marked``:
    stage -> (A, n) -> whether the marked map (A, 0) -> (A, n) is an
    isomorphism in that stage's category of components."""

    first: str | None
    second: str | None
    marked: dict


def reference_roundtrip(r: RelativeCategory, truncation, w_max, budget) -> ReferenceRoundtrip:
    """Claim 3.1's comparison with every pair re-localized."""
    loc = hammock.hammock_localization(r, truncation, w_max)
    fl = flatten(loc.scat())
    middle = relativization_unit(r, loc, fl).target
    flat_cat = fl.rel.cat
    hos, marked = {}, {}
    try:
        ho_input, _ = hammock.homotopy_category_of_localization(loc)
        for stage, rel in (("middle", middle), ("flattening", fl.rel)):
            reloc = hammock.hammock_localization(rel, truncation, w_max, "pi0")
            ho, classes = hammock.homotopy_category_of_localization(reloc)
            hos[stage], isos = ho, {}
            for a in r.cat.objects:
                x = fl.object_name(a, 0)
                for n in range(truncation + 1):
                    y = fl.object_name(a, n)
                    (m,) = [m for m in flat_cat.hom(x, y) if m in fl.rel.weq]
                    vertex = reloc.pair(x, y).vertices[reloc.embedded(m)]
                    isos[(a, n)] = is_isomorphism(ho, classes[(x, y, vertex)])
            marked[stage] = isos
    except (CompositionUnavailable, ConsistencyError):
        return ReferenceRoundtrip(None, None, marked)
    return ReferenceRoundtrip(find_equivalence(ho_input, hos["middle"], budget).status,
                              find_equivalence(hos["flattening"], hos["middle"], budget).status,
                              marked)
