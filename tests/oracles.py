"""Test helpers: constructions no command runs, kept to check those that
do, and instances that several test modules share.

The general Grothendieck construction of a contravariant diagram of
finite categories over the levels 0..N is the oracle for
:func:`hamloc.flatten.flatten`: flattening a simplicial category is the
Grothendieck construction of its diagram of level categories
(:func:`level_diagram`).
"""

from __future__ import annotations

from dataclasses import dataclass

from hamloc import instances as inst
from hamloc.errors import InputError
from hamloc.fincat import CatFunctor, FiniteCategory, disjoint_union, validate_functor
from hamloc.scat import (
    RelativeSimplicialCategory,
    TruncatedSimplicialCategory,
    level_category,
    level_map,
    promote,
    sub_from_morphisms,
)
from hamloc.simplicial import SimplicialOperator, compose_operators, monotone_maps, operator_steps


def level_functor(a: TruncatedSimplicialCategory, source_level: int, kind: str, i: int) -> CatFunctor:
    """The face (kind='d') or degeneracy (kind='s') functor between level
    categories, acting on morphism simplices as :func:`hamloc.scat.level_map`."""
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
