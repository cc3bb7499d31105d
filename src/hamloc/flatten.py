"""Flattening a simplicial category into a relative category.

The flattening has objects (A, n) for each object A and level n up to
the truncation, and morphisms (a, q): a simplex a of hom(A1, A2) at the
target level together with a monotone operator q; the marked subcategory
consists of the morphisms whose simplex part is an identity.  The same
construction is exposed for arbitrary contravariant diagrams of finite
categories over the simplex level poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .fincat import CatFunctor, FiniteCategory, close_morphisms, validate_functor
from .hammock import Localization, embed_morphism
from .relcat import RelativeCategory, RelativeFunctor
from .scat import SimplicialFunctor, TruncatedSimplicialCategory
from .simplicial import (
    SimplicialOperator,
    apply_operator,
    compose_operators,
    monotone_maps,
    operator_steps,
)


def flat_object_name(base, level):
    return f"({base},{level})"


def flat_morphism_name(simplex, operator: SimplicialOperator):
    imgs = ",".join(str(v) for v in operator.images)
    return f"({simplex};q=[{imgs}])"


@dataclass
class Flattening:
    """The flattened relative category plus its naming data.

    ``overflows`` counts composites the source could not represent inside
    its width bound; when positive the composition table is partial and
    downstream results are approximations."""

    rel: RelativeCategory
    source_truncation: int
    object_names: dict  # (base, level) -> name
    morphism_data: dict  # name -> (x_pair, simplex, operator)
    overflows: int = 0

    def object_name(self, base, level):
        return self.object_names[(base, level)]


def flatten(a: TruncatedSimplicialCategory) -> Flattening:
    """Objects (A, n); morphisms (A1,n1) -> (A2,n2) are pairs (a, q) with
    a in hom(A1,A2) at level n2 and q monotone [n2] -> [n1]; composition
    acts on the simplex part through the operator.  The marked morphisms
    are those whose simplex part is a degenerate identity."""
    N = a.truncation
    objects = []
    object_names = {}
    for base in a.objects:
        for level in range(N + 1):
            name = flat_object_name(base, level)
            object_names[(base, level)] = name
            objects.append(name)

    identities_at = {}
    for base in a.objects:
        for level in range(N + 1):
            identities_at[(base, level)] = a.identity_at(base, level)

    morphisms, dom, cod = [], {}, {}
    data = {}
    marked = []
    for base1, base2 in itertools.product(a.objects, repeat=2):
        hom = a.homs[(base1, base2)]
        for n1 in range(N + 1):
            for n2 in range(N + 1):
                for q in monotone_maps(n2, n1):
                    for simplex in hom.level(n2):
                        name = (
                            f"{flat_object_name(base1, n1)}-"
                            f"{flat_morphism_name(simplex, q)}->"
                            f"{flat_object_name(base2, n2)}"
                        )
                        morphisms.append(name)
                        dom[name] = object_names[(base1, n1)]
                        cod[name] = object_names[(base2, n2)]
                        data[name] = ((base1, n1), (base2, n2), simplex, q)
                        if base1 == base2 and simplex == identities_at[(base1, n2)]:
                            marked.append(name)

    identity = {}
    for base in a.objects:
        for level in range(N + 1):
            name = (
                f"{flat_object_name(base, level)}-"
                f"{flat_morphism_name(identities_at[(base, level)], SimplicialOperator.identity(level))}->"
                f"{flat_object_name(base, level)}"
            )
            identity[object_names[(base, level)]] = name

    index = {}
    for name, ((b1, n1), (b2, n2), simplex, q) in data.items():
        index[(b1, n1, b2, n2, simplex, q.images)] = name

    table = {}
    overflows = 0
    for g, ((gb1, gn1), (gb2, gn2), ga, gq) in data.items():
        for f, ((fb1, fn1), (fb2, fn2), fa, fq) in data.items():
            if (fb2, fn2) != (gb1, gn1):
                continue
            carried = apply_operator(a.homs[(fb1, fb2)], gq, fa)
            simplex = a.composite(fb1, fb2, gb2, gn2, ga, carried)
            if simplex is None:
                overflows += 1
                continue
            operator = compose_operators(gq, fq)
            table[(g, f)] = index[(fb1, fn1, gb2, gn2, simplex, operator.images)]

    cat = FiniteCategory(objects, morphisms, dom, cod, identity, table)
    rel = RelativeCategory(cat, marked)
    return Flattening(rel, N, object_names, data, overflows)


def flatten_map(fun: SimplicialFunctor, flat_src: Flattening, flat_tgt: Flattening) -> CatFunctor:
    """The functor induced on flattenings by a simplicial functor."""
    omap = {}
    for (base, level), name in flat_src.object_names.items():
        omap[name] = flat_tgt.object_name(fun.object_map[base], level)
    mmap = {}
    tgt_index = {
        (b1, n1, b2, n2, s, q.images): name
        for name, ((b1, n1), (b2, n2), s, q) in flat_tgt.morphism_data.items()
    }
    for name, ((b1, n1), (b2, n2), simplex, q) in flat_src.morphism_data.items():
        image = fun.simplex_map[(b1, b2, n2, simplex)]
        mmap[name] = tgt_index[
            (fun.object_map[b1], n1, fun.object_map[b2], n2, image, q.images)
        ]
    return CatFunctor(flat_src.rel.cat, flat_tgt.rel.cat, omap, mmap)


# --- the general diagram construction ---------------------------------------


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
    from .scat import level_category, level_functor

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


# --- the unit of the delocalization roundtrip --------------------------------


def relativization_unit(r: RelativeCategory, loc: Localization,
                        flat: Flattening) -> RelativeFunctor:
    """The relative functor from (C, W) into the flattened localization,
    with the weak equivalences extended by the image of W: an object goes
    to its level-0 copy, a morphism to its embedded hammock under the
    identity operator."""
    cat = r.cat
    id_op = SimplicialOperator.identity(0)
    omap = {x: flat.object_name(x, 0) for x in cat.objects}
    mmap = {}
    for m in cat.morphisms:
        simplex = embed_morphism(r, m, 0).name
        mmap[m] = (
            f"{flat.object_name(cat.dom[m], 0)}-"
            f"{flat_morphism_name(simplex, id_op)}->"
            f"{flat.object_name(cat.cod[m], 0)}"
        )
        if mmap[m] not in flat.rel.cat.mor_index:
            raise InputError("flattening does not contain the embedded image")
    weq_image = {mmap[w] for w in r.weq}
    middle = RelativeCategory(
        flat.rel.cat, close_morphisms(flat.rel.cat, set(flat.rel.weq) | weq_image)
    )
    underlying = CatFunctor(cat, flat.rel.cat, omap, mmap)
    return RelativeFunctor(underlying, r, middle)
