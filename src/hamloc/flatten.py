"""Flattening a simplicial category into a relative category.

The flattening has objects (A, n) for each object A and level n up to
the truncation, and morphisms (a, q): a simplex a of hom(A1, A2) at the
target level together with a monotone operator q; the marked subcategory
consists of the morphisms whose simplex part is an identity.  It is the
Grothendieck construction of the simplicial category seen as a diagram
of its level categories, built straight from the hom simplicial sets.

Simplices are carried by number, and a morphism is found by number in
:attr:`Flattening.morphism_index`.  Its name is still made from its
simplex's name: the re-localization of the flattening orders its
vertices by the ``repr`` of those names.

Composition visits only composable pairs: the morphisms are grouped by
codomain, and each g meets those that end at its domain.  Each carried
simplex, composite simplex and composite operator is made once, kept
under numbers and operator image tuples.  A carried simplex is keyed by
the level it is carried from as well, since an operator's images do not
fix its target level: ``(0,)`` is both [0] -> [0] and [0] -> [1].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .fincat import CatFunctor, FiniteCategory, close_morphisms
from .relcat import RelativeCategory, RelativeFunctor
from .scat import TruncatedSimplicialCategory
from .simplicial import SimplicialOperator, apply_operator, monotone_maps


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
    morphism_index: dict  # (base1, n1, base2, n2, simplex number, operator images) -> name
    overflows: int = 0

    def object_name(self, base, level):
        return self.object_names[(base, level)]


def flatten(a: TruncatedSimplicialCategory) -> Flattening:
    """Objects (A, n); morphisms (A1,n1) -> (A2,n2) are pairs (a, q) with
    a in hom(A1,A2) at level n2 and q monotone [n2] -> [n1]; composition
    acts on the simplex part through the operator.  The marked morphisms
    are those whose simplex part is a degenerate identity.  Only the
    composable pairs are visited, and each carried simplex, composite and
    composite operator is made once (see the module docstring); the
    monotone maps are listed once per pair of levels."""
    N = a.truncation
    object_names = {(base, level): flat_object_name(base, level)
                    for base in a.objects for level in range(N + 1)}
    objects = list(object_names.values())
    operators = {(n2, n1): monotone_maps(n2, n1) for n1 in range(N + 1) for n2 in range(N + 1)}

    identities_at = {(base, level): a.identity_at(base, level)
                     for base in a.objects for level in range(N + 1)}
    morphisms, dom, cod, identity = [], {}, {}, {}
    index = {}
    marked = []
    out = []  # (g, its domain, base2, n2, simplex, operator), in name order
    into = {key: [] for key in object_names}  # object -> (f, base1, n1, simplex, images)
    for base1, base2 in itertools.product(a.objects, repeat=2):
        hom = a.homs[(base1, base2)]
        for n1 in range(N + 1):
            source = object_names[(base1, n1)]
            for n2 in range(N + 1):
                target, arriving = object_names[(base2, n2)], into[(base2, n2)]
                for q in operators[(n2, n1)]:
                    for simplex, simplex_name in enumerate(hom.levels[n2]):
                        name = f"{source}-{flat_morphism_name(simplex_name, q)}->{target}"
                        morphisms.append(name)
                        dom[name] = source
                        cod[name] = target
                        index[(base1, n1, base2, n2, simplex, q.images)] = name
                        out.append((name, (base1, n1), base2, n2, simplex, q))
                        arriving.append((name, base1, n1, simplex, q.images))
                        if base1 == base2 and simplex == identities_at[(base1, n2)]:
                            marked.append(name)
                            if q.is_identity():
                                identity[source] = name

    # each g meets only the f into its domain; a carried simplex is keyed
    # by the level gn1 it is carried from
    carried_of, composite_of, operator_of = {}, {}, {}
    table = {}
    overflows = 0
    for g, (gb1, gn1), gb2, gn2, ga, gq in out:
        gimages = gq.images
        for f, fb1, fn1, fa, fimages in into[(gb1, gn1)]:
            key = (fb1, gb1, gn1, gimages, fa)
            carried = carried_of.get(key)
            if carried is None:
                carried = carried_of[key] = apply_operator(a.homs[(fb1, gb1)], gq, fa)
            key = (fb1, gb1, gb2, gn2, ga, carried)
            if key in composite_of:
                simplex = composite_of[key]
            else:
                simplex = composite_of[key] = a.composite(*key)
            if simplex is None:
                overflows += 1
                continue
            key = (gimages, fimages)
            images = operator_of.get(key)
            if images is None:
                images = operator_of[key] = tuple([fimages[v] for v in gimages])
            table[(g, f)] = index[(fb1, fn1, gb2, gn2, simplex, images)]

    cat = FiniteCategory(objects, morphisms, dom, cod, identity, table)
    rel = RelativeCategory(cat, marked)
    return Flattening(rel, N, object_names, index, overflows)


# --- the unit of the delocalization roundtrip --------------------------------


def relativization_unit(r: RelativeCategory, loc, flat: Flattening) -> RelativeFunctor:
    """The relative functor from (C, W) into the flattening ``flat`` of its
    hammock localization ``loc``, with the weak equivalences extended by
    the image of W: an object goes to its level-0 copy, a morphism to its
    embedded hammock (``loc.embedded``) under the identity operator."""
    cat = r.cat
    omap = {x: flat.object_name(x, 0) for x in cat.objects}
    mmap = {}
    for m in cat.morphisms:
        key = (cat.dom[m], 0, cat.cod[m], 0, loc.embedded(m), (0,))
        mmap[m] = flat.morphism_index.get(key)
        if mmap[m] is None:
            raise InputError("flattening does not contain the embedded image")
    weq_image = {mmap[w] for w in r.weq}
    middle = RelativeCategory(
        flat.rel.cat, close_morphisms(flat.rel.cat, set(flat.rel.weq) | weq_image)
    )
    underlying = CatFunctor(cat, flat.rel.cat, omap, mmap)
    return RelativeFunctor(underlying, r, middle)
