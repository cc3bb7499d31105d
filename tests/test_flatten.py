import itertools
from math import comb

import pytest

from hamloc import instances as inst
from hamloc.errors import InputError
from hamloc.fincat import CatFunctor, validate_category
from hamloc.flatten import flat_morphism_name, flatten, relativization_unit
from hamloc.hammock import hammock_localization
from hamloc.relcat import validate_relative, validate_relative_functor
from hamloc.scat import promote
from hamloc.simplicial import SimplicialOperator, monotone_maps
from oracles import SimplicialDiagram, grothendieck, level_diagram, validate_diagram


def count_monotone(m, n):
    """Independent oracle: enumerate nondecreasing tuples directly."""
    return sum(
        1
        for images in itertools.product(range(n + 1), repeat=m + 1)
        if all(a <= b for a, b in zip(images, images[1:]))
    )


class TestFlattenTerminal:
    def test_object_count(self):
        fl = flatten(promote(inst.terminal(), 1))
        assert len(fl.rel.cat.objects) == 2

    def test_hom_counts_are_monotone_map_counts(self):
        fl = flatten(promote(inst.terminal(), 1))
        c = fl.rel.cat
        for m in range(2):
            for n in range(2):
                got = len(c.hom(fl.object_name("*", m), fl.object_name("*", n)))
                assert got == count_monotone(n, m)
                assert got == comb(m + n + 1, n + 1)

    def test_everything_marked(self):
        fl = flatten(promote(inst.terminal(), 1))
        assert fl.rel.weq == frozenset(fl.rel.cat.morphisms)


class TestHomCountLaw:
    @pytest.mark.parametrize("make", [
        lambda: promote(inst.walking_arrow(), 2),
        lambda: promote(inst.chain3(), 1),
        lambda: inst.z2_nerve_scat(2),
        lambda: hammock_localization(inst.walking_weq(), 1, 4).scat(),
    ])
    def test_counts_multiply(self, make):
        a = make()
        fl = flatten(a)
        c = fl.rel.cat
        for b1 in a.objects:
            for b2 in a.objects:
                for n1 in range(a.truncation + 1):
                    for n2 in range(a.truncation + 1):
                        got = len(c.hom(fl.object_name(b1, n1), fl.object_name(b2, n2)))
                        want = comb(n1 + n2 + 1, n2 + 1) * len(a.homs[(b1, b2)].level(n2))
                        assert got == want

    def test_flatten_of_total_categories_is_valid(self):
        for a in (promote(inst.walking_arrow(), 2), promote(inst.chain3(), 1),
                  inst.z2_nerve_scat(2)):
            fl = flatten(a)
            assert fl.overflows == 0
            assert validate_category(fl.rel.cat) == []
            assert validate_relative(fl.rel) == []

    def test_marked_subcategory_closed(self):
        fl = flatten(inst.z2_nerve_scat(2))
        c = fl.rel.cat
        for g in fl.rel.weq:
            for f in fl.rel.weq:
                if c.composable(g, f):
                    assert c.compose(g, f) in fl.rel.weq


class TestGrothendieck:
    def test_constant_terminal_diagram_counts(self):
        d = level_diagram(promote(inst.terminal(), 2))
        g = grothendieck(d)
        assert validate_category(g) == []
        assert len(g.objects) == 3
        for n1 in range(3):
            for n2 in range(3):
                assert len(g.hom(f"(*,{n1})", f"(*,{n2})")) == comb(n1 + n2 + 1, n2 + 1)

    def test_constant_diagram_counts_multiply(self):
        d = level_diagram(promote(inst.walking_arrow(), 1))
        g = grothendieck(d)
        assert validate_category(g) == []
        c = inst.walking_arrow()
        for n1 in range(2):
            for n2 in range(2):
                for x in c.objects:
                    for y in c.objects:
                        got = len(g.hom(f"({x},{n1})", f"({y},{n2})"))
                        assert got == comb(n1 + n2 + 1, n2 + 1) * len(c.hom(x, y))

    def test_truncation_zero_is_level_zero_category(self):
        a = promote(inst.chain3(), 0)
        g = grothendieck(level_diagram(a))
        c = inst.chain3()
        assert len(g.objects) == len(c.objects)
        assert len(g.morphisms) == len(c.morphisms)
        assert validate_category(g) == []

    def test_agrees_with_flatten_up_to_renaming(self):
        a = promote(inst.walking_arrow(), 1)
        fl = flatten(a)
        g = grothendieck(level_diagram(a))

        def to_flat_name(name):
            # level-category morphisms are named x|y|simplex; the flat
            # name carries just the simplex
            head, _, rest = name.partition("-(")
            body, _, tail = rest.partition(";q=")
            simplex = body.split("|")[2]
            return f"{head}-({simplex};q={tail}"

        rename = {m: to_flat_name(m) for m in g.morphisms}
        assert set(rename.values()) == set(fl.rel.cat.morphisms)
        assert set(g.objects) == set(fl.rel.cat.objects)
        for (gm, fm), h in g.table.items():
            assert fl.rel.cat.table[(rename[gm], rename[fm])] == rename[h]

    def test_functor_law_violation_rejected(self):
        a = promote(inst.walking_arrow(), 1)
        d = level_diagram(a)
        broken = SimplicialDiagram(d.levels, dict(d.face_functors), dict(d.degeneracy_functors))
        fun = broken.face_functors[(1, 0)]
        tampered = CatFunctor(fun.source, fun.target, dict(fun.object_map),
                              dict(fun.morphism_map))
        tampered.morphism_map["X|Y|f"] = "X|X|idX"
        broken.face_functors[(1, 0)] = tampered
        with pytest.raises(InputError):
            grothendieck(broken)

    def test_validate_diagram_reports(self):
        d = level_diagram(promote(inst.terminal(), 1))
        assert validate_diagram(d) == []


class TestRelativizationUnit:
    def test_unit_is_relative_functor(self):
        r = inst.walking_weq()
        loc = hammock_localization(r, 1, 4)
        fl = flatten(loc.scat())
        unit = relativization_unit(r, loc, fl)
        assert validate_relative_functor(unit) == []

    def test_identity_goes_to_identity(self):
        r = inst.walking_weq()
        loc = hammock_localization(r, 1, 4)
        fl = flatten(loc.scat())
        unit = relativization_unit(r, loc, fl)
        assert unit.underlying.morphism_map["idX"] == \
            fl.rel.cat.identity[fl.object_name("X", 0)]

    def test_weq_lands_in_extended_marking(self):
        r = inst.walking_weq()
        loc = hammock_localization(r, 1, 4)
        fl = flatten(loc.scat())
        unit = relativization_unit(r, loc, fl)
        assert unit.underlying.morphism_map["w"] in unit.target.weq
        assert fl.rel.weq <= unit.target.weq

    def test_composition_preserved(self):
        r = inst.chain_weq()
        loc = hammock_localization(r, 1, 4)
        fl = flatten(loc.scat())
        unit = relativization_unit(r, loc, fl)
        mm = unit.underlying.morphism_map
        got = fl.rel.cat.compose(mm["g"], mm["f"])
        assert got == mm["gf"]


class TestNaming:
    def test_flat_morphism_name_format(self):
        op = SimplicialOperator(1, 0, (0, 0))
        assert flat_morphism_name("f", op) == "(f;q=[0,0])"
        # every morphism of a flattening, identities included, carries it
        a = hammock_localization(inst.walking_weq(), 1, 2).scat()
        fl = flatten(a)
        for name, (source, target, simplex, q) in fl.morphism_data.items():
            simplex_name = a.homs[(source[0], target[0])].levels[target[1]][simplex]
            assert name == (f"{fl.object_name(*source)}-{flat_morphism_name(simplex_name, q)}->"
                            f"{fl.object_name(*target)}")
        assert set(fl.rel.cat.identity.values()) <= set(fl.morphism_data)

    def test_operator_enumeration_matches_module(self):
        for m in range(3):
            for n in range(3):
                assert len(monotone_maps(m, n)) == count_monotone(m, n)
