import itertools

import pytest

from hamloc import instances as inst
from hamloc import scat
from hamloc.errors import ConsistencyError, InputError
from hamloc.fincat import disjoint_union, validate_category, validate_functor
from hamloc.scat import (
    RelativeSimplicialCategory,
    SimplicialFunctor,
    TruncatedSimplicialCategory,
    check_dk,
    homotopy_category,
    homotopy_category_data,
    is_neglectable,
    level_category,
    promote,
    relscat_from_json,
    relscat_to_json,
    simplicial_functor_from_json,
    sub_from_morphisms,
    validate_relscat,
    validate_scat,
    validate_simplicial_functor,
)
from hamloc.simplicial import TruncatedSimplicialSet, homology, nerve
from helpers import identity_simplicial_functor
from oracles import level_functor, reference_induced_homology_iso


def stock_cats():
    return [inst.terminal(), inst.walking_arrow(), inst.walking_iso(),
            inst.chain3(), inst.group_z2()]


class TestPromote:
    def test_promotes_are_valid(self):
        for c in stock_cats():
            assert validate_scat(promote(c, 2)) == []

    def test_hom_counts_all_degenerate_above_zero(self):
        c = inst.chain3()
        p = promote(c, 2)
        for x in c.objects:
            for y in c.objects:
                hom = p.homs[(x, y)]
                for level in range(3):
                    assert len(hom.level(level)) == len(c.hom(x, y))
                assert hom.nondegenerate(1) == ()
                assert hom.nondegenerate(2) == ()

    def test_homotopy_category_round_trip(self):
        """Components of the discrete enrichment give back the category,
        with the same composition table up to class renaming."""
        for c in stock_cats():
            ho, classmap, _ = homotopy_category_data(promote(c, 2))
            assert validate_category(ho) == []
            rename = {m: classmap[(c.dom[m], c.cod[m], m)] for m in c.morphisms}
            assert len(set(rename.values())) == len(c.morphisms)
            for (g, f), h in c.table.items():
                assert ho.table[(rename[g], rename[f])] == rename[h]

    def test_identity_at_levels(self):
        p = promote(inst.walking_arrow(), 2)
        for level in range(3):
            assert p.identity_at("X", level) == "idX"


class TestZ2NerveCategory:
    def test_valid(self):
        assert validate_scat(inst.z2_nerve_scat(2)) == []

    def test_single_component_hom(self):
        a = inst.z2_nerve_scat(2)
        ho = homotopy_category(a)
        assert len(ho.morphisms) == 1

    def test_disjoint_union_of_components(self):
        c = disjoint_union(inst.walking_arrow(), inst.chain3())
        ho = homotopy_category(promote(c, 1))
        left = homotopy_category(promote(inst.walking_arrow(), 1))
        right = homotopy_category(promote(inst.chain3(), 1))
        assert len(ho.morphisms) == len(left.morphisms) + len(right.morphisms)


def _ill_defined_category():
    """Level-0 composition sends the two members of one component into
    different components; the induced composition cannot exist."""
    names = ("i", "a", "b", "p", "q")
    levels = [names, ("sa", "si", "sb", "sp", "sq", "edge")]
    faces = {1: {"edge": ["b", "a"]}}
    degmap = {"i": "si", "a": "sa", "b": "sb", "p": "sp", "q": "sq"}
    degeneracies = {0: {}}
    for v, s in degmap.items():
        faces[1][s] = [v, v]
        degeneracies[0][v] = [s]
    hom = TruncatedSimplicialSet.from_named(1, levels, faces, degeneracies)
    table = {}
    for m in names:
        table[("o", "o", "o", 0, "i", m)] = m
        table[("o", "o", "o", 0, m, "i")] = m
    for g, f in itertools.product(("a", "b", "p", "q"), repeat=2):
        table[("o", "o", "o", 0, g, f)] = "p" if g == "a" else "q"
    return TruncatedSimplicialCategory(["o"], 1, {("o", "o"): hom}, {"o": "i"}, table)


class TestHomotopyCategory:
    def test_ill_defined_composition_is_reported(self):
        with pytest.raises(ConsistencyError):
            homotopy_category(_ill_defined_category())

    def test_truncation_zero_rejected(self):
        p = promote(inst.terminal(), 2)
        broken = TruncatedSimplicialCategory(
            p.objects, 0,
            {pair: TruncatedSimplicialSet(0, [sset.level(0)], {}, {})
             for pair, sset in p.homs.items()},
            p.identities,
            {key: value for key, value in p.table.items() if key[3] == 0},
        )
        with pytest.raises(InputError):
            homotopy_category(broken)


class TestNeglectable:
    def test_identities_only(self):
        p = promote(inst.walking_arrow(), 1)
        rs = RelativeSimplicialCategory(
            p, sub_from_morphisms(p, inst.walking_arrow(), ["idX", "idY"])
        )
        assert validate_relscat(rs) == []
        assert is_neglectable(rs) == (True, None)

    def test_non_invertible_arrow_witnessed(self):
        p = promote(inst.walking_arrow(), 1)
        rs = RelativeSimplicialCategory(
            p, sub_from_morphisms(p, inst.walking_arrow(), ["idX", "idY", "f"])
        )
        ok, witness = is_neglectable(rs)
        assert not ok
        assert witness == ("X", "Y", "f")

    def test_inverse_arrow_neglectable(self):
        iso = inst.walking_iso()
        p = promote(iso, 1)
        rs = RelativeSimplicialCategory(
            p, sub_from_morphisms(p, iso, ["idX", "idY", "u"])
        )
        assert is_neglectable(rs) == (True, None)

    def test_sub_closure_validated(self):
        p = promote(inst.chain3(), 1)
        rs = RelativeSimplicialCategory(
            p, sub_from_morphisms(p, inst.chain3(), ["idX", "idY", "idZ", "f"])
        )
        assert validate_relscat(rs) == []
        bad = RelativeSimplicialCategory(
            p, {("X", "Y"): (frozenset({"f"}), frozenset({"f"}))}
        )
        assert validate_relscat(bad)

    def test_closure_check_reads_composites_without_raising(self):
        iso = inst.walking_iso()
        p = promote(iso, 1)
        sub = sub_from_morphisms(p, iso, iso.morphisms)
        table = {key: h for key, h in p.table.items() if key != ("X", "Y", "X", 0, "v", "u")}
        args = (p.objects, 1, p.homs, p.identities)
        # a full table must hold the composite; a bounded one may omit it
        tabled = RelativeSimplicialCategory(TruncatedSimplicialCategory(*args, table), sub)
        assert validate_relscat(tabled) == ["sub pair (v,u) has no composite at (X,Y,X) level 0"]
        composed = TruncatedSimplicialCategory(*args, composer=lambda *key: table.get(key))
        assert validate_relscat(RelativeSimplicialCategory(composed, sub)) == []


def _collapse_functor():
    iso = inst.walking_iso()
    src = promote(iso, 1)
    tgt = promote(inst.terminal(), 1)
    smap = {}
    for x in iso.objects:
        for y in iso.objects:
            for level in range(2):
                for m in iso.hom(x, y):
                    smap[(x, y, level, m)] = "id*"
    return SimplicialFunctor(src, tgt, {"X": "*", "Y": "*"}, smap)


def _point_inclusion():
    src = promote(inst.terminal(), 1)
    tgt = promote(inst.discrete(2), 1)
    smap = {("*", "*", level, "id*"): "idX0" for level in range(2)}
    return SimplicialFunctor(src, tgt, {"*": "X0"}, smap)


class TestCheckDk:
    def test_identity_passes(self):
        for c in stock_cats():
            cert = check_dk(identity_simplicial_functor(promote(c, 1)))
            assert cert.verdict == "pass_partial"
            assert all(cmp.pi0_ok and cmp.homology_ok for cmp in cert.pairs.values())

    def test_identity_passes_at_truncation_two(self):
        cert = check_dk(identity_simplicial_functor(inst.z2_nerve_scat(2)))
        assert cert.verdict == "pass_partial"

    def test_point_inclusion_fails_essential_surjectivity(self):
        cert = check_dk(_point_inclusion())
        assert cert.verdict == "fail"
        assert not cert.ho_ok

    def test_collapse_of_walking_iso_passes(self):
        cert = check_dk(_collapse_functor())
        assert cert.verdict == "pass_partial"

    def test_truncation_one_runs_no_smith_normal_form(self, monkeypatch):
        """At truncation 1 degree 0 is the only homology degree, and the
        component bijection decides it."""
        def raises(x):
            raise AssertionError("homology computed at truncation 1")

        monkeypatch.setattr(scat, "homology", raises)
        assert check_dk(_collapse_functor()).verdict == "pass_partial"
        assert check_dk(_point_inclusion()).verdict == "fail"

    def test_invalid_functor_rejected(self):
        fun = _collapse_functor()
        del fun.simplex_map[("X", "Y", 0, "u")]
        with pytest.raises(InputError):
            check_dk(fun)

    def test_certificate_serializes(self):
        cert = check_dk(_collapse_functor())
        data = cert.to_json()
        assert data["verdict"] == "pass_partial"
        assert data["truncation"] == 1

    def test_two_out_of_three_for_component_bijections(self):
        f = _collapse_functor()
        iso = inst.walking_iso()
        back_smap = {("*", "*", level, "id*"): "idX" for level in range(2)}
        g = SimplicialFunctor(f.target, f.source, {"*": "X"}, back_smap)
        composed_smap = {}
        for key, mid in g.simplex_map.items():
            x, y, level, s = key
            composed_smap[key] = f.simplex_map[(g.object_map[x], g.object_map[y], level, mid)]
        gf = SimplicialFunctor(g.source, f.target, {"*": "*"}, composed_smap)
        certs = [check_dk(fun) for fun in (g, f, gf)]
        bijective = [
            all(cmp.pi0_ok for cmp in cert.pairs.values()) for cert in certs
        ]
        assert sum(bijective) >= 2
        assert all(bijective)


def _loop_category():
    """Objects p and q; hom(p, q) is the truncation-2 nerve of the
    parallel pair, a circle (H_1 = Z), hom(p, p) and hom(q, q) are points
    and hom(q, p) is empty, so only identities compose."""
    loop = nerve(inst.parallel_pair(), 2)

    def constant(names):
        same = tuple(range(len(names)))
        return TruncatedSimplicialSet(2, [names] * 3, [(), (same,) * 2, (same,) * 3],
                                      [(same,), (same,) * 2])

    homs = {("p", "p"): constant(("idp",)), ("q", "q"): constant(("idq",)),
            ("p", "q"): loop, ("q", "p"): constant(())}
    table = {}
    for level in range(3):
        table[("p", "p", "p", level, "idp", "idp")] = "idp"
        table[("q", "q", "q", level, "idq", "idq")] = "idq"
        for s in loop.level(level):
            table[("p", "q", "q", level, "idq", s)] = s
            table[("p", "p", "q", level, s, "idp")] = s
    return TruncatedSimplicialCategory(["p", "q"], 2, homs, {"p": "idp", "q": "idq"}, table)


def _loop_functor(a, morphism_map):
    """The endofunctor of :func:`_loop_category` that acts on hom(p, q) as
    the nerve of the endofunctor of the parallel pair with ``morphism_map``
    (objects fixed) and as the identity elsewhere."""
    fun = identity_simplicial_functor(a)
    for level in range(3):
        for s in a.homs[("p", "q")].level(level):
            fun.simplex_map[("p", "q", level, s)] = "|".join(
                morphism_map.get(part, part) for part in s.split("|"))
    return fun


class TestHomologyCertificate:
    """A positive Betti number: the induced map on H_1 of hom(p, q) decides
    the certificate, by ranks of one block matrix."""

    def test_identity_passes(self):
        a = _loop_category()
        assert validate_scat(a) == []
        cert = check_dk(identity_simplicial_functor(a))
        assert cert.verdict == "pass_partial"
        assert cert.pairs[("p", "q")].homology_ok

    def test_collapsing_the_loop_fails_in_degree_one(self):
        a = _loop_category()
        fun = _loop_functor(a, {"b": "a"})
        assert validate_simplicial_functor(fun) == []
        cert = check_dk(fun)
        assert cert.verdict == "fail"
        assert cert.pairs[("p", "q")].pi0_ok
        assert cert.pairs[("p", "q")].homology_witness == {"pair": ["p", "q"], "degree": 1}

    def test_rank_check_agrees_with_kernel_basis_reference(self):
        a = _loop_category()
        hom = a.homs[("p", "q")]
        report = homology(hom)
        assert report.group(1).free_rank == 1
        cases = [({}, True), ({"a": "b", "b": "a"}, True), ({"b": "a"}, False),
                 ({"a": "b"}, False)]
        for morphism_map, iso in cases:
            fun = _loop_functor(a, morphism_map)
            args = (fun, "p", "q", 1, hom, hom, report, report)
            assert scat._induced_homology_iso(*args) == iso, morphism_map
            assert reference_induced_homology_iso(*args) == iso, morphism_map


class TestLevelCategories:
    def test_level_category_of_promote_is_the_category(self):
        c = inst.chain3()
        p = promote(c, 1)
        for n in range(2):
            level = level_category(p, n)
            assert validate_category(level) == []
            assert len(level.morphisms) == len(c.morphisms)

    def test_level_functors_are_functors(self):
        p = promote(inst.walking_iso(), 1)
        assert validate_functor(level_functor(p, 1, "d", 0)) == []
        assert validate_functor(level_functor(p, 0, "s", 0)) == []


class TestRelscatJson:
    def test_round_trip(self):
        iso = inst.walking_iso()
        p = promote(iso, 1)
        rs = RelativeSimplicialCategory(
            p, sub_from_morphisms(p, iso, ["idX", "idY", "u", "v"])
        )
        again = relscat_from_json(relscat_to_json(rs))
        assert again.sub == rs.sub
        assert again.ambient.objects == rs.ambient.objects

    def test_functor_json_round_trip(self):
        fun = _collapse_functor()
        data = fun.to_json()
        again = simplicial_functor_from_json(data, fun.source, fun.target)
        assert again.simplex_map == fun.simplex_map
        assert validate_simplicial_functor(again) == []
