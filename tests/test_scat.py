import itertools

import pytest

from hamloc import instances as inst
from hamloc import scat
from hamloc.errors import ConsistencyError, InputError
from hamloc.fincat import FiniteCategory, disjoint_union, validate_category, validate_functor
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
from helpers import identity_simplicial_functor, named_scat
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
            p = promote(c, 2)
            ho, class_names, parts = homotopy_category_data(p)
            assert validate_category(ho) == []
            rename = {}
            for m in c.morphisms:
                pair = (c.dom[m], c.cod[m])
                s = p.homs[pair].number[0][m]
                rename[m] = class_names[pair][parts[pair].class_of[s]]
            assert len(set(rename.values())) == len(c.morphisms)
            for (g, f), h in c.table.items():
                assert ho.table[(rename[g], rename[f])] == rename[h]

    def test_identity_at_levels(self):
        p = promote(inst.walking_arrow(), 2)
        for level in range(3):
            assert p.homs[("X", "X")].levels[level][p.identity_at("X", level)] == "idX"


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
    return named_scat(["o"], 1, {("o", "o"): hom}, {"o": "i"}, table)


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
        v, u = p.homs[("Y", "X")].number[0]["v"], p.homs[("X", "Y")].number[0]["u"]
        table = {key: h for key, h in p.table.items() if key != ("X", "Y", "X", 0, v, u)}
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
    return named_scat(["p", "q"], 2, homs, {"p": "idp", "q": "idq"}, table)


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
            image = scat._functor_report(fun)[1][("p", "q")][1]
            assert scat._induced_homology_iso(image, 1, hom, hom, report, report) == iso, \
                morphism_map
            args = (fun, "p", "q", 1, hom, hom, report, report)
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


# --- the numbered checks against the name-based references ----------------


def _broken_scats():
    """Simplicial categories that fail :func:`validate_scat` or have no
    category of components, each in its own way."""
    iso, z2 = inst.walking_iso(), inst.group_z2()
    cases = [("ill-defined", _ill_defined_category())]
    p = promote(inst.terminal(), 2)
    cases.append(("truncation-zero", TruncatedSimplicialCategory(
        p.objects, 0, {pair: TruncatedSimplicialSet(0, [sset.level(0)], {}, {})
                       for pair, sset in p.homs.items()},
        p.identities, {key: value for key, value in p.table.items() if key[3] == 0})))
    p = promote(iso, 1)
    v, u = p.homs[("Y", "X")].number[0]["v"], p.homs[("X", "Y")].number[0]["u"]
    missing = {key: h for key, h in p.table.items() if key != ("X", "Y", "X", 0, v, u)}
    args = (p.objects, 1, p.homs, p.identities)
    cases.append(("missing-composite", TruncatedSimplicialCategory(*args, missing)))
    cases.append(("bounded-missing-composite", TruncatedSimplicialCategory(
        *args, composer=lambda *key: missing.get(key))))
    cases.append(("composite-outside-hom", TruncatedSimplicialCategory(
        *args, p.table | {("X", "Y", "X", 0, v, u): -1})))
    cases.append(("composite-past-hom", TruncatedSimplicialCategory(
        *args, p.table | {("X", "Y", "X", 0, v, u): len(p.homs[("X", "X")].levels[0])})))
    cases.append(("missing-hom", TruncatedSimplicialCategory(
        p.objects, 1, {pair: s for pair, s in p.homs.items() if pair != ("X", "Y")},
        p.identities, p.table)))
    p = promote(z2, 1)
    t, e = p.homs[("*", "*")].number[1]["t"], p.homs[("*", "*")].number[1]["e"]
    cases.append(("level-one-product-changed", TruncatedSimplicialCategory(
        p.objects, 1, p.homs, p.identities, p.table | {("*", "*", "*", 1, t, t): t})))
    cases.append(("unit-changed", TruncatedSimplicialCategory(
        p.objects, 1, p.homs, p.identities, p.table | {("*", "*", "*", 0, e, t): e})))
    z2s = inst.z2_nerve_scat(2)
    key = next(k for k in sorted(z2s.table) if k[3] == 2 and z2s.table[k] != k[5])
    cases.append(("nerve-level-two-changed", TruncatedSimplicialCategory(
        z2s.objects, 2, z2s.homs, z2s.identities, z2s.table | {key: key[5]})))
    return cases


def _z3():
    """The cyclic group of order 3 on one object: e, a and b = a.a."""
    power = {"e": 0, "a": 1, "b": 2}
    name = {n: m for m, n in power.items()}
    return FiniteCategory(["*"], ["e", "a", "b"], dict.fromkeys("eab", "*"),
                          dict.fromkeys("eab", "*"), {"*": "e"},
                          {(g, f): name[(power[g] + power[f]) % 3] for g in "eab" for f in "eab"})


def _z3_functor(morphism_map):
    """The map of the promoted ``_z3`` to itself given on morphisms,
    the same at both levels (a functor only for an automorphism)."""
    p = promote(_z3(), 1)
    return SimplicialFunctor(p, p, {"*": "*"}, {
        ("*", "*", level, m): morphism_map.get(m, m) for level in range(2) for m in "eab"})


def _valid_scats():
    cases = [(f"promote-{name}-{n}", promote(c, n))
             for name, c in zip(("terminal", "arrow", "iso", "chain3", "z2", "z3"),
                                stock_cats() + [_z3()])
             for n in (1, 2)]
    cases += [("z2-nerve-1", inst.z2_nerve_scat(1)), ("z2-nerve-2", inst.z2_nerve_scat(2)),
              ("loop", _loop_category())]
    return cases


def _localized_relscats(width=3):
    """The dimensionwise-localization inputs of claim 3.2 on the oracle
    suite, with each relative category and its localization."""
    from hamloc.hammock import hammock_localization
    from hamloc.verify import _embedded_sub

    cases = []
    for name, r in inst.oracle_suite():
        loc = hammock_localization(r, 1, width)
        cases.append((name, r, loc, RelativeSimplicialCategory(
            loc.scat(), _embedded_sub(r, loc.scat(), r.weq))))
    return cases


def _outcome(check, *args):
    """What ``check`` returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (ConsistencyError, InputError, scat.CompositionUnavailable) as exc:
        return type(exc).__name__, str(exc)


def _certificate(check, fun):
    result = _outcome(check, fun)
    return result.to_json() if isinstance(result, scat.DkCertificate) else result


def _functors():
    """Simplicial functors that pass and that fail validation, the DK
    certificate, or both."""
    cases = [(f"identity-{name}", identity_simplicial_functor(a)) for name, a in _valid_scats()]
    cases += [("collapse", _collapse_functor()), ("point-inclusion", _point_inclusion())]
    loop = _loop_category()
    cases += [(f"loop-{m}", _loop_functor(loop, m))
              for m in ({"b": "a"}, {"a": "b"}, {"a": "b", "b": "a"})]
    unmapped = _collapse_functor()
    del unmapped.simplex_map[("X", "Y", 0, "u")]
    cases.append(("unmapped-simplex", unmapped))
    stray = _collapse_functor()
    stray.object_map["Y"] = "nowhere"
    cases.append(("stray-object", stray))
    p = promote(inst.group_z2(), 1)
    swap = {"e": "t", "t": "e"}
    smap = {key: swap[key[3]] for key in identity_simplicial_functor(p).simplex_map}
    cases.append(("swap-identity", SimplicialFunctor(p, p, {"*": "*"}, smap)))
    level_one = identity_simplicial_functor(p)
    level_one.simplex_map[("*", "*", 1, "t")] = "e"
    cases.append(("face-not-preserved", level_one))
    cases += [("z3-rotation", _z3_functor({"a": "b", "b": "a"})),
              ("z3-not-a-functor", _z3_functor({"a": "b"}))]
    return cases


class TestNumberedAgainstReference:
    """The checks on simplex numbers report exactly what the earlier ones
    on names report (``tests/oracles.py``): the same violations in the
    same order and words, the same neglectability witness and the same
    DK certificate, or the same exception."""

    def test_validate_scat(self):
        from oracles import reference_validate_scat

        broken = 0
        for name, a in _valid_scats() + _broken_scats():
            got = _outcome(validate_scat, a)
            assert got == _outcome(reference_validate_scat, a), name
            broken += bool(got)
        assert broken == 8

    def test_validate_scat_on_localizations(self):
        from oracles import reference_validate_scat

        from hamloc.hammock import hammock_localization_relscat

        diagonals = 0
        for name, _, loc, rs in _localized_relscats():
            assert validate_scat(loc.scat()) == reference_validate_scat(loc.scat()) == [], name
            diagonal = hammock_localization_relscat(rs, 1, 3).scat()
            # the associativity check is cubic in the hom sizes: on the
            # larger dimensionwise localizations it takes minutes
            if max(len(hom.levels[0]) for hom in diagonal.homs.values()) > 10:
                continue
            diagonals += 1
            assert _outcome(validate_scat, diagonal) == _outcome(reference_validate_scat, diagonal)
        assert diagonals >= 4

    def test_is_neglectable(self):
        from oracles import neglectable_instances, reference_is_neglectable

        cases = neglectable_instances() + [(name, rs) for name, _, _, rs in _localized_relscats()]
        for name, a in _valid_scats() + _broken_scats():
            if validate_scat(a):
                continue
            # every simplex in the sub: neglectable only in a groupoid
            cases.append((name, RelativeSimplicialCategory(a, {
                pair: tuple(frozenset(level) for level in hom.levels)
                for pair, hom in a.homs.items()})))
        cases.append(("ill-defined", RelativeSimplicialCategory(_ill_defined_category(), {})))
        # six parallel arrows, none invertible: the witness is the least name
        arrows = [f"m{k}" for k in range(6)]
        c = FiniteCategory(["X", "Y"], ["idX", "idY", *arrows],
                           {"idX": "X", "idY": "Y", **dict.fromkeys(arrows, "X")},
                           {"idX": "X", "idY": "Y", **dict.fromkeys(arrows, "Y")},
                           {"X": "idX", "Y": "idY"},
                           {**{("idY", m): m for m in arrows}, **{(m, "idX"): m for m in arrows},
                            ("idX", "idX"): "idX", ("idY", "idY"): "idY"})
        p = promote(c, 1)
        cases.append(("six-arrows", RelativeSimplicialCategory(
            p, sub_from_morphisms(p, c, c.morphisms))))
        assert is_neglectable(cases[-1][1]) == (False, ("X", "Y", "m0"))
        outcomes = set()
        for name, rs in cases:
            got = _outcome(is_neglectable, rs)
            assert got == _outcome(reference_is_neglectable, rs), name
            outcomes.add(got[0])
        assert outcomes == {True, False, "CompositionUnavailable", "ConsistencyError",
                            "InputError"}

    def test_validate_relscat(self):
        from oracles import neglectable_instances, reference_validate_relscat

        iso = inst.walking_iso()
        p = promote(iso, 1)
        cases = neglectable_instances() + [(name, rs) for name, _, _, rs in _localized_relscats()]
        cases += [
            ("unknown-simplex", RelativeSimplicialCategory(p, {("X", "Y"): ({"w"}, {"u"})})),
            ("wrong-level-count", RelativeSimplicialCategory(p, {("X", "Y"): ({"u"},)})),
            ("no-identities", RelativeSimplicialCategory(p, {("X", "Y"): ({"u"}, {"u"})})),
            ("not-closed", RelativeSimplicialCategory(promote(inst.chain3(), 1), sub_from_morphisms(
                promote(inst.chain3(), 1), inst.chain3(), ["idX", "idY", "idZ", "f", "g"]))),
            ("face-escapes", RelativeSimplicialCategory(
                p, sub_from_morphisms(p, iso, ["idX", "idY"]) | {("X", "Y"): ({}, {"u"})})),
            # d_1 of a is the vertex X, in the sub; d_0 is Y, outside it
            ("one-face-escapes", RelativeSimplicialCategory(
                _loop_category(), {("p", "q"): ({"X"}, {"a"}, set())})),
        ]
        reported = 0
        for name, rs in cases:
            got = validate_relscat(rs)
            assert got == reference_validate_relscat(rs), name
            reported += bool(got)
        assert reported == 6

    def test_functors(self):
        from oracles import reference_check_dk, reference_validate_simplicial_functor

        verdicts = set()
        for name, fun in _functors():
            got = validate_simplicial_functor(fun)
            assert got == reference_validate_simplicial_functor(fun), name
            certificate = _certificate(check_dk, fun)
            assert certificate == _certificate(reference_check_dk, fun), name
            verdicts.add(certificate["verdict"] if isinstance(certificate, dict)
                         else certificate[0])
        assert verdicts == {"pass_partial", "fail", "InputError"}

    def test_composition_cap(self):
        """The composites checked, and so the violations reported, stop at
        the cap in the same place."""
        from oracles import reference_validate_simplicial_functor

        fun = _z3_functor({"a": "b"})
        counts = []
        for cap in range(20):
            got = validate_simplicial_functor(fun, cap)
            assert got == reference_validate_simplicial_functor(fun, cap), cap
            counts.append(len(got))
        assert counts[0] == 0 and len(set(counts)) > 2

    def test_comparison_maps_of_the_claims(self):
        """The comparison maps of claims 3.2 and 2.4ii into dimensionwise
        localizations, and of claim 2.4i between two localizations."""
        from hamloc.fincat import subcategory_span
        from hamloc.hammock import embed_relscat, hammock_localization, \
            hammock_localization_relscat
        from hamloc.relcat import RelativeCategory
        from hamloc.verify import _embedded_sub
        from oracles import neglectable_instances, reference_check_dk

        maps = []
        cases = neglectable_instances() + [(name, rs) for name, _, _, rs in _localized_relscats()]
        for name, rs in cases:
            try:
                rl = hammock_localization_relscat(rs, 1, 3)
            except ConsistencyError:
                continue
            maps.append((name, embed_relscat(rs, rl)))
        chain, iso = inst.chain3(), inst.walking_iso()
        ids = sorted(chain.identity.values())
        for c, u, v in ((chain, ids, ids + ["f"]), (iso, sorted(iso.identity.values()),
                                                     sorted(iso.morphisms))):
            loc_u = hammock_localization(RelativeCategory(c, u), 1, 4)
            loc_uv = hammock_localization(
                RelativeCategory(c, subcategory_span(c, u, v).morphisms), 1, 4)
            smap = {(x, y, level, s): s for (x, y), ms in loc_u.pairs.items()
                    for level in range(2) for s in ms.sset.level(level)}
            maps.append((f"span-{v}", SimplicialFunctor(
                loc_u.scat(), loc_uv.scat(), {x: x for x in c.objects}, smap)))
            rs = RelativeSimplicialCategory(loc_u.scat(), _embedded_sub(
                RelativeCategory(c, u), loc_u.scat(), v))
            rl = hammock_localization_relscat(rs, 1, 3)
            maps.append((f"span-unit-{v}", embed_relscat(rs, rl)))
        assert len(maps) >= 12
        for name, fun in maps:
            assert _certificate(check_dk, fun) == _certificate(reference_check_dk, fun), name
