import random

import pytest
from hypothesis import given, settings, strategies as st

from hamloc import instances as inst
from hamloc.errors import InputError
from hamloc.fincat import (
    CatFunctor,
    FiniteCategory,
    UnionFind,
    close_morphisms,
    disjoint_union,
    equivalence_from_functor,
    find_equivalence,
    inverse,
    is_isomorphism,
    iso_classes,
    subcategory_span,
    validate_category,
    validate_functor,
    wide_subcategory_violations,
)
from hamloc.relcat import oracle_ho_category
from helpers import compose_functors, identity_functor
from oracles import ReferenceUnionFind, reference_equivalence_from_functor, reference_iso_classes


def small_categories():
    return [
        inst.terminal(),
        inst.discrete(2),
        inst.walking_arrow(),
        inst.walking_iso(),
        inst.chain3(),
        inst.span(),
        inst.group_z2(),
        inst.parallel_pair(),
        inst.poset_square(),
    ]


def broken_associativity_chain():
    """A 3-chain category with one composite redirected, built by
    perturbing a table entry of the valid double chain."""
    c = inst.chain3()
    extra = {
        "objects": ["X", "Y", "Z", "W"],
        "morphisms": ["idX", "idY", "idZ", "idW", "f", "g", "h", "gf", "hg", "hgf", "bad"],
    }
    dom = {"idX": "X", "idY": "Y", "idZ": "Z", "idW": "W",
           "f": "X", "g": "Y", "h": "Z", "gf": "X", "hg": "Y", "hgf": "X", "bad": "X"}
    cod = {"idX": "X", "idY": "Y", "idZ": "Z", "idW": "W",
           "f": "Y", "g": "Z", "h": "W", "gf": "Z", "hg": "W", "hgf": "W", "bad": "W"}
    table = {}
    for o in extra["objects"]:
        table[(f"id{o}", f"id{o}")] = f"id{o}"
    for m in ["f", "g", "h", "gf", "hg", "hgf", "bad"]:
        table[(m, f"id{dom[m]}")] = m
        table[(f"id{cod[m]}", m)] = m
    table.update({
        ("g", "f"): "gf", ("h", "g"): "hg",
        ("h", "gf"): "hgf",
        ("hg", "f"): "bad",  # breaks (h, g, f)
        ("hgf", "idX"): "hgf", ("bad", "idX"): "bad",
    })
    identity = {o: f"id{o}" for o in extra["objects"]}
    return FiniteCategory(extra["objects"], extra["morphisms"], dom, cod, identity, table)


class TestValidation:
    def test_terminal_is_valid(self):
        assert validate_category(inst.terminal()) == []

    def test_all_stock_categories_valid(self):
        for c in small_categories():
            assert validate_category(c) == []

    def test_missing_composite_reported(self):
        c = inst.chain3()
        table = dict(c.table)
        del table[("g", "f")]
        broken = FiniteCategory(c.objects, c.morphisms, c.dom, c.cod, c.identity, table)
        report = validate_category(broken)
        assert any(v.startswith("missing composite: (g, f)") for v in report)

    def test_associativity_violation_names_the_triple(self):
        report = validate_category(broken_associativity_chain())
        assert any(v == "associativity: (h, g, f)" for v in report)

    def test_violations_are_exhaustive_not_fail_fast(self):
        c = inst.chain3()
        table = dict(c.table)
        del table[("g", "f")]
        del table[("gf", "idX")]
        broken = FiniteCategory(c.objects, c.morphisms, c.dom, c.cod, c.identity, table)
        assert len(validate_category(broken)) >= 2

    def test_constructor_rejects_unknown_names(self):
        with pytest.raises(InputError):
            FiniteCategory(["X"], ["idX"], {"idX": "X"}, {"idX": "nope"},
                           {"X": "idX"}, {("idX", "idX"): "idX"})


class TestIsomorphism:
    def test_identity_is_isomorphism(self):
        c = inst.walking_arrow()
        assert is_isomorphism(c, "idX")

    def test_walking_arrow_f_is_not(self):
        assert not is_isomorphism(inst.walking_arrow(), "f")

    def test_walking_iso_arrows_are(self):
        c = inst.walking_iso()
        assert is_isomorphism(c, "u")
        assert is_isomorphism(c, "v")
        assert inverse(c, "u") == "v"

    def test_unknown_morphism_is_input_error(self):
        with pytest.raises(InputError):
            is_isomorphism(inst.terminal(), "ghost")

    def test_isos_closed_under_composition(self):
        for c in small_categories():
            isos = [m for m in c.morphisms if is_isomorphism(c, m)]
            for g in isos:
                for f in isos:
                    if c.composable(g, f):
                        assert is_isomorphism(c, c.compose(g, f))


class TestSpan:
    def test_span_of_identities_is_identities(self):
        c = inst.chain3()
        ids = list(c.identity.values())
        assert set(subcategory_span(c, ids, ids).morphisms) == set(ids)

    def test_chain_span_adds_composite(self):
        c = inst.chain3()
        ids = list(c.identity.values())
        got = subcategory_span(c, ids + ["f"], ids + ["g"])
        assert set(got.morphisms) == set(c.morphisms)

    def test_span_with_trivial_v_is_u(self):
        c = inst.chain3()
        ids = list(c.identity.values())
        u = ids + ["f"]
        got = subcategory_span(c, u, ids)
        assert set(got.morphisms) == set(u)

    def test_span_idempotent(self):
        c = inst.poset_square()
        ids = list(c.identity.values())
        u = ids + ["00<01"]
        v = ids + ["01<11"]
        once = subcategory_span(c, u, v)
        again = subcategory_span(c, once.morphisms, ids)
        assert set(again.morphisms) == set(once.morphisms)

    def test_non_wide_input_rejected(self):
        c = inst.chain3()
        with pytest.raises(InputError):
            subcategory_span(c, ["f"], list(c.identity.values()))

    def test_closure_helper_monotone(self):
        c = inst.chain3()
        small = close_morphisms(c, ["f"])
        bigger = close_morphisms(c, ["f", "g"])
        assert small <= bigger

    def test_wide_subcategory_violations(self):
        c = inst.chain3()
        report = wide_subcategory_violations(c, ["idX", "idY", "idZ", "f", "g"])
        assert any("not closed" in v for v in report)


class TestFunctors:
    def test_identity_functor_valid(self):
        for c in small_categories():
            assert validate_functor(identity_functor(c)) == []

    def test_composition_of_functors(self):
        c = inst.walking_arrow()
        collapse = CatFunctor(c, inst.terminal(),
                              {"X": "*", "Y": "*"},
                              {"idX": "id*", "idY": "id*", "f": "id*"})
        assert validate_functor(collapse) == []
        both = compose_functors(collapse, identity_functor(c))
        assert validate_functor(both) == []

    def test_invalid_functor_reported(self):
        c = inst.walking_arrow()
        bad = CatFunctor(c, c, {"X": "X", "Y": "X"}, {"idX": "idX", "idY": "idX", "f": "f"})
        assert validate_functor(bad)


def _check_witness(witness):
    """The quasi-inverse, unit and counit that the reference builds for an
    equivalence: functors, isomorphisms, and a natural counit."""
    fwd, back = witness.forward, witness.backward
    assert validate_functor(fwd) == []
    assert validate_functor(back) == []
    src, tgt = fwd.source, fwd.target
    for x in src.objects:
        eta = witness.unit[x]
        assert src.dom[eta] == x
        assert src.cod[eta] == back.object_map[fwd.object_map[x]]
        assert is_isomorphism(src, eta)
    for b in tgt.objects:
        eps = witness.counit[b]
        assert tgt.dom[eps] == fwd.object_map[back.object_map[b]]
        assert tgt.cod[eps] == b
        assert is_isomorphism(tgt, eps)
    # naturality of the counit
    for beta in tgt.morphisms:
        b, b2 = tgt.dom[beta], tgt.cod[beta]
        lhs = tgt.compose(beta, witness.counit[b])
        rhs = tgt.compose(witness.counit[b2], fwd.morphism_map[back.morphism_map[beta]])
        assert lhs == rhs


def _check_found(out):
    """A found equivalence passes the reference's witness checks."""
    assert out.found
    _check_witness(reference_equivalence_from_functor(out.functor))


class TestFindEquivalence:
    def test_terminal_terminal(self):
        out = find_equivalence(inst.terminal(), inst.terminal(), 100)
        _check_found(out)

    def test_terminal_walking_iso(self):
        out = find_equivalence(inst.terminal(), inst.walking_iso(), 10_000)
        assert out.found
        fwd = out.functor
        # fully faithful by hom counts 1 = 1, essentially surjective since
        # both objects are isomorphic
        for x in fwd.source.objects:
            for y in fwd.source.objects:
                assert len(fwd.source.hom(x, y)) == len(
                    fwd.target.hom(fwd.object_map[x], fwd.object_map[y])
                )
        _check_found(out)

    def test_terminal_discrete_two_is_none(self):
        out = find_equivalence(inst.terminal(), inst.discrete(2), 10_000)
        assert out.status == "none"

    def test_budget_exhaustion_is_undetermined(self):
        out = find_equivalence(inst.chain3(), inst.poset_square(), 3)
        assert out.status == "undetermined"

    def test_self_equivalence_within_square_budget(self):
        for c in small_categories():
            budget = len(c.morphisms) ** 2
            out = find_equivalence(c, c, budget)
            assert out.found, c
            _check_found(out)

    def test_random_dag_self_equivalence(self):
        rng = random.Random(11)
        for _ in range(6):
            c = inst.random_dag_category(rng)
            out = find_equivalence(c, c, len(c.morphisms) ** 2)
            assert out.found

    def test_inequivalent_by_hom_counts(self):
        out = find_equivalence(inst.walking_arrow(), inst.parallel_pair(), 100_000)
        assert out.status == "none"

    def test_equivalence_from_functor_rejects_non_equivalence(self):
        c = inst.walking_arrow()
        collapse = CatFunctor(c, inst.terminal(),
                              {"X": "*", "Y": "*"},
                              {"idX": "id*", "idY": "id*", "f": "id*"})
        assert equivalence_from_functor(collapse) is None


def _random_functor(rng):
    """A random object map between two small categories, each free on a
    random DAG and half of them with a walking isomorphism beside it, and
    a morphism map that mostly respects typing.  A third of the time the
    target is the source, and then half of the time the object map is the
    identity but for the walking isomorphism, whose two objects go to
    either.  Many are not functors; among the functors are equivalences
    that miss an object of the target."""
    def category():
        c = inst.random_dag_category(rng, max_objects=3, max_nonid=6)
        return disjoint_union(c, inst.walking_iso()) if rng.random() < 0.5 else c

    source = category()
    target = source if rng.random() < 1 / 3 else category()
    if target is source and rng.random() < 0.5:
        omap = {x: rng.choice(["R.X", "R.Y"]) if x.startswith("R.") else x
                for x in source.objects}
    else:
        omap = {x: rng.choice(target.objects) for x in source.objects}
    mmap = {}
    for m in source.morphisms:
        typed = target.hom(omap[source.dom[m]], omap[source.cod[m]])
        mmap[m] = rng.choice(typed if typed and rng.random() < 0.95 else target.morphisms)
    return CatFunctor(source, target, omap, mmap)


def _equivalence_outcomes(fun):
    """What the package's and the reference's equivalence check give for
    ``fun``: the backward object map or None, or "InputError"."""
    def outcome(check):
        try:
            return check(fun)
        except InputError:
            return "InputError"

    got, ref = outcome(equivalence_from_functor), outcome(reference_equivalence_from_functor)
    return got, ref if ref in (None, "InputError") else ref.backward.object_map


class TestEquivalenceFromFunctorAgainstReference:
    """The object map of a quasi-inverse against the reference that builds
    the whole quasi-inverse with its unit and counit
    (``tests/oracles.py``): None exactly when the reference gives None,
    the reference's backward object map otherwise, and InputError for a
    non-functor in both."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_maps(self, seed):
        got, ref = _equivalence_outcomes(_random_functor(random.Random(seed)))
        assert got == ref

    def test_the_random_maps_reach_every_outcome(self):
        kinds, outside_image = set(), 0
        for seed in range(300):
            fun = _random_functor(random.Random(seed))
            got, ref = _equivalence_outcomes(fun)
            assert got == ref, seed
            kinds.add(got if got in (None, "InputError") else "map")
            if isinstance(got, dict):
                outside_image += bool(set(got) - set(fun.object_map.values()))
        assert kinds == {None, "InputError", "map"}
        assert outside_image > 0


class TestDisjointUnion:
    def test_valid_and_sizes(self):
        c = disjoint_union(inst.walking_arrow(), inst.terminal())
        assert validate_category(c) == []
        assert len(c.objects) == 3
        assert len(c.morphisms) == 4

    def test_iso_classes_add(self):
        c = disjoint_union(inst.walking_iso(), inst.walking_iso())
        assert len(iso_classes(c)) == 2


class TestUnionFindAgainstReference:
    """The union-find on the dense numbers 0..n-1 against the dict-keyed
    reference (``tests/oracles.py``): the same root kept by each union and
    the same groups, members and order."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_union_sequences(self, data):
        n = data.draw(st.integers(1, 24))
        uf, ref = UnionFind(n), ReferenceUnionFind(range(n))
        for _ in range(data.draw(st.integers(0, 40))):
            kind = data.draw(st.sampled_from(["union", "union_all", "add"]))
            if kind == "add":
                assert uf.add() == n
                ref.add(n)
                n += 1
                continue
            number = st.integers(0, n - 1)
            a = data.draw(number)
            if kind == "union":
                b = data.draw(number)
                uf.union(a, b)
                ref.union(a, b)
            else:
                bs = data.draw(st.lists(number, max_size=6))
                uf.union_all(a, bs)
                ref.union_all(a, bs)
            assert uf.find(a) == ref.find(a)
        items = data.draw(st.permutations(range(n)))
        assert list(uf.groups(items).items()) == list(ref.groups(items).items())
        assert [uf.find(a) for a in range(n)] == [ref.find(a) for a in range(n)]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_inline_roots_on_chains_and_members_under_the_root(self, data):
        """``union_all`` and ``groups`` climb to each root inline.  Random
        ``add``, ``union`` and ``union_all`` sequences, with long parent
        chains (``union(k + 1, k)`` along a run of numbers) and
        ``union_all`` members already in ``a``'s class, must give the
        reference's groups in the same first-occurrence order, and leave
        ``a`` and every member ``union_all`` touched pointing at the root."""
        n = data.draw(st.integers(1, 30))
        uf, ref = UnionFind(n), ReferenceUnionFind(range(n))
        for _ in range(data.draw(st.integers(0, 30))):
            kind = data.draw(st.sampled_from(["add", "union", "chain", "union_all"]))
            if kind == "add":
                assert uf.add() == n
                ref.add(n)
                n += 1
                continue
            number = st.integers(0, n - 1)
            a = data.draw(number)
            if kind == "union":
                b = data.draw(number)
                uf.union(a, b)
                ref.union(a, b)
            elif kind == "chain":
                # each union hangs k's root under k + 1's
                for k in range(a, min(a + data.draw(st.integers(1, 12)), n - 1)):
                    uf.union(k + 1, k)
                    ref.union(k + 1, k)
            else:
                # the reference finds the class, so ``uf`` keeps its chains
                same = [b for b in range(n) if ref.find(b) == ref.find(a)]
                bs = data.draw(st.lists(st.one_of(number, st.sampled_from(same)), max_size=8))
                uf.union_all(a, bs)
                ref.union_all(a, bs)
                root = ref.find(a)
                assert uf.parent[root] == root
                assert [uf.parent[b] for b in [a, *bs]] == [root] * (len(bs) + 1)
        items = data.draw(st.permutations(range(n)))
        assert list(uf.groups(items).items()) == list(ref.groups(items).items())
        assert [uf.find(a) for a in range(n)] == [ref.find(a) for a in range(n)]

    def test_iso_classes_of_stock_categories(self):
        """The stock categories, their disjoint unions and the oracle's
        homotopy categories of the stock relative categories, where weak
        equivalences become isomorphisms."""
        cats = small_categories() + [
            disjoint_union(inst.walking_iso(), inst.walking_iso()),
            disjoint_union(inst.walking_arrow(), inst.group_z2()),
        ]
        for _, r in inst.oracle_suite():
            cats.append(r.cat)
            result = oracle_ho_category(r, 8)
            if result.status == "ok":
                cats.append(result.category)
        assert any(len(reference_iso_classes(c)) < len(c.objects) for c in cats)
        for c in cats:
            assert iso_classes(c) == reference_iso_classes(c), c.objects


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_dag_categories_always_valid(seed):
    rng = random.Random(seed)
    c = inst.random_dag_category(rng)
    assert validate_category(c) == []


class TestJson:
    def test_round_trip(self):
        for c in small_categories():
            again = FiniteCategory.from_json(c.to_json())
            assert again == c

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            FiniteCategory.from_json({"objects": ["X"]})
