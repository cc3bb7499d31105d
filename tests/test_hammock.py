import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hamloc import hammock
from hamloc import instances as inst
from hamloc.cli import run
from hamloc.errors import CompositionUnavailable, ConsistencyError, InputError
from hamloc.fincat import find_equivalence, is_isomorphism, validate_category
from hamloc.flatten import flatten, relativization_unit
from hamloc.jsonio import write_canonical
from hamloc.hammock import (
    ComposeCounts,
    Hammock,
    bounded_composite,
    compose_hammocks,
    embed_morphism,
    embed_relscat,
    hammock_localization,
    hammock_localization_relscat,
    hammock_name,
    homotopy_category_of_localization,
    mapping_space,
    reduce_hammock,
    width_zero,
)
from hamloc.relcat import RelativeCategory, oracle_localized_homset
from hamloc.scat import (
    RelativeSimplicialCategory,
    homotopy_category,
    promote,
    sub_from_morphisms,
    validate_scat,
    validate_simplicial_functor,
)
from hamloc.simplicial import pi0, validate_sset
from hamloc.verify import _embedded_sub
from helpers import embed, simplex_hammock, validate_hammock, vertex_hammocks
import oracles
from oracles import (
    _grid_name,
    _map_hammock,
    _normal_form,
    closed_weq,
    neglectable_instances,
    reference_diagonal,
    reference_mapping_space,
    reference_pi0_mapping_space,
    reference_extensions,
    reference_reduce_hammock,
    reference_row_objects,
)


class TestReduce:
    def test_width_zero_fixed(self):
        r = inst.walking_weq()
        h = width_zero("X", 1)
        assert reduce_hammock(r, h) == h

    def test_forward_forward_merges(self):
        r = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ"])
        h = Hammock("X", "Z", ("f", "f"), ((("f", "g")),), ())
        h = Hammock("X", "Z", ("f", "f"), (("f", "g"),), ())
        got = reduce_hammock(r, h)
        assert got.directions == ("f",)
        assert got.rows == (("gf",),)

    def test_identity_column_flanked_by_forwards(self):
        r = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ"])
        h = Hammock("X", "Z", ("f", "f", "f"), (("f", "idY", "g"),), ())
        left = reduce_hammock(r, h)
        right = reference_reduce_hammock(r, h, "rightmost")
        assert left == right
        assert left.rows == (("gf",),)

    def test_backward_backward_merges(self):
        r = inst.chain_weq()
        h = Hammock("Z", "X", ("b", "b"), (("g", "f"),), ())
        got = reduce_hammock(r, h)
        assert got.rows == (("gf",),)
        assert got.directions == ("b",)

    def test_identity_row_all_collapses(self):
        r = inst.walking_weq()
        h = Hammock("X", "X", ("f", "b"), (("idX", "idX"),), ())
        got = reduce_hammock(r, h)
        assert got.width == 0


class TestValidate:
    def test_good_hammock(self):
        r = inst.walking_weq()
        h = Hammock("X", "X", ("f", "b"), (("idX", "idX"), ("w", "w")), (("w",),))
        assert validate_hammock(r, h) == []

    def test_backward_outside_weq_flagged(self):
        r = inst.walking_arrow_relative()
        h = Hammock("Y", "X", ("b",), (("f",),), ())
        assert any("not a weq" in v for v in validate_hammock(r, h))

    def test_non_commuting_square_flagged(self):
        r = inst.walking_weq()
        h = Hammock("X", "Y", ("f",), (("idX",), ("w",)), ((),))
        report = validate_hammock(r, h)
        assert report  # rows end at different objects or squares broken


class TestCompose:
    def test_unit_laws_strict(self):
        r = inst.walking_weq()
        f = embed_morphism(r, "w")
        assert compose_hammocks(r, f, width_zero("X")) == f
        assert compose_hammocks(r, width_zero("Y"), f) == f

    def test_embedding_is_strictly_functorial(self):
        r = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ"])
        got = compose_hammocks(r, embed_morphism(r, "g"), embed_morphism(r, "f"))
        assert got == embed_morphism(r, "gf")

    def test_mismatch_rejected(self):
        r = inst.walking_weq()
        with pytest.raises(InputError):
            compose_hammocks(r, embed_morphism(r, "w"), embed_morphism(r, "w"))

    def test_zigzag_roundtrip_identity_at_component_level(self):
        r = inst.walking_weq()
        forward = embed_morphism(r, "w")
        backward = Hammock("Y", "X", ("b",), (("w",),), ())
        loop = compose_hammocks(r, backward, forward)
        ms = mapping_space(r, "X", "X", 1, 4)
        number, class_of = ms.sset.number[0], ms.partition.class_of
        assert class_of[number[loop.name]] == class_of[number[width_zero("X").name]]


class TestMappingSpace:
    def test_identity_weq_is_discrete(self):
        for r in inst.discrete_localization_suite(count=4):
            c = r.cat
            for x in c.objects:
                for y in c.objects:
                    ms = mapping_space(r, x, y, 2, 3)
                    assert ms.verdict == "stable"
                    assert len(ms.vertices) == len(c.hom(x, y))
                    for level in range(1, 3):
                        assert ms.sset.nondegenerate(level) == ()

    def test_walking_weq_backward_hom_nonempty(self):
        ms = mapping_space(inst.walking_weq(), "Y", "X", 1, 4)
        names = set(ms.vertices)
        assert Hammock("Y", "X", ("b",), (("w",),), ()).name in names

    def test_walking_weq_endos_single_component(self):
        ms = mapping_space(inst.walking_weq(), "X", "X", 1, 4)
        assert ms.verdict == "stable"
        assert len(ms.partition.classes) == 1
        assert len(ms.vertices) == 3

    def test_simplicial_identities_hold(self):
        for r in (inst.walking_weq(), inst.span_one_leg_inverted(), inst.chain_weq()):
            for x in r.cat.objects:
                for y in r.cat.objects:
                    ms = mapping_space(r, x, y, 2, 3)
                    assert validate_sset(ms.sset) == [], (x, y)

    def test_pi0_matches_sset_pi0(self):
        ms = mapping_space(inst.walking_weq(), "X", "X", 2, 3)
        assert len(pi0(ms.sset).classes) == len(ms.partition.classes)

    def test_pi0_detail_agrees_with_full(self):
        for r in (inst.walking_weq(), inst.span_one_leg_inverted(), inst.retract_weq()):
            for x in r.cat.objects:
                for y in r.cat.objects:
                    full = mapping_space(r, x, y, 1, 4, "full")
                    slim = mapping_space(r, x, y, 1, 4, "pi0")
                    assert full.vertices == slim.vertices
                    assert len(full.partition.classes) == len(slim.partition.classes)
                    assert full.verdict == slim.verdict

    def test_oracle_cross_check(self):
        """Component classes of stable mapping spaces match the word
        oracle wherever it is determined: the vertex rows, read as words,
        pull the oracle partition back onto the hammock partition."""
        for name, r in inst.oracle_suite():
            for x in r.cat.objects:
                for y in r.cat.objects:
                    ms = mapping_space(r, x, y, 1, 4)
                    hs = oracle_localized_homset(r, x, y, 8)
                    if not (ms.verdict == "stable" and hs.determined):
                        continue
                    assert len(ms.partition.classes) == hs.class_count(), (name, x, y)
                    vertices = vertex_hammocks(r, ms)
                    for a, h in enumerate(vertices):
                        word = tuple(
                            (d, m) for d, m in zip(h.directions, h.rows[0])
                        )
                        for b, other in enumerate(vertices):
                            word2 = tuple(
                                (d, m) for d, m in zip(other.directions, other.rows[0])
                            )
                            assert (ms.partition.class_of[a] == ms.partition.class_of[b]) == \
                                (hs.class_index(word) == hs.class_index(word2))

    def test_bounds_validated(self):
        r = inst.walking_weq()
        with pytest.raises(InputError):
            mapping_space(r, "X", "X", 0, 4)
        with pytest.raises(InputError):
            mapping_space(r, "X", "X", 1, 0)
        with pytest.raises(InputError):
            mapping_space(r, "X", "X", 1, 2, detail="bogus")


class TestLocalization:
    def test_pair_filter_names_known_objects(self):
        r = inst.walking_weq()
        with pytest.raises(InputError, match="unknown object: Q"):
            hammock_localization(r, 1, 2, pair_filter={("X", "Y"), ("Q", "R")})
        assert set(hammock_localization(r, 1, 2, pair_filter={("X", "Y")}).pairs) == {("X", "Y")}

    @pytest.mark.parametrize("truncation, w_max, detail", [
        (0, 2, "full"), (1, 0, "full"), (1, 2, "bogus")])
    def test_bounds_validated(self, truncation, w_max, detail):
        with pytest.raises(InputError):
            hammock_localization(inst.walking_weq(), truncation, w_max, detail)

    def test_identity_weq_matches_promote(self):
        r = inst.walking_arrow_relative()
        loc = hammock_localization(r, 2, 3)
        p = promote(r.cat, 2)
        for x in r.cat.objects:
            for y in r.cat.objects:
                for level in range(3):
                    assert len(loc.pair(x, y).sset.level(level)) == \
                        len(p.homs[(x, y)].level(level))
        # composition agrees under the embedding bijection
        fun = embed(r, loc)
        assert validate_simplicial_functor(fun) == []
        for (g, f), h in r.cat.table.items():
            x, y, z = r.cat.dom[f], r.cat.cod[f], r.cat.cod[g]
            number = {pair: loc.pair(*pair).sset.number[0] for pair in ((y, z), (x, y), (x, z))}
            got = loc.composite(
                x, y, z, 0,
                number[(y, z)][fun.simplex_map[(y, z, 0, g)]],
                number[(x, y)][fun.simplex_map[(x, y, 0, f)]],
            )
            assert got == number[(x, z)][fun.simplex_map[(x, z, 0, h)]]
        assert loc.overflows == 0

    def test_serialized_overflows_do_not_depend_on_history(self):
        loc = hammock_localization(inst.walking_weq(), 1, 4)
        first = loc.to_json()["bounds"]["overflows"]
        second = loc.to_json()["bounds"]["overflows"]
        flatten(loc.scat())
        third = loc.to_json()["bounds"]["overflows"]
        assert first == second == third == 232

    def test_terminal_localization_terminal(self):
        loc = hammock_localization(inst.terminal_relative(), 2, 3)
        assert loc.verdict == "stable"
        ho, _ = homotopy_category_of_localization(loc)
        assert len(ho.objects) == 1 and len(ho.morphisms) == 1

    def test_walking_weq_ho_is_walking_iso(self):
        loc = hammock_localization(inst.walking_weq(), 1, 4)
        assert loc.verdict == "stable"
        ho, _ = homotopy_category_of_localization(loc)
        assert validate_category(ho) == []
        out = find_equivalence(ho, inst.walking_iso(), 100_000)
        assert out.found

    def test_localization_inverts_weq(self):
        for name, r in inst.oracle_suite():
            loc = hammock_localization(r, 1, 4)
            if loc.verdict != "stable":
                continue
            ho, classmap = homotopy_category_of_localization(loc)
            for w in r.weq:
                image = embed_morphism(r, w)
                cls = classmap[(r.cat.dom[w], r.cat.cod[w], image.name)]
                assert is_isomorphism(ho, cls), (name, w)

    def test_embed_injective_for_identity_weq(self):
        # injectivity is per hom-set; simplex names are scoped likewise
        r = inst.walking_arrow_relative()
        loc = hammock_localization(r, 1, 3)
        fun = embed(r, loc)
        for x in r.cat.objects:
            for y in r.cat.objects:
                images = [fun.simplex_map[(x, y, 0, m)] for m in r.cat.hom(x, y)]
                assert len(set(images)) == len(images)

    def test_identity_maps_to_width_zero(self):
        r = inst.walking_weq()
        assert embed_morphism(r, "idX") == width_zero("X")

    def test_serialization_carries_bounds(self):
        loc = hammock_localization(inst.walking_weq(), 1, 4)
        data = loc.to_json()
        assert data["bounds"]["verdict"] == "stable"
        assert data["bounds"]["truncation"] == 1
        assert data["bounds"]["width"] == 4


def _ho_outcome(loc, wellcheck_cap):
    """The component category and class map, or the exception's type and
    message."""
    try:
        cat, classmap = homotopy_category_of_localization(loc, wellcheck_cap=wellcheck_cap)
    except (CompositionUnavailable, ConsistencyError) as exc:
        return type(exc).__name__, str(exc)
    return cat.to_json(), classmap


def test_uncapped_well_definedness_check_agrees_with_the_default_cap():
    """Composition of classes is checked on the first ``wellcheck_cap``
    members of each class (6 by default).  Checking every member gives
    the same category, or the same exception, on the oracle suite; the
    cap bites on at least one class there."""
    biggest = 0
    for name, r in inst.oracle_suite():
        for width in (2, 3, 4):
            loc = hammock_localization(r, 1, width)
            assert _ho_outcome(loc, 6) == _ho_outcome(loc, 10**9), (name, width)
            biggest = max(biggest, *(len(cls) for ms in loc.pairs.values()
                                     for cls in ms.partition.classes))
    assert biggest > 6


def test_hammock_objects_are_made_only_at_the_boundary(monkeypatch):
    """Inside the package a simplex is a grid of morphism numbers: full
    and pi0 localizations, the whole composition table, the component
    category and a dimensionwise localization with its composites make no
    :class:`Hammock`, and ``reduce_hammock`` and ``compose_hammocks`` read
    the category's numbered table without an enumeration context."""
    from hamloc import hammock

    def refuse(*args, **kwargs):
        raise AssertionError("constructed inside the package")

    r = inst.walking_weq()
    p = promote(r.cat, 1)
    rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, r.cat, sorted(r.weq)))
    backward = Hammock("Y", "X", ("b",), (("w",),), ())
    forward = embed_morphism(r, "w")
    unreduced = Hammock("X", "X", ("f", "b"), (("w", "w"), ("w", "w")), (("idY",),))
    want = compose_hammocks(r, backward, forward), reduce_hammock(r, unreduced)

    monkeypatch.setattr(Hammock, "__init__", refuse)
    loc = hammock_localization(r, 2, 3)
    assert loc.to_json()["bounds"]["overflows"] > 0
    homotopy_category_of_localization(loc)
    homotopy_category_of_localization(hammock_localization(r, 1, 3, detail="pi0"))
    assert validate_scat(hammock_localization_relscat(rs, 1, 3).scat()) == []

    monkeypatch.undo()
    monkeypatch.setattr(hammock._Context, "__init__", refuse)
    assert (compose_hammocks(r, backward, forward), reduce_hammock(r, unreduced)) == want


class TestConfluence:
    def test_reduction_strategy_independent(self):
        suite = [r for _, r in inst.oracle_suite()]
        rng = random.Random(424242)
        for _ in range(200):
            r = rng.choice(suite)
            h = inst.random_hammock(rng, r, w_max=5, h_max=2)
            assert validate_hammock(r, h) == []
            left = reduce_hammock(r, h)
            right = reference_reduce_hammock(r, h, "rightmost")
            assert left == right
            assert validate_hammock(r, left) == []

    def test_vertical_checks_match_the_reference(self):
        """With one interior vertical replaced at random, the numbered
        normal form raises the reference's ConsistencyError, or fails for a
        missing composite, or reduces to the same hammock."""
        cases = [r for _, r in inst.oracle_suite()]
        cases.append(flatten(hammock_localization(inst.walking_weq(), 1, 2).scat()).rel)
        rng = random.Random(20261019)
        outcomes = set()
        for _ in range(600):
            r = rng.choice(cases)
            h = TestJunctionCascade._tampered(rng, r, inst.random_hammock(rng, r, 5, 2))
            if h is None:
                continue
            try:
                want = reference_reduce_hammock(r, h)
            except (CompositionUnavailable, ConsistencyError) as exc:
                want = type(exc), str(exc) if isinstance(exc, ConsistencyError) else None
            try:
                got = reduce_hammock(r, h)
            except (CompositionUnavailable, ConsistencyError) as exc:
                got = type(exc), str(exc) if isinstance(exc, ConsistencyError) else None
            assert got == want
            outcomes.add(want if isinstance(want, tuple) else Hammock)
        assert len(outcomes) == 4  # two vertical checks, a missing composite, a hammock


class TestRelscatLocalization:
    def test_discrete_identities_returns_promote_shape(self):
        c = inst.walking_arrow()
        p = promote(c, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, c, ["idX", "idY"]))
        rl = hammock_localization_relscat(rs, 1, 4)
        assert rl.verdict == "stable"
        for x in c.objects:
            for y in c.objects:
                for level in range(2):
                    assert len(rl.diag_homs[(x, y)].level(level)) == len(c.hom(x, y))
        fun = embed_relscat(rs, rl)
        assert validate_simplicial_functor(fun) == []

    def test_promoted_relative_category_agrees_with_direct_localization(self):
        r = inst.walking_weq()
        p = promote(r.cat, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, r.cat, sorted(r.weq)))
        rl = hammock_localization_relscat(rs, 1, 4)
        direct = hammock_localization(r, 1, 4)
        for x in r.cat.objects:
            for y in r.cat.objects:
                for level in range(2):
                    assert len(rl.diag_homs[(x, y)].level(level)) == \
                        len(direct.pair(x, y).sset.level(level)), (x, y, level)
        ho_rl = homotopy_category(rl.scat())
        ho_direct, _ = homotopy_category_of_localization(direct)
        assert find_equivalence(ho_rl, ho_direct, 100_000).found

    def test_one_localization_per_level(self):
        r = inst.walking_weq()
        p = promote(r.cat, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, r.cat, sorted(r.weq)))
        rl = hammock_localization_relscat(rs, 1, 3)
        assert [loc.relcat for loc in rl.levels] == rl.level_rel
        for (x, y, n), ms in rl.row_spaces.items():
            assert ms is rl.levels[n].pair(x, y)
            fresh = mapping_space(rl.level_rel[n], x, y, 1, 3)
            assert ms.vertices == fresh.vertices
            assert ms.verdict == fresh.verdict

    def test_level_categories_built_once_per_level(self, monkeypatch):
        from hamloc import scat

        built = []
        original = scat.level_category

        def counted(a, n):
            built.append(n)
            return original(a, n)

        monkeypatch.setattr(scat, "level_category", counted)
        iso = inst.walking_iso()
        p = promote(iso, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))
        hammock_localization_relscat(rs, 1, 3)
        assert built == [0, 1]

    def test_terminal_input_terminal_output(self):
        p = promote(inst.terminal(), 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, inst.terminal(), ["id*"]))
        rl = hammock_localization_relscat(rs, 1, 4)
        assert [len(level) for level in rl.diag_homs[("*", "*")].levels] == [1, 1]

    def test_diagonal_simplicial_identities(self):
        iso = inst.walking_iso()
        p = promote(iso, 1)
        cases = [("walking-iso", RelativeSimplicialCategory(
            p, sub_from_morphisms(p, iso, ["idX", "idY", "u", "v"])), 4)]
        # criterion 5's neglectable instances, and the relative simplicial
        # categories check_32 localizes dimensionwise
        cases += [(name, rs, 3) for name, rs in neglectable_instances()]
        cases += [(name, rs, 2) for name, rs in _check_32_relscats()]
        for name, rs, width in cases:
            rl = hammock_localization_relscat(rs, 1, width)
            for pair, sset in rl.diag_homs.items():
                assert validate_sset(sset) == [], (name, pair)
            assert validate_scat(rl.scat()) == [], name

    def test_diagonal_counts(self):
        """Each diagonal hom counts one image per simplex and outer map,
        and one normal form per distinct face image."""
        for name, rs in _check_32_relscats():
            reported = {}

            def diagonal_only(x, y, counts, stage=None):
                if stage is None:  # the level localizations' pairs are staged
                    reported[(x, y)] = counts

            rl = hammock_localization_relscat(rs, 1, 2, progress=diagonal_only)
            assert set(reported) == set(rl.diag_homs)
            faces = [oracles.level_map(rs.ambient, 1, "d", i) for i in range(2)]
            for (x, y), counts in reported.items():
                level0, level1 = rl.diag_homs[(x, y)].levels
                assert counts.images == 2 * len(level1) + len(level0), (name, x, y)
                ms = rl.row_spaces[(x, y, 1)]
                distinct = {_map_hammock(names, simplex_hammock(rl.level_rel[1], ms, 1, s))
                            for names in faces for s in level1}
                assert counts.normal_forms == len(distinct), (name, x, y)

    def test_degeneracy_images_are_reduced(self):
        """An outer degeneracy maps a reduced hammock to a reduced one, so
        the diagonal names its image without a normal form."""
        cases = neglectable_instances() + _check_32_relscats()
        mapped = 0
        for name, rs in cases:
            rl = hammock_localization_relscat(rs, 1, 2)
            for n in range(rl.truncation):
                for i in range(n + 1):
                    names = oracles.level_map(rs.ambient, n, "s", i)
                    rel = rl.level_rel[n + 1]
                    for (x, y, level), ms in rl.row_spaces.items():
                        if level != n:
                            continue
                        for simplex in ms.sset.level(n):
                            h = simplex_hammock(rl.level_rel[n], ms, n, simplex)
                            grid = _map_hammock(names, h)
                            direct = hammock_name(*grid)
                            assert direct == hammock_name(*_normal_form(rel.cat, *grid)), \
                                (name, simplex)
                            assert rl.row_spaces[(x, y, n + 1)].sset.has_simplex(n, direct)
                            mapped += 1
        assert mapped > 100


def _check_32_relscats(width=2, names=None):
    """The relative simplicial categories check_32 localizes
    dimensionwise, from localizations of the oracle suite (or of its
    instances ``names``) at ``width``."""
    cases = []
    for name, r in inst.oracle_suite():
        if names is not None and name not in names:
            continue
        loc = hammock_localization(r, 1, width)
        cases.append((f"3.2 {name}", RelativeSimplicialCategory(
            loc.scat(), _embedded_sub(r, loc.scat(), r.weq))))
    return cases


def _same_sset(got, want, where):
    assert got.levels == want.levels, where
    assert got.faces == want.faces, where
    assert got.degeneracies == want.degeneracies, where


class TestFullDetailAgainstReference:
    """Full detail builds only the last rows that make a grid reduced and
    reduces each distinct face and diagonal image once; the simplicial
    sets, partitions and verdicts must be those of the enumeration that
    builds every grid and reduces every image anew (``tests/oracles.py``)."""

    @staticmethod
    def _agree(r, x, y, truncation, width):
        got = mapping_space(r, x, y, truncation, width, "full")
        want = reference_mapping_space(r, x, y, truncation, width)
        where = (x, y, truncation, width)
        _same_sset(got.sset, want.sset, where)
        assert list(got.vertices) == [h.name for h in want.vertices], where
        # the reference partitions vertex names, the package vertex numbers
        assert got.partition.renamed(got.vertices).class_of == want.partition.class_of, where
        assert got.verdict == want.verdict, where
        assert got.grids == want.grids, where
        return got

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), truncation=st.integers(1, 2),
           width=st.integers(1, 3))
    def test_random_relative_categories(self, seed, truncation, width):
        rng = random.Random(seed)
        r = closed_weq(inst.random_dag_category(rng), rng)
        for x in r.cat.objects:
            for y in r.cat.objects:
                self._agree(r, x, y, truncation, width)

    def test_random_relative_categories_at_truncation_two(self):
        """Grids whose first two rows share an identity column but whose
        third row clears it: the mask may only filter the last row."""
        reduced_late = 0
        for seed in range(12):
            rng = random.Random(seed)
            r = closed_weq(inst.random_dag_category(rng), rng)
            for x in r.cat.objects:
                for y in r.cat.objects:
                    ms = self._agree(r, x, y, 2, 3)
                    reduced_late += sum(
                        1 for name in ms.sset.level(2)
                        if _identity_mask_of(r, simplex_hammock(r, ms, 2, name).rows[:2]))
        assert reduced_late > 0

    def test_partial_flattening_of_walking_weq(self, monkeypatch):
        """Over the partially represented flattening some faces need a
        missing composite, and those simplices are pruned."""
        fl = flatten(hammock_localization(inst.walking_weq(), 1, 2).scat())
        unavailable = []
        reference_face = oracles._reference_face

        def counted(ctx, h, i):
            try:
                return reference_face(ctx, h, i)
            except CompositionUnavailable:
                unavailable.append(h.name)
                raise

        monkeypatch.setattr(oracles, "_reference_face", counted)
        for truncation, width in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
            for x in fl.rel.cat.objects:
                for y in fl.rel.cat.objects:
                    self._agree(fl.rel, x, y, truncation, width)
        assert unavailable

    @pytest.mark.parametrize("width", [2, 3])
    def test_check_32_level_categories_and_diagonals(self, width):
        for name, rs in _check_32_relscats():
            rl = hammock_localization_relscat(rs, 1, width)
            for (x, y, n), ms in rl.row_spaces.items():
                self._agree(rl.level_rel[n], x, y, 1, width)
            for (x, y), sset in rl.diag_homs.items():
                _same_sset(sset, reference_diagonal(rl, x, y), (name, x, y))


class TestColumnSteps:
    """``_Context.extensions`` looks each column step up in a table built
    on first use; its pairs, in order, must be those of the generator
    that derives every step anew (``oracles.reference_extensions``), for
    every row of every pattern and the nonidentity masks 0, each single
    column and all columns."""

    @staticmethod
    def _agree(r, w_max):
        ctx = hammock._Context(r)
        pairs = 0
        for pattern in hammock._patterns(w_max):
            width = len(pattern)
            masks = sorted({0, (1 << width) - 1} | {1 << col for col in range(width)})
            for x in r.cat.objects:
                for y in r.cat.objects:
                    for row in ctx.paths(x, y, pattern):
                        objects = reference_row_objects(ctx, x, pattern, row)
                        for mask in masks:
                            got = ctx.extensions(pattern, row, x, mask)
                            want = list(reference_extensions(ctx, pattern, row, objects, mask))
                            assert got == want, (x, y, pattern, row, mask)
                            pairs += len(got)
        return pairs

    def test_stock_relative_categories(self):
        for name, r in inst.oracle_suite():
            assert self._agree(r, 4) > 0, name

    def test_check_32_level_categories(self):
        for name, rs in _check_32_relscats(3, ("walking-weq", "retract")):
            for n, rel in enumerate(hammock_localization_relscat(rs, 1, 3).level_rel):
                assert self._agree(rel, 3) > 0, (name, n)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_relative_categories(self, seed):
        rng = random.Random(seed)
        self._agree(closed_weq(inst.random_dag_category(rng), rng), 3)


class TestNamer:
    """The namer joins kept texts of rows and layers into exactly the
    name ``hammock_name`` gives the mapped grid, also for morphism names
    whose ``repr`` changes its quoting."""

    NAMES = ["a", "it's", 'say "hi"', "both ' and \"", "back\\slash", "X|Y", "two words",
             "café", "\u03c0\u2080", "tab\there", "f"]

    @pytest.mark.parametrize("width", [0, 1, 3])
    @pytest.mark.parametrize("height", [0, 1, 2])
    def test_namer_equals_hammock_name(self, width, height):
        rng = random.Random(width * 10 + height)
        name_of = hammock._namer(self.NAMES)
        count = len(self.NAMES)
        rows = [tuple(rng.randrange(count) for _ in range(width)) for _ in range(3)]
        for _ in range(40):
            # rows repeat across grids, so most texts come from the namer's store
            directions = tuple(rng.choice("fb") for _ in range(width))
            grid = (directions,
                    tuple(rng.choice(rows) for _ in range(height + 1)),
                    tuple(tuple(rng.randrange(count) for _ in range(max(width - 1, 0)))
                          for _ in range(height)))
            want = _grid_name(self.NAMES, grid)
            assert want == hammock_name(directions, hammock._mapped(self.NAMES, grid[1]),
                                        hammock._mapped(self.NAMES, grid[2]))
            assert name_of(grid) == want, grid

    def test_kept_simplices_of_a_flattening(self):
        """Flattening morphism names carry quotes and bars."""
        fl = flatten(hammock_localization(inst.walking_weq(), 1, 2).scat())
        morphisms = fl.rel.cat.morphisms
        assert any("'" in m or "|" in m for m in morphisms)
        for x in fl.rel.cat.objects:
            for y in fl.rel.cat.objects:
                ms = mapping_space(fl.rel, x, y, 1, 2)
                for level, grids in enumerate(ms.level_grids):
                    for name, grid in zip(ms.sset.level(level), grids, strict=True):
                        assert _grid_name(morphisms, grid) == name


class TestPrunedComposites:
    """A junction can give a reduced grid within the width bound that the
    target space pruned, because one of its faces needs a composite the
    level category lacks: that composite is an overflow.  A miss in a
    space that pruned nothing stays an inconsistency."""

    # chain-weq and z2-groupoid validate for minutes, so they are left out
    NAMES = ("terminal", "walking-arrow-ids", "parallel-ids", "walking-weq", "span-one-leg",
             "chain-head-weq", "retract", "walking-iso-one-arrow")

    def test_check_32_dimensionwise_localizations_validate(self):
        pruned = {}
        for name, rs in _check_32_relscats(3, self.NAMES):
            rl = hammock_localization_relscat(rs, 1, 3)
            assert validate_scat(rl.scat()) == [], name
            pruned[name] = sum(loc.compose_counts.pruned_overflows for loc in rl.levels)
        assert len(pruned) == len(self.NAMES)
        assert pruned["3.2 walking-weq"] == 76
        assert pruned["3.2 span-one-leg"] == 108

    def test_a_miss_in_an_unpruned_space_raises(self):
        r = inst.walking_weq()
        loc = hammock_localization(r, 1, 3)
        ms = loc.pair("X", "X")
        assert not ms.pruned and ms.stable
        back = loc.pair("Y", "X").sset.number[0][Hammock("Y", "X", ("b",), (("w",),), ()).name]
        forward = loc.pair("X", "Y").sset.number[0][embed_morphism(r, "w").name]
        h = loc.composite("X", "Y", "X", 0, back, forward)
        assert h is not None
        del ms.by_grid[ms.level_grids[0][h]]
        with pytest.raises(ConsistencyError, match="missing from enumeration"):
            loc.composite("X", "Y", "X", 0, back, forward)
        ms.pruned = True
        assert loc.composite("X", "Y", "X", 0, back, forward) is None
        assert loc.compose_counts.pruned_overflows == 1


class TestLifetime:
    """The enumeration context (with its column-step table) and the namer
    live only while a localization is built, and a built localization is
    freed by reference counting: nothing of them stays on the module."""

    def test_context_dies_with_the_localization(self, monkeypatch):
        refs = []
        original = hammock._Context.__init__

        def recording(self, r):
            original(self, r)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(hammock._Context, "__init__", recording)
        loc = hammock_localization(inst.walking_weq(), 2, 3, detail="full")
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        assert loc.pairs

    def test_localizations_are_freed_without_the_cyclic_collector(self, monkeypatch):
        """No reference cycle holds a localization, its simplicial
        category or its contexts, so they go when the last reference does."""
        refs = []
        original = hammock._Context.__init__

        def recording(self, r):
            original(self, r)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(hammock._Context, "__init__", recording)
        r = inst.walking_weq()
        gc.collect()
        gc.disable()
        try:
            loc = hammock_localization(r, 1, 2)
            rs = RelativeSimplicialCategory(loc.scat(), _embedded_sub(r, loc.scat(), r.weq))
            rl = hammock_localization_relscat(rs, 1, 2)
            assert validate_scat(rl.scat()) == []
            held = [weakref.ref(loc), weakref.ref(rl)]
            del loc, rs, rl
            assert len(refs) == 3
            assert [ref() for ref in refs + held] == [None] * len(refs + held)
        finally:
            gc.enable()

    def test_cli_runs_leave_module_containers_alone(self, tmp_path, capsys):
        path = tmp_path / "walking-weq.json"
        write_canonical(path, inst.walking_weq().to_json())

        def sizes():
            out = {}
            for name, value in vars(hammock).items():
                if isinstance(value, (dict, list, set, frozenset, tuple)):
                    out[name] = len(value)
                elif hasattr(value, "cache_info"):
                    out[name] = value.cache_info().currsize
            return out

        before = sizes()
        for _ in range(2):
            assert run(["verify", "3.2", str(path), "--width", "3"]) == 0
        capsys.readouterr()
        after = sizes()
        assert {name: n for name, n in after.items() if n > before.get(name, 0)} == {}


def test_face_normal_forms_count_distinct_dropped_grids():
    """Without pruning, every face of every simplex is taken, and each
    distinct dropped grid that is not a vertex row is reduced once."""
    r = inst.walking_weq()
    for x in r.cat.objects:
        for y in r.cat.objects:
            ms = mapping_space(r, x, y, 2, 3)
            assert ms.stable
            vertex_rows = {(h.directions, h.rows[0]) for h in vertex_hammocks(r, ms)}
            rows, grids = set(), set()
            for name in ms.sset.level(1):
                h = simplex_hammock(r, ms, 1, name)
                rows.update((h.directions, row) for row in h.rows)
            for name in ms.sset.level(2):
                h = simplex_hammock(r, ms, 2, name)
                v0, v1 = h.verticals
                fused = tuple(r.cat.compose(b, a) for a, b in zip(v0, v1))
                for i, layers in enumerate(((v1,), (fused,), (v0,))):
                    grids.add((h.directions, h.rows[:i] + h.rows[i + 1:], layers))
            assert ms.face_normal_forms == len(rows - vertex_rows) + len(grids), (x, y)


def _identity_mask_of(r, rows):
    """The columns in which every one of ``rows`` has an identity."""
    common = -1
    for row in rows:
        common &= sum(1 << col for col, m in enumerate(row) if r.cat.is_identity(m))
    return common


class TestJunctionCascade:
    """``bounded_composite`` reduces two reduced grids only at their
    junction; it must agree with the normal form of the concatenated grid,
    including a missing composite, the width bound and the checks on
    verticals.  The junction cascade on morphism names agrees too."""

    @staticmethod
    def _reduced(rng, r, count):
        out = {}
        for _ in range(count):
            try:
                h = reduce_hammock(r, inst.random_hammock(rng, r, w_max=4, h_max=2))
            except CompositionUnavailable:
                continue
            out[h.key] = h
        return list(out.values())

    @staticmethod
    def _numbered(r, grid):
        """A grid of morphism names as one of morphism numbers."""
        index = r.cat.mor_index
        directions, rows, layers = grid
        return (directions, tuple(tuple(index[m] for m in row) for row in rows),
                tuple(tuple(index[v] for v in layer) for layer in layers))

    @classmethod
    def _enumerated(cls, r, want):
        """The grid -> name map that holds just the named grid ``want``."""
        return {} if want is None else {cls._numbered(r, want): hammock_name(*want)}

    @staticmethod
    def _expected(r, g, f, w_max):
        """The normal form of ``f`` then ``g`` as a grid of morphism names,
        None when it needs a missing composite or is wider than
        ``w_max``."""
        if f.width == 0 or g.width == 0:
            h = g if f.width == 0 else f
            grid = (h.directions, h.rows, h.verticals)
        else:
            junction = (r.cat.identity[f.sink],)
            grid = (f.directions + g.directions,
                    tuple(a + b for a, b in zip(f.rows, g.rows)),
                    tuple(a + junction + b for a, b in zip(f.verticals, g.verticals)))
        try:
            grid = _normal_form(r.cat, *grid)
        except CompositionUnavailable:
            return None
        return grid if len(grid[0]) <= w_max else None

    @staticmethod
    def _tampered(rng, r, h):
        """``h`` with one interior vertical replaced by a random morphism."""
        spots = [(t, j) for t, layer in enumerate(h.verticals) for j in range(len(layer))]
        if not spots:
            return None
        t, j = rng.choice(spots)
        layers = [list(layer) for layer in h.verticals]
        layers[t][j] = rng.choice(r.cat.morphisms)
        return Hammock(h.source, h.sink, h.directions, h.rows, layers)

    def test_against_normal_form(self):
        fl = flatten(hammock_localization(inst.walking_weq(), 1, 2).scat())
        assert fl.overflows > 0
        cases = list(inst.oracle_suite()) + [("flattening of walking-weq", fl.rel)]
        rng = random.Random(20261018)
        counts = ComposeCounts()
        missing = deleted = inconsistent = 0
        for name, r in cases:
            hammocks = self._reduced(rng, r, 150)
            by_source = {}
            for g in hammocks:
                by_source.setdefault((g.source, g.height), []).append(g)
            pairs = [(g, f) for f in hammocks for g in by_source.get((f.sink, f.height), ())]
            for g, f in rng.sample(pairs, min(len(pairs), 600)):
                # the inputs are enumerated simplices, at most w_max wide
                w_max = rng.randint(max(f.width, g.width, 1), 6)
                want = self._expected(r, g, f, w_max)
                if f.width and g.width:
                    try:
                        assert oracles._junction(r.cat, g, f, w_max) == want, name
                    except CompositionUnavailable:
                        assert want is None, name
                grids = self._numbered(r, g.key[2:]), self._numbered(r, f.key[2:])
                enumerated = self._enumerated(r, want)
                assert bounded_composite(r, *grids, w_max, enumerated, counts) == \
                    (want and hammock_name(*want)), name
                try:
                    composed = compose_hammocks(r, g, f)
                except CompositionUnavailable:
                    missing += 1
                    assert self._expected(r, g, f, 99) is None
                    continue
                assert composed.name == hammock_name(*self._expected(r, g, f, 99))
                deleted += f.width and g.width and composed.width < f.width + g.width - 1
                if want is not None:
                    with pytest.raises(ConsistencyError, match="missing from enumeration"):
                        bounded_composite(r, *grids, w_max, {}, ComposeCounts())
                # a tampered vertical meets the same checks in both routines
                g2, f2 = self._tampered(rng, r, g) or g, self._tampered(rng, r, f) or f
                grids = self._numbered(r, g2.key[2:]), self._numbered(r, f2.key[2:])
                try:
                    want2 = self._expected(r, g2, f2, w_max)
                except ConsistencyError as exc:
                    inconsistent += 1
                    with pytest.raises(ConsistencyError, match=str(exc)):
                        bounded_composite(r, *grids, w_max, {}, ComposeCounts())
                    continue
                assert bounded_composite(r, *grids, w_max, self._enumerated(r, want2),
                                         ComposeCounts()) == (want2 and hammock_name(*want2)), name
        # every way out of the cascade was taken
        assert counts.composites and counts.junction_overflows and counts.cascade_overflows
        assert missing and deleted and inconsistent


class TestPi0AgainstFull:
    """The pi0 enumerator (generator grids, with the walk through dead rows
    as fallback) must reproduce the partition and verdict that the full
    simplicial sets give."""

    @staticmethod
    def _agree(r, x, y, width):
        full = mapping_space(r, x, y, 1, width, "full")
        slim = mapping_space(r, x, y, 1, width, "pi0")
        assert slim.vertices == full.vertices
        assert slim.partition.class_of == full.partition.class_of
        assert full.fallback_rows is None and full.grids == len(full.sset.level(1))
        return full, slim

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 3))
    def test_random_relative_categories(self, seed, width):
        rng = random.Random(seed)
        r = closed_weq(inst.random_dag_category(rng), rng)
        for x in r.cat.objects:
            for y in r.cat.objects:
                full, slim = self._agree(r, x, y, width)
                assert slim.verdict == full.verdict, (x, y)

    def test_partial_flattening_of_walking_weq(self):
        """Over the partially represented flattening some generator
        neighbours are dead, so at width 3 the fallback must run; the
        generator joins stay fewer than the full grids."""
        fl = flatten(hammock_localization(inst.walking_weq(), 1, 2).scat())
        assert fl.overflows > 0
        for width in (1, 2, 3):
            fallback_rows = slim_grids = full_grids = 0
            for x in fl.rel.cat.objects:
                for y in fl.rel.cat.objects:
                    full, slim = self._agree(fl.rel, x, y, width)
                    fallback_rows += slim.fallback_rows
                    slim_grids += slim.grids
                    full_grids += full.grids
            assert slim_grids < full_grids
        assert fallback_rows > 0

    def test_sub_width_ignores_verticals(self):
        suite = [r for _, r in inst.oracle_suite()]
        rng = random.Random(20261018)
        checked = 0
        while checked < 200:
            r = rng.choice(suite)
            h = inst.random_hammock(rng, r, w_max=5, h_max=1)
            if h.height != 1:
                continue
            checked += 1
            sub_width = len(_normal_form(r.cat, h.directions, h.rows, ())[0])
            assert sub_width == reduce_hammock(r, h).width


def _stock_middles_and_flattenings():
    """The middle and the flattening of claim 3.1 for each stock relative
    category, from its localization at width 2."""
    for label, r in inst.oracle_suite():
        loc = hammock_localization(r, 1, 2)
        fl = flatten(loc.scat())
        yield label, "middle", relativization_unit(r, loc, fl).target
        yield label, "flattening", fl.rel


class TestPi0AgainstReference:
    """The pi0 detail on morphism numbers must give what the enumeration
    on string-keyed rows gives (``tests/oracles.py``): the vertex names in
    order, the classes, the verdict and the join and fallback counts."""

    @staticmethod
    def _agree(got, want, where):
        assert list(got.vertices) == [h.name for h in want.vertices], where
        assert got.partition.renamed(got.vertices).classes == want.partition.classes, where
        assert got.verdict == want.verdict, where
        assert (got.grids, got.fallback_rows) == (want.grids, want.fallback_rows), where

    @pytest.mark.parametrize("width", [2, 3])
    def test_stock_middles_and_flattenings(self, width):
        spaces = fallback_rows = 0
        for label, stage, r in _stock_middles_and_flattenings():
            loc = hammock_localization(r, 1, width, detail="pi0")
            for (x, y), got in loc.pairs.items():
                want = reference_pi0_mapping_space(r, x, y, 1, width)
                self._agree(got, want, (label, stage, x, y))
                spaces += 1
                fallback_rows += got.fallback_rows
        assert spaces == 392
        if width == 3:
            assert fallback_rows > 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 3))
    def test_random_relative_categories(self, seed, width):
        rng = random.Random(seed)
        r = closed_weq(inst.random_dag_category(rng), rng)
        for x in r.cat.objects:
            for y in r.cat.objects:
                self._agree(mapping_space(r, x, y, 1, width, "pi0"),
                            reference_pi0_mapping_space(r, x, y, 1, width), (x, y))


def test_stable_components_match_word_oracle_on_random_relative_categories():
    """The class-by-class comparison of acceptance criterion 2, on random
    relative categories: wherever the pi0 mapping space at width 3 is
    stable and the word oracle at length 6 is determined, the vertex rows,
    read as words, lie in oracle classes that match the components one to
    one."""
    checked = 0
    for seed in range(30):
        rng = random.Random(seed)
        r = closed_weq(inst.random_dag_category(rng, max_objects=3, max_nonid=6), rng)
        for x in r.cat.objects:
            for y in r.cat.objects:
                ms = mapping_space(r, x, y, 1, 3, "pi0")
                hs = oracle_localized_homset(r, x, y, 6)
                if not (ms.stable and hs.determined):
                    continue
                checked += 1
                assert len(ms.partition.classes) == hs.class_count(), (seed, x, y)
                index_of = {}
                for vertex, h in enumerate(vertex_hammocks(r, ms)):
                    oracle_class = hs.class_index(tuple(zip(h.directions, h.rows[0])))
                    assert oracle_class is not None, (seed, x, y, h.name)
                    mine = ms.partition.class_of[vertex]
                    assert index_of.setdefault(mine, oracle_class) == oracle_class
                assert len(set(index_of.values())) == len(index_of)
    assert checked >= 60


class TestVerdictIsOneWidthLower:
    """The pi0 verdict at width w says exactly whether the components at
    w-1 and at w agree: every class at w meets the vertices of width
    below w, and on those vertices the two partitions are the same."""

    @staticmethod
    def _check(r, x, y, width):
        lower = mapping_space(r, x, y, 1, width - 1, "pi0")
        upper = mapping_space(r, x, y, 1, width, "pi0")
        narrow = frozenset(name for name, grid in zip(upper.vertices, upper.level_grids[0])
                           if len(grid[0]) < width)
        assert narrow == frozenset(lower.vertices)
        lower_classes = lower.partition.renamed(lower.vertices).classes
        traces = [cls & narrow for cls in upper.partition.renamed(upper.vertices).classes]
        agree = len(traces) == len(lower_classes) and set(traces) == set(lower_classes)
        assert upper.verdict == ("stable" if agree else "bound_limited"), (x, y, width)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(2, 3))
    def test_random_relative_categories(self, seed, width):
        rng = random.Random(seed)
        r = closed_weq(inst.random_dag_category(rng), rng)
        for x in r.cat.objects:
            for y in r.cat.objects:
                self._check(r, x, y, width)

    def test_partial_flattening_of_walking_weq(self):
        fl = flatten(hammock_localization(inst.walking_weq(), 1, 2).scat())
        assert fl.overflows > 0
        verdicts = set()
        for x in fl.rel.cat.objects:
            for y in fl.rel.cat.objects:
                for width in (2, 3):
                    self._check(fl.rel, x, y, width)
                    verdicts.add(mapping_space(fl.rel, x, y, 1, width, "pi0").verdict)
        assert verdicts == {"stable", "bound_limited"}
