import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hamloc import instances as inst
from hamloc.errors import InputError
from hamloc.fincat import UnionFind, disjoint_union
from hamloc.hammock import hammock_localization, hammock_localization_relscat
from hamloc.scat import RelativeSimplicialCategory, promote, sub_from_morphisms
from hamloc.simplicial import (
    Partition,
    SimplicialOperator,
    TruncatedSimplicialSet,
    apply_operator,
    boundary_matrix,
    compose_operators,
    homology,
    monotone_maps,
    nerve,
    pi0,
    rational_rank,
    smith_diagonal,
    validate_sset,
)
from helpers import all_operators
from oracles import rational_kernel_basis


class TestOperators:
    def test_identity_composition(self):
        q = SimplicialOperator(1, 2, (0, 2))
        assert compose_operators(SimplicialOperator.identity(1), q) == q
        assert compose_operators(q, SimplicialOperator.identity(2)) == q

    def test_coface_then_coface(self):
        d0_01 = SimplicialOperator.coface(1, 0)
        d0_12 = SimplicialOperator.coface(2, 0)
        assert d0_01.images == (1,)
        got = compose_operators(d0_01, d0_12)
        assert (got.source_dim, got.target_dim, got.images) == (0, 2, (2,))

    def test_codegeneracy_then_coface(self):
        # sigma_0 : [1] -> [0] followed by delta_0 : [0] -> [1] is the
        # constant-at-1 map, computed pointwise
        s0 = SimplicialOperator.codegeneracy(0, 0)
        d0 = SimplicialOperator.coface(1, 0)
        got = compose_operators(s0, d0)
        assert (got.source_dim, got.target_dim, got.images) == (1, 1, (1, 1))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InputError):
            compose_operators(SimplicialOperator.identity(1), SimplicialOperator.identity(2))

    def test_monotonicity_enforced(self):
        with pytest.raises(InputError):
            SimplicialOperator(1, 1, (1, 0))
        with pytest.raises(InputError):
            SimplicialOperator(1, 1, (0, 2))

    def test_monotone_count_is_binomial(self):
        for m in range(4):
            for n in range(4):
                assert len(monotone_maps(m, n)) == comb(n + m + 1, m + 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_composition_associative(self, data):
        dims = [data.draw(st.integers(min_value=0, max_value=3)) for _ in range(4)]
        a, b, c, d = dims

        def pick(m, n):
            return data.draw(st.sampled_from(monotone_maps(m, n)))

        p, q, r = pick(a, b), pick(b, c), pick(c, d)
        lhs = compose_operators(compose_operators(p, q), r)
        rhs = compose_operators(p, compose_operators(q, r))
        assert lhs == rhs


class TestNerve:
    def test_terminal_counts(self):
        n = nerve(inst.terminal(), 2)
        assert [len(level) for level in n.levels] == [1, 1, 1]
        assert validate_sset(n) == []

    def test_walking_arrow_level_one(self):
        n = nerve(inst.walking_arrow(), 1)
        assert len(n.levels[0]) == 2
        assert len(n.levels[1]) == 3

    def test_discrete_two_counts(self):
        n = nerve(inst.discrete(2), 2)
        assert [len(level) for level in n.levels] == [2, 2, 2]
        assert n.nondegenerate(1) == ()
        assert n.nondegenerate(2) == ()

    def test_all_stock_nerves_satisfy_simplicial_identities(self):
        for c in (inst.walking_arrow(), inst.chain3(), inst.walking_iso(),
                  inst.group_z2(), inst.poset_square(), inst.parallel_pair()):
            assert validate_sset(nerve(c, 2)) == []

    def test_faces_compose_chain(self):
        n = nerve(inst.chain3(), 2)
        fg, f = n.number[2]["f|g"], n.number[1]["f"]
        assert n.levels[1][n.faces[2][1][fg]] == "gf"
        assert n.levels[1][n.faces[2][0][fg]] == "g"
        assert n.levels[1][n.faces[2][2][fg]] == "f"
        assert n.levels[2][n.degeneracies[1][0][f]] == "idX|f"


class TestApplyOperator:
    def test_inner_face_via_general_operator(self):
        n = nerve(inst.chain3(), 2)
        op = SimplicialOperator(1, 2, (0, 2))  # the mono missing 1, acts as d_1
        assert n.levels[1][apply_operator(n, op, n.number[2]["f|g"])] == "gf"

    def test_degeneracy_via_general_operator(self):
        n = nerve(inst.chain3(), 2)
        op = SimplicialOperator(2, 1, (0, 1, 1))  # acts as s_1
        assert n.levels[2][apply_operator(n, op, n.number[1]["f"])] == "f|idY"

    def test_presheaf_law_exhaustive(self):
        """action(p then q) equals action(q) followed by action(p)."""
        n = nerve(inst.walking_arrow(), 2)
        ops = all_operators(2)
        for p in ops:
            for q in ops:
                if p.target_dim != q.source_dim:
                    continue
                pq = compose_operators(p, q)
                for simplex in range(len(n.levels[pq.target_dim])):
                    via_q = apply_operator(n, q, simplex)
                    stepwise = apply_operator(n, p, via_q)
                    assert stepwise == apply_operator(n, pq, simplex)

    def test_truncation_guard(self):
        n = nerve(inst.terminal(), 1)
        with pytest.raises(InputError):
            apply_operator(n, SimplicialOperator.identity(2), 0)


def _partition_from_pairs(elements, pairs) -> Partition:
    """The partition of ``elements`` that joins each of ``pairs``."""
    elements = tuple(elements)
    uf = UnionFind(elements)
    for a, b in pairs:
        uf.union(a, b)
    return Partition.of(uf, elements)


class TestPi0:
    def test_discrete_gives_singletons(self):
        part = pi0(nerve(inst.discrete(3), 1))
        assert len(part.classes) == 3

    def test_walking_arrow_connected(self):
        assert len(pi0(nerve(inst.walking_arrow(), 1)).classes) == 1

    def test_component_count_adds_over_disjoint_union(self):
        c = disjoint_union(inst.walking_arrow(), inst.chain3())
        assert len(pi0(nerve(c, 1)).classes) == \
            len(pi0(nerve(inst.walking_arrow(), 1)).classes) + \
            len(pi0(nerve(inst.chain3(), 1)).classes)

    def test_truncation_zero_rejected(self):
        with pytest.raises(InputError):
            pi0(nerve(inst.terminal(), 0))

    def test_matches_direct_graph_computation(self):
        for c in (inst.chain3(), inst.span(), inst.parallel_pair(), inst.poset_square()):
            part = pi0(nerve(c, 1))
            direct = _partition_from_pairs(
                c.objects, [(c.dom[m], c.cod[m]) for m in c.morphisms]
            )
            assert len(part.classes) == len(direct.classes)


class TestSmith:
    def test_known_matrix(self):
        assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]

    def test_diagonal_matrix(self):
        assert smith_diagonal([[6, 0], [0, 4]]) == [2, 12]

    def test_zero_matrix(self):
        assert smith_diagonal([[0, 0], [0, 0]]) == []

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                             min_size=3, max_size=3), min_size=2, max_size=4))
    def test_divisibility_and_rank(self, rows):
        divisors = smith_diagonal(rows)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert len(divisors) == rational_rank(rows)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                             min_size=4, max_size=4), min_size=1, max_size=4))
    def test_kernel_vectors_are_sent_to_zero(self, rows):
        basis = rational_kernel_basis(rows)
        assert len(basis) == len(rows[0]) - rational_rank(rows)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)


class TestHomology:
    def test_contractible_nerves(self):
        """Categories with a terminal object have the homology of a point."""
        for c in (inst.terminal(), inst.walking_arrow(), inst.chain3(),
                  inst.poset_square()):
            report = homology(nerve(c, 2))
            assert report.group(0).free_rank == 1
            assert report.group(0).torsion == ()
            assert report.group(1).free_rank == 0
            assert report.group(1).torsion == ()

    def test_two_point_discrete(self):
        report = homology(nerve(inst.discrete(2), 1))
        assert report.group(0).free_rank == 2

    def test_circle_from_parallel_pair(self):
        # two nondegenerate edges with shared endpoints; the boundary
        # matrix [[-1,-1],[1,1]] has rank one, so degree zero and one are
        # each free of rank one
        report = homology(nerve(inst.parallel_pair(), 2))
        assert report.group(0) .free_rank == 1
        assert report.group(1).free_rank == 1
        assert report.group(1).torsion == ()

    def test_torsion_of_involution_classifying_space(self):
        # ker(d1) is generated by the loop t, im(d2) by 2t, since the
        # normalized boundary of t|t is t - 0 + t
        report = homology(nerve(inst.group_z2(), 2))
        assert report.group(0).free_rank == 1
        assert report.group(1).free_rank == 0
        assert report.group(1).torsion == (2,)

    def test_degree_zero_rank_matches_components(self):
        for c in (inst.discrete(3), inst.parallel_pair(),
                  disjoint_union(inst.walking_iso(), inst.chain3())):
            n = nerve(c, 2)
            report = homology(n)
            assert report.group(0).free_rank == len(pi0(n).classes)
            assert report.group(0).torsion == ()

    def test_boundary_matrix_shape(self):
        n = nerve(inst.parallel_pair(), 2)
        matrix, rows, cols = boundary_matrix(n, 1)
        assert len(rows) == 2 and len(cols) == 2

    def test_truncation_zero_rejected(self):
        with pytest.raises(InputError):
            homology(nerve(inst.terminal(), 0))


def constant_relscat(c, weq, truncation):
    """A category promoted to a constant simplicial category, relative to
    the promoted ``weq``: its level categories are all one category."""
    p = promote(c, truncation)
    return RelativeSimplicialCategory(p, sub_from_morphisms(p, c, weq))


class TestDiagonal:
    """The diagonal of the levelwise localizations, as the dimensionwise
    localization builds it."""

    def test_constant_on_nerve_returns_it(self):
        # constant in the outer direction, so the diagonal is any one level
        r = inst.chain_weq()
        rl = hammock_localization_relscat(constant_relscat(r.cat, sorted(r.weq), 2), 2, 3)
        for (x, y), d in rl.diag_homs.items():
            level = rl.row_spaces[(x, y, 0)].sset
            assert validate_sset(d) == []
            assert d.levels == level.levels
            assert d.faces == level.faces
            assert d.degeneracies == level.degeneracies
        assert rl.diag_homs[("X", "Z")].nondegenerate(2)

    def test_pointwise_point(self):
        rl = hammock_localization_relscat(constant_relscat(inst.terminal(), ["id*"], 2), 2, 2)
        d = rl.diag_homs[("*", "*")]
        assert [len(level) for level in d.levels] == [1, 1, 1]

    def test_insufficient_truncation_rejected(self):
        rs = constant_relscat(inst.terminal(), ["id*"], 1)
        with pytest.raises(InputError):
            hammock_localization_relscat(rs, 2, 2)


class TestSsetJson:
    def test_round_trip(self):
        x = nerve(inst.chain3(), 2)
        again = TruncatedSimplicialSet.from_json(x.to_json())
        assert again.levels == x.levels
        assert again.faces == x.faces
        assert again.degeneracies == x.degeneracies

    def test_validation_catches_broken_identity(self):
        x = nerve(inst.walking_arrow(), 2)
        faces = [list(map(list, table)) for table in x.faces]
        # wrong: d_1 must compose to f
        faces[2][1][x.number[2]["idX|f"]] = x.number[1]["idX"]
        broken = TruncatedSimplicialSet(2, x.levels, faces, x.degeneracies)
        assert validate_sset(broken)


def _assert_h0_free_on_components(x):
    """Normalized H_0 is free on the components and has no torsion; the
    DK certificate reads degree 0 off the component bijection for this."""
    h0 = homology(x).group(0)
    assert h0.free_rank == len(pi0(x).classes)
    assert h0.torsion == ()


class TestDegreeZeroHomologyIsFreeOnComponents:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nerves_of_random_categories(self, seed):
        x = nerve(inst.random_dag_category(random.Random(seed)), 2)
        assert validate_sset(x) == []
        _assert_h0_free_on_components(x)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_hammock_mapping_spaces(self, width):
        for _, r in inst.oracle_suite():
            for ms in hammock_localization(r, 2, width).pairs.values():
                _assert_h0_free_on_components(ms.sset)
