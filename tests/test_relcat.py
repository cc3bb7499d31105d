import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hamloc import instances as inst
from hamloc.errors import InputError
from hamloc.fincat import CatFunctor, close_morphisms, validate_category
from hamloc.relcat import (
    OracleHomSet,
    RelativeCategory,
    RelativeFunctor,
    _RewriteTables,
    _WordTrie,
    oracle_ho_category,
    oracle_localized_homset,
    validate_relative,
    validate_relative_functor,
)
from helpers import word_endpoints
from oracles import (
    _reference_rewrites,
    _reference_words,
    _ReferenceTables,
    closed_weq,
    reference_localized_homset,
)

SUITE = dict(inst.oracle_suite())


class TestValidation:
    def test_identities_only_is_valid(self):
        for c in (inst.terminal(), inst.chain3(), inst.poset_square()):
            r = RelativeCategory(c, c.identity.values())
            assert validate_relative(r) == []

    def test_walking_arrow_with_marked_arrow(self):
        r = RelativeCategory(inst.walking_arrow(), ["idX", "idY", "f"])
        assert validate_relative(r) == []

    def test_closure_violation_named(self):
        r = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ", "f", "g"])
        report = validate_relative(r)
        assert any("not closed" in v and "gf" in v for v in report)

    def test_missing_identity_reported(self):
        r = RelativeCategory(inst.walking_arrow(), ["idX"])
        assert any("missing identity" in v for v in validate_relative(r))


def union_weq(r, extra):
    """Adjoin ``extra`` to the weak equivalences and close up, as
    ``relativization_unit`` does with the image of W."""
    return RelativeCategory(r.cat, close_morphisms(r.cat, set(r.weq) | set(extra)))


class TestUnionWeq:
    def test_union_with_nothing_is_identity(self):
        r = inst.walking_weq()
        assert union_weq(r, []).weq == r.weq

    def test_walking_arrow_everything(self):
        r = inst.walking_arrow_relative()
        got = union_weq(r, ["f"])
        assert got.weq == frozenset(r.cat.morphisms)

    def test_chain_closure_adds_composite(self):
        r = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ", "g"])
        got = union_weq(r, ["f"])
        assert "gf" in got.weq

    def test_union_commutative_up_to_span(self):
        c = inst.chain3()
        r = RelativeCategory(c, c.identity.values())
        assert union_weq(union_weq(r, ["f"]), ["g"]).weq == \
            union_weq(union_weq(r, ["g"]), ["f"]).weq

    def test_union_idempotent(self):
        r = inst.walking_weq()
        once = union_weq(r, ["w"])
        assert union_weq(once, ["w"]).weq == once.weq

    def test_unknown_extra_rejected(self):
        with pytest.raises(InputError):
            union_weq(inst.walking_weq(), ["ghost"])


class TestRelativeFunctor:
    def test_weq_preservation_checked(self):
        ww = inst.walking_weq()
        wa = inst.walking_arrow_relative()
        fun = CatFunctor(ww.cat, wa.cat, {"X": "X", "Y": "Y"},
                         {"idX": "idX", "idY": "idY", "w": "f"})
        rf = RelativeFunctor(fun, ww, wa)
        assert any("not preserved" in v for v in validate_relative_functor(rf))

    def test_valid_relative_functor(self):
        ww = inst.walking_weq()
        target = RelativeCategory(inst.walking_arrow(), ["idX", "idY", "f"])
        fun = CatFunctor(ww.cat, target.cat, {"X": "X", "Y": "Y"},
                         {"idX": "idX", "idY": "idY", "w": "f"})
        assert validate_relative_functor(RelativeFunctor(fun, ww, target)) == []


class TestWordEndpoints:
    def test_forward_word(self):
        c = inst.chain3()
        assert word_endpoints(c, (("f", "f"), ("f", "g"))) == ("X", "Z")

    def test_backward_word(self):
        c = inst.walking_weq().cat
        assert word_endpoints(c, (("b", "w"),)) == ("Y", "X")

    def test_mismatch_rejected(self):
        c = inst.chain3()
        with pytest.raises(InputError):
            word_endpoints(c, (("f", "g"), ("f", "f")))


class TestOracle:
    def test_identity_weq_reproduces_hom_sets(self):
        """With nothing inverted, classes correspond to morphisms exactly."""
        for c in (inst.walking_arrow(), inst.chain3(), inst.parallel_pair(),
                  inst.poset_square()):
            r = RelativeCategory(c, c.identity.values())
            for x in c.objects:
                for y in c.objects:
                    hs = oracle_localized_homset(r, x, y, 6)
                    assert hs.determined
                    assert hs.class_count() == len(c.hom(x, y)), (x, y)
                    for m in c.hom(x, y):
                        word = () if c.is_identity(m) and x == y else (("f", m),)
                        assert hs.class_index(word) is not None

    def test_walking_weq_endomorphisms_collapse(self):
        """Exhausting words to length 4 shows w-backwards cancels w."""
        r = inst.walking_weq()
        hs = oracle_localized_homset(r, "X", "X", 4)
        assert hs.determined
        assert hs.class_count() == 1
        assert hs.class_index(()) == hs.class_index((("f", "w"), ("b", "w")))

    def test_empty_hom_gives_no_classes(self):
        r = RelativeCategory(inst.discrete(2), ["idX0", "idX1"])
        hs = oracle_localized_homset(r, "X0", "X1", 5)
        assert hs.determined
        assert hs.class_count() == 0

    def test_span_needs_length_two(self):
        r = inst.span_one_leg_inverted()
        short = oracle_localized_homset(r, "X", "Y", 1)
        assert not short.determined
        longer = oracle_localized_homset(r, "X", "Y", 4)
        assert longer.determined
        assert longer.class_count() == 1

    def test_chain_weq_inverts_everything(self):
        r = inst.chain_weq()
        for x in r.cat.objects:
            for y in r.cat.objects:
                hs = oracle_localized_homset(r, x, y, 8)
                assert hs.determined
                assert hs.class_count() == 1, (x, y)

    def test_classes_compose(self):
        """Concatenating representatives lands in a single class,
        independent of which representatives are chosen."""
        r = inst.walking_weq()
        pair = {}
        for x in r.cat.objects:
            for y in r.cat.objects:
                pair[(x, y)] = oracle_localized_homset(r, x, y, 6)
        for x in r.cat.objects:
            for y in r.cat.objects:
                for z in r.cat.objects:
                    for cls1 in pair[(x, y)].classes:
                        for cls2 in pair[(y, z)].classes:
                            targets = {
                                pair[(x, z)].class_index(w1 + w2)
                                for w1 in cls1 for w2 in cls2
                                if pair[(x, z)].class_index(w1 + w2) is not None
                            }
                            assert len(targets) == 1

    def test_unknown_object_rejected(self):
        with pytest.raises(InputError):
            oracle_localized_homset(inst.walking_weq(), "ghost", "X", 3)

    @pytest.mark.parametrize("max_len", [-1, -3])
    def test_negative_bound_rejected(self, max_len):
        with pytest.raises(InputError, match="max_len"):
            oracle_localized_homset(inst.walking_weq(), "X", "X", max_len)
        with pytest.raises(InputError, match="max_len"):
            oracle_ho_category(inst.walking_weq(), max_len)


class TestOracleHoCategory:
    def test_walking_weq_gives_walking_iso_shape(self):
        result = oracle_ho_category(inst.walking_weq(), 6)
        assert result.status == "ok"
        cat = result.category
        assert validate_category(cat) == []
        assert all(len(cat.hom(x, y)) == 1 for x in cat.objects for y in cat.objects)

    def test_identity_weq_reproduces_category_shape(self):
        c = inst.chain3()
        r = RelativeCategory(c, c.identity.values())
        result = oracle_ho_category(r, 6)
        assert result.status == "ok"
        for x in c.objects:
            for y in c.objects:
                assert len(result.category.hom(x, y)) == len(c.hom(x, y))

    def test_undetermined_at_tiny_bound(self):
        result = oracle_ho_category(inst.span_one_leg_inverted(), 1)
        assert result.status == "undetermined"


def _random_relative(seed):
    rng = random.Random(seed)
    return closed_weq(inst.random_dag_category(rng, max_objects=3, max_nonid=6), rng)


def _agree(r, x, y, max_len):
    """The saturation and the reference give the same classes, class
    indices and verdict; the verdict is returned."""
    got = oracle_localized_homset(r, x, y, max_len)
    ref = reference_localized_homset(r, x, y, max_len)
    assert got.classes == ref.classes, (x, y, max_len)
    assert got.class_of == ref.class_of, (x, y, max_len)
    assert all(got.class_index(w) == k for w, k in ref.class_of.items()), (x, y, max_len)
    assert got.class_count() == len(ref.classes)
    assert got.word_count() == len(ref.class_of)
    assert got.determined == ref.determined, (x, y, max_len)
    return got.determined


class TestSaturationAgainstReference:
    """One union-find with the shorter bound as a snapshot against the
    earlier two union-finds (``tests/oracles.py``)."""

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_oracle_suite(self, name):
        r = SUITE[name]
        for max_len in range(7):
            for x in r.cat.objects:
                for y in r.cat.objects:
                    _agree(r, x, y, max_len)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(0, 6))
    def test_random_relative_categories(self, seed, max_len):
        r = _random_relative(seed)
        for x in r.cat.objects:
            for y in r.cat.objects:
                _agree(r, x, y, max_len)

    @pytest.mark.parametrize("name, x, y, max_len", [
        ("z2-groupoid", "*", "*", 1),
        ("z2-groupoid", "*", "*", 2),
        ("retract", "B", "A", 1),
        ("retract", "B", "B", 1),
        ("walking-iso-one-arrow", "Y", "X", 1),
        ("walking-iso-one-arrow", "Y", "X", 2),
    ])
    def test_long_word_merging_short_classes_is_undetermined(self, name, x, y, max_len):
        """A word longer than ``max_len`` joins two classes of the shorter
        words, so the snapshot taken before the long words' edges tells
        them apart and the answer is undetermined."""
        r = SUITE[name]
        assert not _agree(r, x, y, max_len)
        # every class holds a short word, so only a merge can undetermine it
        hs = oracle_localized_homset(r, x, y, max_len)
        assert all(any(len(w) <= max_len for w in cls) for cls in hs.classes)


class TestRewritesNeverLengthen:
    """The snapshot rests on this: no single rewrite of a word is longer
    than the word, so the shorter words' edges stay among them.  The trie
    is checked against the string reference on the way: its words to each
    object, and each word's rewrite targets."""

    @staticmethod
    def _check(r, bound):
        c = r.cat
        tables, ref = _RewriteTables(r), _ReferenceTables(r)
        for x in c.objects:
            trie = _WordTrie(tables, c.obj_index[x], bound)
            names = trie.words
            assert [len(w) for w in names] == sorted(len(w) for w in names)
            targets = {0: [], **dict(trie.rewrite_targets(tables))}
            for yi, y in enumerate(c.objects):
                nodes = [n for n, e in enumerate(trie.end) if e == yi]
                words = [names[n] for n in nodes]
                assert words == sorted(_reference_words(ref, x, y, bound), key=len), (x, y)
                enumerated = set(words)
                for n in nodes:
                    got = [names[t] for t in targets[n]]
                    for target in got:
                        assert len(target) <= len(names[n]), (x, y, names[n], target)
                        assert target in enumerated
                    assert Counter(got) == Counter(_reference_rewrites(ref, names[n])), \
                        (x, y, names[n])

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_oracle_suite(self, name):
        self._check(SUITE[name], 6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_relative_categories(self, seed):
        self._check(_random_relative(seed), 6)


class TestTrieOrderAndText:
    """What the oracle's output reads off the trie's node numbers, against
    the word tuples: the shortlex order, the lexicographic rank, each
    node's text and its slot path."""

    @staticmethod
    def _check(r, bound):
        c = r.cat
        tables = _RewriteTables(r)
        for x in c.objects:
            trie = _WordTrie(tables, c.obj_index[x], bound)
            words = trie.words
            nodes = range(len(words))
            assert trie.shortlex() == sorted(nodes, key=lambda n: (len(words[n]), words[n]))
            assert sorted(nodes, key=trie.rank.__getitem__) == sorted(nodes, key=words.__getitem__)
            assert trie.texts == [".".join(f"{d}:{m}" for d, m in w) for w in words]
            for n in nodes:
                t = 0
                for s in trie.path(n):
                    t = trie.first[t] + s
                assert t == n

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_oracle_suite(self, name):
        self._check(SUITE[name], 6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bound=st.integers(1, 6))
    def test_random_relative_categories(self, seed, bound):
        self._check(_random_relative(seed), bound)
