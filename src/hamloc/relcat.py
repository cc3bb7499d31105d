"""Relative categories: a finite category with a wide subcategory of
weak equivalences, plus an independent word-rewriting oracle for the
hom-sets of the localized category."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .fincat import (
    CatFunctor,
    FiniteCategory,
    UnionFind,
    validate_functor,
)


@dataclass(frozen=True)
class RelativeCategory:
    cat: FiniteCategory
    weq: frozenset

    def __init__(self, cat, weq):
        object.__setattr__(self, "cat", cat)
        object.__setattr__(self, "weq", frozenset(weq))

    def to_json(self):
        data = self.cat.to_json()
        data["weq"] = sorted(self.weq)
        return data

    @staticmethod
    def from_json(data) -> "RelativeCategory":
        cat = FiniteCategory.from_json(data)
        if "weq" not in data:
            raise InputError("missing weq")
        weq = data["weq"]
        if not isinstance(weq, list) or not all(isinstance(m, str) for m in weq):
            raise InputError("weq must be a list of morphism names")
        return RelativeCategory(cat, weq)


def validate_relative(r: RelativeCategory) -> list[str]:
    report = []
    unknown = set(r.weq) - set(r.cat.morphisms)
    if unknown:
        report.append(f"weq not in category: {sorted(unknown)}")
    for x in r.cat.objects:
        if r.cat.identity[x] not in r.weq:
            report.append(f"weq missing identity: {r.cat.identity[x]}")
    for g in sorted(r.weq - unknown):
        for f in sorted(r.weq - unknown):
            if r.cat.cod[f] == r.cat.dom[g]:
                h = r.cat.table.get((g, f))
                if h is not None and h not in r.weq:
                    report.append(f"weq not closed: ({g}, {f}) -> {h}")
    return report


@dataclass(frozen=True)
class RelativeFunctor:
    underlying: CatFunctor
    source: RelativeCategory
    target: RelativeCategory


def validate_relative_functor(rf: RelativeFunctor) -> list[str]:
    report = validate_functor(rf.underlying)
    if report:
        return report
    for w in sorted(rf.source.weq):
        if rf.underlying.morphism_map[w] not in rf.target.weq:
            report.append(f"weak equivalence not preserved: {w}")
    return report


# --- localized hom-set oracle -------------------------------------------
#
# Words are tuples of letters ("f", m) / ("b", w): travel forward along m,
# or backward along a weak equivalence w.  Words are kept identity-free;
# rewrites that produce identity letters drop them.  A single rewrite
# merges adjacent same-direction letters, cancels w against w-backwards,
# or slides a commuting square.  Inside the saturation letters and words
# are numbered densely; string words appear only in the result.


@dataclass
class OracleHomSet:
    x: str
    y: str
    max_len: int
    determined: bool
    classes: tuple  # tuple of frozensets of words, at bound max_len + 2
    class_of: dict = field(repr=False)

    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, word):
        return self.class_of.get(word)


class _RewriteTables:
    """Per-category lookup tables of the oracle, shared by every pair of one
    call.  Letters are numbered densely: ``letters[k]`` is ``("f", m)`` or
    ``("b", w)``, and ``steps[x]`` lists ``(k, object reached)`` for each
    letter leaving x."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        self.cat = c
        self.letters = []
        self.steps = {}
        for x in c.objects:
            steps = [(("f", m), c.cod[m]) for m in c.from_object(x) if not c.is_identity(m)]
            steps += [(("b", w), c.dom[w]) for w in c.to_object(x)
                      if w in r.weq and not c.is_identity(w)]
            self.steps[x] = [(len(self.letters) + k, nxt) for k, (_, nxt) in enumerate(steps)]
            self.letters += [letter for letter, _ in steps]
        self.letter_id = {letter: k for k, letter in enumerate(self.letters)}
        # slide (f g)(b w) <-> (b v)(f g2) whenever g.v == w.g2 with v, w weq
        self.slide_fb = {}
        self.slide_bf = {}
        for g in c.morphisms:
            for w in r.weq:
                if c.cod[g] != c.cod[w]:
                    continue
                hits = []
                for v in r.weq:
                    if c.cod[v] != c.dom[g]:
                        continue
                    gv = c.compose(g, v)
                    for g2 in c.hom(c.dom[v], c.dom[w]):
                        if c.compose(w, g2) == gv:
                            hits.append((v, g2))
                if hits:
                    self.slide_fb[(g, w)] = tuple(hits)
                    for v, g2 in hits:
                        self.slide_bf.setdefault((v, g2), []).append((g, w))
        self.slide_bf = {k: tuple(vs) for k, vs in self.slide_bf.items()}
        self._middles = {}

    def reach_table(self, y, max_len):
        """reach[k] = objects from which y is reachable in <= k letters."""
        pred = {o: set() for o in self.cat.objects}
        for x, steps in self.steps.items():
            for _, nxt in steps:
                pred[nxt].add(x)
        reach = [{y}]
        for _ in range(max_len):
            acc = set(reach[-1])
            for o in reach[-1]:
                acc |= pred[o]
            reach.append(acc)
        return reach

    def _word(self, letters):
        """Letter numbers of ``letters``, identity letters dropped.  A letter
        with no number (backwards along a composite of weak equivalences
        that is not one) leaves the enumerated set."""
        c = self.cat
        try:
            return tuple(self.letter_id[letter] for letter in letters
                         if not c.is_identity(letter[1]))
        except KeyError:  # pragma: no cover
            raise RuntimeError("rewrite left the enumerated set") from None

    def _pair_middles(self, a, b):
        """What the adjacent letters ``a b`` become under each single
        rewrite of the pair: one letter or none after a merge, none after a
        cancellation, at most two after a slide."""
        c = self.cat
        (d1, m1), (d2, m2) = self.letters[a], self.letters[b]
        if d1 == "f" and d2 == "f":
            return (self._word((("f", c.compose(m2, m1)),)),)
        if d1 == "b" and d2 == "b":
            return (self._word((("b", c.compose(m1, m2)),)),)
        out = [()] if m1 == m2 else []
        if d1 == "f":
            out += [self._word((("b", v), ("f", g2))) for v, g2 in self.slide_fb.get((m1, m2), ())]
        else:
            out += [self._word((("f", g), ("b", w))) for g, w in self.slide_bf.get((m1, m2), ())]
        return tuple(out)

    def rewrites(self, word):
        """Target words of all single rewrites at any position of ``word``
        (a tuple of letter numbers); each letter pair's rewrites are
        computed once per table."""
        middles = self._middles
        out = []
        for i in range(len(word) - 1):
            pair = word[i:i + 2]
            mids = middles.get(pair)
            if mids is None:
                mids = middles[pair] = self._pair_middles(*pair)
            if mids:
                head, tail = word[:i], word[i + 2:]
                out += [head + mid + tail for mid in mids]
        return out


def _enumerate_words(tables: _RewriteTables, x, y, bound):
    """All identity-free typed words x ~> y with length <= bound, as tuples
    of letter numbers, shortest first."""
    reach = tables.reach_table(y, bound)
    words = [()] if x == y else []
    frontier = [((), x)]
    for length in range(1, bound + 1):
        live = reach[bound - length]
        frontier = [(word + (k,), nxt) for word, at in frontier
                    for k, nxt in tables.steps[at] if nxt in live]
        words += [word for word, at in frontier if at == y]
    return words


def _union_rewrites(tables: _RewriteTables, words, index, uf: UnionFind, lo, hi) -> int:
    """Union each of ``words[lo:hi]`` with its rewrites; the edge count."""
    edges = 0
    for i in range(lo, hi):
        targets = [index.get(t) for t in tables.rewrites(words[i])]
        if None in targets:
            raise RuntimeError("rewrite left the enumerated set")  # pragma: no cover
        edges += len(targets)
        uf.union_all(i, targets)
    return edges


def _saturate(tables: _RewriteTables, x, y, max_len: int):
    """The oracle's hom-set from x to y, and its number of rewrite edges.

    The words up to ``max_len + 2`` letters are numbered shortest first,
    and one union-find joins each word to its single rewrites.  No single
    rewrite lengthens a word: a merge leaves one letter or none of two, a
    cancellation none and a slide at most two.  So the edges out of the
    words of at most ``max_len`` letters stay among them, and the partition
    after those edges alone is the saturation at ``max_len``.  It is kept
    as a snapshot of roots before the longer words' edges are joined.  The
    answer is ``determined`` when each final class holds short words, all
    with one snapshot root: the extra slack neither adds a class nor
    merges two (a heuristic).
    """
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    words = _enumerate_words(tables, x, y, max_len + 2)
    n = len(words)
    short = n - sum(1 for w in words if len(w) > max_len)
    index = {w: i for i, w in enumerate(words)}
    uf = UnionFind(range(n))
    edges = _union_rewrites(tables, words, index, uf, 0, short)
    snapshot = [uf.find(i) for i in range(short)]
    edges += _union_rewrites(tables, words, index, uf, short, n)
    del index

    groups = list(uf.groups(range(n)).values())
    determined = all(len({snapshot[i] for i in members if i < short}) == 1 for members in groups)

    letters = tables.letters
    names = [tuple(map(letters.__getitem__, w)) for w in words]
    classes = tuple(
        sorted(
            (frozenset(names[i] for i in members) for members in groups),
            key=lambda g: min((len(w), w) for w in g),
        )
    )
    class_of = {}
    for idx, cls in enumerate(classes):
        for w in cls:
            class_of[w] = idx
    return OracleHomSet(x, y, max_len, determined, classes, class_of), edges


def oracle_localized_homset(r: RelativeCategory, x, y, max_len: int) -> OracleHomSet:
    """Zigzag-word classes from x to y in the localization, or Undetermined.

    Saturates at ``max_len`` and again at ``max_len + 2``; the answer is
    only reported when the class structure of the shorter-word fragment is
    unchanged by the extra slack (a heuristic, surfaced as ``determined``).
    """
    if x not in r.cat.obj_index or y not in r.cat.obj_index:
        raise InputError("unknown object")
    return _saturate(_RewriteTables(r), x, y, max_len)[0]


@dataclass
class OracleHoResult:
    """The localized homotopy category as computed by the word oracle."""

    status: str  # "ok" | "undetermined"
    category: FiniteCategory | None
    class_names: dict | None  # (x, y, class index) -> morphism name
    pair_homsets: dict  # (x, y) -> OracleHomSet


def _shortlex(word):
    return (len(word), word)


def _composite_class(hs: OracleHomSet, firsts, seconds):
    """Class index in ``hs`` of the first concatenation ``w1 + w2`` it
    holds, trying ``firsts`` and then ``seconds`` in order; None if none."""
    for w1 in firsts:
        for w2 in seconds:
            k = hs.class_of.get(w1 + w2)
            if k is not None:
                return k
    return None


def oracle_ho_category(r: RelativeCategory, max_len: int, progress=None) -> OracleHoResult:
    """Assemble the oracle's classes into a finite category, when possible.

    ``progress(x, y, homset, edges)``, when given, is called after each
    pair is saturated, with its number of rewrite edges.
    """
    c = r.cat
    tables = _RewriteTables(r)
    pair = {}
    for x in c.objects:
        for y in c.objects:
            hs, edges = _saturate(tables, x, y, max_len)
            pair[(x, y)] = hs
            if progress is not None:
                progress(x, y, hs, edges)
            if not hs.determined:
                return OracleHoResult("undetermined", None, None, pair)
    del tables

    names, dom, cod, morphisms = {}, {}, {}, []
    for x in c.objects:
        for y in c.objects:
            for k in range(pair[(x, y)].class_count()):
                name = f"{x}->{y}#{k}"
                names[(x, y, k)] = name
                morphisms.append(name)
                dom[name] = x
                cod[name] = y
    identity = {}
    for x in c.objects:
        k = pair[(x, x)].class_index(())
        if k is None:
            return OracleHoResult("undetermined", None, None, pair)
        identity[x] = names[(x, x, k)]

    ordered = {key: [sorted(cls, key=_shortlex) for cls in hs.classes]
               for key, hs in pair.items()}
    table = {}
    for x in c.objects:
        for y in c.objects:
            for z in c.objects:
                hs3 = pair[(x, z)]
                for k1, cls1 in enumerate(ordered[(x, y)]):
                    for k2, cls2 in enumerate(ordered[(y, z)]):
                        found = _composite_class(hs3, cls1, cls2)
                        if found is None:
                            return OracleHoResult("undetermined", None, None, pair)
                        table[(names[(y, z, k2)], names[(x, y, k1)])] = names[(x, z, found)]

    cat = FiniteCategory(c.objects, morphisms, dom, cod, identity, table)
    return OracleHoResult("ok", cat, names, pair)
