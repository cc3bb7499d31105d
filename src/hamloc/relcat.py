"""Relative categories: a finite category with a wide subcategory of
weak equivalences, plus an independent word-rewriting oracle for the
hom-sets of the localized category."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

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
# or slides a commuting square.
#
# All words from one source object x form one prefix trie, numbered
# breadth first.  Classes, their order, composites and the output text
# are read off the node numbers; word tuples are made only when a caller
# asks for them.  A single rewrite of the word p.k either rewrites inside
# p, followed by k, or rewrites the last pair (last letter of p, k).  So
# the targets of the node p.k are the children along k of the targets of
# p, plus the grandparent extended by each middle of that last pair: each
# word's targets come from its prefix's, with no slicing and no lookup of
# words.  No rewrite lengthens a word, so every target is already a node.


@dataclass
class OracleHomSet:
    """The oracle's classes of the words from x to y, at bound
    ``max_len + 2``.

    ``members[k]`` holds the words of class k as node numbers of the
    source's trie, in shortlex order (shortest first, then lexicographic
    in the letter tuples), and the classes are ordered by their
    shortlex-least words.  ``classes`` (a tuple of frozensets of words) and
    ``class_of`` (word -> class index) are built on first use."""

    x: str
    y: str
    max_len: int
    determined: bool
    members: tuple = field(repr=False)
    trie: _WordTrie = field(repr=False)

    def class_count(self) -> int:
        return len(self.members)

    def word_count(self) -> int:
        return sum(map(len, self.members))

    @cached_property
    def classes(self) -> tuple:
        words = self.trie.words
        return tuple(frozenset(words[n] for n in nodes) for nodes in self.members)

    @cached_property
    def class_of(self) -> dict:
        words = self.trie.words
        return {words[n]: k for k, nodes in enumerate(self.members) for n in nodes}

    def class_index(self, word):
        return self.class_of.get(word)

    def texts(self) -> list:
        """Each class's words as text, letters ``d:m`` joined by dots, in
        lexicographic order of the letter tuples."""
        text, rank = self.trie.texts, self.trie.rank
        return [[text[n] for n in sorted(nodes, key=rank.__getitem__)] for nodes in self.members]


class _RewriteTables:
    """Per-category lookup tables of the oracle, shared by every source of
    one call.  Objects are numbered as in ``cat.objects``, and letters
    densely: ``letters[k]`` is ``("f", m)`` or ``("b", w)``.  The letters
    leaving object o are ``step_letters[o]``, reaching ``step_ends[o]``;
    ``slot[k]`` is k's position among its source's letters, and
    ``sorted_slots[o]`` lists the slots of o's letters in sorted-letter
    order."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        self.cat = c
        self.letters = []
        self.step_letters, self.step_ends = [], []
        for x in c.objects:
            steps = [(("f", m), c.cod[m]) for m in c.from_object(x) if not c.is_identity(m)]
            steps += [(("b", w), c.dom[w]) for w in c.to_object(x)
                      if w in r.weq and not c.is_identity(w)]
            base = len(self.letters)
            self.step_letters.append(tuple(range(base, base + len(steps))))
            self.step_ends.append(tuple(c.obj_index[nxt] for _, nxt in steps))
            self.letters += [letter for letter, _ in steps]
        self.slot = [k - ks[0] for ks in self.step_letters for k in ks]
        self.sorted_slots = [tuple(sorted(range(len(ks)), key=lambda s, ks=ks: self.letters[ks[s]]))
                             for ks in self.step_letters]
        self.letter_id = {letter: k for k, letter in enumerate(self.letters)}
        ends = [e for es in self.step_ends for e in es]
        # middles[a][slot[b]]: the pair a b's middles, filled on first use
        self.middles = [[None] * len(self.step_letters[e]) for e in ends]
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

    def _slots(self, letters):
        """The slots of ``letters``, identity letters dropped: the path from
        a node to its descendant along them.  A letter with no number
        (backwards along a composite of weak equivalences that is not one)
        leaves the enumerated set."""
        c = self.cat
        try:
            return tuple(self.slot[self.letter_id[letter]] for letter in letters
                         if not c.is_identity(letter[1]))
        except KeyError:  # pragma: no cover
            raise RuntimeError("rewrite left the enumerated set") from None

    def _pair_middles(self, a, b):
        """What the adjacent letters ``a b`` become under each single
        rewrite of the pair, as slot paths: one letter or none after a
        merge, none after a cancellation, at most two after a slide."""
        c = self.cat
        (d1, m1), (d2, m2) = self.letters[a], self.letters[b]
        if d1 == "f" and d2 == "f":
            return (self._slots((("f", c.compose(m2, m1)),)),)
        if d1 == "b" and d2 == "b":
            return (self._slots((("b", c.compose(m1, m2)),)),)
        out = [()] if m1 == m2 else []
        if d1 == "f":
            out += [self._slots((("b", v), ("f", g2))) for v, g2 in self.slide_fb.get((m1, m2), ())]
        else:
            out += [self._slots((("f", g), ("b", w))) for g, w in self.slide_bf.get((m1, m2), ())]
        return tuple(out)


class _WordTrie:
    """All identity-free words of at most ``bound`` letters from object
    number ``x``, numbered breadth first, so shortest first.

    Node 0 is the empty word; node n is the word of node ``parent[n]``
    followed by letter ``last[n]`` and ends at object number ``end[n]``.
    The children of node p are consecutive, in the order of
    ``step_letters[end[p]]``: the child along letter k is
    ``first[p] + slot[k]``.  ``starts[L]`` is the number of nodes with
    fewer than L letters.  The saturation sets ``index[n]``, the class of
    node n in its hom-set."""

    def __init__(self, tables: _RewriteTables, x, bound):
        step_letters, step_ends = tables.step_letters, tables.step_ends
        parent, last, end, first = [-1], [-1], [x], []
        starts = [0, 1]
        for _ in range(bound):
            for p in range(starts[-2], starts[-1]):
                e = end[p]
                first.append(len(end))
                parent += [p] * len(step_letters[e])
                last += step_letters[e]
                end += step_ends[e]
            starts.append(len(end))
        self.parent, self.last, self.end, self.first, self.starts = parent, last, end, first, starts
        self.step_letters, self.step_ends = step_letters, step_ends
        self.letters, self.slot, self.sorted_slots = tables.letters, tables.slot, tables.sorted_slots
        self.index = None
        self._paths = {0: ()}

    def _levels(self):
        """``(depth, parents, letters)`` of the nodes of each depth from 1
        on, in node order: a node's parent has a smaller depth."""
        parent, last, starts = self.parent, self.last, self.starts
        for depth, (lo, hi) in enumerate(zip(starts[1:], starts[2:]), 1):
            yield depth, parent[lo:hi], last[lo:hi]

    @cached_property
    def words(self) -> list:
        """Each node's word as a tuple of letters."""
        single = [(letter,) for letter in self.letters]
        words = [()]
        for _, parents, letters in self._levels():
            words += [words[p] + single[k] for p, k in zip(parents, letters)]
        return words

    @cached_property
    def texts(self) -> list:
        """Each node's word as text, letters ``d:m`` joined by dots."""
        text = [f"{d}:{m}" for d, m in self.letters]
        dotted = ["." + t for t in text]
        texts = [""]
        for depth, parents, letters in self._levels():
            if depth == 1:
                texts += [text[k] for k in letters]
            else:
                texts += [texts[p] + dotted[k] for p, k in zip(parents, letters)]
        return texts

    def shortlex(self) -> list:
        """The nodes in shortlex order of their words: breadth first, each
        node's children in sorted-letter order."""
        first, end, sorted_slots = self.first, self.end, self.sorted_slots
        order = [0]
        for i in range(len(first)):
            p = order[i]
            f = first[p]
            order += [f + s for s in sorted_slots[end[p]]]
        return order

    @cached_property
    def rank(self) -> list:
        """``rank[n]``: the position of node n's word in lexicographic order
        of the letter tuples, a word before its extensions (pre-order, each
        node's children in sorted-letter order).  A child comes one after
        its parent and the subtrees of its earlier siblings, and the size of
        a subtree depends only on its root's end object and depth."""
        step_letters, step_ends, starts = self.step_letters, self.step_ends, self.starts
        bound = len(starts) - 2
        sizes = [[1] * len(step_ends)]  # sizes[d][o]: d letters of room below
        for _ in range(bound - 1):
            below = sizes[-1]
            sizes.append([1 + sum(below[e] for e in ends) for ends in step_ends])
        rank, step = [0], [0] * len(self.letters)
        for depth, parents, letters in self._levels():
            below = sizes[bound - depth]
            for ks, ends, order in zip(step_letters, step_ends, self.sorted_slots):
                r = 1
                for s in order:
                    step[ks[s]] = r
                    r += below[ends[s]]
            rank += [rank[p] + step[k] for p, k in zip(parents, letters)]
        return rank

    def path(self, n) -> tuple:
        """The slots along node n's word: from any node t with room below,
        ``t = first[t] + s`` for each s appends that word to t's."""
        path = self._paths.get(n)
        if path is None:
            path = self._paths[n] = self.path(self.parent[n]) + (self.slot[self.last[n]],)
        return path

    def rewrite_targets(self, tables: _RewriteTables):
        """``(n, targets)`` for each node n > 0 in order: the nodes its
        single rewrites reach, one per rewrite.  No rewrite lengthens a
        word, so every target is a node.  The targets of the nodes that
        have children are kept, for their children's."""
        parent, last, first = self.parent, self.last, self.first
        slot, middles = tables.slot, tables.middles
        kept = [()]
        inner = len(first)
        for n in range(1, len(parent)):
            p, k = parent[n], last[n]
            s = slot[k]
            targets = [first[t] + s for t in kept[p]]
            if p:
                a = last[p]
                row = middles[a]
                mids = row[s]
                if mids is None:
                    mids = row[s] = tables._pair_middles(a, k)
                for mid in mids:
                    t = parent[p]
                    for step in mid:
                        t = first[t] + step
                    targets.append(t)
            if n < inner:
                kept.append(targets)
            yield n, targets


def _join(uf: UnionFind, edges, end, pairs):
    """Union each node of ``pairs`` with its targets, counting the edges
    per end object.  A node joins the class of its first target and keeps
    that class's root: a node is mostly still alone then and hangs right
    under the root, so paths stay short."""
    for n, targets in pairs:
        edges[end[n]] += len(targets)
        if targets:
            uf.union_all(targets[0], (n, *targets))


def _saturate_source(tables: _RewriteTables, x, max_len: int):
    """Yield the oracle's hom-set from x to each object, in the order of
    ``cat.objects``, with its number of rewrite edges.

    One union-find over the trie of the words up to ``max_len + 2`` letters
    joins each word to its single rewrites.  No single rewrite lengthens a
    word: a merge leaves one letter or none of two, a cancellation none and
    a slide at most two.  So the edges out of the words of at most
    ``max_len`` letters stay among them, and the partition after those edges
    alone is the saturation at ``max_len``.  It is kept as a snapshot of
    roots before the longer words' edges are joined.  Rewrites keep both
    ends of a word, so each class lies in one hom-set.  An answer is
    ``determined`` when each final class holds short words, all with one
    snapshot root: the extra slack neither adds a class nor merges two (a
    heuristic).

    Grouping the nodes in shortlex order puts each class's members in that
    order and orders the classes of each hom-set by their least words.
    """
    c = tables.cat
    trie = _WordTrie(tables, c.obj_index[x], max_len + 2)
    n = len(trie.end)
    short = trie.starts[max_len + 1]
    uf = UnionFind(n)
    edges = [0] * len(c.objects)
    pairs = trie.rewrite_targets(tables)
    _join(uf, edges, trie.end, islice(pairs, short - 1))
    snapshot = [uf.find(i) for i in range(short)]
    _join(uf, edges, trie.end, pairs)

    end, index = trie.end, [0] * n
    classes = [[] for _ in c.objects]
    for group in uf.groups(trie.shortlex()).values():
        same_hom = classes[end[group[0]]]
        for i in group:
            index[i] = len(same_hom)
        same_hom.append(group)
    trie.index = index
    for y, groups, count in zip(c.objects, classes, edges):
        determined = all(len({snapshot[i] for i in group if i < short}) == 1 for group in groups)
        yield OracleHomSet(x, y, max_len, determined, tuple(groups), trie), count


def oracle_localized_homset(r: RelativeCategory, x, y, max_len: int) -> OracleHomSet:
    """Zigzag-word classes from x to y in the localization, or Undetermined.

    Saturates at ``max_len`` and again at ``max_len + 2``; the answer is
    only reported when the class structure of the shorter-word fragment is
    unchanged by the extra slack (a heuristic, surfaced as ``determined``).
    """
    if x not in r.cat.obj_index or y not in r.cat.obj_index:
        raise InputError("unknown object")
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    for hs, _ in _saturate_source(_RewriteTables(r), x, max_len):
        if hs.y == y:
            return hs


@dataclass
class OracleHoResult:
    """The localized homotopy category as computed by the word oracle."""

    status: str  # "ok" | "undetermined"
    category: FiniteCategory | None
    class_names: dict | None  # (x, y, class index) -> morphism name
    pair_homsets: dict  # (x, y) -> OracleHomSet


def _composite_class(first: OracleHomSet, second: OracleHomSet, k1, k2):
    """Class index in hom(x, z) of the first concatenation w1 + w2 of a word
    w1 of class ``k1`` of ``first`` (from x to y) and a word w2 of class
    ``k2`` of ``second`` (from y to z) that x's trie holds, trying both in
    shortlex order, w1 first; None if every concatenation is longer than
    the trie's bound.  w1 + w2 is found by walking from w1's node along
    w2's slots."""
    trie, path = first.trie, second.trie.path
    child, index = trie.first, trie.index
    inner = len(child)
    for t0 in first.members[k1]:
        for w2 in second.members[k2]:
            t = t0
            for s in path(w2):
                if t >= inner:
                    break
                t = child[t] + s
            else:
                return index[t]
    return None


def oracle_ho_category(r: RelativeCategory, max_len: int, progress=None) -> OracleHoResult:
    """Assemble the oracle's classes into a finite category, when possible.

    ``progress(x, y, homset, edges)``, when given, is called after each
    pair is saturated, with its number of rewrite edges.
    """
    if max_len < 0:
        raise InputError("max_len must be >= 0")
    c = r.cat
    tables = _RewriteTables(r)
    pair = {}
    for x in c.objects:
        for hs, edges in _saturate_source(tables, x, max_len):
            pair[(x, hs.y)] = hs
            if progress is not None:
                progress(x, hs.y, hs, edges)
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
    # the empty word, node 0, is the identity
    identity = {x: names[(x, x, pair[(x, x)].trie.index[0])] for x in c.objects}

    table = {}
    for x in c.objects:
        for y in c.objects:
            first = pair[(x, y)]
            for z in c.objects:
                second = pair[(y, z)]
                for k1 in range(first.class_count()):
                    for k2 in range(second.class_count()):
                        found = _composite_class(first, second, k1, k2)
                        if found is None:
                            return OracleHoResult("undetermined", None, None, pair)
                        table[(names[(y, z, k2)], names[(x, y, k1)])] = names[(x, z, found)]

    cat = FiniteCategory(c.objects, morphisms, dom, cod, identity, table)
    return OracleHoResult("ok", cat, names, pair)
