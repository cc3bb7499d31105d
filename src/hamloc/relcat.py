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
# rewrites that produce identity letters drop them.  Saturation is a
# union-find over all typed words up to the length bound, with an edge per
# single rewrite (merging adjacent same-direction letters, cancelling
# w against w-backwards, and sliding a commuting square).


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


def word_endpoints(c: FiniteCategory, word):
    """(start, end) of a typed word; InputError when not composable."""
    if not word:
        raise InputError("empty word has no intrinsic endpoints")
    points = []
    for d, m in word:
        if d == "f":
            points.append((c.dom[m], c.cod[m]))
        else:
            points.append((c.cod[m], c.dom[m]))
    for (a, b), (a2, b2) in zip(points, points[1:]):
        if b != a2:
            raise InputError("word does not typecheck")
    return points[0][0], points[-1][1]


class _RewriteTables:
    """Per-category lookup tables used by the oracle's saturation."""

    def __init__(self, r: RelativeCategory):
        c = r.cat
        self.cat = c
        self.weq = r.weq
        self.fwd = {
            x: tuple(m for m in c.from_object(x) if not c.is_identity(m)) for x in c.objects
        }
        self.bwd = {
            x: tuple(w for w in c.to_object(x) if w in r.weq and not c.is_identity(w))
            for x in c.objects
        }
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

    def reach_table(self, y, max_len):
        """reach[k] = objects from which y is reachable in <= k letters."""
        c = self.cat
        reach = [set() for _ in range(max_len + 1)]
        reach[0] = {y}
        fwd_pred = {o: set() for o in c.objects}
        bwd_pred = {o: set() for o in c.objects}
        for x in c.objects:
            for m in self.fwd[x]:
                fwd_pred[c.cod[m]].add(x)
            for w in self.bwd[x]:
                bwd_pred[c.dom[w]].add(x)
        for k in range(1, max_len + 1):
            acc = set(reach[k - 1])
            for o in reach[k - 1]:
                acc |= fwd_pred[o]
                acc |= bwd_pred[o]
            reach[k] = acc
        return reach


def _enumerate_words(tables: _RewriteTables, x, y, bound):
    """All identity-free typed words x ~> y with length <= bound."""
    c = tables.cat
    reach = tables.reach_table(y, bound)
    words = []
    if x == y:
        words.append(())

    def extend(word, at):
        depth = len(word)
        if depth >= bound:
            return
        remaining = bound - depth - 1
        for m in tables.fwd[at]:
            nxt = c.cod[m]
            if nxt in reach[remaining]:
                w2 = word + (("f", m),)
                if nxt == y:
                    words.append(w2)
                extend(w2, nxt)
        for w in tables.bwd[at]:
            nxt = c.dom[w]
            if nxt in reach[remaining]:
                w2 = word + (("b", w),)
                if nxt == y:
                    words.append(w2)
                extend(w2, nxt)

    extend((), x)
    # the recursive closure is a reference cycle: break it, so that its
    # cells (``words``, ``reach``) are freed now, not at a later collection
    del extend
    return words


def _strip_identities(c: FiniteCategory, letters):
    return tuple(l for l in letters if not c.is_identity(l[1]))


def _word_rewrites(tables: _RewriteTables, word):
    """Target words of all single rewrites at any position of ``word``."""
    c = tables.cat
    out = []
    for i in range(len(word) - 1):
        (d1, m1), (d2, m2) = word[i], word[i + 1]
        head, tail = word[:i], word[i + 2:]
        if d1 == "f" and d2 == "f":
            out.append(head + _strip_identities(c, (("f", c.compose(m2, m1)),)) + tail)
        elif d1 == "b" and d2 == "b":
            out.append(head + _strip_identities(c, (("b", c.compose(m1, m2)),)) + tail)
        else:
            if m1 == m2:
                out.append(head + tail)
            if d1 == "f" and d2 == "b":
                for v, g2 in tables.slide_fb.get((m1, m2), ()):
                    mid = _strip_identities(c, (("b", v), ("f", g2)))
                    out.append(head + mid + tail)
            else:
                for g, w in tables.slide_bf.get((m1, m2), ()):
                    mid = _strip_identities(c, (("f", g), ("b", w)))
                    out.append(head + mid + tail)
    return out


def oracle_localized_homset(r: RelativeCategory, x, y, max_len: int) -> OracleHomSet:
    """Zigzag-word classes from x to y in the localization, or Undetermined.

    Saturates at ``max_len`` and again at ``max_len + 2``; the answer is
    only reported when the class structure of the shorter-word fragment is
    unchanged by the extra slack (a heuristic, surfaced as ``determined``).
    """
    if x not in r.cat.obj_index or y not in r.cat.obj_index:
        raise InputError("unknown object")
    tables = _RewriteTables(r)
    big_bound = max_len + 2
    words = _enumerate_words(tables, x, y, big_bound)
    wordset = set(words)

    uf_small = UnionFind(w for w in words if len(w) <= max_len)
    uf_big = UnionFind(words)
    for w in words:
        short = len(w) <= max_len
        for target in _word_rewrites(tables, w):
            if target not in wordset:
                raise RuntimeError("rewrite left the enumerated set")  # pragma: no cover
            uf_big.union(w, target)
            if short and len(target) <= max_len:
                uf_small.union(w, target)

    groups_big = uf_big.groups(words)

    determined = True
    for members in groups_big.values():
        short_members = [w for w in members if len(w) <= max_len]
        if not short_members:
            determined = False
            break
        roots = {uf_small.find(w) for w in short_members}
        if len(roots) > 1:
            determined = False
            break

    classes = tuple(
        sorted(
            (frozenset(g) for g in groups_big.values()),
            key=lambda g: min((len(w), w) for w in g),
        )
    )
    class_of = {}
    for idx, cls in enumerate(classes):
        for w in cls:
            class_of[w] = idx
    return OracleHomSet(x, y, max_len, determined, classes, class_of)


@dataclass
class OracleHoResult:
    """The localized homotopy category as computed by the word oracle."""

    status: str  # "ok" | "undetermined"
    category: FiniteCategory | None
    class_names: dict | None  # (x, y, class index) -> morphism name
    pair_homsets: dict  # (x, y) -> OracleHomSet


def oracle_ho_category(r: RelativeCategory, max_len: int) -> OracleHoResult:
    """Assemble the oracle's classes into a finite category, when possible."""
    c = r.cat
    pair = {}
    for x in c.objects:
        for y in c.objects:
            hs = oracle_localized_homset(r, x, y, max_len)
            pair[(x, y)] = hs
            if not hs.determined:
                return OracleHoResult("undetermined", None, None, pair)

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

    table = {}
    for x in c.objects:
        for y in c.objects:
            for z in c.objects:
                hs1, hs2, hs3 = pair[(x, y)], pair[(y, z)], pair[(x, z)]
                for k1, cls1 in enumerate(hs1.classes):
                    for k2, cls2 in enumerate(hs2.classes):
                        found = None
                        for w1 in sorted(cls1, key=lambda w: (len(w), w)):
                            for w2 in sorted(cls2, key=lambda w: (len(w), w)):
                                k3 = hs3.class_index(w1 + w2)
                                if k3 is not None:
                                    found = k3
                                    break
                            if found is not None:
                                break
                        if found is None:
                            return OracleHoResult("undetermined", None, None, pair)
                        table[(names[(y, z, k2)], names[(x, y, k1)])] = names[(x, z, found)]

    cat = FiniteCategory(c.objects, morphisms, dom, cod, identity, table)
    return OracleHoResult("ok", cat, names, pair)
