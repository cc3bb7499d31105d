"""Categories enriched in truncated simplicial sets, on simplex numbers.

Composites, identities, component categories, neglectability and DK
certificates use the numbers each hom carries; names are read by the
loaders and written only in JSON, witnesses and messages.  Composition is
an explicit per-level table or, for width-bounded localizations, a
composer callback.  Identities at level n are iterated degeneracies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MALFORMED, CompositionUnavailable, ConsistencyError, InputError
from .fincat import (
    CatFunctor,
    FiniteCategory,
    equivalence_from_functor,
    is_isomorphism,
    validate_functor,
)
from .simplicial import (
    TruncatedSimplicialSet,
    boundary_matrix,
    homology,
    level_key,
    pi0,
    rational_rank,
    truncation_value,
    validate_sset,
)


class TruncatedSimplicialCategory:
    """Fixed object set, a hom simplicial set per ordered pair, and
    levelwise composition on simplex numbers: ``identities[x]`` and the
    ``table`` (or composer) values ``(x, y, z, level, g, f) -> h`` are
    numbers in their homs."""

    __slots__ = ("objects", "truncation", "homs", "identities", "table", "_composer", "_cache")

    def __init__(self, objects, truncation, homs, identities, table=None, composer=None):
        self.objects = tuple(objects)
        self.truncation = int(truncation)
        self.homs = dict(homs)
        self.identities = dict(identities)
        self.table = dict(table) if table is not None else None
        self._composer = composer
        self._cache = {}
        if self.table is None and composer is None:
            raise InputError("need a composition table or a composer")
        for (x, y), sset in self.homs.items():
            if x not in self.objects or y not in self.objects:
                raise InputError(f"hom {x}|{y} names an object not in objects")
            if sset.truncation != self.truncation:
                raise InputError(f"hom {(x, y)} has truncation {sset.truncation}")
        for x in self.objects:
            ident = self.identities.get(x)
            if ident is None or not 0 <= ident < len(self.homs[(x, x)].levels[0]):
                raise InputError(f"bad identity for {x!r}")

    def identity_at(self, x, level) -> int:
        """The level-``level`` identity, an iterated degeneracy of id_x."""
        s = self.identities[x]
        degeneracies = self.homs[(x, x)].degeneracies
        for k in range(level):
            s = degeneracies[k][0][s]
        return s

    def has_table(self) -> bool:
        return self.table is not None

    def composite(self, x, y, z, level, g, f):
        """The number of g in hom(y,z)_level after f in hom(x,y)_level, or
        None when the composite is not represented."""
        key = (x, y, z, level, g, f)
        if self.table is not None:
            return self.table.get(key)
        if key not in self._cache:
            self._cache[key] = self._composer(*key)
        return self._cache[key]

    def to_json(self):
        if self.table is None:
            raise InputError("cannot serialize composer-backed composition")
        if any(h < 0 for h in self.table.values()):
            raise InputError("cannot serialize a composite outside its hom")
        homs, compose = self.homs, {}
        for x, y, z, level, g, f, h in sorted(
                (x, y, z, level, homs[(y, z)].levels[level][g], homs[(x, y)].levels[level][f],
                 homs[(x, z)].levels[level][h])
                for (x, y, z, level, g, f), h in self.table.items()):
            compose.setdefault(f"{x}|{y}|{z}", {}).setdefault(str(level), []).append([g, f, h])
        return {
            "objects": list(self.objects),
            "truncation": self.truncation,
            "homs": {f"{x}|{y}": homs[(x, y)].to_json()
                     for x in self.objects for y in self.objects},
            "identities": {x: homs[(x, x)].levels[0][self.identities[x]] for x in self.objects},
            "compose": compose,
        }

    @staticmethod
    def from_json(data) -> "TruncatedSimplicialCategory":
        """Numbered once: an entry whose g or f names no simplex is
        dropped, an unknown composite h is kept as -1 (see validate_scat)."""
        try:
            homs = {}
            for key, sub in data["homs"].items():
                x, y = key.split("|")
                homs[(x, y)] = TruncatedSimplicialSet.from_json(sub)

            def numbering(pair, level):
                hom = homs.get(pair)
                return hom.number[level] if hom and 0 <= level <= hom.truncation else {}

            table = {}
            for key, per_level in data["compose"].items():
                x, y, z = key.split("|")
                for level_str, entries in per_level.items():
                    for g, f, h in entries:
                        if not all(isinstance(n, str) for n in (g, f, h)):
                            raise InputError("composition entries must be simplex names")
                        level = level_key(level_str)
                        gs, fs = numbering((y, z), level), numbering((x, y), level)
                        if g in gs and f in fs:
                            table[(x, y, z, level, gs[g], fs[f])] = (
                                numbering((x, z), level).get(h, -1))
            objects, truncation = data["objects"], truncation_value(data["truncation"])
            identities = {x: numbering((x, x), 0).get(s)
                          for x, s in dict(data["identities"]).items()}
            args = (objects, truncation, homs, identities)
            if data.get("bounds", {}).get("overflows", 0) > 0:
                # a width-bounded localization omits the composites it
                # cannot represent: absent means not represented
                return TruncatedSimplicialCategory(
                    *args, composer=lambda *key: table.get(key)
                )
            return TruncatedSimplicialCategory(*args, table)
        except MALFORMED as exc:
            raise InputError(f"malformed simplicial-category JSON: {exc}") from exc


def promote(c: FiniteCategory, truncation: int = 2) -> TruncatedSimplicialCategory:
    """Discrete enrichment: every hom level repeats the hom-set, all
    faces and degeneracies are the identity renaming."""
    homs, number = {}, {}
    for x in c.objects:
        for y in c.objects:
            names = tuple(c.hom(x, y))
            number.update((m, n) for n, m in enumerate(names))
            same = tuple(range(len(names)))
            homs[(x, y)] = TruncatedSimplicialSet(
                truncation, [names] * (truncation + 1),
                [()] + [(same,) * (k + 1) for k in range(1, truncation + 1)],
                [(same,) * (k + 1) for k in range(truncation)],
            )
    table = {}
    for (g, f), h in c.table.items():
        x, y, z = c.dom[f], c.cod[f], c.cod[g]
        for level in range(truncation + 1):
            table[(x, y, z, level, number[g], number[f])] = number[h]
    return TruncatedSimplicialCategory(
        c.objects, truncation, homs, {x: number[m] for x, m in c.identity.items()}, table
    )


def validate_scat(a: TruncatedSimplicialCategory) -> list[str]:
    """Hom presheaves, levelwise category laws, and the requirement that
    composition is a simplicial map.  A table-backed category must compose
    every composable pair; a composer-backed one (a width-bounded
    localization) represents only some composites, and the laws are
    checked wherever every composite involved is present."""
    report = []
    for x in a.objects:
        for y in a.objects:
            if (x, y) not in a.homs:
                report.append(f"missing hom ({x},{y})")
                continue
            for line in validate_sset(a.homs[(x, y)]):
                report.append(f"hom ({x},{y}): {line}")
    if report:
        return report
    N, comp, homs = a.truncation, a.composite, a.homs
    for x, y, z in itertools.product(a.objects, repeat=3):
        for level in range(N + 1):
            gs, fs = homs[(y, z)].levels[level], homs[(x, y)].levels[level]
            size = len(homs[(x, z)].levels[level])
            for g in range(len(gs)):
                for f in range(len(fs)):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        if a.has_table():
                            report.append(
                                f"missing composite ({x},{y},{z}) level {level}: ({gs[g]},{fs[f]})")
                    elif not 0 <= h < size:
                        report.append(
                            f"composite not in hom ({x},{z}) level {level}: ({gs[g]},{fs[f]})")
    if report:
        return report
    for x, y in itertools.product(a.objects, repeat=2):
        for level in range(N + 1):
            idx, idy = a.identity_at(x, level), a.identity_at(y, level)
            for f, name in enumerate(homs[(x, y)].levels[level]):
                if comp(x, y, y, level, idy, f) not in (None, f):
                    report.append(f"unit: id.{name} at ({x},{y}) level {level}")
                if comp(x, x, y, level, f, idx) not in (None, f):
                    report.append(f"unit: {name}.id at ({x},{y}) level {level}")
    for w, x, y, z in itertools.product(a.objects, repeat=4):
        for level in range(N + 1):
            hs, gs, fs = (homs[pair].levels[level] for pair in ((y, z), (x, y), (w, x)))
            for h in range(len(hs)):
                for g in range(len(gs)):
                    hg = comp(x, y, z, level, h, g)
                    for f in range(len(fs)):
                        gf = comp(w, x, y, level, g, f)
                        if hg is None or gf is None:
                            continue
                        left = comp(w, x, z, level, hg, f)
                        right = comp(w, y, z, level, h, gf)
                        if None not in (left, right) and left != right:
                            report.append(
                                f"associativity at level {level}: ({hs[h]},{gs[g]},{fs[f]})")
    for x, y, z in itertools.product(a.objects, repeat=3):
        hom_xy, hom_yz, hom_xz = homs[(x, y)], homs[(y, z)], homs[(x, z)]
        for op, _, maps, level, to in _generators(N):
            for g in range(len(hom_yz.levels[level])):
                for f in range(len(hom_xy.levels[level])):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        continue
                    for i in range(level + 1):
                        expect = comp(x, y, z, to, getattr(hom_yz, maps)[level][i][g],
                                      getattr(hom_xy, maps)[level][i][f])
                        if expect is not None and getattr(hom_xz, maps)[level][i][h] != expect:
                            report.append(f"composition not simplicial ({op}_{i}) "
                                          f"at ({x},{y},{z}) level {level}")
    return report


def _generators(N):
    """The generator maps of a truncation-N simplicial set, faces first:
    (letter, word, table attribute, level acted on, level reached)."""
    return ([("d", "face", "faces", k, k - 1) for k in range(1, N + 1)]
            + [("s", "degeneracy", "degeneracies", k, k + 1) for k in range(N)])


# --- homotopy category ------------------------------------------------------


def component_category(objects, parts, identities, compose, wellcheck_cap):
    """The category of components, and ``class_names[(x, y)][k]``, the
    morphism of class k of ``parts[(x, y)]``, a partition of the level-0
    simplex numbers of hom(x, y) in level order.  ``identities[x]`` numbers
    id_x; ``compose(x, y, z, g, f)`` numbers a level-0 composite, or is None.
    Composition on classes is induced from the first ``wellcheck_cap``
    members per class; all their composites must land in one class
    (else ConsistencyError; CompositionUnavailable when none is present).
    """
    class_names, dom, cod, morphisms = {}, {}, {}, []
    reps = {}
    for x in objects:
        for y in objects:
            part = parts[(x, y)]
            names = class_names[(x, y)] = [f"{x}->{y}#{k}" for k in range(len(part.classes))]
            morphisms += names
            dom.update(dict.fromkeys(names, x))
            cod.update(dict.fromkeys(names, y))
            chosen = reps[(x, y)] = [[] for _ in names]
            class_of = part.class_of
            for s in part.elements:
                members = chosen[class_of[s]]
                if len(members) < wellcheck_cap:
                    members.append(s)
    identity = {x: class_names[(x, x)][parts[(x, x)].class_of[identities[x]]] for x in objects}

    table = {}
    for x, y, z in itertools.product(objects, repeat=3):
        class_of = parts[(x, z)].class_of
        for k2, gs in enumerate(reps[(y, z)]):
            for k1, fs in enumerate(reps[(x, y)]):
                targets = set()
                for g in gs:
                    for f in fs:
                        h = compose(x, y, z, g, f)
                        if h is not None:
                            targets.add(class_of[h])
                if not targets:
                    raise CompositionUnavailable(
                        f"no representative composite at ({x},{y},{z}) classes ({k2},{k1})"
                    )
                if len(targets) > 1:
                    raise ConsistencyError(
                        f"induced composition ill-defined at ({x},{y},{z}) classes ({k2},{k1})"
                    )
                table[(class_names[(y, z)][k2], class_names[(x, y)][k1])] = (
                    class_names[(x, z)][targets.pop()])

    cat = FiniteCategory(objects, morphisms, dom, cod, identity, table)
    return cat, class_names


def homotopy_category_data(a: TruncatedSimplicialCategory, wellcheck_cap: int = 8):
    """The category of components, class names and partitions (see :func:`component_category`)."""
    if a.truncation < 1:
        raise InputError("homotopy category needs truncation >= 1")
    parts = {(x, y): pi0(a.homs[(x, y)]) for x in a.objects for y in a.objects}
    cat, class_names = component_category(
        a.objects, parts, a.identities,
        lambda x, y, z, g, f: a.composite(x, y, z, 0, g, f), wellcheck_cap,
    )
    return cat, class_names, parts


def homotopy_category(a: TruncatedSimplicialCategory) -> FiniteCategory:
    return homotopy_category_data(a)[0]


# --- relative simplicial categories ----------------------------------------


@dataclass(frozen=True)
class RelativeSimplicialCategory:
    """An enriched category with a levelwise-closed subobject of the homs
    (all objects and all degenerate identities included)."""

    ambient: TruncatedSimplicialCategory
    sub: dict  # (x, y) -> tuple of per-level frozensets

    def __init__(self, ambient, sub):
        object.__setattr__(self, "ambient", ambient)
        normalized = {}
        for pair, levels in sub.items():
            normalized[pair] = tuple(frozenset(level) for level in levels)
        for x in ambient.objects:
            for y in ambient.objects:
                normalized.setdefault(
                    (x, y), tuple(frozenset() for _ in range(ambient.truncation + 1))
                )
        object.__setattr__(self, "sub", normalized)


def relscat_to_json(rs: RelativeSimplicialCategory):
    data = rs.ambient.to_json()
    data["sub"] = {
        f"{x}|{y}": [sorted(level) for level in levels]
        for (x, y), levels in sorted(rs.sub.items())
    }
    return data


def relscat_from_json(data) -> RelativeSimplicialCategory:
    ambient = TruncatedSimplicialCategory.from_json(data)
    if "sub" not in data:
        raise InputError("missing sub")
    sub = {}
    try:
        for key, levels in data["sub"].items():
            x, y = key.split("|")
            if (x, y) not in ambient.homs:
                raise InputError(f"unknown hom {key!r}")
            sub[(x, y)] = tuple(frozenset(level) for level in levels)
            if not all(isinstance(s, str) for level in sub[(x, y)] for s in level):
                raise InputError(f"sub {key!r} names a simplex by a non-string")
    except MALFORMED as exc:
        raise InputError(f"malformed sub: {exc}") from exc
    return RelativeSimplicialCategory(ambient, sub)


def simplicial_functor_from_json(data, source, target) -> "SimplicialFunctor":
    try:
        smap = {}
        for key, per_level in data["simplex_map"].items():
            x, y = key.split("|")
            for level_str, entries in per_level.items():
                for s, t in entries.items():
                    smap[(x, y, level_key(level_str), s)] = t
        object_map = dict(data["object_map"])
        if not all(isinstance(t, str) for t in (*object_map.values(), *smap.values())):
            raise InputError("functor images must be names (strings)")
        return SimplicialFunctor(source, target, object_map, smap)
    except MALFORMED as exc:
        raise InputError(f"malformed functor JSON: {exc}") from exc


def validate_relscat(rs: RelativeSimplicialCategory) -> list[str]:
    report = []
    a, N = rs.ambient, rs.ambient.truncation
    for (x, y), levels in rs.sub.items():
        if len(levels) != N + 1:
            report.append(f"sub ({x},{y}): wrong number of levels")
            continue
        sset = a.homs[(x, y)]
        for k, level in enumerate(levels):
            for s in sorted(level):
                if not sset.has_simplex(k, s):
                    report.append(f"sub ({x},{y}) level {k}: unknown simplex {s}")
    if report:
        return report
    # each sub level as (name, number) pairs in name order, and its numbers
    ordered = {pair: tuple(tuple((s, a.homs[pair].number[k][s]) for s in sorted(level))
                           for k, level in enumerate(levels))
               for pair, levels in rs.sub.items()}
    numbers = {pair: tuple(frozenset(n for _, n in level) for level in levels)
               for pair, levels in ordered.items()}
    for x in a.objects:
        for k in range(N + 1):
            if a.identity_at(x, k) not in numbers[(x, x)][k]:
                report.append(f"sub missing identity at {x} level {k}")
    for (x, y), levels in ordered.items():
        sset, kept = a.homs[(x, y)], numbers[(x, y)]
        for op, word, maps, k, to in _generators(N):
            for s, n in levels[k]:
                for i in range(k + 1):
                    if getattr(sset, maps)[k][i][n] not in kept[to]:
                        report.append(f"sub ({x},{y}): {word} {op}_{i} of {s} escapes")
    if report:
        return report
    # a table-backed ambient must compose every pair; a composer-backed
    # one (a width-bounded localization) is checked where it composes
    for x, y, z in itertools.product(a.objects, repeat=3):
        for level in range(N + 1):
            for g, gn in ordered[(y, z)][level]:
                for f, fn in ordered[(x, y)][level]:
                    h = a.composite(x, y, z, level, gn, fn)
                    if h is None:
                        if a.has_table():
                            report.append(
                                f"sub pair ({g},{f}) has no composite at ({x},{y},{z}) "
                                f"level {level}")
                    elif h not in numbers[(x, z)][level]:
                        report.append(
                            f"sub not closed under composition at ({x},{y},{z}) level {level}"
                        )
    return report


def sub_from_morphisms(a: TruncatedSimplicialCategory, c: FiniteCategory, mors) -> dict:
    """For a promoted category: the subobject spanned by a morphism set
    (levelwise the same names)."""
    sub = {}
    for x in c.objects:
        for y in c.objects:
            chosen = frozenset(m for m in c.hom(x, y) if m in set(mors))
            sub[(x, y)] = tuple(chosen for _ in range(a.truncation + 1))
    return sub


def is_neglectable(rs: RelativeSimplicialCategory):
    """True when every sub 0-simplex becomes invertible in the category
    of components; otherwise (False, (x, y, name)) for the first that
    does not, by name within each hom."""
    a = rs.ambient
    ho, class_names, parts = homotopy_category_data(a)
    for x in a.objects:
        for y in a.objects:
            number, class_of = a.homs[(x, y)].number[0], parts[(x, y)].class_of
            for s in sorted(rs.sub[(x, y)][0]):
                if not is_isomorphism(ho, class_names[(x, y)][class_of[number[s]]]):
                    return False, (x, y, s)
    return True, None


# --- simplicial functors and DK certificates --------------------------------


class SimplicialFunctor:
    """Object map plus a levelwise simplex map per hom pair."""

    __slots__ = ("source", "target", "object_map", "simplex_map")

    def __init__(self, source, target, object_map, simplex_map):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        # keys (x, y, level, simplex) -> simplex
        self.simplex_map = dict(simplex_map)

    def to_json(self):
        grouped = {}
        for (x, y, level, s), t in sorted(self.simplex_map.items()):
            grouped.setdefault(f"{x}|{y}", {}).setdefault(str(level), {})[s] = t
        return {"object_map": dict(self.object_map), "simplex_map": grouped}


def validate_simplicial_functor(fun: SimplicialFunctor, composition_cap: int = 4000) -> list[str]:
    """The violations of the first kind found; at most the cap of composites, in level order."""
    return _functor_report(fun, composition_cap)[0]


def _functor_report(fun: SimplicialFunctor, composition_cap: int = 4000):
    """The violations :func:`validate_simplicial_functor` reports, and the
    simplex images they were found on: per source pair and level, the
    target number of each simplex's image by number, None where the
    name-keyed simplex map gives none (no images when an object is not
    mapped)."""
    report = []
    src, tgt, smap = fun.source, fun.target, fun.simplex_map
    for x in src.objects:
        if fun.object_map.get(x) not in tgt.objects:
            report.append(f"object not mapped into target: {x}")
    if report:
        return report, None
    images = {}
    for x in src.objects:
        for y in src.objects:
            target = tgt.homs[(fun.object_map[x], fun.object_map[y])].number
            images[(x, y)] = tuple(
                tuple(target[level].get(smap.get((x, y, level, s))) for s in names)
                for level, names in enumerate(src.homs[(x, y)].levels))
    for (x, y), image in images.items():
        for level, names in enumerate(src.homs[(x, y)].levels):
            report.extend(f"simplex not mapped: ({x},{y}) level {level}: {name}"
                          for name, t in zip(names, image[level]) if t is None)
    if report:
        return report, images
    for x in src.objects:
        if images[(x, x)][0][src.identities[x]] != tgt.identities[fun.object_map[x]]:
            report.append(f"identity not preserved at {x}")
    for (x, y), image in images.items():
        sh = src.homs[(x, y)]
        th = tgt.homs[(fun.object_map[x], fun.object_map[y])]
        for op, word, maps, level, to in _generators(src.truncation):
            for s, name in enumerate(sh.levels[level]):
                for i in range(level + 1):
                    if image[to][getattr(sh, maps)[level][i][s]] != \
                            getattr(th, maps)[level][i][image[level][s]]:
                        report.append(
                            f"{word} not preserved: ({x},{y}) level {level} {op}_{i} {name}")
    if report:
        return report, images
    checked = 0
    for x, y, z in itertools.product(src.objects, repeat=3):
        fx, fy, fz = (fun.object_map[o] for o in (x, y, z))
        for level in range(src.truncation + 1):
            gs, fs = src.homs[(y, z)].levels[level], src.homs[(x, y)].levels[level]
            for g in range(len(gs)):
                for f in range(len(fs)):
                    if checked >= composition_cap:
                        return report, images
                    h = src.composite(x, y, z, level, g, f)
                    if h is None:
                        continue
                    checked += 1
                    image = tgt.composite(fx, fy, fz, level, images[(y, z)][level][g],
                                          images[(x, y)][level][f])
                    if image is None:
                        report.append(
                            f"composite not representable in target at ({x},{y},{z}) level {level}"
                        )
                    elif image != images[(x, z)][level][h]:
                        report.append(
                            f"composition not preserved at ({x},{y},{z}) level {level}: "
                            f"({gs[g]},{fs[f]})")
    return report, images


@dataclass
class PairComparison:
    pi0_ok: bool
    pi0_witness: object
    homology_ok: bool
    homology_witness: object

    def to_json(self):
        return {
            "pi0_ok": self.pi0_ok,
            "pi0_witness": _jsonable(self.pi0_witness),
            "homology_ok": self.homology_ok,
            "homology_witness": _jsonable(self.homology_witness),
        }


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class DkCertificate:
    """Machine-checkable evidence that a simplicial functor is a
    DK-equivalence at this truncation: per-pair component bijections and
    homology comparisons, plus an equivalence check on the categories of
    components.  Verdicts are honest about truncation, hence
    ``pass_partial`` rather than ``pass``."""

    truncation: int
    pairs: dict
    ho_ok: bool
    ho_witness: object
    verdict: str  # "pass_partial" | "fail" | "undetermined"
    reason: str = ""

    def to_json(self):
        return {
            "truncation": self.truncation,
            "pairs": {f"{x}|{y}": cmp.to_json() for (x, y), cmp in sorted(self.pairs.items())},
            "ho_ok": self.ho_ok,
            "ho_witness": _jsonable(self.ho_witness),
            "verdict": self.verdict,
            "reason": self.reason,
        }


def _chain_map_matrix(image, level, src_hom, tgt_hom):
    """The chain map on normalized level-``level`` chains: a 0/1 matrix
    from the nondegenerate simplices of ``src_hom`` to those of
    ``tgt_hom`` (a degenerate image is zero), by the numbers ``image``."""
    src_basis = src_hom.nondegenerate(level)
    tgt_index = {t: i for i, t in enumerate(tgt_hom.nondegenerate(level))}
    matrix = [[0] * len(src_basis) for _ in tgt_index]
    for j, s in enumerate(src_basis):
        i = tgt_index.get(image[s])
        if i is not None:
            matrix[i][j] = 1
    return matrix


def _induced_homology_iso(image, level, src_hom, tgt_hom, src_report, tgt_report):
    """Rank-over-Q check that H_level of the mapped pair is an iso, given
    equal free ranks and torsion; ``image`` gives the level's simplex
    images by number.  With F the chain map, D the source boundary out of
    level ``level`` and B the target boundary into it, the induced map is
    onto over Q, hence an iso, when dim(F(ker D) + im B) - rank B is the
    Betti number, and dim(F(ker D) + im B) = rank [[F, B], [D, 0]] - rank D."""
    group = src_report.group(level)
    if group != tgt_report.group(level):
        return False
    if group.free_rank == 0:
        return True
    fmat = _chain_map_matrix(image, level, src_hom, tgt_hom)
    del_src = boundary_matrix(src_hom, level)[0]
    del_tgt, _, tgt_cols = boundary_matrix(tgt_hom, level + 1)
    block = ([f + b for f, b in zip(fmat, del_tgt)]
             + [d + [0] * len(tgt_cols) for d in del_src])
    return (rational_rank(block) - rational_rank(del_src) - rational_rank(del_tgt)
            == group.free_rank)


def check_dk(fun: SimplicialFunctor, budget: int = 1_000_000) -> DkCertificate:
    """Necessary-condition certificate that ``fun`` is a DK-equivalence.

    Expects valid simplicial categories (``validate_scat``); the functor
    itself is validated here.  Per object pair the component sets must
    biject and homology in degrees 1..truncation-1 must agree (ranks,
    torsion, and an induced iso over Q); the induced functor on component
    categories must be fully faithful and essentially surjective.  Degree
    0 needs no homology: normalized H_0 is free on the components, so it
    agrees exactly when the components biject.

    ``budget`` is unused: no step here searches.  It is kept only because
    the traced rebuild in ``perfbench/tracing.py`` passes it; it goes
    when that call changes.
    """
    bad, images = _functor_report(fun)
    if bad:
        raise InputError(f"invalid simplicial functor: {bad[0]}")
    src, tgt = fun.source, fun.target
    N = src.truncation
    pairs, verdict, reason = {}, "pass_partial", ""

    src_parts = {(x, y): pi0(src.homs[(x, y)]) for x in src.objects for y in src.objects}
    tgt_parts = {}

    for x in src.objects:
        for y in src.objects:
            fx, fy = fun.object_map[x], fun.object_map[y]
            if (fx, fy) not in tgt_parts:
                tgt_parts[(fx, fy)] = pi0(tgt.homs[(fx, fy)])
            sp, tp = src_parts[(x, y)], tgt_parts[(fx, fy)]
            # a face-preserving map sends a whole class into one class, so
            # any member (here the least number) gives the class's image
            mapping = {k: tp.class_of[images[(x, y)][0][min(cls)]]
                       for k, cls in enumerate(sp.classes)}
            injective = len(set(mapping.values())) == len(mapping)
            surjective = set(mapping.values()) == set(range(len(tp.classes)))
            pi0_ok = injective and surjective
            pi0_witness = None if pi0_ok else {
                "pair": [x, y], "source_classes": len(sp.classes),
                "target_classes": len(tp.classes), "injective": injective,
            }

            hom_witness = None if pi0_ok else {"pair": [x, y], "degree": 0}
            if pi0_ok and N >= 2:
                src_hom, tgt_hom = src.homs[(x, y)], tgt.homs[(fx, fy)]
                src_report, tgt_report = homology(src_hom), homology(tgt_hom)
                for level in range(1, N):
                    if not _induced_homology_iso(images[(x, y)][level], level, src_hom,
                                                 tgt_hom, src_report, tgt_report):
                        hom_witness = {"pair": [x, y], "degree": level}
                        break
            hom_ok = hom_witness is None
            pairs[(x, y)] = PairComparison(pi0_ok, pi0_witness, hom_ok, hom_witness)
            if not (pi0_ok and hom_ok):
                verdict = "fail"

    ho_ok, ho_witness = False, None
    try:
        ho_src, src_names, src_classes = homotopy_category_data(src)
        ho_tgt, tgt_names, tgt_classes = homotopy_category_data(tgt)
        omap = dict(fun.object_map)
        mmap = {}
        for x in src.objects:
            for y in src.objects:
                fxy = (omap[x], omap[y])
                names, class_of = src_names[(x, y)], src_classes[(x, y)].class_of
                image_names, image_class = tgt_names[fxy], tgt_classes[fxy].class_of
                for s, t in enumerate(images[(x, y)][0]):
                    cls, target_cls = names[class_of[s]], image_names[image_class[t]]
                    if mmap.setdefault(cls, target_cls) != target_cls:
                        raise ConsistencyError(f"induced functor not well defined at {cls}")
        induced = CatFunctor(ho_src, ho_tgt, omap, mmap)
        if validate_functor(induced):
            ho_witness = {"error": "induced map on components is not a functor"}
            verdict = "fail"
        else:
            witness = equivalence_from_functor(induced)
            if witness is None:
                ho_witness = {"error": "component categories not equivalent via induced functor"}
                verdict = "fail"
            else:
                ho_ok = True
                ho_witness = {"backward_objects": dict(witness.backward.object_map)}
    except CompositionUnavailable as exc:
        verdict = "undetermined"
        reason = f"composition bound: {exc}"

    return DkCertificate(N, pairs, ho_ok, ho_witness, verdict, reason)


# --- level categories --------------------------------------------------------


def level_morphism_name(x, y, simplex):
    return f"{x}|{y}|{simplex}"


def level_category(a: TruncatedSimplicialCategory, n: int) -> FiniteCategory:
    """The ordinary category of level-n simplices under level-n composition,
    its morphisms named by :func:`level_morphism_name` and numbered hom by
    hom, each hom's simplices in level order.

    Composites the source cannot represent (width overflow in a bounded
    localization) are simply absent; the result is then partially
    represented, like its source."""
    names, morphisms, dom, cod = {}, [], {}, {}
    for x in a.objects:
        for y in a.objects:
            names[(x, y)] = [level_morphism_name(x, y, s) for s in a.homs[(x, y)].levels[n]]
            morphisms += names[(x, y)]
            dom.update(dict.fromkeys(names[(x, y)], x))
            cod.update(dict.fromkeys(names[(x, y)], y))
    identity = {x: names[(x, x)][a.identity_at(x, n)] for x in a.objects}
    table = {}
    for x, y, z in itertools.product(a.objects, repeat=3):
        gs, fs, hs = names[(y, z)], names[(x, y)], names[(x, z)]
        for g in range(len(gs)):
            for f in range(len(fs)):
                h = a.composite(x, y, z, n, g, f)
                if h is not None:
                    table[(gs[g], fs[f])] = hs[h]
    return FiniteCategory(a.objects, morphisms, dom, cod, identity, table)
