"""Categories enriched in truncated simplicial sets.

Composition can be backed by explicit per-level tables or, for
localization outputs whose composites are only partially representable
inside a width bound, by a composer callback.  Identities at level n
are the n-fold degeneracies of the level-0 identity.
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
    validate_sset,
)


class TruncatedSimplicialCategory:
    """Fixed object set, a hom simplicial set per ordered pair, and
    levelwise composition."""

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
        for pair, sset in self.homs.items():
            if sset.truncation != self.truncation:
                raise InputError(f"hom {pair} has truncation {sset.truncation}")
        for x in self.objects:
            ident = self.identities.get(x)
            if ident is None or not self.homs[(x, x)].has_simplex(0, ident):
                raise InputError(f"bad identity for {x!r}")

    def hom(self, x, y) -> TruncatedSimplicialSet:
        return self.homs[(x, y)]

    def identity_at(self, x, level) -> str:
        """The level-``level`` identity: an iterated degeneracy of id_x."""
        name = self.identities[x]
        sset = self.homs[(x, x)]
        for k in range(level):
            name = sset.degeneracy(k, 0, name)
        return name

    def has_table(self) -> bool:
        return self.table is not None

    def composite(self, x, y, z, level, g, f):
        """g in hom(y,z)_level after f in hom(x,y)_level, or None when the
        composite is not represented."""
        key = (x, y, z, level, g, f)
        if self.table is not None:
            return self.table.get(key)
        if key not in self._cache:
            self._cache[key] = self._composer(*key)
        return self._cache[key]

    def compose(self, x, y, z, level, g, f) -> str:
        """As :meth:`composite`, raising CompositionUnavailable for None."""
        result = self.composite(x, y, z, level, g, f)
        if result is None:
            raise CompositionUnavailable(f"no composite at ({x},{y},{z}) level {level}")
        return result

    def to_json(self):
        if self.table is None:
            raise InputError("cannot serialize composer-backed composition")
        compose = {}
        for (x, y, z, level, g, f), h in sorted(self.table.items()):
            compose.setdefault(f"{x}|{y}|{z}", {}).setdefault(str(level), []).append([g, f, h])
        return {
            "objects": list(self.objects),
            "truncation": self.truncation,
            "homs": {f"{x}|{y}": self.homs[(x, y)].to_json()
                     for x in self.objects for y in self.objects},
            "identities": dict(self.identities),
            "compose": compose,
        }

    @staticmethod
    def from_json(data) -> "TruncatedSimplicialCategory":
        try:
            homs = {}
            for key, sub in data["homs"].items():
                x, y = key.split("|")
                homs[(x, y)] = TruncatedSimplicialSet.from_json(sub)
            table = {}
            for key, per_level in data["compose"].items():
                x, y, z = key.split("|")
                for level_str, entries in per_level.items():
                    for g, f, h in entries:
                        if not all(isinstance(n, str) for n in (g, f, h)):
                            raise InputError("composition entries must be simplex names")
                        table[(x, y, z, level_key(level_str), g, f)] = h
            args = (data["objects"], data["truncation"], homs, data["identities"])
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
    homs = {}
    for x in c.objects:
        for y in c.objects:
            names = tuple(c.hom(x, y))
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
            table[(x, y, z, level, g, f)] = h
    return TruncatedSimplicialCategory(
        c.objects, truncation, homs, dict(c.identity), table
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
    N = a.truncation
    comp = a.composite
    for x, y, z in itertools.product(a.objects, repeat=3):
        for level in range(N + 1):
            for g in a.homs[(y, z)].level(level):
                for f in a.homs[(x, y)].level(level):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        if a.has_table():
                            report.append(
                                f"missing composite ({x},{y},{z}) level {level}: ({g},{f})")
                    elif not a.homs[(x, z)].has_simplex(level, h):
                        report.append(f"composite not in hom ({x},{z}) level {level}: ({g},{f})")
    if report:
        return report
    for x, y in itertools.product(a.objects, repeat=2):
        for level in range(N + 1):
            idx = a.identity_at(x, level)
            idy = a.identity_at(y, level)
            for f in a.homs[(x, y)].level(level):
                if comp(x, y, y, level, idy, f) not in (None, f):
                    report.append(f"unit: id.{f} at ({x},{y}) level {level}")
                if comp(x, x, y, level, f, idx) not in (None, f):
                    report.append(f"unit: {f}.id at ({x},{y}) level {level}")
    for w, x, y, z in itertools.product(a.objects, repeat=4):
        for level in range(N + 1):
            for h in a.homs[(y, z)].level(level):
                for g in a.homs[(x, y)].level(level):
                    hg = comp(x, y, z, level, h, g)
                    for f in a.homs[(w, x)].level(level):
                        gf = comp(w, x, y, level, g, f)
                        if hg is None or gf is None:
                            continue
                        left = comp(w, x, z, level, hg, f)
                        right = comp(w, y, z, level, h, gf)
                        if None not in (left, right) and left != right:
                            report.append(f"associativity at level {level}: ({h},{g},{f})")
    for x, y, z in itertools.product(a.objects, repeat=3):
        hom_xy, hom_yz, hom_xz = a.homs[(x, y)], a.homs[(y, z)], a.homs[(x, z)]
        for level in range(1, N + 1):
            for g in hom_yz.level(level):
                for f in hom_xy.level(level):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        continue
                    for i in range(level + 1):
                        expect = comp(x, y, z, level - 1,
                                      hom_yz.face(level, i, g), hom_xy.face(level, i, f))
                        if expect is not None and hom_xz.face(level, i, h) != expect:
                            report.append(
                                f"composition not simplicial (d_{i}) at ({x},{y},{z}) level {level}"
                            )
        for level in range(N):
            for g in hom_yz.level(level):
                for f in hom_xy.level(level):
                    h = comp(x, y, z, level, g, f)
                    if h is None:
                        continue
                    for i in range(level + 1):
                        expect = comp(x, y, z, level + 1,
                                      hom_yz.degeneracy(level, i, g), hom_xy.degeneracy(level, i, f))
                        if expect is not None and hom_xz.degeneracy(level, i, h) != expect:
                            report.append(
                                f"composition not simplicial (s_{i}) at ({x},{y},{z}) level {level}"
                            )
    return report


# --- homotopy category ------------------------------------------------------


def component_category(objects, parts, members, identities, compose, wellcheck_cap):
    """The category of components, plus the simplex-to-class map.

    ``parts[(x, y)]`` partitions the level-0 simplices ``members[(x, y)]``
    (in order) of hom(x, y); ``identities[x]`` is the identity simplex of
    x; ``compose(x, y, z, g, f)`` names the level-0 composite, or is None
    when it is not represented.  Composition on classes is induced from
    the first ``wellcheck_cap`` members per class; all their composites
    must land in one class (ill-definedness raises ConsistencyError, no
    represented composite raises CompositionUnavailable).
    """
    names, dom, cod, morphisms = {}, {}, {}, []
    reps = {}
    for x in objects:
        for y in objects:
            class_of = parts[(x, y)].class_of
            for k in range(len(parts[(x, y)].classes)):
                name = f"{x}->{y}#{k}"
                names[(x, y, k)] = name
                morphisms.append(name)
                dom[name] = x
                cod[name] = y
                reps[(x, y, k)] = []
            for s in members[(x, y)]:
                chosen = reps[(x, y, class_of[s])]
                if len(chosen) < wellcheck_cap:
                    chosen.append(s)
    identity = {x: names[(x, x, parts[(x, x)].class_of[identities[x]])] for x in objects}

    table = {}
    for x, y, z in itertools.product(objects, repeat=3):
        class_of = parts[(x, z)].class_of
        for k2 in range(len(parts[(y, z)].classes)):
            for k1 in range(len(parts[(x, y)].classes)):
                targets = set()
                for g in reps[(y, z, k2)]:
                    for f in reps[(x, y, k1)]:
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
                table[(names[(y, z, k2)], names[(x, y, k1)])] = names[(x, z, targets.pop())]

    cat = FiniteCategory(objects, morphisms, dom, cod, identity, table)
    classmap = {
        (x, y, s): names[(x, y, parts[(x, y)].class_of[s])]
        for x in objects for y in objects for s in members[(x, y)]
    }
    return cat, classmap


def homotopy_category_data(a: TruncatedSimplicialCategory, wellcheck_cap: int = 8):
    """The category of components, the simplex-to-class map and the
    per-pair partitions (see :func:`component_category`)."""
    if a.truncation < 1:
        raise InputError("homotopy category needs truncation >= 1")
    parts = {(x, y): pi0(a.homs[(x, y)]) for x in a.objects for y in a.objects}

    members = {pair: a.homs[pair].level(0) for pair in parts}
    cat, classmap = component_category(
        a.objects, parts, members, a.identities,
        lambda x, y, z, g, f: a.composite(x, y, z, 0, g, f), wellcheck_cap,
    )
    return cat, classmap, parts


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
    a = rs.ambient
    N = a.truncation
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
    for x in a.objects:
        for k in range(N + 1):
            if a.identity_at(x, k) not in rs.sub[(x, x)][k]:
                report.append(f"sub missing identity at {x} level {k}")
    for (x, y), levels in rs.sub.items():
        sset = a.homs[(x, y)]
        for k in range(1, N + 1):
            for s in sorted(levels[k]):
                for i in range(k + 1):
                    if sset.face(k, i, s) not in levels[k - 1]:
                        report.append(f"sub ({x},{y}): face d_{i} of {s} escapes")
        for k in range(N):
            for s in sorted(levels[k]):
                for i in range(k + 1):
                    if sset.degeneracy(k, i, s) not in levels[k + 1]:
                        report.append(f"sub ({x},{y}): degeneracy s_{i} of {s} escapes")
    if report:
        return report
    # a table-backed ambient must compose every pair; a composer-backed
    # one (a width-bounded localization) is checked where it composes
    for x, y, z in itertools.product(a.objects, repeat=3):
        for level in range(N + 1):
            for g in sorted(rs.sub[(y, z)][level]):
                for f in sorted(rs.sub[(x, y)][level]):
                    h = a.composite(x, y, z, level, g, f)
                    if h is None:
                        if a.has_table():
                            report.append(
                                f"sub pair ({g},{f}) has no composite at ({x},{y},{z}) "
                                f"level {level}")
                    elif h not in rs.sub[(x, z)][level]:
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
    of components; otherwise (False, witness)."""
    ho, classmap, _ = homotopy_category_data(rs.ambient)
    for x in rs.ambient.objects:
        for y in rs.ambient.objects:
            for s in sorted(rs.sub[(x, y)][0]):
                if not is_isomorphism(ho, classmap[(x, y, s)]):
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
    report = []
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if fun.object_map.get(x) not in tgt.objects:
            report.append(f"object not mapped into target: {x}")
    if report:
        return report
    for x in src.objects:
        for y in src.objects:
            sh = src.homs[(x, y)]
            th = tgt.homs[(fun.object_map[x], fun.object_map[y])]
            for level in range(src.truncation + 1):
                for s in sh.level(level):
                    t = fun.simplex_map.get((x, y, level, s))
                    if t is None or not th.has_simplex(level, t):
                        report.append(f"simplex not mapped: ({x},{y}) level {level}: {s}")
    if report:
        return report
    for x in src.objects:
        if fun.simplex_map[(x, x, 0, src.identities[x])] != tgt.identities[fun.object_map[x]]:
            report.append(f"identity not preserved at {x}")
    for x in src.objects:
        for y in src.objects:
            sh = src.homs[(x, y)]
            th = tgt.homs[(fun.object_map[x], fun.object_map[y])]
            for level in range(1, src.truncation + 1):
                for s in sh.level(level):
                    for i in range(level + 1):
                        lhs = fun.simplex_map[(x, y, level - 1, sh.face(level, i, s))]
                        rhs = th.face(level, i, fun.simplex_map[(x, y, level, s)])
                        if lhs != rhs:
                            report.append(f"face not preserved: ({x},{y}) level {level} d_{i} {s}")
            for level in range(src.truncation):
                for s in sh.level(level):
                    for i in range(level + 1):
                        lhs = fun.simplex_map[(x, y, level + 1, sh.degeneracy(level, i, s))]
                        rhs = th.degeneracy(level, i, fun.simplex_map[(x, y, level, s)])
                        if lhs != rhs:
                            report.append(
                                f"degeneracy not preserved: ({x},{y}) level {level} s_{i} {s}"
                            )
    if report:
        return report
    checked = 0
    for x, y, z in itertools.product(src.objects, repeat=3):
        fx, fy, fz = (fun.object_map[o] for o in (x, y, z))
        for level in range(src.truncation + 1):
            for g in src.homs[(y, z)].level(level):
                for f in src.homs[(x, y)].level(level):
                    if checked >= composition_cap:
                        return report
                    h = src.composite(x, y, z, level, g, f)
                    if h is None:
                        continue
                    checked += 1
                    image = tgt.composite(
                        fx, fy, fz, level,
                        fun.simplex_map[(y, z, level, g)],
                        fun.simplex_map[(x, y, level, f)],
                    )
                    if image is None:
                        report.append(
                            f"composite not representable in target at ({x},{y},{z}) level {level}"
                        )
                        continue
                    if image != fun.simplex_map[(x, z, level, h)]:
                        report.append(
                            f"composition not preserved at ({x},{y},{z}) level {level}: ({g},{f})"
                        )
    return report


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


def _induced_pi0_map(fun, x, y, src_part, tgt_part):
    mapping = {}
    for k, cls in enumerate(src_part.classes):
        member = min(cls)
        image = fun.simplex_map[(x, y, 0, member)]
        mapping[k] = tgt_part.class_of[image]
    return mapping


def _chain_map_matrix(fun, x, y, level, src_hom, tgt_hom):
    """The chain map on normalized level-``level`` chains: a 0/1 matrix
    from the nondegenerate simplices of ``src_hom`` to those of
    ``tgt_hom``, by number (a degenerate image is zero)."""
    names, number = src_hom.levels[level], tgt_hom.number[level]
    src_basis = src_hom.nondegenerate(level)
    tgt_index = {t: i for i, t in enumerate(tgt_hom.nondegenerate(level))}
    matrix = [[0] * len(src_basis) for _ in tgt_index]
    for j, s in enumerate(src_basis):
        i = tgt_index.get(number[fun.simplex_map[(x, y, level, names[s])]])
        if i is not None:
            matrix[i][j] = 1
    return matrix


def _induced_homology_iso(fun, x, y, level, src_hom, tgt_hom, src_report, tgt_report):
    """Rank-over-Q check that H_level of the mapped pair is an iso, given
    equal free ranks and torsion.  With F the chain map, D the source
    boundary out of level ``level`` and B the target boundary into it,
    the induced map is onto over Q, hence an iso, when
    dim(F(ker D) + im B) - rank B is the Betti number, and
    dim(F(ker D) + im B) = rank [[F, B], [D, 0]] - rank D."""
    group = src_report.group(level)
    if group != tgt_report.group(level):
        return False
    if group.free_rank == 0:
        return True
    fmat = _chain_map_matrix(fun, x, y, level, src_hom, tgt_hom)
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
    """
    bad = validate_simplicial_functor(fun)
    if bad:
        raise InputError(f"invalid simplicial functor: {bad[0]}")
    src, tgt = fun.source, fun.target
    N = src.truncation
    pairs = {}
    verdict = "pass_partial"
    reason = ""

    src_parts = {(x, y): pi0(src.homs[(x, y)]) for x in src.objects for y in src.objects}
    tgt_parts = {}

    for x in src.objects:
        for y in src.objects:
            fx, fy = fun.object_map[x], fun.object_map[y]
            if (fx, fy) not in tgt_parts:
                tgt_parts[(fx, fy)] = pi0(tgt.homs[(fx, fy)])
            sp, tp = src_parts[(x, y)], tgt_parts[(fx, fy)]
            mapping = _induced_pi0_map(fun, x, y, sp, tp)
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
                    if not _induced_homology_iso(
                            fun, x, y, level, src_hom, tgt_hom, src_report, tgt_report):
                        hom_witness = {"pair": [x, y], "degree": level}
                        break
            hom_ok = hom_witness is None
            pairs[(x, y)] = PairComparison(pi0_ok, pi0_witness, hom_ok, hom_witness)
            if not (pi0_ok and hom_ok):
                verdict = "fail"

    ho_ok = False
    ho_witness = None
    try:
        ho_src, cmap_src, _ = homotopy_category_data(src)
        ho_tgt, cmap_tgt, _ = homotopy_category_data(tgt)
        omap = dict(fun.object_map)
        mmap = {}
        for x in src.objects:
            for y in src.objects:
                for s in src.homs[(x, y)].level(0):
                    cls = cmap_src[(x, y, s)]
                    image = fun.simplex_map[(x, y, 0, s)]
                    target_cls = cmap_tgt[(omap[x], omap[y], image)]
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
    """The ordinary category of level-n simplices under level-n composition.

    Composites the source cannot represent (width overflow in a bounded
    localization) are simply absent; the result is then partially
    represented, like its source."""
    morphisms, dom, cod = [], {}, {}
    for x in a.objects:
        for y in a.objects:
            for s in a.homs[(x, y)].level(n):
                name = level_morphism_name(x, y, s)
                morphisms.append(name)
                dom[name] = x
                cod[name] = y
    identity = {x: level_morphism_name(x, x, a.identity_at(x, n)) for x in a.objects}
    table = {}
    for x, y, z in itertools.product(a.objects, repeat=3):
        for g in a.homs[(y, z)].level(n):
            for f in a.homs[(x, y)].level(n):
                h = a.composite(x, y, z, n, g, f)
                if h is None:
                    continue
                table[(level_morphism_name(y, z, g), level_morphism_name(x, y, f))] = (
                    level_morphism_name(x, z, h)
                )
    return FiniteCategory(a.objects, morphisms, dom, cod, identity, table)
