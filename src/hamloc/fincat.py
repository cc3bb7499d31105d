"""Finite categories presented by explicit composition tables.

Objects and morphisms are named by strings (debuggable, diffable);
each category also carries dense integer indexes for its own names, and
its composition table and identities on those morphism numbers.
Values are immutable after construction, so they are safe to share.

Equivalences are decided, not spelled out: :func:`equivalence_from_functor`
returns only the object map of a quasi-inverse, the one part a DK
certificate reports, and :func:`find_equivalence` returns the functor it
found, whose laws, full faithfulness and essential surjectivity the
search has checked.  Neither builds a unit or a counit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MALFORMED, CompositionUnavailable, InputError


class FiniteCategory:
    """A category with finitely many objects and morphisms.

    ``compose`` is a dict ``(g, f) -> g_after_f`` that must be total on
    composable pairs; law checking is done by :func:`validate_category`
    (report style), while the constructor only rejects malformed shapes.
    """

    __slots__ = (
        "objects", "morphisms", "dom", "cod", "identity", "table",
        "obj_index", "mor_index", "identity_numbers", "_post",
        "_hom", "_identity_names", "_by_dom", "_by_cod",
    )

    def __init__(self, objects, morphisms, dom, cod, identity, compose):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        self.table = dict(compose)

        if len(set(self.objects)) != len(self.objects):
            raise InputError("duplicate object names")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise InputError("duplicate morphism names")
        if not all(o for o in self.objects) or not all(m for m in self.morphisms):
            raise InputError("names must be nonempty")
        mors = set(self.morphisms)
        objs = set(self.objects)
        for m in self.morphisms:
            if m not in self.dom or m not in self.cod:
                raise InputError(f"missing dom/cod for morphism {m!r}")
            if self.dom[m] not in objs or self.cod[m] not in objs:
                raise InputError(f"dom/cod of {m!r} is not a known object")
        for x in self.objects:
            if x not in self.identity:
                raise InputError(f"missing identity for object {x!r}")
            if self.identity[x] not in mors:
                raise InputError(f"identity of {x!r} is not a known morphism")
        for (g, f), h in self.table.items():
            if g not in mors or f not in mors or h not in mors:
                raise InputError(f"composition entry ({g!r},{f!r})->{h!r} uses unknown names")

        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.mor_index = index = {m: i for i, m in enumerate(self.morphisms)}
        self._identity_names = frozenset(self.identity.values())
        self.identity_numbers = frozenset(index[m] for m in self._identity_names)
        self._post = None
        hom = {}
        by_dom = {x: [] for x in self.objects}
        by_cod = {x: [] for x in self.objects}
        for m in self.morphisms:
            hom.setdefault((self.dom[m], self.cod[m]), []).append(m)
            by_dom[self.dom[m]].append(m)
            by_cod[self.cod[m]].append(m)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._by_dom = {k: tuple(v) for k, v in by_dom.items()}
        self._by_cod = {k: tuple(v) for k, v in by_cod.items()}

    @property
    def post(self):
        """``post[g][f]`` is the number of g after f, absent where the table
        is; built on first use, as most categories never compose on numbers."""
        if self._post is None:
            index = self.mor_index
            self._post = [{} for _ in self.morphisms]
            for (g, f), h in self.table.items():
                self._post[index[g]][index[f]] = index[h]
        return self._post

    def hom(self, x, y):
        return self._hom.get((x, y), ())

    def from_object(self, x):
        return self._by_dom[x]

    def to_object(self, y):
        return self._by_cod[y]

    def is_identity(self, m) -> bool:
        return m in self._identity_names

    def composable(self, g, f) -> bool:
        return self.cod[f] == self.dom[g]

    def compose(self, g, f):
        """g after f.  Raises InputError when not composable; a missing
        table entry (a partially represented category) raises
        CompositionUnavailable."""
        if self.cod[f] != self.dom[g]:
            raise InputError(f"not composable: cod({f!r}) != dom({g!r})")
        try:
            return self.table[(g, f)]
        except KeyError:
            raise CompositionUnavailable(f"composite undefined for ({g!r}, {f!r})") from None

    def __eq__(self, other):
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.dom == other.dom
            and self.cod == other.cod
            and self.identity == other.identity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def __repr__(self):
        return f"FiniteCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    def to_json(self):
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"name": m, "dom": self.dom[m], "cod": self.cod[m]} for m in self.morphisms
            ],
            "identities": dict(self.identity),
            "compose": sorted([g, f, h] for (g, f), h in self.table.items()),
        }

    @staticmethod
    def from_json(data) -> "FiniteCategory":
        try:
            morphisms = [m["name"] for m in data["morphisms"]]
            dom = {m["name"]: m["dom"] for m in data["morphisms"]}
            cod = {m["name"]: m["cod"] for m in data["morphisms"]}
            table = {(g, f): h for g, f, h in data["compose"]}
            names = (data["objects"], morphisms, dom.values(), cod.values(),
                     data["identities"].values(), [n for entry in data["compose"] for n in entry])
            if not all(isinstance(n, str) for group in names for n in group):
                raise InputError("object and morphism names must be strings")
            return FiniteCategory(data["objects"], morphisms, dom, cod, data["identities"], table)
        except InputError:
            raise
        except MALFORMED as exc:
            raise InputError(f"malformed category JSON: {exc}") from exc


class UnionFind:
    """Disjoint sets of the numbers ``0..n-1``, on a list.  ``add`` appends
    the next number as a singleton; ``union(a, b)`` keeps the root of
    ``a``."""

    __slots__ = ("parent",)

    def __init__(self, n=0):
        self.parent = list(range(n))

    def add(self):
        """Append the next number as a singleton and return it."""
        n = len(self.parent)
        self.parent.append(n)
        return n

    def find(self, a):
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def union_all(self, a, bs):
        """``union(a, b)`` for each ``b`` in ``bs``, finding ``a``'s root once;
        a ``b`` whose parent is that root is skipped.  Each root is found
        inline, not by :meth:`find`, and every node on the climb from ``a``
        or a ``b``, ``b``'s root included, then points at ``a``'s root."""
        parent = self.parent
        ra = a
        while parent[ra] != ra:
            ra = parent[ra]
        while parent[a] != ra:
            parent[a], a = ra, parent[a]
        for b in bs:
            rb = parent[b]
            if rb == ra:
                continue
            while parent[rb] != rb:
                rb = parent[rb]
            while b != rb:
                parent[b], b = ra, parent[b]
            parent[rb] = ra

    def groups(self, items) -> dict:
        """Root -> members among ``items``, both in first-occurrence order;
        each root is found inline, compressing the path as :meth:`find`
        does."""
        parent, groups = self.parent, {}
        for a in items:
            root = parent[a]
            if parent[root] != root:
                while parent[root] != root:
                    root = parent[root]
                at = a
                while parent[at] != root:
                    parent[at], at = root, parent[at]
            groups.setdefault(root, []).append(a)
        return groups


def validate_category(c: FiniteCategory) -> list[str]:
    """All invariant violations, exhaustively (never fail-fast)."""
    report = []
    for x in c.objects:
        i = c.identity[x]
        if c.dom[i] != x or c.cod[i] != x:
            report.append(f"identity: id of {x} has dom/cod ({c.dom[i]}, {c.cod[i]})")
    for g in c.morphisms:
        for f in c.morphisms:
            defined = (g, f) in c.table
            composable = c.cod[f] == c.dom[g]
            if composable and not defined:
                report.append(f"missing composite: ({g}, {f})")
            elif defined and not composable:
                report.append(f"spurious composite: ({g}, {f})")
            elif defined:
                h = c.table[(g, f)]
                if c.dom[h] != c.dom[f] or c.cod[h] != c.cod[g]:
                    report.append(f"composite typing: ({g}, {f}) -> {h}")
    for f in c.morphisms:
        left = c.table.get((c.identity[c.cod[f]], f))
        right = c.table.get((f, c.identity[c.dom[f]]))
        if left is not None and left != f:
            report.append(f"unit: id.{f} = {left}")
        if right is not None and right != f:
            report.append(f"unit: {f}.id = {right}")
    for h in c.morphisms:
        for g in c.morphisms:
            if c.cod[g] != c.dom[h]:
                continue
            hg = c.table.get((h, g))
            if hg is None:
                continue
            for f in c.morphisms:
                if c.cod[f] != c.dom[g]:
                    continue
                gf = c.table.get((g, f))
                if gf is None:
                    continue
                left = c.table.get((h, gf))
                right = c.table.get((hg, f))
                if left is not None and right is not None and left != right:
                    report.append(f"associativity: ({h}, {g}, {f})")
    return report


def inverse(c: FiniteCategory, m) -> str | None:
    """Two-sided inverse of m, or None."""
    if m not in c.mor_index:
        raise InputError(f"unknown morphism {m!r}")
    idd, idc = c.identity[c.dom[m]], c.identity[c.cod[m]]
    for cand in c.hom(c.cod[m], c.dom[m]):
        if c.table.get((cand, m)) == idd and c.table.get((m, cand)) == idc:
            return cand
    return None


def is_isomorphism(c: FiniteCategory, m) -> bool:
    return inverse(c, m) is not None


def iso_classes(c: FiniteCategory) -> list[frozenset]:
    """Partition of objects by isomorphism, ordered by the index of each
    class's root."""
    index, objects = c.obj_index, c.objects
    uf = UnionFind(len(objects))
    for m in c.morphisms:
        if is_isomorphism(c, m):
            uf.union(index[c.dom[m]], index[c.cod[m]])
    groups = uf.groups(range(len(objects)))
    return [frozenset(objects[i] for i in groups[r]) for r in sorted(groups)]


def close_morphisms(c: FiniteCategory, mors) -> frozenset:
    """Smallest wide-subcategory morphism set containing ``mors``."""
    current = set(c._identity_names)
    current.update(mors)
    unknown = current - set(c.morphisms)
    if unknown:
        raise InputError(f"unknown morphisms: {sorted(unknown)}")
    table = c.table
    while True:
        fresh = set()
        for g in current:
            for f in current:
                if c.cod[f] == c.dom[g]:
                    h = table.get((g, f))
                    if h is not None and h not in current:
                        fresh.add(h)
        if not fresh:
            return frozenset(current)
        current |= fresh


def wide_subcategory_violations(c: FiniteCategory, mors) -> list[str]:
    report = []
    mors = set(mors)
    unknown = mors - set(c.morphisms)
    if unknown:
        report.append(f"unknown morphisms: {sorted(unknown)}")
        mors -= unknown
    for x in c.objects:
        if c.identity[x] not in mors:
            report.append(f"missing identity: {c.identity[x]}")
    for g in mors:
        for f in mors:
            if c.cod[f] == c.dom[g] and c.table.get((g, f)) not in mors:
                report.append(f"not closed: ({g}, {f})")
    return report


def restrict_to_morphisms(c: FiniteCategory, mors) -> FiniteCategory:
    """The wide subcategory on a composition-closed morphism set."""
    keep = [m for m in c.morphisms if m in set(mors)]
    table = {
        (g, f): h for (g, f), h in c.table.items() if g in set(keep) and f in set(keep)
    }
    return FiniteCategory(c.objects, keep, {m: c.dom[m] for m in keep},
                          {m: c.cod[m] for m in keep}, c.identity, table)


def subcategory_span(c: FiniteCategory, u, v) -> FiniteCategory:
    """Smallest subcategory of c containing the wide subcategories u and v."""
    for name, part in (("u", u), ("v", v)):
        bad = wide_subcategory_violations(c, part)
        if bad:
            raise InputError(f"{name} is not a wide subcategory: {bad[0]}")
    return restrict_to_morphisms(c, close_morphisms(c, set(u) | set(v)))


class CatFunctor:
    """A functor given by explicit object and morphism maps."""

    __slots__ = ("source", "target", "object_map", "morphism_map")

    def __init__(self, source, target, object_map, morphism_map):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)

    def __eq__(self, other):
        if not isinstance(other, CatFunctor):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.object_map == other.object_map
                and self.morphism_map == other.morphism_map)

    def __repr__(self):
        return f"CatFunctor({len(self.object_map)} objects, {len(self.morphism_map)} morphisms)"

    def to_json(self):
        return {"object_map": dict(self.object_map), "morphism_map": dict(self.morphism_map)}


def validate_functor(fun: CatFunctor) -> list[str]:
    report = []
    src, tgt = fun.source, fun.target
    for x in src.objects:
        if x not in fun.object_map:
            report.append(f"object not mapped: {x}")
        elif fun.object_map[x] not in tgt.obj_index:
            report.append(f"object image unknown: {x} -> {fun.object_map[x]}")
    for m in src.morphisms:
        if m not in fun.morphism_map:
            report.append(f"morphism not mapped: {m}")
            continue
        fm = fun.morphism_map[m]
        if fm not in tgt.mor_index:
            report.append(f"morphism image unknown: {m} -> {fm}")
            continue
        if tgt.dom[fm] != fun.object_map.get(src.dom[m]) or tgt.cod[fm] != fun.object_map.get(src.cod[m]):
            report.append(f"typing not preserved: {m}")
    if report:
        return report
    for x in src.objects:
        if fun.morphism_map[src.identity[x]] != tgt.identity[fun.object_map[x]]:
            report.append(f"identity not preserved: {x}")
    for (g, f), h in src.table.items():
        img = tgt.table.get((fun.morphism_map[g], fun.morphism_map[f]))
        if img != fun.morphism_map[h]:
            report.append(f"composition not preserved: ({g}, {f})")
    return report


@dataclass
class SearchOutcome:
    """Result of a bounded search: found / exhausted / budget ran out,
    with the equivalence found and the search-tree nodes tried."""

    status: str  # "found" | "none" | "undetermined"
    functor: CatFunctor | None = None
    nodes: int = 0

    @property
    def found(self):
        return self.status == "found"


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


def _is_fully_faithful(fun: CatFunctor) -> bool:
    src, tgt = fun.source, fun.target
    for x in src.objects:
        for y in src.objects:
            image = [fun.morphism_map[m] for m in src.hom(x, y)]
            cell = tgt.hom(fun.object_map[x], fun.object_map[y])
            if len(set(image)) != len(image) or len(image) != len(cell):
                return False
    return True


def equivalence_from_functor(fun: CatFunctor) -> dict | None:
    """The object map of a quasi-inverse of ``fun``, target object to
    source object, when ``fun`` is an equivalence (fully faithful and
    essentially surjective); else None.  A target object in the image
    goes to its first preimage, any other to the first source object
    whose image is isomorphic to it.  Raises InputError when ``fun`` is
    not a functor."""
    if validate_functor(fun):
        raise InputError("not a functor")
    if not _is_fully_faithful(fun):
        return None
    src, tgt = fun.source, fun.target
    image = {}
    for x in src.objects:
        image.setdefault(fun.object_map[x], x)
    backward = {}
    for b in tgt.objects:
        x = image.get(b)
        if x is None:
            x = next((x for x in src.objects
                      if any(is_isomorphism(tgt, t) for t in tgt.hom(fun.object_map[x], b))),
                     None)
            if x is None:
                return None
        backward[b] = x
    return backward


def find_equivalence(c1: FiniteCategory, c2: FiniteCategory, budget: int = 1_000_000) -> SearchOutcome:
    """Backtracking search for an equivalence c1 -> c2.

    Object maps are tried with hom-cardinality pruning; morphism maps are
    filled per hom-set with forced propagation through the composition
    table.  ``budget`` counts tried assignments (search-tree nodes).
    On "none" the whole space was exhausted, so no equivalence exists;
    on "found" the outcome holds the equivalence as its ``functor``.
    """
    tracker = _Budget(budget)
    classes2 = iso_classes(c2)

    def hom_sizes_ok(omap, x, fx):
        pairs = [(x, x)] + [(x, y) for y in omap if y != x] + [(y, x) for y in omap if y != x]
        for a, b in pairs:
            ia = omap[a] if a in omap else fx
            ib = omap[b] if b in omap else fx
            if len(c1.hom(a, b)) != len(c2.hom(ia, ib)):
                return False
        return True

    def candidates_for(x):
        ix = c1.obj_index[x]
        return sorted(c2.objects, key=lambda y: (abs(c2.obj_index[y] - ix), c2.obj_index[y]))

    def search_morphisms(omap):
        mmap = {}
        used = {}  # (x, y) -> set of used targets in that source cell

        def undo(done):
            for dd in done:
                cell = (c1.dom[dd], c1.cod[dd])
                used[cell].discard(mmap[dd])
                del mmap[dd]

        def forced(m, val):
            """Assign with propagation; returns rollback list or None on clash."""
            stack = [(m, val)]
            done = []
            while stack:
                mm, vv = stack.pop()
                if mm in mmap:
                    if mmap[mm] != vv:
                        undo(done)
                        return None
                    continue
                cell = (c1.dom[mm], c1.cod[mm])
                if c2.dom[vv] != omap[cell[0]] or c2.cod[vv] != omap[cell[1]] \
                        or vv in used.setdefault(cell, set()):
                    undo(done)
                    return None
                mmap[mm] = vv
                used[cell].add(vv)
                done.append(mm)
                for n, nv in list(mmap.items()):
                    for a, b, av, bv in ((mm, n, vv, nv), (n, mm, nv, vv)):
                        if c1.cod[b] == c1.dom[a]:
                            comp = c1.table[(a, b)]
                            tcomp = c2.table.get((av, bv))
                            if tcomp is None:
                                undo(done)
                                return None
                            stack.append((comp, tcomp))
            return done

        seed = []
        for x in c1.objects:
            got = forced(c1.identity[x], c2.identity[omap[x]])
            if got is None:
                return None
            seed.extend(got)

        order = [m for m in c1.morphisms if m not in mmap]

        def assign(k):
            while k < len(order) and order[k] in mmap:
                k += 1
            if k == len(order):
                fun = CatFunctor(c1, c2, dict(omap), dict(mmap))
                if not validate_functor(fun) and _is_fully_faithful(fun):
                    return fun
                return None
            m = order[k]
            x, y = c1.dom[m], c1.cod[m]
            im = c1.mor_index[m]
            cands = sorted(
                c2.hom(omap[x], omap[y]),
                key=lambda t: (abs(c2.mor_index[t] - im), c2.mor_index[t]),
            )
            for t in cands:
                if not tracker.spend():
                    raise _OutOfBudget
                got = forced(m, t)
                if got is None:
                    continue
                res = assign(k + 1)
                if res is not None:
                    return res
                undo(got)
            return None

        result = assign(0)
        if result is None:
            undo(seed)
        return result

    def search_objects(k, omap):
        if k == len(c1.objects):
            hit = set(omap.values())
            if not all(cls & hit for cls in classes2):
                return None
            return search_morphisms(omap)
        x = c1.objects[k]
        for y in candidates_for(x):
            if not tracker.spend():
                raise _OutOfBudget
            omap[x] = y
            if hom_sizes_ok(omap, x, y):
                res = search_objects(k + 1, omap)
                if res is not None:
                    return res
            del omap[x]
        return None

    try:
        fun = search_objects(0, {})
    except _OutOfBudget:
        return SearchOutcome("undetermined", nodes=tracker.used)
    if fun is None:
        return SearchOutcome("none", nodes=tracker.used)
    return SearchOutcome("found", fun, tracker.used)


class _OutOfBudget(Exception):
    pass


def disjoint_union(c1: FiniteCategory, c2: FiniteCategory, p1="L.", p2="R.") -> FiniteCategory:
    """Coproduct, with object/morphism names prefixed to stay unique."""
    objects = [p1 + x for x in c1.objects] + [p2 + x for x in c2.objects]
    morphisms = [p1 + m for m in c1.morphisms] + [p2 + m for m in c2.morphisms]
    dom = {p1 + m: p1 + c1.dom[m] for m in c1.morphisms}
    dom.update({p2 + m: p2 + c2.dom[m] for m in c2.morphisms})
    cod = {p1 + m: p1 + c1.cod[m] for m in c1.morphisms}
    cod.update({p2 + m: p2 + c2.cod[m] for m in c2.morphisms})
    identity = {p1 + x: p1 + c1.identity[x] for x in c1.objects}
    identity.update({p2 + x: p2 + c2.identity[x] for x in c2.objects})
    table = {(p1 + g, p1 + f): p1 + h for (g, f), h in c1.table.items()}
    table.update({(p2 + g, p2 + f): p2 + h for (g, f), h in c2.table.items()})
    return FiniteCategory(objects, morphisms, dom, cod, identity, table)
