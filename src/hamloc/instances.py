"""Small stock categories and generators used by tests and demos."""

from __future__ import annotations

import random

from .fincat import FiniteCategory
from .relcat import RelativeCategory


def terminal() -> FiniteCategory:
    return FiniteCategory(["*"], ["id*"], {"id*": "*"}, {"id*": "*"}, {"*": "id*"},
                          {("id*", "id*"): "id*"})


def terminal_relative() -> RelativeCategory:
    return RelativeCategory(terminal(), ["id*"])


def discrete(n: int) -> FiniteCategory:
    objects = [f"X{i}" for i in range(n)]
    morphisms = [f"id{o}" for o in objects]
    return FiniteCategory(
        objects, morphisms,
        {f"id{o}": o for o in objects}, {f"id{o}": o for o in objects},
        {o: f"id{o}" for o in objects},
        {(f"id{o}", f"id{o}"): f"id{o}" for o in objects},
    )


def walking_arrow() -> FiniteCategory:
    dom = {"idX": "X", "idY": "Y", "f": "X"}
    cod = {"idX": "X", "idY": "Y", "f": "Y"}
    table = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("f", "idX"): "f", ("idY", "f"): "f",
    }
    return FiniteCategory(["X", "Y"], ["idX", "idY", "f"], dom, cod,
                          {"X": "idX", "Y": "idY"}, table)


def walking_arrow_relative() -> RelativeCategory:
    return RelativeCategory(walking_arrow(), ["idX", "idY"])


def walking_iso() -> FiniteCategory:
    dom = {"idX": "X", "idY": "Y", "u": "X", "v": "Y"}
    cod = {"idX": "X", "idY": "Y", "u": "Y", "v": "X"}
    table = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("u", "idX"): "u", ("idY", "u"): "u",
        ("v", "idY"): "v", ("idX", "v"): "v",
        ("v", "u"): "idX", ("u", "v"): "idY",
    }
    return FiniteCategory(["X", "Y"], ["idX", "idY", "u", "v"], dom, cod,
                          {"X": "idX", "Y": "idY"}, table)


def walking_weq() -> RelativeCategory:
    """One non-identity arrow w : X -> Y, marked as a weak equivalence."""
    dom = {"idX": "X", "idY": "Y", "w": "X"}
    cod = {"idX": "X", "idY": "Y", "w": "Y"}
    table = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("w", "idX"): "w", ("idY", "w"): "w",
    }
    cat = FiniteCategory(["X", "Y"], ["idX", "idY", "w"], dom, cod,
                         {"X": "idX", "Y": "idY"}, table)
    return RelativeCategory(cat, ["idX", "idY", "w"])


def chain3() -> FiniteCategory:
    """X -> Y -> Z with the composite filled in."""
    objects = ["X", "Y", "Z"]
    morphisms = ["idX", "idY", "idZ", "f", "g", "gf"]
    dom = {"idX": "X", "idY": "Y", "idZ": "Z", "f": "X", "g": "Y", "gf": "X"}
    cod = {"idX": "X", "idY": "Y", "idZ": "Z", "f": "Y", "g": "Z", "gf": "Z"}
    table = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY", ("idZ", "idZ"): "idZ",
        ("f", "idX"): "f", ("idY", "f"): "f",
        ("g", "idY"): "g", ("idZ", "g"): "g",
        ("gf", "idX"): "gf", ("idZ", "gf"): "gf",
        ("g", "f"): "gf",
    }
    return FiniteCategory(objects, morphisms, dom, cod,
                          {"X": "idX", "Y": "idY", "Z": "idZ"}, table)


def chain_weq() -> RelativeCategory:
    """The chain with every arrow a weak equivalence (composite included)."""
    return RelativeCategory(chain3(), ["idX", "idY", "idZ", "f", "g", "gf"])


def chain_head_weq() -> RelativeCategory:
    """Chain with only g : Y -> Z inverted."""
    return RelativeCategory(chain3(), ["idX", "idY", "idZ", "g"])


def span() -> FiniteCategory:
    """X <- S -> Y."""
    objects = ["S", "X", "Y"]
    morphisms = ["idS", "idX", "idY", "p", "q"]
    dom = {"idS": "S", "idX": "X", "idY": "Y", "p": "S", "q": "S"}
    cod = {"idS": "S", "idX": "X", "idY": "Y", "p": "X", "q": "Y"}
    table = {
        ("idS", "idS"): "idS", ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("p", "idS"): "p", ("idX", "p"): "p",
        ("q", "idS"): "q", ("idY", "q"): "q",
    }
    return FiniteCategory(objects, morphisms, dom, cod,
                          {"S": "idS", "X": "idX", "Y": "idY"}, table)


def span_one_leg_inverted() -> RelativeCategory:
    return RelativeCategory(span(), ["idS", "idX", "idY", "p"])


def group_z2() -> FiniteCategory:
    """One object, one involution t with t.t = id."""
    return FiniteCategory(
        ["*"], ["e", "t"], {"e": "*", "t": "*"}, {"e": "*", "t": "*"}, {"*": "e"},
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
    )


def group_z2_relative() -> RelativeCategory:
    return RelativeCategory(group_z2(), ["e", "t"])


def parallel_pair() -> FiniteCategory:
    """Two parallel arrows X => Y."""
    dom = {"idX": "X", "idY": "Y", "a": "X", "b": "X"}
    cod = {"idX": "X", "idY": "Y", "a": "Y", "b": "Y"}
    table = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("a", "idX"): "a", ("idY", "a"): "a",
        ("b", "idX"): "b", ("idY", "b"): "b",
    }
    return FiniteCategory(["X", "Y"], ["idX", "idY", "a", "b"], dom, cod,
                          {"X": "idX", "Y": "idY"}, table)


def retract_weq() -> RelativeCategory:
    """A retraction r.s = id with the section s inverted."""
    objects = ["A", "B"]
    morphisms = ["idA", "idB", "s", "r", "e"]
    dom = {"idA": "A", "idB": "B", "s": "A", "r": "B", "e": "B"}
    cod = {"idA": "A", "idB": "B", "s": "B", "r": "A", "e": "B"}
    table = {
        ("idA", "idA"): "idA", ("idB", "idB"): "idB",
        ("s", "idA"): "s", ("idB", "s"): "s",
        ("r", "idB"): "r", ("idA", "r"): "r",
        ("e", "idB"): "e", ("idB", "e"): "e",
        ("r", "s"): "idA", ("s", "r"): "e",
        ("e", "s"): "s", ("r", "e"): "r", ("e", "e"): "e",
    }
    cat = FiniteCategory(objects, morphisms, dom, cod, {"A": "idA", "B": "idB"}, table)
    return RelativeCategory(cat, ["idA", "idB", "s"])


def poset_square() -> FiniteCategory:
    """Commuting square poset: bottom -> left/right -> top."""
    objects = ["00", "01", "10", "11"]
    arrows = {
        ("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"), ("00", "11"),
    }
    morphisms = [f"id{o}" for o in objects] + [f"{a}<{b}" for a, b in sorted(arrows)]
    dom, cod = {}, {}
    for o in objects:
        dom[f"id{o}"] = cod[f"id{o}"] = o
    for a, b in arrows:
        dom[f"{a}<{b}"] = a
        cod[f"{a}<{b}"] = b

    def arrow(a, b):
        return f"id{a}" if a == b else f"{a}<{b}"

    table = {}
    for g in morphisms:
        for f in morphisms:
            if cod[f] == dom[g]:
                table[(g, f)] = arrow(dom[f], cod[g])
    return FiniteCategory(objects, morphisms, dom, cod,
                          {o: f"id{o}" for o in objects}, table)


def free_category_on_dag(objects, edges) -> FiniteCategory:
    """Path category of an acyclic graph: morphisms are paths, composition
    is concatenation (hence associative by construction)."""
    paths = {o: [()] for o in objects}
    frontier = [(o, ()) for o in objects]
    while frontier:
        start, path = frontier.pop()
        at = path[-1][2] if path else start
        for name, src, dst in edges:
            if src == at:
                longer = path + ((name, src, dst),)
                paths[start].append(longer)
                frontier.append((start, longer))

    def path_name(start, path):
        if not path:
            return f"id{start}"
        return ".".join(step[0] for step in path)

    morphisms, dom, cod = [], {}, {}
    named = {}
    for start in objects:
        for path in paths[start]:
            name = path_name(start, path)
            end = path[-1][2] if path else start
            morphisms.append(name)
            dom[name] = start
            cod[name] = end
            named[(start, path)] = name
    table = {}
    for start in objects:
        for path in paths[start]:
            end = path[-1][2] if path else start
            for path2 in paths[end]:
                g = named[(end, path2)]
                f = named[(start, path)]
                table[(g, f)] = named[(start, path + path2)]
    return FiniteCategory(objects, morphisms, dom, cod,
                          {o: f"id{o}" for o in objects}, table)


def random_dag_category(rng: random.Random, max_objects=4, max_nonid=12) -> FiniteCategory:
    """A random valid finite category (free on a random small DAG)."""
    while True:
        n = rng.randint(1, max_objects)
        objects = [f"X{i}" for i in range(n)]
        edges = []
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                for _ in range(rng.randint(0, 2)):
                    edges.append((f"e{k}", f"X{i}", f"X{j}"))
                    k += 1
        cat = free_category_on_dag(objects, edges)
        if len(cat.morphisms) - len(cat.objects) <= max_nonid:
            return cat


def z2_nerve_scat(truncation: int = 2):
    """One object whose hom is the nerve of the two-element group, with
    levelwise pointwise products (the group is abelian, so this is a
    simplicial monoid)."""
    from .scat import TruncatedSimplicialCategory
    from .simplicial import nerve

    g = group_z2()
    hom = nerve(g, truncation)

    def entries(name):
        return tuple(name.split("|")) if name != "*" else ()

    def joined(parts, level):
        if level == 0:
            return "*"
        return "|".join(parts)

    table = {}
    for level in range(truncation + 1):
        names, number = hom.levels[level], hom.number[level]
        for a, name_a in enumerate(names):
            for b, name_b in enumerate(names):
                pa, pb = entries(name_a), entries(name_b)
                prod = tuple(g.compose(x, y) for x, y in zip(pa, pb))
                table[("o", "o", "o", level, a, b)] = number[joined(prod, level)]
    return TruncatedSimplicialCategory(
        ["o"], truncation, {("o", "o"): hom}, {"o": hom.number[0]["*"]}, table
    )


def discrete_localization_suite(seed=20240903, count=10):
    """Categories paired with identity-only weq sets."""
    rng = random.Random(seed)
    cats = [walking_arrow(), chain3(), poset_square(), parallel_pair()]
    while len(cats) < count:
        cats.append(random_dag_category(rng))
    return [RelativeCategory(c, c.identity.values()) for c in cats[:count]]


def random_hammock(rng: random.Random, r: RelativeCategory, w_max=5, h_max=2):
    """A random valid hammock over ``r``: an arbitrary direction tuple,
    a random typed first row (identities allowed), then random vertical
    extensions.  Not reduced in general."""
    from .hammock import Hammock, _Context, _mapped

    ctx = _Context(r)
    c = r.cat
    x = rng.choice(c.objects)
    target_width = rng.randint(0, w_max)
    directions = []
    row = []
    at = x
    for _ in range(target_width):
        forward = rng.random() < 0.6
        if forward:
            candidates = ctx.from_any[at]
        else:
            candidates = ctx.weq_into[at]
        if not candidates:
            break
        m = rng.choice(candidates)
        directions.append("f" if forward else "b")
        row.append(m)
        at = ctx.cod[m] if forward else ctx.dom[m]
    directions = tuple(directions)
    rows = [tuple(row)]
    layers = []
    height = rng.randint(0, h_max)
    for _ in range(height):
        options = ctx.extensions(directions, rows[-1], x, 0)
        if not options:
            break
        vacc, nxt = rng.choice(options)
        layers.append(vacc)
        rows.append(nxt)
    sink = at if directions else x
    return Hammock(x, sink, directions, _mapped(c.morphisms, rows), _mapped(c.morphisms, layers))


def oracle_suite():
    """Relative categories with genuinely interesting localizations."""
    iso = walking_iso()
    return [
        ("terminal", terminal_relative()),
        ("walking-arrow-ids", walking_arrow_relative()),
        ("walking-weq", walking_weq()),
        ("span-one-leg", span_one_leg_inverted()),
        ("chain-weq", chain_weq()),
        ("chain-head-weq", chain_head_weq()),
        ("retract", retract_weq()),
        ("z2-groupoid", group_z2_relative()),
        ("walking-iso-one-arrow", RelativeCategory(iso, ["idX", "idY", "u"])),
        ("parallel-ids", RelativeCategory(parallel_pair(), ["idX", "idY"])),
    ]
