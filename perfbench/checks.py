"""Output checks, made apart from the code the benchmark times.

Three kinds of reference are used, never a stored copy of an output:

* the word oracle (``oracle-ho``): by Dwyer-Kan, Calculating simplicial
  localizations (1980), pi0 of the hammock localization is C[W^-1], which
  the oracle computes by rewriting zigzag words, without hammocks;
* verdicts that the claims fix (Theorems 3.1, 3.2, 2.4);
* laws and counts computed here from the output JSON alone: category
  laws, the simplicial identities, unit, associativity and face laws of
  a composition table, composable-pair counts and components.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from collections import defaultdict

EXIT = {"pass": 0, "fail": 1, "inapplicable": 2, "undetermined": 3}


# --- categories --------------------------------------------------------------


def category_laws(cat) -> list:
    """Typing, totality, unit and associativity of a category JSON."""
    problems = []
    dom = {m["name"]: m["dom"] for m in cat["morphisms"]}
    cod = {m["name"]: m["cod"] for m in cat["morphisms"]}
    table = {}
    for g, f, h in cat["compose"]:
        if (g, f) in table:
            problems.append(f"composite ({g},{f}) listed twice")
        table[(g, f)] = h
        if cod.get(f) != dom.get(g) or dom.get(h) != dom.get(f) or cod.get(h) != cod.get(g):
            problems.append(f"composite ({g},{f}) -> {h} is mistyped")
    for x, i in cat["identities"].items():
        if dom.get(i) != x or cod.get(i) != x:
            problems.append(f"identity of {x} is mistyped")
    for f in dom:
        if table.get((cat["identities"][cod[f]], f)) != f or \
                table.get((f, cat["identities"][dom[f]])) != f:
            problems.append(f"unit law fails at {f}")
    into = defaultdict(list)
    for f in dom:
        into[cod[f]].append(f)
    for g in dom:
        for f in into[dom[g]]:
            if (g, f) not in table:
                problems.append(f"composite ({g},{f}) missing")
    for (g, f), gf in table.items():
        for h in dom:
            if dom[h] == cod[g]:
                left, right = table.get((h, gf)), table.get((table.get((h, g)), f))
                if left is None or left != right:
                    problems.append(f"associativity fails at ({h},{g},{f})")
    return problems


def _hom_counts(cat):
    counts = defaultdict(int)
    for m in cat["morphisms"]:
        counts[(m["dom"], m["cod"])] += 1
    return counts


def ho_matches_oracle(ho, oracle, generators) -> list:
    """Per-pair component counts and class membership of ``ho`` against
    the ``oracle-ho`` output, wherever the oracle is determined.

    ``generators`` pairs each morphism of C (a one-letter forward word) and
    each weak equivalence read backwards (a one-letter backward word) with
    its class in ``ho``; identities pair with the empty word.  Membership
    agrees when these pairs, closed under composition, give a bijection
    on every hom-set that carries the composition of ``ho`` to that of
    the oracle's category.
    """
    if not oracle["determined"]:
        return []
    problems = []
    word_class = {}
    oracle_counts = {}
    for key, classes in oracle["classes"].items():
        x, y = key.split("|")
        oracle_counts[(x, y)] = len(classes)
        for k, words in enumerate(classes):
            for w in words:
                word_class[(x, y, w)] = f"{x}->{y}#{k}"
    ho_counts = _hom_counts(ho)
    for pair in set(ho_counts) | set(oracle_counts):
        if ho_counts.get(pair, 0) != oracle_counts.get(pair, 0):
            problems.append(f"pair {pair}: {ho_counts.get(pair, 0)} components, "
                            f"oracle has {oracle_counts.get(pair, 0)} classes")
    ends = {m["name"]: (m["dom"], m["cod"]) for m in ho["morphisms"]}
    phi = {}
    for ho_name, word in generators:
        if ho_name not in ends:
            problems.append(f"class {ho_name} missing")
            continue
        target = word_class.get(ends[ho_name] + (word,))
        if target is None:
            problems.append(f"word {word!r} not in any oracle class")
        elif phi.setdefault(ho_name, target) != target:
            problems.append(f"class {ho_name} holds words of two oracle classes")
    oracle_table = {(g, f): h for g, f, h in oracle["category"]["compose"]}
    changed = True
    while changed:
        changed = False
        for g, f, h in ho["compose"]:
            if g in phi and f in phi:
                target = oracle_table.get((phi[g], phi[f]))
                if h not in phi:
                    phi[h] = target
                    changed = True
                elif phi[h] != target:
                    problems.append(f"composite {g}.{f} = {h} maps to {phi[h]}, "
                                    f"oracle composes to {target}")
                    return problems
    names = [m["name"] for m in ho["morphisms"]]
    missing = [m for m in names if m not in phi]
    if missing:
        problems.append(f"classes {missing[:3]} not reached from generators")
    if len(set(phi.values())) != len(phi):
        problems.append("two classes map to one oracle class")
    return problems


def invertible(cat, name) -> bool:
    """Whether ``name`` has a two-sided inverse in a category JSON."""
    dom = {m["name"]: m["dom"] for m in cat["morphisms"]}
    cod = {m["name"]: m["cod"] for m in cat["morphisms"]}
    table = {(g, f): h for g, f, h in cat["compose"]}
    ident = cat["identities"]
    return any(
        dom[g] == cod[name] and cod[g] == dom[name]
        and table.get((g, name)) == ident[dom[name]]
        and table.get((name, g)) == ident[cod[name]]
        for g in dom
    )


# --- localizations -------------------------------------------------------------


def _sset_identities(key, hom, n_max) -> list:
    problems = []
    levels = [set(level) for level in hom["levels"]]
    faces = {int(k): v for k, v in hom["faces"].items()}
    degens = {int(k): v for k, v in hom["degeneracies"].items()}
    for k in range(1, n_max + 1):
        for s in hom["levels"][k]:
            if len(faces[k][s]) != k + 1 or not all(d in levels[k - 1] for d in faces[k][s]):
                problems.append(f"{key}: faces of {s} mistyped")
    for k in range(n_max):
        for s in hom["levels"][k]:
            if len(degens[k][s]) != k + 1 or not all(d in levels[k + 1] for d in degens[k][s]):
                problems.append(f"{key}: degeneracies of {s} mistyped")
    if problems:
        return problems
    for k in range(2, n_max + 1):
        for s in hom["levels"][k]:
            for j in range(k + 1):
                for i in range(j):
                    if faces[k - 1][faces[k][s][j]][i] != faces[k - 1][faces[k][s][i]][j - 1]:
                        problems.append(f"{key}: d{i} d{j} != d{j - 1} d{i} at {s}")
    for k in range(n_max):
        for s in hom["levels"][k]:
            for j in range(k + 1):
                sj = degens[k][s][j]
                for i in range(k + 2):
                    got = faces[k + 1][sj][i]
                    if i in (j, j + 1):
                        want = s
                    elif i < j:
                        want = degens[k - 1][faces[k][s][i]][j - 1]
                    else:
                        want = degens[k - 1][faces[k][s][i - 1]][j]
                    if got != want:
                        problems.append(f"{key}: d{i} s{j} wrong at {s}")
                if k + 2 <= n_max:
                    for i in range(j + 1):
                        if degens[k + 1][sj][i] != degens[k + 1][degens[k][s][i]][j + 1]:
                            problems.append(f"{key}: s{i} s{j} != s{j + 1} s{i} at {s}")
    return problems


def _tables(loc):
    tables = defaultdict(dict)
    for key, per_level in loc["compose"].items():
        x, y, z = key.split("|")
        for n, entries in per_level.items():
            table = tables[(x, y, z, int(n))]
            for g, f, h in entries:
                table[(g, f)] = h
    return tables


def composable_pairs(loc) -> int:
    """Number of composable simplex pairs: what a full composition table
    would list."""
    homs = loc["homs"]
    total = 0
    for x in loc["objects"]:
        for y in loc["objects"]:
            for z in loc["objects"]:
                for n in range(loc["truncation"] + 1):
                    total += (len(homs[f"{y}|{z}"]["levels"][n])
                              * len(homs[f"{x}|{y}"]["levels"][n]))
    return total


def localize_laws(loc) -> list:
    """The simplicial identities on every hom; the unit law; associativity,
    face and degeneracy compatibility wherever all composites involved
    are listed; listed composites plus overflows equal composable pairs."""
    problems = []
    N = loc["truncation"]
    homs = loc["homs"]
    for key, hom in sorted(homs.items()):
        problems += _sset_identities(key, hom, N)
        if hom["verdict"] != "stable":
            problems.append(f"{key}: verdict {hom['verdict']}")
    if problems:
        return problems
    objects = loc["objects"]
    level = {(key, n): set(hom["levels"][n]) for key, hom in homs.items() for n in range(N + 1)}
    tables = _tables(loc)
    listed = 0
    for (x, y, z, n), table in tables.items():
        listed += len(table)
        for (g, f), h in table.items():
            if not (g in level[(f"{y}|{z}", n)] and f in level[(f"{x}|{y}", n)]
                    and h in level[(f"{x}|{z}", n)]):
                problems.append(f"composite {x}|{y}|{z} level {n} mistyped")
    if listed + loc["bounds"]["overflows"] != composable_pairs(loc):
        problems.append(f"{listed} composites + {loc['bounds']['overflows']} overflows "
                        f"!= {composable_pairs(loc)} composable pairs")

    def identity(x, n):
        name = loc["identities"][x]
        for k in range(n):
            name = homs[f"{x}|{x}"]["degeneracies"][str(k)][name][0]
        return name

    for x in objects:
        for y in objects:
            for n in range(N + 1):
                for f in homs[f"{x}|{y}"]["levels"][n]:
                    if tables[(x, y, y, n)].get((identity(y, n), f)) != f or \
                            tables[(x, x, y, n)].get((f, identity(x, n))) != f:
                        problems.append(f"unit law fails at {f} level {n}")
    for (x, y, z, n), t1 in list(tables.items()):
        for w in objects:
            t2, t3, t4 = tables[(y, z, w, n)], tables[(x, z, w, n)], tables[(x, y, w, n)]
            after = defaultdict(list)
            for (h, g), hg in t2.items():
                after[g].append((h, hg))
            for (g, f), gf in t1.items():
                for h, hg in after[g]:
                    left, right = t3.get((h, gf)), t4.get((hg, f))
                    if left is not None and right is not None and left != right:
                        problems.append(f"associativity fails at level {n} "
                                        f"over {x}|{y}|{z}|{w}")
        for maps, letter, other in (("faces", "d", n - 1), ("degeneracies", "s", n + 1)):
            if not 0 <= other <= N:
                continue
            image = tables[(x, y, z, other)]
            for (g, f), h in t1.items():
                for i, (mg, mf, mh) in enumerate(zip(homs[f"{y}|{z}"][maps][str(n)][g],
                                                     homs[f"{x}|{y}"][maps][str(n)][f],
                                                     homs[f"{x}|{z}"][maps][str(n)][h])):
                    got = image.get((mg, mf))
                    if got is not None and got != mh:
                        problems.append(f"{letter}{i}(g.f) != {letter}{i}g.{letter}{i}f "
                                        f"at level {n}")
    return problems


def components(loc) -> dict:
    """Components of every hom, by union-find over the faces of its
    1-simplices: pair -> count."""
    counts = {}
    for key, hom in loc["homs"].items():
        parent = {v: v for v in hom["levels"][0]}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for d0, d1 in hom["faces"]["1"].values():
            parent[find(d0)] = find(d1)
        x, y = key.split("|")
        counts[(x, y)] = sum(1 for v in parent if find(v) == v)
    return counts


def components_match(loc, ho, oracle) -> list:
    """Components counted here against ``ho`` hom-set sizes and, where
    determined, the oracle's class counts."""
    problems = []
    mine = components(loc)
    ho_counts = _hom_counts(ho)
    for pair, count in sorted(mine.items()):
        if ho_counts.get(pair, 0) != count:
            problems.append(f"pair {pair}: {count} components, ho has {ho_counts.get(pair, 0)}")
        if oracle["determined"] and len(oracle["classes"][f"{pair[0]}|{pair[1]}"]) != count:
            problems.append(f"pair {pair}: {count} components, oracle disagrees")
    return problems


# --- claim reports ---------------------------------------------------------------


def _results(report):
    return {o["check"]: o["result"] for o in report["outcomes"]}


def exit_code(report, code) -> list:
    want = EXIT.get(report.get("verdict"))
    return [] if want == code else [f"exit {code} for verdict {report.get('verdict')}"]


def roundtrip_report(report, code) -> list:
    """Theorem 3.1 never fails; with every stage stable and both searches
    determined the verdict is pass."""
    problems = exit_code(report, code)
    results = _results(report)
    searches = [results.get("Ho(input) ~ Ho(middle)"), results.get("Ho(flattening) ~ Ho(middle)")]
    if report["verdict"] == "fail" or "none" in searches:
        problems.append("roundtrip refuted: Theorem 3.1 says it cannot be")
    if results.get("unit functor valid") != "yes":
        problems.append("the unit is not a relative functor")
    stable = all(v == "stable" for k, v in results.items() if "stability" in k)
    if stable and searches == ["found", "found"] and report["verdict"] != "pass":
        problems.append(f"all stages stable and found, verdict {report['verdict']}")
    return problems


def claim_report(report, code, verdict, expected) -> list:
    """The verdict a theorem fixes, and the stage results it implies."""
    problems = exit_code(report, code)
    if report["verdict"] != verdict:
        problems.append(f"verdict {report['verdict']}, expected {verdict}")
    results = _results(report)
    for check, result in expected.items():
        if results.get(check) != result:
            problems.append(f"{check}: {results.get(check)}, expected {result}")
    return problems
