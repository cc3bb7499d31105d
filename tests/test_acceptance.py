"""Acceptance suite: one criterion per test, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import random
import time
from math import comb

import pytest

from hamloc import instances as inst
from hamloc.cli import run
from hamloc.fincat import find_equivalence, is_isomorphism, validate_category
from hamloc.flatten import flatten
from hamloc.hammock import (
    embed_morphism,
    hammock_localization,
    homotopy_category_of_localization,
    mapping_space,
    reduce_hammock,
)
from hamloc.jsonio import canonical_dumps, write_canonical
from hamloc.relcat import oracle_localized_homset, validate_relative
from hamloc.scat import promote, validate_scat
from hamloc.simplicial import homology, nerve, pi0, validate_sset
from hamloc.verify import Bounds, check_24ii, check_roundtrip
from helpers import random_hammock, validate_hammock, vertex_hammocks
from oracles import neglectable_instances, reference_reduce_hammock


def _report(number, description, elapsed):
    print(f"criterion {number} PASS ({description}) [{elapsed:.1f}s]")


def test_criterion_1_discrete_localization_law():
    """Identity-only weak equivalences localize to discrete mapping
    spaces in bijection with the hom-sets."""
    start = time.monotonic()
    suite = inst.discrete_localization_suite(count=10)
    assert len(suite) >= 10
    for r in suite:
        assert len(r.cat.objects) <= 4
        assert len(r.cat.morphisms) - len(r.cat.objects) <= 12
        loc = hammock_localization(r, 2, 3)
        assert loc.verdict == "stable"
        for x in r.cat.objects:
            for y in r.cat.objects:
                ms = loc.pair(x, y)
                assert len(ms.vertices) == len(r.cat.hom(x, y))
                assert len(ms.partition.classes) == len(r.cat.hom(x, y))
                for level in (1, 2):
                    assert ms.sset.nondegenerate(level) == ()
        assert loc.overflows == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, "discrete localization law on 10 generated categories", elapsed)


def test_criterion_2_oracle_agreement():
    """Components of every stable mapping space match the word-rewriting
    oracle wherever it is determined at word length 8."""
    start = time.monotonic()
    suite = inst.oracle_suite()
    assert len(suite) >= 8
    names = [name for name, _ in suite]
    assert "walking-weq" in names and "span-one-leg" in names and "chain-weq" in names
    checked = 0
    for name, r in suite:
        loc = hammock_localization(r, 1, 4)
        for x in r.cat.objects:
            for y in r.cat.objects:
                ms = loc.pair(x, y)
                hs = oracle_localized_homset(r, x, y, 8)
                if ms.verdict != "stable" or not hs.determined:
                    continue
                checked += 1
                assert len(ms.partition.classes) == hs.class_count(), (name, x, y)
                index_of = {}
                for vertex, h in enumerate(vertex_hammocks(r, ms)):
                    word = tuple(zip(h.directions, h.rows[0]))
                    oracle_class = hs.class_index(word)
                    assert oracle_class is not None, (name, x, y, h.name)
                    mine = ms.partition.class_of[vertex]
                    assert index_of.setdefault(mine, oracle_class) == oracle_class
                assert len(set(index_of.values())) == len(index_of)
    assert checked >= 30
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(2, f"oracle agreement on {checked} stable determined hom-sets", elapsed)


def test_criterion_3_localization_inverts_weq():
    """Every weak equivalence becomes invertible in the component
    category of the localization."""
    start = time.monotonic()
    for name, r in inst.oracle_suite():
        loc = hammock_localization(r, 1, 4)
        if loc.verdict != "stable":
            continue
        ho, classmap = homotopy_category_of_localization(loc)
        for w in sorted(r.weq):
            image = embed_morphism(r, w)
            cls = classmap[(r.cat.dom[w], r.cat.cod[w], image.name)]
            assert is_isomorphism(ho, cls), (name, w)
    _report(3, "weak equivalences invert in the component category",
            time.monotonic() - start)


def test_criterion_4_flattening_count_law():
    """|hom((A1,n1),(A2,n2))| = C(n1+n2+1, n2+1) * |hom(A1,A2)_{n2}|,
    exhaustively, and the flattenings validate cleanly."""
    start = time.monotonic()
    inputs = [
        promote(inst.walking_arrow(), 2),
        promote(inst.chain3(), 1),
        inst.z2_nerve_scat(2),
        promote(inst.walking_iso(), 2),
    ]
    assert len(inputs) >= 3
    for a in inputs:
        fl = flatten(a)
        cat = fl.rel.cat
        for b1 in a.objects:
            for b2 in a.objects:
                for n1 in range(a.truncation + 1):
                    for n2 in range(a.truncation + 1):
                        got = len(cat.hom(fl.object_name(b1, n1), fl.object_name(b2, n2)))
                        want = comb(n1 + n2 + 1, n2 + 1) * len(a.homs[(b1, b2)].level(n2))
                        assert got == want
        assert validate_category(cat) == []
        assert validate_relative(fl.rel) == []
        assert fl.overflows == 0
    _report(4, f"flattening count law on {len(inputs)} simplicial categories",
            time.monotonic() - start)


def test_criterion_5_neglectable_comparison_passes():
    """The comparison map into the dimensionwise localization is
    certified on every neglectable instance; no Fail verdicts."""
    start = time.monotonic()
    bounds = Bounds(truncation=1, width=4)
    instances = neglectable_instances()
    assert len(instances) >= 5
    for name, rs in instances:
        report = check_24ii(rs, bounds)
        assert report.verdict != "fail", name
        assert report.verdict == "pass", (name, report.verdict)
        stability = [o for o in report.outcomes if o["check"] == "localization stability"]
        assert stability and stability[0]["result"] == "stable", name
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(5, f"comparison certificates on {len(instances)} neglectable instances", elapsed)


def test_criterion_6_roundtrip():
    """The component categories of the input, of its flattened
    localization with the marked image adjoined, and of the flattened
    localization are equivalent, found by search."""
    start = time.monotonic()
    bounds = Bounds(truncation=1, width=4)
    for name, r in (("terminal", inst.terminal_relative()),
                    ("walking-arrow", inst.walking_arrow_relative()),
                    ("walking-weq", inst.walking_weq())):
        report = check_roundtrip(r, bounds)
        assert report.verdict == "pass", (name, report.verdict, report.outcomes)
        by_check = {o["check"]: o["result"] for o in report.outcomes}
        assert by_check["localization stability"] == "stable"
        assert by_check["Ho(input) ~ Ho(middle)"] == "found"
        assert by_check["Ho(flattening) ~ Ho(middle)"] == "found"
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report(6, "roundtrip comparison on terminal, walking arrow, walking weq", elapsed)


def test_criterion_7_reduction_confluence():
    """1000 random hammocks reduce to the same normal form under the
    library's leftmost-first moves and the reference's rightmost-first
    ones."""
    start = time.monotonic()
    rng = random.Random(73_2024)
    relcats = [r for _, r in inst.oracle_suite()]
    mismatches = 0
    for i in range(1000):
        r = relcats[i % len(relcats)]
        h = random_hammock(rng, r, w_max=5, h_max=2)
        assert h.width <= 5 and h.height <= 2
        assert validate_hammock(r, h) == []
        left = reduce_hammock(r, h)
        right = reference_reduce_hammock(r, h, "rightmost")
        if left != right:
            mismatches += 1
    assert mismatches == 0
    _report(7, "1000 random hammocks, leftmost vs rightmost reduction",
            time.monotonic() - start)


def test_criterion_8_simplicial_and_homological_sanity():
    """Simplicial identities hold on every constructed simplicial set;
    nerves of categories with a terminal object are homologically a
    point through degree one."""
    start = time.monotonic()
    constructed = []
    for c in (inst.terminal(), inst.walking_arrow(), inst.walking_iso(),
              inst.chain3(), inst.span(), inst.group_z2(), inst.parallel_pair(),
              inst.poset_square()):
        constructed.append(nerve(c, 2))
    for _, r in inst.oracle_suite():
        for x in r.cat.objects:
            for y in r.cat.objects:
                constructed.append(mapping_space(r, x, y, 2, 3).sset)
    for a in (promote(inst.walking_iso(), 2), inst.z2_nerve_scat(2)):
        assert validate_scat(a) == []
        constructed.extend(a.homs.values())
    for sset in constructed:
        assert validate_sset(sset) == []

    for c in (inst.terminal(), inst.walking_arrow(), inst.chain3(), inst.poset_square()):
        report = homology(nerve(c, 2))
        assert report.group(0).free_rank == 1 and report.group(0).torsion == ()
        assert report.group(1).free_rank == 0 and report.group(1).torsion == ()
    _report(8, f"simplicial identities on {len(constructed)} simplicial sets "
               "+ point homology of terminal-object nerves",
            time.monotonic() - start)


def test_criterion_9_determinism_and_cache(tmp_path, capsys):
    """Byte-identical reports on repeated runs, and cache hits reproduce
    the cold output exactly."""
    start = time.monotonic()
    path = tmp_path / "walking-arrow.json"
    write_canonical(path, inst.walking_arrow_relative().to_json())
    argv = ["verify", "3.1", str(path), "--truncation", "1", "--width", "4"]

    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second

    cache_dir = str(tmp_path / "cache")
    cached_argv = ["--cache-dir", cache_dir] + argv
    assert run(cached_argv) == 0
    cold = capsys.readouterr().out
    assert cold == first
    assert run(cached_argv) == 0
    warm = capsys.readouterr().out
    assert warm == cold

    report = json.loads(first)
    assert report["verdict"] == "pass"
    assert canonical_dumps(report) == first
    _report(9, "byte-identical reports and cache round-trip",
            time.monotonic() - start)
