import random

import pytest
from hypothesis import given, settings, strategies as st

from hamloc import hammock
from hamloc import instances as inst
from hamloc import scat, verify
from hamloc.errors import ConsistencyError, InputError
from hamloc.flatten import flatten, relativization_unit
from hamloc.hammock import hammock_localization
from hamloc.jsonio import canonical_dumps
from hamloc.relcat import RelativeCategory, validate_relative
from hamloc.scat import DkCertificate, RelativeSimplicialCategory, promote, sub_from_morphisms
from hamloc.verify import (
    Bounds,
    check_24i,
    check_24ii,
    check_32,
    check_roundtrip,
)
from oracles import closed_weq, reference_roundtrip

BOUNDS = Bounds(truncation=1, width=4)


def test_invalid_comparison_map_is_an_inconsistency(monkeypatch):
    """check_dk validates the comparison map once; a map the pipeline
    built wrongly is a ConsistencyError (exit 3), not an input error."""
    def rejects(fun, budget):
        raise InputError("invalid simplicial functor: planted")

    monkeypatch.setattr(verify, "check_dk", rejects)
    iso = inst.walking_iso()
    p = promote(iso, 1)
    rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))
    with pytest.raises(ConsistencyError, match="comparison map invalid"):
        check_24ii(rs, BOUNDS)
    with pytest.raises(ConsistencyError, match="comparison map invalid"):
        check_32(inst.walking_arrow_relative(), BOUNDS)


def ids(c):
    return sorted(c.identity.values())


def test_component_data_is_built_once_per_simplicial_category(monkeypatch):
    """Neglectability and the DK certificate share one build of the
    source's component data: each claim builds a category of components
    for its source and its target once."""
    built = []

    def counted(objects, parts, *args):
        built.append(parts)
        return real(objects, parts, *args)

    real = scat.component_category
    monkeypatch.setattr(scat, "component_category", counted)
    iso = inst.walking_iso()
    p = promote(iso, 1)
    rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))
    for run in (lambda: check_32(inst.walking_weq(), BOUNDS),
                lambda: check_24ii(rs, BOUNDS),
                lambda: check_24i(iso, ids(iso), iso.morphisms, BOUNDS)):
        built.clear()
        report = run()
        assert report.verdict == "pass"
        assert len(built) == 2 and built[0] is not built[1]


class TestCheck24i:
    def test_trivial_extra_is_identity_comparison(self):
        c = inst.chain3()
        report = check_24i(c, ids(c), ids(c), BOUNDS)
        assert report.verdict == "pass"

    def test_walking_iso_inverse_pair(self):
        c = inst.walking_iso()
        report = check_24i(c, ids(c), ids(c) + ["u", "v"], BOUNDS)
        assert report.verdict == "pass"
        assert any(o["check"] == "v neglectable in localization(u)" and o["result"] == "yes"
                   for o in report.outcomes)

    def test_non_invertible_is_inapplicable(self):
        c = inst.chain3()
        report = check_24i(c, ids(c), ids(c) + ["f"], BOUNDS)
        assert report.verdict == "inapplicable"
        assert report.witness is not None

    def test_retract_section(self):
        r = inst.retract_weq()
        c = r.cat
        report = check_24i(c, ids(c), ids(c), BOUNDS)
        assert report.verdict == "pass"

    def test_bad_subcategory_rejected(self):
        c = inst.chain3()
        with pytest.raises(InputError):
            check_24i(c, ["f"], ids(c), BOUNDS)


class TestCheck24ii:
    def test_identities_sub_passes(self):
        c = inst.walking_arrow()
        p = promote(c, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, c, ids(c)))
        report = check_24ii(rs, BOUNDS)
        assert report.verdict == "pass"

    def test_walking_iso_arrows_pass(self):
        c = inst.walking_iso()
        p = promote(c, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, c, c.morphisms))
        report = check_24ii(rs, BOUNDS)
        assert report.verdict == "pass"

    def test_non_neglectable_is_inapplicable(self):
        c = inst.walking_arrow()
        p = promote(c, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, c, c.morphisms))
        report = check_24ii(rs, BOUNDS)
        assert report.verdict == "inapplicable"
        assert list(report.witness) == ["X", "Y", "f"]


class TestRoundtrip:
    def test_terminal(self):
        report = check_roundtrip(inst.terminal_relative(), BOUNDS)
        assert report.verdict == "pass"

    def test_walking_arrow_identity_weq(self):
        report = check_roundtrip(inst.walking_arrow_relative(), BOUNDS)
        assert report.verdict == "pass"
        by_check = {o["check"]: o["result"] for o in report.outcomes}
        assert by_check["localization stability"] == "stable"
        assert by_check["flattening overflows"] == "0"
        assert by_check["Ho(input) ~ Ho(middle)"] == "found"
        assert by_check["Ho(flattening) ~ Ho(middle)"] == "found"

    def test_invalid_input_rejected(self):
        bad = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ", "f", "g"])
        with pytest.raises(InputError):
            check_roundtrip(bad, BOUNDS)

    def test_reports_are_deterministic(self):
        one = check_roundtrip(inst.walking_arrow_relative(), BOUNDS)
        two = check_roundtrip(inst.walking_arrow_relative(), BOUNDS)
        assert canonical_dumps(one.to_json()) == canonical_dumps(two.to_json())

    def test_pass_requires_stable_primary_localization(self):
        report = check_roundtrip(inst.walking_arrow_relative(), Bounds(truncation=1, width=1))
        assert report.verdict != "pass"


    @pytest.mark.parametrize("name, shared", [
        ("terminal", True),
        ("walking-arrow-ids", True),
        ("parallel-ids", True),
        ("walking-weq", False),
        ("span-one-leg", False),
    ])
    def test_flattening_shares_the_middle_relocalization_when_w_is_identities(
            self, monkeypatch, name, shared):
        """Each stage is re-localized by one "pi0" walk over the n² pairs
        of level-0 objects ``((A, 0), (B, 0))`` and no other pair.  The
        flattening's weak equivalences are fewer than the middle's unless
        W holds only identities; then the middle's walk serves both, and
        the flattening stage reports :data:`verify.SHARED_NOTE` instead."""
        r = dict(inst.oracle_suite())[name]
        assert shared == all(r.cat.is_identity(w) for w in r.weq)
        walked = {}  # context -> the pairs its walk visited, in order
        original = hammock._pi0_walk

        def recording(ctx, x, y, *args):
            walked.setdefault(ctx, []).append((x, y))
            return original(ctx, x, y, *args)

        monkeypatch.setattr(hammock, "_pi0_walk", recording)
        events = []
        check_roundtrip(r, Bounds(truncation=1, width=2),
                        lambda x, y, ms, stage: events.append((stage, x, y, ms)))
        level0 = [f"({x},0)" for x in r.cat.objects]
        square = [(x, y) for x in level0 for y in level0]
        assert list(walked.values()) == [square] * (1 if shared else 2)
        contexts = list(walked)
        flattening = flatten(hammock_localization(r, 1, 2).scat()).rel
        assert contexts[0].cat == flattening.cat
        pairs = {stage: [(x, y) for tag, x, y, ms in events if tag == stage]
                 for stage in ("middle", "flattening")}
        notes = [(stage, ms) for stage, _, _, ms in events if isinstance(ms, str)]
        assert pairs["middle"] == square
        assert pairs["flattening"] == ([(None, None)] if shared else square)
        assert notes == ([("flattening", verify.SHARED_NOTE)] if shared else [])
        # every middle pair is reported before any flattening pair
        tags = [stage for stage, _, _, _ in events]
        assert tags == sorted(tags, key=["input", "middle", "flattening"].index)
        if shared:
            return
        assert contexts[1].cat is contexts[0].cat
        # the two stages differ: per-pair vertex counts at width 2
        sizes = {}
        for stage, x, y, ms in events:
            if stage in ("middle", "flattening"):
                sizes.setdefault((x, y), {})[stage] = len(ms.vertices)
        assert (sum(per_stage["middle"] != per_stage["flattening"]
                    for per_stage in sizes.values()), len(sizes)) == \
            {"walking-weq": (3, 4), "span-one-leg": (4, 9)}[name]

    @pytest.mark.parametrize("width", [2, 3])
    def test_the_one_walk_precondition_holds_on_stock_instances(self, width):
        """Both re-localizations are of valid relative categories (weak
        equivalences closed under the composites the table has) on one
        category, the flattening's weak equivalences among the middle's,
        and equal to them exactly when W holds only identities: then one
        re-localization serves both stages.  ``check_roundtrip`` validates
        neither."""
        for label, r in inst.oracle_suite():
            loc = hammock_localization(r, 1, width)
            fl = flatten(loc.scat())
            middle = relativization_unit(r, loc, fl).target
            assert validate_relative(fl.rel) == [] and validate_relative(middle) == [], label
            assert middle.cat is fl.rel.cat and fl.rel.weq <= middle.weq, label
            assert (fl.rel.weq == middle.weq) == all(r.cat.is_identity(w) for w in r.weq), label


class TestLevelZeroAgainstEveryPair:
    """Claim 3.1 re-localizes only the pairs of level-0 objects: in both
    re-localizations each (A, n) is isomorphic to (A, 0) through a marked
    map, so the full subcategory on the level-0 objects is equivalent to
    the whole.  The route over every pair (:func:`oracles.reference_roundtrip`)
    checks both halves: wherever its categories of components are
    determined, the marked maps are isomorphisms there, and the level-0
    searches find what its searches find.  No input reads "fail"."""

    @staticmethod
    def _decided(r, width):
        report = check_roundtrip(r, Bounds(truncation=1, width=width))
        assert report.verdict != "fail"
        reference = reference_roundtrip(r, 1, width, Bounds().equiv_budget)
        if reference.first is None:
            return False
        assert all(iso for isos in reference.marked.values() for iso in isos.values())
        results = {outcome["check"]: outcome["result"] for outcome in report.outcomes}
        assert (results["Ho(input) ~ Ho(middle)"], results["Ho(flattening) ~ Ho(middle)"]) == \
            (reference.first, reference.second)
        return True

    @pytest.mark.parametrize("width, decided", [
        (2, ["terminal", "walking-arrow-ids", "retract", "walking-iso-one-arrow",
             "parallel-ids"]),
        (3, ["terminal", "walking-arrow-ids", "z2-groupoid", "parallel-ids"]),
    ], ids=["2", "3"])
    def test_stock_suite(self, width, decided):
        assert [label for label, r in inst.oracle_suite() if self._decided(r, width)] == decided

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 3))
    def test_random_relative_categories(self, seed, width):
        rng = random.Random(seed)
        self._decided(closed_weq(inst.random_dag_category(rng, max_nonid=6), rng), width)


class TestCheck32:
    def test_identity_weq_is_isomorphism_on_the_nose(self):
        report = check_32(inst.walking_arrow_relative(), BOUNDS)
        assert report.verdict == "pass"

    def test_terminal(self):
        report = check_32(inst.terminal_relative(), BOUNDS)
        assert report.verdict == "pass"

    def test_walking_weq(self):
        report = check_32(inst.walking_weq(), BOUNDS)
        assert report.verdict == "pass"
        by_check = {o["check"]: o["result"] for o in report.outcomes}
        assert by_check["image of weq neglectable"] == "yes"
        assert by_check["DK certificate"] == "pass_partial"

    def test_failed_certificate_over_bound_limited_relocalization_is_undetermined(self):
        """On span-one-leg at truncation 2, width 3 the relocalization is
        bound_limited and the certificate differs only in H_1 of hom(X, Y):
        a width artifact, not a refutation.  At width 4 the claim passes."""
        r = dict(inst.oracle_suite())["span-one-leg"]
        report = check_32(r, Bounds(truncation=2, width=3))
        by_check = {o["check"]: o["result"] for o in report.outcomes}
        assert by_check["localization stability"] == "stable"
        assert by_check["relocalization stability (approximation caveat)"] == "bound_limited"
        assert by_check["DK certificate"] == "fail"
        assert report.verdict == "undetermined"
        # the certificate stays as the witness
        assert report.witness["verdict"] == "fail"
        bad = {pair: cmp for pair, cmp in report.witness["pairs"].items()
               if not (cmp["pi0_ok"] and cmp["homology_ok"])}
        assert list(bad) == ["X|Y"] and bad["X|Y"]["pi0_ok"]
        assert bad["X|Y"]["homology_witness"] == {"pair": ["X", "Y"], "degree": 1}

    def test_failed_certificate_over_stable_data_fails(self, monkeypatch):
        """A valid input never refutes the theorem, so the certificate's
        verdict is planted: over stable localizations a failed certificate
        still fails the claim (exit 1)."""
        planted = DkCertificate(truncation=1, pairs={}, ho_ok=False, ho_witness="planted",
                                verdict="fail", reason="planted")
        monkeypatch.setattr(verify, "check_dk", lambda fun, budget: planted)
        report = check_32(inst.walking_arrow_relative(), BOUNDS)
        by_check = {o["check"]: o["result"] for o in report.outcomes}
        assert by_check["localization stability"] == "stable"
        assert by_check["relocalization stability (approximation caveat)"] == "stable"
        assert report.verdict == "fail"
        assert report.witness == planted.to_json()
        iso = inst.walking_iso()
        p = promote(iso, 1)
        rs = RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))
        report = check_24ii(rs, BOUNDS)
        assert {"check": "localization stability", "result": "stable"} in report.outcomes
        assert report.verdict == "fail"
        c = inst.chain3()
        assert check_24i(c, ids(c), ids(c), BOUNDS).verdict == "fail"


class TestReportShape:
    def test_bounds_recorded(self):
        report = check_32(inst.terminal_relative(), BOUNDS)
        assert report.bounds["truncation"] == 1
        assert report.bounds["width"] == 4
        assert "zigzag_bound" not in report.bounds

    def test_render_mentions_verdict(self):
        report = check_roundtrip(inst.terminal_relative(), BOUNDS)
        assert "claim 3.1: pass" in report.render()

    def test_json_round_trips_canonically(self):
        report = check_roundtrip(inst.terminal_relative(), BOUNDS)
        text = canonical_dumps(report.to_json())
        assert text == canonical_dumps(report.to_json())
