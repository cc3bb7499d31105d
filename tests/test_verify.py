import pytest

from hamloc import hammock
from hamloc import instances as inst
from hamloc import scat, verify
from hamloc.errors import ConsistencyError, InputError
from hamloc.flatten import flatten, relativization_unit
from hamloc.hammock import hammock_localization, pi0_localizations
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
        """The flattening stage re-localizes the flattening itself, whose
        weak equivalences are fewer than the middle's unless W holds only
        identities.  One walk over the middle's rows, with one enumeration
        context, re-localizes both stages; neither is localized on its own.
        At width 2 the per-pair vertex counts of the two stages then differ
        on 12 of 16 pairs (walking-weq) and on 16 of 36 (span-one-leg)."""
        r = dict(inst.oracle_suite())[name]
        assert shared == all(r.cat.is_identity(w) for w in r.weq)
        walks, alone, contexts = [], [], []

        def walked(middle, flattening, *args, **kwargs):
            walks.append((middle, flattening))
            return pi0_localizations(middle, flattening, *args, **kwargs)

        def localized(rel, *args, **kwargs):
            loc = hammock_localization(rel, *args, **kwargs)
            if loc.detail == "pi0":
                alone.append(rel)
            return loc

        original = hammock._Context.__init__

        def recording(self, rel, sub_weq=None):
            original(self, rel, sub_weq)
            contexts.append(sub_weq)

        monkeypatch.setattr(verify, "pi0_localizations", walked)
        monkeypatch.setattr(verify, "hammock_localization", localized)
        monkeypatch.setattr(hammock._Context, "__init__", recording)
        events = []
        check_roundtrip(r, Bounds(truncation=1, width=2),
                        lambda x, y, ms, stage: events.append((stage, x, y, ms)))
        assert len(walks) == 1 and alone == []
        # the input's localization, and the walk (with the smaller W unless shared)
        assert len(contexts) == 2 and (contexts[1] is None) == shared
        middle, walked_flattening = walks[0]
        flattening = flatten(hammock_localization(r, 1, 2).scat()).rel
        assert middle.cat == flattening.cat
        tags = [stage for stage, _, _, ms in events if not isinstance(ms, str)]
        notes = [(stage, ms) for stage, _, _, ms in events if isinstance(ms, str)]
        assert "middle" in tags and ("flattening" in tags) != shared
        assert notes == ([("flattening", verify.SHARED_NOTE)] if shared else [])
        # every middle pair is reported before any flattening pair
        assert tags == sorted(tags, key=["input", "middle", "flattening"].index)
        if shared:
            assert middle.weq == flattening.weq
            return
        assert walked_flattening == flattening and flattening.weq < middle.weq
        sizes = {}
        for stage, x, y, ms in events:
            if stage in ("middle", "flattening"):
                sizes.setdefault((x, y), {})[stage] = len(ms.vertices)
        assert all(len(per_stage) == 2 for per_stage in sizes.values())
        assert (sum(per_stage["middle"] != per_stage["flattening"]
                    for per_stage in sizes.values()), len(sizes)) == \
            {"walking-weq": (12, 16), "span-one-leg": (16, 36)}[name]

    @pytest.mark.parametrize("width", [2, 3])
    def test_the_one_walk_precondition_holds_on_stock_instances(self, width):
        """The one walk of the two re-localizations needs both relative
        categories valid (weak equivalences closed under the composites
        the table has) on one category, the flattening's weak
        equivalences among the middle's.  ``check_roundtrip`` validates
        neither; the walk raises at a pair where this fails."""
        for label, r in inst.oracle_suite():
            loc = hammock_localization(r, 1, width)
            fl = flatten(loc.scat())
            middle = relativization_unit(r, loc, fl).target
            assert validate_relative(fl.rel) == [] and validate_relative(middle) == [], label
            assert middle.cat is fl.rel.cat and fl.rel.weq <= middle.weq, label


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
