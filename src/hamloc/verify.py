"""Desk-scale verification pipelines.

Each checker builds the relevant localizations and certificates and
returns a deterministic ExperimentReport.  Verdicts:

* ``pass``         - every check succeeded on fully stable primary data;
* ``fail``         - a certificate over stable localizations, or the
                     equivalence search, refuted the claim;
* ``inapplicable`` - a stated precondition (e.g. neglectability) fails;
* ``undetermined`` - bounds or budgets were insufficient to decide.

Doubly approximate stages (re-localizing a flattening, whose composition
is only partially representable inside any width bound) carry their own
stability verdicts in the outcomes as approximation caveats.

Each checker takes an optional per-pair ``progress`` callback; every
localization it builds reports to it, tagged by its stage (see
:func:`hammock.staged`), and a dimensionwise localization also reports
the :class:`hammock.DiagonalCounts` of each diagonal hom: the entrywise
images under the outer degeneracies, one per diagonal simplex, and
under the outer faces, one per simplex of the level spaces one inner
level down, since a diagonal face is the outer face after the inner
one; and the distinct face images reduced.  Claim 3.1 re-localizes the
middle and then the flattening, each by one "pi0" walk over the pairs of
level-0 objects ``((A, 0), (B, 0))`` only, so every middle pair is
reported before any flattening pair.  When the two have the same weak
equivalences (W holds only identities), the one re-localization serves
both, and the flattening stage reports the string :data:`SHARED_NOTE`
once instead of its pairs.  Progress never enters a report.

Neglectability and the DK certificate read the component data that each
simplicial category builds once and keeps
(:func:`scat.homotopy_category_data`), so a claim builds its source's
once and hands nothing between the two checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositionUnavailable, ConsistencyError, InputError
from .fincat import (
    FiniteCategory,
    find_equivalence,
    subcategory_span,
    validate_category,
    wide_subcategory_violations,
)
from .flatten import flatten, relativization_unit
from .hammock import (
    embed_relscat,
    embedded_grid,
    hammock_localization,
    hammock_localization_relscat,
    homotopy_category_of_localization,
    staged,
)
from .jsonio import content_key
from .relcat import RelativeCategory, validate_relative, validate_relative_functor
from .scat import (
    RelativeSimplicialCategory,
    SimplicialFunctor,
    check_dk,
    is_neglectable,
    validate_relscat,
    validate_scat,
)


@dataclass
class Bounds:
    truncation: int = 1
    width: int = 4
    equiv_budget: int = 2_000_000
    dk_budget: int = 2_000_000

    def __post_init__(self):
        # a negative budget would report "budget exhausted" (undetermined)
        if self.equiv_budget < 0:
            raise InputError("equiv_budget must be >= 0")

    def to_json(self):
        return {
            "truncation": self.truncation,
            "width": self.width,
            "equiv_budget": self.equiv_budget,
            "dk_budget": self.dk_budget,
        }


SHARED_NOTE = "same weak equivalences as middle, relocalization shared"

SCOPE_NOTE = (
    "component-level verification at the stated truncation and width; "
    "mapping-space equivalence is certified by necessary conditions only "
    "(components and homology through the truncation)"
)


@dataclass
class ExperimentReport:
    claim: str
    inputs: dict
    bounds: dict
    outcomes: list
    verdict: str
    witness: object = None

    def to_json(self):
        return {
            "claim": self.claim,
            "scope": SCOPE_NOTE,
            "inputs": self.inputs,
            "bounds": self.bounds,
            "outcomes": self.outcomes,
            "verdict": self.verdict,
            "witness": self.witness,
        }

    def render(self) -> str:
        lines = [f"claim {self.claim}: {self.verdict}"]
        for outcome in self.outcomes:
            lines.append(f"  - {outcome['check']}: {outcome['result']}")
        if self.witness is not None:
            lines.append(f"  witness: {self.witness}")
        return "\n".join(lines)


def _describe(payload, kind):
    return {"kind": kind, "hash": content_key(kind, payload)}


def _embedded_sub(rel: RelativeCategory, loc_scat, morphisms):
    """Subobject of a localization spanned by embedded morphisms, by
    number: at level k, the grids :func:`hammock.embedded_grid` k high,
    looked up in that level's table of their hom."""
    cat, chosen = rel.cat, set(morphisms)
    sub = {}
    for x in cat.objects:
        for y in cat.objects:
            levels = loc_scat.homs[(x, y)].levels
            try:
                sub[(x, y)] = tuple(frozenset(levels[k].item_number[embedded_grid(cat, m, k)]
                                              for m in cat.hom(x, y) if m in chosen)
                                    for k in range(len(levels)))
            except KeyError:
                raise ConsistencyError("embedded morphism missing from enumeration") from None
    return sub


def _comparison_certificate(fun, bounds: Bounds):
    """The DK certificate of a comparison map the pipeline built itself;
    ``check_dk`` validates it, and a map that fails is an inconsistency
    of the pipeline, not an input error."""
    try:
        return check_dk(fun, bounds.dk_budget)
    except InputError as exc:
        raise ConsistencyError(f"comparison map invalid: {exc}") from exc


def _neglectability_stop(claim, inputs, bounds: Bounds, outcomes, rs, check, refuted):
    """Record whether the sub of ``rs`` is neglectable.  Returns the
    finished report when the pipeline stops here: "undetermined" when
    the bounds cannot decide, ``refuted`` when it is not neglectable;
    else None."""
    try:
        neglectable, witness = is_neglectable(rs)
    except (CompositionUnavailable, ConsistencyError) as exc:
        return ExperimentReport(claim, inputs, bounds.to_json(),
                                outcomes + [{"check": "neglectability", "result": "undetermined"}],
                                "undetermined", str(exc))
    outcomes.append({"check": check, "result": "yes" if neglectable else "no"})
    if not neglectable:
        return ExperimentReport(claim, inputs, bounds.to_json(), outcomes, refuted,
                                list(witness))
    return None


def _certified(claim, inputs, bounds: Bounds, outcomes, fun, stable: bool,
               compared_stable: bool) -> ExperimentReport:
    """The report gated on the comparison certificate of ``fun``.  A failed
    certificate fails the claim only when every localization it compares
    is stable (``compared_stable``); otherwise the mismatch may be a width
    artifact and the claim is undetermined, with the certificate as the
    witness either way.  An undetermined certificate, or primary data
    that is not ``stable``, leaves the claim undetermined."""
    cert = _comparison_certificate(fun, bounds)
    outcomes.append({"check": "DK certificate", "result": cert.verdict})
    if cert.verdict == "fail" and compared_stable:
        verdict = "fail"
    elif cert.verdict in ("fail", "undetermined") or not stable:
        verdict = "undetermined"
    else:
        verdict = "pass"
    witness = cert.to_json() if cert.verdict == "fail" else None
    return ExperimentReport(claim, inputs, bounds.to_json(), outcomes, verdict, witness)


def check_24i(a: FiniteCategory, u, v, bounds: Bounds, progress=None) -> ExperimentReport:
    """Localizing at a span of marked subcategories: when the second
    subcategory is neglectable in the localization at the first, the
    induced comparison functor must be a DK-equivalence."""
    bad = validate_category(a)
    if bad:
        raise InputError(f"invalid category: {bad[0]}")
    for name, part in (("u", u), ("v", v)):
        violations = wide_subcategory_violations(a, part)
        if violations:
            raise InputError(f"{name} is not a wide subcategory: {violations[0]}")

    inputs = _describe({"category": a.to_json(), "u": sorted(u), "v": sorted(v)}, "claim-24i-input")
    outcomes = []
    ru = RelativeCategory(a, u)
    loc_u = hammock_localization(ru, bounds.truncation, bounds.width,
                                 progress=staged(progress, "u"))
    outcomes.append({"check": "localization(u) stability", "result": loc_u.verdict})

    rs = RelativeSimplicialCategory(loc_u.scat(), _embedded_sub(ru, loc_u.scat(), v))
    stop = _neglectability_stop("2.4i", inputs, bounds, outcomes, rs,
                                "v neglectable in localization(u)", "inapplicable")
    if stop is not None:
        return stop

    span = subcategory_span(a, u, v)
    ruv = RelativeCategory(a, span.morphisms)
    loc_uv = hammock_localization(ruv, bounds.truncation, bounds.width,
                                  progress=staged(progress, "u+v"))
    outcomes.append({"check": "localization(u+v) stability", "result": loc_uv.verdict})

    # both localizations number the morphisms of ``a`` alike, so a hammock
    # is the same grid in both
    smap = {}
    for x in a.objects:
        for y in a.objects:
            for level, grids in enumerate(loc_u.pair(x, y).level_grids):
                numbers = loc_uv.pair(x, y).grid_numbers(level)
                for s, grid in enumerate(grids):
                    t = smap[(x, y, level, s)] = numbers.get(grid)
                    if t is None:
                        raise ConsistencyError("hammock lost when weq grows")
    induced = SimplicialFunctor(loc_u.scat(), loc_uv.scat(),
                                {x: x for x in a.objects}, smap)
    stable = loc_u.verdict == "stable" and loc_uv.verdict == "stable"
    return _certified("2.4i", inputs, bounds, outcomes, induced, stable, stable)


def check_24ii(rs: RelativeSimplicialCategory, bounds: Bounds,
               progress=None) -> ExperimentReport:
    """The comparison map into the dimensionwise localization at a
    neglectable subobject must be a DK-equivalence."""
    bad = validate_scat(rs.ambient) or validate_relscat(rs)
    if bad:
        raise InputError(f"invalid relative simplicial category: {bad[0]}")
    inputs = _describe({"objects": list(rs.ambient.objects),
                        "truncation": rs.ambient.truncation},
                       "claim-24ii-input")
    outcomes = []
    stop = _neglectability_stop("2.4ii", inputs, bounds, outcomes, rs,
                                "sub neglectable", "inapplicable")
    if stop is not None:
        return stop

    rsloc = hammock_localization_relscat(rs, bounds.truncation, bounds.width,
                                         staged(progress, "dimensionwise"))
    outcomes.append({"check": "localization stability", "result": rsloc.verdict})
    # the certificate compares the exact input with the localization
    stable = rsloc.verdict == "stable"
    return _certified("2.4ii", inputs, bounds, outcomes, embed_relscat(rs, rsloc),
                      stable, stable)


def check_roundtrip(r: RelativeCategory, bounds: Bounds, progress=None) -> ExperimentReport:
    """Compare the homotopy categories of a relative category, of its
    flattened localization with the image of the weak equivalences
    adjoined, and of the flattened localization itself.

    The comparison is at component level by design: the flattening of a
    width-bounded localization cannot represent all composites (the exact
    flattening is infinite), so the re-localized stages are approximations
    whose stability verdicts are recorded as caveats rather than gates."""
    bad = validate_category(r.cat) + validate_relative(r)
    if bad:
        raise InputError(f"invalid relative category: {bad[0]}")
    inputs = _describe(r.to_json(), "relcat")
    outcomes = []

    loc = hammock_localization(r, bounds.truncation, bounds.width,
                               progress=staged(progress, "input"))
    outcomes.append({"check": "localization stability", "result": loc.verdict})

    fl = flatten(loc.scat())
    outcomes.append({"check": "flattening overflows", "result": str(fl.overflows)})
    try:
        unit = relativization_unit(r, loc, fl)
    except InputError as exc:
        # the pipeline built the localization and its flattening itself
        raise ConsistencyError(f"relativization unit invalid: {exc}") from exc
    bad = validate_relative_functor(unit)
    outcomes.append({"check": "unit functor valid", "result": "no" if bad else "yes"})
    middle = unit.target

    # In both re-localizations each (A, n) is isomorphic to (A, 0) through
    # a marked map, so the full subcategory on the level-0 objects is
    # equivalent to the whole, and only the level-0 pairs are walked.  The
    # unit adds only the one-column hammocks of the non-identity weak
    # equivalences of W, so when W holds only identities the middle is the
    # flattening, and one re-localization serves both stages.
    level0 = [fl.object_name(x, 0) for x in r.cat.objects]
    pairs = {(x, y) for x in level0 for y in level0}
    shared = fl.rel.weq == middle.weq
    loc_mid = hammock_localization(middle, bounds.truncation, bounds.width, "pi0", pairs,
                                   staged(progress, "middle"))
    if shared and progress is not None:
        progress(None, None, SHARED_NOTE, "flattening")
    loc_flat = loc_mid if shared else hammock_localization(
        fl.rel, bounds.truncation, bounds.width, "pi0", pairs, staged(progress, "flattening"))
    outcomes.append({"check": "relocalization(middle) stability (approximation caveat)",
                     "result": loc_mid.verdict})
    outcomes.append({"check": "relocalization(flattening) stability (approximation caveat)",
                     "result": loc_flat.verdict})
    try:
        ho_input, _ = homotopy_category_of_localization(loc)
        ho_middle, _ = homotopy_category_of_localization(loc_mid)
        ho_flat = ho_middle if shared else homotopy_category_of_localization(loc_flat)[0]
    except (CompositionUnavailable, ConsistencyError) as exc:
        return ExperimentReport("3.1", inputs, bounds.to_json(),
                                outcomes + [{"check": "component categories", "result": "undetermined"}],
                                "undetermined", str(exc))

    first = find_equivalence(ho_input, ho_middle, bounds.equiv_budget)
    outcomes.append({"check": "Ho(input) ~ Ho(middle)", "result": first.status})
    second = find_equivalence(ho_flat, ho_middle, bounds.equiv_budget)
    outcomes.append({"check": "Ho(flattening) ~ Ho(middle)", "result": second.status})

    if first.status == "none" or second.status == "none":
        verdict = "fail"
        witness = "no equivalence of component categories exists"
    elif first.status == "undetermined" or second.status == "undetermined":
        verdict = "undetermined"
        witness = "equivalence search budget exhausted"
    elif loc.verdict != "stable":
        verdict = "undetermined"
        witness = "input localization is width-limited"
    else:
        verdict = "pass"
        witness = None
    return ExperimentReport("3.1", inputs, bounds.to_json(), outcomes, verdict, witness)


def check_32(r: RelativeCategory, bounds: Bounds, progress=None) -> ExperimentReport:
    """The localization comparison map from a localization into the
    dimensionwise localization of itself at the image of the weak
    equivalences must be a DK-equivalence."""
    bad = validate_category(r.cat) + validate_relative(r)
    if bad:
        raise InputError(f"invalid relative category: {bad[0]}")
    inputs = _describe(r.to_json(), "relcat")
    outcomes = []

    loc = hammock_localization(r, bounds.truncation, bounds.width,
                               progress=staged(progress, "input"))
    outcomes.append({"check": "localization stability", "result": loc.verdict})
    rs = RelativeSimplicialCategory(loc.scat(), _embedded_sub(r, loc.scat(), r.weq))
    # inverting the weak equivalences must make them neglectable; a
    # failure here is a width artifact, not a refutation
    stop = _neglectability_stop("3.2", inputs, bounds, outcomes, rs,
                                "image of weq neglectable", "undetermined")
    if stop is not None:
        return stop

    rsloc = hammock_localization_relscat(rs, bounds.truncation, bounds.width,
                                         staged(progress, "dimensionwise"))
    outcomes.append({"check": "relocalization stability (approximation caveat)",
                     "result": rsloc.verdict})
    # the relocalized stage is doubly approximate (it localizes data that
    # is itself width-bounded); a pass is gated on the certificate over the
    # stable primary localization, but a failed certificate refutes the
    # claim only when the relocalization it compares is stable too
    return _certified("3.2", inputs, bounds, outcomes, embed_relscat(rs, rsloc),
                      loc.verdict == "stable",
                      loc.verdict == "stable" and rsloc.verdict == "stable")

