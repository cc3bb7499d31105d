"""Traced rebuild of each CLI command from hamloc's public calls.

Spans are recorded here, around the calls into each layer, in the order
the command and its claim pipeline make them; nothing inside hamloc is
traced.  A span has a name, a start, an end, a parent and counts taken
from what the call returned (counted after the span closes, so counting
costs no span time).  Spans stay in memory until the run writes its tree.

Each rebuild assembles the command's output again, with every stage
result it computed, and the worker requires it to equal the command's
own bytes, so the trace cannot drift from the code it describes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from hamloc import __version__
from hamloc.errors import CompositionUnavailable, ConsistencyError, InputError
from hamloc.fincat import FiniteCategory, find_equivalence, subcategory_span, validate_category, \
    wide_subcategory_violations
from hamloc.flatten import flatten, relativization_unit
from hamloc.hammock import (
    embed_relscat,
    hammock_localization,
    hammock_localization_relscat,
    homotopy_category_of_localization,
)
from hamloc.jsonio import canonical_dumps, content_key, load_json
from hamloc.relcat import RelativeCategory, oracle_ho_category, validate_relative, \
    validate_relative_functor
from hamloc.scat import (
    RelativeSimplicialCategory,
    SimplicialFunctor,
    check_dk,
    is_neglectable,
    relscat_from_json,
    validate_relscat,
    validate_simplicial_functor,
)
from hamloc.verify import Bounds, ExperimentReport, _embedded_sub

import checks

# name, unit, better: the per-layer metrics, in the order they print.
PER_LAYER = [
    ("hammock.relocalize_s", "s", "lower"),
    ("hammock.relocalize_vertices", "count", "lower"),
    ("hammock.relocalize_vertices_per_s", "1/s", "higher"),
    ("hammock.components", "count", "lower"),
    ("hammock.localize_s", "s", "lower"),
    ("hammock.simplices", "count", "lower"),
    ("hammock.ho_s", "s", "lower"),
    ("hammock.materialize_s", "s", "lower"),
    ("hammock.compose_requests", "count", "lower"),
    ("hammock.composites", "count", "lower"),
    ("hammock.compose_yield", "ratio", "higher"),
    ("hammock.relscat_s", "s", "lower"),
    ("hammock.relscat_vertices", "count", "lower"),
    ("flatten.flatten_s", "s", "lower"),
    ("flatten.morphisms", "count", "lower"),
    ("flatten.overflows", "count", "lower"),
    ("flatten.unit_s", "s", "lower"),
    ("fincat.equivalence_s", "s", "lower"),
    ("fincat.search_nodes", "count", "lower"),
    ("scat.neglectable_s", "s", "lower"),
    ("scat.validate_functor_s", "s", "lower"),
    ("scat.dk_s", "s", "lower"),
    ("relcat.oracle_s", "s", "lower"),
    ("jsonio.dumps_s", "s", "lower"),
    ("jsonio.output_bytes", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Spans kept in memory: id, name, parent id, start and end (as
    ``time.perf_counter``), counts.
    A root span may carry a ``scale`` that turns the wall times of its
    tree into reference seconds (see ``calibrate.py``)."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self):
        """Span id -> duration, in reference seconds where a root is scaled."""
        scale = {}
        for s in self.spans:
            scale[s["id"]] = s.get("scale", 1.0) if s["parent"] is None else scale[s["parent"]]
        return {s["id"]: (s["end"] - s["start"]) * scale[s["id"]] for s in self.spans}

    def tree(self):
        """Root spans with nested children; times in seconds from the first."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        nodes = {s["id"]: dict(s, start=s["start"] - origin, end=s["end"] - origin, children=[])
                 for s in self.spans}
        roots = []
        for s in self.spans:
            parent = nodes[s["parent"]]["children"] if s["parent"] is not None else roots
            parent.append(nodes[s["id"]])
        return roots


def self_times(tracer) -> dict:
    """Per span name: summed duration minus the part its children cover."""
    duration = tracer.durations()
    child_time = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration[s["id"]]
    totals = {}
    for s in tracer.spans:
        totals[s["name"]] = (totals.get(s["name"], 0.0) + duration[s["id"]]
                             - child_time.get(s["id"], 0.0))
    return totals


def layer_metrics(tracer, untraced_s) -> dict:
    """The per-layer metrics of a traced run; ``untraced_s`` is the time
    the same commands took untraced, for the overhead."""
    values = {name: 0 for name, _, _ in PER_LAYER}
    for name, seconds in self_times(tracer).items():
        layer = name.split(".")[0]
        if layer in ("cli", "verify"):
            values[f"{layer}.self_s"] += seconds
        else:
            values[f"{name}_s"] += seconds
    for s in tracer.spans:
        for key, count in s["counts"].items():
            values[key] += count
    if values["hammock.relocalize_s"]:
        values["hammock.relocalize_vertices_per_s"] = (
            values["hammock.relocalize_vertices"] / values["hammock.relocalize_s"])
    if values["hammock.compose_requests"]:
        values["hammock.compose_yield"] = (
            values["hammock.composites"] / values["hammock.compose_requests"])
    duration = tracer.durations()
    traced = sum(duration[s["id"]] for s in tracer.spans if s["parent"] is None)
    values["trace.overhead_s"] = traced - untraced_s
    return values


# --- traced calls ------------------------------------------------------------------


def _count_simplices(loc):
    return sum(len(ms.sset.level(k)) for ms in loc.pairs.values()
               for k in range(loc.truncation + 1))


def _localize(t, r, truncation, width, detail="full"):
    if detail == "full":
        with t.span("hammock.localize") as counts:
            loc = hammock_localization(r, truncation, width)
        counts["hammock.simplices"] = _count_simplices(loc)
    else:
        with t.span("hammock.relocalize") as counts:
            loc = hammock_localization(r, truncation, width, detail="pi0")
        counts["hammock.relocalize_vertices"] = sum(len(ms.vertices) for ms in loc.pairs.values())
        counts["hammock.components"] = sum(len(ms.partition.classes) for ms in loc.pairs.values())
    return loc


def _ho(t, loc):
    with t.span("hammock.ho"):
        return homotopy_category_of_localization(loc)


def _dumps(t, output):
    with t.span("jsonio.dumps") as counts:
        text = canonical_dumps(output)
    counts["jsonio.output_bytes"] = len(text.encode("utf-8"))
    return text


def _neglectable(t, rs):
    with t.span("scat.neglectable"):
        return is_neglectable(rs)


def _relscat(t, rs, bounds):
    with t.span("hammock.relscat") as counts:
        rsloc = hammock_localization_relscat(rs, bounds.truncation, bounds.width)
    counts["hammock.relscat_vertices"] = sum(len(ms.vertices) for ms in rsloc.row_spaces.values())
    return rsloc


def _certify(t, fun, bounds):
    with t.span("scat.validate_functor"):
        bad = validate_simplicial_functor(fun)
    if bad:
        raise ConsistencyError(f"comparison map invalid: {bad[0]}")
    with t.span("scat.dk"):
        return check_dk(fun, bounds.dk_budget)


def _certified(cert, *stable):
    """Verdict and witness of a claim gated by a DK certificate."""
    witness = cert.to_json() if cert.verdict == "fail" else None
    if cert.verdict == "fail":
        return "fail", witness
    if cert.verdict == "undetermined" or not all(v == "stable" for v in stable):
        return "undetermined", witness
    return "pass", witness


def _inputs(kind, payload):
    return {"kind": kind, "hash": content_key(kind, payload)}


# --- the claim pipelines --------------------------------------------------------
# Each returns (inputs, [(check, result)], verdict, witness), as the claim's
# report holds them.


def _claim_31(t, r, bounds, certs):
    bad = validate_relative(r)
    if bad:
        raise InputError(f"invalid relative category: {bad[0]}")
    inputs = _inputs("relcat", r.to_json())
    loc = _localize(t, r, bounds.truncation, bounds.width)
    out = [("localization stability", loc.verdict)]
    with t.span("flatten.flatten") as counts:
        fl = flatten(loc.scat())
    counts["flatten.morphisms"] = len(fl.rel.cat.morphisms)
    counts["flatten.overflows"] = fl.overflows
    out.append(("flattening overflows", str(fl.overflows)))
    with t.span("flatten.unit"):
        unit = relativization_unit(r, loc, fl)
    out.append(("unit functor valid", "no" if validate_relative_functor(unit) else "yes"))
    try:
        loc_mid = _localize(t, unit.target, bounds.truncation, bounds.width, "pi0")
        loc_flat = _localize(t, fl.rel, bounds.truncation, bounds.width, "pi0")
        out.append(("relocalization(middle) stability (approximation caveat)", loc_mid.verdict))
        out.append(("relocalization(flattening) stability (approximation caveat)",
                    loc_flat.verdict))
        ho_input, _ = _ho(t, loc)
        ho_middle, _ = _ho(t, loc_mid)
        ho_flat, _ = _ho(t, loc_flat)
    except (CompositionUnavailable, ConsistencyError) as exc:
        return inputs, out + [("component categories", "undetermined")], "undetermined", str(exc)
    searches = []
    for c1, c2 in ((ho_input, ho_middle), (ho_flat, ho_middle)):
        with t.span("fincat.equivalence") as counts:
            outcome = find_equivalence(c1, c2, bounds.equiv_budget)
        counts["fincat.search_nodes"] = outcome.nodes
        searches.append(outcome.status)
    out.append(("Ho(input) ~ Ho(middle)", searches[0]))
    out.append(("Ho(flattening) ~ Ho(middle)", searches[1]))
    if "none" in searches:
        return inputs, out, "fail", "no equivalence of component categories exists"
    if "undetermined" in searches:
        return inputs, out, "undetermined", "equivalence search budget exhausted"
    if loc.verdict != "stable":
        return inputs, out, "undetermined", "input localization is width-limited"
    return inputs, out, "pass", None


def _claim_32(t, r, bounds, certs):
    bad = validate_relative(r)
    if bad:
        raise InputError(f"invalid relative category: {bad[0]}")
    inputs = _inputs("relcat", r.to_json())
    loc = _localize(t, r, bounds.truncation, bounds.width)
    out = [("localization stability", loc.verdict)]
    rs = RelativeSimplicialCategory(loc.scat(), _embedded_sub(r, loc.scat(), r.weq))
    try:
        neglectable, witness = _neglectable(t, rs)
    except (CompositionUnavailable, ConsistencyError) as exc:
        return inputs, out + [("neglectability", "undetermined")], "undetermined", str(exc)
    out.append(("image of weq neglectable", "yes" if neglectable else "no"))
    if not neglectable:
        return inputs, out, "undetermined", list(witness)
    rsloc = _relscat(t, rs, bounds)
    out.append(("relocalization stability (approximation caveat)", rsloc.verdict))
    cert = _certify(t, embed_relscat(rs, rsloc), bounds)
    certs.append(cert)
    out.append(("DK certificate", cert.verdict))
    return (inputs, out) + _certified(cert, loc.verdict)


def _claim_24ii(t, rs, bounds, certs):
    bad = validate_relscat(rs)
    if bad:
        raise InputError(f"invalid relative simplicial category: {bad[0]}")
    inputs = _inputs("claim-24ii-input", {"objects": list(rs.ambient.objects),
                                          "truncation": rs.ambient.truncation})
    try:
        neglectable, witness = _neglectable(t, rs)
    except (CompositionUnavailable, ConsistencyError) as exc:
        return inputs, [("neglectability", "undetermined")], "undetermined", str(exc)
    out = [("sub neglectable", "yes" if neglectable else "no")]
    if not neglectable:
        return inputs, out, "inapplicable", list(witness)
    rsloc = _relscat(t, rs, bounds)
    out.append(("localization stability", rsloc.verdict))
    cert = _certify(t, embed_relscat(rs, rsloc), bounds)
    certs.append(cert)
    out.append(("DK certificate", cert.verdict))
    return (inputs, out) + _certified(cert, rsloc.verdict)


def _claim_24i(t, span_data, bounds, certs):
    a, u, v = span_data
    bad = validate_category(a)
    if bad:
        raise InputError(f"invalid category: {bad[0]}")
    for name, part in (("u", u), ("v", v)):
        violations = wide_subcategory_violations(a, part)
        if violations:
            raise InputError(f"{name} is not a wide subcategory: {violations[0]}")
    inputs = _inputs("claim-24i-input", {"category": a.to_json(), "u": sorted(u), "v": sorted(v)})
    ru = RelativeCategory(a, u)
    loc_u = _localize(t, ru, bounds.truncation, bounds.width)
    out = [("localization(u) stability", loc_u.verdict)]
    rs = RelativeSimplicialCategory(loc_u.scat(), _embedded_sub(ru, loc_u.scat(), v))
    try:
        neglectable, witness = _neglectable(t, rs)
    except (CompositionUnavailable, ConsistencyError) as exc:
        return inputs, out + [("neglectability", "undetermined")], "undetermined", str(exc)
    out.append(("v neglectable in localization(u)", "yes" if neglectable else "no"))
    if not neglectable:
        return inputs, out, "inapplicable", list(witness)
    loc_uv = _localize(t, RelativeCategory(a, subcategory_span(a, u, v).morphisms),
                       bounds.truncation, bounds.width)
    out.append(("localization(u+v) stability", loc_uv.verdict))
    smap = {}
    for x in a.objects:
        for y in a.objects:
            source_hom, target_hom = loc_u.pair(x, y).sset, loc_uv.pair(x, y).sset
            for level in range(bounds.truncation + 1):
                for name in source_hom.level(level):
                    if not target_hom.has_simplex(level, name):
                        raise ConsistencyError("hammock lost when weq grows")
                    smap[(x, y, level, name)] = name
    induced = SimplicialFunctor(loc_u.scat(), loc_uv.scat(), {x: x for x in a.objects}, smap)
    with t.span("scat.dk"):
        cert = check_dk(induced, bounds.dk_budget)
    certs.append(cert)
    out.append(("DK certificate", cert.verdict))
    return (inputs, out) + _certified(cert, loc_u.verdict, loc_uv.verdict)


_CLAIMS = {"verify_3.1": _claim_31, "verify_3.2": _claim_32,
           "verify_2.4ii": _claim_24ii, "verify_2.4i": _claim_24i}


# --- the commands ---------------------------------------------------------------


def _relcat_file(path):
    r = RelativeCategory.from_json(load_json(path))
    bad = validate_category(r.cat) + validate_relative(r)
    if bad:
        raise InputError(f"invalid relative category: {bad[0]}")
    return r


def rebuild(t, op):
    """Run ``op`` again from public calls under a ``cli.<command>`` span.

    Returns the output text, which must equal the command's own bytes,
    and the DK certificates the rebuild made."""
    certs = []
    path = op.argv[2] if op.command.startswith("verify") else op.argv[1]
    with t.span(f"cli.{op.command}"):
        if op.command in _CLAIMS:
            data = load_json(path)
            bounds = Bounds(truncation=op.truncation, width=op.width)
            content_key(f"verify-{op.argv[1]}", data, bounds.to_json(), __version__)
            if op.command == "verify_2.4i":
                subject = (FiniteCategory.from_json(data["category"]), data["u"], data["v"])
            elif op.command == "verify_2.4ii":
                subject = relscat_from_json(data)
            else:
                subject = RelativeCategory.from_json(data)
            with t.span(f"verify.{op.argv[1]}"):
                inputs, out, verdict, witness = _CLAIMS[op.command](t, subject, bounds, certs)
            outcomes = [{"check": check, "result": result} for check, result in out]
            report = ExperimentReport(op.argv[1], inputs, bounds.to_json(), outcomes,
                                      verdict, witness)
            text = _dumps(t, report.to_json())
        elif op.command == "oracle-ho":
            r = _relcat_file(path)
            content_key("oracle-ho", load_json(path), {"max_len": int(op.argv[3])}, __version__)
            with t.span("relcat.oracle"):
                result = oracle_ho_category(r, int(op.argv[3]))
            output = {
                "max_len": int(op.argv[3]),
                "determined": result.status == "ok",
                "classes": {
                    f"{x}|{y}": [[".".join(f"{d}:{m}" for (d, m) in w) for w in sorted(cls)]
                                 for cls in hs.classes]
                    for (x, y), hs in sorted(result.pair_homsets.items())
                },
            }
            if result.status == "ok":
                output["category"] = result.category.to_json()
            text = _dumps(t, output)
        else:
            r = _relcat_file(path)
            bounds = {"truncation": op.truncation, "width": op.width}
            content_key(op.command, load_json(path), bounds, __version__)
            loc = _localize(t, r, op.truncation, op.width)
            if op.command == "localize":
                with t.span("hammock.materialize") as counts:
                    output = loc.to_json(include_compose=True)
                counts["hammock.compose_requests"] = checks.composable_pairs(output)
                counts["hammock.composites"] = sum(
                    len(entries) for per_level in output["compose"].values()
                    for entries in per_level.values())
            else:
                try:
                    cat, _ = _ho(t, loc)
                    output = cat.to_json()
                    output["bounds"] = loc.bounds_json()
                except (CompositionUnavailable, ConsistencyError) as exc:
                    output = {"error": str(exc), "bounds": loc.bounds_json()}
            text = _dumps(t, output)
    return text, certs
