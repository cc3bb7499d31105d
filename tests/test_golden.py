"""Golden CLI reports.

Every case runs one ``hamloc`` command on a stock instance and compares
the exit code and the canonical output with a fixture in ``tests/golden``.
Large outputs are stored as their sha256 only.  The fixtures were
recorded at commit c86405b (the ``dk-check`` ones at 2fbdaea, the
``oracle-ho`` ones at ac466f4, ``verify 3.2`` on chain-weq and
z2-groupoid and at truncation 2 at 2057a8f); a fixture changes only together with a
stated change of the report bytes.  To record them again with the
package on ``PYTHONPATH``:

    python tests/test_golden.py record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hamloc import instances as inst
from hamloc.cli import run
from hamloc.fincat import disjoint_union
from hamloc.jsonio import canonical_dumps, write_canonical
from hamloc.scat import (
    RelativeSimplicialCategory,
    SimplicialFunctor,
    promote,
    relscat_to_json,
    sub_from_morphisms,
)
from helpers import identity_simplicial_functor

GOLDEN = Path(__file__).with_name("golden")


def _ids(c):
    return sorted(c.identity.values())


def _relscats():
    """The neglectable instances of acceptance criterion 5, plus the two
    walking-arrow instances of the 2.4ii unit tests."""
    iso = inst.walking_iso()
    two_isos = disjoint_union(inst.walking_iso(), inst.walking_iso())
    z2 = inst.group_z2()
    chain = inst.chain3()
    arrow = inst.walking_arrow()
    p, p2, p3, p4, pa = (promote(c, 1) for c in (iso, two_isos, z2, chain, arrow))
    z2s = inst.z2_nerve_scat(1)
    full_sub = {("o", "o"): tuple(frozenset(z2s.homs[("o", "o")].level(k)) for k in range(2))}
    return {
        "walking-iso-both-arrows": RelativeSimplicialCategory(
            p, sub_from_morphisms(p, iso, iso.morphisms)),
        "walking-iso-one-arrow": RelativeSimplicialCategory(
            p, sub_from_morphisms(p, iso, ["idX", "idY", "u"])),
        "two-walking-isos": RelativeSimplicialCategory(
            p2, sub_from_morphisms(p2, two_isos, two_isos.morphisms)),
        "involution-group": RelativeSimplicialCategory(
            p3, sub_from_morphisms(p3, z2, z2.morphisms)),
        "chain-identities": RelativeSimplicialCategory(
            p4, sub_from_morphisms(p4, chain, _ids(chain))),
        "involution-nerve-category": RelativeSimplicialCategory(z2s, full_sub),
        "walking-arrow-ids": RelativeSimplicialCategory(
            pa, sub_from_morphisms(pa, arrow, _ids(arrow))),
        "walking-arrow-all": RelativeSimplicialCategory(
            pa, sub_from_morphisms(pa, arrow, arrow.morphisms)),
    }


def _spans():
    """The spans (category, u, v) of the 2.4i unit tests."""
    chain, iso, retract = inst.chain3(), inst.walking_iso(), inst.retract_weq().cat
    return {
        "chain3-ids": (chain, _ids(chain), _ids(chain)),
        "walking-iso-inverse-pair": (iso, _ids(iso), _ids(iso) + ["u", "v"]),
        "chain3-f": (chain, _ids(chain), _ids(chain) + ["f"]),
        "retract-ids": (retract, _ids(retract), _ids(retract)),
    }


def _collapse(source, target):
    """The functor sending every simplex of ``source`` to the identity of
    the one-object ``target`` at its level."""
    (point,) = target.objects
    identity = target.homs[(point, point)].levels
    smap = {(x, y, level, s): identity[level][target.identity_at(point, level)]
            for (x, y), hom in source.homs.items()
            for level in range(source.truncation + 1) for s in hom.level(level)}
    return SimplicialFunctor(source, target, {x: point for x in source.objects}, smap)


def _functors():
    """Simplicial functors for ``dk-check``: one certificate that passes,
    one that fails in degree 1 (the Z/2 torsion of the involution nerve)
    and one that fails in degree 0."""
    z2 = inst.z2_nerve_scat(2)
    return {
        "identity-z2-nerve": identity_simplicial_functor(z2),
        "z2-nerve-onto-point": _collapse(z2, promote(inst.terminal(), 2)),
        "two-points-onto-point": _collapse(promote(inst.discrete(2), 1),
                                           promote(inst.terminal(), 1)),
    }


def inputs():
    """Input payloads by file name."""
    payloads = {f"{name}.json": r.to_json() for name, r in inst.oracle_suite()}
    for name, rs in _relscats().items():
        payloads[f"relscat-{name}.json"] = relscat_to_json(rs)
    for name, (c, u, v) in _spans().items():
        payloads[f"span-{name}.json"] = {"category": c.to_json(), "u": u, "v": v}
    payloads["scat-walking-arrow.json"] = promote(inst.walking_arrow(), 1).to_json()
    payloads["scat-z2-nerve.json"] = inst.z2_nerve_scat(1).to_json()
    for name, fun in _functors().items():
        payloads[f"functor-{name}.json"] = dict(
            fun.to_json(), source=fun.source.to_json(), target=fun.target.to_json())
    return payloads


def cases():
    """(case name, argv with the input file name, hash only)."""
    out = []
    suite = [name for name, _ in inst.oracle_suite()]
    for name in ("terminal", "walking-arrow-ids", "parallel-ids", "walking-weq"):
        out.append((f"verify-3.1-{name}",
                    ["verify", "3.1", f"{name}.json", "--truncation", "1", "--width", "3"], False))
    for name in suite:
        out.append((f"verify-3.2-{name}",
                    ["verify", "3.2", f"{name}.json", "--truncation", "1", "--width", "3"],
                    False))
    # span-one-leg is undetermined here: its relocalization is bound-limited
    for name in ("walking-weq", "span-one-leg"):
        out.append((f"verify-3.2-{name}-truncation2",
                    ["verify", "3.2", f"{name}.json", "--truncation", "2", "--width", "3"],
                    False))
    for name in _spans():
        out.append((f"verify-2.4i-{name}", ["verify", "2.4i", f"span-{name}.json"], False))
    for name in _relscats():
        out.append((f"verify-2.4ii-{name}", ["verify", "2.4ii", f"relscat-{name}.json"], False))
    for name in suite:
        out.append((f"ho-{name}", ["ho", f"{name}.json", "--truncation", "1", "--width", "4"],
                    False))
    out.append(("ho-walking-weq-width1", ["ho", "walking-weq.json", "--width", "1"], False))
    for name in ("walking-arrow", "z2-nerve"):
        out.append((f"flatten-{name}", ["flatten", f"scat-{name}.json"], False))
    for name in _functors():
        out.append((f"dk-check-{name}", ["dk-check", f"functor-{name}.json"], False))
    for name in suite:
        out.append((f"oracle-ho-{name}", ["oracle-ho", f"{name}.json", "--max-len", "8"],
                    name in ("chain-weq", "retract", "z2-groupoid")))
    # undetermined: X -> Y needs the two-letter word through the span
    out.append(("oracle-ho-span-one-leg-max-len1",
                ["oracle-ho", "span-one-leg.json", "--max-len", "1"], False))
    for name in ("walking-weq", "span-one-leg", "chain-head-weq"):
        out.append((f"localize-{name}",
                    ["localize", f"{name}.json", "--truncation", "2", "--width", "4"], True))
    return out


def _run(directory: Path, argv):
    resolved = [str(directory / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(resolved)
    return code, buf.getvalue()


def _write_inputs(directory: Path):
    for name, payload in inputs().items():
        write_canonical(directory / name, payload)


def _observed(code, text, hashed):
    if hashed:
        return {"exit": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    return {"exit": code, "output": json.loads(text)}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    _write_inputs(directory)
    return directory


@pytest.mark.parametrize("name,argv,hashed", cases(), ids=[c[0] for c in cases()])
def test_golden(input_dir, name, argv, hashed):
    fixture = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    code, text = _run(input_dir, argv)
    assert fixture["argv"] == argv
    assert code == fixture["exit"]
    if hashed:
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == fixture["sha256"]
    else:
        assert text == canonical_dumps(fixture["output"])


def record():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        for name, argv, hashed in cases():
            code, text = _run(directory, argv)
            fixture = {"argv": argv, **_observed(code, text, hashed)}
            (GOLDEN / f"{name}.json").write_text(
                json.dumps(fixture, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: python tests/test_golden.py record")
    record()
