import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hamloc import instances as inst
from hamloc.cli import run
from hamloc.jsonio import canonical_dumps, write_canonical
from hamloc.relcat import RelativeCategory
from hamloc.simplicial import nerve
from hamloc.scat import (
    RelativeSimplicialCategory,
    promote,
    relscat_to_json,
    sub_from_morphisms,
)
from helpers import identity_simplicial_functor
from oracles import (
    _reference_rewrites,
    _reference_words,
    _ReferenceTables,
    closed_weq,
    reference_oracle_ho,
)


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save(name, payload):
        path = tmp_path / name
        write_canonical(path, payload)
        paths[name] = str(path)
        return str(path)

    save("terminal.json", inst.terminal().to_json())
    save("walking-weq.json", inst.walking_weq().to_json())
    save("chain-weq.json", inst.chain_weq().to_json())
    save("walking-arrow.json", inst.walking_arrow_relative().to_json())
    chain = RelativeCategory(inst.chain3(), ["idX", "idY", "idZ", "g"])
    save("chain.json", chain.to_json())
    iso = inst.walking_iso()
    p1 = promote(iso, 1)
    save("relscat-iso.json", relscat_to_json(RelativeSimplicialCategory(
        p1, sub_from_morphisms(p1, iso, iso.morphisms))))
    wa = inst.walking_arrow()
    pa = promote(wa, 1)
    save("relscat-arrow.json", relscat_to_json(RelativeSimplicialCategory(
        pa, sub_from_morphisms(pa, wa, wa.morphisms))))
    save("scat-arrow.json", pa.to_json())
    save("claim24i.json", {
        "category": iso.to_json(),
        "u": ["idX", "idY"],
        "v": ["idX", "idY", "u", "v"],
    })
    broken = inst.chain3().to_json()
    broken["compose"] = [entry for entry in broken["compose"] if entry != ["g", "f", "gf"]]
    save("broken.json", broken)
    paths["dir"] = str(tmp_path)
    return paths


def _capture(capsys):
    out = capsys.readouterr()
    return out.out


class TestValidate:
    def test_valid_exits_zero(self, files, capsys):
        assert run(["validate", files["terminal.json"]]) == 0
        assert '"violations":[]' in _capture(capsys)

    def test_invalid_exits_two(self, files, capsys):
        assert run(["validate", files["broken.json"]]) == 2
        assert "missing composite" in _capture(capsys)

    def test_relscat_kind_detected(self, files, capsys):
        assert run(["validate", files["relscat-iso.json"]]) == 0
        assert '"kind":"relscat"' in _capture(capsys)

    def test_missing_file_exits_two(self, files):
        assert run(["validate", files["dir"] + "/nope.json"]) == 2

    def test_localize_output_validates(self, files, tmp_path):
        out = str(tmp_path / "loc.json")
        assert run(["localize", files["walking-weq.json"], "--truncation", "1",
                    "--width", "4", "--out", out]) == 0
        assert run(["validate", out]) == 0

    def test_scat_missing_one_composite_exits_two(self, tmp_path, capsys):
        data = promote(inst.walking_arrow(), 1).to_json()
        data["compose"]["X|X|Y"]["0"].pop()
        path = tmp_path / "partial.json"
        write_canonical(path, data)
        assert run(["validate", str(path)]) == 2
        assert "missing composite" in _capture(capsys)
        assert run(["flatten", str(path)]) == 2


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["hamloc", "hamloc.cli"])
    def test_python_m_runs_the_cli(self, files, module):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for name, code in (("terminal.json", 0), ("broken.json", 2)):
            done = subprocess.run([sys.executable, "-m", module, "validate", files[name]],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == code, done.stderr


class TestLocalize:
    def test_width_one_is_bound_limited(self, files):
        assert run(["localize", files["chain.json"], "--truncation", "1",
                    "--width", "1"]) == 3

    def test_width_two_stable(self, files, capsys):
        assert run(["localize", files["chain.json"], "--truncation", "1",
                    "--width", "2"]) == 0
        data = json.loads(_capture(capsys))
        assert data["bounds"]["verdict"] == "stable"

    def test_discrete_weq_has_no_overflows(self, files, capsys):
        assert run(["localize", files["walking-arrow.json"], "--truncation", "1",
                    "--width", "3"]) == 0
        data = json.loads(_capture(capsys))
        assert data["bounds"]["verdict"] == "stable"
        assert data["bounds"]["overflows"] == 0

    def test_pairs_filter(self, files, capsys):
        assert run(["localize", files["walking-weq.json"], "--truncation", "1",
                    "--width", "4", "--pairs", "X,Y"]) == 0
        data = json.loads(_capture(capsys))
        assert list(data["homs"]) == ["X|Y"]


class TestHoAndOracle:
    def test_ho_walking_weq(self, files, capsys):
        assert run(["ho", files["walking-weq.json"], "--truncation", "1",
                    "--width", "4"]) == 0
        data = json.loads(_capture(capsys))
        assert len(data["morphisms"]) == 4
        assert data["bounds"]["verdict"] == "stable"

    def test_oracle_ho_determined(self, files, capsys):
        assert run(["oracle-ho", files["walking-weq.json"], "--max-len", "6"]) == 0
        data = json.loads(_capture(capsys))
        assert data["determined"] is True
        assert len(data["category"]["morphisms"]) == 4

    def test_oracle_ho_undetermined_at_tiny_bound(self, tmp_path, capsys):
        path = tmp_path / "span.json"
        write_canonical(path, inst.span_one_leg_inverted().to_json())
        assert run(["oracle-ho", str(path), "--max-len", "1"]) == 3

    @pytest.mark.parametrize("max_len", ["-1", "-3"])
    def test_oracle_ho_negative_bound_is_invalid_input(self, files, capsys, max_len):
        assert run(["oracle-ho", files["walking-weq.json"], "--max-len", max_len]) == 2
        assert "max_len must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-1", "-3"])
    def test_verify_negative_equivalence_budget_is_invalid_input(self, files, capsys,
                                                                 monkeypatch, budget):
        from hamloc import verify

        # rejected before any localization is built
        monkeypatch.setattr(verify, "hammock_localization",
                            lambda *args, **kwargs: pytest.fail("localized"))
        assert run(["verify", "3.1", files["walking-weq.json"], "--width", "2",
                    "--equiv-budget", budget]) == 2
        assert "equiv_budget must be >= 0" in capsys.readouterr().err

    def test_verify_zero_equivalence_budget_is_legal(self, files, capsys):
        # a search with no budget is undetermined, not an input error
        assert run(["verify", "3.1", files["walking-weq.json"], "--width", "2",
                    "--equiv-budget", "0"]) == 3


class TestSimplicialCommands:
    def test_nerve_pi0_homology_chain(self, files, tmp_path, capsys):
        nerve_path = str(tmp_path / "nerve.json")
        assert run(["nerve", files["terminal.json"], "--truncation", "2",
                    "--out", nerve_path]) == 0
        assert run(["pi0", nerve_path]) == 0
        assert '"classes":[["*"]]' in _capture(capsys)
        assert run(["homology", nerve_path]) == 0
        data = json.loads(_capture(capsys))
        assert data["homology"][0]["free_rank"] == 1

    def test_flatten_has_provenance(self, files, capsys):
        assert run(["flatten", files["scat-arrow.json"]]) == 0
        data = json.loads(_capture(capsys))
        assert "provenance" in data
        assert data["provenance"]["truncation"] == 1

    def test_flatten_accepts_localize_output(self, files, tmp_path, capsys):
        out = str(tmp_path / "loc.json")
        assert run(["localize", files["walking-weq.json"], "--truncation", "1",
                    "--width", "4", "--out", out]) == 0
        _capture(capsys)
        assert run(["flatten", out]) == 0
        assert json.loads(_capture(capsys))["provenance"]["overflows"] > 0


class TestDkAndNeglectable:
    def test_identity_dk_check_passes(self, files, tmp_path, capsys):
        scat = promote(inst.walking_arrow(), 1)
        smap = {}
        for x in scat.objects:
            for y in scat.objects:
                for level in range(2):
                    for s in scat.homs[(x, y)].level(level):
                        smap.setdefault(f"{x}|{y}", {}).setdefault(str(level), {})[s] = s
        path = tmp_path / "functor.json"
        write_canonical(path, {
            "source": "scat-arrow.json",  # resolved next to the functor file
            "target": "scat-arrow.json",
            "object_map": {"X": "X", "Y": "Y"},
            "simplex_map": smap,
        })
        assert run(["dk-check", str(path)]) == 0

    def test_collapse_onto_point_fails(self, files, tmp_path, capsys):
        """The certificate fails, and its witnesses are JSON objects."""
        source = promote(inst.discrete(2), 1)
        target = promote(inst.terminal(), 1)
        path = tmp_path / "functor2.json"
        write_canonical(path, {
            "source": source.to_json(),
            "target": target.to_json(),
            "object_map": {"X0": "*", "X1": "*"},
            "simplex_map": {
                "X0|X0": {"0": {"idX0": "id*"}, "1": {"idX0": "id*"}},
                "X1|X1": {"0": {"idX1": "id*"}, "1": {"idX1": "id*"}},
            },
        })
        assert run(["dk-check", str(path)]) == 1
        cert = json.loads(_capture(capsys))
        assert cert["ho_witness"] == {
            "error": "component categories not equivalent via induced functor"}
        assert cert["pairs"]["X0|X1"]["pi0_witness"] == {
            "pair": ["X0", "X1"], "source_classes": 0, "target_classes": 1, "injective": True}
        assert cert["pairs"]["X0|X1"]["homology_witness"] == {"pair": ["X0", "X1"], "degree": 0}

    # stdout, stderr and exit code of each edited collapse functor below,
    # as the name-keyed simplex map gave them
    _COLLAPSE_PASS = (
        '{"ho_ok":true,"ho_witness":{"backward_objects":{"*":"X"}},"pairs":{'
        + ",".join(f'"{pair}":{{"homology_ok":true,"homology_witness":null,"pi0_ok":true,'
                   f'"pi0_witness":null}}' for pair in ("X|X", "X|Y", "Y|X", "Y|Y"))
        + '},"reason":"","truncation":1,"verdict":"pass_partial"}\n')
    EDITED_FUNCTORS = [
        ("unknown-target", {("X|Y", "1", "u"): "nowhere"}, "",
         "input error: invalid simplicial functor: simplex not mapped: (X,Y) level 1: u\n", 2),
        ("extra-source", {("X|Y", "0", "stray"): "id*", ("Y|X", "1", "ghost"): "nowhere"},
         _COLLAPSE_PASS, "", 0),
        ("non-string-image", {("X|Y", "0", "u"): 7}, "",
         "input error: malformed functor JSON: functor images must be names (strings)\n", 2),
    ]

    @pytest.mark.parametrize("label, edits, stdout, stderr, code", EDITED_FUNCTORS,
                             ids=[case[0] for case in EDITED_FUNCTORS])
    def test_functor_names_are_numbered_at_the_boundary(self, tmp_path, capsys, label, edits,
                                                         stdout, stderr, code):
        """The collapse of the walking isomorphism onto the point, with one
        image naming no target simplex, with source names no hom holds
        (ignored), or with an image that is not a string."""
        iso = inst.walking_iso()
        smap = {f"{x}|{y}": {str(level): {m: "id*" for m in iso.hom(x, y)} for level in range(2)}
                for x in iso.objects for y in iso.objects}
        for (pair, level, s), t in edits.items():
            smap[pair][level][s] = t
        path = tmp_path / f"{label}.json"
        write_canonical(path, {"source": promote(iso, 1).to_json(),
                               "target": promote(inst.terminal(), 1).to_json(),
                               "object_map": {"X": "*", "Y": "*"}, "simplex_map": smap})
        assert run(["dk-check", str(path)]) == code
        out = capsys.readouterr()
        assert (out.out, out.err) == (stdout, stderr)

    def test_target_of_lower_truncation_exits_two(self, tmp_path, capsys):
        """A source level the target lacks leaves its simplices unmapped,
        an input error, not an IndexError that exits 1."""
        iso = inst.walking_iso()
        smap = {f"{x}|{y}": {str(level): {m: "id*" for m in iso.hom(x, y)} for level in range(3)}
                for x in iso.objects for y in iso.objects}
        path = tmp_path / "functor.json"
        write_canonical(path, {"source": promote(iso, 2).to_json(),
                               "target": promote(inst.terminal(), 1).to_json(),
                               "object_map": {"X": "*", "Y": "*"}, "simplex_map": smap})
        assert run(["dk-check", str(path)]) == 2
        assert "simplex not mapped: (X,X) level 2: idX" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["dk-check", "functor.json"],
                                      ["neglectable", "relscat.json"],
                                      ["verify", "2.4ii", "relscat.json"]],
                             ids=["dk-check", "neglectable", "verify-2.4ii"])
    def test_truncation_zero_has_no_components(self, tmp_path, capsys, argv):
        """One place builds component data, so each command that needs it
        refuses a truncation-0 input with the same message."""
        iso = inst.walking_iso()
        p = promote(iso, 0)
        write_canonical(tmp_path / "functor.json", dict(
            identity_simplicial_functor(p).to_json(), source=p.to_json(), target=p.to_json()))
        write_canonical(tmp_path / "relscat.json", relscat_to_json(
            RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, iso.morphisms))))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert run(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "input error: components need truncation >= 1\n")

    def test_neglectable_true_false(self, files):
        assert run(["neglectable", files["relscat-iso.json"]]) == 0
        assert run(["neglectable", files["relscat-arrow.json"]]) == 1


class TestLevelKeys:
    """A per-level table names each level by its canonical decimal key
    only, so no level can be given twice; any other spelling is an input
    error (exit 2), in each of the three loaders that read such keys."""

    SPELLINGS = ["01", "+1", " 1"]

    @staticmethod
    def _run(tmp_path, capsys, argv, payload):
        path = tmp_path / "doc.json"
        write_canonical(path, payload)
        code = run([argv[0], str(path), *argv[1:]])
        return code, capsys.readouterr().err

    def test_nerve_with_a_face_level_spelled_twice(self, tmp_path, capsys):
        data = nerve(inst.parallel_pair(), 1).to_json()
        data["faces"]["1"]["a"] = ["Y"]
        data["faces"]["01"] = {"a": ["Y", "X", "Z"]}
        code, err = self._run(tmp_path, capsys, ["pi0"], data)
        assert code == 2
        assert "level key '01' is not a canonical integer" in err

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_simplicial_set_levels(self, tmp_path, capsys, spelling):
        data = nerve(inst.parallel_pair(), 1).to_json()
        data["faces"][spelling] = data["faces"].pop("1")
        for command in ("validate", "pi0", "homology"):
            code, err = self._run(tmp_path, capsys, [command], data)
            assert code == 2, command
            assert f"level key {spelling!r} is not a canonical integer" in err

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_composition_levels(self, tmp_path, capsys, spelling):
        data = promote(inst.walking_arrow(), 1).to_json()
        assert self._run(tmp_path, capsys, ["validate"], data)[0] == 0
        per_level = data["compose"]["X|X|Y"]
        per_level[spelling] = per_level.pop("1")
        for argv in (["validate"], ["flatten"]):
            code, err = self._run(tmp_path, capsys, argv, data)
            assert code == 2, argv
            assert f"level key {spelling!r} is not a canonical integer" in err

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_functor_simplex_map_levels(self, tmp_path, capsys, spelling):
        scat = promote(inst.walking_arrow(), 1)
        smap = {f"{x}|{y}": {str(level): {s: s for s in scat.homs[(x, y)].level(level)}
                             for level in range(2)}
                for x in scat.objects for y in scat.objects}
        data = {"source": scat.to_json(), "target": scat.to_json(),
                "object_map": {"X": "X", "Y": "Y"}, "simplex_map": smap}
        assert self._run(tmp_path, capsys, ["dk-check"], data)[0] == 0
        smap["X|Y"][spelling] = smap["X|Y"].pop("1")
        code, err = self._run(tmp_path, capsys, ["dk-check"], data)
        assert code == 2
        assert f"level key {spelling!r} is not a canonical integer" in err


class TestTruncationValue:
    """A document's truncation is a JSON integer; a fraction, a string or a
    bool is an input error (exit 2) where it used to be rounded by
    ``int``."""

    @staticmethod
    def _run(tmp_path, capsys, argv, payload):
        path = tmp_path / "doc.json"
        write_canonical(path, payload)
        code = run([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("value", [2.7, "2"])
    def test_simplicial_set(self, tmp_path, capsys, value):
        data = nerve(inst.walking_iso(), 2).to_json()
        assert self._run(tmp_path, capsys, ["homology"], data)[0] == 0
        data["truncation"] = value
        code, out, err = self._run(tmp_path, capsys, ["homology"], data)
        assert (code, out) == (2, "")
        assert err.startswith("input error:")
        assert f"truncation {value!r} is not an integer" in err

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_simplicial_category(self, tmp_path, capsys, value):
        data = promote(inst.walking_iso(), 1).to_json()
        assert self._run(tmp_path, capsys, ["validate"], data)[0] == 0
        data["truncation"] = value
        for hom in data["homs"].values():
            hom["truncation"] = value
        code, out, err = self._run(tmp_path, capsys, ["validate"], data)
        assert (code, out) == (2, "")
        assert err.startswith("input error:")
        assert f"truncation {value!r} is not an integer" in err


class TestOverflowsValue:
    """``bounds.overflows`` of a ``localize`` output is a non-negative JSON
    integer.  A bool or a fraction used to declare the table partial, a
    negative count to declare it total, and a string gave a message that
    named no value: each is an input error (exit 2) naming the value."""

    @pytest.fixture(scope="class")
    def localized(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("localize")
        source, out = directory / "walking-weq.json", directory / "loc.json"
        write_canonical(source, inst.walking_weq().to_json())
        assert run(["localize", str(source), "--truncation", "1", "--width", "2",
                    "--out", str(out)]) == 0
        return json.loads(out.read_text())

    @pytest.mark.parametrize("command", ["validate", "flatten"])
    @pytest.mark.parametrize("value", [True, 0.5, -1, "3"])
    def test_localize_output(self, tmp_path, capsys, localized, command, value):
        data = json.loads(json.dumps(localized))
        assert data["bounds"]["overflows"] > 0
        assert TestTruncationValue._run(tmp_path, capsys, [command], data)[0] == 0
        data["bounds"]["overflows"] = value
        code, out, err = TestTruncationValue._run(tmp_path, capsys, [command], data)
        assert (code, out) == (2, "")
        assert err.startswith("input error:")
        assert f"overflows {value!r} is not a non-negative integer" in err


def test_hom_of_an_unknown_object_exits_two(tmp_path, capsys):
    """A hom keyed by an object outside ``objects`` would be dropped by
    every pipeline; the loader rejects it and names the pair."""
    data = promote(inst.walking_iso(), 1).to_json()
    data["objects"] = ["X"]
    path = tmp_path / "scat.json"
    write_canonical(path, data)
    code = run(["validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("input error:")
    assert "hom X|Y names an object not in objects" in captured.err


def _walking_iso_without_vu(mors):
    """The promoted walking iso with a sub, minus the composite v.u at
    level 0: the ambient lacks a composite its sub needs."""
    iso = inst.walking_iso()
    p = promote(iso, 1)
    data = relscat_to_json(RelativeSimplicialCategory(p, sub_from_morphisms(p, iso, mors)))
    entries = data["compose"]["X|Y|X"]["0"]
    data["compose"]["X|Y|X"]["0"] = [e for e in entries if e[:2] != ["v", "u"]]
    assert len(data["compose"]["X|Y|X"]["0"]) == len(entries) - 1
    return data


TRUNCATED = b'{"objects": ["X"], "morphisms": ["idX"'
NOT_UTF8 = b'{"objects": ["\xff\xfe"]}'


def _edited(data, **changes):
    return json.dumps(dict(data, **changes)).encode()


WEQ = inst.walking_weq().to_json()
TWO_ITEM_COMPOSE = _edited(WEQ, compose=WEQ["compose"] + [["idX", "idX"]])
WEQ_NOT_A_LIST = _edited(WEQ, weq=5)
# a well-formed file whose category lacks the composite w.idX
MISSING_COMPOSITE = _edited(WEQ, compose=[e for e in WEQ["compose"] if e != ["w", "idX", "w"]])
ISO1 = promote(inst.walking_iso(), 1)
RELSCAT = relscat_to_json(RelativeSimplicialCategory(
    ISO1, sub_from_morphisms(ISO1, inst.walking_iso(), ["idX", "idY"])))
INTEGER_NAME = json.dumps(RelativeCategory(inst.chain3(), ["idX", "idY", "idZ"]).to_json()).replace(
    '"gf"', "7").encode()
SUB_KEY_THREE_OBJECTS = _edited(RELSCAT, sub=dict(RELSCAT["sub"], **{"X|Y|Z": [[], []]}))
SUB_LEVEL_NOT_A_LIST = _edited(RELSCAT, sub=dict(RELSCAT["sub"], **{"X|Y": [5, []]}))
SUB_NAME_NOT_A_STRING = _edited(RELSCAT, sub=dict(RELSCAT["sub"], **{"X|Y": [["u", True], []]}))
ARROW1 = promote(inst.walking_arrow(), 1)
IDENTITY_ARROW1 = identity_simplicial_functor(ARROW1).to_json()
CUT_FACE = ARROW1.to_json()
CUT_FACE["homs"]["X|Y"]["faces"]["1"]["f"] = ["f"]
# the identity simplex map on a source whose simplex f lacks the face d_1
DK_SOURCE_MISSING_FACE = _edited(IDENTITY_ARROW1, source=CUT_FACE, target=ARROW1.to_json())
# a source "resolved next to the functor file" that is a directory
DK_SOURCE_IS_A_DIRECTORY = _edited(IDENTITY_ARROW1, source=".", target=ARROW1.to_json())
DICT_COMPOSITE = ARROW1.to_json()
DICT_COMPOSITE["compose"]["X|X|Y"]["0"][0][2] = {}
DICT_FACE = ARROW1.homs[("X", "Y")].to_json()
DICT_FACE["faces"]["1"]["f"] = [{}, "f"]


@pytest.mark.parametrize("argv,content", [
    (["validate", "F"], TRUNCATED),
    (["localize", "F", "--width", "2"], TRUNCATED),
    (["ho", "F", "--width", "2"], TRUNCATED),
    (["flatten", "F"], TRUNCATED),
    (["neglectable", "F"], TRUNCATED),
    (["dk-check", "F"], TRUNCATED),
    (["verify", "3.1", "F"], TRUNCATED),
    (["validate", "F"], NOT_UTF8),
    (["pi0", "F"], NOT_UTF8),
    (["verify", "2.4ii", "F"], NOT_UTF8),
    (["dk-check", "F"], json.dumps({"target": {}, "object_map": {}, "simplex_map": {}}).encode()),
    (["dk-check", "F"], json.dumps({"source": {}, "object_map": {}, "simplex_map": {}}).encode()),
    (["dk-check", "F"], b"[]"),
    (["validate", "F"], TWO_ITEM_COMPOSE),
    (["validate", "F"], WEQ_NOT_A_LIST),
    (["ho", "F", "--width", "2"], WEQ_NOT_A_LIST),
    (["verify", "3.1", "F"], WEQ_NOT_A_LIST),
    (["validate", "F"], SUB_KEY_THREE_OBJECTS),
    (["validate", "F"], SUB_LEVEL_NOT_A_LIST),
    (["verify", "2.4i", "F"], b"{}"),
    (["verify", "2.4i", "F"], b"[1,2]"),
    (["ho", "F", "--width", "2"], MISSING_COMPOSITE),
    (["localize", "F", "--width", "2"], MISSING_COMPOSITE),
    (["verify", "3.1", "F"], MISSING_COMPOSITE),
    (["verify", "3.2", "F"], MISSING_COMPOSITE),
    (["verify", "3.1", "F"], INTEGER_NAME),
    (["dk-check", "F"], DK_SOURCE_MISSING_FACE),
    (["dk-check", "F"], DK_SOURCE_IS_A_DIRECTORY),
    (["validate", "F"], json.dumps(DICT_COMPOSITE).encode()),
    (["pi0", "F"], json.dumps(DICT_FACE).encode()),
    (["neglectable", "F"], SUB_NAME_NOT_A_STRING),
    (["verify", "2.4ii", "F", "--truncation", "0"], json.dumps(RELSCAT).encode()),
    (["verify", "2.4ii", "F", "--width", "0"], json.dumps(RELSCAT).encode()),
    (["localize", "F", "--width", "2", "--pairs", "Q,R"],
     json.dumps(inst.walking_weq().to_json()).encode()),
], ids=["truncated-validate", "truncated-localize", "truncated-ho", "truncated-flatten",
        "truncated-neglectable", "truncated-dk-check", "truncated-verify",
        "not-utf8-validate", "not-utf8-pi0", "not-utf8-verify",
        "dk-check-without-source", "dk-check-without-target", "dk-check-not-an-object",
        "two-item-compose-validate", "weq-not-a-list-validate", "weq-not-a-list-ho",
        "weq-not-a-list-verify", "sub-key-three-objects", "sub-level-not-a-list",
        "verify-2.4i-empty-object", "verify-2.4i-list",
        "missing-composite-ho", "missing-composite-localize",
        "missing-composite-verify-3.1", "missing-composite-verify-3.2",
        "integer-morphism-name", "dk-check-source-missing-face",
        "dk-check-source-is-a-directory", "dict-composite-validate", "dict-face-pi0",
        "sub-name-not-a-string",
        "verify-2.4ii-truncation-zero", "verify-2.4ii-width-zero",
        "localize-unknown-pair-object"])
def test_malformed_input_exits_two(tmp_path, capsys, argv, content):
    """Exit 2, never 1, for input that does not parse or lacks a key;
    ``F`` stands for the input file."""
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert run([str(path) if a == "F" else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("argv", [["validate"], ["neglectable"], ["verify", "2.4ii"]])
@pytest.mark.parametrize("mors", [["idX", "idY", "u", "v"], ["idX", "idY", "u"]],
                         ids=["both-arrows", "one-arrow"])
def test_sub_composite_missing_from_ambient_exits_two(tmp_path, capsys, argv, mors):
    path = tmp_path / "relscat.json"
    write_canonical(path, _walking_iso_without_vu(mors))
    assert run(argv + [str(path)]) == 2
    assert "bounds insufficient" not in capsys.readouterr().err


def test_missing_sub_composite_is_reported_once(tmp_path, capsys):
    path = tmp_path / "relscat.json"
    write_canonical(path, _walking_iso_without_vu(["idX", "idY", "u", "v"]))
    assert run(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["violations"] == [
        "missing composite (X,Y,X) level 0: (v,u)"]


class TestOneParsePerRun:
    """``run`` builds its parser once per process and parses each input
    file once."""

    def test_consecutive_runs_share_no_options(self, files, tmp_path, capsys):
        from hamloc.cli import build_parser

        build_parser.cache_clear()
        out = tmp_path / "loc.json"
        argv = ["localize", files["walking-weq.json"], "--truncation", "1", "--width", "2"]
        assert run(["--verbose"] + argv + ["--pairs", "X,Y", "--out", str(out)]) == 0
        first = capsys.readouterr()
        assert list(json.loads(out.read_text())["homs"]) == ["X|Y"]
        assert "pair (X,Y)" in first.err
        out.unlink()
        assert run(argv + ["--pairs", "Y,X"]) == 0
        second = capsys.readouterr()
        # no --pairs X,Y kept from the first run, no --verbose, no --out
        assert list(json.loads(second.out)["homs"]) == ["Y|X"]
        assert second.err == "" and not out.exists()
        assert run(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["homs"]) == 4
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv", [["localize", "F", "--width", "2"],
                                      ["ho", "F", "--width", "2"],
                                      ["oracle-ho", "F"]])
    def test_input_read_once(self, tmp_path, capsys, monkeypatch, argv):
        import hamloc.cli

        read = []
        original = hamloc.cli.load_json
        monkeypatch.setattr(hamloc.cli, "load_json", lambda path: read.append(path) or
                            original(path))
        path = tmp_path / "input.json"
        write_canonical(path, inst.walking_weq().to_json())
        assert run([str(path) if a == "F" else a for a in argv]) == 0
        assert read == [str(path)]
        capsys.readouterr()
        # a missing and a malformed file are input errors, as before
        path.unlink()
        assert run([str(path) if a == "F" else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith("input error: cannot read")
        path.write_text('{"objects": [', encoding="utf-8")
        assert run([str(path) if a == "F" else a for a in argv]) == 2
        assert "not UTF-8 JSON" in capsys.readouterr().err


class TestVerify:
    def test_claim_31_walking_arrow_passes(self, files, capsys):
        assert run(["verify", "3.1", files["walking-arrow.json"],
                    "--truncation", "1", "--width", "4"]) == 0
        data = json.loads(_capture(capsys))
        assert data["verdict"] == "pass"

    def test_claim_24i_passes(self, files):
        assert run(["verify", "2.4i", files["claim24i.json"],
                    "--truncation", "1", "--width", "4"]) == 0

    def test_claim_24ii_inapplicable_exits_two(self, files):
        assert run(["verify", "2.4ii", files["relscat-arrow.json"],
                    "--truncation", "1", "--width", "4"]) == 2

    def test_claim_32_passes(self, files):
        assert run(["verify", "3.2", files["walking-arrow.json"],
                    "--truncation", "1", "--width", "4"]) == 0

    def test_verify_undetermined_exits_three(self, files):
        # width 1 cannot certify the roundtrip
        assert run(["verify", "3.1", files["walking-arrow.json"],
                    "--truncation", "1", "--width", "1"]) == 3


def _barred_objects():
    """The walking arrow, weak equivalences its identities, with objects
    ``a|b`` and ``c``."""
    text = json.dumps(inst.walking_arrow_relative().to_json())
    return json.loads(text.replace('"X"', '"a|b"').replace('"Y"', '"c"'))


class TestObjectNames:
    def test_localize_refuses_a_bar_in_an_object_name(self, tmp_path, capsys):
        # the output keys its homs x|y: a|b|c would not read back
        path = tmp_path / "barred.json"
        write_canonical(path, _barred_objects())
        assert run(["localize", str(path), "--truncation", "1", "--width", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "input error: object names may not contain '|'\n"

    @pytest.mark.parametrize("claim", ["3.1", "3.2"])
    def test_the_claims_accept_it(self, tmp_path, capsys, claim):
        path = tmp_path / "barred.json"
        write_canonical(path, _barred_objects())
        assert run(["verify", claim, str(path), "--truncation", "1", "--width", "4"]) == 0


def _iso_relscat_json():
    """The walking isomorphism, promoted to truncation 1, with every
    simplex in the sub."""
    iso = inst.walking_iso()
    p = promote(iso, 1)
    return relscat_to_json(RelativeSimplicialCategory(p, sub_from_morphisms(p, iso,
                                                                            iso.morphisms)))


# subs with names the homs lack, each with the violations ``validate``
# lists, in order; the ``neglectable`` and ``verify 2.4ii`` errors name the
# first
BAD_SUBS = {
    "unknown-names": (
        {"X|Y": [["nope", "u"], ["u", "zz"]], "Y|X": [["v"], ["aa", "v"]]},
        ["sub (X,Y) level 0: unknown simplex nope", "sub (X,Y) level 1: unknown simplex zz",
         "sub (Y,X) level 1: unknown simplex aa"]),
    "too-few-levels": ({"X|Y": [["u"]]}, ["sub (X,Y): wrong number of levels"]),
    "level-past-truncation": ({"X|Y": [["u"], ["u"], ["u"]]},
                              ["sub (X,Y): wrong number of levels"]),
    "unknown-names-past-truncation": (
        {"X|X": [["idX"], ["idX"], ["idX", "q"]], "Y|X": [["bogus", "v"], ["v"], ["v"]]},
        ["sub (X,X): wrong number of levels", "sub (Y,X): wrong number of levels"]),
}


@pytest.mark.parametrize("case", BAD_SUBS)
def test_a_sub_naming_what_its_hom_lacks(tmp_path, capsys, case):
    edits, violations = BAD_SUBS[case]
    data = _iso_relscat_json()
    data["sub"].update(edits)
    path = tmp_path / "bad-sub.json"
    write_canonical(path, data)
    assert run(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == (canonical_dumps({"kind": "relscat",
                                                   "violations": violations}), "")
    for argv in (["neglectable", str(path)], ["verify", "2.4ii", str(path)]):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", f"input error: invalid relative simplicial category: {violations[0]}\n")


class TestCrashes:
    """A crash never reads as "claim violated" (exit 1): running out of
    memory or recursion depth is exit 3, any other exception exit 4 with
    its traceback.  Each is raised from one patched stage."""

    STAGES = {
        # the DK certificate takes homology only at truncation >= 2
        "3.2": ("scat", "homology", ["--truncation", "2", "--width", "3"]),
        "3.1": ("hammock", "_pi0_walk", ["--truncation", "1", "--width", "2"]),
    }

    @staticmethod
    def _run(files, monkeypatch, claim, exc):
        import importlib

        module, stage, bounds = TestCrashes.STAGES[claim]

        def raising(*args, **kwargs):
            raise exc("raised by the patched stage")

        monkeypatch.setattr(importlib.import_module(f"hamloc.{module}"), stage, raising)
        return run(["verify", claim, files["walking-weq.json"], *bounds])

    @pytest.mark.parametrize("claim", ["3.1", "3.2"])
    def test_unpatched_runs_finish(self, files, capsys, claim):
        assert run(["verify", claim, files["walking-weq.json"], *self.STAGES[claim][2]]) in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("claim", ["3.1", "3.2"])
    @pytest.mark.parametrize("exc, kind", [(MemoryError, "memory"),
                                           (RecursionError, "recursion depth")])
    def test_exhaustion_is_bounds_insufficient(self, files, capsys, monkeypatch, claim, exc,
                                               kind):
        assert self._run(files, monkeypatch, claim, exc) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"bounds insufficient: verify ran out of {kind}\n"

    @pytest.mark.parametrize("claim", ["3.1", "3.2"])
    def test_any_other_exception_is_an_internal_error(self, files, capsys, monkeypatch,
                                                      claim):
        assert self._run(files, monkeypatch, claim, ZeroDivisionError) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("Traceback (most recent call last):")
        assert "ZeroDivisionError: raised by the patched stage" in out.err
        assert out.err.endswith("internal error: verify failed; this is a bug, not a verdict\n")

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupts_pass_through(self, files, monkeypatch, exc):
        with pytest.raises(exc):
            self._run(files, monkeypatch, "3.1", exc)


class TestDeterminismAndCache:
    def test_repeated_runs_byte_identical(self, files, capsys):
        assert run(["verify", "3.1", files["walking-arrow.json"],
                    "--truncation", "1", "--width", "4"]) == 0
        first = _capture(capsys)
        assert run(["verify", "3.1", files["walking-arrow.json"],
                    "--truncation", "1", "--width", "4"]) == 0
        second = _capture(capsys)
        assert first == second

    def test_cache_hit_matches_cold_output(self, files, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["--cache-dir", cache, "verify", "3.1", files["walking-arrow.json"],
                "--truncation", "1", "--width", "4"]
        assert run(argv) == 0
        cold = _capture(capsys)
        assert run(argv) == 0
        warm = _capture(capsys)
        assert cold == warm
        entries = list((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 1

    def test_cache_key_includes_bounds(self, files, tmp_path, capsys):
        cache = str(tmp_path / "cache2")
        base = ["--cache-dir", cache, "ho", files["walking-weq.json"]]
        assert run(base + ["--truncation", "1", "--width", "4"]) == 0
        _capture(capsys)
        assert run(base + ["--truncation", "1", "--width", "3"]) == 0
        _capture(capsys)
        assert len(list((tmp_path / "cache2").glob("*.json"))) == 2

    def test_localize_cached_output_identical(self, files, tmp_path, capsys):
        cache = str(tmp_path / "cache3")
        argv = ["--cache-dir", cache, "localize", files["chain.json"],
                "--truncation", "1", "--width", "2"]
        assert run(argv) == 0
        cold = _capture(capsys)
        assert run(argv) == 0
        assert cold == _capture(capsys)

    @pytest.mark.parametrize("entry", [b'{"exit": 0, "output": {"cla', b'{"output": 5}'],
                             ids=["truncated", "wrong-shape"])
    def test_corrupt_entry_is_a_miss_and_rewritten(self, files, tmp_path, capsys, entry):
        cache = tmp_path / "cache4"
        argv = ["--cache-dir", str(cache), "ho", files["walking-weq.json"], "--width", "2"]
        assert run(argv) == 0
        cold = _capture(capsys)
        (path,) = cache.glob("*.json")
        path.write_bytes(entry)
        assert run(argv) == 0
        assert _capture(capsys) == cold
        assert json.loads(path.read_text())["output"]["exit"] == 0
        assert run(argv) == 0
        assert _capture(capsys) == cold

    def test_cache_key_includes_source_digest(self, files, tmp_path, capsys, monkeypatch):
        import hamloc.cli

        cache = tmp_path / "cache5"
        argv = ["--cache-dir", str(cache), "ho", files["walking-weq.json"], "--width", "2"]
        assert run(argv) == 0
        monkeypatch.setattr(hamloc.cli, "source_digest", lambda: "edited sources")
        assert run(argv) == 0
        assert len(list(cache.glob("*.json"))) == 2

    def test_source_digest_only_with_cache(self, files, monkeypatch):
        import hamloc.cli

        def unreachable():
            raise AssertionError("digest computed with the cache off")

        monkeypatch.setattr(hamloc.cli, "source_digest", unreachable)
        monkeypatch.delenv("HAMLOC_CACHE_DIR", raising=False)
        assert run(["ho", files["walking-weq.json"], "--width", "2"]) == 0


class TestVerbose:
    def test_progress_goes_to_stderr(self, files, capsys):
        assert run(["--verbose", "localize", files["chain.json"],
                    "--truncation", "1", "--width", "2"]) == 0
        captured = capsys.readouterr()
        assert "pair (" in captured.err
        assert "pair (" not in captured.out

    # the compose line of ``localize --truncation 2 --width 3`` on each
    # stock instance, as asking about every pair one at a time counted it
    COMPOSE_LINES = {
        "terminal": (3, 3, 0, 0, 0),
        "walking-arrow-ids": (12, 12, 0, 0, 0),
        "walking-weq": (372, 112, 260, 0, 0),
        "span-one-leg": (482, 151, 331, 0, 0),
        "chain-weq": (22367, 1349, 17614, 3404, 0),
        "chain-head-weq": (583, 193, 390, 0, 0),
        "retract": (1968, 448, 981, 539, 0),
        "z2-groupoid": (41171, 4335, 20260, 16576, 0),
        "walking-iso-one-arrow": (804, 268, 418, 118, 0),
        "parallel-ids": (18, 18, 0, 0, 0),
    }

    @pytest.mark.parametrize("name", list(COMPOSE_LINES))
    def test_localize_compose_line_is_pinned(self, tmp_path, capsys, name):
        path = tmp_path / f"{name}.json"
        write_canonical(path, dict(inst.oracle_suite())[name].to_json())
        assert run(["--verbose", "localize", str(path), "--truncation", "2",
                    "--width", "3"]) == 0
        line = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("compose: ")]
        requests, composites, junction, cascade, pruned = self.COMPOSE_LINES[name]
        assert line == [f"compose: {requests} requests, {composites} composites, "
                        f"{junction} overflows known at the junction, "
                        f"{cascade} found by the cascade, {pruned} pruned by the enumeration"]

    def test_localize_counts_composite_requests(self, files, capsys):
        argv = ["localize", files["walking-weq.json"], "--truncation", "2", "--width", "3"]
        quiet = run(argv)
        plain = capsys.readouterr()
        assert plain.err == ""
        assert run(["--verbose"] + argv) == quiet
        loud = capsys.readouterr()
        assert loud.out == plain.out
        line = [ln for ln in loud.err.splitlines() if ln.startswith("compose: ")]
        requests, composites, junction, cascade, pruned = map(int, re.findall(r"\d+", line[0]))
        output = json.loads(plain.out)
        assert composites == sum(len(entries) for per_level in output["compose"].values()
                                 for entries in per_level.values())
        assert requests - composites == junction + cascade + pruned == \
            output["bounds"]["overflows"]
        assert junction > 0

    @pytest.mark.parametrize("name, max_len, code", [
        ("walking-weq", "4", 0),
        ("span-one-leg", "1", 3),
    ])
    def test_oracle_ho_counts_words_and_edges(self, tmp_path, capsys, name, max_len, code):
        path = tmp_path / f"{name}.json"
        write_canonical(path, dict(inst.oracle_suite())[name].to_json())
        argv = ["oracle-ho", str(path), "--max-len", max_len]
        assert run(argv) == code
        plain = capsys.readouterr()
        assert plain.err == ""
        assert run(["--verbose"] + argv) == code
        loud = capsys.readouterr()
        assert loud.out == plain.out
        classes = json.loads(plain.out)["classes"]
        # one line per pair saturated, up to the first undetermined one
        lines = loud.err.splitlines()
        assert len(lines) == len(classes)
        for line in lines:
            x, y, words, edges, count, verdict = re.fullmatch(
                r"pair \((\w+),(\w+)\): (\d+) words, (\d+) rewrite edges, "
                r"(\d+) classes, (determined|undetermined)", line).groups()
            assert int(count) == len(classes[f"{x}|{y}"])
            assert int(words) == sum(map(len, classes[f"{x}|{y}"]))
        assert lines[-1].endswith(", undetermined") == (code == 3)

    @staticmethod
    def _oracle_lines(tmp_path, capsys, name, max_len):
        """The ``oracle-ho --verbose`` progress lines of a stock instance as
        ``(x, y, words, edges, verdict)``, and the exit code."""
        path = tmp_path / f"{name}.json"
        write_canonical(path, dict(inst.oracle_suite())[name].to_json())
        code = run(["--verbose", "oracle-ho", str(path), "--max-len", str(max_len)])
        lines = []
        for line in capsys.readouterr().err.splitlines():
            x, y, words, edges, verdict = re.fullmatch(
                r"pair \(([^,]+),([^)]+)\): (\d+) words, (\d+) rewrite edges, "
                r"\d+ classes, (determined|undetermined)", line).groups()
            lines.append((x, y, int(words), int(edges), verdict))
        return lines, code

    @staticmethod
    def _reference_counts(r, x, y, max_len):
        """Words up to ``max_len + 2`` letters from x to y, and their single
        rewrites, by the string reference."""
        tables = _ReferenceTables(r)
        words = _reference_words(tables, x, y, max_len + 2)
        return len(words), sum(len(_reference_rewrites(tables, w)) for w in words)

    @pytest.mark.parametrize("name", sorted(dict(inst.oracle_suite())))
    def test_oracle_ho_counts_match_the_reference(self, tmp_path, capsys, name):
        r = dict(inst.oracle_suite())[name]
        lines, code = self._oracle_lines(tmp_path, capsys, name, 8)
        pairs = [(x, y) for x in r.cat.objects for y in r.cat.objects]
        assert [line[:2] for line in lines] == pairs[:len(lines)]
        assert code == (0 if len(lines) == len(pairs) else 3)
        for x, y, words, edges, _ in lines:
            assert (words, edges) == self._reference_counts(r, x, y, 8), (x, y)

    def test_oracle_ho_stops_at_the_first_undetermined_pair(self, tmp_path, capsys):
        """``span-one-leg`` at ``--max-len 1``: X|Y holds only the word
        b:p.f:q, longer than the bound, so the output stops there."""
        r = dict(inst.oracle_suite())["span-one-leg"]
        lines, code = self._oracle_lines(tmp_path, capsys, "span-one-leg", 1)
        assert code == 3
        assert [(x, y, verdict) for x, y, _, _, verdict in lines] == [
            ("S", "S", "determined"), ("S", "X", "determined"), ("S", "Y", "determined"),
            ("X", "S", "determined"), ("X", "X", "determined"), ("X", "Y", "undetermined"),
        ]
        for x, y, words, edges, _ in lines:
            assert (words, edges) == self._reference_counts(r, x, y, 1), (x, y)

    @pytest.mark.parametrize("claim, name, objects", [
        ("3.2", "walking-weq.json", ("X", "Y")),
        ("2.4ii", "relscat-iso.json", ("X", "Y")),
    ])
    def test_dimensionwise_counts_face_normal_forms_and_diagonal_images(
            self, files, capsys, claim, name, objects):
        argv = ["verify", claim, files[name], "--width", "2"]
        quiet = run(argv)
        plain = capsys.readouterr()
        assert run(["--verbose"] + argv) == quiet
        loud = capsys.readouterr()
        assert loud.out == plain.out
        lines = loud.err.splitlines()
        # every localization here is in full detail
        pairs = [ln for ln in lines if ": pair (" in ln]
        assert pairs and all(
            re.search(r" grids, \d+ face normal forms, \d+ extension rows$", ln) for ln in pairs)
        diagonal = [re.fullmatch(r"dimensionwise: diagonal \((\w+),(\w+)\): "
                                 r"(\d+) images, (\d+) normal forms", ln)
                    for ln in lines if "diagonal (" in ln]
        assert [m.group(1, 2) for m in diagonal] == [(x, y) for x in objects for y in objects]
        for m in diagonal:
            images, normal_forms = int(m.group(3)), int(m.group(4))
            assert 0 < normal_forms < images

    def test_full_detail_counts_extension_rows(self, files, capsys):
        """At truncation 1 every row built below a vertex row is a two-row
        grid, so a pair's extension rows bound its kept 1-simplices."""
        argv = ["localize", files["walking-weq.json"], "--truncation", "1", "--width", "3"]
        quiet = run(argv)
        plain = capsys.readouterr()
        assert run(["--verbose"] + argv) == quiet
        loud = capsys.readouterr()
        assert loud.out == plain.out
        assert "extension rows" not in plain.out + plain.err
        homs = json.loads(plain.out)["homs"]
        lines = [ln for ln in loud.err.splitlines() if ln.startswith("pair (")]
        assert len(lines) == len(homs)
        built = 0
        for line in lines:
            x, y, rows = re.fullmatch(r"pair \((\w+),(\w+)\): .*, \d+ face normal forms, "
                                      r"(\d+) extension rows", line).groups()
            assert int(rows) >= len(homs[f"{x}|{y}"]["levels"][1]), line
            built += int(rows)
        assert built > 0

    # (face normal forms, extension rows) of each full-detail pair line, by
    # stage and in line order, as the enumeration that built rows 0 and 1
    # in two passes (every row 0, then the rows below each one) counted them
    WALKING_WEQ_T1_W3 = [(1, 3), (2, 4), (2, 4), (1, 3)]
    CHAIN_WEQ_T1_W3 = [(1, 6), (4, 12), (3, 15), (4, 12), (6, 13), (4, 12), (3, 15), (4, 12),
                       (1, 6)]
    ENUMERATION_COUNTS = [
        ("localize", "walking-weq.json", ["--truncation", "1", "--width", "3"],
         {"": WALKING_WEQ_T1_W3}),
        ("localize", "walking-weq.json", ["--truncation", "2", "--width", "2"],
         {"": [(5, 11), (1, 4), (1, 4), (5, 11)]}),
        ("verify 3.2", "walking-weq.json", ["--width", "3"], {
            "input": WALKING_WEQ_T1_W3,
            "dimensionwise level 0": [(6, 12), (8, 14), (8, 17), (6, 12)],
            "dimensionwise level 1": [(13, 28), (24, 44), (12, 30), (13, 28)],
        }),
        # some reduced grids of the level spaces are pruned at height 1, and
        # no row is grown below them
        ("verify 3.2", "walking-weq.json", ["--truncation", "2", "--width", "3"], {
            "input": [(5, 17), (9, 17), (9, 17), (5, 17)],
            "dimensionwise level 0": [(24, 55), (32, 55), (37, 76), (24, 55)],
            "dimensionwise level 1": [(52, 116), (91, 150), (58, 132), (51, 116)],
            "dimensionwise level 2": [(96, 224), (213, 344), (83, 215), (93, 224)],
        }),
        ("localize", "chain-weq.json", ["--truncation", "1", "--width", "3"],
         {"": CHAIN_WEQ_T1_W3}),
        ("localize", "chain-weq.json", ["--truncation", "2", "--width", "2"],
         {"": [(8, 20), (5, 9), (1, 4), (5, 9), (9, 16), (5, 9), (1, 4), (5, 9), (8, 20)]}),
        ("verify 3.2", "chain-weq.json", ["--width", "3"], {
            "input": CHAIN_WEQ_T1_W3,
            "dimensionwise level 0": [(29, 131), (48, 200), (40, 204), (44, 164), (63, 213),
                                      (48, 200), (29, 155), (44, 164), (29, 131)],
            "dimensionwise level 1": [(195, 813), (300, 1506), (324, 1896), (186, 736),
                                      (290, 1246), (300, 1506), (94, 498), (186, 736),
                                      (195, 813)],
        }),
    ]

    @pytest.mark.parametrize("command, name, options, counts", ENUMERATION_COUNTS, ids=[
        " ".join([command, name] + options) for command, name, options, _ in ENUMERATION_COUNTS])
    def test_enumeration_counts_are_pinned(self, files, capsys, command, name, options,
                                           counts):
        """Rows 0 and 1 come from one column walk that drops a row-0 prefix
        with nothing below it, and no row is grown below a pruned grid; the
        counts pin the rows built and the distinct faces reduced."""
        run(["--verbose"] + command.split() + [files[name]] + options)
        got = {}
        for line in capsys.readouterr().err.splitlines():
            m = re.fullmatch(r"(?:(.*): )?pair \(\w+,\w+\): .*, (\d+) face normal forms, "
                             r"(\d+) extension rows", line)
            if m:
                got.setdefault(m.group(1) or "", []).append((int(m.group(2)), int(m.group(3))))
        assert got == counts

    @pytest.mark.parametrize("name, shared", [
        ("walking-arrow.json", True),
        ("walking-weq.json", False),
    ])
    def test_roundtrip_reports_a_shared_relocalization(self, files, capsys, name, shared):
        argv = ["verify", "3.1", files[name], "--width", "2"]
        quiet = run(argv)
        plain = capsys.readouterr()
        assert run(["--verbose"] + argv) == quiet
        loud = capsys.readouterr()
        assert loud.out == plain.out
        lines = loud.err.splitlines()
        note = "flattening: same weak equivalences as middle, relocalization shared"
        assert lines.count(note) == (1 if shared else 0)
        assert any(ln.startswith("flattening: pair (") for ln in lines) != shared
        # one walk per stage, the middle's first: every middle line comes first
        middle = [n for n, ln in enumerate(lines) if ln.startswith("middle: ")]
        flattening = [n for n, ln in enumerate(lines) if ln.startswith("flattening: ")]
        assert middle and flattening and max(middle) < min(flattening)

    @pytest.mark.parametrize("claim, name, stages", [
        ("3.1", "walking-weq.json", ("input", "middle", "flattening")),
        ("3.2", "walking-weq.json", ("input", "dimensionwise level 0", "dimensionwise level 1")),
        ("2.4ii", "relscat-iso.json", ("dimensionwise level 0", "dimensionwise level 1")),
        ("2.4i", "claim24i.json", ("u", "u+v")),
    ])
    def test_verify_progress_leaves_stdout_alone(self, files, capsys, claim, name, stages):
        argv = ["verify", claim, files[name], "--width", "2"]
        quiet = run(argv)
        plain = capsys.readouterr()
        assert plain.err == ""
        assert run(["--verbose"] + argv) == quiet
        loud = capsys.readouterr()
        assert loud.out == plain.out
        for stage in stages:
            assert f"{stage}: pair (" in loud.err
        if claim == "3.1":
            # the re-localizations run in pi0 detail and count their fallback
            assert "grids, " in loud.err and " fallback rows" in loud.err


class TestOracleHoAgainstReference:
    """``oracle-ho`` reads the classes' order, the composites and the text
    off trie node numbers; the earlier path over the word tuples of
    ``classes`` and ``class_of`` (``tests/oracles.py``) must give the same
    stdout bytes, ``--verbose`` lines and exit code."""

    @staticmethod
    def _check(path, capsys, r, max_len):
        write_canonical(path, r.to_json())
        code, output, lines = reference_oracle_ho(r, max_len)
        argv = ["oracle-ho", str(path), "--max-len", str(max_len)]
        assert run(argv) == code, max_len
        plain = capsys.readouterr()
        assert plain.out == canonical_dumps(output), max_len
        assert plain.err == ""
        assert run(["--verbose"] + argv) == code, max_len
        loud = capsys.readouterr()
        assert loud.out == plain.out
        assert loud.err == "".join(line + "\n" for line in lines), max_len
        return code

    @pytest.mark.parametrize("name", sorted(dict(inst.oracle_suite())))
    def test_oracle_suite(self, tmp_path, capsys, name):
        r = dict(inst.oracle_suite())[name]
        for max_len in range(1, 9):
            self._check(tmp_path / "r.json", capsys, r, max_len)

    def test_suite_has_both_verdicts(self):
        """The suite cases above include determined and undetermined runs."""
        codes = {reference_oracle_ho(r, max_len)[0]
                 for _, r in inst.oracle_suite() for max_len in (1, 8)}
        assert codes == {0, 3}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), max_len=st.integers(1, 6))
    def test_random_relative_categories(self, tmp_path, capsys, seed, max_len):
        rng = random.Random(seed)
        r = closed_weq(inst.random_dag_category(rng, max_objects=3, max_nonid=6), rng)
        self._check(tmp_path / "r.json", capsys, r, max_len)
