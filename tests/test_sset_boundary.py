"""Golden reports of the simplicial-set JSON boundary.

``validate``, ``pi0`` and ``homology`` read a simplicial set by name and
check it on numbers.  Each fixture in ``tests/golden/sset-*.json`` holds
one malformed input (an edit of the nerve of the walking arrow at
truncation 2) and, for each of the three commands, the exit code, stdout
and stderr.  The fixtures were recorded at commit c1eda61, before the
simplicial sets were numbered; the two truncation fixtures were recorded
when a non-integer truncation became an input error (it was rounded by
``int`` before, and the commands exited 0 at truncation 2).  To record them again with the package on
``PYTHONPATH``:

    python tests/test_sset_boundary.py record
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

from hamloc import instances as inst
from hamloc.cli import run
from hamloc.jsonio import write_canonical
from hamloc.simplicial import nerve

GOLDEN = Path(__file__).with_name("golden")
COMMANDS = ("validate", "pi0", "homology")


def _edits():
    """Case name -> an edit of the nerve's JSON, in place."""

    def drop_face(d):
        del d["faces"]["1"]["f"]

    def short_images(d):
        d["faces"]["2"]["f|idY"] = ["idY", "f"]

    def unknown_face(d):
        d["faces"]["1"]["f"] = ["Z", "X"]

    def unknown_degeneracy(d):
        d["degeneracies"]["1"]["f"] = ["idX|f", "f|f"]

    def no_degeneracies(d):
        del d["degeneracies"]

    def non_string_outside(d):
        d["faces"]["1"]["g"] = ["Y", 3]

    def duplicate_names(d):
        d["levels"][1].append("f")

    def short_levels(d):
        del d["levels"][2]

    def broken_identity(d):
        d["faces"]["2"]["idX|f"] = ["f", "idX", "idX"]

    def faces_as_list(d):
        d["faces"] = [d["faces"]["1"], d["faces"]["2"]]

    def non_integer_key(d):
        d["faces"]["one"] = d["faces"].pop("1")

    def fractional_truncation(d):
        d["truncation"] = 2.7

    def string_truncation(d):
        d["truncation"] = "2"

    return {
        "missing-face": drop_face,
        "short-image-list": short_images,
        "unknown-face-image": unknown_face,
        "unknown-degeneracy-image": unknown_degeneracy,
        "missing-degeneracies": no_degeneracies,
        "non-string-image-outside-levels": non_string_outside,
        "duplicate-names": duplicate_names,
        "levels-shorter-than-truncation": short_levels,
        "broken-simplicial-identity": broken_identity,
        "faces-as-list": faces_as_list,
        "non-integer-level-key": non_integer_key,
        "fractional-truncation": fractional_truncation,
        "string-truncation": string_truncation,
    }


def _inputs():
    base = nerve(inst.walking_arrow(), 2).to_json()
    out = {}
    for name, edit in _edits().items():
        data = copy.deepcopy(base)
        edit(data)
        out[name] = data
    return out


def _runs(directory: Path, payload):
    path = directory / "input.json"
    write_canonical(path, payload)
    runs = []
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, str(path)])
        runs.append({"command": command, "exit": code,
                     "stdout": out.getvalue(), "stderr": err.getvalue()})
    return runs


def _fixture_names():
    return sorted(_edits())


@pytest.mark.parametrize("name", _fixture_names())
def test_sset_boundary(tmp_path, name):
    fixture = json.loads((GOLDEN / f"sset-{name}.json").read_text(encoding="utf-8"))
    assert _runs(tmp_path, fixture["input"]) == fixture["runs"]


def record():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in _inputs().items():
            fixture = {"input": payload, "runs": _runs(Path(tmp), payload)}
            (GOLDEN / f"sset-{name}.json").write_text(
                json.dumps(fixture, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: python tests/test_sset_boundary.py record")
    record()
