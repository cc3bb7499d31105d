"""Every JSON loader answers a malformed document with InputError or a
value, never with another exception (which the CLI would report as exit
1, "claim violated"); so does every ``hamloc`` command that reads a
document, end to end."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from hamloc import instances as inst
from hamloc.cli import run
from hamloc.errors import InputError
from hamloc.fincat import FiniteCategory
from hamloc.hammock import hammock_localization
from hamloc.jsonio import write_canonical
from hamloc.relcat import RelativeCategory, validate_relative
from hamloc.scat import (
    RelativeSimplicialCategory,
    TruncatedSimplicialCategory,
    promote,
    relscat_from_json,
    relscat_to_json,
    simplicial_functor_from_json,
    sub_from_morphisms,
)
from hamloc.simplicial import TruncatedSimplicialSet, nerve
from helpers import identity_simplicial_functor

ARROW = promote(inst.walking_arrow(), 1)
ISO = inst.walking_iso()

# (loader, a valid document it reads)
LOADERS = {
    "fincat": (FiniteCategory.from_json, ISO.to_json()),
    "relcat": (RelativeCategory.from_json, inst.walking_weq().to_json()),
    "sset": (TruncatedSimplicialSet.from_json, nerve(inst.walking_arrow(), 1).to_json()),
    "scat": (TruncatedSimplicialCategory.from_json, ARROW.to_json()),
    "scat-partial": (TruncatedSimplicialCategory.from_json,
                     hammock_localization(inst.walking_weq(), 1, 2).to_json()),
    "relscat": (relscat_from_json, relscat_to_json(RelativeSimplicialCategory(
        promote(ISO, 1), sub_from_morphisms(promote(ISO, 1), ISO, ["idX", "idY", "u"])))),
    "functor": (lambda data: simplicial_functor_from_json(data, ARROW, ARROW),
                identity_simplicial_functor(ARROW).to_json()),
}

NAMES = ["X", "Y", "idX", "idY", "w", "u", "X|Y", "X|Y|X", "X|X|Y", "0", "1", "f", "b"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False)
           | st.sampled_from(NAMES) | st.text(max_size=2))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=2), inner,
                                     max_size=3)),
    max_leaves=6,
)


def _mutate(draw, data, replacements=JSON):
    """``data`` with one subtree replaced by a draw from ``replacements``
    (arbitrary JSON by default) or deleted."""
    if not isinstance(data, (dict, list)) or not data or draw(st.integers(0, 3)) == 0:
        return draw(replacements)
    out = dict(data) if isinstance(data, dict) else list(data)
    at = draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
    if draw(st.integers(0, 5)) == 0:
        del out[at]
    else:
        out[at] = _mutate(draw, out[at], replacements)
    return out


def _strings(data):
    """The set of strings in a JSON document, keys included."""
    if isinstance(data, str):
        return {data}
    if isinstance(data, dict):
        return set(data).union(*map(_strings, data.values()))
    if isinstance(data, list):
        return set().union(*map(_strings, data))
    return set()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_valid_documents_load(kind):
    loader, document = LOADERS[kind]
    assert loader(document) is not None


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_documents_raise_input_error_or_load(kind, data):
    loader, document = LOADERS[kind]
    mutated = _mutate(data.draw, document)
    try:
        loader(mutated)
    except InputError:
        pass


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=50, deadline=None)
@given(value=JSON)
def test_arbitrary_json_raises_input_error_or_loads(kind, value):
    try:
        LOADERS[kind][0](value)
    except InputError:
        pass


def _dk_check_files():
    """The two functor files of ``test_cli.TestDkAndNeglectable``: the
    identity on the promoted walking arrow, whose source and target are
    file names resolved next to the functor file, and the collapse of two
    points onto one, with both categories inline."""
    identity = dict(identity_simplicial_functor(ARROW).to_json(),
                    source="scat-arrow.json", target="scat-arrow.json")
    collapse = {
        "source": promote(inst.discrete(2), 1).to_json(),
        "target": promote(inst.terminal(), 1).to_json(),
        "object_map": {"X0": "*", "X1": "*"},
        "simplex_map": {
            "X0|X0": {"0": {"idX0": "id*"}, "1": {"idX0": "id*"}},
            "X1|X1": {"0": {"idX1": "id*"}, "1": {"idX1": "id*"}},
        },
    }
    return {"identity": identity, "collapse": collapse}


DK_CHECK_FILES = _dk_check_files()


@pytest.fixture(scope="module")
def dk_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("dk-check")
    write_canonical(directory / "scat-arrow.json", ARROW.to_json())
    return directory


@pytest.mark.parametrize("name", sorted(DK_CHECK_FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_dk_check_files_exit_with_a_verdict(dk_dir, name, data):
    """``hamloc dk-check`` end to end on a mutated functor file: a
    verdict or an input error (exit 0-3), never an exception."""
    path = dk_dir / f"functor-{name}.json"
    write_canonical(path, _mutate(data.draw, DK_CHECK_FILES[name]))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(["dk-check", str(path)]) in (0, 1, 2, 3)


RELSCAT_ISO = LOADERS["relscat"][1]
WALKING_WEQ = LOADERS["relcat"][1]

# command line before and after the file, the stock document it reads,
# and the exit codes it may give: only a command with a "fail" verdict
# may exit 1, so a crash reported as 1 is caught too
COMMANDS = {
    "validate": (["validate"], [], RELSCAT_ISO, (0, 2)),
    "nerve": (["nerve"], ["--truncation", "1"], ISO.to_json(), (0, 2)),
    "ho": (["ho"], ["--width", "2"], WALKING_WEQ, (0, 2, 3)),
    "oracle-ho": (["oracle-ho"], ["--max-len", "4"], WALKING_WEQ, (0, 2, 3)),
    "pi0": (["pi0"], [], nerve(ISO, 1).to_json(), (0, 2)),
    "homology": (["homology"], [], nerve(inst.walking_arrow(), 2).to_json(), (0, 2)),
    "flatten": (["flatten"], [], ARROW.to_json(), (0, 2, 3)),
    "neglectable": (["neglectable"], [], RELSCAT_ISO, (0, 1, 2)),
    "verify-3.2": (["verify", "3.2"], ["--width", "2"], WALKING_WEQ, (0, 1, 2, 3)),
    "verify-2.4ii": (["verify", "2.4ii"], ["--width", "2"], RELSCAT_ISO, (0, 1, 2, 3)),
}


@pytest.fixture(scope="module")
def command_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("commands")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_verdict(command_dir, command, data):
    """Each command end to end on a mutated stock document: an exit code
    it may give (0-3), never an exception.  Replacements are drawn from
    the document's own names as well as arbitrary JSON, so that some
    mutants get past the loaders to the command itself."""
    before, after, document, codes = COMMANDS[command]
    path = command_dir / f"{command}.json"
    names = st.sampled_from(sorted(_strings(document)))
    write_canonical(path, _mutate(data.draw, document, names | JSON))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(before + [str(path)] + after) in codes


@st.composite
def _drop_one_weq(draw):
    """A stock relative category with one non-identity weak equivalence
    dropped; the identities stay, so the mutant is valid exactly when the
    rest is still closed under composition."""
    stock = [(name, r) for name, r in inst.oracle_suite()
             if any(not r.cat.is_identity(w) for w in r.weq)]
    name, r = draw(st.sampled_from(stock))
    dropped = draw(st.sampled_from(sorted(w for w in r.weq if not r.cat.is_identity(w))))
    return name, RelativeCategory(r.cat, r.weq - {dropped})


VALID_MUTANTS = _drop_one_weq().filter(lambda mutant: not validate_relative(mutant[1]))


@pytest.mark.parametrize("command", ["ho", "oracle-ho"])
@settings(max_examples=25, deadline=None)
@given(mutant=VALID_MUTANTS)
def test_valid_mutants_exit_with_a_verdict(command_dir, command, mutant):
    """Mutants that pass validation reach the localization (``ho``) and
    the word oracle (``oracle-ho``): a verdict, never exit 1."""
    before, after, _, codes = COMMANDS[command]
    path = command_dir / f"valid-{command}.json"
    write_canonical(path, mutant[1].to_json())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(before + [str(path)] + after) in codes
