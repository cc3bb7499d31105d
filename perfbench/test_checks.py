"""Self-tests of the benchmark's output checks: each accepts a real
output and rejects a mutated one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from hamloc import instances as inst  # noqa: E402
from hamloc.hammock import hammock_localization  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _suite(label):
    return dict(inst.oracle_suite())[label]


def _ops(workload, tmp_path):
    return {op.name: op for op in workloads.build(workload, 1, tmp_path)}


def _output(op):
    code, text = worker.call(op.argv)[:2]
    return code, json.loads(text)


@pytest.fixture(scope="module")
def parallel(tmp_path_factory):
    """localize, ho and oracle-ho outputs of the parallel pair, whose
    hom X -> Y has two components."""
    ops = _ops("materialize", tmp_path_factory.mktemp("inputs"))
    loc = hammock_localization(_suite("parallel-ids"), 2, 4).to_json()
    _, ho = _output(ops["ho parallel-ids"])
    _, oracle = _output(ops["oracle-ho parallel-ids"])
    return ops, loc, ho, oracle


def _swap_two_composites(entries):
    """Swap the results of the first two entries that differ in result."""
    for j in range(1, len(entries)):
        if entries[j][2] != entries[0][2]:
            entries[0][2], entries[j][2] = entries[j][2], entries[0][2]
            return
    raise AssertionError("no two different composites to swap")


# --- localize ------------------------------------------------------------------


def test_localize_laws_accept_real_output():
    loc = hammock_localization(_suite("walking-weq"), 2, 4).to_json()
    assert checks.localize_laws(loc) == []


def test_swapped_composite_is_rejected():
    loc = hammock_localization(_suite("walking-weq"), 2, 4).to_json()
    _swap_two_composites(loc["compose"]["X|X|Y"]["1"])
    assert checks.localize_laws(loc)


def test_unlisted_composite_without_overflow_is_rejected():
    loc = hammock_localization(_suite("walking-weq"), 2, 4).to_json()
    loc["compose"]["X|Y|Y"]["0"].pop()
    assert any("composable pairs" in p for p in checks.localize_laws(loc))


def test_broken_face_is_rejected():
    loc = hammock_localization(_suite("walking-weq"), 2, 4).to_json()
    hom = loc["homs"]["X|Y"]
    v, w = hom["levels"][0][:2]
    hom["faces"]["1"][hom["degeneracies"]["0"][v][0]] = [w, v]
    assert any("d0 s0" in p for p in checks.localize_laws(loc))


def test_components_match_and_merged_component_is_rejected(parallel):
    _, loc, ho, oracle = parallel
    assert checks.components_match(loc, ho, oracle) == []
    merged = copy.deepcopy(loc)
    vertices = merged["homs"]["X|Y"]["levels"][0]
    assert len(vertices) == 2
    edge = next(iter(merged["homs"]["X|Y"]["faces"]["1"]))
    merged["homs"]["X|Y"]["faces"]["1"][edge] = list(vertices)
    assert checks.components_match(merged, ho, oracle)


# --- ho against the oracle ---------------------------------------------------------


def test_ho_matches_oracle_on_real_output(parallel):
    ops, _, ho, oracle = parallel
    assert worker._ho_against_oracle(ops["ho parallel-ids"], json.dumps(ho),
                                     json.dumps(oracle)) == []


def test_merged_ho_class_is_rejected(parallel):
    ops, _, ho, oracle = parallel
    _, gens = worker._generators(_suite("parallel-ids"), 4)
    merged = json.loads(json.dumps(ho).replace("X->Y#1", "X->Y#0"))
    merged["morphisms"] = [m for i, m in enumerate(merged["morphisms"])
                           if m not in merged["morphisms"][:i]]
    assert checks.ho_matches_oracle(merged, oracle, gens)


def test_swapped_oracle_composite_is_rejected(tmp_path):
    ops = _ops("materialize", tmp_path)
    _, ho = _output(ops["ho walking-weq"])
    _, oracle = _output(ops["oracle-ho walking-weq"])
    _, gens = worker._generators(_suite("walking-weq"), 4)
    assert checks.ho_matches_oracle(ho, oracle, gens) == []
    _swap_two_composites(oracle["category"]["compose"])
    assert checks.ho_matches_oracle(ho, oracle, gens)
    assert checks.category_laws(oracle["category"])


# --- claim reports ------------------------------------------------------------------


def test_roundtrip_flipped_verdict_is_rejected(tmp_path):
    op = _ops("roundtrip", tmp_path)["verify_3.1 terminal"]
    code, report = _output(op)
    assert checks.roundtrip_report(report, code) == []
    report["verdict"] = "fail"
    assert checks.roundtrip_report(report, 1)
    report["verdict"] = "undetermined"
    assert checks.roundtrip_report(report, 3)


def test_certify_flipped_verdicts_are_rejected(tmp_path):
    ops = _ops("certify", tmp_path)
    chosen = [ops["verify_2.4i chain3-f"], ops["verify_2.4i chain3-ids"],
              ops["verify_3.2 walking-weq"], ops["verify_2.4ii involution-group"]]
    outputs = {}
    for i, op in enumerate(chosen):
        code, text = worker.call(op.argv)[:2]
        outputs[i] = (code, text)
    assert worker.check_outputs(chosen, outputs) == {}
    flipped = {}
    for i, (code, text) in outputs.items():
        report = json.loads(text)
        report["verdict"] = "pass" if report["verdict"] != "pass" else "inapplicable"
        flipped[i] = (checks.EXIT[report["verdict"]], json.dumps(report))
    assert sorted(worker.check_outputs(chosen, flipped)) == [0, 1, 2, 3]


def test_wrong_exit_code_is_rejected(tmp_path):
    op = _ops("certify", tmp_path)["verify_3.2 terminal"]
    code, text = worker.call(op.argv)[:2]
    assert worker.check_outputs([op], {0: (3, text)}) == {0: ["exit 3 for verdict pass"]}
