"""One benchmark process: ``setup``, ``measure`` or ``trace`` one workload.

``run.py`` starts this file once per role and reads the JSON object it
prints on its last line.  Set-up time starts at the top of this file,
before hamloc is imported.  Timings are reported in reference seconds
(see ``calibrate.py``), with the raw wall times kept beside them.
"""

import time

import calibrate

SPEED = calibrate.Speedometer()
if __name__ == "__main__":
    SPEED.start()
_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / "perfbench-runs"
sys.path.insert(0, str(ROOT / "src"))

from hamloc import cli  # noqa: E402
from hamloc.hammock import (  # noqa: E402
    Hammock,
    embed_morphism,
    hammock_localization,
    homotopy_category_of_localization,
    reduce_hammock,
)
from hamloc.relcat import RelativeCategory, oracle_ho_category  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def call(argv):
    """One CLI call with its stdout captured: (exit code, text, start, end).
    A command that raises counts as exit ``None``."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.run(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = None
    return code, out.getvalue(), start, time.perf_counter()


# --- checks of one run's outputs ------------------------------------------------


def _generators(r, width):
    """The library's component category of ``r`` at truncation 1 and, for
    each morphism of C and each weak equivalence read backwards, its class
    there."""
    loc = hammock_localization(r, 1, width)
    cat, classmap = homotopy_category_of_localization(loc)
    c = r.cat
    gens = []
    for m in c.morphisms:
        x, y = c.dom[m], c.cod[m]
        word = "" if c.is_identity(m) else f"f:{m}"
        gens.append((classmap[(x, y, embed_morphism(r, m).name)], word))
    for w in sorted(r.weq):
        if not c.is_identity(w):
            x, y = c.cod[w], c.dom[w]
            h = reduce_hammock(r, Hammock(x, y, ("b",), ((w,),), ()))
            gens.append((classmap[(x, y, h.name)], f"b:{w}"))
    return cat.to_json(), gens


def _ho_against_oracle(op, ho_text, oracle_text):
    ho, oracle = json.loads(ho_text), json.loads(oracle_text)
    problems = checks.category_laws(ho)
    if oracle["determined"]:
        problems += checks.category_laws(oracle["category"])
    library_ho, gens = _generators(op.subject, op.width)
    if {k: v for k, v in ho.items() if k != "bounds"} != library_ho:
        problems.append("ho output differs from the library's component category")
    return problems + checks.ho_matches_oracle(ho, oracle, gens)


def _oracle_invertible(c, u, names):
    """Which of ``names`` the word oracle finds invertible in C[u^-1]."""
    result = oracle_ho_category(RelativeCategory(c, u), workloads.ORACLE_MAX_LEN)
    if result.status != "ok":
        return None
    cat = result.category.to_json()
    found = {}
    for m in names:
        x, y = c.dom[m], c.cod[m]
        word = () if c.is_identity(m) else (("f", m),)
        k = result.pair_homsets[(x, y)].class_index(word)
        found[m] = checks.invertible(cat, result.class_names[(x, y, k)])
    return found


def _certify_expectation(op):
    if op.command == "verify_3.2":
        return "pass", {"localization stability": "stable",
                        "image of weq neglectable": "yes", "DK certificate": "pass_partial"}
    if op.command == "verify_2.4ii":
        return "pass", {"sub neglectable": "yes", "localization stability": "stable",
                        "DK certificate": "pass_partial"}
    c, u, v = op.subject
    invertible = _oracle_invertible(c, u, v)
    if invertible is None:
        return None, {}
    if all(invertible.values()):
        return "pass", {"localization(u) stability": "stable",
                        "v neglectable in localization(u)": "yes",
                        "localization(u+v) stability": "stable",
                        "DK certificate": "pass_partial"}
    return "inapplicable", {"v neglectable in localization(u)": "no"}


def check_outputs(ops, outputs):
    """Problems per operation index, found in the first pass's outputs."""
    problems = {}
    by_key = {(op.command, op.label): outputs[i] for i, op in enumerate(ops)}
    for i, op in enumerate(ops):
        code, text = outputs[i]
        if code is None:
            problems[i] = ["the command raised"]
            continue
        try:
            data = json.loads(text)
            if op.command == "verify_3.1":
                found = checks.roundtrip_report(data, code)
                r_path = op.argv[2]
                ho_text = call(["ho", r_path, "--truncation", "1", "--width", str(op.width)])[1]
                oracle_text = call(["oracle-ho", r_path, "--max-len",
                                    str(workloads.ORACLE_MAX_LEN)])[1]
                found += _ho_against_oracle(op, ho_text, oracle_text)
            elif op.command == "localize":
                found = checks.localize_laws(data)
                if code != (0 if data["bounds"]["verdict"] == "stable" else 3):
                    found.append(f"exit {code} for verdict {data['bounds']['verdict']}")
                found += checks.components_match(data, json.loads(by_key[("ho", op.label)][1]),
                                                 json.loads(by_key[("oracle-ho", op.label)][1]))
            elif op.command == "ho":
                found = []
                if code != (0 if data["bounds"]["verdict"] == "stable" else 3):
                    found.append(f"exit {code} for verdict {data['bounds']['verdict']}")
                found += _ho_against_oracle(op, text, by_key[("oracle-ho", op.label)][1])
            elif op.command == "oracle-ho":
                found = [] if code == (0 if data["determined"] else 3) else [f"exit {code}"]
            else:
                verdict, expected = _certify_expectation(op)
                if verdict is None:
                    found = ["the word oracle is undetermined, so no verdict is fixed"]
                else:
                    found = checks.claim_report(data, code, verdict, expected)
        except (ValueError, KeyError, TypeError) as exc:
            found = [f"malformed output: {exc!r}"]
        if found:
            problems[i] = found
    return problems


# --- roles ----------------------------------------------------------------------


def _pass_metrics(ops, passes):
    """Median over passes of the pass total and of each command's sum."""
    by_command = {}
    for i, op in enumerate(ops):
        by_command.setdefault(op.command, []).append(i)
    per_command = {
        f"{command}_s": statistics.median(sum(p[i] for i in idx) for p in passes)
        for command, idx in by_command.items()
    }
    return statistics.median(sum(p) for p in passes), per_command


def measure(args, ops, setup):
    """Whole passes over ``ops`` until the next would end after
    ``--seconds`` (at least two, so outputs can be compared across
    passes), then the output checks."""
    intervals, first, differs = [], {}, set()
    start = time.perf_counter()
    while True:
        spans = []
        for i, op in enumerate(ops):
            code, text, begin, end = call(op.argv)
            spans.append((begin, end))
            if not intervals:
                first[i] = (code, text)
            elif (code, text) != first[i]:
                differs.add((len(intervals), i))
        intervals.append(spans)
        elapsed = time.perf_counter() - start
        if len(intervals) >= 2 and elapsed * (len(intervals) + 1) / len(intervals) > args.seconds:
            break
    SPEED.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = SPEED.reference_seconds(*setup)
    passes = [[SPEED.reference_seconds(b, e) for b, e in spans] for spans in intervals]
    walls = [[e - b for b, e in spans] for spans in intervals]
    problems = check_outputs(ops, first)
    failed = sum(1 for p in range(len(passes)) for i in range(len(ops))
                 if i in problems or (p, i) in differs)
    for i, found in sorted(problems.items()):
        print(f"FAILED {ops[i].name}: {'; '.join(found[:3])}", file=sys.stderr)
    for p, i in sorted(differs):
        print(f"FAILED {ops[i].name}: pass {p + 1} output differs from pass 1", file=sys.stderr)
    cli_s, per_command = _pass_metrics(ops, passes)
    wall_s, wall_per_command = _pass_metrics(ops, walls)
    for name, value in per_command.items():
        print(f"  {name:<16} {value:10.4f} s  ({wall_per_command[name]:.4f} s wall, "
              f"median of {len(passes)} passes)")
    return {
        "attempted": len(passes) * len(ops),
        "failed": failed,
        "metrics": {"setup_s": setup_s, "cli_s": cli_s, "peak_rss_mib": peak_rss_mib},
        "units": {"setup_s": "s", "cli_s": "s", "peak_rss_mib": "MiB"},
        "per_command": per_command,
        "wall": {"cli_s": wall_s, "per_command": wall_per_command},
        "passes": [sum(p) for p in passes],
    }


def trace_run(args, ops):
    """One pass: each command untraced, then its traced rebuild."""
    tracer = tracing.Tracer()
    outputs, problems, untraced = {}, {}, []
    for i, op in enumerate(ops):
        code, text, begin, end = call(op.argv)
        untraced.append((begin, end))
        outputs[i] = (code, text)
        rebuilt, certs = tracing.rebuild(tracer, op)
        found = []
        if code is not None and rebuilt != text:
            found.append("traced rebuild disagrees with the command's report")
        for cert in certs:
            if cert.verdict == "pass_partial" and not (
                    cert.ho_ok and all(p.pi0_ok and p.homology_ok for p in cert.pairs.values())):
                found.append("pass_partial certificate with a failed pair")
        if found:
            problems[i] = found
    SPEED.stop()
    for span in tracer.spans:
        if span["parent"] is None:
            span["scale"] = SPEED.reference_seconds(span["start"], span["end"]) / (
                span["end"] - span["start"])
    untraced_s = sum(SPEED.reference_seconds(b, e) for b, e in untraced)
    for i, found in check_outputs(ops, outputs).items():
        problems.setdefault(i, []).extend(found)
    for i, found in sorted(problems.items()):
        print(f"FAILED {ops[i].name}: {'; '.join(found[:3])}", file=sys.stderr)
    metrics = tracing.layer_metrics(tracer, untraced_s)
    RUNS.mkdir(exist_ok=True)
    tree_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
    tree_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "untraced_s": untraced_s, "spans": tracer.tree()},
                                    indent=1), encoding="utf-8")
    duration = tracer.durations()
    by_command = {}
    for span in tracer.spans:
        if span["parent"] is None:
            by_command[span["name"]] = by_command.get(span["name"], 0.0) + duration[span["id"]]
    for name, seconds in by_command.items():
        print(f"  {name:<22} {seconds:10.4f} s traced")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.4f}")
    print(f"  span tree: {tree_path.relative_to(ROOT)}")
    return {"attempted": len(ops), "failed": len(problems), "metrics": metrics,
            "units": {name: unit for name, unit, _ in tracing.PER_LAYER}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "measure", "trace"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    ops = workloads.build(args.workload, args.seed, RUNS / f"inputs-{args.workload}")
    setup = (_START, time.perf_counter())
    if args.role == "setup":
        SPEED.stop()
        result = {"setup_s": SPEED.reference_seconds(*setup)}
    elif args.role == "measure":
        result = measure(args, ops, setup)
    else:
        result = trace_run(args, ops)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
