"""Digests of the report bytes of every benchmark operation.

    PYTHONHASHSEED=1 python3 tests/report_digests.py DIR [--seed 1] > digests.txt
    python3 tests/report_digests.py DIR --check tests/golden/report-digests.txt
    python3 tests/report_digests.py DIR --extra --check tests/golden/report-digests-extra.txt

Builds the operations of the three workloads (``perfbench/workloads.py``),
writing their inputs into ``DIR``, and runs each through ``hamloc.cli.run``
in this process, plain and with ``--verbose``.  Prints one line per run:
the exit code, the SHA-256 of stdout, the SHA-256 of stderr, and the
command line with ``DIR`` left out.  Run it from two checkouts with the
same ``DIR``, seed and ``PYTHONHASHSEED``, and diff the outputs: equal
lines mean equal report bytes.  The package and the workloads are those
of the checkout the script lives in (``src`` and ``perfbench`` beside
``tests``), and the result cache is off, as in the benchmark.  With
``--check FILE`` it prints only the lines that differ from ``FILE`` (the
recorded line after ``-``, this checkout's after ``+``) and exits 1 if
any does; ``tests/golden/report-digests.txt`` holds the lines of seed 1,
recorded at commit 34d4885; the stderr digests of the four ``--verbose
verify 3.1`` lines were recorded again when claim 3.1 came to walk only
its level-0 pairs, which its stdout does not show.

With ``--extra`` it digests, instead, the operations outside the
workloads (:data:`EXTRA`), each with ``--verbose`` only: claim 3.1 at
width 4 on the stock inputs with a non-identity weak equivalence that
the workloads leave out of it.  ``tests/golden/report-digests-extra.txt``
holds their lines; their stdout digests are those of commit a58cf8e,
which walked every pair and took 4 to 17 s on each.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hamloc import cli  # noqa: E402
import workloads  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; a command
    that raises reports the exception's type as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


# the operations outside the workloads: (the workload whose inputs an
# operation reads, the command with its input's file name)
EXTRA = (
    ("roundtrip", ["verify", "3.1", "walking-weq.json", "--truncation", "1", "--width", "4"]),
) + tuple(
    ("materialize", ["verify", "3.1", f"{label}.json", "--truncation", "1", "--width", "4"])
    for label in ("span-one-leg", "chain-head-weq", "retract", "walking-iso-one-arrow"))


def line(directory, argv):
    """The digest line of one CLI call, ``directory`` left out."""
    code, out, err = run(argv)
    shown = " ".join(argv).replace(str(directory) + "/", "")
    return f"{code} {digest(out)} {digest(err)} {shown}"


def lines(directory, seed=1):
    """The digest line of each benchmark operation at ``seed``, plain and
    with ``--verbose``, its inputs written under ``directory``."""
    directory = Path(directory).resolve()
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, seed, directory / workload):
            for argv in (op.argv, ["--verbose"] + op.argv):
                yield line(directory, argv)


def extra_lines(directory, seed=1):
    """The digest line of each operation of :data:`EXTRA` with
    ``--verbose``, its workload's inputs at ``seed`` written under
    ``directory``."""
    directory = Path(directory).resolve()
    for workload, (command, claim, name, *options) in EXTRA:
        workloads.build(workload, seed, directory / workload)
        path = str(directory / workload / name)
        yield line(directory, ["--verbose", command, claim, path, *options])


def differences(recorded, observed):
    """``-recorded`` and ``+observed`` for each line number where the two
    differ, a missing line read as empty."""
    out = []
    for want, got in itertools.zip_longest(recorded, observed, fillvalue=""):
        if want != got:
            out += [f"-{want}", f"+{got}"]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="where the workload inputs are written")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--extra", action="store_true",
                        help="digest the operations outside the workloads instead")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="print only the lines that differ from FILE; exit 1 if any does")
    args = parser.parse_args()
    os.environ.pop("HAMLOC_CACHE_DIR", None)
    observed = (extra_lines if args.extra else lines)(args.directory, args.seed)
    if args.check is None:
        for text in observed:
            print(text, flush=True)
        return 0
    recorded = args.check.read_text(encoding="utf-8").splitlines()
    diff = differences(recorded, observed)
    for text in diff:
        print(text)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
