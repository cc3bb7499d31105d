"""Digests of the report bytes of every benchmark operation.

    PYTHONHASHSEED=1 python3 tests/report_digests.py DIR [--seed 1] > digests.txt

Builds the operations of the three workloads (``perfbench/workloads.py``),
writing their inputs into ``DIR``, and runs each through ``hamloc.cli.run``
in this process, plain and with ``--verbose``.  Prints one line per run:
the exit code, the SHA-256 of stdout, the SHA-256 of stderr, and the
command line with ``DIR`` left out.  Run it from two checkouts with the
same ``DIR``, seed and ``PYTHONHASHSEED``, and diff the outputs: equal
lines mean equal report bytes.  The package and the workloads are those
of the checkout the script lives in (``src`` and ``perfbench`` beside
``tests``), and the result cache is off, as in the benchmark.
"""

import argparse
import contextlib
import hashlib
import io
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="where the workload inputs are written")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    os.environ.pop("HAMLOC_CACHE_DIR", None)
    directory = args.directory.resolve()
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, args.seed, directory / workload):
            for argv in (op.argv, ["--verbose"] + op.argv):
                code, out, err = run(argv)
                shown = " ".join(argv).replace(str(directory) + "/", "")
                print(code, digest(out), digest(err), shown, flush=True)


if __name__ == "__main__":
    main()
