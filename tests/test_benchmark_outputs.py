"""The benchmark's own output checks, run on every operation of its three
workloads at seed 1: each command's report must pass
``worker.check_outputs``, and the traced rebuild from public calls
(``tracing.rebuild``) must give the command's bytes.  A change that
breaks either fails here, before any benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH)]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_one_outputs_pass_the_benchmark_checks(tmp_path, workload):
    ops = workloads.build(workload, 1, tmp_path)
    outputs = {i: worker.call(op.argv)[:2] for i, op in enumerate(ops)}
    assert worker.check_outputs(ops, outputs) == {}
    tracer = tracing.Tracer()
    for i, op in enumerate(ops):
        code, text = outputs[i]
        assert code is not None, op.name
        assert tracing.rebuild(tracer, op)[0] == text, op.name
