"""The report bytes of every benchmark operation at seed 1, plain and with
``--verbose``, against the digest lines recorded in
``tests/golden/report-digests.txt``, and those of the operations outside
the workloads against ``tests/golden/report-digests-extra.txt`` (see
``tests/report_digests.py``)."""

from pathlib import Path

import report_digests

RECORDED = Path(__file__).with_name("golden") / "report-digests.txt"
RECORDED_EXTRA = Path(__file__).with_name("golden") / "report-digests-extra.txt"


def test_benchmark_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("HAMLOC_CACHE_DIR", raising=False)
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    assert len(recorded) == 106
    assert report_digests.differences(recorded, report_digests.lines(tmp_path)) == []


def test_extra_reports_keep_their_bytes(tmp_path, monkeypatch):
    """Claim 3.1 at width 4 on five stock inputs with a non-identity weak
    equivalence, with ``--verbose``: the grid and fallback counts of the
    pi0 walks of the level-0 pairs reach stderr."""
    monkeypatch.delenv("HAMLOC_CACHE_DIR", raising=False)
    recorded = RECORDED_EXTRA.read_text(encoding="utf-8").splitlines()
    assert len(recorded) == len(report_digests.EXTRA)
    observed = report_digests.extra_lines(tmp_path)
    assert report_digests.differences(recorded, observed) == []
