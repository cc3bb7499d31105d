"""The report bytes of every benchmark operation at seed 1, plain and with
``--verbose``, against the digest lines recorded in
``tests/golden/report-digests.txt`` (see ``tests/report_digests.py``)."""

from pathlib import Path

import report_digests

RECORDED = Path(__file__).with_name("golden") / "report-digests.txt"


def test_benchmark_reports_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("HAMLOC_CACHE_DIR", raising=False)
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    assert len(recorded) == 106
    assert report_digests.differences(recorded, report_digests.lines(tmp_path)) == []
