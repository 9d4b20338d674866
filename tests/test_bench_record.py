"""``scripts/bench_record.py`` names the code it measured."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_record(monkeypatch):
    """The script imported as a module, with ``perfbench/compare.py`` on
    the path, writing no bytecode, and dropped again after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    yield importlib.import_module("bench_record")
    for name in ("bench_record", "compare"):
        sys.modules.pop(name, None)


def record(seed: int, source: str) -> dict:
    """A minimal record of one run, as ``perfbench/run.py`` writes it."""
    return {"workload": "cover-scaling", "trace": 0, "seed": seed,
            "seconds": 30, "rounds": [{}], "attempted": 1, "failed": 0,
            "digest": "d", "digest_state": "MATCH", "problems": [],
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
            "env": {"git_sha": None, "seed": seed}, "source_sha256": source}


def test_source_hash_names_the_measured_code(bench_record, tmp_path):
    package = tmp_path / "src" / "semolab"
    package.mkdir(parents=True)
    (package / "engine.py").write_bytes(b"x = 1\n")
    (package / "_loop.c").write_bytes(b"int x;\n")
    (package / "notes.txt").write_bytes(b"not source")
    before = bench_record.source_sha256(str(tmp_path))
    (package / "notes.txt").write_bytes(b"still not source")
    assert bench_record.source_sha256(str(tmp_path)) == before
    (package / "_loop.c").write_bytes(b"int y;\n")
    after = bench_record.source_sha256(str(tmp_path))
    assert after != before
    # the checkout's own source hashes the same way every time
    assert bench_record.source_sha256(str(ROOT)) == \
        bench_record.source_sha256(str(ROOT))
    runs = {("cover-scaling", 0): [record(1, before), record(2, after)]}
    summary = bench_record.summary("label", runs)
    assert summary["git_shas"] == ["None"]
    assert summary["source_sha256s"] == sorted([before, after])
