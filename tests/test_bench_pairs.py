import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "rate", "better": "higher"}]


def _write(out_dir, workload, seed, wall, rate, mtime, correct=True):
    path = out_dir / f"result-{workload}-seed{seed}-trace0.json"
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "rate": {"value": rate, "unit": "1/s"}}}
    path.write_text(json.dumps({"meta": {}, "result": result}))
    os.utime(path, (mtime, mtime))


@pytest.fixture
def dirs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    walls_p = [1.0, 1.2, 0.9, 1.1, 1.05]
    walls_c = [0.8, 0.85, 0.95, 0.7, 1.05]
    for i, (wp, wc) in enumerate(zip(walls_p, walls_c)):
        # the side that runs first alternates: parent on even pairs
        tp, tc = (100 * i, 100 * i + 50) if i % 2 == 0 else (100 * i + 50, 100 * i)
        _write(parent, "sim", 10 + i, wp, 2.0, tp)
        _write(change, "sim", 10 + i, wc, 2.0 + i, tc, correct=i != 3)
    # unpaired and traced files are left out
    _write(parent, "sim", 99, 5.0, 1.0, 0)
    (change / "result-sim-seed10-trace1.json").write_text("{}")
    return parent, change, walls_p, walls_c


def test_pair_summary(dirs):
    parent, change, walls_p, walls_c = dirs
    sim = bench_pairs.summarise(str(parent), str(change), METRICS)["sim"]
    assert sim["pairs"] == 5 and sim["seeds"] == [10, 11, 12, 13, 14]
    assert sim["first_side"] == ["parent", "change", "parent", "change", "parent"]
    assert sim["correct_runs"] == {"parent": 5, "change": 4}
    assert sim["attempted"] == {"parent": 50, "change": 50}
    wall = sim["metrics"]["wall_s"]
    for side, walls in (("parent", walls_p), ("change", walls_c)):
        q1, med, q3 = np.percentile(walls, [25, 50, 75])
        assert wall[side] == {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}
    assert (wall["change_wins"], wall["ties"]) == (3, 1)
    assert wall["parent_iqr"] == round(1.1 - 1.0, 4)
    assert wall["median_ratio"] == round(0.85 / 1.05, 4)
    # 3 wins of 5 pairs is under nine tenths: no gain
    assert not wall["gain_holds"]
    assert wall["runs"] == {"parent": walls_p, "change": walls_c}
    rate = sim["metrics"]["rate"]
    # higher is better here: ties at pair 0, wins elsewhere
    assert (rate["change_wins"], rate["ties"]) == (4, 1)


def test_gain_needs_nine_tenths_and_the_iqr(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    parent.mkdir()
    change.mkdir()
    for i in range(10):
        _write(parent, "w", i, 1.0 + 0.01 * i, 1.0, 2 * i)
        _write(change, "w", i, 0.5 + 0.01 * i, 1.0, 2 * i + 1)
    wall = bench_pairs.summarise(str(parent), str(change), METRICS)["w"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 10 and wall["gain_holds"]


def test_command_line(dirs, tmp_path):
    parent, change, _, _ = dirs
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS}))
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"change": "a note"}))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(parent), str(change), "--benchmark", str(bench),
                             "--extra", str(extra), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["change", "workloads"]
    assert doc["workloads"]["sim"]["pairs"] == 5
