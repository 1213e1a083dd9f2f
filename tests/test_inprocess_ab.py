"""tools/inprocess_ab.py's sampling and summary, on fixed numbers.

The tool is loaded from its file; these tests import no daechain module.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "inprocess_ab.py"


@pytest.fixture(scope="module")
def tool():
    before = {name for name in sys.modules if name.startswith("daechain")}
    spec = importlib.util.spec_from_file_location("inprocess_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert {name for name in sys.modules if name.startswith("daechain")} == before
    return module


def test_summary_gives_quartiles_of_each_side_and_of_the_per_pair_ratio(tool):
    parent = [10.0, 12.0, 11.0, 20.0]
    change = [8.0, 12.0, 11.5, 10.0]
    side_p, side_c, ratio, won = tool.summary(parent, change)
    assert side_p == pytest.approx((10.75, 11.5, 14.0))
    assert side_c == pytest.approx((9.5, 10.75, 11.625))
    # ratios 0.8, 1.0, 11.5 / 11 and 0.5: their median is not the medians' ratio (0.935)
    assert ratio == pytest.approx((0.725, 0.9, 1.0 + 0.25 * (11.5 / 11.0 - 1.0)))
    assert won == 2  # a tie is not a win


def test_summary_rejects_unpaired_samples(tool):
    with pytest.raises(ValueError):
        tool.summary([1.0, 2.0, 3.0], [1.0, 2.0])


def test_sample_interleaves_the_sides_and_keeps_each_sides_fastest_run(tool, monkeypatch):
    calls, clock = [], iter([0.0, 5.0, 5.0, 6.0, 6.0, 8.0, 8.0, 9.0, 9.0, 9.5, 9.5, 13.0])
    monkeypatch.setattr(tool, "REPEAT", 3)
    monkeypatch.setattr(tool, "time", SimpleNamespace(perf_counter=lambda: next(clock)))

    def body(side):
        def run():
            calls.append(side)
            return [np.array([len(calls)], dtype=np.float64)]
        return run

    best, outputs = tool._sample([body("a"), body("b")])
    assert calls == ["a", "b"] * 3
    # a took 5, 2 and 0.5; b took 1, 1 and 3.5
    assert best == [0.5, 1.0]
    assert outputs == [np.array([5.0]).tobytes(), np.array([6.0]).tobytes()]
