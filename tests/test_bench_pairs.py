"""tools/bench_pairs.py: spreads, quartiles, pair wins and the correctness gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
sys.path.insert(0, str(_PATH.parent))  # for bench_pairs' own import of tools/paired.py
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(**metrics):
    return {"metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}


class TestSpread:
    def test_odd_count(self):
        s = bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0])
        assert (s["median"], s["q1"], s["q3"], s["min"], s["max"]) == (3.0, 2.0, 4.0, 1.0, 5.0)
        assert s["runs"] == [5.0, 1.0, 3.0, 2.0, 4.0]  # run order kept

    def test_even_count_interpolates(self):
        s = bench_pairs.spread([1.0, 2.0, 3.0, 4.0])
        assert s["median"] == 2.5
        assert s["q1"] == pytest.approx(1.75)
        assert s["q3"] == pytest.approx(3.25)

    def test_single_run(self):
        s = bench_pairs.spread([7.0])
        assert s["median"] == s["q1"] == s["q3"] == 7.0


class TestPairWins:
    def test_lower_is_better(self):
        assert bench_pairs.pair_wins([3.0, 3.0, 3.0], [2.0, 4.0, 1.0], "lower") == (2, 1)

    def test_higher_is_better(self):
        assert bench_pairs.pair_wins([3.0, 3.0, 3.0], [2.0, 4.0, 1.0], "higher") == (1, 2)

    def test_ties_count_for_neither(self):
        assert bench_pairs.pair_wins([1.0, 2.0, 3.0], [1.0, 2.0, 2.5], "lower") == (1, 0)
        assert bench_pairs.pair_wins([1.0, 2.0], [1.0, 2.0], "higher") == (0, 0)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            bench_pairs.pair_wins([1.0], [2.0], "faster")

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.pair_wins([1.0, 2.0], [1.0], "lower")


def test_summarize_per_metric():
    pairs = [
        {"parent": result(wall_s=3.0, values_per_s=10.0), "change": result(wall_s=0.3, values_per_s=100.0)},
        {"parent": result(wall_s=2.9, values_per_s=11.0), "change": result(wall_s=2.9, values_per_s=9.0)},
        {"parent": result(wall_s=3.1, values_per_s=9.0), "change": result(wall_s=0.2, values_per_s=9.0)},
    ]
    metrics = [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "values_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
    out = bench_pairs.summarize(pairs, metrics)
    wall = out["wall_s"]
    assert (wall["pairs"], wall["change_wins"], wall["parent_wins"]) == (3, 2, 0)
    assert wall["parent"]["median"] == 3.0 and wall["change"]["median"] == 0.3
    assert wall["parent"]["runs"] == [3.0, 2.9, 3.1]
    rate = out["values_per_s"]
    assert (rate["change_wins"], rate["parent_wins"]) == (1, 1)
    assert rate["better"] == "higher" and rate["unit"] == "1/s"


class TestCorrectnessGate:
    GOOD = {"exit_code": 0, "correct": True, "failed": 0, "attempted": 10}

    def test_passing_run(self):
        bench_pairs.check_run(dict(self.GOOD), "run")

    @pytest.mark.parametrize("bad", [{"exit_code": 1}, {"correct": False}, {"failed": 2}, {"correct": None}])
    def test_failing_run_raises(self, bad):
        with pytest.raises(RuntimeError, match="run failed the correctness gate"):
            bench_pairs.check_run({**self.GOOD, **bad}, "run")

    @staticmethod
    def checkout(root, exit_code, correct, failed):
        """A stand-in checkout whose bench/run.py prints a result line and exits."""
        result = {"correct": correct, "failed": failed, "attempted": 10, "metrics": {}}
        (root / "bench").mkdir()
        (root / "bench" / "run.py").write_text(
            f"import sys\nprint('machine: {{}}')\nprint({json.dumps(json.dumps(result))})\nsys.exit({exit_code})\n"
        )
        return root

    def test_run_bench_returns_a_passing_run(self, tmp_path):
        out = bench_pairs.run_bench(self.checkout(tmp_path, 0, True, 0), "paper", 1, 1.0, 0)
        assert out["exit_code"] == 0 and out["machine"] == {} and out["correct"] is True

    @pytest.mark.parametrize("exit_code, correct, failed", [(1, False, 3), (0, False, 0), (1, True, 0)])
    def test_run_bench_refuses_a_failing_run(self, tmp_path, exit_code, correct, failed):
        with pytest.raises(RuntimeError, match="failed the correctness gate"):
            bench_pairs.run_bench(self.checkout(tmp_path, exit_code, correct, failed), "paper", 1, 1.0, 0)
