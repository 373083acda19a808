"""The paired-comparison summary of ``tools/ab.py`` on synthetic numbers
(no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [1.9, 1.84, 1.98, 1.88, 1.92, 1.86, 1.95, 1.9, 1.87, 1.93]


def test_a_clear_gain_wins_every_pair_beyond_the_parent_spread():
    change = [x - 0.6 for x in PARENT]
    s = ab.summarize(PARENT, change)
    assert s["wins"] == 10 and s["pairs"] == 10 and s["gain"]
    q1, med, q3 = s["parent"]
    assert q1 < med < q3 and med == pytest.approx(1.9)
    assert s["change"][1] == pytest.approx(1.3)


def test_nine_of_ten_is_enough_and_ties_count_for_neither():
    change = [x - 0.5 for x in PARENT]
    change[3] = PARENT[3] + 0.1  # one loss
    assert ab.summarize(PARENT, change)["gain"]
    change[4] = PARENT[4]  # a tie: 8 wins of 10
    s = ab.summarize(PARENT, change)
    assert s["wins"] == 8 and not s["gain"]


def test_a_shift_inside_the_parent_spread_is_no_gain():
    # every pair wins, but by less than the parent's interquartile range
    change = [x - 0.01 for x in PARENT]
    s = ab.summarize(PARENT, change)
    assert s["wins"] == 10 and not s["gain"]


def test_higher_is_better_flips_the_direction():
    up = [x + 1.0 for x in PARENT]
    assert ab.summarize(PARENT, up, better="higher")["gain"]
    assert not ab.summarize(PARENT, up)["gain"]
    assert ab.summarize(PARENT, up)["wins"] == 0


def test_the_summary_wants_paired_runs():
    with pytest.raises(ValueError):
        ab.summarize([1.0, 2.0], [1.0])
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_a_regression_is_a_median_worse_than_the_bound():
    # bound 0.24: the change's median may be up to 24 % worse than the parent's
    within = [x * 1.2 for x in PARENT]
    beyond = [x * 1.3 for x in PARENT]
    assert ab.summarize(PARENT, within, bound=0.24)["regressed"] is False
    assert ab.summarize(PARENT, beyond, bound=0.24)["regressed"] is True
    assert ab.summarize(PARENT, beyond)["regressed"] is None  # no bound, no verdict
    # higher is better: falling by more than the bound regresses
    assert ab.summarize(PARENT, [x * 0.7 for x in PARENT], "higher", 0.24)["regressed"]
    assert not ab.summarize(PARENT, [x * 0.7 for x in PARENT], "lower", 0.24)["regressed"]


def test_the_bounds_come_from_the_benchmark_file(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24}],'
        ' "per_layer": [{"name": "calls", "better": "lower"}]}')
    assert ab._metrics(tmp_path) == {"wall_s": ("lower", 0.24), "calls": ("lower", None)}
    assert ab._metrics(tmp_path / "missing") == {}


_FAKE_RUN = """\
import json, os, sys
with open("seen.txt", "a") as f:
    f.write(os.environ.get("PYTHONPYCACHEPREFIX", "") + "\\n")
    f.write(f"writes bytecode: {not sys.dont_write_bytecode}\\n")
print(json.dumps({"metrics": {"wall_s": {"value": 1.0}}, "failed": 0}))
"""


def test_each_side_compiles_into_its_own_fresh_cache(tmp_path, capsys, monkeypatch):
    # a fake checkout's bench/run.py records the bytecode prefix it ran with,
    # and that it may write there even where the caller's environment says not
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(_FAKE_RUN)
    assert ab.main([str(r) for r in roots] + ["--workload", "fake", "--pairs", "2"]) == 0
    assert "pair 2 (change first)" in capsys.readouterr().out
    lines = [(root / "seen.txt").read_text().splitlines() for root in roots]
    assert all(set(ls[1::2]) == {"writes bytecode: True"} for ls in lines)
    seen = [ls[::2] for ls in lines]
    assert all(len(s) == 2 and len(set(s)) == 1 for s in seen)  # one cache a side
    (parent,), (change,) = map(set, seen)
    assert parent != change
    for prefix, root in ((parent, roots[0]), (change, roots[1])):
        assert not Path(prefix).is_relative_to(root)
        assert not Path(prefix).exists()  # removed with its temporary directory


_FAKE_WORKLOAD_RUN = """\\
import json, sys
with open("seen.txt", "a") as f:
    f.write(sys.argv[sys.argv.index("--workload") + 1] + "\\n")
print(json.dumps({"metrics": {"wall_s": {"value": 1.0}}, "failed": 0}))
"""


def test_each_workload_runs_and_is_summarized_in_turn(tmp_path, capsys):
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(_FAKE_WORKLOAD_RUN)
    argv = [str(r) for r in roots] + ["--workload", "a", "--workload", "b", "--pairs", "2"]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out
    # a's pairs and summary come before b's, each with its own rows
    assert out.index("a, 2 pairs") < out.index("b, 2 pairs")
    assert out.count("  wall_s: ") == 2 and out.count("pair 2 (change first)") == 2
    for root in roots:
        assert (root / "seen.txt").read_text().split() == ["a", "a", "b", "b"]
