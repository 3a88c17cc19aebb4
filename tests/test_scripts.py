"""The helper scripts: rebuilding data/, diffing two results directories
and summarizing paired benchmark runs."""

import importlib.util
import json
import statistics
from pathlib import Path

from conftest import DATA

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_data_rebuilds_every_shipped_table(tmp_path, monkeypatch):
    """data/ is make_data.py's output, byte for byte, so the tables the
    tests and the benchmark read can be rebuilt from the script alone."""
    make_data = load_script("make_data")
    monkeypatch.setattr(make_data, "OUT", tmp_path)
    make_data.main()
    shipped = sorted(p.name for p in DATA.glob("*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def write_results(out: Path, best: float, rank: int) -> None:
    out.mkdir()
    records = [{"dataset": "toy", "start": "random", "acquire": acquire,
                "budget": 10, "repeat": 0, "seed": 1, "best": b, "evals": 10,
                "fallback": False}
               for acquire, b in (("exploit", best), ("random", 0.5))]
    (out / "results.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    (out / "rank_toy.csv").write_text(
        "rank,start,acquire,budget,median,sd,n\n"
        f"{rank},random,exploit,10,{best},0.0,1\n"
        "1,random,random,10,0.5,0.0,1\n")


def test_diff_results_names_a_changed_record_and_a_moved_rank(tmp_path, capsys):
    diff_results = load_script("diff_results")
    write_results(tmp_path / "a", best=0.25, rank=0)
    write_results(tmp_path / "b", best=0.75, rank=2)
    assert diff_results.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "1 changed, 0 only in" in out
    assert "toy random/exploit: 1 changed, 0 better, 1 worse" in out
    assert "budget 10 repeat 0: best 0.25 -> 0.75, evals 10 -> 10" in out
    assert "rank_toy.csv: random/exploit@10 0 -> 2" in out
    assert "rank tables with moved ranks: 1" in out


def test_diff_results_refuses_a_directory_without_results(tmp_path, capsys):
    diff_results = load_script("diff_results")
    write_results(tmp_path / "a", best=0.25, rank=0)
    (tmp_path / "b").mkdir()
    assert diff_results.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "results.jsonl" in capsys.readouterr().err


def perfbench_stdout(sha: str, **values: float) -> str:
    """What `perfbench/run.py --trace 0` prints: `#` lines, one line per
    metric, then the final JSON line."""
    metrics = {"setup_s": 0.3, "runs_per_s": 150.0, "rank_s": 0.02,
               "peak_rss_mb": 49.0, "completed_ratio": 1.0,
               "warm_ok_ratio": 1.0, "full_budget_ratio": 1.0,
               "norm_best": 0.4, **values}
    final = {"correct": True, "attempted": 184, "failed": 0,
             "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}
    return "\n".join(
        ["# warm-remote seed=1 trace=0: 7 untraced + 0 traced grids, 184 records each",
         f"# results.jsonl sha256 {sha}",
         '# provenance {"nproc": 2, "python": "3.11.7"}']
        + [f"{k:28s} {v:>16.6g} u" for k, v in metrics.items()]
        + [json.dumps(final)]) + "\n"


def test_bench_summarizes_pairs_of_perfbench_runs():
    """Each side's quartiles, the median per-pair ratio and the pairs the
    change won, in each metric's own direction; a tie wins for neither."""
    bench = load_script("bench")
    parent = [bench.parse(perfbench_stdout("aa", runs_per_s=r, peak_rss_mb=m))
              for r, m in ((150, 49.0), (152, 49.0), (154, 49.0))]
    change = [bench.parse(perfbench_stdout("aa", runs_per_s=r, peak_rss_mb=m))
              for r, m in ((160, 48.5), (151, 49.0), (165, 48.4))]
    assert parent[0]["sha256"] == "aa"
    assert parent[0]["provenance"] == {"nproc": 2, "python": "3.11.7"}
    assert parent[0]["values"]["rank_s"] == 0.02
    better = bench.end_to_end()
    assert better["runs_per_s"] == "higher" and better["peak_rss_mb"] == "lower"
    report = bench.summarize(parent, change, better)
    rate = report["runs_per_s"]
    assert rate["parent"] == (151.0, 152.0, 153.0)
    assert rate["change"] == (155.5, 160.0, 162.5)
    assert rate["ratio"] == statistics.median([160 / 150, 151 / 152, 165 / 154])
    assert (rate["won"], rate["pairs"]) == (2, 3)
    assert report["peak_rss_mb"]["won"] == 2  # 49.0 against 49.0 is a tie
    assert report["rank_s"]["won"] == 0 and report["rank_s"]["ratio"] == 1.0
    text = bench.render("warm-remote", report, parent, change)
    assert "runs_per_s" in text and " 2/3" in text
    assert "parent: results sha256 aa; correct in 3 of 3 runs" in text
