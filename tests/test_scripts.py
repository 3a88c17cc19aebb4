"""The helper scripts: rebuilding data/, diffing two results directories,
summarizing paired benchmark runs and writing a benchmark file."""

import importlib.util
import json
import shutil
import statistics
import subprocess
from pathlib import Path

import pytest

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
    change won, in each metric's own direction; a tie wins for neither.
    A metric whose parent quartiles spread wider than its bound, relative
    to their median, is unresolved unless every change run beats every
    parent run."""
    bench = load_script("bench")
    parent = [bench.parse(perfbench_stdout("aa", runs_per_s=r, peak_rss_mb=m,
                                           setup_s=s, norm_best=b))
              for r, m, s, b in ((150, 49.0, 0.2, 0.3), (152, 49.0, 0.3, 0.4),
                                 (154, 49.0, 0.5, 0.6))]
    change = [bench.parse(perfbench_stdout("aa", runs_per_s=r, peak_rss_mb=m,
                                           setup_s=s, norm_best=b))
              for r, m, s, b in ((160, 48.5, 0.25, 0.1), (151, 49.0, 0.28, 0.2),
                                 (165, 48.4, 0.45, 0.25))]
    assert parent[0]["sha256"] == "aa"
    assert parent[0]["provenance"] == {"nproc": 2, "python": "3.11.7"}
    assert parent[0]["values"]["rank_s"] == 0.02
    metrics = bench.end_to_end()
    assert metrics["runs_per_s"]["better"] == "higher"
    assert metrics["peak_rss_mb"]["better"] == "lower"
    assert metrics["setup_s"]["bound"] == metrics["norm_best"]["bound"] == 0.25
    report = bench.summarize(parent, change, metrics)
    rate = report["runs_per_s"]
    assert rate["parent"] == (151.0, 152.0, 153.0)
    assert rate["change"] == (155.5, 160.0, 162.5)
    assert rate["ratio"] == statistics.median([160 / 150, 151 / 152, 165 / 154])
    assert (rate["won"], rate["pairs"]) == (2, 3)
    assert report["peak_rss_mb"]["won"] == 2  # 49.0 against 49.0 is a tie
    assert report["rank_s"]["won"] == 0 and report["rank_s"]["ratio"] == 1.0
    # setup_s: parent quartiles (0.25, 0.3, 0.4), a spread of 0.15 against
    # 0.25 * 0.3, and the change's 0.28 and 0.45 lose to the parent's 0.2.
    assert report["setup_s"]["parent"] == pytest.approx((0.25, 0.3, 0.4))
    assert report["setup_s"]["unresolved"] is True
    # norm_best spreads as wide, but every change run is below every parent run.
    assert report["norm_best"]["unresolved"] is False
    assert not any(report[name]["unresolved"] for name in ("runs_per_s", "peak_rss_mb"))
    text = bench.render("warm-remote", report, parent, change)
    assert "runs_per_s" in text and " 2/3" in text
    assert [line.split()[0] for line in text.splitlines()
            if line.endswith("  unresolved")] == ["setup_s"]
    assert "parent: results sha256 aa; correct in 3 of 3 runs" in text


def test_bench_out_writes_a_benchmark_file(tmp_path):
    """`bench.py --out` without `--pair` runs each named workload once in
    the working tree and writes its final line, results hash and provenance."""
    bench = load_script("bench")
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--workload", "grid-gp", "--seconds", "1"]
    assert bench.main(argv) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    assert (written["seed"], written["seconds"], written["parent"]) == (1, 1.0, None)
    change = written["workloads"]["grid-gp"]["change"]
    assert {"nproc", "python", "numpy"} <= change["provenance"].keys()
    assert change["runs"]
    for run in change["runs"]:
        assert run["correct"] is True and run["sha256"]
        assert all(isinstance(run["values"][name], (int, float))
                   for name in bench.end_to_end())


def test_bench_copies_a_tree_that_is_not_a_git_checkout(tmp_path, monkeypatch):
    """Without `.git` the working tree is copied by a plain walk that
    leaves out bytecode caches and benchmark output."""
    bench = load_script("bench")
    root = tmp_path / "tree"
    for name in ("src", "data", "perfbench"):
        shutil.copytree(bench.ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(bench.ROOT / "BENCHMARK.json", root)
    for stale in (".perfbench_out/results.jsonl", "src/mootopt/__pycache__/data.pyc"):
        (root / stale).parent.mkdir(parents=True, exist_ok=True)
        (root / stale).write_text("stale", encoding="utf-8")
    monkeypatch.setattr(bench, "ROOT", root)
    tree = bench.export(None, tmp_path / "copy")
    for name in ("src/mootopt/data.py", "data/toy.csv", "perfbench/run.py",
                 "BENCHMARK.json"):
        assert (tree / name).is_file(), name
    assert not (tree / ".perfbench_out").exists()
    assert not list(tree.rglob("__pycache__"))


def test_bench_copies_a_git_checkout_by_the_same_walk(tmp_path, monkeypatch):
    """Inside a git checkout the working tree's copy is the same plain
    walk: an untracked file is copied, and no skipped name is."""
    bench = load_script("bench")
    root = tmp_path / "tree"
    (root / "src").mkdir(parents=True)
    (root / "src" / "tracked.py").write_text("x = 1\n", encoding="utf-8")
    (root / "untracked.txt").write_text("new", encoding="utf-8")
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(["git", "-C", str(root), "add", "src/tracked.py"], check=True)
    for name in bench.SKIP:
        if name != ".git":
            (root / "src" / name).mkdir()
            (root / "src" / name / "stale").write_text("stale", encoding="utf-8")
    monkeypatch.setattr(bench, "ROOT", root)
    tree = bench.export(None, tmp_path / "copy")
    assert sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*")) == [
        "src", "src/tracked.py", "untracked.txt"]


def test_every_mutant_replaces_text_that_occurs_once(monkeypatch):
    """mutate.py's mutants each change one line: `old` occurs exactly once
    in its file and holds no line break. The mutants run only under the
    script, not here, and without the tests that compare a text with the
    unmutated tree: this one and the README's constants table."""
    monkeypatch.syspath_prepend(str(SCRIPTS))  # mutate.py imports bench
    mutate = load_script("mutate")
    mutate.check()
    assert mutate.DESELECTED[0].endswith(
        "::" + test_every_mutant_replaces_text_that_occurs_once.__name__)
    tests = Path(__file__).resolve().parent
    for name in mutate.DESELECTED:
        path, test = name.split("::")
        assert f"\ndef {test}(" in (tests.parent / path).read_text(encoding="utf-8"), name
    assert all(old != new and "\n" not in old + new for _, old, new in mutate.MUTANTS)
