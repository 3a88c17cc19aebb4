"""The helper scripts: rebuilding data/ and diffing two results directories."""

import importlib.util
import json
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
