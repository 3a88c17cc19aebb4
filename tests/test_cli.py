"""Command-line behavior: arm grammar, exit codes, artifact contracts."""

import json
import shutil
import statistics
from pathlib import Path

import pytest

import mootopt
from mootopt import cli, engine, gp
from mootopt.cli import ConfigError, main, parse_arms
from mootopt.engine import DEFAULT_ARMS, baseline_summary

from conftest import DATA, SlowFirstBrokenSynth

TOY = str(DATA / "toy.csv")
MALFORMED = Path(__file__).resolve().parent / "malformed"


# -- treatment grammar ---------------------------------------------------------

def test_parse_arms_default_grid_round_trips():
    spec = cli.build_parser().parse_args(["run", "--data", "x"]).treatments
    assert parse_arms(spec) == DEFAULT_ARMS


def test_parse_arms_standalone_words():
    assert parse_arms("random") == (("random", "random"),)
    assert parse_arms("baseline") == (("baseline", "baseline"),)
    assert parse_arms(" llm/ucb , random ") == (("llm", "ucb"), ("random", "random"))


@pytest.mark.parametrize("spec", [
    "warm/exploit",        # unknown start
    "llm/baseline",        # baseline does not take a start
    "exploit",             # bare acquisition
    "random/greedy",       # unknown acquisition
    "",                    # nothing at all
    ",,,",
    "random/exploit,random/exploit",   # a repeated arm
    "random,baseline,random/random",   # the same arm spelled two ways
    "llm/random",          # random selection takes no start
])
def test_parse_arms_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        parse_arms(spec)


# -- configuration errors exit with 2 -------------------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "--data", "no/such/path.csv"],
    ["run", "--data", TOY, "--treatments", "warm/exploit"],
    ["run", "--data", TOY, "--budgets", "4"],          # budget <= warm size
    ["run", "--data", TOY, "--budgets", "six"],
    ["run", "--data", TOY, "--repeats", "0"],
    ["run", "--data", TOY, "--jobs", "0"],
    ["run", "--data", TOY, "--synth", "remote"],       # endpoint/model missing
    ["run", "--data", TOY, TOY],                       # duplicate dataset name
    ["run", "--data", TOY, "--jobs", "-1"],
    ["run", "--data", str(MALFORMED / "non_finite.csv")],
    ["run", "--data", str(MALFORMED / "header_only.csv")],
    ["run", "--data", TOY, "--treatments", "random/exploit,random/exploit,baseline"],
    ["run", "--data", TOY, "--budgets", "10,10"],
    ["run", "--data", TOY, "--treatments", "llm/exploit", "--budgets", "10",
     "--repeats", "1", "--endpoint", "https://api.example/v1/chat/completions"],
    ["run", "--data", TOY, "--treatments", "llm/exploit", "--budgets", "10",
     "--repeats", "1", "--model", "gpt-x"],             # no --synth remote
])
def test_bad_configurations_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("MOOTOPT_API_KEY", raising=False)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2


REMOVED_FLAGS = [
    ("run", "--kappa", "3"), ("run", "--epsilon", "0.1"),
    ("run", "--warm-size", "6"), ("rank", "--delta-small", "0.3"),
    ("rank", "--boots", "64"), ("rank", "--conf", "0.9"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_fixed_settings_are_not_flags(command, flag, value, tmp_path, capsys):
    """The method settings are module constants; argparse refuses them."""
    with pytest.raises(SystemExit):
        main([command, "-h"])
    assert flag not in capsys.readouterr().out
    argv = ([command, "--data", TOY, "--out", str(tmp_path / "out")]
            if command == "run" else [command, str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_paper_literal_mapping_is_not_a_flag(tmp_path, capsys):
    """Synthetic rows always map onto the unlabeled pool; the flag that
    mapped them onto the labeled seed rows is refused."""
    with pytest.raises(SystemExit):
        main(["run", "-h"])
    assert "--paper-literal-mapping" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["run", "--data", TOY, "--out", str(tmp_path / "out"),
              "--paper-literal-mapping"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_arms_and_budgets_are_named():
    with pytest.raises(ConfigError, match="'random/exploit' is repeated"):
        parse_arms("random/exploit,baseline,random/exploit")
    with pytest.raises(ConfigError, match="budget 10 is repeated"):
        cli._parse_budgets("10,15,10")


def test_remote_without_key_exits_2(tmp_path, monkeypatch):
    monkeypatch.delenv("MOOTOPT_API_KEY", raising=False)
    argv = ["run", "--data", TOY, "--synth", "remote", "--endpoint",
            "https://api.example/v1", "--model", "m", "--out",
            str(tmp_path / "out")]
    assert main(argv) == 2


def test_empty_data_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", "--data", str(empty), "--out", str(tmp_path / "o")]) == 2


def test_rank_without_results_exits_2(tmp_path):
    assert main(["rank", str(tmp_path)]) == 2


def test_failed_runs_exit_1(tmp_path, monkeypatch):
    def fake_run_grid(datasets, grid, synthesizer=None, jobs=1):
        return engine.GridResult(results=[], events=[],
                                 failures=["run failed: synthetic failure"])

    monkeypatch.setattr(cli.engine, "run_grid", fake_run_grid)
    out = tmp_path / "out"
    assert main(["run", "--data", TOY, "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] and "synthetic failure" in manifest["failures"][0]


# -- run artifacts ----------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    code = main(["run", "--data", TOY,
                 "--treatments", "llm/exploit,random,baseline",
                 "--budgets", "10,12", "--repeats", "2", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    return out


GOLDEN = Path(__file__).resolve().parent / "golden" / "toy_auto93_results.jsonl"


def test_small_grid_matches_the_golden_results(tmp_path):
    """The nine-arm default grid on toy and auto93 reproduces results.jsonl
    byte for byte, with one worker and with two, since outputs must not
    depend on the job count: transcript.jsonl is byte-identical too, and
    manifest.json differs only in config.jobs. The golden file was written
    by `mootopt run --data data/toy.csv data/auto93.csv --budgets 10,15
    --repeats 2 --synth mock`; a change that means to alter results must
    regenerate it and say why."""
    transcripts, manifests = [], []
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}"
        assert main(["run", "--data", TOY, str(DATA / "auto93.csv"),
                     "--budgets", "10,15", "--repeats", "2", "--synth", "mock",
                     "--jobs", jobs, "--out", str(out)]) == 0
        assert (out / "results.jsonl").read_bytes() == GOLDEN.read_bytes(), jobs
        transcripts.append((out / "transcript.jsonl").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"].pop("jobs") == int(jobs)
        manifests.append(manifest)
    assert manifests[0]["config"]["treatments"] == (
        "llm/exploit,llm/explore,random/exploit,random/explore,"
        "random/ucb,random/pi,random/ei,random,baseline")
    assert transcripts[0] and transcripts[0] == transcripts[1]
    # toy is named first on the command line, but runs go in name order
    events = [json.loads(line) for line in transcripts[0].splitlines()]
    keys = [(e["dataset"], e["start"], e["acquire"], e["repeat"], e["seq"])
            for e in events]
    assert keys == sorted(keys) and keys[0][0] == "auto93"
    assert manifests[0] == manifests[1]


NB_GOLDEN = Path(__file__).resolve().parent / "golden" / "nasa93dem_nb_results.jsonl"


def test_naive_bayes_grid_on_nasa93dem_matches_the_golden_results(tmp_path):
    """The four naive-Bayes arms on nasa93dem reproduce results.jsonl byte
    for byte, with one worker and with two. nasa93dem is the one
    high-dimensional table, so these records pin naive-Bayes picks over
    the widest design matrix, which the toy/auto93 golden file does not
    reach. The file was written by
    `mootopt run --data data/nasa93dem.csv --treatments
    llm/exploit,llm/explore,random/exploit,random/explore --budgets
    10,20,30 --repeats 10 --synth mock`."""
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}"
        assert main(["run", "--data", str(DATA / "nasa93dem.csv"),
                     "--treatments",
                     "llm/exploit,llm/explore,random/exploit,random/explore",
                     "--budgets", "10,20,30", "--repeats", "10", "--synth", "mock",
                     "--jobs", jobs, "--out", str(out)]) == 0
        assert (out / "results.jsonl").read_bytes() == NB_GOLDEN.read_bytes(), jobs


def test_a_symbolic_column_with_no_observed_value_runs_every_arm(tmp_path):
    """Every cell of `color` is '?', so its alphabet is empty; the
    naive-Bayes arms score it as adding nothing to either class, as a
    numeric column of '?' already was."""
    table = tmp_path / "t.csv"
    table.write_text("Size,color,Cost-\n"
                     + "".join(f"{i},?,{(7 * i) % 12}\n" for i in range(12)))
    out = tmp_path / "out"
    assert main(["run", "--data", str(table), "--budgets", "10", "--repeats", "1",
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["failures"] == []
    records = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(records) == len(DEFAULT_ARMS)


def test_failures_are_listed_in_run_order_at_any_job_count(tmp_path, monkeypatch,
                                                           capsys):
    """With two jobs the second run fails first; the manifest and stderr
    still list the failures in run order, after the grid has ended."""
    monkeypatch.setattr(cli, "MockSynthesizer", SlowFirstBrokenSynth)
    want = [f"run failed: toy llm/exploit budget=10 repeat={rep}: "
            "TypeError: synthesizer broke" for rep in (0, 1)]
    for jobs in ("1", "2"):
        out = tmp_path / f"run{jobs}"
        assert main(["run", "--data", TOY, "--treatments", "llm/exploit",
                     "--budgets", "10", "--repeats", "2", "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert json.loads((out / "manifest.json").read_text())["failures"] == want
        assert capsys.readouterr().err.splitlines() == want


def test_baseline_summary_is_computed_once_per_table(tmp_path, monkeypatch):
    """The baseline arm and the manifest read one summary per table."""
    summarized = []
    original = engine._summarize

    def spy(ds):
        summarized.append(ds.name)
        return original(ds)

    monkeypatch.setattr(engine, "_summarize", spy)
    assert main(["run", "--data", TOY, str(DATA / "auto93.csv"),
                 "--treatments", "random,baseline", "--budgets", "10",
                 "--repeats", "1", "--out", str(tmp_path / "out")]) == 0
    assert sorted(summarized) == ["auto93", "toy"]


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_run_writes_one_record_per_cell(smoke):
    records = read_jsonl(smoke / "results.jsonl")
    # llm/exploit and random: 2 budgets x 2 repeats each; baseline: once
    assert len(records) == 9
    keys = [(r["dataset"], r["start"], r["acquire"], r["budget"], r["repeat"])
            for r in records]
    assert keys == sorted(keys)


def test_run_record_fields(smoke):
    records = read_jsonl(smoke / "results.jsonl")
    active = [r for r in records if r["acquire"] != "baseline"]
    base = [r for r in records if r["acquire"] == "baseline"]
    for r in active:
        assert set(r) == {"dataset", "start", "acquire", "budget", "repeat",
                          "seed", "best", "evals", "fallback"}
        assert r["evals"] == r["budget"]
    assert len(base) == 1
    assert base[0]["budget"] == base[0]["evals"] == 12
    assert "spread" in base[0]


def test_transcript_captures_the_llm_exchange(smoke):
    events = read_jsonl(smoke / "transcript.jsonl")
    assert events, "llm arms must leave a transcript"
    kinds = {e["event"] for e in events}
    assert {"request", "response"} <= kinds
    assert all(e["start"] == "llm" for e in events)
    keys = [(e["dataset"], e["start"], e["acquire"], e["budget"],
             e["repeat"], e["seq"]) for e in events]
    assert keys == sorted(keys)


def test_manifest_contents(smoke, toy):
    manifest = json.loads((smoke / "manifest.json").read_text())
    assert manifest["version"] == mootopt.__version__
    assert manifest["seed_rule"] == "crc32('dataset|start|acquire|repeat|seed')"
    assert manifest["config"]["budgets"] == [10, 12]
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["synth"] == "mock"
    assert "paper_literal_mapping" not in manifest["config"]
    assert manifest["failures"] == []
    info = manifest["datasets"]["toy"]
    assert (info["rows"], info["x_cols"], info["y_cols"]) == (12, 3, 2)
    assert info["dims"] == "low"
    mean, lo, median, sd = baseline_summary(toy)
    assert info["chebyshev"]["mean"] == pytest.approx(mean)
    assert info["chebyshev"]["lo"] == pytest.approx(lo)
    assert info["chebyshev"]["median"] == pytest.approx(median)
    assert info["chebyshev"]["sd"] == pytest.approx(sd)


def test_manifest_records_the_fixed_settings(smoke):
    config = json.loads((smoke / "manifest.json").read_text())["config"]
    assert (config["kappa"], config["epsilon"], config["warm_size"]) == \
        (gp.KAPPA, gp.EPSILON, engine.B0) == (2.0, 0.01, 4)


# -- rank artifacts -----------------------------------------------------------------

@pytest.fixture(scope="module")
def ranked(smoke):
    assert main(["rank", str(smoke)]) == 0
    return smoke


def test_rank_emits_every_report(ranked):
    names = {p.name for p in ranked.iterdir()}
    assert {"rank_toy.txt", "rank_toy.csv", "freq_low.csv", "freq_medium.csv",
            "freq_high.csv", "evals_needed.csv",
            "improvement_curve.csv", "outcomes.csv"} <= names


def test_rank_table_covers_every_arm(ranked):
    lines = (ranked / "rank_toy.csv").read_text().splitlines()
    assert lines[0] == "rank,start,acquire,budget,median,sd,n"
    pairs = {tuple(l.split(",")[1:3]) for l in lines[1:]}
    assert pairs == {("llm", "exploit"), ("random", "random"),
                     ("baseline", "baseline")}


def test_empty_strata_produce_bare_headers(ranked):
    assert (ranked / "freq_medium.csv").read_text() == "start,acquire,rank0\n"
    assert (ranked / "freq_high.csv").read_text() == "start,acquire,rank0\n"
    low = (ranked / "freq_low.csv").read_text().splitlines()
    assert len(low) == 4  # header plus the three pairs


def test_improvement_curve_arithmetic(ranked):
    records = read_jsonl(ranked / "results.jsonl")
    manifest = json.loads((ranked / "manifest.json").read_text())
    info = manifest["datasets"]["toy"]["chebyshev"]
    bests = [r["best"] for r in records
             if (r["start"], r["acquire"], r["budget"]) == ("llm", "exploit", 10)]
    want = (statistics.fmean(bests) - info["lo"]) / (info["mean"] - info["lo"])
    lines = (ranked / "improvement_curve.csv").read_text().splitlines()
    assert lines[0] == "dataset,start,acquire,budget,improvement"
    assert not any(",baseline," in l for l in lines)
    row = next(l for l in lines if l.startswith("toy,llm,exploit,10,"))
    assert float(row.rsplit(",", 1)[1]) == pytest.approx(want)


def test_outcomes_count_runs_fallbacks_and_short_records(tmp_path):
    """Records cut from one run share its (repeat, seed), so its fallback
    counts once however many budgets it serves."""
    def rec(dataset, start, acquire, budget, repeat, seed, evals, fallback):
        return {"dataset": dataset, "start": start, "acquire": acquire,
                "budget": budget, "repeat": repeat, "seed": seed,
                "best": 0.5, "evals": evals, "fallback": fallback}

    records = [
        rec("a", "llm", "exploit", 10, 0, 11, 10, True),
        rec("a", "llm", "exploit", 20, 0, 11, 20, True),
        rec("a", "llm", "exploit", 10, 1, 12, 10, False),
        rec("a", "llm", "exploit", 20, 1, 12, 20, False),
        rec("a", "random", "random", 10, 0, 13, 10, False),
        rec("a", "random", "random", 20, 0, 13, 18, False),
        rec("b", "llm", "exploit", 10, 0, 14, 9, True),
        rec("b", "llm", "exploit", 20, 0, 14, 9, True),
        rec("b", "baseline", "baseline", 9, 0, 15, 9, False),
    ]
    (tmp_path / "results.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    assert main(["rank", str(tmp_path)]) == 0
    assert (tmp_path / "outcomes.csv").read_text().splitlines() == [
        "dataset,start,acquire,runs,fallbacks,short_records",
        "a,llm,exploit,2,1,0",
        "a,random,random,1,0,1",
        "b,baseline,baseline,1,0,0",
        "b,llm,exploit,1,1,2",
    ]


def test_evals_needed_is_well_formed(ranked):
    lines = (ranked / "evals_needed.csv").read_text().splitlines()
    assert lines[0].startswith("start,acquire,rank0")
    assert any(l.startswith("llm,exploit,") for l in lines[1:])
