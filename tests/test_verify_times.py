"""tools/ab_times.py runs each measurement in fresh interpreters and reports both trees."""

import hashlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import springerbij
from springerbij import cli, verify
from springerbij.bijections import BIJECTIONS

SRC = Path(springerbij.__file__).resolve().parent.parent
TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_times.py"
CALLS = [["snakes", 3], ["wip3", 3]]


@pytest.fixture
def tool(monkeypatch):
    """The tool's module, with the enumerate workload cut to CALLS."""
    spec = importlib.util.spec_from_file_location("ab_times", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "workload", lambda: CALLS)
    return module


def test_verify_times_reports_every_row_of_both_trees():
    done = subprocess.run([sys.executable, str(TOOL), "verify", str(SRC), str(SRC), "--n-max", "2", "--samples", "2"],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    names = sorted(name for name, _, _ in verify.PROPERTIES)
    assert len(names) == 30
    for side in ("before", "after"):
        tree = report[side]
        assert tree["check"] == {"passed": 30}
        assert sorted(tree["parts"]) == names and sorted(tree["peak_mib"]) == names
        assert all(peak >= 0 for peak in tree["peak_mib"].values())
        assert 0 < tree["total"]["q1_s"] <= tree["total"]["median_s"] <= tree["total"]["q3_s"]
        assert tree["maxrss_mib"] > 0
    assert report["after_faster_in"].endswith(" of 2")


def test_import_times_reports_the_self_time_of_each_module(tool, tmp_path, capsys):
    out = tmp_path / "import.json"
    assert tool.main(["import", str(SRC), str(SRC), "--samples", "2", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == report
    for side in ("before", "after"):
        tree = report[side]
        assert tree["parts"] == {} and tree["check"] == {}
        assert {"springerbij", "springerbij.cli", "springerbij.verify"} <= set(tree["self_us"])
        assert 0 < tree["total"]["min_s"] <= tree["total"]["q1_s"] <= tree["total"]["median_s"] <= tree["total"]["q3_s"]
        assert tree["maxrss_mib"] > 0
    assert report["after_faster_in"].endswith(" of 2") and report["ratio_of_medians"] > 0


def test_enumerate_times_checks_each_call_by_the_digest_of_its_text(tool, capsys):
    assert tool.main(["enumerate", str(SRC), str(SRC), "--samples", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = [f"{family}@{n}" for family, n in CALLS]
    digests = {}
    for family, n in CALLS:
        text = io.StringIO()
        assert cli.main(["enumerate", "--family", family, "--n", str(n)], stdout=text) == 0
        digests[f"{family}@{n}"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    for side in ("before", "after"):
        tree = report[side]
        assert tree["check"] == digests
        assert list(tree["parts"]) == names and list(tree["peak_mib"]) == names
        assert all(0 < part["min_s"] <= part["median_s"] for part in tree["parts"].values())
        assert tree["maxrss_mib"] > 0
    assert report["after_faster_in"].endswith(" of 2")


def test_enumerate_times_stops_when_a_family_writes_other_text(tool, tmp_path, capsys):
    shutil.copytree(SRC / "springerbij", tmp_path / "springerbij", ignore=shutil.ignore_patterns("__pycache__"))
    families = tmp_path / "springerbij" / "families.py"
    snakes_text = 'lambda n: _text(_ZIGZAGS["snakes"](n, text=True))'
    assert snakes_text in families.read_text()
    families.write_text(families.read_text().replace(snakes_text, 'lambda n: iter(["0\\n"])'))
    assert tool.main(["enumerate", str(SRC), str(tmp_path), "--samples", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "snakes@3" in captured.err and "wip3" not in captured.err


@pytest.fixture
def small_map(tool, monkeypatch):
    """The map measure cut to three lines per input set."""
    monkeypatch.setattr(tool, "map_job", lambda n, mutants: [n, 3, tool.literal("child.py", "MAP_CHAIN"),
                                                              tool.PERFBENCH, mutants])
    return tool


def test_map_times_reports_each_mode_of_the_chain(small_map, capsys):
    assert small_map.main(["map", str(SRC), str(SRC), "--samples", "2", "--n", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    modes = [" ".join([bijection] + ["--inverse"] * inverse)
             for bijection, inverse, _, _ in small_map.literal("child.py", "MAP_CHAIN")]
    assert sorted(modes) == sorted(name + " --inverse" * inverse for name in BIJECTIONS for inverse in (False, True))
    for side in ("before", "after"):
        tree = report[side]
        assert tree["check"] == report["before"]["check"] and len(tree["check"]["sha256"]) == 64
        assert list(tree["parts"]) == modes and list(tree["peak_mib"]) == modes
        assert all(0 < part["min_s"] <= part["median_s"] for part in tree["parts"].values())
        assert tree["maxrss_mib"] > 0
    assert report["before"]["check"]["rejected_lines"] == "0 of 36"  # three valid lines per mode
    assert report["after_faster_in"].endswith(" of 2") and "n = 8" in report["method"]
    assert "mutants" not in report["method"]


def test_map_times_with_mutants_counts_the_rejected_lines(small_map, capsys):
    # each valid line and its two mutants, as in the golden inputs: a third of
    # the lines are valid, and at least half of the mutants are rejected
    assert small_map.main(["map", str(SRC), str(SRC), "--samples", "2", "--mutants"]) == 0
    report = json.loads(capsys.readouterr().out)
    rejected, of, lines = report["before"]["check"]["rejected_lines"].split()
    assert (of, lines) == ("of", "108") and 36 <= int(rejected) <= 72
    assert report["after"]["check"] == report["before"]["check"] and "two mutants" in report["method"]


def test_map_times_stops_when_a_tree_maps_otherwise(small_map, tmp_path, capsys):
    shutil.copytree(SRC / "springerbij", tmp_path / "springerbij", ignore=shutil.ignore_patterns("__pycache__"))
    bijections = tmp_path / "springerbij" / "bijections.py"
    wbar = '"wbar": Bijection("lbp", "lbp", lambda x: paths.wbar(x)'
    assert wbar in bijections.read_text()
    bijections.write_text(bijections.read_text().replace(wbar, '"wbar": Bijection("lbp", "lbp", lambda x: x'))
    assert small_map.main(["map", str(SRC), str(tmp_path), "--samples", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "sha256" in captured.err


def test_map_times_takes_the_n_of_a_map_workload(tool, capsys):
    assert sorted(tool.map_lines()) == [8, 512]
    with pytest.raises(SystemExit) as exit_:
        tool.main(["map", str(SRC), str(SRC), "--n", "64"])
    assert exit_.value.code == 2 and "--n" in capsys.readouterr().err


def test_one_sample_is_a_usage_error(tool, capsys):
    with pytest.raises(SystemExit) as exit_:
        tool.main(["import", str(SRC), str(SRC), "--samples", "1"])
    assert exit_.value.code == 2
    assert "--samples must be at least 2" in capsys.readouterr().err
