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


def test_one_sample_is_a_usage_error(tool, capsys):
    with pytest.raises(SystemExit) as exit_:
        tool.main(["import", str(SRC), str(SRC), "--samples", "1"])
    assert exit_.value.code == 2
    assert "--samples must be at least 2" in capsys.readouterr().err
