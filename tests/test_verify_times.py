"""tools/verify_times.py runs verify in fresh interpreters and reports every row of both trees."""

import json
import subprocess
import sys
from pathlib import Path

import springerbij
from springerbij import verify

SRC = Path(springerbij.__file__).resolve().parent.parent
TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify_times.py"


def test_verify_times_reports_every_row_of_both_trees():
    done = subprocess.run([sys.executable, str(TOOL), str(SRC), str(SRC), "--n-max", "2", "--samples", "2"],
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    names = sorted(name for name, _, _ in verify.PROPERTIES)
    assert len(names) == 30
    for side in ("before", "after"):
        tree = report[side]
        assert tree["passed"] == 30
        assert sorted(tree["rows"]) == names and sorted(tree["peak_mib"]) == names
        assert all(peak >= 0 for peak in tree["peak_mib"].values())
        assert 0 < tree["total"]["q1_s"] <= tree["total"]["median_s"] <= tree["total"]["q3_s"]
        assert tree["maxrss_mib"] > 0
    assert report["after_faster_in"].endswith(" of 2")
