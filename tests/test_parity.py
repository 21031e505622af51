"""tools/parity.py: a tree run against itself agrees in every group, and
the diff of two dumps names the item where they differ."""

import copy
import importlib.util
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"


def _parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_agrees():
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, str(TOOL), "--tree", str(ROOT), "--tree", str(ROOT),
         "--seeds", "1", "--ops", "2"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert time.monotonic() - start < 20
    groups = [line.split()[0] for line in run.stdout.splitlines()
              if line.endswith("  same")]
    assert groups == ["limit-d3:1", "limit-sweep:1", "exact-identity:1",
                      "forms-exact:1", "cli"]


def test_the_diff_names_the_differing_item():
    parity = _parity()
    a = {"limit-sweep:1": [["0 verify", "Report(rhs=(1.5+0j), passed=True)"],
                           ["1 verify", "Report(rhs=(2.0+0j), passed=True)"],
                           ["2 verify", "Report(rhs=(3.0+0j), passed=True)"]],
         "cli": [["gamma-std", "(0, '{}', '')"]]}
    b = copy.deepcopy(a)
    b["limit-sweep:1"][1][1] = "Report(rhs=(2.0000002+0j), passed=True)"
    assert parity.compare(a, copy.deepcopy(a))[1]
    lines, same = parity.compare(a, b)
    assert not same
    text = "\n".join(lines)
    assert "first difference at item 1 (1 verify / 1 verify), character 15" \
        in text
    assert "largest relative difference: 1.000e-07" in text
    assert any(line.startswith("cli ") and line.endswith("same")
               for line in lines)
    assert sum("DIFFERS" in line for line in lines) == 1
