#!/usr/bin/env python3
"""Self-test for scripts/have_callers.py: on the lint_fixture tree the
function pass must exit 1 naming exactly the orphan and the tests-only
function, and on a tree with no functions it must fail on its count."""
import re
import subprocess
import sys
import tempfile
from pathlib import Path

here = Path(__file__).resolve().parent
lint = here.parent / "scripts" / "have_callers.py"


def run(root):
    p = subprocess.run([sys.executable, str(lint), "functions", str(root)],
                       capture_output=True, text=True)
    print(p.stdout, end="")
    return p.returncode, p.stdout


failures = []
code, out = run(here / "lint_fixture")
named = set(re.findall(r"^orphan function: (\w+) ", out, re.M))
if code != 1:
    failures.append(f"fixture: exit {code}, want 1")
if named != {"orphan", "tests_only"}:
    failures.append(f"fixture: named {sorted(named)}, want orphan, tests_only")
if "checked 3 functions" not in out:
    failures.append("fixture: want 'checked 3 functions'")

with tempfile.TemporaryDirectory() as empty:
    (Path(empty) / "src").mkdir()
    code, out = run(empty)
    if code != 1 or "checked 0 functions" not in out:
        failures.append(f"empty tree: exit {code}, want 1 with a 0 count")

for f in failures:
    print("FAIL:", f)
sys.exit(1 if failures else 0)
