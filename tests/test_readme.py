"""Every owner the README cites for a finding exists.

The README cites a test as ``tests/<file>.py::<name>``, a committed report by
its ``out/`` path, a benchmark record as ``BENCH_baseline.json:<record>`` and
a changelog entry as ``CHANGES.md "<its opening words>"``.
"""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _flat(text):
    """Whitespace collapsed, so that a citation wrapped across lines still matches."""
    return " ".join(text.split())


def _functions(path):
    """Names of the module-level functions of a test file, or None if there is no such file."""
    if not path.is_file():
        return None
    return {n.name for n in ast.parse(path.read_text()).body if isinstance(n, ast.FunctionDef)}


def _cited(readme, pattern):
    found = re.findall(pattern, readme)
    assert found, f"the README cites nothing matching {pattern}"
    return found


def test_every_cited_owner_exists():
    readme = _flat((ROOT / "README.md").read_text())
    records = json.loads((ROOT / "BENCH_baseline.json").read_text())
    entries = [_flat(line[2:].replace("**", "")) for line in (ROOT / "CHANGES.md").read_text().splitlines()
               if line.startswith("- ")]
    missing = []
    for file, name in _cited(readme, r"tests/(\w+\.py)(?:::(\w+))?"):
        defined = _functions(ROOT / "tests" / file)
        if defined is None or name and name not in defined:
            missing.append(f"tests/{file}::{name}" if name else f"tests/{file}")
    missing += [p for p in _cited(readme, r"`(out/[^`]+)`") if not (ROOT / p).exists()]
    missing += [f"BENCH_baseline.json:{r}" for r in _cited(readme, r"BENCH_baseline\.json:(\w+)") if r not in records]
    missing += [f'CHANGES.md "{q}" (starts {n} entries, not one)' for q in _cited(readme, r'CHANGES\.md`? "([^"]+)"')
                if (n := sum(e.startswith(q) for e in entries)) != 1]
    assert not missing, missing
