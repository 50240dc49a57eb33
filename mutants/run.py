"""Mutation check: every listed mutant of the source must fail its tests.

Usage, from anywhere:

    python mutants/run.py

Each entry of ``entries.ENTRIES`` names a file of the tree, an exact old
text that must occur in it exactly once, the new text that replaces it,
and the pytest node ids that must fail on the mutated tree (an id without
a parameter stands for all of its parametrized cases, and is killed when
any of them fails). The runner first checks every old text against the
tree and runs every named test on a clean copy, which must pass. Then it
applies one mutant at a time to a temporary copy of ``src``, ``tests``
and ``pyproject.toml`` and runs only that mutant's tests. It exits 1 when
an old text does not match exactly once, when a named test fails on the
clean copy, or when a mutant survives, that is, when any of its named
tests still passes; it exits 0 when every mutant is killed. It stops
with an error when pytest cannot run the named tests at all, as for a
node id that does not exist. Bytecode is not written, so a mutant
of the same size and time stamp as the original is never read from a
stale cache. Uses the standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from entries import ENTRIES  # noqa: E402


def stale_entries(root: Path) -> list[str]:
    """Entries whose old text does not occur exactly once in their file."""
    stale = []
    for entry in ENTRIES:
        count = (root / entry["file"]).read_text(encoding="utf-8").count(entry["old"])
        if count != 1:
            stale.append(f"{entry['name']}: old text found {count} times in {entry['file']}")
    return stale


def failed_ids(tree: Path, ids: list[str]) -> set[str]:
    """The node ids that fail when ``ids`` are run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ids],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode} on {ids}:\n{proc.stdout}{proc.stderr}")
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            # "FAILED <node id> - <message>"; a node id may hold spaces
            failed.add(line.split(" ", 1)[1].split(" - ", 1)[0])
    return failed


def survivors(ids: list[str], failed: set[str]) -> list[str]:
    """The listed ids of which no case failed."""
    return [i for i in ids if not any(f == i or f.startswith((i + "[", i + "::")) for f in failed)]


def main() -> int:
    stale = stale_entries(ROOT)
    for line in stale:
        print(f"STALE {line}")
    if stale:
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        # the pytest settings: warnings are errors
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_id = sorted({i for entry in ENTRIES for i in entry["kill"]})
        broken = failed_ids(tree, every_id)
        if broken:
            print(f"CLEAN TREE FAILS {sorted(broken)}")
            return 1
        alive = []
        for entry in ENTRIES:
            path = tree / entry["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(entry["old"], entry["new"]), encoding="utf-8")
            try:
                left = survivors(entry["kill"], failed_ids(tree, entry["kill"]))
            finally:
                path.write_text(original, encoding="utf-8")
            if left:
                alive.append(entry["name"])
                print(f"SURVIVED {entry['name']} {left}")
            else:
                print(f"killed   {entry['name']}")
    elapsed = time.perf_counter() - start
    print(f"{len(ENTRIES) - len(alive)} of {len(ENTRIES)} mutants killed in {elapsed:.0f}s")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
