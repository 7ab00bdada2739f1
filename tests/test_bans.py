"""The CI ban table (``tools/bans.py``) holds on this tree, and means it.

Each row's pattern must match the sample line it carries, so a mistyped
pattern fails here instead of passing on every tree; each row searches
paths that exist; and the tree breaks no row.
"""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "tools" / "bans.py"

_spec = importlib.util.spec_from_file_location("bans", SCRIPT)
bans = importlib.util.module_from_spec(_spec)
sys.modules["bans"] = bans
_spec.loader.exec_module(bans)

IDS = [ban.name for ban in bans.BANS]


def test_rows_are_named_once():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("ban", bans.BANS, ids=IDS)
def test_the_pattern_matches_its_sample(ban):
    assert re.search(ban.pattern, ban.sample)
    assert ban.reason and re.fullmatch(r"PR \d+(, PR \d+)*", ban.pr)


@pytest.mark.parametrize("ban", bans.BANS, ids=IDS)
def test_the_searched_paths_exist(ban):
    assert all((REPO / path).exists() for path in ban.paths), ban.paths


@pytest.mark.parametrize("ban", bans.BANS, ids=IDS)
def test_the_tree_breaks_no_ban(ban):
    assert bans.violations(ban) == []


def test_a_violation_is_reported(tmp_path):
    (tmp_path / "src" / "repro" / "earthqube").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "earthqube" / "search.py").write_text(
        "def compile_query(spec):\n    return {}\n")
    ban = next(ban for ban in bans.BANS if ban.name == "a second filter path")
    assert bans.violations(ban, tmp_path) == [
        "src/repro/earthqube/search.py:1:def compile_query(spec):"]


def test_the_script_exits_zero_on_this_tree():
    done = subprocess.run([sys.executable, str(SCRIPT)], cwd=REPO,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout
