"""The run protocol shared by the paired timing tools.

``bench_pairs.py`` and ``layer_times.py`` both time a parent revision
against this checkout.  Both sides are extracted the same way, with
``git archive``, into one temporary directory beside the working tree,
under the gitignored ``.bench_out/`` (``EXTRACT_ROOT``): the parent from
its commit, the ``change`` side from a tree of the working tree as it is
(:func:`worktree_tree`).  So both sides import from the same file system
and neither carries compiled bytecode that the other lacks; a working
tree's stale ``__pycache__`` made a fresh import there about 10 % faster
than in an extracted copy when bytecode writing is off
(``PYTHONDONTWRITEBYTECODE``).  The directory is removed again when the
``checkouts`` block exits, also on an error, an interrupt or a SIGTERM.
No ref and no index entry is written, so a killed run leaves no trace in
the repository's history or index.
The side that runs first alternates from one pair (or round) to the
next, the parent first in even ones.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
EXTRACT_ROOT = ROOT / ".bench_out"


def git(*args: str, env: dict[str, str] | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def side_records(parent: str) -> dict[str, dict]:
    """What each side is: the parent revision and its commit, and the
    change's commit and whether the working tree has uncommitted edits."""
    return {
        "parent": {"revision": parent, "commit": git("rev-parse", parent)},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted": bool(git("status", "--porcelain"))},
    }


def side_order(i: int) -> tuple[str, str]:
    """The sides in run order for pair or round ``i`` (counting from 0)."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def worktree_tree() -> str:
    """The git tree of the working tree as it is: tracked files with their
    edits and untracked files that are not ignored.  It is written through
    a temporary index, so the repository's index and refs do not change."""
    with tempfile.TemporaryDirectory(prefix="paired-index-") as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "--all", env=env)
        return git("write-tree", env=env)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _extract(tree_ish: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(["git", "archive", tree_ish], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


@contextlib.contextmanager
def checkouts(parent_commit: str) -> Iterator[dict[str, Path]]:
    """Yield the directory of each side: the parent commit and the working
    tree, each extracted into one temporary directory under
    ``EXTRACT_ROOT``.  Inside the block a SIGTERM exits through the
    cleanup, with status 143."""
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        EXTRACT_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="paired-", dir=EXTRACT_ROOT) as tmp:
            dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
            _extract(parent_commit, dirs["parent"])
            _extract(worktree_tree(), dirs["change"])
            yield dirs
    finally:
        signal.signal(signal.SIGTERM, previous)
