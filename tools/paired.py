"""The run protocol shared by the paired timing tools.

``bench_pairs.py`` and ``layer_times.py`` both time a parent revision
against this checkout.  The parent's committed files are extracted with
``git archive`` into a temporary directory, which is removed again when
the ``checkouts`` block exits, also on an error, an interrupt or a
SIGTERM; nothing is registered in the repository, so a killed run leaves
no trace in it.
The working tree is the ``change`` side.  The side that runs first
alternates from one pair (or round) to the next, the parent first in
even ones.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


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


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def checkouts(parent_commit: str) -> Iterator[dict[str, Path]]:
    """Yield the directory of each side: the parent commit extracted into a
    temporary directory, and this checkout.  Inside the block a SIGTERM
    exits through the cleanup, with status 143."""
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory(prefix="paired-") as tmp:
            parent_dir = Path(tmp) / "parent"
            parent_dir.mkdir()
            archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True,
                                     capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
            yield {"parent": parent_dir, "change": ROOT}
    finally:
        signal.signal(signal.SIGTERM, previous)
