"""tools/paired.py: the parent checkout, its cleanup and the side order."""

import signal
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import paired  # noqa: E402


def test_sides_alternate_parent_first():
    assert [paired.side_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_side_records_name_both_commits():
    sides = paired.side_records("HEAD")
    assert sides["parent"] == {"revision": "HEAD", "commit": paired.git("rev-parse", "HEAD")}
    assert sides["change"]["commit"] == sides["parent"]["commit"]
    assert isinstance(sides["change"]["uncommitted"], bool)


def test_parent_holds_the_committed_files_and_is_removed():
    with paired.checkouts(paired.git("rev-parse", "HEAD")) as dirs:
        parent = dirs["parent"]
        assert dirs["change"] == paired.ROOT
        assert (parent / "src" / "spinwigner" / "linalg.py").is_file()
        assert not (parent / ".git").exists()
    assert not parent.parent.exists()
    assert signal.getsignal(signal.SIGTERM) is not paired._exit_on_sigterm


def test_sigterm_removes_the_parent(tmp_path):
    script = (f"import sys, time; sys.path.insert(0, {str(TOOLS)!r}); import paired\n"
              "with paired.checkouts('HEAD') as dirs:\n"
              "    print(dirs['parent'], flush=True)\n"
              "    time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        parent = Path(proc.stdout.readline().strip())
        assert parent.is_dir()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.stdout.close()
    assert not parent.parent.exists()
