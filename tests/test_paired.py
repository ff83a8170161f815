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


def test_both_sides_are_extracted_beside_the_working_tree_and_removed():
    index = paired.git("ls-files", "--stage")
    with paired.checkouts(paired.git("rev-parse", "HEAD")) as dirs:
        parent, change = dirs["parent"], dirs["change"]
        # in one directory under the gitignored directory of run outputs
        assert parent.parent == change.parent
        assert parent.parent.parent == paired.EXTRACT_ROOT == paired.ROOT / ".bench_out"
        assert paired.git("check-ignore", str(parent)) == str(parent)
        for side in (parent, change):
            assert (side / "src" / "spinwigner" / "linalg.py").is_file()
            assert not (side / ".git").exists()
            assert not list(side.rglob("__pycache__"))
        # the change side is the working tree as it is, edits included
        for path in ("src/spinwigner/quasiprob.py", "tools/paired.py", "README.md"):
            assert (change / path).read_bytes() == (paired.ROOT / path).read_bytes()
    assert not parent.parent.exists()
    assert paired.git("ls-files", "--stage") == index
    assert signal.getsignal(signal.SIGTERM) is not paired._exit_on_sigterm


def test_worktree_tree_holds_uncommitted_and_untracked_files(monkeypatch, tmp_path):
    # a scratch repository, so the test edits no file of this one
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "tracked.txt").write_text("committed\n")
    git("add", ".")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c")
    (repo / "tracked.txt").write_text("edited\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("ignored\n")
    index = git("ls-files", "--stage")
    monkeypatch.setattr(paired, "ROOT", repo)
    tree = paired.worktree_tree()
    listing = git("ls-tree", "--name-only", tree).split()
    assert listing == [".gitignore", "tracked.txt", "untracked.txt"]
    assert git("cat-file", "-p", f"{tree}:tracked.txt") == "edited\n"
    assert git("ls-files", "--stage") == index


def test_sigterm_removes_the_parent(tmp_path):
    script = (f"import sys, time; sys.path.insert(0, {str(TOOLS)!r}); import paired\n"
              "with paired.checkouts('HEAD') as dirs:\n"
              "    print(dirs['parent'], flush=True)\n"
              "    time.sleep(60)\n")
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
    try:
        parent = Path(proc.stdout.readline().strip())
        assert parent.is_dir() and parent.parent.parent == paired.EXTRACT_ROOT
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.stdout.close()
    assert not parent.parent.exists()
