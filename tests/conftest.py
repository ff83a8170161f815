import os
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from spinwigner import validate_density

# pyproject's `pythonpath` puts src/ on this process's path; tests that
# start `python -m spinwigner` in a subprocess need it there as well.
_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

CRITERIA_DESCRIPTIONS = {
    1: "numeric Wigner equals the three-qubit closed form (50x50 grid, five mixing weights)",
    2: "point value at (pi/2, pi), nu=1 equals (1-3*sqrt3)/8 within 1e-12",
    3: "one-accelerated-qubit closed form matches the channel pipeline (incl. pole spot value)",
    4: "one-accelerated-qubit coefficient table matches the channel entrywise, diagonal sums to 1",
    5: "misprinted tables/forms flagged DISCREPANT while the pipeline passes the r->0 reduction",
    6: "quadrature normalization equals 1 within 1e-8 for ten representative states",
    7: "Husimi distribution is non-negative on the 91x181 grid for the same ten states",
    8: "the negativity threshold returns nu* = 1/(3*sqrt3) within 1e-8",
    9: "point law (1-3*sqrt3*nu*cos^k r)/8 within 1e-12; monotone in r and ordered in k",
    10: "figure export is byte-identical across runs with the exact CSV header",
}

_acceptance_results: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        _acceptance_results[int(m.group(1))] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        status = "PASS" if _acceptance_results[num] else "FAIL"
        terminalreporter.write_line(
            f"[{status}] criterion {num:2d}: {CRITERIA_DESCRIPTIONS.get(num, '')}"
        )


def assert_same_bytes(got: bytes, want: bytes, what: str) -> None:
    """Fail unless ``got`` is ``want`` byte for byte, naming the first line
    where they part.  A whole-file ``==`` would hand pytest two long
    strings to diff on a failure, which can take minutes."""
    if got == want:
        return
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    line = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w), min(len(got_lines), len(want_lines))
    )

    def at(lines):
        return repr(lines[line]) if line < len(lines) else "<end of file>"

    pytest.fail(
        f"{what}: {len(got)} bytes, want {len(want)}; first difference on line {line + 1}: "
        f"{at(got_lines)}, want {at(want_lines)}",
        pytrace=False,
    )


def random_density(n_qubits, rng):
    """Random full-rank density matrix from the Ginibre ensemble."""
    dim = 2**n_qubits
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, n_qubits)


def random_x_density(n, rng):
    """Random X-shaped state: a random PSD 2x2 block on rows (i, 2^n-1-i)
    for each i < 2^(n-1), about a quarter of them zero, everything else 0."""
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim // 2):
        if i and rng.random() < 0.25:
            continue
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rows = [i, dim - 1 - i]
        m[np.ix_(rows, rows)] = g @ g.conj().T
    return m / np.trace(m).real


def x_stack(m):
    """The (2, 2^n) stack of the diagonal and the anti-diagonal of m, by row."""
    m = np.asarray(m)
    return np.stack([m.diagonal(), np.fliplr(m).diagonal()])


def off_x(m):
    """Boolean mask of the entries off the diagonal and the anti-diagonal."""
    dim = m.shape[0]
    i = np.arange(dim)
    mask = np.ones((dim, dim), dtype=bool)
    mask[i, i] = mask[i, dim - 1 - i] = False
    return mask


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scratch_repo(tmp_path, monkeypatch):
    """A throwaway git repository with one commit of this checkout's
    ``.gitignore``, ``README.md``, ``src/`` and ``tools/``, made the root of
    ``tools/paired.py`` (``ROOT`` and ``EXTRACT_ROOT``), so the paired
    tools' tests need no git work tree of their own: they also run from a
    ``git archive`` copy."""
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import paired

    repo = tmp_path / "repo"
    repo.mkdir()
    for name in (".gitignore", "README.md"):
        shutil.copy(_ROOT / name, repo / name)
    for name in ("src", "tools"):
        shutil.copytree(_ROOT / name, repo / name, ignore=shutil.ignore_patterns("__pycache__"))
    commit = ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c"]
    for args in (["init", "-q"], ["add", "."], commit):
        subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True)
    monkeypatch.setattr(paired, "ROOT", repo)
    monkeypatch.setattr(paired, "EXTRACT_ROOT", repo / ".bench_out")
    return repo
