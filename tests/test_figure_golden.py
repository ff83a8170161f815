"""Figure data against a stored numeric golden.

``data/figure_golden.npz`` holds the full-precision rows of every
probe-point figure and a seeded sample of each sphere surface, written
by the per-point implementation (see ``data/make_figure_golden.py``).
A fresh build of the same figures must reproduce the input columns
exactly and every W to 1e-12, so a change in summation order may move
the last printed digit but not the physics.
"""

from pathlib import Path

import numpy as np
import pytest

from spinwigner import cli

GOLDEN_PATH = Path(__file__).parent / "data" / "figure_golden.npz"
W_TOL = 1e-12
PROBE_FIGURES = ("fig1c", "fig2c", "fig3c", "fig4c", "fig5a", "fig5b", "fig5c", "fig5d")


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as archive:
        return {key: archive[key] for key in archive.files}


@pytest.fixture(scope="module")
def fresh():
    return {
        name.removesuffix(".csv"): cli._float_rows(build())
        for name, build in cli._figure_specs()
    }


def test_golden_covers_every_figure(golden, fresh):
    assert {key for key in golden if not key.endswith("_index")} == set(fresh)
    assert sum(len(golden[stem]) for stem in PROBE_FIGURES) == 13_044
    for stem in PROBE_FIGURES:
        assert len(fresh[stem]) == len(golden[stem])


@pytest.mark.parametrize(
    "stem",
    [f"fig{i}{letter}" for i in range(1, 5) for letter in "abc"] + [f"fig5{letter}" for letter in "abcd"],
)
def test_figure_matches_golden(golden, fresh, stem):
    want = golden[stem]
    got = fresh[stem][golden[stem + "_index"]]
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[:, :6], want[:, :6])
    assert float(np.abs(got[:, 6] - want[:, 6]).max()) <= W_TOL
