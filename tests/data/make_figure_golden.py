"""Write ``figure_golden.npz`` next to this script: the figure rows that
``tests/test_figure_golden.py`` compares a fresh figure build against.

Usage, from the repository root:

    PYTHONPATH=src python tests/data/make_figure_golden.py

For each figure file of ``spinwigner figures`` the archive holds the
full-precision rows (theta, phi, nu, r, k, s, W) before CSV formatting,
under the file's stem, and their row numbers under ``<stem>_index``.
The probe-point figures (fig1c, fig2c-4c, fig5a-d) are stored whole; of
each sphere surface a seeded sample of ``SURFACE_SAMPLES`` rows is kept.

The committed archive was written by the per-point implementation, which
built and validated one state for every value.  Rewrite it only when a
figure's definition changes on purpose: it is the record that the
figure data stayed the same while the code under it changed.
"""

from pathlib import Path

import numpy as np

from spinwigner import cli

SURFACE_SAMPLES = 64
SEED = 1901
PROBE_FIGURES = ("fig1c", "fig2c", "fig3c", "fig4c", "fig5a", "fig5b", "fig5c", "fig5d")


def main() -> None:
    rng = np.random.default_rng(SEED)
    arrays = {}
    for name, build in cli._figure_specs():
        stem = name.removesuffix(".csv")
        rows = cli._float_rows(build())
        if stem in PROBE_FIGURES:
            index = np.arange(len(rows))
        else:
            index = np.sort(rng.choice(len(rows), size=SURFACE_SAMPLES, replace=False))
        arrays[stem] = rows[index]
        arrays[stem + "_index"] = index
    out = Path(__file__).with_name("figure_golden.npz")
    np.savez_compressed(out, **arrays)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
