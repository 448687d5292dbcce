#!/usr/bin/env python3
"""Produce the two phase-vs-entanglement sweep datasets as CSV files.

The first sweep varies the initial qubit-qubit concurrence in the
weak-coupling Bell scenario; the second varies the initial qubit-mode
concurrence in the hybrid scenario at its special working point. Columns
include both the path-computed phase and the closed-form relations, so the
curves can be replotted and compared directly.
"""

import argparse
from pathlib import Path

from becphase import emit, parse_config, run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SWEEPS = {
    "phase_vs_qubit_entanglement.csv": "sweep_entanglement_micro.json",
    "phase_vs_hybrid_entanglement.csv": "sweep_entanglement_macro.json",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data", help="output directory")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for out_name, cfg_name in SWEEPS.items():
        cfg = parse_config((CONFIG_DIR / cfg_name).read_text())
        table = run_scenario(cfg, "sweep")
        path = outdir / out_name
        emit(table, "csv", str(path))
        print(f"wrote {path} ({len(table)} rows)")


if __name__ == "__main__":
    main()
