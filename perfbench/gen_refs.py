"""Regenerate the stored references under perfbench/refs/.

    python3 perfbench/gen_refs.py

Run from the root of a checkout, on the revision the references should
describe; manifest.json records that revision and the source digest.
For each workload it stores a fixed sample of datasets with DS limits at
GridConfig(points=16384) and Bayes limits at rel_tol=1e-12, and the CSV
outputs (statuses and coverage) of the workload's reference operations
at default settings with one worker.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import inputs
import run

HIRES_POINTS = 16384
BAYES_HIRES_TOL = 1e-12
LIMITS_SAMPLE_ROWS = 20  # per file; gives one unbounded row and 3 heavy tails per channel
SIMULATE_SAMPLE_S = {"simulate-paper": (20.0, 25.0, 30.0, 35.0, 40.0),
                     "simulate-small": (5.0, 15.0, 25.0)}
SIMULATE_SAMPLE_PER_S = 4
ENUM_SAMPLE_CELLS = 12


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from dsplim import bayes, cli, ds_limits

    grid = ds_limits.GridConfig(points=HIRES_POINTS)

    def hires(channels, quantiles):
        dataset = ds_limits.Dataset(tuple(ds_limits.ChannelObservation(*ch)
                                          for ch in channels))
        try:
            return ds_limits.dataset_limits(dataset, quantiles, grid)
        except ds_limits.UnboundedLimit:
            return None

    refs = run.REFS
    refs.mkdir(exist_ok=True)
    qs = list(run.QUANTILES)

    # limits: sample files, their `dsplim limits` CSVs, 16384-knot limits
    limits = {"quantiles": qs, "ds_hires": {}}
    for c, text in inputs.limits_files(run.REF_SEED, LIMITS_SAMPLE_ROWS).items():
        path = refs / f"limits_{c}ch.txt"
        path.write_text(text)
        _cli(cli, ["limits", "--input", str(path),
                   "--output", str(refs / f"limits_{c}ch.csv"), "--threads", "1"])
        with open(path) as fh:
            datasets = cli.parse_dataset_file(fh)
        limits["ds_hires"][str(c)] = [
            hires([(ch.n, ch.y, ch.z, ch.t, ch.u) for ch in d.channels], qs)
            for d in datasets
        ]
    _dump(refs / "limits.json", limits)

    # simulate-*: model draws at fixed s, both methods; reference operation
    for kind, s_values in SIMULATE_SAMPLE_S.items():
        cfg = inputs.PAPER if kind == "simulate-paper" else inputs.SMALL
        rng = np.random.default_rng(run.REF_SEED)
        rows = []
        for s in s_values:
            for _ in range(SIMULATE_SAMPLE_PER_S):
                n = int(rng.poisson(cfg["eps"] * s + cfg["b"]))
                y = int(rng.poisson(cfg["t"] * cfg["b"]))
                z = int(rng.poisson(cfg["u"] * cfg["eps"]))
                rows.append([[n, y, z, cfg["t"], cfg["u"]]])
        ns, ys, zs = (np.array([r[0][i] for r in rows]) for i in range(3))
        argv, evaluations = inputs.simulate_argv(
            kind, run.REF_SEED, 0, str(refs / f"{kind}.csv"))
        _cli(cli, argv)
        reps = int(argv[argv.index("--reps") + 1])
        _dump(refs / f"{kind}.json", {
            "quantiles": qs,
            "datasets": rows,
            "ds_hires": [hires(r, qs) for r in rows],
            "bayes_hires": {
                m: bayes.bayes_upper_limits_batch(
                    ns, ys, zs, cfg["t"], cfg["u"], bayes.prior_preset(m), qs,
                    rel_tol=BAYES_HIRES_TOL).T.tolist()
                for m in inputs.METHODS if m != "ds"
            },
            "reference_op": {
                "argv": argv[:-2],
                "reps": reps,
                "datasets": evaluations // len(inputs.METHODS),
            },
        })

    # enumerate: cells of the box (always (3, 1, 1), whose default-grid
    # error is largest) and the fine-grid coverage at one worker
    cfg = inputs.SMALL
    rng = np.random.default_rng(run.REF_SEED)
    cells = {(3, 1, 1)}
    while len(cells) < ENUM_SAMPLE_CELLS:
        cells.add((int(rng.integers(0, 20)), int(rng.integers(0, 13)),
                   int(rng.integers(0, 13))))
    rows = [[[n, y, z, cfg["t"], cfg["u"]]] for n, y, z in sorted(cells)]
    _cli(cli, inputs.enumerate_cli(inputs.ENUM_FINE_GRID,
                                   str(refs / "enumerate.csv"), threads=1))
    _dump(refs / "enumerate.json", {
        "quantiles": [0.9],
        "datasets": rows,
        "ds_hires": [hires(r, [0.9]) for r in rows],
    })

    import dsplim

    record = run.run_record(dsplim, 0.0, 0)
    _dump(refs / "manifest.json", {
        "script": "perfbench/gen_refs.py",
        "seed_revision": record["git_rev"],
        "source_sha256": record["source_sha256"],
        "ref_seed": run.REF_SEED,
        "ds_hires_points": HIRES_POINTS,
        "bayes_hires_rel_tol": BAYES_HIRES_TOL,
        "python": record["python"],
        "numpy": record["numpy"],
        "scipy": record["scipy"],
    })
    return 0


def _cli(cli, argv) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"dsplim {' '.join(argv)} exited with {rc}")


def _dump(path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
