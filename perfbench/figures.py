"""Reference figures for the README: input make-up and EPDMS comparison points.

    python3 perfbench/figures.py --seed 1

Prints, for the scenes the workloads generate from `--seed`:
- the make-up of desk- and paper-profile scenes: kind mix and mean agents,
  lights, drivable cells, lane segments and observation tokens;
- on the first serve-desk requests of the run (the 32 base scenes as
  generated, then rotated copies): the serve-desk model's EPDMS, the
  oracle EPDMS (best entry per scene) and the best single fixed entry.
Not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import collections
import sys
import tempfile

import run  # pins BLAS threads and locates the package

run.import_package()

import numpy as np  # noqa: E402

from trajsel import config, evaluator, generator, planner, scenario  # noqa: E402

import workloads  # noqa: E402
from workloads import scene_seed  # noqa: E402


DESK_SCENES = 128
PAPER_SCENES = 8  # 0.85 s each to generate
REQUESTS = 256


def make_up(scenes) -> dict:
    kinds = collections.Counter(s.kind for s in scenes)
    return {
        "scenes": len(scenes),
        "kinds": {k: round(v / len(scenes), 3) for k, v in sorted(kinds.items())},
        "agents": float(np.mean([len(s.agents) for s in scenes])),
        "lights": float(np.mean([len(s.lights) for s in scenes])),
        "drivable_cells": float(np.mean([len(s.drivable) for s in scenes])),
        "lane_segments": float(np.mean([sum(len(l.points) - 1 for l in s.lanes)
                                         for s in scenes])),
        "tokens": float(np.mean([len(scenario.observe(s)) for s in scenes])),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    desk, paper = config.desk_config(), config.paper_config()
    desk_scenes = [generator.generate_scenario(scene_seed(args.seed, i), desk.generator)
                   for i in range(DESK_SCENES)]
    paper_scenes = [generator.generate_scenario(scene_seed(args.seed, i), paper.generator)
                    for i in range(PAPER_SCENES)]
    print("desk make-up ", make_up(desk_scenes))
    print("paper make-up", make_up(paper_scenes))

    with tempfile.TemporaryDirectory(dir=run.CACHE) as work_dir:
        serve = workloads.Serve("desk", run.Context(args.seed, work_dir))
        model = serve.setup()
    requests = [serve.request(i) for i in range(REQUESTS)]
    gt = np.stack([evaluator.label_vocabulary(s, model.vocabulary, desk.evaluator).epdms
                   for s in requests])
    picked = gt[np.arange(len(gt)), [planner.infer(model, s).selected for s in requests]]
    n_base = len(serve.base)
    for name, rows in (("as generated", slice(0, n_base)), ("rotated", slice(n_base, None)),
                       ("all", slice(None))):
        fixed = gt[rows].mean(axis=0)
        print(f"serve-desk requests, {name} ({len(gt[rows])}): model EPDMS "
              f"{100 * picked[rows].mean():.2f}, oracle {100 * gt[rows].max(axis=1).mean():.2f}, "
              f"best fixed entry {100 * fixed.max():.2f} (entry {int(fixed.argmax())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
