"""Trained desk-profile weights for the serve-desk workload.

Untrained desk weights select entries that score 0 EPDMS, so serve-desk
runs a model trained here from scratch: TRAIN_SCENES generated scenes,
labelled, two epochs of `planner.train` with the desk profile. Every step
is seeded, so the checkpoint depends only on the source, never on timing.
It is built once per checkout (about two minutes on one core) and cached
under the benchmark's build directory, keyed by the sha256 of the trajsel
sources and this file.
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace

from trajsel import config, evaluator, generator, planner, vocab

# Scene seeds of the training set; workload scene seeds start at 10**7,
# so serve-desk only ever sends scenes the model has not seen.
TRAIN_SEED0 = 1_000_000
TRAIN_SCENES = 256
EPOCHS = 2
MODEL_SEED = 0


def source_key(src_dir: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "trajsel", "*.py"))) + [__file__]:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def train_desk_model(log=sys.stderr):
    app = config.desk_config()
    voc = vocab.build_vocabulary(app.generator.vocab)
    t0 = time.perf_counter()
    scenes = [generator.generate_scenario(TRAIN_SEED0 + i, app.generator)
              for i in range(TRAIN_SCENES)]
    labels = [evaluator.label_vocabulary(s, voc, app.evaluator) for s in scenes]
    print(f"perfbench: desk weights: {TRAIN_SCENES} scenes labelled in "
          f"{time.perf_counter() - t0:.0f} s, training {EPOCHS} epochs", file=log, flush=True)
    result = planner.train(scenes, voc, replace(app.planner, epochs=EPOCHS),
                           seed=MODEL_SEED, labels=labels, eval_cfg=app.evaluator)
    if result.aborted:
        raise RuntimeError("desk weight training aborted on a non-finite loss")
    return result.model


def desk_checkpoint(cache_dir: str, src_dir: str) -> str:
    """Path of the cached desk checkpoint, training it first if missing.

    Training runs in a child process, so that its memory does not count in
    the peak RSS of the benchmark run that happens to build the weights.
    """
    path = os.path.join(cache_dir, f"desk-{source_key(src_dir)}.ckpt")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        subprocess.run([sys.executable, os.path.abspath(__file__), path],
                       env=dict(os.environ, PYTHONPATH=src_dir), check=True)
    return path


def _build(path: str) -> None:
    t0 = time.perf_counter()
    model = train_desk_model()
    tmp = f"{path}.tmp{os.getpid()}"
    model.save(tmp)
    os.replace(tmp, path)
    print(f"perfbench: desk weights built in {time.perf_counter() - t0:.0f} s -> {path}",
          file=sys.stderr, flush=True)


if __name__ == "__main__":
    _build(sys.argv[1])
