"""Train the acceptance arms and cache checkpoints + reports.

Arms: per seed in 0..3, coarse-to-fine (c2f), single-stage (single),
and augmentation-off c2f (noaug). Results land in build/acceptance/
as checkpoints plus one summary JSON the tests can assert against. The
summary records the vocabulary digest; arms cached under another
vocabulary are trained again.
"""

import json
import os
import sys
import time
from dataclasses import replace

from trajsel import evaluator, harness
from trajsel.config import config_hash, load_config
from trajsel.planner import train
from trajsel.scenario import load_dataset
from trajsel.vocab import build_vocabulary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "acceptance.ini")
OUT = os.path.join(ROOT, "build", "acceptance")
SEEDS = (0, 1, 2, 3)


ARMS = {
    "c2f": {},
    "single": {"single_stage": True},
    "noaug": {"augment": False},
}


def main(which=None):
    cfg = load_config(CONFIG)
    vocab = build_vocabulary(cfg.generator.vocab)
    train_ds = load_dataset(os.path.join(OUT, "train.jsonl"))
    test_ds = load_dataset(os.path.join(OUT, "test.jsonl"))
    train_s = [r.scenario for r in train_ds.records]
    test_s = [r.scenario for r in test_ds.records]
    train_labels = evaluator.load_labels(
        os.path.join(OUT, "train.jsonl.labels.npz"),
        dataset_sha=train_ds.sha256, vocabulary=vocab, cfg=cfg.evaluator)
    test_labels = evaluator.load_labels(
        os.path.join(OUT, "test.jsonl.labels.npz"),
        dataset_sha=test_ds.sha256, vocabulary=vocab, cfg=cfg.evaluator)

    summary_path = os.path.join(OUT, "arms.json")
    summary = {}
    if os.path.exists(summary_path):
        with open(summary_path) as fh:
            summary = json.load(fh)
    if summary.get("vocab_digest") != vocab.digest:
        summary = {"vocab_digest": vocab.digest}

    for arm, overrides in ARMS.items():
        if which and arm not in which:
            continue
        for seed in SEEDS:
            key = "%s_s%d" % (arm, seed)
            ckpt = os.path.join(OUT, key + ".ckpt")
            if key in summary and os.path.exists(ckpt):
                print("%s: cached (EPDMS %.2f)" % (key, summary[key]["epdms"]),
                      flush=True)
                continue
            pcfg = replace(cfg.planner, epochs=1, **overrides)
            t0 = time.perf_counter()
            result = train(train_s, vocab, pcfg, seed=seed,
                           labels=list(train_labels), eval_cfg=cfg.evaluator)
            t1 = time.perf_counter()
            result.model.save(ckpt, step=result.steps,
                              config_hash=config_hash(replace(cfg, planner=pcfg)))
            rep = harness.evaluate(result.model, test_s, labels=test_labels,
                                   use_teacher=False)
            splits = harness.split_eval(rep)
            summary[key] = {
                "arm": arm,
                "seed": seed,
                "epdms": rep.aggregate_mean,
                "splits": {b: (None if splits[b] is None
                               else splits[b].aggregate_mean)
                           for b in ("left", "forward", "right")},
                "split_n": {b: (0 if splits[b] is None
                                else splits[b].n_scenarios)
                            for b in ("left", "forward", "right")},
                "steps": result.steps,
                "aborted": result.aborted,
                "train_s": round(t1 - t0, 1),
            }
            with open(summary_path, "w") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
            print("%s: EPDMS %.2f (train %.0fs, aborted %s)"
                  % (key, rep.aggregate_mean, t1 - t0, result.aborted),
                  flush=True)
    print("all arms done", flush=True)


if __name__ == "__main__":
    main(set(sys.argv[1:]) or None)
