"""Train a small two-stage selector end to end, then reload it."""

import tempfile
from pathlib import Path

import numpy as np

from trajsel import evaluator, harness, planner
from trajsel.generator import generate_scenario
from trajsel.scenario import GenConfig
from trajsel.vocab import VocabSpec, build_vocabulary

spec = VocabSpec(n_curvature=8, n_speed=4, n_accel=2)
vocab = build_vocabulary(spec)
cfg = GenConfig(vocab=spec)
scenes = [generate_scenario(seed, cfg) for seed in range(8)]
labels = [evaluator.label_vocabulary(s, vocab) for s in scenes]

pcfg = planner.PlannerConfig(
    hidden_dim=16,
    coarse_layers=1,
    refine_layers=1,
    attn_heads=2,
    ff_dim=32,
    top_k=8,
    batch_size=2,
    epochs=3,
    lr=2e-3,
    ema_mode="scratch",
)

# ceiling first: the best any selector could do on these labels
best = 100.0 * float(np.mean([lab.gt().max() for lab in labels]))
print("oracle ceiling over %d scenes: %.1f" % (len(scenes), best))

# an untrained student picks by noise
fresh = planner.PlannerModel(
    pcfg, vocab, planner.init_params(pcfg, vocab, seed=9),
    planner.init_params(pcfg, vocab, seed=9),
)
before = harness.evaluate(fresh, scenes, labels, use_teacher=False)
print("untrained:  %.1f" % before.aggregate_mean)

res = planner.train(scenes, vocab, pcfg, seed=9, labels=labels)
per_epoch = len(res.log) // pcfg.epochs
for e in range(pcfg.epochs):
    chunk = res.log[e * per_epoch : (e + 1) * per_epoch]
    loss = np.mean([r["L_ori"] + r["L_aug"] + r["L_soft"] for r in chunk])
    print("  epoch %d: mean step loss %.1f" % (e, loss))
after = harness.evaluate(res.model, scenes, labels, use_teacher=False)
print("trained:    %.1f  (%d optimizer steps)"
      % (after.aggregate_mean, res.steps))

# the student and its slow-moving teacher are both in the checkpoint;
# a reload makes the same selection on every scene
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "tiny.ckpt"
    res.model.save(path)
    again = planner.PlannerModel.load(path, vocab)
    rerun = harness.evaluate(again, scenes, labels, use_teacher=False)
    same = [r["selected"] for r in rerun.rows] == [r["selected"] for r in after.rows]
    print("reload reproduces every selection:", same)

# per-scene picks against what the labels call best
print("\nscene  picked  best  gt(picked)  gt(best)")
for i, (row, lab) in enumerate(zip(after.rows, labels)):
    got = row["selected"]
    top = int(np.argmax(lab.gt()))
    print("  %2d   %4d   %4d     %.3f      %.3f"
          % (i, got, top, lab.gt()[got], lab.gt()[top]))
