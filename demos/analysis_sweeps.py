"""The four evaluation studies, run at desk scale on one trained model."""

import numpy as np

from trajsel import evaluator, harness, planner
from trajsel.generator import generate_scenario
from trajsel.scenario import GenConfig
from trajsel.vocab import VocabSpec, build_vocabulary

spec = VocabSpec(n_curvature=8, n_speed=4, n_accel=2)
vocab = build_vocabulary(spec)
cfg = GenConfig(vocab=spec, turn_fraction=0.4)
scenes = [generate_scenario(seed, cfg) for seed in range(16)]
labels = [evaluator.label_vocabulary(s, vocab) for s in scenes]

pcfg = planner.PlannerConfig(
    hidden_dim=16,
    coarse_layers=1,
    refine_layers=1,
    attn_heads=2,
    ff_dim=32,
    top_k=8,
    batch_size=2,
    epochs=5,
    lr=2e-3,
    ema_mode="scratch",
)
model = planner.train(scenes, vocab, pcfg, seed=9, labels=labels).model

# one evaluation runs the selector once per scene; the first two studies
# are views of its report
report = harness.evaluate(model, scenes, labels, use_teacher=False)

# 1. how much headroom the two-stage ranking leaves on the table:
# best ground truth among the model's top K picks, per K
ks = (1, 2, 4, 8, 16, 64)
study = harness.oracle_study(report, ks)
print(harness.table_text(
    ("K", "best-in-top-K"),
    [(k, "%.1f" % study[k]) for k in ks],
))

# 2. scores split by what the expert did (turn threshold 30 degrees);
# a model this small only copes with the forward bucket, which is
# exactly the imbalance this table exists to expose
split = harness.split_eval(report)
rows = []
for name, rep in split.items():
    if rep is None:
        rows.append((name, 0, "-"))
    else:
        rows.append((name, rep.n_scenarios, "%.1f" % rep.aggregate_mean))
print()
print(harness.table_text(("bucket", "scenes", "score"), rows))

# 3. rotation augmentation flattens the heading distribution of
# qualifying entries; smaller KL to uniform means flatter
hist0 = harness.heading_histogram(labels, vocab, bins=12)
aug = harness.rotation_augmented_labels(scenes, vocab, labels, pcfg.theta, seed=0)
hist1 = harness.heading_histogram(aug, vocab, bins=12)
print("\nheading histogram, KL to uniform:")
print("  originals            %.4f  (%d qualifying entries)"
      % (harness.kl_to_uniform(hist0["counts"]), hist0["counts"].sum()))
print("  + one rotated copy   %.4f  (%d qualifying entries)"
      % (harness.kl_to_uniform(hist1["counts"]), hist1["counts"].sum()))

# 4. what changing the camera rig costs. The per-kind point caps
# saturate at this scene size, so token counts barely move, but the
# score peaks at the 3-camera mask the model was trained with: both a
# narrower and a wider view are off-distribution
print()
rows = []
for r in harness.fov_sweep(scenes, model, labels, use_teacher=False):
    rows.append((r["cameras"], "%.1f" % r["mean_tokens"],
                 "-" if r["score"] is None else "%.1f" % r["score"]))
print(harness.table_text(("cameras", "mean tokens", "score"), rows))
