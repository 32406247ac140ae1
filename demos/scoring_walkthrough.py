"""Score a trajectory vocabulary against one scene, by hand."""

import numpy as np

from trajsel.evaluator import (
    DEFAULT_EVAL_CONFIG,
    METRICS,
    aggregate,
    label_vocabulary,
    subscores,
)
from trajsel.generator import generate_scenario
from trajsel.scenario import GenConfig
from trajsel.vocab import VocabSpec, build_vocabulary

spec = VocabSpec(n_curvature=8, n_speed=4, n_accel=2)
vocab = build_vocabulary(spec)
cfg = GenConfig(vocab=spec)
s = generate_scenario(2, cfg)
print("scene 2 (%s, %d agents), vocabulary of %d entries"
      % (s.kind, len(s.agents), len(vocab)))

# every entry gets the full subscore vector plus both aggregates
labels = label_vocabulary(s, vocab)
order = np.argsort(labels.epdms)[::-1]
print("\n  entry  " + "".join("%5s" % m for m in METRICS) + "   v1    v2")
for i in order[:5]:
    row = "".join("%5.2f" % v for v in labels.subscores[i])
    print("  %5d  %s  %.3f %.3f" % (i, row, labels.pdms[i], labels.epdms[i]))

# the expert is scored with the same machinery; note the curve expert
# gives up the comfort terms (hc, ec, c) to hold speed through the bend,
# while the straight-road expert of scene 0 keeps a spotless vector
sv = subscores(s, s.expert)
print("\nexpert subscores:", {m: round(v, 3) for m, v in sv.items()})
print("expert aggregate: v1=%.3f  v2=%.3f"
      % (aggregate(sv, version="v1"), aggregate(sv, version="v2")))
s0 = generate_scenario(0, cfg)
sv0 = subscores(s0, s0.expert)
print("scene 0 expert:   v1=%.3f  v2=%.3f  (all subscores %.1f)"
      % (aggregate(sv0, version="v1"), aggregate(sv0, version="v2"),
         min(sv0.values())))

# the aggregate is (product of penalties) x (weighted average); any
# zeroed penalty wipes the whole score
ec = DEFAULT_EVAL_CONFIG
hand = dict(sv)
pen = np.prod([hand[m] for m in ec.penalties("v2")])
num = sum(w * hand[m] for m, w in ec.average("v2"))
den = sum(w for _, w in ec.average("v2"))
print("by hand: %.6f x %.6f = %.6f" % (pen, num / den, pen * num / den))

hand["nc"] = 0.0  # a collision
print("same entry with a collision: v2=%.3f" % aggregate(hand, version="v2"))

# hunt for a red light and watch the light penalty separate entries
for seed in range(100):
    r = generate_scenario(seed, cfg)
    if r.lights and r.lights[0].is_red:
        break
rl = label_vocabulary(r, vocab)
ran = rl.metric("tlc") < 1.0
print("\nscene %d has a red light: %d of %d entries cross the stop line,"
      % (seed, int(ran.sum()), len(vocab)))
print("their best v2 score is %.3f vs %.3f for the compliant rest"
      % (rl.epdms[ran].max(), rl.epdms[~ran].max()))
