"""Recompute the desk pipeline's byte-identity digests and compare them.

    python3 scripts/check_bytes.py        # from the root of a checkout

A change that claims to keep every value must leave these files
byte-identical:

- `gen --count 64` (seed 0) and its `labels` sidecar under configs/desk.ini;
- `evaluator.subscores` on each of those 64 scenes, as generated and rotated
  by 0.37, for its expert and for entries 0, N/2 and N-1, plus the
  `expert_trajectory` index of each;
- `gen --count 8` (seed 0) and its `labels` sidecar under configs/paper.ini,
  whose 8192-entry grid repeats entries, sample points and poses in other
  patterns than the desk grid;
- `planner.infer` on those 8 paper-profile scenes with `init_params(seed=0)`
  weights: coarse combined scores, top-K, refine combined scores and the
  selection;
- the serve-desk weights that perfbench/weights.py trains;
- a 12-scene desk `gen` + `labels` + `train` checkpoint, seed 5, in the
  profile's scratch EMA mode and again in pretrained mode (the mode whose
  teacher drifts from the student, so training runs a teacher pass);
- for the scratch-mode run, the CLI outputs read from it: `eval --split
  train`'s eval.txt and eval.csv and `infer --index 0`'s stdout;
- for both runs, the training log with each line's `wall_ms` removed.

Prints one line per digest and exits 1 on any mismatch. BLAS runs on one
thread. Takes about a minute on one core.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from trajsel import config, evaluator, planner, scenario, vocab  # noqa: E402
from trajsel.cli import cli  # noqa: E402

import weights  # noqa: E402

DESK_INI = os.path.join(ROOT, "configs", "desk.ini")
PAPER_INI = os.path.join(ROOT, "configs", "paper.ini")
EXPECTED = {
    "gen64": "9f045885af36d2ad4899ecc7be8f943ed6f5cd8ba7911cef4358a8bee2a11f7b",
    "gen64.labels": "11905b372cbe53c05831e2dfb72daba85cbc10ed75eab6de687f749bc48fa0b0",
    "gen64 subscores": "5e96572db81da1a5e1d58289b7c01e706a2570a71b0606fe10b49c2030d32a71",
    "paper gen8": "206667e280f6da4c4fccbdcd5ea582c1682f9db853c74960f7aff24bd51e6a6a",
    "paper gen8.labels": "0c02cf2ff6835c2e58424ab8955eb732794b2d96f6f302c49254db6723544e8f",
    "paper gen8 infer": "c4249c8974c74a9ddf1e18bd8a3675ad75696773ca7f39d34c74465e8970111e",
    "train12 scratch": "872ab7f6acd2758e6ccefca75461bd4edd23fd6400949451ff163339e2fdf180",
    "train12 scratch eval.txt":
        "835a16ecf5c5d789ff69cd3e4aa15507c042b849a15dcda7502a21668c7e62b7",
    "train12 scratch eval.csv":
        "d577100878464d66aef2a33d6925701a5e6701251d3522413e897418f970e9cb",
    "train12 scratch infer stdout":
        "45a2f75e5b030ca7d7b1432998d60b07613aabc0addba248d9c925545f4ece76",
    "train12 scratch train log":
        "234b8499399a909abe77163a8ab92a0f0dbecc691c5b84d6308720b7a3230696",
    "train12 pretrained": "67403defce87706bf78b8ad937c5e186ae8444467f9b6a65c6a905aeae045ee4",
    "train12 pretrained train log":
        "4d2ef13dc989da269a8b459f9c6c9c9d93a0892be4af7ef76ffbb3cca21cf986",
    "serve-desk weights": "02dcfc3bd2820e457e9a4bf6a0f6c22f4cccbb57ba247d7c47aa3ab2840728cd",
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(*argv: str) -> str:
    """Run one trajsel command and return what it printed on stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli(list(argv))
    if code != 0:
        raise SystemExit(f"trajsel {' '.join(argv)} exited {code}")
    return buf.getvalue()


def log_without_wall_time(path: str) -> bytes:
    """The training log with each record's `wall_ms` removed."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            del rec["wall_ms"]
            lines.append(json.dumps(rec) + "\n")
    return "".join(lines).encode("utf-8")


def cli_digests(ini: str, d: str, data: str) -> dict[str, str]:
    """Digests of the eval and infer outputs of one run."""
    ckpt = os.path.join(d, "model.ckpt")
    run("--config", ini, "--out", d, "eval", "--dataset", data,
        "--split", "train", "--checkpoint", ckpt)
    stdout = run("--config", ini, "--out", d, "infer", "--dataset", data,
                 "--split", "train", "--checkpoint", ckpt, "--index", "0")
    return {
        "eval.txt": sha256(os.path.join(d, "eval.txt")),
        "eval.csv": sha256(os.path.join(d, "eval.csv")),
        "infer stdout": sha256_bytes(stdout.encode("utf-8")),
    }


def gen_digests(ini: str, d: str, count: int) -> tuple[str, str]:
    """Digests of `gen --count <count>` (seed 0) and its label sidecar."""
    run("--config", ini, "--out", d, "--seed", "0", "gen", "--count", str(count))
    data = os.path.join(d, "dataset.jsonl")
    run("--config", ini, "--out", d, "labels", "--dataset", data)
    return sha256(data), sha256(data + ".labels.npz")


def subscores_digest(data: str) -> str:
    """Digest of one-trajectory scoring on every scene of `data` under desk.ini.

    Each scene, as generated and rotated by 0.37, contributes its
    `expert_trajectory` index and the `subscores` of its expert and of
    entries 0, N/2 and N-1.
    """
    cfg = config.load_config(DESK_INI)
    voc = vocab.build_vocabulary(cfg.generator.vocab)
    n = len(voc)
    h = hashlib.sha256()
    for rec in scenario.load_dataset(data).records:
        for s in (rec.scenario, scenario.rotate_scenario(rec.scenario, 0.37)):
            idx, _ = evaluator.expert_trajectory(s, voc, cfg.evaluator)
            h.update(np.int64(idx).tobytes())
            for t in (s.expert, *(voc.entry(i) for i in (0, n // 2, n - 1))):
                sub = evaluator.subscores(s, t, cfg.evaluator)
                h.update(np.array([sub[m] for m in evaluator.METRICS]).tobytes())
    return h.hexdigest()


def paper_infer_digest(data: str) -> str:
    """Digest of paper-profile `infer` on every scene of `data`, seed-0 weights."""
    cfg = config.load_config(PAPER_INI)
    voc = vocab.build_vocabulary(cfg.generator.vocab)
    params = planner.init_params(cfg.planner, voc, seed=0)
    model = planner.PlannerModel(cfg.planner, voc, params, params)
    h = hashlib.sha256()
    for rec in scenario.load_dataset(data).records:
        res = planner.infer(model, rec.scenario)
        for a in (res.coarse_combined, res.topk, res.refine_combined, np.int64(res.selected)):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def pipeline_digests(work: str) -> dict[str, str]:
    out = {}
    gen64 = os.path.join(work, "gen64")
    out["gen64"], out["gen64.labels"] = gen_digests(DESK_INI, gen64, 64)
    out["gen64 subscores"] = subscores_digest(os.path.join(gen64, "dataset.jsonl"))
    paper = os.path.join(work, "paper-gen8")
    out["paper gen8"], out["paper gen8.labels"] = gen_digests(PAPER_INI, paper, 8)
    out["paper gen8 infer"] = paper_infer_digest(os.path.join(paper, "dataset.jsonl"))

    pretrained = os.path.join(work, "pretrained.ini")
    with open(DESK_INI, encoding="utf-8") as src, \
            open(pretrained, "w", encoding="utf-8") as dst:
        dst.write(src.read().replace("ema_mode = scratch", "ema_mode = pretrained"))
    for mode, ini in (("scratch", DESK_INI), ("pretrained", pretrained)):
        d = os.path.join(work, "train12-" + mode)
        run("--config", ini, "--out", d, "--seed", "5", "gen", "--count", "12")
        data = os.path.join(d, "dataset.jsonl")
        run("--config", ini, "--out", d, "labels", "--dataset", data)
        run("--config", ini, "--out", d, "--seed", "5", "train", "--dataset", data)
        ckpt = os.path.join(d, "model.ckpt")
        out["train12 " + mode] = sha256(ckpt)
        out[f"train12 {mode} train log"] = sha256_bytes(
            log_without_wall_time(ckpt + ".log.jsonl"))
        if mode == "scratch":
            out.update({"train12 scratch " + k: v
                        for k, v in cli_digests(ini, d, data).items()})

    path = os.path.join(work, "serve-desk.ckpt")
    weights.train_desk_model().save(path)
    out["serve-desk weights"] = sha256(path)
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        got = pipeline_digests(work)
    bad = 0
    for name, want in EXPECTED.items():
        ok = got[name] == want
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'}  {name:<30} {got[name]}"
              + ("" if ok else f"  (expected {want})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
