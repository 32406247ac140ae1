"""Recompute the desk pipeline's byte-identity digests and compare them.

    python3 scripts/check_bytes.py        # from the root of a checkout

A change that claims to keep every value must leave these files
byte-identical:

- `gen --count 64` (seed 0) and its `labels` sidecar under configs/desk.ini;
- `evaluator.subscores` on each of those 64 scenes, as generated and rotated
  by 0.37, for its expert and for entries 0, N/2 and N-1, plus the
  `expert_trajectory` index of each;
- `evaluator.label_vocabulary` on each of those 64 scenes rotated by +0.37
  and by -0.5, every LabelSet array: the views training labels;
- `gen --count 8` (seed 0) and its `labels` sidecar under configs/paper.ini,
  whose 5 688 entries share sample points and poses in other patterns than
  the desk grid's, and `label_vocabulary` on those 8 scenes rotated by +0.37
  and by -0.5, where no lane is axis-aligned;
- `planner.infer` on those 8 paper-profile scenes with `init_params(seed=0)`
  weights, saved and loaded, so later scenes reuse the first one's
  vocabulary encoding: coarse combined scores, top-K, refine combined
  scores and the selection;
- the serve-desk weights that perfbench/weights.py trains, and the reports
  that `eval` and `fov-sweep --checkpoint` write with them on the
  `gen --count 64` scenes (`--split train`): eval, oracle, splits and
  fov-sweep, each digest over the report's .txt then .csv file;
- a 12-scene desk `gen` + `labels` + `train` checkpoint, seed 5, in the
  profile's scratch EMA mode and again in pretrained mode (the mode whose
  teacher drifts from the student, so training runs a teacher pass);
- for both of those checkpoints and the serve-desk weights, their
  parameters apart from the file's header: each section's parameter names
  and arrays, in file order, so a change to the header alone leaves these
  digests as they were;
- for the scratch-mode run, the CLI outputs read from it: `eval --split
  train`'s eval.txt and eval.csv and `infer --index 0`'s stdout;
- for both runs, the training log with each line's `wall_ms` removed.

Prints one line per digest and exits 1 on any mismatch, and on a digest
that is expected but not computed or computed but not expected. BLAS runs
on one thread unless SUPRIM_THREADS or a BLAS thread variable
(OPENBLAS_NUM_THREADS and the like) is set from outside. Takes under a
minute on one core.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

# BLAS sizes its thread pool when numpy loads. Importing trajsel caps the
# BLAS thread variables at SUPRIM_THREADS, so trajsel loads before numpy;
# a thread count set from outside still wins.
os.environ.setdefault("SUPRIM_THREADS", "1")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from trajsel import config, diffcore, evaluator, planner, scenario, vocab  # noqa: E402
from trajsel.cli import cli  # noqa: E402

import numpy as np  # noqa: E402

import weights  # noqa: E402

DESK_INI = os.path.join(ROOT, "configs", "desk.ini")
PAPER_INI = os.path.join(ROOT, "configs", "paper.ini")
EXPECTED = {
    "gen64": "9f045885af36d2ad4899ecc7be8f943ed6f5cd8ba7911cef4358a8bee2a11f7b",
    "gen64.labels": "ef83355f270077ce714173805e2f54623ad353bbe0f78dc00852388bc748404f",
    "gen64 subscores": "21f2c63a3ae94959713a6bdb21b94a635bf9beaef5fab97eddfc7870048a052e",
    "gen64 rotated labels":
        "0313c7ee8591ac218a7b9b87ea71262a166c4e49471e7089e67c87dbe4909420",
    "paper gen8": "206667e280f6da4c4fccbdcd5ea582c1682f9db853c74960f7aff24bd51e6a6a",
    "paper gen8.labels": "e0e32eee9eb81499b5e5f7639a9e39838b8082bdc86014579e75829b706833b2",
    "paper gen8 rotated labels":
        "4b0cdc0e54ff1f1379117ae261f4b0018539f11d9b260613d8aa8cb7d796da8b",
    "paper gen8 infer": "d7d322fe385a3d152b75b9651774108c762e3c18de085a5711a1811436911b37",
    "train12 scratch": "1f7c2dbacbc9e9439080601abf5eac7fae591f076cc086156cf6820b407d3eba",
    "train12 scratch params":
        "8dea3b74eb5ecc7acc07b1dfa8ee6efa35d5b9161c63d719bbda767188493f63",
    "train12 scratch eval.txt":
        "8f1d88e606185c90a933973cea24cab90130b669ab98351fff897fa4ec48305c",
    "train12 scratch eval.csv":
        "d577100878464d66aef2a33d6925701a5e6701251d3522413e897418f970e9cb",
    "train12 scratch infer stdout":
        "5503a41c3ada14c606273167a3252c62ca4b383c0d6a079e09fafd9458efb5a4",
    "train12 scratch train log":
        "fb282f3005bd3ca22b8b33375ce103882b9dbed16a4be6584777dbd072d48149",
    "train12 pretrained": "97ff42054d2404a6a205299c4a6976b7f12901dad3c33a1478c742a2be7fb4dd",
    "train12 pretrained params":
        "a89cf11d8b4f9a101b6e0ed60d785952f8e55c5824061f7acd20bb7d9c7976cd",
    "train12 pretrained train log":
        "2267c8ad09b28ee1b2dd885a1ba9a8e4d9a21de504c4792e3de2405d6b529237",
    "serve-desk weights": "ee5f0fc00e356b43c38752854d29be18ffd3e6990d817101f15a10867c36a228",
    "serve-desk weights params":
        "3bea0f6e45c8369006fa1c746ad5796d7181f8014585b929b6e11a113d040ccf",
    "gen64 serve-desk eval":
        "86741e8434544585d1c4bb325c710dd7eeb20a28a1df463ae30730b34608106d",
    "gen64 serve-desk oracle":
        "06a0757491db5a632abf402ffe94fc913dfa7ebac72f8ba9821923ae40c56c9d",
    "gen64 serve-desk split-eval":
        "e9591f779ddb9c430aeedcf1f5401f3be5249125e9fd440d92d83570d0325f74",
    "gen64 serve-desk fov-sweep":
        "0678631e52699764dd483af348be800b1715cc0901b2c619e929fd6b821dad88",
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_digest(path: str) -> str:
    """Digest of a checkpoint's parameter names and arrays, section by section."""
    h = hashlib.sha256()
    for store in diffcore.load_checkpoint(path)[:2]:
        for name in store.names():
            h.update(name.encode("utf-8"))
            h.update(store[name].tobytes())
    return h.hexdigest()


def run(*argv: str) -> str:
    """Run one trajsel command and return what it printed on stdout.

    Its stderr (progress lines and notes) is shown only when it fails.
    """
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli(list(argv))
    if code != 0:
        raise SystemExit(f"{err.getvalue()}trajsel {' '.join(argv)} exited {code}")
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


def analysis_digests(d: str, data: str, ckpt: str) -> dict[str, str]:
    """Digests of the four campaign reports of one model under desk.ini,
    written by one `eval` and one `fov-sweep`."""
    for cmd in ("eval", "fov-sweep"):
        run("--config", DESK_INI, "--out", d, cmd, "--dataset", data,
            "--split", "train", "--checkpoint", ckpt)
    out = {}
    for name, base in (("eval", "eval"), ("oracle", "oracle"),
                       ("split-eval", "splits"), ("fov-sweep", "fov-sweep")):
        report = b""
        for ext in (".txt", ".csv"):
            with open(os.path.join(d, base + ext), "rb") as fh:
                report += fh.read()
        out[name] = sha256_bytes(report)
    return out


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


def rotated_labels_digest(ini: str, data: str) -> str:
    """Digest of `label_vocabulary` on every scene of `data` under `ini`,
    rotated by +0.37 and by -0.5: each LabelSet's arrays in field order."""
    cfg = config.load_config(ini)
    voc = vocab.build_vocabulary(cfg.generator.vocab)
    h = hashlib.sha256()
    for rec in scenario.load_dataset(data).records:
        for theta in (0.37, -0.5):
            labels = evaluator.label_vocabulary(
                scenario.rotate_scenario(rec.scenario, theta), voc, cfg.evaluator)
            for f in dataclasses.fields(labels):
                h.update(getattr(labels, f.name).tobytes())
    return h.hexdigest()


def paper_infer_digest(data: str) -> str:
    """Digest of paper-profile `infer` on every scene of `data`, seed-0 weights.

    The weights pass through a checkpoint beside `data`, so `infer` runs
    on a loaded model, which encodes the vocabulary once and reuses it.
    """
    cfg = config.load_config(PAPER_INI)
    voc = vocab.build_vocabulary(cfg.generator.vocab)
    params = planner.init_params(cfg.planner, voc, seed=0)
    ckpt = os.path.join(os.path.dirname(data), "seed0.ckpt")
    planner.PlannerModel(cfg.planner, voc, params, params).save(ckpt)
    model = planner.PlannerModel.load(ckpt, voc)
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
    out["gen64 rotated labels"] = rotated_labels_digest(
        DESK_INI, os.path.join(gen64, "dataset.jsonl"))
    paper = os.path.join(work, "paper-gen8")
    out["paper gen8"], out["paper gen8.labels"] = gen_digests(PAPER_INI, paper, 8)
    out["paper gen8 rotated labels"] = rotated_labels_digest(
        PAPER_INI, os.path.join(paper, "dataset.jsonl"))
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
        out[f"train12 {mode} params"] = params_digest(ckpt)
        out[f"train12 {mode} train log"] = sha256_bytes(
            log_without_wall_time(ckpt + ".log.jsonl"))
        if mode == "scratch":
            out.update({"train12 scratch " + k: v
                        for k, v in cli_digests(ini, d, data).items()})

    path = os.path.join(work, "serve-desk.ckpt")
    weights.train_desk_model().save(path)
    out["serve-desk weights"] = sha256(path)
    out["serve-desk weights params"] = params_digest(path)
    out.update({"gen64 serve-desk " + k: v for k, v in analysis_digests(
        os.path.join(work, "serve-desk"), os.path.join(gen64, "dataset.jsonl"),
        path).items()})
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        got = pipeline_digests(work)
    bad = 0
    for name, want in EXPECTED.items():
        if name not in got:
            bad += 1
            print(f"BAD  {name:<30} not computed  (expected {want})")
            continue
        ok = got[name] == want
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'}  {name:<30} {got[name]}"
              + ("" if ok else f"  (expected {want})"))
    for name in sorted(got.keys() - EXPECTED.keys()):
        bad += 1
        print(f"BAD  {name:<30} {got[name]}  (not expected)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
