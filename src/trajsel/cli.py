"""Command line front end.

Subcommands cover the whole pipeline: generate scenarios, label them
against the vocabulary, train a selector, and run the evaluation and
analysis campaigns. `eval` runs the selector once per scene and writes
three reports from that one evaluation: the mean scores, the
best-in-top-K curve and the left/forward/right turn buckets. Commands
that score a split take its labels from the dataset's sidecar when it
matches the dataset, vocabulary and evaluator config, and otherwise
label the split once themselves. `gen` and every command that labels
print one progress line per scenario on stderr; stdout carries the
results alone. Exit codes: 0 success, 1 usage error, 2 runtime failure.
The SUPRIM_THREADS environment variable sets the worker threads that
generate and label scenarios, and caps BLAS threads; the package applies
the cap on import, before numpy loads. Results are written in seed and
record order whatever the thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

from . import config, evaluator, generator, harness, planner, scenario, vocab
from ._threads import cap_threads


def _cap_threads() -> int:
    """SUPRIM_THREADS as a worker count; a non-integer is a usage error."""
    try:
        return cap_threads()
    except ValueError:
        raise _UsageError("SUPRIM_THREADS must be an integer") from None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise _UsageError("%s\n%s" % (self.format_usage().rstrip(), message))


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="trajsel", description=__doc__.splitlines()[0])
    p.add_argument("--config", metavar="PATH", default=None,
                   help="INI config; defaults when omitted")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out", metavar="DIR", default="build/run",
                   help="output directory for artifacts")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    sp = sub.add_parser("gen", help="generate a scenario dataset")
    sp.add_argument("--count", type=_positive_int, default=100)
    sp.add_argument("--split", default="train", choices=("train", "test"))
    sp.add_argument("--name", default="dataset.jsonl",
                    help="file name inside --out")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("labels", help="score every vocabulary entry")
    sp.add_argument("--dataset", required=True)
    sp.set_defaults(func=_cmd_labels)

    sp = sub.add_parser("train", help="train the selector")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--split", default="train")
    sp.add_argument("--name", default="model.ckpt")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint: eval, oracle, splits")
    _eval_flags(sp)
    sp.add_argument("--plots", action="store_true", help="also write SVG")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("dist-hist", help="heading distribution study")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--split", default="train")
    sp.add_argument("--bins", type=_positive_int, default=24)
    sp.add_argument("--copies", type=_positive_int, default=1,
                    help="rotated copies per scenario in the augmented pool")
    sp.add_argument("--plots", action="store_true")
    sp.set_defaults(func=_cmd_dist_hist)

    sp = sub.add_parser("fov-sweep", help="token count and score vs mask width")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--checkpoint", default=None)
    sp.set_defaults(func=_cmd_fov_sweep)

    sp = sub.add_parser("infer", help="select a trajectory for one scenario")
    _eval_flags(sp)
    sp.add_argument("--index", type=int, default=0)
    sp.set_defaults(func=_cmd_infer)
    return p


def _eval_flags(sp):
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--checkpoint", required=True)


# ---- shared plumbing ----


def _vocab(cfg):
    return vocab.build_vocabulary(cfg.generator.vocab)


def _load_dataset(path, cfg):
    """The dataset at `path`, refused when generated for another vocabulary."""
    ds = scenario.load_dataset(path)
    if ds.gen_config.vocab != cfg.generator.vocab:
        raise ValueError("%s was generated for vocabulary %s, not %s"
                         % (path, asdict(ds.gen_config.vocab), asdict(cfg.generator.vocab)))
    return ds


def _in_order(fn, items):
    """fn of each item, run on SUPRIM_THREADS threads, yielded in item order."""
    with ThreadPoolExecutor(max_workers=_cap_threads()) as ex:
        yield from ex.map(fn, items)


def _label_all(scenarios, vocab, eval_cfg) -> list:
    """One LabelSet per scenario, in order, on SUPRIM_THREADS threads.

    Prints "label i/n" on stderr as each scenario's labels arrive, in order.
    """
    def one(s):
        return evaluator.label_vocabulary(s, vocab, eval_cfg)

    out = []
    for labels in _in_order(one, scenarios):
        out.append(labels)
        print("label %d/%d" % (len(out), len(scenarios)), file=sys.stderr)
    return out


def _load_split(args, cfg, labelled: bool = True):
    """Scenarios of one split and, when `labelled`, their labels.

    Labels come from the sidecar when it matches the dataset, vocabulary
    and evaluator config and holds one scene per record; otherwise the
    split is labelled here, once.
    """
    ds = _load_dataset(args.dataset, cfg)
    idx = [i for i, r in enumerate(ds.records) if r.split == args.split]
    if not idx:
        raise _UsageError("split %r has no records in %s"
                          % (args.split, args.dataset))
    scenarios = [ds.records[i].scenario for i in idx]
    if not labelled:
        return scenarios, None
    vocab = _vocab(cfg)
    sidecar = args.dataset + ".labels.npz"
    if os.path.exists(sidecar):
        try:
            all_labels = evaluator.load_labels(
                sidecar, dataset_sha=ds.sha256, vocabulary=vocab,
                cfg=cfg.evaluator,
            )
            if len(all_labels) != len(ds.records):
                raise evaluator.LabelCacheMismatch(
                    "%s holds %d scenes, %s has %d records"
                    % (sidecar, len(all_labels), args.dataset, len(ds.records)))
            return scenarios, [all_labels[i] for i in idx]
        except evaluator.LabelCacheMismatch as e:
            print("note: ignoring stale label cache (%s)" % e, file=sys.stderr)
    return scenarios, _label_all(scenarios, vocab, cfg.evaluator)


def _load_model(args, cfg):
    """The checkpoint's model; notes on stderr when it was trained under another config."""
    if not os.path.exists(args.checkpoint):
        raise FileNotFoundError("checkpoint %s not found" % args.checkpoint)
    model = planner.PlannerModel.load(args.checkpoint, _vocab(cfg))
    run_hash = config.config_hash(cfg)
    if model.config_hash != run_hash:
        print("note: %s was trained under config %s, evaluated under config %s"
              % (args.checkpoint, model.config_hash[:12] or "(none recorded)",
                 run_hash[:12]), file=sys.stderr)
    return model


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _emit(base, text, csv, svg=None) -> None:
    """Print a report's text and write it as base.txt and base.csv, and
    as base.svg when an `svg` is given; the one place reports reach files."""
    print(text)
    files = {".txt": text + "\n", ".csv": csv}
    if svg is not None:
        files[".svg"] = svg
    for ext, body in files.items():
        with open(base + ext, "w", encoding="utf-8") as fh:
            fh.write(body)
    print("wrote " + " ".join(base + ext for ext in files))


def _emit_table(base, headers, rows, svg=None) -> None:
    _emit(base, harness.table_text(headers, rows), harness.table_csv(headers, rows), svg)


# ---- subcommands ----


def _cmd_gen(args, cfg) -> int:
    def one(seed):
        return generator.generate_scenario(seed, cfg.generator, cfg.evaluator)

    records = []
    for s in _in_order(one, range(args.seed, args.seed + args.count)):
        records.append(scenario.DatasetRecord(split=args.split, scenario=s))
        print("gen %d/%d  seed=%d" % (len(records), args.count, s.seed), file=sys.stderr)
    path = os.path.join(_outdir(args), args.name)
    sha = scenario.save_dataset(path, records, cfg.generator,
                                seed_range=(args.seed, args.seed + args.count))
    print("%s  records=%d  sha256=%s" % (path, len(records), sha[:16]))
    return 0


def _cmd_labels(args, cfg) -> int:
    vocab = _vocab(cfg)
    ds = _load_dataset(args.dataset, cfg)
    if not ds.records:
        raise ValueError("%s holds no records to label" % args.dataset)
    labels = _label_all([r.scenario for r in ds.records], vocab, cfg.evaluator)
    sidecar = args.dataset + ".labels.npz"
    sha = evaluator.save_labels(sidecar, labels, dataset_sha=ds.sha256,
                                vocabulary=vocab, cfg=cfg.evaluator)
    print("%s  scenarios=%d  sha256=%s" % (sidecar, len(labels), sha[:16]))
    return 0


def _cmd_train(args, cfg) -> int:
    scenarios, labels = _load_split(args, cfg)
    vocab = _vocab(cfg)
    path = os.path.join(_outdir(args), args.name)
    with open(path + ".log.jsonl", "w") as log:
        def progress(rec):
            log.write(json.dumps(rec) + "\n")
            print("step %d  L_ori=%.4f  wall_ms=%.1f" % (rec["step"], rec["L_ori"], rec["wall_ms"]),
                  file=sys.stderr)

        result = planner.train(scenarios, vocab, cfg.planner, seed=args.seed,
                               labels=labels, eval_cfg=cfg.evaluator, progress=progress)
    sha = result.model.save(path, step=result.steps, config_hash=config.config_hash(cfg))
    status = "aborted (non-finite loss; last good weights kept)" \
        if result.aborted else "ok"
    print("%s  steps=%d  %s  sha256=%s" % (path, result.steps, status, sha[:16]))
    return 0


# The K values of the best-in-top-K report; a K above the entry count is left out.
_ORACLE_KS = (1, 4, 16, 256)


def _cmd_eval(args, cfg) -> int:
    """One evaluation of the teacher on the split, written as three reports:
    mean scores (eval), best-in-top-K per K (oracle) and turn buckets (splits)."""
    model = _load_model(args, cfg)
    report = harness.evaluate(model, *_load_split(args, cfg))
    out = _outdir(args)
    names = list(report.subscore_means)
    svg = harness.svg_bars([report.subscore_means[n] for n in names], names,
                           title="mean subscores (percent)") if args.plots else None
    _emit(os.path.join(out, "eval"), report.to_text(), report.to_csv(), svg)

    ks = [k for k in _ORACLE_KS if k <= len(model.vocabulary)]
    means = harness.oracle_study(report, ks)
    _emit_table(os.path.join(out, "oracle"), ("K", "best-in-top-K"),
                [(k, "%.2f" % means[k]) for k in ks])

    rows = [(name, 0 if rep is None else rep.n_scenarios,
             "-" if rep is None else "%.2f" % rep.aggregate_mean)
            for name, rep in harness.split_eval(report).items()]
    _emit_table(os.path.join(out, "splits"), ("bucket", "scenarios", "aggregate"), rows)
    return 0


def _cmd_dist_hist(args, cfg) -> int:
    scenarios, labels = _load_split(args, cfg)
    vocab = _vocab(cfg)
    pooled = harness.rotation_augmented_labels(
        scenarios, vocab, labels, cfg.planner.theta, seed=args.seed,
        copies=args.copies, eval_cfg=cfg.evaluator)
    version = cfg.planner.score_version
    orig = harness.heading_histogram(labels, vocab, bins=args.bins, version=version)
    aug = harness.heading_histogram(pooled, vocab, bins=args.bins, version=version)
    kl_o, kl_a = harness.kl_to_uniform(orig["counts"]), harness.kl_to_uniform(aug["counts"])
    rows = [
        ("original", "%.4f" % kl_o, " ".join(str(c) for c in orig["counts"])),
        ("augmented", "%.4f" % kl_a, " ".join(str(c) for c in aug["counts"])),
    ]
    svg = harness.svg_bars(list(aug["frequencies"]),
                           title="augmented final-heading frequencies") if args.plots else None
    _emit_table(os.path.join(_outdir(args), "dist-hist"),
                ("labeling", "KL-to-uniform", "bin counts"), rows, svg)
    return 0


def _cmd_fov_sweep(args, cfg) -> int:
    model = _load_model(args, cfg) if args.checkpoint else None
    scenarios, labels = _load_split(args, cfg, labelled=model is not None)
    rows_raw = harness.fov_sweep(scenarios, model, labels)
    rows = [(r["cameras"], "%.3f" % r["fov_halfangle"],
             "%.1f" % r["mean_tokens"],
             "-" if r["score"] is None else "%.2f" % r["score"])
            for r in rows_raw]
    _emit_table(os.path.join(_outdir(args), "fov-sweep"),
                ("cameras", "halfangle", "tokens", "score"), rows)
    return 0


def _cmd_infer(args, cfg) -> int:
    model = _load_model(args, cfg)
    scenarios, _ = _load_split(args, cfg, labelled=False)
    if not 0 <= args.index < len(scenarios):
        raise _UsageError("--index outside the split (%d scenarios)"
                          % len(scenarios))
    res = planner.infer(model, scenarios[args.index])
    vocab = model.vocabulary
    ik, iv, _ = vocab.grid_index(res.selected)
    print("scenario %d: entry %d  kappa=%+.4f  target_v=%.2f"
          % (args.index, res.selected, vocab.kappas[ik], vocab.speeds[iv]))
    if res.topk is None:
        table, pos = res.coarse_table, res.selected
    else:
        table, pos = res.refine_table, list(res.topk).index(res.selected)
    print("predicted subscores: "
          + "  ".join("%s=%.3f" % (m, table[m][pos]) for m in table))
    return 0


def cli(argv=None) -> int:
    """Run one command; returns the process exit code."""
    try:
        _cap_threads()
        parser = _build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError(parser.format_usage().rstrip()
                              + "\na subcommand is required")
        cfg = config.load_config(args.config) if args.config else config.AppConfig()
        return args.func(args, cfg)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 2
    except Exception as e:  # runtime failures map to one exit code
        print("error: %s" % e, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
