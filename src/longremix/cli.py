"""Command-line entry points.

Subcommands: ``train`` (run a configured experiment end to end), ``lemma``
(closed-form + Monte-Carlo window sweep), ``noise`` (generate or load a
dataset, inject label noise, write CSV + provenance sidecar), ``prcurve``
(threshold sweep of the selection precision/recall), ``report`` (re-emit
plot CSVs from an existing metrics JSON).

Exit codes: 0 success, 2 configuration error, 3 runtime failure. A command
writes into ``--out``, else ``LONGREMIX_OUTDIR``, else its own default
directory (``_output_dir``); a config does not name it, so a bundle's bytes
do not depend on where it is written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import __version__, data, lemma, report
from .config import (_to_int, _to_mapping, _to_tuple, apply_seed_override, build_experiment,
                     parse_flat_config)
from .errors import ConfigError, LongRemixError, ParseError
from .trainer import STAGE1_HCT, TrainConfig, run_stage, run_training

OUTDIR_ENV = "LONGREMIX_OUTDIR"
RUN_OUTDIR = "runs/experiment"  # train's and prcurve's default
# noise's flag for each config key whose rules it applies: in a spec's
# message, "key" reads as "flag" and "key = value" as "flag value"
NOISE_FLAGS = {"dataset.kind": "--dataset", "dataset.n": "--n", "dataset.classes": "--classes",
               "dataset.spread": "--spread", "noise.seed": "--seed"}
_NOISE_KEY = re.compile(r"\b(" + "|".join(map(re.escape, NOISE_FLAGS)) + r")\b( = )?")


def _non_negative(flag, value):
    if value < 0:
        raise ConfigError(f"{flag} must be >= 0, got {value}")
    return value


def _output_dir(out, default) -> str:
    """Where a command writes: ``--out``, else ``LONGREMIX_OUTDIR``, else
    the command's own ``default``. An empty ``--out`` is rejected, an empty
    ``LONGREMIX_OUTDIR`` is unset, and a path whose nearest existing ancestor,
    the path itself included, is not a directory is rejected before any work."""
    if out == "":
        raise ConfigError("--out must not be empty")
    outdir = out or os.environ.get(OUTDIR_ENV) or default
    nearest = outdir
    while nearest and not os.path.lexists(nearest):
        nearest = os.path.dirname(nearest)
    if nearest and not os.path.isdir(nearest):
        if nearest == outdir:
            raise ConfigError(f"output path {outdir} exists and is not a directory")
        raise ConfigError(f"output path {outdir} is below {nearest}, which is not a directory")
    return outdir


def _load_config(path, seed=None, out=None):
    mapping = parse_flat_config(data.read_text(path, "config"))
    if seed is not None:
        mapping = apply_seed_override(mapping, _non_negative("--seed", seed))
    return build_experiment(mapping), _output_dir(out, RUN_OUTDIR)


def _dataset_info(exp, ds, test):
    return {"kind": exp.dataset.kind, "n": ds.n, "test_n": test.n,
            "classes": ds.num_classes, "features": ds.dim}


def cmd_train(args) -> int:
    exp, outdir = _load_config(args.config, args.seed, args.out)
    # a train rule only: prcurve writes prcurve.csv whatever these keys say
    spec = exp.report
    if not (spec.formats or spec.gmm_dump or spec.plan_digests or spec.checkpoints):
        raise ConfigError("report.formats is empty and no dump is on: "
                          "the run would write no results")
    ds, test = data.training_sets(exp, fits_mixture=exp.train.mode != "ce")
    stages = run_training(exp.train, ds, test)
    for stage in stages:
        if stage.core_set is not None and stage.core_set.size == 0:
            print(f"warning: {stage.record.stage} captured an empty core set; every "
                  "clean-set snapshot of its second half was empty", file=sys.stderr)
    curve = None
    if exp.report.prcurve and stages[0].window is not None:
        curve = report.pr_curve(stages[0].window, ds.mask, exp.report.tau_grid)
    bundle = report.emit_report(outdir, stages, exp, data.noise_sidecar(exp.noise, ds.mask.sum()),
                                _dataset_info(exp, ds, test), prcurve_rows=curve)
    print(f"mode={exp.train.mode} best_acc={stages[-1].record.best_acc:.6g} "
          f"bundle={bundle.manifest_path}")
    return 0


def cmd_prcurve(args) -> int:
    exp, outdir = _load_config(args.config, args.seed, args.out)
    ds, test = data.training_sets(exp, fits_mixture=True)  # stage 1 always fits
    stage1 = run_stage(exp.train, ds, test, 1, *STAGE1_HCT)
    curve = report.pr_curve(stage1.window, ds.mask, exp.report.tau_grid)
    path, = report.write_files(outdir, {"prcurve.csv": report.prcurve_csv_text(curve)})
    print(f"wrote {path} ({len(curve)} thresholds)")
    return 0


def cmd_lemma(args) -> int:
    outdir = _output_dir(args.out, ".")
    if args.zeta_max > data.MAX_COUNT:
        raise ConfigError(f"--zeta-max must be <= {data.MAX_COUNT}, got {args.zeta_max}")
    zetas = (_to_tuple(_to_int)("--zetas", args.zetas) if args.zetas is not None
             else range(1, args.zeta_max + 1))
    rows = lemma.sweep_zeta(args.pcc, args.pnn, args.pc, zetas,
                            mc_trials=_non_negative("--trials", args.trials),
                            seed=_non_negative("--seed", args.seed))
    path, = report.write_files(outdir, {"lemma.csv": report.lemma_csv_text(rows)})
    for row in rows:
        mc = "" if "precision_mc" not in row else (
            f" mc=({row['precision_mc']:.4f}, {row['recall_mc']:.4f})")
        print(f"zeta={row['zeta']:3d} precision={row['precision_cf']:.6f} "
              f"recall={row['recall_cf']:.6f}{mc}")
    print(f"wrote {path}")
    return 0


def cmd_noise(args) -> int:
    outdir = _output_dir(args.out, ".")
    # the synthetic dataset's flags, None unless given
    synthetic = {"--dataset": args.dataset, "--n": args.n, "--classes": args.classes,
                 "--spread": args.spread, "--data-seed": args.data_seed}
    given = [flag for flag, value in synthetic.items() if value is not None]
    if args.csv and given:
        raise ConfigError(f"{given[0]} does not apply to --csv, whose file is the dataset")
    # every flag is checked before the dataset is read or built
    try:
        if not args.csv:
            seed = _non_negative("--data-seed", TrainConfig.data_seed if args.data_seed is None
                                 else args.data_seed)
            fields = {key.partition(".")[2]: synthetic[flag] for key, flag in NOISE_FLAGS.items()
                      if key.startswith("dataset.") and synthetic[flag] is not None}
            # no test set: test_n = n leaves test_n's rules to n's, checked first
            dataset = data.DatasetSpec(**fields, test_n=fields.get("n", data.DatasetSpec.n))
        spec = data.NoiseSpec(kind=args.kind, eta=args.eta,
                              mapping=_to_mapping("--mapping", args.mapping), seed=args.seed)
    except ConfigError as exc:
        raise ConfigError(_NOISE_KEY.sub(lambda m: NOISE_FLAGS[m[1]] + (" " if m[2] else ""),
                                         str(exc))) from None
    ds = (data.load_csv_dataset(args.csv) if args.csv
          else data.make_synthetic_dataset(dataset.kind, dataset.n, dataset.classes,
                                           dataset.spread, seed))
    if spec.kind != "none" and ds.num_classes < 2:
        raise ConfigError(f"{args.csv}: every label is {ds.class_names[0]!r}; "
                          f"{spec.kind} noise needs at least 2 classes")
    noisy = data.apply_noise(ds, spec)
    csv_path, sidecar_path = report.write_files(outdir, {
        "dataset.csv": data.dataset_csv_text(noisy),
        "dataset.noise.json": report.json_text(data.noise_sidecar(spec, noisy.mask.sum()))})
    print(f"wrote {csv_path} and {sidecar_path} (flipped {int(noisy.mask.sum())} of {noisy.n})")
    return 0


def cmd_report(args) -> int:
    outdir = _output_dir(args.out, os.path.dirname(args.metrics) or ".")
    try:
        doc = json.loads(data.read_text(args.metrics, "metrics"))
    except (ValueError, RecursionError) as exc:  # malformed, too many digits, too deep
        raise ConfigError(f"metrics file is not valid JSON: {exc}") from exc
    try:
        bundle = report.reemit_from_metrics(doc, outdir)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"metrics file {args.metrics} has a missing or non-numeric field: "
                          f"{exc}") from exc
    print(f"re-emitted into {outdir}; {bundle.manifest_path} lists {len(bundle.files)} files")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longremix",
        description="Noisy-label co-training with confidence-window selection, "
                    "core-set guided retraining, and oversampled MixUp.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a configured experiment end to end")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.add_argument("--out", help="output directory (beats LONGREMIX_OUTDIR)")
    p_train.add_argument("--seed", type=int,
                         help="master seed override: data=N, model1=N+11, model2=N+22, "
                              "plan=N+33, noise=N+101")
    p_train.set_defaults(func=cmd_train)

    p_curve = sub.add_parser("prcurve", help="threshold sweep of selection precision/recall")
    p_curve.add_argument("--config", required=True)
    p_curve.add_argument("--out")
    p_curve.add_argument("--seed", type=int, help="master seed override (see train)")
    p_curve.set_defaults(func=cmd_prcurve)

    p_lemma = sub.add_parser("lemma", help="closed-form + Monte-Carlo window sweep")
    p_lemma.add_argument("--pcc", type=float, required=True,
                         help="P(classified clean | clean)")
    p_lemma.add_argument("--pnn", type=float, required=True,
                         help="P(classified noisy | noisy)")
    p_lemma.add_argument("--pc", type=float, required=True, help="clean proportion")
    p_lemma.add_argument("--zeta-max", type=int, default=10)
    p_lemma.add_argument("--zetas", help="explicit comma-separated window lengths")
    p_lemma.add_argument("--trials", type=int, default=100_000,
                         help="Monte-Carlo trials per row (0 disables)")
    p_lemma.add_argument("--seed", type=int, default=0)
    p_lemma.add_argument("--out")
    p_lemma.set_defaults(func=cmd_lemma)

    p_noise = sub.add_parser("noise", help="inject label noise and write CSV + sidecar")
    p_noise.add_argument("--kind", choices=("symmetric", "asymmetric", "none"), required=True)
    p_noise.add_argument("--eta", type=float, default=data.NoiseSpec.eta)
    p_noise.add_argument("--mapping", help="asymmetric class mapping, e.g. 0:1,2:3")
    p_noise.add_argument("--seed", type=int, default=data.NoiseSpec.seed, help="noise draw seed")
    p_noise.add_argument("--csv", help="noise an existing CSV dataset, instead of a synthetic one")
    p_noise.add_argument("--dataset", choices=("blobs", "moons"))
    p_noise.add_argument("--n", type=int)
    p_noise.add_argument("--classes", type=int)
    p_noise.add_argument("--spread", type=float)
    p_noise.add_argument("--data-seed", type=int)
    p_noise.add_argument("--out")
    p_noise.set_defaults(func=cmd_noise)

    p_report = sub.add_parser("report", help="re-emit CSVs from an existing metrics JSON")
    p_report.add_argument("--metrics", required=True)
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LongRemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def console_entry():
    sys.exit(main())
