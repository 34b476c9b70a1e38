"""Command-line entry point.

Subcommands cover the whole pipeline: scenario tooling, demand simulation,
single-sequence valuation, the CR and CR-RNN policies, standalone labeling /
training / retrieval evaluation, and rolling-horizon runs.  Every run logs
its fully resolved configuration and embeds it in the written report, so a
report is reproducible from its own contents plus the input files.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from . import labeling, neural, policy, rollout, scenario, sequences, stochastic
from ._report import write_report
from .lsmc import valuate_sequence

log = logging.getLogger("zoneinvest")


def _add_common(p):
    p.add_argument("--scenario", required=True, help="scenario JSON config")
    p.add_argument("--paths", type=int, default=300,
                   help="number of simulated demand paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report output path")


def _add_valuation(p):
    _add_common(p)
    p.add_argument("--covered", default="",
                   help="comma-joined zones already in service")


def _add_workers(p):
    # argparse converts a string default, so the environment is parsed too.
    p.add_argument("--workers", type=int,
                   default=os.environ.get("ZONEINVEST_WORKERS", "1"),
                   help="worker processes (default: ZONEINVEST_WORKERS or 1)")


def _add_rnn_flags(p):
    p.add_argument("--frac-seq", type=float, default=0.06,
                   help="fraction of sequences sampled for training")
    p.add_argument("--pnr-max", type=float, default=0.01,
                   help="positive-to-negative label ratio cap")
    p.add_argument("--thr-fact", type=float, default=0.1,
                   help="labeling threshold factor below the estimated bound")
    p.add_argument("--k", type=int, default=50, help="top-K retrieved sequences")
    _add_train_flags(p, "--max-epochs")


def _add_train_flags(p, epochs_flag):
    p.add_argument("--emb-size", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument(epochs_flag, dest="max_epochs", type=int, default=300,
                   help="training epoch cap")
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--validation-fraction", type=float, default=0.2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zoneinvest",
        description="Real-options design and timing of mobility service regions")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command")

    p_scen = sub.add_parser("scenario", help="scenario tooling")
    scen_sub = p_scen.add_subparsers(dest="scenario_command")
    p_gen = scen_sub.add_parser("gen", help="generate a synthetic scenario")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--zones", type=int, required=True)
    p_gen.add_argument("--subzones-per-zone", type=int, required=True)
    p_gen.add_argument("--demand-scale", type=float, default=100.0)
    p_gen.add_argument("--out", required=True, help="scenario JSON to write")

    p_sim = sub.add_parser("simulate", help="simulate demand paths to a file")
    _add_common(p_sim)

    p_val = sub.add_parser("valuate", help="value one investment sequence")
    _add_valuation(p_val)
    p_val.add_argument("--sequence", required=True,
                       help="comma-joined zone ids, in investment order")

    p_cr = sub.add_parser("cr", help="full-enumeration CR policy")
    _add_valuation(p_cr)
    _add_workers(p_cr)

    p_rnn = sub.add_parser("cr-rnn", help="classifier-guided CR-RNN policy")
    _add_valuation(p_rnn)
    _add_workers(p_rnn)
    _add_rnn_flags(p_rnn)
    p_rnn.add_argument("--model-out", help="write the trained classifier here")
    p_rnn.add_argument("--labeled-out", help="write the labeled training set here")

    p_lab = sub.add_parser("label", help="label a sequence value table")
    p_lab.add_argument("--values", required=True,
                       help="CSV of sequence values (a cr report sidecar works)")
    p_lab.add_argument("--population", type=int, required=True,
                       help="population size the values were sampled from")
    p_lab.add_argument("--thr-fact", type=float, default=0.1)
    p_lab.add_argument("--pnr-max", type=float, default=0.01)
    p_lab.add_argument("--out", required=True)

    p_train = sub.add_parser("train", help="train a sequence model")
    p_train.add_argument("--labeled", required=True, help="labeled CSV dataset")
    p_train.add_argument("--out", required=True, help="model checkpoint path")
    p_train.add_argument("--head", choices=["classifier", "regressor"],
                         default="classifier")
    _add_train_flags(p_train, "--epochs")
    p_train.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("evaluate",
                            help="Gap@K / AUC of a model vs ground truth")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--values", required=True,
                        help="ground-truth value table CSV for the population")
    p_eval.add_argument("--labeled", required=True,
                        help="labeled training CSV (defines the test split)")
    p_eval.add_argument("--k", type=int, nargs="+", default=[30, 50, 70])
    p_eval.add_argument("--out", required=True, help="metrics CSV")

    p_roll = sub.add_parser("rollout", help="rolling-horizon policy run")
    p_roll.add_argument("--scenario", required=True)
    p_roll.add_argument("--outer-paths", type=int, default=10)
    p_roll.add_argument("--epochs", type=int, default=5)
    p_roll.add_argument("--seed", type=int, default=0)
    p_roll.add_argument("--policy", choices=["cr", "cr-rnn", "invest-all"],
                        default="cr-rnn")
    p_roll.add_argument("--covered", default="",
                        help="zones already in service at epoch 1")
    p_roll.add_argument("--inner-paths", type=int, default=300)
    p_roll.add_argument("--benchmark", action="store_true",
                        help="also run invest-all and attach the paired t-test")
    _add_workers(p_roll)
    p_roll.add_argument("--out", required=True)
    _add_rnn_flags(p_roll)
    return parser


def _resolved_config(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("command", "scenario_command", "verbose")}
    log.info("resolved config: %s", json.dumps(cfg, sort_keys=True, default=str))
    return cfg


def _train_kwargs(args) -> dict:
    return dict(emb_size=args.emb_size, lr=args.lr, batch_size=args.batch,
                max_epochs=args.max_epochs, patience=args.patience,
                validation_fraction=args.validation_fraction)


def _rnn_kwargs(args) -> dict:
    return dict(frac_seq=args.frac_seq, pnr_max=args.pnr_max, k=args.k,
                thr_fact=args.thr_fact, **_train_kwargs(args))


def _dispatch(args) -> None:
    """Run one subcommand; its files are written when this returns."""
    if args.command == "scenario":
        if args.scenario_command != "gen":
            raise ValueError("usage: zoneinvest scenario gen ...")
        cfg = _resolved_config(args)
        scen = scenario.generate_synthetic_scenario(
            args.seed, args.zones, args.subzones_per_zone, args.demand_scale)
        scenario.save_scenario(scen, args.out)
        return

    cfg = _resolved_config(args)
    if args.command == "label":
        seqs, etas, _ = labeling.read_values(args.values)
        ds = labeling.label_dataset(zip(seqs, etas), args.population,
                                    args.thr_fact, args.pnr_max)
        labeling.save_labeled(ds, args.out)
        return
    if args.command == "train":
        ds = labeling.load_labeled(args.labeled)
        head = neural.CLASSIFIER if args.head == "classifier" else neural.REGRESSOR
        model, _ = neural.train(ds, seed=args.seed, head_kind=head,
                                **_train_kwargs(args))
        neural.save_model(model, args.out)
        log.info("trained %d epochs (best %s)",
                 model.training_meta["epochs_run"],
                 model.training_meta["best_epoch"])
        return
    if args.command == "evaluate":
        model = neural.load_model(args.model)
        seqs, etas, _ = labeling.read_values(args.values)
        ds = labeling.load_labeled(args.labeled)
        # Every row is computed before the file is opened, so a rejected
        # --k or an empty test pool leaves no partial metrics file.
        metrics = policy.evaluate_retrieval(
            model, {s.order: v for s, v in zip(seqs, etas)}, ds.sequences,
            args.k, ds.eta_bin)
        names = ["k", "gap_at_k", "auc", "eta_true", "eta_pred"]
        rows = [names] + [[m[name] for name in names] for m in metrics]
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return

    scen = scenario.load_scenario(args.scenario)
    if args.command == "rollout":
        kind = {"cr": policy.CR, "cr-rnn": policy.CR_RNN,
                "invest-all": rollout.INVEST_ALL}[args.policy]
        if args.benchmark and args.outer_paths < 2:
            raise ValueError("--benchmark's paired t-test needs "
                             f"--outer-paths >= 2, got {args.outer_paths}")
        covered = sequences.Sequence.parse(args.covered).order
        shared = dict(n_paths=args.outer_paths, n_epochs=args.epochs,
                      seed=args.seed, initial_covered=covered,
                      inner_paths=args.inner_paths, workers=args.workers)
        res = rollout.run_rollout(scen, policy_kind=kind,
                                  inner=_rnn_kwargs(args), **shared)
        if args.benchmark:
            bench = rollout.run_rollout(
                scen, policy_kind=rollout.INVEST_ALL, **shared)
            res = rollout.compare_rollouts(res, bench)
        rollout.rollout_report(res, args.out, config=cfg)
        return

    sim = stochastic.simulate_paths(scen, args.paths, args.seed)
    if args.command == "simulate":
        stochastic.dump_paths(sim, args.out)
        return
    covered = sequences.Sequence.parse(args.covered).order
    if args.command == "valuate":
        val = valuate_sequence(sequences.Sequence.parse(args.sequence), sim,
                               scen, covered=covered)
        doc = {
            "config": cfg,
            "sequence": str(val.sequence),
            "policy_value": val.policy_value,
            "decisions_t0": list(val.decisions_t0),
            "per_zone_value_t0": val.per_zone_value_t0.tolist(),
            "stopping_times": val.stopping_times.tolist(),
            "rank_deficient_fits": val.rank_deficient_fits,
        }
        write_report(args.out, doc)
        return
    if args.command == "cr":
        res = policy.cr_policy(scen, sim, covered=covered,
                               workers=args.workers)
        policy.report(res, args.out, config=cfg)
        return
    if args.command == "cr-rnn":
        res = policy.cr_rnn_policy(scen, sim, covered=covered,
                                   workers=args.workers, seed=args.seed,
                                   **_rnn_kwargs(args))
        policy.report(res, args.out, config=cfg)
        if args.model_out and res.model is not None:
            neural.save_model(res.model, args.model_out)
        if args.labeled_out and res.dataset is not None:
            labeling.save_labeled(res.dataset, args.labeled_out)
        return
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _dispatch(args)
    except Exception as exc:  # surface a machine-readable failure block
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 1
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
