"""Command-line entry point for training, evaluation, and the synthetic
graph-recovery experiments.

Exit codes: 0 on success, 1 on usage errors (a negative ``--seed`` among
them), 2 on runtime or numerical errors. All outputs land under
``--out-dir``. Before a command runs, ``run.json`` there records every
parsed setting but ``--out-dir``, defaults included; a command's other
files hold only its results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import data_io, synthetic, training
from .errors import LatentGraphError
from .graph_learning import embed, soft_adjacency
from .autodiff import no_grad


class UsageError(Exception):
    """Raised instead of argparse's sys.exit so run() can map it to 1."""


class _Parser(argparse.ArgumentParser):
    """Takes flags spelled in full only: with abbreviations, a flag that is
    removed or renamed would be read as another that shares its prefix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _list_of(kind, noun: str):
    """argparse type: comma-separated values of ``kind``."""
    def parse(text: str) -> list:
        try:
            return [kind(v) for v in text.split(",") if v.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}")
    return parse


def _seed(text: str) -> int:
    """argparse type: a non-negative decimal integer, as numpy's generators take."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """The data and training flags of every command that trains the model."""
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--id-col", default="id", help="node id column (default: id)")
    p.add_argument("--label-col", required=True, help="label column name")
    p.add_argument("--features", default="rest",
                   help="comma-separated feature columns, or 'rest' (default)")
    p.add_argument("--quantize-edges", type=_list_of(float, "numbers"), default=None,
                   help="bin edges to quantize a continuous label column")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip per-column standardization of the features")
    p.add_argument("--epochs", type=int, default=600)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lr-min", type=float, default=0.0001)
    p.add_argument("--embed-hidden", type=_list_of(int, "integers"), default=[64],
                   help="comma-separated hidden widths of the embedding MLP")
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--gc-widths", type=_list_of(int, "integers"), default=[16, 8],
                   help="comma-separated graph-convolution layer widths")


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out-dir", default="out", help="output directory")
    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")

    parser = _Parser(prog="latentgraph",
                     description="Differentiable population-graph learning")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", parents=[seeded],
                       help="train on all labeled rows, write history")
    _add_model_flags(p)

    p = sub.add_parser("cross-validate", parents=[seeded],
                       help="stratified k-fold CV; prints accuracy and AUC")
    _add_model_flags(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--with-baselines", type=int, nargs="?", const=10, default=None,
                   metavar="K", help="also report ridge and static K-nearest-neighbour-"
                   "graph baselines (K defaults to 10)")

    p = sub.add_parser("infer", parents=[seeded],
                       help="train, then predict labels for unseen rows")
    _add_model_flags(p)
    p.add_argument("--test-data", required=True,
                   help="CSV of unseen rows (same feature columns; label optional)")

    p = sub.add_parser("export-graph", parents=[seeded],
                       help="train, then export the learned adjacency as CSV")
    _add_model_flags(p)

    p = sub.add_parser("synth-recover", parents=[seeded],
                       help="recover a random graph from neighbor-sum targets")
    p.add_argument("--nodes", type=int, default=10)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--iterations", type=int, default=2000)

    p = sub.add_parser("synth-curves", parents=[common],
                       help="recovery error over node-count/dimension grids")
    p.add_argument("--nodes", type=_list_of(int, "integers"), default=[5, 10, 20])
    p.add_argument("--dims", type=_list_of(int, "integers"), default=[2, 8, 16])
    p.add_argument("--seeds", type=int, default=5, help="seeds per cell: 0, 1, ...")
    p.add_argument("--edge-prob", type=float, default=0.3)
    p.add_argument("--iterations", type=int, default=2000)

    sub.add_parser("gradcheck", parents=[seeded],
                   help="finite-difference check of every autodiff operation")
    return parser


def _read_dataset(args) -> data_io.TabularDataset:
    features = ("rest" if args.features == "rest"
                else [c.strip() for c in args.features.split(",")])
    return data_io.load_csv(args.data, args.id_col, args.label_col, features,
                            quantize_edges=args.quantize_edges)


def _load_dataset(args) -> data_io.TabularDataset:
    dataset = _read_dataset(args)
    if not args.no_standardize:
        dataset.X = data_io.standardize(dataset.X)
    return dataset


def _train_config(args) -> training.TrainConfig:
    # only cross-validate takes --folds; no other command reads cfg.folds
    folds = {"folds": args.folds} if "folds" in args else {}
    return training.TrainConfig(
        epochs=args.epochs, lr0=args.lr, lr_min=args.lr_min, seed=args.seed,
        embed_hidden=tuple(args.embed_hidden), embed_dim=args.embed_dim,
        gc_widths=tuple(args.gc_widths), **folds)


def _cmd_train(args, out_dir: Path) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    params, history = training.train(dataset, cfg)
    metrics = training.evaluate(params, dataset, np.arange(dataset.n_nodes))
    data_io.write_history_csv(out_dir / "history.csv", history)
    data_io.write_metrics_json(out_dir / "metrics.json", {
        "train_accuracy": metrics.accuracy, "train_auc": metrics.auc,
        "final_loss": history[-1].loss if history else None,
    })
    print(f"final train accuracy: {metrics.accuracy:.4f}")
    return 0


def _cv_payload(metrics: training.CVMetrics) -> dict:
    return {
        "accuracy_mean": metrics.accuracy_mean,
        "accuracy_std": metrics.accuracy_std,
        "auc_mean": metrics.auc_mean,
        "auc_std": metrics.auc_std,
        "fold_accuracy": [m.accuracy for m in metrics.folds],
        "fold_auc": [m.auc for m in metrics.folds],
    }


def _cmd_cross_validate(args, out_dir: Path) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    baselines = {}
    if args.with_baselines is not None:
        # before the model, so a bad K fails before any training, and the
        # kNN graph is freed before the model's folds run
        split = training.stratified_kfold(dataset.y, cfg.folds, cfg.seed)
        baselines["ridge"] = training.linear_baseline(dataset, split)
        baselines["knn-graph"] = training.cross_validate(
            dataset, cfg, adjacency=training.knn_adjacency(dataset.X, args.with_baselines))
    result = training.cross_validate(dataset, cfg)
    print(result.summary())
    payload = {"model": _cv_payload(result)}
    for name, metrics in baselines.items():
        print(f"{name + ' baseline':20s}{metrics.summary()}")
        payload[name.replace("-", "_") + "_baseline"] = _cv_payload(metrics)
    data_io.write_metrics_json(out_dir / "metrics.json", payload)
    return 0


def _cmd_infer(args, out_dir: Path) -> int:
    dataset = _read_dataset(args)
    # a test row's missing cells take the training rows' column means, so
    # they do not depend on the other rows of the test file
    test_set = data_io.load_csv(args.test_data, args.id_col,
                                feature_cols=dataset.feature_names,
                                column_means=dataset.X.mean(axis=0))
    test_X = test_set.X
    if not args.no_standardize:
        # moments of the training rows only: the trained model must not
        # depend on the test file
        test_X = data_io.standardize(test_X, reference=dataset.X)
        dataset.X = data_io.standardize(dataset.X)
    cfg = _train_config(args)
    params, _ = training.train(dataset, cfg)
    preds = training.inductive_infer(params, dataset.X, test_X)
    out_path = out_dir / "predictions.csv"
    data_io.write_csv(out_path, ["id", "label", "class"],
                      ([node_id, label, dataset.class_names[label]]
                       for node_id, label in zip(test_set.node_ids, preds)))
    print(f"wrote {len(test_set.node_ids)} predictions to {out_path}")
    return 0


def _cmd_export_graph(args, out_dir: Path) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    params, _ = training.train(dataset, cfg)
    with no_grad():
        adjacency = soft_adjacency(
            embed(dataset.X, params.embedder), params.edge).values
    path = out_dir / "adjacency.csv"
    data_io.export_adjacency(adjacency, dataset.node_ids, path)
    print(f"wrote learned adjacency to {path}")
    return 0


def _cmd_synth_recover(args, out_dir: Path) -> int:
    graph = synthetic.generate_graph(args.nodes, args.edge_prob, args.seed)
    targets = synthetic.neighbor_sum_targets(graph, np.eye(args.nodes))
    cfg = synthetic.RecoveryConfig(embedding_dim=args.dim, seed=args.seed,
                                   iterations=args.iterations)
    result = synthetic.recover_graph(targets, cfg)
    node_ids = [f"n{i}" for i in range(args.nodes)]
    data_io.export_adjacency(graph, node_ids, out_dir / "ground_truth.csv")
    data_io.export_adjacency(result.adjacency, node_ids,
                             out_dir / "learned_adjacency.csv")
    data_io.write_metrics_json(out_dir / "metrics.json", {
        "final_mse": result.mse, "edge_agreement": result.agreement})
    print(f"final mse: {result.mse:.6g}  edge agreement: {result.agreement:.4f}")
    return 0


def _cmd_synth_curves(args, out_dir: Path) -> int:
    seeds = list(range(args.seeds))
    base = synthetic.RecoveryConfig(iterations=args.iterations)
    cells = synthetic.recovery_curves(args.nodes, args.dims, seeds,
                                      edge_probability=args.edge_prob,
                                      base_cfg=base)
    path = out_dir / "recovery_curves.csv"
    data_io.write_csv(path, ["nodes", "dim", "seed", "final_mse", "agreement"],
                      ([c.n, c.embedding_dim, c.seed, format(c.mse, ".10g"),
                        format(c.agreement, ".10g")] for c in cells))
    for (n, dim), (mean, std) in synthetic.summarize_curves(cells).items():
        print(f"nodes={n:4d} dim={dim:4d}  mse {mean:.4e} +- {std:.1e}")
    print(f"wrote {path}")
    return 0


def _cmd_gradcheck(args, out_dir: Path) -> int:
    from .gradcheck import END_TO_END_TOLERANCE, OP_TOLERANCE, run_gradcheck
    results = run_gradcheck(seed=args.seed)
    worst_op = max(v for k, v in results.items() if k != "end_to_end")
    for name in sorted(results):
        print(f"{name:32s} {results[name]:.3e}")
    print(f"max per-op relative error:     {worst_op:.3e} (tolerance {OP_TOLERANCE:.0e})")
    print(f"end-to-end relative error:     {results['end_to_end']:.3e} "
          f"(tolerance {END_TO_END_TOLERANCE:.0e})")
    ok = worst_op < OP_TOLERANCE and results["end_to_end"] < END_TO_END_TOLERANCE
    if not ok:
        print("gradcheck FAILED", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "cross-validate": _cmd_cross_validate,
    "infer": _cmd_infer,
    "export-graph": _cmd_export_graph,
    "synth-recover": _cmd_synth_recover,
    "synth-curves": _cmd_synth_curves,
    "gradcheck": _cmd_gradcheck,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # before the command, so a run that fails or is killed keeps its record
        data_io.write_metrics_json(out_dir / "run.json", {
            k: v for k, v in vars(args).items() if k != "out_dir"})
        return _COMMANDS[args.command](args, out_dir)
    except (LatentGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
