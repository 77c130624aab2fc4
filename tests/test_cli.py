import csv
import dataclasses
import json

import numpy as np
import pytest

from latentgraph import cli

from conftest import make_blobs, write_dataset_csv

FAST_FLAGS = ["--epochs", "40", "--embed-hidden", "", "--embed-dim", "4",
              "--gc-widths", "8,4"]


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset_csv(path, make_blobs(n_per_class=15, seed=3))
    return path


class TestUsage:
    @pytest.mark.parametrize("command", [
        "train", "cross-validate", "infer", "export-graph",
        "synth-recover", "synth-curves", "gradcheck"])
    def test_help_exits_zero(self, command, capsys):
        assert cli.run([command, "--help"]) == 0
        assert "--help" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.run(["gradcheck", "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert cli.run(["train"]) == 1

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        code = cli.run(["train", "--data", str(tmp_path / "missing.csv"),
                        "--label-col", "dx", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_label_among_features_exits_two(self, tmp_path, capsys):
        # numeric labels parse as a feature, so nothing else stops the run
        blobs = make_blobs(n_per_class=15, seed=3)
        blobs.class_names = ["0", "1"]
        path = tmp_path / "numeric.csv"
        write_dataset_csv(path, blobs)
        code = cli.run(["train", "--data", str(path), "--label-col", "dx",
                        "--features", "dx,f1,f1", "--epochs", "2",
                        "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "'dx' is the id or label column" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--gc-widths", ""],
        ["train", "--embed-dim", "0"],
        ["synth-recover", "--iterations", "-1"]])
    def test_invalid_config_exits_two(self, argv, data_csv, tmp_path, capsys):
        if argv[0] == "train":
            argv = [*argv, "--data", str(data_csv), "--label-col", "dx", "--epochs", "2"]
        assert cli.run([*argv, "--out-dir", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err


def _unset_fields(cfg) -> list[str]:
    return [f.name for f in dataclasses.fields(cfg) if getattr(cfg, f.name) == f.default]


def _assert_every_flag_changed(argv, default_argv):
    """``argv`` must give every option of its command a non-default value."""
    parser = cli.build_parser()
    args, defaults = parser.parse_args(argv), parser.parse_args(default_argv)
    same = [k for k, v in vars(args).items()
            if k != "command" and v == getattr(defaults, k)]
    assert same == []
    return args


class TestEveryConfigFieldHasAFlag:
    """With every flag set off its default, every config field must be off
    its default too: a field no caller sets should be a module constant."""

    def test_train_config(self):
        args = _assert_every_flag_changed(
            ["train", "--data", "a.csv", "--id-col", "pid", "--label-col", "dx",
             "--features", "f1,f2", "--quantize-edges", "1,2", "--no-standardize",
             "--epochs", "7", "--lr", "0.02", "--lr-min", "0.001", "--folds", "3",
             "--embed-hidden", "5", "--embed-dim", "3", "--gc-widths", "4",
             "--seed", "9", "--out-dir", "o"],
            ["train", "--data", "b.csv", "--label-col", "y"])
        assert _unset_fields(cli._train_config(args)) == []

    def test_recovery_config(self, tmp_path, monkeypatch):
        from latentgraph import synthetic
        argv = ["synth-recover", "--nodes", "4", "--dim", "3", "--edge-prob", "0.5",
                "--iterations", "2", "--seed", "2", "--out-dir", str(tmp_path)]
        _assert_every_flag_changed(argv, ["synth-recover"])
        seen = []
        recover = synthetic.recover_graph

        def recording_recover(targets, cfg):
            seen.append(cfg)
            return recover(targets, cfg)

        monkeypatch.setattr(synthetic, "recover_graph", recording_recover)
        assert cli.run(argv) == 0
        assert len(seen) == 1
        assert _unset_fields(seen[0]) == []


class TestCrossValidate:
    def test_prints_summary_and_writes_metrics(self, data_csv, tmp_path, capsys):
        out = tmp_path / "cv"
        code = cli.run(["cross-validate", "--data", str(data_csv),
                        "--label-col", "dx", "--folds", "3", "--seed", "7",
                        "--out-dir", str(out), *FAST_FLAGS])
        assert code == 0
        printed = capsys.readouterr().out
        assert "accuracy:" in printed and "auc:" in printed and "±" in printed
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 7
        assert len(metrics["model"]["fold_accuracy"]) == 3

    def test_with_baselines_reports_ridge_and_knn_graph(self, tmp_path, capsys):
        from latentgraph import data_io, training
        # overlapping blobs, so the fold scores depend on the graph
        data_csv = tmp_path / "overlap.csv"
        write_dataset_csv(data_csv, make_blobs(n_per_class=15, separation=2.0, seed=3))
        out = tmp_path / "cvb"
        code = cli.run(["cross-validate", "--data", str(data_csv),
                        "--label-col", "dx", "--folds", "3", "--seed", "7",
                        "--with-baselines", "--knn-k", "4",
                        "--out-dir", str(out), *FAST_FLAGS])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ridge baseline" in printed and "knn-graph baseline" in printed
        metrics = json.loads((out / "metrics.json").read_text())
        dataset = data_io.load_csv(data_csv, "id", "dx")
        dataset.X = data_io.standardize(dataset.X)
        cfg = training.TrainConfig(seed=7, folds=3, epochs=40, embed_hidden=(),
                                   embed_dim=4, gc_widths=(8, 4))
        knn = training.cross_validate(
            dataset, cfg, adjacency=training.knn_adjacency(dataset.X, 4))
        ridge = training.linear_baseline(
            dataset, training.stratified_kfold(dataset.y, 3, 7))
        for key, expected in (("knn_graph_baseline", knn), ("ridge_baseline", ridge)):
            assert metrics[key]["fold_accuracy"] == [m.accuracy for m in expected.folds]
            assert metrics[key]["fold_auc"] == [m.auc for m in expected.folds]
            assert metrics[key]["accuracy_mean"] == expected.accuracy_mean


class TestSynthRecover:
    def test_writes_adjacencies_and_prints_mse(self, tmp_path, capsys):
        out = tmp_path / "rec"
        code = cli.run(["synth-recover", "--nodes", "6", "--dim", "4",
                        "--iterations", "300", "--seed", "1",
                        "--out-dir", str(out)])
        assert code == 0
        assert "final mse:" in capsys.readouterr().out
        assert (out / "ground_truth.csv").exists()
        assert (out / "learned_adjacency.csv").exists()
        run_info = json.loads((out / "run.json").read_text())
        assert run_info["seed"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        args = ["synth-recover", "--nodes", "5", "--dim", "4",
                "--iterations", "150", "--seed", "3"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.run([*args, "--out-dir", str(out1)]) == 0
        assert cli.run([*args, "--out-dir", str(out2)]) == 0
        for name in ("ground_truth.csv", "learned_adjacency.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSeed:
    @pytest.mark.parametrize("command", [
        "train", "cross-validate", "infer", "export-graph", "synth-recover",
        "gradcheck"])
    def test_negative_seed_is_usage_error(self, command, data_csv, tmp_path, capsys):
        argv = [command, "--seed", "-1", "--out-dir", str(tmp_path / "o")]
        if command not in ("synth-recover", "gradcheck"):
            argv += ["--data", str(data_csv), "--label-col", "dx", *FAST_FLAGS]
        if command == "infer":
            argv += ["--test-data", str(data_csv)]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err == "usage error: argument --seed: expected a non-negative integer, got '-1'\n"

    def test_synth_curves_takes_no_seed(self, tmp_path, capsys):
        # it runs seeds 0 .. --seeds - 1, so a --seed would be recorded unused
        argv = ["synth-curves", "--nodes", "3", "--dims", "2", "--seeds", "2",
                "--iterations", "1", "--out-dir", str(tmp_path)]
        assert cli.run([*argv, "--seed", "0"]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --seed")
        assert cli.run(argv) == 0
        run_info = json.loads((tmp_path / "run.json").read_text())
        assert run_info == {"command": "synth-curves", "seeds": 2, "cells": 2}


class TestSynthCurves:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "curves"
        code = cli.run(["synth-curves", "--nodes", "5", "--dims", "2,4",
                        "--seeds", "1", "--iterations", "100",
                        "--out-dir", str(out)])
        assert code == 0
        lines = (out / "recovery_curves.csv").read_text().strip().splitlines()
        assert lines[0] == "nodes,dim,seed,final_mse,agreement"
        assert len(lines) == 3


class TestGradcheck:
    def test_passes_and_prints_max_error(self, tmp_path, capsys):
        assert cli.run(["gradcheck", "--out-dir", str(tmp_path / "g")]) == 0
        printed = capsys.readouterr().out
        assert "max per-op relative error" in printed
        assert "end_to_end" in printed


class TestTrainInferExport:
    def test_train_writes_history_and_metrics(self, data_csv, tmp_path):
        out = tmp_path / "tr"
        code = cli.run(["train", "--data", str(data_csv), "--label-col", "dx",
                        "--out-dir", str(out), *FAST_FLAGS])
        assert code == 0
        lines = (out / "history.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss,train_acc,val_acc"
        assert len(lines) == 41
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["train_accuracy"] <= 1.0

    def test_infer_writes_predictions(self, data_csv, tmp_path):
        test_csv = tmp_path / "test.csv"
        ds = make_blobs(n_per_class=15, seed=3)
        with open(test_csv, "w") as handle:
            handle.write("id," + ",".join(ds.feature_names) + "\n")
            for i in range(4):
                handle.write(f"t{i}," +
                             ",".join(format(v, ".17g") for v in ds.X[i]) + "\n")
        out = tmp_path / "inf"
        code = cli.run(["infer", "--data", str(data_csv), "--label-col", "dx",
                        "--test-data", str(test_csv), "--out-dir", str(out),
                        *FAST_FLAGS])
        assert code == 0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "id,label,class"
        assert len(lines) == 5

    def test_infer_training_ignores_test_rows(self, data_csv, tmp_path, monkeypatch):
        from latentgraph import data_io, training
        losses, seen_test = [], []
        train, infer = training.train, training.inductive_infer

        def recording_train(*args, **kwargs):
            params, history = train(*args, **kwargs)
            losses.append([r.loss for r in history])
            return params, history

        def recording_infer(params, train_X, test_X):
            seen_test.append(test_X)
            return infer(params, train_X, test_X)

        monkeypatch.setattr(training, "train", recording_train)
        monkeypatch.setattr(training, "inductive_infer", recording_infer)
        blobs = make_blobs(n_per_class=15, seed=3)
        raw = blobs.X
        rng = np.random.default_rng(0)
        for k, shift in enumerate((0.0, 40.0)):
            test_X = rng.normal(size=(3, raw.shape[1])) * 5.0 + shift
            test_csv = tmp_path / f"test{k}.csv"
            with open(test_csv, "w") as handle:
                handle.write("id," + ",".join(blobs.feature_names) + "\n")
                for i, row in enumerate(test_X):
                    handle.write(f"t{i}," + ",".join(format(v, ".17g") for v in row) + "\n")
            code = cli.run(["infer", "--data", str(data_csv), "--label-col", "dx",
                            "--test-data", str(test_csv), "--out-dir", str(tmp_path / f"o{k}"),
                            *FAST_FLAGS])
            assert code == 0
            np.testing.assert_allclose(seen_test[-1], data_io.standardize(test_X, reference=raw),
                                       atol=1e-12)
        assert losses[0] == losses[1]

    def test_infer_quantized_labels_quote_the_class(self, tmp_path):
        # every bin name "[a, b)" holds a comma, so it must be quoted
        blobs = make_blobs(n_per_class=8, n_classes=4, seed=3)
        blobs.class_names = ["55", "65", "75", "85"]
        data_csv, test_csv = tmp_path / "ages.csv", tmp_path / "test.csv"
        write_dataset_csv(data_csv, blobs, label_col="age")
        write_dataset_csv(test_csv, blobs, label_col="age_unused")
        out = tmp_path / "inf"
        code = cli.run(["infer", "--data", str(data_csv), "--label-col", "age",
                        "--quantize-edges", "50,60,70,80,90",
                        "--test-data", str(test_csv), "--out-dir", str(out),
                        *FAST_FLAGS])
        assert code == 0
        text = (out / "predictions.csv").read_text()
        header, *rows = csv.reader(text.splitlines())
        assert header == ["id", "label", "class"]
        assert len(rows) == 32
        edges = [50.0, 60.0, 70.0, 80.0, 90.0]
        for node_id, label, name in rows:
            b = int(label)
            assert name == f"[{edges[b]}, {edges[b + 1]})"
            assert f'{node_id},{label},"{name}"\n' in text

    def test_export_graph_records_no_tape(self, data_csv, tmp_path, monkeypatch):
        soft_adjacency = cli.soft_adjacency
        outputs = []

        def recording_soft_adjacency(*args):
            outputs.append(soft_adjacency(*args))
            return outputs[-1]

        monkeypatch.setattr(cli, "soft_adjacency", recording_soft_adjacency)
        code = cli.run(["export-graph", "--data", str(data_csv),
                        "--label-col", "dx", "--out-dir", str(tmp_path / "eg"), *FAST_FLAGS])
        assert code == 0
        assert len(outputs) == 1 and outputs[0].op is None

    def test_export_graph_round_trips(self, data_csv, tmp_path):
        out = tmp_path / "eg"
        code = cli.run(["export-graph", "--data", str(data_csv),
                        "--label-col", "dx", "--out-dir", str(out), *FAST_FLAGS])
        assert code == 0
        with (out / "adjacency.csv").open(newline="") as handle:
            header, *rows = csv.reader(handle)
        ids = header[1:]
        adjacency = np.array([[float(v) for v in row[1:]] for row in rows])
        assert len(ids) == 30
        assert np.all(adjacency >= 0.0) and np.all(adjacency <= 1.0)
        np.testing.assert_allclose(adjacency, adjacency.T, atol=1e-6)
