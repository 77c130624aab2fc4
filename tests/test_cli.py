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

    def test_export_graph_round_trips(self, data_csv, tmp_path):
        from latentgraph import data_io
        out = tmp_path / "eg"
        code = cli.run(["export-graph", "--data", str(data_csv),
                        "--label-col", "dx", "--out-dir", str(out), *FAST_FLAGS])
        assert code == 0
        ids, adjacency = data_io.load_adjacency(out / "adjacency.csv")
        assert len(ids) == 30
        assert np.all(adjacency >= 0.0) and np.all(adjacency <= 1.0)
        np.testing.assert_allclose(adjacency, adjacency.T, atol=1e-6)
