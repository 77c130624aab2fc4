import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentgraph import data_io
from latentgraph.errors import ContractError, DataError, DimensionError, ParseError
from latentgraph.training import EpochRecord

RNG = np.random.default_rng(15)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_small_file_exact_values(self, tmp_path):
        path = write(tmp_path, "id,dx,f1,f2\n"
                               "p1,a,1.5,2.5\n"
                               "p2,b,-3.0,0.25\n"
                               "p3,a,0.125,7.0\n")
        ds = data_io.load_csv(path, "id", "dx")
        assert np.array_equal(ds.X, [[1.5, 2.5], [-3.0, 0.25], [0.125, 7.0]])
        assert np.array_equal(ds.y, [0, 1, 0])
        assert ds.class_names == ["a", "b"]
        assert ds.node_ids == ["p1", "p2", "p3"]

    def test_missing_cell_imputed_by_column_mean(self, tmp_path):
        path = write(tmp_path, "id,dx,f1\np1,a,2.0\np2,b,\np3,a,4.0\n")
        ds = data_io.load_csv(path, "id", "dx")
        assert ds.X[1, 0] == 3.0

    def test_missing_label_rows_dropped(self, tmp_path):
        path = write(tmp_path, "id,dx,f1\np1,a,1\np2,,2\np3,b,3\n")
        ds = data_io.load_csv(path, "id", "dx")
        assert ds.n_nodes == 2
        assert ds.node_ids == ["p1", "p3"]

    def test_non_numeric_cell_reports_coordinates(self, tmp_path):
        path = write(tmp_path, "id,dx,f1\np1,a,1\np2,b,oops\n")
        with pytest.raises(ParseError, match="line 3.*'f1'"):
            data_io.load_csv(path, "id", "dx")

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "1e999"])
    def test_infinite_cell_reports_coordinates(self, tmp_path, cell):
        path = write(tmp_path, f"id,dx,f1\np1,a,1\np2,b,{cell}\n")
        with pytest.raises(ParseError, match=f"line 3, column 'f1': infinite value '{cell}'"):
            data_io.load_csv(path, "id", "dx")

    def test_every_nan_spelling_is_missing(self, tmp_path, caplog):
        # float() reads all of these as NaN: labels drop, features impute
        path = write(tmp_path, "id,dx,f1\np1,1,2.0\np2,-nan,5\np3,2,-NaN\n"
                               "p4,+NAN,1\np5,2,4.0\np6,1,+nan\n")
        with caplog.at_level("WARNING", logger="latentgraph.data_io"):
            ds = data_io.load_csv(path, "id", "dx")
        assert ds.node_ids == ["p1", "p3", "p5", "p6"]
        assert ds.class_names == ["1", "2"]
        assert np.array_equal(ds.X[:, 0], [2.0, 3.0, 4.0, 3.0])
        assert "dropped 2 rows" in caplog.text

    def test_nan_label_is_dropped_before_quantization(self, tmp_path):
        path = write(tmp_path, "id,age,f1\np1,55,1\np2,-nan,2\np3,89,3\n")
        ds = data_io.load_csv(path, "id", "age", quantize_edges=[50, 60, 70, 80, 90])
        assert ds.node_ids == ["p1", "p3"]
        assert np.array_equal(ds.y, [0, 3])

    def test_absent_column_rejected(self, tmp_path):
        path = write(tmp_path, "id,dx,f1\np1,a,1\n")
        with pytest.raises(ParseError, match="'nope'"):
            data_io.load_csv(path, "id", "nope")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError):
            data_io.load_csv(tmp_path / "absent.csv", "id", "dx")

    def test_numeric_labels_densified_in_numeric_order(self, tmp_path):
        path = write(tmp_path, "id,dx,f1\np1,10,1\np2,2,2\np3,10,3\n")
        ds = data_io.load_csv(path, "id", "dx")
        assert np.array_equal(ds.y, [1, 0, 1])
        assert ds.class_names == ["2", "10"]

    def test_explicit_feature_subset(self, tmp_path):
        path = write(tmp_path, "id,dx,f1,f2,f3\np1,a,1,2,3\np2,b,4,5,6\n")
        ds = data_io.load_csv(path, "id", "dx", feature_cols=["f3", "f1"])
        assert ds.feature_names == ["f3", "f1"]
        assert np.array_equal(ds.X, [[3, 1], [6, 4]])

    @pytest.mark.parametrize("features, message", [
        (["dx", "f1"], "'dx' is the id or label column"),
        (["f1", "id"], "'id' is the id or label column"),
        (["f1", "f2", "f1"], "'f1' is named twice")])
    def test_explicit_features_exclude_id_label_and_repeats(self, tmp_path,
                                                            features, message):
        path = write(tmp_path, "id,dx,f1,f2\np1,a,1,2\np2,b,4,5\n")
        with pytest.raises(ParseError, match=message):
            data_io.load_csv(path, "id", "dx", feature_cols=features)

    @pytest.mark.parametrize("features", ["rest", ["a"]])
    def test_column_named_twice_in_header_rejected(self, tmp_path, features):
        # a repeated name would make both columns read the first one's cells
        path = write(tmp_path, "id,dx,a,a\np1,x,1,2\np2,y,3,4\n")
        with pytest.raises(ParseError, match="'a' is named twice in the header"):
            data_io.load_csv(path, "id", "dx", feature_cols=features)

    def test_unlabeled_schema(self, tmp_path):
        path = write(tmp_path, "id,f1\np1,1\np2,2\n")
        ds = data_io.load_csv(path, "id")
        assert ds.y is None and ds.n_nodes == 2

    def test_quantized_continuous_labels(self, tmp_path):
        path = write(tmp_path, "id,age,f1\np1,55,1\np2,65,2\np3,89,3\n")
        ds = data_io.load_csv(path, "id", "age",
                              quantize_edges=[50, 60, 70, 80, 90])
        assert np.array_equal(ds.y, [0, 1, 3])

    def test_round_trip_bit_identical(self, tmp_path):
        x = RNG.normal(size=(4, 3))
        lines = ["id,dx,f0,f1,f2"]
        for i, row in enumerate(x):
            lines.append(f"p{i},a," + ",".join(format(v, ".17g") for v in row))
        lines[1] = lines[1].replace(",a,", ",b,", 1)
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = data_io.load_csv(path, "id", "dx")
        assert np.array_equal(ds.X, x)


class TestQuantizeLabels:
    EDGES = [50.0, 60.0, 70.0, 80.0, 90.0]

    def test_interior_value(self):
        assert data_io.quantize_labels([65.0], self.EDGES)[0] == 1

    def test_left_closed_bins(self):
        assert data_io.quantize_labels([50.0], self.EDGES)[0] == 0
        assert data_io.quantize_labels([60.0], self.EDGES)[0] == 1

    def test_top_bin_right_closed(self):
        assert data_io.quantize_labels([90.0], self.EDGES)[0] == 3

    def test_out_of_range_lists_offenders(self):
        with pytest.raises(DataError, match="49.5"):
            data_io.quantize_labels([55.0, 49.5], self.EDGES)
        with pytest.raises(DataError, match="90.1"):
            data_io.quantize_labels([90.1], self.EDGES)

    def test_nan_rejected(self):
        with pytest.raises(DataError, match=r"\[nan\]"):
            data_io.quantize_labels([np.nan, 1.0], [0, 1, 2])

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ContractError):
            data_io.quantize_labels([1.0], [0.0, 2.0, 2.0])

    @given(st.lists(st.floats(50.0, 90.0, allow_nan=False), min_size=2,
                    max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, values):
        labels = data_io.quantize_labels(values, self.EDGES)
        order = np.argsort(values)
        assert np.all(np.diff(labels[order]) >= 0)


class TestStandardize:
    def test_closed_form_column(self):
        out = data_io.standardize(np.array([[1.0], [2.0], [3.0]]))
        expected = np.array([[-1.224744871391589], [0.0], [1.224744871391589]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_column_maps_to_zeros(self):
        out = data_io.standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]))
        assert np.array_equal(out[:, 0], np.zeros(3))

    def test_random_matrix_moments(self):
        out = data_io.standardize(RNG.normal(loc=3.0, scale=2.5, size=(200, 6)))
        assert np.all(np.abs(out.mean(axis=0)) < 1e-12)
        np.testing.assert_allclose(out.var(axis=0), np.ones(6), atol=1e-9)

    def test_idempotent(self):
        x = RNG.normal(size=(50, 4)) * 7 + 2
        once = data_io.standardize(x)
        twice = data_io.standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_moments_from_reference_rows(self):
        train = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        held_out = np.array([[7.0, 9.0]])
        out = data_io.standardize(held_out, reference=train)
        np.testing.assert_allclose(out, [[4.0 / np.std([1.0, 3.0, 5.0]), 0.0]],
                                   atol=1e-12)
        with pytest.raises(DimensionError):
            data_io.standardize(np.ones((2, 3)), reference=train)

    def test_single_row_rejected(self):
        with pytest.raises(ContractError):
            data_io.standardize(np.ones((1, 3)))


class TestExportAdjacency:
    def test_two_by_two_has_three_lines(self, tmp_path):
        path = tmp_path / "adj.csv"
        data_io.export_adjacency(np.eye(2), ["a", "b"], path)
        assert path.read_bytes() == b"id,a,b\na,1,0\nb,0,1\n"

    def test_reload_export_idempotent_at_six_digits(self, tmp_path):
        a = RNG.random((5, 5))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        data_io.export_adjacency(a, [f"n{i}" for i in range(5)], first)
        with first.open(newline="") as handle:
            header, *rows = csv.reader(handle)
        reloaded = np.array([[float(v) for v in row[1:]] for row in rows])
        data_io.export_adjacency(reloaded, header[1:], second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_graph_header_only(self, tmp_path):
        path = tmp_path / "adj.csv"
        data_io.export_adjacency(np.zeros((0, 0)), [], path)
        assert path.read_text().strip() == "id"

    def test_id_count_mismatch(self, tmp_path):
        with pytest.raises(DimensionError):
            data_io.export_adjacency(np.eye(3), ["a", "b"], tmp_path / "x.csv")


class TestWriteCsv:
    def test_quotes_fields_and_ends_lines_with_newline(self, tmp_path):
        path = tmp_path / "out.csv"
        data_io.write_csv(path, ["id", "label", "class"],
                          [["p1", 1, "[60.0, 70.0)"], ["p2", 0, "[50.0, 60.0)"]])
        assert path.read_bytes() == (b'id,label,class\n'
                                     b'p1,1,"[60.0, 70.0)"\n'
                                     b'p2,0,"[50.0, 60.0)"\n')


class TestTrainingArtifacts:
    def test_history_csv_schema(self, tmp_path):
        history = [EpochRecord(0, 0.01, 1.5, 0.4, None),
                   EpochRecord(1, 0.01, 1.2, 0.5, 0.45)]
        path = tmp_path / "history.csv"
        data_io.write_history_csv(path, history)
        assert path.read_bytes() == (b"epoch,lr,loss,train_acc,val_acc\n"
                                     b"0,0.01,1.5,0.4,\n"
                                     b"1,0.01,1.2,0.5,0.45\n")

    def test_metrics_json_deterministic(self, tmp_path):
        payload = {"b": 1, "a": [1.0, 2.0]}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        data_io.write_metrics_json(p1, payload)
        data_io.write_metrics_json(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()
