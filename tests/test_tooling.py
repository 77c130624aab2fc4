import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # on a failure, Hypothesis imports libcst for its patch output, which
    # warns through mypy_extensions; the ini's "error" filter must not turn
    # that into an INTERNALERROR (exit 3) that skips every later test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, (proc.stdout + proc.stderr)[-600:]
    assert "1 failed, 1 passed" in proc.stdout


# every test that bounds a tracemalloc peak, by node id under tests/
MEMORY_TESTS = [
    "test_autodiff.py::TestTilePairs::test_adjoint_holds_a_few_tiles[dense]",
    "test_autodiff.py::TestTilePairs::test_adjoint_holds_a_few_tiles[factors]",
    "test_graph_learning.py::TestInitEdgeParams::test_peak_memory_is_about_half_an_nxn_buffer",
    "test_training.py::TestTrain::test_backward_forms_no_nxn_temporary",
    "test_training.py::TestEvaluate::test_peak_memory_is_about_three_quarters_of_an_nxn_buffer",
    "test_training.py::TestKnnBaseline::test_peak_memory_is_about_one_nxn_buffer",
    "test_training.py::TestNodeCap::test_raises_before_the_first_nxn_buffer[train]",
    "test_training.py::TestNodeCap::test_raises_before_the_first_nxn_buffer[knn_adjacency]",
]


def test_memory_tests_pass_when_run_alone():
    # in the suite an earlier test may already have paid a lazy import (or
    # any other one-off allocation) that a test run alone pays inside its
    # traced window; two processes at a time
    def run_alone(node_id):
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q", f"tests/{node_id}"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)

    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(run_alone, MEMORY_TESTS))
    failed = {node_id: proc.stdout[-600:] for node_id, proc in zip(MEMORY_TESTS, procs)
              if proc.returncode != 0}
    assert not failed, failed


def run_console_entry_point(*args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "latentgraph.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_console_entry_point_help_exits_zero(tmp_path):
    proc = run_console_entry_point("--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-600:]
    assert "cross-validate" in proc.stdout and proc.stderr == ""


def test_console_entry_point_usage_error_exits_one(tmp_path):
    # one line: no usage text and no traceback, and no warning under -W error
    proc = run_console_entry_point("train", "--epoch", "5", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr[-600:]
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error:"), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_passes_its_output_checks(name, tmp_path, monkeypatch):
    # each job's loss fingerprint must match reference.json on variant 0, and
    # the workloads must still be able to call into the package as they do
    monkeypatch.setenv("LATENTGRAPH_WORKERS", "1")
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    workload = workloads.load(name, 0, tmp_path, reference)
    workload.prepare()
    results = [workload.run_task(task, lambda: None) for task in workload.tasks()]
    reasons = [reason for result in results for reason in result.reasons]
    assert sum(result.attempted for result in results) > 0
    assert sum(result.failed for result in results) == 0, reasons


def test_every_private_definition_has_a_caller_in_src():
    # a private function, class or method that only its own body or the
    # tests reach is left behind by a deletion; names are matched across
    # the package, since modules call each other's private helpers
    defined, referenced = [], []
    for path in sorted((ROOT / "src" / "latentgraph").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined.append((path.name, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                referenced.append((path.name, node.lineno, name))

    def called_outside(module, definition):
        return any(name == definition.name and not (
            module == where and definition.lineno <= line <= definition.end_lineno)
            for where, line, name in referenced)

    orphans = [f"{module}:{node.lineno} {node.name}" for module, node in defined
               if not called_outside(module, node)]
    assert not orphans


def test_no_line_under_src_or_tests_is_longer_than_99_columns():
    long_lines = [f"{path.relative_to(ROOT)}:{number} ({len(line)})"
                  for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if len(line) > 99]
    assert not long_lines
