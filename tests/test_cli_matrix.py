"""tools/cli_matrix.py --compare: the byte-identity check between two
output trees reports every header, value and file that differs."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_matrix.py")

CSV = ("# numerics.n_points = 101\n# filter_resolved = open\n"
       "p_pair,v_open\n1.000000e-03,9.500000e-01\n1.000000e-02,8.000000e-01\n")
REPORT = "# run.p_pair = 0.01\norder = 2\nachieved_v = 8.930000e-01\n"


@pytest.fixture
def matrix(monkeypatch):
    # the tool pins OPENBLAS_NUM_THREADS on import; restore it afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("cli_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, files):
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def compared(matrix, tmp_path, capsys, changes):
    """compare() and its printed lines for a tree against a changed copy."""
    base = {"run-a/sweep.csv": CSV, "run-a/exit_code.txt": "0\n",
            "run-b/filter_report.txt": REPORT}
    a = write_tree(tmp_path / "a", base)
    b = write_tree(tmp_path / "b", {**base, **changes})
    same = matrix.compare(a, b)
    return same, capsys.readouterr().out.splitlines()


def test_identical_trees_compare_clean(matrix, tmp_path, capsys):
    same, lines = compared(matrix, tmp_path, capsys, {})
    assert same
    assert lines == ["identical"]


def test_changed_value_reported_with_its_delta(matrix, tmp_path, capsys):
    changed = CSV.replace("8.000000e-01", "8.000010e-01")
    same, lines = compared(matrix, tmp_path, capsys, {"run-a/sweep.csv": changed})
    assert not same
    assert lines == ["run-a/sweep.csv v_open: 1 changed, max |delta| 1.000e-06, "
                     "max rel 1.250e-06", "differ"]


def test_changed_report_value_read_as_its_key(matrix, tmp_path, capsys):
    changed = REPORT.replace("8.930000e-01", "8.950000e-01")
    same, lines = compared(matrix, tmp_path, capsys,
                           {"run-b/filter_report.txt": changed})
    assert not same
    assert lines[0].startswith("run-b/filter_report.txt achieved_v: 1 changed, "
                               "max |delta| 2.000e-03")


def test_changed_header_reported(matrix, tmp_path, capsys):
    changed = CSV.replace("filter_resolved = open", "filter_resolved = ideal-matched")
    same, lines = compared(matrix, tmp_path, capsys, {"run-a/sweep.csv": changed})
    assert not same
    assert lines == ["run-a/sweep.csv header filter_resolved: "
                     "'open' -> 'ideal-matched'", "differ"]


def test_added_file_reported(matrix, tmp_path, capsys):
    same, lines = compared(matrix, tmp_path, capsys, {"run-a/extra.csv": CSV})
    assert not same
    assert lines == ["run-a/extra.csv: only in %s" % (tmp_path / "b"), "differ"]
