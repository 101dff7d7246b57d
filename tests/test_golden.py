"""The tolerance verdict of scripts/golden.py compare."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "golden.py")
_spec = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _write(path, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


@pytest.fixture
def pair(tmp_path):
    """Write a golden and a fresh copy of run/a.csv; return the compare call."""

    def compare(want_rows, got_rows, rtol=0.0, atol=0.0):
        golden_dir = tmp_path / "golden"
        _write(str(golden_dir / "run" / "a.csv"), want_rows)
        got = {"run/a.csv": _write(str(tmp_path / "got" / "a.csv"), got_rows)}
        return golden._compare(str(golden_dir), got, rtol, atol)

    return compare


WANT = [["name", "x", "y"], ["p", "1.0", "4.9e-32"], ["q", "2.0", "100.0"]]
GOT = [["name", "x", "y"], ["p", "1.0", "0.0"], ["q", "2.0", "100.00000000001"]]


def test_file_differences_reports_relative_and_absolute(tmp_path):
    want = _write(str(tmp_path / "want.csv"), WANT)
    got = _write(str(tmp_path / "got.csv"), GOT)
    rel, diff, over = golden.file_differences(got, want, rtol=1e-12)
    assert rel == 1.0  # 4.9e-32 against 0
    assert diff == pytest.approx(1e-11, rel=1e-3)
    assert over == 1
    assert golden.file_differences(got, want, rtol=1e-12, atol=1e-30)[2] == 0
    assert golden.file_differences(want, want) == (0.0, 0.0, 0)


def test_roundoff_cell_passes_only_with_the_floor(pair, capsys):
    assert pair(WANT, GOT, rtol=1e-12) == 1
    assert "over" in capsys.readouterr().out
    assert pair(WANT, GOT, rtol=1e-12, atol=1e-30) == 0
    out = capsys.readouterr().out
    assert "max relative difference 1.000e+00, max absolute difference 1.000e-11" in out
    # the floor alone does not excuse a relative difference above R
    assert pair(WANT, GOT, rtol=1e-14, atol=1e-30) == 1
    assert pair(WANT, GOT, rtol=0.0, atol=1e-10) == 0


def test_layout_differences_fail_whatever_the_tolerance(pair, capsys):
    assert pair(WANT, [["name", "x", "z"]] + GOT[1:], rtol=1.0, atol=1.0) == 1
    assert "header differs" in capsys.readouterr().out
    assert pair(WANT, GOT[:2], rtol=1.0, atol=1.0) == 1
    assert "row count differs" in capsys.readouterr().out
    assert pair(WANT, [GOT[0], ["r", "1.0", "0.0"], GOT[2]], rtol=1.0, atol=1.0) == 1
    assert "non-numeric cell differs" in capsys.readouterr().out


def test_missing_file_fails(tmp_path):
    golden_dir = tmp_path / "golden"
    _write(str(golden_dir / "run" / "a.csv"), WANT)
    assert golden._compare(str(golden_dir), {}, 1.0, 1.0) == 1
