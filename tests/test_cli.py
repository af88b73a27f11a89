import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tcmsim.cli import main


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def test_run_basic(tmp_path):
    out = tmp_path / "ts.csv"
    code = main(["run", "--modes", "1", "--mean", "5", "--gt-max", "2",
                 "--gt-steps", "50", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["gt", "W", "concurrence", "eof"]
    assert data.shape == (50, 4)
    first = out.read_text().splitlines()[1]
    assert first == "0,1,0,0"


def test_run_with_oracle_columns(tmp_path):
    out = tmp_path / "ts.csv"
    code = main(["run", "--mean", "2", "--gt-max", "3", "--gt-steps", "30",
                 "--oracle", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["gt", "W", "concurrence", "eof", "W_oracle",
                      "concurrence_oracle", "eof_oracle", "delta_C"]
    assert data[:, 7].max() <= 1e-8


def test_exit_code_on_bad_flag_value(tmp_path):
    assert main(["run", "--gt-steps", "1", "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["run", "--field", "custom", "--out", str(tmp_path / "x.csv")]) == 1


def test_literal_overflow_exits_as_numerical_failure(tmp_path, capsys):
    # the literal m=2 norm deficit overflows long before gt=400
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--modes", "2", "--mean", "3", "--convention", "literal",
                     "--gt-max", "400", "--gt-steps", "50", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure: " in err
    # one message: no numpy overflow warnings ahead of it
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(args, cwd):
    """``python -m tcmsim ARGS`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "tcmsim", *args], cwd=cwd,
                          env=CHILD_ENV, capture_output=True, text=True, timeout=60)


def test_cli_loads_no_scipy_module(tmp_path):
    # numpy is the only runtime dependency: no subcommand may import scipy
    code = """
import sys
from tcmsim.cli import main
grid = ["--gt-max", "2", "--gt-steps", "5"]
for argv in (
        ["run", "--modes", "2", "--mean", "2", "--convention", "literal", "--oracle",
         *grid, "--out", "run.csv"],
        ["inversion", "--mean", "2", "--gt-max", "30",
         "--gt-steps", "600", "--out", "inv.csv"],
        ["sweep-modes", "--mean", "2", "--sweep-gt", "1", "--sweep-modes", "1,2,3",
         "--out", "sweep.csv"],
        ["compare-oracle", "--modes", "2", "--mean", "2", *grid, "--out", "cmp.csv"],
        ["diagnose", "--means", "2", *grid, "--out", "diag.txt"],
        ["analyze", "--in", "inv.csv", "--mean", "2", "--max-j", "2",
         "--out", "peaks.txt"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.exit(", ".join(loaded) or 0)
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "found 2" in (tmp_path / "peaks.txt").read_text()


def test_readme_revival_report(tmp_path):
    # the README's inversion + analyze example, as the scipy find_peaks
    # implementation reported it
    assert run_cli(["inversion", "--mean", "50", "--gt-max", "110",
                    "--gt-steps", "5500", "--out", "inv.csv"], tmp_path).returncode == 0
    proc = run_cli(["analyze", "--in", "inv.csv", "--channel", "W", "--mean", "50",
                    "--max-j", "2"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == (
        "revival peaks on channel W (mean=50, requested 2, found 2)\n"
        "  j=1: detected gt=44.9082  predicted 44.4288  rel. error +1.079%\n"
        "  j=2: detected gt=89.5763  predicted 88.8577  rel. error +0.809%\n")


@pytest.mark.parametrize("args", [
    # coverage targets a double cannot reach: widening used to run forever
    ["run", "--coverage-epsilon", "1e-16"],
    ["run", "--coverage-epsilon", "1e-17"],
    ["run", "--coverage-epsilon", "1e-300"],
    ["run", "--coverage-epsilon", "nan"],
    ["run", "--mean", "nan"],
    ["run", "--mean", "inf"],
    ["run", "--sigma-width", "nan"],
    ["run", "--gt-max", "nan"],
    ["run", "--gt-max", "inf"],
    ["run", "--mean", "1e300"],
    ["sweep-modes", "--sweep-gt", "nan"],
    ["run", "--field", "custom", "--custom-file", "nan_field.txt"],
    ["run", "--config", "nan.cfg"],
])
def test_bad_numeric_input_exits_with_one_message(tmp_path, args):
    (tmp_path / "nan_field.txt").write_text("0.8\nnan\n")
    (tmp_path / "nan.cfg").write_text("mean = nan\n")
    if args[0] == "run":
        args = [*args, "--modes", "1", "--gt-steps", "5"]
    proc = run_cli([*args, "--out", "x.csv"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("configuration error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_determinism(tmp_path):
    args = ["run", "--mean", "3", "--gt-max", "4", "--gt-steps", "40"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_inversion_single_atom_fock(tmp_path):
    out = tmp_path / "inv.csv"
    code = main(["inversion", "--field", "fock", "--n0", "0",
                 "--gt-max", "6", "--gt-steps", "120", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["gt", "W"]
    assert np.allclose(data[:, 1], np.cos(2 * data[:, 0]), atol=1e-12)


def test_run_two_atom_inversion_starts_at_one(tmp_path):
    out = tmp_path / "inv2.csv"
    code = main(["run", "--modes", "1", "--mean", "3", "--gt-max", "2",
                 "--gt-steps", "20", "--out", str(out)])
    assert code == 0
    _, data = read_csv(out)
    assert data[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_sweep_modes(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-modes", "--mean", "3", "--sweep-gt", "1.0,0.5",
                 "--sweep-modes", "2,1", "--coverage-epsilon", "1e-8",
                 "--sigma-width", "4", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header == ["m", "gt", "concurrence", "eof"]
    assert data.shape == (4, 4)
    order = [tuple(r[:2]) for r in data]
    assert order == sorted(order)
    assert np.all((data[:, 3] >= 0) & (data[:, 3] <= 1))


def test_sweep_modes_empty_list(tmp_path):
    assert main(["sweep-modes", "--sweep-modes", "", "--out",
                 str(tmp_path / "s.csv")]) == 1


def test_compare_oracle(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(["compare-oracle", "--mean", "2", "--gt-max", "2",
                 "--gt-steps", "20", "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    assert header[-3:] == ["delta_W", "delta_C", "delta_EF"]
    assert "closed form vs oracle" in capsys.readouterr().out


def test_analyze_peaks_and_collapse(tmp_path):
    inv = tmp_path / "inv.csv"
    assert main(["inversion", "--mean", "25", "--gt-max", "80",
                 "--gt-steps", "4000", "--out", str(inv)]) == 0
    report = tmp_path / "report.txt"
    code = main(["analyze", "--in", str(inv), "--channel", "W", "--mean", "25",
                 "--max-j", "1", "--out", str(report)])
    assert code == 0
    assert "j=1" in report.read_text()

    assert main(["analyze", "--in", str(inv)]) == 1
    assert main(["analyze", "--in", str(tmp_path / "nope.csv"),
                 "--max-j", "1", "--mean", "25"]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mean = 4.0\ngt_max = 2.0\ngt_steps = 25\n"
                   "out = should_not_be_used.csv\n")
    out = tmp_path / "from_cfg.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    _, data = read_csv(out)
    assert data.shape[0] == 25
    assert data[-1, 0] == pytest.approx(2.0)


def test_unwritable_out_path(tmp_path):
    target = tmp_path / "a_directory"
    target.mkdir()
    code = main(["run", "--mean", "2", "--gt-max", "1", "--gt-steps", "5",
                 "--out", str(target)])
    assert code == 1


def test_missing_custom_file(tmp_path):
    code = main(["run", "--field", "custom", "--custom-file",
                 str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_bad_convention_flag(tmp_path):
    assert main(["run", "--convention", "bogus",
                 "--out", str(tmp_path / "o.csv")]) == 1


def test_oracle_cost_warning():
    import warnings as w

    from tcmsim.cli import _maybe_cost_warning
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        _maybe_cost_warning({"modes": 3, "mean": 12.0}, oracle=True)
        _maybe_cost_warning({"modes": 2, "mean": 50.0}, oracle=True)
        _maybe_cost_warning({"modes": 3, "mean": 12.0}, oracle=False)
    assert len(caught) == 1


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_diagnose_small(tmp_path):
    out = tmp_path / "diag.txt"
    code = main(["diagnose", "--modes", "2", "--means", "2",
                 "--gt-max", "2", "--gt-steps", "25", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "operator-power expansion" in text
    assert "closed form vs oracle" in text
    assert "index conventions" in text


def test_removed_options_are_rejected(tmp_path):
    # --formulas, inversion --atoms and inversion --convention are gone
    for args in (["run", "--formulas", "auto"], ["inversion", "--atoms", "2"],
                 ["inversion", "--convention", "literal"]):
        assert main([*args, "--out", str(tmp_path / "x.csv")]) == 1
    cfg = tmp_path / "old.cfg"
    cfg.write_text("formulas = auto\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == 1
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "y.csv").exists()
