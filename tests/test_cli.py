import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from tcmsim import cli
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


def test_compare_oracle_holds_the_oracle_columns(tmp_path):
    # the series, the exact columns and delta_C, in this order among the others
    out = tmp_path / "cmp.csv"
    code = main(["compare-oracle", "--mean", "2", "--gt-max", "3", "--gt-steps", "30",
                 "--out", str(out)])
    assert code == 0
    header, data = read_csv(out)
    at = [header.index(name) for name in ("gt", "W", "concurrence", "eof", "W_oracle",
                                          "concurrence_oracle", "eof_oracle", "delta_C")]
    assert at == sorted(at)
    assert data[:, header.index("delta_C")].max() <= 1e-8


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


def test_eigensolver_failure_exits_as_numerical_failure(tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    out = tmp_path / "x.csv"
    code = main(["run", "--modes", "1", "--mean", "2", "--gt-max", "2", "--gt-steps", "5",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: concurrence eigenvalues: Eigenvalues did not converge"]
    assert not out.exists()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def run_cli(args, cwd):
    """``python -m tcmsim ARGS`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "tcmsim", *args], cwd=cwd,
                          env=CHILD_ENV, capture_output=True, text=True, timeout=60)


def run_capped(args, cwd):
    """``python ARGS`` in a fresh interpreter under a 1 GiB address-space
    cap: an allocation ahead of a budget check ends in a MemoryError
    instead of taking the host's memory."""
    import resource

    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=limit, capture_output=True, text=True, timeout=60)


def assert_one_configuration_error(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    assert "budget" in lines[0]


def test_block_budget_is_checked_before_allocating(tmp_path):
    # five modes at mean 25 hold 69**5 configurations (11.7 GiB as int64):
    # the consistent blocks must refuse them from the window sizes
    proc = run_capped(["-m", "tcmsim", "run", "--modes", "5", "--mean", "25",
                       "--gt-steps", "2", "--out", "x.csv"], tmp_path)
    assert_one_configuration_error(proc)
    assert not (tmp_path / "x.csv").exists()


def test_block_budget_counts_every_block_entry(tmp_path):
    # five modes at mean 0.65 hold 13**5 = 371,293 configurations of 21x21
    # blocks, 163.7 million entries: refused before any block is built
    start = time.perf_counter()
    proc = run_capped(["-m", "tcmsim", "run", "--modes", "5", "--mean", "0.65",
                       "--gt-steps", "2", "--out", "x.csv"], tmp_path)
    assert time.perf_counter() - start < 10
    assert_one_configuration_error(proc)
    assert "cascade blocks" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_symmetric_levels_are_budgeted_before_they_are_built(tmp_path):
    # 150 modes over five values: the multiset levels 146 and 147 hold
    # 41.1 million rows, 4.8 GB, refused before the first level is built
    (tmp_path / "five.txt").write_text("0.4472135954999579\n" * 5)
    start = time.perf_counter()
    proc = run_capped(["-m", "tcmsim", "run", "--modes", "150", "--field", "custom",
                       "--custom-file", "five.txt", "--convention", "literal",
                       "--gt-steps", "2", "--out", "x.csv"], tmp_path)
    assert time.perf_counter() - start < 10
    assert_one_configuration_error(proc)
    assert "multiset levels 146 and 147" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_out_of_memory_exits_with_one_message(tmp_path):
    # a grid of 200 million gts asks np.linspace for 1.6 GB, beyond the cap
    proc = run_capped(["-m", "tcmsim", "inversion", "--gt-steps", "200000000",
                       "--out", "x.csv"], tmp_path)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: out of memory")
    assert not (tmp_path / "x.csv").exists()


BUILD_FIVE_MODE_ORACLE = """
import sys
from tcmsim import ConfigurationError, ExactEvolver, coherent_field
try:
    ExactEvolver([coherent_field(25.0)] * 5)
except ConfigurationError as exc:
    sys.exit(f"configuration error: {exc}")
"""


@pytest.mark.parametrize("args", [
    # 205 sectors, the largest of dimension 15,122: the sector budget
    ["-m", "tcmsim", "compare-oracle", "--modes", "3", "--mean", "25",
     "--convention", "literal", "--gt-steps", "2", "--out", "x.csv"],
    # every sector within budget, 1.0e9 matrix entries in all
    ["-m", "tcmsim", "compare-oracle", "--modes", "2", "--mean", "1000",
     "--convention", "literal", "--gt-steps", "2", "--out", "x.csv"],
    # 71**5 oracle configurations
    ["-c", BUILD_FIVE_MODE_ORACLE],
    # refused by the literal multiset budget: the control
    ["-m", "tcmsim", "run", "--modes", "6", "--mean", "100", "--convention", "literal",
     "--gt-steps", "2", "--out", "x.csv"],
])
def test_oracle_budgets_are_checked_before_allocating(tmp_path, args):
    # every budget is checked from the window sizes before its sectors are
    # built or diagonalized, within a few seconds
    start = time.perf_counter()
    proc = run_capped(args, tmp_path)
    assert time.perf_counter() - start < 10
    assert_one_configuration_error(proc)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args, what", [
    pytest.param(["diagnose", "--modes", "5", "--means", "25", "--gt-steps", "2"],
                 "1804229351 oracle configurations need ", id="diagnose"),
    pytest.param(["compare-oracle", "--modes", "3", "--mean", "25", "--convention",
                  "literal", "--gt-steps", "1200"],
                 "(budget 4000); reduce modes, mean, or coverage", id="compare-oracle"),
])
def test_the_oracle_refuses_before_the_closed_form_runs(tmp_path, capsys, monkeypatch,
                                                        args, what):
    # an input the oracle refuses from its window sizes pays for no
    # closed-form evaluation: the oracle runs first
    from tcmsim import pipeline

    def closed_form_series(*_):
        pytest.fail("the closed form ran ahead of the oracle's refusal")

    monkeypatch.setattr(pipeline, "closed_form_series", closed_form_series)
    out = tmp_path / "x.out"
    assert main([*args, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    assert what in lines[0]
    assert not out.exists()


def test_cli_loads_no_scipy_module(tmp_path):
    # numpy is the only runtime dependency: no subcommand may import scipy
    code = """
import sys
from tcmsim.cli import main
grid = ["--gt-max", "2", "--gt-steps", "5"]
for argv in (
        ["run", "--modes", "2", "--mean", "2", "--convention", "literal",
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
    # a spread that overflows to inf: the window-budget message
    ["run", "--sigma-width", "1e308"],
    ["sweep-modes", "--sigma-width", "1e308"],
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


def test_custom_amplitudes_whose_squares_overflow_are_normalized(tmp_path):
    # normalized to (1, 1e-200), with the renormalizing notice alone
    (tmp_path / "big.txt").write_text("1e200\n1\n")
    proc = run_cli(["run", "--field", "custom", "--custom-file", "big.txt", "--modes", "1",
                    "--gt-steps", "5", "--out", "x.csv"], tmp_path)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert (tmp_path / "x.csv").read_text().splitlines()[1] == "0,1,0,0"


def test_revival_search_finer_than_the_grid_is_refused(tmp_path):
    # a peak separation pi*sqrt(mean) below one gt step resolves no revival
    assert run_cli(["run", "--modes", "1", "--mean", "2", "--gt-max", "1e220",
                    "--gt-steps", "30", "--out", "r.csv"], tmp_path).returncode == 0
    proc = run_cli(["analyze", "--in", "r.csv", "--max-j", "1", "--mean", "3.9e-187"],
                   tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("configuration error: revival peak separation pi*sqrt(mean) = "
                           "1.96192e-93 is below the gt step 3.44828e+218\n")


@pytest.mark.parametrize("args", [
    ["run", "--modes", "1", "--convention", "literal", "--gt-max", "1e308", "--gt-steps", "3"],
    ["run", "--modes", "1", "--convention", "consistent", "--gt-max", "1e308",
     "--gt-steps", "3"],
    ["run", "--modes", "2", "--gt-max", "1e308", "--gt-steps", "3"],
    ["sweep-modes", "--sweep-gt", "1e308"],
    ["inversion", "--gt-max", "1e308", "--gt-steps", "3"],
])
def test_overflowing_phase_exits_with_one_message(tmp_path, args):
    # gt times a frequency overflows: one numerical-failure line, with no
    # numpy warning ahead of it, and no CSV
    proc = run_cli([*args, "--out", "x.csv"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("numerical failure: ")
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


def _set_w_cell(lines, text):
    """The inversion CSV lines with one W cell replaced by text."""
    gt, _ = lines[50].split(",")
    return [*lines[:50], f"{gt},{text}", *lines[51:]]


def _add_concurrence(lines):
    """The inversion CSV lines with a concurrence column of 0.01."""
    return [f"{lines[0]},concurrence", *(f"{line},0.01" for line in lines[1:])]


@pytest.mark.parametrize("edit, flags", [
    # the collapse windows read the concurrence, which inversion has not
    pytest.param(lambda lines: lines, ["--threshold", "0.05"], id="no-concurrence"),
    pytest.param(lambda lines: _set_w_cell(lines, "abc"), ["--mean", "5", "--max-j", "1"],
                 id="unparsable-cell"),
    pytest.param(lambda lines: _set_w_cell(lines, "nan"), ["--mean", "5", "--max-j", "1"],
                 id="nan-cell"),
    pytest.param(lambda lines: lines[:1], ["--threshold", "0.05"], id="header-only"),
    # negative values that no analysis reads, beside one that runs
    pytest.param(_add_concurrence, ["--max-j", "-3", "--threshold", "0.05"],
                 id="negative-max-j"),
    pytest.param(lambda lines: lines, ["--mean", "5", "--max-j", "1", "--threshold", "-1"],
                 id="negative-threshold"),
    pytest.param(lambda lines: [f"{line},{line.split(',')[1]}" for line in lines],
                 ["--mean", "5", "--max-j", "1"], id="repeated-column"),
    # the envelope and the peak separation are counted in grid steps
    pytest.param(lambda lines: lines[:100] + lines[101:], ["--mean", "5", "--max-j", "1"],
                 id="non-uniform-grid"),
    # --mean and --channel are read by peak detection alone
    pytest.param(_add_concurrence, ["--mean", "-5", "--channel", "concurrence",
                                    "--threshold", "0.05"], id="unread-mean"),
    pytest.param(_add_concurrence, ["--channel", "concurrence", "--threshold", "0.05"],
                 id="unread-channel"),
])
def test_analyze_refuses_what_it_cannot_read(tmp_path, capsys, edit, flags):
    inv = tmp_path / "inv.csv"
    assert main(["inversion", "--mean", "5", "--gt-max", "20", "--gt-steps", "400",
                 "--out", str(inv)]) == 0
    inv.write_text("\n".join(edit(inv.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--in", str(inv), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args, flag", [
    pytest.param(["run", "--field", "fock", "--n0", "3", "--mean", "7", "--sigma-width", "2"],
                 "--mean", id="run-fock-mean"),
    pytest.param(["run", "--field", "coherent", "--n0", "3"], "--n0", id="run-coherent-n0"),
    pytest.param(["run", "--custom-file", "amps.txt"], "--custom-file",
                 id="run-coherent-custom-file"),
    pytest.param(["inversion", "--field", "fock", "--n0", "2", "--coverage-epsilon", "0.5"],
                 "--coverage-epsilon", id="inversion-fock-coverage-epsilon"),
    pytest.param(["compare-oracle", "--field", "fock", "--sigma-width", "3"], "--sigma-width",
                 id="compare-oracle-fock-sigma-width"),
])
def test_field_flags_the_field_does_not_read_are_refused(tmp_path, capsys, args, flag):
    out = tmp_path / "x.csv"
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert f" {flag} " in err
    assert not out.exists()


def test_config_keys_a_run_does_not_read_are_accepted(tmp_path):
    # one config file may serve several runs: its unread keys are no error
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("field = fock\nn0 = 1\nmean = 7\nsigma_width = 2\nchannel = concurrence\n"
                   "gt_max = 2\ngt_steps = 20\n")
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out)[1].shape == (20, 4)
    report = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(cfg), "--in", str(out), "--threshold", "0.05",
                 "--out", str(report)]) == 0
    assert report.read_text().startswith("collapse windows")


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


def test_a_failure_mid_write_removes_the_partial_file(tmp_path, monkeypatch):
    # the file is open, a block of rows written to it, when the 301st row
    # fails to format; the error propagates and the file is gone
    path = tmp_path / "t.csv"
    columns = {"a": np.arange(1000.0), "b": np.arange(1000.0) / 7}
    formatted, opened = [], []
    fmt = cli._fmt

    def failing(x):
        if len(formatted) == 300 * len(columns):
            opened.append(path.exists())
            raise RuntimeError("formatting failed")
        formatted.append(x)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", failing)
    with pytest.raises(RuntimeError, match="^formatting failed$"):
        cli._write_csv(str(path), columns)
    assert opened == [True]
    assert not path.exists()


def test_an_out_path_that_cannot_be_opened_is_left_as_it_is(tmp_path, monkeypatch, capsys):
    # an existing file the system will not open for writing (read-only to
    # anyone but root) keeps its bytes
    out = tmp_path / "precious.csv"
    out.write_bytes(b"kept\n")
    real_open = open

    def refusing(file, *args, **kwargs):
        if file == str(out):
            raise PermissionError(13, "Permission denied", file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", refusing)
    code = main(["run", "--mean", "2", "--gt-max", "1", "--gt-steps", "5", "--out", str(out)])
    monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == (
        f"configuration error: [Errno 13] Permission denied: '{out}'\n")
    assert out.read_bytes() == b"kept\n"


@pytest.mark.parametrize("args, named", [
    pytest.param(["run", "--config", "dir"], "dir", id="run-config-directory"),
    pytest.param(["analyze", "--in", "dir", "--threshold", "0.05"], "dir",
                 id="analyze-in-directory"),
    pytest.param(["run", "--config", "bytes"], None, id="run-config-undecodable"),
    pytest.param(["run", "--field", "custom", "--custom-file", "bytes"], None,
                 id="custom-file-undecodable"),
    pytest.param(["analyze", "--in", "bytes", "--threshold", "0.05"], None,
                 id="analyze-in-undecodable"),
    pytest.param(["run", "--config", "missing"], "missing", id="run-config-missing"),
    pytest.param(["run", "--field", "custom", "--custom-file", "dir"], "dir",
                 id="custom-file-directory"),
    pytest.param(["analyze", "--in", "missing", "--threshold", "0.05"], "missing",
                 id="analyze-in-missing"),
])
def test_a_file_that_cannot_be_read_exits_with_one_line(tmp_path, monkeypatch, capsys, args,
                                                         named):
    # an OSError names the path it carries; a UnicodeDecodeError carries none
    (tmp_path / "dir").mkdir()
    (tmp_path / "bytes").write_bytes(b"\xff\xfe")
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert f"'{named}'" in err if named else "can't decode" in err
    assert not (tmp_path / "x.csv").exists()


def test_read_csv_holds_one_float64_table(tmp_path):
    # 20,000 rows of 10 columns, read in under twice the bytes of their
    # float64 table; lists of the lines' cells held about eleven times that
    rng = np.random.default_rng(5)
    columns = {f"c{j}": rng.uniform(-1.0, 1.0, 20_000) for j in range(10)}
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), columns)
    tracemalloc.start()
    try:
        read = cli._read_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert list(read) == list(columns)
    assert all(np.array_equal(read[name], table[:, j]) for j, name in enumerate(columns))
    assert peak < 2 * table.nbytes


def test_write_csv_holds_one_block_of_rows(tmp_path):
    # 20,000 rows of 10 columns, three megabytes of text, written in well
    # under one megabyte, with the text of the whole table at once
    rng = np.random.default_rng(3)
    columns = {f"c{j}": rng.uniform(-1.0, 1.0, 20_000) for j in range(10)}
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        cli._write_csv(str(path), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = [",".join(columns)] + [",".join(cli._fmt(x) for x in row)
                                   for row in zip(*columns.values())]
    text = "\n".join(lines) + "\n"
    assert path.read_text() == text and len(text) > 3_000_000
    assert peak < 1_000_000


def test_missing_custom_file(tmp_path):
    code = main(["run", "--field", "custom", "--custom-file",
                 str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_bad_convention_flag(tmp_path):
    assert main(["run", "--convention", "bogus",
                 "--out", str(tmp_path / "o.csv")]) == 1


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize("args, text", [
    (["analyze", "--in", "series.csv", "--threshold", "0.05"], "channel = bogus\n"),
    (["run"], "convention = bogus\n"),
    (["run"], "field = bogus\n"),
    (["run"], "gt_steps = 5\nmodes = x\n"),
    (["sweep-modes"], "sweep_modes = 1,x\n"),
])
def test_config_values_are_checked_as_flags(tmp_path, monkeypatch, capsys, args, text):
    # a config entry passes the subcommand's own type and choices checks
    (tmp_path / "series.csv").write_text("gt,W,concurrence,eof\n0,1,0,0\n1,0.5,0.2,0.1\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--config", str(cfg), "--out", "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_config_file_shared_keys(tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("modes = 2\nmean = 2\ngt_max = 3\ngt_steps = 30\n")
    out, flagged = tmp_path / "run.csv", tmp_path / "flagged.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["run", "--modes", "2", "--mean", "2", "--gt-max", "3", "--gt-steps", "30",
                 "--out", str(flagged)]) == 0
    assert out.read_bytes() == flagged.read_bytes()
    # modes is run's key: an inversion reads the same file
    inv = tmp_path / "inv.csv"
    assert main(["inversion", "--config", str(cfg), "--out", str(inv)]) == 0
    header, data = read_csv(inv)
    assert header == ["gt", "W"] and data.shape == (30, 2)


def test_diagnose_small(tmp_path):
    out = tmp_path / "diag.txt"
    code = main(["diagnose", "--modes", "2", "--means", "2",
                 "--gt-max", "2", "--gt-steps", "25", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "operator-power expansion" in text
    assert "closed form vs oracle" in text
    assert "index conventions" in text


def test_removed_options_are_rejected(tmp_path, capsys):
    # --formulas, run --oracle, inversion --atoms, --convention and --modes,
    # analyze --channel W_envelope, and diagnose's field flags are gone
    series = tmp_path / "series.csv"
    series.write_text("gt,W,concurrence,eof\n0,1,0,0\n1,0.5,0.2,0.1\n")
    for args in (["run", "--formulas", "auto"], ["run", "--oracle"],
                 ["inversion", "--atoms", "2"],
                 ["inversion", "--convention", "literal"], ["inversion", "--modes", "1"],
                 ["analyze", "--in", str(series), "--channel", "W_envelope",
                  "--threshold", "0.05"],
                 ["diagnose", "--field", "fock"], ["diagnose", "--mean", "9"],
                 ["diagnose", "--n0", "3"], ["diagnose", "--custom-file", "x"]):
        assert main([*args, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
    for text in ("formulas = auto\n", "oracle = true\n"):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {cfg}:1: unknown key {text.split()[0]!r}\n"
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "y.csv").exists()
