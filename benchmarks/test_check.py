"""Self-test of the benchmark's correctness gate and input generation.

Run with ``python3 -m pytest -q benchmarks/test_check.py`` from the
repository root.  No CLI process is started.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402


def _rows(text):
    return text.split("\n")[:-1]


def _with_cell(text, row, column, delta):
    """The CSV with one cell shifted by delta, printed like the CLI does."""
    lines = _rows(text)
    fields = lines[row].split(",")
    fields[column] = run._fmt(float(fields[column]) + delta)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_reference_passes_its_own_gate(name):
    w = run.WORKLOADS[name]
    ref = w.reference()
    for seed in (0, 7):
        _, keys = w.invocation(seed, setup=False)
        assert check.check_csv(w.kind, ref, keys, ref if seed == 0 else None) == []
    assert check.rows_changed(ref, ref) == 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_setup_rows_are_reference_rows(name):
    w = run.WORKLOADS[name]
    ref = w.reference()
    _, keys = w.invocation(0, setup=True)
    nkey = check.KEY_COLUMNS[w.kind]
    by_key = {tuple(r.split(",")[:nkey]): r for r in _rows(ref)[1:]}
    text = "\n".join([_rows(ref)[0]] + [by_key[k] for k in keys]) + "\n"
    assert check.check_csv(w.kind, text, keys, ref) == []


def test_off_reference_beyond_tolerance_counts_as_failed(tmp_path, monkeypatch):
    w = run.WORKLOADS["literal-m3"]
    ref = w.reference()
    _, keys = w.invocation(0, setup=False)
    w_col = check.HEADERS["run"].index("W")
    tol = check.REFERENCE_TOL["W"]
    inside = _with_cell(ref, 600, w_col, 0.5 * tol)
    outside = _with_cell(ref, 600, w_col, 3 * tol)
    assert check.check_csv("run", inside, keys, ref) == []
    problems = check.check_csv("run", outside, keys, ref)
    assert len(problems) == 1 and "W off the reference" in problems[0]
    assert check.rows_changed(outside, ref) == 1

    harness = run.Harness(str(tmp_path))

    def fake_spawn(argv, **kwargs):
        (tmp_path / "stderr.txt").write_text("")
        with open(argv[argv.index("--out") + 1], "w") as fh:
            fh.write(outside)
        return 1.0, 100.0, 0

    monkeypatch.setattr(harness, "spawn", fake_spawn)
    outcome = harness.run_cli(w, 0, setup=False)
    assert not outcome.ok
    assert (harness.attempted, harness.failed) == (1, 1)


def test_invariants_reject_broken_rows():
    w = run.WORKLOADS["compare-m2"]
    ref = w.reference()
    _, keys = w.invocation(3, setup=False)
    header = check.HEADERS["compare"]
    for column, delta, words in (("eof", 1e-6, "h((1+sqrt(1-C^2))/2)"),
                                 ("concurrence_oracle", 2.0, "outside [0, 1]"),
                                 ("W_oracle", 2.5, "> 1"),
                                 ("delta_C", 1e-6, "|concurrence - concurrence_oracle|")):
        broken = _with_cell(ref, 400, header.index(column), delta)
        problems = check.check_csv("compare", broken, keys)
        assert problems and all(words in p for p in problems[:1]), (column, problems)
    lines = _rows(ref)
    lines[9] = ",".join([lines[9].split(",")[0], "nan", *lines[9].split(",")[2:]])
    problems = check.check_csv("compare", "\n".join(lines) + "\n", keys)
    assert problems == [f"row ({lines[9].split(',')[0]!r},): W is not finite"]
    assert check.check_csv("compare", ref[:-1], keys) == ["CSV does not end with a newline"]


def test_seeds_keep_the_canonical_window():
    """Non-canonical seeds change the mean but not the work: the truncation
    window, hence every multiset, config and sector count, is unchanged."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    fock_field = pytest.importorskip("tcmsim.fock_field")
    windows = {"literal-m3": (6.0, 1e-12), "compare-m2": (6.0, 1e-12),
               "sweep-m6": (4.0, 1e-6)}
    for name, (sigma, eps) in windows.items():
        w = run.WORKLOADS[name]
        canonical = fock_field.default_window(w.mean, sigma, eps)
        means = {w.mean_for(seed) for seed in range(1, 41)}
        assert len(means) == 40 and w.mean not in means
        for mean in means:
            assert fock_field.default_window(mean, sigma, eps) == canonical, (name, mean)
        assert w.invocation(5, False) == w.invocation(5, False)
