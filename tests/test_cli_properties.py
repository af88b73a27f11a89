"""Generated CLI invocations against the CLI's contract: every invocation
exits 0 with an output whose CSV cells hold the physics invariants, or
exits 1 or 2 with one stderr line and no output; no invocation ends in a
traceback or a numpy warning.

The strategies draw mostly valid arguments for every subcommand, with the
extremes the contract must survive: gt_max up to 1e300, custom amplitudes
of 0, 1e-200, 1e150 and 1e200, Fock n0 from -2 to 12, repeated and
unsorted gt and mode lists, an analyze of each run CSV, and now and then a
--config, --custom-file or analyze --in that is missing, a directory or
bytes that do not decode.  The means are
bounded per mode count so that a draw that reaches the exact oracle or
diagnose stays within about half a second; over-budget inputs enter as
fixed examples that are refused before they allocate.

Tier-1 runs the "cli-tier1" profile, derandomized; a longer exploration is
``TCMSIM_CLI_PROFILE=cli-explore python -m pytest tests/test_cli_properties.py``.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcmsim.cli import main

settings.register_profile("cli-tier1", max_examples=300, derandomize=True, database=None,
                          deadline=None)
settings.register_profile("cli-explore", max_examples=3000, deadline=None)
PROFILE = settings.get_profile(os.environ.get("TCMSIM_CLI_PROFILE", "cli-tier1"))

# the invariants of benchmarks/check.py, restated: slack for values printed
# with 12 significant digits, and E_F recomputed from the printed C
PRINT_TOL = 1e-10
EOF_IDENTITY_TOL = 1e-9
CSV_COMMANDS = ("run", "inversion", "sweep-modes", "compare-oracle")

# the largest per-mode mean drawn, by mode count: closed forms alone, and
# routes through the exact oracle (compare-oracle, diagnose)
SERIES_MEANS = {1: 200.0, 2: 20.0, 3: 2.0}
ORACLE_MEANS = {1: 50.0, 2: 5.0, 3: 0.3}


def binary_entropy(x):
    x = min(max(x, 0.0), 1.0)
    return -sum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0.0)


def eof_from_concurrence(c):
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def check_csv(text):
    """The invariants every CSV the CLI writes holds."""
    lines = text.split("\n")
    assert lines[-1] == "", "the CSV ends with a newline"
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
    assert rows and all(len(row) == len(header) for row in rows)
    columns = dict(zip(header, zip(*rows)))
    assert all(math.isfinite(x) for row in rows for x in row)
    for w in ("W", "W_oracle"):
        assert all(abs(x) <= 1 + PRINT_TOL for x in columns.get(w, ())), w
    for c, e in (("concurrence", "eof"), ("concurrence_oracle", "eof_oracle")):
        if c not in columns:
            continue
        for name in (c, e):
            assert all(-PRINT_TOL <= x <= 1 + PRINT_TOL for x in columns[name]), name
        for cx, ex in zip(columns[c], columns[e]):
            assert abs(ex - eof_from_concurrence(cx)) <= EOF_IDENTITY_TOL, (c, cx, ex)


def number(x):
    return repr(float(x))


def mostly(valid, rare):
    """valid, and one draw in eight rare."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else valid)


# what a drawn path holds in place of its text: nothing, a directory, or
# bytes that do not decode
MISSING, DIRECTORY, UNDECODABLE = None, "<directory>", b"\xff\xfe"
REFUSED = st.sampled_from([MISSING, DIRECTORY, UNDECODABLE])


def write_files(files):
    """Each drawn file in the current directory, as its text or bytes, or
    as a directory; a missing one is not made."""
    for name, content in files.items():
        if content is DIRECTORY:
            os.mkdir(name)
        elif content is not MISSING:
            with open(name, "wb" if isinstance(content, bytes) else "w") as fh:
                fh.write(content)


def means(bound):
    return mostly(st.floats(0.05, bound), st.sampled_from([0.0, -1.0, 1e300]))


@st.composite
def custom_file(draw):
    """Amplitude lines ``re [im]``, with the extremes among ordinary values."""
    values = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-200, 1e150, 1e200]))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        parts = [draw(values)] + ([draw(values)] if draw(st.booleans()) else [])
        lines.append(" ".join(number(x) for x in parts))
    return "\n".join(lines) + "\n"


@st.composite
def field_flags(draw, files, bound):
    """--field and the flags that field reads."""
    field = draw(st.sampled_from(["coherent", "fock", "custom"]))
    if field == "fock":
        return ["--field", "fock", "--n0", str(draw(mostly(st.integers(0, 12),
                                                            st.integers(-2, -1))))]
    if field == "custom":
        files["amps.txt"] = draw(mostly(custom_file(), REFUSED))
        return ["--field", "custom", "--custom-file", "amps.txt"]
    flags = ["--mean", number(draw(means(bound)))]
    if draw(st.booleans()):
        flags += ["--sigma-width", number(draw(st.floats(1.0, 8.0)))]
    if draw(st.booleans()):
        flags += ["--coverage-epsilon", draw(st.sampled_from(["1e-12", "1e-6", "1e-3"]))]
    return flags


@st.composite
def grid_flags(draw):
    gt_max = draw(mostly(st.floats(0.5, 20.0), st.sampled_from([1e-3, 1e5, 1e150, 1e300, 0.0])))
    gt_steps = draw(mostly(st.integers(2, 30), st.integers(0, 1)))
    return ["--gt-max", number(gt_max), "--gt-steps", str(gt_steps)]


@st.composite
def series_invocation(draw, files, command, bounds):
    """run or compare-oracle, flags on the command line or in a config file."""
    m = draw(st.integers(1, 3))
    flags = ["--modes", str(m), *draw(field_flags(files, bounds[m])), *draw(grid_flags()),
             "--convention", draw(st.sampled_from(["literal", "consistent"]))]
    if draw(st.booleans()):
        pairs = zip(flags[::2], flags[1::2])
        text = "".join(f"{flag[2:].replace('-', '_')} = {value}\n" for flag, value in pairs)
        files["run.cfg"] = draw(mostly(st.just(text), REFUSED))
        flags = ["--config", "run.cfg"]
    return [command, *flags]


@st.composite
def analyze_invocation(draw, files, csv):
    """analyze --in csv, or now and then --in a file that cannot be read."""
    if draw(mostly(st.just(False), st.just(True))):
        csv = "series.csv"
        files[csv] = draw(REFUSED)
    flags = ["analyze", "--in", csv]
    max_j = draw(st.integers(0, 2))
    if max_j:
        mean = draw(mostly(st.floats(0.1, 4.0), st.sampled_from([3.9e-187, 50.0, 1e300])))
        flags += ["--max-j", str(max_j), "--mean", number(mean),
                  "--channel", draw(st.sampled_from(["W", "concurrence"]))]
    threshold = draw(mostly(st.sampled_from([0.01, 0.05, 0.1]), st.sampled_from([0.0, 0.5])))
    if threshold:
        flags += ["--threshold", number(threshold)]
    return flags


def lists(elements, rare, max_size=4):
    """Nonempty lists of distinct elements in any order; now and then a list
    with repeats, or with one rare element."""
    return mostly(st.lists(elements, min_size=1, max_size=max_size, unique=True),
                  st.one_of(st.lists(elements, min_size=2, max_size=max_size).map(sorted),
                            st.lists(st.one_of(elements, rare), min_size=1, max_size=max_size)))


@st.composite
def invocations(draw):
    """(files to write, the argv of each invocation in turn)."""
    files = {}
    command = draw(st.sampled_from(["run", "inversion", "sweep-modes", "compare-oracle",
                                    "diagnose"]))
    if command == "run":
        run = draw(series_invocation(files, "run", SERIES_MEANS))
        return files, [run, draw(analyze_invocation(files, "out"))]
    if command == "compare-oracle":
        return files, [draw(series_invocation(files, command, ORACLE_MEANS))]
    if command == "inversion":
        return files, [["inversion", *draw(field_flags(files, 1000.0)), *draw(grid_flags())]]
    if command == "sweep-modes":
        modes = draw(lists(st.integers(1, 3), st.integers(-1, 0)))
        gts = draw(lists(st.one_of(st.sampled_from([0.0, 1.5, 2.25, 3.0]), st.floats(0.0, 10.0)),
                         st.sampled_from([1e300, -1.0])))
        bound = SERIES_MEANS[max([m for m in modes if m >= 1] or [1])]
        return files, [["sweep-modes", "--mean", number(draw(means(bound))),
                        "--sweep-modes=" + ",".join(map(str, modes)),
                        "--sweep-gt=" + ",".join(map(number, gts)),
                        "--convention", draw(st.sampled_from(["literal", "consistent"]))]]
    m = draw(st.integers(1, 3))
    diagnose_means = draw(lists(st.floats(0.05, ORACLE_MEANS[m]), st.sampled_from([0.0, -1.0]),
                                max_size=2))
    p, n_cut = draw(mostly(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           st.sampled_from([(0, 1), (1, 0), (4, 3)])))
    return files, [["diagnose", "--modes", str(m),
                    "--means=" + ",".join(map(number, diagnose_means)),
                    "--p", str(p), "--n-cut", str(n_cut),
                    *draw(grid_flags())]]


def call(argv):
    """main(argv)'s exit code, stderr and warnings, run in process."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


FIVE_VALUES = {"five.txt": "0.4472135954999579\n" * 5}
RUN_CONFIG_ANALYZE = [["run", "--config", "run.cfg"],
                      ["analyze", "--in", "series.csv", "--threshold", "0.05"]]
CUSTOM = ["--field", "custom", "--custom-file", "amps.txt"]


@PROFILE
@given(case=invocations())
# over-budget inputs, each refused from its sizes before it allocates
@example(case=({}, [["run", "--modes", "5", "--mean", "25", "--gt-steps", "2"]]))
@example(case=({}, [["run", "--modes", "5", "--mean", "0.65", "--gt-steps", "2"]]))
@example(case=(FIVE_VALUES, [["run", "--modes", "150", "--field", "custom", "--custom-file",
                              "five.txt", "--convention", "literal", "--gt-steps", "2"]]))
@example(case=({}, [["compare-oracle", "--modes", "2", "--mean", "1000", "--convention",
                     "literal", "--gt-steps", "2"]]))
@example(case=({}, [["compare-oracle", "--modes", "3", "--mean", "25", "--convention",
                     "literal", "--gt-steps", "2"]]))
@example(case=({}, [["sweep-modes", "--mean", "100", "--sweep-modes", "6"]]))
# each file the system refuses, at each flag that reads a file
@example(case=({"run.cfg": DIRECTORY, "series.csv": UNDECODABLE}, RUN_CONFIG_ANALYZE))
@example(case=({"run.cfg": UNDECODABLE, "series.csv": DIRECTORY}, RUN_CONFIG_ANALYZE))
@example(case=({"amps.txt": DIRECTORY}, [["run", *CUSTOM]]))
@example(case=({"amps.txt": UNDECODABLE}, [["inversion", *CUSTOM]]))
@example(case=({}, [["compare-oracle", *CUSTOM]]))
def test_every_invocation_exits_with_a_checked_file_or_one_line(case):
    files, argvs = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_files(files)
            for argv in argvs:
                check_invocation(argv)
        finally:
            os.chdir(cwd)


def check_invocation(argv):
    """One invocation, run in the current directory, against the contract."""
    out = "out" if argv[0] == "run" else "other"
    code, err, caught = call([*argv, "--out", out])
    assert not [w for w in caught if "renormalizing" not in w], (argv, caught)
    if code == 0:
        assert err == "", argv
        with open(out) as fh:
            text = fh.read()
        if argv[0] in CSV_COMMANDS:
            check_csv(text)
        else:
            assert text.strip(), argv
    else:
        assert code in (1, 2), argv
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err.startswith(("configuration error: ", "numerical failure: ")), err
        assert not os.path.exists(out), argv
