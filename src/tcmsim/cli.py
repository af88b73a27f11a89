"""Command-line front end.

Subcommands: run, inversion, sweep-modes, compare-oracle, diagnose, analyze.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.

Each subcommand's parser declares every flag once, with its default, type
and choices.  A ``key = value`` config file given with --config names flags
by their dest (``gt_max``, ``input``) and goes through the same parser, with
explicit flags winning.  All output CSVs use a header row, '.' decimals, ','
separators, newline line endings, and 12 significant digits, so identical
configurations produce byte-identical files.

A flag given on the command line with a value other than its default
that the run does not read (a field flag the chosen --field does not use,
analyze --mean or --channel without --max-j) is a configuration error.
Config-file keys are exempt, since one file may serve several runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from itertools import chain, islice

import numpy as np

from . import analysis, pipeline
from .closed_form import CONSISTENT, LITERAL
from .errors import ConfigurationError, NumericalFailureError
from .fock_field import (DEFAULT_COVERAGE_EPSILON, DEFAULT_SIGMA_WIDTH, coherent_field,
                         fock_field, load_custom_field)
from .inversion import single_atom_jcm_series
from .oracle import expansion_diagnostic


def _finite_float(text: str) -> float:
    """float() that rejects nan and the infinities: the caster of every
    float flag and list entry."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite_float(tok) for tok in text.split(",") if tok.strip() != ""]


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigurationError(message)


def _read_config_file(path: str) -> list[tuple[int, str, str]]:
    """The (lineno, key, value) entries of a ``key = value`` file."""
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip(), value.strip()))
    return entries


def _keyed_actions(sub: argparse.ArgumentParser) -> dict:
    """A subcommand's flags by dest: the keys its config files may set."""
    return {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}


def _config_flags(path: str, commands: dict, command: str) -> list[str]:
    """The config file's entries for one subcommand, as flags that its
    parser has checked one by one.  A key of another subcommand is skipped,
    so one file can serve several; a key no subcommand has is an error."""
    known = {key for sub in commands.values() for key in _keyed_actions(sub)}
    sub = commands[command]
    own = _keyed_actions(sub)
    flags = []
    for lineno, key, value in _read_config_file(path):
        if key not in known:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key not in own:
            continue
        flag = f"{own[key].option_strings[0]}={value}"
        try:
            sub.parse_args([flag])
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
        flags.append(flag)
    return flags


# the field flags each --field reads
_FIELD_FLAGS = {"coherent": ("mean", "sigma_width", "coverage_epsilon"),
                "fock": ("n0",), "custom": ("custom_file",)}


def _unread(args: argparse.Namespace) -> list[str]:
    """The dests of the flags this run does not read."""
    if args.command == "analyze":
        return [] if args.max_j > 0 else ["mean", "channel"]
    if args.command in ("run", "compare-oracle", "inversion"):
        return [dest for field, dests in _FIELD_FLAGS.items() if field != args.field
                for dest in dests]
    return []


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv; a --config file's entries are placed ahead of the
    subcommand's own flags, so that an explicit flag overrides them.  A
    flag of argv set away from its default that the run does not read is
    refused."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    given = args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        flags = _config_flags(args.config, parser.commands, args.command)
        args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
    defaults = parser.parse_args([args.command])
    for dest in _unread(args):
        if getattr(given, dest) != getattr(defaults, dest):
            flag = _keyed_actions(parser.commands[args.command])[dest].option_strings[0]
            reason = ("without --max-j" if args.command == "analyze"
                      else f"with --field {args.field}")
            raise ConfigurationError(f"{args.command} does not read {flag} {reason}")
    return args


def _mode_fields(field, modes: int) -> list:
    if modes < 1:
        raise ConfigurationError(f"modes must be >= 1, got {modes}")
    return [field] * modes


def _build_field(args):
    if args.field == "coherent":
        return coherent_field(args.mean, sigma_width=args.sigma_width,
                              coverage_epsilon=args.coverage_epsilon)
    if args.field == "fock":
        return fock_field(args.n0)
    if not args.custom_file:
        raise ConfigurationError("field=custom requires custom_file")
    return load_custom_field(args.custom_file)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_file(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces in turn, atomically enough for the determinism
    contract: a path that cannot be opened is left as it is; any failure
    after the open, in the file or in making a piece, removes the file."""
    fh = open(path, "w")
    try:
        with fh:
            for piece in pieces:
                fh.write(piece)
    except BaseException:
        # a device such as /dev/null is written to, never removed
        if os.path.isfile(path):
            os.unlink(path)
        raise


def _write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    """One CSV column per entry, headed by its key, in the dict's order,
    written pipeline.BLOCK_GTS rows at a time."""
    lines = (",".join(_fmt(x) for x in row) + "\n" for row in zip(*columns.values()))
    blocks = iter(lambda: "".join(islice(lines, pipeline.BLOCK_GTS)), "")
    _write_file(path, chain([",".join(columns) + "\n"], blocks))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        print(text)
        return
    _write_file(path, [text if text.endswith("\n") else text + "\n"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _series_columns(series: dict) -> dict[str, np.ndarray]:
    return {name: series[name] for name in ("gt", *analysis.CHANNELS)}


def _cmd_run(args) -> int:
    """The closed-form series; compare-oracle adds the exact columns."""
    fields = _mode_fields(_build_field(args), args.modes)
    gts = pipeline.uniform_grid(args.gt_max, args.gt_steps)
    _write_csv(args.out, _series_columns(
        pipeline.closed_form_series(fields, gts, args.convention)))
    return 0


def _cmd_inversion(args) -> int:
    """The one-atom inversion; the two-atom W is run's W column."""
    gts = pipeline.uniform_grid(args.gt_max, args.gt_steps)
    field = _build_field(args)
    _write_csv(args.out, {"gt": gts, "W": single_atom_jcm_series(field, gts)})
    return 0


def _cmd_sweep_modes(args) -> int:
    _write_csv(args.out, analysis.mode_sweep(
        args.sweep_gt, args.mean, args.sweep_modes, args.convention,
        sigma_width=args.sigma_width, coverage_epsilon=args.coverage_epsilon))
    return 0


def _cmd_compare_oracle(args) -> int:
    fields = _mode_fields(_build_field(args), args.modes)
    gts = pipeline.uniform_grid(args.gt_max, args.gt_steps)
    exact = pipeline.oracle_series(fields, gts)
    series = pipeline.closed_form_series(fields, gts, args.convention)
    summary, deltas = analysis.deviation_report(series, exact)
    oracle_columns = {f"{name}_oracle": exact[name] for name in analysis.CHANNELS}
    _write_csv(args.out, _series_columns(series) | oracle_columns | deltas)
    print(summary.render())
    return 0


def _survival_convention_note(gt_max: float) -> str:
    """The two readings of the single-mode survival numerator differ by
    (cos(w gt) - 1)/(2n - 1); quantify that on a grid."""
    ns = np.arange(1, 21)
    gts = np.linspace(0.0, gt_max, 121)
    omegas = np.sqrt(4 * ns - 2.0)
    printed = (ns[None, :] * np.cos(np.outer(gts, omegas)) + ns[None, :] - 1.0)
    block = ((ns[None, :] - 1.0) * np.cos(np.outer(gts, omegas)) + ns[None, :])
    diff = np.abs(printed - block) / (2 * ns[None, :] - 1.0)
    worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return "\n".join([
        "single-mode survival-amplitude numerator conventions",
        "  published:   (n cos(w gt) + n - 1) / (2n - 1)",
        "  block-exact: ((n - 1) cos(w gt) + n) / (2n - 1)",
        "  both equal 1 at gt=0; they differ by (cos(w gt) - 1)/(2n - 1)",
        f"  max |difference| over n in [1, 20], gt in [0, {gt_max:g}]: "
        f"{float(diff.max()):.6f} at n={int(ns[worst[1]])}, gt={float(gts[worst[0]]):.4f}",
    ])


def _cmd_diagnose(args) -> int:
    if not args.means:
        raise ConfigurationError("diagnose needs at least one mean")
    gts = pipeline.uniform_grid(args.gt_max, args.gt_steps)

    sections = []
    report = expansion_diagnostic(args.p, min(args.modes, 3), args.n_cut)
    sections.append("=== operator-power expansion ===\n" + report.render())

    for mean in args.means:
        field = coherent_field(mean, sigma_width=args.sigma_width,
                               coverage_epsilon=args.coverage_epsilon)
        fields = _mode_fields(field, args.modes)
        exact = pipeline.oracle_series(fields, gts)
        closed = pipeline.closed_form_series(fields, gts, args.convention)
        summary, _ = analysis.deviation_report(closed, exact)
        sections.append(
            f"=== {args.convention} closed form vs oracle "
            f"(modes={args.modes}, mean={mean:g}) ===\n" + summary.render())

    sections.append("=== index conventions ===\n"
                    + _survival_convention_note(args.gt_max))
    _write_text(args.out, "\n\n".join(sections))
    return 0


def _read_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of a CSV with a header row, by name; a repeated name,
    a table without rows, a ragged row and a cell that is not a finite
    number are configuration errors.  Rows are parsed into one float64
    buffer as they are read, so of several faults the first is named."""
    from array import array  # here, as its shared library costs other runs 0.16 MB of RSS

    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise ConfigurationError(f"input CSV {path} has two columns named {repeated[0]!r}")
        cells = array("d")
        for row in (line.strip().split(",") for line in fh if line.strip()):
            if len(row) != len(header):
                raise ConfigurationError(f"input CSV {path} has a row without {len(header)} cells")
            try:
                cells.extend(map(float, row))
            except ValueError as exc:
                raise ConfigurationError(f"input CSV {path}: {exc}") from exc
    if not cells:
        raise ConfigurationError(f"input CSV {path} has no rows")
    table = np.frombuffer(cells).reshape(-1, len(header))
    if not np.isfinite(table).all():
        raise ConfigurationError(f"input CSV {path} has a non-finite cell")
    return dict(zip(header, table.T))


def _cmd_analyze(args) -> int:
    if not args.input:
        raise ConfigurationError("analyze requires --in CSV")
    for flag, value in (("--max-j", args.max_j), ("--threshold", args.threshold)):
        if value < 0:
            raise ConfigurationError(f"{flag} must not be negative, got {value:g}")
    if args.max_j <= 0 and args.threshold <= 0:
        raise ConfigurationError("nothing to analyze: give --max-j and/or --threshold")
    columns = _read_csv(args.input)
    # the columns are checked as they enter, ahead of the analyses' flags
    analysis.check_series(columns)

    sections = []
    if args.max_j > 0:
        rep = analysis.detect_revival_peaks(columns, args.channel, args.max_j, args.mean)
        sections.append(rep.render())
    if args.threshold > 0:
        intervals = analysis.collapse_windows(columns, args.threshold)
        lines = [f"collapse windows (concurrence < {args.threshold:g}): "
                 f"{len(intervals)} found"]
        lines += [f"  gt in [{a:.4f}, {b:.4f}]" for a, b in intervals]
        sections.append("\n".join(lines))
    _write_text(args.out, "\n\n".join(sections))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_window_flags(sub):
    sub.add_argument("--sigma-width", type=_finite_float, default=DEFAULT_SIGMA_WIDTH)
    sub.add_argument("--coverage-epsilon", type=_finite_float,
                     default=DEFAULT_COVERAGE_EPSILON)


def _add_field_flags(sub, mean: float):
    sub.add_argument("--field", choices=["coherent", "fock", "custom"],
                     default="coherent")
    sub.add_argument("--mean", type=_finite_float, default=mean)
    sub.add_argument("--n0", type=int, default=0)
    sub.add_argument("--custom-file")
    _add_window_flags(sub)


def _add_grid_flags(sub, gt_max: float, gt_steps: int):
    sub.add_argument("--gt-max", type=_finite_float, default=gt_max)
    sub.add_argument("--gt-steps", type=int, default=gt_steps)


def _add_convention_flag(sub, default: str):
    sub.add_argument("--convention", choices=[LITERAL, CONSISTENT], default=default)


def _add_series_flags(sub):
    """The flags run and compare-oracle share."""
    sub.add_argument("--modes", type=int, default=1)
    _add_field_flags(sub, mean=5.0)
    _add_grid_flags(sub, gt_max=15.0, gt_steps=600)
    _add_convention_flag(sub, CONSISTENT)


def build_parser() -> _Parser:
    parser = _Parser(prog="tcmsim",
                     description="Two-atom multimode cavity entanglement simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    # the subcommand parsers by name: their flags are the config-file keys
    parser.commands = subs.choices

    def new_sub(name, func, help_text, out):
        # no abbreviations: diagnose --mean would silently be --means
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="key = value file; flags override")
        sub.add_argument("--out", default=out)
        sub.set_defaults(func=func)
        return sub

    sub = new_sub("run", _cmd_run, "two-atom observable time series CSV",
                  "timeseries.csv")
    _add_series_flags(sub)

    sub = new_sub("inversion", _cmd_inversion, "one-atom inversion W(gt) CSV",
                  "inversion.csv")
    _add_field_flags(sub, mean=25.0)
    _add_grid_flags(sub, gt_max=50.0, gt_steps=2500)

    sub = new_sub("sweep-modes", _cmd_sweep_modes,
                  "entanglement vs mode count table", "sweep.csv")
    sub.add_argument("--mean", type=_finite_float, default=15.0)
    sub.add_argument("--sweep-gt", type=_float_list, default="1.5,2.25,3.0")
    sub.add_argument("--sweep-modes", type=_int_list, default="1,2,3,4,5,6")
    _add_convention_flag(sub, LITERAL)
    _add_window_flags(sub)

    sub = new_sub("compare-oracle", _cmd_compare_oracle,
                  "closed form vs exact evolution CSV and summary", "compare.csv")
    _add_series_flags(sub)

    sub = new_sub("diagnose", _cmd_diagnose,
                  "text report: expansions, deviations, norm deficits",
                  "diagnostics.txt")
    sub.add_argument("--modes", type=int, default=2)
    sub.add_argument("--means", type=_float_list, default="5,20")
    sub.add_argument("--p", type=int, default=1)
    sub.add_argument("--n-cut", type=int, default=3)
    _add_grid_flags(sub, gt_max=6.0, gt_steps=120)
    _add_convention_flag(sub, LITERAL)
    _add_window_flags(sub)

    sub = new_sub("analyze", _cmd_analyze,
                  "peak/collapse detection on an existing CSV", None)
    sub.add_argument("--in", dest="input")
    sub.add_argument("--channel", choices=["W", "concurrence"], default="W")
    sub.add_argument("--mean", type=_finite_float, default=0.0)
    sub.add_argument("--max-j", type=int, default=0)
    sub.add_argument("--threshold", type=_finite_float, default=0.0)
    return parser


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("configuration error: out of memory; reduce modes, mean, coverage "
              "or gt steps", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        # a file that cannot be opened, read, decoded or written; an OSError names its path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
