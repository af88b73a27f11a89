"""Command-line front end.

Subcommands: run, inversion, sweep-modes, compare-oracle, diagnose, analyze.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.

Flags may also be supplied through a ``key = value`` config file given with
--config; explicit flags override file values.  All output CSVs use a
header row, '.' decimals, ',' separators, newline line endings, and 12
significant digits, so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import analysis, pipeline
from .closed_form import CONSISTENT, LITERAL
from .errors import ConfigurationError, NumericalFailureError, TcmError
from .fock_field import coherent_field, fock_field, load_custom_field
from .inversion import single_atom_jcm_series
from .oracle import expansion_diagnostic

def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _finite_float(text: str) -> float:
    """float() that rejects nan and the infinities: the caster of every
    float flag, config key and list entry."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


# what a failed caster raises
_CAST_ERRORS = (ValueError, argparse.ArgumentTypeError)

_TYPES = {
    "modes": int, "field": str, "mean": _finite_float, "n0": int,
    "custom_file": str, "gt_max": _finite_float, "gt_steps": int,
    "convention": str, "oracle": _parse_bool, "sigma_width": _finite_float,
    "coverage_epsilon": _finite_float, "out": str, "sweep_gt": str,
    "sweep_modes": str, "threshold": _finite_float, "max_j": int,
    "p": int, "n_cut": int, "means": str, "channel": str, "input": str,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigurationError(message)


def _read_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _TYPES:
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            caster = _TYPES[key]
            try:
                values[key] = caster(value.strip())
            except _CAST_ERRORS as exc:
                raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return values


def _merge(defaults: dict, args: argparse.Namespace) -> dict:
    cfg = dict(defaults)
    ns = {k: v for k, v in vars(args).items() if k not in ("func", "config")}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        cfg.update({k: v for k, v in file_values.items() if k in defaults})
    cfg.update(ns)
    return cfg


def _float_list(text: str, what: str) -> list[float]:
    try:
        return [_finite_float(tok) for tok in text.split(",") if tok.strip() != ""]
    except _CAST_ERRORS as exc:
        raise ConfigurationError(f"bad {what} list {text!r}: {exc}") from exc


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad {what} list {text!r}: {exc}") from exc


def _build_fields(cfg: dict) -> list:
    m = cfg["modes"]
    if m < 1:
        raise ConfigurationError(f"modes must be >= 1, got {m}")
    return [_build_field(cfg)] * m


def _build_field(cfg: dict):
    kind = cfg["field"]
    if kind == "coherent":
        f = coherent_field(cfg["mean"], sigma_width=cfg["sigma_width"],
                           coverage_epsilon=cfg["coverage_epsilon"])
    elif kind == "fock":
        f = fock_field(cfg["n0"])
    elif kind == "custom":
        if not cfg.get("custom_file"):
            raise ConfigurationError("field=custom requires custom_file")
        f = load_custom_field(cfg["custom_file"])
    else:
        raise ConfigurationError(f"unknown field kind {kind!r}")
    return f


def _check_convention(cfg: dict) -> str:
    convention = cfg["convention"]
    if convention not in (LITERAL, CONSISTENT):
        raise ConfigurationError(
            f"convention must be literal or consistent, got {convention!r}")
    return convention


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _write_file(path: str, text: str) -> None:
    """Write atomically enough for the determinism contract: on any failure
    the partial file is removed and the error maps to exit code 1."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        if os.path.isfile(path):
            os.unlink(path)
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        if os.path.isfile(path):
            os.unlink(path)
        raise


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    n = len(columns[0])
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    _write_file(path, "\n".join(lines) + "\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        print(text)
        return
    _write_file(path, text if text.endswith("\n") else text + "\n")


def _maybe_cost_warning(cfg: dict, oracle: bool) -> None:
    if oracle and cfg["modes"] >= 3 and cfg.get("mean", 0.0) > 10:
        warnings.warn("oracle evolution with >= 3 modes and mean > 10 is expensive; "
                      "consider reducing coverage or the mode count")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_RUN_DEFAULTS = {
    "modes": 1, "field": "coherent", "mean": 5.0, "n0": 0, "custom_file": None,
    "gt_max": 15.0, "gt_steps": 600, "convention": CONSISTENT,
    "oracle": False, "sigma_width": 6.0, "coverage_epsilon": 1e-12,
    "out": "timeseries.csv",
}


def _cmd_run(args) -> int:
    cfg = _merge(_RUN_DEFAULTS, args)
    convention = _check_convention(cfg)
    fields = _build_fields(cfg)
    gts = pipeline.uniform_grid(cfg["gt_max"], cfg["gt_steps"])
    _maybe_cost_warning(cfg, cfg["oracle"])
    series = pipeline.closed_form_series(fields, gts, convention)
    header = ["gt", "W", "concurrence", "eof"]
    columns = [series.gt, series.w, series.concurrence, series.eof]
    if cfg["oracle"]:
        exact = pipeline.oracle_series(fields, gts)
        _, combined = analysis.deviation_report(series, exact)
        header += ["W_oracle", "concurrence_oracle", "eof_oracle", "delta_C"]
        columns += [combined.extras["W_oracle"], combined.extras["concurrence_oracle"],
                    combined.extras["eof_oracle"], combined.extras["delta_C"]]
    _write_csv(cfg["out"], header, columns)
    return 0


_INVERSION_DEFAULTS = {
    "field": "coherent", "mean": 25.0, "n0": 0,
    "custom_file": None, "gt_max": 50.0, "gt_steps": 2500,
    "sigma_width": 6.0, "coverage_epsilon": 1e-12, "out": "inversion.csv",
}


def _cmd_inversion(args) -> int:
    """The one-atom inversion; the two-atom W is run's W column."""
    cfg = _merge(_INVERSION_DEFAULTS, args)
    gts = pipeline.uniform_grid(cfg["gt_max"], cfg["gt_steps"])
    field = _build_field(cfg)
    _write_csv(cfg["out"], ["gt", "W"], [gts, single_atom_jcm_series(field, gts)])
    return 0


_SWEEP_DEFAULTS = {
    "mean": 15.0, "sweep_gt": "1.5,2.25,3.0", "sweep_modes": "1,2,3,4,5,6",
    "convention": LITERAL, "sigma_width": 6.0, "coverage_epsilon": 1e-12,
    "out": "sweep.csv",
}


def _cmd_sweep_modes(args) -> int:
    cfg = _merge(_SWEEP_DEFAULTS, args)
    convention = _check_convention(cfg)
    gt_values = _float_list(cfg["sweep_gt"], "sweep_gt")
    m_range = _int_list(cfg["sweep_modes"], "sweep_modes")
    rows = analysis.mode_sweep(gt_values, cfg["mean"], m_range, convention,
                               sigma_width=cfg["sigma_width"],
                               coverage_epsilon=cfg["coverage_epsilon"])
    _write_csv(cfg["out"], ["m", "gt", "concurrence", "eof"],
               [np.array([r.mode_count for r in rows], dtype=float),
                np.array([r.gt for r in rows]),
                np.array([r.concurrence for r in rows]),
                np.array([r.eof for r in rows])])
    return 0


_COMPARE_DEFAULTS = dict(_RUN_DEFAULTS, out="compare.csv")


def _cmd_compare_oracle(args) -> int:
    cfg = _merge(_COMPARE_DEFAULTS, args)
    convention = _check_convention(cfg)
    fields = _build_fields(cfg)
    gts = pipeline.uniform_grid(cfg["gt_max"], cfg["gt_steps"])
    _maybe_cost_warning(cfg, True)
    series = pipeline.closed_form_series(fields, gts, convention)
    exact = pipeline.oracle_series(fields, gts)
    summary, combined = analysis.deviation_report(series, exact)
    header = ["gt", "W", "concurrence", "eof", "W_oracle", "concurrence_oracle",
              "eof_oracle", "delta_W", "delta_C", "delta_EF"]
    _write_csv(cfg["out"], header,
               [combined.gt, combined.w, combined.concurrence, combined.eof,
                combined.extras["W_oracle"], combined.extras["concurrence_oracle"],
                combined.extras["eof_oracle"], combined.extras["delta_W"],
                combined.extras["delta_C"], combined.extras["delta_EF"]])
    print(summary.render())
    return 0


_DIAGNOSE_DEFAULTS = {
    "modes": 2, "means": "5,20", "p": 1, "n_cut": 3, "gt_max": 6.0,
    "gt_steps": 120, "convention": LITERAL, "sigma_width": 6.0,
    "coverage_epsilon": 1e-12, "out": "diagnostics.txt",
}


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
    cfg = _merge(_DIAGNOSE_DEFAULTS, args)
    convention = _check_convention(cfg)
    means = _float_list(cfg["means"], "means")
    if not means:
        raise ConfigurationError("diagnose needs at least one mean")
    gts = pipeline.uniform_grid(cfg["gt_max"], cfg["gt_steps"])

    sections = []
    report = expansion_diagnostic(cfg["p"], min(cfg["modes"], 3), cfg["n_cut"])
    sections.append("=== operator-power expansion ===\n" + report.render())

    for mean in means:
        run_cfg = dict(cfg, field="coherent", mean=mean, n0=0, custom_file=None)
        fields = _build_fields(run_cfg)
        _maybe_cost_warning(run_cfg, True)
        closed = pipeline.closed_form_series(fields, gts, convention)
        exact = pipeline.oracle_series(fields, gts)
        summary, _ = analysis.deviation_report(closed, exact)
        sections.append(
            f"=== {convention} closed form vs oracle "
            f"(modes={cfg['modes']}, mean={mean:g}) ===\n" + summary.render())

    sections.append("=== index conventions ===\n"
                    + _survival_convention_note(cfg["gt_max"]))
    _write_text(cfg["out"], "\n\n".join(sections))
    return 0


_ANALYZE_DEFAULTS = {
    "input": None, "channel": "W", "mean": 0.0, "max_j": 0, "threshold": 0.0,
    "out": None,
}


def _cmd_analyze(args) -> int:
    cfg = _merge(_ANALYZE_DEFAULTS, args)
    if not cfg["input"]:
        raise ConfigurationError("analyze requires --in CSV")
    if not os.path.exists(cfg["input"]):
        raise ConfigurationError(f"input file not found: {cfg['input']}")
    data = np.genfromtxt(cfg["input"], delimiter=",", names=True)
    names = data.dtype.names or ()
    if "gt" not in names:
        raise ConfigurationError("input CSV has no 'gt' column")

    def col(name):
        return np.atleast_1d(data[name]) if name in names else None

    gt = np.atleast_1d(data["gt"])
    series = analysis.TimeSeries(
        gt=gt,
        w=col("W") if col("W") is not None else np.zeros(gt.size),
        concurrence=(col("concurrence") if col("concurrence") is not None
                     else np.zeros(gt.size)),
        eof=col("eof") if col("eof") is not None else np.zeros(gt.size))

    sections = []
    if cfg["max_j"] > 0:
        if cfg["mean"] <= 0:
            raise ConfigurationError("peak detection requires --mean > 0")
        rep = analysis.detect_revival_peaks(series, cfg["channel"], cfg["max_j"],
                                             cfg["mean"])
        sections.append(rep.render())
    if cfg["threshold"] > 0:
        intervals = analysis.collapse_windows(series, cfg["threshold"])
        lines = [f"collapse windows (concurrence < {cfg['threshold']:g}): "
                 f"{len(intervals)} found"]
        lines += [f"  gt in [{a:.4f}, {b:.4f}]" for a, b in intervals]
        sections.append("\n".join(lines))
    if not sections:
        raise ConfigurationError("nothing to analyze: give --max-j and/or --threshold")
    _write_text(cfg["out"], "\n\n".join(sections))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_field_flags(sub):
    sub.add_argument("--field", choices=["coherent", "fock", "custom"],
                     default=argparse.SUPPRESS)
    sub.add_argument("--mean", type=_finite_float, default=argparse.SUPPRESS)
    sub.add_argument("--n0", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--custom-file", dest="custom_file", default=argparse.SUPPRESS)
    sub.add_argument("--sigma-width", dest="sigma_width", type=_finite_float,
                     default=argparse.SUPPRESS)
    sub.add_argument("--coverage-epsilon", dest="coverage_epsilon",
                     type=_finite_float, default=argparse.SUPPRESS)


def _add_grid_flags(sub):
    sub.add_argument("--gt-max", dest="gt_max", type=_finite_float,
                     default=argparse.SUPPRESS)
    sub.add_argument("--gt-steps", dest="gt_steps", type=int,
                     default=argparse.SUPPRESS)


def build_parser() -> _Parser:
    parser = _Parser(prog="tcmsim",
                     description="Two-atom multimode cavity entanglement simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    def new_sub(name, func, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None,
                         help="key = value file; flags override")
        sub.add_argument("--out", default=argparse.SUPPRESS)
        sub.set_defaults(func=func)
        return sub

    sub = new_sub("run", _cmd_run, "two-atom observable time series CSV")
    sub.add_argument("--modes", type=int, default=argparse.SUPPRESS)
    _add_common_field_flags(sub)
    _add_grid_flags(sub)
    sub.add_argument("--convention", choices=[LITERAL, CONSISTENT],
                     default=argparse.SUPPRESS)
    sub.add_argument("--oracle", action="store_true", default=argparse.SUPPRESS)

    sub = new_sub("inversion", _cmd_inversion, "one-atom inversion W(gt) CSV")
    _add_common_field_flags(sub)
    _add_grid_flags(sub)

    sub = new_sub("sweep-modes", _cmd_sweep_modes,
                  "entanglement vs mode count table")
    sub.add_argument("--mean", type=_finite_float, default=argparse.SUPPRESS)
    sub.add_argument("--sweep-gt", dest="sweep_gt", default=argparse.SUPPRESS)
    sub.add_argument("--sweep-modes", dest="sweep_modes", default=argparse.SUPPRESS)
    sub.add_argument("--convention", choices=[LITERAL, CONSISTENT],
                     default=argparse.SUPPRESS)
    sub.add_argument("--sigma-width", dest="sigma_width", type=_finite_float,
                     default=argparse.SUPPRESS)
    sub.add_argument("--coverage-epsilon", dest="coverage_epsilon",
                     type=_finite_float, default=argparse.SUPPRESS)

    sub = new_sub("compare-oracle", _cmd_compare_oracle,
                  "closed form vs exact evolution CSV and summary")
    sub.add_argument("--modes", type=int, default=argparse.SUPPRESS)
    _add_common_field_flags(sub)
    _add_grid_flags(sub)
    sub.add_argument("--convention", choices=[LITERAL, CONSISTENT],
                     default=argparse.SUPPRESS)

    sub = new_sub("diagnose", _cmd_diagnose,
                  "text report: expansions, deviations, norm deficits")
    sub.add_argument("--modes", type=int, default=argparse.SUPPRESS)
    _add_common_field_flags(sub)
    _add_grid_flags(sub)
    sub.add_argument("--means", default=argparse.SUPPRESS)
    sub.add_argument("--p", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--n-cut", dest="n_cut", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--convention", choices=[LITERAL, CONSISTENT],
                     default=argparse.SUPPRESS)

    sub = new_sub("analyze", _cmd_analyze,
                  "peak/collapse detection on an existing CSV")
    sub.add_argument("--in", dest="input", default=argparse.SUPPRESS)
    sub.add_argument("--channel", choices=["W", "concurrence"],
                     default=argparse.SUPPRESS)
    sub.add_argument("--mean", type=_finite_float, default=argparse.SUPPRESS)
    sub.add_argument("--max-j", dest="max_j", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--threshold", type=_finite_float, default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except TcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
