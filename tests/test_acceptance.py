"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 5 ranks the concurrence's zero-crossing rate on the pre-collapse
window gt in [0, 1].  A crossing count over a window that holds the collapse
measures how long the channel keeps oscillating, not how fast; exact
dynamics rank equal over [0, 10] although their frequencies stand 1:2:3.
docs/decisions.md has the analysis and the rates on both windows.
"""

import math

import numpy as np
import pytest

from tcmsim import (CONSISTENT, LITERAL, ExactEvolver,
                    coherent_field, collapse_windows, custom_field,
                    detect_revival_peaks, eof, fock_field, oscillation_rate,
                    single_atom_jcm_series)
from tcmsim.cli import main
from tcmsim.entanglement import concurrences
from tcmsim.pipeline import (closed_form_route, closed_form_series, observables,
                             oracle_series)
from tcmsim.reduced_density import normalize


def densities(raws):
    """The checked density matrices of a (G, 4, 4) stack of unnormalized
    ones."""
    return normalize(raws)[0]


def concurrence(rho):
    """The concurrence of one density matrix: concurrences on a stack of
    one."""
    values, _ = concurrences(np.asarray(rho, dtype=complex)[None])
    return float(values[0])


def report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def jcm_series(mean, gt_max, dgt=0.02):
    gts = np.linspace(0.0, gt_max, int(gt_max / dgt))
    w = single_atom_jcm_series(coherent_field(mean), gts)
    zeros = np.zeros_like(w)
    return {"gt": gts, "W": w, "concurrence": zeros, "eof": zeros}


def test_criterion_1_revival_times():
    series50 = jcm_series(50.0, 2 * math.pi * math.sqrt(50) * 1.25)
    rep50 = detect_revival_peaks(series50, "W", 1, 50.0)
    ok = rep50.found >= 1 and abs(rep50.relative_errors[0]) <= 0.05

    series25 = jcm_series(25.0, 4 * math.pi * math.sqrt(25) * 1.25)
    rep25 = detect_revival_peaks(series25, "W", 2, 25.0)
    ok25 = (rep25.found >= 2 and abs(rep25.relative_errors[0]) <= 0.05
            and abs(rep25.relative_errors[1]) <= 0.07)

    detail = (f"mean 50 j1 err {rep50.relative_errors[0]:+.2%}; mean 25 "
              f"j1 {rep25.relative_errors[0]:+.2%}, j2 {rep25.relative_errors[1]:+.2%}")
    assert report(1, "revival peaks at 2 j pi sqrt(mean)", ok and ok25, detail)


def test_criterion_2_single_mode_oracle_equivalence():
    gts = np.linspace(0.0, 30.0, 600)
    worst = {"dW": 0.0, "dC": 0.0, "dEF": 0.0}
    for mean in (0.5, 2.5, 5.0):
        fields = [coherent_field(mean)]
        closed = closed_form_series(fields, gts, CONSISTENT)
        exact = oracle_series(fields, gts)
        worst["dW"] = max(worst["dW"], float(np.abs(closed["W"] - exact["W"]).max()))
        worst["dC"] = max(worst["dC"],
                          float(np.abs(closed["concurrence"] - exact["concurrence"]).max()))
        worst["dEF"] = max(worst["dEF"], float(np.abs(closed["eof"] - exact["eof"]).max()))
    ok = worst["dW"] <= 1e-8 and worst["dC"] <= 1e-8 and worst["dEF"] <= 1e-7
    assert report(2, "consistent closed form tracks the oracle", ok,
                  f"max dW {worst['dW']:.1e}, dC {worst['dC']:.1e}, "
                  f"dEF {worst['dEF']:.1e}")


def test_criterion_3_entanglement_collapse_and_revival():
    gts = np.linspace(0.0, 20.0, 1200)
    series = closed_form_series([coherent_field(5.0)], gts, LITERAL)
    step = float(series["gt"][1] - series["gt"][0])
    qualifying = []
    for a, b in collapse_windows(series, 0.02):
        lo, hi = max(a, 2.0), min(b, 15.0)
        if hi - lo >= 2 * step:
            revived = series["concurrence"][series["gt"] > b]
            if revived.size and revived.max() > 0.1:
                qualifying.append((lo, hi))
    ok = bool(qualifying)
    detail = f"windows {[(round(a,2), round(b,2)) for a, b in qualifying[:3]]}"
    assert report(3, "concurrence collapses below 0.02 in [2,15] then revives", ok,
                  detail)


def test_criterion_4_initial_condition():
    cases = [
        [coherent_field(5.0)],
        [coherent_field(2.5)] * 2,
        [coherent_field(1.0), fock_field(2), custom_field([0.6, 0.8])],
        [fock_field(1)] * 2,
    ]
    worst = 0.0
    for fields in cases:
        raws = closed_form_route(fields, CONSISTENT).raw_densities([0.0])
        obs = observables(raws)
        w, c = float(obs["W"][0]), float(obs["concurrence"][0])
        worst = max(worst,
                    float(np.abs(densities(raws)[0] - np.diag([1.0, 0, 0, 0])).max()),
                    abs(w - 1.0), c, eof(c))
    ok = worst <= 1e-12
    assert report(4, "gt=0 yields rho=diag(1,0,0,0), W=1, C=EF=0", ok,
                  f"worst deviation {worst:.1e}")


def test_criterion_5_mode_frequency_monotonicity(literal_mean25_series):
    rates, full_rates = [], []
    for m in (1, 2, 3):
        series = literal_mean25_series[m]
        rates.append(oscillation_rate(series, "concurrence", (0.0, 1.0)))
        full_rates.append(oscillation_rate(series, "concurrence", (0.0, 10.0)))
    ok = rates[0] < rates[1] < rates[2]
    report(5, "pre-collapse C zero-crossing rate strictly increases across "
              "m=1,2,3", ok,
           f"rates on [0, 1] {[round(r, 2) for r in rates]}; on [0, 10], "
           f"unasserted, {[round(r, 2) for r in full_rates]}")
    assert ok, (
        "the concurrence's zero-crossing rate on gt in [0, 1] must strictly "
        "increase with the mode count; that window precedes the collapse, so "
        "the count measures oscillation frequency, whereas over [0, 10], which "
        "holds the collapse and no revival (2 pi sqrt(25) ~ 31), it measures "
        "how long the channel oscillates (see docs/decisions.md)")


def test_criterion_6_entanglement_unit_suite():
    def dm(vec):
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return np.outer(v, v.conj())

    bell = dm([1, 0, 0, 1])
    checks = [
        ("bell C", concurrence(bell), 1.0),
        ("bell EF", eof(concurrence(bell)), 1.0),
        ("product C", concurrence(dm([1, 0, 0, 0])), 0.0),
        ("werner C", concurrence(0.5 * bell + 0.5 * np.eye(4) / 4), 0.25),
        ("pure C", concurrence(dm([0.6, 0, 0, 0.8])), 0.96),
        ("eof(0.6)", eof(0.6), 0.468995593589281),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    ok = worst <= 1e-9
    assert report(6, "entanglement-measure unit suite", ok, f"worst {worst:.1e}")


def test_criterion_7_oracle_invariant_suite():
    fields = [coherent_field(5.0)]
    evolver = ExactEvolver(fields)
    gts = np.linspace(0.0, 30.0, 41)
    raws, norms = evolver.densities(gts)
    vectors = evolver.branch_vectors(gts).reshape(gts.size, -1)
    pops = np.stack([np.sum(np.abs(vectors[:, s.final]) ** 2, axis=-1)
                     for s in evolver.sectors], axis=-1)
    drift = pop_dev = rho_dev = 0.0
    for rho, norm, pop in zip(densities(raws), norms, pops):
        drift = max(drift, abs(norm - norms[0]))
        pop_dev = max(pop_dev, float(np.abs(pop - pops[0]).max()))
        rho_dev = max(rho_dev,
                      float(np.max(np.abs(rho - rho.conj().T))),
                      abs(float(np.trace(rho).real) - 1.0),
                      max(0.0, -float(np.linalg.eigvalsh(rho).min()) - 1e-10))

    pair = ExactEvolver([fock_field(3), fock_field(1)])
    group_dev = 0.0
    s1, s2 = pair.branch_vectors([1.3, 2.2]).reshape(2, -1)
    for sector in pair.sectors:
        # one-gt product eigvecs @ (exp(-i lambda gt) * (eigvecs^T @ c))
        s12 = sector.eigvecs @ (np.exp(-1j * sector.eigvals * 0.9)
                                * (sector.eigvecs.T @ s1[sector.final]))
        group_dev = max(group_dev, float(np.abs(s12 - s2[sector.final]).max()))

    ok = (drift <= 1e-10 and pop_dev <= 1e-12 and rho_dev <= 1e-12
          and group_dev <= 1e-10)
    assert report(7, "oracle norm/sector/density/group invariants", ok,
                  f"drift {drift:.1e}, pops {pop_dev:.1e}, rho {rho_dev:.1e}, "
                  f"group {group_dev:.1e}")


def test_criterion_8_vacuum_analytic_point():
    gt = math.pi / math.sqrt(6)
    targets = {"W": -7.0 / 9.0, "C": 4.0 * math.sqrt(2.0) / 9.0}

    raw_c = closed_form_route([fock_field(0)], CONSISTENT).raw_densities([gt])
    raw_o, _ = ExactEvolver([fock_field(0)]).densities([gt])
    obs = observables(np.concatenate([raw_c, raw_o]))
    worst = max(float(np.abs(obs["W"] - targets["W"]).max()),
                float(np.abs(obs["concurrence"] - targets["C"]).max()))
    ok = worst <= 1e-10
    assert report(8, "vacuum point W=-7/9, C=4*sqrt(2)/9 from both routes", ok,
                  f"worst {worst:.1e}")


def test_criterion_9_multimode_report_and_sweep(tmp_path):
    diag = tmp_path / "diag.txt"
    code = main(["diagnose", "--modes", "2", "--means", "5,20",
                 "--gt-max", "6", "--gt-steps", "120", "--out", str(diag)])
    text = diag.read_text() if diag.exists() else ""
    complete = (code == 0
                and "operator-power expansion" in text
                and text.count("closed form vs oracle") >= 2
                and "norm deficit" in text
                and "index conventions" in text
                and "nan" not in text.lower())

    sweep = tmp_path / "sweep.csv"
    code2 = main(["sweep-modes", "--mean", "15", "--sweep-gt", "1.5,2.25,3.0",
                  "--sweep-modes", "1,2,3,4,5,6", "--sigma-width", "4",
                  "--coverage-epsilon", "1e-6", "--out", str(sweep)])
    rows = sweep.read_text().splitlines()[1:] if sweep.exists() else []
    values = np.array([[float(x) for x in r.split(",")] for r in rows]) \
        if rows else np.zeros((0, 4))
    sweep_ok = (code2 == 0 and len(rows) == 18
                and np.all((values[:, 2] >= 0) & (values[:, 2] <= 1))
                and np.all((values[:, 3] >= 0) & (values[:, 3] <= 1)))

    ok = complete and sweep_ok
    assert report(9, "diagnose report complete; mode sweep well-formed", ok,
                  f"report sections ok={complete}, sweep rows={len(rows)}")


def test_criterion_10_determinism(tmp_path):
    import os
    import subprocess
    import sys

    args = ["run", "--mean", "2", "--gt-max", "3", "--gt-steps", "40"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    inv_args = ["inversion", "--mean", "4", "--gt-max", "5",
                "--gt-steps", "50"]
    for name in ("c.csv", "d.csv"):
        path = tmp_path / name
        assert main(inv_args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    # separate processes as well, not just repeated in-process calls
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name in ("e.csv", "f.csv"):
        path = tmp_path / name
        subprocess.run([sys.executable, "-m", "tcmsim"] + args
                       + ["--out", str(path)], check=True, env=env)
        outs.append(path.read_bytes())
    ok = (outs[0] == outs[1] and outs[2] == outs[3]
          and outs[4] == outs[5] and outs[4] == outs[0])
    assert report(10, "identical CLI invocations give byte-identical CSVs", ok)
