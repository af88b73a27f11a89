"""Golden digests of raw densities: every route's bytes, pinned.

Each catalogue case evaluates one route on a short grid that includes
gt = 0 and records the sha256 of the bytes of its raw (G, 4, 4) densities,
of its norms, and of the W, concurrence and E_F columns computed from them
(the oracle's branch vectors are recorded whole).  The cases cover both
single-mode kernels, ProductLiteral, ConsistentBlocks, the symmetric
evaluator at m = 2-6 with tiles small enough to cross its stored prefix,
and the oracle's densities and branch vectors; the fields are coherent
(one window reaching n = 0), Fock, and a complex custom field with -0.0
parts.

A change that moves a last bit of any of them fails here.  If the change
is meant, regenerate the file with

    PYTHONPATH=src python tests/golden/regenerate.py

and name every changed digest, why it changed and its largest relative
change in CHANGES.md.  The file records the numpy and BLAS builds it was
made with; on another build the digests are not expected to hold and the
test fails naming the mismatch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tcmsim import (LITERAL, ExactEvolver, coherent_field,
                    custom_field, fock_field, reduced_density, symmetric)
from tcmsim.closed_form import (ConsistentBlocks, ProductLiteral,
                                SingleModeConsistent, SingleModeLiteral)
from tcmsim.pipeline import closed_form_route, observables

GOLDEN = Path(__file__).parent / "golden" / "raw_digests.json"
GTS = np.array([0.0, 0.37, 1.3, 2.9, 6.1])


def build() -> dict:
    """The numpy and BLAS versions the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _fields() -> dict:
    amps = [complex(0.3, -0.0), complex(-0.0, -0.5), complex(0.4, 0.2), complex(-0.6, -0.0)]
    return {
        # the window reaches n = 0: complex x2 frequencies, the all-zero multiset
        "coherent-n0": coherent_field(1.5, sigma_width=1.0, coverage_epsilon=0.05),
        "coherent-9": coherent_field(9.0, sigma_width=1.0, coverage_epsilon=0.05),
        "fock-3": fock_field(3),
        "custom": custom_field(np.array(amps) / np.linalg.norm(amps)),
    }


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _densities(raws, norms=None) -> dict:
    obs = observables(raws)
    return {"raw": _sha(raws), "norms": _sha(obs["norm_deficit"] if norms is None else norms),
            "w": _sha(obs["W"]), "concurrence": _sha(obs["concurrence"]),
            "eof": _sha(obs["eof"])}


def catalogue() -> dict:
    """Case name -> {quantity: sha256}, in a fixed order."""
    f = _fields()
    out = {}
    for name, field in f.items():
        out[f"single-literal/{name}"] = _densities(SingleModeLiteral(field).raw_densities(GTS))
        out[f"single-consistent/{name}"] = _densities(
            SingleModeConsistent(field).raw_densities(GTS))
    for names in (("coherent-n0", "custom"), ("coherent-9", "fock-3"),
                  ("custom", "custom"), ("coherent-n0", "coherent-9", "fock-3")):
        fields = [f[n] for n in names]
        key = "+".join(names)
        out[f"product-literal/{key}"] = _densities(ProductLiteral(fields).raw_densities(GTS))
        out[f"consistent-blocks/{key}"] = _densities(ConsistentBlocks(fields).raw_densities(GTS))
    # each size sets the symmetric tile and, as one gt's stacks
    # over it, the chunk budget: a chunk holds at most size multisets x gts
    tile, budget = symmetric.TILE_MULTISETS, reduced_density.CHUNK_BYTES
    try:
        for chunk in (7, 40, tile):
            symmetric.TILE_MULTISETS = chunk
            reduced_density.CHUNK_BYTES = reduced_density.stack_bytes(chunk)
            # at 7, the nine-value window's 3,003 six-mode multisets would
            # take most of the test's time; 40 already splits its blocks
            names = ("coherent-n0", "fock-3", "custom") + (("coherent-9",) if chunk > 7 else ())
            for name in names:
                for m in range(2, 7):
                    route = closed_form_route([f[name]] * m, LITERAL)
                    assert type(route) is symmetric.SymmetricLiteralEvaluator
                    out[f"symmetric/{name}/m{m}/chunk{chunk}"] = _densities(
                        route.raw_densities(GTS))
    finally:
        symmetric.TILE_MULTISETS, reduced_density.CHUNK_BYTES = tile, budget
    for names in (("coherent-n0",), ("fock-3",), ("custom",),
                  ("coherent-n0", "coherent-n0"), ("fock-3", "custom")):
        evolver = ExactEvolver([f[n] for n in names])
        key = "+".join(names)
        out[f"oracle-densities/{key}"] = _densities(*evolver.densities(GTS))
        out[f"oracle-branch-vectors/{key}"] = {"vectors": _sha(evolver.branch_vectors(GTS))}
    return out


def regenerate(path: Path = GOLDEN) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"build": build(), "gts": GTS.tolist(),
                                "cases": catalogue()}, indent=1) + "\n")


def test_raw_density_digests_are_unchanged():
    golden = json.loads(GOLDEN.read_text())
    if golden["build"] != build():
        pytest.fail(f"digests were made with {golden['build']}, this build is {build()}")
    assert golden["gts"] == GTS.tolist()
    got = catalogue()
    assert list(got) == list(golden["cases"])
    changed = [f"{case}:{quantity}" for case, digests in golden["cases"].items()
               for quantity, digest in digests.items() if got[case][quantity] != digest]
    assert not changed, f"{len(changed)} digests changed: {changed[:20]}"
