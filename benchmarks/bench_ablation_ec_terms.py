"""Ablation: error-correction ingredients (terms, scaling, ext. accumulate).

Decomposes TCEC's accuracy recovery into its three mechanisms
(Section 4 / Ootomo & Yokota):

* number of correction terms (0 / 1 / 2 Tensor Core issues extra),
* residual up-scaling (underflow avoidance) on and off,
* external FP32/RN accumulation vs in-TC RZ accumulation.

Expected shape: each ingredient contributes; the full configuration
(2 terms + scaling + external accumulation) reaches near-FP32 accuracy and
every removal degrades it.
"""

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.reduction.tc_backend import tc_reduce_xyze, tcec_reduce_xyze
from repro.tensorcore.tcec import TcecConfig


def _measure(config_rows):
    rng = np.random.default_rng(11)
    vecs = (rng.normal(size=(2048, 4)) * 50).astype(np.float32)
    exact = vecs.astype(np.float64).sum(axis=0)
    norm = np.abs(vecs).astype(np.float64).sum(axis=0)
    rows = []
    for label, cfg in config_rows:
        got = tcec_reduce_xyze(vecs, cfg)
        err = float(np.max(np.abs(got - exact) / norm))
        rows.append({"config": label, "max_norm_err": err})
    # no-EC reference: in-TC RZ accumulation, TF32 operands
    plain = tc_reduce_xyze(vecs, in_format="tf32", accumulate="rz",
                           accumulator_format="fp32")
    rows.append({"config": "no EC (in-TC RZ accumulate)",
                 "max_norm_err": float(
                     np.max(np.abs(plain - exact) / norm))})
    return rows


CONFIGS = [
    ("full TCEC (2 terms, scaled)", TcecConfig(correction_terms=2)),
    ("1 correction term", TcecConfig(correction_terms=1)),
    ("0 correction terms", TcecConfig(correction_terms=0)),
    ("2 terms, no residual scaling",
     TcecConfig(correction_terms=2, scale_residual=False)),
]


@pytest.mark.benchmark(group="ablation-ec")
def test_ablation_ec_ingredients(benchmark):
    rows = benchmark(_measure, CONFIGS)
    print()
    print(format_table(rows, floatfmt="{:.3g}",
                       title="Ablation: error-correction ingredients "
                             "(2048 TF32 vectors, values ~N(0, 50))"))
    err = {r["config"]: r["max_norm_err"] for r in rows}
    full = err["full TCEC (2 terms, scaled)"]
    # the full scheme reaches near-FP32 accuracy
    assert full < 2.0 ** -20
    # fewer terms -> monotonically worse
    assert err["1 correction term"] >= full
    assert err["0 correction terms"] > err["1 correction term"]
    # external accumulation alone (0 terms) already beats the in-TC version
    assert err["0 correction terms"] <= \
        err["no EC (in-TC RZ accumulate)"] * 1.5
