"""The cohort score path computes pair energies without their derivative.

``CohortScoring.score_coords`` used to call ``LigandPack.intra`` and
drop ``de_dr``, so every score call ran the whole radial-derivative
chain (``de_vdw``, the dielectric derivative, ``de_solv``) for nothing.
It now calls ``LigandPack.intra_energy``, whose energy planes must equal
``intra``'s byte for byte (with NaN coordinates drawn, everywhere but
the sign of a NaN, as in ``test_cohort_kernels``).
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.docking.cohort import LigandPack
from tests.test_cohort_kernels import (PAIR_FREE, RIGID, _all_carbon,
                                       _coords, _pack, _same_but_nan_sign,
                                       kernel_packs)
from tests.test_gradient_layout import assert_same_bytes
from tests.test_pose_rotation_list import BRANCHED, _genes


@settings(max_examples=40, deadline=None)
@given(drawn=kernel_packs(), B=st.sampled_from([1, 7, 60]),
       seed=st.integers(0, 2**32 - 1), nan=st.booleans(), data=st.data())
@example(drawn=([BRANCHED, PAIR_FREE, _all_carbon(BRANCHED), RIGID],
                [True, False, True, False]), B=60, seed=0, nan=False,
         data=None)
def test_intra_energy_is_the_energy_of_intra(small_maps, drawn, B, seed,
                                             nan, data):
    ligands, flags = drawn
    cohort = _pack(ligands, flags, small_maps)
    pack = cohort.pack
    if data is not None:
        pack = pack.subset(sorted(data.draw(st.sets(
            st.integers(0, pack.C - 1), min_size=1))))
    coords = _coords(cohort, pack, B, seed, nan)
    same = _same_but_nan_sign if nan else assert_same_bytes
    with np.errstate(invalid="ignore"):
        same(pack.intra_energy(coords), pack.intra(coords)[0])


def test_a_score_call_never_computes_the_pair_derivative(small_maps):
    """Regression: ``score_coords`` ran ``intra``, derivative and all."""
    cohort = _pack([BRANCHED, PAIR_FREE, BRANCHED], [True, False, False],
                   small_maps)
    genes = _genes(cohort.pack.ligands, 6, 3, G=cohort.pack.G)
    want = cohort.score(genes)
    with mock.patch.object(LigandPack, "intra",
                           side_effect=AssertionError("intra called")):
        got = cohort.score(genes)
    assert_same_bytes(got, want)
