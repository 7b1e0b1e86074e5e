"""AutoDock-style molecular docking substrate.

Everything the LGA search needs, reproducing the structure of AutoDock-GPU's
scoring function (Algorithm 2) and gradient calculation (Algorithm 4):

* :mod:`repro.docking.params` — AutoDock4 force-field parameter tables;
* :mod:`repro.docking.quaternion` — batched quaternion / SO(3) helpers;
* :mod:`repro.docking.ligand` — ligand model with torsion tree, rotation
  list and intramolecular contributor pairs;
* :mod:`repro.docking.genotype` — genotype layout (3 translation + 3
  orientation + ``N_rot`` torsions) and random initialisation;
* :mod:`repro.docking.pose` — genotype -> atom coordinates kinematics;
* :mod:`repro.docking.energy` — AD4 pairwise terms with derivatives;
* :mod:`repro.docking.grids` — receptor affinity grid maps with trilinear
  interpolation and analytic gradients;
* :mod:`repro.docking.receptor` — receptor model and grid-map construction;
* :mod:`repro.docking.scoring` — the scoring function (inter + intra);
* :mod:`repro.docking.cohort` — ligands packed into padded
  struct-of-arrays buffers: batched scoring and the gradient calculation
  ending in the seven block-level reductions the paper offloads to Tensor
  Cores;
* :mod:`repro.docking.rmsd` — RMSD against the native pose.
"""

from repro.docking.genotype import Genotype, genotype_length, random_genotypes
from repro.docking.grids import GridMaps
from repro.docking.ligand import Ligand, TorsionBond
from repro.docking.params import ATOM_PARAMS, AtomParams, get_atom_params
from repro.docking.pose import calc_coords
from repro.docking.receptor import Receptor
from repro.docking.rmsd import rmsd
from repro.docking.scoring import ScoringFunction
from repro.docking.cohort import CohortGradientCalculator, CohortScoring

__all__ = [
    "Genotype",
    "genotype_length",
    "random_genotypes",
    "GridMaps",
    "Ligand",
    "TorsionBond",
    "ATOM_PARAMS",
    "AtomParams",
    "get_atom_params",
    "calc_coords",
    "Receptor",
    "rmsd",
    "ScoringFunction",
    "CohortScoring",
    "CohortGradientCalculator",
]
