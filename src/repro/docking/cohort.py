"""Packed struct-of-arrays buffers for lock-step docking of ligand cohorts.

One ligand's docking batches over ``n_runs * pop`` poses; a virtual
screen holds thousands of *ligands*, so that reduction front stays narrow
for the paper's tensor-core backends.  This module packs N heterogeneous
ligands (varying atom / torsion / pair counts) into zero-padded
struct-of-arrays buffers with a leading cohort axis, so grid
interpolation, intramolecular terms and the ADADELTA gradient kernel run
over the whole cohort in one NumPy pass and the ``reduce4`` backends see a
``(2, cohort * batch, N_max, 4)`` operand.  Every dock runs through it: a
single ligand is a pack of one.  Pose calculation is one pass of the
pack's compiled rotation list (:class:`~repro.docking.pose.RotationList`,
built with the pack and with every subset): ``max N_rot`` torsion steps
per call, however many ligands the pack holds.

Bit-identity contract
---------------------
Every per-ligand slice of every cohort result is bit-identical to the
same ligand packed alone, and its scores to the scalar reference
:meth:`ScoringFunction.score <repro.docking.scoring.ScoringFunction.score>`
(the single-ligand path the bullets below compare against):

* padding is *suffix-only* zeros, and every reduction backend is
  suffix-pad invariant (see :mod:`repro.reduction.api`), so one cohort-wide
  tree reduction equals per-ligand reductions;
* everything elementwise (pose torsion steps and rigid-body transform,
  interpolation blends, AD4 pair terms, out-of-box penalties, clamps)
  vectorises across the cohort axis without changing per-element
  arithmetic;
* only memory layouts differ from the single-ligand shapes, never an
  operation or its order: sums over an xyz axis are explicit adds that
  equal ``np.sum`` bit for bit (:func:`~repro.docking.quaternion.xyz_sum`);
  the trilinear corners are gathered corner-major, ``(8, 4, C, B, N)``,
  onto ``(3, C, B, N)`` coordinate planes; and :func:`grotbond` runs on
  ``(3, C*N, B)`` planes whose FP32 tree halves a leading atom axis,
  adding the same pairs as the tree over a trailing one;
* the two operations whose summation order is layout-dependent — the
  pair->atom scatter ``einsum`` and the energy incidence matmul — stay
  per-ligand, on contiguous copies with exactly the single-path shapes.
  One batched ``matmul`` over zero-padded ``(C, N, P)`` incidence
  matrices reproduced only 51 of 160 ligand slices of the scatter (104
  of 160 of the energy matmul), measured on ten 8-ligand cohorts of the
  benchmark's mixed library at batches 18 and 60;
* padded atoms / pairs / torsions carry finite neutral values (pair
  coefficients ``c=d=1, m=6, qq=dsolv=0``) and are excluded by contiguous
  per-ligand contribution packing, never by multiplicative masks, so no
  NaN/Inf can leak across lanes.
"""

from __future__ import annotations

import time

import numpy as np

from repro.docking.energy import (
    ECLAMP,
    GRADCLAMP,
    RMIN,
    SMOOTH_HALF_WIDTH,
    _MS_A,
    _MS_B,
    _MS_LAM,
    _MS_RK,
)
from repro.docking.grids import _corner_flat, _grid_terms
from repro.docking.pose import RotationList
from repro.docking.quaternion import cross3, so3_left_jacobian, xyz_sum
from repro.docking.scoring import ScoringFunction
from repro.obs import get_metrics, get_tracer
from repro.robustness.faults import NumericalFaultError
from repro.reduction.api import ReductionBackend, get_reduction_backend
from repro.reduction.simt_backend import _tree_reduce_inplace, tree_width

__all__ = ["LigandPack", "CohortScoring", "CohortGradientCalculator",
           "GENE_GRADIENT_CLAMP"]

_N_RIGID = 6

#: fixed 2-operand contraction path for the pair->atom scatter; the
#: contraction itself is unchanged, only the per-call path search goes
_SCATTER_PATH = ["einsum_path", (0, 1)]

#: per-gene gradient bound applied after the atomic->genetic conversion
#: (the CUDA kernels bound per-gene deltas the same way; without it, clash
#: cliffs poison ADADELTA's RMS memory for dozens of iterations)
GENE_GRADIENT_CLAMP = 100.0


class LigandPack:
    """Padded struct-of-arrays view of a list of scoring functions.

    All padded arrays use suffix padding: ligand ``a`` owns the leading
    ``n_atoms[a]`` / ``n_pairs[a]`` / ``n_rot[a]`` entries of its row and
    the tail is zeros (or neutral finite values for pair coefficients).
    ``subset`` returns a (cached) pack over a subset of ligands with the
    padded dimensions re-trimmed — used when part of a cohort finishes
    early so the survivors stop paying the stragglers' padding.
    """

    def __init__(self, scorings: list[ScoringFunction]) -> None:
        scorings = list(scorings)
        if not scorings:
            raise ValueError("cohort must contain at least one ligand")
        self.scorings = scorings
        self.ligands = [sf.ligand for sf in scorings]
        self.C = len(scorings)
        self.n_atoms = np.array([sf.ligand.n_atoms for sf in scorings],
                                dtype=np.int64)
        self.n_pairs = np.array([sf.pair_tables.n_pairs for sf in scorings],
                                dtype=np.int64)
        self.n_rot = np.array([sf.ligand.n_rot for sf in scorings],
                              dtype=np.int64)
        self.glens = _N_RIGID + self.n_rot
        #: position of each slot in the cohort it was *submitted* with;
        #: subsets carry these through so fault attribution and quarantine
        #: records always name the original lane
        self.global_indices = np.arange(self.C, dtype=np.int64)
        #: optional FaultInjector corrupting the gathered trilinear corner
        #: values (the grid-gather stride site); shared by all subsets
        self.grid_injector = None
        self._init_derived()

        # ---- grid maps: concatenate the deduplicated flat buffers of all
        # receptors so corner lookups stay one `take`; per-ligand offsets
        # address each ligand's own block
        base: dict[int, int] = {}
        chunks = []
        total = 0
        for sf in scorings:
            m = sf.maps
            if id(m) not in base:
                if m._flat_maps is None:
                    m._build_flat()
                base[id(m)] = total
                total += m._flat_maps.shape[0]
                chunks.append(m._flat_maps)
        self.flat_maps = chunks[0] if len(chunks) == 1 \
            else np.concatenate(chunks)

        C, N, P = self.C, self.N, self.P
        offs = np.zeros((4, C, 1, N), dtype=np.int64)
        for a, sf in enumerate(scorings):
            m = sf.maps
            b0 = base[id(m)]
            n_a = int(self.n_atoms[a])
            offs[0, a, 0, :n_a] = b0 + sf.type_idx * m._n_voxels
            offs[0, a, 0, n_a:] = b0            # pad atoms: any in-bounds
            offs[1:, a, 0, :] = b0 + m._chan_base[:, None]
        self.offs = offs
        # per-ligand box geometry as (3, C, 1, 1) planes against the
        # (3, C, B, N) component planes of inter_energy
        self.origin = np.stack(
            [sf.maps.origin for sf in scorings], axis=1)[..., None, None]
        self.spacing = np.array(
            [sf.maps.spacing for sf in scorings])[:, None, None]
        shapes = np.array([sf.maps.shape for sf in scorings],
                          dtype=np.int64).T[..., None, None]
        self.dims_lim = shapes.astype(np.float64) - 1.0 - 1e-9
        self.shape_m1 = shapes - 1
        self.ny = shapes[1]
        self.nz = shapes[2]

        # ---- per-atom AD4 parameters
        self.charges = np.zeros((C, 1, N))
        self.solpar = np.zeros((C, 1, N))
        self.vol = np.zeros((C, 1, N))
        for a, sf in enumerate(scorings):
            n_a = int(self.n_atoms[a])
            self.charges[a, 0, :n_a] = sf.charges
            self.solpar[a, 0, :n_a] = sf.solpar
            self.vol[a, 0, :n_a] = sf.vol

        # ---- intramolecular pair tables (neutral finite pad values)
        self.pi = np.zeros((C, 1, P, 1), dtype=np.int64)
        self.pj = np.zeros((C, 1, P, 1), dtype=np.int64)
        self.pc = np.ones((C, 1, P))
        self.pd = np.ones((C, 1, P))
        self.pm = np.full((C, 1, P), 6, dtype=np.int64)
        self.pqq = np.zeros((C, 1, P))
        self.pdsolv = np.zeros((C, 1, P))
        for a, sf in enumerate(scorings):
            t = sf.pair_tables
            p_a = t.n_pairs
            self.pi[a, 0, :p_a, 0] = t.i
            self.pj[a, 0, :p_a, 0] = t.j
            self.pc[a, 0, :p_a] = t.c
            self.pd[a, 0, :p_a] = t.d
            self.pm[a, 0, :p_a] = t.m
            self.pqq[a, 0, :p_a] = t.qq
            self.pdsolv[a, 0, :p_a] = t.dsolv

        self._init_pair_index()

        # ---- pair->atom incidence matrices: per-ligand, shared across
        # slots holding the same ligand (their BLAS contractions are the
        # layout-sensitive ops; see module docstring)
        self.scat_g = []
        self.scat_e = []
        for sf in scorings:
            t = sf.pair_tables
            n, p_a = sf.ligand.n_atoms, t.n_pairs
            sg = np.zeros((n, p_a))
            se = np.zeros((n, p_a))
            sg[t.i, np.arange(p_a)] = 1.0
            sg[t.j, np.arange(p_a)] -= 1.0
            se[t.i, np.arange(p_a)] = 0.5
            se[t.j, np.arange(p_a)] += 0.5
            self.scat_g.append(sg)
            self.scat_e.append(se)

        self._init_torsion_rows()
        self.tors_pen = np.array(
            [sf.torsional_penalty for sf in scorings])[:, None]
        self.smooth_col = np.array(
            [sf.smooth for sf in scorings], dtype=bool)[:, None, None]
        self.any_smooth = bool(self.smooth_col.any())
        self._init_groups()
        self.rotation_list = RotationList(self.ligands)
        self._subsets: dict[tuple[int, ...], "LigandPack"] = {}

    def _init_groups(self) -> None:
        """Cohort slots sharing one ligand object, for the batched
        pair->atom contractions.

        A virtual screen dedups identical ligands upstream, but a
        homogeneous throughput cohort (and any screen re-docking one
        ligand under several seeds) carries the *same* ligand object in
        many slots.  Those slots share the incidence matrices, so the
        pair->atom contractions run once over the concatenated batch —
        they are batch-row invariant, so each slot's slice stays
        bit-identical to its own per-slot call.
        """
        by_lig: dict[int, list[int]] = {}
        for a, lig in enumerate(self.ligands):
            by_lig.setdefault(id(lig), []).append(a)
        self.groups = [np.array(v, dtype=np.int64)
                       for v in by_lig.values()]
        #: every slot is one ligand under one parameterisation: the
        #: whole cohort folds into a single flat batch (the homogeneous
        #: throughput shape), so the hot kernels can use reshape views
        #: and one representative coefficient row instead of per-slot
        #: fancy-indexed copies and (C, 1, P)-broadcast tables
        self.uniform = (
            len(self.groups) == 1
            and bool((self.smooth_col == self.smooth_col[0]).all())
            and bool((self.tors_pen == self.tors_pen[0]).all())
            and all(bool((arr == arr[:1]).all())
                    for arr in (self.pi, self.pj, self.pc, self.pd,
                                self.pm, self.pqq, self.pdsolv)))

    def _init_derived(self) -> None:
        self.N = int(self.n_atoms.max())
        self.P = int(self.n_pairs.max())
        self.R = int(self.n_rot.max())
        self.G = _N_RIGID + self.R
        self.n_contrib = self.n_atoms + self.n_pairs
        self.L = int(self.n_contrib.max())
        #: fraction of atom lanes that is padding waste
        self.pad_ratio = 1.0 - float(self.n_atoms.sum()) / (self.C * self.N)

    def _init_torsion_rows(self) -> None:
        """Row indices of the Grotbond gather and scatter, compiled with
        the pack (and with every subset, like its rotation list).

        :func:`grotbond` works on ``(3, C*N, B)`` component planes, so
        every index names a whole contiguous ``B``-row: the axis
        endpoints of each real torsion ``t`` (slot-major, ``(T,)``), and
        per moved-atom entry ``e`` its atom row, its torsion ``t`` and its
        destination row in the ``(tree_width(N) * C*R, B)`` tree buffer
        (atom-major, so the tree halves a leading axis).
        """
        N, R, C = self.N, self.R, self.C
        rows_a, rows_b, atoms, tors, dst = [], [], [], [], []
        for a, lig in enumerate(self.ligands):
            for k, t in enumerate(lig.torsions):
                moved = np.unique(np.asarray(t.moved, dtype=np.int64))
                atoms.append(a * N + moved)
                tors.append(np.full(moved.shape, len(rows_a)))
                dst.append((moved * C + a) * R + k)
                rows_a.append(a * N + t.atom_a)
                rows_b.append(a * N + t.atom_b)
        none = [np.zeros(0, dtype=np.int64)]     # a torsion-free pack
        self.tor_rows_a = np.array(rows_a, dtype=np.int64)
        self.tor_rows_b = np.array(rows_b, dtype=np.int64)
        self.moved_rows = np.concatenate(atoms + none)
        self.moved_tors = np.concatenate(tors + none)
        self.moved_dst = np.concatenate(dst + none)

    def _init_pair_index(self) -> None:
        """Fancy-index form of the pair endpoint gather (bit-equivalent
        to ``take_along_axis`` — gathers copy, they never compute — but
        roughly twice as fast on the hot shapes), plus pose-independent
        pair-table derivations hoisted out of the per-call ``intra``."""
        self._gather_c = np.arange(self.C, dtype=np.int64)[:, None]
        self._pif = self.pi[:, 0, :, 0]
        self._pjf = self.pj[:, 0, :, 0]
        self._pm6 = self.pm == 6
        self._pm_all6 = bool(self._pm6.all())
        # smoothing pivot of the 12-m well; static per pair, same
        # expression (and therefore the same bits) as the inline form
        self.r_opt = (12.0 * self.pc / (self.pm * self.pd)) \
            ** (1.0 / (12.0 - self.pm))

    # ------------------------------------------------------------------

    def subset(self, lig) -> "LigandPack":
        """A pack over ligand indices ``lig``, re-trimmed and cached.

        The full index tuple returns ``self``; the flat map buffer is
        shared (never copied) across subsets.
        """
        key = tuple(int(i) for i in lig)
        if key == tuple(range(self.C)):
            return self
        cached = self._subsets.get(key)
        if cached is None:
            cached = self._make_subset(np.array(key, dtype=np.int64))
            self._subsets[key] = cached
        # the injector may be installed after a subset was cached
        cached.grid_injector = self.grid_injector
        return cached

    def _make_subset(self, idx: np.ndarray) -> "LigandPack":
        sub = object.__new__(LigandPack)
        sub.scorings = [self.scorings[i] for i in idx]
        sub.ligands = [self.ligands[i] for i in idx]
        sub.C = len(idx)
        sub.n_atoms = self.n_atoms[idx]
        sub.n_pairs = self.n_pairs[idx]
        sub.n_rot = self.n_rot[idx]
        sub.glens = self.glens[idx]
        sub.global_indices = self.global_indices[idx]
        sub.grid_injector = self.grid_injector
        sub._init_derived()
        N, P = sub.N, sub.P
        sub.flat_maps = self.flat_maps
        sub.offs = np.ascontiguousarray(self.offs[:, idx, :, :N])
        sub.origin = self.origin[:, idx]
        sub.spacing = self.spacing[idx]
        sub.dims_lim = self.dims_lim[:, idx]
        sub.shape_m1 = self.shape_m1[:, idx]
        sub.ny = self.ny[idx]
        sub.nz = self.nz[idx]
        sub.charges = np.ascontiguousarray(self.charges[idx][:, :, :N])
        sub.solpar = np.ascontiguousarray(self.solpar[idx][:, :, :N])
        sub.vol = np.ascontiguousarray(self.vol[idx][:, :, :N])
        sub.pi = np.ascontiguousarray(self.pi[idx][:, :, :P])
        sub.pj = np.ascontiguousarray(self.pj[idx][:, :, :P])
        sub.pc = np.ascontiguousarray(self.pc[idx][:, :, :P])
        sub.pd = np.ascontiguousarray(self.pd[idx][:, :, :P])
        sub.pm = np.ascontiguousarray(self.pm[idx][:, :, :P])
        sub.pqq = np.ascontiguousarray(self.pqq[idx][:, :, :P])
        sub.pdsolv = np.ascontiguousarray(self.pdsolv[idx][:, :, :P])
        sub._init_pair_index()
        sub.scat_g = [self.scat_g[i] for i in idx]
        sub.scat_e = [self.scat_e[i] for i in idx]
        sub._init_torsion_rows()
        sub.tors_pen = self.tors_pen[idx]
        sub.smooth_col = self.smooth_col[idx]
        sub.any_smooth = bool(sub.smooth_col.any())
        sub._init_groups()
        sub.rotation_list = RotationList(sub.ligands)
        sub._subsets = {}
        return sub

    # ------------------------------------------------------------------
    # batched physics (per-ligand slices bit-identical to GridMaps /
    # intra_contributions on the unpadded arrays)

    def _record_nonfinite(self, u: np.ndarray) -> None:
        """Emit per-lane observability for non-finite grid coordinates.

        Called only on the slow path (a non-finite value was seen), so the
        corruption is on record — trace event plus metrics counter naming
        the offending lanes — even when the run's fault policy clamps and
        continues (``ignore``).  ``u`` is ``(3, C, B, N)`` planes.
        """
        bad = ~np.isfinite(u).reshape(3, self.C, -1).all(axis=(0, 2))
        lanes = [int(g) for g in self.global_indices[bad]]
        names = [getattr(self.ligands[int(a)], "name", "")
                 for a in np.nonzero(bad)[0]]
        get_metrics().counter("cohort.nonfinite_lanes").inc(len(lanes))
        get_tracer().event("cohort.nonfinite", site="grid-interp",
                           lanes=lanes, ligands=names,
                           n_values=int(np.count_nonzero(~np.isfinite(u))))

    def inter_energy(self, coords: np.ndarray, with_gradient: bool = False):
        """Grid-map interpolation over ``(C, B, N, 3)`` coordinates, on
        ``(3, C, B, N)`` component planes from one transpose up front."""
        u = np.subtract(np.moveaxis(coords, -1, 0), self.origin, order="C")
        u /= self.spacing
        # non-finite coordinates used to be masked silently; keep the
        # clamp (the trajectory still needs finite lookups) but record
        # which lanes were hit first.  The finite fast path skips the
        # nan_to_num copy entirely — bit-identical, since it only
        # rewrites NaN/Inf.
        if not np.isfinite(u).all():
            self._record_nonfinite(u)
            u = np.nan_to_num(u, nan=1e4, posinf=1e4, neginf=-1e4)
        uc = np.clip(u, 0.0, self.dims_lim)
        out = u - uc
        i0 = np.floor(uc).astype(np.int64)
        i1 = np.minimum(i0 + 1, self.shape_m1)
        f = uc - i0
        flat = _corner_flat(i0, i1, self.ny, self.nz)    # (8, C, B, N)
        c = self.flat_maps.take(flat[:, None] + self.offs)  # (8, 4, C, B, N)
        if self.grid_injector is not None:
            # grid-gather stride site: corrupt the fetched corner values
            # (modelling corrupt device memory under the trilinear blend)
            c, inj = self.grid_injector.corrupt_values(c)
            if inj.any():
                per_lane = inj.sum(axis=(0, 1, 3, 4))
                get_metrics().counter("cohort.grid_injected").inc(
                    int(inj.sum()))
                get_tracer().event(
                    "cohort.grid_inject",
                    lanes=[int(g) for g in
                           self.global_indices[per_lane > 0]],
                    n_values=int(inj.sum()))
        return _grid_terms(c, f, out * self.spacing, self.spacing,
                           self.charges, self.solpar, self.vol,
                           with_gradient)

    def intra(self, coords: np.ndarray, with_geometry: bool = False):
        """AD4 pairwise terms over ``(C, B, N, 3)`` coordinates; padded
        pairs evaluate at the neutral coefficients and are dropped by the
        contiguous contribution packing downstream.

        A uniform pack folds the cohort axis into the batch: reshape
        views plus one representative ``(P,)`` coefficient row compute
        exactly the same per-element arithmetic as the broadcast
        ``(C, 1, P)`` tables, without the per-slot gather/copy overhead.
        """
        if self.uniform:
            C, B = coords.shape[:2]
            flat = coords.reshape(C * B, self.N, 3)
            delta = flat[:, self._pif[0]] - flat[:, self._pjf[0]]
            pc, pd, pm = self.pc[0, 0], self.pd[0, 0], self.pm[0, 0]
            pqq, pdsolv = self.pqq[0, 0], self.pdsolv[0, 0]
            pm6, r_opt = self._pm6[0, 0], self.r_opt[0, 0]
            smooth = self.smooth_col[0, 0, 0]
            lead = (C, B)
        else:
            # fancy indexing lands pair-major (C, P, B, 3); one
            # contiguous transpose back keeps every downstream
            # elementwise op on dense batch-major memory
            ci = coords[self._gather_c, :, self._pif]      # (C, P, B, 3)
            cj = coords[self._gather_c, :, self._pjf]
            delta = np.ascontiguousarray(np.moveaxis(ci - cj, 1, 2))
            pc, pd, pm = self.pc, self.pd, self.pm
            pqq, pdsolv = self.pqq, self.pdsolv
            pm6, r_opt = self._pm6, self.r_opt
            smooth = self.smooth_col
            lead = None
        r_raw = np.sqrt(xyz_sum(delta[..., 0], delta[..., 1], delta[..., 2],
                                squares=True))
        r = np.maximum(r_raw, RMIN)
        in_well = None
        if self.any_smooth:
            hw = SMOOTH_HALF_WIDTH
            in_well = (np.abs(r - r_opt) <= hw) & smooth
            r_vdw = np.where(smooth,
                             np.where(r < r_opt - hw, r + hw,
                                      np.where(r > r_opt + hw, r - hw,
                                               r_opt)),
                             r)
        else:
            r_vdw = r

        # the tail runs in place over a handful of full-size buffers: each
        # step keeps the single path's operand grouping (left-assoc
        # products, ``(a + b) + c`` sums, ``(-a) * b`` sign placement), so
        # every element carries exactly the single-path bits while the
        # temporary count drops from ~18 allocations to 6
        inv_r = 1.0 / r
        # no smoothing means r_vdw aliases r, so one divide serves both
        inv_rv = inv_r if r_vdw is r else 1.0 / r_vdw
        inv_rv2 = inv_rv * inv_rv
        inv_r6 = inv_rv2 ** 3
        # all-6 packs alias the 12-6 column; bitwise equal to the where()
        inv_rm = inv_r6 if self._pm_all6 \
            else np.where(pm6, inv_r6, inv_rv2 ** 5)
        inv_r12 = inv_r6 ** 2

        e_vdw = pc * inv_r12
        t = pd * inv_rm
        np.subtract(e_vdw, t, out=e_vdw)
        de_vdw = -12.0 * pc * inv_r12
        np.multiply(pm * pd, inv_rm, out=t)
        np.add(de_vdw, t, out=de_vdw)
        np.multiply(de_vdw, inv_rv, out=de_vdw)
        if in_well is not None:
            de_vdw = np.where(in_well, 0.0, de_vdw)

        # Mehler-Solmajer dielectric and its derivative share the same
        # ``exp`` term; evaluating it once is the single biggest saving
        # (dielectric() / dielectric_derivative() recompute it, with
        # identical expressions, so the bits match)
        u = _MS_RK * np.exp(-_MS_LAM * _MS_B * r)
        one_u = 1.0 + u
        eps = _MS_A + _MS_B / one_u
        e_elec = pqq * inv_r
        np.divide(e_elec, eps, out=e_elec)
        np.multiply(u, _MS_LAM * _MS_B * _MS_B, out=u)
        np.multiply(one_u, one_u, out=one_u)      # (1 + u) ** 2
        np.divide(u, one_u, out=u)
        np.divide(u, eps, out=u)
        np.add(u, inv_r, out=u)
        np.multiply(u, e_elec, out=u)
        de_elec = np.negative(u, out=u)

        g = r / 3.6
        np.multiply(g, g, out=g)                  # (r / 3.6) ** 2
        np.multiply(g, -0.5, out=g)
        np.exp(g, out=g)                          # gauss
        e_solv = pdsolv * g
        np.divide(r, -(3.6 ** 2), out=g)          # -r / 3.6 ** 2
        de_solv = np.multiply(g, e_solv, out=g)

        energy = e_vdw
        np.add(energy, e_elec, out=energy)
        np.add(energy, e_solv, out=energy)
        de_dr = de_vdw
        np.add(de_dr, de_elec, out=de_dr)
        np.add(de_dr, de_solv, out=de_dr)
        np.clip(energy, -ECLAMP, ECLAMP, out=energy)
        np.clip(de_dr, -GRADCLAMP, GRADCLAMP, out=de_dr)
        if lead is not None:
            energy = energy.reshape(lead + (-1,))
            de_dr = de_dr.reshape(lead + (-1,))
            if with_geometry:
                r_raw = r_raw.reshape(lead + (-1,))
                delta = delta.reshape(lead + (-1, 3))
        if with_geometry:
            return energy, de_dr, delta, r_raw
        return energy, de_dr


def grotbond(coords: np.ndarray, g_atoms: np.ndarray,
             pack: LigandPack) -> np.ndarray:
    """Algorithm 4's ``Grotbond``: per-rotatable-bond gradient sums.

    Torsion ``k`` of slot ``a`` sums ``(axis_k x (r_i - b_k)) . g_i`` over
    the atoms ``i`` it moves (``axis_k`` the unit vector from ``a_k`` to
    ``b_k``): short data-dependent sums that stay on SIMT cores in every
    configuration, one FP32 stride-halving tree per torsion and batch
    row over its ``tree_width(N)`` atom slots.  ``coords`` and
    ``g_atoms`` are ``(A, B, N, 3)``; returns the ``(A, B, R)`` float32
    sums (``+0.0`` on padded torsions).

    Every element sees the float64 operations of a gather over
    ``(..., 3)`` rows, in the same order; only the layout differs: both
    inputs are transposed once to ``(3, A*N, B)`` planes, every gather
    and the scatter move whole ``B``-rows by the pack's compiled row
    indices, the cross product is written one component at a time, and
    the tree halves the leading axis of a ``(tree_width(N), A*R, B)``
    buffer.
    """
    A, B, N = g_atoms.shape[:3]
    R = pack.R
    buf = np.zeros((tree_width(N), A * R, B), dtype=np.float32)
    planes = (3, A * N, B)
    cp = np.ascontiguousarray(coords.transpose(3, 0, 2, 1)).reshape(planes)
    gp = np.ascontiguousarray(g_atoms.transpose(3, 0, 2, 1)).reshape(planes)
    b_pos = cp[:, pack.tor_rows_b]                    # (3, T, B)
    axis = b_pos - cp[:, pack.tor_rows_a]
    axis /= np.maximum(np.sqrt(xyz_sum(*axis, squares=True)), 1e-12)
    ax0, ax1, ax2 = axis[:, pack.moved_tors]          # (E, B) each
    r0, r1, r2 = cp[:, pack.moved_rows] - b_pos[:, pack.moved_tors]
    g0, g1, g2 = gp[:, pack.moved_rows]
    # cross3(axis, arm) * g, component by component, then np.sum's
    # left-to-right sum (an all -0.0 product row stays +0.0)
    vals = xyz_sum((ax1 * r2 - ax2 * r1) * g0,
                   (ax2 * r0 - ax0 * r2) * g1,
                   (ax0 * r1 - ax1 * r0) * g2)
    buf.reshape(-1, B)[pack.moved_dst] = vals
    return _tree_reduce_inplace(buf, axis=0).reshape(A, R, B) \
        .transpose(0, 2, 1)


class CohortScoring:
    """Cohort-batched scoring: pose calculation + inter + intra + one
    SIMT tree reduction over per-ligand contiguously packed contributions.
    """

    def __init__(self, scorings: list[ScoringFunction]) -> None:
        self.pack = LigandPack(scorings)
        self.scorings = self.pack.scorings

    def coords(self, genes: np.ndarray,
               pack: LigandPack | None = None) -> np.ndarray:
        """Pose calculation, ``(A, B, G) -> (A, B, N, 3)`` (zero-padded):
        one pass of the pack's compiled rotation list, whatever the
        cohort's make-up (see :mod:`repro.docking.pose`)."""
        pack = pack if pack is not None else self.pack
        return pack.rotation_list(genes)

    def score_coords(self, coords: np.ndarray,
                     pack: LigandPack | None = None) -> np.ndarray:
        pack = pack if pack is not None else self.pack
        e_inter = pack.inter_energy(coords)
        e_intra, _ = pack.intra(coords)
        A, B = e_inter.shape[:2]
        # contiguous per-ligand packing [inter | intra | 0-pad]: the tree
        # reduction sees only suffix zeros, which every backend ignores
        # (a per-slot slice copy: a single gather over precomputed column
        # indices measured 4-12x slower than these memcpy-speed slices).
        # The buffer is the tree's own power-of-two scratch, reduced in
        # place
        contribs = np.zeros((A, B, tree_width(pack.L)), dtype=np.float32)
        for a in range(A):
            n_a = int(pack.n_atoms[a])
            p_a = int(pack.n_pairs[a])
            contribs[a, :, :n_a] = e_inter[a, :, :n_a]
            contribs[a, :, n_a:n_a + p_a] = e_intra[a, :, :p_a]
        total = _tree_reduce_inplace(contribs)
        return total.astype(np.float64) + pack.tors_pen

    def score(self, genes: np.ndarray, lig=None) -> np.ndarray:
        """Score ``(A, batch, G)`` genotypes -> ``(A, batch)`` energies.

        ``lig`` selects a ligand subset (global indices into the pack);
        ``genes`` rows must align with it.
        """
        pack = self.pack if lig is None else self.pack.subset(lig)
        genes = np.asarray(genes, dtype=np.float64)
        coords = self.coords(genes, pack)
        return self.score_coords(coords, pack)


class CohortGradientCalculator:
    """Gradient calculation (Algorithm 4) ending in the paper's seven
    reductions, batched over a cohort.

    Per ADADELTA iteration the kernel computes per-atom gradient
    contributions (InterGradient from the grid maps, IntraGradient from
    the pairwise terms) and converts them from atomic into genetic space:

    * ``Gtrans`` — the translation-gene gradient is the sum of all
      per-atom gradients, and the pose energy is the sum of all
      per-contribution energies: **four block reductions** executed as one
      ``reduce4`` over ``{gx, gy, gz, e}`` vectors;
    * ``Grigidrot`` — the orientation-gene gradient needs the torque-like
      sum ``sum (r_i - c) x g_i``: **three more block reductions**, the
      second ``reduce4`` (fourth lane unused);
    * ``Grotbond`` — per-rotatable-bond gradients are data-dependent short
      sums and stay on SIMT cores in every configuration, as in the paper.

    Those 4 + 3 = seven reductions are exactly what the paper offloads to
    Tensor Cores; swapping the
    :class:`~repro.reduction.api.ReductionBackend` here is the *entire*
    numerical difference between the baseline, the Schieffer-Peng FP16
    version, and TCEC.

    The calculator is the ``(batch, glen) -> (energy, gradient)`` callable
    :class:`~repro.search.adadelta.AdadeltaLocalSearch` expects; rows are
    ligand-major (``batch = A * B`` with ligand ``a`` owning rows
    ``a*B .. (a+1)*B``), so a cohort of one takes any batch.  ``bind``
    narrows the calculator to a ligand subset between generations (cohort
    members that finish early drop out of the reduce4 operand entirely).
    Pair-to-atom scatter and per-torsion sums are incidence-matrix
    products and one sparse moved-atom list, so the whole batch runs in a
    few BLAS calls (no ``np.add.at``-style scatter in the hot loop).
    """

    def __init__(self, cohort: CohortScoring,
                 backend: str | ReductionBackend = "baseline") -> None:
        self.cohort = cohort
        self.backend = get_reduction_backend(backend)
        self._pack = cohort.pack

    def bind(self, lig=None) -> None:
        self._pack = self.cohort.pack if lig is None \
            else self.cohort.pack.subset(lig)

    def atom_gradients(self, coords: np.ndarray, pack: LigandPack
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Per-atom energy and gradient contributions in atomic space.

        ``coords`` is ``(A, B, N, 3)``; returns ``(e_atoms, g_atoms)`` of
        shapes ``(A, B, N)`` and ``(A, B, N, 3)`` with
        ``g_atoms[..., i, :] = dE/dr_i`` (zero on padded atoms).  The
        reductions over these arrays produce the kernel's seven
        block-level sums.
        """
        e_inter, g_inter = pack.inter_energy(coords, with_gradient=True)
        e_pairs, de_dr, delta, r_raw = pack.intra(coords, with_geometry=True)
        r = np.maximum(r_raw, 1e-9)[..., None]
        pair_grad = de_dr[..., None] * delta / r
        A, B, N = e_inter.shape
        if pack.uniform:
            # flat single-contraction path: every operand is a reshape
            # view of an already-contiguous buffer, and with no padded
            # lanes the results need no zeroed landing buffers
            # explicit row count: -1 is ambiguous when P == 0 (a
            # torsion-free ligand has no intra pairs)
            pg = pair_grad.reshape(A * B, pack.P, 3)
            ep = e_pairs.reshape(A * B, pack.P)
            g_atoms = (g_inter.reshape(-1, N, 3) + np.einsum(
                "np,bpc->bnc", pack.scat_g[0], pg,
                optimize=_SCATTER_PATH)).reshape(A, B, N, 3)
            e_atoms = (e_inter.reshape(-1, N)
                       + ep @ pack.scat_e[0].T).reshape(A, B, N)
            np.clip(g_atoms, -GRADCLAMP, GRADCLAMP, out=g_atoms)
            return e_atoms, g_atoms
        g_atoms = np.zeros((A, B, N, 3))
        e_atoms = np.zeros((A, B, N))
        # per-ligand incidence contractions on contiguous operands (BLAS
        # summation order is layout-dependent; batch-row concatenation is
        # not — verified bit-identical — so slots sharing one ligand run
        # as a single contraction); results land in zeroed buffers so the
        # padded tail stays exactly +0.0
        for idx in pack.groups:
            a = int(idx[0])
            n_a = int(pack.n_atoms[a])
            p_a = int(pack.n_pairs[a])
            if len(idx) == 1:
                pg = np.ascontiguousarray(pair_grad[a, :, :p_a, :])
                ep = np.ascontiguousarray(e_pairs[a, :, :p_a])
                g_atoms[a, :, :n_a] = g_inter[a, :, :n_a] + np.einsum(
                    "np,bpc->bnc", pack.scat_g[a], pg,
                    optimize=_SCATTER_PATH)
                e_atoms[a, :, :n_a] = (e_inter[a, :, :n_a]
                                       + ep @ pack.scat_e[a].T)
            else:
                k = len(idx)
                # explicit row counts: -1 is ambiguous when p_a == 0
                pg = np.ascontiguousarray(
                    pair_grad[idx][:, :, :p_a, :]).reshape(k * B, p_a, 3)
                ep = np.ascontiguousarray(
                    e_pairs[idx][:, :, :p_a]).reshape(k * B, p_a)
                g_atoms[idx, :, :n_a] = g_inter[idx][:, :, :n_a] \
                    + np.einsum("np,bpc->bnc", pack.scat_g[a], pg,
                                optimize=_SCATTER_PATH).reshape(k, B, n_a, 3)
                e_atoms[idx, :, :n_a] = e_inter[idx][:, :, :n_a] \
                    + (ep @ pack.scat_e[a].T).reshape(k, B, n_a)
        np.clip(g_atoms, -GRADCLAMP, GRADCLAMP, out=g_atoms)
        return e_atoms, g_atoms

    def _attribute_lane_faults(self, B: int) -> dict[int, int]:
        """Map the guard's per-block fault mask back to global lanes.

        The reduce4 operand is ligand-major (``batch = A * B``), so block
        column ``b`` belongs to lane ``global_indices[b // B]``.  Faulty
        block counts are folded into the shared ledger's ``by_lane`` and
        surfaced through obs; a no-guard backend (no ``last_fault_mask``)
        costs one ``getattr``.
        """
        mask = getattr(self.backend, "last_fault_mask", None)
        if mask is None or not mask.any():
            return {}
        cols = np.nonzero(mask)[-1]
        lanes, counts = np.unique(
            self._pack.global_indices[cols // B], return_counts=True)
        lane_counts = {int(a): int(n) for a, n in zip(lanes, counts)}
        ledger = getattr(self.backend, "ledger", None)
        if ledger is not None:
            ledger.record_lane_faults(lane_counts)
        get_metrics().counter("cohort.lane_faults").inc(
            int(np.count_nonzero(mask)))
        get_tracer().event("cohort.lane_faults", site="reduce4",
                           lanes={str(k): v for k, v in lane_counts.items()})
        return lane_counts

    def __call__(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pack = self._pack
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        A = pack.C
        batch, G = x.shape
        if batch % A:
            raise ValueError(f"batch {batch} not divisible by cohort {A}")
        B = batch // A
        genes = x.reshape(A, B, G)
        coords = self.cohort.coords(genes, pack)
        e_atoms, g_atoms = self.atom_gradients(coords, pack)

        # one reduce4 issue pair for the whole cohort: (2, A*B, N_max, 4).
        # Batch slices reduce independently and suffix-zero padding is
        # backend-invariant, so each ligand's slice is bit-identical to its
        # single-ligand (2, B, n_a, 4) call
        centre = genes[..., None, 0:3]
        torque_like = cross3(coords - centre, g_atoms)
        vecs = np.empty((2, A, B, pack.N, 4), dtype=np.float32)
        vecs[0, ..., 0:3] = g_atoms
        vecs[0, ..., 3] = e_atoms
        vecs[1, ..., 0:3] = torque_like
        vecs[1, ..., 3] = 0.0
        t_red = time.perf_counter()
        try:
            red = self.backend.reduce4(vecs.reshape(2, batch, pack.N, 4))
        except NumericalFaultError as exc:
            # raise policy: name the lanes before the exception unwinds so
            # the lock-step driver can quarantine them (and only them)
            exc.lanes = tuple(sorted(self._attribute_lane_faults(B)))
            raise
        t_red = time.perf_counter() - t_red
        self._attribute_lane_faults(B)
        g_trans = red[0, :, 0:3].astype(np.float64)
        energy = (red[0, :, 3].astype(np.float64).reshape(A, B)
                  + pack.tors_pen).reshape(batch)
        tau = red[1, :, 0:3].astype(np.float64)

        m = get_metrics()
        m.histogram(f"reduction.{self.backend.name}.reduce4_s").observe(t_red)
        m.counter(f"reduction.{self.backend.name}.calls").inc(2)
        m.counter("gradient.evals").inc(batch)

        jl = so3_left_jacobian(x[:, 3:6])
        g_orient = np.einsum("pij,pi->pj", jl, tau)

        gradient = np.zeros((batch, G))
        gradient[:, 0:3] = g_trans
        gradient[:, 3:6] = g_orient
        if pack.R:
            # padded torsion rows reduce to exactly +0.0, preserving the
            # zero-gradient invariant on padded gene columns
            gradient.reshape(A, B, G)[..., 6:6 + pack.R] = grotbond(
                coords, g_atoms, pack)
        np.clip(gradient, -GENE_GRADIENT_CLAMP, GENE_GRADIENT_CLAMP,
                out=gradient)
        return energy, gradient
