"""Correlation-complete: the paper's Algorithm 1 (Section 5.3).

The estimator computes, for every admitted potentially-congested correlation
subset, the probability that all its links are good, by:

1. forming an **initial list of path sets** — for each subset ``E``, the
   selector ``Paths(E) \\ Paths(complement(E))`` (Algorithm 1 lines 1-5);
2. computing the null space ``N`` of the associated ``Matrix(P^, E^)``
   (lines 6-7);
3. **iteratively adding path sets that increase the system rank**: subsets
   ``E`` are visited in decreasing Hamming weight of their null-space row
   (``SortByHammingWeight``), candidate path sets are enumerated inside
   ``Paths(E) \\ Paths(complement(E))``, and the first row ``r`` with
   ``||r N|| > 0`` is kept, after which ``N`` is shrunk *incrementally* by
   Algorithm 2 (lines 8-22). Each candidate is tested at most once per
   fit: a downdate only shrinks the span of ``N``, so ``||r N||`` never
   grows and a rejected candidate stays rejected. Skipping the re-tests
   is exact — the same path sets are chosen in the same order;
4. solving the final log-domain least-squares system and classifying each
   unknown as identifiable iff the final null space vanishes on its
   coordinate. The solve starts from step 3's basis rather than
   re-deriving it, and only factorizes the redundancy-pass rows that
   still add rank.

Steps 1-3 are the pipeline's ``discover`` stage, the redundancy pass plus
system construction its ``assemble`` stage. Deviations from the listing
(documented in DESIGN.md): the enumeration of path subsets on line 11 is
bounded (size- and count-capped, smallest first) and the unknown ordering
``E^`` is the configurable index of
:class:`~repro.probability.subsets.SubsetIndex` rather than the full
exponential family — both are the paper's own "configurable subset of the
computable probabilities" resource knob (Section 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL, null_space, null_space_update
from repro.linalg.system import EquationSystem
from repro.model.status import ObservationMatrix
from repro.probability.base import (
    FitReport,
    FrequencyCache,
    ProbabilityEstimator,
    log_frequency_weights,
    shared_sampled_pool,
    singleton_path_sets,
)
from repro.probability.pipeline import FitContext
from repro.probability.query import CongestionProbabilityModel
from repro.probability.subsets import SubsetIndex
from repro.topology.graph import Network
from repro.util.subsets import bounded_subsets


class CorrelationCompleteEstimator(ProbabilityEstimator):
    """The paper's Probability Computation algorithm (Algorithm 1 + 2)."""

    name = "Correlation-complete"

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _stage_discover(self, context: FitContext) -> None:
        """Assemble ``E^`` and run Algorithm 1's path-set selection.

        Raises
        ------
        EstimationError
            When no usable equation exists (e.g. every path was congested
            in every interval).
        """
        context.index, context.pool = self._build_index(
            context.network, context.observations, context.active
        )
        context.path_sets, context.null_basis = self._select_path_sets(
            context.index, context.frequency
        )
        if not context.path_sets:
            raise EstimationError(
                "Correlation-complete: no usable path-set equations "
                "(were all paths always congested?)"
            )

    def _stage_assemble(self, context: FitContext) -> None:
        """Redundancy pass, then the weighted log-domain system + priors."""
        context.extra_path_sets = self._redundant_path_sets(
            context.index, context.frequency, context.pool, context.path_sets
        )
        all_sets = list(context.path_sets) + list(context.extra_path_sets)
        flat_positions, row_lengths, usable = context.index.decompose_batch(all_sets)
        if not usable.all():
            raise EstimationError("selected path set became unusable")
        freqs = context.frequency.query_many(all_sets)
        weights = (
            log_frequency_weights(freqs, context.frequency.num_intervals)
            if self.config.weighted
            else np.ones(len(all_sets))
        )
        system = EquationSystem(len(context.index), workspace=context.system_workspace)
        system.add_sparse_batch(flat_positions, row_lengths, np.log(freqs), weights)
        self._add_prior_equations(system, context.index)
        context.system = system
        context.used_path_sets = list(context.path_sets)

    def _stage_build_model(self, context: FitContext) -> None:
        solution = context.solution
        log_good = np.minimum(solution.values, 0.0)
        good = np.exp(log_good)
        estimates: Dict[FrozenSet[int], float] = {}
        identifiable: Dict[FrozenSet[int], bool] = {}
        for position, subset in enumerate(context.index.subsets):
            estimates[subset] = float(good[position])
            identifiable[subset] = bool(solution.identifiable[position])
        model = CongestionProbabilityModel(
            context.network,
            estimates,
            identifiable,
            always_good_links=context.always_good,
        )
        report = FitReport(
            num_unknowns=len(context.index),
            num_equations=len(context.system),
            rank=solution.rank,
            num_identifiable=int(solution.identifiable.sum()),
            residual=solution.residual,
            path_sets=list(context.used_path_sets),
            frequency_cache_hits=context.frequency_hits,
            frequency_cache_misses=context.frequency_misses,
            equation_storage_bytes=context.system.storage_nbytes,
        )
        context.finish(model, report)

    # ------------------------------------------------------------------
    # Unknown discovery
    # ------------------------------------------------------------------
    def _build_index(
        self,
        network: Network,
        observations: ObservationMatrix,
        active: FrozenSet[int],
    ) -> Tuple[SubsetIndex, List[FrozenSet[int]]]:
        """Assemble ``E^`` plus the candidate path-set pool that shaped it."""
        candidates: List[FrozenSet[int]] = list(singleton_path_sets(observations))
        candidates.extend(
            shared_sampled_pool(
                network,
                observations,
                count=self.config.pair_sample,
                max_size=self.config.path_set_max_size,
                seed=self.config.seed,
            )
        )
        # Selectors of singleton subsets make per-link equations usable even
        # before the index exists (they only need correlation sets).
        active_sets = [
            frozenset(c & active) for c in network.correlation_sets if c & active
        ]
        for members in active_sets:
            for link in sorted(members):
                selector = network.paths_covering([link]) - network.paths_covering(
                    members - {link}
                )
                if selector:
                    candidates.append(frozenset(selector))
        index = SubsetIndex.build(
            network,
            active,
            candidates,
            requested_subset_size=self.config.requested_subset_size,
            hard_subset_cap=self.config.hard_subset_cap,
        )
        return index, candidates

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def _usable_row(
        self,
        index: SubsetIndex,
        frequency: FrequencyCache,
        path_set: FrozenSet[int],
    ) -> Optional[np.ndarray]:
        """Row for ``path_set`` or None (outside index / zero frequency)."""
        if not path_set:
            return None
        row = index.row(path_set)
        if row is None or not row.any():
            return None
        if frequency(path_set) <= self.config.min_frequency:
            return None
        return row

    def _select_path_sets(
        self, index: SubsetIndex, frequency: FrequencyCache
    ) -> Tuple[List[FrozenSet[int]], np.ndarray]:
        """Algorithm 1: choose the path sets whose equations enter the system.

        Returns the chosen path sets and the final orthonormal null-space
        basis of their rows; every admitted row removed exactly one of its
        directions.
        """
        chosen: List[FrozenSet[int]] = []
        rows: List[np.ndarray] = []
        admitted: Set[FrozenSet[int]] = set()

        # Lines 1-5: one selector path set per correlation subset. All
        # selector frequencies are prefetched through one batched kernel
        # call before the sequential admission loop runs.
        selectors = [
            frozenset(index.paths_selector(subset)) for subset in index.subsets
        ]
        frequency.prefetch([s for s in selectors if s])
        for path_set in selectors:
            if path_set in admitted:
                continue
            row = self._usable_row(index, frequency, path_set)
            if row is None:
                continue
            admitted.add(path_set)
            chosen.append(path_set)
            rows.append(row)

        # Lines 6-7: null space of the initial system.
        matrix = (np.vstack(rows) if rows else np.zeros((0, len(index))))
        basis = null_space(matrix)

        # Lines 8-22: grow rank with incrementally-updated null space.
        seen = set(admitted)
        scans: Dict[int, Tuple[List[FrozenSet[int]], int]] = {}
        while basis.shape[1] > 0:
            added = self._add_rank_increasing_row(
                index, frequency, basis, seen, admitted, chosen, scans
            )
            if added is None:
                break
            basis = null_space_update(basis, added)
        return chosen, basis

    def _candidate_path_sets(
        self, index: SubsetIndex, subset: FrozenSet[int]
    ) -> List[FrozenSet[int]]:
        """Line 11's bounded enumeration inside ``Paths(E) \\ Paths(complement(E))``."""
        return [
            frozenset(combo)
            for combo in bounded_subsets(
                sorted(index.paths_selector(subset)),
                max_size=self.config.path_set_max_size,
                max_count=self.config.path_set_max_count,
            )
        ]

    def _add_rank_increasing_row(
        self,
        index: SubsetIndex,
        frequency: FrequencyCache,
        basis: np.ndarray,
        seen: Set[FrozenSet[int]],
        admitted: Set[FrozenSet[int]],
        chosen: List[FrozenSet[int]],
        scans: Dict[int, Tuple[List[FrozenSet[int]], int]],
    ) -> Optional[np.ndarray]:
        """One pass of lines 9-20; returns the added row or None.

        ``SortByHammingWeight``: subsets are visited in decreasing count of
        non-zero entries of their null-space row — if unknown ``i`` has many
        non-zeros in ``N``, a row touching it is likely to satisfy
        ``||r N|| > 0``.

        Each candidate path set is tested at most once per fit. A candidate
        the scan tests and rejects — unusable, frequency at most
        ``min_frequency``, or ``||r N|| <= DEFAULT_TOL`` — joins ``seen``
        and is never tested again. That is exact: usability and frequency
        are fixed within a fit, and every Algorithm 2 downdate replaces the
        orthonormal ``N`` by an orthonormal basis of a subspace of its
        span, so ``||r N||`` can only shrink and a rejected row stays
        rejected. The first admissible candidate in visit order, and hence
        the chosen path sets and their order, are those of a scan that
        re-tests everything.

        ``scans`` keeps each subset position's enumeration across passes
        as ``(pending, offset)``: ``pending`` is what follows the last
        candidate admitted there (empty once every candidate was rejected),
        and ``offset`` counts the rejected candidates dropped before it.
        """
        weights = np.count_nonzero(np.abs(basis) > 1e-12, axis=1)
        order = np.argsort(-weights, kind="stable")
        # Candidates are evaluated in blocks of ``chunk`` — frequencies via
        # one kernel call, rows via one index sweep, rank tests via one
        # matrix product per block — and the first usable rank-increasing
        # candidate wins, exactly as a sequential line-by-line scan would
        # choose. Chunking keeps the common case (an early candidate wins)
        # from paying for the full slate. Blocks tile the not-yet-admitted
        # candidates; rejected ones keep their tile slot but are not
        # re-tested, so the frequency kernel sees the same path sets as a
        # scan that re-tests everything.
        chunk = 16
        # Subsets with weight 0 are already orthogonal to every null
        # direction; no row through them can add rank.
        for position in order[: np.count_nonzero(weights)].tolist():
            pending, offset = scans.get(position) or (
                self._candidate_path_sets(index, index.subsets[position]),
                0,
            )
            fresh = [c for c in pending if c not in admitted]
            for start in range(-(offset % chunk), len(fresh), chunk):
                members = [
                    j
                    for j in range(max(start, 0), min(start + chunk, len(fresh)))
                    if fresh[j] not in seen
                ]
                if not members:
                    continue
                block = [fresh[j] for j in members]
                frequencies = frequency.query_many(block)
                rows, usable = index.rows_matrix(block)
                tested = iter(zip(rows, np.linalg.norm(rows @ basis, axis=1)))
                for j, candidate, ok, value in zip(members, block, usable, frequencies):
                    seen.add(candidate)
                    if not ok:
                        continue
                    row, gain = next(tested)
                    if value <= self.config.min_frequency or gain <= DEFAULT_TOL:
                        continue
                    admitted.add(candidate)
                    chosen.append(candidate)
                    scans[position] = (fresh[j + 1 :], offset + j)
                    return row
            scans[position] = ([], offset + len(fresh))
        return None

    # ------------------------------------------------------------------
    # Variance reduction
    # ------------------------------------------------------------------
    def _redundant_path_sets(
        self,
        index: SubsetIndex,
        frequency: FrequencyCache,
        pool: Sequence[FrozenSet[int]],
        selected: Sequence[FrozenSet[int]],
    ) -> List[FrozenSet[int]]:
        """Additional consistent equations for finite-sample averaging.

        Algorithm 1 guarantees *rank* with the minimum number of equations;
        with finite ``T`` each empirical frequency is noisy, so the solve
        additionally averages over the already-computed candidate pool
        (usable, non-duplicate path sets). The rows usually lie in the span
        of the selected system; the solve detects any that do not, and their
        extra rank counts toward identifiability. They are weighted by
        their estimated precision — this is an implementation refinement
        over the paper's listing, documented in DESIGN.md.
        """
        seen = set(selected)
        fresh = [
            path_set
            for path_set in dict.fromkeys(pool)
            if path_set and path_set not in seen
        ]
        if not fresh:
            return []
        frequencies = frequency.query_many(fresh)
        _, _, usable = index.decompose_batch(fresh)
        keep = usable & (frequencies > self.config.min_frequency)
        return [path_set for path_set, ok in zip(fresh, keep) if ok]

    # ------------------------------------------------------------------
    def _add_prior_equations(self, system: EquationSystem, index: SubsetIndex) -> None:
        """Weak within-correlation-set prior tying singletons to joints.

        Where the data equations identify the unknowns, their far larger
        weights dominate and the prior is immaterial; along *unidentifiable*
        directions (Identifiability++ failures — e.g. a path's unique tail,
        or an inter-domain link inseparable from the intra-domain link
        behind it) the prior decides how a joint's log-probability is
        apportioned to its members:

        * ``prior_mode='correlation'`` (default): ``log g_e = log g_S`` for
          every member — bundle members co-congest, which is the natural
          default under Assumption 5 ("links from the same correlation set
          may be correlated") and exact when the bundle shares a
          router-level link;
        * ``prior_mode='independence'``: ``log g_S = sum log g_e`` — the
          joint splits evenly, mirroring what a min-norm independence solve
          does on a series bundle.

        Prior rows are excluded from the rank/identifiability accounting
        (see :meth:`repro.linalg.system.EquationSystem.add`).
        """
        if self.config.prior_weight <= 0.0:
            return
        columns: List[int] = []
        values: List[float] = []
        lengths: List[int] = []
        for subset in index.subsets:
            if len(subset) < 2:
                continue
            singleton_positions = []
            for link in subset:
                singleton = frozenset({link})
                if singleton not in index:
                    break
                singleton_positions.append(index.position(singleton))
            else:
                joint = index.position(subset)
                if self.config.prior_mode == "independence":
                    # log g_S - sum_e log g_e = 0
                    columns.append(joint)
                    columns.extend(singleton_positions)
                    values.append(1.0)
                    values.extend([-1.0] * len(singleton_positions))
                    lengths.append(1 + len(singleton_positions))
                else:
                    # log g_S - log g_e = 0, one row per member e
                    for position in singleton_positions:
                        columns.extend((joint, position))
                        values.extend((1.0, -1.0))
                        lengths.append(2)
        system.add_sparse_batch(
            columns,
            lengths,
            np.zeros(len(lengths)),
            np.full(len(lengths), self.config.prior_weight),
            values=values,
            prior=True,
        )


class CorrelationCompleteNoRedundancy(CorrelationCompleteEstimator):
    """Correlation-complete restricted to Algorithm 1's minimal equations.

    The ablation's "no redundancy" stage configuration: the assemble stage
    skips the variance-reduction pass, so the system holds exactly the
    rank-guaranteeing path sets Algorithm 1 selected.
    """

    name = "Correlation-complete (no redundancy)"

    def _redundant_path_sets(self, index, frequency, pool, selected):
        return []
