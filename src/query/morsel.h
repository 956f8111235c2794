#pragma once

/// \file morsel.h
/// \brief Out-of-core morsel execution: row-range partitioning of the
/// relevant table, bounded-memory streaming aggregation with deterministic
/// cross-morsel combiners, and a sequential build/combine loop.
///
/// The in-RAM planner path (query/query_planner.h) builds every artifact —
/// group index row ids, selection masks, value views — over the *whole*
/// relevant table at once, so its peak memory is proportional to the table.
/// This layer is the same three phases restructured for tables that do not
/// fit: the table is split into row-range **morsels** (MorselSet), each
/// morsel's artifacts are built over a morsel-local sub-table (columns
/// gathered by Column::Take, which shares string dictionaries, so predicate
/// compilation, key encoding, and the SIMD kernels all run unchanged on the
/// morsel-local row space), and per-candidate **combiners** fold each
/// morsel's rows into per-group accumulators. Only one morsel's artifacts
/// are alive at any time, so peak artifact memory is ~1 morsel plus the
/// per-group state — never the whole table.
///
/// **Bit-identity contract.** Morsels are processed strictly in ascending
/// row order and group ids are assigned first-seen across morsels
/// (GroupIndexBuilder), so every accumulator sees exactly the value sequence
/// the single-pass kernels see:
///  - COUNT/SUM/AVG/MIN/MAX carry their accumulators across morsels
///    (identical left-to-right float accumulation);
///  - VAR/STD/KURTOSIS are two-pass in the oracle, so the pipeline runs a
///    **second sweep**: sweep 1 accumulates sums, then morsel artifacts are
///    rebuilt deterministically (lookup-only GroupIndexBuilder::MapMorsel)
///    and squared deviations accumulate against the global means in the
///    same row order;
///  - COUNT_DISTINCT/ENTROPY merge per-group ordered value->count maps
///    (outputs depend only on run counts in ascending value order — exactly
///    what an ordered map stores);
///  - MODE/MAD/MEDIAN append per-group value buffers in row order and
///    finalize through the shared ComputeAggregate oracle.
/// The result is byte-identical to the single-pass path at every morsel
/// size and thread count (tests/morsel_test.cc sweeps both).
///
/// **Loop.** Each sweep visits the morsels in order: charge, build on the
/// caller thread (builds are strictly sequential — the group-id assignment
/// order *is* the determinism contract), combine with the candidates fanned
/// out over the ThreadPool, release. Overlapping build(i+1) with combine(i)
/// on a prefetch thread measured no faster end to end (scoring on 10^6-row
/// tables) and held two morsels in flight, so the loop does not overlap.
///
/// **Memory bound.** Each morsel's estimated artifact bytes are charged to
/// the ExecContext before its build starts and released after its combine,
/// so a budget bounds the pipeline at ~1 in-flight morsel; combiner-state
/// growth and the finished key maps / per-group features are charged as
/// they appear. ExecContext::peak_charged_bytes() measures the bound.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "query/agg_query.h"
#include "query/group_index.h"
#include "table/table.h"

namespace featlib {

class ThreadPool;
struct KernelOps;

/// One row-range shard [begin, end) of the relevant table.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t rows() const { return end - begin; }
};

/// \brief The ordered row-range partition of one relevant table.
///
/// Morsels are contiguous, non-empty, cover [0, n_rows) exactly, and are
/// processed in ascending order — the order every determinism guarantee of
/// the combiners leans on. The degenerate single-morsel split (morsel_rows
/// == 0 or >= n_rows) is the whole table.
class MorselSet {
 public:
  /// Splits `n_rows` into ceil(n_rows / morsel_rows) morsels; the trailing
  /// morsel is short when morsel_rows does not divide n_rows (never empty).
  /// morsel_rows == 0 means whole-table; n_rows == 0 yields no morsels.
  static MorselSet Split(size_t n_rows, size_t morsel_rows);

  size_t size() const { return morsels_.size(); }
  bool empty() const { return morsels_.empty(); }
  const Morsel& operator[](size_t i) const { return morsels_[i]; }
  const std::vector<Morsel>& morsels() const { return morsels_; }

 private:
  std::vector<Morsel> morsels_;
};

/// Execution knobs of one morsel-streamed batch.
struct MorselOptions {
  /// Rows per morsel; 0 = whole table as one morsel.
  size_t morsel_rows = 0;
  /// Pool for the per-candidate combine fan-out; nullptr = serial.
  ThreadPool* pool = nullptr;
  /// Kernel table for mask builds; nullptr resolves the configured backend.
  const KernelOps* ops = nullptr;
  /// Cooperative limits; checked at morsel boundaries and charged per
  /// in-flight morsel. May be null.
  const ExecContext* ctx = nullptr;
};

/// Observability of one ExecuteMorsels run (bench + tests).
struct MorselExecStats {
  size_t morsels = 0;
  /// 1, or 2 when a two-pass aggregate (VAR family / KURTOSIS) re-streamed.
  size_t sweeps = 0;
  /// Always 0: morsel builds run on the caller thread. Kept because the
  /// end-to-end benchmark's record reads it.
  size_t prefetched_builds = 0;
  /// Executor-tracked peak of in-flight morsel artifacts + combiner state +
  /// finished key maps and features (same accounting the ExecContext sees).
  size_t peak_artifact_bytes = 0;
  double build_seconds = 0.0;
  double combine_seconds = 0.0;
};

/// The morsel executor's output: per-group feature values per candidate,
/// plus the key-map-only group indexes that map training rows onto them.
struct MorselResult {
  /// candidate_group value for candidates that failed in isolated mode.
  static constexpr size_t kNoGroupSpec = SIZE_MAX;

  /// [candidate][group id] aggregate values (NaN where undefined); empty
  /// for failed isolated candidates.
  std::vector<std::vector<double>> per_group;
  /// Distinct group indexes (first-use order across the batch), built
  /// incrementally across morsels; key-map-only (GroupIndexBuilder::Finish),
  /// valid for MapTrainingRows. Owned here — deliberately *not* published
  /// into any ArtifactStore, whose consumers expect per-row ids.
  std::vector<std::shared_ptr<const GroupIndex>> group_indexes;
  /// per_group[i] is over group_indexes[candidate_group[i]]'s group space.
  std::vector<size_t> candidate_group;
  MorselExecStats stats;
};

/// Runs the full morsel pipeline over `queries`: compile (dedup group /
/// filter / view specs), then per sweep one sequential build + parallel
/// combine step per morsel, then finalize.
///
/// Failure contract mirrors QueryPlanner: with `slot_errors` == nullptr the
/// first failure fails the call; otherwise `slot_errors` must be pre-sized
/// to `queries` and receives per-candidate failures (validation, injected
/// "morsel.build"/"morsel.merge" faults) while the call only fails
/// batch-wide (tripped ctx, exhausted budget). Surviving slots are
/// byte-identical to a batch that never contained the failing candidates.
Result<MorselResult> ExecuteMorsels(const std::vector<AggQuery>& queries,
                                    const Table& relevant,
                                    const MorselOptions& options,
                                    std::vector<Status>* slot_errors = nullptr);

/// The scatter step shared by the fit and serving paths: per-group values
/// through a training-row map into a feature column (NaN where the row
/// joins no group).
std::vector<double> ScatterPerGroup(const std::vector<double>& per_group,
                                    const std::vector<uint32_t>& train_map);

}  // namespace featlib
