#pragma once

/// \file group_index.h
/// \brief Dense group-id index shared by every candidate query over the same
/// group-key set.
///
/// The candidate-evaluation hot loop evaluates thousands of query templates
/// (predicate combo x agg function x agg attribute) against the *same*
/// one-to-many join. The legacy executor re-encoded composite byte-string
/// keys and re-hashed every row for every candidate; a GroupIndex performs
/// that work exactly once per (relevant table, group-key set): each relevant
/// row gets a dense uint32 group id, and training rows are mapped to group
/// ids through the same canonical encoding. Candidates then aggregate into
/// flat per-group-id arrays with no hashing at all.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace featlib {

/// Normalizes IEEE negative zero so `-0.0` and `0.0` — equal as doubles but
/// distinct as bit patterns — encode to the same composite key bytes.
inline double NormalizeSignedZero(double v) { return v == 0.0 ? 0.0 : v; }

/// \brief Immutable mapping from rows to dense group ids for one group-key
/// set over one relevant table.
///
/// Group ids are assigned in first-seen row order over all rows whose key
/// cells are non-NULL, which makes downstream group orderings deterministic.
class GroupIndex {
 public:
  /// Sentinel for rows that belong to no group (a NULL key cell, or — for
  /// training rows — a key value that never occurs in the relevant table).
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  /// Scans `relevant` once and assigns every row a group id.
  static Result<GroupIndex> Build(const Table& relevant,
                                  const std::vector<std::string>& group_keys);

  size_t num_groups() const { return num_groups_; }
  size_t num_rows() const { return row_groups_.size(); }
  const std::vector<std::string>& group_keys() const { return group_keys_; }

  /// Group id per relevant row (kNoGroup where the key has a NULL cell).
  const std::vector<uint32_t>& row_groups() const { return row_groups_; }

  /// Maps each training row to its group id via the relevant table's
  /// canonical encoding (string key cells are translated through the
  /// relevant table's dictionary). kNoGroup where the row cannot join.
  /// Needs only the key map — works on key-map-only indexes from
  /// GroupIndexBuilder::Finish just as on fully built ones.
  Result<std::vector<uint32_t>> MapTrainingRows(const Table& training,
                                                const Table& relevant) const;

  /// A copy holding only the key map (row_groups() empty): all a frozen
  /// serving plan needs to map batch rows onto this index's group ids.
  GroupIndex KeyMapOnly() const;

  /// Actual heap footprint (row-group array + key-map nodes), the number
  /// charged against an ExecContext memory budget. Deterministic for a given
  /// build (walks the key map; O(num_groups)).
  size_t SizeBytes() const;

 private:
  friend class GroupIndexBuilder;

  GroupIndex() = default;

  std::vector<std::string> group_keys_;
  std::vector<uint32_t> row_groups_;
  /// Canonical key bytes -> dense group id (kept for training-row mapping).
  std::unordered_map<std::string, uint32_t> group_of_key_;
  size_t num_groups_ = 0;
};

/// \brief Incremental GroupIndex construction over row-range morsels of the
/// relevant table (see query/morsel.h).
///
/// AppendMorsel calls must cover the relevant table's morsels in ascending
/// row order; dense group ids are then assigned in exactly the first-seen
/// order GroupIndex::Build would produce over the whole table, which is what
/// keeps morsel-streamed per-group results byte-identical to the single-pass
/// path. Each call returns the morsel-local row→group mapping (the morsel's
/// slice of row_groups()) instead of retaining it, so the builder's memory
/// is bounded by the number of *groups*, never the number of rows.
///
/// Thread-safety: AppendMorsel mutates the key map and must be externally
/// serialized (the morsel pipeline runs builds one at a time); MapMorsel is
/// const and lookup-only, for re-streaming sweeps over a finished key space.
class GroupIndexBuilder {
 public:
  explicit GroupIndexBuilder(std::vector<std::string> group_keys)
      : group_keys_(std::move(group_keys)) {}

  /// Assigns (first-seen) group ids to one morsel's rows. `morsel` holds the
  /// morsel-local slice of the key columns; returned ids are indexed by
  /// morsel-local row.
  Result<std::vector<uint32_t>> AppendMorsel(const Table& morsel);

  /// Lookup-only mapping of one morsel's rows onto the already-built group
  /// space (second sweep of two-pass aggregates). Unknown keys map to
  /// GroupIndex::kNoGroup — with the same morsel sequence as the append
  /// sweep they cannot occur.
  Result<std::vector<uint32_t>> MapMorsel(const Table& morsel) const;

  size_t num_groups() const { return num_groups_; }

  /// Key-map heap bytes so far (same accounting as GroupIndex::SizeBytes).
  size_t SizeBytes() const;

  /// Moves the accumulated key map into a key-map-only GroupIndex:
  /// row_groups() is empty (per-row ids were streamed out by AppendMorsel),
  /// but MapTrainingRows and num_groups() work exactly as on a built index.
  /// The builder is consumed.
  GroupIndex Finish() &&;

 private:
  std::vector<std::string> group_keys_;
  std::unordered_map<std::string, uint32_t> group_of_key_;
  size_t num_groups_ = 0;
};

}  // namespace featlib
