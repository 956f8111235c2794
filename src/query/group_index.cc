#include "query/group_index.h"

#include <cstring>

namespace featlib {

namespace {

// Composite group keys are encoded as raw byte strings: 8 bytes per
// component. Int-backed columns contribute the value, string columns the
// dictionary code (canonicalized to the relevant table's dictionary), double
// columns the bit pattern of the signed-zero-normalized value.
void AppendComponent(int64_t v, std::string* out) {
  char buf[sizeof(int64_t)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(buf));
}

void AppendDoubleComponent(double v, std::string* out) {
  int64_t bits;
  const double norm = NormalizeSignedZero(v);
  std::memcpy(&bits, &norm, sizeof(bits));
  AppendComponent(bits, out);
}

bool EncodeKeyFromColumns(const std::vector<const Column*>& cols, size_t row,
                          std::string* out) {
  out->clear();
  for (const Column* col : cols) {
    if (col->IsNull(row)) return false;
    switch (col->type()) {
      case DataType::kInt64:
      case DataType::kDatetime:
      case DataType::kBool:
        AppendComponent(col->IntAt(row), out);
        break;
      case DataType::kString:
        AppendComponent(col->CodeAt(row), out);
        break;
      case DataType::kDouble:
        AppendDoubleComponent(col->DoubleAt(row), out);
        break;
    }
  }
  return true;
}

/// Heap bytes of one key-map entry: the key's character storage (composite
/// keys are 8 bytes per component, so they always spill std::string's SSO at
/// 2+ components — count the buffer unconditionally to stay deterministic
/// across libstdc++ SSO thresholds) plus node + bucket overhead.
size_t KeyMapEntryBytes(const std::string& key) {
  return key.size() + sizeof(std::string) + sizeof(uint32_t) +
         4 * sizeof(void*);
}

/// Whether two key columns are read with the same Column accessor (IntAt,
/// DoubleAt or CodeAt). The int-backed types share one storage.
bool SameKeyStorage(DataType a, DataType b) {
  auto storage = [](DataType t) {
    return t == DataType::kDouble ? 1 : t == DataType::kString ? 2 : 0;
  };
  return storage(a) == storage(b);
}

/// Resolves the group-key columns of one (morsel) table, in key order.
Result<std::vector<const Column*>> ResolveKeyColumns(
    const Table& table, const std::vector<std::string>& group_keys) {
  std::vector<const Column*> cols;
  cols.reserve(group_keys.size());
  for (const auto& k : group_keys) {
    FEAT_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(k));
    cols.push_back(col);
  }
  return cols;
}

}  // namespace

Result<GroupIndex> GroupIndex::Build(const Table& relevant,
                                     const std::vector<std::string>& group_keys) {
  GroupIndex out;
  out.group_keys_ = group_keys;
  std::vector<const Column*> key_cols;
  key_cols.reserve(group_keys.size());
  for (const auto& k : group_keys) {
    FEAT_ASSIGN_OR_RETURN(const Column* col, relevant.GetColumn(k));
    key_cols.push_back(col);
  }
  const size_t n = relevant.num_rows();
  out.row_groups_.assign(n, kNoGroup);
  out.group_of_key_.reserve(n / 4 + 1);
  std::string key;
  for (size_t row = 0; row < n; ++row) {
    if (!EncodeKeyFromColumns(key_cols, row, &key)) continue;
    auto [it, inserted] = out.group_of_key_.try_emplace(
        key, static_cast<uint32_t>(out.num_groups_));
    if (inserted) ++out.num_groups_;
    out.row_groups_[row] = it->second;
  }
  return out;
}

Result<std::vector<uint32_t>> GroupIndex::MapTrainingRows(
    const Table& training, const Table& relevant) const {
  // Per-key-column translator from the training table's representation to
  // the relevant table's canonical one (string codes differ across tables).
  struct KeyColumnPair {
    const Column* d_col;
    const Column* r_col;
    // For string columns: d_code -> r_code (-1 when absent from R).
    std::vector<int32_t> code_map;
  };
  std::vector<KeyColumnPair> pairs;
  pairs.reserve(group_keys_.size());
  for (const auto& k : group_keys_) {
    auto d_col = training.GetColumn(k);
    if (!d_col.ok()) {
      return Status::InvalidArgument("group key missing from training table: " + k);
    }
    FEAT_ASSIGN_OR_RETURN(const Column* r_col, relevant.GetColumn(k));
    KeyColumnPair p{d_col.value(), r_col, {}};
    // Training cells are read with the relevant column's accessor, which
    // aborts on a column of any other storage.
    if (!SameKeyStorage(p.d_col->type(), r_col->type())) {
      return Status::InvalidArgument("join key type mismatch on " + k);
    }
    if (r_col->type() == DataType::kString) {
      const auto& d_dict = p.d_col->dictionary();
      p.code_map.resize(d_dict.size());
      for (size_t i = 0; i < d_dict.size(); ++i) {
        p.code_map[i] = r_col->FindCode(d_dict[i]);
      }
    }
    pairs.push_back(std::move(p));
  }

  std::vector<uint32_t> out(training.num_rows(), kNoGroup);
  std::string key;
  for (size_t row = 0; row < training.num_rows(); ++row) {
    key.clear();
    bool valid = true;
    for (const KeyColumnPair& p : pairs) {
      if (p.d_col->IsNull(row)) {
        valid = false;
        break;
      }
      switch (p.r_col->type()) {
        case DataType::kInt64:
        case DataType::kDatetime:
        case DataType::kBool:
          AppendComponent(p.d_col->IntAt(row), &key);
          break;
        case DataType::kString: {
          const int32_t d_code = p.d_col->CodeAt(row);
          const int32_t r_code = p.code_map[static_cast<size_t>(d_code)];
          if (r_code < 0) {  // key value never occurs in R
            valid = false;
            break;
          }
          AppendComponent(r_code, &key);
          break;
        }
        case DataType::kDouble:
          AppendDoubleComponent(p.d_col->DoubleAt(row), &key);
          break;
      }
      if (!valid) break;
    }
    if (!valid) continue;
    auto it = group_of_key_.find(key);
    if (it != group_of_key_.end()) out[row] = it->second;
  }
  return out;
}

GroupIndex GroupIndex::KeyMapOnly() const {
  GroupIndex out;
  out.group_keys_ = group_keys_;
  out.group_of_key_ = group_of_key_;
  out.num_groups_ = num_groups_;
  return out;
}

size_t GroupIndex::SizeBytes() const {
  size_t bytes = row_groups_.capacity() * sizeof(uint32_t);
  for (const auto& [key, id] : group_of_key_) {
    (void)id;
    bytes += KeyMapEntryBytes(key);
  }
  return bytes;
}

Result<std::vector<uint32_t>> GroupIndexBuilder::AppendMorsel(
    const Table& morsel) {
  FEAT_ASSIGN_OR_RETURN(std::vector<const Column*> key_cols,
                        ResolveKeyColumns(morsel, group_keys_));
  const size_t n = morsel.num_rows();
  std::vector<uint32_t> out(n, GroupIndex::kNoGroup);
  std::string key;
  for (size_t row = 0; row < n; ++row) {
    if (!EncodeKeyFromColumns(key_cols, row, &key)) continue;
    auto [it, inserted] =
        group_of_key_.try_emplace(key, static_cast<uint32_t>(num_groups_));
    if (inserted) ++num_groups_;
    out[row] = it->second;
  }
  return out;
}

Result<std::vector<uint32_t>> GroupIndexBuilder::MapMorsel(
    const Table& morsel) const {
  FEAT_ASSIGN_OR_RETURN(std::vector<const Column*> key_cols,
                        ResolveKeyColumns(morsel, group_keys_));
  const size_t n = morsel.num_rows();
  std::vector<uint32_t> out(n, GroupIndex::kNoGroup);
  std::string key;
  for (size_t row = 0; row < n; ++row) {
    if (!EncodeKeyFromColumns(key_cols, row, &key)) continue;
    auto it = group_of_key_.find(key);
    if (it != group_of_key_.end()) out[row] = it->second;
  }
  return out;
}

size_t GroupIndexBuilder::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& [key, id] : group_of_key_) {
    (void)id;
    bytes += KeyMapEntryBytes(key);
  }
  return bytes;
}

GroupIndex GroupIndexBuilder::Finish() && {
  GroupIndex out;
  out.group_keys_ = std::move(group_keys_);
  out.group_of_key_ = std::move(group_of_key_);
  out.num_groups_ = num_groups_;
  return out;
}

}  // namespace featlib
