#include "query/morsel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "query/aggregate.h"
#include "query/bitset.h"
#include "query/kernel_dispatch.h"
#include "query/predicate.h"

namespace featlib {

namespace {

constexpr uint32_t kNoGroup = GroupIndex::kNoGroup;

double Nan() { return std::nan(""); }

/// Selected-row iteration in ascending row order — the same visit order as
/// the single-pass kernels' for_each_selected (query/kernels.cc), which the
/// bit-identity contract leans on.
template <typename Body>
void ForEachSelected(const Bitset* mask, size_t n_rows, Body&& body) {
  if (mask == nullptr) {
    for (size_t row = 0; row < n_rows; ++row) body(row);
  } else {
    mask->ForEachSetBit(body);
  }
}

// ---------------------------------------------------------------------------
// Combiners: one per candidate, folding morsel after morsel into per-group
// accumulator state. Each family replicates one oracle code path *exactly*
// (same accumulation expressions, same row order, same finalize gates), so a
// morsel-streamed result is byte-identical to the single-pass kernels at any
// morsel size. State is bounded by the number of groups, never rows — except
// the buffer family, whose oracle (MODE/MAD/MEDIAN) is inherently holistic.
// ---------------------------------------------------------------------------

/// Per-candidate streaming accumulator over morsels.
///
/// Thread-safety: a combiner is owned by exactly one candidate; the combine
/// fan-out runs disjoint candidates on disjoint combiners, reading shared
/// immutable MorselData. Grow/Absorb are called once per morsel in morsel
/// order; StateBytes must be O(1) (it is polled every morsel for the
/// memory-budget accounting).
class Combiner {
 public:
  virtual ~Combiner() = default;

  /// True for two-pass aggregates (VAR family, KURTOSIS): the pipeline
  /// re-streams every morsel a second time after BeginSecondSweep().
  virtual bool NeedsSecondSweep() const { return false; }

  /// Extends per-group state to `n_groups` (the builder's running group
  /// count after the current morsel; monotone across morsels).
  virtual void Grow(size_t n_groups) = 0;

  /// Transition from sweep 1 accumulators to sweep 2 state (e.g. means).
  virtual void BeginSecondSweep() {}

  /// Folds one morsel's rows in. `row_groups`/`mask`/`view` are morsel-local
  /// (row indices in [0, n_rows)); group ids are global.
  virtual void Absorb(int sweep, const uint32_t* row_groups, size_t n_rows,
                      const Bitset* mask, const double* view) = 0;

  /// Per-group feature values over the final group space.
  virtual std::vector<double> Finalize(size_t n_groups) = 0;

  /// Current accumulator heap bytes (O(1); incrementally tracked).
  virtual size_t StateBytes() const = 0;
};

/// Shared presence/value tallies + the streaming skeleton of
/// AggregateStreaming: per selected row, count presence, then forward the
/// non-null value. Exactly the `stream` lambda of query/kernels.cc.
class TallyCombiner : public Combiner {
 public:
  void Grow(size_t n_groups) override {
    if (n_groups > present_.size()) {
      present_.resize(n_groups, 0);
      value_count_.resize(n_groups, 0);
      GrowState(n_groups);
    }
  }

 protected:
  virtual void GrowState(size_t n_groups) = 0;

  template <typename OnValue>
  void Stream(const uint32_t* row_groups, size_t n_rows, const Bitset* mask,
              const double* view, OnValue&& on_value) {
    ForEachSelected(mask, n_rows, [&](size_t row) {
      const uint32_t g = row_groups[row];
      if (g == kNoGroup) return;
      ++present_[g];
      if (view == nullptr) return;
      const double v = view[row];
      if (std::isnan(v)) return;  // null cell
      ++value_count_[g];
      on_value(g, v);
    });
  }

  size_t TallyBytes() const {
    return (present_.size() + value_count_.size()) * sizeof(uint32_t);
  }

  std::vector<uint32_t> present_;
  std::vector<uint32_t> value_count_;
};

/// COUNT(*) / COUNT(attr): presence or non-null tally.
class CountCombiner final : public TallyCombiner {
 public:
  explicit CountCombiner(bool has_attr) : has_attr_(has_attr) {}

  void Absorb(int, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    Stream(row_groups, n_rows, mask, view, [](uint32_t, double) {});
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      if (present_[g] == 0) continue;
      feature[g] =
          static_cast<double>(has_attr_ ? value_count_[g] : present_[g]);
    }
    return feature;
  }

  size_t StateBytes() const override { return TallyBytes(); }

 private:
  void GrowState(size_t) override {}

  const bool has_attr_;
};

/// SUM / AVG: one left-to-right running sum per group (the carried
/// accumulator sees the exact value sequence of the single pass).
class SumAvgCombiner final : public TallyCombiner {
 public:
  explicit SumAvgCombiner(bool avg) : avg_(avg) {}

  void Absorb(int, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    Stream(row_groups, n_rows, mask, view,
           [&](uint32_t g, double v) { sum_[g] += v; });
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      if (present_[g] == 0 || value_count_[g] == 0) continue;
      feature[g] =
          avg_ ? sum_[g] / static_cast<double>(value_count_[g]) : sum_[g];
    }
    return feature;
  }

  size_t StateBytes() const override {
    return TallyBytes() + sum_.size() * sizeof(double);
  }

 private:
  void GrowState(size_t n_groups) override { sum_.resize(n_groups, 0.0); }

  const bool avg_;
  std::vector<double> sum_;
};

/// MIN / MAX: the streaming kernel's first-value-or-better test, with
/// value_count_ already incremented for the current value (same as the
/// kernel, where the tally precedes on_value).
class MinMaxCombiner final : public TallyCombiner {
 public:
  explicit MinMaxCombiner(bool is_min) : is_min_(is_min) {}

  void Absorb(int, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    Stream(row_groups, n_rows, mask, view, [&](uint32_t g, double v) {
      if (value_count_[g] == 1 || (is_min_ ? v < best_[g] : v > best_[g])) {
        best_[g] = v;
      }
    });
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      if (present_[g] > 0 && value_count_[g] > 0) feature[g] = best_[g];
    }
    return feature;
  }

  size_t StateBytes() const override {
    return TallyBytes() + best_.size() * sizeof(double);
  }

 private:
  void GrowState(size_t n_groups) override { best_.resize(n_groups, 0.0); }

  const bool is_min_;
  std::vector<double> best_;
};

/// VAR / VAR_SAMPLE / STD / STD_SAMPLE: the streaming kernel is two-pass
/// (global means first), so this combiner drives the pipeline's second
/// sweep — sweep 1 accumulates sums, sweep 2 squared deviations against the
/// means, both in global row order.
class VarCombiner final : public TallyCombiner {
 public:
  VarCombiner(bool sample, bool std_dev) : sample_(sample), std_dev_(std_dev) {}

  bool NeedsSecondSweep() const override { return true; }

  void BeginSecondSweep() override {
    mean_ = sum_;
    for (size_t g = 0; g < mean_.size(); ++g) {
      if (value_count_[g] > 0) {
        mean_[g] /= static_cast<double>(value_count_[g]);
      }
    }
    ss_.assign(mean_.size(), 0.0);
  }

  void Absorb(int sweep, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    if (sweep == 1) {
      Stream(row_groups, n_rows, mask, view,
             [&](uint32_t g, double v) { sum_[g] += v; });
      return;
    }
    if (view == nullptr) return;
    // Second pass: no re-tallying (the kernel's second loop bypasses the
    // stream skeleton too), same deviation expression, same row order.
    ForEachSelected(mask, n_rows, [&](size_t row) {
      const uint32_t g = row_groups[row];
      if (g == kNoGroup) return;
      const double v = view[row];
      if (std::isnan(v)) return;
      const double d = v - mean_[g];
      ss_[g] += d * d;
    });
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      const size_t cnt = value_count_[g];
      if (present_[g] == 0 || cnt == 0 || (sample_ && cnt < 2)) continue;
      const double denom =
          sample_ ? static_cast<double>(cnt - 1) : static_cast<double>(cnt);
      const double var = ss_[g] / denom;
      feature[g] = std_dev_ ? std::sqrt(var) : var;
    }
    return feature;
  }

  size_t StateBytes() const override {
    return TallyBytes() +
           (sum_.size() + mean_.size() + ss_.size()) * sizeof(double);
  }

 private:
  void GrowState(size_t n_groups) override { sum_.resize(n_groups, 0.0); }

  const bool sample_;
  const bool std_dev_;
  std::vector<double> sum_;
  std::vector<double> mean_;
  std::vector<double> ss_;
};

/// KURTOSIS: the oracle (ComputeAggregate) is two-pass over the group's
/// value slice — mean, then central 2nd/4th moments with the exact
/// expression shape `d*d` / `d*d*d*d` — reproduced here across morsels.
class KurtosisCombiner final : public TallyCombiner {
 public:
  bool NeedsSecondSweep() const override { return true; }

  void BeginSecondSweep() override {
    mean_ = sum_;
    for (size_t g = 0; g < mean_.size(); ++g) {
      if (value_count_[g] > 0) {
        mean_[g] /= static_cast<double>(value_count_[g]);
      }
    }
    m2_.assign(mean_.size(), 0.0);
    m4_.assign(mean_.size(), 0.0);
  }

  void Absorb(int sweep, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    if (sweep == 1) {
      Stream(row_groups, n_rows, mask, view,
             [&](uint32_t g, double v) { sum_[g] += v; });
      return;
    }
    if (view == nullptr) return;
    ForEachSelected(mask, n_rows, [&](size_t row) {
      const uint32_t g = row_groups[row];
      if (g == kNoGroup) return;
      const double v = view[row];
      if (std::isnan(v)) return;
      const double d = v - mean_[g];
      m2_[g] += d * d;
      m4_[g] += d * d * d * d;
    });
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      const size_t cnt = value_count_[g];
      if (present_[g] == 0 || cnt < 2) continue;
      const double m2 = m2_[g] / static_cast<double>(cnt);
      const double m4 = m4_[g] / static_cast<double>(cnt);
      if (m2 <= 0.0) continue;
      feature[g] = m4 / (m2 * m2) - 3.0;  // excess kurtosis
    }
    return feature;
  }

  size_t StateBytes() const override {
    return TallyBytes() +
           (sum_.size() + mean_.size() + m2_.size() + m4_.size()) *
               sizeof(double);
  }

 private:
  void GrowState(size_t n_groups) override { sum_.resize(n_groups, 0.0); }

  std::vector<double> sum_;
  std::vector<double> mean_;
  std::vector<double> m2_;
  std::vector<double> m4_;
};

/// COUNT_DISTINCT / ENTROPY: per-group ordered value->count map. The oracle
/// sorts the slice and scans equal-value runs; both outputs depend only on
/// the run counts in ascending value order, which is exactly what std::map
/// holds (operator< merges -0.0/0.0 like sorted equality does, and views
/// never contain NaN — null cells are skipped before insertion). Memory is
/// bounded by distinct values, not rows.
class CountMapCombiner final : public TallyCombiner {
 public:
  explicit CountMapCombiner(bool entropy) : entropy_(entropy) {}

  void Absorb(int, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    Stream(row_groups, n_rows, mask, view, [&](uint32_t g, double v) {
      auto [it, inserted] = maps_[g].try_emplace(v, 0);
      ++it->second;
      if (inserted) ++entries_;
    });
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      if (present_[g] == 0) continue;
      if (!entropy_) {
        // COUNT_DISTINCT of an empty slice is 0, not NaN (oracle semantics:
        // the group was selected, it just has no non-null values).
        feature[g] = static_cast<double>(maps_[g].size());
        continue;
      }
      const size_t n = value_count_[g];
      if (n == 0) continue;  // ENTROPY of an empty slice is NaN
      double h = 0.0;
      for (const auto& [value, count] : maps_[g]) {
        (void)value;
        const double p =
            static_cast<double>(count) / static_cast<double>(n);
        h -= p * std::log(p);
      }
      feature[g] = h;
    }
    return feature;
  }

  size_t StateBytes() const override {
    // ~rb-tree node: payload + 3 pointers + color word.
    constexpr size_t kNodeBytes =
        sizeof(std::pair<const double, uint32_t>) + 4 * sizeof(void*);
    return TallyBytes() +
           maps_.size() * sizeof(std::map<double, uint32_t>) +
           entries_ * kNodeBytes;
  }

 private:
  void GrowState(size_t n_groups) override { maps_.resize(n_groups); }

  const bool entropy_;
  std::vector<std::map<double, uint32_t>> maps_;
  size_t entries_ = 0;
};

/// MODE / MAD / MEDIAN: holistic aggregates whose oracle sorts (or
/// re-orders) a copy of the whole slice — no sublinear merge exists that
/// stays bit-identical (e.g. MODE of mixed -0.0/0.0 returns whatever bit
/// pattern the unstable sort left last in the winning run). The combiner
/// therefore rebuilds the slice: values append in global row order, so the
/// finalize input is byte-identical to the single-pass materialized slice.
class BufferCombiner final : public TallyCombiner {
 public:
  explicit BufferCombiner(AggFunction fn) : fn_(fn) {}

  void Absorb(int, const uint32_t* row_groups, size_t n_rows,
              const Bitset* mask, const double* view) override {
    Stream(row_groups, n_rows, mask, view, [&](uint32_t g, double v) {
      buffers_[g].push_back(v);
      ++values_;
    });
  }

  std::vector<double> Finalize(size_t n_groups) override {
    std::vector<double> feature(n_groups, Nan());
    for (size_t g = 0; g < n_groups; ++g) {
      if (present_[g] == 0) continue;
      feature[g] = ComputeAggregate(fn_, buffers_[g]);
    }
    return feature;
  }

  size_t StateBytes() const override {
    return TallyBytes() +
           buffers_.size() * sizeof(std::vector<double>) +
           values_ * sizeof(double);
  }

 private:
  void GrowState(size_t n_groups) override { buffers_.resize(n_groups); }

  const AggFunction fn_;
  std::vector<std::vector<double>> buffers_;
  size_t values_ = 0;
};

std::unique_ptr<Combiner> MakeCombiner(AggFunction fn, bool has_attr) {
  switch (fn) {
    case AggFunction::kCount:
      return std::make_unique<CountCombiner>(has_attr);
    case AggFunction::kSum:
      return std::make_unique<SumAvgCombiner>(/*avg=*/false);
    case AggFunction::kAvg:
      return std::make_unique<SumAvgCombiner>(/*avg=*/true);
    case AggFunction::kMin:
      return std::make_unique<MinMaxCombiner>(/*is_min=*/true);
    case AggFunction::kMax:
      return std::make_unique<MinMaxCombiner>(/*is_min=*/false);
    case AggFunction::kVar:
      return std::make_unique<VarCombiner>(false, false);
    case AggFunction::kVarSample:
      return std::make_unique<VarCombiner>(true, false);
    case AggFunction::kStd:
      return std::make_unique<VarCombiner>(false, true);
    case AggFunction::kStdSample:
      return std::make_unique<VarCombiner>(true, true);
    case AggFunction::kKurtosis:
      return std::make_unique<KurtosisCombiner>();
    case AggFunction::kCountDistinct:
      return std::make_unique<CountMapCombiner>(/*entropy=*/false);
    case AggFunction::kEntropy:
      return std::make_unique<CountMapCombiner>(/*entropy=*/true);
    case AggFunction::kMode:
    case AggFunction::kMad:
    case AggFunction::kMedian:
      return std::make_unique<BufferCombiner>(fn);
  }
  return std::make_unique<CountCombiner>(has_attr);  // unreachable
}

// ---------------------------------------------------------------------------
// Compiled batch: artifact specs deduplicated across candidates (same
// sharing structure as the planner's GroupReq/MaskReq/ViewReq DAG) plus one
// combiner per candidate.
// ---------------------------------------------------------------------------

struct GroupSpec {
  explicit GroupSpec(std::vector<std::string> keys)
      : builder(std::move(keys)) {}
  GroupIndexBuilder builder;
};

struct FilterSpec {
  std::vector<Predicate> preds;  // active (non-trivial) conjuncts
};

struct ViewSpec {
  std::string attr;
};

struct CandPlan {
  size_t slot = 0;  // index into queries / slot_errors / result vectors
  size_t group = 0;
  ptrdiff_t filter = -1;  // -1 = unfiltered
  ptrdiff_t view = -1;    // -1 = COUNT(*) without an agg attribute
  std::unique_ptr<Combiner> combiner;
  bool failed = false;
  Status error;  // merge-fault slot for the current morsel (disjoint writes)
};

/// Artifacts of one in-flight morsel, indexed by spec position.
struct MorselData {
  size_t rows = 0;
  std::vector<std::vector<uint32_t>> row_groups;  // per group spec
  std::vector<size_t> num_groups_after;           // builder count per spec
  std::vector<Bitset> masks;                      // per filter spec
  std::vector<std::vector<double>> views;         // per view spec
};

}  // namespace

MorselSet MorselSet::Split(size_t n_rows, size_t morsel_rows) {
  MorselSet set;
  if (n_rows == 0) return set;
  const size_t step = morsel_rows == 0 ? n_rows : morsel_rows;
  set.morsels_.reserve((n_rows + step - 1) / step);
  for (size_t begin = 0; begin < n_rows; begin += step) {
    set.morsels_.push_back(Morsel{begin, std::min(begin + step, n_rows)});
  }
  return set;
}

std::vector<double> ScatterPerGroup(const std::vector<double>& per_group,
                                    const std::vector<uint32_t>& train_map) {
  std::vector<double> out(train_map.size(), Nan());
  for (size_t row = 0; row < train_map.size(); ++row) {
    const uint32_t g = train_map[row];
    if (g != kNoGroup) out[row] = per_group[g];
  }
  return out;
}

Result<MorselResult> ExecuteMorsels(const std::vector<AggQuery>& queries,
                                    const Table& relevant,
                                    const MorselOptions& options,
                                    std::vector<Status>* slot_errors) {
  const bool isolated = slot_errors != nullptr;
  if (isolated) slot_errors->assign(queries.size(), Status::OK());
  const ExecContext* ctx = options.ctx;
  const KernelOps& ops =
      options.ops != nullptr ? *options.ops : ResolveKernelOps(KernelBackend::kAuto);

  // --- Compile: validate, dedup group/filter/view specs, build combiners.
  std::vector<GroupSpec> group_specs;
  std::vector<FilterSpec> filter_specs;
  std::vector<ViewSpec> view_specs;
  std::vector<CandPlan> cands;
  std::unordered_map<std::string, size_t> group_of, filter_of, view_of;
  std::vector<std::pair<std::string, const Column*>> needed_cols;
  std::unordered_map<std::string, size_t> col_of;

  auto need_column = [&](const std::string& name) -> Status {
    if (col_of.emplace(name, needed_cols.size()).second) {
      FEAT_ASSIGN_OR_RETURN(const Column* col, relevant.GetColumn(name));
      needed_cols.emplace_back(name, col);
    }
    return Status::OK();
  };

  for (size_t slot = 0; slot < queries.size(); ++slot) {
    const AggQuery& q = queries[slot];
    Status st = q.Validate(relevant);
    std::vector<Predicate> active;
    if (st.ok()) {
      for (const Predicate& p : q.predicates) {
        if (!p.IsTrivial()) active.push_back(p);
      }
      // Bind once up front so a bad filter (type mismatch) fails its
      // candidate at compile time, not mid-pipeline as a batch error.
      if (!active.empty()) st = CompiledFilter::Compile(active, relevant).status();
    }
    if (!st.ok()) {
      if (!isolated) return st;
      (*slot_errors)[slot] = std::move(st);
      continue;
    }

    CandPlan cand;
    cand.slot = slot;
    const std::string group_key = StrJoin(q.group_keys, "\x1f");
    if (auto [it, inserted] = group_of.try_emplace(group_key, group_specs.size());
        inserted) {
      cand.group = group_specs.size();
      group_specs.emplace_back(q.group_keys);
    } else {
      cand.group = it->second;
    }
    for (const std::string& k : q.group_keys) FEAT_RETURN_NOT_OK(need_column(k));

    if (!active.empty()) {
      std::vector<std::string> pred_keys;
      pred_keys.reserve(active.size());
      for (const Predicate& p : active) pred_keys.push_back(p.CacheKey());
      const std::string filter_key = StrJoin(pred_keys, "\x1d");
      if (auto [it, inserted] =
              filter_of.try_emplace(filter_key, filter_specs.size());
          inserted) {
        cand.filter = static_cast<ptrdiff_t>(filter_specs.size());
        filter_specs.push_back(FilterSpec{active});
      } else {
        cand.filter = static_cast<ptrdiff_t>(it->second);
      }
      for (const Predicate& p : active) FEAT_RETURN_NOT_OK(need_column(p.attr));
    }

    if (!q.agg_attr.empty()) {
      if (auto [it, inserted] = view_of.try_emplace(q.agg_attr, view_specs.size());
          inserted) {
        cand.view = static_cast<ptrdiff_t>(view_specs.size());
        view_specs.push_back(ViewSpec{q.agg_attr});
      } else {
        cand.view = static_cast<ptrdiff_t>(it->second);
      }
      FEAT_RETURN_NOT_OK(need_column(q.agg_attr));
    }

    cand.combiner = MakeCombiner(q.agg, !q.agg_attr.empty());
    cands.push_back(std::move(cand));
  }

  MorselResult result;
  result.per_group.resize(queries.size());
  result.candidate_group.assign(queries.size(), MorselResult::kNoGroupSpec);
  MorselExecStats& stats = result.stats;

  const MorselSet set = MorselSet::Split(relevant.num_rows(), options.morsel_rows);
  stats.morsels = set.size();

  bool needs_sweep2 = false;
  for (const CandPlan& c : cands) {
    needs_sweep2 = needs_sweep2 || c.combiner->NeedsSecondSweep();
  }

  // --- Memory accounting: morsel artifacts charge/release per in-flight
  // morsel; combiner-state growth charges incrementally and stays. The
  // executor mirrors every ExecContext charge into its own peak tracker so
  // stats are meaningful without a context.
  size_t bytes_per_row = 0;
  for (const auto& [name, col] : needed_cols) {
    (void)name;
    bytes_per_row += 1 /*validity byte*/ +
                     (col->type() == DataType::kString ? sizeof(int32_t)
                                                       : sizeof(int64_t));
  }
  bytes_per_row += group_specs.size() * sizeof(uint32_t) +
                   view_specs.size() * sizeof(double);
  auto estimate_bytes = [&](size_t rows) {
    return rows * bytes_per_row + filter_specs.size() * (rows / 8 + 16);
  };
  size_t tracked_now = 0;
  auto charge_tracked = [&](size_t bytes) -> Status {
    FEAT_RETURN_NOT_OK(ExecContext::ChargeFor(ctx, bytes));
    tracked_now += bytes;
    stats.peak_artifact_bytes = std::max(stats.peak_artifact_bytes, tracked_now);
    return Status::OK();
  };
  auto release_tracked = [&](size_t bytes) {
    ExecContext::ReleaseFor(ctx, bytes);
    tracked_now -= std::min(bytes, tracked_now);
  };
  size_t state_charged = 0;
  auto charge_state_growth = [&]() -> Status {
    size_t state_now = 0;
    for (const CandPlan& c : cands) {
      if (!c.failed) state_now += c.combiner->StateBytes();
    }
    if (state_now > state_charged) {
      FEAT_RETURN_NOT_OK(charge_tracked(state_now - state_charged));
      state_charged = state_now;
    }
    return Status::OK();
  };

  // --- Build one morsel's artifacts. Builds are strictly sequential (the
  // group-id first-seen order across morsels is the determinism contract),
  // on the caller thread.
  auto build_morsel = [&](int sweep, const Morsel& m) -> Result<MorselData> {
    FEAT_RETURN_NOT_OK(FaultPoint("morsel.build"));
    std::vector<uint32_t> idx(m.rows());
    std::iota(idx.begin(), idx.end(), static_cast<uint32_t>(m.begin));
    Table sub;
    for (const auto& [name, col] : needed_cols) {
      FEAT_RETURN_NOT_OK(sub.AddColumn(name, col->Take(idx)));
    }
    MorselData md;
    md.rows = m.rows();
    md.row_groups.reserve(group_specs.size());
    md.num_groups_after.reserve(group_specs.size());
    for (GroupSpec& gs : group_specs) {
      FEAT_ASSIGN_OR_RETURN(std::vector<uint32_t> ids,
                            sweep == 1 ? gs.builder.AppendMorsel(sub)
                                       : gs.builder.MapMorsel(sub));
      md.row_groups.push_back(std::move(ids));
      md.num_groups_after.push_back(gs.builder.num_groups());
    }
    md.masks.reserve(filter_specs.size());
    for (const FilterSpec& fs : filter_specs) {
      FEAT_ASSIGN_OR_RETURN(CompiledFilter filter,
                            CompiledFilter::Compile(fs.preds, sub));
      Bitset bits(md.rows);
      ops.build_filter_mask(filter, &bits);
      md.masks.push_back(std::move(bits));
    }
    md.views.reserve(view_specs.size());
    for (const ViewSpec& vs : view_specs) {
      FEAT_ASSIGN_OR_RETURN(const Column* col, sub.GetColumn(vs.attr));
      std::vector<double> view(md.rows);
      for (size_t row = 0; row < md.rows; ++row) view[row] = col->AsDouble(row);
      md.views.push_back(std::move(view));
    }
    return md;
  };

  // --- Fold one morsel into every live combiner (parallel across
  // candidates: disjoint combiners, shared immutable MorselData).
  auto combine_morsel = [&](int sweep, const MorselData& md) -> Status {
    auto run_one = [&](size_t i) {
      CandPlan& c = cands[i];
      if (c.failed) return;
      if (sweep == 2 && !c.combiner->NeedsSecondSweep()) return;
      Status st = FaultPoint("morsel.merge");
      if (!st.ok()) {
        c.error = std::move(st);
        return;
      }
      c.combiner->Grow(md.num_groups_after[c.group]);
      const Bitset* mask = c.filter >= 0 ? &md.masks[c.filter] : nullptr;
      const double* view = c.view >= 0 ? md.views[c.view].data() : nullptr;
      c.combiner->Absorb(sweep, md.row_groups[c.group].data(), md.rows, mask,
                         view);
    };
    if (options.pool != nullptr) {
      FEAT_RETURN_NOT_OK(options.pool->ParallelFor(cands.size(), run_one, 0, ctx));
    } else {
      for (size_t i = 0; i < cands.size(); ++i) run_one(i);
    }
    for (CandPlan& c : cands) {
      if (c.error.ok()) continue;
      Status err = std::move(c.error);
      c.error = Status::OK();
      if (!isolated) return err;
      // A partially-absorbed candidate is unusable; siblings are untouched
      // (disjoint combiners), so only this slot fails.
      (*slot_errors)[c.slot] = std::move(err);
      c.failed = true;
    }
    return Status::OK();
  };

  // --- The loop: for each sweep, run morsels in order — charge, build,
  // combine, release — so only one morsel's artifacts are alive at a time.
  auto run_sweep = [&](int sweep) -> Status {
    for (const Morsel& m : set.morsels()) {
      FEAT_RETURN_NOT_OK(ExecContext::CheckFor(ctx));
      const size_t morsel_bytes = estimate_bytes(m.rows());
      FEAT_RETURN_NOT_OK(charge_tracked(morsel_bytes));
      WallTimer timer;
      FEAT_ASSIGN_OR_RETURN(MorselData md, build_morsel(sweep, m));
      stats.build_seconds += timer.Seconds();
      timer.Restart();
      Status combine_st = combine_morsel(sweep, md);
      stats.combine_seconds += timer.Seconds();
      release_tracked(morsel_bytes);
      FEAT_RETURN_NOT_OK(combine_st);
      FEAT_RETURN_NOT_OK(charge_state_growth());
    }
    return Status::OK();
  };

  if (!set.empty() && !cands.empty()) {
    stats.sweeps = 1;
    FEAT_RETURN_NOT_OK(run_sweep(1));
    if (needs_sweep2) {
      stats.sweeps = 2;
      for (CandPlan& c : cands) {
        if (!c.failed && c.combiner->NeedsSecondSweep()) {
          c.combiner->BeginSecondSweep();
        }
      }
      FEAT_RETURN_NOT_OK(charge_state_growth());
      FEAT_RETURN_NOT_OK(run_sweep(2));
    }
  }

  // --- Finalize: per-group features, then the key-map-only group indexes.
  size_t feature_bytes = 0;
  for (CandPlan& c : cands) {
    if (c.failed) continue;
    result.per_group[c.slot] =
        c.combiner->Finalize(group_specs[c.group].builder.num_groups());
    result.candidate_group[c.slot] = c.group;
    feature_bytes += result.per_group[c.slot].size() * sizeof(double);
  }
  FEAT_RETURN_NOT_OK(charge_tracked(feature_bytes));
  release_tracked(state_charged);  // accumulators die with the combiners
  result.group_indexes.reserve(group_specs.size());
  for (GroupSpec& gs : group_specs) {
    FEAT_RETURN_NOT_OK(charge_tracked(gs.builder.SizeBytes()));
    result.group_indexes.push_back(
        std::make_shared<const GroupIndex>(std::move(gs.builder).Finish()));
  }
  return result;
}

}  // namespace featlib
