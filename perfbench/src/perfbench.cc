/// \file perfbench.cc
/// \brief End-to-end benchmark binary, one mode per process:
///
///   perfbench env
///   perfbench gen   --dir=D --seed=N --fit-seed=N --fit-rows=.. --fit-logs=..
///                   --serve-entities=.. --serve-logs=.. --score-entities=..
///                   --score-logs=.. --open-rate=.. --open-seconds=..
///   perfbench fit   --dir=D --model=XGB|LR --seed=N --seconds=S --trace=0|1 --out=F
///   perfbench serve --dir=D --clients=N --closed-seconds=S --open-seconds=S
///                   --trace=0|1 --out=F
///   perfbench score --dir=D --seconds=S --trace=0|1 --out=F
///
/// Every timed mode also takes --setup-repeats=N (default 3).
///
/// `gen` writes every input (D, R, plans, serve batches, the open-loop
/// arrival schedule) to files under D before any timing starts; the timed
/// modes read only those files. Each timed mode writes one JSON object of
/// raw samples, program counters, output-check results and (with
/// --trace=1) spans to --out; perfbench/run.py turns them into metrics.
/// Timed modes run in their own process so each reports its own peak RSS.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/config.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/augmenter.h"
#include "core/codec.h"
#include "core/plan_io.h"
#include "data/synthetic.h"
#include "hpo/tpe.h"
#include "ml/evaluator.h"
#include "query/kernel_dispatch.h"
#include "query/query_planner.h"
#include "serve/client.h"
#include "serve/plan_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "table/csv.h"

namespace featlib {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kPlanName = "bench";
constexpr size_t kServeBatchRows = 32;
constexpr size_t kServeBatchPool = 256;
constexpr size_t kScoreBatchRows = 4096;
constexpr size_t kScoreMorselRows = 65536;
constexpr size_t kPlanQueries = 20;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

template <typename T>
T OrDie(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).ValueOrDie();
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what, st);
}

// ---------------------------------------------------------------- flags

struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  double Num(const std::string& key, double def) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::atof(it->second.c_str());
  }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench: bad flag %s\n", arg.c_str());
      std::exit(2);
    }
    flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

/// How many times a timed mode repeats its set-up; setup_s is their median.
int SetupRepeats(const Flags& flags) {
  return std::max(1, static_cast<int>(flags.Num("setup-repeats", 3)));
}

// ---------------------------------------------------------------- JSON out

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Flat JSON object writer: scalars, number arrays and raw sub-objects.
class JsonOut {
 public:
  void Add(const std::string& key, double v) { Field(key, Num(v)); }
  void Add(const std::string& key, const std::string& v) {
    Field(key, "\"" + JsonEscape(v) + "\"");
  }
  void Add(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) s += ",";
      s += Num(vs[i]);
    }
    Field(key, s + "]");
  }
  void AddRaw(const std::string& key, const std::string& raw) {
    Field(key, raw);
  }
  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  void Field(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + JsonEscape(key) + "\":" + rendered;
  }
  std::string body_;
};

void WriteOut(const Flags& flags, const JsonOut& out) {
  const std::string path = flags.Get("out");
  std::ofstream f(path, std::ios::trunc);
  f << out.ToString() << "\n";
  if (!f.good()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Spans are recorded only
/// from the thread that runs the per-layer probes, so no locking; they are
/// written out when the mode ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t Begin(const std::string& name, int64_t request_id = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request_id = request_id;
    s.start_us = NowUs();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  void End(int64_t id) {
    if (!enabled_ || id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  std::string ToJson() const {
    std::string s = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      if (i > 0) s += ",";
      s += "{\"name\":\"" + JsonEscape(sp.name) + "\",\"id\":" +
           std::to_string(sp.id) + ",\"parent\":" + std::to_string(sp.parent) +
           ",\"request_id\":" + std::to_string(sp.request_id) +
           ",\"start_us\":" + Num(sp.start_us) + ",\"end_us\":" +
           Num(sp.end_us) + "}";
    }
    return s + "]";
  }

 private:
  struct Span {
    std::string name;
    int64_t id = -1;
    int64_t parent = -1;
    int64_t request_id = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request_id = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---------------------------------------------------------------- inputs

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string JoinList(const std::vector<std::string>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += v[i];
  }
  return out;
}

std::map<std::string, std::string> ReadKeyValues(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::ifstream f(path);
  if (!f.good()) Die("read " + path, Status::IOError("cannot open"));
  std::string line;
  while (std::getline(f, line)) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

/// Twenty queries over the Tmall log schema. The plan's shape is fixed so
/// its cost does not swing with the seed: queries 0-14 cover the fifteen
/// aggregates once and 15-19 repeat five of them, aggregation attributes
/// and compound group keys follow a fixed pattern, and query i carries
/// i % 3 predicates. The seed picks each predicate's attribute and operand:
/// an equality on a value that occurs in `relevant`, or a range spanning
/// 40% of the attribute's observed domain at a random offset.
AugmentationPlan MakeServingPlan(const Table& relevant, uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> agg_attrs = {"pprice", "quantity", "discount",
                                              "hour",   "dwell",    "pages"};
  const std::vector<std::string> equal_attrs = {"category", "action",
                                                "channel"};
  const std::vector<std::string> range_attrs = {"weekday", "ts", "hour"};
  const std::vector<AggFunction> all = AllAggFunctions();
  const size_t n = relevant.num_rows();
  AugmentationPlan plan;
  for (size_t i = 0; i < kPlanQueries; ++i) {
    AggQuery q;
    q.agg = all[(i < all.size() ? i : i * 4) % all.size()];
    q.agg_attr = agg_attrs[(i * 5) % agg_attrs.size()];
    q.group_keys = i % 4 == 3
                       ? std::vector<std::string>{"user_id", "merchant_id"}
                       : std::vector<std::string>{"user_id"};
    for (size_t p = 0; p < i % 3; ++p) {
      const bool equal = (i + p) % 2 == 0;
      const auto& pool = equal ? equal_attrs : range_attrs;
      std::string attr = pool[rng.UniformInt(pool.size())];
      for (const Predicate& prev : q.predicates) {
        if (prev.attr == attr) attr = pool[(std::find(pool.begin(), pool.end(), attr) -
                                            pool.begin() + 1) % pool.size()];
      }
      const Column& col = *OrDie(relevant.GetColumn(attr), "plan column");
      if (equal) {
        q.predicates.push_back(Predicate::Equals(
            attr, Value::Str(col.StringAt(rng.UniformInt(n)))));
      } else {
        const auto [lo, hi] = OrDie(col.MinMaxAsDouble(), "plan domain");
        const double width = 0.4 * (hi - lo);
        const double start = lo + rng.Uniform() * (hi - lo - width);
        q.predicates.push_back(Predicate::Range(attr, std::floor(start),
                                                std::ceil(start + width)));
      }
    }
    plan.queries.push_back(std::move(q));
    plan.feature_names.push_back("q" + std::to_string(i) + "_" +
                                 AggFunctionName(plan.queries.back().agg));
    plan.valid_metrics.push_back(0.5);
  }
  return plan;
}

/// Writes `table` as WriteCsv does, byte for byte (`%lld` integers, `%.17g`
/// doubles, the same quoting), but through std::to_chars into one buffer:
/// input generation is untimed, and WriteCsv's per-field formatting made it
/// a large share of a run on the big tables.
void WriteCsvFast(const Table& table, const std::string& path) {
  auto quote = [](const std::string& s, std::string* out) {
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
      *out += s;
      return;
    }
    *out += '"';
    for (char c : s) {
      if (c == '"') *out += '"';
      *out += c;
    }
    *out += '"';
  };
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ',';
    quote(table.NameAt(c), &out);
  }
  out += '\n';
  char buf[64];
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      const Column& col = table.ColumnAt(c);
      if (col.IsNull(r)) continue;
      switch (col.type()) {
        case DataType::kInt64:
        case DataType::kDatetime:
        case DataType::kBool:
          out.append(buf, std::to_chars(buf, buf + sizeof(buf), col.IntAt(r)).ptr);
          break;
        case DataType::kDouble:
          out.append(buf, std::to_chars(buf, buf + sizeof(buf), col.DoubleAt(r),
                                        std::chars_format::general, 17).ptr);
          break;
        case DataType::kString:
          quote(col.StringAt(r), &out);
          break;
      }
    }
    out += '\n';
  }
  std::ofstream f(path, std::ios::binary);
  f << out;
  if (!f.good()) Die("write " + path, Status::IOError(path));
}

/// Writes a Tmall relevant table to CSV, re-reads it (the types the program
/// will see) and writes a generated plan validated against it.
void WritePlanPair(const Table& relevant, uint64_t seed,
                   const std::string& relevant_path,
                   const std::string& plan_path) {
  WriteCsvFast(relevant, relevant_path);
  // Column types as ReadCsv infers them; the head is enough for a schema
  // and a pool of operand values.
  const std::string text = OrDie(ReadFileToString(relevant_path), "reread relevant");
  size_t cut = 0;
  for (int line = 0; line < 20000; ++line) {
    const size_t nl = text.find('\n', cut);
    if (nl == std::string::npos) {
      cut = text.size();
      break;
    }
    cut = nl + 1;
  }
  const Table reread =
      OrDie(ReadCsvFromString(text.substr(0, cut)), "reread relevant");
  const AugmentationPlan plan = MakeServingPlan(reread, seed);
  for (const AggQuery& q : plan.queries) CheckOk(q.Validate(reread), "plan");
  CheckOk(WriteAugmentationPlan(plan, "relevant", reread, plan_path),
          "write " + plan_path);
}

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->Uniform();
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

int RunGen(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));

  // Fit inputs: Tmall D and R plus the problem's template ingredients. The
  // fit instance has its own seed: how many distinct candidates a search
  // evaluates swings by up to 2x between instances, far more than any bound
  // on fit_s could absorb, so run.py pins it per workload.
  SyntheticOptions fit_opts;
  fit_opts.n_train = static_cast<size_t>(flags.Num("fit-rows", 2000));
  fit_opts.avg_logs_per_entity = flags.Num("fit-logs", 15);
  fit_opts.seed = static_cast<uint64_t>(flags.Num("fit-seed", 1));
  auto gen_fit = [&] {
    const DatasetBundle fit = MakeTmall(fit_opts);
    WriteCsvFast(fit.training, dir + "/fit.train.csv");
    WriteCsvFast(fit.relevant, dir + "/fit.relevant.csv");
    std::vector<std::string> aggs;
    for (AggFunction fn : fit.agg_functions) aggs.push_back(AggFunctionName(fn));
    std::ofstream spec(dir + "/fit.problem.txt");
    spec << "label=" << fit.label_col << "\n"
         << "base=" << JoinList(fit.base_features) << "\n"
         << "fk=" << JoinList(fit.fk_attrs) << "\n"
         << "agg_attrs=" << JoinList(fit.agg_attrs) << "\n"
         << "agg_functions=" << JoinList(aggs) << "\n"
         << "where=" << JoinList(fit.where_candidates) << "\n";
    if (!spec.good()) Die("write fit spec", Status::IOError(dir));
  };

  // Serve inputs: the registry's <name>.sql + <name>.relevant.csv pair,
  // a pool of 32-row batches with Zipf-skewed keys (about 5% absent from
  // R), and the open-loop arrival schedule at --open-rate.
  SyntheticOptions serve_opts;
  serve_opts.n_train = static_cast<size_t>(flags.Num("serve-entities", 10000));
  serve_opts.avg_logs_per_entity = flags.Num("serve-logs", 20);
  serve_opts.seed = seed * 7919 + 1;
  auto gen_serve = [&] {
    const DatasetBundle serve = MakeTmall(serve_opts);
    std::filesystem::create_directories(dir + "/plans");
    WritePlanPair(serve.relevant, seed * 31 + 2,
                  dir + "/plans/" + kPlanName + ".relevant.csv",
                  dir + "/plans/" + kPlanName + ".sql");
    Rng rng(seed * 131 + 3);
    const size_t n_entities = serve.training.num_rows();
    std::vector<uint32_t> perm(n_entities);
    for (size_t i = 0; i < n_entities; ++i) perm[i] = static_cast<uint32_t>(i);
    rng.Shuffle(&perm);
    const Zipf zipf(n_entities, 1.1);
    const Column& merchant =
        *OrDie(serve.training.GetColumn("merchant_id"), "serve D");
    const Column& age = *OrDie(serve.training.GetColumn("age"), "serve D");
    Column b_id(DataType::kInt64), b_user(DataType::kInt64),
        b_merchant(DataType::kInt64), b_age(DataType::kDouble);
    for (size_t b = 0; b < kServeBatchPool; ++b) {
      for (size_t r = 0; r < kServeBatchRows; ++r) {
        b_id.AppendInt(static_cast<int64_t>(b));
        if (rng.Bernoulli(0.05)) {
          b_user.AppendInt(static_cast<int64_t>(n_entities + rng.UniformInt(n_entities)));
          b_merchant.AppendInt(static_cast<int64_t>(rng.UniformInt(40)));
          b_age.AppendDouble(25.0 + 20.0 * rng.Uniform());
        } else {
          const uint32_t e = perm[zipf.Draw(&rng)];
          b_user.AppendInt(static_cast<int64_t>(e));
          b_merchant.AppendInt(merchant.IntAt(e));
          b_age.AppendDouble(age.DoubleAt(e));
        }
      }
    }
    Table batches;
    CheckOk(batches.AddColumn("batch", std::move(b_id)), "batches");
    CheckOk(batches.AddColumn("user_id", std::move(b_user)), "batches");
    CheckOk(batches.AddColumn("merchant_id", std::move(b_merchant)), "batches");
    CheckOk(batches.AddColumn("age", std::move(b_age)), "batches");
    WriteCsvFast(batches, dir + "/serve.batches.csv");

    // Requests are due at a fixed rate (evenly spaced, so the tail measures
    // service and interference rather than arrival bursts); the seed picks
    // which batch each request carries.
    const double rate = flags.Num("open-rate", 100);
    const size_t n_requests =
        static_cast<size_t>(std::ceil(rate * flags.Num("open-seconds", 5)));
    std::ofstream sched(dir + "/serve.schedule.txt");
    for (size_t i = 0; i < n_requests; ++i) {
      sched << static_cast<int64_t>(static_cast<double>(i) / rate * 1e6) << " "
            << rng.UniformInt(kServeBatchPool) << "\n";
    }
    if (!sched.good()) Die("write schedule", Status::IOError(dir));
  };

  // Score inputs: a large R, its plan, and the D to score.
  SyntheticOptions score_opts;
  score_opts.n_train = static_cast<size_t>(flags.Num("score-entities", 50000));
  score_opts.avg_logs_per_entity = flags.Num("score-logs", 20);
  score_opts.seed = seed * 104729 + 4;
  auto gen_score = [&] {
    DatasetBundle score = MakeTmall(score_opts);
    CheckOk(score.training.DropColumn("label"), "score D");
    WriteCsvFast(score.training, dir + "/score.train.csv");
    WritePlanPair(score.relevant, seed * 37 + 5, dir + "/score.relevant.csv",
                  dir + "/score.sql");
  };

  // The three input sets are independent and generation is untimed, so
  // they are made side by side.
  std::thread fit_thread(gen_fit), serve_thread(gen_serve);
  gen_score();
  fit_thread.join();
  serve_thread.join();
  return 0;
}

// ---------------------------------------------------------------- helpers

/// Bitwise equality of two double columns (NaN payloads included).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> ColumnDoubles(const Column& col) {
  std::vector<double> out(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    out[i] = col.IsNull(i) ? std::nan("") : col.AsDouble(i);
  }
  return out;
}

std::vector<double> Gather(const std::vector<double>& v,
                           const std::vector<uint32_t>& rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (uint32_t r : rows) out.push_back(v[r]);
  return out;
}

/// Splits `table` into consecutive slices of `rows` rows.
std::vector<Table> Slices(const Table& table, size_t rows) {
  std::vector<Table> out;
  for (size_t begin = 0; begin < table.num_rows(); begin += rows) {
    const size_t end = std::min(table.num_rows(), begin + rows);
    std::vector<uint32_t> idx;
    for (size_t r = begin; r < end; ++r) idx.push_back(static_cast<uint32_t>(r));
    out.push_back(table.Take(idx));
  }
  return out;
}

struct Outcome {
  double attempted = 0;
  double failed = 0;
  std::vector<std::string> mismatches;

  void Check(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      if (mismatches.size() < 8) mismatches.push_back(what);
    }
  }
  void Record(JsonOut* out) const {
    out->Add("attempted", attempted);
    out->Add("failed", failed);
    std::string s = "[";
    for (size_t i = 0; i < mismatches.size(); ++i) {
      if (i > 0) s += ",";
      s += '"';
      s += JsonEscape(mismatches[i]);
      s += '"';
    }
    out->AddRaw("mismatches", s + "]");
  }
};

// ---------------------------------------------------------------- fit

int RunFit(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  const double budget_s = flags.Num("seconds", 10);
  Tracer tracer(flags.Get("trace") == "1");
  const ModelKind model =
      OrDie(bench::ParseModelKind(flags.Get("model", "XGB")), "model");
  const auto spec = ReadKeyValues(dir + "/fit.problem.txt");
  JsonOut out;
  Outcome outcome;

  // Set-up: input files on disk to tables in memory.
  Table training, relevant;
  std::vector<double> setup_s;
  for (int i = 0; i < SetupRepeats(flags); ++i) {
    ScopedSpan span(&tracer, "table.csv_read");
    const auto t0 = Clock::now();
    training = OrDie(ReadCsv(dir + "/fit.train.csv"), "read fit D");
    relevant = OrDie(ReadCsv(dir + "/fit.relevant.csv"), "read fit R");
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  out.Add("setup_s", setup_s);

  FeatAugProblem problem;
  problem.training = training;
  problem.label_col = spec.at("label");
  problem.base_feature_cols = SplitList(spec.at("base"));
  problem.relevant = relevant;
  problem.task = TaskKind::kBinaryClassification;
  for (const std::string& name : SplitList(spec.at("agg_functions"))) {
    problem.agg_functions.push_back(OrDie(ParseAggFunction(name), "agg"));
  }
  problem.agg_attrs = SplitList(spec.at("agg_attrs"));
  problem.fk_attrs = SplitList(spec.at("fk"));
  problem.candidate_where_attrs = SplitList(spec.at("where"));

  // The paper harness's 20-feature budget, wired exactly as RunFeatAug does.
  const bench::MethodBudget budget = bench::MakeBudget(bench::BenchConfig{}, model);
  FeatAugOptions options;
  options.n_templates = budget.n_templates;
  options.queries_per_template = budget.queries_per_template;
  options.generator.warmup_iterations = budget.warmup_iterations;
  options.generator.warmup_top_k = budget.warmup_top_k;
  options.generator.generation_iterations = budget.generation_iterations;
  options.qti.node_iterations = budget.qti_node_iterations;
  options.qti.beam_width = budget.qti_beam_width;
  options.qti.max_depth = budget.qti_max_depth;
  options.evaluator.model = model;
  options.evaluator.metric = DefaultMetricFor(problem.task);
  options.evaluator.split_seed = seed;
  options.evaluator.model_seed = seed + 1;
  options.seed = seed;

  // Timed: whole fits until the budget is spent (at least two; one traced).
  std::vector<double> fit_s;
  std::unique_ptr<Augmenter> augmenter;
  std::unique_ptr<FittedAugmenter> fitted;
  const auto phase_start = Clock::now();
  while (fit_s.size() < (tracer.enabled() ? 1u : 2u) ||
         (!tracer.enabled() && Seconds(phase_start, Clock::now()) < budget_s)) {
    augmenter = MakeFeatAugAugmenter(problem, options);
    ScopedSpan span(&tracer, "core.fit");
    const auto t0 = Clock::now();
    auto r = augmenter->Fit();
    const double s = Seconds(t0, Clock::now());
    if (!r.ok()) {
      outcome.Check(false, "fit failed: " + r.status().ToString());
      out.Add("fit_s", fit_s);
      outcome.Record(&out);
      WriteOut(flags, out);
      return 0;
    }
    fitted = std::move(r).ValueOrDie();
    fit_s.push_back(s);
    const FitDiagnostics& d = fitted->diagnostics();
    // Every candidate evaluation attempted; skipped ones are failures.
    outcome.attempted += static_cast<double>(d.proxy_evals + d.model_evals +
                                             d.failed_candidates.size());
    outcome.failed += static_cast<double>(d.failed_candidates.size());
  }
  out.Add("fit_s", fit_s);
  out.Add("peak_rss_mb", PeakRssMb());

  FeatureEvaluator* ev = augmenter->evaluator();
  const std::vector<AggQuery> queries = fitted->AllQueries();
  out.Add("test_auc", OrDie(ev->TestScore(queries), "test score"));

  // Output checks (outside the timed window).
  {
    const Table augmented = OrDie(fitted->Transform(training), "transform D");
    const auto expected = OrDie(ev->Features(queries), "features");
    const size_t first = augmented.num_columns() - queries.size();
    for (size_t i = 0; i < queries.size(); ++i) {
      outcome.Check(SameBits(ColumnDoubles(augmented.ColumnAt(first + i)),
                             *expected[i]),
                    "fit: Transform(D) column " + std::to_string(i) +
                        " differs from FeatureEvaluator::Features");
    }
    AugmentationPlan plan;
    plan.queries = queries;
    plan.feature_names = fitted->feature_names();
    plan.valid_metrics = fitted->valid_metrics();
    const std::string sql = SerializeAugmentationPlan(plan, "relevant", relevant);
    auto parsed = ParseAugmentationPlan(sql, relevant);
    bool same = parsed.ok() && parsed.value().queries.size() == queries.size();
    for (size_t i = 0; same && i < queries.size(); ++i) {
      same = parsed.value().queries[i].CacheKey() == queries[i].CacheKey();
    }
    outcome.Check(same, "fit: plan SQL does not round-trip");
  }

  const FitDiagnostics& d = fitted->diagnostics();
  JsonOut counts;
  counts.Add("qti_s", d.qti_seconds);
  counts.Add("warmup_s", d.warmup_seconds);
  counts.Add("generate_s", d.generate_seconds);
  counts.Add("proxy_evals", static_cast<double>(d.proxy_evals));
  counts.Add("model_evals", static_cast<double>(d.model_evals));
  counts.Add("proxy_cache_hits", static_cast<double>(d.proxy_cache_hits));
  counts.Add("model_cache_hits", static_cast<double>(d.model_cache_hits));
  counts.Add("compile_cache_hits", static_cast<double>(d.compile_cache_hits));
  counts.Add("compile_cache_misses", static_cast<double>(d.compile_cache_misses));
  counts.Add("materializations",
             static_cast<double>(ev->num_feature_materializations()));
  counts.Add("queries", static_cast<double>(queries.size()));

  if (tracer.enabled()) {
    // query: a fresh planner per repeat whose group indexes are already
    // built (as they are for nearly every candidate of a fit), so the span
    // covers compile, masks, materializations and kernels of the queries.
    std::vector<AggQuery> group_warmers;
    for (const AggQuery& q : queries) {
      AggQuery w;
      w.agg = AggFunction::kCount;
      w.group_keys = q.group_keys;
      if (std::none_of(group_warmers.begin(), group_warmers.end(),
                       [&w](const AggQuery& g) { return g.group_keys == w.group_keys; })) {
        group_warmers.push_back(w);
      }
    }
    for (int rep = 0; rep < 3; ++rep) {
      QueryPlanner planner;
      planner.set_thread_pool(GlobalThreadPool());
      OrDie(planner.EvaluateMany(group_warmers, training, relevant), "warm groups");
      {
        ScopedSpan span(&tracer, "query.evaluate_many");
        OrDie(planner.EvaluateMany(queries, training, relevant), "evaluate");
      }
      counts.Add("prepare_s_" + std::to_string(rep), planner.last_prepare_seconds());
      counts.Add("aggregate_s_" + std::to_string(rep),
                 planner.last_aggregate_seconds());
    }
    // stats: the MI proxy on columns the fit left cached.
    for (int rep = 0; rep < 3; ++rep) {
      for (const AggQuery& q : queries) {
        ScopedSpan span(&tracer, "stats.proxy_score");
        OrDie(ev->ProxyScore(q, ProxyKind::kMutualInformation), "proxy");
      }
    }
    // ml: dataset assembly and training, base features plus one feature.
    const SplitIndices& split = ev->split();
    for (size_t i = 0; i < std::min<size_t>(queries.size(), 6); ++i) {
      const std::vector<double>& col = *OrDie(ev->Feature(queries[i]), "feature");
      Dataset train, valid;
      {
        ScopedSpan span(&tracer, "ml.build_dataset");
        train = ev->base_dataset().GatherRows(split.train);
        valid = ev->base_dataset().GatherRows(split.valid);
        CheckOk(train.AddFeature("f", Gather(col, split.train)), "dataset");
        CheckOk(valid.AddFeature("f", Gather(col, split.valid)), "dataset");
      }
      ScopedSpan span(&tracer, "ml.train_and_score");
      OrDie(TrainAndScore(model, train, valid, options.evaluator.metric,
                          options.evaluator.model_seed),
            "train");
    }
    // hpo: TPE suggest-batch on a plan template's space, history grown to
    // the warm-up length.
    QueryTemplate tmpl;
    tmpl.agg_functions = problem.agg_functions;
    tmpl.agg_attrs = problem.agg_attrs;
    tmpl.where_attrs = {problem.candidate_where_attrs.begin(),
                        problem.candidate_where_attrs.begin() +
                            std::min<size_t>(3, problem.candidate_where_attrs.size())};
    tmpl.fk_attrs = problem.fk_attrs;
    const QueryVectorCodec codec =
        OrDie(QueryVectorCodec::Create(tmpl, relevant), "codec");
    TpeOptions tpe_opts;
    tpe_opts.seed = seed;
    Tpe tpe(codec.space(), tpe_opts);
    Rng rng(seed);
    for (int i = 0; i < budget.warmup_iterations; ++i) {
      tpe.Observe(codec.space().Sample(&rng), rng.Uniform());
    }
    for (int rep = 0; rep < 10; ++rep) {
      ScopedSpan span(&tracer, "hpo.suggest_batch");
      for (const ParamVector& v : tpe.SuggestBatch(8)) tpe.Observe(v, rng.Uniform());
    }
  }
  out.AddRaw("counts", counts.ToString());
  out.AddRaw("spans", tracer.ToJson());
  outcome.Record(&out);
  WriteOut(flags, out);
  return 0;
}

// ---------------------------------------------------------------- serve

std::vector<Table> ReadServeBatches(const std::string& path) {
  const Table all = OrDie(ReadCsv(path), "read batches");
  const Column& id = *OrDie(all.GetColumn("batch"), "batch column");
  std::vector<std::vector<uint32_t>> rows(kServeBatchPool);
  for (size_t r = 0; r < all.num_rows(); ++r) {
    rows[static_cast<size_t>(id.IntAt(r))].push_back(static_cast<uint32_t>(r));
  }
  std::vector<Table> batches;
  for (const auto& idx : rows) {
    Table b = all.Take(idx);
    CheckOk(b.DropColumn("batch"), "batch column");
    batches.push_back(std::move(b));
  }
  return batches;
}

int RunServe(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const int clients = std::max(1, static_cast<int>(flags.Num("clients", 1)));
  Tracer tracer(flags.Get("trace") == "1");
  JsonOut out;
  Outcome outcome;

  // Set-up: plan discovery plus the first (cold) Acquire, which reads the
  // relevant CSV and compiles the plan.
  std::unique_ptr<serve::PlanRegistry> registry;
  std::vector<double> setup_s, load_s;
  for (int i = 0; i < SetupRepeats(flags); ++i) {
    const auto t0 = Clock::now();
    registry = std::make_unique<serve::PlanRegistry>();
    CheckOk(registry->DiscoverPlans(dir + "/plans"), "discover");
    const auto t1 = Clock::now();
    {
      ScopedSpan span(&tracer, "serve.registry.acquire");
      OrDie(registry->Acquire(kPlanName), "acquire");
    }
    const auto t2 = Clock::now();
    setup_s.push_back(Seconds(t0, t2));
    load_s.push_back(Seconds(t1, t2));
  }
  out.Add("setup_s", setup_s);
  out.Add("registry_load_s", load_s);

  const std::vector<Table> batches = ReadServeBatches(dir + "/serve.batches.csv");
  const std::shared_ptr<const FittedAugmenter> handle =
      OrDie(registry->Acquire(kPlanName), "acquire");
  const std::vector<Table> reference =
      OrDie(handle->TransformMany(batches), "reference TransformMany");
  std::vector<std::string> ref_bytes;
  for (const Table& t : reference) ref_bytes.push_back(serve::EncodeTable(t));

  serve::ServerOptions server_opts;
  server_opts.unix_socket_path = "daemon.sock";  // relative: cwd is the run dir
  serve::Server server(registry.get(), server_opts);
  CheckOk(server.Start(), "server start");

  std::atomic<size_t> sent{0}, errors{0}, mismatched{0};
  // request() is the timed call; verify() checks its response afterwards,
  // outside the caller's timestamps.
  auto request = [&](serve::ServeClient* client, size_t b) {
    sent.fetch_add(1, std::memory_order_relaxed);
    auto resp = client->Transform(kPlanName, batches[b]);
    if (!resp.ok()) errors.fetch_add(1, std::memory_order_relaxed);
    return resp;
  };
  auto verify = [&](size_t b, const Result<Table>& resp) {
    if (resp.ok() && serve::EncodeTable(resp.value()) != ref_bytes[b]) {
      mismatched.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto connect = [&]() {
    return OrDie(serve::ServeClient::ConnectUnix("daemon.sock"), "connect");
  };

  // Closed loop: `clients` connections, each sends its next request as soon
  // as the previous one returns. Completion offsets (us from the start)
  // of successful requests let run.py take the rate per time bin.
  const double closed_s = flags.Num("closed-seconds", 3);
  const double open_s = flags.Num("open-seconds", 5);
  std::vector<double> closed_done_us;
  {
    std::vector<std::vector<double>> done(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(closed_s));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::ServeClient client = connect();
        for (size_t j = 0; Clock::now() < stop; ++j) {
          const size_t b = (static_cast<size_t>(c) * 61 + j) % batches.size();
          const auto resp = request(&client, b);
          if (resp.ok()) {
            done[static_cast<size_t>(c)].push_back(
                std::chrono::duration<double, std::micro>(Clock::now() - start)
                    .count());
          }
          verify(b, resp);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& d : done) closed_done_us.insert(closed_done_us.end(), d.begin(), d.end());
  }
  out.Add("closed_seconds", closed_s);
  out.Add("closed_done_us", closed_done_us);

  // Open loop: requests due on the generated schedule, taken in order by
  // whichever connection is free; latency counts from the due time.
  std::vector<int64_t> due_us;
  std::vector<size_t> due_batch;
  {
    std::ifstream sched(dir + "/serve.schedule.txt");
    int64_t t = 0;
    size_t b = 0;
    while (sched >> t >> b) {
      due_us.push_back(t);
      due_batch.push_back(b % batches.size());
    }
  }
  // Raw due/send/done offsets (us from the schedule origin); run.py derives
  // latency from the due time and the generator's lateness. -1 = never
  // sent (gave up) or failed.
  const size_t n_open = due_us.size();
  std::vector<double> send_us(n_open, -1.0), done_us(n_open, -1.0);
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const double give_up_us = (open_s * 1.5 + 5.0) * 1e6;
    auto offset_us = [&start] {
      return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    };
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        serve::ServeClient client = connect();
        while (true) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n_open) break;
          std::this_thread::sleep_until(start + std::chrono::microseconds(due_us[i]));
          const double send = offset_us();
          if (send > give_up_us) continue;
          send_us[i] = send;
          const auto resp = request(&client, due_batch[i]);
          if (resp.ok()) done_us[i] = offset_us();
          verify(due_batch[i], resp);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  std::vector<double> due_d(due_us.begin(), due_us.end());
  out.Add("open_due_us", due_d);
  out.Add("open_send_us", send_us);
  out.Add("open_done_us", done_us);

  // Single-connection round trips, untraced then traced: the residual
  // (framing, socket, batcher wait) and the tracing overhead.
  JsonOut counts;
  if (tracer.enabled()) {
    serve::ServeClient client = connect();
    std::vector<double> plain_ms;
    constexpr size_t kProbe = 200;
    for (size_t j = 0; j < kProbe; ++j) {
      const auto t0 = Clock::now();
      const auto resp = request(&client, j % batches.size());
      plain_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
      verify(j % batches.size(), resp);
    }
    counts.Add("untraced_round_trip_ms", plain_ms);
    for (size_t j = 0; j < kProbe; ++j) {
      const size_t b = j % batches.size();
      const int64_t rid = static_cast<int64_t>(j);
      {
        Result<Table> resp = Status::Internal("not sent");
        {
          ScopedSpan span(&tracer, "serve.request", rid);
          resp = request(&client, b);
        }
        verify(b, resp);
      }
      {
        ScopedSpan span(&tracer, "serve.execute", rid);
        OrDie(handle->Transform(batches[b]), "in-process transform");
      }
      ScopedSpan span(&tracer, "serve.codec", rid);
      std::string req = serve::EncodeTable(batches[b]);
      size_t cursor = 0;
      OrDie(serve::DecodeTable(req, &cursor), "decode request");
      std::string resp = serve::EncodeTable(reference[b]);
      cursor = 0;
      OrDie(serve::DecodeTable(resp, &cursor), "decode response");
    }
  }
  server.Shutdown();
  out.Add("peak_rss_mb", PeakRssMb());

  const serve::Batcher& batcher = server.batcher();
  counts.Add("batcher_requests", static_cast<double>(batcher.num_requests()));
  counts.Add("batcher_flushes", static_cast<double>(batcher.num_flushes()));
  counts.Add("batcher_coalesced_flushes",
             static_cast<double>(batcher.num_coalesced_flushes()));
  counts.Add("registry_loads", static_cast<double>(registry->num_loads()));
  out.AddRaw("counts", counts.ToString());
  out.AddRaw("spans", tracer.ToJson());

  // Requests never sent because the generator gave up count as failed.
  const size_t unsent =
      static_cast<size_t>(std::count(send_us.begin(), send_us.end(), -1.0));
  outcome.attempted = static_cast<double>(sent.load() + unsent);
  outcome.failed = static_cast<double>(errors.load() + mismatched.load() + unsent);
  if (mismatched.load() > 0) {
    outcome.mismatches.push_back(std::to_string(mismatched.load()) +
                                 " serve response(s) differ from in-process TransformMany");
  }
  outcome.Record(&out);
  WriteOut(flags, out);
  return 0;
}

// ---------------------------------------------------------------- score

int RunScore(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const double budget_s = flags.Num("seconds", 10);
  Tracer tracer(flags.Get("trace") == "1");
  JsonOut out;
  Outcome outcome;

  // Set-up: R from CSV plus the plan parsed and validated against it.
  Table relevant;
  AugmentationPlan plan;
  std::vector<double> setup_s, csv_s;
  for (int i = 0; i < SetupRepeats(flags); ++i) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(&tracer, "table.csv_read");
      relevant = OrDie(ReadCsv(dir + "/score.relevant.csv"), "read score R");
    }
    const auto t1 = Clock::now();
    const std::string text =
        OrDie(ReadFileToString(dir + "/score.sql"), "read plan");
    plan = OrDie(ParseAugmentationPlan(text, relevant), "parse plan");
    setup_s.push_back(Seconds(t0, Clock::now()));
    csv_s.push_back(Seconds(t0, t1));
  }
  out.Add("setup_s", setup_s);
  out.Add("csv_read_s", csv_s);

  const Table training = OrDie(ReadCsv(dir + "/score.train.csv"), "read score D");
  const std::vector<Table> batches = Slices(training, kScoreBatchRows);

  // Timed: scoring jobs (compile with morsel streaming, then transform all
  // of D batch by batch) until the budget is spent (at least three; one
  // traced).
  FeatAugConfig::Global().morsel_rows = kScoreMorselRows;
  std::vector<double> score_s;
  std::vector<Table> outputs;
  const auto phase_start = Clock::now();
  while (score_s.size() < (tracer.enabled() ? 1u : 3u) ||
         (!tracer.enabled() && Seconds(phase_start, Clock::now()) < budget_s)) {
    outputs.clear();
    ScopedSpan job(&tracer, "score.job");
    const auto t0 = Clock::now();
    std::unique_ptr<FittedAugmenter> handle;
    {
      ScopedSpan span(&tracer, "query.compile");
      handle = OrDie(MakeFittedAugmenter(plan, relevant), "compile");
    }
    for (const Table& b : batches) {
      ScopedSpan span(&tracer, "query.transform_batch");
      outputs.push_back(OrDie(handle->Transform(b), "transform"));
    }
    score_s.push_back(Seconds(t0, Clock::now()));
  }
  out.Add("score_s", score_s);
  out.Add("peak_rss_mb", PeakRssMb());

  JsonOut counts;
  counts.Add("batches", static_cast<double>(batches.size()));
  if (tracer.enabled()) {
    QueryPlanner planner;
    planner.set_thread_pool(GlobalThreadPool());
    planner.set_morsel_rows(kScoreMorselRows);
    {
      ScopedSpan span(&tracer, "query.morsel.evaluate_many");
      OrDie(planner.EvaluateMany(plan.queries, training, relevant), "morsel evaluate");
    }
    const MorselExecStats& ms = planner.last_morsel_stats();
    counts.Add("morsels", static_cast<double>(ms.morsels));
    counts.Add("sweeps", static_cast<double>(ms.sweeps));
    counts.Add("prefetched_builds", static_cast<double>(ms.prefetched_builds));
    counts.Add("peak_artifact_bytes", static_cast<double>(ms.peak_artifact_bytes));
    counts.Add("build_s", ms.build_seconds);
    counts.Add("combine_s", ms.combine_seconds);
  }

  // Output check: the morsel-streamed outputs against an in-RAM handle.
  FeatAugConfig::Global().morsel_rows = 0;
  {
    const auto in_ram = OrDie(MakeFittedAugmenter(plan, relevant), "in-RAM compile");
    for (size_t i = 0; i < batches.size(); ++i) {
      const Table expect = OrDie(in_ram->Transform(batches[i]), "in-RAM transform");
      outcome.Check(serve::EncodeTable(expect) == serve::EncodeTable(outputs[i]),
                    "score: batch " + std::to_string(i) +
                        " differs between morsel-streamed and in-RAM plans");
    }
  }
  outcome.attempted += static_cast<double>(score_s.size() * batches.size());
  out.AddRaw("counts", counts.ToString());
  out.AddRaw("spans", tracer.ToJson());
  outcome.Record(&out);
  WriteOut(flags, out);
  return 0;
}

// ---------------------------------------------------------------- env

int RunEnv() {
  JsonOut out;
  out.Add("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  out.Add("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  out.Add("thread_pool_size", static_cast<double>(GlobalThreadPool()->num_threads()));
  out.Add("simd_level", std::string(SimdLevelName(DetectedSimdLevel())));
  out.Add("build_type", std::string(PERFBENCH_BUILD_TYPE));
  out.Add("sanitize", std::string(PERFBENCH_SANITIZE));
#ifdef NDEBUG
  out.Add("ndebug", 1.0);
#else
  out.Add("ndebug", 0.0);
#endif
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace featlib

int main(int argc, char** argv) {
  using namespace featlib::perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench env|gen|fit|serve|score [--flag=value ...]\n");
    return 2;
  }
  const std::string mode = argv[1];
  const Flags flags = ParseFlags(argc, argv);
  if (mode == "env") return RunEnv();
  if (mode == "gen") return RunGen(flags);
  if (mode == "fit") return RunFit(flags);
  if (mode == "serve") return RunServe(flags);
  if (mode == "score") return RunScore(flags);
  std::fprintf(stderr, "perfbench: unknown mode %s\n", mode.c_str());
  return 2;
}
