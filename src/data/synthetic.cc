#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/str_util.h"

namespace featlib {

namespace {

/// Z-scores a vector (constant vectors map to all-zero).
std::vector<double> ZScore(const std::vector<double>& v) {
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= v.empty() ? 1.0 : static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  const double sd = std::sqrt(ss / std::max<size_t>(1, v.size()));
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    out[i] = sd > 1e-12 ? (v[i] - mean) / sd : 0.0;
  }
  return out;
}

/// Mixes the planted latents into per-entity scores.
std::vector<double> MixScores(const SyntheticOptions& options,
                              const std::vector<double>& strong,
                              const std::vector<double>& weak,
                              const std::vector<double>& base, Rng* rng) {
  const auto zs = ZScore(strong);
  const auto zw = ZScore(weak);
  const auto zb = ZScore(base);
  std::vector<double> out(strong.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = options.strong_weight * zs[i] + options.weak_weight * zw[i] +
             options.base_weight * zb[i] + options.noise * rng->Normal();
  }
  return out;
}

/// Binary labels balanced at the score median.
std::vector<int64_t> BinaryLabels(const std::vector<double>& scores) {
  std::vector<double> sorted = scores;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(sorted.size() / 2),
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<int64_t> out(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) out[i] = scores[i] > median ? 1 : 0;
  return out;
}

/// k-class labels by score quantile buckets.
std::vector<int64_t> MulticlassLabels(const std::vector<double>& scores, int k) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  std::vector<int64_t> out(scores.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    out[order[rank]] = static_cast<int64_t>(
        std::min<size_t>(static_cast<size_t>(k) - 1,
                         rank * static_cast<size_t>(k) / order.size()));
  }
  return out;
}

/// Appends `count` uninformative numeric columns to R and registers them as
/// WHERE candidates (the Fig. 7 horizontal widening).
void WidenRelevant(DatasetBundle* bundle, size_t count, Rng* rng) {
  const size_t n = bundle->relevant.num_rows();
  for (size_t c = 0; c < count; ++c) {
    Column col(DataType::kDouble);
    col.Reserve(n);
    for (size_t r = 0; r < n; ++r) col.AppendDouble(rng->Normal());
    const std::string name = StrFormat("extra_%zu", c);
    Status st = bundle->relevant.AddColumn(name, std::move(col));
    FEAT_CHECK(st.ok(), "WidenRelevant AddColumn failed");
    bundle->where_candidates.push_back(name);
  }
}

void FinalizeGoldenTemplate(DatasetBundle* bundle) {
  QueryTemplate t;
  t.agg_functions = bundle->agg_functions;
  t.agg_attrs = bundle->agg_attrs;
  t.fk_attrs = bundle->fk_attrs;
  for (const Predicate& p : bundle->golden_query.predicates) {
    t.where_attrs.push_back(p.attr);
  }
  bundle->golden_template = std::move(t);
}

const char* const kCategories[] = {"electronics", "grocery",  "fashion",
                                   "toys",        "beauty",   "sports",
                                   "books",       "furniture"};
const char* const kDepartments[] = {"dairy",   "produce", "bakery", "frozen",
                                    "pantry",  "snacks",  "meat",   "deli",
                                    "babies",  "household"};
const char* const kChannels[] = {"web", "app", "store", "phone"};
const char* const kRooms[] = {"lobby", "lab", "library", "garden", "attic"};
const char* const kEvents[] = {"navigate", "click",      "error",
                               "dialog",   "checkpoint", "hover"};

}  // namespace

FeatAugProblem DatasetBundle::ToProblem() const {
  FeatAugProblem p;
  p.training = training;
  p.label_col = label_col;
  p.base_feature_cols = base_features;
  p.relevant = relevant;
  p.task = task;
  p.agg_functions = agg_functions;
  p.agg_attrs = agg_attrs;
  p.fk_attrs = fk_attrs;
  p.candidate_where_attrs = where_candidates;
  return p;
}

// ---------------------------------------------------------------------------
// Tmall: repeat-buyer prediction. Compound FK (user_id, merchant_id); the
// golden signal lives in AVG(pprice) over recent purchase rows.
// ---------------------------------------------------------------------------
DatasetBundle MakeTmall(const SyntheticOptions& options) {
  Rng rng(options.seed);
  const size_t n = options.n_train;
  const int64_t t_start = 1660000000;              // ~Aug 2022
  const int64_t t_end = t_start + 365LL * 86400;   // one year of logs
  const int64_t t_recent = t_end - 120LL * 86400;  // last four months

  std::vector<double> u(n), w(n), base_effect(n);
  std::vector<int64_t> user_id(n), merchant_id(n);
  std::vector<double> age(n);
  std::vector<std::string> gender(n);
  for (size_t e = 0; e < n; ++e) {
    u[e] = rng.Normal();
    w[e] = rng.Normal();
    user_id[e] = static_cast<int64_t>(e);
    merchant_id[e] = static_cast<int64_t>(rng.UniformInt(40));
    age[e] = 25.0 + 20.0 * rng.Uniform();
    gender[e].assign(1, rng.Bernoulli(0.5) ? 'F' : 'M');
    base_effect[e] = 0.8 * (age[e] - 35.0) / 10.0 + (gender[e] == "F" ? 0.4 : 0.0);
  }

  // Relevant table: user behaviour logs.
  Column r_user(DataType::kInt64), r_merchant(DataType::kInt64);
  Column r_price(DataType::kDouble), r_quantity(DataType::kInt64);
  Column r_discount(DataType::kDouble), r_hour(DataType::kInt64);
  Column r_dwell(DataType::kDouble), r_pages(DataType::kDouble);
  Column r_category(DataType::kString), r_action(DataType::kString);
  Column r_ts(DataType::kDatetime), r_weekday(DataType::kInt64);
  Column r_channel(DataType::kString);

  std::vector<double> strong(n, 0.0), weak(n, 0.0);
  for (size_t e = 0; e < n; ++e) {
    const int64_t n_logs =
        1 + rng.Poisson(options.avg_logs_per_entity * std::exp(0.25 * w[e]));
    weak[e] = static_cast<double>(n_logs);
    for (int64_t l = 0; l < n_logs; ++l) {
      r_user.AppendInt(user_id[e]);
      // 70% of a user's logs touch "their" merchant.
      r_merchant.AppendInt(rng.Bernoulli(0.7)
                               ? merchant_id[e]
                               : static_cast<int64_t>(rng.UniformInt(40)));
      const bool purchase = rng.Bernoulli(0.35);
      const int64_t ts = rng.UniformRange(t_start, t_end);
      const bool in_golden = purchase && ts >= t_recent;
      r_price.AppendDouble(in_golden ? 50.0 + 18.0 * u[e] + rng.Normal(0.0, 4.0)
                                     : 50.0 + rng.Normal(0.0, 18.0));
      r_quantity.AppendInt(1 + static_cast<int64_t>(rng.UniformInt(5)));
      r_discount.AppendDouble(0.5 * rng.Uniform());
      r_hour.AppendInt(static_cast<int64_t>(rng.UniformInt(24)));
      r_dwell.AppendDouble(5.0 + 120.0 * rng.Uniform());
      r_pages.AppendDouble(1.0 + 12.0 * rng.Uniform());
      r_category.AppendString(kCategories[rng.UniformInt(8)]);
      r_action.AppendString(purchase ? "purchase"
                                     : (rng.Bernoulli(0.4) ? "cart" : "click"));
      r_ts.AppendInt(ts);
      r_weekday.AppendInt(static_cast<int64_t>(rng.UniformInt(7)));
      r_channel.AppendString(kChannels[rng.UniformInt(4)]);
    }
  }

  DatasetBundle bundle;
  bundle.name = "tmall";
  bundle.task = TaskKind::kBinaryClassification;
  bundle.label_col = "label";
  bundle.fk_attrs = {"user_id", "merchant_id"};
  bundle.base_features = {"age", "gender_f"};
  bundle.agg_attrs = {"pprice", "quantity", "discount", "hour", "dwell", "pages"};
  bundle.agg_functions = AllAggFunctions();
  bundle.where_candidates = {"category", "action", "ts", "weekday", "channel"};

  const auto scores = MixScores(options, u, w, base_effect, &rng);
  const auto labels = BinaryLabels(scores);

  Column d_gender_f(DataType::kDouble);
  for (size_t e = 0; e < n; ++e) d_gender_f.AppendDouble(gender[e] == "F" ? 1.0 : 0.0);
  FEAT_CHECK(bundle.training.AddColumn("user_id", Column::FromInts(DataType::kInt64, user_id)).ok(), "tmall D");
  FEAT_CHECK(bundle.training.AddColumn("merchant_id", Column::FromInts(DataType::kInt64, merchant_id)).ok(), "tmall D");
  FEAT_CHECK(bundle.training.AddColumn("age", Column::FromDoubles(age)).ok(), "tmall D");
  FEAT_CHECK(bundle.training.AddColumn("gender_f", std::move(d_gender_f)).ok(), "tmall D");
  FEAT_CHECK(bundle.training.AddColumn("label", Column::FromInts(DataType::kInt64, labels)).ok(), "tmall D");

  FEAT_CHECK(bundle.relevant.AddColumn("user_id", std::move(r_user)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("merchant_id", std::move(r_merchant)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("pprice", std::move(r_price)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("quantity", std::move(r_quantity)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("discount", std::move(r_discount)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("hour", std::move(r_hour)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("dwell", std::move(r_dwell)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("pages", std::move(r_pages)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("category", std::move(r_category)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("action", std::move(r_action)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("ts", std::move(r_ts)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("weekday", std::move(r_weekday)).ok(), "tmall R");
  FEAT_CHECK(bundle.relevant.AddColumn("channel", std::move(r_channel)).ok(), "tmall R");

  bundle.golden_query.agg = AggFunction::kAvg;
  bundle.golden_query.agg_attr = "pprice";
  bundle.golden_query.group_keys = {"user_id"};
  bundle.golden_query.predicates = {
      Predicate::Equals("action", Value::Str("purchase")),
      Predicate::Range("ts", static_cast<double>(t_recent), std::nullopt)};
  FinalizeGoldenTemplate(&bundle);
  WidenRelevant(&bundle, options.extra_numeric_cols, &rng);
  return bundle;
}

// ---------------------------------------------------------------------------
// Instacart: next-purchase prediction; golden predicate uses a boolean
// attribute (reordered) plus a categorical department.
// ---------------------------------------------------------------------------
DatasetBundle MakeInstacart(const SyntheticOptions& options) {
  Rng rng(options.seed ^ 0x9e3779b9ULL);
  const size_t n = options.n_train;

  std::vector<double> u(n), w(n), base_effect(n);
  std::vector<int64_t> user_id(n);
  std::vector<double> household(n), tenure(n);
  for (size_t e = 0; e < n; ++e) {
    u[e] = rng.Normal();
    w[e] = rng.Normal();
    user_id[e] = static_cast<int64_t>(e);
    household[e] = 1.0 + static_cast<double>(rng.UniformInt(6));
    tenure[e] = 30.0 + 1000.0 * rng.Uniform();
    base_effect[e] = 0.5 * (household[e] - 3.5) / 2.0 + 0.3 * (tenure[e] - 530.0) / 300.0;
  }

  Column r_user(DataType::kInt64), r_price(DataType::kDouble);
  Column r_cartpos(DataType::kInt64), r_daygap(DataType::kDouble);
  Column r_hour(DataType::kInt64), r_items(DataType::kInt64);
  Column r_weight(DataType::kDouble);
  Column r_department(DataType::kString), r_aisle(DataType::kString);
  Column r_reordered(DataType::kBool), r_dow(DataType::kInt64);
  Column r_ts(DataType::kDatetime), r_organic(DataType::kBool);

  const int64_t t_start = 1680000000;
  const int64_t t_end = t_start + 180LL * 86400;
  std::vector<double> strong(n, 0.0), weak(n, 0.0);
  for (size_t e = 0; e < n; ++e) {
    const int64_t n_logs =
        1 + rng.Poisson(options.avg_logs_per_entity * std::exp(0.25 * w[e]));
    weak[e] = static_cast<double>(n_logs);
    for (int64_t l = 0; l < n_logs; ++l) {
      r_user.AppendInt(user_id[e]);
      const bool dairy = rng.Bernoulli(0.2);
      const bool reordered = rng.Bernoulli(0.55);
      const bool in_golden = dairy && reordered;
      r_price.AppendDouble(in_golden ? 10.0 + 4.0 * u[e] + rng.Normal(0.0, 1.0)
                                     : 10.0 + rng.Normal(0.0, 4.5));
      r_cartpos.AppendInt(1 + static_cast<int64_t>(rng.UniformInt(20)));
      r_daygap.AppendDouble(30.0 * rng.Uniform());
      r_hour.AppendInt(static_cast<int64_t>(rng.UniformInt(24)));
      r_items.AppendInt(1 + static_cast<int64_t>(rng.UniformInt(15)));
      r_weight.AppendDouble(0.1 + 5.0 * rng.Uniform());
      r_department.AppendString(dairy ? "dairy" : kDepartments[1 + rng.UniformInt(9)]);
      r_aisle.AppendString(StrFormat("aisle_%llu",
                                     static_cast<unsigned long long>(rng.UniformInt(12))));
      r_reordered.AppendInt(reordered ? 1 : 0);
      r_dow.AppendInt(static_cast<int64_t>(rng.UniformInt(7)));
      r_ts.AppendInt(rng.UniformRange(t_start, t_end));
      r_organic.AppendInt(rng.Bernoulli(0.3) ? 1 : 0);
    }
  }

  DatasetBundle bundle;
  bundle.name = "instacart";
  bundle.task = TaskKind::kBinaryClassification;
  bundle.label_col = "label";
  bundle.fk_attrs = {"user_id"};
  bundle.base_features = {"household", "tenure"};
  bundle.agg_attrs = {"item_price", "cart_position", "day_gap",
                      "hour",       "total_items",   "weight"};
  bundle.agg_functions = AllAggFunctions();
  bundle.where_candidates = {"department", "aisle", "reordered",
                             "order_dow",  "ts",    "organic"};

  const auto scores = MixScores(options, u, w, base_effect, &rng);
  const auto labels = BinaryLabels(scores);

  FEAT_CHECK(bundle.training.AddColumn("user_id", Column::FromInts(DataType::kInt64, user_id)).ok(), "insta D");
  FEAT_CHECK(bundle.training.AddColumn("household", Column::FromDoubles(household)).ok(), "insta D");
  FEAT_CHECK(bundle.training.AddColumn("tenure", Column::FromDoubles(tenure)).ok(), "insta D");
  FEAT_CHECK(bundle.training.AddColumn("label", Column::FromInts(DataType::kInt64, labels)).ok(), "insta D");

  FEAT_CHECK(bundle.relevant.AddColumn("user_id", std::move(r_user)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("item_price", std::move(r_price)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("cart_position", std::move(r_cartpos)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("day_gap", std::move(r_daygap)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("hour", std::move(r_hour)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("total_items", std::move(r_items)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("weight", std::move(r_weight)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("department", std::move(r_department)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("aisle", std::move(r_aisle)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("reordered", std::move(r_reordered)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("order_dow", std::move(r_dow)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("ts", std::move(r_ts)).ok(), "insta R");
  FEAT_CHECK(bundle.relevant.AddColumn("organic", std::move(r_organic)).ok(), "insta R");

  bundle.golden_query.agg = AggFunction::kAvg;
  bundle.golden_query.agg_attr = "item_price";
  bundle.golden_query.group_keys = {"user_id"};
  bundle.golden_query.predicates = {
      Predicate::Equals("department", Value::Str("dairy")),
      Predicate::Equals("reordered", Value::Bool(true))};
  FinalizeGoldenTemplate(&bundle);
  WidenRelevant(&bundle, options.extra_numeric_cols, &rng);
  return bundle;
}

// ---------------------------------------------------------------------------
// Student: game-play correctness; the golden feature is a COUNT under an
// event-type + level predicate (count-shaped signal, unlike the AVG ones).
// ---------------------------------------------------------------------------
DatasetBundle MakeStudent(const SyntheticOptions& options) {
  Rng rng(options.seed ^ 0x51ed270bULL);
  const size_t n = options.n_train;

  std::vector<double> u(n), w(n), base_effect(n);
  std::vector<int64_t> session_id(n);
  std::vector<double> grade(n), prior_score(n);
  for (size_t e = 0; e < n; ++e) {
    u[e] = rng.Normal();
    w[e] = rng.Normal();
    session_id[e] = static_cast<int64_t>(e);
    grade[e] = 3.0 + static_cast<double>(rng.UniformInt(10));
    prior_score[e] = 40.0 + 60.0 * rng.Uniform();
    base_effect[e] = 0.6 * (prior_score[e] - 70.0) / 17.0;
  }

  Column r_session(DataType::kInt64), r_elapsed(DataType::kDouble);
  Column r_sx(DataType::kDouble), r_sy(DataType::kDouble);
  Column r_clicks(DataType::kInt64), r_scroll(DataType::kDouble);
  Column r_hover(DataType::kDouble), r_fps(DataType::kDouble);
  Column r_latency(DataType::kDouble), r_delta(DataType::kDouble);
  Column r_event(DataType::kString), r_level(DataType::kInt64);
  Column r_room(DataType::kString), r_ts(DataType::kDatetime);
  Column r_fullscreen(DataType::kBool), r_music(DataType::kBool);

  const int64_t t_start = 1690000000;
  const int64_t t_end = t_start + 30LL * 86400;
  std::vector<double> strong(n, 0.0), weak(n, 0.0);
  auto append_row = [&](size_t e, const char* event, int64_t level) {
    r_session.AppendInt(session_id[e]);
    r_elapsed.AppendDouble(50.0 + 3000.0 * rng.Uniform());
    r_sx.AppendDouble(1920.0 * rng.Uniform());
    r_sy.AppendDouble(1080.0 * rng.Uniform());
    r_clicks.AppendInt(static_cast<int64_t>(rng.UniformInt(10)));
    r_scroll.AppendDouble(100.0 * rng.Uniform());
    r_hover.AppendDouble(500.0 * rng.Uniform());
    r_fps.AppendDouble(30.0 + 30.0 * rng.Uniform());
    r_latency.AppendDouble(10.0 + 190.0 * rng.Uniform());
    r_delta.AppendDouble(rng.Normal());
    r_event.AppendString(event);
    r_level.AppendInt(level);
    r_room.AppendString(kRooms[rng.UniformInt(5)]);
    r_ts.AppendInt(rng.UniformRange(t_start, t_end));
    r_fullscreen.AppendInt(rng.Bernoulli(0.5) ? 1 : 0);
    r_music.AppendInt(rng.Bernoulli(0.5) ? 1 : 0);
  };
  for (size_t e = 0; e < n; ++e) {
    // Deep-level error counts carry the strong signal (more errors when the
    // latent is LOW; the count recovers -u).
    const int64_t n_deep_errors =
        rng.Poisson(3.0 * std::exp(-0.8 * u[e]));
    for (int64_t l = 0; l < n_deep_errors; ++l) {
      append_row(e, "error", 5 + static_cast<int64_t>(rng.UniformInt(4)));
    }
    // Shallow errors are noise.
    const int64_t n_shallow_errors = rng.Poisson(2.0);
    for (int64_t l = 0; l < n_shallow_errors; ++l) {
      append_row(e, "error", 1 + static_cast<int64_t>(rng.UniformInt(4)));
    }
    const int64_t n_other =
        1 + rng.Poisson(options.avg_logs_per_entity * std::exp(0.25 * w[e]));
    weak[e] = static_cast<double>(n_other);
    for (int64_t l = 0; l < n_other; ++l) {
      const char* event = kEvents[rng.UniformInt(6)];
      if (std::string(event) == "error") event = "click";
      append_row(e, event, 1 + static_cast<int64_t>(rng.UniformInt(8)));
    }
  }

  DatasetBundle bundle;
  bundle.name = "student";
  bundle.task = TaskKind::kBinaryClassification;
  bundle.label_col = "label";
  bundle.fk_attrs = {"session_id"};
  bundle.base_features = {"grade", "prior_score"};
  bundle.agg_attrs = {"elapsed_ms", "screen_x", "screen_y", "clicks", "scroll",
                      "hover_ms",   "fps",      "latency",  "score_delta"};
  bundle.agg_functions = AllAggFunctions();
  bundle.where_candidates = {"event_type", "level",      "room",
                             "ts",         "fullscreen", "music"};

  const auto scores = MixScores(options, u, w, base_effect, &rng);
  const auto labels = BinaryLabels(scores);

  FEAT_CHECK(bundle.training.AddColumn("session_id", Column::FromInts(DataType::kInt64, session_id)).ok(), "student D");
  FEAT_CHECK(bundle.training.AddColumn("grade", Column::FromDoubles(grade)).ok(), "student D");
  FEAT_CHECK(bundle.training.AddColumn("prior_score", Column::FromDoubles(prior_score)).ok(), "student D");
  FEAT_CHECK(bundle.training.AddColumn("label", Column::FromInts(DataType::kInt64, labels)).ok(), "student D");

  FEAT_CHECK(bundle.relevant.AddColumn("session_id", std::move(r_session)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("elapsed_ms", std::move(r_elapsed)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("screen_x", std::move(r_sx)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("screen_y", std::move(r_sy)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("clicks", std::move(r_clicks)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("scroll", std::move(r_scroll)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("hover_ms", std::move(r_hover)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("fps", std::move(r_fps)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("latency", std::move(r_latency)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("score_delta", std::move(r_delta)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("event_type", std::move(r_event)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("level", std::move(r_level)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("room", std::move(r_room)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("ts", std::move(r_ts)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("fullscreen", std::move(r_fullscreen)).ok(), "student R");
  FEAT_CHECK(bundle.relevant.AddColumn("music", std::move(r_music)).ok(), "student R");

  bundle.golden_query.agg = AggFunction::kCount;
  bundle.golden_query.agg_attr = "elapsed_ms";
  bundle.golden_query.group_keys = {"session_id"};
  bundle.golden_query.predicates = {
      Predicate::Equals("event_type", Value::Str("error")),
      Predicate::Range("level", 5.0, std::nullopt)};
  FinalizeGoldenTemplate(&bundle);
  WidenRelevant(&bundle, options.extra_numeric_cols, &rng);
  return bundle;
}

// ---------------------------------------------------------------------------
// Merchant (Elo): regression; golden feature is AVG(purchase_amount) under
// a category + month_lag predicate. Paper has 34 aggregable attributes; we
// scale to 8 (documented in DESIGN.md).
// ---------------------------------------------------------------------------
DatasetBundle MakeMerchant(const SyntheticOptions& options) {
  Rng rng(options.seed ^ 0xabcdef12ULL);
  const size_t n = options.n_train;

  std::vector<double> u(n), w(n), base_effect(n);
  std::vector<int64_t> merchant_id(n);
  std::vector<double> city_tier(n), established(n);
  for (size_t e = 0; e < n; ++e) {
    u[e] = rng.Normal();
    w[e] = rng.Normal();
    merchant_id[e] = static_cast<int64_t>(e);
    city_tier[e] = 1.0 + static_cast<double>(rng.UniformInt(3));
    established[e] = 1.0 + 30.0 * rng.Uniform();
    base_effect[e] = 0.4 * (city_tier[e] - 2.0) + 0.2 * (established[e] - 15.0) / 9.0;
  }

  Column r_merchant(DataType::kInt64), r_amount(DataType::kDouble);
  Column r_installments(DataType::kInt64), r_fee(DataType::kDouble);
  Column r_basket(DataType::kDouble), r_margin(DataType::kDouble);
  Column r_units(DataType::kInt64), r_tip(DataType::kDouble);
  Column r_category(DataType::kString), r_month_lag(DataType::kInt64);
  Column r_channel(DataType::kString), r_region(DataType::kString);
  Column r_promo(DataType::kBool), r_ts(DataType::kDatetime);

  const int64_t t_start = 1640000000;
  const int64_t t_end = t_start + 365LL * 86400;
  std::vector<double> strong(n, 0.0), weak(n, 0.0);
  for (size_t e = 0; e < n; ++e) {
    const int64_t n_logs =
        1 + rng.Poisson(options.avg_logs_per_entity * std::exp(0.25 * w[e]));
    weak[e] = static_cast<double>(n_logs);
    for (int64_t l = 0; l < n_logs; ++l) {
      r_merchant.AppendInt(merchant_id[e]);
      const bool grocery = rng.Bernoulli(0.25);
      const int64_t month_lag = -static_cast<int64_t>(rng.UniformInt(13));
      const bool in_golden = grocery && month_lag >= -3;
      r_amount.AppendDouble(in_golden
                                ? 100.0 + 35.0 * u[e] + rng.Normal(0.0, 8.0)
                                : 100.0 + rng.Normal(0.0, 40.0));
      r_installments.AppendInt(1 + static_cast<int64_t>(rng.UniformInt(12)));
      r_fee.AppendDouble(5.0 * rng.Uniform());
      r_basket.AppendDouble(1.0 + 20.0 * rng.Uniform());
      r_margin.AppendDouble(0.05 + 0.4 * rng.Uniform());
      r_units.AppendInt(1 + static_cast<int64_t>(rng.UniformInt(30)));
      r_tip.AppendDouble(3.0 * rng.Uniform());
      r_category.AppendString(grocery ? "grocery" : kCategories[rng.UniformInt(8)]);
      r_month_lag.AppendInt(month_lag);
      r_channel.AppendString(kChannels[rng.UniformInt(4)]);
      r_region.AppendString(StrFormat("region_%llu",
                                      static_cast<unsigned long long>(rng.UniformInt(5))));
      r_promo.AppendInt(rng.Bernoulli(0.2) ? 1 : 0);
      r_ts.AppendInt(rng.UniformRange(t_start, t_end));
    }
  }

  DatasetBundle bundle;
  bundle.name = "merchant";
  bundle.task = TaskKind::kRegression;
  bundle.label_col = "label";
  bundle.fk_attrs = {"merchant_id"};
  bundle.base_features = {"city_tier", "established_years"};
  bundle.agg_attrs = {"purchase_amount", "installments", "fee",   "basket_size",
                      "margin",          "units",        "tip"};
  bundle.agg_functions = AllAggFunctions();
  bundle.where_candidates = {"category", "month_lag", "channel",
                             "region",   "promo",     "ts"};

  // Regression target: loyalty-like continuous score (paper reports RMSE
  // near 4.0; we match the scale).
  const auto mixed = MixScores(options, u, w, base_effect, &rng);
  std::vector<double> target(n);
  for (size_t e = 0; e < n; ++e) target[e] = 1.5 * mixed[e];

  FEAT_CHECK(bundle.training.AddColumn("merchant_id", Column::FromInts(DataType::kInt64, merchant_id)).ok(), "merchant D");
  FEAT_CHECK(bundle.training.AddColumn("city_tier", Column::FromDoubles(city_tier)).ok(), "merchant D");
  FEAT_CHECK(bundle.training.AddColumn("established_years", Column::FromDoubles(established)).ok(), "merchant D");
  FEAT_CHECK(bundle.training.AddColumn("label", Column::FromDoubles(target)).ok(), "merchant D");

  FEAT_CHECK(bundle.relevant.AddColumn("merchant_id", std::move(r_merchant)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("purchase_amount", std::move(r_amount)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("installments", std::move(r_installments)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("fee", std::move(r_fee)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("basket_size", std::move(r_basket)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("margin", std::move(r_margin)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("units", std::move(r_units)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("tip", std::move(r_tip)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("category", std::move(r_category)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("month_lag", std::move(r_month_lag)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("channel", std::move(r_channel)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("region", std::move(r_region)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("promo", std::move(r_promo)).ok(), "merchant R");
  FEAT_CHECK(bundle.relevant.AddColumn("ts", std::move(r_ts)).ok(), "merchant R");

  bundle.golden_query.agg = AggFunction::kAvg;
  bundle.golden_query.agg_attr = "purchase_amount";
  bundle.golden_query.group_keys = {"merchant_id"};
  bundle.golden_query.predicates = {
      Predicate::Equals("category", Value::Str("grocery")),
      Predicate::Range("month_lag", -3.0, std::nullopt)};
  FinalizeGoldenTemplate(&bundle);
  WidenRelevant(&bundle, options.extra_numeric_cols, &rng);
  return bundle;
}

// ---------------------------------------------------------------------------
// One-to-one datasets (Covtype, Household): R holds one row per training
// entity keyed by data_index; aggregation degenerates to attribute lookup,
// which is exactly how the paper reuses FeatAug in §VII.C.
// ---------------------------------------------------------------------------
namespace {

DatasetBundle MakeOneToOne(const SyntheticOptions& options, const char* name,
                           size_t n_numeric, size_t n_categorical,
                           uint64_t seed_salt) {
  Rng rng(options.seed ^ seed_salt);
  const size_t n = options.n_train;
  const int num_classes = 4;

  std::vector<int64_t> data_index(n);
  std::iota(data_index.begin(), data_index.end(), int64_t{0});

  // Base features in D.
  std::vector<std::vector<double>> base_cols(5, std::vector<double>(n));
  for (size_t c = 0; c < base_cols.size(); ++c) {
    for (size_t r = 0; r < n; ++r) base_cols[c][r] = rng.Normal();
  }

  // Numeric R columns; the first two carry the signal.
  std::vector<std::vector<double>> num_cols(n_numeric, std::vector<double>(n));
  for (size_t c = 0; c < n_numeric; ++c) {
    for (size_t r = 0; r < n; ++r) num_cols[c][r] = rng.Normal();
  }
  // Categorical R columns; the first one also carries signal.
  std::vector<std::vector<std::string>> cat_cols(n_categorical,
                                                 std::vector<std::string>(n));
  std::vector<int> cat_signal(n);
  for (size_t c = 0; c < n_categorical; ++c) {
    for (size_t r = 0; r < n; ++r) {
      const int v = static_cast<int>(rng.UniformInt(4));
      if (c == 0) cat_signal[r] = v;
      cat_cols[c][r] = StrFormat("c%d", v);
    }
  }

  std::vector<double> strong(n), weak(n), base_effect(n);
  for (size_t r = 0; r < n; ++r) {
    strong[r] = num_cols.size() > 1
                    ? num_cols[0][r] + 0.6 * num_cols[1][r]
                    : num_cols[0][r];
    if (!cat_cols.empty()) strong[r] += 0.5 * (cat_signal[r] == 2 ? 1.0 : -0.3);
    weak[r] = num_cols.size() > 2 ? num_cols[2][r] : 0.0;
    base_effect[r] = base_cols[0][r];
  }
  const auto scores = MixScores(options, strong, weak, base_effect, &rng);
  const auto labels = MulticlassLabels(scores, num_classes);

  DatasetBundle bundle;
  bundle.name = name;
  bundle.task = TaskKind::kMultiClassification;
  bundle.label_col = "label";
  bundle.fk_attrs = {"data_index"};

  FEAT_CHECK(bundle.training.AddColumn("data_index", Column::FromInts(DataType::kInt64, data_index)).ok(), "o2o D");
  for (size_t c = 0; c < base_cols.size(); ++c) {
    const std::string col_name = StrFormat("base_%zu", c);
    FEAT_CHECK(bundle.training.AddColumn(col_name, Column::FromDoubles(base_cols[c])).ok(), "o2o D");
    bundle.base_features.push_back(col_name);
  }
  FEAT_CHECK(bundle.training.AddColumn("label", Column::FromInts(DataType::kInt64, labels)).ok(), "o2o D");

  FEAT_CHECK(bundle.relevant.AddColumn("data_index", Column::FromInts(DataType::kInt64, data_index)).ok(), "o2o R");
  for (size_t c = 0; c < n_numeric; ++c) {
    const std::string col_name = StrFormat("attr_%zu", c);
    FEAT_CHECK(bundle.relevant.AddColumn(col_name, Column::FromDoubles(num_cols[c])).ok(), "o2o R");
    bundle.agg_attrs.push_back(col_name);
    if (c < 8) bundle.where_candidates.push_back(col_name);
  }
  for (size_t c = 0; c < n_categorical; ++c) {
    const std::string col_name = StrFormat("cat_%zu", c);
    FEAT_CHECK(bundle.relevant.AddColumn(col_name, Column::FromStrings(cat_cols[c])).ok(), "o2o R");
    if (c < 2) bundle.where_candidates.push_back(col_name);
  }
  bundle.agg_functions = AllAggFunctions();

  bundle.golden_query.agg = AggFunction::kAvg;
  bundle.golden_query.agg_attr = "attr_0";
  bundle.golden_query.group_keys = {"data_index"};
  FinalizeGoldenTemplate(&bundle);
  WidenRelevant(&bundle, options.extra_numeric_cols, &rng);
  return bundle;
}

}  // namespace

DatasetBundle MakeCovtype(const SyntheticOptions& options) {
  return MakeOneToOne(options, "covtype", /*n_numeric=*/18, /*n_categorical=*/2,
                      0x5eedc0deULL);
}

DatasetBundle MakeHousehold(const SyntheticOptions& options) {
  return MakeOneToOne(options, "household", /*n_numeric=*/20, /*n_categorical=*/5,
                      0x400531dULL);
}

Result<DatasetBundle> MakeDatasetByName(const std::string& name,
                                        const SyntheticOptions& options) {
  const std::string lower = StrLower(name);
  if (lower == "tmall") return MakeTmall(options);
  if (lower == "instacart") return MakeInstacart(options);
  if (lower == "student") return MakeStudent(options);
  if (lower == "merchant") return MakeMerchant(options);
  if (lower == "covtype") return MakeCovtype(options);
  if (lower == "household") return MakeHousehold(options);
  return Status::InvalidArgument("unknown dataset: " + name);
}

}  // namespace featlib
