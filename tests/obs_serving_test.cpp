// Serving-side contract of the obs layer, in the `obs` ctest tier:
// per-stage histograms actually populate from a scored batch, the stage
// sums tile the batch wall, and — the observe-only guarantee — scores are
// bit-identical with instrumentation on and off. Also the *Stats views:
// a tenant's export is live, scoped to the tenant's lifetime, and has one
// series per visitor field; a real end-of-run export is valid exposition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "data/generators.hpp"
#include "features/examples.hpp"
#include "obs/metrics.hpp"
#include "obs_test_util.hpp"
#include "online/tenant.hpp"
#include "online_test_util.hpp"
#include "serving/hidden_store.hpp"
#include "serving/online_experiment.hpp"
#include "serving/precompute_service.hpp"
#include "util/thread_pool.hpp"

namespace pp::serving {
namespace {

struct HistDelta {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
};

/// Count/sum of every global-registry histogram series of `name` whose
/// labels contain all of `want` — tests diff this across a scored batch
/// (the global registry accumulates across tests in this binary).
HistDelta hist_totals(const std::string& name,
                      const obs::MetricsRegistry::Labels& want) {
  HistDelta out;
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name != name) continue;
    bool matches = true;
    for (const auto& [wk, wv] : want) {
      bool found = false;
      for (const auto& [k, v] : m.labels) {
        if (k == wk && v == wv) found = true;
      }
      matches = matches && found;
    }
    if (!matches) continue;
    out.count += m.hist.count;
    out.sum += m.hist.sum;
  }
  return out;
}

data::Dataset small_dataset() {
  data::MobileTabConfig config;
  config.num_users = 16;
  config.days = 3;
  return data::generate_mobile_tab(config);
}

std::vector<SessionStart> make_starts(std::size_t n) {
  std::vector<SessionStart> starts;
  for (std::uint64_t u = 0; u < n; ++u) {
    SessionStart s;
    s.session_id = 100 + u;
    s.user_id = u % 16;
    s.t = 1100000 + static_cast<std::int64_t>(u) * 333;
    s.context = {static_cast<std::uint32_t>(u % 7), 0, 0, 0};
    starts.push_back(s);
  }
  return starts;
}

void warm_policy(RnnPolicy& policy) {
  for (std::uint64_t u = 0; u < 8; ++u) {
    JoinedSession joined;
    joined.session_id = u;
    joined.user_id = u;
    joined.session_start = 1000000 + static_cast<std::int64_t>(u) * 500;
    joined.context = {static_cast<std::uint32_t>(u % 5), 1, 0, 0};
    joined.access = u % 2 == 0;
    policy.on_session_complete(joined);
  }
}

class ObsServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_period_ = obs::sample_period();
    saved_enabled_ = obs::timing_enabled();
    obs::set_timing_enabled(true);
    obs::set_sample_period(1);  // time every call — the tests are exact
  }
  void TearDown() override {
    obs::set_sample_period(saved_period_);
    obs::set_timing_enabled(saved_enabled_);
  }

 private:
  std::uint32_t saved_period_ = 8;
  bool saved_enabled_ = true;
};

TEST_F(ObsServingTest, StageHistogramsPopulateAndTileTheBatchWall) {
  const data::Dataset dataset = small_dataset();
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  const models::RnnModel model(dataset, rnn_config);
  LocalKvStore kv;
  HiddenStateStore store(kv);
  RnnPolicy policy(model, store);
  warm_policy(policy);

  const obs::MetricsRegistry::Labels f32{{"precision", "f32"}};
  const auto stage_names = {"kv_get", "feature_encode", "head_gemm",
                            "sigmoid"};
  HistDelta before_stages;
  for (const char* stage : stage_names) {
    const auto d = hist_totals("pp_serving_stage_ns",
                               {{"stage", stage}, {"precision", "f32"}});
    before_stages.count += d.count;
    before_stages.sum += d.sum;
  }
  const HistDelta before_wall = hist_totals("pp_serving_batch_ns", f32);
  const HistDelta before_gru = hist_totals(
      "pp_serving_stage_ns", {{"stage", "gru_update"}, {"precision", "f32"}});

  const std::vector<SessionStart> starts = make_starts(12);
  policy.score_sessions(starts);
  JoinedSession joined;
  joined.session_id = 999;
  joined.user_id = 3;
  joined.session_start = 1200000;
  joined.context = {1, 0, 0, 0};
  joined.access = true;
  policy.on_session_complete(joined);

  // Every per-batch stage recorded exactly once for the one scored batch.
  for (const char* stage : {"kv_get", "feature_encode"}) {
    const auto d = hist_totals("pp_serving_stage_ns",
                               {{"stage", stage}, {"precision", "f32"}});
    EXPECT_GT(d.count, 0u) << stage;
  }
  const HistDelta after_wall = hist_totals("pp_serving_batch_ns", f32);
  EXPECT_EQ(after_wall.count, before_wall.count + 1);
  const HistDelta after_gru = hist_totals(
      "pp_serving_stage_ns", {{"stage", "gru_update"}, {"precision", "f32"}});
  EXPECT_EQ(after_gru.count, before_gru.count + 1);

  // Per-stage breakdown consistency: the in-batch stages (kv_get,
  // feature_encode, head_gemm, sigmoid) are laps/sub-sections of the same
  // scored batch, so their summed time cannot exceed the batch wall.
  HistDelta after_stages;
  for (const char* stage : stage_names) {
    const auto d = hist_totals("pp_serving_stage_ns",
                               {{"stage", stage}, {"precision", "f32"}});
    after_stages.count += d.count;
    after_stages.sum += d.sum;
  }
  EXPECT_GT(after_stages.count, before_stages.count);
  EXPECT_LE(after_stages.sum - before_stages.sum,
            after_wall.sum - before_wall.sum);
  EXPECT_GT(after_wall.sum, before_wall.sum);

  // Batch-size histogram saw the batch.
  const HistDelta sessions = hist_totals("pp_serving_batch_sessions", f32);
  EXPECT_GT(sessions.count, 0u);
}

TEST_F(ObsServingTest, ScoresBitIdenticalWithTimingOnAndOff) {
  const data::Dataset dataset = small_dataset();
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  const models::RnnModel model(dataset, rnn_config);

  LocalKvStore kv_on, kv_off;
  HiddenStateStore store_on(kv_on), store_off(kv_off);
  RnnPolicy policy_on(model, store_on);
  RnnPolicy policy_off(model, store_off);
  warm_policy(policy_on);
  warm_policy(policy_off);

  const std::vector<SessionStart> starts = make_starts(16);
  obs::set_timing_enabled(true);
  const std::vector<double> scores_on = policy_on.score_sessions(starts);
  obs::set_timing_enabled(false);
  const std::vector<double> scores_off = policy_off.score_sessions(starts);
  obs::set_timing_enabled(true);

  ASSERT_EQ(scores_on.size(), scores_off.size());
  for (std::size_t i = 0; i < scores_on.size(); ++i) {
    // Bit-identical, not approximately equal: instrumentation must not
    // touch the scored numerics in any way.
    EXPECT_EQ(scores_on[i], scores_off[i]) << "session " << i;
  }
}

TEST_F(ObsServingTest, Int8StageSeriesAreLabeledSeparately) {
  const data::Dataset dataset = small_dataset();
  models::RnnModelConfig rnn_config;
  rnn_config.hidden_size = 16;
  rnn_config.mlp_hidden = 16;
  models::RnnModel model(dataset, rnn_config);
  model.enable_quantized_serving();
  LocalKvStore kv;
  HiddenStateStore store(kv, StateCodec::kInt8);
  RnnPolicy policy(model, store, ScorePrecision::kInt8);
  warm_policy(policy);

  const HistDelta before = hist_totals("pp_serving_batch_ns",
                                       {{"precision", "int8"}});
  policy.score_sessions(make_starts(8));
  const HistDelta after = hist_totals("pp_serving_batch_ns",
                                      {{"precision", "int8"}});
  EXPECT_EQ(after.count, before.count + 1);
  const auto kv_get = hist_totals("pp_serving_stage_ns",
                                  {{"stage", "kv_get"}, {"precision", "int8"}});
  EXPECT_GT(kv_get.count, 0u);
}

TEST_F(ObsServingTest, ThreadPoolReportsQueueDepthAndTaskWait) {
  const HistDelta before = hist_totals("pp_threadpool_task_wait_ns", {});
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    futures.reserve(16);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([] {}));
    }
    ThreadPool::wait_all(futures);
  }
  const HistDelta after = hist_totals("pp_threadpool_task_wait_ns", {});
  EXPECT_EQ(after.count, before.count + 16);
  // The depth gauge exists (its instantaneous value is racy by nature —
  // only the series' presence and kind are contractual).
  bool saw_depth = false;
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name == "pp_threadpool_queue_depth") {
      saw_depth = true;
      EXPECT_EQ(m.kind, obs::MetricKind::kGauge);
    }
  }
  EXPECT_TRUE(saw_depth);
}

// ------------------------------------------------------------ stats views

using online::testutil::all_users;
using online::testutil::drift_cohort;
using online::testutil::small_rnn_config;

/// Gauge rows of `snap` under exactly `labels`, by name.
std::map<std::string, double> gauges_under(
    const std::vector<obs::MetricSnapshot>& snap,
    const obs::MetricsRegistry::Labels& labels) {
  std::map<std::string, double> rows;
  for (const auto& m : snap) {
    if (m.kind != obs::MetricKind::kGauge || m.labels != labels) continue;
    EXPECT_TRUE(rows.emplace(m.name, m.value).second) << "twice: " << m.name;
  }
  return rows;
}

/// Expects one row named prefix + field per visitor field of `stats`,
/// equal to the field; returns the number of fields.
template <class Stats>
std::size_t expect_fields(const std::map<std::string, double>& rows,
                          const std::string& prefix, const Stats& stats) {
  std::size_t fields = 0;
  stats.for_each_field([&](std::string_view field, auto value) {
    ++fields;
    const std::string name = prefix + std::string(field);
    const auto it = rows.find(name);
    if (it == rows.end()) {
      ADD_FAILURE() << "no series " << name;
      return;
    }
    EXPECT_EQ(it->second, static_cast<double>(value)) << name;
  });
  return fields;
}

/// Every *Stats struct of `stack` against its view rows: one row per field
/// and no other row under the tenant's label set.
void expect_stack_export(online::ServingStack& stack,
                         const obs::MetricsRegistry::Labels& labels) {
  const auto rows =
      gauges_under(obs::MetricsRegistry::global().snapshot(), labels);
  const ServingCostSummary costs = stack.service().cost_summary();
  std::size_t fields = expect_fields(rows, "pp_cost_", costs);
  fields += expect_fields(rows, "pp_kv_", costs.kv);
  fields += expect_fields(rows, "pp_joiner_", stack.service().joiner_stats());
  fields += expect_fields(rows, "pp_online_", stack.cohort().learner().stats());
  fields += expect_fields(rows, "pp_replay_", stack.cohort().buffer().stats());
  fields += expect_fields(rows, "pp_daemon_", stack.cohort().daemon().stats());
  const auto* durable = dynamic_cast<storage::DurableKvStore*>(&stack.kv());
  ASSERT_NE(durable, nullptr);
  fields += expect_fields(rows, "pp_durable_", durable->durable_stats());
  EXPECT_EQ(rows.size(), fields);
}

TEST(StatsViews, TenantExportIsLiveScopedAndComplete) {
  const data::Dataset cohort = drift_cohort(6, 3, /*flip_day=*/1000, 700);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pp_obs_views_live").string();
  std::filesystem::remove_all(dir);
  const obs::MetricsRegistry::Labels labels{{"cohort", "views_live"}};

  struct Start {
    std::int64_t t;
    std::uint64_t user;
    const data::Session* session;
  };
  std::vector<Start> stream;
  for (const auto& user : cohort.users) {
    for (const auto& s : user.sessions) {
      stream.push_back({s.timestamp, user.user_id, &s});
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Start& a, const Start& b) { return a.t < b.t; });

  {
    online::CohortRegistryMap tenants;
    online::TenantSpec spec;
    spec.id = "views_live";
    spec.model = std::make_shared<models::RnnModel>(cohort, small_rnn_config());
    spec.dataset_meta = &cohort;
    spec.backend = storage::KvBackendSpec::durable_dir(dir);
    online::ServingStack& stack = tenants.register_tenant(spec);
    PrecomputeService& service = stack.service();

    std::uint64_t session_id = 1;
    const auto serve = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        service.on_session_start(session_id, stream[i].user, stream[i].t,
                                 stream[i].session->context);
        if (stream[i].session->access != 0) {
          service.on_access(session_id,
                            stream[i].t + cohort.session_length / 2);
        }
        ++session_id;
      }
      service.advance_to(stream[to - 1].t);
    };

    const std::size_t half = stream.size() / 2;
    serve(0, half);
    service.advance_to(0);  // one clock rewind, so that field is non-zero
    ASSERT_EQ(service.joiner_stats().clock_rewinds, 1u);
    expect_stack_export(stack, labels);
    auto rows =
        gauges_under(obs::MetricsRegistry::global().snapshot(), labels);
    EXPECT_EQ(rows["pp_joiner_clock_rewinds"], 1.0);
    const double predictions = rows["pp_cost_predictions"];
    const double observed = rows["pp_online_observed_sessions"];
    EXPECT_EQ(predictions, static_cast<double>(half));
    EXPECT_GT(observed, 0.0);
    EXPECT_GT(rows["pp_durable_disk_bytes"], 0.0);

    // Live: the next scrape reads the structs again.
    serve(half, stream.size());
    expect_stack_export(stack, labels);
    rows = gauges_under(obs::MetricsRegistry::global().snapshot(), labels);
    EXPECT_EQ(rows["pp_cost_predictions"],
              static_cast<double>(stream.size()));
    EXPECT_GT(rows["pp_online_observed_sessions"], observed);

    // One live view per label set.
    EXPECT_THROW(obs::MetricsRegistry::global().add_view(
                     labels, [](obs::ViewSink&) {}),
                 std::invalid_argument);
  }
  // Scoped: the tenant's series leave with the map.
  EXPECT_TRUE(
      gauges_under(obs::MetricsRegistry::global().snapshot(), labels).empty());
  std::filesystem::remove_all(dir);
}

TEST(StatsViews, ExperimentExportIsValidAndCarriesNoStaleArm) {
  const data::Dataset cohort = drift_cohort(8, 3, /*flip_day=*/1000, 500);
  const data::Dataset pretrain = drift_cohort(8, 2, /*flip_day=*/1000, 1);
  auto rnn_config = small_rnn_config();
  rnn_config.epochs = 2;
  models::RnnModel rnn(pretrain, rnn_config);
  rnn.fit(pretrain, all_users(pretrain));
  features::FeaturePipeline pipeline(cohort.schema, {},
                                     features::gbdt_encoding());
  const auto examples = features::build_session_examples(
      pretrain, all_users(pretrain), pipeline, 0, 0, 1);
  models::GbdtModel gbdt;
  models::GbdtModelConfig gbdt_config;
  gbdt_config.booster.num_rounds = 2;
  gbdt_config.depth_search = false;
  gbdt.fit(examples, examples, gbdt_config);

  OnlineExperimentConfig config;
  config.online_rnn_arm = true;
  config.learner.min_train_sessions = 20;
  config.learner.min_holdout_predictions = 10;
  const OnlineExperimentResult with_online = run_online_experiment(
      cohort, all_users(cohort), rnn, gbdt, pipeline, config);
  obs::testutil::expect_valid_exposition(with_online.metrics_prometheus);
  const std::string online_rounds =
      "pp_online_rounds{cohort=\"rnn_online\"} " +
      std::to_string(with_online.learner.rounds) + "\n";
  EXPECT_GT(with_online.learner.rounds, 0u);
  EXPECT_NE(with_online.metrics_prometheus.find(online_rounds),
            std::string::npos);
  for (const char* arm : {"rnn", "gbdt", "rnn_online"}) {
    EXPECT_NE(with_online.metrics_prometheus.find(
                  "pp_cost_predictions{cohort=\"" + std::string(arm) + "\"}"),
              std::string::npos)
        << arm;
  }

  // A second run without the online arm, in the same process: no view row
  // of the first run's online arm survives into its export. The only
  // rnn_online series left is the learner's round-timer histogram, a
  // registry instrument that lives as long as the process.
  config.online_rnn_arm = false;
  const OnlineExperimentResult without_online = run_online_experiment(
      cohort, all_users(cohort), rnn, gbdt, pipeline, config);
  const std::string& text = without_online.metrics_prometheus;
  obs::testutil::expect_valid_exposition(text);
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    const std::size_t line_end = text.find('\n', line_start);
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.find("\"rnn_online\"") == std::string::npos) continue;
    EXPECT_EQ(line.rfind("pp_online_round_ns", 0), 0u) << "stale: " << line;
  }
  EXPECT_NE(text.find("pp_cost_predictions{cohort=\"gbdt\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace pp::serving
