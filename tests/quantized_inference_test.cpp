// End-to-end int8 quantized inference (the §9 single-byte serving path):
//
//  * layer-level parity of the int8 replicas against their f32 twins,
//  * batched-vs-single bit-transparency of the quantized RNNpredict head,
//  * wire interop between the generic kInt8 codec and the raw q8 store
//    accessors (no f32 round trip),
//  * a golden accuracy regression — a trained model scores a held-out
//    window through the f32 and int8 serving paths and the PR-AUC delta /
//    decision-flip rate must stay inside the quantization error budget,
//  * threaded + sharded int8 serving bit-identical to its own sequential
//    replay (the PR 2 stress harness, quantized).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "data/generators.hpp"
#include "eval/metrics.hpp"
#include "models/rnn_model.hpp"
#include "serving/precompute_service.hpp"
#include "serving_test_util.hpp"
#include "train/sequence.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace pp::serving {
namespace {

data::Dataset quant_dataset(std::size_t users, int days) {
  data::MobileTabConfig config;
  config.num_users = users;
  config.days = days;
  return data::generate_mobile_tab(config);
}

models::RnnModel make_model(const data::Dataset& dataset,
                            std::size_t hidden = 16, int layers = 1) {
  models::RnnModelConfig config;
  config.hidden_size = hidden;
  config.mlp_hidden = hidden;
  config.num_layers = layers;
  models::RnnModel model(dataset, config);
  model.enable_quantized_serving();
  return model;
}

TEST(QuantizedLinear, TracksF32LayerWithinQuantizationBudget) {
  Rng rng(5);
  nn::Linear layer(24, 10, rng);
  nn::QuantizedLinear qlayer(layer);
  const tensor::Matrix x = tensor::Matrix::randn(3, 24, rng, 0.0f, 0.8f);
  const tensor::Matrix ref = layer.infer(x);
  const tensor::Matrix out =
      qlayer.infer(tensor::QuantizedMatrix::quantize_rows(x));
  // Error budget: each operand is within half a quantization step, so the
  // dot product of k=24 terms stays within a few steps of the f32 result.
  float budget = 0.0f;
  for (std::size_t b = 0; b < 3; ++b) {
    float row_max = 0.0f;
    for (std::size_t j = 0; j < 24; ++j) {
      row_max = std::max(row_max, std::abs(x.at(b, j)));
    }
    budget = std::max(budget, row_max);
  }
  budget = 24.0f * (budget / 127.0f);  // k * (input step + weight step) scale
  EXPECT_TRUE(out.approx_equal(ref, budget));
  // The layer really is int8: no f32 weight matrix reachable from it.
  EXPECT_EQ(qlayer.weight().size(),
            layer.in_features() * layer.out_features());
}

TEST(QuantizedGru, StepTracksF32CellAndReencodesState) {
  const auto dataset = quant_dataset(4, 3);
  const models::RnnModel model = make_model(dataset);
  const train::RnnNetwork& net = model.network();

  Rng rng(9);
  const tensor::Matrix x = tensor::Matrix::rand_uniform(
      1, net.config().update_input_size(), rng, 0.0f, 1.0f);
  train::InferenceState f32_state = net.infer_initial_state();
  train::QuantizedInferenceState q8_state = net.infer_initial_state_q8();
  for (int step = 0; step < 12; ++step) {
    net.infer_update(f32_state, x);
    net.infer_update_q8(q8_state, x);
  }
  // Per-step error is bounded by the state re-encoding (scale/2 per
  // element, |h| <= 1 so scale <= 1/127) plus the int8 gate products;
  // twelve steps must not drift beyond a few quantization steps.
  const tensor::Matrix decoded = q8_state.hidden().dequantize();
  EXPECT_TRUE(decoded.approx_equal(f32_state.hidden(), 0.08f));
  EXPECT_GT(decoded.map([](float v) { return std::abs(v); }).sum(), 0.0);
}

TEST(QuantizedPredictHead, BatchedMatchesSingleExactly) {
  const auto dataset = quant_dataset(4, 3);
  const models::RnnModel model = make_model(dataset);
  const train::RnnNetwork& net = model.network();
  const std::size_t H = net.config().hidden_size;
  const std::size_t B = 9;

  Rng rng(13);
  // Per-row int8 states with deliberately different scales per row.
  tensor::QuantizedMatrix h_block(B, H);
  for (std::size_t b = 0; b < B; ++b) {
    const tensor::Matrix row =
        tensor::Matrix::randn(1, H, rng, 0.0f, 0.1f + 0.1f * b);
    const tensor::QuantizedMatrix q = tensor::QuantizedMatrix::quantize(row);
    std::copy_n(q.data(), H, h_block.row_data(b));
    h_block.set_row_scale(b, q.scale());
  }
  const tensor::Matrix x_block = tensor::Matrix::rand_uniform(
      B, net.config().predict_input_size(), rng, 0.0f, 1.0f);

  const std::vector<double> batched = net.infer_logits_q8(h_block, x_block);
  ASSERT_EQ(batched.size(), B);
  for (std::size_t b = 0; b < B; ++b) {
    tensor::QuantizedMatrix h_one(1, H);
    std::copy_n(h_block.row_data(b), H, h_one.row_data(0));
    h_one.set_row_scale(0, h_block.scale(b));
    tensor::Matrix x_one(1, x_block.cols());
    std::copy_n(x_block.row(b).data(), x_block.cols(), x_one.data());
    const std::vector<double> single = net.infer_logits_q8(h_one, x_one);
    // Bit-identical: per-row activation quantization + exact integer
    // accumulation make batching transparent.
    EXPECT_EQ(batched[b], single.front()) << "row " << b;
  }
}

TEST(HiddenStoreQ8, RawAccessorsInteropWithInt8Codec) {
  const auto dataset = quant_dataset(4, 3);
  // Single-layer and stacked GRUs: every layer's record round-trips.
  for (const int layers : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "num_layers=" << layers);
    const models::RnnModel model = make_model(dataset, 8, layers);
    const train::RnnNetwork& net = model.network();

    LocalKvStore kv;
    HiddenStateStore store(kv, StateCodec::kInt8);

    // put (f32 encode) -> get_q8: the raw bytes equal the codec's encoding.
    StoredState f32_state;
    f32_state.state = net.infer_initial_state();
    Rng rng(3);
    for (auto& layer : f32_state.state.layers) {
      layer[0] = tensor::Matrix::randn(1, 8, rng, 0.0f, 0.4f);
    }
    f32_state.last_update_time = 777;
    f32_state.updates = 3;
    store.put(1, f32_state);
    const auto q8 = store.get_q8(1, net);
    ASSERT_TRUE(q8.has_value());
    EXPECT_EQ(q8->last_update_time, 777);
    EXPECT_EQ(q8->updates, 3u);
    const tensor::QuantizedMatrix expected =
        tensor::QuantizedMatrix::quantize(f32_state.state.hidden());
    EXPECT_EQ(q8->state.hidden().storage(), expected.storage());
    EXPECT_EQ(q8->state.hidden().scale(), expected.scale());
    for (std::size_t l = 0; l < f32_state.state.layers.size(); ++l) {
      const tensor::QuantizedMatrix layer =
          tensor::QuantizedMatrix::quantize(f32_state.state.layers[l][0]);
      EXPECT_EQ(q8->state.layers[l].storage(), layer.storage())
          << "layer " << l;
      EXPECT_EQ(q8->state.layers[l].scale(), layer.scale()) << "layer " << l;
    }

    // put_q8 -> get: the f32 API decodes the same record.
    QuantizedStoredState back = *q8;
    back.updates = 4;
    store.put_q8(2, back);
    const auto decoded = store.get(2, net);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->updates, 4u);
    EXPECT_EQ(decoded->state.hidden(), q8->state.hidden().dequantize());
    for (std::size_t l = 0; l < q8->state.layers.size(); ++l) {
      EXPECT_EQ(decoded->state.layers[l][0], q8->state.layers[l].dequantize())
          << "layer " << l;
    }

    // Cold user and codec guard.
    EXPECT_FALSE(store.get_q8(99, net).has_value());
    LocalKvStore kv_f32;
    HiddenStateStore wrong(kv_f32, StateCodec::kFloat32);
    EXPECT_THROW(wrong.get_q8(1, net), std::logic_error);

    // Geometry guard: a record written by a differently-sized model must
    // fail loudly instead of feeding an out-of-bounds read downstream.
    const models::RnnModel other = make_model(dataset, 16, layers);
    EXPECT_THROW(store.get_q8(1, other.network()), std::runtime_error);
  }
}

TEST(RnnPolicyInt8, ConstructionGuards) {
  const auto dataset = quant_dataset(4, 3);
  LocalKvStore kv;

  // f32-codec store cannot back an int8 policy.
  models::RnnModel model = make_model(dataset, 8);
  HiddenStateStore f32_store(kv, StateCodec::kFloat32);
  EXPECT_THROW(RnnPolicy(model, f32_store, ScorePrecision::kInt8),
               std::invalid_argument);

  // Quantized weights must be prepared before the policy exists.
  models::RnnModelConfig config;
  config.hidden_size = 8;
  config.mlp_hidden = 8;
  const models::RnnModel unprepared(dataset, config);
  HiddenStateStore i8_store(kv, StateCodec::kInt8);
  EXPECT_THROW(RnnPolicy(unprepared, i8_store, ScorePrecision::kInt8),
               std::invalid_argument);

  // Non-GRU cells have no quantized path at all.
  models::RnnModelConfig lstm_config;
  lstm_config.hidden_size = 8;
  lstm_config.mlp_hidden = 8;
  lstm_config.cell = nn::CellType::kLstm;
  models::RnnModel lstm(dataset, lstm_config);
  EXPECT_THROW(lstm.enable_quantized_serving(), std::invalid_argument);
}

TEST(RnnPolicyInt8, BatchedScoringMatchesSingleExactly) {
  const auto dataset = quant_dataset(30, 5);
  // Single-layer and stacked GRUs: the int8 multi-layer carry and the
  // per-layer raw records run through the same batched path.
  for (const int layers : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "num_layers=" << layers);
    const models::RnnModel model = make_model(dataset, 16, layers);

    LocalKvStore kv_seq, kv_batch;
    HiddenStateStore store_seq(kv_seq, StateCodec::kInt8);
    HiddenStateStore store_batch(kv_batch, StateCodec::kInt8);
    RnnPolicy sequential(model, store_seq, ScorePrecision::kInt8);
    RnnPolicy batched(model, store_batch, ScorePrecision::kInt8);

    for (std::uint64_t u = 0; u < 8; ++u) {
      for (int s = 0; s < 2; ++s) {
        JoinedSession joined;
        joined.session_id = u * 10 + static_cast<std::uint64_t>(s);
        joined.user_id = u;
        joined.session_start =
            1000000 + static_cast<std::int64_t>(u) * 500 + s * 7200;
        joined.context = {static_cast<std::uint32_t>(u % 5), 1, 0, 0};
        joined.access = (u + static_cast<std::uint64_t>(s)) % 2 == 0;
        sequential.on_session_complete(joined);
        batched.on_session_complete(joined);
      }
    }

    std::vector<SessionStart> starts;
    for (std::uint64_t u = 0; u < 16; ++u) {
      SessionStart s;
      s.session_id = 100 + u;
      s.user_id = u;
      s.t = 1100000 + static_cast<std::int64_t>(u) * 333;
      s.context = {static_cast<std::uint32_t>(u % 7), 0, 0, 0};
      starts.push_back(s);
    }
    const std::vector<double> batch_scores = batched.score_sessions(starts);
    ASSERT_EQ(batch_scores.size(), starts.size());
    for (std::size_t i = 0; i < starts.size(); ++i) {
      EXPECT_EQ(batch_scores[i],
                sequential.score_session(starts[i].user_id, starts[i].t,
                                         starts[i].context))
          << "session " << i;
    }
    EXPECT_EQ(batched.cost_summary().predictions,
              sequential.cost_summary().predictions);
    EXPECT_EQ(batched.cost_summary().model_flops,
              sequential.cost_summary().model_flops);
  }
}

/// Replays the held-out users' sessions chronologically through a policy:
/// every session is scored before being folded into the state, and
/// sessions at or after `collect_from` contribute (score, label) pairs.
void replay_users(const data::Dataset& dataset,
                  const std::vector<std::size_t>& users, RnnPolicy& policy,
                  std::int64_t collect_from, std::vector<double>& scores,
                  std::vector<float>& labels) {
  std::uint64_t sid = 1;
  for (const std::size_t u : users) {
    const data::UserLog& log = dataset.users[u];
    for (const data::Session& session : log.sessions) {
      const double score =
          policy.score_session(u, session.timestamp, session.context);
      if (session.timestamp >= collect_from) {
        scores.push_back(score);
        labels.push_back(session.access ? 1.0f : 0.0f);
      }
      JoinedSession joined;
      joined.session_id = sid++;
      joined.user_id = u;
      joined.session_start = session.timestamp;
      joined.context = session.context;
      joined.access = session.access != 0;
      policy.on_session_complete(joined);
    }
  }
}

TEST(QuantizedInference, GoldenAccuracyWithinBudget) {
  // Train a small RNN, then score a held-out window through the f32 and
  // int8 serving paths. Quantization error compounds through the GRU
  // steps, so this is the end-to-end guard: PR-AUC delta < 0.01 and
  // decision flips < 1%.
  const auto dataset = quant_dataset(160, 12);
  std::vector<std::size_t> train_users(120);
  std::iota(train_users.begin(), train_users.end(), 0);
  std::vector<std::size_t> held_out;
  for (std::size_t u = 120; u < 160; ++u) held_out.push_back(u);

  models::RnnModelConfig config;
  config.hidden_size = 16;
  config.mlp_hidden = 16;
  config.epochs = 2;
  config.num_threads = 2;
  config.truncate_history = 100;
  models::RnnModel model(dataset, config);
  model.fit(dataset, train_users);
  model.enable_quantized_serving();

  LocalKvStore kv_f32, kv_i8;
  HiddenStateStore store_f32(kv_f32, StateCodec::kFloat32);
  HiddenStateStore store_i8(kv_i8, StateCodec::kInt8);
  RnnPolicy policy_f32(model, store_f32, ScorePrecision::kFloat32);
  RnnPolicy policy_i8(model, store_i8, ScorePrecision::kInt8);

  const std::int64_t holdout_from = dataset.end_time - 3 * 86400;
  std::vector<double> scores_f32, scores_i8;
  std::vector<float> labels_f32, labels_i8;
  replay_users(dataset, held_out, policy_f32, holdout_from, scores_f32,
               labels_f32);
  replay_users(dataset, held_out, policy_i8, holdout_from, scores_i8,
               labels_i8);
  ASSERT_EQ(scores_f32.size(), scores_i8.size());
  ASSERT_EQ(labels_f32, labels_i8);
  ASSERT_GT(scores_f32.size(), 100u);  // enough mass for a stable PR-AUC

  const double auc_f32 = eval::pr_auc(scores_f32, labels_f32);
  const double auc_i8 = eval::pr_auc(scores_i8, labels_i8);
  EXPECT_LT(std::abs(auc_f32 - auc_i8), 0.01)
      << "f32 " << auc_f32 << " vs int8 " << auc_i8;

  const double threshold = 0.5;
  std::size_t flips = 0;
  double max_delta = 0.0;
  for (std::size_t i = 0; i < scores_f32.size(); ++i) {
    flips += (scores_f32[i] >= threshold) != (scores_i8[i] >= threshold);
    max_delta = std::max(max_delta, std::abs(scores_f32[i] - scores_i8[i]));
  }
  EXPECT_LT(static_cast<double>(flips),
            0.01 * static_cast<double>(scores_f32.size()))
      << "flips " << flips << " of " << scores_f32.size()
      << " (max |Δscore| " << max_delta << ")";

  // The int8 tier holds the accuracy above on 1-byte-per-dimension state
  // payloads (4 bytes/dim in f32; the serving_test footprint case checks
  // the ~4x total-record ratio at the paper's d=128, where payload
  // dominates framing). Here: same live users, exact record accounting.
  EXPECT_EQ(kv_i8.size(), kv_f32.size());
  EXPECT_EQ(kv_i8.value_bytes(),
            kv_i8.size() * store_i8.encoded_bytes(model.network()));
  EXPECT_EQ(kv_f32.value_bytes(),
            kv_f32.size() * store_f32.encoded_bytes(model.network()));
  // record = 16B header + 4B parts + 8B dims + 4B scale + 1 byte/dim.
  EXPECT_EQ(store_i8.encoded_bytes(model.network()),
            16u + 4u + 8u + 4u + config.hidden_size);
  EXPECT_EQ(store_f32.encoded_bytes(model.network()),
            16u + 4u + 8u + 4u * config.hidden_size);
}

TEST(QuantizedInference, ThreadedShardedReplayMatchesSequentialExactly) {
  // The PR 2 stress harness, int8 edition: batched session starts fanned
  // out over a ThreadPool against a ShardedKvStore must be bit-identical
  // to the same int8 policy replayed sequentially — decisions, cost
  // ledger, joiner stats, and online metrics.
  const auto dataset = quant_dataset(40, 4);
  const models::RnnModel model = make_model(dataset, 12);

  LocalKvStore kv_seq;
  ShardedKvStore kv_par(8);
  HiddenStateStore store_seq(kv_seq, StateCodec::kInt8);
  HiddenStateStore store_par(kv_par, StateCodec::kInt8);
  RnnPolicy policy_seq(model, store_seq, ScorePrecision::kInt8);
  RnnPolicy policy_par(model, store_par, ScorePrecision::kInt8);
  PrecomputeService service_seq(policy_seq, 0.5, 100, 10, 0);
  PrecomputeService service_par(policy_par, 0.5, 100, 10, 0);
  ThreadPool pool(4);

  std::uint64_t sid = 1;
  std::int64_t base = 1000;
  for (int round = 0; round < 5; ++round) {
    // Mixed timestamps (joins fire mid-batch and cut scoring groups),
    // duplicate users including same-instant duplicates, shuffled order.
    std::vector<SessionStart> batch;
    for (std::uint64_t u = 0; u < 24; ++u) {
      SessionStart s;
      s.session_id = sid++;
      s.user_id = (u * 7 + static_cast<std::uint64_t>(round)) % 20;
      s.t = base + static_cast<std::int64_t>((u * 53) % 300);
      s.context = {static_cast<std::uint32_t>(u % 5), 0, 0, 0};
      batch.push_back(s);
    }
    batch[5].user_id = batch[2].user_id;
    batch[5].t = batch[2].t;
    std::swap(batch[0], batch[17]);
    std::swap(batch[3], batch[11]);

    const std::vector<bool> par_decisions =
        service_par.on_session_starts(batch, pool);

    std::vector<bool> seq_decisions(batch.size());
    for (const std::size_t i : time_order(batch)) {
      seq_decisions[i] = service_seq.on_session_start(
          batch[i].session_id, batch[i].user_id, batch[i].t,
          batch[i].context);
    }
    EXPECT_EQ(par_decisions, seq_decisions) << "round " << round;

    for (std::size_t i = 0; i < batch.size(); i += 2) {
      service_par.on_access(batch[i].session_id, batch[i].t + 50);
      service_seq.on_access(batch[i].session_id, batch[i].t + 50);
    }
    base += 500;
  }

  service_par.flush();
  service_seq.flush();
  expect_equal_ledgers(policy_par.cost_summary(), policy_seq.cost_summary());
  EXPECT_EQ(service_par.metrics().predictions(),
            service_seq.metrics().predictions());
  EXPECT_EQ(service_par.metrics().prefetches(),
            service_seq.metrics().prefetches());
  EXPECT_EQ(service_par.metrics().successful_prefetches(),
            service_seq.metrics().successful_prefetches());
  EXPECT_EQ(service_par.joiner_stats().joined,
            service_seq.joiner_stats().joined);
  EXPECT_GT(service_par.joiner_stats().joined, 0u);
  // The int8 states really are what the store holds: a warm store whose
  // every record is the compact int8 record.
  EXPECT_GT(kv_par.size(), 0u);
  EXPECT_EQ(kv_par.value_bytes(),
            kv_par.size() * store_par.encoded_bytes(model.network()));
}

TEST(ScoreUsersQ8, MatchesPerPredictionQuantizedReplayExactly) {
  // The offline int8 replay (used by golden-accuracy checks and the
  // online prequential gate) batches emitted predictions through
  // infer_logits_q8 in ~256-row blocks; per-row activation quantization
  // keeps that bit-identical to this hand-rolled per-prediction replay —
  // 240 days x ~2 sessions/day pushes users across the block boundary.
  const auto dataset = quant_dataset(4, 240);
  const models::RnnModel model = make_model(dataset, 12);
  const train::RnnNetwork& net = model.network();
  std::vector<std::size_t> users(dataset.users.size());
  std::iota(users.begin(), users.end(), 0);

  const train::ScoredSeries series = train::score_users_q8(
      net, dataset, users, model.sequence_config(), false, 0, 0, 2);

  train::ScoredSeries ref;
  std::size_t max_user_predictions = 0;
  const std::size_t hidden = net.config().hidden_size;
  for (const std::size_t u : users) {
    const train::UserSequence seq = train::build_session_sequence(
        dataset, dataset.users[u], model.sequence_config());
    max_user_predictions =
        std::max(max_user_predictions, seq.num_predictions());
    train::QuantizedInferenceState state = net.infer_initial_state_q8();
    std::uint32_t applied = 0;
    for (std::size_t p = 0; p < seq.num_predictions(); ++p) {
      while (applied < seq.h_index[p]) {
        tensor::Matrix x(1, seq.update_inputs.cols());
        std::copy(seq.update_inputs.row(applied).begin(),
                  seq.update_inputs.row(applied).end(), x.row(0).begin());
        net.infer_update_q8(state, x);
        ++applied;
      }
      tensor::QuantizedMatrix h_one(1, hidden);
      std::copy(state.hidden().data(), state.hidden().data() + hidden,
                h_one.row_data(0));
      h_one.set_row_scale(0, state.hidden().scale());
      tensor::Matrix x_one(1, seq.predict_inputs.cols());
      std::copy(seq.predict_inputs.row(p).begin(),
                seq.predict_inputs.row(p).end(), x_one.row(0).begin());
      ref.append(pp::sigmoid(net.infer_logits_q8(h_one, x_one).front()),
                 seq.labels[p], seq.timestamps[p]);
    }
  }
  EXPECT_GT(max_user_predictions, 256u);  // the flush boundary is crossed
  ASSERT_EQ(series.scores.size(), ref.scores.size());
  for (std::size_t i = 0; i < ref.scores.size(); ++i) {
    EXPECT_EQ(series.scores[i], ref.scores[i]) << "prediction " << i;
    EXPECT_EQ(series.labels[i], ref.labels[i]);
    EXPECT_EQ(series.timestamps[i], ref.timestamps[i]);
  }
  // Same emission schedule as the f32 replay (labels/timestamps align),
  // so gate comparisons of f32 vs int8 series are apples to apples.
  const train::ScoredSeries f32 = train::score_users(
      net, dataset, users, model.sequence_config(), false, 0, 0, 2);
  ASSERT_EQ(f32.timestamps.size(), series.timestamps.size());
  EXPECT_EQ(f32.timestamps, series.timestamps);
  EXPECT_EQ(f32.labels, series.labels);

  // Guard: the q8 replay requires prepared replicas.
  models::RnnModelConfig plain_config;
  plain_config.hidden_size = 12;
  plain_config.mlp_hidden = 12;
  const models::RnnModel plain(dataset, plain_config);
  EXPECT_THROW(train::score_users_q8(plain.network(), dataset, users,
                                     plain.sequence_config(), false),
               std::logic_error);
}

}  // namespace
}  // namespace pp::serving
