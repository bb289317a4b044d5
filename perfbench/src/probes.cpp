#include "probes.hpp"

#include <algorithm>

#include "features/encoders.hpp"
#include "nn/cells.hpp"
#include "nn/linear.hpp"
#include "storage/durable_kv_store.hpp"
#include "trace.hpp"
#include "train/sequence.hpp"
#include "util/thread.hpp"

namespace perfbench {
namespace {

using pp::tensor::Matrix;
using pp::tensor::QuantizedMatrix;

constexpr std::size_t kCalls = 3000;    // timed calls per batch-1 probe
constexpr std::size_t kBatchReps = 40;  // timed calls per batch-256 probe

/// Median wall time of `calls` invocations of fn(i), each timed alone.
template <typename F>
double median_ns(std::size_t calls, F&& fn) {
  std::vector<std::int64_t> samples;
  samples.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    samples.push_back(now_ns() - t0);
  }
  return quantile(samples, 0.5);
}

Matrix row_of(const Matrix& m, std::size_t r) {
  Matrix out(1, m.cols());
  std::copy(m.row(r).begin(), m.row(r).end(), out.row(0).begin());
  return out;
}

QuantizedMatrix row_of(const QuantizedMatrix& m, std::size_t r) {
  QuantizedMatrix out(1, m.cols());
  std::copy_n(m.row_data(r), m.cols(), out.row_data(0));
  out.set_row_scale(0, m.scale(r));
  return out;
}

void relu(Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = m[i] > 0 ? m[i] : 0.0f;
}

}  // namespace

ModelProbe probe_model(Stack& st, const Epoch& ep, std::uint64_t seed) {
  const models::RnnModel& model = *st.model;
  const pp::train::RnnNetwork& net = model.network();
  const auto& cfg = net.config();
  const std::size_t fw = cfg.feature_size;
  const std::size_t tb = cfg.time_buckets;
  const std::size_t H = cfg.hidden_size;
  const bool q8 = st.states->codec() == serving::StateCodec::kInt8;
  const pp::features::LogBucketizer bucketizer(static_cast<int>(tb));

  // Inputs exactly as the policy builds them: the first contexts of the
  // epoch, each user's stored state, the context + gap encoding.
  std::vector<const ingest::Event*> ctx;
  for (const ingest::Event& ev : ep.merged) {
    if (ev.kind == ingest::EventKind::kContext) ctx.push_back(&ev);
    if (ctx.size() == kBatchCapacity) break;
  }
  const std::size_t B = ctx.size();
  Matrix x(B, fw + tb);
  Matrix u(B, fw + tb + 1);
  Matrix h(B, H);
  QuantizedMatrix hq(B, H);
  std::vector<pp::train::InferenceState> f32_states;
  std::vector<pp::train::QuantizedInferenceState> q8_states;
  for (std::size_t b = 0; b < B; ++b) {
    const ingest::Event& ev = *ctx[b];
    std::int64_t last = 0;
    std::uint32_t updates = 0;
    if (q8) {
      auto s = st.states->get_q8(ev.user_id, net);
      pp::train::QuantizedInferenceState state =
          s ? s->state : net.infer_initial_state_q8();
      if (s) {
        last = s->last_update_time;
        updates = s->updates;
      }
      std::copy_n(state.hidden().data(), H, hq.row_data(b));
      hq.set_row_scale(b, state.hidden().scale());
      q8_states.push_back(std::move(state));
    } else {
      auto s = st.states->get(ev.user_id, net);
      pp::train::InferenceState state =
          s ? s->state : net.infer_initial_state();
      if (s) {
        last = s->last_update_time;
        updates = s->updates;
      }
      std::copy_n(state.hidden().data(), H, h.row(b).data());
      f32_states.push_back(std::move(state));
    }
    const std::int64_t gap = updates > 0 ? ev.t - last : 0;
    if (fw > 0) {
      pp::train::encode_step_features(model.schema(),
                                      model.sequence_config().feature_mode,
                                      ev.t, ev.context, x.row(b));
      pp::train::encode_step_features(model.schema(),
                                      model.sequence_config().feature_mode,
                                      ev.t, ev.context, u.row(b));
    }
    bucketizer.encode(gap, x.row(b).subspan(fw, tb));
    bucketizer.encode(gap, u.row(b).subspan(fw, tb));
    u.row(b)[fw + tb] = (ev.seq & 1) != 0 ? 1.0f : 0.0f;
  }
  std::vector<Matrix> x1, u1, h1;
  std::vector<QuantizedMatrix> hq1;
  for (std::size_t b = 0; b < B; ++b) {
    x1.push_back(row_of(x, b));
    u1.push_back(row_of(u, b));
    if (q8) {
      hq1.push_back(row_of(hq, b));
    } else {
      h1.push_back(row_of(h, b));
    }
  }

  ModelProbe p;
  p.predict_macs = static_cast<double>(net.predict_flops());
  p.update_macs = static_cast<double>(net.update_flops());
  std::vector<double> sink;
  if (q8) {
    p.predict_b1_ns = median_ns(kCalls, [&](std::size_t i) {
      sink = net.infer_logits_q8(hq1[i % B], x1[i % B]);
    });
    p.predict_b256_ns = median_ns(kBatchReps, [&](std::size_t) {
                          sink = net.infer_logits_q8(hq, x);
                        }) / static_cast<double>(B);
    std::vector<pp::train::QuantizedInferenceState> work(kCalls);
    for (std::size_t i = 0; i < kCalls; ++i) work[i] = q8_states[i % B];
    p.update_ns = median_ns(kCalls, [&](std::size_t i) {
      net.infer_update_q8(work[i], u1[i % B]);
    });
    const pp::train::QuantizedNetworkWeights& qw = net.quantized_weights();
    std::vector<QuantizedMatrix> qx, qmlp, qhid;
    for (std::size_t b = 0; b < B; ++b) {
      qx.push_back(QuantizedMatrix::quantize_rows(x1[b]));
      const Matrix factor = qw.latent->infer(qx.back());
      Matrix crossed(1, H);
      for (std::size_t j = 0; j < H; ++j) {
        crossed.at(0, j) = hq1[b].dequant(0, j) * (1.0f + factor.at(0, j));
      }
      qmlp.push_back(
          QuantizedMatrix::quantize_rows(Matrix::concat_cols(crossed, x1[b])));
      Matrix hidden = qw.w1->infer(qmlp.back());
      relu(hidden);
      qhid.push_back(QuantizedMatrix::quantize_rows_affine(hidden));
    }
    Matrix out;
    p.latent_ns = median_ns(kCalls, [&](std::size_t i) {
      out = qw.latent->infer(qx[i % B]);
    });
    p.w1_ns = median_ns(kCalls, [&](std::size_t i) {
      out = qw.w1->infer(qmlp[i % B]);
    });
    p.w2_ns = median_ns(kCalls, [&](std::size_t i) {
      out = qw.w2->infer(qhid[i % B]);
    });
    std::vector<QuantizedMatrix> hwork(kCalls);
    for (std::size_t i = 0; i < kCalls; ++i) hwork[i] = hq1[i % B];
    p.gru_step_ns = median_ns(kCalls, [&](std::size_t i) {
      out = qw.cells.front().infer_step(hwork[i], u1[i % B]);
    });
  } else {
    p.predict_b1_ns = median_ns(kCalls, [&](std::size_t i) {
      sink = net.infer_logits(h1[i % B], x1[i % B]);
    });
    p.predict_b256_ns = median_ns(kBatchReps, [&](std::size_t) {
                          sink = net.infer_logits(h, x);
                        }) / static_cast<double>(B);
    std::vector<pp::train::InferenceState> work(kCalls);
    for (std::size_t i = 0; i < kCalls; ++i) work[i] = f32_states[i % B];
    p.update_ns = median_ns(kCalls, [&](std::size_t i) {
      net.infer_update(work[i], u1[i % B]);
    });
    // nn::Linear / GruCell at the network's shapes, fed the run's inputs
    // (the kernels skip zero inputs, so the input pattern matters, the
    // weight values do not).
    pp::Rng rng(seed ^ 0x11AA);
    const std::size_t P = fw + tb;
    const pp::nn::Linear latent(P, H, rng);
    const pp::nn::Linear w1(H + P, cfg.mlp_hidden, rng);
    const pp::nn::Linear w2(cfg.mlp_hidden, 1, rng);
    const pp::nn::GruCell gru(fw + tb + 1, H, rng);
    std::vector<Matrix> mlp_in, hid;
    for (std::size_t b = 0; b < B; ++b) {
      const Matrix factor = latent.infer(x1[b]);
      Matrix crossed = h1[b];
      for (std::size_t j = 0; j < H; ++j) crossed[j] *= 1.0f + factor[j];
      mlp_in.push_back(Matrix::concat_cols(crossed, x1[b]));
      Matrix hidden = w1.infer(mlp_in.back());
      relu(hidden);
      hid.push_back(std::move(hidden));
    }
    Matrix out;
    p.latent_ns = median_ns(kCalls, [&](std::size_t i) {
      out = latent.infer(x1[i % B]);
    });
    p.w1_ns = median_ns(kCalls, [&](std::size_t i) {
      out = w1.infer(mlp_in[i % B]);
    });
    p.w2_ns = median_ns(kCalls, [&](std::size_t i) {
      out = w2.infer(hid[i % B]);
    });
    std::vector<std::vector<Matrix>> hwork(kCalls);
    for (std::size_t i = 0; i < kCalls; ++i) hwork[i] = {h1[i % B]};
    p.gru_step_ns = median_ns(kCalls, [&](std::size_t i) {
      gru.infer_step(hwork[i], u1[i % B]);
    });
  }
  return p;
}

StateProbe probe_states(Stack& st, const std::vector<std::uint64_t>& users) {
  constexpr std::size_t kUsers = 4000;
  const pp::train::RnnNetwork& net = st.model->network();
  const serving::StateCodec codec = st.states->codec();
  const bool q8 = codec == serving::StateCodec::kInt8;
  std::vector<serving::StoredState> f32;
  std::vector<serving::QuantizedStoredState> q;
  std::vector<std::uint64_t> ids;
  for (const std::uint64_t user : users) {
    if (ids.size() == kUsers) break;
    if (q8) {
      if (auto s = st.states->get_q8(user, net)) {
        q.push_back(std::move(*s));
        ids.push_back(user);
      }
    } else if (auto s = st.states->get(user, net)) {
      f32.push_back(std::move(*s));
      ids.push_back(user);
    }
  }
  StateProbe p;
  if (ids.empty()) return p;

  // A fresh store: the probe must not touch the run's state or ledger.
  serving::ShardedKvStore backend(8);
  Tracer tracer;
  TracedKv kv(backend, tracer);
  serving::HiddenStateStore store(kv, codec);
  tracer.set_active(true);
  std::int64_t put_ns = 0;
  std::int64_t get_ns = 0;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (q8) {
        store.put_q8(ids[i], q[i]);
      } else {
        store.put(ids[i], f32[i]);
      }
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (q8) {
        (void)store.get_q8(ids[i], net);
      } else {
        (void)store.get(ids[i], net);
      }
    }
    put_ns += t1 - t0;
    get_ns += now_ns() - t1;
  }
  tracer.set_active(false);
  std::int64_t kv_put = 0;
  std::int64_t kv_get = 0;
  for (const Span& s : tracer.collect()) {
    (s.layer == Layer::kKvPut ? kv_put : kv_get) += s.dur_ns;
  }
  const double n = static_cast<double>(ids.size() * kRounds);
  p.encode_ns = static_cast<double>(put_ns - kv_put) / n;
  p.decode_ns = static_cast<double>(get_ns - kv_get) / n;
  return p;
}

namespace {

std::vector<std::vector<std::uint8_t>> encode_chunks(
    const Epoch& ep, std::size_t frames_per_chunk, std::size_t* frames) {
  std::vector<std::vector<std::uint8_t>> chunks;
  *frames = 0;
  for (const std::vector<ingest::Event>& lane : ep.lanes) {
    std::vector<std::uint8_t> chunk;
    std::size_t in_chunk = 0;
    for (const ingest::Event& ev : lane) {
      ingest::encode_event(ev, &chunk);
      ++*frames;
      if (++in_chunk == frames_per_chunk) {
        chunks.push_back(std::move(chunk));
        chunk = {};
        in_chunk = 0;
      }
    }
    if (!chunk.empty()) chunks.push_back(std::move(chunk));
  }
  return chunks;
}

}  // namespace

CodecProbe probe_codec(const Epoch& ep, std::size_t frames_per_chunk) {
  std::vector<std::int64_t> enc;
  std::vector<std::int64_t> dec;
  std::size_t frames = 0;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t t0 = now_ns();
    const auto chunks = encode_chunks(ep, frames_per_chunk, &frames);
    const std::int64_t t1 = now_ns();
    ingest::WireDecoder decoder;
    ingest::Event ev;
    std::size_t decoded = 0;
    for (const auto& chunk : chunks) {
      decoder.feed(chunk);
      while (decoder.next(&ev) == ingest::WireDecoder::Status::kOk) ++decoded;
    }
    const std::int64_t t2 = now_ns();
    if (decoded != frames) return {};
    enc.push_back(t1 - t0);
    dec.push_back(t2 - t1);
  }
  CodecProbe p;
  const auto f = static_cast<double>(std::max<std::size_t>(frames, 1));
  p.encode_ns_per_frame = quantile(enc, 0.5) / f;
  p.decode_ns_per_frame = quantile(dec, 0.5) / f;
  return p;
}

BusProbe probe_bus(const Epoch& ep, std::size_t frames_per_chunk,
                   std::size_t lane_capacity) {
  std::size_t frames = 0;
  auto chunks = encode_chunks(ep, frames_per_chunk, &frames);
  ingest::EventBusConfig config;
  config.num_lanes = 1;
  config.lane_capacity = lane_capacity;
  config.backpressure = ingest::BackpressurePolicy::kBlock;
  ingest::EventBus bus(config);
  BusProbe p;
  p.publish_ns.reserve(chunks.size());
  pp::Thread producer([&] {
    for (auto& chunk : chunks) {
      const std::int64_t t0 = now_ns();
      bus.publish(0, std::move(chunk));
      p.publish_ns.push_back(now_ns() - t0);
    }
    bus.close(0);
  });
  ingest::WireDecoder decoder;
  ingest::Event ev;
  std::vector<std::vector<std::uint8_t>> drained;
  for (;;) {
    const std::uint64_t seen = bus.activity_epoch();
    drained.clear();
    const bool open = bus.drain(0, &drained);
    for (const auto& chunk : drained) {
      decoder.feed(chunk);
      while (decoder.next(&ev) == ingest::WireDecoder::Status::kOk) {
      }
    }
    if (!open) break;
    if (drained.empty()) bus.wait_activity(seen);
  }
  producer.join();
  const ingest::LaneStats totals = bus.totals();
  p.blocked_ratio = totals.published == 0
                        ? 0.0
                        : static_cast<double>(totals.blocked) /
                              static_cast<double>(totals.published);
  p.max_depth = totals.max_depth;
  return p;
}

std::vector<std::int64_t> probe_pacing(const Epoch& ep, double events_per_s,
                                       std::size_t events) {
  std::vector<std::int64_t> late;
  const std::size_t n = std::min(events, ep.merged.size());
  late.reserve(n);
  const double period_ns = 1e9 / events_per_s;
  const std::int64_t start = now_ns() + 100000;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    spin_until(due);
    late.push_back(now_ns() - due);
    std::vector<std::uint8_t> chunk;
    ingest::encode_event(ep.merged[i], &chunk);
  }
  return late;
}

StorageProbe probe_storage_copy(Stack& st,
                                const std::vector<std::uint64_t>& users,
                                const std::string& dir) {
  const pp::train::RnnNetwork& net = st.model->network();
  const serving::StateCodec codec = st.states->codec();
  StorageProbe p;
  {
    pp::storage::DurableKvConfig config;
    config.dir = dir;
    pp::storage::DurableKvStore durable(config);
    serving::HiddenStateStore store(durable, codec);
    constexpr std::size_t kUsers = 20000;
    for (std::size_t i = 0; i < users.size() && i < kUsers; ++i) {
      const std::uint64_t user = users[i];
      if (codec == serving::StateCodec::kInt8) {
        if (auto s = st.states->get_q8(user, net)) store.put_q8(user, *s);
      } else if (auto s = st.states->get(user, net)) {
        store.put(user, *s);
      }
    }
    const std::int64_t t0 = now_ns();
    durable.flush();
    p.flush_ns = static_cast<double>(now_ns() - t0);
    const pp::storage::DurableKvStats ds = durable.durable_stats();
    p.disk_bytes = static_cast<double>(ds.disk_bytes);
    p.records = static_cast<double>(durable.stats().writes);
    p.compactions = static_cast<double>(ds.compactions);
    p.live_keys = durable.size();
  }
  pp::storage::DurableKvConfig config;
  config.dir = dir;
  const std::int64_t t0 = now_ns();
  pp::storage::DurableKvStore reopened(config);
  p.recovery_s = static_cast<double>(now_ns() - t0) * 1e-9;
  p.recovered_keys = reopened.size();
  return p;
}

StorageProbe probe_storage_reopen(std::unique_ptr<Stack> st) {
  StorageProbe p;
  auto* durable =
      dynamic_cast<pp::storage::DurableKvStore*>(st->backend.get());
  if (durable == nullptr) return p;
  const std::int64_t t0 = now_ns();
  durable->flush();
  p.flush_ns = static_cast<double>(now_ns() - t0);
  const pp::storage::DurableKvStats ds = durable->durable_stats();
  p.disk_bytes = static_cast<double>(ds.disk_bytes);
  p.records = static_cast<double>(durable->stats().writes);
  p.compactions = static_cast<double>(ds.compactions);
  p.live_keys = durable->size();
  const std::string dir = st->durable_dir;
  st.reset();
  pp::storage::DurableKvConfig config;
  config.dir = dir;
  const std::int64_t t1 = now_ns();
  pp::storage::DurableKvStore reopened(config);
  p.recovery_s = static_cast<double>(now_ns() - t1) * 1e-9;
  p.recovered_keys = reopened.size();
  return p;
}

}  // namespace perfbench
