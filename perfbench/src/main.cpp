// perfbench: the serving-loop benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --self-test [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs an
// untraced and a traced pass over the same epochs, checks their outputs
// agree, and reports the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A run whose
// output check fails exits 1. Full results (with the host fingerprint)
// and the traced run's spans are written under --out-dir.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "tensor/cpu_dispatch.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 11;
/// A traced run's passes cover half the run's epochs, at most this many
/// timed sessions, which bounds the traced pass's span memory.
constexpr std::size_t kTraceSessions = 120000;
/// An open-loop run whose pacer ran later than this at p99 is flagged.
constexpr double kLateFlagUs = 500.0;
constexpr double kProbeRate = 20000.0;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> checks;  // failures
  std::vector<std::string> flags;
  std::vector<std::pair<std::string, double>> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "?";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
    if (last > cpu) out += '-' + std::to_string(last);
    cpu = last;
  }
  return out;
}

std::string host_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"affinity\": \"" << affinity_list() << "\", \"isa\": \""
     << pp::tensor::cpu_isa_name(pp::tensor::detected_cpu_isa())
     << "\", \"gemm_kernel\": \""
     << pp::tensor::gemm_kernel_name(pp::tensor::gemm_dispatched_kernel())
     << "\", \"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"obs_sample_period\": " << pp::obs::sample_period() << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

double us(double ns) { return ns / 1000.0; }

/// Sum of span durations by layer.
std::int64_t total_ns(const std::vector<Span>& spans, Layer layer) {
  std::int64_t sum = 0;
  for (const Span& s : spans) sum += s.layer == layer ? s.dur_ns : 0;
  return sum;
}

std::vector<std::int64_t> durations(const std::vector<Span>& spans,
                                    Layer layer) {
  std::vector<std::int64_t> out;
  for (const Span& s : spans) {
    if (s.layer == layer) out.push_back(s.dur_ns);
  }
  return out;
}

/// A run's set-up: the stack, the event source and its first epoch.
struct Setup {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<EventSource> source;
  Epoch first;
};

Setup make_setup(const WorkloadSpec& spec, std::uint64_t seed,
                 const std::string& dir, Tracer* tracer) {
  Setup s;
  s.stack = std::make_unique<Stack>(spec, seed, dir, tracer);
  s.source = std::make_unique<EventSource>(
      spec, seed, s.stack->meta.start_time, s.stack->meta.session_length);
  s.first = s.source->next();
  return s;
}

void note_failures(Report& rep, const PassResult& r, const char* pass) {
  rep.attempted += r.events_attempted;
  rep.failed += r.failed_events;
  for (const std::string& c : r.check_failures) {
    rep.checks.push_back(std::string(pass) + ": " + c);
  }
}

// ------------------------------------------------------------ end to end

void run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds, const std::string& scratch, Report& rep) {
  // Set up several times and report the median; the last set-up runs.
  std::vector<double> setup_s;
  Setup setup;
  for (int k = 0; k < kSetupReps; ++k) {
    setup = {};
    const std::string dir = scratch + "/setup" + std::to_string(k);
    const std::int64_t t0 = now_ns();
    setup = make_setup(spec, seed, dir, nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  PassPlan plan;
  plan.epochs = plan.warmup_epochs + timed_epochs(spec, seconds);
  PassResult r = run_pass(spec, *setup.stack, *setup.source,
                          std::move(setup.first), plan, nullptr);
  note_failures(rep, r, "run");

  const double sessions = static_cast<double>(r.timed_contexts);
  const double wall_s = static_cast<double>(r.wall_ns) * 1e-9;
  rep.add("sessions_per_s", median(r.epoch_sessions_per_s), "1/s");
  rep.add("decision_p50_us", us(median(r.window_latency_p50_ns)), "us");
  rep.add("decision_p99_us", us(median(r.window_latency_p99_ns)), "us");
  rep.add("cpu_us_per_session", us(median(r.epoch_cpu_ns_per_session)), "us");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("setup_s", median(setup_s), "s");
  rep.extra.push_back({"decision_samples",
                       static_cast<double>(r.latency_all_ns.size())});
  rep.extra.push_back({"decision_windows",
                       static_cast<double>(r.window_latency_p99_ns.size())});
  rep.extra.push_back({"decision_p50_us_whole_run",
                       us(quantile(r.latency_all_ns, 0.50))});
  rep.extra.push_back({"decision_p99_us_whole_run",
                       us(quantile(r.latency_all_ns, 0.99))});
  rep.extra.push_back({"sessions_per_s_whole_run", sessions / wall_s});
  rep.extra.push_back({"cpu_us_per_session_whole_run",
                       us(static_cast<double>(r.cpu_ns)) / sessions});
  rep.extra.push_back({"timed_seconds", wall_s});
  rep.extra.push_back({"epochs", static_cast<double>(r.epochs)});
  if (spec.loop == Loop::kOpenBus) {
    const double late = us(quantile(r.late_ns, 0.99));
    rep.extra.push_back({"loadgen.late_p99_us", late});
    rep.extra.push_back({"loadgen.stalls", static_cast<double>(r.pacer_stalls)});
    rep.extra.push_back({"loadgen.stall_s",
                         static_cast<double>(r.pacer_stall_ns) * 1e-9});
    if (late > kLateFlagUs) {
      rep.flags.push_back("pacer fell behind its schedule: late p99 " +
                          num(late) + " us");
    }
    if (r.bus.blocked > 0) {
      rep.flags.push_back("backpressure blocked the pacer " +
                          std::to_string(r.bus.blocked) + " times");
    }
  }
}

// -------------------------------------------------------------- per layer

void run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                const std::string& scratch, const std::string& out_dir,
                Report& rep) {
  // Untraced reference pass; the traced pass then replays the same epochs.
  Setup ref = make_setup(spec, seed, scratch + "/untraced", nullptr);
  PassPlan plan;
  const std::size_t per_epoch = ref.source->sessions_per_epoch();
  plan.epochs = plan.warmup_epochs +
                std::min(timed_epochs(spec, seconds / 2),
                         std::max<std::size_t>(1, kTraceSessions / per_epoch));
  plan.digest = true;
  PassResult ru = run_pass(spec, *ref.stack, *ref.source,
                           std::move(ref.first), plan, nullptr);
  note_failures(rep, ru, "untraced pass");
  ref = {};

  Tracer tracer;
  Setup setup = make_setup(spec, seed, scratch + "/traced", &tracer);
  PassResult rt = run_pass(spec, *setup.stack, *setup.source,
                           std::move(setup.first), plan, &tracer);
  note_failures(rep, rt, "traced pass");
  if (!(rt.outputs == ru.outputs)) {
    rep.checks.push_back("traced outputs differ from untraced: " +
                         rt.outputs.describe() + " vs " +
                         ru.outputs.describe());
  }
  std::vector<Span> spans = tracer.collect();
  const std::string span_path = out_dir + "/" + spec.name + ".spans.tsv";
  if (!write_spans(span_path, spans)) {
    rep.checks.push_back("cannot write " + span_path);
  }

  const double sessions = static_cast<double>(rt.timed_contexts);
  const double all_sessions = static_cast<double>(rt.contexts);
  const bool bus = spec.loop != Loop::kReplay;
  Stack& st = *setup.stack;
  const Epoch& last = rt.last_epoch;

  // ---- ingest
  CodecProbe codec = probe_codec(last, spec.frames_per_chunk);
  std::vector<std::int64_t> publish = durations(spans, Layer::kPublish);
  double blocked_ratio = 0;
  double max_depth = 0;
  if (bus) {
    std::int64_t enc = 0;
    std::uint64_t frames = 0;
    for (const Span& s : spans) {
      if (s.layer == Layer::kEncode) {
        enc += s.dur_ns;
        frames += s.count;
      }
    }
    codec.encode_ns_per_frame =
        static_cast<double>(enc) / static_cast<double>(frames);
    blocked_ratio = static_cast<double>(rt.bus.blocked) /
                    static_cast<double>(rt.bus.published);
    max_depth = static_cast<double>(rt.bus.max_depth);
  } else {
    BusProbe bp = probe_bus(last, spec.frames_per_chunk, spec.lane_capacity);
    publish = std::move(bp.publish_ns);
    blocked_ratio = bp.blocked_ratio;
    max_depth = static_cast<double>(bp.max_depth);
  }
  rep.add("ingest.publish_ns.p50", quantile(publish, 0.50), "ns");
  rep.add("ingest.publish_ns.p99", quantile(publish, 0.99), "ns");
  rep.add("ingest.publish_blocked_ratio", blocked_ratio, "1");
  rep.add("ingest.encode_ns_per_frame", codec.encode_ns_per_frame, "ns");
  rep.add("ingest.decode_ns_per_frame", codec.decode_ns_per_frame, "ns");
  rep.add("ingest.sessions_per_batch",
          bus ? static_cast<double>(rt.consumer.contexts) /
                    static_cast<double>(rt.consumer.batches)
              : sessions / static_cast<double>(rt.service_batches),
          "count");
  rep.add("ingest.max_held", static_cast<double>(rt.consumer.max_held),
          "count");
  rep.add("ingest.max_queue_depth", max_depth, "count");
  rep.add("ingest.hold_us.p50", us(quantile(rt.hold_ns, 0.50)), "us");
  rep.add("ingest.hold_us.p99", us(quantile(rt.hold_ns, 0.99)), "us");

  // ---- serving
  std::vector<std::int64_t> per_session;
  std::uint64_t calls = 0;
  for (const Span& s : spans) {
    if (s.layer != Layer::kScore) continue;
    ++calls;
    per_session.insert(per_session.end(), s.count,
                       s.dur_ns / static_cast<std::int64_t>(s.count));
  }
  const double scored = static_cast<double>(per_session.size());
  const std::int64_t score_total = total_ns(spans, Layer::kScore);
  const std::int64_t complete_total = total_ns(spans, Layer::kComplete);
  std::vector<std::int64_t> complete = durations(spans, Layer::kComplete);
  std::vector<std::int64_t> kv_get = durations(spans, Layer::kKvGet);
  std::vector<std::int64_t> kv_put = durations(spans, Layer::kKvPut);
  const double kv_get_total = static_cast<double>(total_ns(spans, Layer::kKvGet));
  const double kv_put_total = static_cast<double>(total_ns(spans, Layer::kKvPut));
  rep.add("serving.score_ns_per_session.p50", quantile(per_session, 0.50), "ns");
  rep.add("serving.score_ns_per_session.p99", quantile(per_session, 0.99), "ns");
  rep.add("serving.sessions_per_call", scored / static_cast<double>(calls),
          "count");
  rep.add("serving.complete_ns.p50", quantile(complete, 0.50), "ns");
  rep.add("serving.complete_ns.p99", quantile(complete, 0.99), "ns");

  // Service self time: the bench's own service calls minus the policy time
  // inside them. The bus workloads' service is driven by the consumer, so
  // it is measured on a direct replay of the workload's first epochs.
  double service_ns = static_cast<double>(rt.service_ns);
  double policy_ns = static_cast<double>(score_total + complete_total);
  double service_sessions = sessions;
  if (bus) {
    WorkloadSpec replay = spec;
    replay.loop = Loop::kReplay;
    replay.pool_workers = 0;
    Tracer probe_tracer;
    Setup ps = make_setup(replay, seed, scratch + "/service", &probe_tracer);
    PassPlan pp_plan;
    pp_plan.epochs = 2;
    PassResult rp = run_pass(replay, *ps.stack, *ps.source,
                             std::move(ps.first), pp_plan, &probe_tracer);
    const std::vector<Span> ps_spans = probe_tracer.collect();
    service_ns = static_cast<double>(rp.service_ns);
    policy_ns = static_cast<double>(total_ns(ps_spans, Layer::kScore) +
                                    total_ns(ps_spans, Layer::kComplete));
    service_sessions = static_cast<double>(rp.timed_contexts);
  }
  const double service_self = (service_ns - policy_ns) / service_sessions;
  rep.add("serving.service_self_ns_per_session", service_self, "ns");
  rep.add("serving.kv_get_ns.p50", quantile(kv_get, 0.50), "ns");
  rep.add("serving.kv_get_ns.p99", quantile(kv_get, 0.99), "ns");
  rep.add("serving.kv_put_ns.p50", quantile(kv_put, 0.50), "ns");
  rep.add("serving.kv_put_ns.p99", quantile(kv_put, 0.99), "ns");
  const Outputs& o = rt.outputs;
  rep.add("serving.kv_lookups_per_session",
          static_cast<double>(o.kv_lookups) / all_sessions, "count");
  rep.add("serving.kv_bytes_read_per_session",
          static_cast<double>(o.kv_bytes_read) / all_sessions, "B");
  rep.add("serving.kv_bytes_written_per_session",
          static_cast<double>(o.kv_bytes_written) / all_sessions, "B");
  const StateProbe sp = probe_states(st, rt.users);
  rep.add("serving.state_decode_ns", sp.decode_ns, "ns");
  rep.add("serving.state_encode_ns", sp.encode_ns, "ns");
  rep.add("serving.allocs_per_session",
          static_cast<double>(rt.allocs) / sessions, "count");

  // ---- models / nn
  const ModelProbe mp = probe_model(st, last, seed);
  rep.add("models.predict_ns.b1", mp.predict_b1_ns, "ns");
  rep.add("models.predict_ns.b256", mp.predict_b256_ns, "ns");
  rep.add("models.update_ns", mp.update_ns, "ns");
  rep.add("nn.latent_ns", mp.latent_ns, "ns");
  rep.add("nn.w1_ns", mp.w1_ns, "ns");
  rep.add("nn.w2_ns", mp.w2_ns, "ns");
  rep.add("models.predict_residual_ns",
          mp.predict_b1_ns - mp.latent_ns - mp.w1_ns - mp.w2_ns, "ns");
  rep.add("nn.gru_step_ns", mp.gru_step_ns, "ns");
  rep.add("models.predict_macs", mp.predict_macs, "count");
  rep.add("models.update_macs", mp.update_macs, "count");

  // ---- loadgen (pacer validity; probed on the closed loops)
  std::vector<std::int64_t> late =
      spec.loop == Loop::kOpenBus ? ru.late_ns
                                  : probe_pacing(last, kProbeRate, 4000);
  const double late_p99 = us(quantile(late, 0.99));
  if (spec.loop == Loop::kOpenBus && late_p99 > kLateFlagUs) {
    rep.flags.push_back("pacer fell behind its schedule: late p99 " +
                        num(late_p99) + " us");
  }

  // Per-session accounting of the serve time (printed, not gated): on the
  // replays the parts should sum to the bench-timed service wall.
  {
    std::ostringstream os;
    os << "accounting per session (ns): "
       << (bus ? "[replay probe] service_wall=" : "service_wall=")
       << service_ns / service_sessions << " service_self=" << service_self
       << (bus ? " | [traced pass]" : "")
       << " score=" << static_cast<double>(score_total) / sessions
       << " complete=" << static_cast<double>(complete_total) / sessions
       << " kv_get=" << kv_get_total / sessions
       << " kv_put=" << kv_put_total / sessions
       << " | model probe: predict_b1=" << mp.predict_b1_ns
       << " (latent=" << mp.latent_ns << " w1=" << mp.w1_ns
       << " w2=" << mp.w2_ns << ") update=" << mp.update_ns
       << " state_decode=" << sp.decode_ns << " state_encode=" << sp.encode_ns;
    std::printf("%s\n", os.str().c_str());
  }

  // ---- storage (the durable workload's own log; a copy elsewhere)
  StorageProbe sto;
  if (spec.durable) {
    sto = probe_storage_reopen(std::move(setup.stack));
  } else {
    sto = probe_storage_copy(st, rt.users, scratch + "/storage");
    setup = {};
  }
  if (sto.recovered_keys != sto.live_keys) {
    rep.checks.push_back("durable reopen recovered " +
                         std::to_string(sto.recovered_keys) + " of " +
                         std::to_string(sto.live_keys) + " keys");
  }
  rep.add("storage.disk_bytes_per_session",
          sto.disk_bytes / (spec.durable ? all_sessions : sto.records), "B");
  rep.add("storage.compactions", sto.compactions, "count");
  rep.add("storage.flush_ns", sto.flush_ns, "ns");
  rep.add("storage.recovery_s", sto.recovery_s, "s");

  rep.add("loadgen.late_p99_us", late_p99, "us");
  const double traced_rate = sessions / (static_cast<double>(rt.wall_ns) * 1e-9);
  const double untraced_rate =
      static_cast<double>(ru.timed_contexts) / (static_cast<double>(ru.wall_ns) * 1e-9);
  rep.add("trace.overhead_ratio", traced_rate / untraced_rate, "1");
  rep.extra.push_back({"traced_sessions", sessions});
  rep.extra.push_back({"spans", static_cast<double>(spans.size())});
}

// -------------------------------------------------------------- self-test

int self_test(const std::string& scratch) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  constexpr std::uint64_t kSeed = 7;
  for (const WorkloadSpec& base : workloads()) {
    WorkloadSpec spec = base;
    spec.sessions_per_lane = 300;
    const std::string name = spec.name;
    std::printf("%s\n", spec.name);
    PassPlan plan;
    plan.epochs = 3;
    plan.digest = true;

    Setup a = make_setup(spec, kSeed, scratch + "/" + name + "-a", nullptr);
    PassResult ru = run_pass(spec, *a.stack, *a.source, std::move(a.first),
                             plan, nullptr);
    check(ru.check_failures.empty(), "untraced output checks");
    for (const std::string& c : ru.check_failures) std::printf("       %s\n", c.c_str());

    Tracer tracer;
    Setup b = make_setup(spec, kSeed, scratch + "/" + name + "-b", &tracer);
    PassResult rt = run_pass(spec, *b.stack, *b.source, std::move(b.first),
                             plan, &tracer);
    check(rt.check_failures.empty(), "traced output checks");
    check(rt.outputs == ru.outputs, "traced == untraced outputs");
    check(!tracer.collect().empty(), "traced pass recorded spans");

    if (spec.loop != Loop::kReplay) {
      WorkloadSpec seq = spec;
      seq.loop = Loop::kReplay;
      seq.pool_workers = 0;
      PassPlan seq_plan = plan;
      seq_plan.batch_capacity = 1;
      Setup c = make_setup(seq, kSeed, scratch + "/" + name + "-c", nullptr);
      PassResult rs = run_pass(seq, *c.stack, *c.source, std::move(c.first),
                               seq_plan, nullptr);
      check(rs.check_failures.empty(), "sequential replay output checks");
      const bool same = rs.outputs == ru.outputs;
      check(same, "ingest == sequential direct replay (decisions, metrics, "
                  "ledger, states)");
      if (!same) {
        std::printf("       ingest:     %s\n       sequential: %s\n",
                    ru.outputs.describe().c_str(),
                    rs.outputs.describe().c_str());
      }
    }
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------------- main

void print_result(const Report& rep, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

bool write_result(const std::string& path, const std::string& workload,
                  std::uint64_t seed, bool trace, const Report& rep,
                  bool correct, double failed_ratio) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               trace ? 1 : 0);
  std::fprintf(f, " \"host\": %s,\n", host_json().c_str());
  std::fprintf(f,
               " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"failed_ratio\": %s,\n",
               correct ? "true" : "false",
               static_cast<unsigned long long>(rep.attempted),
               static_cast<unsigned long long>(rep.failed),
               num(failed_ratio).c_str());
  auto strings = [&](const char* key, const std::vector<std::string>& v) {
    std::fprintf(f, " \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", json_escape(v[i]).c_str());
    }
    std::fprintf(f, "],\n");
  };
  strings("check_failures", rep.checks);
  strings("flags", rep.flags);
  std::fprintf(f, " \"extra\": {");
  for (std::size_t i = 0; i < rep.extra.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", rep.extra[i].first.c_str(),
                 num(rep.extra[i].second).c_str());
  }
  std::fprintf(f, "},\n \"metrics\": {");
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 i ? "," : "", m.name.c_str(), num(m.value).c_str(),
                 m.unit.c_str());
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n"
               "       %s --self-test [--out-dir <dir>]\nworkloads:",
               argv0, argv0);
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool self = false;
  std::string out_dir = ".bench_build/results";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return usage(argv[0]);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(seconds > 0)) {
        return usage(argv[0]);
      }
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage(argv[0]);
      trace = val == "1" ? 1 : 0;
    } else if (arg == "--out-dir") {
      out_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  fs::create_directories(out_dir);
  const std::string scratch =
      out_dir + "/scratch-" + std::to_string(static_cast<long>(getpid()));
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{scratch};
  fs::create_directories(scratch);

  if (self) return self_test(scratch);
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || trace < 0 || seconds <= 0) return usage(argv[0]);

  std::printf("host %s\n", host_json().c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", spec->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::fflush(stdout);
  Report rep;
  if (trace == 1) {
    run_traced(*spec, seed, seconds, scratch, out_dir, rep);
  } else {
    run_untraced(*spec, seed, seconds, scratch, rep);
  }
  const bool correct = rep.checks.empty();
  if (!correct) ++rep.failed;  // the run whose output check failed
  const double failed_ratio =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  for (const Metric& m : rep.metrics) {
    std::printf("  %-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, v] : rep.extra) std::printf("  %-40s %16.4f\n", k.c_str(), v);
  std::printf("  %-40s %16.6f\n", "failed_ratio", failed_ratio);
  for (const std::string& c : rep.checks) std::printf("CHECK FAILED: %s\n", c.c_str());
  for (const std::string& fl : rep.flags) std::printf("FLAG: %s\n", fl.c_str());
  const std::string result_path = out_dir + "/" + spec->name + "-seed" +
                                  std::to_string(seed) + "-trace" +
                                  std::to_string(trace) + ".json";
  if (!write_result(result_path, spec->name, seed, trace == 1, rep, correct,
                    failed_ratio)) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
  }
  print_result(rep, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
