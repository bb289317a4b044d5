#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

namespace pp::obs {

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// JSON has no literal for NaN or an infinity, so both render as null;
// Prometheus text spells them NaN, +Inf and -Inf.
void append_double(std::string& out, double v, bool prometheus) {
  if (!std::isfinite(v)) {
    out += !prometheus     ? "null"
           : std::isnan(v) ? "NaN"
           : v > 0         ? "+Inf"
                           : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

const char* kind_str(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// Prometheus label value escaping: backslash, double-quote, newline.
void append_prom_label_value(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void append_prom_labels(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& labels,
    const char* extra_key = nullptr, const std::string& extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    append_prom_label_value(out, v);
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += '=';
    append_prom_label_value(out, extra_value);
  }
  out += '}';
}

}  // namespace

std::string render_json(const std::vector<MetricSnapshot>& snapshot) {
  std::string out = "{\n  \"schema\": 1,\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const MetricSnapshot& m = snapshot[i];
    out += "    {\"name\": ";
    append_json_escaped(out, m.name);
    out += ", \"labels\": {";
    for (std::size_t l = 0; l < m.labels.size(); ++l) {
      if (l != 0) out += ", ";
      append_json_escaped(out, m.labels[l].first);
      out += ": ";
      append_json_escaped(out, m.labels[l].second);
    }
    out += "}, \"type\": \"";
    out += kind_str(m.kind);
    out += '"';
    if (m.kind == MetricKind::kHistogram) {
      out += ", \"count\": ";
      append_u64(out, m.hist.count);
      out += ", \"sum\": ";
      append_i64(out, m.hist.sum);
      out += ", \"max\": ";
      append_i64(out, m.hist.max);
      out += ", \"p50\": ";
      append_double(out, m.hist.p50(), false);
      out += ", \"p95\": ";
      append_double(out, m.hist.p95(), false);
      out += ", \"p99\": ";
      append_double(out, m.hist.p99(), false);
      out += ", \"buckets\": [";
      for (std::size_t b = 0; b < m.hist.buckets.size(); ++b) {
        if (b != 0) out += ", ";
        out += '[';
        append_i64(out, m.hist.buckets[b].first);
        out += ", ";
        append_u64(out, m.hist.buckets[b].second);
        out += ']';
      }
      out += ']';
    } else {
      out += ", \"value\": ";
      append_double(out, m.value, false);
    }
    out += '}';
    if (i + 1 < snapshot.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string render_prometheus(const std::vector<MetricSnapshot>& snapshot) {
  std::string out;
  std::string last_family;
  for (const MetricSnapshot& m : snapshot) {
    if (m.name != last_family) {
      // snapshot() is sorted by name, so each family is contiguous and gets
      // exactly one # TYPE header.
      out += "# TYPE ";
      out += m.name;
      out += ' ';
      out += kind_str(m.kind);
      out += '\n';
      last_family = m.name;
    }
    if (m.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (const auto& [upper, n] : m.hist.buckets) {
        cumulative += n;
        out += m.name;
        out += "_bucket";
        std::string le;
        {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%" PRId64, upper);
          le = buf;
        }
        append_prom_labels(out, m.labels, "le", le);
        out += ' ';
        append_u64(out, cumulative);
        out += '\n';
      }
      out += m.name;
      out += "_bucket";
      append_prom_labels(out, m.labels, "le", "+Inf");
      out += ' ';
      append_u64(out, m.hist.count);
      out += '\n';
      out += m.name;
      out += "_sum";
      append_prom_labels(out, m.labels);
      out += ' ';
      append_i64(out, m.hist.sum);
      out += '\n';
      out += m.name;
      out += "_count";
      append_prom_labels(out, m.labels);
      out += ' ';
      append_u64(out, m.hist.count);
      out += '\n';
    } else {
      out += m.name;
      append_prom_labels(out, m.labels);
      out += ' ';
      append_double(out, m.value, true);
      out += '\n';
    }
  }
  return out;
}

std::string render_json(const MetricsRegistry& registry) {
  return render_json(registry.snapshot());
}

std::string render_prometheus(const MetricsRegistry& registry) {
  return render_prometheus(registry.snapshot());
}

}  // namespace pp::obs
