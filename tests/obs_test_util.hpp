// Shared assertion for the `obs` test tier (obs_test, obs_serving_test):
// a line-by-line validator of Prometheus text exposition, run over the
// hand-built registries of the exporter tests and over a real end-of-run
// export.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

namespace pp::obs::testutil {

/// Checks Prometheus text format 0.0.4 as this repo emits it:
///  * the text ends in one newline and has no blank line;
///  * every line is a `# TYPE <family> <kind>` header or a
///    `<name>[{labels}] <value>` sample;
///  * each family has exactly one header, before its samples, and a
///    sample's name is its family's (plus _bucket/_sum/_count for a
///    histogram);
///  * no series (name + labels) appears twice;
///  * every value parses as a number, NaN, +Inf or -Inf;
///  * histogram buckets are cumulative and the le="+Inf" bucket equals
///    the series' _count.
inline void expect_valid_exposition(const std::string& text) {
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find("\n\n"), std::string::npos);

  std::set<std::string> families;
  std::set<std::string> series;
  std::string family, kind;
  std::map<std::string, double> last_bucket;  // labels without le -> count
  std::size_t line_start = 0;
  while (line_start < text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string::npos) line_end = text.size();
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;

    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << line;
      family = rest.substr(0, space);
      kind = rest.substr(space + 1);
      EXPECT_TRUE(families.insert(family).second)
          << "second # TYPE for " << family;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unexpected comment: " << line;

    const std::size_t value_at = line.rfind(' ');
    ASSERT_NE(value_at, std::string::npos) << line;
    const std::string key = line.substr(0, value_at);
    const std::string value = line.substr(value_at + 1);
    const std::size_t brace = key.find('{');
    const std::string name = key.substr(0, brace);
    const std::string labels =
        brace == std::string::npos ? "" : key.substr(brace);
    EXPECT_TRUE(series.insert(key).second) << "duplicate series: " << key;

    ASSERT_FALSE(family.empty()) << "sample before any # TYPE: " << line;
    const bool histogram = kind == "histogram";
    EXPECT_TRUE(name == family ||
                (histogram && (name == family + "_bucket" ||
                               name == family + "_sum" ||
                               name == family + "_count")))
        << name << " under # TYPE " << family;

    double number = 0;
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      number = std::strtod(value.c_str(), &end);
      // Non-finite values must use the three spellings above.
      EXPECT_TRUE(!value.empty() && *end == '\0' && std::isfinite(number))
          << "bad value: " << line;
    }

    if (histogram && name == family + "_bucket") {
      // le is the last label: strip it to key the series.
      const std::size_t le = labels.rfind("le=\"");
      ASSERT_NE(le, std::string::npos) << line;
      const std::string base = family + labels.substr(0, le);
      const auto it = last_bucket.find(base);
      if (it != last_bucket.end()) {
        EXPECT_GE(number, it->second) << "buckets not cumulative: " << line;
      }
      last_bucket[base] = number;
    } else if (histogram && name == family + "_count") {
      // The +Inf bucket (the series' last) carries the total count.
      const std::string base =
          family + (labels.empty()
                        ? std::string("{")
                        : labels.substr(0, labels.size() - 1) + ",");
      const auto it = last_bucket.find(base);
      ASSERT_NE(it, last_bucket.end()) << "_count without buckets: " << line;
      EXPECT_EQ(it->second, number) << line;
    }
  }
}

}  // namespace pp::obs::testutil
