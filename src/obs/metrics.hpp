// Metrics registry: named counters, gauges and histograms with one
// JSON dump.
//
// ChainResult keeps its ad-hoc counters for API stability; the registry
// is the machine-readable superset — the middleware mirrors ChainResult
// into it at chain completion and layers add their own series (storage
// samples, audit check counts, task timings). Histograms reuse
// common/stats.hpp Samples so percentile math matches the benches.
//
// Names are insertion-ordered in the dump so same-seed runs produce
// byte-identical JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"

namespace rcmp::obs {

class MetricsRegistry {
 public:
  /// Add `delta` to a (auto-created) counter.
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Set a (auto-created) gauge to `value`.
  void set_gauge(std::string_view name, double value);
  /// Record one observation into a (auto-created) histogram.
  void observe(std::string_view name, double value);

  /// Counter value; 0 when the counter was never touched.
  std::uint64_t counter(std::string_view name) const;
  /// Gauge value, or nullptr when never set.
  const double* find_gauge(std::string_view name) const;
  /// Histogram samples, or nullptr when never observed.
  const Samples* find_histogram(std::string_view name) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,mean,min,max,p50,p90,p99}}}.
  std::string dump_json() const;

 private:
  /// Hashes names and views alike, so lookups take the caller's
  /// string_view as is and build a std::string only for a new series.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  template <class T>
  struct Series {
    std::vector<std::pair<std::string, T>> items;  // insertion order
    std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
        index;
    bool empty() const { return items.empty(); }
    T& at(std::string_view name) {
      if (auto it = index.find(name); it != index.end()) {
        return items[it->second].second;
      }
      index.emplace(std::string(name), items.size());
      items.emplace_back(std::string(name), T{});
      return items.back().second;
    }
    const T* find(std::string_view name) const {
      auto it = index.find(name);
      return it == index.end() ? nullptr : &items[it->second].second;
    }
  };

  Series<std::uint64_t> counters_;
  Series<double> gauges_;
  Series<Samples> histograms_;
};

}  // namespace rcmp::obs
