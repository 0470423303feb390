// Named counters / gauges / histograms with JSON export - the run-report
// side of the observability layer.  Intentionally minimal: deterministic
// (sorted) output, no labels, no locking (populate from one thread or
// behind the engines' single-threaded merge points).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace cg {
struct RunMetrics;
struct EngineProfile;
}  // namespace cg

namespace cg::obs {

class Counter {
 public:
  void add(std::int64_t d = 1) { v_ += d; }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0;
};

/// Sample distribution reported as count/mean/min/max/p50/p90/p99.
class Histogram {
 public:
  void observe(double x) { s_.add(x); }
  std::size_t count() const { return s_.count(); }
  bool empty() const { return s_.count() == 0; }
  double mean() const { return s_.mean(); }
  double min() const { return s_.min(); }
  double max() const { return s_.max(); }
  double p50() const { return s_.p50(); }
  double p90() const { return s_.p90(); }
  double p99() const { return s_.p99(); }

 private:
  SummaryStat s_;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Populate a registry from a finished run: population and message counters
/// from RunMetrics (as maintained by the engines' NodeStore and
/// MessageCounts), per-node latency histograms when record_node_detail was
/// on, and engine self-profiling counters when a profile was attached.
void fill_registry(MetricsRegistry& reg, const RunMetrics& m,
                   const EngineProfile* prof = nullptr);

}  // namespace cg::obs
