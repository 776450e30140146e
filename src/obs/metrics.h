// MetricsRegistry: process-wide counters, gauges, and fixed-bucket
// histograms, in the style of Click read handlers and Prometheus registries.
//
// Determinism contract: instruments live in a name+label-sorted map, labels
// are canonicalized (sorted by key), and the dumps use fixed number
// formatting — so a dump is a pure function of the observations made, and
// two runs of the same seeded experiment produce byte-identical files. To
// keep that property, instrument only with values derived from the simulated
// clock or from packet/state counts; wall-clock timings belong in bench
// snapshots (bench/bench_util.h), never in the registry.
//
// Instrument pointers returned by Get* stay valid for the registry's
// lifetime: ResetValues() zeroes values but never destroys instruments, so
// hot paths may cache the pointer once and bump it per event.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"

namespace innet::obs {

// Label set as (key, value) pairs; Get* canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  // Snapshot exporters (per-element counters collected at dump time) set the
  // absolute value; live instrumentation should Increment.
  void SetTo(uint64_t value) { value_ = value; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  double value_ = 0;
};

// Fixed upper-bound buckets plus an implicit +inf bucket; Observe is O(log
// buckets). Bounds are set at first registration; later Get* calls with the
// same name+labels reuse the existing instrument (their bounds argument is
// ignored).
class Histogram {
 public:
  void Observe(double value);
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  // buckets().size() == bounds().size() + 1; the last entry is the +inf
  // overflow bucket. Counts are per-bucket, not cumulative.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  // Deterministic quantile estimate (q in [0, 1]) linearly interpolated
  // inside the bucket holding the target rank — a pure function of the
  // observations, so it belongs in dumps and SLO evaluation (unlike sampled
  // percentiles). Ranks landing in the +inf overflow bucket clamp to the
  // highest finite bound (the Prometheus convention); 0 when empty.
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P90() const { return Quantile(0.90); }
  double P99() const { return Quantile(0.99); }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

// Standard bucket ladders.
std::vector<double> ExponentialBuckets(double start, double factor, int count);
std::vector<double> LinearBuckets(double start, double width, int count);

// Histogram::Quantile's core, exposed for consumers that only have the
// serialized bucket arrays (tools/innet_top reading a metrics dump).
// `buckets` holds per-bucket counts with the +inf overflow bucket last
// (buckets.size() == bounds.size() + 1).
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. A name+labels pair registered as one kind must always be
  // requested as that kind (kind mismatch aborts: it is a programming error,
  // and silently returning a fresh instrument would corrupt the dump).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels,
                          const std::vector<double>& bounds);

  // Zeroes every instrument's value; instruments (and cached pointers to
  // them) survive. Benches call this between scenarios.
  void ResetValues();

  // Read-only walk over every instrument in dump order (name, then canonical
  // labels). Exactly one of counter/gauge/histogram is non-null per call.
  // This is how the time-series sampler scrapes the registry without the
  // registry knowing about windows or rings.
  using InstrumentVisitor =
      std::function<void(const std::string& name, const Labels& labels, const Counter* counter,
                         const Gauge* gauge, const Histogram* histogram)>;
  void VisitInstruments(const InstrumentVisitor& visit) const;

  // Distinct metric names, sorted (label variants collapse to one entry).
  std::vector<std::string> MetricNames() const;
  size_t instrument_count() const { return instruments_.size(); }

  // "name{k="v"} value" lines, sorted by name then labels.
  void DumpText(std::ostream& out) const;
  // {"metrics": [...]} with the same ordering.
  json::Value ToJson() const;
  void DumpJson(std::ostream& out) const;

  // The process-wide registry used by all built-in instrumentation.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument* FindOrCreate(const std::string& name, const Labels& labels, Kind kind,
                           const std::vector<double>* bounds);

  // Keyed by name + '\x00' + canonical label serialization: std::map keeps
  // dumps sorted and therefore deterministic.
  std::map<std::string, Instrument> instruments_;
};

// Shorthand for the global registry.
inline MetricsRegistry& Registry() { return MetricsRegistry::Global(); }

}  // namespace innet::obs

#endif  // SRC_OBS_METRICS_H_
