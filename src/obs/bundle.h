// The telemetry bundle: every collector's dump in one versioned file, with
// one writer (TelemetryBundle) and one reader (TelemetryBundleReader).
//
// A bundle is a Chrome/Perfetto trace_event JSON object. The trace is the
// tracer's ToPerfettoJson() (displayTimeUnit, traceEvents, otherData); next
// to it sit "innet_telemetry": kTelemetryBundleVersion and one key per
// section, each holding that collector's ToJson() unchanged:
//
//   metrics     MetricsRegistry        {"metrics": [...]}
//   health      HealthMonitor          {"tenants": [...]}
//   timeseries  TimeSeriesSampler      {"window_ns", "series", ...}
//   int         IntCollector           {"postcards", "tenants", ...}
//   flight      FlightRecorder         {"depth", "recorded", "postmortems"}
//   folded      folded stacks          "prefix;a;b weight\n..." (a string)
//   fleet       FleetView              {"fleet": {...}}
//
// The Trace Event Format keeps unknown top-level keys as trace metadata
// ("JSON Object Format": any other properties are treated as metadata), so
// the same file is meant to load directly in ui.perfetto.dev.
//
// Bench snapshots (BENCH_*.json) embed the same section keys under
// "results"; the reader resolves those too, so innet_top renders either.
#ifndef SRC_OBS_BUNDLE_H_
#define SRC_OBS_BUNDLE_H_

#include <cstdint>
#include <string>

#include "src/obs/json.h"

namespace innet::obs {

class EventTracer;
class FleetView;
class FlightRecorder;
class HealthMonitor;
class IntCollector;
class MetricsRegistry;
class TimeSeriesSampler;

inline constexpr int64_t kTelemetryBundleVersion = 1;

// The writer. Every source is optional: an absent one leaves its section
// (for the tracer, the trace keys) out of the bundle.
struct TelemetryBundle {
  const EventTracer* trace = nullptr;
  const MetricsRegistry* metrics = nullptr;
  const HealthMonitor* health = nullptr;
  const TimeSeriesSampler* timeseries = nullptr;
  const IntCollector* int_paths = nullptr;
  const FlightRecorder* flight = nullptr;
  const std::string* folded = nullptr;
  const FleetView* fleet = nullptr;
  uint64_t fleet_now_ns = 0;  // FleetView's staleness reference time

  json::Value ToJson() const;
  bool WriteFile(const std::string& path) const;
};

// The reader: one parsed root, sections looked up by name.
class TelemetryBundleReader {
 public:
  // Reads and parses `path`. False, with error() set, when the file is
  // missing, unparseable or of an unknown bundle version; every Section()
  // lookup then returns nullptr.
  bool Load(const std::string& path);
  bool Parse(const std::string& text);
  // Takes an in-memory bundle (same version check as Parse).
  bool Adopt(json::Value root);

  // root[name], or root.results[name] for a bench snapshot; nullptr when
  // the section is absent or the bundle was refused.
  const json::Value* Section(const std::string& name) const;
  // Why Section(name) is nullptr: the load error, or the missing key.
  std::string Missing(const std::string& name) const;
  const std::string& error() const { return error_; }

 private:
  json::Value root_;
  bool ok_ = false;
  std::string error_;
};

}  // namespace innet::obs

#endif  // SRC_OBS_BUNDLE_H_
