#include "src/obs/bundle.h"

#include <fstream>
#include <sstream>

#include "src/obs/fleetview.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace innet::obs {

json::Value TelemetryBundle::ToJson() const {
  json::Value root = trace != nullptr ? trace->ToPerfettoJson() : json::Value::Object();
  root.Set("innet_telemetry", kTelemetryBundleVersion);
  if (metrics != nullptr) {
    root.Set("metrics", metrics->ToJson());
  }
  if (health != nullptr) {
    root.Set("health", health->ToJson());
  }
  if (timeseries != nullptr) {
    root.Set("timeseries", timeseries->ToJson());
  }
  if (int_paths != nullptr) {
    root.Set("int", int_paths->ToJson());
  }
  if (flight != nullptr) {
    root.Set("flight", flight->ToJson());
  }
  if (folded != nullptr) {
    root.Set("folded", *folded);
  }
  if (fleet != nullptr) {
    root.Set("fleet", fleet->ToJson(fleet_now_ns));
  }
  return root;
}

bool TelemetryBundle::WriteFile(const std::string& path) const {
  return ToJson().WriteFile(path);
}

bool TelemetryBundleReader::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ok_ = false;
    error_ = "cannot read " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!Parse(text.str())) {
    error_ = path + ": " + error_;
    return false;
  }
  return true;
}

bool TelemetryBundleReader::Parse(const std::string& text) {
  json::Value root;
  if (!json::Value::Parse(text, &root, &error_)) {
    ok_ = false;
    return false;
  }
  return Adopt(std::move(root));
}

bool TelemetryBundleReader::Adopt(json::Value root) {
  root_ = std::move(root);
  error_.clear();
  // No version key: a bench snapshot (or a bare collector dump) — sections
  // resolve wherever they are found.
  const json::Value* version = root_.Find("innet_telemetry");
  ok_ = version == nullptr ||
        (version->is_number() &&
         version->number() == static_cast<double>(kTelemetryBundleVersion));
  if (!ok_) {
    error_ = "unknown telemetry bundle version " + version->ToString();
  }
  return ok_;
}

const json::Value* TelemetryBundleReader::Section(const std::string& name) const {
  if (!ok_) {
    return nullptr;
  }
  if (const json::Value* section = root_.Find(name)) {
    return section;
  }
  const json::Value* results = root_.Find("results");
  return results != nullptr ? results->Find(name) : nullptr;
}

std::string TelemetryBundleReader::Missing(const std::string& name) const {
  return ok_ ? "no " + name + " section" : error_;
}

}  // namespace innet::obs
