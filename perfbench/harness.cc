#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int SpanLog::Begin(const char* name) {
  if (!enabled_ || spans_.size() >= kCapacity) {
    return -1;
  }
  if (spans_.capacity() == 0) {
    spans_.reserve(kCapacity);
  }
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowNs(), 0, parent, request_});
  int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

int64_t SpanLog::End(int index) {
  if (index < 0) {
    return 0;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
  return span.end_ns - span.start_ns;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

double CalibrationMs() {
  // Fixed work shaped like the program's: small allocations and pointer-rich
  // map nodes in a cache-sized working set, so host episodes that slow the
  // program (cache and memory contention) show here too.
  int64_t start = NowNs();
  std::map<uint64_t, std::string> nodes;
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    nodes[x >> 40] = std::string(24 + (x & 15), 'x');
  }
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    nodes.erase(x >> 40);
  }
  volatile size_t sink = nodes.size();
  (void)sink;
  return static_cast<double>(NowNs() - start) / 1e6;
}

void Report::Fail(const std::string& what, uint64_t ops) {
  failed += ops;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
}

void Report::Layer(const std::string& name, const std::vector<double>& samples, double scale,
                   const char* unit) {
  per_layer[name] = Metric{Median(samples) * scale, unit, samples.size()};
}

void Report::LayerValue(const std::string& name, double value, const char* unit, size_t samples) {
  per_layer[name] = Metric{value, unit, samples};
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launcher's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench
