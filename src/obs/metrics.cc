#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace innet::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // Buckets have le-semantics: bucket i counts bounds[i-1] < value <=
  // bounds[i], so the first bound >= value is the right bucket.
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  ++buckets_[idx];
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const { return HistogramQuantile(bounds_, buckets_, q); }

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q) {
  // Degenerate shapes reach this through innet_top, which feeds it bucket
  // arrays parsed from (possibly truncated) dump files: an empty or all-zero
  // bucket array and a NaN q must all come back as a plain 0, never index
  // out of range or poison downstream arithmetic.
  if (buckets.empty() || std::isnan(q)) {
    return 0;
  }
  uint64_t total = 0;
  for (uint64_t c : buckets) {
    total += c;
  }
  if (total == 0) {
    return 0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank target, 1-based; ceil keeps p100 on the last observation.
  uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t cum_before = 0;
  size_t i = 0;
  for (; i < buckets.size(); ++i) {
    if (cum_before + buckets[i] >= rank) {
      break;
    }
    cum_before += buckets[i];
  }
  if (i >= bounds.size()) {
    // +inf overflow bucket: clamp to the highest finite bound (Prometheus
    // convention) — there is no upper edge to interpolate toward.
    return bounds.empty() ? 0 : bounds.back();
  }
  double lower = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
  double upper = bounds[i];
  double fraction = static_cast<double>(rank - cum_before) / static_cast<double>(buckets[i]);
  return lower + (upper - lower) * fraction;
}

std::vector<double> ExponentialBuckets(double start, double factor, int count) {
  std::vector<double> bounds;
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, int count) {
  std::vector<double> bounds;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(start + width * i);
  }
  return bounds;
}

namespace {

Labels Canonical(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::string InstrumentKey(const std::string& name, const Labels& canonical) {
  std::string key = name;
  for (const auto& [k, v] : canonical) {
    key += '\x00';
    key += k;
    key += '\x01';
    key += v;
  }
  return key;
}

std::string LabelText(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    // Label values are arbitrary tenant-controlled strings; the Prometheus
    // text convention escapes backslash, quote, and newline so one hostile
    // value cannot smuggle a fake label or break line-oriented parsers.
    out += labels[i].first + "=\"" + json::Escape(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

// Same fixed formatting the JSON writer uses, for the text dump.
std::string NumberText(double value) {
  return json::Value(value).ToString();
}

}  // namespace

MetricsRegistry::Instrument* MetricsRegistry::FindOrCreate(const std::string& name,
                                                           const Labels& labels, Kind kind,
                                                           const std::vector<double>* bounds) {
  Labels canonical = Canonical(labels);
  std::string key = InstrumentKey(name, canonical);
  auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    if (it->second.kind != kind) {
      std::fprintf(stderr, "obs: metric '%s' re-registered as a different kind\n", name.c_str());
      std::abort();
    }
    return &it->second;
  }
  Instrument instrument;
  instrument.name = name;
  instrument.labels = std::move(canonical);
  instrument.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      instrument.counter.reset(new Counter());
      break;
    case Kind::kGauge:
      instrument.gauge.reset(new Gauge());
      break;
    case Kind::kHistogram:
      instrument.histogram.reset(new Histogram(bounds != nullptr ? *bounds
                                                                 : std::vector<double>{}));
      break;
  }
  auto [inserted, ok] = instruments_.emplace(std::move(key), std::move(instrument));
  (void)ok;
  return &inserted->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kCounter, nullptr)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kGauge, nullptr)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name, const Labels& labels,
                                         const std::vector<double>& bounds) {
  return FindOrCreate(name, labels, Kind::kHistogram, &bounds)->histogram.get();
}

void MetricsRegistry::ResetValues() {
  for (auto& [key, instrument] : instruments_) {
    switch (instrument.kind) {
      case Kind::kCounter:
        instrument.counter->value_ = 0;
        break;
      case Kind::kGauge:
        instrument.gauge->value_ = 0;
        break;
      case Kind::kHistogram:
        instrument.histogram->count_ = 0;
        instrument.histogram->sum_ = 0;
        std::fill(instrument.histogram->buckets_.begin(), instrument.histogram->buckets_.end(),
                  0u);
        break;
    }
  }
}

void MetricsRegistry::VisitInstruments(const InstrumentVisitor& visit) const {
  for (const auto& [key, instrument] : instruments_) {
    visit(instrument.name, instrument.labels,
          instrument.kind == Kind::kCounter ? instrument.counter.get() : nullptr,
          instrument.kind == Kind::kGauge ? instrument.gauge.get() : nullptr,
          instrument.kind == Kind::kHistogram ? instrument.histogram.get() : nullptr);
  }
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  std::vector<std::string> names;
  for (const auto& [key, instrument] : instruments_) {
    if (names.empty() || names.back() != instrument.name) {
      names.push_back(instrument.name);
    }
  }
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::sort(names.begin(), names.end());
  return names;
}

void MetricsRegistry::DumpText(std::ostream& out) const {
  for (const auto& [key, instrument] : instruments_) {
    out << instrument.name << LabelText(instrument.labels) << ' ';
    switch (instrument.kind) {
      case Kind::kCounter:
        out << instrument.counter->value();
        break;
      case Kind::kGauge:
        out << NumberText(instrument.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *instrument.histogram;
        out << "count=" << h.count() << " sum=" << NumberText(h.sum()) << " buckets=[";
        for (size_t i = 0; i < h.buckets().size(); ++i) {
          if (i > 0) {
            out << ' ';
          }
          if (i < h.bounds().size()) {
            out << "le" << NumberText(h.bounds()[i]);
          } else {
            out << "le+inf";
          }
          out << ':' << h.buckets()[i];
        }
        out << ']';
        break;
      }
    }
    out << '\n';
  }
}

json::Value MetricsRegistry::ToJson() const {
  json::Value metrics = json::Value::Array();
  for (const auto& [key, instrument] : instruments_) {
    json::Value entry = json::Value::Object();
    entry.Set("name", instrument.name);
    json::Value labels = json::Value::Object();
    for (const auto& [k, v] : instrument.labels) {
      labels.Set(k, v);
    }
    entry.Set("labels", std::move(labels));
    switch (instrument.kind) {
      case Kind::kCounter:
        entry.Set("type", "counter");
        entry.Set("value", instrument.counter->value());
        break;
      case Kind::kGauge:
        entry.Set("type", "gauge");
        entry.Set("value", instrument.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *instrument.histogram;
        entry.Set("type", "histogram");
        entry.Set("count", h.count());
        entry.Set("sum", h.sum());
        json::Value bounds = json::Value::Array();
        for (double b : h.bounds()) {
          bounds.Push(b);
        }
        entry.Set("bounds", std::move(bounds));
        json::Value buckets = json::Value::Array();
        for (uint64_t c : h.buckets()) {
          buckets.Push(c);
        }
        entry.Set("buckets", std::move(buckets));
        break;
      }
    }
    metrics.Push(std::move(entry));
  }
  json::Value root = json::Value::Object();
  root.Set("metrics", std::move(metrics));
  return root;
}

void MetricsRegistry::DumpJson(std::ostream& out) const { ToJson().Write(out, 2); }

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace innet::obs
