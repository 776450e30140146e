#include "src/obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "src/obs/health.h"
#include "src/obs/trace.h"

namespace innet::obs {

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounterRate: return "counter_rate";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kHistogramWindow: return "histogram_window";
  }
  return "unknown";
}

void Series::Append(SeriesPoint point) {
  ++total_points_;
  if (ring_.size() < capacity_) {
    ring_.push_back(point);
    head_ = ring_.size() % capacity_;
    return;
  }
  ring_[head_] = point;
  head_ = (head_ + 1) % capacity_;
}

std::vector<SeriesPoint> Series::Points() const {
  if (ring_.size() < capacity_) {
    return ring_;  // never wrapped: stored in order
  }
  std::vector<SeriesPoint> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

const SeriesPoint& Series::Last() const {
  return ring_[(head_ + ring_.size() - 1) % ring_.size()];
}

namespace {

// Same key scheme the registry uses internally, so track iteration order
// matches the metrics dump.
std::string TrackKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x00';
    key += k;
    key += '\x01';
    key += v;
  }
  return key;
}

Labels Canonical(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(MetricsRegistry* registry) : registry_(registry) {
  windows_counter_ = registry_->GetCounter("innet_timeseries_windows_total");
}

void TimeSeriesSampler::SampleWindow(uint64_t now_ns) {
  if (windows_sampled_ > 0 && now_ns <= last_sample_ns_) {
    return;  // a window cannot end twice at the same instant
  }
  uint64_t elapsed_ns = now_ns - last_sample_ns_;
  if (elapsed_ns == 0) {
    elapsed_ns = window_ns_;  // first sample at t=0: fall back to the nominal window
  }
  // Count the window before scraping so the sampler's own counter shows a
  // steady one-per-window rate in the dump it produces.
  windows_counter_->Increment();

  registry_->VisitInstruments([&](const std::string& name, const Labels& labels,
                                  const Counter* counter, const Gauge* gauge,
                                  const Histogram* histogram) {
    std::string key = TrackKey(name, labels);
    auto it = tracks_.find(key);
    if (it == tracks_.end()) {
      SeriesKind kind = counter != nullptr  ? SeriesKind::kCounterRate
                        : gauge != nullptr ? SeriesKind::kGauge
                                           : SeriesKind::kHistogramWindow;
      it = tracks_
               .emplace(std::move(key), Track{Series(name, labels, kind, ring_capacity_), 0, 0, {}})
               .first;
    }
    Track& track = it->second;
    SeriesPoint point;
    point.t_ns = now_ns;
    if (counter != nullptr) {
      uint64_t cur = counter->value();
      uint64_t prev = cur >= track.prev_counter ? track.prev_counter : 0;  // reset
      point.count = cur - prev;
      point.value = static_cast<double>(point.count) * 1e9 / static_cast<double>(elapsed_ns);
      track.prev_counter = cur;
    } else if (gauge != nullptr) {
      point.value = gauge->value();
    } else {
      // Window quantiles come from the delta buckets: observations made in
      // this window only, not the run-to-date aggregate.
      const std::vector<uint64_t>& cur = histogram->buckets();
      bool reset = histogram->count() < track.prev_hist_count ||
                   track.prev_buckets.size() != cur.size();
      std::vector<uint64_t> delta(cur.size(), 0);
      for (size_t i = 0; i < cur.size(); ++i) {
        uint64_t prev = reset ? 0 : track.prev_buckets[i];
        delta[i] = cur[i] >= prev ? cur[i] - prev : cur[i];
      }
      point.count = histogram->count() - (reset ? 0 : track.prev_hist_count);
      point.p50 = HistogramQuantile(histogram->bounds(), delta, 0.50);
      point.value = HistogramQuantile(histogram->bounds(), delta, 0.99);
      track.prev_buckets = cur;
      track.prev_hist_count = histogram->count();
    }
    track.series.Append(point);
    if (detector_ != nullptr) {
      detector_->Observe(now_ns, name, labels, point.value);
    }
  });

  last_sample_ns_ = now_ns;
  ++windows_sampled_;
}

const Series* TimeSeriesSampler::FindSeries(const std::string& name, const Labels& labels) const {
  auto it = tracks_.find(TrackKey(name, Canonical(labels)));
  return it == tracks_.end() ? nullptr : &it->second.series;
}

json::Value TimeSeriesSampler::ToJson() const {
  json::Value list = json::Value::Array();
  for (const auto& [key, track] : tracks_) {
    const Series& series = track.series;
    json::Value entry = json::Value::Object();
    entry.Set("name", series.name());
    json::Value labels = json::Value::Object();
    for (const auto& [k, v] : series.labels()) {
      labels.Set(k, v);
    }
    entry.Set("labels", std::move(labels));
    entry.Set("kind", SeriesKindName(series.kind()));
    if (series.evicted_points() > 0) {
      entry.Set("evicted", series.evicted_points());
    }
    json::Value points = json::Value::Array();
    for (const SeriesPoint& point : series.Points()) {
      json::Value p = json::Value::Object();
      p.Set("t_ns", point.t_ns);
      switch (series.kind()) {
        case SeriesKind::kCounterRate:
          p.Set("rate_per_s", point.value);
          p.Set("delta", point.count);
          break;
        case SeriesKind::kGauge:
          p.Set("value", point.value);
          break;
        case SeriesKind::kHistogramWindow:
          p.Set("count", point.count);
          p.Set("p50", point.p50);
          p.Set("p99", point.value);
          break;
      }
      points.Push(std::move(p));
    }
    entry.Set("points", std::move(points));
    list.Push(std::move(entry));
  }
  json::Value root = json::Value::Object();
  root.Set("window_ns", window_ns_);
  root.Set("windows_sampled", windows_sampled_);
  root.Set("series", std::move(list));
  if (detector_ != nullptr) {
    root.Set("anomalies", detector_->ToJson());
  }
  return root;
}

void AnomalyDetector::UseDefaultRules() {
  // Drop-rate spikes: per-tenant buffer drops (attributed) and the
  // platform-wide drop counter (fleet-level).
  AddRule({"drop_rate_spike", "innet_tenant_buffer_drops_total", "tenant",
           /*ewma_alpha=*/0.3, /*factor=*/3.0, /*min_delta=*/2.0, /*sustain=*/2, /*warmup=*/3});
  AddRule({"drop_rate_spike", "innet_platform_buffer_drops_total", "",
           0.3, 3.0, 2.0, 2, 3});
  // Verify-latency inflation: the controller's aggregate histogram and each
  // tenant's own (windowed p99s via the sampler).
  AddRule({"verify_latency_inflation", "innet_controller_verify_latency_ms", "",
           0.3, 2.0, 0.5, 3, 3});
  AddRule({"verify_latency_inflation", "innet_tenant_verify_latency_ms", "tenant",
           0.3, 2.0, 0.5, 3, 3});
  // Control-channel retry storms: a sustained burst of client-side retries
  // means the channel is lossy or a platform is cut off.
  AddRule({"control_retry_storm", "innet_control_retries_total", "",
           0.3, 3.0, 4.0, 2, 3});
}

void AnomalyDetector::Observe(uint64_t t_ns, const std::string& metric, const Labels& labels,
                              double value) {
  for (size_t r = 0; r < rules_.size(); ++r) {
    const AnomalyRule& rule = rules_[r];
    if (rule.metric != metric) {
      continue;
    }
    Baseline& base = baselines_[{r, TrackKey(metric, labels)}];
    ++base.observed;
    if (base.observed == 1) {
      base.ewma = value;
      continue;
    }
    bool deviant = base.observed > rule.warmup_windows &&
                   value > rule.factor * base.ewma + rule.min_delta;
    if (deviant) {
      // Freeze the baseline: a spike must not ratchet itself into normality.
      ++base.deviant_streak;
      if (base.deviant_streak >= rule.sustain_windows && !base.flagged) {
        base.flagged = true;
        RaiseFlag(t_ns, rule, labels, value, base.ewma);
      }
    } else {
      base.deviant_streak = 0;
      base.flagged = false;
      base.ewma = rule.ewma_alpha * value + (1.0 - rule.ewma_alpha) * base.ewma;
    }
  }
}

void AnomalyDetector::RaiseFlag(uint64_t t_ns, const AnomalyRule& rule, const Labels& labels,
                                double value, double baseline) {
  Flag flag;
  flag.t_ns = t_ns;
  flag.signal = rule.signal;
  flag.metric = rule.metric;
  flag.value = value;
  flag.baseline = baseline;
  if (!rule.tenant_label.empty()) {
    for (const auto& [k, v] : labels) {
      if (k == rule.tenant_label) {
        flag.tenant = v;
        break;
      }
    }
  }
  flag.target = flag.tenant.empty() ? "metric:" + rule.metric : "tenant:" + flag.tenant;
  if (tracer_->enabled()) {
    tracer_->Record(t_ns, EventKind::kAnomaly, flag.target, rule.signal,
                    static_cast<int64_t>(std::llround(value)));
  }
  registry_->GetCounter("innet_anomaly_flags_total", {{"signal", rule.signal}})->Increment();
  if (!flag.tenant.empty() && health_->enabled()) {
    health_->CountAnomaly(flag.tenant);
  }
  flags_.push_back(std::move(flag));
}

json::Value AnomalyDetector::ToJson() const {
  json::Value list = json::Value::Array();
  for (const Flag& flag : flags_) {
    json::Value entry = json::Value::Object();
    entry.Set("t_ns", flag.t_ns);
    entry.Set("signal", flag.signal);
    entry.Set("metric", flag.metric);
    entry.Set("target", flag.target);
    if (!flag.tenant.empty()) {
      entry.Set("tenant", flag.tenant);
    }
    entry.Set("value", flag.value);
    entry.Set("baseline", flag.baseline);
    list.Push(std::move(entry));
  }
  return list;
}

}  // namespace innet::obs
