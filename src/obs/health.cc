#include "src/obs/health.h"

#include "src/obs/trace.h"

namespace innet::obs {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kViolated: return "violated";
  }
  return "unknown";
}

namespace {

// Same ladder as innet_vm_boot_latency_ms so per-tenant and aggregate boot
// percentiles are comparable: 0.5ms .. ~4s.
std::vector<double> BootBucketsMs() { return ExponentialBuckets(0.5, 2.0, 14); }

// Verification is dominated by per-node/per-step symexec cost (tens of µs to
// a few ms per request): 0.01ms .. ~327ms.
std::vector<double> VerifyBucketsMs() { return ExponentialBuckets(0.01, 2.0, 16); }

}  // namespace

HealthMonitor::Tenant& HealthMonitor::Touch(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    return it->second;
  }
  Tenant t;
  Labels labels = {{"tenant", tenant}};
  t.boot_ms = registry_->GetHistogram("innet_tenant_boot_latency_ms", labels, BootBucketsMs());
  t.verify_ms =
      registry_->GetHistogram("innet_tenant_verify_latency_ms", labels, VerifyBucketsMs());
  t.buffered = registry_->GetCounter("innet_tenant_buffered_packets_total", labels);
  t.drops = registry_->GetCounter("innet_tenant_buffer_drops_total", labels);
  t.restarts = registry_->GetCounter("innet_tenant_restarts_total", labels);
  t.anomalies = registry_->GetCounter("innet_tenant_anomalies_total", labels);
  t.path_violations = registry_->GetCounter("innet_tenant_path_violations_total", labels);
  t.state_gauge = registry_->GetGauge("innet_tenant_health_state", labels);
  return tenants_.emplace(tenant, std::move(t)).first->second;
}

void HealthMonitor::ObserveBootLatency(const std::string& tenant, double ms) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).boot_ms->Observe(ms);
}

void HealthMonitor::ObserveVerifyLatency(const std::string& tenant, double ms) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).verify_ms->Observe(ms);
}

void HealthMonitor::CountBuffered(const std::string& tenant, uint64_t packets) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).buffered->Increment(packets);
}

void HealthMonitor::CountDrop(const std::string& tenant, uint64_t packets) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).drops->Increment(packets);
}

void HealthMonitor::CountRestart(const std::string& tenant) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).restarts->Increment();
}

void HealthMonitor::CountAnomaly(const std::string& tenant) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).anomalies->Increment();
}

void HealthMonitor::CountPathViolation(const std::string& tenant) {
  if (!enabled_ || tenant.empty()) {
    return;
  }
  Touch(tenant).path_violations->Increment();
}

HealthState HealthMonitor::RawState(const Tenant& t) const {
  double boot_p99 = t.boot_ms->P99();
  double verify_p99 = t.verify_ms->P99();
  uint64_t offered = t.buffered->value() + t.drops->value();
  double drop_rate =
      offered == 0 ? 0.0 : static_cast<double>(t.drops->value()) / static_cast<double>(offered);
  uint64_t restarts = t.restarts->value();
  uint64_t anomalies = t.anomalies->value();
  uint64_t path_violations = t.path_violations->value();
  if (boot_p99 > slo_.boot_p99_violated_ms || verify_p99 > slo_.verify_p99_violated_ms ||
      drop_rate > slo_.drop_rate_violated || restarts >= slo_.restarts_violated ||
      anomalies >= slo_.anomalies_violated ||
      path_violations >= slo_.path_violations_violated) {
    return HealthState::kViolated;
  }
  if (boot_p99 > slo_.boot_p99_degraded_ms || verify_p99 > slo_.verify_p99_degraded_ms ||
      drop_rate > slo_.drop_rate_degraded || restarts >= slo_.restarts_degraded ||
      anomalies >= slo_.anomalies_degraded ||
      path_violations >= slo_.path_violations_degraded) {
    return HealthState::kDegraded;
  }
  return HealthState::kOk;
}

void HealthMonitor::EvaluateAll() {
  if (!enabled_) {
    return;
  }
  for (auto& [name, t] : tenants_) {
    HealthState raw = RawState(t);
    HealthState before = t.state;
    if (raw >= t.state) {
      // Getting worse (or holding): adopt immediately, restart recovery.
      t.state = raw;
      t.clean_streak = 0;
    } else if (++t.clean_streak >= slo_.recover_evals) {
      t.state = raw;
      t.clean_streak = 0;
    }
    t.state_gauge->Set(static_cast<double>(t.state));
    if (t.state != before && Tracer().enabled()) {
      Tracer().RecordNow(EventKind::kHealthTransition, "tenant:" + name,
                         std::string(HealthStateName(before)) + "->" + HealthStateName(t.state),
                         static_cast<int64_t>(t.state));
    }
  }
}

HealthState HealthMonitor::CurrentState(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? HealthState::kOk : it->second.state;
}

json::Value HealthMonitor::ToJson() const {
  json::Value list = json::Value::Array();
  for (const auto& [name, t] : tenants_) {
    uint64_t offered = t.buffered->value() + t.drops->value();
    json::Value entry = json::Value::Object();
    entry.Set("tenant", name);
    entry.Set("state", HealthStateName(t.state));
    entry.Set("boot_p99_ms", t.boot_ms->P99());
    entry.Set("verify_p99_ms", t.verify_ms->P99());
    entry.Set("drop_rate", offered == 0 ? 0.0
                                        : static_cast<double>(t.drops->value()) /
                                              static_cast<double>(offered));
    entry.Set("restarts", t.restarts->value());
    entry.Set("anomalies", t.anomalies->value());
    entry.Set("path_violations", t.path_violations->value());
    list.Push(std::move(entry));
  }
  json::Value root = json::Value::Object();
  root.Set("tenants", std::move(list));
  return root;
}

HealthMonitor& HealthMonitor::Global() {
  static HealthMonitor* monitor = new HealthMonitor();
  return *monitor;
}

}  // namespace innet::obs
