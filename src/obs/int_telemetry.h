// In-band telemetry (INT) collection + runtime path-conformance attestation.
//
// Sampled packets carry a per-hop metadata stack (src/netcore/packet.h); the
// GraphProfiler completes each stack into an IntPostcard at egress or drop
// and hands it here. The collector folds postcards into:
//
//   1. Per-chain latency heatmaps — for every (tenant, canonical element
//      chain) the count / total / min / max of observed path latency, plus
//      live registry instruments (innet_int_hop_ns_total{element},
//      innet_int_path_latency_ns{tenant}) so TimeSeriesSampler windows see
//      INT traffic like any other signal.
//
//   2. Attestation — each observed chain is checked against the IntPathDigest
//      SymNet produced at verify time (src/symexec/path_digest.h): delivered
//      packets must match a complete verified path exactly, dropped packets
//      must match a verified path *prefix* (queues and meters are modeled as
//      pass-through symbolically, so a runtime tail-drop legitimately ends a
//      verified path early). A mismatch raises
//      innet_path_conformance_violations_total{tenant}, a path_violation
//      trace event, and HealthMonitor::CountPathViolation — so Rebalance()
//      and the watchdog steer non-conformant tenants like any SLO breach.
//
// Determinism: postcards carry only sim-clock times and deterministic cost
// sums; all aggregation lives in sorted maps; ToJson is a pure function of
// the postcards folded. Disabled by default (like the tracer): sampling is
// only armed when a collector is enabled, so the fast path pays one branch.
#ifndef SRC_OBS_INT_TELEMETRY_H_
#define SRC_OBS_INT_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace innet::obs {

// FNV-1a 64 over the ';'-joined chain — the one hash both the verify-time
// digest and the runtime attestation use, so they can never disagree on
// canonical form.
uint64_t HashChain(const std::vector<std::string>& chain);

// Compact per-tenant path digest exported by symexec at verify time, stored
// in the deploy journal, and carried through migration. Two hash sets: full
// delivered paths (egress postcards must match exactly) and every prefix of
// every path (drop postcards must match one — the empty prefix is always
// present, so a packet dropped before reaching any tenant element is
// conformant).
struct IntPathDigest {
  std::vector<uint64_t> full_paths;  // sorted, deduplicated
  std::vector<uint64_t> prefixes;    // sorted, deduplicated
  // Symbolic execution hit its path/hop budget: the sets are incomplete, so
  // attestation must be skipped rather than flag false violations.
  bool truncated = false;

  bool empty() const { return full_paths.empty() && prefixes.empty() && !truncated; }
  bool MatchesFull(uint64_t hash) const;
  bool MatchesPrefix(uint64_t hash) const;

  // Stable text form ("intd1:<t|c>:<hex,...>:<hex,...>") for the deploy
  // journal and migration payloads. Decode rejects anything malformed.
  std::string Encode() const;
  static bool Decode(const std::string& text, IntPathDigest* out);
};

// One hop of a completed postcard (mirrors innet::IntHop, decoupled so obs
// has no netcore dependency).
struct IntPostcardHop {
  std::string element;
  int ingress_port = 0;
  int egress_port = 0;
  uint64_t queue_depth = 0;
  uint64_t hop_ns = 0;
  bool endpoint = false;
};

struct IntPostcard {
  std::string tenant;  // "" = unattributable (no owner, no prefixed elements)
  std::string vm;      // graph identity, e.g. "vm:3"
  std::vector<IntPostcardHop> hops;  // full observed sequence, in order
  std::vector<std::string> chain;    // canonical tenant-interior chain
  uint64_t path_ns = 0;              // queue wait + summed hop costs
  uint64_t truncated_hops = 0;       // hops beyond the in-band stack budget
  bool egress = false;               // delivered (true) vs dropped (false)
};

class IntCollector {
 public:
  explicit IntCollector(MetricsRegistry* registry = &MetricsRegistry::Global())
      : registry_(registry) {}
  IntCollector(const IntCollector&) = delete;
  IntCollector& operator=(const IntCollector&) = delete;

  void Enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // --- Digest registry (fed by the orchestrator at placement time) ----------
  // A tenant may be registered under several keys (client id and module
  // address) because dataplane attribution and control-plane bookkeeping
  // name tenants differently; registering twice is idempotent.
  void SetTenantDigest(const std::string& tenant, const IntPathDigest& digest);
  void ClearTenantDigest(const std::string& tenant);
  bool HasTenantDigest(const std::string& tenant) const;
  const IntPathDigest* FindTenantDigest(const std::string& tenant) const;

  // Folds one completed postcard: heatmap row, live metrics, attestation.
  void Fold(const IntPostcard& postcard);

  uint64_t postcards() const { return postcards_; }
  uint64_t violations() const { return violations_; }
  uint64_t TenantViolations(const std::string& tenant) const;
  // tenant -> cumulative violation count, sorted (federation digests sum a
  // region's own tenants from this, never the process-wide registry).
  const std::map<std::string, uint64_t>& tenant_violations() const { return tenant_violations_; }

  // Last-K one-line postcard renderings, oldest first — captured into
  // flight-recorder postmortem bundles so a crash dump shows the packet
  // journeys that preceded it.
  std::vector<std::string> RecentPostcards() const;
  void set_recent_depth(size_t depth) { recent_depth_ = depth == 0 ? 1 : depth; }

  // {"postcards", "violations", "status", "tenants": [per-tenant heatmap +
  // attestation], "recent"} — sorted and byte-deterministic.
  json::Value ToJson() const;

  // Forgets postcards, digests, and counters (registry instruments persist).
  void Clear();

  // The process-wide collector used by all built-in instrumentation.
  static IntCollector& Global();

 private:
  struct ChainStats {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t min_ns = 0;
    uint64_t max_ns = 0;
    uint64_t violations = 0;
    bool egress = false;  // any delivered postcard took this chain
  };

  void CountStatus(const std::string& status);

  bool enabled_ = false;
  MetricsRegistry* registry_;
  uint64_t postcards_ = 0;
  uint64_t violations_ = 0;
  size_t recent_depth_ = 8;
  std::map<std::string, IntPathDigest> digests_;
  std::map<std::string, uint64_t> status_counts_;
  std::map<std::string, uint64_t> tenant_violations_;
  // tenant -> canonical chain text -> latency/violation stats.
  std::map<std::string, std::map<std::string, ChainStats>> chains_;
  std::deque<std::string> recent_;
};

// Shorthand for the global collector.
inline IntCollector& Int() { return IntCollector::Global(); }

}  // namespace innet::obs

#endif  // SRC_OBS_INT_TELEMETRY_H_
