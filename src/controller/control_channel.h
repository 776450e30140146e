// The simulated control channel between the orchestrator and its platforms.
// Every platform mutation (install, uninstall, suspend, snapshot export /
// import, cutover, health probe) travels as an explicit ControlRequest over
// a per-link channel that can lose, delay, duplicate, reorder, or partition
// messages (decisions drawn from sim::FaultInjector's control-plane fault
// class), instead of being an infallible in-process call.
//
// Reliability is layered the way a real controller would do it:
//
//   - at-most-once execution: every mutating request carries a
//     (tenant, op, attempt-epoch) token; the platform-side ControlEndpoint
//     remembers executed tokens and answers replays (retries or channel
//     duplicates) from a cached response without re-executing;
//   - retries: the orchestrator-side ControlClient re-sends un-acked
//     requests with capped exponential backoff and a per-op timeout, and
//     reports a give-up after max_attempts (the caller decides whether to
//     roll back or leave reconciliation to a later heal);
//   - partitions: a partitioned platform silently eats both legs. Its data
//     plane keeps serving installed tenants (the watchdog is local); the
//     orchestrator reconciles belief against actual guest state on heal.
//
// With no fault plan and no partitions the channel is *ideal*: requests are
// delivered and answered synchronously inline, which preserves the exact
// behavior of the pre-channel in-process calls for existing callers.
#ifndef SRC_CONTROLLER_CONTROL_CHANNEL_H_
#define SRC_CONTROLLER_CONTROL_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"

namespace innet::controller {

enum class ControlOp {
  kInstall,         // boot a dedicated guest for a config at an address
  kRebuildShared,   // swap the consolidated VM for a new tenant list
  kUninstallVm,     // tear down a guest by id
  kUninstallAddr,   // tear down whatever serves an address (give-up cleanup)
  kSuspend,         // announce migration + suspend (acked when frozen)
  kCancelMigration, // abort an announced migration
  kSnapshotExport,  // detach a suspended guest; response carries its state
  kSnapshotImport,  // adopt a migrated guest at an address
  kCutover,         // replay re-addressed blackout traffic at the target
  kHealthProbe,     // read-only guest state query (idempotent, epoch 0)
  // Federation ops (coordinator <-> region controller; payload_json carries
  // the structured body so the channel stays payload-agnostic).
  kRegionDigest,    // poll a region's gossip digest (idempotent, epoch 0)
  kRegionDeploy,    // hand a verified-locally deploy to a region
  kRegionExport,    // suspend + detach a tenant for cross-region migration
  kRegionImport,    // adopt an exported tenant (snapshot rides `moved`)
};

// Stable wire name ("install", "health_probe", ...), used in traces/JSON.
const char* ControlOpName(ControlOp op);

struct ControlRequest {
  ControlOp op = ControlOp::kHealthProbe;
  // Idempotency token: (tenant, op, attempt_epoch). Epochs are minted once
  // per *logical* operation (the deploy journal's monotonic sequence, so
  // they survive a controller crash); every retry of the same operation
  // reuses the epoch and dedups platform-side. Epoch 0 marks a
  // non-mutating request that bypasses dedup entirely.
  std::string tenant;
  uint64_t attempt_epoch = 0;

  Ipv4Address addr;
  std::string config_text;
  bool sandbox = false;
  std::vector<Ipv4Address> whitelist;
  platform::Vm::VmId vm_id = 0;
  // kRebuildShared: the full desired tenant list (declarative — the handler
  // installs the merged VM, then removes the old one named by vm_id).
  std::vector<platform::TenantConfig> tenants;
  // kSnapshotImport / kCutover: the migrating guest's frozen state + parked
  // blackout traffic. Shared so a cached (deduped) response and a retried
  // request refer to the same state instead of copying it.
  std::shared_ptr<platform::InNetPlatform::MigratedVm> moved;
  // Federation ops: JSON-encoded body (a ClientRequest for kRegionDeploy /
  // kRegionImport, empty otherwise). A string keeps src/controller free of
  // any dependency on the federation layer's types.
  std::string payload_json;
  // Cross-region trace context (DESIGN.md §11). When trace_id is non-zero
  // the sender is asking the receiving side to open its handler spans under
  // parent_span, so a coordinator-routed operation (a federated deploy, a
  // cross-region migration's export/import legs) renders as one connected
  // span tree across regions instead of disconnected per-region fragments.
  // trace_id names the tree's root span; origin_region names the minting
  // side ("coordinator" for federation ops). Replays of a deduplicated
  // request never re-run the handler, so a duplicate delivery can never emit
  // duplicate child spans.
  std::string origin_region;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

struct ControlResponse {
  bool ok = false;
  bool duplicate = false;  // served from the endpoint's dedup cache
  bool gave_up = false;    // set by ControlClient when retries exhausted
  std::string error;
  platform::Vm::VmId vm_id = 0;
  // kHealthProbe payload.
  bool vm_known = false;
  platform::VmState vm_state = platform::VmState::kDestroyed;
  // kSnapshotExport payload.
  std::shared_ptr<platform::InNetPlatform::MigratedVm> moved;
  // Federation ops: JSON-encoded result (a region digest for kRegionDigest,
  // a deploy outcome for kRegionDeploy, the evicted tenant's ClientRequest
  // for kRegionExport).
  std::string payload_json;
};

using RespondFn = std::function<void(ControlResponse)>;
using OpHandler = std::function<void(const ControlRequest&, RespondFn)>;

// Platform-side agent: executes requests through the registered handler and
// enforces at-most-once semantics per (tenant, op, epoch) token. While an
// operation with deferred completion (suspend) is still executing, replays
// queue as waiters and are all answered by the one eventual response.
class ControlEndpoint {
 public:
  explicit ControlEndpoint(OpHandler handler);

  void Deliver(const ControlRequest& request, RespondFn respond);

  // Dedup-cache hits (replays answered without re-execution).
  uint64_t deduped() const { return deduped_; }

 private:
  struct Applied {
    bool executing = false;
    bool done = false;
    ControlResponse cached;
    std::vector<RespondFn> waiters;
  };

  OpHandler handler_;
  std::map<std::string, Applied> applied_;  // token -> execution record
  uint64_t deduped_ = 0;
  obs::Counter* ctr_deduped_ = nullptr;
};

// Which of the fault plan's channel classes a ControlChannel draws from:
// the orchestrator <-> platform control plane (the default) or the
// federation coordinator <-> region WAN links (a separate, independently
// tunable fault class).
enum class FaultScope { kPlatform, kRegion };

// The channel itself: one endpoint per platform, a shared fault oracle, and
// an explicit partition set. Owned by the PlatformFleet so endpoint dedup
// memory and link statistics survive a controller crash (they live on the
// platforms, not in the controller).
class ControlChannel {
 public:
  explicit ControlChannel(sim::EventQueue* clock);

  void RegisterEndpoint(const std::string& platform, OpHandler handler);
  // Drops the platform's dedup memory (the node was replaced wholesale; the
  // replacement has no recollection of executed tokens).
  void ResetEndpoint(const std::string& platform);

  // nullptr detaches. The injector must outlive the channel.
  void SetFaultInjector(sim::FaultInjector* injector) { faults_ = injector; }
  sim::FaultInjector* fault_injector() const { return faults_; }

  // Selects the fault class this channel draws from (default: the
  // orchestrator <-> platform control plane). The federation coordinator
  // switches its channel to kRegion so inter-PoP links use the plan's
  // region_* fields and counters.
  void set_fault_scope(FaultScope scope) { scope_ = scope; }
  FaultScope fault_scope() const { return scope_; }

  // True when messages are delivered synchronously inline: no fault plan for
  // this channel's scope and no active partitions.
  bool ideal() const {
    return (faults_ == nullptr || !HasLinkFaults()) && partitioned_.empty();
  }

  void SetPartitioned(const std::string& platform, bool partitioned);
  bool IsPartitioned(const std::string& platform) const {
    return partitioned_.count(platform) != 0;
  }
  std::vector<std::string> PartitionedPlatforms() const;  // sorted

  // Sends `request` toward `platform`. Under an ideal channel the handler
  // runs inline and `on_response` fires before Send returns (unless the op
  // defers its completion). Otherwise both legs independently draw loss,
  // duplication, reordering, and delay, and partitions eat messages
  // silently — the caller's timeout is the only signal.
  void Send(const std::string& platform, const ControlRequest& request, RespondFn on_response);

  // Fault- and partition-exempt synchronous delivery: the transport of the
  // orchestrator's synchronous calls (Deploy, Kill, consolidated migration,
  // AdoptMigrated) and of recovery's direct writes. Still an explicit
  // message: counted, traced, and deduplicated like any other.
  ControlResponse DeliverDirect(const std::string& platform, const ControlRequest& request);

  uint64_t sent() const { return sent_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t duplicated() const { return duplicated_; }
  uint64_t partition_dropped() const { return partition_dropped_; }
  uint64_t deduped() const;

 private:
  void DeliverNow(const std::string& platform, const ControlRequest& request, RespondFn respond);
  // Wraps a response path with the return leg's faults and partition check.
  RespondFn ReturnLeg(const std::string& platform, RespondFn on_response);

  // Scope dispatch: each fault draw goes to the injector's control_* or
  // region_* method depending on this channel's scope.
  bool HasLinkFaults() const;
  bool ShouldDropLink();
  bool ShouldDuplicateLink();
  bool ShouldReorderLink();
  sim::TimeNs LinkDelay();
  sim::TimeNs LinkReorderPenalty();

  sim::EventQueue* clock_;
  sim::FaultInjector* faults_ = nullptr;
  FaultScope scope_ = FaultScope::kPlatform;
  std::map<std::string, std::unique_ptr<ControlEndpoint>> endpoints_;
  std::set<std::string> partitioned_;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
  uint64_t partition_dropped_ = 0;
  obs::Counter* ctr_sent_ = nullptr;
  obs::Counter* ctr_delivered_ = nullptr;
  obs::Counter* ctr_dropped_ = nullptr;
  obs::Counter* ctr_duplicated_ = nullptr;
  obs::Counter* ctr_partition_dropped_ = nullptr;
  obs::Gauge* gauge_partitioned_ = nullptr;
};

// Per-operation retry schedule for the orchestrator-side client.
struct ControlRetryPolicy {
  sim::TimeNs op_timeout = 200 * sim::kMillisecond;
  sim::TimeNs backoff_base = 50 * sim::kMillisecond;
  double backoff_factor = 2.0;
  sim::TimeNs backoff_cap = 2 * sim::kSecond;
  int max_attempts = 8;
};

// Orchestrator-side sender: issues a request, retries it (same token) with
// capped exponential backoff until an ack arrives or attempts exhaust, and
// invokes the callback exactly once. Dies with the controller — retry state
// is controller memory; only the journal and the platforms survive a crash.
class ControlClient {
 public:
  ControlClient(sim::EventQueue* clock, ControlChannel* channel, ControlRetryPolicy policy);

  void Issue(const std::string& platform, ControlRequest request, RespondFn on_done) {
    IssueWith(platform, std::move(request), policy_, std::move(on_done));
  }
  void IssueWith(const std::string& platform, ControlRequest request, ControlRetryPolicy policy,
                 RespondFn on_done);

  const ControlRetryPolicy& policy() const { return policy_; }
  uint64_t retries() const { return retries_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t giveups() const { return giveups_; }
  size_t inflight() const { return inflight_; }

 private:
  struct PendingOp {
    std::string platform;
    ControlRequest request;
    ControlRetryPolicy policy;
    RespondFn on_done;
    bool done = false;
    int attempts = 0;
    sim::TimeNs backoff = 0;
  };

  void Attempt(const std::shared_ptr<PendingOp>& op);
  void Finish(const std::shared_ptr<PendingOp>& op, ControlResponse response);

  sim::EventQueue* clock_;
  ControlChannel* channel_;
  ControlRetryPolicy policy_;
  // Guards every queued continuation: a scheduled timeout or backoff that
  // fires after the client (the controller) died must be a no-op, not a
  // use-after-free — that is exactly the crash the journal recovers from.
  std::shared_ptr<char> alive_;
  uint64_t retries_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t giveups_ = 0;
  size_t inflight_ = 0;
  obs::Counter* ctr_retries_ = nullptr;
  obs::Counter* ctr_timeouts_ = nullptr;
  obs::Counter* ctr_giveups_ = nullptr;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_CONTROL_CHANNEL_H_
