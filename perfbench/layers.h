// Inputs and layer probes shared by the workloads: tenant requests with
// known verdicts, the replay of the controller's verification stages through
// public calls, and the replay of one packet down the platform's layers.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/controller/controller.h"
#include "src/netcore/packet.h"
#include "src/platform/platform.h"

namespace perfbench {

using innet::Ipv4Address;
using innet::Packet;

// The Figure 3 operator policy: inbound HTTP must pass the optimizer.
inline constexpr const char* kOperatorPolicy =
    "reach from internet tcp src port 80 -> http_optimizer -> client";

// Frame sizes of the IMIX mix and the UDP payload each carries.
inline constexpr size_t kFrameSmall = 64;
inline constexpr size_t kFrameMedium = 576;
inline constexpr size_t kFrameLarge = 1500;
inline constexpr size_t kUdpOverhead = 14 + 20 + 8;

// One generated tenant. Every field has a fixed number of digits so string
// lengths, and with them allocation counts, do not depend on the seed.
struct Tenant {
  std::string client_id;  // "c" + 6 digits
  uint16_t port = 0;      // 5 digits
  Ipv4Address client;     // 10.10.1xx.1xx, the address the module rewrites to
};

class TenantSource {
 public:
  explicit TenantSource(uint64_t seed) : rng_(seed) {}
  Tenant Next();
  InputRng& rng() { return rng_; }

 private:
  InputRng rng_;
  uint32_t seq_ = 0;
};

// UDP firewall + rewriter toward the tenant's client: stateless, so the
// orchestrator consolidates it. Accepted on the Internet-facing platform.
innet::controller::ClientRequest AcceptRequest(const Tenant& t);
// Same chain with a FlowMeter: stateful, so it gets a dedicated VM.
innet::controller::ClientRequest MeterRequest(const Tenant& t);
// Rewrites the source to an address the tenant does not own: the security
// check rejects it on every platform before any reach check runs.
innet::controller::ClientRequest SpoofRequest(const Tenant& t);
// Passes only TCP but requires UDP reachability: safe, but the client
// requirement fails after a full check on every platform.
innet::controller::ClientRequest TcpOnlyRequest(const Tenant& t);

// What the module does to a UDP packet it forwards: destination rewritten to
// the tenant's client, checksums refreshed.
Packet ExpectedEgress(const Packet& in, Ipv4Address client);
// Fingerprint of the fields the chain defines. Checks add fingerprints up,
// so they do not depend on the order packets egress in.
uint64_t PacketFingerprint(const Packet& p);

// Stage replay: repeats Controller::Deploy's per-platform stages through
// public calls (parse, pinholes, BuildVerificationGraph, CheckModuleSecurity,
// ReachChecker::Check per spec, ComputePathDigest), each under its own span,
// against the controller's current state. Run it before the real Deploy so
// both see the same installed base.
struct StageReplay {
  bool accepted = false;
  std::string platform;
  double stage_ns = 0;  // sum of every replayed stage
  double reach_ns = 0;   // the ReachChecker::Check share of stage_ns
  uint64_t engine_steps = 0;
  uint64_t paths_explored = 0;
  uint64_t graph_nodes = 0;  // of the last verification graph built
};
StageReplay ReplayStages(innet::controller::Controller* controller,
                         const innet::controller::ClientRequest& request,
                         const std::vector<std::string>& candidates, SpanLog* log);

// Feeds copies of `tmpl` to each layer in turn, under spans:
// InNetPlatform::HandlePacket, SoftwareSwitch::Deliver, Vm::Inject and
// Graph::InjectAtSource (each copy egresses), plus timed batches of Packet
// copy and move constructions. Span names carry the frame size.
void ReplayPacketLayers(innet::platform::InNetPlatform* box, innet::platform::Vm* vm,
                        const Packet& tmpl, int64_t now_ns, SpanLog* log);

// Times ConfigGraph::Parse and Graph::FromText on a tenant config.
void ReplayClickBuild(const std::string& config_text, SpanLog* log);

// Per-layer metrics every traced run derives from its span log.
void LayerMetricsFromSpans(const SpanLog& log, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
