#include "perfbench/layers.h"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "src/click/graph.h"
#include "src/controller/security.h"
#include "src/controller/stock_modules.h"
#include "src/policy/reach_checker.h"
#include "src/symexec/path_digest.h"

namespace perfbench {

using innet::controller::ClientRequest;
using innet::controller::Controller;
using innet::controller::Deployment;
using innet::controller::RequesterClass;

namespace {

ClientRequest BaseRequest(const Tenant& t, const std::string& filter,
                          const std::string& rewriter_src, const std::string& extra) {
  ClientRequest request;
  request.client_id = t.client_id;
  request.requester = RequesterClass::kClient;
  std::string port = std::to_string(t.port);
  std::string client = t.client.ToString();
  request.click_config = "FromNetfront() -> IPFilter(allow " + filter + " dst port " + port +
                         ") -> " + extra + "IPRewriter(pattern " + rewriter_src + " - " +
                         client + " - 0 0) -> ToNetfront();";
  request.requirements = "reach from internet udp -> client dst port " + port;
  request.whitelist = {t.client};
  request.owned_prefixes = {innet::Ipv4Prefix::MustParse("10.10.0.0/16")};
  return request;
}

// Batches of copy/move constructions are timed together: one construction
// is shorter than the clock read.
constexpr size_t kCtorBatch = 16;

void KeepAlive(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

int SizeIndex(size_t frame_len) {
  return frame_len <= kFrameSmall ? 0 : frame_len <= kFrameMedium ? 1 : 2;
}

const char* const kHandle[3] = {"platform.handle.64B", "platform.handle.576B",
                                "platform.handle.1500B"};
const char* const kDeliver[3] = {"switch.deliver.64B", "switch.deliver.576B",
                                 "switch.deliver.1500B"};
const char* const kInject[3] = {"vm.inject.64B", "vm.inject.576B", "vm.inject.1500B"};
const char* const kGraph[3] = {"click.graph.64B", "click.graph.576B", "click.graph.1500B"};
const char* const kCopy[3] = {"netcore.copy16.64B", "netcore.copy16.576B",
                              "netcore.copy16.1500B"};
const char* const kMove[3] = {"netcore.move16.64B", "netcore.move16.576B",
                              "netcore.move16.1500B"};

std::vector<double> Pooled(const SpanLog& log, const char* const names[3]) {
  std::vector<double> all;
  for (int i = 0; i < 3; ++i) {
    std::vector<double> part = log.Durations(names[i]);
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

}  // namespace

Tenant TenantSource::Next() {
  Tenant t;
  char id[16];
  std::snprintf(id, sizeof(id), "c%06u", seq_++ % 1000000);
  t.client_id = id;
  t.port = static_cast<uint16_t>(rng_.Range(10000, 59999));
  uint32_t third = static_cast<uint32_t>(rng_.Range(100, 199));
  uint32_t fourth = static_cast<uint32_t>(rng_.Range(100, 199));
  t.client = Ipv4Address((10u << 24) | (10u << 16) | (third << 8) | fourth);
  return t;
}

ClientRequest AcceptRequest(const Tenant& t) { return BaseRequest(t, "udp", "-", ""); }

ClientRequest MeterRequest(const Tenant& t) {
  return BaseRequest(t, "udp", "-", "FlowMeter() -> ");
}

ClientRequest SpoofRequest(const Tenant& t) {
  // 198.18/15 is benchmarking space, never owned by a tenant.
  std::string spoof = "198.18." + std::to_string(100 + t.port % 100) + ".1";
  return BaseRequest(t, "udp", spoof, "");
}

ClientRequest TcpOnlyRequest(const Tenant& t) { return BaseRequest(t, "tcp", "-", ""); }

Packet ExpectedEgress(const Packet& in, Ipv4Address client) {
  Packet out = in;
  out.set_ip_dst(client);
  out.RefreshChecksums();
  return out;
}

uint64_t PacketFingerprint(const Packet& p) {
  // IP checksum (bytes 24-25) and UDP checksum (bytes 40-41) cover every
  // header field and the payload, so they stand in for a full byte compare.
  const uint8_t* d = p.data();
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  mix(p.ip_src().value());
  mix(p.ip_dst().value());
  mix((static_cast<uint64_t>(p.src_port()) << 16) | p.dst_port());
  mix(p.length());
  mix((static_cast<uint64_t>(d[24]) << 24) | (static_cast<uint64_t>(d[25]) << 16) |
      (static_cast<uint64_t>(d[40]) << 8) | d[41]);
  return h;
}

StageReplay ReplayStages(Controller* controller, const ClientRequest& request,
                         const std::vector<std::string>& candidates, SpanLog* log) {
  StageReplay replay;
  std::string error;
  std::vector<innet::policy::ReachSpec> operator_specs;
  operator_specs.push_back(*innet::policy::ReachSpec::Parse(kOperatorPolicy, &error));
  std::vector<innet::policy::ReachSpec> client_specs;
  for (const std::string& statement : innet::policy::SplitReachStatements(request.requirements)) {
    client_specs.push_back(*innet::policy::ReachSpec::Parse(statement, &error));
  }
  for (innet::policy::ReachSpec& spec : client_specs) {
    // A client requirement must hold through the module being deployed.
    innet::policy::ReachNode via_module;
    via_module.spec = "__module_any__";
    spec.waypoints.insert(spec.waypoints.begin(), std::move(via_module));
  }

  for (const std::string& name : candidates) {
    const innet::topology::Node* node = controller->network().Find(name);
    if (node == nullptr) {
      continue;
    }
    // The controller's address choice: the first free pool offset from .10.
    std::optional<Ipv4Address> addr;
    for (uint32_t offset = 10; offset < 250 && !addr; ++offset) {
      Ipv4Address candidate(node->address_pool.base().value() + offset);
      bool taken = std::any_of(controller->deployments().begin(), controller->deployments().end(),
                               [&](const Deployment& d) { return d.addr == candidate; });
      if (!taken) {
        addr = candidate;
      }
    }
    if (!addr) {
      continue;
    }
    std::string text = innet::controller::SubstituteSelf(request.click_config, *addr);
    std::optional<innet::click::ConfigGraph> config;
    replay.stage_ns += static_cast<double>(Timed(
        log, "click.parse", [&] { config = innet::click::ConfigGraph::Parse(text, &error); }));
    if (!config) {
      continue;
    }
    Deployment trial;
    trial.module_id = request.client_id + "-replay";
    trial.client_id = request.client_id;
    trial.platform = name;
    trial.addr = *addr;
    trial.config = *config;
    trial.config_text = text;
    replay.stage_ns += static_cast<double>(Timed(log, "controller.pinholes", [&] {
      for (innet::FlowSpec& pinhole : innet::controller::DeriveEgressPinholes(*config, &error)) {
        bool authorized = false;
        for (const innet::AddrPredicate& pred : pinhole.addr_predicates()) {
          for (Ipv4Address owned : request.whitelist) {
            authorized = authorized || pred.prefix.Contains(owned);
          }
        }
        if (authorized) {
          trial.pinholes.push_back(std::move(pinhole));
        }
      }
    }));
    std::optional<innet::symexec::SymGraph> graph;
    replay.stage_ns += static_cast<double>(Timed(log, "controller.build_graph", [&] {
      graph.emplace(controller->BuildVerificationGraph(&trial, &error));
    }));
    replay.graph_nodes = graph->node_count();

    innet::controller::SecurityOptions sec;
    sec.requester = request.requester;
    sec.module_addr = *addr;
    sec.whitelist = request.whitelist;
    sec.owned_prefixes = request.owned_prefixes;
    innet::controller::SecurityReport security;
    replay.stage_ns += static_cast<double>(Timed(log, "controller.security", [&] {
      security = innet::controller::CheckModuleSecurity(*config, sec, &error);
    }));
    if (security.verdict == innet::controller::Verdict::kRejected) {
      continue;
    }

    innet::symexec::EngineOptions options;
    options.max_hops = std::max(256, static_cast<int>(graph->node_count()) * 2 + 64);
    innet::policy::ReachChecker checker(&*graph, controller->MakeResolver(&trial), options);
    bool ok = true;
    for (const auto* specs : {&operator_specs, &client_specs}) {
      for (const innet::policy::ReachSpec& spec : *specs) {
        if (!ok) {
          break;
        }
        innet::policy::ReachCheckResult result;
        double took = static_cast<double>(
            Timed(log, "policy.reach_check", [&] { result = checker.Check(spec); }));
        replay.stage_ns += took;
        replay.reach_ns += took;
        replay.engine_steps += result.engine_steps;
        replay.paths_explored += result.paths_explored;
        ok = result.satisfied;
      }
    }
    if (!ok) {
      continue;
    }
    replay.stage_ns += static_cast<double>(Timed(log, "symexec.digest", [&] {
      innet::obs::IntPathDigest digest = innet::symexec::ComputePathDigest(*config);
      KeepAlive(&digest);
    }));
    replay.accepted = true;
    replay.platform = name;
    break;
  }
  return replay;
}

void ReplayPacketLayers(innet::platform::InNetPlatform* box, innet::platform::Vm* vm,
                        const Packet& tmpl, int64_t now_ns, SpanLog* log) {
  int s = SizeIndex(tmpl.length());
  {
    Packet p = tmpl;
    Timed(log, kHandle[s], [&] { box->HandlePacket(p); });
  }
  {
    Packet p = tmpl;
    p.set_timestamp_ns(static_cast<uint64_t>(now_ns));
    Timed(log, kDeliver[s], [&] { box->software_switch().Deliver(p); });
  }
  {
    Packet p = tmpl;
    Timed(log, kInject[s], [&] { vm->Inject(p); });
  }
  {
    Packet p = tmpl;
    Timed(log, kGraph[s], [&] { vm->graph()->InjectAtSource(p); });
  }
  static std::vector<std::optional<Packet>> sources(kCtorBatch);
  static std::vector<std::optional<Packet>> targets(kCtorBatch);
  Timed(log, kCopy[s], [&] {
    for (std::optional<Packet>& target : targets) {
      KeepAlive(&target.emplace(tmpl));
    }
  });
  for (size_t i = 0; i < kCtorBatch; ++i) {
    sources[i].emplace(tmpl);
    targets[i].reset();
  }
  Timed(log, kMove[s], [&] {
    for (size_t i = 0; i < kCtorBatch; ++i) {
      KeepAlive(&targets[i].emplace(std::move(*sources[i])));
    }
  });
  for (size_t i = 0; i < kCtorBatch; ++i) {
    targets[i].reset();
    sources[i].reset();
  }
}

void ReplayClickBuild(const std::string& config_text, SpanLog* log) {
  std::string error;
  Timed(log, "click.parse", [&] {
    auto config = innet::click::ConfigGraph::Parse(config_text, &error);
    KeepAlive(&config);
  });
  Timed(log, "click.graph_build", [&] {
    auto graph = innet::click::Graph::FromText(config_text, &error);
    KeepAlive(graph.get());
  });
}

void LayerMetricsFromSpans(const SpanLog& log, Report* report) {
  auto layer = [&](const char* metric, const char* span, double scale, const char* unit) {
    report->Layer(metric, log.Durations(span), scale, unit);
  };
  layer("controller.build_graph_ms", "controller.build_graph", 1e-6, "ms");
  layer("controller.security_us", "controller.security", 1e-3, "us");
  layer("policy.reach_check_ms", "policy.reach_check", 1e-6, "ms");
  layer("symexec.digest_us", "symexec.digest", 1e-3, "us");
  layer("scheduler.decide_us", "scheduler.decide", 1e-3, "us");
  layer("orchestrator.kill_ms", "orchestrator.kill", 1e-6, "ms");
  layer("click.parse_us", "click.parse", 1e-3, "us");
  layer("click.graph_build_us", "click.graph_build", 1e-3, "us");
  layer("switch.miss_us", "platform.handle.miss", 1e-3, "us");
  layer("switch.hit_ns", "platform.handle.hit", 1.0, "ns");
  layer("sim.boot_drain_us", "sim.drain", 1e-3, "us");
  layer("platform.uninstall_us", "platform.uninstall_vm", 1e-3, "us");
  layer("platform.handle_ns_64B", kHandle[0], 1.0, "ns");
  layer("platform.handle_ns_1500B", kHandle[2], 1.0, "ns");
  layer("netcore.packet_copy_ns_64B", kCopy[0], 1.0 / kCtorBatch, "ns");
  layer("netcore.packet_copy_ns_1500B", kCopy[2], 1.0 / kCtorBatch, "ns");
  layer("netcore.packet_move_ns_64B", kMove[0], 1.0 / kCtorBatch, "ns");
  layer("netcore.packet_move_ns_1500B", kMove[2], 1.0 / kCtorBatch, "ns");

  // The four packet layers nest: each one's self time is its median minus
  // the median of the layer it calls.
  std::vector<double> handle = Pooled(log, kHandle);
  std::vector<double> deliver = Pooled(log, kDeliver);
  std::vector<double> inject = Pooled(log, kInject);
  std::vector<double> graph = Pooled(log, kGraph);
  report->Layer("platform.handle_ns", handle, 1.0, "ns");
  report->Layer("switch.deliver_ns", deliver, 1.0, "ns");
  report->Layer("vm.inject_ns", inject, 1.0, "ns");
  report->Layer("click.graph_ns", graph, 1.0, "ns");
  size_t n = std::min({handle.size(), deliver.size(), inject.size(), graph.size()});
  report->LayerValue("platform.self_ns", Median(handle) - Median(deliver), "ns", n);
  report->LayerValue("switch.self_ns", Median(deliver) - Median(inject), "ns", n);
  report->LayerValue("vm.self_ns", Median(inject) - Median(graph), "ns", n);
}

}  // namespace perfbench
