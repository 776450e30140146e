// flow_setup: per-flow on-demand tenants (RegisterOnDemand with per_flow
// set), verified by the controller during set-up. Each flow is a first
// 64 B packet (switch miss, buffering, VmManager::Create), a drain of the sim
// clock until the guest boots and the buffered copy egresses, kHits more
// packets on the new flow rule, and UninstallVm.
#include <memory>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/controller/controller.h"
#include "src/controller/stock_modules.h"
#include "src/topology/network.h"

namespace perfbench {

namespace {

constexpr int kHits = 8;
constexpr int kTuples = 4096;     // distinct 5-tuples, reused cyclically
constexpr int kReplayEvery = 16;  // traced: one flow in this many is replayed

struct Sink {
  bool active = true;
  uint64_t count = 0;
  uint64_t sum = 0;
  int64_t first_ns = 0;  // wall time of the flow's first egress
};

struct World {
  innet::sim::EventQueue clock;
  std::unique_ptr<innet::controller::Controller> controller;
  std::unique_ptr<innet::platform::InNetPlatform> box;
  std::vector<std::string> configs;  // per tenant, as registered
  std::vector<Packet> templates;     // per tuple
  std::vector<uint64_t> expected;    // per tuple
  std::vector<size_t> tenant_of;     // per tuple
  Sink sink;
};

void Setup(World* w, uint64_t seed, int tenant_count, Report* report) {
  TenantSource tenants(seed);
  w->controller =
      std::make_unique<innet::controller::Controller>(innet::topology::Network::MakeFigure3());
  w->controller->AddOperatorPolicy(kOperatorPolicy);
  w->box = std::make_unique<innet::platform::InNetPlatform>(&w->clock);
  Sink* sink = &w->sink;
  w->box->SetEgressHandler([sink](Packet& p) {
    if (sink->active) {
      if (sink->count++ == 0) {
        sink->first_ns = NowNs();
      }
      sink->sum += PacketFingerprint(p);
    }
  });
  std::vector<Tenant> placed;
  std::vector<Ipv4Address> addrs;
  for (int i = 0; i < tenant_count; ++i) {
    Tenant t = tenants.Next();
    innet::controller::ClientRequest request = AcceptRequest(t);
    innet::controller::DeployOutcome out = w->controller->Deploy(request);
    if (!out.accepted) {
      report->Fail("setup verification of " + t.client_id + " rejected: " + out.reason);
      continue;
    }
    std::string config = innet::controller::SubstituteSelf(request.click_config, out.module_addr);
    w->box->RegisterOnDemand(out.module_addr, config, innet::platform::VmKind::kClickOs,
                             /*per_flow=*/true);
    w->configs.push_back(config);
    placed.push_back(t);
    addrs.push_back(out.module_addr);
  }
  if (placed.empty()) {
    return;
  }
  InputRng& rng = tenants.rng();
  for (int i = 0; i < kTuples; ++i) {
    size_t tenant = static_cast<size_t>(i) % placed.size();
    // Source port = 1024 + i keeps every tuple distinct.
    Ipv4Address src((198u << 24) | (51u << 16) | (100u << 8) |
                    static_cast<uint32_t>(rng.Range(1, 254)));
    Packet p = Packet::MakeUdp(src, addrs[tenant], static_cast<uint16_t>(1024 + i),
                               placed[tenant].port, kFrameSmall - kUdpOverhead);
    w->expected.push_back(PacketFingerprint(ExpectedEgress(p, placed[tenant].client)));
    w->templates.push_back(std::move(p));
    w->tenant_of.push_back(tenant);
  }
}

// Allocations per flow. The end-to-end latencies go to the phase's windows:
// main = flow set-up, side1 = a packet on the established flow, side2 =
// UninstallVm; ops counts flows.
struct Samples {
  std::vector<double> alloc_calls, alloc_bytes;
  uint32_t flows = 0;
};

Phase RunFlows(World* w, double seconds, int rounds, SpanLog* log, Samples* s, Report* report) {
  size_t next = 0;
  return RunWindows(seconds, rounds, 8, [&](Window& win) {
    RequestSpan op(log, "op.flow_setup", s->flows++);
    ++win.ops;
    size_t tuple = next;
    next = (next + 1) % w->templates.size();
    const Packet& tmpl = w->templates[tuple];
    w->sink.count = 0;
    w->sink.sum = 0;
    AllocCount before = AllocsNow();
    int64_t start = NowNs();
    {
      Packet p = tmpl;
      Timed(log, "platform.handle.miss", [&] { w->box->HandlePacket(p); });
    }
    Timed(log, "sim.drain", [&] { w->clock.Run(); });
    if (w->sink.count != 1) {
      report->Fail("first packet of tuple " + std::to_string(tuple) + " did not egress");
      return;
    }
    win.main.push_back(static_cast<double>(w->sink.first_ns - start));

    int64_t hits_start = NowNs();
    for (int i = 0; i < kHits; ++i) {
      Packet p = tmpl;
      Timed(log, "platform.handle.hit", [&] { w->box->HandlePacket(p); });
    }
    win.side1.push_back(static_cast<double>(NowNs() - hits_start) / kHits);
    if (w->sink.count != 1 + kHits || w->sink.sum != (1 + kHits) * w->expected[tuple]) {
      report->Fail("flow " + std::to_string(tuple) + " egress mismatch");
    }

    std::vector<innet::platform::Vm::VmId> ids = w->box->vms().AllIds();
    if (ids.size() != 1) {
      report->Fail("expected one guest per flow, found " + std::to_string(ids.size()));
      return;
    }
    if (log->enabled() && s->flows % kReplayEvery == 0) {
      w->sink.active = false;
      ReplayPacketLayers(w->box.get(), w->box->vms().Find(ids[0]), tmpl,
                         static_cast<int64_t>(w->clock.now()), log);
      ReplayClickBuild(w->configs[w->tenant_of[tuple]], log);
      w->sink.active = true;
    }
    win.side2.push_back(static_cast<double>(
        Timed(log, "platform.uninstall_vm", [&] { w->box->UninstallVm(ids[0]); })));
    AllocCount after = AllocsNow();
    if (log->enabled()) {
      s->alloc_calls.push_back(static_cast<double>(after.calls - before.calls));
      s->alloc_bytes.push_back(static_cast<double>(after.bytes - before.bytes));
    }
    if (w->box->vms().vm_count() != 0 || w->box->software_switch().flow_rule_count() != 0) {
      report->Fail("flow " + std::to_string(tuple) + " left a guest or a flow rule behind");
    }
  });
}

}  // namespace

Scale FlowSetupScale() { return Scale{8, 0, 5}; }

Report RunFlowSetup(const RunConfig& config, const Scale& scale, SpanLog* log) {
  Report report;
  std::unique_ptr<World> world;
  std::vector<double> setup_s = TimeSetups(scale.setups, [&] {
    world.reset();
    world = std::make_unique<World>();
    Setup(world.get(), config.seed, scale.tenants, &report);
  });
  if (world->templates.empty()) {
    report.Fail("no tenant registered");
    return report;
  }

  Samples samples[3];
  Phases phases =
      RunPhases(config, scale, 256, log, [&](PhaseKind kind, double seconds, int rounds) {
        return RunFlows(world.get(), seconds, rounds, log, &samples[kind], &report);
      });
  ReportPhases(config, scale, phases, setup_s, &report);
  if (config.trace) {
    report.Layer("alloc.per_flow", samples[kTraced].alloc_calls, 1.0, "count");
    report.Layer("alloc.per_flow_bytes", samples[kTraced].alloc_bytes, 1.0, "B");
  }
  return report;
}

}  // namespace perfbench
