// forward_imix: established UDP flows through one platform that hosts the
// consolidated shared VM and dedicated FlowMeter VMs, all placed by
// Orchestrator::Deploy during set-up. Packets follow an IMIX mix of 7:4:1
// (64 / 576 / 1500 B frames) in same-size blocks of 16, in a seeded order.
#include <memory>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/controller/orchestrator.h"
#include "src/topology/network.h"

namespace perfbench {

using innet::controller::OrchestratedDeploy;
using innet::controller::Orchestrator;

namespace {

constexpr int kDedicated = 2;  // FlowMeter tenants, one VM each
constexpr int kFlows = 64;
constexpr int kBlock = 16;     // packets per timed block, all one size
constexpr int kBlocksPerRound = 12;  // 7 small, 4 medium, 1 large
constexpr int kRounds = 64;    // distinct rounds in the schedule
constexpr int kReplayEvery = 64;  // traced: one block in this many is replayed

struct Sink {
  bool active = true;
  uint64_t count = 0;
  uint64_t sum = 0;
};

struct World {
  innet::sim::EventQueue clock;
  std::unique_ptr<Orchestrator> orch;
  innet::platform::InNetPlatform* box = nullptr;
  std::vector<std::string> modules;
  Sink sink;
  // templates[flow * 3 + size] and the fingerprint of its expected egress.
  std::vector<Packet> templates;
  std::vector<uint64_t> expected;
  // schedule[round][block] = first template index of the block's packets.
  struct Block {
    int size = 0;
    int first_flow = 0;
  };
  std::vector<std::vector<Block>> schedule;
  std::vector<uint64_t> round_sum;
};

const size_t kFrames[3] = {kFrameSmall, kFrameMedium, kFrameLarge};

int TemplateIndex(int flow, int size) { return flow * 3 + size; }

void Setup(World* w, uint64_t seed, int consolidated, Report* report) {
  TenantSource tenants(seed);
  w->orch = std::make_unique<Orchestrator>(innet::topology::Network::MakeFigure3(), &w->clock);
  w->orch->AddOperatorPolicy(kOperatorPolicy);
  std::vector<Tenant> placed;
  std::vector<Ipv4Address> addrs;
  std::string platform;
  for (int i = 0; i < consolidated + kDedicated; ++i) {
    Tenant t = tenants.Next();
    OrchestratedDeploy out =
        w->orch->Deploy(i < consolidated ? AcceptRequest(t) : MeterRequest(t));
    if (!out.outcome.accepted || out.consolidated != (i < consolidated) ||
        (!platform.empty() && out.outcome.platform != platform)) {
      report->Fail("setup placement of " + t.client_id + " unexpected: " + out.outcome.reason);
      continue;
    }
    platform = out.outcome.platform;
    placed.push_back(t);
    addrs.push_back(out.outcome.module_addr);
    w->modules.push_back(out.outcome.module_id);
  }
  w->clock.Run();
  if (placed.empty()) {
    return;
  }
  w->box = w->orch->platform(platform);
  Sink* sink = &w->sink;
  w->box->SetEgressHandler([sink](Packet& p) {
    if (sink->active) {
      ++sink->count;
      sink->sum += PacketFingerprint(p);
    }
  });

  InputRng& rng = tenants.rng();
  for (int flow = 0; flow < kFlows; ++flow) {
    size_t tenant = static_cast<size_t>(flow) % placed.size();
    Ipv4Address src((203u << 24) | (static_cast<uint32_t>(rng.Range(1, 254)) << 8) |
                    static_cast<uint32_t>(rng.Range(1, 254)));
    uint16_t sport = static_cast<uint16_t>(rng.Range(1024, 65535));
    for (size_t frame : kFrames) {
      Packet p = Packet::MakeUdp(src, addrs[tenant], sport, placed[tenant].port,
                                 frame - kUdpOverhead);
      w->expected.push_back(PacketFingerprint(ExpectedEgress(p, placed[tenant].client)));
      w->templates.push_back(std::move(p));
    }
  }
  std::vector<int> sizes = {0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2};
  int next_flow = 0;
  for (int r = 0; r < kRounds; ++r) {
    rng.Shuffle(&sizes);
    std::vector<World::Block> round;
    uint64_t sum = 0;
    for (int size : sizes) {
      round.push_back({size, next_flow});
      for (int i = 0; i < kBlock; ++i) {
        sum += w->expected[static_cast<size_t>(TemplateIndex((next_flow + i) % kFlows, size))];
      }
      next_flow = (next_flow + kBlock) % kFlows;
    }
    w->schedule.push_back(std::move(round));
    w->round_sum.push_back(sum);
  }
}

// Allocations per packet, per round. The end-to-end latencies go to the
// phase's windows: main = per packet over a whole IMIX round, side1 and
// side2 = per packet over a 64 B and a 1500 B block; ops counts packets.
struct Samples {
  std::vector<double> alloc_calls, alloc_bytes;
};

Phase RunRounds(World* w, double seconds, int rounds, SpanLog* log, Samples* s, Report* report) {
  size_t round_index = 0;
  uint64_t blocks = 0;
  constexpr int kPerRound = kBlock * kBlocksPerRound;
  return RunWindows(seconds, rounds, 8, [&](Window& win) {
    const std::vector<World::Block>& round = w->schedule[round_index];
    uint64_t want = w->round_sum[round_index];
    round_index = (round_index + 1) % w->schedule.size();
    w->sink.count = 0;
    w->sink.sum = 0;
    double round_ns = 0;
    AllocCount before = AllocsNow();
    for (const World::Block& block : round) {
      int64_t start = NowNs();
      for (int i = 0; i < kBlock; ++i) {
        Packet p = w->templates[static_cast<size_t>(
            TemplateIndex((block.first_flow + i) % kFlows, block.size))];
        w->box->HandlePacket(p);
      }
      double took = static_cast<double>(NowNs() - start);
      round_ns += took;
      if (block.size != 1) {
        (block.size == 0 ? win.side1 : win.side2).push_back(took / kBlock);
      }
      if (log->enabled() && ++blocks % kReplayEvery == 0) {
        RequestSpan op(log, "op.forward_imix", static_cast<uint32_t>(blocks));
        const Packet& tmpl =
            w->templates[static_cast<size_t>(TemplateIndex(block.first_flow, block.size))];
        innet::platform::Vm* vm = w->box->vms().Find(w->box->InstalledVmFor(tmpl.ip_dst()));
        w->sink.active = false;
        ReplayPacketLayers(w->box, vm, tmpl, static_cast<int64_t>(w->clock.now()), log);
        w->sink.active = true;
      }
    }
    AllocCount after = AllocsNow();
    win.main.push_back(round_ns / kPerRound);
    if (log->enabled()) {
      s->alloc_calls.push_back(static_cast<double>(after.calls - before.calls) / kPerRound);
      s->alloc_bytes.push_back(static_cast<double>(after.bytes - before.bytes) / kPerRound);
    }
    win.ops += kPerRound;
    if (w->sink.count != kPerRound || w->sink.sum != want) {
      report->Fail("round egress mismatch: " + std::to_string(w->sink.count) + " packets",
                   kPerRound);
    }
  });
}

}  // namespace

Scale ForwardImixScale() { return Scale{8, 0, 5}; }

Report RunForwardImix(const RunConfig& config, const Scale& scale, SpanLog* log) {
  Report report;
  std::unique_ptr<World> world;
  std::vector<double> setup_s = TimeSetups(scale.setups, [&] {
    world.reset();
    world = std::make_unique<World>();
    Setup(world.get(), config.seed, scale.tenants, &report);
  });
  if (world->box == nullptr) {
    report.Fail("no tenant placed");
    return report;
  }

  Samples samples[3];
  Phases phases =
      RunPhases(config, scale, kRounds, log, [&](PhaseKind kind, double seconds, int rounds) {
        return RunRounds(world.get(), seconds, rounds, log, &samples[kind], &report);
      });

  // Output check: killing every tenant leaves the platform empty.
  log->set_enabled(config.trace);
  for (const std::string& module : world->modules) {
    bool killed = false;
    Timed(log, "orchestrator.kill", [&] { killed = world->orch->Kill(module); });
    if (!killed) {
      report.Fail("kill of " + module + " failed");
    }
  }
  log->set_enabled(false);
  world->clock.Run();
  if (world->box->vms().vm_count() != 0 || world->orch->placement_count() != 0) {
    report.Fail("platform not empty after teardown");
  }
  ReportPhases(config, scale, phases, setup_s, &report);
  if (config.trace) {
    report.Layer("alloc.per_pkt", samples[kTraced].alloc_calls, 1.0, "count");
    report.Layer("alloc.per_pkt_bytes", samples[kTraced].alloc_bytes, 1.0, "B");
  }
  return report;
}

}  // namespace perfbench
