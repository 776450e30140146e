// deploy_steady: Orchestrator::Deploy on the Figure 3 network at a fixed
// installed base. Each round sends two accepts, one security reject and one
// reach reject in a seeded order; before each accept the oldest tenant is
// killed, so every verdict is checked against the same number of tenants.
#include <deque>
#include <memory>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/controller/orchestrator.h"
#include "src/topology/network.h"

namespace perfbench {

using innet::controller::ClientRequest;
using innet::controller::OrchestratedDeploy;
using innet::controller::Orchestrator;

namespace {

enum class Kind { kAccept, kSecurityReject, kReachReject };

const char* const kPlatforms[] = {"platform1", "platform2", "platform3"};

struct World {
  innet::sim::EventQueue clock;
  std::unique_ptr<Orchestrator> orch;
  std::deque<std::string> live;  // module ids, oldest first
  std::vector<Packet> egress;
};

// Per-layer samples; the end-to-end latencies go to the phase's windows
// (main = accept, side1 = security reject, side2 = reach reject; ops counts
// verdicts plus holding kills).
struct Samples {
  std::vector<double> model_build_ms, check_ms, realize_ms, engine_steps;
  std::vector<double> alloc_calls, alloc_bytes;
  std::vector<double> stage_cover, graph_nodes, paths_explored, us_per_step;
  uint32_t ops = 0;
};

void Setup(World* world, TenantSource* tenants, int base, Report* report) {
  world->orch = std::make_unique<Orchestrator>(innet::topology::Network::MakeFigure3(),
                                               &world->clock);
  world->orch->AddOperatorPolicy(kOperatorPolicy);
  for (const char* name : kPlatforms) {
    world->orch->platform(name)->SetEgressHandler(
        [world](Packet& p) { world->egress.push_back(p); });
  }
  for (int i = 0; i < base; ++i) {
    OrchestratedDeploy out = world->orch->Deploy(AcceptRequest(tenants->Next()));
    if (!out.outcome.accepted) {
      report->Fail("setup deploy rejected: " + out.outcome.reason);
      continue;
    }
    world->live.push_back(out.outcome.module_id);
  }
  world->clock.Run();
}

// Sends one 64 B and one 1500 B packet through the new module and checks
// each egresses exactly once, rewritten toward the tenant's client.
void Probe(World* world, const OrchestratedDeploy& out, const Tenant& t, bool replay,
           SpanLog* log, Report* report) {
  innet::platform::InNetPlatform* box = world->orch->platform(out.outcome.platform);
  for (size_t frame : {kFrameSmall, kFrameLarge}) {
    Packet tmpl = Packet::MakeUdp(Ipv4Address::MustParse("203.0.113.7"), out.outcome.module_addr,
                                  40000, t.port, frame - kUdpOverhead);
    uint64_t want = PacketFingerprint(ExpectedEgress(tmpl, t.client));
    world->egress.clear();
    Packet p = tmpl;
    box->HandlePacket(p);
    if (world->egress.size() != 1 || PacketFingerprint(world->egress[0]) != want) {
      report->Fail("probe through " + out.outcome.module_id + " egressed wrong");
    }
    if (replay) {
      innet::platform::Vm* vm = box->vms().Find(box->InstalledVmFor(out.outcome.module_addr));
      ReplayPacketLayers(box, vm, tmpl, static_cast<int64_t>(world->clock.now()), log);
    }
  }
  world->egress.clear();
}

void RunOp(World* world, Kind kind, const Tenant& t, SpanLog* log, Window* w, Samples* s,
           Report* report) {
  RequestSpan op(log, "op.deploy_steady", s->ops++);
  Orchestrator& orch = *world->orch;
  ClientRequest request = kind == Kind::kAccept           ? AcceptRequest(t)
                          : kind == Kind::kSecurityReject ? SpoofRequest(t)
                                                          : TcpOnlyRequest(t);
  if (kind == Kind::kAccept) {
    bool killed = false;
    Timed(log, "orchestrator.kill", [&] { killed = orch.Kill(world->live.front()); });
    if (!killed) {
      report->Fail("kill of " + world->live.front() + " failed");
    }
    world->live.pop_front();
    ++w->ops;
  }

  StageReplay replay;
  if (log->enabled()) {
    innet::scheduler::PlacementRequest needs;
    needs.memory_bytes =
        innet::platform::VmCostModel{}.MemoryBytes(innet::platform::VmKind::kClickOs);
    innet::scheduler::PlacementDecision decision;
    double decide_ns = static_cast<double>(Timed(
        log, "scheduler.decide", [&] { decision = orch.engine().Decide(t.client_id, needs); }));
    replay = ReplayStages(&orch.controller(), request, decision.candidates, log);
    replay.stage_ns += decide_ns;
  }

  OrchestratedDeploy out;
  AllocCount before = AllocsNow();
  double took = static_cast<double>(
      Timed(log, "orchestrator.deploy", [&] { out = orch.Deploy(request); }));
  AllocCount after = AllocsNow();
  ++w->ops;

  const std::string& reason = out.outcome.reason;
  bool right = false;
  if (kind == Kind::kAccept) {
    right = out.outcome.accepted && out.consolidated;
    w->main.push_back(took);
    s->model_build_ms.push_back(out.outcome.model_build_ms);
    s->check_ms.push_back(out.outcome.check_ms);
    s->realize_ms.push_back(took / 1e6 - out.outcome.model_build_ms - out.outcome.check_ms);
    s->engine_steps.push_back(static_cast<double>(out.outcome.engine_steps));
    s->alloc_calls.push_back(static_cast<double>(after.calls - before.calls));
    s->alloc_bytes.push_back(static_cast<double>(after.bytes - before.bytes));
    if (log->enabled()) {
      s->stage_cover.push_back(replay.stage_ns / took);
      s->graph_nodes.push_back(static_cast<double>(replay.graph_nodes));
      s->paths_explored.push_back(static_cast<double>(replay.paths_explored));
      s->us_per_step.push_back(replay.reach_ns / 1e3 / static_cast<double>(replay.engine_steps));
    }
  } else if (kind == Kind::kSecurityReject) {
    right = !out.outcome.accepted && reason.rfind("security", 0) == 0;
    w->side1.push_back(took);
  } else {
    right = !out.outcome.accepted && reason.rfind("on ", 0) == 0;
    w->side2.push_back(took);
  }
  if (!right) {
    report->Fail("wrong verdict for " + t.client_id + ": " + reason);
  }
  if (log->enabled() && (replay.accepted != out.outcome.accepted ||
                         replay.platform != (out.outcome.accepted ? out.outcome.platform : ""))) {
    report->Fail("stage replay disagrees with Deploy for " + t.client_id);
  }

  Timed(log, "sim.drain", [&] { world->clock.Run(); });
  if (out.outcome.accepted) {
    world->live.push_back(out.outcome.module_id);
    Probe(world, out, t, log->enabled(), log, report);
    if (log->enabled()) {
      ReplayClickBuild(request.click_config, log);
    }
  }
}

Phase RunRounds(World* world, TenantSource* tenants, double seconds, int rounds, SpanLog* log,
                Samples* s, Report* report) {
  std::vector<Kind> mix = {Kind::kAccept, Kind::kAccept, Kind::kSecurityReject,
                           Kind::kReachReject};
  // One round per window: a deploy takes milliseconds, so longer windows rarely
  // fall entirely inside a quiet stretch of the host.
  return RunWindows(seconds, rounds, 1, [&](Window& w) {
    tenants->rng().Shuffle(&mix);
    for (Kind kind : mix) {
      RunOp(world, kind, tenants->Next(), log, &w, s, report);
    }
  });
}

}  // namespace

Scale DeploySteadyScale() { return Scale{16, 0, 3}; }

Report RunDeploySteady(const RunConfig& config, const Scale& scale, SpanLog* log) {
  Report report;
  std::unique_ptr<World> world;
  std::unique_ptr<TenantSource> tenants;
  std::vector<double> setup_s = TimeSetups(scale.setups, [&] {
    world.reset();
    world = std::make_unique<World>();
    tenants = std::make_unique<TenantSource>(config.seed);
    Setup(world.get(), tenants.get(), scale.tenants, &report);
  });

  // The warm-up rounds settle caches and lazily built tables before timing.
  // They start from the same state for a given seed whatever the host's
  // speed, so the exact counters are taken there and repeat run to run.
  Samples samples[3];
  Phases phases = RunPhases(config, scale, 4, log, [&](PhaseKind kind, double seconds, int rounds) {
    return RunRounds(world.get(), tenants.get(), seconds, rounds, log, &samples[kind], &report);
  });
  const Samples& warm = samples[kWarm];
  const Samples& traced = samples[kTraced];

  // Output check: the installed base is exactly where it started.
  if (world->orch->placement_count() != static_cast<size_t>(scale.tenants)) {
    report.Fail("installed base drifted to " + std::to_string(world->orch->placement_count()));
  }
  ReportPhases(config, scale, phases, setup_s, &report);
  if (config.trace) {
    report.Layer("controller.model_build_ms", traced.model_build_ms, 1.0, "ms");
    report.Layer("controller.check_ms", traced.check_ms, 1.0, "ms");
    report.Layer("orchestrator.realize_ms", traced.realize_ms, 1.0, "ms");
    report.Layer("policy.engine_steps", warm.engine_steps, 1.0, "count");
    report.Layer("symexec.graph_nodes", traced.graph_nodes, 1.0, "count");
    report.Layer("policy.paths_explored", traced.paths_explored, 1.0, "count");
    report.Layer("policy.us_per_step", traced.us_per_step, 1.0, "us");
    report.Layer("deploy.stage_cover", traced.stage_cover, 1.0, "ratio");
    report.Layer("alloc.per_deploy", warm.alloc_calls, 1.0, "count");
    report.Layer("alloc.per_deploy_bytes", warm.alloc_bytes, 1.0, "B");
  }
  return report;
}

}  // namespace perfbench
