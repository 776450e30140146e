// Data-plane telemetry harness: per-element profiling, sampled packet-walk
// tracing, and the crash flight recorder, exercised together on one platform.
//
// Scenario: one dedicated tenant plus a two-tenant consolidated guest, all
// profiled (--dataplane-sample-n 8 equivalent, seed 7), under a steady packet
// drip with a deterministic fault injector crashing guests mid-run. The
// watchdog restarts them; every crash snapshots a post-mortem bundle.
//
// Emits BENCH_dataplane_profile.json: folded stacks, walk counts, per-element
// metrics and the flight-recorder dump, whose post-mortem bundles
// `innet_top BENCH_dataplane_profile.json` renders; ctest smokes that
// pipeline.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/fault_injector.h"

namespace {

using namespace innet;
using platform::InNetPlatform;

constexpr uint32_t kSampleN = 8;
constexpr uint64_t kSeed = 7;
constexpr double kTrafficStartSec = 1.0;
constexpr double kHorizonSec = 12.0;

constexpr const char* kDedicatedConfig =
    "FromNetfront() -> IPFilter(allow udp, allow tcp) -> "
    "IPRewriter(pattern - - 10.0.9.1 - 0 0) -> ToNetfront();";
constexpr const char* kTenantAConfig =
    "FromNetfront() -> IPFilter(allow udp) -> ToNetfront();";
constexpr const char* kTenantBConfig =
    "FromNetfront() -> RateLimiter(1000) -> ToNetfront();";

}  // namespace

int main() {
  sim::EventQueue clock;
  obs::Tracer().Enable();
  obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
  obs::Health().Enable();

  // Crashes roughly every 3 s of guest uptime, deterministically seeded: the
  // run always produces the same crash episodes, the same post-mortem
  // bundles, and the same sampled walks.
  sim::FaultPlan plan;
  plan.seed = kSeed;
  plan.crash_mean_uptime_s = 3.0;
  sim::FaultInjector injector(plan);

  InNetPlatform box(&clock);
  box.SetFaultInjector(&injector);
  box.EnableWatchdog();
  box.flight_recorder().set_depth(128);
  box.EnableDataplaneProfiling(kSampleN, kSeed);
  uint64_t delivered = 0;
  box.SetEgressHandler([&delivered](Packet&) { ++delivered; });

  bench::PrintHeader("Data-plane profiling: 1 dedicated + 2 consolidated tenants, sample 1/8");

  std::string error;
  Ipv4Address dedicated_addr = Ipv4Address::MustParse("172.16.3.10");
  platform::Vm::VmId dedicated = box.Install(dedicated_addr, kDedicatedConfig, &error);
  if (dedicated == 0) {
    std::fprintf(stderr, "dedicated install failed: %s\n", error.c_str());
    return 1;
  }
  box.SetVmOwner(dedicated, dedicated_addr.ToString());

  std::vector<platform::TenantConfig> tenants(2);
  tenants[0].addr = Ipv4Address::MustParse("172.16.3.20");
  tenants[0].config_text = kTenantAConfig;
  tenants[1].addr = Ipv4Address::MustParse("172.16.3.21");
  tenants[1].config_text = kTenantBConfig;
  platform::Vm::VmId consolidated = box.InstallConsolidated(tenants, &error);
  if (consolidated == 0) {
    std::fprintf(stderr, "consolidated install failed: %s\n", error.c_str());
    return 1;
  }

  // Steady drip from t=1s: one packet per millisecond, round-robin across
  // the three tenant addresses.
  const std::vector<Ipv4Address> addrs = {dedicated_addr, tenants[0].addr, tenants[1].addr};
  const int packets = static_cast<int>((kHorizonSec - kTrafficStartSec - 1.0) * 1000);
  uint64_t sent = 0;
  for (int tick = 0; tick < packets; ++tick) {
    clock.ScheduleAt(sim::FromSeconds(kTrafficStartSec) + sim::FromMillis(tick),
                     [&box, &addrs, &sent, tick] {
                       Packet p = Packet::MakeUdp(
                           Ipv4Address::MustParse("9.9.9.9"),
                           addrs[static_cast<size_t>(tick) % addrs.size()],
                           static_cast<uint16_t>(7000 + tick % 64), 80, 64);
                       ++sent;
                       box.HandlePacket(p);
                     });
  }
  clock.RunUntil(sim::FromSeconds(kHorizonSec));

  box.ExportMetrics(&obs::Registry());
  obs::Health().EvaluateAll();
  obs::Tracer().ExportMetrics(&obs::Registry());

  // Walk totals straight from the registry (per-guest, summed here).
  uint64_t walks = 0;
  uint64_t sampled = 0;
  const obs::FlightRecorder& flight = box.flight_recorder();
  std::ostringstream folded;
  box.WriteFoldedStacks(folded);
  {
    // One folded line per distinct chain; weight = self-cost ns.
    std::istringstream lines(folded.str());
    std::string line;
    size_t chains = 0;
    while (std::getline(lines, line)) {
      ++chains;
    }
    std::printf("sent %llu packets, delivered %llu, %zu folded chains\n",
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(delivered), chains);
  }
  for (platform::Vm::VmId id : box.vms().AllIds()) {
    platform::Vm* vm = box.vms().Find(id);
    if (vm != nullptr && vm->graph() != nullptr && vm->graph()->profiler() != nullptr) {
      walks += vm->graph()->profiler()->walks();
      sampled += vm->graph()->profiler()->sampled_walks();
    }
  }
  std::printf("packet walks profiled:  %llu (%llu sampled into the trace, 1/%u)\n",
              static_cast<unsigned long long>(walks),
              static_cast<unsigned long long>(sampled), kSampleN);
  std::printf("flight recorder:        %llu events, %zu postmortem bundles\n",
              static_cast<unsigned long long>(flight.recorded()), flight.postmortems().size());
  for (size_t i = 0; i < flight.postmortems().size(); ++i) {
    const obs::PostmortemBundle& bundle = flight.postmortems()[i];
    std::printf("  #%zu %s %s tenant=%s elements=%zu events=%zu\n", i + 1,
                obs::EventKindName(bundle.trigger), bundle.target.c_str(),
                bundle.tenant.c_str(), bundle.elements.size(), bundle.events.size());
  }
  if (flight.postmortems().empty()) {
    std::fprintf(stderr, "expected at least one crash postmortem under the fault plan\n");
    return 1;
  }

  // Headline series for the CI regression gate: seeded packet counts and
  // profiler tallies, all deterministic, so zero tolerance.
  bench::BenchSeries series;
  series.Higher("delivered", static_cast<double>(delivered), 0.0, "packets");
  series.Higher("walks", static_cast<double>(walks), 0.0, "walks");
  series.Higher("sampled_walks", static_cast<double>(sampled), 0.0, "walks");
  series.Lower("postmortems", static_cast<double>(flight.postmortems().size()), 0.0, "bundles");

  obs::json::Value results = obs::json::Value::Object();
  results.Set("sent", sent);
  results.Set("delivered", delivered);
  results.Set("series", series.ToJson());
  results.Set("walks", walks);
  results.Set("sampled_walks", sampled);
  results.Set("sample_n", static_cast<uint64_t>(kSampleN));
  results.Set("seed", kSeed);
  results.Set("folded", folded.str());
  results.Set("flight", flight.ToJson());
  results.Set("metrics", obs::Registry().ToJson());
  if (!bench::WriteBenchJson("dataplane_profile", std::move(results))) {
    return 1;
  }
  return 0;
}
