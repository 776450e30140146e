// innet_run: run a Click configuration and trace packets through it — the
// developer-facing debugging loop for writing In-Net modules.
//
// Usage:
//   innet_run --config FILE [--packets FILE] [--clock-until SECONDS]
//             [--telemetry-out FILE]
//             [--placement-policy first_fit|least_loaded|bin_pack]
//             [--dataplane-sample-n N] [--dataplane-seed S] [--int-sample-n N]
//             [--control-loss P] [--control-dup P] [--control-reorder P]
//             [--control-delay-ms D] [--control-seed S]
//
// The packets file has one packet per line:
//   udp  SRC[:SPORT] DST[:DPORT] [payload "TEXT"] [at SECONDS]
//   tcp  SRC[:SPORT] DST[:DPORT] [syn] [payload "TEXT"] [at SECONDS]
//   icmp SRC DST [at SECONDS]
// Without --packets, a single UDP probe to the first ToNetfront is sent.
//
// --telemetry-out writes one telemetry bundle (src/obs/bundle.h; render it
// with innet_top FILE, or load it in ui.perfetto.dev as a trace). It turns
// everything on: the config additionally goes through the full stack — the
// orchestrator admits the request, the placement engine ranks the Figure 3
// platforms (--placement-policy, default first_fit), the controller verifies
// the candidates in order, and a ClickOS guest boots on the chosen platform —
// so the bundle holds:
//   - metrics: admission/verification/boot telemetry next to the per-element
//     packet counters;
//   - the trace: one connected deploy span tree (deploy_request → admission
//     → verify → boot → cutover) as Perfetto trace events;
//   - health: the per-tenant SLO report;
//   - timeseries: every registry instrument sampled every 100 ms of sim time
//     into bounded rings (counters as per-window rates, histograms as
//     windowed p50/p99) with the anomaly flags the EWMA detector raised;
//   - int: in-band telemetry, one hop stack per tagged packet walk (every
//     walk unless --int-sample-n N picks 1 in N, seeded from
//     --dataplane-seed), folded into per-tenant path latency and attested
//     against the SymNet-verified path digest the full-stack deploy
//     registered (innet_path_conformance_violations_total on mismatch);
//   - flight: the platform's flight-recorder ring and post-mortem bundles;
//   - folded: per-element folded stacks ("prefix;a;b;c weight") for
//     flamegraph.pl / speedscope.
// Everything derives from the simulated clock and deterministic work counts:
// two runs write byte-identical bundles.
//
// Data-plane profiling: --dataplane-sample-n N additionally records a full
// element-by-element walk trace for 1 in N packets, chosen deterministically
// from --dataplane-seed. It and --int-sample-n only tune what
// --telemetry-out collects; either one without it is a usage error.
//
// Control-plane chaos: any of --control-loss/--control-dup/--control-reorder/
// --control-delay-ms routes the install over the lossy control channel
// (seeded from --control-seed, default 42) instead of the fault-exempt direct
// path, so the orchestrator's idempotent retries and deploy journal do the
// converging; a channel counter summary is printed after the deploy.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/controller/controller.h"
#include "src/controller/orchestrator.h"
#include "src/obs/bundle.h"
#include "src/obs/health.h"
#include "src/obs/int_telemetry.h"
#include "src/obs/metrics.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/platform/platform.h"
#include "src/sim/event_queue.h"
#include "src/sim/fault_injector.h"
#include "src/topology/network.h"

namespace {

using namespace innet;

struct PacketSpec {
  Packet packet;
  double at_sec = 0;
};

bool ParseEndpoint(const std::string& text, Ipv4Address* addr, uint16_t* port) {
  size_t colon = text.find(':');
  std::string addr_text = colon == std::string::npos ? text : text.substr(0, colon);
  auto parsed = Ipv4Address::Parse(addr_text);
  if (!parsed) {
    return false;
  }
  *addr = *parsed;
  if (colon != std::string::npos) {
    *port = static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
  }
  return true;
}

bool ParsePacketLine(const std::string& line, PacketSpec* spec, std::string* error) {
  std::istringstream in(line);
  std::string proto;
  std::string src_text;
  std::string dst_text;
  if (!(in >> proto >> src_text >> dst_text)) {
    *error = "expected: PROTO SRC DST ...";
    return false;
  }
  Ipv4Address src;
  Ipv4Address dst;
  uint16_t sport = 1234;
  uint16_t dport = 80;
  if (!ParseEndpoint(src_text, &src, &sport) || !ParseEndpoint(dst_text, &dst, &dport)) {
    *error = "bad address in '" + line + "'";
    return false;
  }

  bool syn = false;
  std::string payload;
  std::string word;
  double at = 0;
  while (in >> word) {
    if (word == "syn") {
      syn = true;
    } else if (word == "payload") {
      std::string rest;
      std::getline(in, rest);
      size_t open = rest.find('"');
      size_t close = rest.rfind('"');
      if (open == std::string::npos || close <= open) {
        *error = "payload needs \"quotes\"";
        return false;
      }
      payload = rest.substr(open + 1, close - open - 1);
      std::istringstream tail(rest.substr(close + 1));
      std::string t;
      while (tail >> t) {
        if (t == "at") {
          tail >> at;
        }
      }
      break;
    } else if (word == "at") {
      in >> at;
    } else {
      *error = "unknown token '" + word + "'";
      return false;
    }
  }

  size_t payload_len = payload.empty() ? 32 : payload.size();
  if (proto == "udp") {
    spec->packet = Packet::MakeUdp(src, dst, sport, dport, payload_len);
  } else if (proto == "tcp") {
    spec->packet = Packet::MakeTcp(src, dst, sport, dport, syn ? kTcpSyn : 0, payload_len);
  } else if (proto == "icmp") {
    spec->packet = Packet::MakeIcmpEcho(src, dst, sport, dport);
  } else {
    *error = "unknown protocol '" + proto + "'";
    return false;
  }
  if (!payload.empty()) {
    spec->packet.SetPayload(payload);
  }
  spec->at_sec = at;
  return true;
}

// Recurring sampling tick: each firing closes the current window and
// schedules the next. Stack-allocated in main; events only run inside
// RunUntil windows, so the self-reschedule cannot spin.
struct SamplerTicker {
  sim::EventQueue* clock = nullptr;
  obs::TimeSeriesSampler* sampler = nullptr;
  void Schedule() {
    clock->ScheduleAfter(sampler->window_ns(), [this] {
      sampler->SampleWindow(clock->now());
      Schedule();
    });
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string packets_path;
  std::string telemetry_out;
  std::string placement_policy;
  double clock_until = 1.0;
  uint32_t sample_n = 0;
  uint32_t int_sample_n = 0;
  uint64_t dataplane_seed = 0;
  double control_loss = 0;
  double control_dup = 0;
  double control_reorder = 0;
  double control_delay_ms = 0;
  uint64_t control_seed = 42;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--packets" && i + 1 < argc) {
      packets_path = argv[++i];
    } else if (arg == "--clock-until" && i + 1 < argc) {
      clock_until = std::atof(argv[++i]);
    } else if (arg == "--telemetry-out" && i + 1 < argc) {
      telemetry_out = argv[++i];
    } else if (arg == "--placement-policy" && i + 1 < argc) {
      placement_policy = argv[++i];
    } else if (arg == "--dataplane-sample-n" && i + 1 < argc) {
      sample_n = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--dataplane-seed" && i + 1 < argc) {
      dataplane_seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--int-sample-n" && i + 1 < argc) {
      int_sample_n = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--control-loss" && i + 1 < argc) {
      control_loss = std::atof(argv[++i]);
    } else if (arg == "--control-dup" && i + 1 < argc) {
      control_dup = std::atof(argv[++i]);
    } else if (arg == "--control-reorder" && i + 1 < argc) {
      control_reorder = std::atof(argv[++i]);
    } else if (arg == "--control-delay-ms" && i + 1 < argc) {
      control_delay_ms = std::atof(argv[++i]);
    } else if (arg == "--control-seed" && i + 1 < argc) {
      control_seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s --config FILE [--packets FILE] [--clock-until SECONDS]\n"
                   "          [--telemetry-out FILE]\n"
                   "          [--placement-policy first_fit|least_loaded|bin_pack]\n"
                   "          [--dataplane-sample-n N] [--dataplane-seed S] [--int-sample-n N]\n"
                   "          [--control-loss P] [--control-dup P] [--control-reorder P]\n"
                   "          [--control-delay-ms D] [--control-seed S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config_path.empty()) {
    std::fprintf(stderr, "--config is required\n");
    return 2;
  }

  std::ifstream config_in(config_path);
  if (!config_in) {
    std::fprintf(stderr, "cannot read %s\n", config_path.c_str());
    return 1;
  }
  std::ostringstream config_buf;
  config_buf << config_in.rdbuf();

  scheduler::PlacementPolicyKind policy_kind = scheduler::PlacementPolicyKind::kFirstFit;
  if (!placement_policy.empty() &&
      !scheduler::ParsePlacementPolicy(placement_policy, &policy_kind)) {
    std::fprintf(stderr, "unknown placement policy '%s' (want first_fit|least_loaded|bin_pack)\n",
                 placement_policy.c_str());
    return 2;
  }
  // What the profiler and INT collect goes only into the bundle, so their
  // sampling flags modify --telemetry-out and mean nothing without it.
  const bool want_telemetry = !telemetry_out.empty();
  if (!want_telemetry && (sample_n > 0 || int_sample_n > 0)) {
    std::fprintf(stderr, "--dataplane-sample-n and --int-sample-n need --telemetry-out\n");
    return 2;
  }
  if (want_telemetry) {
    if (int_sample_n == 0) {
      int_sample_n = 1;  // the bundle alone means "tag every walk"
    }
    obs::Int().Enable();
  }
  const bool want_control_faults =
      control_loss > 0 || control_dup > 0 || control_reorder > 0 || control_delay_ms > 0;
  const bool want_stack = want_telemetry || !placement_policy.empty() || want_control_faults;
  sim::EventQueue clock;
  // The sampler rides the sim clock: one tick per window, rescheduled from
  // inside each tick, plus a final flush before the bundle is written so the
  // tail of the run (after the last whole window) still lands in the series.
  obs::TimeSeriesSampler sampler;
  obs::AnomalyDetector detector;
  SamplerTicker ticker{&clock, &sampler};
  if (want_telemetry) {
    obs::Tracer().Enable();
    obs::Tracer().SetTimeSource([&clock] { return clock.now(); });
    obs::Health().Enable();
    detector.UseDefaultRules();
    sampler.AttachDetector(&detector);
    ticker.Schedule();
  }
  std::string error;
  auto graph = click::Graph::FromText(config_buf.str(), &error, &clock);
  if (graph == nullptr) {
    std::fprintf(stderr, "configuration error: %s\n", error.c_str());
    return 1;
  }
  std::printf("loaded %zu elements from %s\n", graph->elements().size(), config_path.c_str());
  if (want_telemetry) {
    click::GraphProfilerConfig profile_config;
    profile_config.sample_n = sample_n;
    profile_config.int_sample_n = int_sample_n;
    profile_config.seed = dataplane_seed;
    profile_config.walk_prefix = "run";
    // The standalone graph belongs wholly to the "run" client — the same key
    // the full-stack deploy below registers its path digest under.
    profile_config.int_tenant = [](int) { return std::string("run"); };
    graph->EnableProfiling(profile_config);
  }

  std::vector<PacketSpec> specs;
  if (!packets_path.empty()) {
    std::ifstream packets_in(packets_path);
    if (!packets_in) {
      std::fprintf(stderr, "cannot read %s\n", packets_path.c_str());
      return 1;
    }
    std::string line;
    int line_no = 0;
    while (std::getline(packets_in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') {
        continue;
      }
      PacketSpec spec;
      if (!ParsePacketLine(line, &spec, &error)) {
        std::fprintf(stderr, "%s:%d: %s\n", packets_path.c_str(), line_no, error.c_str());
        return 1;
      }
      specs.push_back(std::move(spec));
    }
  } else {
    PacketSpec spec;
    spec.packet = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                                  Ipv4Address::MustParse("172.16.3.10"), 1234, 80, 32);
    specs.push_back(std::move(spec));
  }

  // Hop-by-hop trace of every forward, plus delivery/drop accounting.
  click::ScopedPacketTrace trace(
      [](const click::Element& from, int out_port, const Packet& packet) {
        std::printf("    %s[%d] -> %s\n", from.name().c_str(), out_port,
                    packet.Describe().c_str());
      });
  for (const auto& element : graph->elements()) {
    if (auto* sink = dynamic_cast<click::ToNetfront*>(element.get())) {
      sink->set_handler([name = element->name()](Packet& packet) {
        std::printf("    => delivered at %s: %s\n", name.c_str(),
                    packet.Describe().c_str());
      });
    }
  }

  for (PacketSpec& spec : specs) {
    clock.ScheduleAt(sim::FromSeconds(spec.at_sec), [&graph, &spec, &clock] {
      std::printf("t=%.3f s inject: %s\n", sim::ToSeconds(clock.now()),
                  spec.packet.Describe().c_str());
      Packet p = spec.packet;
      graph->InjectAtSource(p);
    });
  }
  clock.RunUntil(sim::FromSeconds(clock_until));

  std::printf("\nelement drop counters:\n");
  for (const auto& element : graph->elements()) {
    if (element->drops() > 0) {
      std::printf("  %-24s %llu dropped\n", element->name().c_str(),
                  static_cast<unsigned long long>(element->drops()));
    }
  }

  platform::InNetPlatform* box = nullptr;
  if (want_stack) {
    // Full-stack pass: the orchestrator admits the request, the placement
    // engine ranks the Figure 3 platforms by the chosen policy, the
    // controller verifies the candidates in order, and the module boots as a
    // ClickOS guest on the chosen platform — one connected deploy span tree.
    controller::OrchestratorOptions options;
    options.policy = policy_kind;
    controller::Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);
    // With control faults requested, the install travels over the lossy
    // channel (seeded, so a given flag set replays identically) and the
    // orchestrator's retry/journal machinery does the converging.
    std::optional<sim::FaultInjector> control_faults;
    if (want_control_faults) {
      sim::FaultPlan plan;
      plan.seed = control_seed;
      plan.control_loss_p = control_loss;
      plan.control_dup_p = control_dup;
      plan.control_reorder_p = control_reorder;
      plan.control_delay_mean_ms = control_delay_ms;
      control_faults.emplace(plan);
      orch.SetControlFaults(&*control_faults);
    }
    controller::ClientRequest request;
    request.client_id = "run";
    request.requester = controller::RequesterClass::kOperator;
    request.click_config = config_buf.str();
    controller::OrchestratedDeploy deployed;
    if (want_control_faults) {
      bool deploy_done = false;
      orch.DeployViaChannel(request, [&](const controller::OrchestratedDeploy& result) {
        deploy_done = true;
        deployed = result;
      });
      // Pump the clock until the retry machinery settles (converges or gives
      // up — either way the callback fires exactly once).
      for (int spins = 0; !deploy_done && spins < 600; ++spins) {
        clock.RunUntil(clock.now() + sim::FromMillis(100));
      }
      std::printf("\ncontrol channel: sent=%llu delivered=%llu dropped=%llu duplicated=%llu "
                  "deduped=%llu retries=%llu timeouts=%llu giveups=%llu\n",
                  static_cast<unsigned long long>(orch.channel().sent()),
                  static_cast<unsigned long long>(orch.channel().delivered()),
                  static_cast<unsigned long long>(orch.channel().dropped()),
                  static_cast<unsigned long long>(orch.channel().duplicated()),
                  static_cast<unsigned long long>(orch.channel().deduped()),
                  static_cast<unsigned long long>(orch.control_client().retries()),
                  static_cast<unsigned long long>(orch.control_client().timeouts()),
                  static_cast<unsigned long long>(orch.control_client().giveups()));
      if (!deploy_done) {
        std::fprintf(stderr, "control-channel deploy never completed\n");
        return 1;
      }
    } else {
      deployed = orch.Deploy(request);
    }
    if (!deployed.outcome.accepted) {
      std::printf("\nplacement: policy=%s rejected: %s\n",
                  scheduler::PlacementPolicyName(policy_kind),
                  deployed.outcome.reason.c_str());
    } else {
      std::printf("\nplacement: policy=%s -> %s at %s (%s, vm %llu)\n",
                  scheduler::PlacementPolicyName(policy_kind),
                  deployed.outcome.platform.c_str(),
                  deployed.outcome.module_addr.ToString().c_str(),
                  deployed.consolidated ? "consolidated" : "dedicated",
                  static_cast<unsigned long long>(deployed.vm_id));
      clock.RunUntil(clock.now() + sim::FromSeconds(2));
      box = orch.platform(deployed.outcome.platform);
      if (want_telemetry) {
        box->EnableDataplaneProfiling(sample_n, dataplane_seed, int_sample_n);
      }
      for (const PacketSpec& spec : specs) {
        Packet p = spec.packet;
        p.set_ip_dst(deployed.outcome.module_addr);
        box->HandlePacket(p);
      }
      clock.RunUntil(clock.now() + sim::FromSeconds(1));
      box->ExportMetrics(&obs::Registry());
      orch.engine().ledger().ExportHeadroomGauges();
    }
    obs::Health().EvaluateAll();

    // The bundle reads the orchestrator's platform, so it is written before
    // the orchestrator goes out of scope.
    if (want_telemetry) {
      graph->ExportMetrics(&obs::Registry());
      obs::Tracer().ExportMetrics(&obs::Registry());
      sampler.SampleWindow(clock.now());  // flush the partial tail window
      std::ostringstream folded;
      graph->WriteFolded(folded);
      if (box != nullptr) {
        box->WriteFoldedStacks(folded);
      }
      const std::string folded_text = folded.str();
      obs::TelemetryBundle bundle;
      bundle.trace = &obs::Tracer();
      bundle.metrics = &obs::Registry();
      bundle.health = &obs::Health();
      bundle.timeseries = &sampler;
      bundle.int_paths = &obs::Int();
      bundle.flight = box != nullptr ? &box->flight_recorder() : nullptr;
      bundle.folded = &folded_text;
      if (!bundle.WriteFile(telemetry_out)) {
        std::fprintf(stderr, "cannot write %s\n", telemetry_out.c_str());
        return 1;
      }
      std::printf("telemetry: %zu metrics, %zu trace events, %zu series, %llu postcards -> %s\n",
                  obs::Registry().MetricNames().size(), obs::Tracer().events().size(),
                  sampler.series_count(),
                  static_cast<unsigned long long>(obs::Int().postcards()), telemetry_out.c_str());
    }
  }
  return 0;
}
