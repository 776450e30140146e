// perfbench: wall-clock benchmark of In-Net's deploy and packet paths.
//
//   perfbench --workload <deploy_steady|forward_imix|flow_setup> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-dir <dir>]
//
// Prints diagnostics on stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A traced run writes its
// spans to <dir>/spans-<workload>.jsonl. Exits non-zero when any output
// check failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Every per-layer metric a traced run reports, whatever the workload.
const char* const kPerLayer[] = {
    "controller.model_build_ms", "controller.check_ms", "controller.build_graph_ms",
    "symexec.graph_nodes", "policy.reach_check_ms", "policy.engine_steps",
    "policy.paths_explored", "policy.us_per_step", "controller.security_us",
    "symexec.digest_us", "scheduler.decide_us", "orchestrator.realize_ms",
    "orchestrator.kill_ms", "click.parse_us", "click.graph_build_us", "platform.handle_ns",
    "switch.deliver_ns", "vm.inject_ns", "click.graph_ns", "platform.self_ns", "switch.self_ns",
    "vm.self_ns", "platform.handle_ns_64B", "platform.handle_ns_1500B",
    "netcore.packet_copy_ns_64B", "netcore.packet_copy_ns_1500B", "netcore.packet_move_ns_64B",
    "netcore.packet_move_ns_1500B", "switch.miss_us", "sim.boot_drain_us",
    "platform.uninstall_us", "switch.hit_ns", "alloc.per_deploy", "alloc.per_deploy_bytes",
    "alloc.per_pkt", "alloc.per_pkt_bytes", "alloc.per_flow", "alloc.per_flow_bytes",
    "deploy.stage_cover", "trace.overhead", "host.calib_ms",
};

const char* const kEndToEnd[] = {
    "setup_s",          "peak_rss_mb",       "best_ops_per_s",
    "best_main_p50_us", "best_side1_p50_us", "best_side2_p50_us",
};

using Runner = Report (*)(const RunConfig&, const Scale&, SpanLog*);

struct Workload {
  const char* name;
  Runner run;
  Scale (*scale)();
  Scale census;  // small traced run that lends its layers to the others
};

const Workload kWorkloads[] = {
    {"deploy_steady", RunDeploySteady, DeploySteadyScale, Scale{4, 2, 1}},
    {"forward_imix", RunForwardImix, ForwardImixScale, Scale{2, 64, 1}},
    {"flow_setup", RunFlowSetup, FlowSetupScale, Scale{2, 64, 1}},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <deploy_steady|forward_imix|flow_setup> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-dir <dir>]\n");
  return 2;
}

// A layer this workload never calls is measured by the census: the other
// workloads, run small and traced, on the same seed. Only layers with no
// samples of their own are filled.
void FillFromCensus(const Workload& self, const RunConfig& config, Report* report) {
  SpanLog census_log;
  for (const Workload& other : kWorkloads) {
    if (&other == &self) {
      continue;
    }
    Report census = other.run(config, other.census, &census_log);
    LayerMetricsFromSpans(census_log, &census);
    census_log = SpanLog();
    report->failed += census.failed;
    for (const std::string& error : census.errors) {
      report->Fail("census " + std::string(other.name) + ": " + error, 0);
    }
    for (const auto& [name, metric] : census.per_layer) {
      auto own = report->per_layer.find(name);
      if (metric.samples > 0 && (own == report->per_layer.end() || own->second.samples == 0)) {
        report->per_layer[name] = metric;
      }
    }
  }
}

void PrintResult(const Report& report, bool trace) {
  std::string out = "{\"correct\": " + std::string(report.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, const std::map<std::string, Metric>& metrics) {
    auto it = metrics.find(name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it == metrics.end() ? 0.0 : it->second.value);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + (it == metrics.end() ? "" : it->second.unit) + "\"}";
    first = false;
  };
  if (trace) {
    for (const char* name : kPerLayer) {
      emit(name, report.per_layer);
    }
  } else {
    for (const char* name : kEndToEnd) {
      emit(name, report.end_to_end);
    }
  }
  std::printf("%s}}\n", out.c_str());
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string workload, spans_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--spans-dir") {
      spans_dir = value;
    } else {
      return Usage();
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      chosen = &w;
    }
  }
  if (chosen == nullptr || !have_seed || !have_seconds || !have_trace || argc % 2 == 0) {
    return Usage();
  }
  if (!spans_dir.empty()) {
    config.span_path = spans_dir + "/spans-" + workload + ".jsonl";
  }

  SpanLog log;
  Report report = chosen->run(config, chosen->scale(), &log);
  if (config.trace) {
    LayerMetricsFromSpans(log, &report);
    FillFromCensus(*chosen, config, &report);
    for (const char* name : kPerLayer) {
      if (report.per_layer.count(name) == 0 || report.per_layer.at(name).samples == 0) {
        report.Fail(std::string("no samples for per-layer metric ") + name);
      }
    }
    if (!config.span_path.empty() && !log.WriteJsonl(config.span_path)) {
      report.Fail("cannot write spans to " + config.span_path);
    }
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  PrintResult(report, config.trace);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
