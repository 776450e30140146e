// Beyond-the-paper experiment for §4.3's "Scaling the controller"
// discussion: per-request verification cost as the installed base grows.
// Every new deployment is grafted into the controller's persistent graph of
// the already-running modules and the operator policy is checked across all
// of them, so request latency creeps up with tenant count —
// the quantitative footing for the paper's conjecture that operators will
// shard controllers (per-client ordering preserved, cross-request conflicts
// limited to platform capacity).
//
// Writes BENCH_controller_throughput.json. Its `series` holds only the
// deterministic work of the deploy that reaches each checkpoint (engine steps
// and verification-graph nodes), gated with zero tolerance; the wall-clock
// columns sit beside it in `checkpoints`.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/controller/controller.h"
#include "src/topology/network.h"

int main() {
  using namespace innet;
  using namespace innet::controller;

  bench::PrintHeader("Sec 4.3: request latency vs installed tenant base (single controller)");
  std::printf("%-18s %-20s %-22s %-14s %-12s\n", "installed tenants", "deploy latency (ms)",
              "deploys/sec (this core)", "engine steps", "graph nodes");
  bench::PrintRule();

  Controller ctrl(topology::Network::MakeFigure3());
  ctrl.AddOperatorPolicy("reach from internet tcp src port 80 -> http_optimizer -> client");

  obs::json::Value rows = obs::json::Value::Array();
  bench::BenchSeries series;
  int installed = 0;
  for (int checkpoint : {1, 10, 25, 50, 100, 150, 200}) {
    double last_ms = 0;
    DeployOutcome last;
    bench::WallTimer timer;
    int batch = 0;
    while (installed < checkpoint) {
      ClientRequest request;
      request.client_id = "tenant" + std::to_string(installed);
      request.requester = RequesterClass::kClient;
      request.click_config =
          "FromNetfront() -> IPFilter(allow udp dst port " +
          std::to_string(2000 + installed) + ") -> IPRewriter(pattern - - 10.10.0.5 - 0 0)"
          " -> ToNetfront();";
      request.requirements = "reach from internet udp -> client dst port " +
                             std::to_string(2000 + installed);
      request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
      request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
      bench::WallTimer one;
      last = ctrl.Deploy(request);
      last_ms = one.ElapsedMs();
      if (!last.accepted) {
        std::printf("%-18d deployment failed: %s\n", installed, last.reason.c_str());
        return 1;
      }
      ++installed;
      ++batch;
    }
    double rate = batch / (timer.ElapsedSec() + 1e-9);
    // sim_verify_ns charges 2 µs per engine step and 50 µs per node of every
    // candidate verification graph (DeployOutcome), so the node count of the
    // deploy's graphs falls out of it exactly.
    uint64_t graph_nodes = (last.sim_verify_ns - 2000 * last.engine_steps) / 50000;
    std::printf("%-18d %-20.2f %-22.1f %-14llu %-12llu\n", installed, last_ms, rate,
                static_cast<unsigned long long>(last.engine_steps),
                static_cast<unsigned long long>(graph_nodes));

    obs::json::Value row = obs::json::Value::Object();
    row.Set("installed", installed);
    row.Set("deploy_ms", last_ms);
    row.Set("deploys_per_s", rate);
    row.Set("engine_steps", last.engine_steps);
    row.Set("graph_nodes", graph_nodes);
    rows.Push(std::move(row));
    std::string at = std::to_string(installed) + "_tenants";
    series.Lower("engine_steps_" + at, static_cast<double>(last.engine_steps), 0.0, "steps");
    series.Lower("graph_nodes_" + at, static_cast<double>(graph_nodes), 0.0, "nodes");
  }
  std::printf("\n(each candidate is grafted into one persistent graph of the installed modules,\n"
              " but the operator policy is still re-checked across all of them; the paper's\n"
              " answer to that growth is parallel controllers per client shard)\n");

  obs::json::Value results = obs::json::Value::Object();
  results.Set("checkpoints", std::move(rows));
  results.Set("series", series.ToJson());
  bench::WriteBenchJson("controller_throughput", std::move(results));
  return 0;
}
