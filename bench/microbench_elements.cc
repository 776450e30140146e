// Google-benchmark microbenchmarks for the building blocks behind the
// headline figures: per-element packet costs (what Figures 8/11/12 are made
// of) and symbolic-execution primitives (what Figure 10 is made of).
#include <benchmark/benchmark.h>

#include "src/click/graph.h"
#include "src/controller/security.h"
#include "src/netcore/checksum.h"
#include "src/policy/reach_checker.h"
#include "src/policy/reach_spec.h"
#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"
#include "src/topology/network.h"

namespace {

using namespace innet;

// Ethernet + IPv4 + UDP headers in front of the payload.
constexpr size_t kUdpFrameOverhead = 42;
constexpr size_t kDefaultFrame = kUdpFrameOverhead + 64;

Packet TestPacket(size_t frame = kDefaultFrame) {
  return Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                         Ipv4Address::MustParse("172.16.3.10"), 5000, 1500,
                         frame - kUdpFrameOverhead);
}

// The IMIX frame sizes of perfbench's forward_imix: per-packet costs that
// grow with the frame show up as a slope across these.
void FrameSizes(benchmark::internal::Benchmark* bench) {
  bench->ArgName("frame")->Arg(64)->Arg(576)->Arg(1500);
}

void RunElementBench(benchmark::State& state, const char* config,
                     size_t frame = kDefaultFrame) {
  std::string error;
  auto graph = click::Graph::FromText(config, &error);
  if (graph == nullptr) {
    state.SkipWithError(error.c_str());
    return;
  }
  Packet tmpl = TestPacket(frame);
  for (auto _ : state) {
    Packet p = tmpl;
    graph->InjectAtSource(p);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(frame));
}

void BM_Element_Forward(benchmark::State& state) {
  RunElementBench(state, "FromNetfront() -> ToNetfront();");
}
BENCHMARK(BM_Element_Forward);

void BM_Element_IPFilter(benchmark::State& state) {
  RunElementBench(state,
                  "FromNetfront() -> IPFilter(allow udp dst port 1500) -> ToNetfront();");
}
BENCHMARK(BM_Element_IPFilter);

// Rewrites and re-checksums the whole frame: cost grows with the frame.
void BM_Element_IPRewriter(benchmark::State& state) {
  RunElementBench(state,
                  "FromNetfront() -> IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();",
                  static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Element_IPRewriter)->Apply(FrameSizes);

void BM_Element_NatRewriter(benchmark::State& state) {
  RunElementBench(state,
                  "src :: FromNetfront(); nat :: NatRewriter(PUBLIC 100.64.0.1);"
                  "out :: ToNetfront(); src -> nat; nat[0] -> out;");
}
BENCHMARK(BM_Element_NatRewriter);

void BM_Element_ChangeEnforcer(benchmark::State& state) {
  RunElementBench(state,
                  "src :: FromNetfront(); enf :: ChangeEnforcer(ALLOW 10.10.0.5);"
                  "out :: ToNetfront(); src -> enf; enf[0] -> out;");
}
BENCHMARK(BM_Element_ChangeEnforcer);

// Verifies only the 20-byte IP header: what is left growing with the frame
// is the packet copy.
void BM_Element_CheckIPHeader(benchmark::State& state) {
  RunElementBench(state, "FromNetfront() -> CheckIPHeader() -> ToNetfront();",
                  static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_Element_CheckIPHeader)->Apply(FrameSizes);

void BM_Checksum(benchmark::State& state) {
  const size_t frame = static_cast<size_t>(state.range(0));
  Packet p = TestPacket(frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChecksumPartial(p.data(), p.length()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(frame));
}
BENCHMARK(BM_Checksum)->Apply(FrameSizes);

// move = 0: copy-construct from a template, as every packet injection does.
// move = 1: move-assign back and forth between two packets.
void BM_Packet_CopyMove(benchmark::State& state) {
  const size_t frame = static_cast<size_t>(state.range(0));
  const Packet tmpl = TestPacket(frame);
  if (state.range(1) == 0) {
    for (auto _ : state) {
      Packet p = tmpl;
      benchmark::DoNotOptimize(p);
    }
    state.SetItemsProcessed(state.iterations());
  } else {
    Packet a = tmpl;
    Packet b;
    for (auto _ : state) {
      b = std::move(a);
      benchmark::DoNotOptimize(b);
      a = std::move(b);
      benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations() * 2);
  }
}
BENCHMARK(BM_Packet_CopyMove)
    ->ArgNames({"frame", "move"})
    ->ArgsProduct({{64, 576, 1500}, {0, 1}});

// Demux cost vs branch count: the mechanism behind Figure 8's knee.
void BM_ClassifierDemux(benchmark::State& state) {
  int branches = static_cast<int>(state.range(0));
  std::string patterns;
  for (int i = 0; i < branches; ++i) {
    if (i > 0) {
      patterns += ", ";
    }
    patterns +=
        "dst host " +
        Ipv4Address(Ipv4Address::MustParse("172.16.0.10").value() + static_cast<uint32_t>(i))
            .ToString();
  }
  std::string config = "src :: FromNetfront(); demux :: IPClassifier(" + patterns +
                       "); out :: ToNetfront(); src -> demux; demux[" +
                       std::to_string(branches - 1) + "] -> out;";
  std::string error;
  auto graph = click::Graph::FromText(config, &error);
  if (graph == nullptr) {
    state.SkipWithError(error.c_str());
    return;
  }
  // Worst case: the packet matches the last branch.
  Packet tmpl = Packet::MakeUdp(
      Ipv4Address::MustParse("8.8.8.8"),
      Ipv4Address(Ipv4Address::MustParse("172.16.0.10").value() +
                  static_cast<uint32_t>(branches - 1)),
      5000, 80, 64);
  for (auto _ : state) {
    Packet p = tmpl;
    graph->InjectAtSource(p);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifierDemux)->Arg(8)->Arg(32)->Arg(128)->Arg(252);

// Symbolic execution primitives (Figure 10's inner loop).
void BM_SecurityCheck_Batcher(benchmark::State& state) {
  std::string error;
  auto config = click::ConfigGraph::Parse(
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> TimedUnqueue(120,100) -> ToNetfront();",
      &error);
  controller::SecurityOptions options;
  options.module_addr = Ipv4Address::MustParse("172.16.3.10");
  options.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  for (auto _ : state) {
    auto report = controller::CheckModuleSecurity(*config, options, &error);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SecurityCheck_Batcher);

void BM_ReachCheck_Figure3(benchmark::State& state) {
  topology::Network network = topology::Network::MakeFigure3();
  symexec::SymGraph graph = network.BuildSymGraph();
  auto spec = policy::ReachSpec::Parse(
      "reach from internet tcp src port 80 -> http_optimizer -> client", nullptr);
  policy::NodeResolver resolver = [&network](const std::string& name)
      -> std::vector<std::string> {
    if (name == "internet") {
      return {"internet"};
    }
    if (name == "client") {
      return {"clients"};
    }
    if (network.Find(name) != nullptr) {
      return {name};
    }
    return {};
  };
  policy::ReachChecker checker(&graph, resolver);
  for (auto _ : state) {
    auto result = checker.Check(*spec);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ReachCheck_Figure3);

void BM_BuildSymGraph_256Boxes(benchmark::State& state) {
  topology::Network network = topology::Network::MakeScalingTopology(256);
  for (auto _ : state) {
    symexec::SymGraph graph = network.BuildSymGraph();
    benchmark::DoNotOptimize(graph);
  }
}
BENCHMARK(BM_BuildSymGraph_256Boxes);

}  // namespace

BENCHMARK_MAIN();
