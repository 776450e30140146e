// Reproduces Figure 12: "In-Net platforms run many middleboxes on a single
// core with high aggregate throughput." Four middlebox types (NAT, IP
// router, firewall, flow meter), each instantiated in 1..100 VMs sharing one
// core, with client traffic split evenly.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "bench/throughput_util.h"

namespace {

using namespace innet;

constexpr double kFrameBytes = 1500;

struct MiddleboxType {
  const char* name;
  const char* config;
};

const MiddleboxType kTypes[] = {
    {"nat",
     "src :: FromNetfront(); nat :: NatRewriter(PUBLIC 100.64.0.1); out :: ToNetfront();"
     "src -> nat; nat[0] -> out;"},
    {"iprouter",
     "src :: FromNetfront();"
     "rt :: LinearIPLookup(10.0.0.0/8 0, 172.16.0.0/12 1, 192.168.0.0/16 1, 0.0.0.0/0 0);"
     "a :: ToNetfront(); b :: ToNetfront(); src -> rt; rt[0] -> a; rt[1] -> b;"},
    {"firewall",
     "FromNetfront() -> IPFilter(deny src net 10.66.0.0/16, deny udp dst port 19,"
     " allow tcp, allow udp) -> ToNetfront();"},
    {"flowmeter", "FromNetfront() -> FlowMeter() -> ToNetfront();"},
};

}  // namespace

int main() {
  bench::PrintHeader("Figure 12: aggregate throughput, N middlebox VMs on one core");
  // Gb/s is capped at the paper's 10 GbE line rate, so it reads 10.00
  // whatever the code speed; Mpps is the uncapped rate this host achieved.
  std::printf("%-6s", "");
  for (const MiddleboxType& type : kTypes) {
    std::printf(" %15s", type.name);
  }
  std::printf("\n%-6s", "#VMs");
  for (size_t i = 0; i < std::size(kTypes); ++i) {
    std::printf(" %7s %7s", "Gbit/s", "Mpps");
  }
  std::printf("\n");
  bench::PrintRule();

  for (int vms : {1, 10, 20, 40, 60, 80, 100}) {
    std::printf("%-6d", vms);
    for (const MiddleboxType& type : kTypes) {
      std::vector<std::unique_ptr<click::Graph>> graphs;
      std::vector<std::vector<Packet>> templates;
      std::string error;
      for (int v = 0; v < vms; ++v) {
        auto graph = click::Graph::FromText(type.config, &error);
        if (graph == nullptr) {
          std::fprintf(stderr, "bad config: %s\n", error.c_str());
          return 1;
        }
        graphs.push_back(std::move(graph));
        templates.push_back({Packet::MakeUdp(
            Ipv4Address(Ipv4Address::MustParse("10.1.0.0").value() +
                        static_cast<uint32_t>(v)),
            Ipv4Address::MustParse("172.16.3.10"), static_cast<uint16_t>(5000 + v), 80,
            static_cast<size_t>(kFrameBytes) - 42)});
      }
      std::vector<click::Graph*> raw;
      for (auto& graph : graphs) {
        raw.push_back(graph.get());
      }
      double pps = bench::MeasureAggregatePps(raw, templates, 0.08);
      double gbps = std::min(pps * kFrameBytes * 8, bench::kLineRateBps) / 1e9;
      std::printf(" %7.2f %7.3f", gbps, pps / 1e6);
    }
    std::printf("\n");
  }
  std::printf("\n(paper: the platform sustains high aggregate throughput regardless of the\n"
              " number and type of middleboxes sharing the core)\n");
  return 0;
}
