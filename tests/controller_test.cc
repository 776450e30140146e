#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "src/controller/controller.h"
#include "src/controller/orchestrator.h"
#include "src/controller/security.h"
#include "src/controller/stock_modules.h"
#include "src/policy/reach_checker.h"
#include "src/symexec/click_models.h"
#include "src/symexec/path_digest.h"
#include "src/topology/network.h"

namespace innet::controller {
namespace {

using topology::Network;

// --- Security checker: the Table 1 matrix ----------------------------------------------

class SecurityCheck : public ::testing::Test {
 protected:
  // Runs the checker on `config_text` for `requester`; whitelist contains the
  // client's registered address (10.10.0.5) plus any extras.
  Verdict Run(const std::string& config_text, RequesterClass requester,
              std::vector<Ipv4Address> extra_whitelist = {}) {
    std::string error;
    auto config = click::ConfigGraph::Parse(config_text, &error);
    EXPECT_TRUE(config.has_value()) << error;
    SecurityOptions options;
    options.requester = requester;
    options.module_addr = Ipv4Address::MustParse("172.16.3.10");
    options.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
    for (Ipv4Address addr : extra_whitelist) {
      options.whitelist.push_back(addr);
    }
    options.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
    SecurityReport report = CheckModuleSecurity(*config, options, &error);
    return report.verdict;
  }
};

// Table 1 row: Firewall — safe for everyone.
TEST_F(SecurityCheck, FirewallRow) {
  const std::string config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Flow meter — safe (pass-through measurement to own address).
TEST_F(SecurityCheck, FlowMeterRow) {
  const std::string config =
      "FromNetfront() -> FlowMeter() ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Rate limiter — safe.
TEST_F(SecurityCheck, RateLimiterRow) {
  const std::string config =
      "FromNetfront() -> RateLimiter(8000000) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
}

// Table 1 row: IP Router — rejected for tenants (forwards by attacker-set
// destination), fine for the operator.
TEST_F(SecurityCheck, IpRouterRow) {
  const std::string config =
      "src :: FromNetfront(); rt :: LinearIPLookup(0.0.0.0/1 0, 128.0.0.0/1 1);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> rt; rt[0] -> a; rt[1] -> b;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: DPI — rejected for tenants (transit inspection).
TEST_F(SecurityCheck, DpiRow) {
  const std::string config =
      "src :: FromNetfront(); dpi :: ContentMatch(EVIL);"
      "pass :: ToNetfront(); alert :: Discard();"
      "src -> dpi; dpi[0] -> pass; dpi[1] -> alert;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: NAT — rejected for tenants.
TEST_F(SecurityCheck, NatRow) {
  const std::string config =
      "outb :: FromNetfront(); inb :: FromNetfront();"
      "nat :: NatRewriter(PUBLIC 172.16.3.10);"
      "wan :: ToNetfront(); lan :: ToNetfront();"
      "outb -> nat; nat[0] -> wan; inb -> [1]nat; nat[1] -> lan;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Transparent proxy — rejected for tenants.
TEST_F(SecurityCheck, TransparentProxyRow) {
  const std::string config = "FromNetfront() -> TransparentProxy() -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Tunnel — sandbox for third parties (decapsulated destination
// unknown at install time), clean for clients.
TEST_F(SecurityCheck, TunnelRow) {
  const std::string config = StockTunnel(Ipv4Address::MustParse("7.7.7.7"),
                                         Ipv4Prefix::MustParse("10.10.0.0/24"));
  std::string substituted =
      SubstituteSelf(config, Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(Run(substituted, RequesterClass::kThirdParty, {Ipv4Address::MustParse("7.7.7.7")}),
            Verdict::kNeedsSandbox);
  EXPECT_EQ(Run(substituted, RequesterClass::kClient, {Ipv4Address::MustParse("7.7.7.7")}),
            Verdict::kSafe);
  EXPECT_EQ(Run(substituted, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Multicast — safe when every replica destination is authorized.
TEST_F(SecurityCheck, MulticastRow) {
  const std::string config =
      "src :: FromNetfront(); t :: Tee(2);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> t; t[0] -> SetIPDst(10.10.0.5) -> a; t[1] -> SetIPDst(10.10.0.6) -> b;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty, {Ipv4Address::MustParse("10.10.0.6")}),
            Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
}

// Multicast to an UNREGISTERED replica is exactly the DDoS vector default-off
// prevents: rejected for third parties (but clients may send anywhere).
TEST_F(SecurityCheck, MulticastToUnregisteredReplica) {
  const std::string config =
      "src :: FromNetfront(); t :: Tee(2);"
      "a :: ToNetfront(); b :: ToNetfront();"
      "src -> t; t[0] -> SetIPDst(10.10.0.5) -> a; t[1] -> SetIPDst(9.9.9.9) -> b;";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
}

// Table 1 row: DNS server (stock) — safe: responds to the requester.
TEST_F(SecurityCheck, DnsServerRow) {
  std::string config =
      SubstituteSelf(StockDnsServer(), Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Table 1 row: Reverse proxy (stock) — safe: replies to requester, fetches
// from the whitelisted origin.
TEST_F(SecurityCheck, ReverseProxyRow) {
  std::string config = SubstituteSelf(StockReverseProxy(Ipv4Address::MustParse("5.5.5.5")),
                                      Ipv4Address::MustParse("172.16.3.10"));
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty, {Ipv4Address::MustParse("5.5.5.5")}),
            Verdict::kSafe);
  EXPECT_EQ(Run(config, RequesterClass::kClient, {Ipv4Address::MustParse("5.5.5.5")}),
            Verdict::kSafe);
}

// Table 1 row: x86 VM — sandbox for tenants (opaque), safe for the operator.
TEST_F(SecurityCheck, X86VmRow) {
  std::string config = StockX86Vm();
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kNeedsSandbox);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kNeedsSandbox);
  EXPECT_EQ(Run(config, RequesterClass::kOperator), Verdict::kSafe);
}

// Spoofing a fixed source address is always rejected.
TEST_F(SecurityCheck, SpoofedSourceRejected) {
  const std::string config =
      "FromNetfront() -> SetIPSrc(6.6.6.6) -> SetIPDst(10.10.0.5) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kRejected);
  EXPECT_EQ(Run(config, RequesterClass::kClient), Verdict::kRejected);
}

// Sourcing as the module's own address is fine.
TEST_F(SecurityCheck, ModuleAddressSourceAccepted) {
  const std::string config =
      "FromNetfront() -> SetIPSrc(172.16.3.10) -> SetIPDst(10.10.0.5) -> ToNetfront();";
  EXPECT_EQ(Run(config, RequesterClass::kThirdParty), Verdict::kSafe);
}

// A module that drops everything is trivially safe.
TEST_F(SecurityCheck, BlackholeIsSafe) {
  EXPECT_EQ(Run("FromNetfront() -> Discard();", RequesterClass::kThirdParty), Verdict::kSafe);
}

TEST_F(SecurityCheck, NoIngressRejected) {
  EXPECT_EQ(Run("x :: Counter(); x -> ToNetfront();", RequesterClass::kThirdParty),
            Verdict::kRejected);
}

// --- Controller deployment (the Figure 4 request on the Figure 3 topology) --------------

class ControllerDeploy : public ::testing::Test {
 protected:
  ControllerDeploy() : controller_(Network::MakeFigure3()) {}

  ClientRequest BatcherRequest() {
    ClientRequest request;
    request.client_id = "mobile1";
    request.requester = RequesterClass::kClient;
    request.click_config =
        "FromNetfront() ->"
        "IPFilter(allow udp dst port 1500) ->"
        "IPRewriter(pattern - - 10.10.0.5 - 0 0)"
        "-> TimedUnqueue(120,100)"
        "-> dst :: ToNetfront();";
    request.requirements =
        "reach from internet udp -> client dst port 1500 "
        "const proto && dst port && payload";
    request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
    request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
    return request;
  }

  Controller controller_;
};

TEST_F(ControllerDeploy, BatcherLandsOnPlatform3) {
  // Platforms 1 and 2 are not reachable from the Internet (NAT path / HTTP
  // policy path), so the push-notification batcher must land on platform 3 —
  // the placement the paper's unifying example walks through (§4.5).
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_EQ(outcome.platform, "platform3");
  EXPECT_FALSE(outcome.sandboxed);
  EXPECT_TRUE(outcome.module_addr.IsUnspecified() == false);
  EXPECT_EQ(controller_.deployments().size(), 1u);
}

TEST_F(ControllerDeploy, ModuleElementWaypointRequirement) {
  ClientRequest request = BatcherRequest();
  request.requirements =
      "reach from internet udp -> batcher:dst:0 dst 10.10.0.5 -> client dst port 1500";
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
}

TEST_F(ControllerDeploy, ImpossibleRequirementRejected) {
  ClientRequest request = BatcherRequest();
  // ICMP can never reach the clients (firewall) and the module only passes UDP.
  request.requirements = "reach from internet icmp -> client";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
}

TEST_F(ControllerDeploy, UnsafeModuleRejected) {
  ClientRequest request = BatcherRequest();
  request.requester = RequesterClass::kThirdParty;
  request.click_config = "FromNetfront() -> TransparentProxy() -> ToNetfront();";
  request.requirements = "";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_NE(outcome.reason.find("security"), std::string::npos);
}

TEST_F(ControllerDeploy, SandboxedModuleDeploysWithFlag) {
  ClientRequest request = BatcherRequest();
  request.click_config = StockX86Vm();
  request.requirements = "";
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_TRUE(outcome.sandboxed);
}

TEST_F(ControllerDeploy, OperatorPolicyBlocksViolatingPlacement) {
  // An operator policy that can never hold with this module rejects the
  // deployment outright.
  ASSERT_TRUE(controller_.AddOperatorPolicy(
      "reach from internet tcp src port 80 -> http_optimizer -> client"));
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  // The policy holds independently of the module, so deployment succeeds...
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
}

TEST_F(ControllerDeploy, KillRemovesDeployment) {
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted);
  EXPECT_TRUE(controller_.Kill(outcome.module_id));
  EXPECT_FALSE(controller_.Kill(outcome.module_id));
  EXPECT_TRUE(controller_.deployments().empty());
}

TEST_F(ControllerDeploy, SecondDeploymentGetsDistinctAddress) {
  DeployOutcome first = controller_.Deploy(BatcherRequest());
  ClientRequest second_request = BatcherRequest();
  second_request.client_id = "mobile2";
  DeployOutcome second = controller_.Deploy(second_request);
  ASSERT_TRUE(first.accepted) << first.reason;
  ASSERT_TRUE(second.accepted) << second.reason;
  EXPECT_NE(first.module_addr, second.module_addr);
  EXPECT_NE(first.module_id, second.module_id);
}

TEST_F(ControllerDeploy, BadConfigSyntaxRejected) {
  ClientRequest request = BatcherRequest();
  request.click_config = "FromNetfront( -> ToNetfront();";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
}

TEST_F(ControllerDeploy, BadRequirementSyntaxRejected) {
  ClientRequest request = BatcherRequest();
  request.requirements = "reach to the moon";
  DeployOutcome outcome = controller_.Deploy(request);
  EXPECT_FALSE(outcome.accepted);
}

TEST_F(ControllerDeploy, TimingBreakdownPopulated) {
  DeployOutcome outcome = controller_.Deploy(BatcherRequest());
  ASSERT_TRUE(outcome.accepted);
  EXPECT_GT(outcome.model_build_ms + outcome.check_ms, 0.0);
  EXPECT_GT(outcome.engine_steps, 0u);
}

// Geolocation placement on a multi-PoP operator: the module serving a PoP's
// clients lands on that PoP's platform (§8's CDN/DNS story).
TEST(MultiPopPlacement, ModuleLandsNearItsClients) {
  Controller controller(topology::Network::MakeMultiPop(4));
  for (int pop : {2, 0, 3}) {
    ClientRequest request;
    request.client_id = "dns-pop" + std::to_string(pop);
    request.requester = RequesterClass::kThirdParty;
    request.click_config = StockDnsServer();
    std::string client_net = "10." + std::to_string(pop + 1) + ".0.0/16";
    request.requirements =
        "reach from " + client_net + " udp dst port 53 -> module:server -> client";
    DeployOutcome outcome = controller.Deploy(request);
    ASSERT_TRUE(outcome.accepted) << outcome.reason;
    EXPECT_EQ(outcome.platform, "platform" + std::to_string(pop));
  }
}

TEST(MultiPopPlacement, HopDistanceMetric) {
  topology::Network net = topology::Network::MakeMultiPop(3);
  EXPECT_EQ(net.HopDistance("clients1", "platform1"), 2);  // via access1
  EXPECT_EQ(net.HopDistance("clients1", "platform2"), 4);  // via access1, core, access2
  EXPECT_EQ(net.HopDistance("internet", "platform0"), 3);
  EXPECT_EQ(net.HopDistance("core", "core"), 0);
  EXPECT_EQ(net.HopDistance("core", "nonexistent"), -1);
}

// DNS stock module: reachable from the Internet on UDP 53.
TEST_F(ControllerDeploy, StockDnsDeploysAndIsReachable) {
  ClientRequest request;
  request.client_id = "cdn";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = StockDnsServer();
  request.requirements = "reach from internet udp dst port 53 -> module:server -> internet";
  DeployOutcome outcome = controller_.Deploy(request);
  ASSERT_TRUE(outcome.accepted) << outcome.reason;
  EXPECT_EQ(outcome.platform, "platform3");
}

// A rejected request leaves no trace in the controller's network: the
// firewall pinholes and module attachments are those of the committed
// deployments, exactly as before the request.
TEST_F(ControllerDeploy, RejectedDeployLeavesNetworkAsItWas) {
  ASSERT_TRUE(controller_.Deploy(BatcherRequest()).accepted);
  auto snapshot = [this] {
    std::vector<std::string> state;
    for (const topology::Node& node : controller_.network().nodes()) {
      for (const FlowSpec& pinhole : node.firewall_pinholes) {
        state.push_back(node.name + " pinhole " + pinhole.ToString());
      }
    }
    for (const auto& att : controller_.network().attachments()) {
      state.push_back("attached " + att.addr.ToString() + " on " + att.platform);
    }
    return state;
  };
  const std::vector<std::string> before = snapshot();
  ASSERT_FALSE(before.empty());

  // Passes the security check and authorizes pinholes toward 10.10.0.7, but
  // its UDP requirement fails on every platform.
  ClientRequest reach_reject = BatcherRequest();
  reach_reject.client_id = "mobile2";
  reach_reject.click_config =
      "FromNetfront() -> IPFilter(allow tcp) -> IPRewriter(pattern - - 10.10.0.7 - 0 0)"
      " -> ToNetfront();";
  reach_reject.whitelist = {Ipv4Address::MustParse("10.10.0.7")};
  std::string error;
  auto config = click::ConfigGraph::Parse(reach_reject.click_config, &error);
  ASSERT_TRUE(config.has_value()) << error;
  ASSERT_FALSE(DeriveEgressPinholes(*config, &error).empty());
  DeployOutcome outcome = controller_.Deploy(reach_reject);
  ASSERT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason.rfind("on ", 0), 0u) << outcome.reason;
  EXPECT_EQ(snapshot(), before);

  ClientRequest spoof = reach_reject;
  spoof.click_config =
      "FromNetfront() -> IPRewriter(pattern 198.18.0.1 - 10.10.0.7 - 0 0) -> ToNetfront();";
  outcome = controller_.Deploy(spoof);
  ASSERT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.reason.rfind("security", 0), 0u) << outcome.reason;
  EXPECT_EQ(snapshot(), before);
}

// --- Persistent verification graph vs the from-scratch build ---------------------------
//
// The controller keeps one verification graph and grafts each candidate into
// it. The reference below is the build it replaced: the whole graph from
// scratch, for every candidate. A seeded run of deploys, rejects, kills,
// restores and platform failures must keep the two equal node for node and
// give the same verdicts, reasons, engine steps, simulated latency and path
// digests.

// The network with every deployment, and `trial` last, attached; every module
// model merged and wired to its platform's port.
symexec::SymGraph FromScratchGraph(Network network, const std::vector<Deployment>& deployments,
                                   const Deployment* trial) {
  network.ClearAttachments();
  network.ClearFirewallPinholes();
  std::vector<const Deployment*> all;
  for (const Deployment& dep : deployments) {
    all.push_back(&dep);
  }
  if (trial != nullptr) {
    all.push_back(trial);
  }
  for (const Deployment* dep : all) {
    for (const FlowSpec& pinhole : dep->pinholes) {
      network.AddFirewallPinhole(pinhole);
    }
  }
  for (const Deployment* dep : all) {
    Network::ModuleAttachment att;
    att.platform = dep->platform;
    att.addr = dep->addr;
    network.AttachModule(std::move(att));
  }

  symexec::SymGraph graph = network.BuildSymGraph();
  for (const Deployment* dep : all) {
    std::string error;
    auto module_graph = symexec::BuildClickModel(dep->config, &error, /*embedded=*/true);
    if (!module_graph) {
      continue;
    }
    graph.Merge(*module_graph, dep->module_id);
    const topology::Node* platform = network.Find(dep->platform);
    int platform_id = graph.FindNode(dep->platform);
    if (platform == nullptr || platform_id < 0) {
      continue;
    }
    int module_port = static_cast<int>(platform->neighbors.size());
    for (const auto& att : network.attachments()) {
      if (att.platform == dep->platform) {
        if (att.addr == dep->addr) {
          break;
        }
        ++module_port;
      }
    }
    std::vector<std::string> sources = symexec::ModuleSources(dep->config);
    if (!sources.empty()) {
      int entry = graph.FindNode(dep->module_id + "/" + sources[0]);
      if (entry >= 0) {
        graph.Connect(platform_id, module_port, entry, 0);
      }
    }
    for (const std::string& sink : symexec::ModuleSinks(dep->config)) {
      int exit = graph.FindNode(dep->module_id + "/" + sink);
      if (exit >= 0) {
        graph.Connect(exit, 0, platform_id, module_port);
      }
    }
  }
  return graph;
}

std::string EdgesText(const symexec::SymGraph& graph, int id) {
  std::map<int, std::pair<int, int>> sorted(graph.Edges(id).begin(), graph.Edges(id).end());
  std::string text;
  for (const auto& [port, to] : sorted) {
    text += " " + std::to_string(port) + "->" + graph.NodeName(to.first) + ":" +
            std::to_string(to.second);
  }
  return text;
}

// Node-for-node equality: names in id order, name lookups, edges and ports.
::testing::AssertionResult SameGraph(const symexec::SymGraph& want,
                                     const symexec::SymGraph& got) {
  if (want.node_count() != got.node_count()) {
    return ::testing::AssertionFailure()
           << got.node_count() << " nodes, want " << want.node_count();
  }
  for (int id = 0; id < static_cast<int>(want.node_count()); ++id) {
    const std::string& name = want.NodeName(id);
    if (got.NodeName(id) != name) {
      return ::testing::AssertionFailure()
             << "node " << id << " is " << got.NodeName(id) << ", want " << name;
    }
    if (got.FindNode(name) != want.FindNode(name)) {
      return ::testing::AssertionFailure() << name << " resolves to " << got.FindNode(name)
                                           << ", want " << want.FindNode(name);
    }
    if (got.Edges(id) != want.Edges(id)) {
      return ::testing::AssertionFailure() << "edges of " << name << ":" << EdgesText(got, id)
                                           << ", want" << EdgesText(want, id);
    }
  }
  return ::testing::AssertionSuccess();
}

class PersistentGraphDifferential {
 public:
  static constexpr const char* kPolicy =
      "reach from internet tcp src port 80 -> http_optimizer -> client";

  explicit PersistentGraphDifferential(uint64_t seed)
      : rng_(seed), controller_(Network::MakeFigure3()) {
    std::string error;
    EXPECT_TRUE(controller_.AddOperatorPolicy(kPolicy, &error)) << error;
    policies_.push_back(*policy::ReachSpec::Parse(kPolicy, &error));
  }

  // A fixed prologue that does every kind of operation once, then
  // `operations` random ones.
  void Run(int operations) {
    for (Kind kind : {Kind::kAccept, Kind::kAccept, Kind::kAccept, Kind::kAccept, Kind::kLocal,
                      Kind::kLocal, Kind::kSpoof, Kind::kTcpOnly, Kind::kNoModel,
                      Kind::kViaCommitted}) {
      DoDeploy(kind);
      ExpectCommittedStateMatches();
    }
    DoKill();
    DoKill();
    DoRestore(0, /*reverify=*/true);
    DoRestore(0, /*reverify=*/false);
    DoRestore(7, /*reverify=*/true);
    DoTogglePlatform();
    ExpectCommittedStateMatches();
    for (int op = 0; op < operations && !::testing::Test::HasFatalFailure(); ++op) {
      SCOPED_TRACE("operation " + std::to_string(op));
      int pick = Uniform(100);
      if (pick < 20) {
        DoDeploy(Kind::kAccept);
      } else if (pick < 32) {
        DoDeploy(Kind::kLocal);
      } else if (pick < 40) {
        DoDeploy(Kind::kSpoof);
      } else if (pick < 46) {
        DoDeploy(Kind::kTcpOnly);
      } else if (pick < 50) {
        DoDeploy(Kind::kNoModel);
      } else if (pick < 56) {
        DoDeploy(Kind::kViaCommitted);
      } else if (pick < 72) {
        DoKill();
      } else if (pick < 90) {
        DoRestore(Uniform(10), Uniform(2) == 0);
      } else {
        DoTogglePlatform();
      }
      ExpectCommittedStateMatches();
    }
    counts_ok_ = accepts_ > 0 && security_rejects_ > 0 && reach_rejects_ > 0 && kills_ > 0 &&
                 restores_ > 0 && reverified_restores_ > 0 && toggles_ > 0;
  }

  // Whether the run covered every kind of operation at least once.
  bool counts_ok() const { return counts_ok_; }
  // Operations after which two committed modules shared an address (a
  // restore of a killed module whose address was reused): the case where a
  // platform's module ports and its wiring can disagree.
  int shared_addrs() const { return shared_addrs_; }
  std::string Counts() const {
    return std::to_string(accepts_) + " accepts, " + std::to_string(security_rejects_) +
           " security rejects, " + std::to_string(reach_rejects_) + " reach rejects, " +
           std::to_string(kills_) + " kills, " + std::to_string(restores_) + " restores (" +
           std::to_string(reverified_restores_) + " reverified), " + std::to_string(toggles_) +
           " platform toggles";
  }

 private:
  enum class Kind { kAccept, kLocal, kSpoof, kTcpOnly, kNoModel, kViaCommitted };

  // What Deploy must report, from the reference replay.
  struct Expected {
    bool accepted = false;
    std::string module_id;
    std::string platform;
    std::string reason;
    uint64_t engine_steps = 0;
    uint64_t sim_verify_ns = 0;
    std::string path_digest;
  };

  int Uniform(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  ClientRequest MakeRequest(Kind kind) {
    int k = tenant_++;
    std::string port = std::to_string(2000 + k);
    Ipv4Address client(10, 10, static_cast<uint8_t>(k % 200), static_cast<uint8_t>(1 + k % 250));
    ClientRequest request;
    request.client_id = "t" + std::to_string(k);
    request.requester = RequesterClass::kClient;
    std::string filter = kind == Kind::kTcpOnly ? "tcp" : "udp";
    std::string rewrite_src = kind == Kind::kSpoof   ? "198.18.0." + std::to_string(1 + k % 250)
                              : kind == Kind::kLocal ? "$SELF"
                                                     : "-";
    request.click_config = "in :: FromNetfront(); f :: IPFilter(allow " + filter +
                           " dst port " + port + "); rw :: IPRewriter(pattern " + rewrite_src +
                           " - " + client.ToString() +
                           " - 0 0); out :: ToNetfront(); in -> f -> rw -> out;";
    request.requirements = "reach from internet udp -> client dst port " + port;
    request.whitelist = {client};
    request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/16")};
    if (kind == Kind::kLocal) {
      request.requirements = "";
    } else if (kind == Kind::kNoModel) {
      // Parses, passes the operator's own security check, but has no
      // symbolic model: committed with no graph nodes.
      request.requester = RequesterClass::kOperator;
      request.click_config = "FromNetfront() -> IPFilter(frobnicate everything) -> ToNetfront();";
      request.requirements = "";
      std::string error;
      auto config = click::ConfigGraph::Parse(request.click_config, &error);
      EXPECT_TRUE(config.has_value()) << error;
      EXPECT_FALSE(symexec::BuildClickModel(*config, &error, /*embedded=*/true).has_value());
    } else if (kind == Kind::kViaCommitted && !controller_.deployments().empty()) {
      const Deployment& other =
          controller_.deployments()[static_cast<size_t>(Uniform(
              static_cast<int>(controller_.deployments().size())))];
      std::string waypoint = Uniform(2) == 0 ? other.module_id + ":f" : other.addr.ToString();
      request.requirements =
          "reach from internet udp -> " + waypoint + " -> client dst port " + port;
    }
    return request;
  }

  std::vector<std::string> Candidates() {
    std::vector<std::string> names = {"platform1", "platform2", "platform3"};
    std::shuffle(names.begin(), names.end(), rng_);
    names.resize(static_cast<size_t>(1 + Uniform(3)));
    return names;
  }

  std::optional<Ipv4Address> NextAddress(const topology::Node& platform) const {
    for (uint32_t offset = 10; offset < 250; ++offset) {
      Ipv4Address candidate(platform.address_pool.base().value() + offset);
      bool taken = false;
      for (const Deployment& dep : controller_.deployments()) {
        taken = taken || dep.addr == candidate;
      }
      if (!taken) {
        return candidate;
      }
    }
    return std::nullopt;
  }

  // Controller::BuildTrial through public calls.
  SecurityReport BuildTrial(const ClientRequest& request, const std::string& module_id,
                            const std::string& platform, Ipv4Address addr, Deployment* trial) {
    std::string error;
    trial->config_text = SubstituteSelf(request.click_config, addr);
    auto config = click::ConfigGraph::Parse(trial->config_text, &error);
    EXPECT_TRUE(config.has_value()) << error;
    trial->module_id = module_id;
    trial->client_id = request.client_id;
    trial->platform = platform;
    trial->addr = addr;
    trial->config = std::move(*config);
    for (FlowSpec& pinhole : DeriveEgressPinholes(trial->config, &error)) {
      bool authorized = false;
      for (const AddrPredicate& pred : pinhole.addr_predicates()) {
        for (Ipv4Address owned : request.whitelist) {
          authorized = authorized || pred.prefix.Contains(owned);
        }
      }
      if (authorized) {
        trial->pinholes.push_back(std::move(pinhole));
      }
    }
    SecurityOptions options;
    options.requester = request.requester;
    options.module_addr = addr;
    options.whitelist = request.whitelist;
    options.owned_prefixes = request.owned_prefixes;
    SecurityReport report = CheckModuleSecurity(trial->config, options, &error);
    trial->sandboxed = report.verdict == Verdict::kNeedsSandbox;
    return report;
  }

  // The reference graph for `trial`, checked against the controller's graft.
  symexec::SymGraph ReferenceGraph(const Deployment& trial) {
    symexec::SymGraph want =
        FromScratchGraph(controller_.network(), controller_.deployments(), &trial);
    std::string error;
    EXPECT_TRUE(SameGraph(want, controller_.BuildVerificationGraph(&trial, &error)))
        << "candidate " << trial.module_id << " on " << trial.platform;
    return want;
  }

  // Controller::CheckRequirements through public calls.
  bool CheckRequirements(const symexec::SymGraph& graph, const Deployment& trial,
                         const std::string& requirements, std::string* failure,
                         uint64_t* steps) {
    std::vector<policy::ReachSpec> client_specs;
    for (const std::string& statement : policy::SplitReachStatements(requirements)) {
      std::string error;
      auto spec = policy::ReachSpec::Parse(statement, &error);
      EXPECT_TRUE(spec.has_value()) << error;
      client_specs.push_back(std::move(*spec));
    }
    symexec::EngineOptions options;
    options.max_hops = std::max(256, static_cast<int>(graph.node_count()) * 2 + 64);
    policy::ReachChecker checker(&graph, controller_.MakeResolver(&trial), options);
    auto holds = [&](const policy::ReachSpec& spec, bool via_module) {
      policy::ReachSpec effective = spec;
      if (via_module) {
        policy::ReachNode module_waypoint;
        module_waypoint.spec = "__module_any__";
        effective.waypoints.insert(effective.waypoints.begin(), std::move(module_waypoint));
      }
      policy::ReachCheckResult result = checker.Check(effective);
      *steps += result.engine_steps;
      if (!result.satisfied) {
        *failure = spec.ToString() + ": " + result.explanation;
      }
      return result.satisfied;
    };
    for (const policy::ReachSpec& spec : policies_) {
      if (!holds(spec, false)) {
        return false;
      }
    }
    for (const policy::ReachSpec& spec : client_specs) {
      if (!holds(spec, true)) {
        return false;
      }
    }
    return true;
  }

  // Controller::Deploy with a candidate list, every candidate graph built
  // from scratch.
  Expected ReferenceDeploy(const ClientRequest& request,
                           const std::vector<std::string>& candidates) {
    Expected want;
    std::vector<const topology::Node*> platforms;
    for (const std::string& name : candidates) {
      const topology::Node* node = controller_.network().Find(name);
      if (node != nullptr && !controller_.IsPlatformFailed(name)) {
        platforms.push_back(node);
      }
    }
    uint64_t graph_nodes = 0;
    want.reason = platforms.empty() ? "no processing platforms available"
                                    : "no platform satisfied the request";
    for (const topology::Node* platform : platforms) {
      std::optional<Ipv4Address> addr = NextAddress(*platform);
      if (!addr) {
        continue;
      }
      Deployment trial;
      SecurityReport security =
          BuildTrial(request, request.client_id + "-m" + std::to_string(next_seq_),
                     platform->name, *addr, &trial);
      symexec::SymGraph graph = ReferenceGraph(trial);
      graph_nodes += graph.node_count();
      if (security.verdict == Verdict::kRejected) {
        want.reason = "security: " + security.Summary();
        continue;
      }
      std::string failure;
      if (!CheckRequirements(graph, trial, request.requirements, &failure,
                             &want.engine_steps)) {
        want.reason = "on " + platform->name + ": " + failure;
        continue;
      }
      want.accepted = true;
      want.module_id = trial.module_id;
      want.platform = platform->name;
      want.reason = "deployed";
      want.path_digest = symexec::ComputePathDigest(trial.config).Encode();
      break;
    }
    want.sim_verify_ns = 2000 * want.engine_steps + 50000 * graph_nodes;
    return want;
  }

  void DoDeploy(Kind kind) {
    ClientRequest request = MakeRequest(kind);
    std::vector<std::string> candidates = Candidates();
    SCOPED_TRACE(request.client_id + ": " + request.click_config + " | " + request.requirements);
    Expected want = ReferenceDeploy(request, candidates);
    DeployOutcome got = controller_.Deploy(request, candidates);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.reason, want.reason);
    EXPECT_EQ(got.engine_steps, want.engine_steps);
    EXPECT_EQ(got.sim_verify_ns, want.sim_verify_ns);
    if (got.accepted && want.accepted) {
      ++accepts_;
      ++next_seq_;
      EXPECT_EQ(got.module_id, want.module_id);
      EXPECT_EQ(got.platform, want.platform);
      const Deployment* dep = controller_.FindDeployment(got.module_id);
      ASSERT_NE(dep, nullptr);
      EXPECT_EQ(dep->path_digest, want.path_digest);
      requests_[got.module_id] = request;
    } else if (want.reason.rfind("security", 0) == 0) {
      ++security_rejects_;
      rejected_.push_back(request);
    } else {
      ++reach_rejects_;
      rejected_.push_back(request);
    }
  }

  void DoKill() {
    const std::vector<Deployment>& deps = controller_.deployments();
    if (deps.empty()) {
      EXPECT_FALSE(controller_.Kill("t0-m999"));
      return;
    }
    Deployment victim = deps[static_cast<size_t>(Uniform(static_cast<int>(deps.size())))];
    ASSERT_TRUE(controller_.Kill(victim.module_id));
    EXPECT_EQ(controller_.FindDeployment(victim.module_id), nullptr);
    killed_.push_back(std::move(victim));
    ++kills_;
  }

  // Re-admits a killed deployment (its address may have been reused since;
  // `pick` < 6), a rejected request under a fresh id (< 9), or an already
  // committed id.
  void DoRestore(int pick, bool reverify) {
    ClientRequest request;
    std::string module_id;
    std::string platform;
    Ipv4Address addr;
    if (pick < 6 && !killed_.empty()) {
      size_t i = static_cast<size_t>(Uniform(static_cast<int>(killed_.size())));
      const Deployment& dep = killed_[i];
      request = requests_[dep.module_id];
      module_id = dep.module_id;
      platform = dep.platform;
      addr = dep.addr;
      killed_.erase(killed_.begin() + static_cast<ptrdiff_t>(i));
    } else if (pick < 9 && !rejected_.empty()) {
      request = rejected_[static_cast<size_t>(Uniform(static_cast<int>(rejected_.size())))];
      module_id = request.client_id + "-m" + std::to_string(next_seq_ + 1000 + restore_ids_++);
      platform = "platform" + std::to_string(1 + Uniform(3));
      const topology::Node* node = controller_.network().Find(platform);
      addr = Ipv4Address(node->address_pool.base().value() + 100 +
                         static_cast<uint32_t>(Uniform(100)));
    } else if (!controller_.deployments().empty()) {
      const Deployment& dep = controller_.deployments().front();
      EXPECT_TRUE(controller_.RestoreDeployment(requests_[dep.module_id], dep.module_id,
                                                dep.platform, dep.addr, reverify, nullptr));
      return;
    } else {
      return;
    }
    SCOPED_TRACE("restore " + module_id + " on " + platform + " at " + addr.ToString() +
                 (reverify ? " (reverify)" : ""));

    Deployment trial;
    SecurityReport security = BuildTrial(request, module_id, platform, addr, &trial);
    symexec::SymGraph graph = ReferenceGraph(trial);
    bool want = true;
    std::string want_error;
    if (security.verdict == Verdict::kRejected) {
      want = false;
      want_error = "security: " + security.Summary();
    } else if (reverify) {
      std::string failure;
      uint64_t steps = 0;
      if (!CheckRequirements(graph, trial, request.requirements, &failure, &steps)) {
        want = false;
        want_error = "on " + platform + ": " + failure;
      }
    }
    std::string error;
    bool got = controller_.RestoreDeployment(request, module_id, platform, addr, reverify,
                                             &error);
    EXPECT_EQ(got, want);
    ++restores_;
    reverified_restores_ += reverify ? 1 : 0;
    if (!got) {
      EXPECT_EQ(error, want_error);
      return;
    }
    requests_[module_id] = request;
    size_t marker = module_id.rfind("-m");
    uint64_t seq = std::stoull(module_id.substr(marker + 2));
    next_seq_ = std::max(next_seq_, seq + 1);
  }

  void DoTogglePlatform() {
    std::string name = "platform" + std::to_string(1 + Uniform(3));
    if (controller_.IsPlatformFailed(name)) {
      controller_.RestorePlatform(name);
    } else {
      controller_.MarkPlatformFailed(name);
    }
    ++toggles_;
  }

  // The persistent graph equals the from-scratch one, and the controller's
  // network carries exactly the committed attachments and pinholes.
  void ExpectCommittedStateMatches() {
    std::string error;
    EXPECT_TRUE(SameGraph(
        FromScratchGraph(controller_.network(), controller_.deployments(), nullptr),
        controller_.BuildVerificationGraph(nullptr, &error)));
    const std::vector<Deployment>& deps = controller_.deployments();
    const auto& attachments = controller_.network().attachments();
    ASSERT_EQ(attachments.size(), deps.size());
    std::vector<std::string> pinholes;
    for (size_t i = 0; i < deps.size(); ++i) {
      EXPECT_EQ(attachments[i].platform, deps[i].platform);
      EXPECT_EQ(attachments[i].addr, deps[i].addr);
      for (size_t j = 0; j < i; ++j) {
        shared_addrs_ += deps[j].addr == deps[i].addr ? 1 : 0;
      }
      for (const FlowSpec& pinhole : deps[i].pinholes) {
        pinholes.push_back(pinhole.ToString());
      }
    }
    std::vector<std::string> installed;
    for (const FlowSpec& pinhole : controller_.network().Find("nat_firewall")->firewall_pinholes) {
      installed.push_back(pinhole.ToString());
    }
    EXPECT_EQ(installed, pinholes);
  }

  std::mt19937_64 rng_;
  Controller controller_;
  std::vector<policy::ReachSpec> policies_;
  std::map<std::string, ClientRequest> requests_;  // by module id
  std::vector<Deployment> killed_;
  std::vector<ClientRequest> rejected_;
  uint64_t next_seq_ = 1;
  int tenant_ = 0;
  int restore_ids_ = 0;
  int accepts_ = 0, security_rejects_ = 0, reach_rejects_ = 0, kills_ = 0, restores_ = 0,
      reverified_restores_ = 0, toggles_ = 0, shared_addrs_ = 0;
  bool counts_ok_ = false;
};

TEST(PersistentVerificationGraph, MatchesFromScratchBuildOverSeededOperations) {
  int shared_addrs = 0;
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PersistentGraphDifferential run(seed);
    run.Run(60);
    EXPECT_TRUE(run.counts_ok()) << "the seeded run missed an operation kind: " << run.Counts();
    shared_addrs += run.shared_addrs();
  }
  EXPECT_GT(shared_addrs, 0) << "no run reached two modules with one address";
}

// --- Orchestrator reject-path bookkeeping ----------------------------------------------

// Rejected deployments must leave no trace: no placement entry, no committed
// deployment, no admission usage. The pinned request bypasses the scheduler's
// headroom filter, so the failure happens late — at shared-VM rebuild, after
// verification already passed — the worst case for stale bookkeeping.
TEST(OrchestratorBookkeeping, FailedInstallLeavesNoStaleState) {
  sim::EventQueue clock;
  OrchestratorOptions options;
  // Room for exactly one 8 MB ClickOS guest: the second tenant's shared-VM
  // rebuild (which transiently needs a second guest) must fail.
  options.platform_memory_bytes = 12ull << 20;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);

  ClientRequest request;
  request.client_id = "web1";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};
  request.pinned_platform = "platform1";

  auto first = orch.Deploy(request);
  ASSERT_TRUE(first.outcome.accepted) << first.outcome.reason;
  ASSERT_TRUE(first.consolidated);

  ClientRequest second_request = request;
  second_request.client_id = "web2";
  auto second = orch.Deploy(second_request);
  EXPECT_FALSE(second.outcome.accepted);
  EXPECT_NE(second.outcome.reason.find("consolidation failed"), std::string::npos);
  // No stale placement, deployment record, shared-VM tenant, or quota usage.
  EXPECT_EQ(orch.placement_count(), 1u);
  EXPECT_FALSE(orch.HasPlacement(second.outcome.module_id));
  EXPECT_EQ(orch.controller().deployments().size(), 1u);
  EXPECT_EQ(orch.ConsolidatedTenantCount("platform1"), 1u);
  EXPECT_EQ(orch.engine().admission().UsageFor("web2").modules, 0u);
  // The surviving tenant is untouched.
  EXPECT_EQ(orch.platform("platform1")->vms().vm_count(), 1u);
}

// Headroom rejection happens before verification: nothing is committed.
TEST(OrchestratorBookkeeping, NoHeadroomRejectsBeforeVerification) {
  sim::EventQueue clock;
  OrchestratorOptions options;
  options.platform_memory_bytes = 4ull << 20;  // below one ClickOS guest
  Orchestrator orch(topology::Network::MakeFigure3(), &clock, options);

  ClientRequest request;
  request.client_id = "web1";
  request.requester = RequesterClass::kClient;
  request.click_config =
      "FromNetfront() -> IPFilter(allow udp dst port 1500) ->"
      "IPRewriter(pattern - - 10.10.0.5 - 0 0) -> ToNetfront();";
  request.whitelist = {Ipv4Address::MustParse("10.10.0.5")};
  request.owned_prefixes = {Ipv4Prefix::MustParse("10.10.0.0/24")};

  auto result = orch.Deploy(request);
  EXPECT_FALSE(result.outcome.accepted);
  EXPECT_NE(result.outcome.reason.find("no platform has headroom"), std::string::npos);
  EXPECT_EQ(result.outcome.engine_steps, 0u);  // the verifier never ran
  EXPECT_TRUE(orch.controller().deployments().empty());
  EXPECT_EQ(orch.placement_count(), 0u);
}

// Kill of a module id that never placed (or already died) is a clean no-op.
TEST(OrchestratorBookkeeping, KillOfNeverPlacedModuleIsCleanNoOp) {
  sim::EventQueue clock;
  Orchestrator orch(topology::Network::MakeFigure3(), &clock);
  EXPECT_FALSE(orch.Kill("module-never-existed"));
  EXPECT_FALSE(orch.Kill(""));
  EXPECT_EQ(orch.placement_count(), 0u);
  for (const char* name : {"platform1", "platform2", "platform3"}) {
    EXPECT_EQ(orch.platform(name)->vms().vm_count(), 0u) << name;
  }
  // Double-kill: the second call finds nothing and says so.
  ClientRequest request;
  request.client_id = "cdn";
  request.requester = RequesterClass::kThirdParty;
  request.click_config = StockDnsServer();
  auto deployed = orch.Deploy(request);
  ASSERT_TRUE(deployed.outcome.accepted) << deployed.outcome.reason;
  EXPECT_TRUE(orch.Kill(deployed.outcome.module_id));
  EXPECT_FALSE(orch.Kill(deployed.outcome.module_id));
  EXPECT_EQ(orch.placement_count(), 0u);
}

}  // namespace
}  // namespace innet::controller
