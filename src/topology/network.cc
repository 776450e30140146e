#include "src/topology/network.h"

#include <algorithm>

#include "src/sim/rng.h"

namespace innet::topology {

using innet::HeaderField;
using symexec::kPortDeliver;
using symexec::kPortInject;
using symexec::ModelContext;
using symexec::SymbolicModel;
using symexec::SymbolicPacket;
using symexec::Transition;
using symexec::ValueSet;

namespace {

// --- Node models -------------------------------------------------------------------

// Internet edge: sources and sinks arbitrary outside traffic.
class InternetModel : public SymbolicModel {
 public:
  std::vector<Transition> Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet,
                                int in_port) override {
    if (in_port == kPortInject) {
      SymbolicPacket out = packet;
      // Outside traffic has not traversed the operator firewall yet.
      out.Constrain(HeaderField::kFirewallTag, ValueSet::Single(0));
      return {{0, std::move(out)}};
    }
    return {{kPortDeliver, packet}};
  }
};

// Residential/mobile customers behind `subnet`.
class ClientSubnetModel : public SymbolicModel {
 public:
  explicit ClientSubnetModel(Ipv4Prefix subnet) : subnet_(subnet) {}

  std::vector<Transition> Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet,
                                int in_port) override {
    SymbolicPacket out = packet;
    if (in_port == kPortInject) {
      if (!out.Constrain(HeaderField::kIpSrc, ValueSet::FromPrefix(subnet_))) {
        return {};
      }
      out.Constrain(HeaderField::kFirewallTag, ValueSet::Single(0));
      return {{0, std::move(out)}};
    }
    // Deliver only traffic addressed into the subnet.
    if (!out.Constrain(HeaderField::kIpDst, ValueSet::FromPrefix(subnet_))) {
      return {};
    }
    return {{kPortDeliver, std::move(out)}};
  }

 private:
  Ipv4Prefix subnet_;
};

class ServerModel : public SymbolicModel {
 public:
  std::vector<Transition> Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet,
                                int in_port) override {
    if (in_port == kPortInject) {
      return {{0, packet}};
    }
    return {{kPortDeliver, packet}};
  }
};

// Router with prefix + optional policy-routing classifier per route. Routes
// are evaluated in declaration order; wildcard routes consume their prefix
// from the remaining destination space, policy routes do not (the packet may
// or may not match the classifier at runtime, so both paths stay live —
// an over-approximation that can only add reachable flows).
class RouterModel : public SymbolicModel {
 public:
  struct PortRoute {
    Ipv4Prefix prefix;
    int port;
    FlowSpec match;
  };
  RouterModel(std::vector<PortRoute> routes, int default_port)
      : routes_(std::move(routes)), default_port_(default_port) {}

  std::vector<Transition> Apply(ModelContext* ctx, const SymbolicPacket& packet,
                                int in_port) override {
    std::vector<Transition> out;
    ValueSet remaining = packet.PossibleValues(HeaderField::kIpDst);
    for (const PortRoute& route : routes_) {
      if (route.port == in_port) {
        continue;  // never bounce back out the ingress port
      }
      ValueSet range = ValueSet::FromPrefix(route.prefix);
      ValueSet matched = remaining.Intersect(range);
      if (!matched.IsEmpty()) {
        SymbolicPacket branch = packet;
        if (branch.Constrain(HeaderField::kIpDst, matched)) {
          if (route.match.IsWildcard()) {
            out.push_back({route.port, std::move(branch)});
          } else {
            for (SymbolicPacket& b : branch.ConstrainToFlowSpec(route.match, ctx->vars)) {
              out.push_back({route.port, std::move(b)});
            }
          }
        }
      }
      if (route.match.IsWildcard()) {
        remaining = remaining.Subtract(range);
        if (remaining.IsEmpty()) {
          break;
        }
      }
    }
    if (!remaining.IsEmpty() && default_port_ >= 0 && default_port_ != in_port) {
      SymbolicPacket branch = packet;
      if (branch.Constrain(HeaderField::kIpDst, remaining)) {
        out.push_back({default_port_, std::move(branch)});
      }
    }
    return out;
  }

 private:
  std::vector<PortRoute> routes_;
  int default_port_;
};

// Stateful firewall, modeled as in the paper's Figure 2: outbound traffic of
// an allowed protocol is tagged; inbound traffic must carry the tag (flow
// state folded into the packet so the engine stays oblivious to flow order).
class StatefulFirewallModel : public SymbolicModel {
 public:
  StatefulFirewallModel(std::vector<uint8_t> protos, std::vector<FlowSpec> pinholes)
      : protos_(std::move(protos)), pinholes_(std::move(pinholes)) {}

  std::vector<Transition> Apply(ModelContext* ctx, const SymbolicPacket& packet,
                                int in_port) override {
    if (in_port == 0) {
      // Outbound (inside -> outside).
      SymbolicPacket out = packet;
      ValueSet allowed;
      for (uint8_t proto : protos_) {
        allowed = allowed.Union(ValueSet::Single(proto));
      }
      if (!out.Constrain(HeaderField::kProto, allowed)) {
        return {};
      }
      out.SetConst(HeaderField::kFirewallTag, 1);
      return {{1, std::move(out)}};
    }
    std::vector<Transition> result;
    // Inbound: traffic related to an authorized outbound flow...
    {
      SymbolicPacket related = packet;
      if (related.Constrain(HeaderField::kFirewallTag, ValueSet::Single(1))) {
        result.push_back({0, std::move(related)});
      }
    }
    // ...or matching a controller-installed pinhole (explicit authorization).
    for (const FlowSpec& pinhole : pinholes_) {
      for (SymbolicPacket& b : packet.ConstrainToFlowSpec(pinhole, ctx->vars)) {
        result.push_back({0, std::move(b)});
      }
    }
    return result;
  }

 private:
  std::vector<uint8_t> protos_;
  std::vector<FlowSpec> pinholes_;
};

// HTTP optimizer: may rewrite payloads of port-80 TCP traffic in either
// direction; everything else passes untouched.
class HttpOptimizerModel : public SymbolicModel {
 public:
  std::vector<Transition> Apply(ModelContext* ctx, const SymbolicPacket& packet,
                                int in_port) override {
    int out_port = in_port == 0 ? 1 : 0;
    std::vector<Transition> out;
    // HTTP branch: the optimizer may rewrite the payload.
    {
      SymbolicPacket http = packet;
      if (http.Constrain(HeaderField::kProto, ValueSet::Single(kProtoTcp))) {
        SymbolicPacket by_dst = http;
        if (by_dst.Constrain(HeaderField::kDstPort, ValueSet::Single(80))) {
          by_dst.SetFresh(HeaderField::kPayload, ctx->vars);
          out.push_back({out_port, std::move(by_dst)});
        }
        SymbolicPacket by_src = std::move(http);
        if (by_src.Constrain(HeaderField::kSrcPort, ValueSet::Single(80))) {
          by_src.SetFresh(HeaderField::kPayload, ctx->vars);
          out.push_back({out_port, std::move(by_src)});
        }
      }
    }
    // Non-HTTP branch (exact on ports: both != 80).
    {
      SymbolicPacket rest = packet;
      ValueSet not80 = ValueSet::Full().Subtract(ValueSet::Single(80));
      if (rest.Constrain(HeaderField::kSrcPort, not80) &&
          rest.Constrain(HeaderField::kDstPort, not80)) {
        out.push_back({out_port, std::move(rest)});
      }
    }
    return out;
  }
};

class PassthroughMiddleboxModel : public SymbolicModel {
 public:
  std::vector<Transition> Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet,
                                int in_port) override {
    return {{in_port == 0 ? 1 : 0, packet}};
  }
};

// Platform software switch: traffic addressed to a deployed module is handed
// to the module's entry node; module egress returns to the network side.
class PlatformModel : public SymbolicModel {
 public:
  struct ModulePort {
    uint32_t addr;
    int port;
  };
  PlatformModel(std::vector<ModulePort> modules, int n_links)
      : modules_(std::move(modules)), n_links_(n_links) {}

  std::vector<Transition> Apply(ModelContext* /*ctx*/, const SymbolicPacket& packet,
                                int in_port) override {
    if (in_port >= n_links_ || in_port == kPortInject) {
      // From a module (or an injection inside the platform): out the first
      // network link.
      return {{0, packet}};
    }
    std::vector<Transition> out;
    for (const ModulePort& module : modules_) {
      SymbolicPacket branch = packet;
      if (branch.Constrain(HeaderField::kIpDst, ValueSet::Single(module.addr))) {
        out.push_back({module.port, std::move(branch)});
      }
    }
    return out;
  }

 private:
  std::vector<ModulePort> modules_;
  int n_links_;
};

}  // namespace

bool Network::AddNode(Node node) {
  if (by_name_.count(node.name) != 0) {
    return false;
  }
  by_name_[node.name] = nodes_.size();
  nodes_.push_back(std::move(node));
  return true;
}

bool Network::AddLink(const std::string& a, const std::string& b) {
  Node* na = FindMutable(a);
  Node* nb = FindMutable(b);
  if (na == nullptr || nb == nullptr) {
    return false;
  }
  na->neighbors.push_back(b);
  nb->neighbors.push_back(a);
  return true;
}

const Node* Network::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &nodes_[it->second];
}

Node* Network::FindMutable(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &nodes_[it->second];
}

int Network::PortOf(const std::string& node, const std::string& neighbor) const {
  const Node* n = Find(node);
  if (n == nullptr) {
    return -1;
  }
  for (size_t i = 0; i < n->neighbors.size(); ++i) {
    if (n->neighbors[i] == neighbor) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<const Node*> Network::Platforms() const {
  std::vector<const Node*> result;
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kPlatform) {
      result.push_back(&node);
    }
  }
  return result;
}

std::vector<const Node*> Network::ClientSubnets() const {
  std::vector<const Node*> result;
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kClientSubnet) {
      result.push_back(&node);
    }
  }
  return result;
}

void Network::AddFirewallPinhole(const FlowSpec& pinhole) {
  for (Node& node : nodes_) {
    if (node.kind == NodeKind::kMiddlebox &&
        node.middlebox == MiddleboxKind::kStatefulFirewall) {
      node.firewall_pinholes.push_back(pinhole);
    }
  }
}

void Network::ClearFirewallPinholes() {
  for (Node& node : nodes_) {
    node.firewall_pinholes.clear();
  }
}

const Node* Network::OwnerOf(Ipv4Address addr) const {
  for (const Node& node : nodes_) {
    if (node.kind == NodeKind::kClientSubnet && node.subnet.Contains(addr)) {
      return &node;
    }
    if (node.kind == NodeKind::kPlatform && node.address_pool.Contains(addr)) {
      return &node;
    }
  }
  return nullptr;
}

int Network::HopDistance(const std::string& from, const std::string& to) const {
  if (Find(from) == nullptr || Find(to) == nullptr) {
    return -1;
  }
  if (from == to) {
    return 0;
  }
  std::vector<std::string> frontier{from};
  std::unordered_map<std::string, int> dist{{from, 0}};
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& name : frontier) {
      const Node* node = Find(name);
      for (const std::string& neighbor : node->neighbors) {
        if (dist.count(neighbor) != 0) {
          continue;
        }
        dist[neighbor] = dist[name] + 1;
        if (neighbor == to) {
          return dist[neighbor];
        }
        next.push_back(neighbor);
      }
    }
    frontier = std::move(next);
  }
  return -1;
}

std::shared_ptr<SymbolicModel> Network::BuildNodeModel(
    const Node& node, const ModuleAttachment* trial,
    const std::vector<FlowSpec>& trial_pinholes) const {
  switch (node.kind) {
    case NodeKind::kInternet:
      return std::make_shared<InternetModel>();
    case NodeKind::kClientSubnet:
      return std::make_shared<ClientSubnetModel>(node.subnet);
    case NodeKind::kServer:
      return std::make_shared<ServerModel>();
    case NodeKind::kRouter: {
      std::vector<RouterModel::PortRoute> routes;
      for (const RouteEntry& route : node.routes) {
        int port = PortOf(node.name, route.next_hop);
        if (port >= 0) {
          routes.push_back({route.prefix, port, route.match});
        }
      }
      int default_port =
          node.default_route.empty() ? -1 : PortOf(node.name, node.default_route);
      return std::make_shared<RouterModel>(std::move(routes), default_port);
    }
    case NodeKind::kMiddlebox:
      switch (node.middlebox) {
        case MiddleboxKind::kStatefulFirewall: {
          std::vector<FlowSpec> pinholes = node.firewall_pinholes;
          pinholes.insert(pinholes.end(), trial_pinholes.begin(), trial_pinholes.end());
          return std::make_shared<StatefulFirewallModel>(node.allowed_outbound_protos,
                                                         std::move(pinholes));
        }
        case MiddleboxKind::kHttpOptimizer:
          return std::make_shared<HttpOptimizerModel>();
        case MiddleboxKind::kWebCache:
        case MiddleboxKind::kPassthrough:
          return std::make_shared<PassthroughMiddleboxModel>();
      }
      break;
    case NodeKind::kPlatform: {
      // Module ports follow the physical links, in attachment order.
      std::vector<PlatformModel::ModulePort> modules;
      int next_port = static_cast<int>(node.neighbors.size());
      for (const ModuleAttachment& att : attachments_) {
        if (att.platform == node.name) {
          modules.push_back({att.addr.value(), next_port++});
        }
      }
      if (trial != nullptr && trial->platform == node.name) {
        modules.push_back({trial->addr.value(), next_port});
      }
      return std::make_shared<PlatformModel>(std::move(modules),
                                             static_cast<int>(node.neighbors.size()));
    }
  }
  return nullptr;
}

symexec::SymGraph Network::BuildSymGraph() const {
  symexec::SymGraph graph;
  for (const Node& node : nodes_) {
    graph.AddNode(node.name, BuildNodeModel(node));
  }

  // Wire links: port i on a node leads to the i-th neighbor; the reverse edge
  // enters the neighbor on the port that points back.
  for (const Node& node : nodes_) {
    int from = graph.FindNode(node.name);
    for (size_t i = 0; i < node.neighbors.size(); ++i) {
      int to = graph.FindNode(node.neighbors[i]);
      int back_port = PortOf(node.neighbors[i], node.name);
      graph.Connect(from, static_cast<int>(i), to, back_port);
    }
  }
  return graph;
}

Network Network::MakeFigure3() {
  Network net;
  Node internet;
  internet.name = "internet";
  internet.kind = NodeKind::kInternet;
  net.AddNode(internet);

  Node border;
  border.name = "border";
  border.kind = NodeKind::kRouter;
  net.AddNode(border);

  Node nat_fw;
  nat_fw.name = "nat_firewall";
  nat_fw.kind = NodeKind::kMiddlebox;
  nat_fw.middlebox = MiddleboxKind::kStatefulFirewall;
  nat_fw.allowed_outbound_protos = {kProtoUdp, kProtoTcp};
  net.AddNode(nat_fw);

  Node cache;
  cache.name = "web_cache";
  cache.kind = NodeKind::kMiddlebox;
  cache.middlebox = MiddleboxKind::kWebCache;
  net.AddNode(cache);

  Node optimizer;
  optimizer.name = "http_optimizer";
  optimizer.kind = NodeKind::kMiddlebox;
  optimizer.middlebox = MiddleboxKind::kHttpOptimizer;
  net.AddNode(optimizer);

  Node access;
  access.name = "access";
  access.kind = NodeKind::kRouter;
  net.AddNode(access);

  Node clients;
  clients.name = "clients";
  clients.kind = NodeKind::kClientSubnet;
  clients.subnet = Ipv4Prefix::MustParse("10.10.0.0/16");
  net.AddNode(clients);

  // r2 sits between the HTTP optimizer and the web cache so platform2 can
  // hang off a routing-capable node on the HTTP path.
  Node r2;
  r2.name = "r2";
  r2.kind = NodeKind::kRouter;
  net.AddNode(r2);

  auto make_platform = [&net](const std::string& name, const std::string& pool) {
    Node platform;
    platform.name = name;
    platform.kind = NodeKind::kPlatform;
    platform.address_pool = Ipv4Prefix::MustParse(pool);
    net.AddNode(platform);
  };
  make_platform("platform1", "192.168.1.0/24");  // behind the NAT: unreachable from outside
  make_platform("platform2", "192.168.2.0/24");  // on the HTTP path, behind the web cache
  make_platform("platform3", "172.16.3.0/24");   // directly reachable from the Internet

  // Wiring. Two-port middleboxes: the first link added is the *inside*
  // (client-facing) port 0, the second the *outside* port 1.
  net.AddLink("access", "nat_firewall");    // nat_firewall port 0 = inside
  net.AddLink("nat_firewall", "border");    // nat_firewall port 1 = outside
  net.AddLink("access", "http_optimizer");  // optimizer port 0 = inside
  net.AddLink("http_optimizer", "r2");      // optimizer port 1 = outside
  net.AddLink("r2", "web_cache");           // cache port 0 = inside
  net.AddLink("web_cache", "border");       // cache port 1 = outside
  net.AddLink("access", "clients");
  net.AddLink("internet", "border");
  net.AddLink("access", "platform1");
  net.AddLink("r2", "platform2");
  net.AddLink("border", "platform3");

  // Routing. The border router policy-routes inbound HTTP (src port 80) via
  // the cache/optimizer path — the operator policy Figure 3 illustrates —
  // and everything else toward clients via the NAT&firewall.
  Node* border_node = net.FindMutable("border");
  border_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "web_cache",
                                 FlowSpec::MustParse("tcp src port 80")});
  border_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "nat_firewall", {}});
  border_node->routes.push_back({Ipv4Prefix::MustParse("172.16.3.0/24"), "platform3", {}});
  // Platform 2 sits on the HTTP path and is only reachable for TCP traffic —
  // this is why the paper's UDP batcher cannot be placed there (§4.5).
  border_node->routes.push_back({Ipv4Prefix::MustParse("192.168.2.0/24"), "web_cache",
                                 FlowSpec::MustParse("tcp")});
  border_node->default_route = "internet";

  Node* r2_node = net.FindMutable("r2");
  r2_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "http_optimizer", {}});
  r2_node->routes.push_back({Ipv4Prefix::MustParse("192.168.2.0/24"), "platform2", {}});
  r2_node->default_route = "web_cache";

  Node* access_node = net.FindMutable("access");
  access_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "clients", {}});
  access_node->routes.push_back({Ipv4Prefix::MustParse("192.168.1.0/24"), "platform1", {}});
  access_node->routes.push_back(
      {Ipv4Prefix::MustParse("192.168.2.0/24"), "http_optimizer", {}});
  access_node->default_route = "nat_firewall";
  return net;
}

Network Network::MakeMultiPop(int pops) {
  Network net;
  Node internet;
  internet.name = "internet";
  internet.kind = NodeKind::kInternet;
  net.AddNode(internet);

  Node core;
  core.name = "core";
  core.kind = NodeKind::kRouter;
  net.AddNode(core);
  net.AddLink("internet", "core");

  for (int pop = 0; pop < pops; ++pop) {
    std::string id = std::to_string(pop);
    Node access;
    access.name = "access" + id;
    access.kind = NodeKind::kRouter;
    net.AddNode(access);

    Node clients;
    clients.name = "clients" + id;
    clients.kind = NodeKind::kClientSubnet;
    clients.subnet = Ipv4Prefix(Ipv4Address(10, static_cast<uint8_t>(pop + 1), 0, 0), 16);
    net.AddNode(clients);

    Node platform;
    platform.name = "platform" + id;
    platform.kind = NodeKind::kPlatform;
    platform.address_pool =
        Ipv4Prefix(Ipv4Address(172, 16, static_cast<uint8_t>(pop + 10), 0), 24);
    net.AddNode(platform);

    net.AddLink("core", access.name);
    net.AddLink(access.name, clients.name);
    net.AddLink(access.name, platform.name);

    Node* access_node = net.FindMutable(access.name);
    access_node->routes.push_back({clients.subnet, clients.name, {}});
    access_node->routes.push_back({platform.address_pool, platform.name, {}});
    access_node->default_route = "core";

    Node* core_node = net.FindMutable("core");
    core_node->routes.push_back({clients.subnet, access.name, {}});
    core_node->routes.push_back({platform.address_pool, access.name, {}});
  }
  net.FindMutable("core")->default_route = "internet";
  return net;
}

Network Network::MakeScalingTopology(int n_middleboxes, uint64_t seed) {
  Network net;
  sim::Rng rng(seed);

  Node internet;
  internet.name = "internet";
  internet.kind = NodeKind::kInternet;
  net.AddNode(internet);

  Node clients;
  clients.name = "clients";
  clients.kind = NodeKind::kClientSubnet;
  clients.subnet = Ipv4Prefix::MustParse("10.10.0.0/16");
  net.AddNode(clients);

  Node platform;
  platform.name = "platform1";
  platform.kind = NodeKind::kPlatform;
  platform.address_pool = Ipv4Prefix::MustParse("172.16.3.0/24");
  net.AddNode(platform);

  // A chain of middleboxes between the Internet and the access router; a mix
  // of pass-through boxes and HTTP optimizers (the firewall would block the
  // unconstrained reach checks the benchmark runs, so the chain mirrors the
  // "many waypoints" structure that drives checking cost).
  std::string prev = "internet";
  for (int i = 0; i < n_middleboxes; ++i) {
    Node mbox;
    mbox.name = "mbox" + std::to_string(i);
    mbox.kind = NodeKind::kMiddlebox;
    mbox.middlebox =
        rng.Bernoulli(0.3) ? MiddleboxKind::kHttpOptimizer : MiddleboxKind::kPassthrough;
    net.AddNode(mbox);
    // Middlebox inside port faces the access/client side, which is the *next*
    // link we add; so wire outside (prev, toward internet) second. Add the
    // inside link after the chain is extended below.
    net.AddLink(mbox.name, prev);  // port 0 of mbox faces prev for now
    prev = mbox.name;
  }

  Node access;
  access.name = "access";
  access.kind = NodeKind::kRouter;
  net.AddNode(access);
  net.AddLink(access.name, prev);
  net.AddLink("access", "clients");
  net.AddLink("access", "platform1");

  Node* access_node = net.FindMutable("access");
  access_node->routes.push_back({Ipv4Prefix::MustParse("10.10.0.0/16"), "clients", {}});
  access_node->routes.push_back({Ipv4Prefix::MustParse("172.16.3.0/24"), "platform1", {}});
  access_node->default_route = prev;
  return net;
}

}  // namespace innet::topology
