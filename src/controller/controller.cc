#include "src/controller/controller.h"

#include <algorithm>
#include <climits>
#include <chrono>

#include "src/controller/stock_modules.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/symexec/click_models.h"
#include "src/symexec/path_digest.h"

namespace innet::controller {

using policy::ReachChecker;
using policy::ReachSpec;
using symexec::SymGraph;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Controller::Controller(topology::Network network) : network_(std::move(network)) {
  RebuildGraph();
}

bool Controller::AddOperatorPolicy(const std::string& reach_statement, std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  auto spec = ReachSpec::Parse(reach_statement, error);
  if (!spec) {
    return false;
  }
  operator_policies_.push_back(std::move(*spec));
  return true;
}

std::optional<Ipv4Address> Controller::NextAddress(const topology::Node& platform) const {
  // Addresses .10 upward in the platform pool; skip those already assigned.
  for (uint32_t offset = 10; offset < 250; ++offset) {
    Ipv4Address candidate(platform.address_pool.base().value() + offset);
    bool taken = false;
    for (const Deployment& dep : deployments_) {
      if (dep.addr == candidate) {
        taken = true;
        break;
      }
    }
    if (!taken) {
      return candidate;
    }
  }
  return std::nullopt;
}

std::shared_ptr<const SymGraph> Controller::BuildModuleModel(const click::ConfigGraph& config,
                                                             std::string* error) {
  std::optional<SymGraph> model = symexec::BuildClickModel(config, error, /*embedded=*/true);
  if (!model) {
    return nullptr;
  }
  return std::make_shared<const SymGraph>(std::move(*model));
}

void Controller::RebuildGraph() {
  network_.ClearAttachments();
  network_.ClearFirewallPinholes();
  for (const Deployment& dep : deployments_) {
    for (const FlowSpec& pinhole : dep.pinholes) {
      network_.AddFirewallPinhole(pinhole);
    }
    network_.AttachModule({dep.platform, dep.addr});
  }
  graph_ = network_.BuildSymGraph();
  for (size_t i = 0; i < deployments_.size(); ++i) {
    if (committed_[i].model != nullptr) {
      WireModule(deployments_[i], *committed_[i].model);
    }
  }
}

void Controller::WireModule(const Deployment& dep, const SymGraph& model) {
  graph_.Merge(model, dep.module_id);
  const topology::Node* platform = network_.Find(dep.platform);
  int platform_id = graph_.FindNode(dep.platform);
  if (platform == nullptr || platform_id < 0) {
    return;
  }
  int module_port = static_cast<int>(platform->neighbors.size());
  for (const auto& att : network_.attachments()) {
    if (att.platform == dep.platform) {
      if (att.addr == dep.addr) {
        break;
      }
      ++module_port;
    }
  }
  std::vector<std::string> sources = symexec::ModuleSources(dep.config);
  if (!sources.empty()) {
    int entry = graph_.FindNode(dep.module_id + "/" + sources[0]);
    if (entry >= 0) {
      graph_.Connect(platform_id, module_port, entry, 0);
    }
  }
  // Every module egress returns to the platform on the module's port.
  for (const std::string& sink : symexec::ModuleSinks(dep.config)) {
    int exit = graph_.FindNode(dep.module_id + "/" + sink);
    if (exit >= 0) {
      graph_.Connect(exit, 0, platform_id, module_port);
    }
  }
}

std::shared_ptr<const SymGraph> Controller::GraftTrial(const Deployment& trial,
                                                       std::string* error) {
  graph_.BeginTrial();
  const topology::Node* platform = network_.Find(trial.platform);
  if (platform != nullptr && platform->kind == topology::NodeKind::kPlatform) {
    topology::Network::ModuleAttachment att{trial.platform, trial.addr};
    graph_.SetModel(graph_.FindNode(trial.platform), network_.BuildNodeModel(*platform, &att));
  }
  if (!trial.pinholes.empty()) {
    // Topology nodes come first in graph_, in network order.
    const std::vector<topology::Node>& nodes = network_.nodes();
    for (size_t id = 0; id < nodes.size(); ++id) {
      if (nodes[id].kind == topology::NodeKind::kMiddlebox &&
          nodes[id].middlebox == topology::MiddleboxKind::kStatefulFirewall) {
        graph_.SetModel(static_cast<int>(id),
                        network_.BuildNodeModel(nodes[id], nullptr, trial.pinholes));
      }
    }
  }
  std::shared_ptr<const SymGraph> model = BuildModuleModel(trial.config, error);
  if (model != nullptr) {
    WireModule(trial, *model);
  }
  return model;
}

void Controller::Commit(Deployment trial, std::shared_ptr<const SymGraph> model) {
  graph_.KeepTrial();
  for (const FlowSpec& pinhole : trial.pinholes) {
    network_.AddFirewallPinhole(pinhole);
  }
  network_.AttachModule({trial.platform, trial.addr});
  CommittedModule committed;
  committed.id = trial.module_id;
  committed.addr = trial.addr;
  for (const click::ElementDecl& decl : trial.config.elements) {
    committed.nodes.push_back(trial.module_id + "/" + decl.name);
  }
  committed.model = std::move(model);
  committed_.push_back(std::move(committed));
  deployments_.push_back(std::move(trial));
}

symexec::SymGraph Controller::BuildVerificationGraph(const Deployment* trial,
                                                     std::string* error) {
  if (trial == nullptr) {
    return graph_;
  }
  GraftTrial(*trial, error);
  SymGraph graph = graph_;
  graph.KeepTrial();
  graph_.RollbackTrial();
  return graph;
}

policy::NodeResolver Controller::MakeResolver(const Deployment* trial) const {
  std::string module_id = trial != nullptr ? trial->module_id : "";
  Ipv4Address module_addr = trial != nullptr ? trial->addr : Ipv4Address();
  const topology::Network* net = &network_;
  const std::vector<CommittedModule>* committed = &committed_;
  static const click::ConfigGraph kNoConfig;
  const click::ConfigGraph* trial_config = trial != nullptr ? &trial->config : &kNoConfig;

  return [net, committed, module_id, module_addr, trial_config](
             const std::string& spec) -> std::vector<std::string> {
    if (spec == "internet") {
      std::vector<std::string> names;
      for (const topology::Node& node : net->nodes()) {
        if (node.kind == topology::NodeKind::kInternet) {
          names.push_back(node.name);
        }
      }
      return names;
    }
    if (spec == "client" || spec == "clients") {
      std::vector<std::string> names;
      for (const topology::Node& node : net->nodes()) {
        if (node.kind == topology::NodeKind::kClientSubnet) {
          names.push_back(node.name);
        }
      }
      return names;
    }
    // Sentinel: any element of the module under deployment.
    if (spec == "__module_any__") {
      std::vector<std::string> names;
      if (!module_id.empty()) {
        for (const click::ElementDecl& decl : trial_config->elements) {
          names.push_back(module_id + "/" + decl.name);
        }
      }
      return names;
    }
    // Fully-qualified graph node names ("module-id/element") pass through
    // untouched — but "10.3.0.0/16" is a prefix, handled below.
    if (spec.find('/') != std::string::npos && !Ipv4Prefix::Parse(spec).has_value()) {
      return {spec};
    }
    // Module element reference "module:element[:port]". The first segment
    // may name a committed module id; otherwise it denotes the module under
    // deployment.
    size_t colon = spec.find(':');
    if (colon != std::string::npos) {
      std::string owner = spec.substr(0, colon);
      std::string element = spec.substr(colon + 1);
      size_t colon2 = element.find(':');
      if (colon2 != std::string::npos) {
        element = element.substr(0, colon2);  // the trailing :port is accepted and ignored
      }
      for (const CommittedModule& ref : *committed) {
        if (ref.id == owner) {
          return {ref.id + "/" + element};
        }
      }
      if (!module_id.empty()) {
        return {module_id + "/" + element};
      }
      return {};
    }
    // IP address or prefix: the owning endpoint, or a deployed module (any
    // of whose elements counts as a waypoint hit).
    if (auto addr = Ipv4Address::Parse(spec)) {
      if (!module_id.empty() && *addr == module_addr) {
        std::vector<std::string> names;
        for (const click::ElementDecl& decl : trial_config->elements) {
          names.push_back(module_id + "/" + decl.name);
        }
        return names;
      }
      for (const CommittedModule& ref : *committed) {
        if (*addr == ref.addr) {
          return ref.nodes;
        }
      }
      if (const topology::Node* owner = net->OwnerOf(*addr)) {
        return {owner->name};
      }
      return {};
    }
    if (auto prefix = Ipv4Prefix::Parse(spec)) {
      for (const topology::Node& node : net->nodes()) {
        if (node.kind == topology::NodeKind::kClientSubnet &&
            node.subnet.Overlaps(*prefix)) {
          return {node.name};
        }
      }
      return {};
    }
    // A bare element name of the trial module, or a topology node name.
    if (!module_id.empty() && trial_config->FindElement(spec) != nullptr) {
      return {module_id + "/" + spec};
    }
    if (net->Find(spec) != nullptr) {
      return {spec};
    }
    return {};
  };
}

std::optional<SecurityReport> Controller::BuildTrial(const ClientRequest& request,
                                                   const std::string& module_id,
                                                   const std::string& platform,
                                                   Ipv4Address addr, Deployment* trial,
                                                   std::string* error) const {
  std::string config_text = SubstituteSelf(request.click_config, addr);
  auto config = click::ConfigGraph::Parse(config_text, error);
  if (!config) {
    *error = "bad configuration: " + *error;
    return std::nullopt;
  }
  trial->module_id = module_id;
  trial->client_id = request.client_id;
  trial->platform = platform;
  trial->addr = addr;
  trial->config = std::move(*config);
  trial->config_text = std::move(config_text);
  // Symbolic execution tells the controller exactly which flows the module
  // emits; it opens firewall pinholes for precisely those (and only when
  // the destination explicitly authorized them via the whitelist).
  for (FlowSpec& pinhole : DeriveEgressPinholes(trial->config, error)) {
    bool authorized = false;
    for (const AddrPredicate& pred : pinhole.addr_predicates()) {
      for (Ipv4Address owned : request.whitelist) {
        if (pred.prefix.Contains(owned)) {
          authorized = true;
        }
      }
    }
    if (authorized) {
      trial->pinholes.push_back(std::move(pinhole));
    }
  }
  SecurityOptions sec_options;
  sec_options.requester = request.requester;
  sec_options.module_addr = addr;
  sec_options.whitelist = request.whitelist;
  sec_options.owned_prefixes = request.owned_prefixes;
  SecurityReport security = CheckModuleSecurity(trial->config, sec_options, error);
  trial->sandboxed = security.verdict == Verdict::kNeedsSandbox;
  return security;
}

std::optional<std::vector<ReachSpec>> Controller::ParseRequirements(const ClientRequest& request,
                                                                    std::string* error) {
  std::vector<ReachSpec> specs;
  for (const std::string& statement : policy::SplitReachStatements(request.requirements)) {
    auto spec = ReachSpec::Parse(statement, error);
    if (!spec) {
      *error = "bad requirement: " + *error;
      return std::nullopt;
    }
    specs.push_back(std::move(*spec));
  }
  return specs;
}

bool Controller::CheckRequirements(const SymGraph& graph, const Deployment& trial,
                                   const std::vector<ReachSpec>& client_specs,
                                   std::string* failure, uint64_t* steps) const {
  symexec::EngineOptions options;
  // Long middlebox chains (the Figure 10 scaling topologies) need path
  // budgets proportional to the network diameter.
  options.max_hops =
      std::max(256, static_cast<int>(graph.node_count()) * 2 + 64);
  ReachChecker checker(&graph, MakeResolver(&trial), options);
  auto holds = [&](const ReachSpec& spec, bool via_module) {
    ReachSpec effective = spec;
    if (via_module) {
      // A client requirement is about *its* processing: the flow must pass
      // through the module being deployed (this is what makes unreachable
      // platforms — Figure 3's platforms 1 and 2 for the UDP batcher — fail).
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
  for (const ReachSpec& spec : operator_policies_) {
    if (!holds(spec, /*via_module=*/false)) {
      return false;
    }
  }
  for (const ReachSpec& spec : client_specs) {
    if (!holds(spec, /*via_module=*/true)) {
      return false;
    }
  }
  return true;
}

void Controller::RecordDeployMetrics(DeployOutcome* outcome, uint64_t graph_nodes) const {
  constexpr uint64_t kNsPerEngineStep = 2000;  // 2 µs per symbolic-execution step
  constexpr uint64_t kNsPerGraphNode = 50000;  // 50 µs of model building per node
  outcome->sim_verify_ns =
      kNsPerEngineStep * outcome->engine_steps + kNsPerGraphNode * graph_nodes;
  auto& registry = obs::Registry();
  registry.GetCounter("innet_controller_requests_total",
                      {{"outcome", outcome->accepted ? "accepted" : "rejected"}})
      ->Increment();
  registry.GetCounter("innet_controller_engine_steps_total")->Increment(outcome->engine_steps);
  registry
      .GetHistogram("innet_controller_verify_latency_ms", {},
                    obs::ExponentialBuckets(0.25, 2.0, 16))
      ->Observe(static_cast<double>(outcome->sim_verify_ns) / 1e6);
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kVerifyFinish, "controller",
                            outcome->accepted ? "accepted" : "rejected: " + outcome->reason,
                            static_cast<int64_t>(outcome->sim_verify_ns));
  }
}

DeployOutcome Controller::Deploy(const ClientRequest& request,
                                 const std::vector<std::string>& candidate_platforms) {
  DeployOutcome outcome;
  uint64_t graph_nodes = 0;
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kVerifyStart, "controller", request.client_id);
  }

  // Parse the client's requirements once.
  std::optional<std::vector<ReachSpec>> client_specs =
      ParseRequirements(request, &outcome.reason);
  if (!client_specs) {
    RecordDeployMetrics(&outcome, graph_nodes);
    return outcome;
  }

  std::vector<const topology::Node*> platforms = network_.Platforms();
  if (!failed_platforms_.empty()) {
    platforms.erase(std::remove_if(platforms.begin(), platforms.end(),
                                   [this](const topology::Node* node) {
                                     return IsPlatformFailed(node->name);
                                   }),
                    platforms.end());
  }
  // Candidate restriction: the scheduler's policy-ranked list, or the
  // request's pinned platform, narrows the search and fixes its order. The
  // verification loop below is unchanged — the scheduler proposes, the
  // verifier disposes.
  std::vector<std::string> ordered = candidate_platforms;
  if (ordered.empty() && !request.pinned_platform.empty()) {
    ordered.push_back(request.pinned_platform);
  }
  if (!ordered.empty()) {
    std::vector<const topology::Node*> chosen;
    for (const std::string& name : ordered) {
      for (const topology::Node* node : platforms) {
        if (node->name == name) {
          chosen.push_back(node);
          break;
        }
      }
    }
    platforms = std::move(chosen);
  }
  if (platforms.empty()) {
    outcome.reason = "no processing platforms available";
    RecordDeployMetrics(&outcome, graph_nodes);
    return outcome;
  }

  // Geolocation-style placement: prefer platforms close (in hops) to the
  // traffic sources the client's requirements name — the mechanism behind
  // the CDN/DNS use cases (§8). Ties and requirement-free requests keep the
  // declaration order. A caller-ordered candidate list keeps its order.
  if (ordered.empty()) {
    policy::NodeResolver resolver = MakeResolver(nullptr);
    std::vector<std::string> anchors;
    for (const ReachSpec& spec : *client_specs) {
      for (const std::string& node : resolver(spec.from.spec)) {
        anchors.push_back(node);
      }
    }
    if (!anchors.empty()) {
      auto distance = [&](const topology::Node* platform) {
        int best = INT_MAX;
        for (const std::string& anchor : anchors) {
          int d = network_.HopDistance(anchor, platform->name);
          if (d >= 0 && d < best) {
            best = d;
          }
        }
        return best;
      };
      std::stable_sort(platforms.begin(), platforms.end(),
                       [&](const topology::Node* a, const topology::Node* b) {
                         return distance(a) < distance(b);
                       });
    }
  }

  std::string last_failure = "no platform satisfied the request";
  for (const topology::Node* platform : platforms) {
    std::optional<Ipv4Address> addr = NextAddress(*platform);
    if (!addr) {
      continue;  // pool exhausted
    }

    // "Compilation": the trial build (with its security verdict), then the
    // trial grafted into the verification graph.
    auto t_build = std::chrono::steady_clock::now();
    Deployment trial;
    std::string error;
    std::optional<SecurityReport> security =
        BuildTrial(request, request.client_id + "-m" + std::to_string(next_module_seq_),
                   platform->name, *addr, &trial, &error);
    if (!security) {
      outcome.reason = error;
      RecordDeployMetrics(&outcome, graph_nodes);
      return outcome;
    }
    outcome.security = *security;
    if (security->verdict == Verdict::kRejected) {
      // No graph work; the simulated latency still charges the nodes the
      // candidate's graph would have had.
      std::shared_ptr<const SymGraph> model = BuildModuleModel(trial.config, &error);
      graph_nodes += graph_.node_count() + (model != nullptr ? model->node_count() : 0);
      outcome.model_build_ms += MillisSince(t_build);
      last_failure = "security: " + security->Summary();
      continue;
    }
    std::shared_ptr<const SymGraph> model = GraftTrial(trial, &error);
    graph_nodes += graph_.node_count();
    outcome.model_build_ms += MillisSince(t_build);

    // Checking: operator policy, then client requirements, on this
    // candidate placement.
    auto t_check = std::chrono::steady_clock::now();
    std::string failure;
    bool ok = CheckRequirements(graph_, trial, *client_specs, &failure, &outcome.engine_steps);
    outcome.check_ms += MillisSince(t_check);
    if (!ok) {
      graph_.RollbackTrial();
      last_failure = "on " + platform->name + ": " + failure;
      continue;
    }

    trial.path_digest = symexec::ComputePathDigest(trial.config).Encode();
    outcome.accepted = true;
    outcome.module_id = trial.module_id;
    outcome.platform = trial.platform;
    outcome.module_addr = trial.addr;
    outcome.sandboxed = trial.sandboxed;
    outcome.reason = "deployed";
    Commit(std::move(trial), std::move(model));
    ++next_module_seq_;
    RecordDeployMetrics(&outcome, graph_nodes);
    return outcome;
  }

  outcome.reason = last_failure;
  RecordDeployMetrics(&outcome, graph_nodes);
  return outcome;
}

bool Controller::RestoreDeployment(const ClientRequest& request, const std::string& module_id,
                                   const std::string& platform, Ipv4Address addr, bool reverify,
                                   std::string* error) {
  std::string local_error;
  if (error == nullptr) {
    error = &local_error;
  }
  if (FindDeployment(module_id) != nullptr) {
    return true;  // already committed — recovery replayed an applied entry
  }
  if (network_.Find(platform) == nullptr) {
    *error = "unknown platform " + platform;
    return false;
  }

  Deployment trial;
  std::optional<SecurityReport> security =
      BuildTrial(request, module_id, platform, addr, &trial, error);
  if (!security) {
    return false;
  }
  if (security->verdict == Verdict::kRejected) {
    *error = "security: " + security->Summary();
    return false;
  }
  trial.path_digest = symexec::ComputePathDigest(trial.config).Encode();

  std::optional<std::vector<ReachSpec>> client_specs;
  if (reverify) {
    client_specs = ParseRequirements(request, error);
    if (!client_specs) {
      return false;
    }
  }
  std::shared_ptr<const SymGraph> model = GraftTrial(trial, error);
  if (reverify) {
    uint64_t steps = 0;
    std::string failure;
    if (!CheckRequirements(graph_, trial, *client_specs, &failure, &steps)) {
      graph_.RollbackTrial();
      *error = "on " + platform + ": " + failure;
      return false;
    }
  }
  Commit(std::move(trial), std::move(model));
  // Keep fresh module ids unique: skip the sequence number the restored id
  // embeds ("<client>-m<seq>") so post-recovery deploys cannot collide.
  size_t marker = module_id.rfind("-m");
  if (marker != std::string::npos) {
    uint64_t seq = 0;
    bool numeric = marker + 2 < module_id.size();
    for (size_t i = marker + 2; i < module_id.size(); ++i) {
      char c = module_id[i];
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<uint64_t>(c - '0');
    }
    if (numeric && seq >= next_module_seq_) {
      next_module_seq_ = seq + 1;
    }
  }
  return true;
}

const Deployment* Controller::FindDeployment(const std::string& module_id) const {
  for (const Deployment& dep : deployments_) {
    if (dep.module_id == module_id) {
      return &dep;
    }
  }
  return nullptr;
}

bool Controller::Kill(const std::string& module_id) {
  for (size_t i = 0; i < deployments_.size(); ++i) {
    if (deployments_[i].module_id == module_id) {
      deployments_.erase(deployments_.begin() + static_cast<ptrdiff_t>(i));
      committed_.erase(committed_.begin() + static_cast<ptrdiff_t>(i));
      RebuildGraph();
      return true;
    }
  }
  return false;
}

}  // namespace innet::controller
