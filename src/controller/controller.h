// The In-Net controller (§4.3): receives client requests, statically
// verifies them against a snapshot of the operator network (security rules,
// operator policy, the client's own requirements), picks a platform, and
// records the deployment.
#ifndef SRC_CONTROLLER_CONTROLLER_H_
#define SRC_CONTROLLER_CONTROLLER_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/click/config_parser.h"
#include "src/controller/security.h"
#include "src/policy/reach_checker.h"
#include "src/policy/reach_spec.h"
#include "src/topology/network.h"

namespace innet::controller {

struct ClientRequest {
  std::string client_id;
  RequesterClass requester = RequesterClass::kThirdParty;
  // Click configuration text (may contain $SELF); see also stock_modules.h.
  std::string click_config;
  // Reach statements, one or more, as in Figure 4.
  std::string requirements;
  // Destinations this client explicitly authorizes (addresses it owns).
  std::vector<Ipv4Address> whitelist;
  // Prefixes the client registered as its own source addresses.
  std::vector<Ipv4Prefix> owned_prefixes;
  // When non-empty, placement is restricted to exactly this platform. The
  // full verification pipeline still runs against it; the scheduler's
  // policy ranking is skipped.
  std::string pinned_platform;
};

struct Deployment {
  std::string module_id;
  std::string client_id;
  std::string platform;
  Ipv4Address addr;
  bool sandboxed = false;
  click::ConfigGraph config;
  std::string config_text;
  // Firewall pinholes installed with this deployment: inbound flows to the
  // client's registered addresses (explicit authorization, §2.1).
  std::vector<FlowSpec> pinholes;
  // Encoded verify-time path digest (symexec/path_digest.h): the hash sets of
  // every symbolically explored path through this config. Journaled and
  // carried through migration so the INT collector can attest sampled
  // packets against it at runtime.
  std::string path_digest;
};

struct DeployOutcome {
  bool accepted = false;
  std::string module_id;
  std::string platform;
  Ipv4Address module_addr;
  bool sandboxed = false;
  std::string reason;  // why rejected, or which check failed last
  SecurityReport security;
  // Timing split, mirroring Figure 10's compilation-vs-checking breakdown:
  // model_build_ms is the trial build (parse, egress pinholes, security
  // verdict) plus the verification graph, check_ms the operator-policy and
  // client-requirement checks. Wall-clock: goes to bench JSON, never into
  // the metrics registry.
  double model_build_ms = 0;
  double check_ms = 0;
  uint64_t engine_steps = 0;
  // Simulated verification latency derived from the deterministic work
  // measures above (2 µs per engine step, 50 µs of model building per node
  // of each candidate verification graph) — this is what the registry's
  // innet_controller_verify_latency_ms histogram observes, keeping metric
  // dumps byte-identical across runs of the same (config, seed).
  uint64_t sim_verify_ns = 0;
};

class Controller {
 public:
  explicit Controller(topology::Network network);

  // Registers an operator policy statement that must hold after every
  // deployment. Returns false on parse errors.
  bool AddOperatorPolicy(const std::string& reach_statement, std::string* error = nullptr);

  // Processes a deployment request: tries the platforms in order and returns
  // the first placement satisfying security + operator policy + client
  // requirements. A non-empty `candidate_platforms` (the scheduler's
  // policy-ranked output) restricts the search and fixes its order; unknown
  // or failed names are skipped. An empty list tries every platform, nearest
  // to the requirements' traffic sources first.
  DeployOutcome Deploy(const ClientRequest& request,
                       const std::vector<std::string>& candidate_platforms = {});

  // Stops a deployed module. Returns false for unknown ids.
  bool Kill(const std::string& module_id);

  // Crash recovery: re-admits a deployment the journal says was already
  // verified and placed, keeping its original module id and address so the
  // controller's belief matches what is actually running on the fleet.
  // Idempotent — if the module id is already committed this is a no-op
  // success. Security checks (and pinhole derivation) always rerun, since
  // they are cheap and decide sandboxing; the full symbolic re-verification
  // only runs with `reverify` (used when the journal state is ambiguous).
  bool RestoreDeployment(const ClientRequest& request, const std::string& module_id,
                         const std::string& platform, Ipv4Address addr, bool reverify,
                         std::string* error);

  // Platform availability. A failed platform is skipped by Deploy until
  // restored — the orchestrator marks a node failed before re-placing its
  // stranded tenants, so failover verification never lands them back on the
  // dead box.
  void MarkPlatformFailed(const std::string& name) { failed_platforms_.insert(name); }
  void RestorePlatform(const std::string& name) { failed_platforms_.erase(name); }
  bool IsPlatformFailed(const std::string& name) const {
    return failed_platforms_.count(name) != 0;
  }

  const std::vector<Deployment>& deployments() const { return deployments_; }
  // The committed deployment with `module_id`, or nullptr.
  const Deployment* FindDeployment(const std::string& module_id) const;
  // The operator network with the committed deployments' attachments and
  // firewall pinholes; a trial placement never shows here.
  const topology::Network& network() const { return network_; }

  // A copy of the verification graph: the network plus every committed
  // deployment, and `trial` grafted last when given (*error is set when its
  // configuration has no symbolic model). Equal, node for node, to building
  // it from scratch. Exposed for tests and the stage replay.
  symexec::SymGraph BuildVerificationGraph(const Deployment* trial, std::string* error);

  // Resolves reach-language node specs against the current graph; `trial`
  // names the module whose elements "module:element" refs resolve into. The
  // resolver reads the controller's committed deployments and `*trial` as
  // they are when it runs: use it before the next Deploy, RestoreDeployment
  // or Kill, and while `*trial` lives.
  policy::NodeResolver MakeResolver(const Deployment* trial) const;

 private:
  // What the verification graph and the resolver keep per committed
  // deployment, in deployments_ order, computed once at commit.
  struct CommittedModule {
    std::string id;
    Ipv4Address addr;
    // "<module id>/<element>" for every element: the graph nodes an address
    // waypoint naming this module matches.
    std::vector<std::string> nodes;
    // The embedded symbolic model; nullptr when the configuration has none
    // (the module is still attached to its platform, with no nodes).
    std::shared_ptr<const symexec::SymGraph> model;
  };

  std::optional<Ipv4Address> NextAddress(const topology::Node& platform) const;
  // The embedded symbolic model of `config`, or nullptr with *error set.
  static std::shared_ptr<const symexec::SymGraph> BuildModuleModel(
      const click::ConfigGraph& config, std::string* error);
  // Re-forms graph_ from network_ and the cached models of committed_.
  void RebuildGraph();
  // Merges `model` into graph_ under `dep`'s module id and wires it to its
  // platform's port (the port of the first attachment on that platform with
  // dep.addr, or the next free port when `dep` is not attached yet).
  void WireModule(const Deployment& dep, const symexec::SymGraph& model);
  // Grafts `trial` into graph_ inside a graph trial: its nodes, a platform
  // model with its port last, the firewalls with its pinholes last, and its
  // port's edges. The caller ends the trial (Commit, or RollbackTrial).
  // Returns the trial's model (nullptr with *error set when it has none).
  std::shared_ptr<const symexec::SymGraph> GraftTrial(const Deployment& trial,
                                                      std::string* error);
  // Keeps the grafted `trial` and records it as committed.
  void Commit(Deployment trial, std::shared_ptr<const symexec::SymGraph> model);
  // The trial build shared by Deploy and RestoreDeployment: $SELF
  // substitution, parse, the Deployment record, the egress pinholes the
  // client's whitelist authorizes, and the security verdict (which also
  // decides trial->sandboxed). Returns nullopt with *error set when the
  // configuration does not parse.
  std::optional<SecurityReport> BuildTrial(const ClientRequest& request,
                                           const std::string& module_id,
                                           const std::string& platform, Ipv4Address addr,
                                           Deployment* trial, std::string* error) const;
  // The request's reach statements, or nullopt with *error set.
  static std::optional<std::vector<policy::ReachSpec>> ParseRequirements(
      const ClientRequest& request, std::string* error);
  // Operator policies, then the client's requirements (each of which must
  // pass through the trial module), on `graph`. Adds the engine steps spent
  // to *steps; on failure *failure names the first unsatisfied statement.
  bool CheckRequirements(const symexec::SymGraph& graph, const Deployment& trial,
                         const std::vector<policy::ReachSpec>& client_specs,
                         std::string* failure, uint64_t* steps) const;
  // Stamps sim_verify_ns, bumps the registry's request/latency/step
  // instruments, and emits the verify-finish trace event. Called on every
  // Deploy exit path.
  void RecordDeployMetrics(DeployOutcome* outcome, uint64_t graph_nodes) const;

  // Committed state only: the attachments and pinholes of deployments_.
  topology::Network network_;
  std::vector<Deployment> deployments_;
  std::vector<CommittedModule> committed_;  // parallel to deployments_
  // The network plus every committed module, equal node for node to a
  // from-scratch build; a candidate is grafted in and rolled back.
  symexec::SymGraph graph_;
  std::vector<policy::ReachSpec> operator_policies_;
  std::unordered_set<std::string> failed_platforms_;
  uint64_t next_module_seq_ = 1;
};

}  // namespace innet::controller

#endif  // SRC_CONTROLLER_CONTROLLER_H_
