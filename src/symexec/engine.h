// SymGraph + Engine: path exploration over a graph of symbolic models.
#ifndef SRC_SYMEXEC_ENGINE_H_
#define SRC_SYMEXEC_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/symexec/model.h"

namespace innet::symexec {

// A directed graph of symbolic nodes. Node out-ports connect to (node,
// in-port) pairs; unconnected out-ports drop.
class SymGraph {
 public:
  int AddNode(const std::string& name, std::shared_ptr<SymbolicModel> model);
  void Connect(int from, int out_port, int to, int in_port);
  bool ConnectByName(const std::string& from, int out_port, const std::string& to, int in_port);

  int FindNode(const std::string& name) const;  // -1 if absent
  const std::string& NodeName(int id) const { return nodes_[static_cast<size_t>(id)].name; }
  size_t node_count() const { return nodes_.size(); }

  // Out-port -> (node id, in-port) edges of node `id`.
  const std::unordered_map<int, std::pair<int, int>>& Edges(int id) const {
    return nodes_[static_cast<size_t>(id)].edges;
  }

  // Merges `other` into this graph, prefixing its node names with
  // `prefix` + "/". Returns the id offset of the merged nodes. Used by the
  // controller to graft a client module onto the operator topology.
  int Merge(const SymGraph& other, const std::string& prefix);

  // Replaces node `id`'s model; its name and edges stay.
  void SetModel(int id, std::shared_ptr<SymbolicModel> model);

  // Trial changes. Between BeginTrial() and RollbackTrial(), every AddNode,
  // Merge, Connect and SetModel is undone by RollbackTrial(), which leaves
  // the graph node for node as it was at BeginTrial() (names, edges, ports
  // and models); KeepTrial() keeps the changes instead. Outside a trial
  // both do nothing. The controller grafts each candidate module this way.
  // Trials do not nest.
  void BeginTrial();
  void RollbackTrial();
  void KeepTrial();

 private:
  friend class Engine;
  struct Node {
    std::string name;
    std::shared_ptr<SymbolicModel> model;
    // out_port -> (node id, in_port)
    std::unordered_map<int, std::pair<int, int>> edges;
  };
  // What RollbackTrial() restores on a node that predates the trial: the
  // edge on `out_port` (absent when `edge` is nullopt), the model when
  // `model` is set, or the node a name pointed to before a trial node
  // shadowed it.
  struct Undo {
    enum class Kind { kEdge, kModel, kName } kind;
    int node;
    int out_port;
    std::optional<std::pair<int, int>> edge;
    std::shared_ptr<SymbolicModel> model;
  };
  bool in_trial() const { return trial_base_ >= 0; }

  std::vector<Node> nodes_;
  std::unordered_map<std::string, int> by_name_;
  int trial_base_ = -1;  // node count at BeginTrial(), -1 outside a trial
  std::vector<Undo> undo_;
};

struct EngineOptions {
  int max_hops = 256;
  int max_paths = 65536;
};

struct EngineResult {
  // Packets that reached a delivery point (SinkModel / kPortDeliver).
  std::vector<SymbolicPacket> delivered;
  // Packets dropped inside the graph (model returned no transitions) or that
  // fell off an unconnected port; kept for diagnostics.
  std::vector<SymbolicPacket> dropped;
  // True when exploration hit max_hops or max_paths (result incomplete).
  bool truncated = false;
  // Total model applications — the work metric Figure 10 reports.
  uint64_t steps = 0;
};

class Engine {
 public:
  explicit Engine(const EngineOptions& options = {}) : options_(options) {}

  // Injects `seed` at node `start` (arriving on `in_port`) and explores all
  // paths. The seed's constraints (from a flow spec) carry through.
  EngineResult Run(const SymGraph& graph, int start, int in_port, SymbolicPacket seed);

  VarAllocator* vars() { return &vars_; }

 private:
  EngineOptions options_;
  VarAllocator vars_;
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_ENGINE_H_
