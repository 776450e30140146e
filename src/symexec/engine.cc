#include "src/symexec/engine.h"

#include <deque>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace innet::symexec {

int SymGraph::AddNode(const std::string& name, std::shared_ptr<SymbolicModel> model) {
  int id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{name, std::move(model), {}});
  auto [it, inserted] = by_name_.try_emplace(name, id);
  if (!inserted) {
    if (in_trial() && it->second < trial_base_) {
      undo_.push_back({Undo::Kind::kName, it->second, 0, std::nullopt, nullptr});
    }
    it->second = id;
  }
  return id;
}

void SymGraph::Connect(int from, int out_port, int to, int in_port) {
  auto& edges = nodes_[static_cast<size_t>(from)].edges;
  if (in_trial() && from < trial_base_) {
    auto it = edges.find(out_port);
    std::optional<std::pair<int, int>> old;
    if (it != edges.end()) {
      old = it->second;
    }
    undo_.push_back({Undo::Kind::kEdge, from, out_port, old, nullptr});
  }
  edges[out_port] = {to, in_port};
}

void SymGraph::SetModel(int id, std::shared_ptr<SymbolicModel> model) {
  std::shared_ptr<SymbolicModel>& slot = nodes_[static_cast<size_t>(id)].model;
  if (in_trial() && id < trial_base_) {
    undo_.push_back({Undo::Kind::kModel, id, 0, std::nullopt, std::move(slot)});
  }
  slot = std::move(model);
}

void SymGraph::BeginTrial() {
  trial_base_ = static_cast<int>(nodes_.size());
  undo_.clear();
}

void SymGraph::KeepTrial() {
  trial_base_ = -1;
  undo_.clear();
}

void SymGraph::RollbackTrial() {
  if (!in_trial()) {
    return;
  }
  for (size_t id = nodes_.size(); id-- > static_cast<size_t>(trial_base_);) {
    auto it = by_name_.find(nodes_[id].name);
    if (it != by_name_.end() && it->second >= trial_base_) {
      by_name_.erase(it);
    }
  }
  nodes_.resize(static_cast<size_t>(trial_base_));
  for (auto undo = undo_.rbegin(); undo != undo_.rend(); ++undo) {
    Node& node = nodes_[static_cast<size_t>(undo->node)];
    switch (undo->kind) {
      case Undo::Kind::kEdge:
        if (undo->edge) {
          node.edges[undo->out_port] = *undo->edge;
        } else {
          node.edges.erase(undo->out_port);
        }
        break;
      case Undo::Kind::kModel:
        node.model = std::move(undo->model);
        break;
      case Undo::Kind::kName:
        by_name_[node.name] = undo->node;
        break;
    }
  }
  KeepTrial();
}

bool SymGraph::ConnectByName(const std::string& from, int out_port, const std::string& to,
                             int in_port) {
  int f = FindNode(from);
  int t = FindNode(to);
  if (f < 0 || t < 0) {
    return false;
  }
  Connect(f, out_port, t, in_port);
  return true;
}

int SymGraph::FindNode(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

int SymGraph::Merge(const SymGraph& other, const std::string& prefix) {
  int offset = static_cast<int>(nodes_.size());
  for (const Node& node : other.nodes_) {
    AddNode(prefix + "/" + node.name, node.model);
  }
  for (size_t i = 0; i < other.nodes_.size(); ++i) {
    for (const auto& [out_port, target] : other.nodes_[i].edges) {
      Connect(offset + static_cast<int>(i), out_port, offset + target.first, target.second);
    }
  }
  return offset;
}

EngineResult Engine::Run(const SymGraph& graph, int start, int in_port, SymbolicPacket seed) {
  EngineResult result;
  if (start < 0 || static_cast<size_t>(start) >= graph.nodes_.size()) {
    return result;
  }

  struct WorkItem {
    int node;
    int in_port;
    SymbolicPacket packet;
  };
  std::deque<WorkItem> work;
  work.push_back({start, in_port, std::move(seed)});
  ModelContext ctx{&vars_};

  size_t paths = 0;
  while (!work.empty()) {
    WorkItem item = std::move(work.front());
    work.pop_front();
    if (item.packet.hop_count() >= options_.max_hops) {
      result.truncated = true;
      continue;
    }
    if (++paths > static_cast<size_t>(options_.max_paths)) {
      result.truncated = true;
      break;
    }

    const SymGraph::Node& node = graph.nodes_[static_cast<size_t>(item.node)];
    std::vector<Transition> transitions = node.model->Apply(&ctx, item.packet, item.in_port);
    ++result.steps;

    if (transitions.empty()) {
      item.packet.RecordHop(node.name, 0);
      result.dropped.push_back(std::move(item.packet));
      continue;
    }
    for (Transition& t : transitions) {
      if (!t.packet.feasible()) {
        continue;
      }
      t.packet.RecordHop(node.name, t.out_port);
      if (t.out_port == kPortDeliver) {
        t.packet.set_delivered_at(node.name);
        result.delivered.push_back(std::move(t.packet));
        continue;
      }
      auto edge = node.edges.find(t.out_port);
      if (edge == node.edges.end()) {
        result.dropped.push_back(std::move(t.packet));
        continue;
      }
      work.push_back({edge->second.first, edge->second.second, std::move(t.packet)});
    }
  }

  auto& registry = obs::Registry();
  registry.GetCounter("innet_symexec_runs_total")->Increment();
  registry.GetCounter("innet_symexec_steps_total")->Increment(result.steps);
  if (result.truncated) {
    registry.GetCounter("innet_symexec_truncated_total")->Increment();
  }
  size_t explored = result.delivered.size() + result.dropped.size();
  registry
      .GetHistogram("innet_symexec_paths_explored", {}, obs::ExponentialBuckets(1.0, 4.0, 10))
      ->Observe(static_cast<double>(explored));
  if (obs::Tracer().enabled()) {
    obs::Tracer().RecordNow(obs::EventKind::kSymexecRun,
                            "node:" + graph.NodeName(start),
                            "steps=" + std::to_string(result.steps) +
                                (result.truncated ? " truncated" : ""),
                            static_cast<int64_t>(explored));
  }
  return result;
}

}  // namespace innet::symexec
