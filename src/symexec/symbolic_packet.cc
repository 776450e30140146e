#include "src/symexec/symbolic_packet.h"

#include <algorithm>
#include <sstream>

namespace innet::symexec {
namespace {

// Orders the sorted constraint store's entries for binary search by var.
bool VarBefore(const std::pair<VarId, ValueSet>& entry, VarId var) { return entry.first < var; }

}  // namespace

SymbolicPacket SymbolicPacket::MakeUnconstrained(VarAllocator* vars) {
  SymbolicPacket packet;
  for (int i = 0; i < kNumHeaderFields; ++i) {
    VarId var = vars->Alloc();
    packet.fields_[static_cast<size_t>(i)].value = SymbolicValue::Var(var);
    packet.ingress_vars_[static_cast<size_t>(i)] = var;
  }
  return packet;
}

void SymbolicPacket::SetConst(HeaderField f, uint64_t v) {
  fields_[Index(f)].value = SymbolicValue::Const(v);
  fields_[Index(f)].last_def_hop = hop_count();
}

void SymbolicPacket::SetFresh(HeaderField f, VarAllocator* vars) {
  fields_[Index(f)].value = SymbolicValue::Var(vars->Alloc());
  fields_[Index(f)].last_def_hop = hop_count();
}

void SymbolicPacket::SetValue(HeaderField f, const SymbolicValue& v) {
  fields_[Index(f)].value = v;
  fields_[Index(f)].last_def_hop = hop_count();
}

const ValueSet* SymbolicPacket::FindConstraint(VarId var) const {
  if (!constraints_) {
    return nullptr;
  }
  auto it = std::lower_bound(constraints_->begin(), constraints_->end(), var, VarBefore);
  return it != constraints_->end() && it->first == var ? &it->second : nullptr;
}

bool SymbolicPacket::Constrain(HeaderField f, const ValueSet& allowed) {
  const SymbolicValue& value = fields_[Index(f)].value;
  if (value.is_const) {
    if (!allowed.Contains(value.const_value)) {
      feasible_ = false;
    }
    return feasible_;
  }
  const ValueSet* current = FindConstraint(value.var);
  ValueSet narrowed = current == nullptr ? allowed : current->Intersect(allowed);
  if (narrowed.IsEmpty()) {
    feasible_ = false;
    return false;
  }
  if (current == nullptr ? narrowed.IsFull() : narrowed == *current) {
    return true;  // nothing narrowed: leave the (possibly shared) store alone
  }
  // Copy-on-write: a store another packet still shares is cloned first.
  if (!constraints_) {
    constraints_ = std::make_shared<ConstraintStore>();
  } else if (constraints_.use_count() > 1) {
    constraints_ = std::make_shared<ConstraintStore>(*constraints_);
  }
  auto it = std::lower_bound(constraints_->begin(), constraints_->end(), value.var, VarBefore);
  if (it != constraints_->end() && it->first == value.var) {
    it->second = std::move(narrowed);
  } else {
    constraints_->emplace(it, value.var, std::move(narrowed));
  }
  return true;
}

ValueSet SymbolicPacket::PossibleValuesOf(const SymbolicValue& v) const {
  if (v.is_const) {
    return ValueSet::Single(v.const_value);
  }
  const ValueSet* set = FindConstraint(v.var);
  return set == nullptr ? ValueSet::Full() : *set;
}

ValueSet SymbolicPacket::PossibleValues(HeaderField f) const {
  return PossibleValuesOf(fields_[Index(f)].value);
}

namespace {

ValueSet PortPredSet(const PortPredicate& pred) {
  return ValueSet::Range(pred.lo, pred.hi);
}

}  // namespace

std::vector<SymbolicPacket> SymbolicPacket::ConstrainToFlowSpec(const FlowSpec& spec,
                                                                VarAllocator* /*vars*/) const {
  // Start with one branch; direction-ambiguous predicates fork it.
  std::vector<SymbolicPacket> branches{*this};
  auto constrain_all = [&branches](HeaderField f, const ValueSet& set) {
    size_t kept = 0;
    for (size_t i = 0; i < branches.size(); ++i) {
      if (!branches[i].Constrain(f, set)) {
        continue;
      }
      if (kept != i) {
        branches[kept] = std::move(branches[i]);
      }
      ++kept;
    }
    branches.resize(kept);
  };
  auto fork_either = [&branches](HeaderField a, HeaderField b, const ValueSet& set) {
    std::vector<SymbolicPacket> next;
    for (SymbolicPacket& branch : branches) {
      SymbolicPacket left = branch;
      if (left.Constrain(a, set)) {
        next.push_back(std::move(left));
      }
      SymbolicPacket right = std::move(branch);
      if (right.Constrain(b, set)) {
        next.push_back(std::move(right));
      }
    }
    branches = std::move(next);
  };

  if (spec.proto()) {
    constrain_all(HeaderField::kProto, ValueSet::Single(*spec.proto()));
  }
  if (spec.ttl()) {
    constrain_all(HeaderField::kTtl, ValueSet::Single(*spec.ttl()));
  }
  for (const AddrPredicate& pred : spec.addr_predicates()) {
    ValueSet set = ValueSet::FromPrefix(pred.prefix);
    if (pred.dir == Direction::kSrc) {
      constrain_all(HeaderField::kIpSrc, set);
    } else if (pred.dir == Direction::kDst) {
      constrain_all(HeaderField::kIpDst, set);
    } else {
      fork_either(HeaderField::kIpSrc, HeaderField::kIpDst, set);
    }
  }
  for (const PortPredicate& pred : spec.port_predicates()) {
    ValueSet set = PortPredSet(pred);
    if (pred.dir == Direction::kSrc) {
      constrain_all(HeaderField::kSrcPort, set);
    } else if (pred.dir == Direction::kDst) {
      constrain_all(HeaderField::kDstPort, set);
    } else {
      fork_either(HeaderField::kSrcPort, HeaderField::kDstPort, set);
    }
  }
  return branches;
}

bool SymbolicPacket::CanMatchFlowSpec(const FlowSpec& spec, int hop_index) const {
  auto field_at = [this, hop_index](HeaderField f) -> const FieldState& {
    if (hop_index < 0) {
      return field(f);
    }
    return FieldAtHop(f, hop_index);
  };
  auto maybe = [this, &field_at](HeaderField f, const ValueSet& set) {
    return !PossibleValuesOf(field_at(f).value).Intersect(set).IsEmpty();
  };

  if (spec.proto() && !maybe(HeaderField::kProto, ValueSet::Single(*spec.proto()))) {
    return false;
  }
  if (spec.ttl() && !maybe(HeaderField::kTtl, ValueSet::Single(*spec.ttl()))) {
    return false;
  }
  for (const AddrPredicate& pred : spec.addr_predicates()) {
    ValueSet set = ValueSet::FromPrefix(pred.prefix);
    bool src_ok = maybe(HeaderField::kIpSrc, set);
    bool dst_ok = maybe(HeaderField::kIpDst, set);
    bool ok = pred.dir == Direction::kSrc   ? src_ok
              : pred.dir == Direction::kDst ? dst_ok
                                            : (src_ok || dst_ok);
    if (!ok) {
      return false;
    }
  }
  for (const PortPredicate& pred : spec.port_predicates()) {
    ValueSet set = PortPredSet(pred);
    bool src_ok = maybe(HeaderField::kSrcPort, set);
    bool dst_ok = maybe(HeaderField::kDstPort, set);
    bool ok = pred.dir == Direction::kSrc   ? src_ok
              : pred.dir == Direction::kDst ? dst_ok
                                            : (src_ok || dst_ok);
    if (!ok) {
      return false;
    }
  }
  return true;
}

SymbolicPacket::HopNode::~HopNode() {
  // Unlink the part of the chain only this node owns one hop at a time, so
  // dropping a long history never recurses once per hop.
  std::shared_ptr<HopNode> next = std::move(parent);
  while (next && next.use_count() == 1) {
    next = std::move(next->parent);
  }
}

void SymbolicPacket::RecordHop(const std::string& node, int out_port) {
  auto hop = std::make_shared<HopNode>();
  hop->hop.node = node;
  hop->hop.out_port = out_port;
  hop->hop.fields = fields_;
  hop->depth = hop_count() + 1;
  hop->parent = std::move(tail_);
  tail_ = std::move(hop);
}

HopHistory SymbolicPacket::history() const {
  static const std::vector<const Hop*> kNone;
  if (!tail_) {
    return HopHistory(kNone);
  }
  std::vector<const Hop*>& flat = tail_->flat;
  if (flat.empty()) {
    flat.resize(static_cast<size_t>(tail_->depth));
    const HopNode* at = tail_.get();
    for (size_t i = flat.size(); i > 0; --i, at = at->parent.get()) {
      flat[i - 1] = &at->hop;
    }
  }
  return HopHistory(flat);
}

int SymbolicPacket::FindHop(const std::string& name, int from) const {
  HopHistory hops = history();
  for (size_t i = static_cast<size_t>(from); i < hops.size(); ++i) {
    if (hops[i].node == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool SymbolicPacket::FieldInvariantBetween(HeaderField f, int from_hop, int to_hop) const {
  if (from_hop < 0 || to_hop < from_hop || to_hop >= hop_count()) {
    return false;
  }
  // The field is invariant iff its last definition as of `to_hop` happened at
  // or before `from_hop` — i.e., no node in between rewrote it.
  return FieldAtHop(f, to_hop).last_def_hop <= from_hop;
}

std::string SymbolicPacket::Describe() const {
  std::ostringstream out;
  static constexpr HeaderField kAll[] = {
      HeaderField::kIpSrc,   HeaderField::kIpDst,       HeaderField::kProto,
      HeaderField::kTtl,     HeaderField::kSrcPort,     HeaderField::kDstPort,
      HeaderField::kPayload, HeaderField::kFirewallTag, HeaderField::kPaint};
  for (HeaderField f : kAll) {
    const SymbolicValue& v = value(f);
    out << HeaderFieldName(f) << "=";
    if (v.is_const) {
      out << v.const_value;
    } else {
      out << "v" << v.var;
      ValueSet set = PossibleValuesOf(v);
      if (!(set == ValueSet::Full())) {
        out << set.ToString();
      }
    }
    out << " ";
  }
  if (!feasible_) {
    out << "(infeasible)";
  }
  return out.str();
}

}  // namespace innet::symexec
