// Property-based and differential tests, parameterized over random seeds
// (TEST_P sweeps). The headline property: the symbolic models are a *sound
// over-approximation* of the runtime Click engine — whenever a concrete
// packet traverses a configuration, some feasible symbolic path admits it.
// This is the property the whole In-Net security story rests on: if the
// checker says "no flow can do X", no runtime packet may do X.
#include <gtest/gtest.h>
#include <pthread.h>

#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/netcore/flowspec.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/symexec/click_models.h"
#include "src/symexec/engine.h"
#include "src/symexec/symbolic_packet.h"
#include "src/symexec/value_set.h"
#include "src/transport/reno_flow.h"

namespace innet {
namespace {

using symexec::ValueSet;

// --- ValueSet algebra ---------------------------------------------------------------

class ValueSetAlgebra : public ::testing::TestWithParam<uint64_t> {
 protected:
  ValueSet RandomSet(sim::Rng* rng) {
    ValueSet set;
    int pieces = 1 + static_cast<int>(rng->NextBelow(4));
    for (int i = 0; i < pieces; ++i) {
      uint64_t lo = rng->NextBelow(1000);
      uint64_t hi = lo + rng->NextBelow(200);
      set = set.Union(ValueSet::Range(lo, hi));
    }
    return set;
  }
};

TEST_P(ValueSetAlgebra, IntersectIsSubsetOfBoth) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    ValueSet both = a.Intersect(b);
    EXPECT_TRUE(both.Subtract(a).IsEmpty());
    EXPECT_TRUE(both.Subtract(b).IsEmpty());
  }
}

TEST_P(ValueSetAlgebra, SubtractPlusIntersectReassembles) {
  sim::Rng rng(GetParam() ^ 0x5555);
  for (int round = 0; round < 50; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    // (A \ B) ∪ (A ∩ B) == A
    ValueSet reassembled = a.Subtract(b).Union(a.Intersect(b));
    EXPECT_EQ(reassembled, a) << "A=" << a.ToString() << " B=" << b.ToString();
  }
}

TEST_P(ValueSetAlgebra, CountIsAdditiveUnderSplit) {
  sim::Rng rng(GetParam() ^ 0xAAAA);
  for (int round = 0; round < 50; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    EXPECT_EQ(a.Subtract(b).Count() + a.Intersect(b).Count(), a.Count());
  }
}

TEST_P(ValueSetAlgebra, MembershipConsistency) {
  sim::Rng rng(GetParam() ^ 0x1234);
  for (int round = 0; round < 20; ++round) {
    ValueSet a = RandomSet(&rng);
    ValueSet b = RandomSet(&rng);
    for (int probe = 0; probe < 50; ++probe) {
      uint64_t v = rng.NextBelow(1400);
      EXPECT_EQ(a.Intersect(b).Contains(v), a.Contains(v) && b.Contains(v));
      EXPECT_EQ(a.Union(b).Contains(v), a.Contains(v) || b.Contains(v));
      EXPECT_EQ(a.Subtract(b).Contains(v), a.Contains(v) && !b.Contains(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueSetAlgebra, ::testing::Values(1, 2, 3, 4, 5));

// --- FlowSpec round trips --------------------------------------------------------------

class FlowSpecRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowSpecRoundTrip, ParseToStringParseAgreesOnRandomPackets) {
  sim::Rng rng(GetParam());
  const char* protos[] = {"", "tcp ", "udp ", "icmp "};
  for (int round = 0; round < 40; ++round) {
    std::ostringstream spec_text;
    spec_text << protos[rng.NextBelow(4)];
    if (rng.Bernoulli(0.5)) {
      spec_text << (rng.Bernoulli(0.5) ? "src " : "dst ") << "net 10."
                << rng.NextBelow(256) << ".0.0/16 ";
    }
    if (rng.Bernoulli(0.5)) {
      spec_text << (rng.Bernoulli(0.5) ? "src " : "dst ") << "port "
                << (1 + rng.NextBelow(65535)) << " ";
    }
    auto spec = FlowSpec::Parse(spec_text.str());
    ASSERT_TRUE(spec.has_value()) << spec_text.str();
    auto again = FlowSpec::Parse(spec->ToString());
    ASSERT_TRUE(again.has_value()) << spec->ToString();

    for (int probe = 0; probe < 25; ++probe) {
      Ipv4Address src(static_cast<uint32_t>(rng.Next()));
      Ipv4Address dst(static_cast<uint32_t>(rng.Next()));
      uint16_t sport = static_cast<uint16_t>(rng.NextBelow(65536));
      uint16_t dport = static_cast<uint16_t>(rng.NextBelow(65536));
      Packet p = rng.Bernoulli(0.5) ? Packet::MakeUdp(src, dst, sport, dport)
                                    : Packet::MakeTcp(src, dst, sport, dport, 0);
      EXPECT_EQ(spec->Matches(p), again->Matches(p))
          << spec->ToString() << " vs " << again->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSpecRoundTrip, ::testing::Values(11, 22, 33));

// --- Packet checksum invariant -----------------------------------------------------------

class PacketChecksum : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PacketChecksum, MutatorsPreserveValidChecksumsAfterRefresh) {
  sim::Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    Packet p = Packet::MakeUdp(Ipv4Address(static_cast<uint32_t>(rng.Next())),
                               Ipv4Address(static_cast<uint32_t>(rng.Next())),
                               static_cast<uint16_t>(rng.NextBelow(65536)),
                               static_cast<uint16_t>(rng.NextBelow(65536)),
                               rng.NextBelow(1200));
    for (int mutation = 0; mutation < 4; ++mutation) {
      switch (rng.NextBelow(5)) {
        case 0:
          p.set_ip_src(Ipv4Address(static_cast<uint32_t>(rng.Next())));
          break;
        case 1:
          p.set_ip_dst(Ipv4Address(static_cast<uint32_t>(rng.Next())));
          break;
        case 2:
          p.set_src_port(static_cast<uint16_t>(rng.NextBelow(65536)));
          break;
        case 3:
          p.set_dst_port(static_cast<uint16_t>(rng.NextBelow(65536)));
          break;
        case 4:
          p.set_ttl(static_cast<uint8_t>(1 + rng.NextBelow(255)));
          break;
      }
    }
    p.RefreshChecksums();
    EXPECT_TRUE(p.VerifyIpChecksum());
    // And the wire bytes agree with the annotations.
    Packet reparsed = Packet::FromWire(p.data(), p.length());
    ASSERT_GT(reparsed.length(), 0u);
    EXPECT_EQ(reparsed.ip_src(), p.ip_src());
    EXPECT_EQ(reparsed.ip_dst(), p.ip_dst());
    EXPECT_EQ(reparsed.src_port(), p.src_port());
    EXPECT_EQ(reparsed.dst_port(), p.dst_port());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketChecksum, ::testing::Values(7, 8, 9));

// --- Differential: runtime Click engine vs symbolic models --------------------------------

class SymbolicSoundness : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Generates a random linear configuration out of deterministic elements.
  std::string RandomConfig(sim::Rng* rng) {
    std::ostringstream config;
    config << "src :: FromNetfront(); sink :: ToNetfront();\nsrc";
    int stages = 1 + static_cast<int>(rng->NextBelow(4));
    for (int i = 0; i < stages; ++i) {
      switch (rng->NextBelow(5)) {
        case 0:
          config << " -> IPFilter(allow " << (rng->Bernoulli(0.5) ? "udp" : "tcp")
                 << " dst port " << (1 + rng->NextBelow(2000)) << ", allow src net 10."
                 << rng->NextBelow(200) << ".0.0/16)";
          break;
        case 1:
          config << " -> IPRewriter(pattern - - 172.16." << rng->NextBelow(200) << "."
                 << (1 + rng->NextBelow(200)) << " - 0 0)";
          break;
        case 2:
          config << " -> SetIPSrc(192.168." << rng->NextBelow(200) << "."
                 << (1 + rng->NextBelow(200)) << ")";
          break;
        case 3:
          config << " -> Counter()";
          break;
        case 4:
          config << " -> IPFilter(deny src net 10." << rng->NextBelow(200)
                 << ".0.0/16, allow all)";
          break;
      }
    }
    config << " -> sink;";
    return config.str();
  }

  Packet RandomPacket(sim::Rng* rng) {
    Ipv4Address src(Ipv4Address::MustParse("10.0.0.0").value() +
                    static_cast<uint32_t>(rng->NextBelow(1u << 24)));
    Ipv4Address dst(Ipv4Address::MustParse("172.16.0.0").value() +
                    static_cast<uint32_t>(rng->NextBelow(1u << 16)));
    uint16_t sport = static_cast<uint16_t>(1 + rng->NextBelow(65000));
    uint16_t dport = static_cast<uint16_t>(1 + rng->NextBelow(2500));
    return rng->Bernoulli(0.5) ? Packet::MakeUdp(src, dst, sport, dport, 16)
                               : Packet::MakeTcp(src, dst, sport, dport, 0, 16);
  }
};

TEST_P(SymbolicSoundness, RuntimeDeliveryImpliesFeasibleSymbolicPath) {
  sim::Rng rng(GetParam());
  int delivered_cases = 0;
  for (int round = 0; round < 60; ++round) {
    std::string config_text = RandomConfig(&rng);
    std::string error;
    auto config = click::ConfigGraph::Parse(config_text, &error);
    ASSERT_TRUE(config.has_value()) << config_text << "\n" << error;
    auto graph = click::Graph::Build(*config, &error);
    ASSERT_NE(graph, nullptr) << config_text << "\n" << error;
    auto model = symexec::BuildClickModel(*config, &error);
    ASSERT_TRUE(model.has_value()) << config_text << "\n" << error;

    symexec::Engine engine;
    symexec::EngineResult symbolic =
        engine.Run(*model, model->FindNode("src"), symexec::kPortInject,
                   symexec::SymbolicPacket::MakeUnconstrained(engine.vars()));

    for (int probe = 0; probe < 10; ++probe) {
      Packet input = RandomPacket(&rng);
      Packet output;
      bool runtime_delivered = false;
      graph->FindAs<click::ToNetfront>("sink")->set_handler([&](Packet& p) {
        output = p;
        runtime_delivered = true;
      });
      Packet in_copy = input;
      graph->Inject("src", in_copy);
      if (!runtime_delivered) {
        continue;
      }
      ++delivered_cases;

      // Soundness: some feasible symbolic path must admit the observed
      // output (every field value within the path's final possible values).
      bool admitted = false;
      for (const symexec::SymbolicPacket& path : symbolic.delivered) {
        bool fits =
            path.PossibleValues(HeaderField::kIpSrc).Contains(output.ip_src().value()) &&
            path.PossibleValues(HeaderField::kIpDst).Contains(output.ip_dst().value()) &&
            path.PossibleValues(HeaderField::kProto).Contains(output.protocol()) &&
            path.PossibleValues(HeaderField::kSrcPort).Contains(output.src_port()) &&
            path.PossibleValues(HeaderField::kDstPort).Contains(output.dst_port());
        if (fits) {
          admitted = true;
          break;
        }
      }
      EXPECT_TRUE(admitted) << "runtime delivered a packet no symbolic path admits\n"
                            << "config: " << config_text << "\n"
                            << "input:  " << input.Describe() << "\n"
                            << "output: " << output.Describe();
    }
  }
  // The generator must actually exercise deliveries, or the property is vacuous.
  EXPECT_GT(delivered_cases, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicSoundness, ::testing::Values(101, 202, 303, 404));

// --- Differential: SymbolicPacket copies vs a deep-copying reference ----------------------
//
// Copies of a SymbolicPacket share their hop history and their constraint
// store. This sweep builds random fork trees and applies every operation both
// to the packet and to a naive reference that owns plain copies (a vector of
// hops, a std::map of constraints); after each operation every live packet
// must still agree with its own reference, so a write that leaks into a
// sibling shows up at once.

struct RefPacket {
  std::array<symexec::FieldState, kNumHeaderFields> fields{};
  std::map<symexec::VarId, ValueSet> constraints;  // absent var => Full()
  std::vector<symexec::Hop> history;
  bool feasible = true;

  void Define(HeaderField f, const symexec::SymbolicValue& v) {
    fields[static_cast<size_t>(f)].value = v;
    fields[static_cast<size_t>(f)].last_def_hop = static_cast<int>(history.size());
  }

  ValueSet PossibleValuesOf(const symexec::SymbolicValue& v) const {
    if (v.is_const) {
      return ValueSet::Single(v.const_value);
    }
    auto it = constraints.find(v.var);
    return it == constraints.end() ? ValueSet::Full() : it->second;
  }

  bool Constrain(HeaderField f, const ValueSet& allowed) {
    const symexec::SymbolicValue& v = fields[static_cast<size_t>(f)].value;
    if (v.is_const) {
      if (!allowed.Contains(v.const_value)) {
        feasible = false;
      }
      return feasible;
    }
    ValueSet narrowed = PossibleValuesOf(v).Intersect(allowed);
    if (narrowed.IsEmpty()) {
      feasible = false;
      return false;
    }
    constraints[v.var] = narrowed;
    return true;
  }

  // Same predicate order and forking as SymbolicPacket::ConstrainToFlowSpec.
  std::vector<RefPacket> ConstrainToFlowSpec(const FlowSpec& spec) const {
    std::vector<RefPacket> branches{*this};
    auto constrain_all = [&branches](HeaderField f, const ValueSet& set) {
      std::vector<RefPacket> next;
      for (RefPacket& b : branches) {
        if (b.Constrain(f, set)) {
          next.push_back(b);
        }
      }
      branches = next;
    };
    auto constrain = [&](Direction dir, HeaderField src, HeaderField dst, const ValueSet& set) {
      if (dir == Direction::kSrc) {
        constrain_all(src, set);
        return;
      }
      if (dir == Direction::kDst) {
        constrain_all(dst, set);
        return;
      }
      std::vector<RefPacket> next;
      for (const RefPacket& b : branches) {
        RefPacket left = b;
        if (left.Constrain(src, set)) {
          next.push_back(left);
        }
        RefPacket right = b;
        if (right.Constrain(dst, set)) {
          next.push_back(right);
        }
      }
      branches = next;
    };
    if (spec.proto()) {
      constrain_all(HeaderField::kProto, ValueSet::Single(*spec.proto()));
    }
    if (spec.ttl()) {
      constrain_all(HeaderField::kTtl, ValueSet::Single(*spec.ttl()));
    }
    for (const AddrPredicate& pred : spec.addr_predicates()) {
      constrain(pred.dir, HeaderField::kIpSrc, HeaderField::kIpDst,
                ValueSet::FromPrefix(pred.prefix));
    }
    for (const PortPredicate& pred : spec.port_predicates()) {
      constrain(pred.dir, HeaderField::kSrcPort, HeaderField::kDstPort,
                ValueSet::Range(pred.lo, pred.hi));
    }
    return branches;
  }
};

class PacketCopyIsolation : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Values live in [0, 64) so constraints from different operations overlap,
  // nest and sometimes exclude each other.
  static constexpr uint64_t kDomain = 64;
  static constexpr const char* kNodes[] = {"a", "b", "c", "platform0/tenant-module/filter"};

  struct Live {
    symexec::SymbolicPacket packet;
    RefPacket ref;
  };

  static HeaderField RandomField(sim::Rng* rng) {
    return static_cast<HeaderField>(rng->NextBelow(kNumHeaderFields));
  }

  static ValueSet RandomSet(sim::Rng* rng) {
    uint64_t lo = rng->NextBelow(kDomain);
    ValueSet set = ValueSet::Range(lo, lo + rng->NextBelow(24));
    if (rng->Bernoulli(0.3)) {
      set = set.Union(ValueSet::Single(rng->NextBelow(kDomain)));
    }
    return rng->Bernoulli(0.2) ? ValueSet::Full().Subtract(set) : set;
  }

  static std::string RandomFlowSpec(sim::Rng* rng) {
    static const char* kDirs[] = {"", "src ", "dst "};
    std::ostringstream text;
    if (rng->Bernoulli(0.3)) {
      text << (rng->Bernoulli(0.5) ? "udp " : "tcp ");
    }
    if (rng->Bernoulli(0.2)) {
      text << "ttl " << rng->NextBelow(kDomain) << " ";
    }
    for (uint64_t i = rng->NextBelow(3); i > 0; --i) {
      text << kDirs[rng->NextBelow(3)] << "net 0.0.0." << rng->NextBelow(kDomain) << "/"
           << (27 + rng->NextBelow(6)) << " ";
    }
    for (uint64_t i = rng->NextBelow(3); i > 0; --i) {
      uint64_t lo = rng->NextBelow(kDomain);
      text << kDirs[rng->NextBelow(3)] << "port " << lo << "-" << lo + rng->NextBelow(16) << " ";
    }
    return text.str();
  }

  // The first disagreement between `p` and `ref`, or "" when they agree.
  static std::string Mismatch(const symexec::SymbolicPacket& p, const RefPacket& ref,
                              sim::Rng* rng) {
    auto same = [](const symexec::FieldState& a, const symexec::FieldState& b) {
      return a.value == b.value && a.last_def_hop == b.last_def_hop;
    };
    if (p.feasible() != ref.feasible) {
      return "feasible()";
    }
    int hops = static_cast<int>(ref.history.size());
    if (p.hop_count() != hops || p.history().size() != ref.history.size()) {
      return "history size";
    }
    size_t index = 0;
    for (const symexec::Hop& hop : p.history()) {
      const symexec::Hop& want = ref.history[index];
      if (hop.node != want.node || hop.out_port != want.out_port) {
        return "history()[" + std::to_string(index) + "]";
      }
      for (int f = 0; f < kNumHeaderFields; ++f) {
        if (!same(hop.fields[static_cast<size_t>(f)], want.fields[static_cast<size_t>(f)]) ||
            !same(p.FieldAtHop(static_cast<HeaderField>(f), static_cast<int>(index)),
                  want.fields[static_cast<size_t>(f)])) {
          return "FieldAtHop(" + std::to_string(f) + ", " + std::to_string(index) + ")";
        }
      }
      ++index;
    }
    for (int f = 0; f < kNumHeaderFields; ++f) {
      HeaderField field = static_cast<HeaderField>(f);
      if (!same(p.field(field), ref.fields[static_cast<size_t>(f)])) {
        return "field(" + std::to_string(f) + ")";
      }
      if (!(p.PossibleValues(field) == ref.PossibleValuesOf(p.value(field)))) {
        return "PossibleValues(" + std::to_string(f) + ")";
      }
      for (int probe = 0; probe < 4; ++probe) {
        int from = static_cast<int>(rng->NextBelow(static_cast<uint64_t>(hops) + 2)) - 1;
        int to = static_cast<int>(rng->NextBelow(static_cast<uint64_t>(hops) + 2)) - 1;
        bool want = from >= 0 && to >= from && to < hops &&
                    ref.history[static_cast<size_t>(to)].fields[static_cast<size_t>(f)]
                            .last_def_hop <= from;
        if (p.FieldInvariantBetween(field, from, to) != want) {
          return "FieldInvariantBetween(" + std::to_string(f) + ", " + std::to_string(from) +
                 ", " + std::to_string(to) + ")";
        }
      }
    }
    for (const char* name : kNodes) {
      int from = static_cast<int>(rng->NextBelow(static_cast<uint64_t>(hops) + 1));
      for (int start : {0, from}) {
        int want = -1;
        for (int i = start; i < hops; ++i) {
          if (ref.history[static_cast<size_t>(i)].node == name) {
            want = i;
            break;
          }
        }
        if (p.FindHop(name, start) != want) {
          return std::string("FindHop(") + name + ", " + std::to_string(start) + ")";
        }
      }
    }
    return "";
  }
};

TEST_P(PacketCopyIsolation, ForkTreesMatchDeepCopyingReference) {
  sim::Rng rng(GetParam());
  for (int tree = 0; tree < 8; ++tree) {
    symexec::VarAllocator vars;      // the packets' allocator
    symexec::VarAllocator ref_vars;  // the reference's, kept in lockstep
    std::vector<Live> live(1);
    live[0].packet = symexec::SymbolicPacket::MakeUnconstrained(&vars);
    for (int f = 0; f < kNumHeaderFields; ++f) {
      live[0].ref.fields[static_cast<size_t>(f)].value =
          symexec::SymbolicValue::Var(ref_vars.Alloc());
    }
    ASSERT_EQ(Mismatch(live[0].packet, live[0].ref, &rng), "");

    for (int op = 0; op < 150; ++op) {
      size_t i = rng.NextBelow(live.size());
      Live& at = live[i];
      HeaderField f = RandomField(&rng);
      std::string what;
      switch (rng.NextBelow(10)) {
        case 0:  // fork by copy construction
          if (live.size() < 8) {
            Live copy = at;
            live.push_back(std::move(copy));
            what = "copy";
            break;
          }
          [[fallthrough]];
        case 1:  // drop a packet, releasing its share of history and store
          if (live.size() > 1) {
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            what = "drop";
            break;
          }
          [[fallthrough]];
        case 2: {  // copy-assign over another live packet
          size_t j = rng.NextBelow(live.size());
          if (j != i) {
            live[j].packet = live[i].packet;
            live[j].ref = live[i].ref;
          }
          what = "assign";
          break;
        }
        case 3: {
          uint64_t v = rng.NextBelow(kDomain);
          at.packet.SetConst(f, v);
          at.ref.Define(f, symexec::SymbolicValue::Const(v));
          what = "SetConst";
          break;
        }
        case 4:
          at.packet.SetFresh(f, &vars);
          at.ref.Define(f, symexec::SymbolicValue::Var(ref_vars.Alloc()));
          what = "SetFresh";
          break;
        case 5: {  // bind to another field's value, as swaps and copies do
          symexec::SymbolicValue v = at.ref.fields[rng.NextBelow(kNumHeaderFields)].value;
          at.packet.SetValue(f, v);
          at.ref.Define(f, v);
          what = "SetValue";
          break;
        }
        case 6: {
          ValueSet set = RandomSet(&rng);
          bool got = at.packet.Constrain(f, set);
          ASSERT_EQ(got, at.ref.Constrain(f, set)) << "Constrain " << set.ToString();
          what = "Constrain";
          break;
        }
        case 7: {
          std::string text = RandomFlowSpec(&rng);
          FlowSpec spec = FlowSpec::MustParse(text);
          std::vector<symexec::SymbolicPacket> got = at.packet.ConstrainToFlowSpec(spec, &vars);
          std::vector<RefPacket> want = at.ref.ConstrainToFlowSpec(spec);
          ASSERT_EQ(got.size(), want.size()) << "ConstrainToFlowSpec(" << text << ")";
          for (size_t b = 0; b < got.size() && live.size() < 8; ++b) {
            live.push_back({std::move(got[b]), std::move(want[b])});
          }
          what = "ConstrainToFlowSpec(" + text + ")";
          break;
        }
        case 8:
          if (rng.Bernoulli(0.2)) {
            at.packet.MarkInfeasible();
            at.ref.feasible = false;
          }
          what = "MarkInfeasible";
          break;
        default: {
          const char* node = kNodes[rng.NextBelow(std::size(kNodes))];
          int port = static_cast<int>(rng.NextBelow(3));
          at.packet.RecordHop(node, port);
          at.ref.history.push_back({node, port, at.ref.fields});
          what = "RecordHop";
          break;
        }
      }
      for (size_t k = 0; k < live.size(); ++k) {
        ASSERT_EQ(Mismatch(live[k].packet, live[k].ref, &rng), "")
            << "packet " << k << " of " << live.size() << " after " << what << " (tree "
            << tree << ", op " << op << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketCopyIsolation, ::testing::Values(1, 2, 3, 4, 5, 6));

// Dropping the last owner of a long history frees it on a thread with a
// 64 KiB stack; recursing once per hop would overflow that stack.
TEST(PacketCopyIsolationDeep, LongHistoryReleasesWithoutRecursion) {
  constexpr int kHops = 20000;
  symexec::VarAllocator vars;
  auto packet = std::make_unique<symexec::SymbolicPacket>(
      symexec::SymbolicPacket::MakeUnconstrained(&vars));
  for (int i = 0; i < kHops; ++i) {
    packet->RecordHop("n", 0);
  }
  auto sibling = std::make_unique<symexec::SymbolicPacket>(*packet);
  sibling->RecordHop("tail", 1);
  packet.reset();  // the sibling still holds the whole chain
  EXPECT_EQ(sibling->hop_count(), kHops + 1);
  EXPECT_EQ(sibling->FindHop("tail", kHops - 10), kHops);

  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 64 * 1024), 0);
  pthread_t thread;
  auto release = [](void* owned) -> void* {
    delete static_cast<symexec::SymbolicPacket*>(owned);
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, release, sibling.release()), 0);
  EXPECT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

// --- Transport: reliable delivery under arbitrary loss ------------------------------------

struct LossCase {
  double loss;
  uint64_t seed;
};

class RenoReliability : public ::testing::TestWithParam<LossCase> {};

TEST_P(RenoReliability, EverySegmentDeliveredInOrderExactlyOnce) {
  const LossCase& param = GetParam();
  sim::EventQueue clock;
  sim::Rng rng(param.seed);
  sim::Link::Config link;
  link.rate_bps = 20e6;
  link.propagation = sim::FromMillis(5);
  link.loss_prob = param.loss;
  link.queue_limit_bytes = 64 * 1500;
  transport::RawLossyChannel channel(&clock, &rng, link);
  transport::RenoConfig config;
  config.min_rto_sec = 0.2;
  transport::RenoFlow flow(&clock, &channel, config, sim::FromMillis(5));

  uint64_t last_in_order = 0;
  bool monotonic = true;
  flow.SetInOrderCallback([&](uint64_t in_order) {
    if (in_order < last_in_order) {
      monotonic = false;
    }
    last_in_order = in_order;
  });
  flow.EnqueueSegments(500);
  clock.RunUntil(sim::FromSeconds(120));
  EXPECT_EQ(flow.receiver_in_order(), 500u) << "loss=" << param.loss;
  EXPECT_EQ(flow.cumulative_acked(), 500u);
  EXPECT_TRUE(monotonic);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, RenoReliability,
                         ::testing::Values(LossCase{0.0, 1}, LossCase{0.01, 2},
                                           LossCase{0.05, 3}, LossCase{0.10, 4},
                                           LossCase{0.20, 5}, LossCase{0.05, 6},
                                           LossCase{0.10, 7}));

}  // namespace
}  // namespace innet
