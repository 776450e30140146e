#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/click/elements.h"
#include "src/click/graph.h"
#include "src/netcore/checksum.h"
#include "src/netcore/fields.h"
#include "src/netcore/flowspec.h"
#include "src/netcore/ip.h"
#include "src/netcore/packet.h"

namespace innet {
namespace {

// --- Ipv4Address -----------------------------------------------------------------

TEST(Ipv4Address, ParsesDottedQuad) {
  auto addr = Ipv4Address::Parse("10.1.2.3");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0x0A010203u);
  EXPECT_EQ(addr->ToString(), "10.1.2.3");
}

TEST(Ipv4Address, ParsesEdgeValues) {
  EXPECT_EQ(Ipv4Address::MustParse("0.0.0.0").value(), 0u);
  EXPECT_EQ(Ipv4Address::MustParse("255.255.255.255").value(), 0xFFFFFFFFu);
}

TEST(Ipv4Address, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("256.1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2.x").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2.3 ").has_value());
}

TEST(Ipv4Address, ClassifiesSpecialRanges) {
  EXPECT_TRUE(Ipv4Address::MustParse("10.0.0.1").IsPrivate());
  EXPECT_TRUE(Ipv4Address::MustParse("172.16.0.1").IsPrivate());
  EXPECT_TRUE(Ipv4Address::MustParse("172.31.255.255").IsPrivate());
  EXPECT_FALSE(Ipv4Address::MustParse("172.32.0.1").IsPrivate());
  EXPECT_TRUE(Ipv4Address::MustParse("192.168.4.4").IsPrivate());
  EXPECT_FALSE(Ipv4Address::MustParse("8.8.8.8").IsPrivate());
  EXPECT_TRUE(Ipv4Address::MustParse("127.0.0.1").IsLoopback());
  EXPECT_TRUE(Ipv4Address::MustParse("224.0.0.1").IsMulticast());
  EXPECT_TRUE(Ipv4Address().IsUnspecified());
}

TEST(Ipv4Address, Ordering) {
  Ipv4Address a = Ipv4Address::MustParse("10.0.0.1");
  Ipv4Address b = Ipv4Address::MustParse("10.0.0.2");
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Ipv4Address::MustParse("10.0.0.1"));
}

// --- Ipv4Prefix ------------------------------------------------------------------

TEST(Ipv4Prefix, ParsesAndMasksHostBits) {
  Ipv4Prefix prefix = Ipv4Prefix::MustParse("10.1.2.3/16");
  EXPECT_EQ(prefix.base(), Ipv4Address::MustParse("10.1.0.0"));
  EXPECT_EQ(prefix.length(), 16);
  EXPECT_EQ(prefix.ToString(), "10.1.0.0/16");
}

TEST(Ipv4Prefix, BareAddressIsSlash32) {
  Ipv4Prefix prefix = Ipv4Prefix::MustParse("10.1.2.3");
  EXPECT_EQ(prefix.length(), 32);
  EXPECT_TRUE(prefix.Contains(Ipv4Address::MustParse("10.1.2.3")));
  EXPECT_FALSE(prefix.Contains(Ipv4Address::MustParse("10.1.2.4")));
}

TEST(Ipv4Prefix, ContainsAndOverlaps) {
  Ipv4Prefix wide = Ipv4Prefix::MustParse("10.0.0.0/8");
  Ipv4Prefix narrow = Ipv4Prefix::MustParse("10.5.0.0/16");
  Ipv4Prefix other = Ipv4Prefix::MustParse("192.168.0.0/16");
  EXPECT_TRUE(wide.Contains(narrow));
  EXPECT_FALSE(narrow.Contains(wide));
  EXPECT_TRUE(wide.Overlaps(narrow));
  EXPECT_TRUE(narrow.Overlaps(wide));
  EXPECT_FALSE(wide.Overlaps(other));
}

TEST(Ipv4Prefix, ZeroLengthMatchesEverything) {
  Ipv4Prefix all = Ipv4Prefix::MustParse("0.0.0.0/0");
  EXPECT_TRUE(all.Contains(Ipv4Address::MustParse("1.2.3.4")));
  EXPECT_TRUE(all.Contains(Ipv4Address::MustParse("255.255.255.255")));
}

TEST(Ipv4Prefix, FirstAndLast) {
  Ipv4Prefix prefix = Ipv4Prefix::MustParse("10.1.0.0/16");
  EXPECT_EQ(prefix.first(), Ipv4Address::MustParse("10.1.0.0"));
  EXPECT_EQ(prefix.last(), Ipv4Address::MustParse("10.1.255.255"));
}

TEST(Ipv4Prefix, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Prefix::Parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::Parse("10.0.0.0/").has_value());
  EXPECT_FALSE(Ipv4Prefix::Parse("10.0.0/8").has_value());
}

// --- Checksums -------------------------------------------------------------------

TEST(Checksum, Rfc1071Example) {
  // Classic example: the checksum of {0x00,0x01,0xf2,0x03,0xf4,0xf5,0xf6,0xf7}.
  const uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  uint32_t partial = ChecksumPartial(data, sizeof(data));
  EXPECT_EQ(partial, 0xddf2u);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const uint8_t data[] = {0x01, 0x02, 0x03};
  // Words: 0x0102, 0x0300 -> 0x0402.
  EXPECT_EQ(ChecksumPartial(data, sizeof(data)), 0x0402u);
}

TEST(Checksum, VerifiesToZero) {
  const uint8_t data[] = {0x45, 0x00, 0x00, 0x1c};
  uint16_t sum = Checksum(data, sizeof(data));
  // Appending the checksum makes the total verify (complement sum == 0).
  uint8_t with_sum[6] = {0x45, 0x00, 0x00, 0x1c, static_cast<uint8_t>(sum >> 8),
                         static_cast<uint8_t>(sum & 0xFF)};
  EXPECT_EQ(Checksum(with_sum, sizeof(with_sum)), 0u);
}

// The plain loop ChecksumPartial replaced: one big-endian 16-bit word per
// step. The word-wide version must agree with it bit for bit.
uint32_t ReferenceChecksumPartial(const uint8_t* data, size_t len, uint32_t initial) {
  uint64_t sum = initial;
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < len) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint32_t>(sum);
}

uint16_t ReferenceTransportChecksum(uint32_t src, uint32_t dst, uint8_t protocol,
                                    const uint8_t* segment, size_t len) {
  uint32_t pseudo = (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF) + protocol +
                    static_cast<uint32_t>(len);
  return static_cast<uint16_t>(~ReferenceChecksumPartial(segment, len, pseudo) & 0xFFFF);
}

TEST(Checksum, WordWideMatchesReferenceLoop) {
  std::mt19937 rng(1071);
  std::uniform_int_distribution<uint32_t> initial_dist(0, 0x2FFFF);
  std::vector<uint8_t> buf(kMaxFrameLen + 8);
  int mismatches = 0;
  for (int fill = 0; fill < 3; ++fill) {  // random bytes, all 0x00, all 0xFF
    for (uint8_t& byte : buf) {
      byte = fill == 0 ? static_cast<uint8_t>(rng()) : fill == 1 ? 0x00 : 0xFF;
    }
    for (size_t len = 0; len <= kMaxFrameLen; ++len) {
      for (size_t offset = 0; offset < 8; ++offset) {
        const uint8_t* data = buf.data() + offset;
        for (uint32_t initial : {0u, 0xFFFFu, 0x2FFFFu, initial_dist(rng)}) {
          uint32_t want = ReferenceChecksumPartial(data, len, initial);
          if (ChecksumPartial(data, len, initial) != want ||
              Checksum(data, len, initial) != static_cast<uint16_t>(~want & 0xFFFF)) {
            ++mismatches;
            ADD_FAILURE() << "fill " << fill << " len " << len << " offset " << offset
                          << " initial " << initial;
          }
        }
        uint32_t src = rng();
        uint32_t dst = rng();
        uint8_t protocol = (len & 1) != 0 ? kProtoUdp : kProtoTcp;
        if (TransportChecksum(src, dst, protocol, data, len) !=
            ReferenceTransportChecksum(src, dst, protocol, data, len)) {
          ++mismatches;
          ADD_FAILURE() << "transport: fill " << fill << " len " << len << " offset " << offset;
        }
        ASSERT_LT(mismatches, 10);
      }
    }
  }
}

// --- Packet ----------------------------------------------------------------------

TEST(Packet, BuildsValidUdp) {
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                             Ipv4Address::MustParse("10.0.0.2"), 1234, 1500, 100);
  EXPECT_EQ(p.protocol(), kProtoUdp);
  EXPECT_EQ(p.src_port(), 1234);
  EXPECT_EQ(p.dst_port(), 1500);
  EXPECT_EQ(p.payload_length(), 100u);
  EXPECT_EQ(p.length(), kEthHeaderLen + kIpHeaderLen + 8 + 100);
  EXPECT_TRUE(p.VerifyIpChecksum());
}

TEST(Packet, BuildsValidTcpWithFlags) {
  Packet p = Packet::MakeTcp(Ipv4Address::MustParse("10.0.0.1"),
                             Ipv4Address::MustParse("10.0.0.2"), 4000, 80, kTcpSyn);
  EXPECT_EQ(p.protocol(), kProtoTcp);
  EXPECT_EQ(p.tcp_flags(), kTcpSyn);
  EXPECT_TRUE(p.VerifyIpChecksum());
}

TEST(Packet, MutatorsKeepWireBytesInSync) {
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                             Ipv4Address::MustParse("10.0.0.2"), 1, 2, 10);
  p.set_ip_dst(Ipv4Address::MustParse("172.16.15.133"));
  p.set_dst_port(9999);
  p.RefreshChecksums();

  Packet reparsed = Packet::FromWire(p.data(), p.length());
  ASSERT_GT(reparsed.length(), 0u);
  EXPECT_EQ(reparsed.ip_dst(), Ipv4Address::MustParse("172.16.15.133"));
  EXPECT_EQ(reparsed.dst_port(), 9999);
  EXPECT_TRUE(reparsed.VerifyIpChecksum());
}

TEST(Packet, ChecksumDetectsCorruption) {
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                             Ipv4Address::MustParse("10.0.0.2"), 1, 2, 10);
  EXPECT_TRUE(p.VerifyIpChecksum());
  p.mutable_data()[kEthHeaderLen + 8] ^= 0xFF;  // corrupt TTL byte without refresh
  EXPECT_FALSE(p.VerifyIpChecksum());
}

TEST(Packet, DecrementTtl) {
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 1, 2);
  EXPECT_EQ(p.ttl(), 64);
  EXPECT_TRUE(p.DecrementTtl());
  EXPECT_EQ(p.ttl(), 63);
  p.set_ttl(1);
  EXPECT_FALSE(p.DecrementTtl());  // would expire
  EXPECT_EQ(p.ttl(), 1);
}

TEST(Packet, PayloadRoundTrip) {
  Packet p = Packet::MakeTcp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 1, 80, 0, 64);
  p.SetPayload("GET /index.html HTTP/1.1");
  EXPECT_NE(p.PayloadView().find("GET /index.html"), std::string_view::npos);
  EXPECT_TRUE(p.VerifyIpChecksum());
}

TEST(Packet, FlowKeyDistinguishesFlows) {
  Packet a = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 10, 20);
  Packet b = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 10, 21);
  Packet c = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 10, 20);
  EXPECT_NE(a.FlowKey(), b.FlowKey());
  EXPECT_EQ(a.FlowKey(), c.FlowKey());
}

TEST(Packet, IcmpEcho) {
  Packet p = Packet::MakeIcmpEcho(Ipv4Address::MustParse("1.1.1.1"),
                                  Ipv4Address::MustParse("2.2.2.2"), 7, 3);
  EXPECT_EQ(p.protocol(), kProtoIcmp);
  EXPECT_TRUE(p.VerifyIpChecksum());
}

TEST(Packet, FromWireRejectsGarbage) {
  uint8_t junk[64] = {};
  Packet p = Packet::FromWire(junk, sizeof(junk));
  EXPECT_EQ(p.length(), 0u);
  Packet q = Packet::FromWire(junk, 4);  // too short
  EXPECT_EQ(q.length(), 0u);
}

// The IPv4 header length (IHL, in 32-bit words) must be at least 5 and must
// not run past the frame; otherwise the L4 offset would lie inside the IP
// header or beyond length() and a checksum refresh would read out of bounds.
TEST(Packet, FromWireRejectsBadHeaderLength) {
  const Packet udp = Packet::MakeUdp(Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 1000,
                                     2000, 0);
  ASSERT_EQ(udp.length(), 42u);
  auto with_ihl = [&](uint8_t ihl, size_t len) {
    std::vector<uint8_t> frame(udp.data(), udp.data() + udp.length());
    frame.resize(len, 0);
    frame[kEthHeaderLen] = static_cast<uint8_t>(0x40 | ihl);
    return Packet::FromWire(frame.data(), frame.size());
  };
  for (uint8_t ihl = 0; ihl < 5; ++ihl) {
    SCOPED_TRACE(static_cast<int>(ihl));
    EXPECT_EQ(with_ihl(ihl, 42).length(), 0u);
  }
  EXPECT_EQ(with_ihl(15, 42).length(), 0u);  // 60-byte header in a 28-byte IP packet
  EXPECT_EQ(with_ihl(6, 37).length(), 0u);   // options end one byte past the frame

  // Header lengths that fit are still accepted, the L4 header after options.
  EXPECT_EQ(with_ihl(5, 42).length(), 42u);
  Packet options = with_ihl(6, 50);
  ASSERT_EQ(options.length(), 50u);
  EXPECT_EQ(options.payload_offset(), kEthHeaderLen + 24u + 8u);
  options.RefreshChecksums();
  Packet exact = with_ihl(15, kEthHeaderLen + 60);  // no L4 bytes at all
  ASSERT_EQ(exact.length(), kEthHeaderLen + 60u);
  exact.RefreshChecksums();
}

// The same bound reached from a tenant's config: a tunnel payload whose
// inner header claims IHL 15 is dropped by UDPTunnelDecap, not forwarded.
TEST(Packet, TunnelDecapDropsInnerHeaderLongerThanPayload) {
  std::string error;
  auto graph = click::Graph::FromText(
      "in :: FromNetfront(); out :: ToNetfront();"
      "in -> UDPTunnelDecap() -> IPRewriter(pattern - - 10.0.0.9 - 0 0) -> out;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  auto* sink = dynamic_cast<click::ToNetfront*>(graph->Find("out"));
  ASSERT_NE(sink, nullptr);
  int delivered = 0;
  sink->set_handler([&](Packet&) { ++delivered; });

  const Packet inner = Packet::MakeUdp(Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 1000,
                                       2000, 0);
  for (uint8_t ihl : {uint8_t{5}, uint8_t{15}}) {
    SCOPED_TRACE(static_cast<int>(ihl));
    Packet outer = Packet::MakeUdp(Ipv4Address(3, 3, 3, 3), Ipv4Address(4, 4, 4, 4), 4789, 4789,
                                   inner.length() - kEthHeaderLen);
    std::memcpy(outer.mutable_payload(), inner.data() + kEthHeaderLen,
                inner.length() - kEthHeaderLen);
    outer.mutable_payload()[0] = static_cast<uint8_t>(0x40 | ihl);
    outer.RefreshChecksums();
    delivered = 0;
    graph->InjectAtSource(outer);
    EXPECT_EQ(delivered, ihl == 5 ? 1 : 0);
  }
}

// --- Packet copies and moves: the bytes past length() are unspecified ---------
//
// Each scenario builds its packet in storage pre-filled with 0x00 and again
// with 0xA5. Anything that read a byte it did not write (a builder relying on
// a zero-filled buffer, a copy of the tail) would make the two runs differ.

struct PacketImage {
  std::vector<uint8_t> bytes;
  size_t payload_offset = 0;
  uint32_t ip_src = 0;
  uint32_t ip_dst = 0;
  uint8_t protocol = 0;
  uint8_t ttl = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t tcp_flags = 0;
  bool firewall_tag = false;
  uint8_t paint = 0;
  uint64_t timestamp_ns = 0;
  bool int_active = false;
  bool int_parked = false;
  bool int_done = false;
  uint64_t int_ingress_ns = 0;
  uint32_t int_truncated = 0;
  std::vector<std::string> int_hops;
  uint16_t ip_checksum = 0;  // recomputed over the wire header: 0 when valid
  uint16_t l4_checksum = 0;  // recomputed over the segment: 0 when valid

  bool operator==(const PacketImage&) const = default;
};

PacketImage ImageOf(const Packet& p) {
  PacketImage image;
  image.bytes.assign(p.data(), p.data() + p.length());
  image.payload_offset = p.payload_offset();
  image.ip_src = p.ip_src().value();
  image.ip_dst = p.ip_dst().value();
  image.protocol = p.protocol();
  image.ttl = p.ttl();
  image.src_port = p.src_port();
  image.dst_port = p.dst_port();
  image.tcp_flags = p.tcp_flags();
  image.firewall_tag = p.firewall_tag();
  image.paint = p.paint();
  image.timestamp_ns = p.timestamp_ns();
  image.int_active = p.int_active();
  image.int_parked = p.int_parked();
  image.int_done = p.int_done();
  image.int_ingress_ns = p.int_ingress_ns();
  image.int_truncated = p.int_truncated();
  for (const IntHop& hop : p.int_hops()) {
    image.int_hops.push_back(hop.element + " " + std::to_string(hop.ingress_port) + " " +
                             std::to_string(hop.egress_port) + " " +
                             std::to_string(hop.queue_depth) + " " +
                             std::to_string(hop.hop_ns) + " " + std::to_string(hop.endpoint));
  }
  if (p.length() >= kEthHeaderLen + kIpHeaderLen) {
    image.ip_checksum = Checksum(p.data() + kEthHeaderLen, kIpHeaderLen);
    size_t l4 = kEthHeaderLen + kIpHeaderLen;
    if (p.protocol() == kProtoIcmp) {
      image.l4_checksum = Checksum(p.data() + l4, p.length() - l4);
    } else {
      image.l4_checksum = TransportChecksum(p.ip_src().value(), p.ip_dst().value(),
                                            p.protocol(), p.data() + l4, p.length() - l4);
    }
  }
  return image;
}

// Storage for one Packet whose bytes start out as `fill`. The barrier keeps
// the compiler from dropping the fill as a dead store before the
// constructor runs.
class FilledStorage {
 public:
  explicit FilledStorage(uint8_t fill) : fill_(fill) {
    std::memset(bytes_, fill, sizeof(bytes_));
    asm volatile("" : : "r"(bytes_) : "memory");
  }
  FilledStorage(const FilledStorage&) = delete;
  FilledStorage& operator=(const FilledStorage&) = delete;
  ~FilledStorage() {
    if (packet_ != nullptr) {
      packet_->~Packet();
    }
  }

  // Constructs the packet in place, with the constructor `args` select.
  template <typename... Args>
  Packet& Emplace(Args&&... args) {
    EXPECT_EQ(packet_, nullptr);
    packet_ = new (bytes_) Packet(std::forward<Args>(args)...);
    return *packet_;
  }
  // Constructs the packet in place from `make`'s prvalue (no extra copy).
  template <typename Make>
  Packet& EmplaceFrom(Make make) {
    EXPECT_EQ(packet_, nullptr);
    packet_ = new (bytes_) Packet(make());
    return *packet_;
  }
  // True when no byte past length() was written: the fill is intact.
  bool TailUntouched() const {
    asm volatile("" : : "r"(bytes_) : "memory");
    const uint8_t* tail = packet_->data() + packet_->length();
    return std::all_of(tail, packet_->data() + kMaxFrameLen,
                       [this](uint8_t b) { return b == fill_; });
  }

 private:
  alignas(Packet) unsigned char bytes_[sizeof(Packet)];
  uint8_t fill_;
  Packet* packet_ = nullptr;
};

const uint8_t kFills[2] = {0x00, 0xA5};

// Runs `scenario` (FilledStorage& -> Packet&) once per fill and checks that
// both results are the same packet.
template <typename Scenario>
PacketImage ExpectFillIndependent(Scenario scenario) {
  FilledStorage zeros(kFills[0]);
  FilledStorage pattern(kFills[1]);
  PacketImage a = ImageOf(scenario(zeros));
  PacketImage b = ImageOf(scenario(pattern));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ip_checksum, 0u);
  return a;
}

Packet MakeTestUdp(size_t payload) {
  return Packet::MakeUdp(Ipv4Address::MustParse("10.1.2.3"), Ipv4Address::MustParse("172.16.3.10"),
                         5000, 1500, payload);
}

TEST(PacketCopyMove, BuildersWriteEveryByteTheyExpose) {
  for (size_t payload : {0, 1, 17, 22, 534, 1471, 1472, 5000}) {
    SCOPED_TRACE(payload);
    PacketImage udp = ExpectFillIndependent([&](FilledStorage& s) -> Packet& {
      return s.EmplaceFrom([&] { return MakeTestUdp(payload); });
    });
    EXPECT_EQ(udp.l4_checksum, 0u);
    PacketImage tcp = ExpectFillIndependent([&](FilledStorage& s) -> Packet& {
      return s.EmplaceFrom([&] {
        return Packet::MakeTcp(Ipv4Address::MustParse("10.1.2.3"),
                               Ipv4Address::MustParse("172.16.3.10"), 4000, 80, kTcpSyn, payload);
      });
    });
    EXPECT_EQ(tcp.l4_checksum, 0u);
  }
  PacketImage icmp = ExpectFillIndependent([](FilledStorage& s) -> Packet& {
    return s.EmplaceFrom([] {
      return Packet::MakeIcmpEcho(Ipv4Address::MustParse("10.1.2.3"),
                                  Ipv4Address::MustParse("172.16.3.10"), 7, 3);
    });
  });
  EXPECT_EQ(icmp.l4_checksum, 0u);
}

TEST(PacketCopyMove, FromWireAndSetPayloadAreFillIndependent) {
  Packet source = MakeTestUdp(200);
  PacketImage want = ImageOf(source);
  PacketImage parsed = ExpectFillIndependent([&](FilledStorage& s) -> Packet& {
    return s.EmplaceFrom([&] { return Packet::FromWire(source.data(), source.length()); });
  });
  EXPECT_EQ(parsed, want);
  PacketImage edited = ExpectFillIndependent([](FilledStorage& s) -> Packet& {
    Packet& p = s.EmplaceFrom([] { return MakeTestUdp(64); });
    p.SetPayload("GET /index.html HTTP/1.1");
    return p;
  });
  EXPECT_EQ(edited.l4_checksum, 0u);
}

TEST(PacketCopyMove, CopiesAndMovesTransferOnlyTheOccupiedBytes) {
  for (size_t payload : {22, 534, 1458}) {
    SCOPED_TRACE(payload);
    Packet source = MakeTestUdp(payload);
    source.set_paint(3);
    source.set_firewall_tag(true);
    source.set_timestamp_ns(12345);
    const PacketImage want = ImageOf(source);
    for (uint8_t fill : kFills) {
      FilledStorage copied(fill);
      EXPECT_EQ(ImageOf(copied.Emplace(source)), want);
      EXPECT_TRUE(copied.TailUntouched());

      Packet donor = source;
      FilledStorage moved(fill);
      EXPECT_EQ(ImageOf(moved.Emplace(std::move(donor))), want);
      EXPECT_TRUE(moved.TailUntouched());

      FilledStorage assigned(fill);
      Packet& target = assigned.Emplace();
      target = source;
      EXPECT_EQ(ImageOf(target), want);
      EXPECT_TRUE(assigned.TailUntouched());

      Packet move_donor = source;
      FilledStorage move_assigned(fill);
      Packet& move_target = move_assigned.Emplace();
      move_target = std::move(move_donor);
      EXPECT_EQ(ImageOf(move_target), want);
      EXPECT_TRUE(move_assigned.TailUntouched());
    }
  }
}

TEST(PacketCopyMove, MoveCarriesTheIntStackIntact) {
  Packet source = MakeTestUdp(100);
  source.ActivateInt(500);
  for (int i = 0; i < 5; ++i) {
    source.AppendIntHop(IntHop{"hop" + std::to_string(i), static_cast<uint16_t>(i), 0,
                               static_cast<uint32_t>(i * 2), static_cast<uint64_t>(100 + i),
                               i == 0});
    source.SetLastIntEgressPort(static_cast<uint16_t>(i + 1));
  }
  source.set_int_parked(true);
  Packet copy = source;
  const PacketImage want = ImageOf(copy);
  ASSERT_EQ(want.int_hops.size(), 5u);

  Packet moved(std::move(source));
  EXPECT_EQ(ImageOf(moved), want);
  EXPECT_EQ(moved.int_hops().size(), 5u);
  EXPECT_EQ(moved.int_hops().back().egress_port, 5);

  Packet assigned = MakeTestUdp(10);
  assigned = std::move(moved);
  EXPECT_EQ(ImageOf(assigned), want);
  EXPECT_EQ(ImageOf(assigned), ImageOf(copy));
}

// Fills the stack below the caller with `fill`, so the frames the click
// elements build their packets in start out holding it.
[[gnu::noinline]] void PaintStack(uint8_t fill) {
  volatile uint8_t frame[32 * 1024];
  for (volatile uint8_t& b : frame) {
    b = fill;
  }
}

TEST(PacketCopyMove, TunnelRoundTripIsFillIndependent) {
  std::string error;
  auto graph = click::Graph::FromText(
      "in :: FromNetfront(); out :: ToNetfront();"
      "in -> UDPTunnelEncap(3.3.3.3, 4.4.4.4, 4789) -> UDPTunnelDecap() -> out;",
      &error);
  ASSERT_NE(graph, nullptr) << error;
  auto* sink = dynamic_cast<click::ToNetfront*>(graph->Find("out"));
  ASSERT_NE(sink, nullptr);
  for (size_t payload : {0, 100, 1400}) {
    SCOPED_TRACE(payload);
    const Packet source = MakeTestUdp(payload);
    PacketImage delivered[2];
    for (int f = 0; f < 2; ++f) {
      FilledStorage in(kFills[f]);
      FilledStorage out(kFills[f]);
      bool arrived = false;
      sink->set_handler([&](Packet& p) {
        delivered[f] = ImageOf(out.Emplace(p));
        arrived = true;
      });
      PaintStack(kFills[f]);
      graph->InjectAtSource(in.Emplace(source));
      ASSERT_TRUE(arrived);
    }
    EXPECT_EQ(delivered[0], delivered[1]);
    EXPECT_EQ(delivered[0], ImageOf(source));
  }
}

// --- FlowSpec --------------------------------------------------------------------

TEST(FlowSpec, EmptyMatchesEverything) {
  FlowSpec spec = FlowSpec::MustParse("");
  EXPECT_TRUE(spec.IsWildcard());
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 1, 2);
  EXPECT_TRUE(spec.Matches(p));
}

TEST(FlowSpec, ProtocolMatch) {
  FlowSpec udp = FlowSpec::MustParse("udp");
  Packet u = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 1, 2);
  Packet t = Packet::MakeTcp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("2.2.2.2"), 1, 2, 0);
  EXPECT_TRUE(udp.Matches(u));
  EXPECT_FALSE(udp.Matches(t));
}

TEST(FlowSpec, DirectedPortMatch) {
  FlowSpec spec = FlowSpec::MustParse("udp dst port 1500");
  Packet hit = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                               Ipv4Address::MustParse("2.2.2.2"), 1500, 1500);
  Packet miss = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                                Ipv4Address::MustParse("2.2.2.2"), 1500, 1501);
  EXPECT_TRUE(spec.Matches(hit));
  EXPECT_FALSE(spec.Matches(miss));
}

TEST(FlowSpec, UndirectedPortMatchesEitherSide) {
  FlowSpec spec = FlowSpec::MustParse("port 80");
  Packet by_dst = Packet::MakeTcp(Ipv4Address::MustParse("1.1.1.1"),
                                  Ipv4Address::MustParse("2.2.2.2"), 4000, 80, 0);
  Packet by_src = Packet::MakeTcp(Ipv4Address::MustParse("1.1.1.1"),
                                  Ipv4Address::MustParse("2.2.2.2"), 80, 4000, 0);
  Packet neither = Packet::MakeTcp(Ipv4Address::MustParse("1.1.1.1"),
                                   Ipv4Address::MustParse("2.2.2.2"), 1, 2, 0);
  EXPECT_TRUE(spec.Matches(by_dst));
  EXPECT_TRUE(spec.Matches(by_src));
  EXPECT_FALSE(spec.Matches(neither));
}

TEST(FlowSpec, PortRange) {
  FlowSpec spec = FlowSpec::MustParse("dst port 1000-2000");
  Packet in_range = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                                    Ipv4Address::MustParse("2.2.2.2"), 1, 1500);
  Packet below = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                                 Ipv4Address::MustParse("2.2.2.2"), 1, 999);
  EXPECT_TRUE(spec.Matches(in_range));
  EXPECT_FALSE(spec.Matches(below));
}

TEST(FlowSpec, HostAndNet) {
  FlowSpec host = FlowSpec::MustParse("src host 10.0.0.1");
  FlowSpec net = FlowSpec::MustParse("dst net 192.168.0.0/16");
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.1"),
                             Ipv4Address::MustParse("192.168.3.4"), 1, 2);
  EXPECT_TRUE(host.Matches(p));
  EXPECT_TRUE(net.Matches(p));
  Packet q = Packet::MakeUdp(Ipv4Address::MustParse("10.0.0.2"),
                             Ipv4Address::MustParse("172.16.0.1"), 1, 2);
  EXPECT_FALSE(host.Matches(q));
  EXPECT_FALSE(net.Matches(q));
}

TEST(FlowSpec, BareAddressIsHost) {
  FlowSpec spec = FlowSpec::MustParse("dst 172.16.15.133");
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("1.1.1.1"),
                             Ipv4Address::MustParse("172.16.15.133"), 1, 2);
  EXPECT_TRUE(spec.Matches(p));
}

TEST(FlowSpec, Conjunction) {
  FlowSpec spec = FlowSpec::MustParse("tcp and src port 80 and dst net 10.0.0.0/8");
  Packet hit = Packet::MakeTcp(Ipv4Address::MustParse("8.8.8.8"),
                               Ipv4Address::MustParse("10.1.1.1"), 80, 5000, 0);
  Packet wrong_proto = Packet::MakeUdp(Ipv4Address::MustParse("8.8.8.8"),
                                       Ipv4Address::MustParse("10.1.1.1"), 80, 5000);
  EXPECT_TRUE(spec.Matches(hit));
  EXPECT_FALSE(spec.Matches(wrong_proto));
}

TEST(FlowSpec, RejectsMalformed) {
  EXPECT_FALSE(FlowSpec::Parse("dst port abc").has_value());
  EXPECT_FALSE(FlowSpec::Parse("port 70000").has_value());
  EXPECT_FALSE(FlowSpec::Parse("host 300.1.1.1").has_value());
  EXPECT_FALSE(FlowSpec::Parse("tcp udp").has_value());  // contradictory protocols
  EXPECT_FALSE(FlowSpec::Parse("dst port 10-5").has_value());
}

TEST(FlowSpec, ToStringRoundTrips) {
  FlowSpec spec = FlowSpec::MustParse("udp dst host 10.0.0.1 src port 53");
  FlowSpec again = FlowSpec::MustParse(spec.ToString());
  Packet p = Packet::MakeUdp(Ipv4Address::MustParse("9.9.9.9"),
                             Ipv4Address::MustParse("10.0.0.1"), 53, 7000);
  EXPECT_EQ(spec.Matches(p), again.Matches(p));
  EXPECT_TRUE(again.Matches(p));
}

// --- HeaderField names -------------------------------------------------------------

TEST(HeaderFields, ParseKnownNames) {
  EXPECT_EQ(ParseHeaderField("proto"), HeaderField::kProto);
  EXPECT_EQ(ParseHeaderField("dst port"), HeaderField::kDstPort);
  EXPECT_EQ(ParseHeaderField("src port"), HeaderField::kSrcPort);
  EXPECT_EQ(ParseHeaderField("payload"), HeaderField::kPayload);
  EXPECT_EQ(ParseHeaderField("src host"), HeaderField::kIpSrc);
  EXPECT_EQ(ParseHeaderField("dst"), HeaderField::kIpDst);
  EXPECT_FALSE(ParseHeaderField("bogus").has_value());
}

TEST(HeaderFields, NamesRoundTrip) {
  for (int i = 0; i < kNumHeaderFields; ++i) {
    HeaderField f = static_cast<HeaderField>(i);
    auto parsed = ParseHeaderField(std::string(HeaderFieldName(f)));
    ASSERT_TRUE(parsed.has_value()) << HeaderFieldName(f);
    EXPECT_EQ(*parsed, f);
  }
}

}  // namespace
}  // namespace innet
