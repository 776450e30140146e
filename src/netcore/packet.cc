#include "src/netcore/packet.h"

#include <algorithm>

#include "src/netcore/checksum.h"

namespace innet {
namespace {

Ipv4Header* IpHeaderOf(uint8_t* buf) {
  return reinterpret_cast<Ipv4Header*>(buf + kEthHeaderLen);
}

}  // namespace

void Packet::BuildCommon(Ipv4Address src, Ipv4Address dst, uint8_t proto, size_t l4_len) {
  length_ = kEthHeaderLen + kIpHeaderLen + l4_len;
  l4_offset_ = kEthHeaderLen + kIpHeaderLen;
  // The frame grows from nothing: zero all of it, so the headers' unset
  // fields and the payload are defined (see the class comment).
  std::memset(buf_.data(), 0, length_);

  auto* eth = reinterpret_cast<EthernetHeader*>(buf_.data());
  eth->ether_type = HostToNet16(kEtherTypeIpv4);

  auto* ip = IpHeaderOf(buf_.data());
  ip->version_ihl = 0x45;
  ip->tos = 0;
  ip->total_length = HostToNet16(static_cast<uint16_t>(kIpHeaderLen + l4_len));
  ip->id = 0;
  ip->frag_off = 0;
  ip->ttl = 64;
  ip->protocol = proto;
  ip->checksum = 0;
  ip->src = HostToNet32(src.value());
  ip->dst = HostToNet32(dst.value());

  ip_src_ = src;
  ip_dst_ = dst;
  protocol_ = proto;
  ttl_ = 64;
  tcp_flags_ = 0;
}

Packet Packet::MakeUdp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                       size_t payload_len) {
  Packet p;
  payload_len = std::min(payload_len, kMaxFrameLen - kEthHeaderLen - kIpHeaderLen -
                                          sizeof(UdpHeader));
  p.BuildCommon(src, dst, kProtoUdp, sizeof(UdpHeader) + payload_len);
  auto* udp = reinterpret_cast<UdpHeader*>(p.buf_.data() + p.l4_offset_);
  udp->src_port = HostToNet16(src_port);
  udp->dst_port = HostToNet16(dst_port);
  udp->length = HostToNet16(static_cast<uint16_t>(sizeof(UdpHeader) + payload_len));
  udp->checksum = 0;
  p.payload_offset_ = p.l4_offset_ + sizeof(UdpHeader);
  p.src_port_ = src_port;
  p.dst_port_ = dst_port;
  p.RefreshChecksums();
  return p;
}

Packet Packet::MakeTcp(Ipv4Address src, Ipv4Address dst, uint16_t src_port, uint16_t dst_port,
                       uint8_t tcp_flags, size_t payload_len) {
  Packet p;
  payload_len = std::min(payload_len, kMaxFrameLen - kEthHeaderLen - kIpHeaderLen -
                                          sizeof(TcpHeader));
  p.BuildCommon(src, dst, kProtoTcp, sizeof(TcpHeader) + payload_len);
  auto* tcp = reinterpret_cast<TcpHeader*>(p.buf_.data() + p.l4_offset_);
  tcp->src_port = HostToNet16(src_port);
  tcp->dst_port = HostToNet16(dst_port);
  tcp->data_off = 5 << 4;
  tcp->flags = tcp_flags;
  tcp->window = HostToNet16(65535);
  p.payload_offset_ = p.l4_offset_ + sizeof(TcpHeader);
  p.src_port_ = src_port;
  p.dst_port_ = dst_port;
  p.tcp_flags_ = tcp_flags;
  p.RefreshChecksums();
  return p;
}

Packet Packet::MakeIcmpEcho(Ipv4Address src, Ipv4Address dst, uint16_t id, uint16_t seq,
                            bool is_reply) {
  Packet p;
  p.BuildCommon(src, dst, kProtoIcmp, sizeof(IcmpHeader) + 56);
  auto* icmp = reinterpret_cast<IcmpHeader*>(p.buf_.data() + p.l4_offset_);
  icmp->type = is_reply ? 0 : 8;
  icmp->code = 0;
  icmp->checksum = 0;
  icmp->id = HostToNet16(id);
  icmp->seq = HostToNet16(seq);
  p.payload_offset_ = p.l4_offset_ + sizeof(IcmpHeader);
  p.src_port_ = id;   // Convenient flow key: ICMP id/seq stand in for ports.
  p.dst_port_ = seq;
  p.RefreshChecksums();
  return p;
}

Packet Packet::FromWire(const uint8_t* data, size_t len) {
  Packet p;
  if (len < kEthHeaderLen + kIpHeaderLen || len > kMaxFrameLen) {
    return p;
  }
  std::memcpy(p.buf_.data(), data, len);
  p.length_ = len;
  if (!p.ReparseFromWire()) {
    p.length_ = 0;
  }
  return p;
}

void Packet::set_ip_src(Ipv4Address addr) {
  ip_src_ = addr;
  IpHeaderOf(buf_.data())->src = HostToNet32(addr.value());
}

void Packet::set_ip_dst(Ipv4Address addr) {
  ip_dst_ = addr;
  IpHeaderOf(buf_.data())->dst = HostToNet32(addr.value());
}

void Packet::set_src_port(uint16_t port) {
  src_port_ = port;
  if (protocol_ == kProtoUdp || protocol_ == kProtoTcp) {
    // UDP and TCP both start with src/dst port, so one write path suffices.
    auto* ports = reinterpret_cast<uint16_t*>(buf_.data() + l4_offset_);
    ports[0] = HostToNet16(port);
  }
}

void Packet::set_dst_port(uint16_t port) {
  dst_port_ = port;
  if (protocol_ == kProtoUdp || protocol_ == kProtoTcp) {
    auto* ports = reinterpret_cast<uint16_t*>(buf_.data() + l4_offset_);
    ports[1] = HostToNet16(port);
  }
}

void Packet::set_ttl(uint8_t ttl) {
  ttl_ = ttl;
  IpHeaderOf(buf_.data())->ttl = ttl;
}

bool Packet::DecrementTtl() {
  if (ttl_ <= 1) {
    return false;
  }
  set_ttl(static_cast<uint8_t>(ttl_ - 1));
  return true;
}

void Packet::RefreshChecksums() {
  auto* ip = IpHeaderOf(buf_.data());
  ip->checksum = 0;
  ip->checksum = HostToNet16(Ipv4HeaderChecksum(buf_.data() + kEthHeaderLen, kIpHeaderLen));

  const size_t l4_len = length_ - l4_offset_;
  if (protocol_ == kProtoUdp) {
    auto* udp = reinterpret_cast<UdpHeader*>(buf_.data() + l4_offset_);
    udp->checksum = 0;
    udp->checksum = HostToNet16(TransportChecksum(ip_src_.value(), ip_dst_.value(), kProtoUdp,
                                                  buf_.data() + l4_offset_, l4_len));
  } else if (protocol_ == kProtoTcp) {
    auto* tcp = reinterpret_cast<TcpHeader*>(buf_.data() + l4_offset_);
    tcp->checksum = 0;
    tcp->checksum = HostToNet16(TransportChecksum(ip_src_.value(), ip_dst_.value(), kProtoTcp,
                                                  buf_.data() + l4_offset_, l4_len));
  } else if (protocol_ == kProtoIcmp) {
    auto* icmp = reinterpret_cast<IcmpHeader*>(buf_.data() + l4_offset_);
    icmp->checksum = 0;
    icmp->checksum = HostToNet16(Checksum(buf_.data() + l4_offset_, l4_len));
  }
}

bool Packet::VerifyIpChecksum() const {
  return Checksum(buf_.data() + kEthHeaderLen, kIpHeaderLen) == 0;
}

void Packet::SetPayload(std::string_view text) {
  size_t n = std::min(text.size(), length_ - payload_offset_);
  std::memcpy(buf_.data() + payload_offset_, text.data(), n);
  RefreshChecksums();
}

bool Packet::ReparseFromWire() {
  if (length_ < kEthHeaderLen + kIpHeaderLen) {
    return false;
  }
  const auto* eth = reinterpret_cast<const EthernetHeader*>(buf_.data());
  if (NetToHost16(eth->ether_type) != kEtherTypeIpv4) {
    return false;
  }
  const auto* ip = IpHeaderOf(buf_.data());
  if ((ip->version_ihl >> 4) != 4) {
    return false;
  }
  // The header length must cover the fixed header and fit in the frame;
  // RefreshChecksums sums [l4_offset_, length_).
  const size_t ip_header_len = static_cast<size_t>(ip->HeaderLength());
  if (ip_header_len < kIpHeaderLen || kEthHeaderLen + ip_header_len > length_) {
    return false;
  }
  ip_src_ = Ipv4Address(NetToHost32(ip->src));
  ip_dst_ = Ipv4Address(NetToHost32(ip->dst));
  protocol_ = ip->protocol;
  ttl_ = ip->ttl;
  l4_offset_ = kEthHeaderLen + ip_header_len;
  src_port_ = 0;
  dst_port_ = 0;
  tcp_flags_ = 0;
  if (protocol_ == kProtoUdp && length_ >= l4_offset_ + sizeof(UdpHeader)) {
    const auto* udp = reinterpret_cast<const UdpHeader*>(buf_.data() + l4_offset_);
    src_port_ = NetToHost16(udp->src_port);
    dst_port_ = NetToHost16(udp->dst_port);
    payload_offset_ = l4_offset_ + sizeof(UdpHeader);
  } else if (protocol_ == kProtoTcp && length_ >= l4_offset_ + sizeof(TcpHeader)) {
    const auto* tcp = reinterpret_cast<const TcpHeader*>(buf_.data() + l4_offset_);
    src_port_ = NetToHost16(tcp->src_port);
    dst_port_ = NetToHost16(tcp->dst_port);
    tcp_flags_ = tcp->flags;
    payload_offset_ = l4_offset_ + sizeof(TcpHeader);
  } else {
    payload_offset_ = std::min(length_, l4_offset_ + sizeof(IcmpHeader));
  }
  return true;
}

uint64_t Packet::FlowKey() const {
  // FNV-1a over the 5-tuple; good enough for flow tables.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(ip_src_.value());
  mix(ip_dst_.value());
  mix(protocol_);
  if (protocol_ == kProtoIcmp) {
    mix(src_port_);  // ICMP flows are keyed by echo id; seq varies per probe
  } else {
    mix((static_cast<uint64_t>(src_port_) << 16) | dst_port_);
  }
  // Murmur3-style finalizer: FNV's low bits avalanche poorly, and HashSwitch
  // takes the key modulo a small output count.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

std::string Packet::Describe() const {
  const char* proto = protocol_ == kProtoTcp   ? "tcp"
                      : protocol_ == kProtoUdp ? "udp"
                      : protocol_ == kProtoIcmp ? "icmp"
                                                : "ip";
  return std::string(proto) + " " + ip_src_.ToString() + ":" + std::to_string(src_port_) +
         " > " + ip_dst_.ToString() + ":" + std::to_string(dst_port_) + " len " +
         std::to_string(length_);
}

}  // namespace innet
