#include "src/netcore/checksum.h"

#include <bit>
#include <cstring>

namespace innet {
namespace {

template <typename Word>
Word LoadNative(const uint8_t* p) {
  Word w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

uint64_t AddHalves(uint64_t sum, uint64_t word) {
  return sum + (word & 0xFFFFFFFF) + (word >> 32);
}

}  // namespace

// Word-wide RFC 1071 sum: byte order independence (§2(B)) plus parallel
// summation with deferred carries (§2(C)). The buffer is summed as
// native-order 8-byte words, each split into 32-bit halves so that a 64-bit
// accumulator cannot overflow below 2^31 words. Modulo 0xFFFF every 2^16
// weight is 1, so that sum is congruent to the sum of native-order 16-bit
// words; on a little-endian host those are the big-endian words
// byte-swapped, which one swap of the folded 16-bit result undoes. Every
// piece of the tail starts at an even offset, so it lands on the same 16-bit
// lanes as a full word would. The integer sum is zero only for all-zero
// data, so folding after adding `initial` picks the same representative
// (0 vs 0xFFFF) as a plain big-endian word loop.
uint32_t ChecksumPartial(const uint8_t* data, size_t len, uint32_t initial) {
  uint64_t a = 0;
  uint64_t b = 0;
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    a = AddHalves(a, LoadNative<uint64_t>(data + i));
    b = AddHalves(b, LoadNative<uint64_t>(data + i + 8));
  }
  a += b;
  if (len - i >= 8) {
    a = AddHalves(a, LoadNative<uint64_t>(data + i));
    i += 8;
  }
  if (len - i >= 4) {
    a += LoadNative<uint32_t>(data + i);
    i += 4;
  }
  if (len - i >= 2) {
    a += LoadNative<uint16_t>(data + i);
    i += 2;
  }
  if (i < len) {
    a += std::endian::native == std::endian::little ? data[i] : data[i] << 8;
  }
  a = (a & 0xFFFFFFFF) + (a >> 32);
  a = (a & 0xFFFF) + (a >> 16);
  a = (a & 0xFFFF) + (a >> 16);
  a = (a & 0xFFFF) + (a >> 16);
  if constexpr (std::endian::native == std::endian::little) {
    a = ((a & 0xFF) << 8) | (a >> 8);
  }
  uint64_t sum = initial + a;
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<uint32_t>(sum);
}

uint16_t Checksum(const uint8_t* data, size_t len, uint32_t initial) {
  return static_cast<uint16_t>(~ChecksumPartial(data, len, initial) & 0xFFFF);
}

uint16_t Ipv4HeaderChecksum(const uint8_t* header, size_t header_len) {
  return Checksum(header, header_len);
}

uint16_t TransportChecksum(uint32_t src_host_order, uint32_t dst_host_order, uint8_t protocol,
                           const uint8_t* segment, size_t segment_len) {
  uint32_t pseudo = 0;
  pseudo += src_host_order >> 16;
  pseudo += src_host_order & 0xFFFF;
  pseudo += dst_host_order >> 16;
  pseudo += dst_host_order & 0xFFFF;
  pseudo += protocol;
  pseudo += static_cast<uint32_t>(segment_len);
  while (pseudo >> 16) {
    pseudo = (pseudo & 0xFFFF) + (pseudo >> 16);
  }
  return Checksum(segment, segment_len, pseudo);
}

}  // namespace innet
