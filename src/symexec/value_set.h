// ValueSet: a set of uint64 values represented as sorted, disjoint, inclusive
// intervals. This is the constraint domain of the symbolic execution engine —
// rich enough for IP prefixes, port ranges, and protocol sets, and cheap
// enough that checking stays linear in the network size (the property Figure
// 10 depends on; a full SMT solver would not give that).
#ifndef SRC_SYMEXEC_VALUE_SET_H_
#define SRC_SYMEXEC_VALUE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/netcore/ip.h"

namespace innet::symexec {

class ValueSet {
 public:
  struct Interval {
    uint64_t lo;
    uint64_t hi;  // inclusive
    friend bool operator==(const Interval& a, const Interval& b) {
      return a.lo == b.lo && a.hi == b.hi;
    }
  };

  // The empty set.
  ValueSet() = default;

  static ValueSet Full() { return ValueSet({{0, UINT64_MAX}}); }
  static ValueSet Single(uint64_t v) { return ValueSet({{v, v}}); }
  static ValueSet Range(uint64_t lo, uint64_t hi) {
    return lo <= hi ? ValueSet({{lo, hi}}) : ValueSet();
  }
  static ValueSet FromPrefix(const Ipv4Prefix& prefix) {
    return Range(prefix.first().value(), prefix.last().value());
  }

  bool IsEmpty() const { return intervals_.empty(); }
  bool IsFull() const {
    return intervals_.size() == 1 && intervals_[0].lo == 0 && intervals_[0].hi == UINT64_MAX;
  }
  bool Contains(uint64_t v) const;
  bool IsSingle() const {
    return intervals_.size() == 1 && intervals_[0].lo == intervals_[0].hi;
  }
  // Only valid when IsSingle().
  uint64_t SingleValue() const { return intervals_[0].lo; }

  ValueSet Intersect(const ValueSet& other) const;
  ValueSet Union(const ValueSet& other) const;
  // this \ other.
  ValueSet Subtract(const ValueSet& other) const;

  uint64_t Count() const;
  const std::vector<Interval>& intervals() const { return intervals_; }
  std::string ToString() const;

  friend bool operator==(const ValueSet& a, const ValueSet& b) {
    return a.intervals_ == b.intervals_;
  }

 private:
  explicit ValueSet(std::vector<Interval> intervals) : intervals_(std::move(intervals)) {}
  void Normalize();

  std::vector<Interval> intervals_;
};

}  // namespace innet::symexec

#endif  // SRC_SYMEXEC_VALUE_SET_H_
