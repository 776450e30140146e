#include "src/obs/int_telemetry.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "src/obs/health.h"
#include "src/obs/trace.h"

namespace innet::obs {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// Path latency spans a single cheap hop (~50 ns) to a multi-second queue
// wait: 64ns .. ~2.1s.
std::vector<double> PathLatencyBucketsNs() { return ExponentialBuckets(64.0, 4.0, 13); }

std::string JoinChain(const std::vector<std::string>& chain) {
  std::string text;
  for (const std::string& element : chain) {
    if (!text.empty()) {
      text.push_back(';');
    }
    text.append(element);
  }
  return text;
}

void AppendHex(std::string* out, uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  char buf[16];
  int len = 0;
  do {
    buf[len++] = kDigits[value & 0xf];
    value >>= 4;
  } while (value != 0);
  while (len > 0) {
    out->push_back(buf[--len]);
  }
}

bool ParseHexList(const std::string& text, std::vector<uint64_t>* out) {
  out->clear();
  if (text.empty()) {
    return true;
  }
  uint64_t value = 0;
  bool have_digit = false;
  for (char c : text) {
    if (c == ',') {
      if (!have_digit) {
        return false;
      }
      out->push_back(value);
      value = 0;
      have_digit = false;
      continue;
    }
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
    have_digit = true;
  }
  if (!have_digit) {
    return false;
  }
  out->push_back(value);
  return true;
}

}  // namespace

uint64_t HashChain(const std::vector<std::string>& chain) {
  uint64_t hash = kFnvOffset;
  bool first = true;
  for (const std::string& element : chain) {
    if (!first) {
      hash = (hash ^ static_cast<uint64_t>(';')) * kFnvPrime;
    }
    first = false;
    for (char c : element) {
      hash = (hash ^ static_cast<uint64_t>(static_cast<unsigned char>(c))) * kFnvPrime;
    }
  }
  return hash;
}

bool IntPathDigest::MatchesFull(uint64_t hash) const {
  return std::binary_search(full_paths.begin(), full_paths.end(), hash);
}

bool IntPathDigest::MatchesPrefix(uint64_t hash) const {
  return std::binary_search(prefixes.begin(), prefixes.end(), hash);
}

std::string IntPathDigest::Encode() const {
  std::string out = "intd1:";
  out.push_back(truncated ? 't' : 'c');
  out.push_back(':');
  bool first = true;
  for (uint64_t hash : full_paths) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendHex(&out, hash);
  }
  out.push_back(':');
  first = true;
  for (uint64_t hash : prefixes) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    AppendHex(&out, hash);
  }
  return out;
}

bool IntPathDigest::Decode(const std::string& text, IntPathDigest* out) {
  constexpr std::string_view kPrefix = "intd1:";
  // Shortest legal form is the empty digest "intd1:c::" — flag, separator,
  // and two (possibly empty) hash lists.
  if (text.size() < kPrefix.size() + 3 || text.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  char flag = text[kPrefix.size()];
  if ((flag != 't' && flag != 'c') || text[kPrefix.size() + 1] != ':') {
    return false;
  }
  size_t body = kPrefix.size() + 2;
  size_t sep = text.find(':', body);
  if (sep == std::string::npos) {
    return false;
  }
  IntPathDigest digest;
  digest.truncated = flag == 't';
  if (!ParseHexList(text.substr(body, sep - body), &digest.full_paths) ||
      !ParseHexList(text.substr(sep + 1), &digest.prefixes)) {
    return false;
  }
  std::sort(digest.full_paths.begin(), digest.full_paths.end());
  std::sort(digest.prefixes.begin(), digest.prefixes.end());
  *out = std::move(digest);
  return true;
}

void IntCollector::SetTenantDigest(const std::string& tenant, const IntPathDigest& digest) {
  if (tenant.empty()) {
    return;
  }
  IntPathDigest sorted = digest;
  std::sort(sorted.full_paths.begin(), sorted.full_paths.end());
  sorted.full_paths.erase(std::unique(sorted.full_paths.begin(), sorted.full_paths.end()),
                          sorted.full_paths.end());
  std::sort(sorted.prefixes.begin(), sorted.prefixes.end());
  sorted.prefixes.erase(std::unique(sorted.prefixes.begin(), sorted.prefixes.end()),
                        sorted.prefixes.end());
  digests_[tenant] = std::move(sorted);
}

void IntCollector::ClearTenantDigest(const std::string& tenant) { digests_.erase(tenant); }

bool IntCollector::HasTenantDigest(const std::string& tenant) const {
  return digests_.count(tenant) != 0;
}

const IntPathDigest* IntCollector::FindTenantDigest(const std::string& tenant) const {
  auto it = digests_.find(tenant);
  return it == digests_.end() ? nullptr : &it->second;
}

void IntCollector::CountStatus(const std::string& status) {
  ++status_counts_[status];
  registry_->GetCounter("innet_int_postcards_total", {{"status", status}})->Increment();
}

void IntCollector::Fold(const IntPostcard& postcard) {
  if (!enabled_) {
    return;
  }
  ++postcards_;
  for (const IntPostcardHop& hop : postcard.hops) {
    registry_->GetCounter("innet_int_hop_ns_total", {{"element", hop.element}})
        ->Increment(hop.hop_ns);
  }
  if (postcard.truncated_hops > 0) {
    registry_->GetCounter("innet_int_hops_truncated_total", {})
        ->Increment(postcard.truncated_hops);
  }

  std::string chain_text = JoinChain(postcard.chain);
  std::string status;
  bool conformant = true;
  if (postcard.tenant.empty()) {
    status = "unattributed";
  } else {
    status = postcard.egress ? "egress" : "drop";
    registry_
        ->GetHistogram("innet_int_path_latency_ns", {{"tenant", postcard.tenant}},
                       PathLatencyBucketsNs())
        ->Observe(static_cast<double>(postcard.path_ns));
    auto digest_it = digests_.find(postcard.tenant);
    if (digest_it == digests_.end()) {
      status = "unattested";
    } else if (digest_it->second.truncated || postcard.truncated_hops > 0) {
      // Either side ran out of budget: the sets (or the observed chain) are
      // incomplete, so a mismatch proves nothing. Counted above, not flagged.
    } else {
      uint64_t hash = HashChain(postcard.chain);
      conformant = postcard.egress ? digest_it->second.MatchesFull(hash)
                                   : digest_it->second.MatchesPrefix(hash);
      if (!conformant) {
        ++violations_;
        ++tenant_violations_[postcard.tenant];
        registry_
            ->GetCounter("innet_path_conformance_violations_total",
                         {{"tenant", postcard.tenant}})
            ->Increment();
        if (Tracer().enabled()) {
          Tracer().RecordNow(EventKind::kPathViolation, "tenant:" + postcard.tenant,
                             (postcard.egress ? "egress:" : "drop:") + chain_text,
                             static_cast<int64_t>(postcard.path_ns));
        }
        Health().CountPathViolation(postcard.tenant);
      }
    }
    ChainStats& stats = chains_[postcard.tenant][chain_text];
    if (stats.count == 0 || postcard.path_ns < stats.min_ns) {
      stats.min_ns = postcard.path_ns;
    }
    if (postcard.path_ns > stats.max_ns) {
      stats.max_ns = postcard.path_ns;
    }
    ++stats.count;
    stats.total_ns += postcard.path_ns;
    if (!conformant) {
      ++stats.violations;
    }
    if (postcard.egress) {
      stats.egress = true;
    }
  }
  CountStatus(status);

  std::string line = "t=" + (postcard.tenant.empty() ? "-" : postcard.tenant) +
                     " vm=" + postcard.vm + " " + status +
                     " chain=" + (chain_text.empty() ? "-" : chain_text) +
                     " ns=" + std::to_string(postcard.path_ns);
  if (!conformant) {
    line += " VIOLATION";
  }
  recent_.push_back(std::move(line));
  while (recent_.size() > recent_depth_) {
    recent_.pop_front();
  }
}

uint64_t IntCollector::TenantViolations(const std::string& tenant) const {
  auto it = tenant_violations_.find(tenant);
  return it == tenant_violations_.end() ? 0 : it->second;
}

std::vector<std::string> IntCollector::RecentPostcards() const {
  return {recent_.begin(), recent_.end()};
}

json::Value IntCollector::ToJson() const {
  json::Value root = json::Value::Object();
  root.Set("postcards", postcards_);
  root.Set("violations", violations_);
  json::Value status = json::Value::Object();
  for (const auto& [name, count] : status_counts_) {
    status.Set(name, count);
  }
  root.Set("status", std::move(status));

  // Union of tenants with a registered digest and tenants with observed
  // postcards, in sorted order.
  std::set<std::string> tenant_names;
  for (const auto& [tenant, digest] : digests_) {
    tenant_names.insert(tenant);
  }
  for (const auto& [tenant, rows] : chains_) {
    tenant_names.insert(tenant);
  }
  json::Value tenants = json::Value::Array();
  for (const std::string& tenant : tenant_names) {
    json::Value entry = json::Value::Object();
    entry.Set("tenant", tenant);
    auto digest_it = digests_.find(tenant);
    entry.Set("attested", digest_it != digests_.end());
    if (digest_it != digests_.end()) {
      entry.Set("digest_paths", static_cast<uint64_t>(digest_it->second.full_paths.size()));
      entry.Set("digest_truncated", digest_it->second.truncated);
    }
    entry.Set("violations", TenantViolations(tenant));
    json::Value paths = json::Value::Array();
    auto chain_it = chains_.find(tenant);
    if (chain_it != chains_.end()) {
      for (const auto& [chain, stats] : chain_it->second) {
        json::Value row = json::Value::Object();
        row.Set("chain", chain);
        row.Set("count", stats.count);
        row.Set("total_ns", stats.total_ns);
        row.Set("avg_ns", stats.count == 0 ? uint64_t{0} : stats.total_ns / stats.count);
        row.Set("min_ns", stats.min_ns);
        row.Set("max_ns", stats.max_ns);
        row.Set("violations", stats.violations);
        row.Set("delivered", stats.egress);
        paths.Push(std::move(row));
      }
    }
    entry.Set("paths", std::move(paths));
    tenants.Push(std::move(entry));
  }
  root.Set("tenants", std::move(tenants));

  json::Value recent = json::Value::Array();
  for (const std::string& line : recent_) {
    recent.Push(line);
  }
  root.Set("recent", std::move(recent));
  return root;
}

void IntCollector::Clear() {
  postcards_ = 0;
  violations_ = 0;
  digests_.clear();
  status_counts_.clear();
  tenant_violations_.clear();
  chains_.clear();
  recent_.clear();
}

IntCollector& IntCollector::Global() {
  static IntCollector* collector = new IntCollector();
  return *collector;
}

}  // namespace innet::obs
