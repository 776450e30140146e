// Shared machinery of the wall-clock benchmark: input generation, timing,
// in-memory spans, allocation counters, the host-speed probe and the result
// record every workload fills.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: the benchmark's own input generator, so a change to the
// program's RNG never changes the inputs it is measured on.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Next() % (hi - lo + 1); }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Next() % i]);
    }
  }

 private:
  uint64_t state_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// q in [0, 1], linear interpolation between order statistics.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

// Global operator new calls and bytes requested by the calling thread since
// process start (counted by the replacement operators in alloc_count.cc).
struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};
AllocCount AllocsNow();

// Spans recorded around calls into the program's public layer functions.
// They stay in memory until WriteJsonl at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;   // index of the enclosing span, -1 at the root
    uint32_t request;  // the operation the span belongs to
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_request(uint32_t request) { request_ = request; }

  // Opens a span; returns its index (or -1 when disabled or full).
  int Begin(const char* name);
  // Closes the span Begin returned and returns its duration in ns.
  int64_t End(int index);

  // Durations of every closed span named `name`, in ns.
  std::vector<double> Durations(const std::string& name) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  static constexpr size_t kCapacity = 100000;
  bool enabled_ = false;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times `fn` under a span named `name` when the log is enabled; returns the
// call's wall time in ns either way.
template <typename Fn>
int64_t Timed(SpanLog* log, const char* name, Fn&& fn) {
  int span = log->Begin(name);
  int64_t start = NowNs();
  fn();
  int64_t took = NowNs() - start;
  log->End(span);
  return took;
}

// Opens a root span for one operation and tags every span inside it with
// the operation's request id.
class RequestSpan {
 public:
  RequestSpan(SpanLog* log, const char* name, uint32_t request) : log_(log) {
    log_->set_request(request);
    index_ = log_->Begin(name);
  }
  ~RequestSpan() { log_->End(index_); }
  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

// Wall time of a fixed loop that uses no program code: it tracks the host's
// speed, so a later reader can tell a host slowdown from a code change.
double CalibrationMs();

struct Metric {
  double value = 0;
  std::string unit;
  // Samples behind a per-layer value; 0 means the workload never called the
  // layer, so the value is taken from the census.
  size_t samples = 0;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few mismatches, for stderr
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void Fail(const std::string& what, uint64_t ops = 1);
  void Layer(const std::string& name, const std::vector<double>& samples, double scale,
             const char* unit);
  void LayerValue(const std::string& name, double value, const char* unit, size_t samples = 1);
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end[name] = Metric{value, unit, 1};
  }
};

// Resident-set high-water mark of this process so far, MiB.
double PeakRssMb();

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string span_path;  // where a traced run writes its spans
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
