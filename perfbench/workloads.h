// The three closed-loop, one-client workloads. Each fills a Report with the
// end-to-end metrics of the path it drives and, when traced, the per-layer
// metrics of the layers it calls.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <limits>

#include "perfbench/harness.h"

namespace perfbench {

// Scale of one workload run. `rounds` > 0 bounds the measured phase by work
// instead of time; the census (see main.cc) uses that to run a workload
// small and traced.
struct Scale {
  int tenants = 0;
  int rounds = 0;
  int setups = 1;
};

Report RunDeploySteady(const RunConfig& config, const Scale& scale, SpanLog* log);
Report RunForwardImix(const RunConfig& config, const Scale& scale, SpanLog* log);
Report RunFlowSetup(const RunConfig& config, const Scale& scale, SpanLog* log);

// Full-size scales of the measured runs.
Scale DeploySteadyScale();
Scale ForwardImixScale();
Scale FlowSetupScale();

// The latencies (ns) of one stretch of a measured phase. Each workload has
// a main operation and two side operations.
struct Window {
  double seconds = 0;
  uint64_t ops = 0;
  std::vector<double> main, side1, side2;
};

// The host these numbers come from slows down by 1.5-1.7x in episodes that
// last from milliseconds to seconds, for every workload alike; a run spends
// most of its time in them. So a phase is cut into short windows of a fixed
// number of rounds, and each rate or median is taken from the run's best
// window: slowdowns only add time, so the best window tracks the program's
// own speed, which is what a code change can move.
class Phase {
 public:
  // Folds a finished window into the phase and clears it for reuse. A
  // window that is not `comparable` (cut short) only adds its ops.
  void Close(Window* window, bool comparable = true);

  uint64_t ops() const { return ops_; }
  double BestRate() const { return best_rate_; }
  // Lowest window median of each part, among windows with samples of it.
  double BestMain() const { return best_main_; }
  double BestSide1() const { return best_side1_; }
  double BestSide2() const { return best_side2_; }

 private:
  uint64_t ops_ = 0;
  double best_rate_ = 0;
  double best_main_ = std::numeric_limits<double>::infinity();
  double best_side1_ = std::numeric_limits<double>::infinity();
  double best_side2_ = std::numeric_limits<double>::infinity();
};

// Runs `round(window)` until `seconds` elapsed, or exactly `rounds` rounds
// when non-zero, closing a window every `per_window` rounds. A trailing
// partial window is compared only when it is the only one.
template <typename Round>
Phase RunWindows(double seconds, int rounds, int per_window, Round&& round) {
  Phase phase;
  Window window;
  int64_t start = NowNs();
  int64_t window_start = start;
  int64_t limit = static_cast<int64_t>(seconds * 1e9);
  int done = 0;
  for (; rounds > 0 ? done < rounds : NowNs() - start < limit; ++done) {
    round(window);
    if ((done + 1) % per_window == 0) {
      window.seconds = static_cast<double>(NowNs() - window_start) / 1e9;
      phase.Close(&window);
      window_start = NowNs();
    }
  }
  window.seconds = static_cast<double>(NowNs() - window_start) / 1e9;
  phase.Close(&window, done < per_window);
  return phase;
}

// Times `setup()` `count` times; each call builds a fresh world.
template <typename Setup>
std::vector<double> TimeSetups(int count, Setup&& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < count; ++i) {
    int64_t start = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return seconds;
}

enum PhaseKind { kWarm, kPlain, kTraced };

// A run's phases: warm-up rounds, the untraced measurement (all of
// `seconds`, or its first half in a traced run) and the traced one, with the
// host probe timed before and after the measured phases. The peak RSS is
// read after the warm-up: the measured phases run for a fixed time, so
// memory that grows per operation would otherwise grow with the host's speed.
struct Phases {
  Phase phase[3];
  std::vector<double> calib_ms;
  double peak_rss_mb = 0;
};

// `run(kind, seconds, rounds)` runs one phase of the workload and returns it.
template <typename Run>
Phases RunPhases(const RunConfig& config, const Scale& scale, int warm_rounds, SpanLog* log,
                 Run&& run) {
  Phases p;
  p.phase[kWarm] = run(kWarm, 0.0, warm_rounds);
  p.peak_rss_mb = PeakRssMb();
  p.calib_ms.push_back(CalibrationMs());
  if (scale.rounds == 0) {
    p.phase[kPlain] = run(kPlain, config.trace ? config.seconds / 2 : config.seconds, 0);
  }
  if (config.trace) {
    log->set_enabled(true);
    p.phase[kTraced] = run(kTraced, config.seconds / 2, scale.rounds);
    log->set_enabled(false);
  }
  p.calib_ms.push_back(CalibrationMs());
  return p;
}

// Fills `attempted`, the end-to-end metrics of an untraced run and, for a
// full-size traced run, trace.overhead and host.calib_ms.
void ReportPhases(const RunConfig& config, const Scale& scale, const Phases& phases,
                  const std::vector<double>& setup_s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
