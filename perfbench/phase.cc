#include <algorithm>

#include "perfbench/workloads.h"

namespace perfbench {

namespace {

void KeepLowestMedian(const std::vector<double>& samples, double* best) {
  if (!samples.empty()) {
    *best = std::min(*best, Median(samples));
  }
}

}  // namespace

void Phase::Close(Window* window, bool comparable) {
  ops_ += window->ops;
  if (comparable && window->seconds > 0) {
    best_rate_ = std::max(best_rate_, static_cast<double>(window->ops) / window->seconds);
    KeepLowestMedian(window->main, &best_main_);
    KeepLowestMedian(window->side1, &best_side1_);
    KeepLowestMedian(window->side2, &best_side2_);
  }
  window->seconds = 0;
  window->ops = 0;
  window->main.clear();
  window->side1.clear();
  window->side2.clear();
}

void ReportPhases(const RunConfig& config, const Scale& scale, const Phases& phases,
                  const std::vector<double>& setup_s, Report* report) {
  const Phase& plain = phases.phase[kPlain];
  const Phase& traced = phases.phase[kTraced];
  report->attempted = phases.phase[kWarm].ops() + plain.ops() + traced.ops();
  if (scale.rounds != 0) {
    return;  // a census run: only its layers count
  }
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", phases.peak_rss_mb, "MiB");
  report->EndToEnd("best_ops_per_s", plain.BestRate(), "1/s");
  report->EndToEnd("best_main_p50_us", plain.BestMain() / 1e3, "us");
  report->EndToEnd("best_side1_p50_us", plain.BestSide1() / 1e3, "us");
  report->EndToEnd("best_side2_p50_us", plain.BestSide2() / 1e3, "us");
  if (config.trace) {
    report->LayerValue("trace.overhead", traced.BestMain() / plain.BestMain(), "ratio");
    report->LayerValue("host.calib_ms", Median(phases.calib_ms), "ms", phases.calib_ms.size());
  }
}

}  // namespace perfbench
