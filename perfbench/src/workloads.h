#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

/// \file workloads.h
/// The three workloads. Each builds the shared stack (three engines,
/// plus the serving tier for serve_*), drives a fixed, seeded number of
/// operations through a closed loop, checks every output outside the
/// timed window and fills `result` with the end-to-end metrics.

namespace perfbench {

/// A run is this many rounds, each starting with a fresh set-up; the
/// median set-up time is setup_s. paper_suite and serve_hot spread their
/// timed work over the rounds, serve_live times it on the last.
constexpr int kRounds = 3;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed work: each workload turns it into a request count
  /// with its own constant (paper_suite: one pass per 13 s); the count
  /// never depends on the clock.
  int seconds = 40;
  /// Only generate the request sequences and print their digests.
  bool plan_only = false;
};

/// The first round's set-up is timed from process start, the others
/// from the end of the previous round's teardown. Each round's peak RSS
/// is read separately (see ResetPeakRss).
void RunPaperSuite(const RunOptions& options, Tracer* tracer,
                   RunResult* result);
void RunServeHot(const RunOptions& options, Tracer* tracer,
                 RunResult* result);
void RunServeLive(const RunOptions& options, Tracer* tracer,
                  RunResult* result);

}  // namespace perfbench
