// The workload driver: one measured repetition of one workload.
#ifndef PERFBENCH_DRIVER_DRIVER_H_
#define PERFBENCH_DRIVER_DRIVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "driver/gen.h"

namespace perfbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 2;        // Measured window.
  bool trace = false;        // Record spans and per-layer counters.
  std::string work_dir;      // Scratch directory for the ledger's WAL files.
};

struct RunResult {
  bool correct = true;
  std::string why;  // First correctness violation.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // End-to-end, plus per-layer when traced.
  std::map<std::string, double> info;     // Sample counts and run facts.

  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

RunResult RunWorkload(const RunConfig& config);

// Per-layer ledger: replays the workload's inputs single-threaded against
// each layer alone and adds the ledger metrics to `result`.
void RunLedger(const RunConfig& config, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_DRIVER_H_
