// perfbench_driver: runs one repetition of one workload and prints one JSON
// line. run.py calls it several times per benchmark run and aggregates.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>]
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "driver/driver.h"

namespace {

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintMap(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::putchar(',');
    first = false;
    PrintJsonString(k);
    std::printf(":%.17g", std::isfinite(v) ? v : 0.0);
  }
  std::putchar('}');
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.work_dir = ".bench_build/work";
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return Usage();
    }
  }
  cfg.spec = perfbench::FindWorkload(workload);
  if (cfg.spec == nullptr || cfg.seconds <= 0) return Usage();
  const unsigned long long digest = perfbench::InputDigest(*cfg.spec, cfg.seed);
  std::filesystem::create_directories(cfg.work_dir);
  // Sleeps end within a microsecond of their deadline instead of the default
  // 50 us slack, so the open-loop generator can sleep rather than spin.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  perfbench::RunResult r = perfbench::RunWorkload(cfg);
  if (cfg.trace && r.correct) perfbench::RunLedger(cfg, &r);

  std::printf("{\"workload\":");
  PrintJsonString(workload);
  std::printf(",\"seed\":%llu,\"digest\":\"%016llx\",\"trace\":%s,\"correct\":%s,\"why\":",
              static_cast<unsigned long long>(cfg.seed), digest, cfg.trace ? "true" : "false",
              r.correct ? "true" : "false");
  PrintJsonString(r.why);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"metrics\":",
              static_cast<unsigned long long>(r.attempted), static_cast<unsigned long long>(r.failed));
  PrintMap(r.metrics);
  std::printf(",\"info\":");
  PrintMap(r.info);
  std::printf("}\n");
  return r.correct ? 0 : 1;
}
