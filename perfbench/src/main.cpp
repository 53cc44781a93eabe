// mss_perfbench: single-process end-to-end load driver.
//
//   mss_perfbench --workload serve-cold|serve-warm|calibrated-explore
//                 --seed N --seconds S --trace 0|1
//                 [--small] [--corrupt-row] [--out-dir D] [--data-dir D]
//                 [--write-reference]
//
// Prints one detail line ({"detail": {...}}: host, sample counts, notes)
// and, last, the result line {"correct","attempted","failed","metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits 2 on a usage or set-up error and 3 when a percentile lacks
// the samples to back it; neither prints a result.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr, "mss_perfbench: %s\n", msg);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") cfg.seed = std::stoull(value());
      else if (a == "--seconds") cfg.seconds = std::stoi(value());
      else if (a == "--trace") cfg.trace = std::stoi(value()) != 0;
      else if (a == "--small") cfg.small = true;
      else if (a == "--corrupt-row") cfg.corrupt_row = true;
      else if (a == "--out-dir") cfg.out_dir = value();
      else if (a == "--data-dir") cfg.data_dir = value();
      else if (a == "--write-reference") cfg.write_reference = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (cfg.seconds < 1) return usage("--seconds must be at least 1");

  RunResult r;
  try {
    std::filesystem::create_directories(cfg.out_dir);
    if (cfg.workload == "serve-cold") r = run_serve_cold(cfg);
    else if (cfg.workload == "serve-warm") r = run_serve_warm(cfg);
    else if (cfg.workload == "calibrated-explore") r = run_calibrated_explore(cfg);
    else return usage(("unknown workload '" + cfg.workload + "'").c_str());
  } catch (const GuardError& e) {
    std::fprintf(stderr, "mss_perfbench: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mss_perfbench: %s\n", e.what());
    return 2;
  }

  std::string detail = "{\"detail\":{\"workload\":" + json_str(cfg.workload) +
                       ",\"seed\":" + std::to_string(cfg.seed) +
                       ",\"trace\":" + (cfg.trace ? "1" : "0");
  for (const auto& [k, v] : r.detail) {
    detail += ',';
    detail += json_str(k);
    detail += ':';
    detail += v;
  }
  detail += "}}";

  std::string line = std::string("{\"correct\":") +
                     (r.correct && r.failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) line += ',';
    line += json_str(name);
    line += ":{\"value\":";
    line += json_num(m.value);
    line += ",\"unit\":";
    line += json_str(m.unit);
    line += '}';
    first = false;
  }
  line += "}}";
  std::cout << detail << "\n" << line << std::endl;
  return 0;
}
