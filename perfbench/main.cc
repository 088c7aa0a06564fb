// Entry point of the repo benchmark (see README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 0 only when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* s, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

// JSON string body: escapes quotes and backslashes, flattens newlines.
std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed takes an integer");
      options.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("--trace takes 0 or 1");
      options.trace = n == 1;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == options.workload;
  }
  if (!known) return Usage(("unknown workload " + options.workload).c_str());

  perfbench::RunResult result = perfbench::RunWorkload(options);
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.correct = false;
      result.problems.push_back("metric " + m.name + " is not finite");
    }
  }
  for (const std::string& p : result.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s %s: %s, %llu attempted, %llu failed\n",
              options.workload.c_str(), options.trace ? "traced" : "untraced",
              result.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + Escaped(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + Escaped(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct ? 0 : 1;
}
