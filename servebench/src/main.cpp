// servebench: served-latency benchmark over the public server API.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a metric table (lines starting with '#') and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. A traced run
// also writes its spans, tagged per-layer records and deterministic counters
// to .bench_build/servebench-work/trace-<workload>-<seed>.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using servebench::Args;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "<tpch_streams|tpch_solo|tpch_joins|ingest_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed must be an integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0 || args.seconds > 120) {
        Usage("--seconds must be in (0, 120]");
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      Usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace servebench;
  const Args args = Parse(argc, argv);
  Outcome (*run)(const Args&, Trace*, Report*) = nullptr;
  if (args.workload == "tpch_streams") run = RunTpchStreams;
  if (args.workload == "tpch_solo") run = RunTpchSolo;
  if (args.workload == "tpch_joins") run = RunTpchJoins;
  if (args.workload == "ingest_mix") run = RunIngestMix;
  if (run == nullptr) Usage(("unknown workload " + args.workload).c_str());

  std::filesystem::create_directories(WorkDir());
  NowMs();  // fixes the span timebase
  Trace trace(args.trace);
  Report report;
  const Outcome outcome = run(args, &trace, &report);

  if (args.trace) {
    // Tracing cost on the request path: time spent recording spans as a
    // share of the served requests' summed latency.
    const double served_ms = outcome.served_ms;
    report.Set("trace.spans", static_cast<double>(trace.num_spans()));
    report.Set("trace.overhead_pct",
               served_ms > 0 ? 100.0 * trace.record_seconds() * 1e3 / served_ms
                             : 0);
  }
  const std::string metrics = report.Render(args.trace);
  if (args.trace) {
    const std::string path = WorkDir() + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!trace.Write(path, report.DetailsJson())) {
      std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# trace written to %s\n", path.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
