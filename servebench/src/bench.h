// Shared pieces of the served-latency benchmark: arguments, the metric
// report (every value tagged measured / modelled / count), the in-memory
// span trace, closed-loop clients, answer checks and process probes.
//
// The benchmark only calls the library's public API; every span and every
// timing below is taken in these files, around calls into a layer.

#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bwd/bwd_table.h"
#include "core/plan.h"
#include "core/plan_exec.h"
#include "core/query.h"
#include "device/device.h"
#include "server/query_server.h"

namespace servebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// How a number came about: host wall/CPU time, SimClock model output, or
/// an exact count (counts and ratios of counts).
enum class Kind { kMeasured, kModelled, kCount };

/// Every metric the benchmark can print, by name, with unit and kind.
/// End-to-end metrics are printed by the untraced run, per-layer metrics by
/// the traced run; BENCHMARK.json lists the same names.
struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Collected metric values plus the reason for every per-layer metric a
/// workload does not exercise.
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Marks a metric the workload does not exercise; it prints as 0 in the
  /// result line and with the reason in the table and the trace file.
  void Absent(const std::string& name, std::string reason);
  /// Per-query-class detail rows (trace file and table only).
  void Detail(const std::string& name, double value, const char* unit,
              Kind kind);
  /// Deterministic counters: must repeat exactly for a fixed seed.
  void Counter(const std::string& name, uint64_t value);

  /// Copies every value, detail row and counter whose name starts with
  /// `prefix` from `from`.
  void CopyPrefixed(const Report& from, const std::string& prefix);

  /// Prints the human-readable table and returns the `metrics` JSON object
  /// for the result line (end-to-end or per-layer set).
  std::string Render(bool per_layer) const;
  /// Writes details, counters and absence reasons as JSON fragments.
  std::string DetailsJson() const;

 private:
  struct DetailRow {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
  };
  std::map<std::string, double> values_;
  std::map<std::string, std::string> absent_;
  std::vector<DetailRow> details_;
  std::map<std::string, uint64_t> counters_;
};

/// Milliseconds since process start on the steady clock (span timebase).
double NowMs();

/// In-memory span trace. Disabled traces record nothing. Spans of one
/// request share `request`; `parent` is the index of the causing span
/// (-1 for roots). Each client thread records into its own Buffer and the
/// buffers are merged at the end, so recording takes no lock.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  std::string detail;  ///< e.g. query class and serving engine
};

class Trace {
 public:
  class Buffer {
   public:
    /// Returns the span's index within this buffer.
    int64_t Add(const char* name, double start_ms, double end_ms,
                int64_t parent, uint64_t request, std::string detail = "");
    std::vector<Span> spans;
    double record_seconds = 0;  ///< time spent recording (overhead)
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Takes ownership of a finished client buffer.
  void Merge(Buffer&& buffer);
  uint64_t num_spans() const { return spans_.size(); }
  double record_seconds() const { return record_seconds_; }
  /// Writes {"spans": [...], <extra>} to `path`.
  bool Write(const std::string& path, const std::string& extra_json) const;

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
  double record_seconds_ = 0;
};

/// One served request as the client saw it.
struct Sample {
  int query_class = 0;    ///< index into the workload's class names
  double submit_ms = 0;   ///< NowMs() at submission
  double ttfa_ms = 0;     ///< submit -> approximate answer
  double latency_ms = 0;  ///< submit -> refined answer
  double queue_ms = 0;    ///< server admission -> dequeue
  double service_ms = 0;  ///< server dequeue -> completion
  int engine = -1;        ///< inferred serving engine (server::EngineKind)
  bool ok = false;        ///< served without error and matched reference
};

/// Runs `clients` closed-loop clients until `seconds` have passed; each
/// iteration calls `one(client, iteration, buffer)`. Returns all samples
/// and the window from the first submission to the last completion.
struct ClientRun {
  std::vector<Sample> samples;
  double window_seconds = 0;
};
ClientRun RunClosedLoop(
    unsigned clients, double seconds, Trace* trace,
    const std::function<Sample(unsigned client, uint64_t iteration,
                               Trace::Buffer* buffer)>& one);

/// Decides whether a served answer is correct (refined and approximate).
using AnswerCheck =
    std::function<bool(const wastenot::server::QueryResponse& refined,
                       const wastenot::server::ApproximateResponse& approx)>;

/// Waits for both futures of one progressive submission and turns them into
/// a checked sample; records the request's spans into `buffer` if non-null.
Sample Collect(wastenot::server::ProgressiveFutures futures, double submit_ms,
               int query_class, const std::string& class_name,
               const AnswerCheck& check, Trace::Buffer* buffer);

/// Percentile by nearest rank (server::LatencyPercentile); 0 when empty.
double Pct(std::vector<double> values, double fraction);
double Median(std::vector<double> values);

/// True when the approximate answer is consistent with the exact result:
/// its row-count interval contains the exact row count and every exact
/// group's key tuple lies inside some approximate group's key bounds.
bool ApproxCovers(const wastenot::core::ApproximateAnswer& approx,
                  const wastenot::core::QueryResult& exact);

/// Process peak resident set (MiB), from getrusage.
double PeakRssMb();
/// Bytes this process has passed to write(2) so far (/proc/self/io wchar);
/// nullopt when the kernel does not expose it.
std::optional<uint64_t> ProcessWriteBytes();

/// Deterministic 64-bit stream for workload choices.
uint64_t SeedMix(uint64_t seed, uint64_t stream);

/// Records the served-request metrics (end-to-end and server layer) from
/// samples, with per-class latency detail; returns the summed request
/// latency in ms.
double ReportServing(const std::vector<Sample>& samples, double window_seconds,
                     const std::vector<std::string>& class_names,
                     Report* report);

/// Operations attempted and failed (errors, refusals, wrong answers).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double served_ms = 0;  ///< summed latency of the served requests
};

/// What the serial engine pass executes against.
struct EngineTarget {
  const wastenot::cs::Database* db = nullptr;
  const wastenot::bwd::BwdTable* fact = nullptr;
  const wastenot::bwd::BwdTable* dim = nullptr;       ///< single-join dimension
  const wastenot::core::BwdTableMap* dims = nullptr;  ///< plan dimensions
  wastenot::device::Device* dev = nullptr;
};

/// One query class of the serial pass: a spec or a plan, and the reference
/// answer every engine must return.
struct ClassQuery {
  std::string cls;
  const wastenot::core::QuerySpec* spec = nullptr;
  const wastenot::core::PhysicalPlan* plan = nullptr;
  const wastenot::core::QueryResult* ref = nullptr;
};

/// The traced run's serial engine pass: A&R (at 4 and 1 Phase-R threads),
/// single-threaded classic and streaming (cold, then warm) once per class,
/// timed here and recorded as spans under `parent`. Sets the core.* and
/// device.* per-layer metrics (sums over classes, per-class detail rows,
/// candidate/refined counters). Every answer is checked against the class
/// reference, and A&R counts must not depend on the thread count.
Outcome SerialEnginePass(const EngineTarget& target,
                         const std::vector<ClassQuery>& classes,
                         Trace::Buffer* buffer, int64_t parent,
                         Report* report);

/// Workload entry points. Each fills `report` (end-to-end metrics always;
/// per-layer metrics when args.trace).
Outcome RunTpchStreams(const Args& args, Trace* trace, Report* report);
Outcome RunTpchSolo(const Args& args, Trace* trace, Report* report);
Outcome RunTpchJoins(const Args& args, Trace* trace, Report* report);
Outcome RunIngestMix(const Args& args, Trace* trace, Report* report);

/// Work directory inside the checkout for WAL/snapshot files and traces.
std::string WorkDir();

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
