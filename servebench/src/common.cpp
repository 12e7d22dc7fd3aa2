#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "server/query_server.h"
#include "util/random.h"

namespace servebench {

namespace {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kMeasured: return "measured";
    case Kind::kModelled: return "modelled";
    case Kind::kCount: return "count";
  }
  return "?";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s", Kind::kMeasured},
      {"qps", "1/s", Kind::kMeasured},
      {"latency_p50_ms", "ms", Kind::kMeasured},
      {"ttfa_p50_ms", "ms", Kind::kMeasured},
      {"device_mb", "MB", Kind::kCount},
      {"peak_rss_mb", "MB", Kind::kMeasured},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      // Served requests (the traced run's own serving window).
      {"e2e.queries", "count", Kind::kCount},
      {"e2e.failed_frac", "ratio", Kind::kCount},
      {"e2e.latency_p90_ms", "ms", Kind::kMeasured},
      {"e2e.latency_p99_ms", "ms", Kind::kMeasured},
      // workloads / bwd: set-up.
      {"workloads.generate_s", "s", Kind::kMeasured},
      {"bwd.decompose_s", "s", Kind::kMeasured},
      {"bwd.device_bytes", "bytes", Kind::kCount},
      {"bwd.residual_bytes", "bytes", Kind::kCount},
      // core A&R, one serial call per query class, summed over classes.
      {"core.ar.phase_a_wall_ms", "ms", Kind::kMeasured},
      {"device.model_ms", "ms", Kind::kModelled},
      {"device.bus_model_ms", "ms", Kind::kModelled},
      {"core.ar.phase_r_wall_ms", "ms", Kind::kMeasured},
      {"core.ar.phase_r_cpu_per_wall", "ratio", Kind::kMeasured},
      {"core.ar.phase_r_speedup", "x", Kind::kMeasured},
      {"core.ar.candidates", "count", Kind::kCount},
      {"core.ar.refined", "count", Kind::kCount},
      {"core.ar.refine_yield", "ratio", Kind::kCount},
      // core classic (single-join) and the plan executors (multi-join).
      {"core.classic.wall_ms", "ms", Kind::kMeasured},
      {"core.plan.classic_wall_ms", "ms", Kind::kMeasured},
      {"core.plan.ar_wall_ms", "ms", Kind::kMeasured},
      {"core.plan.streaming_wall_ms", "ms", Kind::kMeasured},
      // streaming engine and the device's caches.
      {"core.streaming.host_wall_ms", "ms", Kind::kMeasured},
      {"core.streaming.bytes_transferred", "bytes", Kind::kCount},
      {"device.residency_hit_rate", "ratio", Kind::kCount},
      {"device.kernel_compiles", "count", Kind::kCount},
      // delta union (ingest).
      {"core.delta.extra_ms.ar", "ms", Kind::kMeasured},
      {"core.delta.extra_ms.classic", "ms", Kind::kMeasured},
      // server.
      {"server.queue_wait_p50_ms", "ms", Kind::kMeasured},
      {"server.queue_wait_p99_ms", "ms", Kind::kMeasured},
      {"server.service_p50_ms", "ms", Kind::kMeasured},
      {"server.max_queue_depth", "count", Kind::kCount},
      // scheduler.
      {"sched.dispatch_share.ar", "ratio", Kind::kCount},
      {"sched.dispatch_share.classic", "ratio", Kind::kCount},
      {"sched.dispatch_share.streaming", "ratio", Kind::kCount},
      {"sched.degraded", "count", Kind::kCount},
      {"sched.est_ratio.q1", "ratio", Kind::kMeasured},
      {"sched.est_ratio.q6", "ratio", Kind::kMeasured},
      {"sched.est_ratio.q14", "ratio", Kind::kMeasured},
      {"sched.est_ratio.q3", "ratio", Kind::kMeasured},
      {"sched.est_ratio.q10", "ratio", Kind::kMeasured},
      // storage (WAL, delta, re-decomposition).
      {"storage.flush_p50_ms", "ms", Kind::kMeasured},
      {"storage.flush_p99_ms", "ms", Kind::kMeasured},
      {"storage.drain_s", "s", Kind::kMeasured},
      {"storage.swaps", "count", Kind::kCount},
      {"storage.failed_swaps", "count", Kind::kCount},
      {"storage.delta_rows_max", "count", Kind::kCount},
      {"storage.wal_commits", "count", Kind::kCount},
      {"storage.write_amp", "ratio", Kind::kCount},
      // ingest writer (open loop).
      {"ingest.commit_p50_ms", "ms", Kind::kMeasured},
      {"ingest.commit_p99_ms", "ms", Kind::kMeasured},
      {"ingest.generator_late_p50_ms", "ms", Kind::kMeasured},
      {"ingest.generator_late_max_ms", "ms", Kind::kMeasured},
      // tracing itself.
      {"trace.spans", "count", Kind::kCount},
      {"trace.overhead_pct", "%", Kind::kMeasured},
  };
  return kDefs;
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
  absent_.erase(name);
}

void Report::Absent(const std::string& name, std::string reason) {
  if (values_.count(name) == 0) absent_[name] = std::move(reason);
}

void Report::Detail(const std::string& name, double value, const char* unit,
                    Kind kind) {
  details_.push_back({name, value, unit, kind});
}

void Report::Counter(const std::string& name, uint64_t value) {
  counters_[name] = value;
}

void Report::CopyPrefixed(const Report& from, const std::string& prefix) {
  auto match = [&](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  for (const auto& [name, value] : from.values_) {
    if (match(name)) Set(name, value);
  }
  for (const DetailRow& r : from.details_) {
    if (match(r.name)) details_.push_back(r);
  }
  for (const auto& [name, value] : from.counters_) {
    if (match(name)) counters_[name] = value;
  }
}

std::string Report::Render(bool per_layer) const {
  const std::vector<MetricDef>& defs =
      per_layer ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{";
  bool first = true;
  std::printf("# %-34s %16s %-6s %s\n", "metric", "value", "unit", "kind");
  for (const MetricDef& d : defs) {
    auto it = values_.find(d.name);
    double value = 0;
    if (it != values_.end()) {
      value = it->second;
      std::printf("# %-34s %16.4f %-6s %s\n", d.name, value, d.unit,
                  KindName(d.kind));
    } else {
      auto reason = absent_.find(d.name);
      std::printf("# %-34s %16s %-6s %s (absent: %s)\n", d.name, "-",
                  d.unit, KindName(d.kind),
                  reason != absent_.end() ? reason->second.c_str()
                                          : "not measured");
    }
    json += std::string(first ? "" : ", ") + Quote(d.name) +
            ": {\"value\": " + Num(value) + ", \"unit\": " + Quote(d.unit) +
            "}";
    first = false;
  }
  if (per_layer) {
    for (const DetailRow& r : details_) {
      std::printf("#   %-32s %16.4f %-6s %s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), KindName(r.kind));
    }
  }
  for (const auto& [name, value] : counters_) {
    std::printf("# counter %-32s %" PRIu64 "\n", name.c_str(), value);
  }
  return json + "}";
}

std::string Report::DetailsJson() const {
  std::ostringstream out;
  out << "\"metrics\": [";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const char* unit,
                  Kind kind, const std::string& absent) {
    out << (first ? "" : ",\n  ") << "{\"name\": " << Quote(name)
        << ", \"value\": " << Num(value) << ", \"unit\": " << Quote(unit)
        << ", \"kind\": \"" << KindName(kind) << "\"";
    if (!absent.empty()) out << ", \"absent\": " << Quote(absent);
    out << "}";
    first = false;
  };
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      auto it = values_.find(d.name);
      auto reason = absent_.find(d.name);
      emit(d.name, it != values_.end() ? it->second : 0, d.unit, d.kind,
           it != values_.end() ? ""
           : reason != absent_.end() ? reason->second
                                     : "not measured");
    }
  }
  for (const DetailRow& r : details_) {
    emit(r.name, r.value, r.unit.c_str(), r.kind, "");
  }
  out << "],\n\"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "" : ", ") << Quote(name) << ": " << value;
    first = false;
  }
  out << "}";
  return out.str();
}

double NowMs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

int64_t Trace::Buffer::Add(const char* name, double start_ms, double end_ms,
                           int64_t parent, uint64_t request,
                           std::string detail) {
  const auto t0 = std::chrono::steady_clock::now();
  spans.push_back(
      Span{name, start_ms, end_ms, parent, request, std::move(detail)});
  record_seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return static_cast<int64_t>(spans.size()) - 1;
}

void Trace::Merge(Buffer&& buffer) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span& s : buffer.spans) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  record_seconds_ += buffer.record_seconds;
}

bool Trace::Write(const std::string& path,
                  const std::string& extra_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i
        << ", \"name\": " << Quote(s.name) << ", \"start_ms\": "
        << Num(s.start_ms) << ", \"end_ms\": " << Num(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request;
    if (!s.detail.empty()) out << ", \"detail\": " << Quote(s.detail);
    out << "}";
  }
  out << "],\n" << extra_json << "}\n";
  return static_cast<bool>(out);
}

ClientRun RunClosedLoop(
    unsigned clients, double seconds, Trace* trace,
    const std::function<Sample(unsigned, uint64_t, Trace::Buffer*)>& one) {
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<Trace::Buffer> buffers(clients);
  const double start = NowMs();
  const double deadline = start + seconds * 1e3;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t i = 0; NowMs() < deadline; ++i) {
        per_client[c].push_back(
            one(c, i, trace->enabled() ? &buffers[c] : nullptr));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClientRun run;
  double end = start;
  for (unsigned c = 0; c < clients; ++c) {
    for (const Sample& s : per_client[c]) {
      end = std::max(end, s.submit_ms + s.latency_ms);
      run.samples.push_back(s);
    }
    if (trace->enabled()) trace->Merge(std::move(buffers[c]));
  }
  run.window_seconds = (end - start) / 1e3;
  return run;
}

Sample Collect(wastenot::server::ProgressiveFutures futures, double submit_ms,
               int query_class, const std::string& class_name,
               const AnswerCheck& check, Trace::Buffer* buffer) {
  using wastenot::server::EngineKind;
  Sample s;
  s.query_class = query_class;
  s.submit_ms = submit_ms;
  const wastenot::server::ApproximateResponse approx =
      futures.approximate.get();
  const double approx_ms = NowMs();
  const wastenot::server::QueryResponse refined = futures.refined.get();
  const double done_ms = NowMs();
  s.ttfa_ms = approx_ms - submit_ms;
  s.latency_ms = done_ms - submit_ms;
  s.queue_ms = refined.queue_seconds * 1e3;
  s.service_ms = (refined.latency_seconds - refined.queue_seconds) * 1e3;
  // The serving engine, from public response fields: only A&R resolves the
  // approximate answer ahead of the exact one; streaming charges the device.
  const auto& b = refined.breakdown;
  s.engine = static_cast<int>(
      !approx.exact_fallback ? EngineKind::kAr
      : (b.device_seconds > 0 || b.bus_seconds > 0) ? EngineKind::kStreaming
                                                      : EngineKind::kClassic);
  s.ok = refined.status.ok() && approx.status.ok() && check(refined, approx);
  if (!s.ok) {
    std::fprintf(stderr, "servebench: %s engine %d answer %s (%s)\n",
                 class_name.c_str(), s.engine,
                 refined.status.ok() ? "differs from reference" : "failed",
                 refined.status.ToString().c_str());
  }
  if (buffer != nullptr) {
    const uint64_t id = refined.id;
    const double admitted = done_ms - refined.latency_seconds * 1e3;
    static const char* kEngines[] = {"ar", "classic", "streaming"};
    const int64_t root =
        buffer->Add("request", submit_ms, done_ms, -1, id,
                    class_name + " engine=" + kEngines[s.engine]);
    buffer->Add("client.approximate", submit_ms, approx_ms, root, id);
    buffer->Add("client.admit", submit_ms, admitted, root, id);
    buffer->Add("server.queue", admitted, admitted + s.queue_ms, root, id);
    buffer->Add("server.execute", admitted + s.queue_ms,
                admitted + s.queue_ms + s.service_ms, root, id);
  }
  return s;
}

double Pct(std::vector<double> values, double fraction) {
  return wastenot::server::LatencyPercentile(std::move(values), fraction);
}

double Median(std::vector<double> values) {
  return Pct(std::move(values), 0.5);
}

bool ApproxCovers(const wastenot::core::ApproximateAnswer& approx,
                  const wastenot::core::QueryResult& exact) {
  if (!approx.row_count.Contains(static_cast<int64_t>(exact.selected_rows))) {
    return false;
  }
  // Approximate groups ordered by the lower bound of their first key; an
  // exact key k can only lie in groups whose first-key interval starts in
  // [k - widest interval, k].
  const auto& bounds = approx.key_bounds;
  std::vector<size_t> order(bounds.size());
  int64_t widest = 0;
  for (size_t g = 0; g < bounds.size(); ++g) {
    order[g] = g;
    if (!bounds[g].empty()) widest = std::max(widest, bounds[g][0].width());
  }
  auto lo = [&](size_t g) { return bounds[g].empty() ? 0 : bounds[g][0].lo; };
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return lo(a) < lo(b); });
  for (const auto& keys : exact.group_keys) {
    const int64_t k0 = keys.empty() ? 0 : keys[0];
    auto it = std::upper_bound(order.begin(), order.end(), k0,
                               [&](int64_t k, size_t g) { return k < lo(g); });
    bool covered = false;
    while (!covered && it != order.begin()) {
      const size_t g = *--it;
      if (lo(g) < k0 - widest) break;
      if (bounds[g].size() != keys.size()) return false;
      covered = true;
      for (size_t k = 0; k < keys.size() && covered; ++k) {
        covered = bounds[g][k].Contains(keys[k]);
      }
    }
    if (!covered) return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::optional<uint64_t> ProcessWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return std::nullopt;
}

uint64_t SeedMix(uint64_t seed, uint64_t stream) {
  return wastenot::Mix64(wastenot::Mix64(seed) ^ (stream * 0x9E3779B97F4A7C15ull));
}

double ReportServing(const std::vector<Sample>& samples,
                     double window_seconds,
                     const std::vector<std::string>& class_names,
                     Report* report) {
  std::vector<double> latency, ttfa, queue, service;
  uint64_t failed = 0;
  double sum = 0;
  for (const Sample& s : samples) {
    sum += s.latency_ms;
    latency.push_back(s.latency_ms);
    ttfa.push_back(s.ttfa_ms);
    queue.push_back(s.queue_ms);
    service.push_back(s.service_ms);
    failed += s.ok ? 0 : 1;
  }
  const size_t n = samples.size();
  report->Set("qps", window_seconds > 0 ? n / window_seconds : 0);
  report->Set("latency_p50_ms", Median(latency));
  report->Set("ttfa_p50_ms", Median(ttfa));
  report->Set("e2e.queries", static_cast<double>(n));
  report->Set("e2e.failed_frac", n == 0 ? 0 : static_cast<double>(failed) / n);
  if (n >= 100) {
    report->Set("e2e.latency_p90_ms", Pct(latency, 0.9));
  } else {
    report->Absent("e2e.latency_p90_ms", "fewer than 100 queries served");
  }
  if (n >= 1000) {
    report->Set("e2e.latency_p99_ms", Pct(latency, 0.99));
  } else {
    report->Absent("e2e.latency_p99_ms", "fewer than 1000 queries served");
  }
  report->Set("server.queue_wait_p50_ms", Median(queue));
  report->Set("server.queue_wait_p99_ms", Pct(queue, 0.99));
  report->Set("server.service_p50_ms", Median(service));
  for (size_t c = 0; c < class_names.size(); ++c) {
    std::vector<double> of_class;
    for (const Sample& s : samples) {
      if (s.query_class == static_cast<int>(c)) of_class.push_back(s.latency_ms);
    }
    report->Detail("e2e.queries." + class_names[c],
                   static_cast<double>(of_class.size()), "count", Kind::kCount);
    report->Detail("e2e.latency_p50_ms." + class_names[c], Median(of_class),
                   "ms", Kind::kMeasured);
  }
  return sum;
}

std::string WorkDir() { return ".bench_build/servebench-work"; }

}  // namespace servebench
