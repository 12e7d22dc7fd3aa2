// The traced run's serial engine pass: each engine's public entry point
// once per query class, timed from here, with the per-layer metrics it
// yields. Shared by every workload.

#include <cstdio>

#include "bench.h"
#include "core/ar_engine.h"
#include "core/classic_engine.h"
#include "core/plan_exec.h"
#include "core/streaming_engine.h"
#include "device/residency_cache.h"

namespace servebench {

namespace wn = wastenot;

Outcome SerialEnginePass(const EngineTarget& target,
                         const std::vector<ClassQuery>& classes,
                         Trace::Buffer* buffer, int64_t parent,
                         Report* report) {
  Outcome outcome;
  double phase_a = 0, model = 0, bus = 0, host4 = 0, cpu4 = 0, host1 = 0;
  uint64_t candidates = 0, refined = 0;
  double classic = 0, plan_classic = 0, plan_ar = 0, plan_streaming = 0;
  double streaming_host = 0;
  uint64_t streaming_bytes = 0;
  bool any_spec = false, any_plan = false;
  wn::device::ResidencyCache cache(target.dev);
  static const wn::core::BwdTableMap kNoDims;
  const wn::core::BwdTableMap& dims =
      target.dims != nullptr ? *target.dims : kNoDims;
  auto span = [&](const char* name, double start) {
    buffer->Add(name, start, NowMs(), parent, 0);
  };

  for (const ClassQuery& q : classes) {
    const std::string& c = q.cls;
    (q.plan != nullptr ? any_plan : any_spec) = true;
    // A&R at 4 Phase-R threads (timed) and at 1 (Phase R only): results and
    // counts must not depend on the thread count.
    auto run_ar = [&](unsigned threads) {
      wn::core::ArOptions o;
      o.num_threads = threads;
      return q.plan != nullptr
                 ? wn::core::ExecutePlanAr(*q.plan, *target.fact, dims,
                                           target.dev, o)
                 : wn::core::ExecuteAr(*q.spec, *target.fact, target.dim,
                                       target.dev, o);
    };
    double start = NowMs();
    auto ar4 = run_ar(4);
    const double wall4 = NowMs() - start;
    span(q.plan != nullptr ? "core.ExecutePlanAr" : "core.ExecuteAr", start);
    auto ar1 = run_ar(1);
    ++outcome.attempted;
    if (!ar4.ok() || !ar1.ok() || ar1->num_candidates != ar4->num_candidates ||
        ar1->num_refined != ar4->num_refined || !(ar4->result == *q.ref) ||
        !(ar1->result == *q.ref)) {
      std::fprintf(stderr, "servebench: serial A&R %s failed or differs\n",
                   c.c_str());
      ++outcome.failed;
      continue;
    }
    const auto& b = ar4->breakdown;
    phase_a += wall4 - b.host_seconds * 1e3;
    model += b.device_seconds * 1e3;
    bus += b.bus_seconds * 1e3;
    host4 += b.host_seconds;
    cpu4 += b.host_cpu_seconds;
    host1 += ar1->breakdown.host_seconds;
    candidates += ar4->num_candidates;
    refined += ar4->num_refined;
    report->Detail("core.ar.phase_a_wall_ms." + c, wall4 - b.host_seconds * 1e3,
                   "ms", Kind::kMeasured);
    report->Detail("device.model_ms." + c, b.device_seconds * 1e3, "ms",
                   Kind::kModelled);
    report->Detail("device.bus_model_ms." + c, b.bus_seconds * 1e3, "ms",
                   Kind::kModelled);
    report->Detail("core.ar.phase_r_wall_ms." + c, b.host_seconds * 1e3, "ms",
                   Kind::kMeasured);
    report->Counter("core.ar.candidates." + c, ar4->num_candidates);
    report->Counter("core.ar.refined." + c, ar4->num_refined);
    if (q.plan != nullptr) {
      plan_ar += wall4;
      report->Detail("core.plan.ar_wall_ms." + c, wall4, "ms", Kind::kMeasured);
    }

    wn::core::ClassicOptions single;
    single.threads = 1;
    start = NowMs();
    auto exact = q.plan != nullptr
                     ? wn::core::ExecutePlanClassic(*q.plan, *target.db, single)
                     : wn::core::ExecuteClassic(*q.spec, *target.db, single);
    const double classic_ms = NowMs() - start;
    span(q.plan != nullptr ? "core.ExecutePlanClassic" : "core.ExecuteClassic",
         start);
    (q.plan != nullptr ? plan_classic : classic) += classic_ms;
    report->Detail(std::string(q.plan != nullptr ? "core.plan.classic_wall_ms."
                                                 : "core.classic.wall_ms.") +
                       c,
                   classic_ms, "ms", Kind::kMeasured);

    // Streaming: a cold call (bytes moved into the fresh cache), then a
    // warm call whose wall time is the host evaluation the model omits.
    auto run_streaming = [&] {
      return q.plan != nullptr
                 ? wn::core::ExecutePlanStreaming(*q.plan, *target.db,
                                                  target.dev, &cache)
                 : wn::core::ExecuteStreaming(*q.spec, *target.db, target.dev,
                                              &cache);
    };
    auto cold = run_streaming();
    start = NowMs();
    auto warm = run_streaming();
    const double warm_ms = NowMs() - start;
    span(q.plan != nullptr ? "core.ExecutePlanStreaming"
                           : "core.ExecuteStreaming",
         start);
    outcome.attempted += 2;
    if (!exact.ok() || !(*exact == *q.ref) || !cold.ok() || !warm.ok() ||
        !(warm->result == *q.ref)) {
      std::fprintf(stderr, "servebench: serial classic/streaming %s failed\n",
                   c.c_str());
      ++outcome.failed;
      continue;
    }
    streaming_bytes += cold->bytes_transferred;
    (q.plan != nullptr ? plan_streaming : streaming_host) += warm_ms;
    report->Detail("core.streaming.host_wall_ms." + c, warm_ms, "ms",
                   Kind::kMeasured);
    report->Detail("core.streaming.model_ms." + c,
                   warm->breakdown.total() * 1e3, "ms", Kind::kModelled);
  }

  report->Set("core.ar.phase_a_wall_ms", phase_a);
  report->Set("device.model_ms", model);
  report->Set("device.bus_model_ms", bus);
  report->Set("core.ar.phase_r_wall_ms", host4 * 1e3);
  report->Set("core.ar.phase_r_cpu_per_wall", host4 > 0 ? cpu4 / host4 : 0);
  report->Set("core.ar.phase_r_speedup", host4 > 0 ? host1 / host4 : 0);
  report->Set("core.ar.candidates", static_cast<double>(candidates));
  report->Set("core.ar.refined", static_cast<double>(refined));
  report->Set("core.ar.refine_yield",
              candidates > 0 ? static_cast<double>(refined) / candidates : 0);
  report->Set("core.streaming.host_wall_ms", streaming_host + plan_streaming);
  report->Set("core.streaming.bytes_transferred",
              static_cast<double>(streaming_bytes));
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  report->Set("device.residency_hit_rate",
              lookups > 0 ? cache.hits() / lookups : 0);
  if (any_spec) {
    report->Set("core.classic.wall_ms", classic);
  } else {
    report->Absent("core.classic.wall_ms", "workload runs multi-join plans only");
  }
  if (any_plan) {
    report->Set("core.plan.classic_wall_ms", plan_classic);
    report->Set("core.plan.ar_wall_ms", plan_ar);
    report->Set("core.plan.streaming_wall_ms", plan_streaming);
  } else {
    for (const char* m : {"core.plan.classic_wall_ms", "core.plan.ar_wall_ms",
                          "core.plan.streaming_wall_ms"}) {
      report->Absent(m, "workload runs no multi-join plans");
    }
  }
  return outcome;
}

}  // namespace servebench
