// The three TPC-H workloads: tpch_streams (adaptive scheduler, single-join
// Q1/Q6/Q14 mix), tpch_solo (one analyst, A&R pinned, progressive Q1 with
// residual bits) and tpch_joins (adaptive scheduler, multi-join Q3/Q10
// plans). See README.md for why each exists.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "bwd/bwd_table.h"
#include "core/classic_engine.h"
#include "core/plan_exec.h"
#include "device/device.h"
#include "server/scheduler.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads/tpch.h"

namespace servebench {

namespace wn = wastenot;
using wn::core::PhysicalPlan;
using wn::core::QueryResult;
using wn::core::QuerySpec;
using wn::server::EngineKind;

namespace {

enum class Shape { kStreams, kSolo, kJoins };

constexpr unsigned kThreads = 4;  // server workers, device pool, Phase R
// Concurrent closed-loop clients of tpch_streams and tpch_joins. Two, not
// four: with four clients the 4-core host runs saturated, and at
// saturation every slow episode of the shared host multiplies into queueing
// (interleaved runs: p50 112-157 ms with four clients, 120-137 ms with two).
constexpr unsigned kClients = 2;
constexpr int kSetupRepeats = 9;
constexpr double kWarmUpSeconds = 2;
// Window of the ingest_mix run inside the traced tpch_streams run.
constexpr double kIngestLayerSeconds = 10;

[[noreturn]] void Die(const std::string& what, const wn::Status& status) {
  std::fprintf(stderr, "servebench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// One query the clients may submit, with its single-threaded classic
/// reference answer computed at set-up.
struct Variant {
  std::string cls;  ///< query class ("q1", "q6", ...)
  std::optional<QuerySpec> spec;
  std::optional<PhysicalPlan> plan;
  QueryResult ref;
};

/// One set-up instance: generated data, decomposed tables, the device.
struct Tpch {
  std::unique_ptr<wn::cs::Database> db;
  std::unique_ptr<wn::device::Device> dev;
  std::vector<std::unique_ptr<wn::bwd::BwdTable>> tables;  // [0] = lineitem
  wn::core::BwdTableMap dims;
  const wn::bwd::BwdTable* part = nullptr;
  double generate_s = 0;
  double decompose_s = 0;

  const wn::bwd::BwdTable& lineitem() const { return *tables.front(); }
  uint64_t device_bytes() const {
    uint64_t sum = 0;
    for (const auto& t : tables) sum += t->device_bytes();
    return sum;
  }
  uint64_t residual_bytes() const {
    uint64_t sum = 0;
    for (const auto& t : tables) sum += t->residual_bytes();
    return sum;
  }
};

std::unique_ptr<Tpch> BuildTpch(Shape shape, uint64_t seed) {
  auto t = std::make_unique<Tpch>();
  t->db = std::make_unique<wn::cs::Database>();
  wn::WallTimer timer;
  wn::workloads::GenerateTpch(shape == Shape::kSolo ? 0.1 : 0.2, seed,
                              t->db.get());
  t->generate_s = timer.Seconds();

  t->dev = std::make_unique<wn::device::Device>(
      wn::device::DeviceSpec::Gtx680(), kThreads);
  std::vector<wn::bwd::DecomposeRequest> fact =
      wn::workloads::TpchAllResident();
  if (shape == Shape::kSolo) {
    // Six residual bits on every non-key column: Phase R refines.
    for (auto& r : fact) {
      if (r.column != "l_partkey") r.device_bits = 26;
    }
  }
  if (shape == Shape::kJoins) {
    for (const auto& r : wn::workloads::TpchMultiJoinResident()) {
      fact.push_back(r);
    }
  }
  std::vector<std::pair<std::string, std::vector<wn::bwd::DecomposeRequest>>>
      plan = {{"lineitem", fact}};
  if (shape == Shape::kStreams) {
    plan.emplace_back("part", wn::workloads::TpchPartResident());
  }
  if (shape == Shape::kJoins) {
    plan.emplace_back("orders", wn::workloads::TpchOrdersResident());
    plan.emplace_back("customer", wn::workloads::TpchCustomerResident());
  }
  timer.Restart();
  for (const auto& [name, reqs] : plan) {
    auto table = wn::bwd::BwdTable::Decompose(t->db->table(name), reqs,
                                              t->dev.get());
    if (!table.ok()) Die("decompose " + name, table.status());
    t->tables.push_back(
        std::make_unique<wn::bwd::BwdTable>(std::move(*table)));
    if (name == "part") t->part = t->tables.back().get();
    if (name != "lineitem" && name != "part") {
      t->dims[name] = t->tables.back().get();
    }
  }
  t->decompose_s = timer.Seconds();
  return t;
}

wn::server::QueryServer::Backend BackendOf(const Tpch& t) {
  wn::server::QueryServer::Backend b;
  b.db = t.db.get();
  b.fact = &t.lineitem();
  b.dim = t.part;
  b.device = t.dev.get();
  b.dim_tables = &t.dims;
  return b;
}

wn::server::SchedulerOptions SchedulerOpts() {
  wn::server::SchedulerOptions o;
  o.server.num_workers = kThreads;
  return o;
}

wn::server::ServerOptions SoloServerOpts() {
  wn::server::ServerOptions o;
  o.num_workers = 1;
  o.ar_options.num_threads = kThreads;
  return o;
}

QuerySpec Q1WithDelta(int64_t delta_days) {
  QuerySpec q = wn::workloads::TpchQ1();
  q.predicates[0].range = wn::cs::RangePred::Le(
      wn::workloads::DateToDays(1998, 12, 1) - delta_days);
  return q;
}

/// Q3 with the spec's substitution parameters: DATE in March 1995 and one
/// of the five market segments.
PhysicalPlan Q3Variant(uint64_t r) {
  PhysicalPlan p = wn::workloads::TpchQ3();
  const int64_t date =
      wn::workloads::DateToDays(1995, 3, 1) + static_cast<int64_t>(r % 31);
  std::get<wn::core::FilterNode>(p.ops[0]).range = wn::cs::RangePred::Gt(date);
  std::get<wn::core::FilterNode>(p.ops[2]).range = wn::cs::RangePred::Lt(date);
  std::get<wn::core::FilterNode>(p.ops[4]).range =
      wn::cs::RangePred::Eq(static_cast<int64_t>((r / 31) % 5));
  return p;
}

/// Q10 with DATE the first of a month from 1993-02 to 1995-01.
PhysicalPlan Q10Variant(uint64_t r) {
  PhysicalPlan p = wn::workloads::TpchQ10();
  const int month0 = 1 + static_cast<int>(r % 24);  // months after 1993-01
  const int y = 1993 + month0 / 12, m = month0 % 12 + 1;
  const int y2 = 1993 + (month0 + 3) / 12, m2 = (month0 + 3) % 12 + 1;
  std::get<wn::core::FilterNode>(p.ops[2]).range = wn::cs::RangePred::Between(
      wn::workloads::DateToDays(y, m, 1),
      wn::workloads::DateToDays(y2, m2, 1) - 1);
  return p;
}

std::vector<Variant> MakeVariants(Shape shape, uint64_t seed,
                                  const wn::cs::Database& db) {
  std::vector<Variant> v;
  switch (shape) {
    case Shape::kStreams: {
      for (uint64_t year = 0; year < 5; ++year) {
        v.push_back({"q6", wn::workloads::TpchQ6YearVariant(year), {}, {}});
      }
      v.push_back({"q1", wn::workloads::TpchQ1(), {}, {}});
      QuerySpec q14 = wn::workloads::TpchQ14();
      wn::Status st = wn::workloads::ResolvePromoFilter(db, &q14);
      if (!st.ok()) Die("resolve Q14", st);
      v.push_back({"q14", q14, {}, {}});
      break;
    }
    case Shape::kSolo:
      for (uint64_t i = 0; i < 8; ++i) {
        const int64_t delta = 60 + static_cast<int64_t>(SeedMix(seed, 100 + i) % 61);
        v.push_back({"q1", Q1WithDelta(delta), {}, {}});
      }
      break;
    case Shape::kJoins:
      for (uint64_t i = 0; i < 6; ++i) {
        v.push_back({"q3", {}, Q3Variant(SeedMix(seed, 200 + i)), {}});
      }
      for (uint64_t i = 0; i < 3; ++i) {
        v.push_back({"q10", {}, Q10Variant(SeedMix(seed, 300 + i)), {}});
      }
      break;
  }
  wn::core::ClassicOptions single;
  single.threads = 1;
  for (Variant& x : v) {
    auto ref = x.plan ? wn::core::ExecutePlanClassic(*x.plan, db, single)
                      : wn::core::ExecuteClassic(*x.spec, db, single);
    if (!ref.ok()) Die("reference " + x.cls, ref.status());
    x.ref = std::move(*ref);
  }
  return v;
}

/// Which variant a client submits next: the workload's seeded mix.
size_t PickVariant(Shape shape, wn::SplitMix64* rng) {
  const uint64_t r = rng->Next();
  switch (shape) {
    case Shape::kStreams:  // 1/2 Q6 year-variant, 1/4 Q1, 1/4 Q14
      switch (r % 4) {
        case 0:
        case 1: return (r >> 8) % 5;
        case 2: return 5;
        default: return 6;
      }
    case Shape::kSolo: return r % 8;
    case Shape::kJoins:  // 3/4 Q3 (6 variants), 1/4 Q10 (3 variants)
      return r % 4 != 3 ? (r >> 8) % 6 : 6 + (r >> 8) % 3;
  }
  return 0;
}

/// Exact reference match plus approximate-answer coverage.
AnswerCheck CheckAgainst(const Variant& v) {
  return [&v](const wn::server::QueryResponse& refined,
              const wn::server::ApproximateResponse& approx) {
    return refined.result == v.ref && ApproxCovers(approx.approx, v.ref);
  };
}

/// Classes in first-seen order with the first variant of each.
std::vector<const Variant*> OnePerClass(const std::vector<Variant>& variants) {
  std::vector<const Variant*> out;
  for (const Variant& v : variants) {
    bool seen = false;
    for (const Variant* o : out) seen |= o->cls == v.cls;
    if (!seen) out.push_back(&v);
  }
  return out;
}

/// Serves every query class once on each engine through the server (the
/// streaming engine twice, so the server's residency cache holds the hot
/// set), compiling kernels and filling caches before the timed window.
Outcome WarmUpEngines(const std::vector<Variant>& variants,
                      wn::server::QueryServer* server) {
  Outcome outcome;
  for (const Variant* v : OnePerClass(variants)) {
    for (EngineKind engine : {EngineKind::kAr, EngineKind::kClassic,
                              EngineKind::kStreaming, EngineKind::kStreaming}) {
      wn::server::QueryRequest req;
      if (v->plan) {
        req.plan = *v->plan;
      } else {
        req.query = *v->spec;
      }
      req.engine = engine;
      const wn::server::QueryResponse r = server->Submit(std::move(req)).get();
      ++outcome.attempted;
      if (!r.status.ok() || !(r.result == v->ref)) ++outcome.failed;
    }
  }
  return outcome;
}

/// The traced run's serial pass: the engines once per query class, then
/// the scheduler's predicted cost of each engine next to one served query.
Outcome SerialPass(const Tpch& t, const std::vector<Variant>& variants,
                   wn::server::AdaptiveScheduler* scheduler,
                   Trace::Buffer* buffer, Report* report) {
  const int64_t pass = buffer->Add("serial_pass", NowMs(), NowMs(), -1, 0);
  std::vector<ClassQuery> classes;
  for (const Variant* v : OnePerClass(variants)) {
    classes.push_back({v->cls, v->spec ? &*v->spec : nullptr,
                       v->plan ? &*v->plan : nullptr, &v->ref});
  }
  const EngineTarget target{t.db.get(), &t.lineitem(), t.part, &t.dims,
                            t.dev.get()};
  Outcome outcome = SerialEnginePass(target, classes, buffer, pass, report);
  if (scheduler == nullptr) return outcome;
  for (const Variant* v : OnePerClass(variants)) {
    const std::string& c = v->cls;
    double start = NowMs();
    const wn::server::SchedulerDecision d =
        v->plan ? scheduler->Decide(*v->plan) : scheduler->Decide(*v->spec);
    buffer->Add("sched.Decide", start, NowMs(), pass, 0);
    start = NowMs();
    const Sample s =
        Collect(v->plan ? scheduler->Submit("serial", *v->plan)
                        : scheduler->Submit("serial", *v->spec),
                start, 0, c, CheckAgainst(*v), nullptr);
    buffer->Add("sched.Submit", start, NowMs(), pass, 0);
    ++outcome.attempted;
    outcome.failed += s.ok ? 0 : 1;
    const double est = s.engine == static_cast<int>(EngineKind::kAr)
                           ? d.est_ar_seconds
                       : s.engine == static_cast<int>(EngineKind::kClassic)
                           ? d.est_classic_seconds
                           : d.est_streaming_seconds;
    report->Set("sched.est_ratio." + c, s.service_ms / (est * 1e3));
    report->Detail("sched.est_ar_ms." + c, d.est_ar_seconds * 1e3, "ms",
                   Kind::kModelled);
    report->Detail("sched.est_classic_ms." + c, d.est_classic_seconds * 1e3,
                   "ms", Kind::kModelled);
    report->Detail("sched.est_streaming_ms." + c,
                   d.est_streaming_seconds * 1e3, "ms", Kind::kModelled);
    report->Detail("sched.decided_engine." + c, static_cast<double>(d.engine),
                   "enum", Kind::kCount);
    report->Detail("sched.served_engine." + c, s.engine, "enum", Kind::kCount);
    report->Detail("sched.served_ms." + c, s.service_ms, "ms",
                   Kind::kMeasured);
  }
  return outcome;
}

Outcome RunTpch(Shape shape, const Args& args, Trace* trace, Report* report) {
  // Set-up: generate, decompose, start the server; repeated so setup_s is a
  // median. The last instance serves.
  std::vector<double> setup, generate, decompose;
  std::unique_ptr<Tpch> t;
  std::unique_ptr<wn::server::AdaptiveScheduler> scheduler;
  std::unique_ptr<wn::server::QueryServer> server;
  uint64_t first_device_bytes = 0;
  Outcome outcome;
  for (int i = 0; i < kSetupRepeats; ++i) {
    scheduler.reset();
    server.reset();
    t.reset();
    wn::WallTimer timer;
    t = BuildTpch(shape, args.seed);
    if (shape == Shape::kSolo) {
      server = std::make_unique<wn::server::QueryServer>(BackendOf(*t),
                                                         SoloServerOpts());
    } else {
      scheduler = std::make_unique<wn::server::AdaptiveScheduler>(
          BackendOf(*t), SchedulerOpts());
    }
    setup.push_back(timer.Seconds());
    generate.push_back(t->generate_s);
    decompose.push_back(t->decompose_s);
    // Set-up is deterministic: every repeat must decompose identically.
    if (i == 0) first_device_bytes = t->device_bytes();
    if (t->device_bytes() != first_device_bytes) ++outcome.failed;
  }
  report->Set("setup_s", Median(setup));
  report->Set("device_mb", t->device_bytes() / 1e6);
  report->Counter("bwd.device_bytes", t->device_bytes());
  report->Counter("bwd.residual_bytes", t->residual_bytes());

  const std::vector<Variant> variants = MakeVariants(shape, args.seed, *t->db);
  std::vector<std::string> classes;
  std::vector<int> class_of;  // per variant
  for (const Variant* v : OnePerClass(variants)) classes.push_back(v->cls);
  for (const Variant& v : variants) {
    class_of.push_back(static_cast<int>(
        std::find(classes.begin(), classes.end(), v.cls) - classes.begin()));
  }
  const unsigned clients = shape == Shape::kSolo ? 1 : kClients;
  const std::vector<std::string> tenants = {"c0", "c1"};
  // One closed-loop client iteration: the next variant of the seeded mix,
  // submitted through the workload's serving API and checked.
  auto client = [&](std::vector<wn::SplitMix64>* rngs) {
    return [&, rngs](unsigned c, uint64_t, Trace::Buffer* buffer) {
      const size_t idx = PickVariant(shape, &(*rngs)[c]);
      const Variant& v = variants[idx];
      const double submit = NowMs();
      wn::server::ProgressiveFutures f;
      if (server != nullptr) {
        wn::server::QueryRequest req;
        req.query = *v.spec;
        req.engine = EngineKind::kAr;
        f = server->SubmitProgressive(std::move(req));
      } else if (v.plan) {
        f = scheduler->Submit(tenants[c], *v.plan);
      } else {
        f = scheduler->Submit(tenants[c], *v.spec);
      }
      return Collect(std::move(f), submit, class_of[idx], v.cls,
                     CheckAgainst(v), buffer);
    };
  };
  std::vector<wn::SplitMix64> warm_rngs, rngs;
  for (unsigned c = 0; c < clients; ++c) {
    warm_rngs.emplace_back(SeedMix(args.seed, 50 + c));
    rngs.emplace_back(SeedMix(args.seed, c));
  }

  // Warm-up: each engine once per class, then the same closed loop untimed
  // so thread pools, allocator arenas and the scheduler's live signals
  // settle before the window.
  const Outcome warm = WarmUpEngines(
      variants, server != nullptr ? server.get() : &scheduler->server());
  Trace untraced(false);
  const ClientRun warm_run =
      RunClosedLoop(clients, kWarmUpSeconds, &untraced, client(&warm_rngs));
  const uint64_t compiles_before = t->dev->kernel_cache().compiled_count();

  const ClientRun run =
      RunClosedLoop(clients, args.seconds, trace, client(&rngs));
  const uint64_t compiles = t->dev->kernel_cache().compiled_count() - compiles_before;

  outcome.attempted += warm.attempted + warm_run.samples.size() +
                      run.samples.size() + kSetupRepeats;
  outcome.failed += warm.failed;
  for (const ClientRun* r : {&warm_run, &run}) {
    for (const Sample& s : r->samples) outcome.failed += s.ok ? 0 : 1;
  }
  outcome.served_ms =
      ReportServing(run.samples, run.window_seconds, classes, report);
  report->Set("peak_rss_mb", PeakRssMb());
  report->Counter("device.kernel_compiles", compiles);
  if (!args.trace) return outcome;

  // ---- traced run only: per-layer metrics --------------------------------
  report->Set("workloads.generate_s", Median(generate));
  report->Set("bwd.decompose_s", Median(decompose));
  report->Set("bwd.device_bytes", static_cast<double>(t->device_bytes()));
  report->Set("bwd.residual_bytes", static_cast<double>(t->residual_bytes()));
  report->Set("device.kernel_compiles", static_cast<double>(compiles));
  const wn::server::ServerStats server_stats =
      server != nullptr ? server->stats() : scheduler->server().stats();
  report->Set("server.max_queue_depth",
              static_cast<double>(server_stats.max_queue_depth));
  if (scheduler != nullptr) {
    const wn::server::SchedulerStats stats = scheduler->stats();
    const double total = static_cast<double>(
        stats.dispatched[0] + stats.dispatched[1] + stats.dispatched[2]);
    report->Set("sched.dispatch_share.ar", stats.dispatched[0] / total);
    report->Set("sched.dispatch_share.classic", stats.dispatched[1] / total);
    report->Set("sched.dispatch_share.streaming", stats.dispatched[2] / total);
    report->Set("sched.degraded", static_cast<double>(stats.degraded));
  } else {
    for (const char* m :
         {"sched.dispatch_share.ar", "sched.dispatch_share.classic",
          "sched.dispatch_share.streaming", "sched.degraded"}) {
      report->Absent(m, "A&R pinned through QueryServer; no scheduler");
    }
  }
  Trace::Buffer buffer;
  const Outcome serial =
      SerialPass(*t, variants, scheduler.get(), &buffer, report);
  outcome.attempted += serial.attempted;
  outcome.failed += serial.failed;
  trace->Merge(std::move(buffer));
  for (const char* c : {"q1", "q6", "q14", "q3", "q10"}) {
    report->Absent(std::string("sched.est_ratio.") + c,
                   scheduler == nullptr ? "no scheduler in this workload"
                                        : "query class not in this workload");
  }
  if (shape == Shape::kStreams) {
    // The storage layer. ingest_mix is not a benchmark workload (its
    // end-to-end figures follow the host's fsync latency), so the traced
    // streams run serves a shorter ingest_mix on its own data and keeps its
    // WAL, drain, ingest and delta-union metrics.
    Args ingest = args;
    ingest.seconds = std::min(args.seconds, kIngestLayerSeconds);
    Trace ingest_trace(false);
    Report layers;
    const Outcome o = RunIngestMix(ingest, &ingest_trace, &layers);
    outcome.attempted += o.attempted;
    outcome.failed += o.failed;
    for (const char* prefix : {"storage.", "ingest.", "core.delta."}) {
      report->CopyPrefixed(layers, prefix);
    }
  }
  for (const char* m :
       {"core.delta.extra_ms.ar", "core.delta.extra_ms.classic",
        "storage.flush_p50_ms", "storage.flush_p99_ms", "storage.drain_s",
        "storage.swaps", "storage.failed_swaps", "storage.delta_rows_max",
        "storage.wal_commits", "storage.write_amp", "ingest.commit_p50_ms",
        "ingest.commit_p99_ms", "ingest.generator_late_p50_ms",
        "ingest.generator_late_max_ms"}) {
    report->Absent(m, "storage layer: see the traced tpch_streams run");
  }
  return outcome;
}

}  // namespace

Outcome RunTpchStreams(const Args& args, Trace* trace, Report* report) {
  return RunTpch(Shape::kStreams, args, trace, report);
}
Outcome RunTpchSolo(const Args& args, Trace* trace, Report* report) {
  return RunTpch(Shape::kSolo, args, trace, report);
}
Outcome RunTpchJoins(const Args& args, Trace* trace, Report* report) {
  return RunTpch(Shape::kJoins, args, trace, report);
}

}  // namespace servebench
