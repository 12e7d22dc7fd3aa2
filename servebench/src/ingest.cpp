// ingest_mix: an open-loop writer appends to a MutableTable through the
// QueryServer while two closed-loop clients query it (Q6 year-variants, one
// client on A&R and one on classic so both delta-union paths run). Covers
// the WAL, the delta merge and background re-decomposition.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "bwd/bwd_table.h"
#include "core/ar_engine.h"
#include "core/classic_engine.h"
#include "device/device.h"
#include "storage/mutable_table.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads/tpch.h"

namespace servebench {

namespace wn = wastenot;
using wn::core::QueryResult;
using wn::core::QuerySpec;

namespace {

constexpr int kSetupRepeats = 5;
constexpr double kWarmUpSeconds = 2;
constexpr unsigned kClients = 2;
constexpr uint64_t kRowsPerSecond = 50'000;
constexpr uint64_t kBatchRows = 500;
constexpr uint64_t kDrainThreshold = 64 * 1024;
constexpr uint64_t kYears = 5;  // Q6 year-variants 1993..1997
const std::vector<std::string> kColumns = {"l_shipdate", "l_discount",
                                           "l_quantity", "l_extendedprice"};

[[noreturn]] void Die(const std::string& what, const wn::Status& status) {
  std::fprintf(stderr, "servebench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// Q6-column rows of a generated lineitem table, row-major.
std::vector<int64_t> Q6Rows(double sf, uint64_t seed, double* generate_s) {
  wn::cs::Database db;
  wn::WallTimer timer;
  wn::workloads::GenerateTpch(sf, seed, &db);
  if (generate_s != nullptr) *generate_s = timer.Seconds();
  const wn::cs::Table& t = db.table("lineitem");
  std::vector<int64_t> rows(t.num_rows() * kColumns.size());
  for (size_t c = 0; c < kColumns.size(); ++c) {
    const wn::cs::Column& col = t.column(kColumns[c]);
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      rows[r * kColumns.size() + c] = col.Get(r);
    }
  }
  return rows;
}

/// A `lineitem` table of the Q6 columns built from row-major values, plus
/// an optional per-row group column.
wn::cs::Database TableOf(const std::vector<int64_t>& rows, uint64_t count,
                         uint64_t group_rows) {
  wn::cs::Table t("lineitem");
  for (size_t c = 0; c < kColumns.size(); ++c) {
    std::vector<int64_t> values(count);
    for (uint64_t r = 0; r < count; ++r) {
      values[r] = rows[r * kColumns.size() + c];
    }
    wn::cs::Column col = wn::cs::Column::FromI64(values);
    col.ComputeStats();
    (void)t.AddColumn(kColumns[c], std::move(col));
  }
  if (group_rows > 0) {
    std::vector<int64_t> group(count);
    for (uint64_t r = 0; r < count; ++r) group[r] = static_cast<int64_t>(r / group_rows);
    wn::cs::Column col = wn::cs::Column::FromI64(group);
    col.ComputeStats();
    (void)t.AddColumn("batch", std::move(col));
  }
  wn::cs::Database db;
  (void)db.AddTable(std::move(t));
  return db;
}

/// Q6 revenue and selected-row count of one answer.
struct Q6Sum {
  int64_t revenue = 0;
  uint64_t rows = 0;
  bool operator==(const Q6Sum&) const = default;
};

Q6Sum SumOf(const QueryResult& r) {
  Q6Sum s;
  for (const auto& g : r.agg_values) s.revenue += g.at(0);
  s.rows = r.selected_rows;
  return s;
}

/// The open-loop writer's schedule state, read by the query clients to
/// bound which durable prefix an answer may reflect.
struct Acked {
  std::atomic<uint64_t> batches{0};
};

struct Setup {
  std::string dir;
  std::unique_ptr<wn::device::Device> dev;
  std::unique_ptr<wn::storage::MutableTable> table;
  std::unique_ptr<wn::server::QueryServer> server;
  std::vector<int64_t> base;
  double generate_s = 0;
  double drain_s = 0;
};

wn::storage::MutableTableOptions TableOptions(const std::string& dir,
                                              wn::device::Device* dev,
                                              bool background) {
  wn::storage::MutableTableOptions o;
  o.dir = dir;
  o.name = "lineitem";
  o.columns = kColumns;
  o.device = dev;
  o.drain_threshold = kDrainThreshold;
  o.background = background;
  return o;
}

/// Generation, table creation, initial load + drain, server start.
std::unique_ptr<Setup> BuildSetup(uint64_t seed, int repeat) {
  auto s = std::make_unique<Setup>();
  s->dir = WorkDir() + "/ingest-" + std::to_string(::getpid()) + "-" +
           std::to_string(repeat);
  std::filesystem::remove_all(s->dir);
  s->base = Q6Rows(0.2, seed, &s->generate_s);
  s->dev = std::make_unique<wn::device::Device>(
      wn::device::DeviceSpec::Gtx680(), 4);
  auto table = wn::storage::MutableTable::Open(
      TableOptions(s->dir, s->dev.get(), /*background=*/true));
  if (!table.ok()) Die("open table", table.status());
  s->table = std::move(*table);
  const size_t width = kColumns.size();
  for (size_t r = 0; r * width < s->base.size(); ++r) {
    wn::Status st = s->table->Append(
        std::span<const int64_t>(&s->base[r * width], width));
    if (!st.ok()) Die("initial append", st);
  }
  auto flushed = s->table->Flush();
  if (!flushed.ok()) Die("initial flush", flushed.status());
  wn::WallTimer timer;
  wn::Status st = s->table->Drain();
  if (!st.ok()) Die("initial drain", st);
  s->drain_s = timer.Seconds();
  wn::server::QueryServer::Backend backend;
  backend.device = s->dev.get();
  backend.mutable_table = s->table.get();
  wn::server::ServerOptions opts;
  opts.num_workers = kClients;
  s->server = std::make_unique<wn::server::QueryServer>(backend, opts);
  return s;
}

}  // namespace

Outcome RunIngestMix(const Args& args, Trace* trace, Report* report) {
  Outcome outcome;
  std::vector<double> setup, generate, initial_drain;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (s != nullptr) {
      s->server.reset();
      s->table.reset();
      std::filesystem::remove_all(s->dir);
      s.reset();
    }
    wn::WallTimer timer;
    s = BuildSetup(args.seed, i);
    setup.push_back(timer.Seconds());
    generate.push_back(s->generate_s);
    initial_drain.push_back(s->drain_s);
  }
  report->Set("setup_s", Median(setup));
  const uint64_t base_rows = s->base.size() / kColumns.size();
  const size_t width = kColumns.size();

  // The writer's rows come from a second generator seed; the schedule is
  // fixed: kRowsPerSecond in kBatchRows batches for the whole window.
  const uint64_t num_batches = static_cast<uint64_t>(
      args.seconds * kRowsPerSecond / kBatchRows);
  const uint64_t ingest_rows = num_batches * kBatchRows;
  std::vector<int64_t> incoming =
      Q6Rows(static_cast<double>(ingest_rows + kBatchRows) / 6e6,
             SeedMix(args.seed, 999), nullptr);
  if (incoming.size() < ingest_rows * width) {
    Die("ingest rows", wn::Status::Internal("generator produced too few rows"));
  }

  // References: per variant, the base answer plus the per-batch increments
  // (one single-threaded classic run grouped by batch), so each served
  // answer can be matched against every durable prefix it may have seen.
  std::vector<QuerySpec> queries;
  for (uint64_t y = 0; y < kYears; ++y) {
    queries.push_back(wn::workloads::TpchQ6YearVariant(y));
  }
  std::vector<std::vector<Q6Sum>> prefix(kYears);
  {
    const wn::storage::TableView view = s->table->View();
    const wn::cs::Database batches = TableOf(incoming, ingest_rows, kBatchRows);
    wn::core::ClassicOptions single;
    single.threads = 1;
    for (uint64_t y = 0; y < kYears; ++y) {
      auto base = wn::core::ExecuteClassic(queries[y], *view.db, single);
      QuerySpec grouped = queries[y];
      grouped.group_by = {"batch"};
      auto per_batch = wn::core::ExecuteClassic(grouped, batches, single);
      if (!base.ok() || !per_batch.ok()) Die("reference", base.status());
      std::vector<Q6Sum> inc(num_batches);
      for (uint64_t g = 0; g < per_batch->num_groups(); ++g) {
        const uint64_t b = static_cast<uint64_t>(per_batch->group_keys[g][0]);
        inc[b].revenue = per_batch->agg_values[g][0];
        inc[b].rows = static_cast<uint64_t>(per_batch->group_counts[g]);
      }
      prefix[y].push_back(SumOf(*base));
      for (uint64_t b = 0; b < num_batches; ++b) {
        Q6Sum next = prefix[y].back();
        next.revenue += inc[b].revenue;
        next.rows += inc[b].rows;
        prefix[y].push_back(next);
      }
    }
  }

  // ---- closed-loop query clients ------------------------------------------
  // Q6 year-variants; client 0 is served by A&R and client 1 by classic, so
  // both delta-union paths run. (Alternating engines per query would put
  // the latency median in the gap between the two engines' modes, where it
  // swings with every small change of the mix.)
  Acked acked;
  auto client = [&](std::vector<wn::SplitMix64>* rngs) {
    return [&, rngs](unsigned c, uint64_t, Trace::Buffer* buffer) {
      const uint64_t y = (*rngs)[c].Next() % kYears;
      wn::server::QueryRequest req;
      req.query = queries[y];
      req.engine = c == 0 ? wn::server::EngineKind::kAr
                          : wn::server::EngineKind::kClassic;
      const uint64_t lo = acked.batches.load();
      const double submit = NowMs();
      wn::server::ProgressiveFutures f =
          s->server->SubmitProgressive(std::move(req));
      // The answer must equal the reference over some durable prefix that
      // existed while the query ran: at least the batches acknowledged
      // before submission, at most those acknowledged after the answer
      // plus one whose flush was still returning.
      AnswerCheck check = [&, y, lo](
                              const wn::server::QueryResponse& refined,
                              const wn::server::ApproximateResponse& approx) {
        const Q6Sum got = SumOf(refined.result);
        const uint64_t hi = std::min(acked.batches.load() + 1, num_batches);
        for (uint64_t k = lo; k <= hi; ++k) {
          if (prefix[y][k] == got) {
            return approx.approx.row_count.Contains(
                static_cast<int64_t>(got.rows));
          }
        }
        return false;
      };
      return Collect(std::move(f), submit, 0, "q6", check, buffer);
    };
  };
  std::vector<wn::SplitMix64> warm_rngs, rngs;
  for (unsigned c = 0; c < kClients; ++c) {
    warm_rngs.emplace_back(SeedMix(args.seed, 50 + c));
    rngs.emplace_back(SeedMix(args.seed, c));
  }
  // Warm-up: the query loop untimed, before any ingest.
  Trace untraced(false);
  const ClientRun warm_run =
      RunClosedLoop(kClients, kWarmUpSeconds, &untraced, client(&warm_rngs));

  const uint64_t compiles_before = s->dev->kernel_cache().compiled_count();
  const wn::storage::MutableTableStats stats_before = s->table->Stats();
  const std::optional<uint64_t> wchar_before = ProcessWriteBytes();

  // ---- open-loop writer ---------------------------------------------------
  std::vector<double> flush_ms, commit_ms, late_ms;
  uint64_t writer_failures = 0, writer_ops = 0, delta_rows_max = 0;
  uint64_t durable_rows = base_rows;
  const double start_ms = NowMs();
  std::thread writer([&] {
    for (uint64_t b = 0; b < num_batches; ++b) {
      const double due = start_ms + static_cast<double>(b) * 1e3 *
                                        kBatchRows / kRowsPerSecond;
      const double now = NowMs();
      if (now < due) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(due - now));
      }
      late_ms.push_back(std::max(0.0, NowMs() - due));
      for (uint64_t r = b * kBatchRows; r < (b + 1) * kBatchRows; ++r) {
        ++writer_ops;
        const std::span<const int64_t> row(&incoming[r * width], width);
        // Backlog refusals are failures; the row is retried so the durable
        // sequence stays the generated one.
        for (int attempt = 0; !s->server->Append(row).ok(); ++attempt) {
          ++writer_failures;
          if (attempt > 2000) Die("append", wn::Status::Internal("refused"));
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      ++writer_ops;
      const double t0 = NowMs();
      auto durable = s->server->FlushIngest();
      for (int attempt = 0; !durable.ok(); ++attempt) {
        ++writer_failures;
        if (attempt > 100) Die("flush", durable.status());
        durable = s->server->FlushIngest();
      }
      const double t1 = NowMs();
      durable_rows = *durable;
      acked.batches.store(b + 1);
      flush_ms.push_back(t1 - t0);
      commit_ms.push_back(t1 - due);
      delta_rows_max = std::max(delta_rows_max, s->table->Stats().pending_rows);
    }
  });

  const ClientRun run =
      RunClosedLoop(kClients, args.seconds, trace, client(&rngs));
  writer.join();
  const std::optional<uint64_t> wchar_after = ProcessWriteBytes();
  const uint64_t compiles =
      s->dev->kernel_cache().compiled_count() - compiles_before;
  const wn::storage::MutableTableStats stats_after = s->table->Stats();
  const wn::server::ServerStats server_stats = s->server->stats();
  s->server->Shutdown();

  for (const ClientRun* r : {&warm_run, &run}) {
    for (const Sample& x : r->samples) outcome.failed += x.ok ? 0 : 1;
  }
  outcome.failed += writer_failures;
  outcome.attempted = warm_run.samples.size() + run.samples.size() +
                      writer_ops + kSetupRepeats;
  outcome.served_ms =
      ReportServing(run.samples, run.window_seconds, {"q6"}, report);

  // Device footprint once the whole ingest is absorbed.
  wn::Status drained = s->table->Drain();
  if (!drained.ok()) Die("final drain", drained);
  const uint64_t device_bytes = s->table->View().bwd->device_bytes();
  report->Set("device_mb", device_bytes / 1e6);
  report->Counter("bwd.device_bytes", device_bytes);
  // The offered schedule is one group commit per batch.
  const uint64_t wal_commits =
      stats_after.wal_commits - stats_before.wal_commits;
  report->Counter("storage.wal_commits", wal_commits);
  ++outcome.attempted;
  if (wal_commits != num_batches) {
    std::fprintf(stderr, "servebench: %llu WAL commits for %llu batches\n",
                 static_cast<unsigned long long>(wal_commits),
                 static_cast<unsigned long long>(num_batches));
    ++outcome.failed;
  }
  report->Counter("device.kernel_compiles", compiles);

  // ---- reopen check --------------------------------------------------------
  // Acknowledged rows must survive a reopen, and classic Q6 over the
  // recovered table must equal classic over an in-memory copy of them.
  s->server.reset();
  s->table.reset();
  auto reopened = wn::storage::MutableTable::Open(
      TableOptions(s->dir, s->dev.get(), /*background=*/false));
  if (!reopened.ok()) Die("reopen", reopened.status());
  ++outcome.attempted;
  if ((*reopened)->Stats().durable_rows < durable_rows) {
    std::fprintf(stderr, "servebench: reopen lost acknowledged rows\n");
    ++outcome.failed;
  }
  {
    std::vector<int64_t> acked_rows = s->base;
    acked_rows.insert(acked_rows.end(), incoming.begin(),
                      incoming.begin() + (durable_rows - base_rows) * width);
    const wn::cs::Database copy = TableOf(acked_rows, durable_rows, 0);
    const wn::storage::TableView view = (*reopened)->View();
    wn::core::ClassicOptions recovered;
    recovered.delta = view.delta_or_null();
    for (const QuerySpec& q : queries) {
      ++outcome.attempted;
      auto a = wn::core::ExecuteClassic(q, *view.db, recovered);
      auto b = wn::core::ExecuteClassic(q, copy);
      if (!a.ok() || !b.ok() || !(*a == *b)) {
        std::fprintf(stderr, "servebench: reopened table answers differ\n");
        ++outcome.failed;
      }
    }
  }
  report->Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    report->Set("workloads.generate_s", Median(generate));
    report->Set("device.kernel_compiles", static_cast<double>(compiles));
    report->Set("server.max_queue_depth",
                static_cast<double>(server_stats.max_queue_depth));
    report->Set("storage.flush_p50_ms", Median(flush_ms));
    report->Set("storage.flush_p99_ms", Pct(flush_ms, 0.99));
    report->Set("storage.swaps",
                static_cast<double>(stats_after.swaps - stats_before.swaps));
    report->Set("storage.failed_swaps",
                static_cast<double>(stats_after.failed_swaps -
                                    stats_before.failed_swaps));
    report->Set("storage.delta_rows_max", static_cast<double>(delta_rows_max));
    report->Set("storage.wal_commits", static_cast<double>(wal_commits));
    if (wchar_before && wchar_after) {
      const double user_bytes = static_cast<double>(
          (durable_rows - base_rows) * width * sizeof(int64_t));
      report->Set("storage.write_amp",
                  (*wchar_after - *wchar_before) / user_bytes);
    } else {
      report->Absent("storage.write_amp", "/proc/self/io not available");
    }
    report->Set("ingest.commit_p50_ms", Median(commit_ms));
    report->Set("ingest.commit_p99_ms", Pct(commit_ms, 0.99));
    report->Set("ingest.generator_late_p50_ms", Median(late_ms));
    report->Set("ingest.generator_late_max_ms",
                *std::max_element(late_ms.begin(), late_ms.end()));
    report->Detail("storage.initial_drain_s", Median(initial_drain), "s",
                   Kind::kMeasured);

    // Serial pass over the reopened table.
    Trace::Buffer buffer;
    const int64_t pass = buffer.Add("serial_pass", NowMs(), NowMs(), -1, 0);
    auto span = [&](const char* name, double start) {
      buffer.Add(name, start, NowMs(), pass, 0);
    };
    wn::storage::MutableTable* table = reopened->get();
    wn::storage::TableView view = table->View();
    double start = NowMs();
    std::vector<wn::bwd::DecomposeRequest> requests;
    for (const std::string& c : kColumns) requests.push_back({c, 32});
    auto bwd = wn::bwd::BwdTable::Decompose(view.db->table("lineitem"),
                                            requests, s->dev.get());
    span("bwd.Decompose", start);
    if (!bwd.ok()) Die("decompose", bwd.status());
    report->Set("bwd.decompose_s", (NowMs() - start) / 1e3);
    report->Set("bwd.device_bytes", static_cast<double>(view.bwd->device_bytes()));
    report->Set("bwd.residual_bytes",
                static_cast<double>(view.bwd->residual_bytes()));

    const QuerySpec& q = queries[0];
    auto ref = wn::core::ExecuteClassic(q, *view.db);
    if (!ref.ok()) Die("serial reference", ref.status());
    const EngineTarget target{view.db.get(), view.bwd.get(), nullptr, nullptr,
                              view.bwd->device()};
    const Outcome serial = SerialEnginePass(
        target, {ClassQuery{"q6", &q, nullptr, &*ref}}, &buffer, pass, report);
    outcome.attempted += serial.attempted;
    outcome.failed += serial.failed;

    // Delta union cost and a synchronous drain, both at a fixed delta of
    // kDrainThreshold rows.
    for (uint64_t r = 0; r < kDrainThreshold; ++r) {
      (void)table->Append(std::span<const int64_t>(
          &incoming[(r % ingest_rows) * width], width));
    }
    start = NowMs();
    if (!table->Flush().ok()) Die("serial flush", wn::Status::Internal("flush"));
    span("storage.Flush", start);
    const wn::storage::TableView with_delta = table->View();
    wn::core::ArOptions ar_delta;
    ar_delta.delta = with_delta.delta_or_null();
    wn::core::ClassicOptions classic_delta;
    classic_delta.delta = with_delta.delta_or_null();
    auto time_ms = [](auto&& fn) {
      const double t0 = NowMs();
      if (!fn().ok()) Die("delta query", wn::Status::Internal("q6"));
      return NowMs() - t0;
    };
    wn::device::Device* dev = with_delta.bwd->device();
    const double ar_with = time_ms(
        [&] { return wn::core::ExecuteAr(q, *with_delta.bwd, nullptr, dev, ar_delta); });
    const double ar_without = time_ms(
        [&] { return wn::core::ExecuteAr(q, *with_delta.bwd, nullptr, dev); });
    const double classic_with = time_ms(
        [&] { return wn::core::ExecuteClassic(q, *with_delta.db, classic_delta); });
    const double classic_without =
        time_ms([&] { return wn::core::ExecuteClassic(q, *with_delta.db); });
    report->Set("core.delta.extra_ms.ar", ar_with - ar_without);
    report->Set("core.delta.extra_ms.classic", classic_with - classic_without);
    start = NowMs();
    wn::Status st = table->Drain();
    if (!st.ok()) Die("serial drain", st);
    report->Set("storage.drain_s", (NowMs() - start) / 1e3);
    span("storage.Drain", start);
    trace->Merge(std::move(buffer));

    for (const char* m :
         {"sched.dispatch_share.ar", "sched.dispatch_share.classic",
          "sched.dispatch_share.streaming", "sched.degraded",
          "sched.est_ratio.q1", "sched.est_ratio.q6", "sched.est_ratio.q14",
          "sched.est_ratio.q3", "sched.est_ratio.q10"}) {
      report->Absent(m, "engines pinned through QueryServer; no scheduler");
    }
    for (const char* m : {"core.plan.classic_wall_ms", "core.plan.ar_wall_ms",
                          "core.plan.streaming_wall_ms"}) {
      report->Absent(m, "workload runs no multi-join plans");
    }
  }
  reopened->reset();
  s->dev.reset();
  std::filesystem::remove_all(s->dir);
  return outcome;
}

}  // namespace servebench
