// Copy-on-write page versioning: what refresh concurrency buys writers.
//
// Two configs over identical seeded workloads:
//
//   locked  emulates the paper's (and this repo's pre-epoch) protocol — the
//           refresh holds an exclusive table-level lock for its whole
//           duration, so every writer op first waits for the refresh to
//           finish (a bench-level shared_mutex stands in for the old lock:
//           refresh = exclusive, writer op = shared).
//   mvcc    the shipped protocol — the refresh reads a copy-on-write scan
//           epoch (BaseTable::OpenEpoch) under a shared lock and writers
//           never wait; the same bench-level mutex is taken shared by
//           writers in this config too (uncontended), so the measured op
//           cost differs only by the refresh's exclusive hold.
//
// Each measured round mutates the base quiescently (the delta the refresh
// transmits), then refreshes with RefreshRequest::on_epoch_open unleashing
// W writer threads the instant the cut is fixed; every writer op is timed
// individually (wait + mutate). The headline metric is the p99 writer op
// latency, and the binary exits nonzero unless locked-p99 / mvcc-p99 >=
// the gate (default 10x, the acceptance bar; 0 disables for smoke sizes
// where scheduler noise on small refreshes drowns the signal).
//
// The bench is also an oracle (exit 1 on violation):
//   * the mvcc config runs a mirrored quiesced system in lockstep —
//     concurrent writers are update-only on disjoint address slices, so
//     they are replayable — and every concurrent refresh's stream must
//     match the quiesced mirror's exactly (message counts by type, payload
//     and wire bytes, apply meters, and the new SnapTime);
//   * after the rounds both configs quiesce, converge with a final
//     refresh, and must match ExpectedContents exactly (no fix-up lost to
//     a writer race is ever observable after convergence).
//
// The JSON carries the perf_gate.py shape keys plus a top-level
// p99_stall_ratio; CI gates it against bench/baselines/BENCH_mvcc.baseline
// .json (the dimensionless ratio hard-fails cross-host, the absolute
// latencies gate noise-aware on the baseline host only).
//
// Usage: bench_mvcc [rows] [iters] [json_path] [--gate=R] [--writers=W]
//                   [--ops=K]
//   rows       base-table size                  (default 20000)
//   iters      measured rounds per config       (default 3)
//   json_path  output file                      (default BENCH_mvcc.json)
//   --gate=R   minimum locked/mvcc p99 ratio    (default 10; 0 = report only)
//   --writers=W concurrent writer threads       (default 4)
//   --ops=K    timed ops per writer per round   (default 50)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/random.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

/// Fixed-width names (prefix + zero-padded 6 digits): every update fits the
/// victim's slot exactly, so slotted pages never hit the grow path under a
/// packed load.
std::string Name(char prefix, uint64_t n) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%c%06llu", prefix,
                static_cast<unsigned long long>(n % 1000000));
  return buf;
}

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

constexpr const char* kRestriction = "Salary < 50";  // of 0..99: ~50%

#define BENCH_CHECK(cond, ...)                              \
  do {                                                      \
    if (!(cond)) {                                          \
      std::fprintf(stderr, "bench_mvcc: FAIL: ");           \
      std::fprintf(stderr, __VA_ARGS__);                    \
      std::fprintf(stderr, "\n");                           \
      return Status::Internal("oracle violation");          \
    }                                                       \
  } while (0)

/// One system under test: base table, snapshot, and the live-address set
/// the seeded workload operates on.
struct Site {
  std::unique_ptr<SnapshotSystem> sys;
  BaseTable* base = nullptr;
  std::vector<Address> live;

  Status Init(size_t rows) {
    sys = std::make_unique<SnapshotSystem>();
    ASSIGN_OR_RETURN(base, sys->CreateBaseTable("emp", EmpSchema()));
    RETURN_IF_ERROR(sys->CreateSnapshot("snap", "emp", kRestriction,
                                        {RefreshMethod::kDifferential, {}})
                        .status());
    Random rng(7117);
    live.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      ASSIGN_OR_RETURN(Address a,
                       base->Insert(Row(Name('e', i),
                                        int64_t(rng.Uniform(100)))));
      live.push_back(a);
    }
    return Status::OK();
  }

  /// The quiesced pre-round delta: ~5% updates plus ~0.5% insert/delete
  /// churn. Deterministic for a seed, so the mirror replays it exactly.
  Status PreMutate(uint64_t seed) {
    Random rng(seed);
    const size_t updates = live.size() / 20;
    for (size_t i = 0; i < updates; ++i) {
      RETURN_IF_ERROR(base->Update(live[rng.Uniform(live.size())],
                                   Row(Name('u', rng.NextUint64()),
                                       int64_t(rng.Uniform(100)))));
    }
    const size_t churn = live.size() / 200 + 1;
    for (size_t i = 0; i < churn; ++i) {
      const size_t idx = rng.Uniform(live.size());
      RETURN_IF_ERROR(base->Delete(live[idx]));
      live[idx] = live.back();
      live.pop_back();
      ASSIGN_OR_RETURN(Address a,
                       base->Insert(Row(Name('n', rng.NextUint64()),
                                        int64_t(rng.Uniform(100)))));
      live.push_back(a);
    }
    return Status::OK();
  }
};

/// The concurrent writer workload: thread `t` updates `ops` addresses from
/// its own slice of the live set, values from its own seeded stream.
/// Update-only on disjoint slices keeps it replayable: the final state is
/// independent of thread interleaving, so the quiesced mirror can apply
/// the same ops sequentially and stay byte-identical.
struct WriterPlan {
  std::vector<Address> targets;
  uint64_t seed = 0;
};

std::vector<WriterPlan> PlanWriters(const std::vector<Address>& live,
                                    size_t writers, size_t ops,
                                    uint64_t round_seed) {
  std::vector<WriterPlan> plans(writers);
  const size_t slice = live.size() / (writers + 1);
  for (size_t t = 0; t < writers; ++t) {
    WriterPlan& p = plans[t];
    p.seed = round_seed + 977 * (t + 1);
    Random rng(p.seed ^ 0xfeed);
    for (size_t i = 0; i < ops; ++i) {
      p.targets.push_back(live[t * slice + rng.Uniform(slice)]);
    }
  }
  return plans;
}

Status ApplyPlan(BaseTable* base, const WriterPlan& plan) {
  Random rng(plan.seed);
  for (Address a : plan.targets) {
    RETURN_IF_ERROR(base->Update(
        a, Row(Name('w', rng.NextUint64()), int64_t(rng.Uniform(100)))));
  }
  return Status::OK();
}

struct ConfigResult {
  std::string name;
  std::vector<double> op_us;           // every timed writer op
  bench::SampleStats refresh_wall_us;  // measured rounds
  uint64_t refreshes = 0;
  uint64_t entries_scanned = 0;
  uint64_t fixups_skipped = 0;
  uint64_t wire_bytes = 0;
  double rows_per_sec = 0.0;
};

/// Runs one config. `exclusive_refresh` selects the locked emulation;
/// `mirror` (may be null) is the quiesced lockstep system the mvcc config
/// checks stream identity against.
Result<ConfigResult> RunConfig(const std::string& name, Site* site,
                               Site* mirror, bool exclusive_refresh,
                               size_t rows, int iters, int warmup,
                               size_t writers, size_t ops) {
  ConfigResult out;
  out.name = name;

  // The stand-in for the pre-epoch exclusive table lock (see file comment).
  std::shared_mutex gate;

  // Initial population.
  RETURN_IF_ERROR(site->sys->Refresh(RefreshRequest::For("snap")).status());
  if (mirror != nullptr) {
    RETURN_IF_ERROR(
        mirror->sys->Refresh(RefreshRequest::For("snap")).status());
  }

  std::vector<double> refresh_walls;
  for (int round = 0; round < warmup + iters; ++round) {
    const bool measured = round >= warmup;
    const uint64_t seed = 0xbea7 + 131 * uint64_t(round);
    RETURN_IF_ERROR(site->PreMutate(seed));
    if (mirror != nullptr) RETURN_IF_ERROR(mirror->PreMutate(seed));

    const std::vector<WriterPlan> plans =
        PlanWriters(site->live, writers, ops, seed);

    std::vector<std::thread> threads;
    std::vector<std::vector<double>> lat(writers);
    Status writer_status = Status::OK();
    std::mutex writer_status_mu;

    RefreshRequest req = RefreshRequest::For("snap");
    req.on_epoch_open = [&] {
      for (size_t t = 0; t < writers; ++t) {
        threads.emplace_back([&, t] {
          Random rng(plans[t].seed);
          for (Address a : plans[t].targets) {
            const auto t0 = std::chrono::steady_clock::now();
            Status s;
            {
              std::shared_lock<std::shared_mutex> hold(gate);
              s = site->base->Update(
                  a, Row(Name('w', rng.NextUint64()), int64_t(rng.Uniform(100))));
            }
            const auto t1 = std::chrono::steady_clock::now();
            if (!s.ok()) {
              std::lock_guard<std::mutex> g(writer_status_mu);
              writer_status = s;
              return;
            }
            lat[t].push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
          }
        });
      }
    };

    const auto r0 = std::chrono::steady_clock::now();
    Result<RefreshReport> rep = [&]() -> Result<RefreshReport> {
      if (exclusive_refresh) {
        std::unique_lock<std::shared_mutex> hold(gate);
        return site->sys->Refresh(req);
      }
      return site->sys->Refresh(req);
    }();
    const auto r1 = std::chrono::steady_clock::now();
    for (std::thread& th : threads) th.join();
    RETURN_IF_ERROR(rep.status());
    RETURN_IF_ERROR(writer_status);

    if (measured) {
      refresh_walls.push_back(
          std::chrono::duration<double, std::micro>(r1 - r0).count());
      for (const std::vector<double>& l : lat) {
        out.op_us.insert(out.op_us.end(), l.begin(), l.end());
      }
      ++out.refreshes;
      out.entries_scanned += rep->stats.entries_scanned;
      out.fixups_skipped += rep->stats.fixups_skipped;
      out.wire_bytes += rep->stats.traffic.wire_bytes;
    }

    if (mirror != nullptr) {
      // The mirror refreshes quiesced at the same logical cut (the
      // concurrent writers are post-cut, so they replay *after* it), and
      // the epoch's promise is that both streams are byte-identical.
      ASSIGN_OR_RETURN(RefreshReport mrep,
                       mirror->sys->Refresh(RefreshRequest::For("snap")));
      for (const WriterPlan& p : plans) {
        RETURN_IF_ERROR(ApplyPlan(mirror->base, p));
      }
      const ChannelStats& a = rep->stats.traffic;
      const ChannelStats& b = mrep.stats.traffic;
      BENCH_CHECK(a.messages == b.messages &&
                      a.entry_messages == b.entry_messages &&
                      a.delete_messages == b.delete_messages &&
                      a.control_messages == b.control_messages &&
                      a.payload_bytes == b.payload_bytes &&
                      a.wire_bytes == b.wire_bytes,
                  "round %d stream divergence: concurrent {msgs=%llu "
                  "entries=%llu deletes=%llu bytes=%llu} vs quiesced mirror "
                  "{msgs=%llu entries=%llu deletes=%llu bytes=%llu}",
                  round, (unsigned long long)a.messages,
                  (unsigned long long)a.entry_messages,
                  (unsigned long long)a.delete_messages,
                  (unsigned long long)a.wire_bytes,
                  (unsigned long long)b.messages,
                  (unsigned long long)b.entry_messages,
                  (unsigned long long)b.delete_messages,
                  (unsigned long long)b.wire_bytes);
      BENCH_CHECK(rep->stats.snap_upserts == mrep.stats.snap_upserts &&
                      rep->stats.snap_deletes == mrep.stats.snap_deletes &&
                      rep->stats.new_snap_time == mrep.stats.new_snap_time,
                  "round %d apply divergence: {up=%llu del=%llu t=%llu} vs "
                  "mirror {up=%llu del=%llu t=%llu}",
                  round, (unsigned long long)rep->stats.snap_upserts,
                  (unsigned long long)rep->stats.snap_deletes,
                  (unsigned long long)rep->stats.new_snap_time,
                  (unsigned long long)mrep.stats.snap_upserts,
                  (unsigned long long)mrep.stats.snap_deletes,
                  (unsigned long long)mrep.stats.new_snap_time);
    } else {
      // Locked config: the concurrent writers ran strictly after the
      // refresh (that is the point), so the site is its own oracle below.
    }
  }

  // Convergence oracle: quiesced final refresh, then the snapshot must
  // equal the restriction evaluated over the live base — a fix-up lost or
  // duplicated under the writer race would surface here.
  RETURN_IF_ERROR(site->sys->Refresh(RefreshRequest::For("snap")).status());
  ASSIGN_OR_RETURN(SnapshotTable * snap, site->sys->GetSnapshot("snap"));
  ASSIGN_OR_RETURN(auto got, snap->Contents());
  ASSIGN_OR_RETURN(auto want, site->sys->ExpectedContents("snap"));
  BENCH_CHECK(got.size() == want.size(),
              "%s: converged snapshot has %zu rows, expected %zu",
              name.c_str(), got.size(), want.size());
  for (const auto& [addr, row] : want) {
    auto it = got.find(addr);
    BENCH_CHECK(it != got.end() && it->second.Equals(row),
                "%s: converged snapshot diverges at %s", name.c_str(),
                addr.ToString().c_str());
  }

  out.refresh_wall_us = bench::Summarize(refresh_walls);
  double total_wall = 0.0;
  for (double w : refresh_walls) total_wall += w;
  out.rows_per_sec =
      total_wall > 0.0
          ? double(out.entries_scanned) / (total_wall / 1e6)
          : 0.0;
  return out;
}

std::string RenderConfig(const ConfigResult& r, size_t rows) {
  std::string out = "    {\"name\": \"" + r.name + "\"";
  out += ", \"writer_ops\": " + std::to_string(r.op_us.size());
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"writer_p50_us\": %.1f, \"writer_p99_us\": %.1f, "
                "\"writer_max_us\": %.1f",
                bench::Percentile(r.op_us, 50.0),
                bench::Percentile(r.op_us, 99.0),
                bench::Percentile(r.op_us, 100.0));
  out += buf;
  out += ", \"writer_op_us\": " + bench::RenderStats(bench::Summarize(r.op_us));
  out += ", \"refresh_wall_us\": " + bench::RenderStats(r.refresh_wall_us);
  out += ", \"refreshes\": " + std::to_string(r.refreshes);
  out += ", \"entries_scanned\": " + std::to_string(r.entries_scanned);
  out += ", \"fixups_skipped\": " + std::to_string(r.fixups_skipped);
  out += ", \"wire_bytes\": " + std::to_string(r.wire_bytes);
  out += ", \"wire_bytes_per_row\": " +
         std::to_string(double(r.wire_bytes) / double(rows));
  out += ", \"rows_per_sec\": " + std::to_string(r.rows_per_sec);
  out += "}";
  return out;
}

}  // namespace
}  // namespace snapdiff

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(
      argc, argv,
      "[rows] [iters] [out.json] [--gate=RATIO] [--writers=N] [--ops=N]");
  const size_t rows = args.Size(20000);
  const int iters = static_cast<int>(args.Size(3));
  const std::string json_path = args.Text("BENCH_mvcc.json");
  const double gate = args.NumberFlag("gate", 10.0);
  const size_t writers = args.SizeFlag("writers", 4);
  const size_t ops = args.SizeFlag("ops", 50);
  args.Finish();
  const int warmup = 1;

  std::printf(
      "=== Copy-on-write scan epochs: writer latency under a concurrent "
      "refresh\n=== locked (exclusive-table-lock emulation) vs mvcc "
      "(rows = %llu, %d rounds + %d warmup, %zu writers x %zu ops)\n\n",
      static_cast<unsigned long long>(rows), iters, warmup, writers, ops);

  using snapdiff::ConfigResult;
  using snapdiff::Site;
  std::vector<ConfigResult> results;
  for (const bool exclusive : {true, false}) {
    const std::string name = exclusive ? "locked" : "mvcc";
    Site site;
    Site mirror;
    snapdiff::Status init = site.Init(rows);
    if (init.ok() && !exclusive) init = mirror.Init(rows);
    if (!init.ok()) {
      std::fprintf(stderr, "init failed: %s\n", init.ToString().c_str());
      return 1;
    }
    auto r = snapdiff::RunConfig(name, &site, exclusive ? nullptr : &mirror,
                                 exclusive, rows, iters, warmup, writers,
                                 ops);
    if (!r.ok()) {
      std::fprintf(stderr, "config %s failed: %s\n", name.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    results.push_back(*r);
    std::printf(
        "%8s  writer p50 %10.1f us   p99 %10.1f us   max %10.1f us   "
        "refresh %10.1f us   fixups_skipped %llu\n",
        name.c_str(), snapdiff::bench::Percentile(r->op_us, 50.0),
        snapdiff::bench::Percentile(r->op_us, 99.0),
        snapdiff::bench::Percentile(r->op_us, 100.0),
        r->refresh_wall_us.mean,
        static_cast<unsigned long long>(r->fixups_skipped));
  }

  const double p99_locked = snapdiff::bench::Percentile(results[0].op_us, 99.0);
  const double p99_mvcc = snapdiff::bench::Percentile(results[1].op_us, 99.0);
  const double ratio = p99_mvcc > 0.0 ? p99_locked / p99_mvcc : 0.0;
  std::printf("\np99 writer stall: locked %.1f us vs mvcc %.1f us = %.1fx\n",
              p99_locked, p99_mvcc, ratio);

  std::string json = "{\n";
  json += snapdiff::bench::ReportHeaderFields("mvcc");
  json += "  \"rows\": " + std::to_string(rows) + ",\n";
  json += "  \"iters\": " + std::to_string(iters) + ",\n";
  json += "  \"warmup\": " + std::to_string(warmup) + ",\n";
  json += "  \"writers\": " + std::to_string(writers) + ",\n";
  json +=
      "  \"ops_per_round\": " + std::to_string(rows / 20 + writers * ops) +
      ",\n";
  json += "  \"selectivity\": \"" + std::string(snapdiff::kRestriction) +
          " (~50%)\",\n";
  json += "  \"wal_enabled\": true,\n";
  char ratio_buf[64];
  std::snprintf(ratio_buf, sizeof(ratio_buf),
                "  \"p99_stall_ratio\": %.2f,\n", ratio);
  json += ratio_buf;
  json += "  \"note\": \"locked emulates the pre-epoch exclusive-table-lock "
          "refresh; the binary exits nonzero unless concurrent streams are "
          "byte-identical to a quiesced mirror, converged contents match "
          "ExpectedContents, and the p99 stall ratio meets the gate\",\n";
  json += "  \"configs\": [\n";
  json += snapdiff::RenderConfig(results[0], rows) + ",\n";
  json += snapdiff::RenderConfig(results[1], rows) + "\n";
  json += "  ]\n}\n";

  std::ofstream f(json_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  f << json;
  std::printf("wrote %s\n", json_path.c_str());

  if (gate > 0.0 && ratio < gate) {
    std::fprintf(stderr,
                 "bench_mvcc: FAIL: p99 stall ratio %.1fx below the %.1fx "
                 "gate\n",
                 ratio, gate);
    return 1;
  }
  return 0;
}
