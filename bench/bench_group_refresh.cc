// Epoch delta cache: amortizing one base scan across N subscribers.
//
// Sweeps subscriber count x staleness spread over two mirrored systems —
// cache off ("rescan") and cache on ("cached") — driven by identical
// seeded workloads. Each round mutates the base and refreshes that
// round's due subscribers one by one: the rescan system pays a full base
// scan per subscriber, the cached system scans once (the first due
// subscriber re-fills the class image) and serves the rest from memory.
//
// The bench is also an oracle: it hard-fails (exit 1) unless
//   * the two systems transmit identical wire traffic and converge to
//     identical snapshot contents (the cache-served stream is
//     byte-equivalent to a fresh rescan),
//   * every cache-served refresh performs ZERO base buffer-pool page
//     fetches (BufferPool counter delta),
//   * the cached system's base rows scanned stay sublinear in N: at
//     least half the ideal N-fold reduction on the spread=1 configs.
//
// The JSON carries the perf_gate.py schema (rows / ops_per_round /
// selectivity / wal_enabled shape keys; per-config wire_bytes_per_row,
// rows_per_sec, refresh_wall_us) and is gated in CI against
// bench/baselines/BENCH_group.baseline.json.
//
// Usage: bench_group_refresh [rows] [iters] [json_path] [warmup]
//   rows       base-table size                     (default 20000)
//   iters      measured rounds per config          (default 5)
//   json_path  output file                         (default BENCH_group.json)
//   warmup     unmeasured mutate+refresh rounds    (default 1)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
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

Tuple Row(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

constexpr const char* kRestriction = "Salary < 15";  // ~50% selectivity

/// One side of the mirror: a system, its base table, and the live set the
/// seeded churn operates on. Both sides replay identical operations, so
/// their oracles, addresses, and refresh streams stay in lockstep.
struct Side {
  std::unique_ptr<SnapshotSystem> sys;
  BaseTable* base = nullptr;
  std::vector<Address> live;
  std::vector<std::string> subs;

  Status Init(bool cache_on, size_t rows, size_t n_subs) {
    SnapshotSystemOptions opts;
    opts.delta_cache_enabled = cache_on;
    sys = std::make_unique<SnapshotSystem>(opts);
    ASSIGN_OR_RETURN(base, sys->CreateBaseTable("emp", EmpSchema()));
    Random rng(4242);
    live.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      ASSIGN_OR_RETURN(Address a,
                       base->Insert(Row("e" + std::to_string(i),
                                        int64_t(rng.Uniform(30)))));
      live.push_back(a);
    }
    for (size_t i = 0; i < n_subs; ++i) {
      subs.push_back("sub" + std::to_string(i));
      RETURN_IF_ERROR(
          sys->CreateSnapshot(subs.back(), "emp", kRestriction).status());
    }
    return Status::OK();
  }

  /// 10% of rows updated plus 1% insert/delete churn, per-round seed.
  Status Mutate(uint64_t seed) {
    Random rng(seed);
    const size_t updates = live.size() / 10;
    for (size_t i = 0; i < updates; ++i) {
      RETURN_IF_ERROR(base->Update(live[rng.Uniform(live.size())],
                                   Row("u", int64_t(rng.Uniform(30)))));
    }
    const size_t churn = live.size() / 100 + 1;
    for (size_t i = 0; i < churn; ++i) {
      const size_t idx = rng.Uniform(live.size());
      RETURN_IF_ERROR(base->Delete(live[idx]));
      live.erase(live.begin() + idx);
      ASSIGN_OR_RETURN(Address a,
                       base->Insert(Row("n", int64_t(rng.Uniform(30)))));
      live.push_back(a);
    }
    return Status::OK();
  }

  uint64_t PoolFetches() const {
    const BufferPoolStats& s = sys->base_catalog()->buffer_pool()->stats();
    return s.hits + s.misses;
  }
};

struct ConfigResult {
  size_t n = 0;
  size_t spread = 0;
  bench::SampleStats refresh_wall_us;  // cached side, per measured round
  bench::SampleStats rescan_wall_us;   // mirror side, same rounds
  uint64_t refreshes = 0;              // measured subscriber refreshes
  uint64_t cache_serves = 0;           // of those, answered from the image
  uint64_t scanned_cached = 0;         // base rows scanned, cached system
  uint64_t scanned_rescan = 0;         // base rows scanned, rescan mirror
  uint64_t wire_bytes = 0;             // cached system, measured rounds
  uint64_t entry_messages = 0;
  double wire_bytes_per_row = 0.0;
  double rows_per_sec = 0.0;  // logical rows refreshed / cached wall
};

#define BENCH_CHECK(cond, ...)                                   \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "bench_group_refresh: FAIL: ");       \
      std::fprintf(stderr, __VA_ARGS__);                         \
      std::fprintf(stderr, "\n");                                \
      return Status::Internal("oracle violation");               \
    }                                                            \
  } while (0)

Result<ConfigResult> RunConfig(size_t rows, int iters, int warmup, size_t n,
                               size_t spread) {
  Side rescan, cached;
  RETURN_IF_ERROR(rescan.Init(/*cache_on=*/false, rows, n));
  RETURN_IF_ERROR(cached.Init(/*cache_on=*/true, rows, n));

  ConfigResult out;
  out.n = n;
  out.spread = spread;

  // One round: mutate both sides, then refresh the due subscribers one by
  // one on each side. Returns the per-side wall time of the refresh loop.
  uint64_t round_no = 0;
  std::vector<double> cached_walls, rescan_walls;
  auto run_round = [&](bool measured) -> Status {
    const uint64_t seed = 9000 + round_no;
    RETURN_IF_ERROR(rescan.Mutate(seed));
    RETURN_IF_ERROR(cached.Mutate(seed));
    std::vector<size_t> due;
    for (size_t i = 0; i < n; ++i) {
      if (i % spread == round_no % spread) due.push_back(i);
    }
    ++round_no;
    if (due.empty()) return Status::OK();

    const auto r0 = std::chrono::steady_clock::now();
    for (size_t i : due) {
      ASSIGN_OR_RETURN(RefreshReport rep,
                       rescan.sys->Refresh(RefreshRequest::For(
                           rescan.subs[i])));
      if (measured) out.scanned_rescan += rep.stats.entries_scanned;
    }
    const auto r1 = std::chrono::steady_clock::now();

    const auto c0 = std::chrono::steady_clock::now();
    bool first = true;
    for (size_t i : due) {
      const uint64_t fetches_before = cached.PoolFetches();
      ASSIGN_OR_RETURN(RefreshReport rep,
                       cached.sys->Refresh(RefreshRequest::For(
                           cached.subs[i])));
      const uint64_t fetch_delta = cached.PoolFetches() - fetches_before;
      if (first) {
        // The first due subscriber finds the image stale and rescans.
        BENCH_CHECK(!rep.stats.served_from_cache,
                    "leader refresh of %s unexpectedly served from cache",
                    cached.subs[i].c_str());
      } else {
        // Everyone after it must be served from memory: no scan, no
        // base-table page fetches at all.
        BENCH_CHECK(rep.stats.served_from_cache,
                    "follower refresh of %s missed the cache",
                    cached.subs[i].c_str());
        BENCH_CHECK(rep.stats.entries_scanned == 0,
                    "cache-served refresh scanned %llu entries",
                    (unsigned long long)rep.stats.entries_scanned);
        BENCH_CHECK(fetch_delta == 0,
                    "cache-served refresh fetched %llu base pages",
                    (unsigned long long)fetch_delta);
      }
      first = false;
      if (measured) {
        out.scanned_cached += rep.stats.entries_scanned;
        if (rep.stats.served_from_cache) ++out.cache_serves;
        ++out.refreshes;
      }
    }
    const auto c1 = std::chrono::steady_clock::now();

    if (measured) {
      rescan_walls.push_back(
          std::chrono::duration<double, std::micro>(r1 - r0).count());
      cached_walls.push_back(
          std::chrono::duration<double, std::micro>(c1 - c0).count());
    }

    // Byte-identity oracle: the mirrored channels must have carried
    // exactly the same traffic, cumulatively, after every round.
    const ChannelStats& rs = rescan.sys->data_channel()->stats();
    const ChannelStats& cs = cached.sys->data_channel()->stats();
    BENCH_CHECK(rs.messages == cs.messages &&
                    rs.entry_messages == cs.entry_messages &&
                    rs.delete_messages == cs.delete_messages &&
                    rs.payload_bytes == cs.payload_bytes &&
                    rs.wire_bytes == cs.wire_bytes,
                "wire divergence after round %llu: rescan "
                "{msgs=%llu entries=%llu bytes=%llu} vs cached "
                "{msgs=%llu entries=%llu bytes=%llu}",
                (unsigned long long)round_no,
                (unsigned long long)rs.messages,
                (unsigned long long)rs.entry_messages,
                (unsigned long long)rs.wire_bytes,
                (unsigned long long)cs.messages,
                (unsigned long long)cs.entry_messages,
                (unsigned long long)cs.wire_bytes);
    return Status::OK();
  };

  // Initial population: every subscriber refreshes once (the cached side's
  // first fill happens here), then warmup, then the measured rounds.
  for (size_t i = 0; i < n; ++i) {
    RETURN_IF_ERROR(
        rescan.sys->Refresh(RefreshRequest::For(rescan.subs[i])).status());
    RETURN_IF_ERROR(
        cached.sys->Refresh(RefreshRequest::For(cached.subs[i])).status());
  }
  for (int r = 0; r < warmup; ++r) RETURN_IF_ERROR(run_round(false));

  const ChannelStats wire_before = cached.sys->data_channel()->stats();
  for (int r = 0; r < iters; ++r) RETURN_IF_ERROR(run_round(true));
  const ChannelStats wire =
      cached.sys->data_channel()->stats() - wire_before;

  // Content oracle: both mirrors end in identical, correct snapshots.
  for (size_t i : {size_t{0}, n - 1}) {
    ASSIGN_OR_RETURN(SnapshotTable * rs,
                     rescan.sys->GetSnapshot(rescan.subs[i]));
    ASSIGN_OR_RETURN(SnapshotTable * cs,
                     cached.sys->GetSnapshot(cached.subs[i]));
    ASSIGN_OR_RETURN(auto rc, rs->Contents());
    ASSIGN_OR_RETURN(auto cc, cs->Contents());
    BENCH_CHECK(rc.size() == cc.size(), "content size divergence on %s",
                rescan.subs[i].c_str());
    for (const auto& [addr, row] : rc) {
      auto it = cc.find(addr);
      BENCH_CHECK(it != cc.end() && it->second.Equals(row),
                  "content divergence on %s", rescan.subs[i].c_str());
    }
  }

  // Sublinear-cost oracle: with every subscriber due each round, the
  // cached side runs one scan per round against the mirror's N — demand at
  // least half the ideal reduction (slack covers live-set drift).
  if (spread == 1 && out.scanned_rescan > 0) {
    BENCH_CHECK(out.scanned_cached * n <= out.scanned_rescan * 2,
                "scan amortization below N/2: cached=%llu rescan=%llu n=%zu",
                (unsigned long long)out.scanned_cached,
                (unsigned long long)out.scanned_rescan, n);
  }

  out.refresh_wall_us = bench::Summarize(cached_walls);
  out.rescan_wall_us = bench::Summarize(rescan_walls);
  out.wire_bytes = wire.wire_bytes;
  out.entry_messages = wire.entry_messages;
  out.wire_bytes_per_row = double(wire.wire_bytes) / double(rows);
  double total_wall_us = 0.0;
  for (double w : cached_walls) total_wall_us += w;
  // Each subscriber refresh logically re-covers the whole table; the
  // cached system just doesn't re-read it.
  out.rows_per_sec = total_wall_us > 0.0
                         ? double(rows) * double(out.refreshes) /
                               (total_wall_us / 1e6)
                         : 0.0;
  return out;
}

std::string RenderJson(size_t rows, int iters, int warmup,
                       const std::vector<ConfigResult>& results) {
  std::string out = "{\n";
  out += bench::ReportHeaderFields("group_refresh");
  out += "  \"rows\": " + std::to_string(rows) + ",\n";
  out += "  \"iters\": " + std::to_string(iters) + ",\n";
  out += "  \"warmup\": " + std::to_string(warmup) + ",\n";
  out += "  \"ops_per_round\": " + std::to_string(rows / 10 + rows / 100 + 1) +
         ",\n";
  out += "  \"selectivity\": \"" + std::string(kRestriction) +
         " (~50%)\",\n";
  out += "  \"wal_enabled\": true,\n";
  out += "  \"note\": \"mirrored cache-on/cache-off systems; the bench "
         "exits nonzero unless cache-served refreshes are byte-identical "
         "to the rescan mirror, touch zero base pages, and keep base rows "
         "scanned sublinear in subscriber count\",\n";
  out += "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    const double ratio =
        r.scanned_cached > 0
            ? double(r.scanned_rescan) / double(r.scanned_cached)
            : 0.0;
    out += "    {\"name\": \"n" + std::to_string(r.n) + "_spread" +
           std::to_string(r.spread) + "\"" +
           ", \"subscribers\": " + std::to_string(r.n) +
           ", \"spread\": " + std::to_string(r.spread) +
           ", \"refresh_wall_us\": " + bench::RenderStats(r.refresh_wall_us) +
           ", \"rescan_wall_us\": " + bench::RenderStats(r.rescan_wall_us) +
           ", \"refreshes\": " + std::to_string(r.refreshes) +
           ", \"cache_serves\": " + std::to_string(r.cache_serves) +
           ", \"scanned_cached\": " + std::to_string(r.scanned_cached) +
           ", \"scanned_rescan\": " + std::to_string(r.scanned_rescan) +
           ", \"scan_amortization\": " + std::to_string(ratio) +
           ", \"entry_messages\": " + std::to_string(r.entry_messages) +
           ", \"wire_bytes\": " + std::to_string(r.wire_bytes) +
           ", \"wire_bytes_per_row\": " +
           std::to_string(r.wire_bytes_per_row) +
           ", \"rows_per_sec\": " + std::to_string(r.rows_per_sec) + "}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace
}  // namespace snapdiff

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(argc, argv,
                                  "[rows] [iters] [out.json] [warmup]");
  const size_t rows = args.Size(20000);
  const int iters = static_cast<int>(args.Size(5));
  const std::string json_path = args.Text("BENCH_group.json");
  const int warmup = static_cast<int>(args.Count(1));
  args.Finish();

  std::printf(
      "=== Epoch delta cache: one base scan amortized over N subscribers\n"
      "=== N x staleness-spread sweep, cache-on vs mirrored cache-off "
      "(rows = %llu, %d rounds + %d warmup)\n\n",
      static_cast<unsigned long long>(rows), iters, warmup);
  std::printf("%14s %12s %12s %14s %14s %12s\n", "config", "refreshes",
              "serves", "cached_us", "rescan_us", "scan_ratio");

  struct Shape {
    size_t n;
    size_t spread;
  };
  std::vector<snapdiff::ConfigResult> results;
  for (const Shape s : {Shape{2, 1}, Shape{8, 1}, Shape{32, 1}, Shape{8, 4}}) {
    auto r = snapdiff::RunConfig(rows, iters, warmup, s.n, s.spread);
    if (!r.ok()) {
      std::fprintf(stderr, "config (n=%zu, spread=%zu) failed: %s\n", s.n,
                   s.spread, r.status().ToString().c_str());
      return 1;
    }
    results.push_back(*r);
    const double ratio =
        r->scanned_cached > 0
            ? double(r->scanned_rescan) / double(r->scanned_cached)
            : 0.0;
    std::printf("%9sn%zu_s%zu %12llu %12llu %14.1f %14.1f %12.2f\n", "",
                r->n, r->spread,
                static_cast<unsigned long long>(r->refreshes),
                static_cast<unsigned long long>(r->cache_serves),
                r->refresh_wall_us.mean, r->rescan_wall_us.mean, ratio);
  }

  const std::string json =
      snapdiff::RenderJson(rows, iters, warmup, results);
  std::ofstream f(json_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  f << json;
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
