// Million-row workload harness: runs the differential refresh loop against
// YCSB-style churn on a file-backed base site and reports the numbers the
// CI perf gate compares across commits —
//
//   rows/sec            scanned base entries per second of refresh wall time
//   wire_bytes/row      exact wire bytes per scanned entry (deterministic)
//   p50/p99 refresh     latency percentiles over the measured rounds
//
// Four workload profiles run through an identical pipeline: `uniform`
// (50/50 read/update, no skew), `zipf_hot` (zipfian theta 0.99 picks
// inside a 10% hot partition taking 90% of the traffic, plus insert/delete
// churn), `delete_heavy` (30% inserts + 30% deletes — the churn mix that
// stresses the differential's Deletion-flag path and fix-up repairs), and
// `wide_row` (1 KiB payloads — the row-width knob that shifts cost from
// scan qualification to payload transmission). All refresh a
// selectivity-0.5 differential snapshot.
//
// The binary doubles as the flight-recorder overhead harness:
// `--overhead-gate=PCT` interleaves recorder-enabled and recorder-disabled
// refresh rounds in one process and fails if the best enabled round is more
// than PCT% slower than the best disabled round — the bench-smoke assertion
// behind the "single-digit-ns, always-on" claim. `--trace=FILE` dumps the
// recorder rings as Chrome trace-event JSON (load in Perfetto).
//
// Usage: bench_workload [rows] [iters] [json_path] [warmup] [flags]
//   rows       base-table size                  (default 1000000)
//   iters      measured refresh rounds/profile  (default 5)
//   json_path  output file                      (default BENCH_workload.json)
//   warmup     unmeasured churn+refresh rounds  (default 1)
//   --ops=N          YCSB ops per round         (default rows/10)
//   --data=PATH|mem  base-site backing          (default bench_workload.db,
//                    deleted on exit; "mem" for in-memory)
//   --trace=FILE     dump a Chrome trace after the measured rounds
//   --overhead-gate=PCT  run the recorder-overhead comparison and exit
//                    nonzero if enabled exceeds disabled by > PCT%

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "obs/flight_recorder.h"
#include "sim/ycsb.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

struct Args {
  size_t rows = 1000000;
  int iters = 5;
  std::string json_path = "BENCH_workload.json";
  int warmup = 1;
  size_t ops = 0;  // 0 = rows / 10
  std::string data = "bench_workload.db";
  std::string trace_path;
  double overhead_gate_pct = -1.0;  // < 0 = gate off
  size_t workers = 1;               // refresh scan/apply worker threads
  bool wire = false;                // encode refresh traffic (wire + LZ)
};

struct Profile {
  const char* name;
  YcsbConfig ycsb;
};

struct ProfileResult {
  std::string name;
  bench::SampleStats refresh_wall_us;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double rows_per_sec = 0.0;
  double wire_bytes_per_row = 0.0;
  uint64_t entries_scanned = 0;  // totals over the measured rounds
  uint64_t wire_bytes = 0;
  uint64_t live_rows = 0;
  YcsbOpCounts ops;
};

struct GateResult {
  double pct_limit = 0.0;
  double best_enabled_us = 0.0;
  double best_disabled_us = 0.0;
  double overhead_pct = 0.0;
  bool pass = false;
};

Profile UniformProfile(const Args& a) {
  Profile p;
  p.name = "uniform";
  p.ycsb.rows = a.rows;
  p.ycsb.seed = 42;
  p.ycsb.read_fraction = 0.5;
  p.ycsb.update_fraction = 0.5;
  // Appending placement keeps the million-row population O(rows); first-fit
  // would rescan every page per insert.
  p.ycsb.placement = PlacementPolicy::kAppend;
  return p;
}

Profile ZipfHotProfile(const Args& a) {
  Profile p;
  p.name = "zipf_hot";
  p.ycsb.rows = a.rows;
  p.ycsb.seed = 43;
  p.ycsb.read_fraction = 0.45;
  p.ycsb.update_fraction = 0.45;
  p.ycsb.insert_fraction = 0.05;
  p.ycsb.delete_fraction = 0.05;
  p.ycsb.zipf_theta = 0.99;  // classic YCSB skew
  p.ycsb.hot_fraction = 0.10;
  p.ycsb.hot_share = 0.90;
  p.ycsb.placement = PlacementPolicy::kAppend;
  return p;
}

Profile DeleteHeavyProfile(const Args& a) {
  Profile p;
  p.name = "delete_heavy";
  p.ycsb.rows = a.rows;
  p.ycsb.seed = 44;
  p.ycsb.read_fraction = 0.2;
  p.ycsb.update_fraction = 0.2;
  p.ycsb.insert_fraction = 0.3;
  p.ycsb.delete_fraction = 0.3;
  p.ycsb.placement = PlacementPolicy::kAppend;
  return p;
}

Profile WideRowProfile(const Args& a) {
  Profile p;
  p.name = "wide_row";
  p.ycsb.rows = a.rows;
  p.ycsb.seed = 45;
  p.ycsb.payload_bytes = 1024;
  p.ycsb.read_fraction = 0.5;
  p.ycsb.update_fraction = 0.5;
  p.ycsb.placement = PlacementPolicy::kAppend;
  return p;
}

SnapshotSystemOptions SystemOptions(const Args& a, const char* profile) {
  SnapshotSystemOptions opts;
  // Pool sized to roughly half the base table's working set so the measured
  // refresh scans exercise real eviction + file I/O at the 1M-row scale
  // (a stored row is ~150 bytes; pages are 4 KiB, so ~27 rows/page).
  opts.base_pool_pages = std::max<size_t>(4096, a.rows / 50);
  opts.snap_pool_pages = std::max<size_t>(4096, a.rows / 50);
  // WAL off: the harness measures refresh cost, not durability cost, and a
  // million-row population would be dominated by log appends. Recorded in
  // the JSON so the gate never compares across this setting.
  opts.enable_wal = false;
  opts.refresh_workers = a.workers;
  opts.wire_encoding = a.wire;
  opts.wire_compression = a.wire;
  if (a.data != "mem") opts.base_data_path = a.data + "." + profile;
  return opts;
}

Result<ProfileResult> RunProfile(const Args& a, const Profile& profile) {
  const size_t ops = a.ops > 0 ? a.ops : std::max<size_t>(1, a.rows / 10);
  SnapshotSystem sys(SystemOptions(a, profile.name));
  ASSIGN_OR_RETURN(std::unique_ptr<YcsbWorkload> workload,
                   YcsbWorkload::Create(&sys, profile.name, profile.ycsb));
  const std::string snap = std::string("snap_") + profile.name;
  RETURN_IF_ERROR(
      sys.CreateSnapshot(snap, profile.name, workload->RestrictionFor(0.5))
          .status());

  // Population refresh (annotates + transmits everything) and warmup rounds
  // are unmeasured: the measured rounds see a settled pool and allocator.
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For(snap)).status());
  for (int round = 0; round < a.warmup; ++round) {
    RETURN_IF_ERROR(workload->Run(ops).status());
    RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For(snap)).status());
  }

  ProfileResult out;
  out.name = profile.name;
  std::vector<double> walls;
  walls.reserve(size_t(a.iters));
  for (int round = 0; round < a.iters; ++round) {
    ASSIGN_OR_RETURN(YcsbOpCounts round_ops, workload->Run(ops));
    out.ops.reads += round_ops.reads;
    out.ops.updates += round_ops.updates;
    out.ops.inserts += round_ops.inserts;
    out.ops.deletes += round_ops.deletes;
    const auto t0 = std::chrono::steady_clock::now();
    ASSIGN_OR_RETURN(RefreshReport report,
                     sys.Refresh(RefreshRequest::For(snap)));
    const auto t1 = std::chrono::steady_clock::now();
    walls.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    out.entries_scanned += report.stats.entries_scanned;
    out.wire_bytes += report.stats.traffic.wire_bytes;
  }
  out.refresh_wall_us = bench::Summarize(walls);
  out.p50_us = bench::Percentile(walls, 50.0);
  out.p99_us = bench::Percentile(walls, 99.0);
  double wall_sum = 0.0;
  for (double w : walls) wall_sum += w;
  out.rows_per_sec =
      wall_sum > 0.0 ? double(out.entries_scanned) / (wall_sum / 1e6) : 0.0;
  out.wire_bytes_per_row =
      out.entries_scanned > 0
          ? double(out.wire_bytes) / double(out.entries_scanned)
          : 0.0;
  out.live_rows = workload->live_rows();
  return out;
}

/// Interleaves recorder-enabled and recorder-disabled refresh rounds of
/// identical work (no churn between rounds, so every refresh scans the same
/// entries) and compares best-of-N minima — the least noise-sensitive
/// statistic for an overhead bound. Retries before failing: a single noisy
/// scheduling event should not flunk a 3% gate.
Result<GateResult> RunOverheadGate(const Args& a) {
  GateResult gate;
  gate.pct_limit = a.overhead_gate_pct;
#ifndef SNAPDIFF_FLIGHT_RECORDER_ENABLED
  // Nothing to measure: the macros compile to no-ops, so "enabled" and
  // "disabled" are byte-identical code. Report a trivial pass.
  gate.pass = true;
  return gate;
#else
  Profile profile = UniformProfile(a);
  profile.name = "overhead_gate";
  SnapshotSystem sys(SystemOptions(a, profile.name));
  ASSIGN_OR_RETURN(std::unique_ptr<YcsbWorkload> workload,
                   YcsbWorkload::Create(&sys, profile.name, profile.ycsb));
  RETURN_IF_ERROR(
      sys.CreateSnapshot("snap_gate", profile.name,
                         workload->RestrictionFor(0.5))
          .status());
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("snap_gate")).status());

  auto timed_refresh = [&]() -> Result<double> {
    const auto t0 = std::chrono::steady_clock::now();
    RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("snap_gate")).status());
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
  };
  // One throwaway round per mode before any timing.
  RETURN_IF_ERROR(timed_refresh().status());

  const int pairs = 5;
  for (int attempt = 0; attempt < 3; ++attempt) {
    double best_on = 0.0;
    double best_off = 0.0;
    for (int i = 0; i < pairs; ++i) {
      obs::FlightRecorder::SetEnabled(true);
      ASSIGN_OR_RETURN(double on_us, timed_refresh());
      obs::FlightRecorder::SetEnabled(false);
      ASSIGN_OR_RETURN(double off_us, timed_refresh());
      if (i == 0 || on_us < best_on) best_on = on_us;
      if (i == 0 || off_us < best_off) best_off = off_us;
    }
    obs::FlightRecorder::SetEnabled(true);
    gate.best_enabled_us = best_on;
    gate.best_disabled_us = best_off;
    gate.overhead_pct =
        best_off > 0.0 ? (best_on / best_off - 1.0) * 100.0 : 0.0;
    gate.pass = gate.overhead_pct <= gate.pct_limit;
    if (gate.pass) break;
    std::fprintf(stderr,
                 "overhead gate attempt %d: %.2f%% > %.2f%%, retrying\n",
                 attempt + 1, gate.overhead_pct, gate.pct_limit);
  }
  return gate;
#endif
}

std::string RenderConfig(const Profile& p, const ProfileResult& r) {
  char buf[256];
  std::string out = "    {\"name\": \"" + r.name + "\",\n";
  std::snprintf(buf, sizeof(buf),
                "     \"read_fraction\": %.2f, \"update_fraction\": %.2f, "
                "\"insert_fraction\": %.2f, \"delete_fraction\": %.2f,\n"
                "     \"zipf_theta\": %.2f, \"hot_fraction\": %.2f, "
                "\"hot_share\": %.2f, \"payload_bytes\": %zu,\n",
                p.ycsb.read_fraction, p.ycsb.update_fraction,
                p.ycsb.insert_fraction, p.ycsb.delete_fraction,
                p.ycsb.zipf_theta, p.ycsb.hot_fraction, p.ycsb.hot_share,
                p.ycsb.payload_bytes);
  out += buf;
  out += "     \"refresh_wall_us\": " + bench::RenderStats(r.refresh_wall_us) +
         ",\n";
  std::snprintf(buf, sizeof(buf),
                "     \"p50_refresh_us\": %.1f, \"p99_refresh_us\": %.1f,\n"
                "     \"rows_per_sec\": %.1f, \"wire_bytes_per_row\": %.4f,\n",
                r.p50_us, r.p99_us, r.rows_per_sec, r.wire_bytes_per_row);
  out += buf;
  out += "     \"entries_scanned\": " + std::to_string(r.entries_scanned) +
         ", \"wire_bytes\": " + std::to_string(r.wire_bytes) +
         ", \"live_rows\": " + std::to_string(r.live_rows) + ",\n";
  out += "     \"ops\": {\"reads\": " + std::to_string(r.ops.reads) +
         ", \"updates\": " + std::to_string(r.ops.updates) +
         ", \"inserts\": " + std::to_string(r.ops.inserts) +
         ", \"deletes\": " + std::to_string(r.ops.deletes) + "}}";
  return out;
}

Status Run(const Args& a) {
  const std::vector<Profile> profiles = {UniformProfile(a), ZipfHotProfile(a),
                                         DeleteHeavyProfile(a),
                                         WideRowProfile(a)};
  std::vector<ProfileResult> results;

  std::printf("%-10s %16s %16s %14s %16s %14s\n", "profile", "refresh_us_min",
              "refresh_us_mean", "p99_us", "rows_per_sec", "wire_b_per_row");
  for (const Profile& p : profiles) {
    ASSIGN_OR_RETURN(ProfileResult r, RunProfile(a, p));
    std::printf("%-10s %16.1f %16.1f %14.1f %16.0f %14.4f\n", r.name.c_str(),
                r.refresh_wall_us.min, r.refresh_wall_us.mean, r.p99_us,
                r.rows_per_sec, r.wire_bytes_per_row);
    results.push_back(std::move(r));
  }

  GateResult gate;
  if (a.overhead_gate_pct >= 0.0) {
    ASSIGN_OR_RETURN(gate, RunOverheadGate(a));
    std::printf(
        "\noverhead gate: enabled %.1f us vs disabled %.1f us -> %.2f%% "
        "(limit %.2f%%) %s\n",
        gate.best_enabled_us, gate.best_disabled_us, gate.overhead_pct,
        gate.pct_limit, gate.pass ? "PASS" : "FAIL");
  }

  std::string json = "{\n";
  json += bench::ReportHeaderFields("workload");
  json += "  \"rows\": " + std::to_string(a.rows) + ",\n";
  json += "  \"iters\": " + std::to_string(a.iters) + ",\n";
  json += "  \"warmup\": " + std::to_string(a.warmup) + ",\n";
  json += "  \"ops_per_round\": " +
          std::to_string(a.ops > 0 ? a.ops
                                   : std::max<size_t>(1, a.rows / 10)) +
          ",\n";
  json += std::string("  \"file_backed\": ") +
          (a.data != "mem" ? "true" : "false") + ",\n";
  json += "  \"wal_enabled\": false,\n";
  json += "  \"workers\": " + std::to_string(a.workers) + ",\n";
  json += std::string("  \"wire_encoded\": ") + (a.wire ? "true" : "false") +
          ",\n";
#ifdef SNAPDIFF_FLIGHT_RECORDER_ENABLED
  json += "  \"flight_recorder_compiled_in\": true,\n";
#else
  json += "  \"flight_recorder_compiled_in\": false,\n";
#endif
  json += "  \"selectivity\": 0.5,\n";
  json += "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    json += RenderConfig(profiles[i], results[i]);
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]";
  if (a.overhead_gate_pct >= 0.0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"overhead_gate\": {\"pct_limit\": %.2f, "
                  "\"best_enabled_us\": %.1f, \"best_disabled_us\": %.1f, "
                  "\"overhead_pct\": %.2f, \"pass\": %s}",
                  gate.pct_limit, gate.best_enabled_us, gate.best_disabled_us,
                  gate.overhead_pct, gate.pass ? "true" : "false");
    json += buf;
  }
  json += "\n}\n";
  std::ofstream f(a.json_path);
  if (!f) return Status::IOError("cannot write " + a.json_path);
  f << json;
  f.close();
  std::printf("\nwrote %s\n", a.json_path.c_str());

  if (!a.trace_path.empty()) {
#ifdef SNAPDIFF_FLIGHT_RECORDER_ENABLED
    RETURN_IF_ERROR(
        obs::FlightRecorder::Global().WriteChromeTrace(a.trace_path));
    std::printf("wrote %s\n", a.trace_path.c_str());
#else
    std::fprintf(stderr,
                 "--trace ignored: flight recorder compiled out "
                 "(SNAPDIFF_FLIGHT_RECORDER=OFF)\n");
#endif
  }

  // The backing files are scratch state, not artifacts.
  if (a.data != "mem") {
    for (const Profile& p : profiles) {
      std::remove((a.data + "." + p.name).c_str());
    }
    std::remove((a.data + ".overhead_gate").c_str());
  }

  if (a.overhead_gate_pct >= 0.0 && !gate.pass) {
    return Status::Internal("flight recorder overhead gate failed");
  }
  return Status::OK();
}

}  // namespace
}  // namespace snapdiff

int main(int argc, char** argv) {
  snapdiff::Args args;
  snapdiff::bench::BenchArgs cli(
      argc, argv,
      "[rows] [iters] [out.json] [warmup] [--ops=N] [--data=mem|file] "
      "[--trace=PATH] [--overhead-gate=PCT] [--workers=N] [--wire=0|1]");
  args.rows = cli.Size(args.rows);
  args.iters = static_cast<int>(cli.Size(args.iters));
  args.json_path = cli.Text(args.json_path);
  args.warmup = static_cast<int>(cli.Count(args.warmup));
  args.ops = cli.SizeFlag("ops", args.ops);
  args.data = cli.TextFlag("data", args.data);
  args.trace_path = cli.TextFlag("trace", args.trace_path);
  args.overhead_gate_pct =
      cli.NumberFlag("overhead-gate", args.overhead_gate_pct);
  args.workers = cli.SizeFlag("workers", args.workers);
  args.wire = cli.BoolFlag("wire", args.wire);
  cli.Finish();

  std::printf(
      "=== Workload harness: YCSB churn + differential refresh "
      "(N = %llu, %d rounds + %d warmup, %s, %zu worker%s%s)\n\n",
      static_cast<unsigned long long>(args.rows), args.iters, args.warmup,
      args.data == "mem" ? "in-memory" : "file-backed", args.workers,
      args.workers == 1 ? "" : "s", args.wire ? ", wire-encoded" : "");
  snapdiff::Status st = snapdiff::Run(args);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_workload failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
