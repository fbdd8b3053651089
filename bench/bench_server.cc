// Multi-client load driver for the refresh server: one base process serves
// hundreds of concurrent refresh sessions over real sockets while a mutator
// churns the base tables, and the driver reports aggregate refresh
// throughput, p50/p99 latency, and a per-client Jain fairness index.
//
//   bench_server <rows_per_table> <clients> <out.json> [rounds]
//                [--tables=N] [--addr=host:port|unix:/path]
//                [--connect=host:port|unix:/path]
//
// Clients split evenly across three selectivity classes (100% / 50% / 10%
// of the base), attach to per-client snapshots, and run `rounds` refresh
// round trips each; SnapTimes stagger naturally because every client
// demands at its own replica's time. BENCH_server.json follows the
// perf_gate shape: top-level shape keys plus one config per selectivity
// class carrying rows_per_sec and wire_bytes_per_row.
//
// By default the driver hosts everything in one process: base tables, the
// mutator, and an in-process RefreshServer. With --connect=ADDR it becomes
// a pure load generator against an externally hosted server (e.g. the
// shell's \serve): no tables, no mutator, no listener — the target must
// already serve snapshots named snap0..snap{clients-1}, and <rows_per_table>
// should match the remote base so reports stay shape-comparable.
// Connect-mode reports omit the "server" section, so perf_gate skips the
// aggregate wire-byte gate.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "net/refresh_server.h"
#include "net/remote_site.h"
#include "snapshot/snapshot_manager.h"

using namespace snapdiff;

namespace {

constexpr const char* kClassNames[3] = {"sel100", "sel50", "sel10"};
constexpr const char* kClassPredicates[3] = {"TRUE", "Salary < 50",
                                             "Salary < 10"};
constexpr double kClassSelectivity[3] = {1.0, 0.5, 0.1};

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raise the fd ceiling: every client costs two fds (its socket plus the
/// server's accepted end) and the replicas/bookkeeping need headroom.
void RaiseFdLimit(size_t clients) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t want = static_cast<rlim_t>(4 * clients + 512);
  if (lim.rlim_cur >= want) return;
  lim.rlim_cur = std::min<rlim_t>(want, lim.rlim_max);
  setrlimit(RLIMIT_NOFILE, &lim);
}

struct ClientResult {
  int cls = 0;
  uint64_t refreshes = 0;
  uint64_t rows_applied = 0;  // upserts + deletes admitted at the replica
  uint64_t reconnects = 0;
  std::vector<double> latencies_us;
  double wall_us = 0.0;  // first demand to last END, per client
  bool failed = false;
  std::string error;
};

/// Jain's fairness index over per-client attained throughput: 1.0 when all
/// clients progress at the same rate, 1/n when one client hogs the server.
double JainIndex(const std::vector<double>& xs) {
  double sum = 0.0, sumsq = 0.0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq <= 0.0) return 1.0;
  return (sum * sum) / (double(xs.size()) * sumsq);
}

}  // namespace

int main(int argc, char** argv) {
  snapdiff::bench::BenchArgs args(
      argc, argv,
      "<rows_per_table> <clients> <out.json> [rounds] [--tables=N] "
      "[--addr=ADDR] [--connect=ADDR] [--wire=0|1]");
  const size_t rows = args.Size();
  const size_t clients = args.Size();
  const std::string out_path = args.Text();
  const size_t rounds = args.Size(4);
  const size_t tables = std::min<size_t>(args.SizeFlag("tables", 8), clients);
  std::string addr = args.TextFlag("addr", "");
  const std::string connect = args.TextFlag("connect", "");
  const bool wire_on = args.BoolFlag("wire", false);
  args.Finish();
  const bool hosting = connect.empty();
  if (hosting && addr.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    addr = std::string("unix:") + (tmp != nullptr ? tmp : "/tmp") +
           "/snapdiff_bench_server_" + std::to_string(::getpid()) + ".sock";
  }
  RaiseFdLimit(clients);

  // --- base process: tables, per-client snapshots, the server ---
  // In connect mode all of this is skipped: the external server owns the
  // tables and its own churn, and this process is clients only.
  SnapshotSystemOptions sys_options;
  sys_options.enable_wal = false;  // serving cost, not durability, is timed
  sys_options.base_pool_pages = 8192;
  sys_options.snap_pool_pages = 8192;
  std::unique_ptr<SnapshotSystem> sys;
  std::unique_ptr<RefreshServer> server;
  std::vector<BaseTable*> bases;
  std::vector<std::vector<Address>> addrs(tables);
  std::string bound = connect;
  if (hosting) {
    sys = std::make_unique<SnapshotSystem>(sys_options);
    const Schema schema({{"Name", TypeId::kString, false},
                         {"Salary", TypeId::kInt64, false}});
    for (size_t t = 0; t < tables; ++t) {
      auto base = sys->CreateBaseTable("t" + std::to_string(t), schema);
      if (!base.ok()) {
        std::fprintf(stderr, "create table: %s\n",
                     base.status().ToString().c_str());
        return 1;
      }
      bases.push_back(*base);
      char name[24];
      for (size_t i = 0; i < rows; ++i) {
        std::snprintf(name, sizeof(name), "r%07zu", i);
        auto a = (*base)->Insert(Tuple({Value::String(name),
                                        Value::Int64(int64_t(i % 100))}));
        if (!a.ok()) return 1;
        addrs[t].push_back(*a);
      }
    }
    for (size_t i = 0; i < clients; ++i) {
      const int cls = int(i % 3);
      auto made = sys->CreateSnapshot("snap" + std::to_string(i),
                                      "t" + std::to_string(i % tables),
                                      kClassPredicates[cls]);
      if (!made.ok()) {
        std::fprintf(stderr, "create snapshot: %s\n",
                     made.status().ToString().c_str());
        return 1;
      }
    }

    ServerOptions server_options;
    server_options.listen_addr = addr;
    server_options.backlog = 1024;
    server_options.wire_encoding = wire_on;
    server_options.wire_compression = wire_on;
    server = std::make_unique<RefreshServer>(sys.get(), server_options);
    if (Status st = server->Start(); !st.ok()) {
      std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
      return 1;
    }
    bound = server->bound_addr();
  }
  std::printf("bench_server: %zu clients x %zu rounds, %zu tables x %zu "
              "rows, %s %s\n",
              clients, rounds, tables, rows,
              hosting ? "serving at" : "connecting to", bound.c_str());

  // --- mutator: deterministic churn under the serve mutex ---
  const size_t ops_per_round = std::max<size_t>(rows / 10, 1);
  std::atomic<bool> churn_on{hosting};
  std::thread mutator([&] {
    if (!hosting) return;
    std::mt19937_64 rng(0xC0FFEE);
    while (churn_on.load(std::memory_order_acquire)) {
      {
        std::lock_guard<std::mutex> lock(sys->serve_mutex());
        for (size_t op = 0; op < ops_per_round; ++op) {
          const size_t t = rng() % tables;
          const size_t i = rng() % addrs[t].size();
          // Same-size replacement row (fixed-width name): in-place update
          // never needs page growth, only the Salary changes.
          char name[24];
          std::snprintf(name, sizeof(name), "r%07zu", i);
          (void)bases[t]->Update(addrs[t][i],
                                 Tuple({Value::String(name),
                                        Value::Int64(int64_t(rng() % 100))}));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // --- clients: connect all, barrier, then `rounds` round trips each ---
  std::vector<ClientResult> results(clients);
  std::atomic<size_t> live_peak{0};
  std::atomic<size_t> live_now{0};
  // Start barrier: every client holds its first demand until all have
  // attached, so the full fleet refreshes concurrently and the fairness
  // index measures scheduling, not arrival order. Counts resolved connect
  // attempts (success or failure) so a failed client cannot wedge it.
  std::atomic<size_t> connect_resolved{0};
  const double bench_start_us = NowUs();
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t i = 0; i < clients; ++i) {
      workers.emplace_back([&, i] {
        ClientResult& r = results[i];
        r.cls = int(i % 3);
        // Soften the connect stampede; refresh SnapTimes stagger on top of
        // this because every round demands at the replica's own time.
        std::this_thread::sleep_for(std::chrono::microseconds(200 * (i % 64)));
        RemoteSiteOptions site_options;
        site_options.pool_pages = 64;
        site_options.wire_encoding = wire_on;
        site_options.wire_compression = wire_on;
        Result<std::unique_ptr<RemoteSnapshotSite>> site =
            RemoteSnapshotSite::Connect(bound, "snap" + std::to_string(i),
                                        site_options);
        for (int attempt = 0; !site.ok() && attempt < 8; ++attempt) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2 << attempt));
          site = RemoteSnapshotSite::Connect(
              bound, "snap" + std::to_string(i), site_options);
        }
        if (!site.ok()) {
          r.failed = true;
          r.error = site.status().ToString();
          connect_resolved.fetch_add(1);
          return;
        }
        const size_t now = live_now.fetch_add(1) + 1;
        size_t peak = live_peak.load();
        while (now > peak && !live_peak.compare_exchange_weak(peak, now)) {
        }
        connect_resolved.fetch_add(1);
        while (connect_resolved.load(std::memory_order_acquire) < clients) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const double t0 = NowUs();
        for (size_t round = 0; round < rounds; ++round) {
          const double demand_us = NowUs();
          auto report = (*site)->Refresh();
          if (!report.ok()) {
            r.failed = true;
            r.error = report.status().ToString();
            break;
          }
          r.latencies_us.push_back(NowUs() - demand_us);
          ++r.refreshes;
          r.rows_applied += report->stats.snap_upserts +
                            report->stats.snap_inserts +
                            report->stats.snap_deletes;
          r.reconnects += report->reconnects;
        }
        r.wall_us = NowUs() - t0;
        live_now.fetch_sub(1);
      });
    }
    for (auto& w : workers) w.join();
  }
  const double bench_wall_us = NowUs() - bench_start_us;
  churn_on.store(false, std::memory_order_release);
  mutator.join();
  ServerStats server_stats;
  ChannelStats wire;
  if (hosting) {
    server_stats = server->stats();
    wire = server->AggregateTransportStats();
    server->Stop();
  }

  // --- aggregate ---
  size_t failed = 0;
  uint64_t refreshes_total = 0;
  uint64_t rows_total = 0;
  uint64_t reconnects_total = 0;
  std::vector<double> all_latencies;
  std::vector<double> per_client_rate;  // refreshes per second attained
  struct ClassAgg {
    uint64_t refreshes = 0;
    uint64_t rows = 0;
    double busy_us = 0.0;  // summed client refresh wall time
    std::vector<double> latencies;
  } cls_agg[3];
  for (const ClientResult& r : results) {
    if (r.failed) {
      ++failed;
      std::fprintf(stderr, "client failed: %s\n", r.error.c_str());
      continue;
    }
    refreshes_total += r.refreshes;
    rows_total += r.rows_applied;
    reconnects_total += r.reconnects;
    all_latencies.insert(all_latencies.end(), r.latencies_us.begin(),
                         r.latencies_us.end());
    if (r.wall_us > 0.0) {
      per_client_rate.push_back(double(r.refreshes) / (r.wall_us / 1e6));
    }
    ClassAgg& agg = cls_agg[r.cls];
    agg.refreshes += r.refreshes;
    agg.rows += r.rows_applied;
    for (double l : r.latencies_us) agg.busy_us += l;
    agg.latencies.insert(agg.latencies.end(), r.latencies_us.begin(),
                         r.latencies_us.end());
  }
  if (failed > 0) {
    std::fprintf(stderr, "bench_server: %zu/%zu clients failed\n", failed,
                 clients);
    return 1;
  }
  const double throughput =
      double(refreshes_total) / (bench_wall_us / 1e6);
  const double p50 = bench::Percentile(all_latencies, 50.0);
  const double p99 = bench::Percentile(all_latencies, 99.0);
  const double fairness = JainIndex(per_client_rate);
  const double wire_per_row =
      rows_total > 0 ? double(wire.wire_bytes) / double(rows_total) : 0.0;

  std::printf(
      "bench_server: %llu refreshes (%zu concurrent sessions at peak) in "
      "%.1fs -> %.1f refresh/s, apply %.0f rows/s\n",
      (unsigned long long)refreshes_total, live_peak.load(),
      bench_wall_us / 1e6, throughput, double(rows_total) /
                                           (bench_wall_us / 1e6));
  std::printf("  latency p50 %.1f ms, p99 %.1f ms; fairness %.4f; "
              "%llu resumes, %llu reconnects\n",
              p50 / 1e3, p99 / 1e3, fairness,
              (unsigned long long)server_stats.resumes,
              (unsigned long long)reconnects_total);
  if (hosting) {
    std::printf("  server high-water: %llu concurrent refreshes\n",
                (unsigned long long)server_stats.refreshes_concurrent);
  }

  // --- BENCH_server.json (perf_gate-compatible shape) ---
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::string json = "{\n";
  json += bench::ReportHeaderFields("server");
  json += std::string("  \"mode\": \"") +
          (hosting ? "hosted" : "connect") + "\",\n";
  json += "  \"rows\": " + std::to_string(rows) + ",\n";
  json += "  \"tables\": " + std::to_string(tables) + ",\n";
  json += "  \"clients\": " + std::to_string(clients) + ",\n";
  json += "  \"rounds\": " + std::to_string(rounds) + ",\n";
  json += "  \"ops_per_round\": " + std::to_string(ops_per_round) + ",\n";
  json += "  \"selectivity\": 0.5,\n";  // class mix is uniform over thirds
  json += "  \"wal_enabled\": false,\n";
  json += std::string("  \"wire_encoded\": ") + (wire_on ? "true" : "false") +
          ",\n";
  json += "  \"peak_concurrent_sessions\": " +
          std::to_string(live_peak.load()) + ",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"refreshes_total\": %llu,\n"
                "  \"refresh_throughput_per_sec\": %.2f,\n"
                "  \"rows_applied_per_sec\": %.1f,\n"
                "  \"p50_refresh_us\": %.1f,\n"
                "  \"p99_refresh_us\": %.1f,\n"
                "  \"fairness_jain\": %.4f,\n",
                (unsigned long long)refreshes_total, throughput,
                double(rows_total) / (bench_wall_us / 1e6), p50, p99,
                fairness);
  json += buf;
  json += "  \"refresh_wall_us\": " +
          bench::RenderStats(bench::Summarize(all_latencies)) + ",\n";
  if (hosting) {
    // Connect mode has no server-side accounting, so the section (and with
    // it perf_gate's aggregate wire-byte comparison) is omitted entirely.
    std::snprintf(buf, sizeof(buf),
                  "  \"server\": {\"sessions_served\": %llu, \"resumes\": "
                  "%llu, \"acks\": %llu, \"errors\": %llu, "
                  "\"refreshes_concurrent\": %llu, \"wire_bytes\": "
                  "%llu, \"frames\": %llu},\n",
                  (unsigned long long)server_stats.sessions_served,
                  (unsigned long long)server_stats.resumes,
                  (unsigned long long)server_stats.acks,
                  (unsigned long long)server_stats.errors,
                  (unsigned long long)server_stats.refreshes_concurrent,
                  (unsigned long long)wire.wire_bytes,
                  (unsigned long long)wire.frames);
    json += buf;
  }
  json += "  \"configs\": [\n";
  for (int c = 0; c < 3; ++c) {
    const ClassAgg& agg = cls_agg[c];
    // Per-class throughput normalizes by summed client busy time — the
    // wall-clock share this class actually got, so classes are comparable
    // even though they run interleaved.
    const double cls_rows_per_sec =
        agg.busy_us > 0.0 ? double(agg.rows) / (agg.busy_us / 1e6) : 0.0;
    const double cls_wire_per_row =
        rows_total > 0 && agg.rows > 0
            ? wire_per_row  // shared wire; per-row cost is class-agnostic
            : 0.0;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"selectivity\": %.2f, \"refreshes\": "
        "%llu,\n     \"rows_per_sec\": %.1f, \"wire_bytes_per_row\": %.4f,\n",
        kClassNames[c], kClassSelectivity[c],
        (unsigned long long)agg.refreshes, cls_rows_per_sec,
        cls_wire_per_row);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"p50_refresh_us\": %.1f, \"p99_refresh_us\": %.1f, "
                  "\"refresh_wall_us\": ",
                  bench::Percentile(agg.latencies, 50.0),
                  bench::Percentile(agg.latencies, 99.0));
    json += buf;
    json += bench::RenderStats(bench::Summarize(agg.latencies));
    json += c + 1 < 3 ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("bench_server: wrote %s\n", out_path.c_str());
  return 0;
}
