// The repository benchmark's load generator: one process hosts a
// SnapshotSystem and a RefreshServer, drives closed-loop
// RemoteSnapshotSite::Refresh clients over TCP loopback sockets while one
// open-loop writer thread updates the base tables at a fixed rate, checks
// every replica against the base at the end, and prints one JSON line of
// metrics measured from outside the program.
//
//   perfbench_load --workload shared_scan|churn_encoded|cold_pool
//                  --seed N --seconds S --trace 0|1 --data-dir DIR
//
// --trace 0 sets up the workload three times (setup_s is their median),
// then measures S seconds and prints the end-to-end metrics. --trace 1 sets
// up once, measures S/2 seconds untraced and S/2 seconds traced (benchmark
// spans, per-thread CPU clocks, registry deltas, flight-recorder drains)
// and prints the per-layer metrics. perfbench/README.md defines every
// metric; perfbench/run.py builds this binary and runs it.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"
#include "net/refresh_server.h"
#include "net/remote_site.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "snapshot/snapshot_manager.h"

using namespace snapdiff;
using perfbench::JainIndex;
using perfbench::Percentile;
using perfbench::ProcessCpuSeconds;
using perfbench::RecorderLedger;
using perfbench::ThreadCpuSeconds;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------------
// Workload definitions

struct ClientSpec {
  size_t table;
  const char* predicate;
  double selectivity;  // expected fraction of base rows the predicate keeps
};

struct WorkloadSpec {
  const char* name;
  size_t tables;
  size_t rows_per_table;
  size_t payload_bytes;  // 0: no Payload column
  bool file_backed;
  /// Buffer-pool pages as a multiple of the pages they cache: the base
  /// pool against all base heap pages, each replica pool against its own
  /// replica's heap pages.
  double base_pool_ratio;
  double replica_pool_ratio;
  size_t refresh_workers;
  bool encoded_wire;  // offer the compact encoding and LZ on both ends
  /// Serve over a Unix socket instead of TCP loopback. On TCP every
  /// refresh waits out the client's delayed ACK (the server does not set
  /// TCP_NODELAY), and host noise stretches that wait; a workload aimed at
  /// other layers uses a Unix socket so its timings show those layers.
  bool unix_socket;
  std::vector<ClientSpec> clients;
  double writes_per_s;
  /// The writer's op mix as a repeating cycle of U(pdate), I(nsert) and
  /// D(elete), one whole cycle per table in turn. A fixed cycle that
  /// deletes before it inserts keeps each table's hole count bounded; with
  /// ops drawn independently it random-walks, and first-fit's cost swings
  /// with it from run to run (README, "Writer op cycle").
  const char* op_cycle;
  double zipf_theta;   // 0: uniform over all live rows
  double hot_frac;     // zipf: the hot range, as a fraction of live rows
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"shared_scan", 1, 100000, 0, false, 2.5, 2.0, 1, false, false,
       {{0, "Salary < 50", 0.5}, {0, "Salary < 50", 0.5},
        {0, "Salary < 50", 0.5}},
       2000, "U", 0.0, 1.0},
      {"churn_encoded", 3, 30000, 256, false, 2.5, 2.0, 1, true, false,
       {{0, "TRUE", 1.0}, {1, "Salary < 50", 0.5}, {2, "Salary < 10", 0.1}},
       4000, "UDIUDIUDIU", 0.99, 0.1},
      {"cold_pool", 1, 60000, 0, true, 0.25, 0.5, 3, false, true,
       {{0, "Salary < 10", 0.1}},
       1000, "U", 0.0, 1.0},
  };
  return kWorkloads;
}

// --------------------------------------------------------------------------
// Row generation (deterministic per seed)

Schema MakeSchema(const WorkloadSpec& spec) {
  std::vector<Column> cols = {{"Name", TypeId::kString, false},
                              {"Salary", TypeId::kInt64, false}};
  if (spec.payload_bytes > 0) {
    cols.push_back({"Payload", TypeId::kString, false});
  }
  return Schema(std::move(cols));
}

/// Payloads are concatenations of words from a small vocabulary, so LZ has
/// something to find, as in real text columns.
std::string MakePayload(size_t bytes, std::mt19937_64* rng) {
  static const char* kWords[16] = {
      "alpha ", "bravo ", "charlie ", "delta ", "echo ", "foxtrot ",
      "golf ", "hotel ", "india ", "juliet ", "kilo ", "lima ",
      "mike ", "november ", "oscar ", "papa "};
  std::string out;
  out.reserve(bytes + 16);
  while (out.size() < bytes) out += kWords[(*rng)() % 16];
  out.resize(bytes);
  return out;
}

Tuple MakeRow(const WorkloadSpec& spec, uint32_t id, std::mt19937_64* rng) {
  char name[16];
  std::snprintf(name, sizeof(name), "r%08u", id);
  std::vector<Value> vals = {Value::String(name),
                             Value::Int64(int64_t((*rng)() % 100))};
  if (spec.payload_bytes > 0) {
    vals.push_back(Value::String(MakePayload(spec.payload_bytes, rng)));
  }
  return Tuple(std::move(vals));
}

// --------------------------------------------------------------------------
// The system under test, set up once per setup round

struct LiveRow {
  Address addr;
  uint32_t id;
};

struct PoolPlan {
  size_t base_pages = 0;
  std::vector<size_t> replica_pages;  // per client
};

/// Base and replica rows per heap page for this row shape, measured on a
/// small in-process system, so pools can be sized as ratios of the working
/// set before the real tables exist.
Result<std::pair<double, double>> ProbeRowsPerPage(const WorkloadSpec& spec) {
  constexpr uint32_t kProbeRows = 4000;
  SnapshotSystemOptions opts;
  opts.enable_wal = false;
  opts.base_pool_pages = 1024;
  opts.snap_pool_pages = 1024;
  SnapshotSystem sys(opts);
  ASSIGN_OR_RETURN(BaseTable * base,
                   sys.CreateBaseTable("probe", MakeSchema(spec)));
  std::mt19937_64 rng(1);
  for (uint32_t i = 0; i < kProbeRows; ++i) {
    RETURN_IF_ERROR(base->Insert(MakeRow(spec, i, &rng)).status());
  }
  ASSIGN_OR_RETURN(SnapshotTable * snap,
                   sys.CreateSnapshot("probe_all", "probe", "TRUE"));
  RETURN_IF_ERROR(sys.Refresh(RefreshRequest::For("probe_all")).status());
  const double base_pages = double(base->info()->heap->pages().size());
  const double snap_pages =
      double(snap->storage()->info()->heap->pages().size());
  return std::make_pair(kProbeRows / base_pages, kProbeRows / snap_pages);
}

Result<PoolPlan> PlanPools(const WorkloadSpec& spec) {
  ASSIGN_OR_RETURN(auto per_page, ProbeRowsPerPage(spec));
  PoolPlan plan;
  const double base_heap =
      double(spec.tables * spec.rows_per_table) / per_page.first;
  plan.base_pages = size_t(std::ceil(spec.base_pool_ratio * base_heap));
  for (const ClientSpec& c : spec.clients) {
    const double replica_heap =
        double(spec.rows_per_table) * c.selectivity / per_page.second;
    plan.replica_pages.push_back(std::max<size_t>(
        16, size_t(std::ceil(spec.replica_pool_ratio * replica_heap))));
  }
  return plan;
}

struct Rig {
  std::unique_ptr<SnapshotSystem> sys;
  std::unique_ptr<RefreshServer> server;
  std::vector<BaseTable*> bases;
  std::vector<std::vector<LiveRow>> live;  // per table, writer-owned
  /// Positions in `live` whose row was deleted; the next insert into that
  /// table takes the position, so the hot positions stay hot rows.
  std::vector<std::vector<size_t>> vacant;
  uint32_t next_id = 0;
  std::vector<std::unique_ptr<RemoteSnapshotSite>> sites;  // per client
  std::vector<double> connect_ms;
  PoolPlan pools;
  size_t base_heap_pages = 0;
  std::vector<size_t> replica_heap_pages;

  ~Rig() {
    sites.clear();  // close client connections before the server stops
    if (server != nullptr) server->Stop();
  }
};

std::string SnapName(size_t client) { return "snap" + std::to_string(client); }

/// Populates the tables, creates one snapshot per client, starts the
/// server, connects every client and gives each replica its first (full)
/// refresh.
Result<std::unique_ptr<Rig>> BuildRig(const WorkloadSpec& spec, uint64_t seed,
                                      const std::string& data_dir) {
  auto rig = std::make_unique<Rig>();
  ASSIGN_OR_RETURN(rig->pools, PlanPools(spec));

  SnapshotSystemOptions opts;
  opts.enable_wal = false;
  opts.base_pool_pages = rig->pools.base_pages;
  opts.snap_pool_pages = 64;  // the in-process snapshot site stays empty
  opts.refresh_workers = spec.refresh_workers;
  if (spec.file_backed) {
    const std::string path = data_dir + "/" + spec.name + ".db";
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".wal");
    opts.base_data_path = path;
  }
  rig->sys = std::make_unique<SnapshotSystem>(opts);

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  rig->live.resize(spec.tables);
  rig->vacant.resize(spec.tables);
  for (size_t t = 0; t < spec.tables; ++t) {
    ASSIGN_OR_RETURN(BaseTable * base,
                     rig->sys->CreateBaseTable("t" + std::to_string(t),
                                               MakeSchema(spec)));
    rig->bases.push_back(base);
    // Bulk load at the table's end; the measured phase then runs with the
    // default first-fit placement, which scans the heap for a hole.
    base->info()->heap->set_policy(PlacementPolicy::kAppend);
    rig->live[t].reserve(spec.rows_per_table * 2);
    for (size_t i = 0; i < spec.rows_per_table; ++i) {
      const uint32_t id = rig->next_id++;
      ASSIGN_OR_RETURN(Address addr, base->Insert(MakeRow(spec, id, &rng)));
      rig->live[t].push_back(LiveRow{addr, id});
    }
    base->info()->heap->set_policy(PlacementPolicy::kFirstFit);
    rig->base_heap_pages += base->info()->heap->pages().size();
  }
  for (size_t c = 0; c < spec.clients.size(); ++c) {
    const ClientSpec& cs = spec.clients[c];
    RETURN_IF_ERROR(rig->sys
                        ->CreateSnapshot(SnapName(c),
                                         "t" + std::to_string(cs.table),
                                         cs.predicate)
                        .status());
  }

  ServerOptions server_opts;
  // Relative to the data directory, which main() makes the working
  // directory: an absolute path could exceed sun_path's 108 bytes.
  server_opts.listen_addr = spec.unix_socket
                                ? std::string("unix:") + spec.name + ".sock"
                                : "127.0.0.1:0";
  server_opts.wire_encoding = spec.encoded_wire;
  server_opts.wire_compression = spec.encoded_wire;
  rig->server = std::make_unique<RefreshServer>(rig->sys.get(), server_opts);
  RETURN_IF_ERROR(rig->server->Start());

  for (size_t c = 0; c < spec.clients.size(); ++c) {
    RemoteSiteOptions site_opts;
    site_opts.pool_pages = rig->pools.replica_pages[c];
    site_opts.wire_encoding = spec.encoded_wire;
    site_opts.wire_compression = spec.encoded_wire;
    const Clock::time_point t0 = Clock::now();
    ASSIGN_OR_RETURN(std::unique_ptr<RemoteSnapshotSite> site,
                     RemoteSnapshotSite::Connect(rig->server->bound_addr(),
                                                 SnapName(c), site_opts));
    rig->connect_ms.push_back(SecondsSince(t0) * 1e3);
    rig->sites.push_back(std::move(site));
  }
  // Every client demands its first (full) refresh at once, as a fleet of
  // snapshot sites coming up together would.
  std::vector<Status> first(rig->sites.size());
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < rig->sites.size(); ++c) {
      threads.emplace_back([&rig, &first, c] {
        first[c] = rig->sites[c]->Refresh().status();
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (size_t c = 0; c < rig->sites.size(); ++c) {
    RETURN_IF_ERROR(first[c]);
    rig->replica_heap_pages.push_back(
        rig->sites[c]->table()->storage()->info()->heap->pages().size());
  }
  return rig;
}

// --------------------------------------------------------------------------
// One measured phase

/// Zipf(theta) ranks over [0, n) by inverse CDF.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(double(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& x : cdf_) x /= sum;
  }
  size_t Pick(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
    return size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                  cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct ClientOut {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;  // failed refreshes as +inf
  std::vector<double> done_s;      // when each refresh ended, from t0
  double elapsed_s = 0.0;
  double thread_cpu_s = 0.0;
  double refresh_cpu_ms = 0.0;  // traced: client CPU inside Refresh
  uint64_t rows_applied = 0;
  uint64_t messages = 0;
  uint64_t reconnects = 0;
  uint64_t held_for_reorder = 0;
  uint64_t duplicates_dropped = 0;
};

enum OpKind { kUpdate = 0, kInsert = 1, kDelete = 2 };

struct WriterOut {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;  // from the due time; failures as +inf
  std::vector<double> late_ms;     // start behind the due time
  double thread_cpu_s = 0.0;
  // Writer-thread CPU inside the BaseTable calls (every run).
  double call_cpu_us = 0.0;
  uint64_t calls = 0;
  // Traced only: each BaseTable call's wall time (not from the due time).
  std::vector<double> call_us[3];
  double queue_depth_sum = 0.0;
  uint64_t queue_depth_samples = 0;
};

struct Counters {
  ServerStats server;
  ChannelStats wire;
  WireCodecStats codec;  // summed over client decoders
  DiskStats disk;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

Counters ReadCounters(Rig* rig) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  Counters c;
  c.server = rig->server->stats();
  c.wire = rig->server->AggregateTransportStats();
  for (const auto& site : rig->sites) {
    const WireCodecStats s = site->wire_stats();
    c.codec.delta_rows += s.delta_rows;
    c.codec.columnar_rows += s.columnar_rows;
    c.codec.opaque_rows += s.opaque_rows;
    c.codec.compressed_blocks += s.compressed_blocks;
    c.codec.bytes_in += s.bytes_in;
    c.codec.bytes_out += s.bytes_out;
    c.codec.stream_resets += s.stream_resets;
  }
  c.disk = rig->sys->base_disk()->stats();
  c.pool_hits = reg.GetCounter("storage.buffer_pool.hits")->value();
  c.pool_misses = reg.GetCounter("storage.buffer_pool.misses")->value();
  c.pool_evictions = reg.GetCounter("storage.buffer_pool.evictions")->value();
  c.cache_hits = reg.GetCounter("snapshot.delta_cache.hits")->value();
  c.cache_misses = reg.GetCounter("snapshot.delta_cache.misses")->value();
  return c;
}

uint64_t Delta(uint64_t after, uint64_t before) {
  return after >= before ? after - before : after;
}

struct PhaseOut {
  std::vector<ClientOut> clients;
  WriterOut writer;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  Counters before;
  Counters after;
  RecorderLedger::Summary trace;  // traced phases only

  uint64_t RefreshesOk() const {
    uint64_t n = 0;
    for (const ClientOut& c : clients) n += c.ok;
    return n;
  }
  uint64_t RefreshesAttempted() const {
    uint64_t n = 0;
    for (const ClientOut& c : clients) n += c.attempted;
    return n;
  }
  uint64_t RefreshesFailed() const {
    uint64_t n = 0;
    for (const ClientOut& c : clients) n += c.failed;
    return n;
  }
  uint64_t Served() const {
    return Delta(after.server.sessions_served, before.server.sessions_served);
  }
  uint64_t ServerErrors() const {
    return Delta(after.server.errors, before.server.errors);
  }
  /// Refresh latencies of every client in the order the refreshes ended;
  /// failed refreshes stand in as the whole phase, i.e. beyond every
  /// percentile of the ones that finished.
  std::vector<double> AllLatencyMs() const {
    std::vector<std::pair<double, double>> by_end;
    for (const ClientOut& c : clients) {
      for (size_t i = 0; i < c.latency_ms.size(); ++i) {
        const double l = c.latency_ms[i];
        by_end.emplace_back(c.done_s[i], std::isinf(l) ? wall_s * 1e3 : l);
      }
    }
    std::sort(by_end.begin(), by_end.end());
    std::vector<double> all;
    for (const auto& [end, l] : by_end) all.push_back(l);
    return all;
  }
  /// Completed refreshes per second, all clients: the completions in time
  /// order are cut into chunks as the latency percentiles are, each chunk
  /// spanning the time since the previous chunk's last completion, and
  /// the median chunk rate is returned. Unlike count / time, a burst of
  /// refreshes stalled by the host in part of a run does not move it.
  double MedianRefreshesPerSecond(size_t min_chunk) const {
    std::vector<double> ends;
    for (const ClientOut& c : clients) {
      for (size_t i = 0; i < c.done_s.size(); ++i) {
        if (!std::isinf(c.latency_ms[i])) ends.push_back(c.done_s[i]);
      }
    }
    std::sort(ends.begin(), ends.end());
    size_t chunks = ends.size() / std::max<size_t>(1, min_chunk);
    if (chunks < 3) chunks = 1;
    std::vector<double> rates;
    double since = 0.0;
    for (size_t k = 0; k < chunks && !ends.empty(); ++k) {
      const size_t first = k * ends.size() / chunks;
      const size_t last = (k + 1) * ends.size() / chunks;
      const double until = ends[last - 1];
      if (until > since) rates.push_back(double(last - first) / (until - since));
      since = until;
    }
    return Percentile(&rates, 50.0);
  }
  double LoadThreadCpuS() const {
    double s = writer.thread_cpu_s;
    for (const ClientOut& c : clients) s += c.thread_cpu_s;
    return s;
  }
};

/// The writer: an open loop at a fixed rate. Op k is due at
/// start + k / rate; its latency runs from that due time, so a stall shows
/// in every op scheduled behind it.
void RunWriter(const WorkloadSpec& spec, Rig* rig, uint64_t seed,
               const std::atomic<bool>* stop,
               const std::atomic<int>* refreshes_in_flight,
               obs::Gauge* concurrent_gauge, bool traced, WriterOut* out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50us late
  // The generator must issue writes on schedule. At normal priority the
  // scheduler parks this thread for milliseconds behind busy refresh
  // threads, and those delays would swamp the program's own blocking.
  if (setpriority(PRIO_PROCESS, gettid(), -10) != 0) {
    std::fprintf(stderr, "warning: writer runs at normal priority (%s)\n",
                 std::strerror(errno));
  }
  const double cpu0 = ThreadCpuSeconds();
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 99);
  std::vector<ZipfPicker> zipf;
  if (spec.zipf_theta > 0.0) {
    for (size_t t = 0; t < spec.tables; ++t) {
      zipf.emplace_back(std::max<size_t>(
                            1, size_t(spec.hot_frac *
                                      double(spec.rows_per_table))),
                        spec.zipf_theta);
    }
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.writes_per_s));
  const size_t cycle_len = std::strlen(spec.op_cycle);
  const Clock::time_point start = Clock::now();
  std::mutex& serve_mu = rig->sys->serve_mutex();
  out->latency_us.reserve(size_t(spec.writes_per_s * 60.0));
  out->late_ms.reserve(out->latency_us.capacity());
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due = start + period * int64_t(k);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    if (stop->load(std::memory_order_acquire)) break;
    const Clock::time_point began = Clock::now();

    const size_t t = (k / cycle_len) % spec.tables;
    std::vector<LiveRow>& live = rig->live[t];
    std::vector<size_t>& vacant = rig->vacant[t];
    const char op = spec.op_cycle[k % cycle_len];
    OpKind kind = op == 'U' ? kUpdate : (op == 'I' ? kInsert : kDelete);
    // Refill a vacated position before touching the hot rows again, so no
    // update or delete picks a deleted row.
    if (!vacant.empty() || live.size() <= 1) kind = kInsert;
    size_t pos = 0;
    if (kind != kInsert) {
      pos = zipf.empty() ? size_t(rng() % live.size())
                         : std::min(zipf[t].Pick(&rng), live.size() - 1);
    }
    const uint32_t id = kind == kInsert ? rig->next_id++ : live[pos].id;
    Tuple row;
    if (kind != kDelete) row = MakeRow(spec, id, &rng);

    Status status;
    Address inserted;
    {
      std::lock_guard<std::mutex> lock(serve_mu);
      const Clock::time_point call0 = Clock::now();
      const double call_cpu0 = ThreadCpuSeconds();
      BaseTable* base = rig->bases[t];
      switch (kind) {
        case kUpdate:
          status = base->Update(live[pos].addr, row);
          break;
        case kInsert: {
          Result<Address> r = base->Insert(row);
          status = r.status();
          if (r.ok()) inserted = *r;
          break;
        }
        case kDelete:
          status = base->Delete(live[pos].addr);
          break;
      }
      out->call_cpu_us += (ThreadCpuSeconds() - call_cpu0) * 1e6;
      ++out->calls;
      if (traced) {
        out->call_us[kind].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - call0)
                .count());
      }
    }
    const Clock::time_point done = Clock::now();
    ++out->attempted;
    out->late_ms.push_back(
        std::chrono::duration<double, std::milli>(began - due).count());
    if (status.ok()) {
      out->latency_us.push_back(
          std::chrono::duration<double, std::micro>(done - due).count());
      if (kind == kInsert && !vacant.empty()) {
        live[vacant.back()] = LiveRow{inserted, id};
        vacant.pop_back();
      } else if (kind == kInsert) {
        live.push_back(LiveRow{inserted, id});
      } else if (kind == kDelete) {
        vacant.push_back(pos);
      }
    } else {
      ++out->failed;
      out->latency_us.push_back(INFINITY);
      std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    }
    if (traced) {
      // Refreshes the clients have demanded but the system is not yet
      // executing: they wait in per-table admission.
      const int depth = refreshes_in_flight->load(std::memory_order_relaxed) -
                        int(concurrent_gauge->value());
      out->queue_depth_sum += std::max(0, depth);
      ++out->queue_depth_samples;
    }
  }
  out->thread_cpu_s = ThreadCpuSeconds() - cpu0;
}

void RunClient(RemoteSnapshotSite* site, Clock::time_point t0,
               Clock::time_point deadline, std::atomic<int>* in_flight,
               RecorderLedger* ledger, ClientOut* out) {
  const double cpu0 = ThreadCpuSeconds();
  while (Clock::now() < deadline) {
    in_flight->fetch_add(1, std::memory_order_relaxed);
    const double rcpu0 = ledger != nullptr ? ThreadCpuSeconds() : 0.0;
    const Clock::time_point r0 = Clock::now();
    Result<RemoteRefreshReport> report = site->Refresh();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - r0).count();
    if (ledger != nullptr) {
      out->refresh_cpu_ms += (ThreadCpuSeconds() - rcpu0) * 1e3;
    }
    in_flight->fetch_sub(1, std::memory_order_relaxed);
    ++out->attempted;
    if (report.ok()) {
      ++out->ok;
      out->latency_ms.push_back(ms);
      out->done_s.push_back(SecondsSince(t0));
      out->rows_applied +=
          report->stats.snap_upserts + report->stats.snap_deletes;
      out->messages += report->messages_applied;
      out->reconnects += report->reconnects;
      out->held_for_reorder += report->held_for_reorder;
      out->duplicates_dropped += report->duplicates_dropped;
    } else {
      ++out->failed;
      out->latency_ms.push_back(INFINITY);
      out->done_s.push_back(SecondsSince(t0));
      std::fprintf(stderr, "refresh failed: %s\n",
                   report.status().ToString().c_str());
    }
    // Traced runs drain the recorder between refreshes, from this (load)
    // thread, so no ring wraps before it is read.
    if (ledger != nullptr) ledger->MaybeDrain(20.0);
  }
  out->elapsed_s = SecondsSince(t0);
  out->thread_cpu_s = ThreadCpuSeconds() - cpu0;
}

/// Set-ups per end-to-end run: at least kMinSetups, and more (up to
/// kMaxSetups) while they took under kMinSetupSeconds in total, so a
/// sub-second set-up still gets a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kMinSetupSeconds = 4.0;

/// Unmeasured load before the measured phase.
constexpr double kWarmupSeconds = 2.0;

/// A writer whose p99 start runs later than this behind its due times did
/// not produce the load the workload defines; the run says so on stderr.
constexpr double kScheduleSlackMs = 10.0;

/// Waits until the server has processed the SESSION_ACK of every refresh
/// the clients completed, so server-side counters read at a quiet point.
void AwaitAcks(Rig* rig, uint64_t expected_acks) {
  const Clock::time_point t0 = Clock::now();
  while (rig->server->stats().acks < expected_acks && SecondsSince(t0) < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

PhaseOut RunPhase(const WorkloadSpec& spec, Rig* rig, uint64_t seed,
                  double seconds, bool traced) {
  PhaseOut out;
  out.clients.resize(spec.clients.size());
  RecorderLedger ledger;
  obs::Gauge* concurrent_gauge =
      obs::MetricsRegistry::Default().GetGauge("snapshot.refreshes_concurrent");
  out.before = ReadCounters(rig);
  std::atomic<bool> stop_writer{false};
  std::atomic<int> in_flight{0};
  if (traced) ledger.Begin();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::thread writer(RunWriter, std::cref(spec), rig, seed, &stop_writer,
                     &in_flight, concurrent_gauge, traced, &out.writer);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < spec.clients.size(); ++c) {
    clients.emplace_back(RunClient, rig->sites[c].get(), t0, deadline,
                         &in_flight, traced ? &ledger : nullptr,
                         &out.clients[c]);
  }
  for (std::thread& th : clients) th.join();
  stop_writer.store(true, std::memory_order_release);
  writer.join();
  out.wall_s = SecondsSince(t0);
  out.process_cpu_s = ProcessCpuSeconds() - cpu0;
  if (traced) out.trace = ledger.End();
  AwaitAcks(rig, out.before.server.acks + out.RefreshesOk());
  out.after = ReadCounters(rig);
  std::vector<double> late = out.writer.late_ms;
  const double late_p99_ms = Percentile(&late, 99.0);
  if (late_p99_ms > kScheduleSlackMs) {
    std::fprintf(stderr,
                 "warning: the writer could not keep its schedule: p99 "
                 "start %.1f ms behind the due time\n",
                 late_p99_ms);
  }
  return out;
}

// --------------------------------------------------------------------------
// Correctness oracle

/// Every replica, after one final refresh with the writer stopped, must
/// equal what its restriction selects from the base, and the server must
/// have answered no demand with an error.
bool VerifyReplicas(const WorkloadSpec& spec, Rig* rig) {
  for (size_t c = 0; c < spec.clients.size(); ++c) {
    RemoteSnapshotSite* site = rig->sites[c].get();
    Result<RemoteRefreshReport> report = site->Refresh();
    if (!report.ok()) {
      std::fprintf(stderr, "oracle: final refresh of %s failed: %s\n",
                   SnapName(c).c_str(), report.status().ToString().c_str());
      return false;
    }
    auto got = site->table()->Contents();
    auto want = rig->sys->ExpectedContents(SnapName(c));
    if (!got.ok() || !want.ok()) {
      std::fprintf(stderr, "oracle: cannot read %s contents\n",
                   SnapName(c).c_str());
      return false;
    }
    if (*got != *want) {
      std::fprintf(stderr,
                   "oracle: replica %s differs from the base (%zu rows vs "
                   "%zu expected)\n",
                   SnapName(c).c_str(), got->size(), want->size());
      return false;
    }
  }
  const uint64_t errors = rig->server->stats().errors;
  if (errors != 0) {
    std::fprintf(stderr, "oracle: server sent %" PRIu64 " error replies\n",
                 errors);
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return Ratio(s, double(xs.size()));
}

/// Splits `xs` (in time order) into as many equal consecutive chunks as
/// hold at least `min_chunk` samples each, takes each chunk's p-th
/// percentile and returns their median; with fewer than 3 * min_chunk
/// samples (too few chunks for a median) it is the percentile of all. The median over chunks
/// keeps a burst of host noise in part of a run from moving its figure.
/// The writer issues a fixed number of ops per second, so chunks of
/// `writes_per_s` ops are seconds of schedule.
double MedianOfChunkPercentiles(const std::vector<double>& xs,
                                size_t min_chunk, double p) {
  size_t chunks = xs.size() / std::max<size_t>(1, min_chunk);
  if (chunks < 3) chunks = 1;
  std::vector<double> per_chunk;
  for (size_t k = 0; k < chunks; ++k) {
    std::vector<double> part(xs.begin() + k * xs.size() / chunks,
                             xs.begin() + (k + 1) * xs.size() / chunks);
    per_chunk.push_back(Percentile(&part, p));
  }
  return Percentile(&per_chunk, 50.0);
}

/// Refresh latency percentiles are medians over chunks of at least this
/// many consecutive refreshes, so that 10 of each chunk lie beyond p95.
constexpr size_t kRefreshChunk = 200;

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> EndToEndMetrics(const PhaseOut& p,
                                    std::vector<double> setup_s) {
  std::vector<double> rates;
  uint64_t rows = 0;
  for (const ClientOut& c : p.clients) {
    rates.push_back(Ratio(double(c.ok), c.elapsed_s));
    rows += c.rows_applied;
  }
  std::vector<double> lat = p.AllLatencyMs();
  const uint64_t attempted = p.RefreshesAttempted() + p.writer.attempted;
  const uint64_t failed =
      p.RefreshesFailed() + p.writer.failed + p.ServerErrors();
  return {
      {"refresh_per_s", p.MedianRefreshesPerSecond(kRefreshChunk), "1/s"},
      {"refresh_p50_ms",
       MedianOfChunkPercentiles(lat, kRefreshChunk, 50.0), "ms"},
      {"fairness_jain", JainIndex(rates), "index"},
      {"write_cpu_us",
       Ratio(p.writer.call_cpu_us, double(p.writer.calls)), "us"},
      {"wire_bytes_per_row",
       Ratio(double(Delta(p.after.wire.wire_bytes, p.before.wire.wire_bytes)),
             double(rows)),
       "B/row"},
      {"cpu_ms_per_refresh",
       Ratio((p.process_cpu_s - p.writer.thread_cpu_s) * 1e3,
             double(p.RefreshesOk())),
       "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"setup_s", Percentile(&setup_s, 50.0), "s"},
      // Laplace's rule of succession, (failed + 1) / (attempted + 2): the
      // failure odds of the next operation, never exactly 0.
      {"failed_frac", double(failed + 1) / double(attempted + 2), "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec, const Rig& rig,
                                    const PhaseOut& untraced,
                                    const PhaseOut& p) {
  const double ok = double(p.RefreshesOk());
  const double served = double(p.Served());
  uint64_t rows = 0, messages = 0, reconnects = 0, held = 0, dups = 0;
  double client_cpu_ms = 0.0;
  for (const ClientOut& c : p.clients) {
    rows += c.rows_applied;
    messages += c.messages;
    reconnects += c.reconnects;
    held += c.held_for_reorder;
    dups += c.duplicates_dropped;
    client_cpu_ms += c.refresh_cpu_ms;
  }
  const Counters& a = p.after;
  const Counters& b = p.before;
  const double codec_rows =
      double(Delta(a.codec.delta_rows, b.codec.delta_rows) +
             Delta(a.codec.columnar_rows, b.codec.columnar_rows) +
             Delta(a.codec.opaque_rows, b.codec.opaque_rows));
  const double wire_bytes = double(Delta(a.wire.wire_bytes, b.wire.wire_bytes));
  const double frames = double(Delta(a.wire.frames, b.wire.frames));
  const double hits = double(Delta(a.pool_hits, b.pool_hits));
  const double misses = double(Delta(a.pool_misses, b.pool_misses));
  const double cache_hits = double(Delta(a.cache_hits, b.cache_hits));
  const double cache_misses = double(Delta(a.cache_misses, b.cache_misses));

  std::vector<double> late = p.writer.late_ms;
  std::vector<double> wlat = p.writer.latency_us;
  for (double& w : wlat) {
    if (std::isinf(w)) w = p.wall_s * 1e6;
  }
  const size_t ops_per_s = size_t(spec.writes_per_s);
  std::vector<double> serve = p.trace.serve_ms;
  std::vector<double> part = p.trace.partition_ms;
  std::vector<double> lat = p.AllLatencyMs();
  std::vector<double> lat_untraced = untraced.AllLatencyMs();
  std::vector<double> calls[3] = {p.writer.call_us[0], p.writer.call_us[1],
                                  p.writer.call_us[2]};
  const double p50_traced = Percentile(&lat, 50.0);
  const double p50_untraced = Percentile(&lat_untraced, 50.0);
  return {
      {"loadgen.write_late_p99_ms", Percentile(&late, 99.0), "ms"},
      {"loadgen.write_p50_us", MedianOfChunkPercentiles(wlat, ops_per_s, 50.0),
       "us"},
      {"loadgen.write_p99_us", MedianOfChunkPercentiles(wlat, ops_per_s, 99.0),
       "us"},
      {"loadgen.refresh_samples", double(lat.size()), "count"},
      {"loadgen.refresh_p95_ms",
       MedianOfChunkPercentiles(lat_untraced, kRefreshChunk, 95.0), "ms"},
      {"remote_site.connect_ms", Mean(rig.connect_ms), "ms"},
      {"remote_site.cpu_ms_per_refresh", Ratio(client_cpu_ms, ok), "ms"},
      {"remote_site.rows_applied_per_refresh", Ratio(double(rows), ok),
       "rows"},
      {"remote_site.messages_per_refresh", Ratio(double(messages), ok),
       "count"},
      {"remote_site.reconnects", double(reconnects), "count"},
      {"remote_site.held_for_reorder", double(held), "count"},
      {"remote_site.duplicates_dropped", double(dups), "count"},
      {"encoding.bytes_ratio",
       Ratio(double(Delta(a.codec.bytes_in, b.codec.bytes_in)),
             double(Delta(a.codec.bytes_out, b.codec.bytes_out))),
       "ratio"},
      {"encoding.delta_rows_frac",
       Ratio(double(Delta(a.codec.delta_rows, b.codec.delta_rows)),
             codec_rows),
       "ratio"},
      {"encoding.compressed_blocks_per_refresh",
       Ratio(double(Delta(a.codec.compressed_blocks,
                          b.codec.compressed_blocks)),
             ok),
       "count"},
      {"encoding.stream_resets",
       double(Delta(a.codec.stream_resets, b.codec.stream_resets)), "count"},
      {"server.serve_ms_p50", Percentile(&serve, 50.0), "ms"},
      {"server.serve_ms_p95", Percentile(&serve, 95.0), "ms"},
      {"server.cpu_ms_per_refresh",
       Ratio((p.process_cpu_s - p.LoadThreadCpuS()) * 1e3, served), "ms"},
      {"server.concurrent_hw", double(a.server.refreshes_concurrent),
       "count"},
      {"server.resumes", double(Delta(a.server.resumes, b.server.resumes)),
       "count"},
      {"server.errors", double(p.ServerErrors()), "count"},
      {"transport.wire_bytes_per_refresh", Ratio(wire_bytes, served), "B"},
      {"transport.frames_per_refresh", Ratio(frames, served), "count"},
      {"transport.bytes_per_frame", Ratio(wire_bytes, frames), "B"},
      {"snapshot.admission_queue_depth",
       Ratio(p.writer.queue_depth_sum, double(p.writer.queue_depth_samples)),
       "count"},
      {"snapshot.scan_pages_per_refresh",
       Ratio(double(p.trace.scan_pages), served), "pages"},
      {"snapshot.partition_ms_p50", Percentile(&part, 50.0), "ms"},
      {"snapshot.partition_skew", Mean(p.trace.partition_skew), "ratio"},
      {"snapshot.pool_queue_ms", Mean(p.trace.pool_queue_ms), "ms"},
      {"snapshot.delta_cache_hit_frac",
       Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"storage.pool_hit_frac", Ratio(hits, hits + misses), "ratio"},
      {"storage.pool_misses_per_refresh", Ratio(misses, served), "count"},
      {"storage.pool_evictions_per_refresh",
       Ratio(double(Delta(a.pool_evictions, b.pool_evictions)), served),
       "count"},
      {"storage.base_disk_reads_per_refresh",
       Ratio(double(Delta(a.disk.reads, b.disk.reads)), served), "count"},
      {"storage.base_disk_writes_per_refresh",
       Ratio(double(Delta(a.disk.writes, b.disk.writes)), served), "count"},
      {"base.update_us_p99", Percentile(&calls[kUpdate], 99.0), "us"},
      {"base.insert_us_p99", Percentile(&calls[kInsert], 99.0), "us"},
      {"base.delete_us_p99", Percentile(&calls[kDelete], 99.0), "us"},
      {"base.write_cpu_us",
       Ratio(p.writer.call_cpu_us, double(p.writer.calls)), "us"},
      {"obs.trace_overhead_pct",
       (Ratio(p50_traced, p50_untraced) - 1.0) * 100.0, "%"},
      {"obs.dropped_events", double(p.trace.lost_events), "count"},
      {"proc.cpu_busy_cores", Ratio(p.process_cpu_s, p.wall_s), "cores"},
  };
}

void PrintResult(const std::vector<Metric>& metrics, uint64_t attempted,
                 uint64_t failed) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void DescribeRig(const WorkloadSpec& spec, const Rig& rig) {
  std::fprintf(stderr,
               "%s: %zu table(s) x %zu rows, base heap %zu pages, base pool "
               "%zu pages (%.2fx heap)\n",
               spec.name, spec.tables, spec.rows_per_table,
               rig.base_heap_pages, rig.pools.base_pages,
               Ratio(double(rig.pools.base_pages),
                     double(rig.base_heap_pages)));
  for (size_t c = 0; c < rig.sites.size(); ++c) {
    std::fprintf(stderr,
                 "  client %zu: %s on t%zu, replica %zu pages, pool %zu "
                 "pages (%.2fx replica)\n",
                 c, spec.clients[c].predicate, spec.clients[c].table,
                 rig.replica_heap_pages[c], rig.pools.replica_pages[c],
                 Ratio(double(rig.pools.replica_pages[c]),
                       double(rig.replica_heap_pages[c])));
  }
}

// --------------------------------------------------------------------------
// Arguments

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_load: %s\n"
               "usage: perfbench_load --workload "
               "shared_scan|churn_encoded|cold_pool --seed N --seconds S "
               "--trace 0|1 --data-dir DIR\n",
               why);
  std::exit(2);
}

/// Whole decimal number in [lo, hi]; anything else is a usage error.
uint64_t ParseUint(const std::string& flag, const char* text, uint64_t lo,
                   uint64_t hi) {
  if (text == nullptr || *text == '\0') {
    Usage((flag + " needs a value").c_str());
  }
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      Usage((flag + " takes a whole number, got '" + text + "'").c_str());
    }
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text, nullptr, 10);
  if (errno != 0 || v < lo || v > hi) {
    Usage((flag + " out of range: " + text).c_str());
  }
  return v;
}

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  bool trace = false;
  std::string data_dir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--help" || flag == "-h") Usage("help requested");
    if (value == nullptr) Usage((flag + " needs a value").c_str());
    ++i;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : Workloads()) {
        if (w.name == std::string(value)) args.spec = &w;
      }
      if (args.spec == nullptr) {
        Usage((std::string("unknown workload '") + value + "'").c_str());
      }
    } else if (flag == "--seed") {
      args.seed = ParseUint(flag, value, 0, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = ParseUint(flag, value, 1, 3600);
    } else if (flag == "--trace") {
      args.trace = ParseUint(flag, value, 0, 1) == 1;
      have_trace = true;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.spec == nullptr || !have_seed || args.seconds == 0 ||
      !have_trace || args.data_dir.empty()) {
    Usage("--workload, --seed, --seconds, --trace and --data-dir are required");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *args.spec;
  std::filesystem::create_directories(args.data_dir);
  args.data_dir = std::filesystem::absolute(args.data_dir).string();
  std::filesystem::current_path(args.data_dir);
  // Traced runs size the recorder's rings for one drain interval of the
  // busiest thread; end-to-end runs keep the shipped default.
  if (args.trace) obs::FlightRecorder::Global().SetRingCapacity(1u << 17);

  // End-to-end runs set up at least kMinSetups times, and more while the
  // set-ups so far took under kMinSetupSeconds, then report the median;
  // the last rig is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  double setup_total_s = 0.0;
  for (int k = 0; k < (args.trace ? 1 : kMaxSetups); ++k) {
    if (!args.trace && k >= kMinSetups && setup_total_s >= kMinSetupSeconds) {
      break;
    }
    rig.reset();
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Rig>> built =
        BuildRig(spec, args.seed, args.data_dir);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    setup_total_s += setup_s.back();
    rig = std::move(*built);
  }
  DescribeRig(spec, *rig);

  // Warm-up: the full load, not measured, so caches, the allocator and the
  // connections settle before timing starts. Its failures still count.
  const PhaseOut warm =
      RunPhase(spec, rig.get(), args.seed + 2, kWarmupSeconds, false);
  std::vector<Metric> metrics;
  uint64_t attempted = warm.RefreshesAttempted() + warm.writer.attempted;
  uint64_t failed =
      warm.RefreshesFailed() + warm.writer.failed + warm.ServerErrors();
  if (!args.trace) {
    PhaseOut p = RunPhase(spec, rig.get(), args.seed, double(args.seconds),
                          false);
    metrics = EndToEndMetrics(p, setup_s);
    attempted += p.RefreshesAttempted() + p.writer.attempted;
    failed += p.RefreshesFailed() + p.writer.failed + p.ServerErrors();
  } else {
    const double half = double(args.seconds) / 2.0;
    PhaseOut untraced = RunPhase(spec, rig.get(), args.seed, half, false);
    PhaseOut traced = RunPhase(spec, rig.get(), args.seed + 1, half, true);
    if (traced.trace.lost_events != 0) {
      std::fprintf(stderr,
                   "traced run lost %" PRIu64 " flight-recorder events; it "
                   "does not count\n",
                   traced.trace.lost_events);
      return 1;
    }
    metrics = PerLayerMetrics(spec, *rig, untraced, traced);
    for (const PhaseOut* p : {&untraced, &traced}) {
      attempted += p->RefreshesAttempted() + p->writer.attempted;
      failed += p->RefreshesFailed() + p->writer.failed + p->ServerErrors();
    }
  }
  if (!VerifyReplicas(spec, rig.get())) {
    std::fprintf(stderr, "correctness oracle failed; no result reported\n");
    return 1;
  }
  PrintResult(metrics, attempted, failed);
  return 0;
}
