// Wire-encoding cost model: bytes per transmitted row across four stream
// profiles x three wire modes.
//
//   profiles   fig8           narrow rows, differential refresh, scattered
//                             updates (the paper's Figure 8 message mix)
//              fig9           narrow rows, differential refresh, mixed
//                             update/delete/insert churn (Figure 9 mix)
//              wide_row       9-column rows, full retransmission each
//                             round — columnar layout + dictionary strings
//                             carry the reduction
//              delta_friendly 9-column rows, differential refresh, one
//                             field changes per row — the per-snapshot
//                             delta encoding carries the reduction
//   modes      plain          canonical stream (the only mode before the
//                             wire codec landed; PR-9-equivalent bytes)
//              encoded        wire_encoding on, compression off
//              encoded_lz     wire_encoding + wire_compression
//
// Every profile runs the same seeded churn against three mirrored systems
// (one per mode) and measures channel payload bytes over the measured
// rounds. The bench is also an oracle: it exits nonzero unless all three
// mirrors converge to identical snapshot contents every round, and —
// unless --gate=0 — unless the encoded modes cut wire bytes/row by >= 2x
// on the wide_row and delta_friendly profiles (the PR's acceptance bar).
//
// The JSON carries the perf_gate.py schema (shape keys + per-config
// wire_bytes_per_row, rows_per_sec, refresh_wall_us) and is gated in CI
// against bench/baselines/BENCH_wire.baseline.json.
//
// Usage: bench_wire [rows] [rounds] [json_path] [--gate=0|1]
//   rows       base-table size                  (default 20000)
//   rounds     measured churn+refresh rounds    (default 4)
//   json_path  output file                      (default BENCH_wire.json)
//   --gate=0   skip the 2x reduction assert (smoke sizes)

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/random.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Row shapes

Schema NarrowSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple NarrowRow(uint64_t i, int64_t salary) {
  char name[24];
  std::snprintf(name, sizeof(name), "e%08llu",
                static_cast<unsigned long long>(i));
  return Tuple({Value::String(name), Value::Int64(salary)});
}

constexpr const char* kDepts[] = {"eng", "ops", "sales", "legal",
                                  "hr",  "fin", "mkt",   "it"};
constexpr const char* kRegions[] = {"emea", "apac", "amer", "latam"};
constexpr const char* kTitles[] = {"ic1", "ic2", "ic3", "ic4", "ic5",
                                   "m1",  "m2",  "m3",  "d1",  "d2"};

Schema WideSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Dept", TypeId::kString, false},
                 {"Region", TypeId::kString, false},
                 {"Title", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false},
                 {"Bonus", TypeId::kInt64, false},
                 {"Grade", TypeId::kInt64, false},
                 {"Tenure", TypeId::kInt64, false},
                 {"Active", TypeId::kBool, false}});
}

Tuple WideRow(uint64_t i, int64_t salary) {
  char name[24];
  std::snprintf(name, sizeof(name), "emp%08llu",
                static_cast<unsigned long long>(i));
  return Tuple({Value::String(name), Value::String(kDepts[i % 8]),
                Value::String(kRegions[i % 4]), Value::String(kTitles[i % 10]),
                Value::Int64(salary), Value::Int64(salary / 10),
                Value::Int64(static_cast<int64_t>(i % 10) + 1),
                Value::Int64(static_cast<int64_t>(i % 40)),
                Value::Bool(i % 5 != 0)});
}

// ---------------------------------------------------------------------------
// Profiles: a deterministic op script per round, replayed verbatim against
// every mode's mirror so the three streams describe identical changes.

enum class RowShape { kNarrow, kWide };

struct Op {
  enum Kind { kUpdate, kDelete, kInsert } kind;
  size_t index;   // position in the live-address vector (update/delete)
  uint64_t id;    // row identity (insert)
  int64_t value;  // new salary
};

struct Profile {
  const char* name;
  RowShape shape;
  RefreshMethod method;
  // Fills `ops` for round r given the current live count; deterministic.
  void (*script)(uint64_t live, int round, std::vector<Op>* ops);
};

void Fig8Script(uint64_t live, int round, std::vector<Op>* ops) {
  // Scattered updates over ~20% of the table, the classic differential mix.
  Random rng(8100 + static_cast<uint64_t>(round));
  const uint64_t updates = live / 5;
  for (uint64_t k = 0; k < updates; ++k) {
    ops->push_back(Op{Op::kUpdate, static_cast<size_t>(rng.Uniform(live)), 0,
                      rng.UniformInt(0, 99)});
  }
}

void Fig9Script(uint64_t live, int round, std::vector<Op>* ops) {
  // Mixed churn: updates plus deletes plus inserts (~10% + 2% + 2%).
  Random rng(9100 + static_cast<uint64_t>(round));
  for (uint64_t k = 0; k < live / 10; ++k) {
    ops->push_back(Op{Op::kUpdate, static_cast<size_t>(rng.Uniform(live)), 0,
                      rng.UniformInt(0, 99)});
  }
  // Deletes shrink the live vector as they apply, so each one draws its
  // index from the size the vector will have at that point.
  uint64_t remaining = live;
  for (uint64_t k = 0; k < live / 50 && remaining > 0; ++k, --remaining) {
    ops->push_back(
        Op{Op::kDelete, static_cast<size_t>(rng.Uniform(remaining)), 0, 0});
  }
  for (uint64_t k = 0; k < live / 50; ++k) {
    ops->push_back(Op{Op::kInsert, 0,
                      1000000ull * static_cast<uint64_t>(round) + k,
                      rng.UniformInt(0, 99)});
  }
}

void WideRowScript(uint64_t live, int round, std::vector<Op>* ops) {
  // Touch 10% so each full retransmission differs round to round.
  Random rng(7100 + static_cast<uint64_t>(round));
  for (uint64_t k = 0; k < live / 10; ++k) {
    ops->push_back(Op{Op::kUpdate, static_cast<size_t>(rng.Uniform(live)), 0,
                      rng.UniformInt(30000, 200000)});
  }
}

void DeltaFriendlyScript(uint64_t live, int round, std::vector<Op>* ops) {
  // Every row's Salary nudges: the differential stream carries the whole
  // table, but each row differs from the codec shadow in one field (Bonus
  // rides Salary/10 and usually keeps its varint width).
  for (uint64_t i = 0; i < live; ++i) {
    ops->push_back(Op{Op::kUpdate, static_cast<size_t>(i), 0,
                      static_cast<int64_t>(60000 + (i % 1000)) + round});
  }
}

const Profile kProfiles[] = {
    {"fig8", RowShape::kNarrow, RefreshMethod::kDifferential, Fig8Script},
    {"fig9", RowShape::kNarrow, RefreshMethod::kDifferential, Fig9Script},
    {"wide_row", RowShape::kWide, RefreshMethod::kFull, WideRowScript},
    {"delta_friendly", RowShape::kWide, RefreshMethod::kDifferential,
     DeltaFriendlyScript},
};

struct Mode {
  const char* name;
  bool encoding;
  bool compression;
};

const Mode kModes[] = {
    {"plain", false, false},
    {"encoded", true, false},
    {"encoded_lz", true, true},
};

// ---------------------------------------------------------------------------

Tuple MakeRow(RowShape shape, uint64_t id, int64_t salary) {
  return shape == RowShape::kNarrow ? NarrowRow(id, salary)
                                    : WideRow(id, salary);
}

struct Mirror {
  std::unique_ptr<SnapshotSystem> sys;
  BaseTable* base = nullptr;
  std::vector<Address> addrs;
  std::vector<uint64_t> ids;  // row identity per live address

  uint64_t payload_bytes = 0;
  uint64_t messages = 0;
  uint64_t rows_applied = 0;
  std::vector<double> walls_us;
};

struct ConfigResult {
  std::string name;
  uint64_t payload_bytes = 0;
  uint64_t messages = 0;
  uint64_t rows_applied = 0;
  double wire_bytes_per_row = 0.0;
  double rows_per_sec = 0.0;
  bench::SampleStats refresh_wall_us;
};

bool RunProfile(const Profile& profile, size_t rows, int rounds,
                std::vector<ConfigResult>* results) {
  std::vector<Mirror> mirrors(3);
  for (size_t m = 0; m < 3; ++m) {
    SnapshotSystemOptions options;
    options.wire_encoding = kModes[m].encoding;
    options.wire_compression = kModes[m].compression;
    // Batched transmission is today's production shape and what the
    // columnar layout targets; identical for all modes, so the comparison
    // stays apples-to-apples.
    options.refresh_batch_size = 32;
    mirrors[m].sys = std::make_unique<SnapshotSystem>(options);
    auto base = mirrors[m].sys->CreateBaseTable(
        "emp", profile.shape == RowShape::kNarrow ? NarrowSchema()
                                                  : WideSchema());
    if (!base.ok()) return false;
    mirrors[m].base = *base;
    for (size_t i = 0; i < rows; ++i) {
      auto addr = mirrors[m].base->Insert(
          MakeRow(profile.shape, i, static_cast<int64_t>(i % 100)));
      if (!addr.ok()) return false;
      mirrors[m].addrs.push_back(*addr);
      mirrors[m].ids.push_back(i);
    }
    SnapshotOptions snap_options;
    snap_options.method = profile.method;
    if (!mirrors[m]
             .sys->CreateSnapshot("snap", "emp", "TRUE", snap_options)
             .ok()) {
      return false;
    }
    // Initial copy: unmeasured (every mode ships the same first full
    // stream; the profiles measure steady-state refresh traffic).
    if (!mirrors[m].sys->Refresh(RefreshRequest::For("snap")).ok()) {
      return false;
    }
  }

  for (int round = 1; round <= rounds; ++round) {
    std::vector<Op> ops;
    profile.script(mirrors[0].addrs.size(), round, &ops);
    for (Mirror& mirror : mirrors) {
      for (const Op& op : ops) {
        switch (op.kind) {
          case Op::kUpdate: {
            const uint64_t id = mirror.ids[op.index];
            if (!mirror.base
                     ->Update(mirror.addrs[op.index],
                              MakeRow(profile.shape, id, op.value))
                     .ok()) {
              return false;
            }
            break;
          }
          case Op::kDelete:
            if (!mirror.base->Delete(mirror.addrs[op.index]).ok()) {
              return false;
            }
            mirror.addrs.erase(mirror.addrs.begin() +
                               static_cast<ptrdiff_t>(op.index));
            mirror.ids.erase(mirror.ids.begin() +
                             static_cast<ptrdiff_t>(op.index));
            break;
          case Op::kInsert: {
            auto addr = mirror.base->Insert(
                MakeRow(profile.shape, op.id, op.value));
            if (!addr.ok()) return false;
            mirror.addrs.push_back(*addr);
            mirror.ids.push_back(op.id);
            break;
          }
        }
      }
      const double start = NowUs();
      auto report = mirror.sys->Refresh(RefreshRequest::For("snap"));
      if (!report.ok()) {
        std::fprintf(stderr, "bench_wire: %s refresh failed: %s\n",
                     profile.name, report.status().ToString().c_str());
        return false;
      }
      mirror.walls_us.push_back(NowUs() - start);
      mirror.payload_bytes += report->stats.traffic.payload_bytes;
      mirror.messages += report->stats.traffic.messages;
      mirror.rows_applied +=
          report->stats.snap_upserts + report->stats.snap_deletes;
    }

    // Equivalence oracle: all three mirrors hold identical contents.
    auto want = mirrors[0].sys->ExpectedContents("snap");
    if (!want.ok()) return false;
    for (size_t m = 0; m < 3; ++m) {
      auto snap = mirrors[m].sys->GetSnapshot("snap");
      if (!snap.ok()) return false;
      auto got = (*snap)->Contents();
      if (!got.ok() || got->size() != want->size()) {
        std::fprintf(stderr,
                     "bench_wire: %s/%s diverged at round %d (size)\n",
                     profile.name, kModes[m].name, round);
        return false;
      }
      for (const auto& [addr, row] : *want) {
        auto it = got->find(addr);
        if (it == got->end() || !it->second.Equals(row)) {
          std::fprintf(stderr,
                       "bench_wire: %s/%s diverged at round %d\n",
                       profile.name, kModes[m].name, round);
          return false;
        }
      }
    }
  }

  for (size_t m = 0; m < 3; ++m) {
    ConfigResult r;
    r.name = std::string(profile.name) + "/" + kModes[m].name;
    r.payload_bytes = mirrors[m].payload_bytes;
    r.messages = mirrors[m].messages;
    r.rows_applied = mirrors[m].rows_applied;
    r.wire_bytes_per_row =
        mirrors[m].rows_applied > 0
            ? double(mirrors[m].payload_bytes) /
                  double(mirrors[m].rows_applied)
            : 0.0;
    r.refresh_wall_us = bench::Summarize(mirrors[m].walls_us);
    double total_wall = 0.0;
    for (double w : mirrors[m].walls_us) total_wall += w;
    r.rows_per_sec = total_wall > 0.0
                         ? double(mirrors[m].rows_applied) /
                               (total_wall / 1e6)
                         : 0.0;
    results->push_back(std::move(r));
  }
  return true;
}

std::string RenderJson(size_t rows, int rounds,
                       const std::vector<ConfigResult>& results) {
  std::string out = "{\n";
  out += bench::ReportHeaderFields("wire");
  out += "  \"rows\": " + std::to_string(rows) + ",\n";
  out += "  \"rounds\": " + std::to_string(rounds) + ",\n";
  out += "  \"ops_per_round\": \"profile-defined\",\n";
  out += "  \"selectivity\": \"TRUE (100%)\",\n";
  out += "  \"wal_enabled\": true,\n";
  out += "  \"note\": \"three mirrored systems per profile (plain / "
         "encoded / encoded_lz) replay identical churn; the bench exits "
         "nonzero unless all mirrors converge to identical contents and "
         "the encoded modes cut wide_row and delta_friendly wire "
         "bytes/row by >= 2x\",\n";
  out += "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"payload_bytes\": %llu, "
                  "\"messages\": %llu, \"rows_applied\": %llu, "
                  "\"wire_bytes_per_row\": %.4f, \"rows_per_sec\": %.1f, "
                  "\"refresh_wall_us\": ",
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.payload_bytes),
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.rows_applied),
                  r.wire_bytes_per_row, r.rows_per_sec);
    out += line;
    out += bench::RenderStats(r.refresh_wall_us) + "}";
    out += i + 1 < results.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace
}  // namespace snapdiff

int main(int argc, char** argv) {
  using namespace snapdiff;
  bench::BenchArgs args(argc, argv,
                        "[rows] [rounds] [out.json] [--gate=0|1]");
  const size_t rows = args.Size(20000);
  const int rounds = static_cast<int>(args.Size(4));
  const std::string json_path = args.Text("BENCH_wire.json");
  const bool gate = args.BoolFlag("gate", true);
  args.Finish();

  std::printf(
      "=== Wire encoding: bytes/row, four profiles x "
      "{plain, encoded, encoded_lz} (rows = %llu, %d rounds)\n\n",
      static_cast<unsigned long long>(rows), rounds);
  std::printf("%26s %14s %12s %14s %10s\n", "config", "payload_bytes",
              "rows", "bytes/row", "reduction");

  std::vector<ConfigResult> results;
  for (const Profile& profile : kProfiles) {
    if (!RunProfile(profile, rows, rounds, &results)) {
      std::fprintf(stderr, "bench_wire: profile %s failed\n", profile.name);
      return 1;
    }
    const size_t base = results.size() - 3;
    const double plain = results[base].wire_bytes_per_row;
    for (size_t m = 0; m < 3; ++m) {
      const ConfigResult& r = results[base + m];
      const double reduction =
          r.wire_bytes_per_row > 0 ? plain / r.wire_bytes_per_row : 0.0;
      std::printf("%26s %14llu %12llu %14.2f %9.2fx\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.payload_bytes),
                  static_cast<unsigned long long>(r.rows_applied),
                  r.wire_bytes_per_row, reduction);
    }
  }

  bool ok = true;
  if (gate) {
    for (const char* profile : {"wide_row", "delta_friendly"}) {
      double plain = 0.0;
      for (const ConfigResult& r : results) {
        if (r.name == std::string(profile) + "/plain") {
          plain = r.wire_bytes_per_row;
        }
      }
      for (const char* mode : {"encoded", "encoded_lz"}) {
        const std::string name = std::string(profile) + "/" + mode;
        for (const ConfigResult& r : results) {
          if (r.name != name) continue;
          const double reduction =
              r.wire_bytes_per_row > 0 ? plain / r.wire_bytes_per_row : 0.0;
          if (reduction < 2.0) {
            std::fprintf(stderr,
                         "bench_wire: GATE FAIL: %s reduction %.2fx < "
                         "2.0x (plain %.2f vs %.2f bytes/row)\n",
                         name.c_str(), reduction, plain,
                         r.wire_bytes_per_row);
            ok = false;
          }
        }
      }
    }
  }

  std::ofstream out(json_path);
  out << RenderJson(rows, rounds, results);
  out.close();
  std::printf("\nwrote %s%s\n", json_path.c_str(),
              gate ? "" : " (reduction gate disabled)");
  return ok ? 0 : 1;
}
