// End-to-end checks of the observability layer: a refresh driven through
// SnapshotSystem::Refresh must leave a phase trace whose top-level counter
// deltas reconcile EXACTLY with the RefreshStats the call returns, and the
// instrumented subsystems must feed the process-wide metrics registry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

size_t TopLevelSpanCount(const obs::Tracer& tracer) {
  size_t n = 0;
  for (const obs::TraceSpan& span : tracer.spans()) {
    if (span.depth == 0) ++n;
  }
  return n;
}

bool HasTopLevelSpan(const obs::Tracer& tracer, const std::string& name) {
  for (const obs::TraceSpan& span : tracer.spans()) {
    if (span.depth == 0 && span.name == name) return true;
  }
  return false;
}

/// The acceptance property: summed top-level deltas of the data-channel
/// counters equal the traffic meters the refresh returned.
void ExpectTraceReconciles(const obs::Tracer& tracer,
                           const RefreshStats& stats) {
  EXPECT_FALSE(tracer.active());
  EXPECT_GE(TopLevelSpanCount(tracer), 4u) << tracer.Report();
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.messages"),
            stats.traffic.messages)
      << tracer.Report();
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.wire_bytes"),
            stats.traffic.wire_bytes)
      << tracer.Report();
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.payload_bytes"),
            stats.traffic.payload_bytes)
      << tracer.Report();
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.frames"),
            stats.traffic.frames)
      << tracer.Report();
}

TEST(ObservabilityIntegrationTest, DifferentialRefreshTraceReconciles) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 30; ++i) {
    auto addr = (*base)->Insert(Row("e" + std::to_string(i), i));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());  // initial population

  // A mixed change burst, then the measured refresh.
  ASSERT_TRUE((*base)->Update(addrs[2], Row("e2", 3)).ok());
  ASSERT_TRUE((*base)->Delete(addrs[5]).ok());
  ASSERT_TRUE((*base)->Insert(Row("fresh", 1)).ok());
  auto stats = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(stats.ok());

  const obs::Tracer& tracer = sys.tracer();
  EXPECT_EQ(tracer.name(), "refresh low");
  EXPECT_TRUE(HasTopLevelSpan(tracer, "drain"));
  EXPECT_TRUE(HasTopLevelSpan(tracer, "request"));
  EXPECT_TRUE(HasTopLevelSpan(tracer, "execute differential"));
  EXPECT_TRUE(HasTopLevelSpan(tracer, "apply"));
  ExpectTraceReconciles(tracer, stats->stats);

  // The executor's internal phases nest under the execute span.
  bool saw_nested_scan = false;
  for (const obs::TraceSpan& span : tracer.spans()) {
    if (span.name == "scan+transmit" && span.depth == 1) {
      saw_nested_scan = true;
    }
  }
  EXPECT_TRUE(saw_nested_scan) << tracer.Report();
}

TEST(ObservabilityIntegrationTest,
     ParallelBatchedRefreshTraceReconcilesExactly) {
  // The acceptance property must survive both new execution knobs: with
  // ENTRY_BATCH coalescing and parallel partition extraction the tracer's
  // data-channel deltas still reconcile exactly with RefreshStats::traffic.
  SnapshotSystemOptions options;
  options.refresh_workers = 4;
  options.refresh_batch_size = 8;
  SnapshotSystem sys(options);
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 600; ++i) {  // several pages, so PartitionEpoch(4) > 1
    auto addr = (*base)->Insert(Row("e" + std::to_string(i), i % 30));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 20").ok());

  // Initial bulk population: many entries, so batches must appear.
  auto initial = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(initial.ok());
  EXPECT_GT(initial->stats.traffic.batched_entries, 0u);
  ExpectTraceReconciles(sys.tracer(), initial->stats);

  // Incremental refresh after a change burst.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        (*base)->Update(addrs[i * 7 % addrs.size()], Row("u", i % 30)).ok());
  }
  ASSERT_TRUE((*base)->Delete(addrs[11]).ok());
  auto stats = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(stats.ok());
  ExpectTraceReconciles(sys.tracer(), stats->stats);

  // The parallel executor's phases nest under the execute span in place of
  // the sequential scan+transmit.
  bool saw_extract = false;
  bool saw_merge = false;
  for (const obs::TraceSpan& span : sys.tracer().spans()) {
    if (span.name == "partition-extract" && span.depth == 1) {
      saw_extract = true;
    }
    if (span.name == "merge+transmit" && span.depth == 1) saw_merge = true;
  }
  EXPECT_TRUE(saw_extract) << sys.tracer().Report();
  EXPECT_TRUE(saw_merge) << sys.tracer().Report();

  // Worker-slot meters were sharded into the shared registry.
  EXPECT_GT(obs::MetricsRegistry::Default()
                .GetCounter("snapshot.refresh.parallel.worker.0.rows")
                ->value(),
            0u);
}

TEST(ObservabilityIntegrationTest, EveryMethodProducesAReconcilingTrace) {
  const struct {
    RefreshMethod method;
    const char* span;
  } cases[] = {
      {RefreshMethod::kFull, "execute full"},
      {RefreshMethod::kIdeal, "execute ideal"},
      {RefreshMethod::kLogBased, "execute log-based"},
      {RefreshMethod::kAsap, "execute asap"},
  };
  for (const auto& c : cases) {
    SnapshotSystem sys;
    auto base = sys.CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(base.ok());
    std::vector<Address> addrs;
    for (int i = 0; i < 12; ++i) {
      auto addr = (*base)->Insert(Row("e" + std::to_string(i), i));
      ASSERT_TRUE(addr.ok());
      addrs.push_back(*addr);
    }
    SnapshotOptions opts;
    opts.method = c.method;
    ASSERT_TRUE(sys.CreateSnapshot("s", "emp", "Salary < 6", opts).ok());
    ASSERT_TRUE(sys.Refresh(RefreshRequest::For("s")).ok());
    ASSERT_TRUE((*base)->Update(addrs[1], Row("e1", 2)).ok());
    auto stats = sys.Refresh(RefreshRequest::For("s"));
    ASSERT_TRUE(stats.ok()) << RefreshMethodToString(c.method);
    const obs::Tracer& tracer = sys.tracer();
    EXPECT_TRUE(HasTopLevelSpan(tracer, c.span)) << tracer.Report();
    ExpectTraceReconciles(tracer, stats->stats);
  }
}

TEST(ObservabilityIntegrationTest, GroupRefreshTraceReconcilesWithBurst) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 20; ++i) {
    auto addr = (*base)->Insert(Row("e" + std::to_string(i), i));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  ASSERT_TRUE(sys.CreateSnapshot("high", "emp", "Salary >= 10").ok());
  ASSERT_TRUE(sys.RefreshGroup({"low", "high"}).ok());
  ASSERT_TRUE((*base)->Update(addrs[3], Row("e3", 15)).ok());
  auto results = sys.RefreshGroup({"low", "high"});
  ASSERT_TRUE(results.ok());

  const obs::Tracer& tracer = sys.tracer();
  EXPECT_EQ(tracer.name(), "refresh-group");
  EXPECT_GE(TopLevelSpanCount(tracer), 4u) << tracer.Report();
  EXPECT_TRUE(HasTopLevelSpan(tracer, "execute group-differential"));

  // Per-member attributions sum (ChannelStats::operator+=) to the burst's
  // message and payload totals; frames/wire bytes are whole-burst figures.
  ChannelStats attributed;
  for (const auto& [name, stats] : *results) attributed += stats.traffic;
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.messages"),
            attributed.messages);
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.payload_bytes"),
            attributed.payload_bytes);
  EXPECT_EQ(tracer.SumTopLevelDelta("net.channel.data.wire_bytes"),
            results->at("low").traffic.wire_bytes);
}

TEST(ObservabilityIntegrationTest, RefreshFeedsRegistryAndStalenessGauge) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const uint64_t refreshes_before =
      reg.GetCounter("snapshot.refresh.count")->value();
  const uint64_t snap_refreshes_before =
      reg.GetCounter("snapshot.obs_probe.refreshes")->value();
  const uint64_t duration_count_before =
      reg.GetHistogram("snapshot.refresh.duration_us",
                       obs::DefaultLatencyBucketsUs())
          ->count();

  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*base)->Insert(Row("e" + std::to_string(i), i)).ok());
  }
  ASSERT_TRUE(sys.CreateSnapshot("obs_probe", "emp", "Salary < 3").ok());
  EXPECT_EQ(reg.GetGauge("snapshot.count")->value(), 1);
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("obs_probe")).ok());

  EXPECT_EQ(reg.GetCounter("snapshot.refresh.count")->value(),
            refreshes_before + 1);
  EXPECT_EQ(reg.GetCounter("snapshot.obs_probe.refreshes")->value(),
            snap_refreshes_before + 1);
  EXPECT_GE(reg.GetHistogram("snapshot.refresh.duration_us",
                             obs::DefaultLatencyBucketsUs())
                ->count(),
            duration_count_before + 1);
  // Fresh right after a refresh; grows as the base clock advances.
  const int64_t staleness_after =
      reg.GetGauge("snapshot.obs_probe.staleness")->value();
  EXPECT_EQ(staleness_after, 0);
  ASSERT_TRUE((*base)->Insert(Row("late", 1)).ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("obs_probe")).ok());
  EXPECT_EQ(reg.GetGauge("snapshot.obs_probe.staleness")->value(), 0);

  ASSERT_TRUE(sys.DropSnapshot("obs_probe").ok());
  EXPECT_EQ(reg.GetGauge("snapshot.count")->value(), 0);

  // The storage/channel layers reported through the same registry.
  EXPECT_GT(reg.GetCounter("net.channel.data.messages")->value(), 0u);
  EXPECT_GT(reg.GetCounter("storage.buffer_pool.hits")->value(), 0u);

  const std::string prom = reg.ExportPrometheus();
  EXPECT_NE(prom.find("# TYPE snapdiff_snapshot_refresh_count counter"),
            std::string::npos);
  EXPECT_NE(prom.find("snapdiff_snapshot_refresh_duration_us_bucket{le=\"1\"}"),
            std::string::npos);
}

TEST(ObservabilityIntegrationTest, RefreshLogsArriveThroughTheSink) {
  obs::Logger& logger = obs::Logger::Global();
  std::vector<std::string> lines;
  logger.SetSink([&](const obs::LogEntry& e) {
    lines.push_back(obs::FormatLogEntry(e));
  });
  logger.SetLevel(obs::LogLevel::kInfo);

  {
    SnapshotSystem sys;
    auto base = sys.CreateBaseTable("emp", EmpSchema());
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE((*base)->Insert(Row("a", 1)).ok());
    ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
    ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());
  }
  logger.SetSink(nullptr);
  logger.SetLevel(obs::LogLevel::kOff);

  bool saw_create = false;
  bool saw_refresh = false;
  for (const std::string& line : lines) {
    if (line.find("snapshot created") != std::string::npos &&
        line.find("name=low") != std::string::npos) {
      saw_create = true;
    }
    if (line.find("refresh complete") != std::string::npos &&
        line.find("snapshot=low") != std::string::npos) {
      saw_refresh = true;
    }
  }
  EXPECT_TRUE(saw_create);
  EXPECT_TRUE(saw_refresh);
}

#ifdef SNAPDIFF_FLIGHT_RECORDER_ENABLED
TEST(ObservabilityIntegrationTest, FlightRecorderReconcilesWithTracerAndStats) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs;
  for (int i = 0; i < 200; ++i) {
    auto addr = (*base)->Insert(Row("e" + std::to_string(i), i % 100));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 50").ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("low")).ok());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*base)->Update(addrs[i * 9], Row("u", (i * 13) % 100)).ok());
  }
  ASSERT_TRUE((*base)->Delete(addrs[7]).ok());
  ASSERT_TRUE((*base)->Insert(Row("fresh", 3)).ok());

  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  fr.Reset();
  auto report = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(report.ok());
  const obs::Tracer& tracer = sys.tracer();
  const auto tracks = fr.Drain();

  // Locate the refreshing thread's track via the mirrored trace-name span.
  const obs::FlightRecorder::ThreadTrack* main_track = nullptr;
  for (const auto& t : tracks) {
    for (const obs::FrEvent& e : t.events) {
      if (e.type == obs::FrEventType::kSpanBegin && e.name != nullptr &&
          tracer.name() == e.name) {
        main_track = &t;
      }
    }
  }
  ASSERT_NE(main_track, nullptr);
  EXPECT_EQ(main_track->dropped_events, 0u)
      << "the test workload must fit the ring or the comparison is invalid";

  // 1:1 span reconciliation: the recorder's begin events on this thread are
  // exactly the trace name followed by every tracer span in open order, the
  // end events balance them, and the nesting is well-formed LIFO.
  std::vector<std::string> begins;
  std::vector<std::string> stack;
  size_t ends = 0;
  for (const obs::FrEvent& e : main_track->events) {
    if (e.type == obs::FrEventType::kSpanBegin) {
      begins.push_back(e.name);
      stack.push_back(e.name);
    } else if (e.type == obs::FrEventType::kSpanEnd) {
      ++ends;
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), e.name);
      stack.pop_back();
    }
  }
  ASSERT_FALSE(begins.empty());
  EXPECT_EQ(begins.front(), tracer.name());
  ASSERT_EQ(begins.size(), tracer.spans().size() + 1) << tracer.Report();
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    EXPECT_EQ(begins[i + 1], tracer.spans()[i].name) << tracer.Report();
  }
  EXPECT_EQ(ends, begins.size());
  EXPECT_TRUE(stack.empty());

  // Exact traffic reconciliation: the per-frame instants the data channel
  // emitted during this refresh partition its wire bytes, so their sum must
  // equal RefreshStats::traffic.wire_bytes to the byte.
  uint64_t framed_bytes = 0;
  uint64_t frame_count = 0;
  for (const auto& t : tracks) {
    for (const obs::FrEvent& e : t.events) {
      if (e.type == obs::FrEventType::kInstant && e.name != nullptr &&
          std::string_view(e.name) == "net.channel.data.frame") {
        framed_bytes += e.arg;
        ++frame_count;
      }
    }
  }
  EXPECT_EQ(framed_bytes, report->stats.traffic.wire_bytes);
  EXPECT_EQ(frame_count, report->stats.traffic.frames);

  // The rendered trace carries the refresh timeline.
  const std::string json = fr.ChromeTraceJson();
  EXPECT_NE(json.find(tracer.name()), std::string::npos);
  EXPECT_NE(json.find("net.channel.data.frame"), std::string::npos);
}
#endif  // SNAPDIFF_FLIGHT_RECORDER_ENABLED

TEST(ObservabilityIntegrationTest, FailedRefreshStillEndsTheTrace) {
  SnapshotSystem sys;
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE((*base)->Insert(Row("a", 1)).ok());
  ASSERT_TRUE(sys.CreateSnapshot("low", "emp", "Salary < 10").ok());
  sys.SetPartitioned(true);
  EXPECT_FALSE(sys.Refresh(RefreshRequest::For("low")).ok());
  // The guard closed the trace on the error path; the partial timeline is
  // still inspectable and the next refresh starts a fresh trace.
  EXPECT_FALSE(sys.tracer().active());
  sys.SetPartitioned(false);
  auto stats = sys.Refresh(RefreshRequest::For("low"));
  ASSERT_TRUE(stats.ok());
  ExpectTraceReconciles(sys.tracer(), stats->stats);
}

}  // namespace
}  // namespace snapdiff
