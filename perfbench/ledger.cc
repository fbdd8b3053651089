#include "ledger.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "obs/flight_recorder.h"

namespace perfbench {

using snapdiff::obs::FlightRecorder;
using snapdiff::obs::FrEvent;
using snapdiff::obs::FrEventType;

namespace {

uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

}  // namespace

double Percentile(std::vector<double>* xs, double p) {
  if (xs->empty()) return 0.0;
  std::sort(xs->begin(), xs->end());
  const double rank = std::ceil(p / 100.0 * double(xs->size()));
  const size_t idx = rank < 1.0 ? 0 : size_t(rank) - 1;
  return (*xs)[std::min(idx, xs->size() - 1)];
}

double JainIndex(const std::vector<double>& xs) {
  double sum = 0.0;
  double sumsq = 0.0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq <= 0.0) return 0.0;
  return (sum * sum) / (double(xs.size()) * sumsq);
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

void RecorderLedger::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  FlightRecorder::Global().Reset();
  tracks_.clear();
  t0_ns_ = SteadyNs();
  t0_ticks_ = FlightRecorder::NowTicks();
  t1_ticks_ = UINT64_MAX;
  last_drain_ns_ = t0_ns_;
}

void RecorderLedger::MaybeDrain(double min_interval_ms) {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (double(SteadyNs() - last_drain_ns_) < min_interval_ms * 1e6) return;
  DrainLocked();
}

RecorderLedger::Kind RecorderLedger::Classify(const char* name) {
  auto it = kinds_.find(name);
  if (it != kinds_.end()) return it->second;
  Kind kind = Kind::kOther;
  if (name != nullptr) {
    if (std::strcmp(name, "net.server.serve") == 0) {
      kind = Kind::kServe;
    } else if (std::strcmp(name, "refresh.extract_partition") == 0) {
      kind = Kind::kPartition;
    } else if (std::strcmp(name, "storage.cursor.page") == 0 ||
               std::strcmp(name, "storage.epoch_cursor.page") == 0) {
      kind = Kind::kScanPage;
    } else if (std::strcmp(name, "thread_pool.task.queue_ticks") == 0) {
      kind = Kind::kQueueTicks;
    }
  }
  kinds_.emplace(name, kind);
  return kind;
}

void RecorderLedger::DrainLocked() {
  last_drain_ns_ = SteadyNs();
  for (FlightRecorder::ThreadTrack& ring : FlightRecorder::Global().Drain()) {
    // Indices relative to the ring's base (moved by Begin's Reset): the
    // drained window is [dropped, dropped + n). Everything below
    // `consumed` was read by an earlier drain; a gap between `consumed` and
    // the window's start was overwritten unread.
    Track& track = tracks_[ring.tid];
    const uint64_t window_start = ring.dropped_events;
    const uint64_t window_end = window_start + ring.events.size();
    if (window_start > track.consumed) {
      lost_events_ += window_start - track.consumed;
      track.open.clear();  // pairing across the gap is unknowable
    }
    const uint64_t first_new =
        std::max(track.consumed, window_start) - window_start;
    track.consumed = std::max(track.consumed, window_end);
    for (size_t i = first_new; i < ring.events.size(); ++i) {
      const FrEvent& ev = ring.events[i];
      const bool in_window = ev.ticks >= t0_ticks_ && ev.ticks <= t1_ticks_;
      switch (ev.type) {
        case FrEventType::kSpanBegin:
          track.open.push_back(OpenSpan{ev.name, ev.ticks});
          break;
        case FrEventType::kSpanEnd: {
          // Spans nest LIFO per thread; an end whose begin predates the
          // window has no open entry and is skipped.
          if (track.open.empty() || track.open.back().name != ev.name) break;
          const OpenSpan begin = track.open.back();
          track.open.pop_back();
          if (begin.ticks < t0_ticks_ || !in_window) break;
          const Kind kind = Classify(ev.name);
          if (kind == Kind::kServe) {
            serve_ticks_.push_back(ev.ticks - begin.ticks);
          } else if (kind == Kind::kPartition) {
            partitions_.push_back(Interval{begin.ticks, ev.ticks});
          }
          break;
        }
        case FrEventType::kInstant: {
          if (!in_window) break;
          const Kind kind = Classify(ev.name);
          if (kind == Kind::kScanPage) {
            ++scan_pages_;
          } else if (kind == Kind::kQueueTicks) {
            queue_ticks_.push_back(ev.arg);
          }
          break;
        }
        case FrEventType::kCounter:
          break;
      }
    }
  }
}

RecorderLedger::Summary RecorderLedger::End() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t t1_ns = SteadyNs();
  t1_ticks_ = FlightRecorder::NowTicks();
  DrainLocked();
  const double ms_per_tick =
      t1_ticks_ > t0_ticks_
          ? double(t1_ns - t0_ns_) / 1e6 / double(t1_ticks_ - t0_ticks_)
          : 0.0;

  Summary out;
  out.lost_events = lost_events_;
  out.scan_pages = scan_pages_;
  for (uint64_t t : serve_ticks_) {
    out.serve_ms.push_back(double(t) * ms_per_tick);
  }
  for (uint64_t t : queue_ticks_) {
    out.pool_queue_ms.push_back(double(t) * ms_per_tick);
  }
  // Refreshes of one table never overlap (per-table admission), so the
  // partitions of one parallel refresh form a cluster of overlapping
  // intervals that ends before the next refresh's cluster begins.
  std::sort(partitions_.begin(), partitions_.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  size_t i = 0;
  while (i < partitions_.size()) {
    uint64_t cluster_end = partitions_[i].end;
    double sum = 0.0;
    double max = 0.0;
    size_t n = 0;
    for (; i < partitions_.size() && partitions_[i].begin <= cluster_end;
         ++i) {
      const double ms =
          double(partitions_[i].end - partitions_[i].begin) * ms_per_tick;
      out.partition_ms.push_back(ms);
      cluster_end = std::max(cluster_end, partitions_[i].end);
      sum += ms;
      max = std::max(max, ms);
      ++n;
    }
    if (sum > 0.0) out.partition_skew.push_back(max / (sum / double(n)));
  }
  return out;
}

}  // namespace perfbench
