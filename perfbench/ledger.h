// Outside-in measurement helpers for the load generator: order statistics
// and the flight-recorder ledger the traced run drains.
#ifndef SNAPDIFF_PERFBENCH_LEDGER_H_
#define SNAPDIFF_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `xs`; 0 for an empty set.
/// Sorts its argument.
double Percentile(std::vector<double>* xs, double p);

/// Jain's fairness index: 1.0 when every entry is equal, 1/n when one entry
/// holds everything.
double JainIndex(const std::vector<double>& xs);

/// Seconds of CPU consumed by the calling thread / the whole process.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// Incremental reader of the process-wide flight recorder for one traced
/// window. Begin() resets the recorder; MaybeDrain() may then be called
/// from any thread, as often as wanted, and consumes only the events
/// recorded since the previous drain. Each ring's index arithmetic detects
/// events that were overwritten before a drain reached them and counts them
/// in Summary::lost_events; a window with lost events does not count.
///
/// What it extracts are the events the program already records:
///   net.server.serve spans             -> serve durations
///   refresh.extract_partition spans    -> partition durations + skew
///   storage.cursor.page and
///   storage.epoch_cursor.page instants -> scan pages
///   thread_pool.task.queue_ticks       -> pool queue wait
class RecorderLedger {
 public:
  struct Summary {
    uint64_t lost_events = 0;
    uint64_t scan_pages = 0;
    std::vector<double> serve_ms;
    std::vector<double> partition_ms;
    /// max/mean partition duration of each parallel refresh.
    std::vector<double> partition_skew;
    std::vector<double> pool_queue_ms;
  };

  /// Resets the recorder and opens the window at the current instant.
  void Begin();
  /// Consumes the events recorded since the last drain, but only if at
  /// least `min_interval_ms` passed since then and no other thread is
  /// draining. Thread-safe; cheap to call between refreshes.
  void MaybeDrain(double min_interval_ms);
  /// Closes the window at the current instant, drains the rest and
  /// returns what the window held.
  Summary End();

 private:
  enum class Kind : uint8_t {
    kOther,
    kServe,
    kPartition,
    kScanPage,
    kQueueTicks
  };
  struct OpenSpan {
    const char* name;
    uint64_t ticks;
  };
  struct Track {
    uint64_t consumed = 0;  // ring index (relative to its base) read so far
    std::vector<OpenSpan> open;
  };
  struct Interval {
    uint64_t begin;
    uint64_t end;
  };

  void DrainLocked();
  Kind Classify(const char* name);

  std::mutex mu_;
  uint64_t t0_ticks_ = 0;
  uint64_t t1_ticks_ = UINT64_MAX;
  uint64_t t0_ns_ = 0;
  uint64_t last_drain_ns_ = 0;
  std::unordered_map<uint64_t, Track> tracks_;
  std::unordered_map<const char*, Kind> kinds_;
  // Raw tick durations; converted once the window's clock ratio is known.
  std::vector<uint64_t> serve_ticks_;
  std::vector<Interval> partitions_;
  std::vector<uint64_t> queue_ticks_;
  uint64_t lost_events_ = 0;
  uint64_t scan_pages_ = 0;
};

}  // namespace perfbench

#endif  // SNAPDIFF_PERFBENCH_LEDGER_H_
