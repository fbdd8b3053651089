#ifndef SNAPDIFF_NET_CHANNEL_H_
#define SNAPDIFF_NET_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/message.h"
#include "net/transport.h"

namespace snapdiff {

/// A simulated, metered, in-process unidirectional link between the base
/// site and a snapshot site. Messages are serialized on Send and
/// deserialized on Receive so the wire format is exercised on every hop.
///
/// Fault injection is scripted with a FaultPlan — partition (now, after n
/// sends, after n bytes), drop, duplicate, bounded reorder, heal-after —
/// the failure modes the paper holds against ASAP propagation (a
/// refresh-on-demand method simply retries later; an ASAP propagator must
/// buffer or reject) plus the lossy-delivery modes a resumable session
/// protocol must survive. The accounting and the fault lifecycle live in
/// the shared TransportMeter, so a SocketTransport metering the same
/// message stream reports bit-identical ChannelStats.
class Channel : public Transport {
 public:
  explicit Channel(ChannelOptions options = {});

  /// Enqueues a message. Ends the current frame when `blocking_factor`
  /// messages have accumulated. Fails with Unavailable when partitioned.
  Status Send(const Message& msg) override;

  /// Dequeues the oldest message. NotFound when empty.
  Result<Message> Receive() override;

  bool HasPending() const override { return !queue_.empty(); }
  size_t pending() const override { return queue_.size(); }

  void FlushFrame() override { meter_.FlushFrame(); }

  /// --- fault lifecycle: Arm → (fire) → Heal (see Transport contract) ----

  void Arm(FaultPlan plan) override { meter_.Arm(plan); }
  void Heal() override { meter_.Heal(); }
  void AdvanceTime(uint64_t ticks) override { meter_.AdvanceTime(ticks); }
  FaultPhase fault_phase() const override { return meter_.fault_phase(); }
  const FaultPlan& fault_plan() const override { return meter_.fault_plan(); }
  bool partitioned() const override { return meter_.partitioned(); }
  uint64_t now() const override { return meter_.now(); }

  const ChannelStats& stats() const override { return meter_.stats(); }
  void ResetStats() override { meter_.ResetStats(); }
  const ChannelOptions& options() const override { return meter_.options(); }

 private:
  /// Inserts serialized bytes into the queue, applying the armed reorder
  /// window.
  void Enqueue(std::string bytes);

  TransportMeter meter_;
  std::deque<std::string> queue_;
};

/// Coalesces kEntry/kUpsert messages into kEntryBatch frames of up to
/// `batch_size` entries before handing them to the channel — the
/// transmission-side half of the ENTRY_BATCH optimization. Ordering per
/// snapshot is preserved exactly: a non-batchable message (delete, control,
/// end-of-refresh) for a snapshot, or a sub-type switch, flushes that
/// snapshot's pending entries first. A pending run of one entry is sent
/// unwrapped, so `batch_size <= 1` degenerates to a transparent
/// pass-through and the wire stream is byte-identical to unbatched sends.
///
/// Call Flush() before reading the channel or its meters; the destructor
/// only best-effort-flushes (errors are dropped there).
class BatchingSender : public MessageSink {
 public:
  /// `sink` is usually the transport itself, or a RefreshSession stamping
  /// session ids downstream of the batching.
  explicit BatchingSender(MessageSink* sink, size_t batch_size);
  ~BatchingSender() override;

  BatchingSender(const BatchingSender&) = delete;
  BatchingSender& operator=(const BatchingSender&) = delete;

  /// Buffers or forwards `msg`, preserving per-snapshot message order.
  Status Send(const Message& msg) override;

  /// Transmits every pending batch (in snapshot-id order).
  Status Flush();

  /// Forwards the sink's hint only when unbatched: a batch serializes
  /// ahead of the send order, so a batching sender never elides.
  bool NextSuppressed() const override {
    return batch_size_ <= 1 && sink_->NextSuppressed();
  }

  size_t batch_size() const { return batch_size_; }

 private:
  Status FlushSnapshot(SnapshotId id);

  MessageSink* sink_;
  size_t batch_size_;
  std::map<SnapshotId, std::vector<Message>> pending_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_CHANNEL_H_
