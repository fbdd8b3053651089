#ifndef SNAPDIFF_NET_SESSION_APPLIER_H_
#define SNAPDIFF_NET_SESSION_APPLIER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/status.h"
#include "common/types.h"
#include "net/encoding.h"
#include "net/message.h"

namespace snapdiff {

/// The snapshot site's admission screen for refresh streams, shared by the
/// in-process site (SnapshotSystem) and the network client
/// (RemoteSnapshotSite). Per snapshot, session-stamped messages are
/// admitted strictly in seq order: duplicates drop, early arrivals are held
/// until the gap fills, and a different session id supersedes the current
/// session (its held arrivals go, the applied prefix restarts at 0). A
/// session is complete once its END_OF_REFRESH applied. Session-less
/// messages (ASAP, joins) apply on arrival. With a WireDecoder, admission is
/// also the decode point: each admitted message is decoded exactly once, in
/// seq order, as the decoder's row shadow requires.
class SessionApplier {
 public:
  /// Applies one admitted message. `canonical` is the decoded message;
  /// `arrived` is the message as it travelled (encoded when the wire codec
  /// is on), for byte accounting.
  using ApplyFn =
      std::function<Status(const Message& canonical, const Message& arrived)>;

  struct Stats {
    uint64_t applied = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t held_for_reorder = 0;  // early arrivals parked until their turn
  };

  /// `decoder` may be null (canonical wire); it must outlive the applier.
  explicit SessionApplier(WireDecoder* decoder = nullptr)
      : decoder_(decoder) {}

  /// Screens one arrived message and hands every message it admits — this
  /// one and any held arrivals it releases — to `apply`, in sequence order.
  Status Offer(const Message& msg, const ApplyFn& apply);

  /// The session currently admitted for `snapshot_id` (0 = none).
  uint64_t CurrentSession(SnapshotId snapshot_id) const;
  /// The applied prefix of `session_id` (the resume checkpoint); 0 unless
  /// it is `snapshot_id`'s current session.
  uint64_t LastApplied(SnapshotId snapshot_id, uint64_t session_id) const;
  /// True once `session_id`'s END_OF_REFRESH has applied.
  bool Complete(SnapshotId snapshot_id, uint64_t session_id) const;
  /// Forgets `snapshot_id`'s session (its END was acknowledged).
  void Forget(SnapshotId snapshot_id) { sessions_.erase(snapshot_id); }

  const Stats& stats() const { return stats_; }

 private:
  struct Session {
    uint64_t id = 0;
    uint64_t last_applied_seq = 0;
    bool ended = false;
    std::map<uint64_t, Message> held;  // early arrivals, by seq
  };

  /// Decodes (when a decoder is set) and applies one admitted message.
  Status Apply(const Message& msg, const ApplyFn& apply);
  const Session* Find(SnapshotId snapshot_id, uint64_t session_id) const;

  WireDecoder* decoder_;
  std::map<SnapshotId, Session> sessions_;
  Stats stats_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_NET_SESSION_APPLIER_H_
