#include "net/session_applier.h"

namespace snapdiff {

Status SessionApplier::Apply(const Message& msg, const ApplyFn& apply) {
  if (decoder_ == nullptr) {
    RETURN_IF_ERROR(apply(msg, msg));
  } else {
    ASSIGN_OR_RETURN(Message decoded, decoder_->Admit(msg));
    RETURN_IF_ERROR(apply(decoded, msg));
  }
  ++stats_.applied;
  return Status::OK();
}

Status SessionApplier::Offer(const Message& msg, const ApplyFn& apply) {
  if (msg.session_id == 0) return Apply(msg, apply);
  Session& sess = sessions_[msg.snapshot_id];
  if (sess.id != msg.session_id) {
    sess = Session{};
    sess.id = msg.session_id;
  }
  if (msg.seq <= sess.last_applied_seq) {
    // Duplicate of the applied prefix (link duplication, or a resumed
    // attempt overlapping late arrivals): drop.
    ++stats_.duplicates_dropped;
    return Status::OK();
  }
  if (msg.seq > sess.last_applied_seq + 1) {
    if (sess.held.emplace(msg.seq, msg).second) {
      ++stats_.held_for_reorder;
    } else {
      ++stats_.duplicates_dropped;
    }
    return Status::OK();
  }
  RETURN_IF_ERROR(Apply(msg, apply));
  sess.last_applied_seq = msg.seq;
  if (msg.type == MessageType::kEndOfRefresh) sess.ended = true;
  // The admitted message may close the gap in front of held arrivals.
  for (auto held = sess.held.begin();
       held != sess.held.end() && held->first == sess.last_applied_seq + 1;
       held = sess.held.erase(held)) {
    RETURN_IF_ERROR(Apply(held->second, apply));
    sess.last_applied_seq = held->first;
    if (held->second.type == MessageType::kEndOfRefresh) sess.ended = true;
  }
  return Status::OK();
}

const SessionApplier::Session* SessionApplier::Find(
    SnapshotId snapshot_id, uint64_t session_id) const {
  auto it = sessions_.find(snapshot_id);
  if (it == sessions_.end() || it->second.id != session_id) return nullptr;
  return &it->second;
}

uint64_t SessionApplier::CurrentSession(SnapshotId snapshot_id) const {
  auto it = sessions_.find(snapshot_id);
  return it == sessions_.end() ? 0 : it->second.id;
}

uint64_t SessionApplier::LastApplied(SnapshotId snapshot_id,
                                     uint64_t session_id) const {
  const Session* sess = Find(snapshot_id, session_id);
  return sess == nullptr ? 0 : sess->last_applied_seq;
}

bool SessionApplier::Complete(SnapshotId snapshot_id,
                              uint64_t session_id) const {
  const Session* sess = Find(snapshot_id, session_id);
  return sess != nullptr && sess->ended;
}

}  // namespace snapdiff
