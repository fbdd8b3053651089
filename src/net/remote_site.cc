#include "net/remote_site.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/wire.h"

namespace snapdiff {

RemoteSnapshotSite::RemoteSnapshotSite(std::string addr,
                                       std::string snapshot_name,
                                       RemoteSiteOptions options)
    : addr_(std::move(addr)),
      snapshot_name_(std::move(snapshot_name)),
      options_(options) {}

RemoteSnapshotSite::~RemoteSnapshotSite() { DropConnection(); }

void RemoteSnapshotSite::DropConnection() {
  if (fd_ < 0) return;
  wire::ShutdownAndClose(fd_);
  fd_ = -1;
}

Result<std::unique_ptr<RemoteSnapshotSite>> RemoteSnapshotSite::Connect(
    const std::string& addr, const std::string& snapshot_name,
    RemoteSiteOptions options) {
  std::unique_ptr<RemoteSnapshotSite> site(
      new RemoteSnapshotSite(addr, snapshot_name, options));
  ASSIGN_OR_RETURN(site->fd_, wire::Connect(addr));
  // Offer wire-codec capabilities in HELLO's otherwise-unused session_id;
  // the HELLO_ACK echoes what the server accepted. A legacy server leaves
  // the field 0 and both ends keep the canonical protocol.
  uint64_t offer = 0;
  if (options.wire_encoding) offer |= kWireCapEncoding;
  if (options.wire_compression) offer |= kWireCapCompression;
  Message hello = MakeHello(snapshot_name);
  hello.session_id = offer;
  RETURN_IF_ERROR(wire::WriteMessage(site->fd_, hello));
  ASSIGN_OR_RETURN(Message reply, wire::ReadMessage(site->fd_));
  if (reply.type == MessageType::kServerError) {
    return Status::InvalidArgument("attach rejected: " + reply.payload);
  }
  if (reply.type != MessageType::kHelloAck) {
    return Status::Corruption("expected HELLO_ACK, got " + reply.ToString());
  }
  site->snapshot_id_ = reply.snapshot_id;
  std::string_view schema_bytes = reply.payload;
  ASSIGN_OR_RETURN(Schema value_schema,
                   wire::DeserializeSchema(&schema_bytes));
  site->disk_ = std::make_unique<MemoryDiskManager>();
  site->pool_ =
      std::make_unique<BufferPool>(site->disk_.get(), options.pool_pages);
  site->catalog_ = std::make_unique<Catalog>(site->pool_.get());
  site->oracle_ = std::make_unique<TimestampOracle>();
  ASSIGN_OR_RETURN(
      site->table_,
      SnapshotTable::Create(site->catalog_.get(), snapshot_name,
                            std::move(value_schema), site->oracle_.get()));
  site->wire_caps_ = reply.session_id & offer;
  // Compression without encoding grants nothing (it only applies to
  // encoded bodies); normalize so wire_caps() reports what is in effect.
  if (!(site->wire_caps_ & kWireCapEncoding)) site->wire_caps_ = 0;
  if (site->wire_caps_ & kWireCapEncoding) {
    // The resolver hands the decoder this replica's value schema; the
    // site outlives the decoder, so the raw capture is safe.
    site->decoder_ = std::make_unique<WireDecoder>(
        WireCodecOptions{}, [s = site.get()](SnapshotId id) -> const Schema* {
          if (id != s->snapshot_id_ || s->table_ == nullptr) return nullptr;
          return &s->table_->value_schema();
        });
    site->applier_ = SessionApplier(site->decoder_.get());
  }
  return site;
}

Message RemoteSnapshotSite::MakeDemand() {
  pending_resume_target_ = applier_.CurrentSession(snapshot_id_);
  Message demand;
  if (pending_resume_target_ != 0) {
    demand = MakeResumeRefresh(
        snapshot_id_, pending_resume_target_,
        applier_.LastApplied(snapshot_id_, pending_resume_target_));
    // If the server no longer has the session it falls back to a fresh
    // serve; carry our SnapTime so that serve is a correct differential
    // demand, not an initial copy.
    demand.timestamp = table_->snap_time();
  } else {
    demand = MakeRefreshRequest(snapshot_id_, table_->snap_time(), "");
  }
  if (decoder_ != nullptr) {
    // Report the decoder's committed generation (demand's unused
    // base_addr) so the server's per-connection encoder realigns with our
    // shadow before it streams.
    demand.base_addr = Address::FromRaw(decoder_->generation(snapshot_id_));
  }
  return demand;
}

Status RemoteSnapshotSite::Reconnect(RemoteRefreshReport* report) {
  int backoff_ms = std::max(options_.reconnect_backoff_ms, 1);
  for (int attempt = 0; attempt < options_.reconnect_attempts; ++attempt) {
    if (fd_ >= 0) {
      wire::CloseFd(fd_);
      fd_ = -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, 1000);
    Result<int> connected = wire::Connect(addr_);
    if (!connected.ok()) continue;
    fd_ = *connected;
    if (wire::WriteMessage(fd_, MakeDemand()).ok()) {
      ++report->reconnects;
      return Status::OK();
    }
  }
  return Status::Unavailable("reconnect attempts exhausted to " + addr_);
}

Result<RemoteRefreshReport> RemoteSnapshotSite::Refresh() {
  RemoteRefreshReport report;
  const SessionApplier::Stats before = applier_.stats();
  if (fd_ < 0 || !wire::WriteMessage(fd_, MakeDemand()).ok()) {
    // Dropped connection (crash simulation / earlier failure) or a dead
    // socket: reconnect sends the right demand — RESUME when a session is
    // in flight.
    RETURN_IF_ERROR(Reconnect(&report));
  }

  const SessionApplier::ApplyFn apply =
      [&](const Message& msg, const Message& arrived) -> Status {
    // Receive-side traffic, metered over the message as it travelled (the
    // rule in-process attribution uses).
    CountMessage(arrived, arrived.SerializedSize(), &report.stats.traffic);
    if (options_.record_stream) {
      std::string bytes;
      msg.SerializeTo(&bytes);
      recorded_.push_back(std::move(bytes));
    }
    return table_->ApplyMessage(msg, &report.stats);
  };
  bool ended = false;
  while (!ended) {
    Result<Message> arrived = wire::ReadMessage(fd_);
    if (!arrived.ok()) {
      RETURN_IF_ERROR(Reconnect(&report));
      continue;
    }
    const Message& msg = *arrived;
    if (msg.type == MessageType::kServerError) {
      return Status::Internal("server error: " + msg.payload);
    }
    if (msg.type == MessageType::kHelloAck ||
        msg.type == MessageType::kSessionAck ||
        msg.type == MessageType::kHello ||
        msg.type == MessageType::kRefreshRequest ||
        msg.type == MessageType::kResumeRefresh) {
      continue;  // not part of a refresh stream; ignore
    }
    if (msg.session_id != 0 && pending_resume_target_ != 0) {
      if (msg.session_id == pending_resume_target_) ++report.resumes;
      pending_resume_target_ = 0;
    }
    RETURN_IF_ERROR(applier_.Offer(msg, apply));
    // Sessionless streams (join serves) end at their END, with no resume
    // protection and no ack.
    ended = msg.session_id == 0
                ? msg.type == MessageType::kEndOfRefresh
                : applier_.Complete(snapshot_id_, msg.session_id);
  }

  report.messages_applied = applier_.stats().applied - before.applied;
  report.duplicates_dropped =
      applier_.stats().duplicates_dropped - before.duplicates_dropped;
  report.held_for_reorder =
      applier_.stats().held_for_reorder - before.held_for_reorder;
  const uint64_t session_id = applier_.CurrentSession(snapshot_id_);
  if (session_id != 0) {
    report.session_id = session_id;
    // Best effort: if the ack is lost the session lingers at the base
    // until the next serve for this snapshot supersedes it.
    (void)wire::WriteMessage(
        fd_, MakeSessionAck(snapshot_id_, session_id,
                            applier_.LastApplied(snapshot_id_, session_id)));
    applier_.Forget(snapshot_id_);
  }
  return report;
}

}  // namespace snapdiff
