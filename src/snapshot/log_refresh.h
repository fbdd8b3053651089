#ifndef SNAPDIFF_SNAPSHOT_LOG_REFRESH_H_
#define SNAPDIFF_SNAPSHOT_LOG_REFRESH_H_

#include "net/channel.h"
#include "obs/trace.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// The log-buffering alternative the paper weighs against annotation:
/// committed changes to the base table since the snapshot's last refresh
/// are culled from the recovery log (coalescing per address), restricted
/// using the logged before/after images, and shipped as UPSERT/DELETE.
///
/// Faithfully reproduces the caveats of §"Alternative Refresh Methods":
///   * the cull touches every retained log record, not just this table's
///     (stats->log_records_culled);
///   * if the log was truncated past the snapshot's last refresh point,
///     the entire (restricted) base table is retransmitted instead
///     (stats->fell_back_to_full).
///
/// The advance of the log position is *staged* in
/// desc->pending_refresh_lsn; the caller commits it once the snapshot site
/// confirms the refresh applied (see SnapshotDescriptor). A RefreshSession
/// as `sink` makes the transmission resumable; the batching/parallel knobs
/// are ignored (the change list is already minimal). The cull stops at
/// `epoch.cut_lsn`, and END_OF_REFRESH carries `epoch.cut_time`.
Status ExecuteLogBasedRefresh(BaseTable* base, const TableEpoch& epoch,
                              SnapshotDescriptor* desc, MessageSink* sink,
                              RefreshStats* stats,
                              obs::Tracer* tracer = nullptr,
                              const RefreshExecution& exec = {});

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_LOG_REFRESH_H_
