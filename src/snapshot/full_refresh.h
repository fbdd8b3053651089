#ifndef SNAPDIFF_SNAPSHOT_FULL_REFRESH_H_
#define SNAPDIFF_SNAPSHOT_FULL_REFRESH_H_

#include "net/channel.h"
#include "obs/trace.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// The baseline "simplest method": clear the snapshot, then transmit every
/// entry that satisfies the restriction. Costs q·N messages regardless of
/// update activity, but leaves base-table operations completely untouched.
/// The snapshot is the table as of `epoch`'s cut: the scan (or index
/// select) reads the cut and END_OF_REFRESH carries `epoch.cut_time`.
/// `tracer`, when given, receives nested spans (clear, scan/index-select,
/// end-of-refresh) under the caller's current phase.
/// `exec.batch_size > 1` coalesces the UPSERT stream into ENTRY_BATCH wire
/// messages (the scan itself is cheap relative to re-transmission, so the
/// full path does not parallelize; `exec.workers` is ignored).
Status ExecuteFullRefresh(BaseTable* base, const TableEpoch& epoch,
                          SnapshotDescriptor* desc, MessageSink* sink,
                          RefreshStats* stats, obs::Tracer* tracer = nullptr,
                          const RefreshExecution& exec = {});

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_FULL_REFRESH_H_
