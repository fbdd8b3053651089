#ifndef SNAPDIFF_SNAPSHOT_IDEAL_REFRESH_H_
#define SNAPDIFF_SNAPSHOT_IDEAL_REFRESH_H_

#include "net/channel.h"
#include "obs/trace.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// The paper's *ideal* comparator: "transmits only actual base table
/// changes to the (restricted) snapshot and only the most recent change to
/// each entry". It keeps a measurement-only shadow of the qualified
/// projection as of the last refresh (desc->ideal_shadow) and ships the
/// exact set difference: an UPSERT per new/changed qualified row, a DELETE
/// per row that left the qualified set. The shadow's cost is deliberately
/// *not* metered — no implementable method gets this information for free.
///
/// The shadow advance is *staged* in desc->pending_ideal_shadow; the caller
/// commits it once the snapshot site confirms the refresh applied (see
/// SnapshotDescriptor). A RefreshSession as `sink` makes the transmission
/// resumable (the delta iterates in deterministic address order); it
/// neither batches nor parallelizes. The current projection is read
/// at `epoch`'s cut, and END_OF_REFRESH carries `epoch.cut_time`.
Status ExecuteIdealRefresh(BaseTable* base, const TableEpoch& epoch,
                           SnapshotDescriptor* desc, MessageSink* sink,
                           RefreshStats* stats,
                           obs::Tracer* tracer = nullptr);

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_IDEAL_REFRESH_H_
