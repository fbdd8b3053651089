#ifndef SNAPDIFF_SNAPSHOT_DIFFERENTIAL_REFRESH_H_
#define SNAPDIFF_SNAPSHOT_DIFFERENTIAL_REFRESH_H_

#include "net/channel.h"
#include "obs/trace.h"
#include "snapshot/base_table.h"
#include "snapshot/refresh_types.h"

namespace snapdiff {

/// The paper's differential snapshot refresh: one sequential scan of the
/// base table that (a) repairs the $PREVADDR$/$TIMESTAMP$ annotations left
/// NULL by lazily maintained base operations (Figure 7's BaseFixup) and
/// (b) transmits exactly the entries the Figure 3 BaseRefresh rule selects:
///
///   * a qualified entry is sent when its (fixed-up) TimeStamp > SnapTime,
///     or when a deletion/unqualified-update was observed since the last
///     qualified entry; each ENTRY message carries the address of the
///     previous qualified entry so the snapshot purges the gap;
///   * an unqualified entry with TimeStamp > SnapTime raises the Deletion
///     flag (it may have qualified before its modification);
///   * the scan closes with END_OF_REFRESH(LastQual, new SnapTime), which
///     also covers deletions at the end of the table.
///
/// The scan reads `epoch`'s cut while writers keep mutating the live table;
/// no table lock is needed. Fix-ups are conditional (WriteAnnotationsIf): a
/// repair of a row a writer touched since the cut is skipped and
/// re-derived by the next refresh. The caller must keep other refreshes of
/// the same table out (SnapshotSystem's per-table admission), since two
/// refreshes would race on the fix-ups. Works for both kLazy (fix-up
/// active) and kEager (fix-up finds nothing to repair) annotation modes;
/// fails for kNone.
///
/// `snap_time` is the SnapTime from the refresh request. FixupTime is
/// `epoch.cut_time`, the one timestamp drawn at the cut: it stamps every
/// repair and, as the new SnapTime, is transmitted in the closing message.
/// A write after the cut therefore always carries a newer timestamp and is
/// picked up by the next refresh.
/// `tracer`, when given, receives nested spans (scan+transmit,
/// fixup-writes, end-of-refresh; the parallel path replaces scan+transmit
/// with partition-extract and merge+transmit) under the caller's current
/// phase.
///
/// `exec` selects the execution strategy. With `workers > 1` (and a pool)
/// the per-row extraction work — page reads, deserialization, predicate
/// evaluation, projection + serialization — runs over address-range
/// partitions in parallel, and the Figure 3/7 state machine then consumes
/// the extracted runs in address order single-threaded, so the emitted
/// message stream is byte-identical to the sequential scan. With
/// `batch_size > 1` consecutive ENTRY messages per snapshot coalesce into
/// ENTRY_BATCH wire messages (see BatchingSender).
Status ExecuteDifferentialRefresh(BaseTable* base, const TableEpoch& epoch,
                                  SnapshotDescriptor* desc,
                                  Timestamp snap_time, MessageSink* sink,
                                  RefreshStats* stats,
                                  obs::Tracer* tracer = nullptr,
                                  const RefreshExecution& exec = {});

/// One member of a group refresh: a snapshot being served, its SnapTime
/// from the refresh request, where to accumulate its meters, and where its
/// stream goes (required; typically a RefreshSession stamping session id +
/// per-message seq). Each member batches through its own BatchingSender.
struct GroupRefreshMember {
  SnapshotDescriptor* desc;
  Timestamp snap_time;
  RefreshStats* stats;
  MessageSink* sink;
};

/// Refreshes several snapshots of the same base table in ONE combined
/// fix-up + transmit scan — the amortization the paper promises ("much of
/// the extra work is amortized over the set of snapshots depending upon
/// the base table"). The fix-up runs once; each member keeps its own
/// Figure-3 transmit state (LastQual, Deletion flag) against its own
/// SnapTime. All members receive the same new SnapTime.
///
/// The parallel path (`exec.workers > 1`) supports groups of up to 64
/// members (per-row member sets are packed into 64-bit maps); larger
/// groups silently fall back to the sequential scan.
///
/// With `exec.delta_cache` set, the executor first asks the cache whether
/// *every* member's class image is current at the cut (`epoch.cut_tick`);
/// if so the whole group is served from memory — zero base-table reads,
/// the same byte streams a scan would emit (see snapshot/delta_cache.h),
/// END stamped with `epoch.cut_time` either way. Otherwise
/// the scan runs and re-fills one image per distinct stale class as a side
/// effect, on both the sequential and the parallel path.
Status ExecuteGroupDifferentialRefresh(BaseTable* base,
                                       const TableEpoch& epoch,
                                       std::vector<GroupRefreshMember>*
                                           members,
                                       obs::Tracer* tracer = nullptr,
                                       const RefreshExecution& exec = {});

}  // namespace snapdiff

#endif  // SNAPDIFF_SNAPSHOT_DIFFERENTIAL_REFRESH_H_
