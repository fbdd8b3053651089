#include "snapshot/full_refresh.h"

#include <algorithm>
#include <tuple>

#include "expr/range_analysis.h"
#include "snapshot/secondary_index.h"

namespace snapdiff {

Status ExecuteFullRefresh(BaseTable* base, const TableEpoch& epoch,
                          SnapshotDescriptor* desc, MessageSink* sink,
                          RefreshStats* stats, obs::Tracer* tracer,
                          const RefreshExecution& exec) {
  ASSIGN_OR_RETURN(const std::vector<size_t> projection_indices,
                   base->ProjectionIndices(desc->projection));
  BatchingSender sender(sink, exec.batch_size);

  {
    obs::Tracer::Span clear_span(tracer, "clear");
    RETURN_IF_ERROR(sender.Send(MakeClear(desc->id)));
  }

  // "When an efficient method for applying the snapshot restriction is
  // available (e.g., an index), the base table sequential scan may be more
  // costly than simply re-populating the snapshot": if the restriction
  // reduces to a range over an indexed column, retrieve exactly the
  // qualified entries instead of scanning.
  std::optional<ColumnRange> range =
      AnalyzeRestrictionRange(desc->restriction);
  SecondaryIndex* index =
      range.has_value() ? base->FindSecondaryIndex(range->column) : nullptr;

  if (index != nullptr) {
    // The live index may already reflect post-cut writes, so candidates
    // are buffered through epoch point reads and the result only trusted
    // when the mutation tick proves nothing interleaved between the cut and
    // the index read; otherwise the rows are rebuilt from the epoch scan
    // and re-sorted into index order (order-preserving key, then address),
    // so the stream matches a quiesced index select byte for byte either
    // way.
    obs::Tracer::Span span(tracer, "index-select+transmit");
    ASSIGN_OR_RETURN(std::vector<Address> addresses,
                     index->SelectRange(*range));
    span.Note("candidates", addresses.size());
    std::vector<std::pair<Address, std::string>> rows;
    rows.reserve(addresses.size());
    bool exact = true;
    for (Address addr : addresses) {
      ++stats->base_reads;
      ASSIGN_OR_RETURN(std::optional<std::string> bytes, epoch.Read(addr));
      if (!bytes.has_value()) {
        // The index lists a row the cut never saw (post-cut insert).
        exact = false;
        break;
      }
      ASSIGN_OR_RETURN(BaseTable::AnnotatedView row,
                       base->SplitStoredView(*bytes));
      if (!range->exact) {
        ASSIGN_OR_RETURN(bool qualified,
                         EvaluatePredicate(*desc->restriction, row.user,
                                           base->user_schema()));
        if (!qualified) continue;
      }
      std::string payload;
      RETURN_IF_ERROR(
          row.user.AppendProjectionTo(projection_indices, &payload));
      rows.emplace_back(addr, std::move(payload));
    }
    // Post-cut deletes silently drop index entries the cut's stream must
    // still carry, so any tick movement at all voids the candidate list.
    if (exact && base->mutation_tick() != epoch.cut_tick) exact = false;
    if (!exact) {
      rows.clear();
      ASSIGN_OR_RETURN(size_t col_idx,
                       base->user_schema().IndexOf(range->column));
      // (order-preserving key, raw address, payload) — the index's own sort.
      std::vector<std::tuple<std::string, uint64_t, std::string>> sorted;
      RETURN_IF_ERROR(base->ScanAnnotatedAtEpoch(
          epoch,
          [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
            ++stats->entries_scanned;
            ASSIGN_OR_RETURN(bool qualified,
                             EvaluatePredicate(*desc->restriction, row.user,
                                               base->user_schema()));
            if (!qualified) return Status::OK();
            ASSIGN_OR_RETURN(Value v, row.user.Field(col_idx));
            if (v.is_null()) return Status::OK();  // never indexed
            ASSIGN_OR_RETURN(std::string key, OrderPreservingKey(v));
            std::string payload;
            RETURN_IF_ERROR(
                row.user.AppendProjectionTo(projection_indices, &payload));
            sorted.emplace_back(std::move(key), addr.raw(),
                                std::move(payload));
            return Status::OK();
          }));
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) {
                  if (std::get<0>(a) != std::get<0>(b)) {
                    return std::get<0>(a) < std::get<0>(b);
                  }
                  return std::get<1>(a) < std::get<1>(b);
                });
      for (auto& [key, raw, payload] : sorted) {
        rows.emplace_back(Address::FromRaw(raw), std::move(payload));
      }
    }
    for (auto& [addr, payload] : rows) {
      RETURN_IF_ERROR(
          sender.Send(MakeUpsert(desc->id, addr, std::move(payload))));
    }
    RETURN_IF_ERROR(sender.Flush());
  } else {
    obs::Tracer::Span span(tracer, "scan+transmit");
    auto visit =
        [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
      ++stats->entries_scanned;
      ASSIGN_OR_RETURN(bool qualified,
                       EvaluatePredicate(*desc->restriction, row.user,
                                         base->user_schema()));
      if (!qualified) return Status::OK();
      // Serialized straight from the pinned view. On a resumed session's
      // fast-forward region the message only spends a sequence number.
      std::string payload;
      if (!sender.NextSuppressed()) {
        RETURN_IF_ERROR(
            row.user.AppendProjectionTo(projection_indices, &payload));
      }
      return sender.Send(MakeUpsert(desc->id, addr, std::move(payload)));
    };
    RETURN_IF_ERROR(base->ScanAnnotatedAtEpoch(epoch, visit));
    RETURN_IF_ERROR(sender.Flush());
  }

  // No positional tail semantics: the snapshot was cleared up front.
  obs::Tracer::Span end_span(tracer, "end-of-refresh");
  RETURN_IF_ERROR(
      sender.Send(MakeEndOfRefresh(desc->id, Address::Null(), epoch.cut_time)));
  return Status::OK();
}

}  // namespace snapdiff
