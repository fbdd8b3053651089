#ifndef SNAPDIFF_STORAGE_SLOTTED_PAGE_H_
#define SNAPDIFF_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace snapdiff {

/// A slotted-page view over a Page's raw bytes.
///
/// Layout:
///   [0,2)   uint16 slot_count    — size of the slot directory
///   [2,4)   uint16 free_end      — tuple data occupies [free_end, kPageSize)
///   [4,6)   uint16 garbage       — dead tuple bytes reclaimable by Compact()
///   [6,8)   uint16 live_count    — occupied slots
///   [8,16)  uint64 page_lsn      — LSN of the last logged mutation; restart
///                                  recovery replays a redo record only when
///                                  its LSN exceeds this (idempotent redo)
///   [16,16+4*slot_count) slot directory: {uint16 offset, uint16 length}
///   [free_end, kPageSize) tuple data, growing downward
///
/// offset == 0 marks an empty slot (tuple data can never start at offset 0
/// because the header occupies it). Deleting a tuple leaves its slot empty;
/// the slot may later be *reused* by an insert, giving a new tuple at an old
/// address — exactly the "insert into some empty address" behaviour the
/// refresh algorithm must cope with.
class SlottedPage {
 public:
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kSlotSize = 4;
  /// Largest tuple that fits on an empty page with one slot.
  static constexpr size_t kMaxTupleSize =
      Page::kPageSize - kHeaderSize - kSlotSize;

  explicit SlottedPage(Page* page) : data_(page->data()) {}

  /// A read-only slotted view over raw page bytes that are not resident in
  /// a buffer-pool frame — an epoch's copy-on-write clone, or a scratch
  /// copy of a latched page. Calling any mutator through a view obtained
  /// this way is undefined; only the accessors are legal.
  static SlottedPage ReadOnlyView(const char* bytes) {
    return SlottedPage(const_cast<char*>(bytes));
  }

  /// Formats a fresh (zeroed) page.
  void Init();

  uint16_t slot_count() const { return ReadU16(0); }
  uint16_t free_end() const { return ReadU16(2); }
  uint16_t garbage() const { return ReadU16(4); }
  uint16_t live_count() const { return ReadU16(6); }
  Lsn page_lsn() const;
  void set_page_lsn(Lsn lsn);

  bool IsOccupied(SlotId slot) const;

  /// Returns a view into the page; valid only while the page stays pinned
  /// and unmodified.
  Result<std::string_view> Get(SlotId slot) const;

  /// Inserts a tuple. With `reuse_slots`, the lowest-numbered empty slot is
  /// reused; otherwise a new slot is always appended (monotone addresses).
  /// Fails with ResourceExhausted when the tuple does not fit even after
  /// compaction.
  Result<SlotId> Insert(std::string_view data, bool reuse_slots);

  Status Delete(SlotId slot);

  /// Replaces the tuple bytes, keeping the slot (and thus the address).
  Status Update(SlotId slot, std::string_view data);

  /// Re-inserts a tuple at a *specific* slot: restart recovery replaying a
  /// PAGE_INSERT record, or undoing a loser's PAGE_DELETE, must land at the
  /// logged address, not whatever Insert() would pick. Grows the slot
  /// directory through `slot` if needed (intermediate slots stay empty).
  /// Fails if the slot is occupied or the tuple does not fit.
  Status RedoInsertAt(SlotId slot, std::string_view data);

  /// Contiguous free bytes available right now (before compaction).
  size_t ContiguousFree() const;

  /// Exactly what CanInsert reads from a page, so a heap can keep one per
  /// page and answer "fits?" without pinning it (TableHeap's first-fit).
  struct FitKey {
    size_t room = 0;         // ContiguousFree() + garbage()
    bool free_slot = false;  // HasFreeSlot()
  };
  FitKey fit_key() const {
    return {ContiguousFree() + garbage(), HasFreeSlot()};
  }

  /// Whether an insert of `len` bytes could succeed (possibly after
  /// compaction), with/without slot reuse, on a page whose key is `key`.
  static bool Fits(const FitKey& key, size_t len, bool reuse_slots) {
    if (len > kMaxTupleSize) return false;
    const size_t slot_cost = (reuse_slots && key.free_slot) ? 0 : kSlotSize;
    return key.room >= len + slot_cost;
  }

  /// Fits() on this page's current key.
  bool CanInsert(size_t len, bool reuse_slots) const {
    return Fits(fit_key(), len, reuse_slots);
  }

 private:
  uint16_t ReadU16(size_t off) const;
  void WriteU16(size_t off, uint16_t v);
  uint64_t ReadU64(size_t off) const;
  void WriteU64(size_t off, uint64_t v);

  uint16_t SlotOffset(SlotId slot) const { return ReadU16(kHeaderSize + 4 * slot); }
  uint16_t SlotLength(SlotId slot) const {
    return ReadU16(kHeaderSize + 4 * slot + 2);
  }
  void SetSlot(SlotId slot, uint16_t offset, uint16_t length) {
    WriteU16(kHeaderSize + 4 * slot, offset);
    WriteU16(kHeaderSize + 4 * slot + 2, length);
  }

  /// True when an empty slot exists for reuse.
  bool HasFreeSlot() const { return live_count() < slot_count(); }

  /// Repacks live tuples against the end of the page, zeroing `garbage`.
  void Compact();

  /// Carves `len` bytes off the free region; precondition: they fit.
  uint16_t AllocateSpace(uint16_t len);

  explicit SlottedPage(char* data) : data_(data) {}

  char* data_;
};

}  // namespace snapdiff

#endif  // SNAPDIFF_STORAGE_SLOTTED_PAGE_H_
