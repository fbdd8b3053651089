#include "storage/slotted_page.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace snapdiff {

uint16_t SlottedPage::ReadU16(size_t off) const {
  uint16_t v;
  std::memcpy(&v, data_ + off, 2);
  return v;
}

void SlottedPage::WriteU16(size_t off, uint16_t v) {
  std::memcpy(data_ + off, &v, 2);
}

uint64_t SlottedPage::ReadU64(size_t off) const {
  uint64_t v;
  std::memcpy(&v, data_ + off, 8);
  return v;
}

void SlottedPage::WriteU64(size_t off, uint64_t v) {
  std::memcpy(data_ + off, &v, 8);
}

void SlottedPage::Init() {
  WriteU16(0, 0);                                        // slot_count
  WriteU16(2, static_cast<uint16_t>(Page::kPageSize));   // free_end
  WriteU16(4, 0);                                        // garbage
  WriteU16(6, 0);                                        // live_count
  WriteU64(8, kInvalidLsn);                              // page_lsn
}

Lsn SlottedPage::page_lsn() const { return ReadU64(8); }

void SlottedPage::set_page_lsn(Lsn lsn) { WriteU64(8, lsn); }

bool SlottedPage::IsOccupied(SlotId slot) const {
  return slot < slot_count() && SlotOffset(slot) != 0;
}

Result<std::string_view> SlottedPage::Get(SlotId slot) const {
  if (!IsOccupied(slot)) {
    return Status::NotFound("slot " + std::to_string(slot) + " is empty");
  }
  return std::string_view(data_ + SlotOffset(slot), SlotLength(slot));
}

size_t SlottedPage::ContiguousFree() const {
  const size_t used_front = kHeaderSize + kSlotSize * slot_count();
  const size_t fe = free_end();
  SNAPDIFF_DCHECK(fe >= used_front);
  return fe - used_front;
}

void SlottedPage::Compact() {
  struct Live {
    SlotId slot;
    uint16_t offset;
    uint16_t length;
  };
  std::vector<Live> live;
  live.reserve(live_count());
  for (SlotId s = 0; s < slot_count(); ++s) {
    if (SlotOffset(s) != 0) live.push_back({s, SlotOffset(s), SlotLength(s)});
  }
  // Copy tuple bytes out, then repack against the page end.
  std::vector<std::string> bytes;
  bytes.reserve(live.size());
  for (const Live& l : live) {
    bytes.emplace_back(data_ + l.offset, l.length);
  }
  uint16_t cursor = static_cast<uint16_t>(Page::kPageSize);
  for (size_t i = 0; i < live.size(); ++i) {
    cursor = static_cast<uint16_t>(cursor - live[i].length);
    std::memcpy(data_ + cursor, bytes[i].data(), bytes[i].size());
    SetSlot(live[i].slot, cursor, live[i].length);
  }
  WriteU16(2, cursor);  // free_end
  WriteU16(4, 0);       // garbage
}

uint16_t SlottedPage::AllocateSpace(uint16_t len) {
  const uint16_t new_end = static_cast<uint16_t>(free_end() - len);
  WriteU16(2, new_end);
  return new_end;
}

Result<SlotId> SlottedPage::Insert(std::string_view data, bool reuse_slots) {
  if (data.size() > kMaxTupleSize) {
    return Status::InvalidArgument("tuple larger than page");
  }
  const uint16_t len = static_cast<uint16_t>(data.size());
  if (!CanInsert(len, reuse_slots)) {
    return Status::ResourceExhausted("page full");
  }

  SlotId slot;
  bool new_slot = true;
  if (reuse_slots && HasFreeSlot()) {
    slot = 0;
    while (SlotOffset(slot) != 0) ++slot;
    new_slot = false;
  } else {
    slot = slot_count();
  }

  const size_t slot_cost = new_slot ? kSlotSize : 0;
  if (ContiguousFree() < len + slot_cost) Compact();
  SNAPDIFF_DCHECK(ContiguousFree() >= len + slot_cost);

  if (new_slot) {
    WriteU16(0, static_cast<uint16_t>(slot_count() + 1));
    SetSlot(slot, 0, 0);
  }
  const uint16_t offset = AllocateSpace(len);
  std::memcpy(data_ + offset, data.data(), len);
  SetSlot(slot, offset, len);
  WriteU16(6, static_cast<uint16_t>(live_count() + 1));
  return slot;
}

Status SlottedPage::RedoInsertAt(SlotId slot, std::string_view data) {
  if (data.size() > kMaxTupleSize) {
    return Status::InvalidArgument("tuple larger than page");
  }
  if (IsOccupied(slot)) {
    return Status::InvalidArgument("redo insert into occupied slot " +
                                   std::to_string(slot));
  }
  const uint16_t len = static_cast<uint16_t>(data.size());
  const size_t new_slots =
      slot >= slot_count() ? static_cast<size_t>(slot) - slot_count() + 1 : 0;
  if (ContiguousFree() + garbage() < len + kSlotSize * new_slots) {
    return Status::ResourceExhausted("redo insert: page full");
  }
  if (new_slots > 0) {
    WriteU16(0, static_cast<uint16_t>(slot + 1));
    for (SlotId s = static_cast<SlotId>(slot_count() - new_slots); s <= slot;
         ++s) {
      SetSlot(s, 0, 0);
    }
  }
  if (ContiguousFree() < len) Compact();
  SNAPDIFF_DCHECK(ContiguousFree() >= len);
  const uint16_t offset = AllocateSpace(len);
  std::memcpy(data_ + offset, data.data(), len);
  SetSlot(slot, offset, len);
  WriteU16(6, static_cast<uint16_t>(live_count() + 1));
  return Status::OK();
}

Status SlottedPage::Delete(SlotId slot) {
  if (!IsOccupied(slot)) {
    return Status::NotFound("delete: slot " + std::to_string(slot) +
                            " is empty");
  }
  WriteU16(4, static_cast<uint16_t>(garbage() + SlotLength(slot)));
  SetSlot(slot, 0, 0);
  WriteU16(6, static_cast<uint16_t>(live_count() - 1));
  return Status::OK();
}

Status SlottedPage::Update(SlotId slot, std::string_view data) {
  if (!IsOccupied(slot)) {
    return Status::NotFound("update: slot " + std::to_string(slot) +
                            " is empty");
  }
  if (data.size() > kMaxTupleSize) {
    return Status::InvalidArgument("tuple larger than page");
  }
  const uint16_t len = static_cast<uint16_t>(data.size());
  const uint16_t old_len = SlotLength(slot);
  if (len <= old_len) {
    // Shrink in place; tail bytes become garbage.
    std::memcpy(data_ + SlotOffset(slot), data.data(), len);
    SetSlot(slot, SlotOffset(slot), len);
    WriteU16(4, static_cast<uint16_t>(garbage() + (old_len - len)));
    return Status::OK();
  }
  // Grow: need a fresh region; the old one becomes garbage.
  if (ContiguousFree() + garbage() + old_len < len) {
    return Status::ResourceExhausted("update: page full");
  }
  // Retire the old region first so compaction can reclaim it.
  WriteU16(4, static_cast<uint16_t>(garbage() + old_len));
  SetSlot(slot, 0, 0);
  if (ContiguousFree() < len) Compact();
  SNAPDIFF_DCHECK(ContiguousFree() >= len);
  const uint16_t offset = AllocateSpace(len);
  std::memcpy(data_ + offset, data.data(), len);
  SetSlot(slot, offset, len);
  return Status::OK();
}

}  // namespace snapdiff
