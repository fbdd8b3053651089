#include "storage/table_heap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace snapdiff {
namespace {

class TableHeapTest : public ::testing::Test {
 protected:
  TableHeapTest() : pool_(&disk_, 64) {}

  MemoryDiskManager disk_;
  BufferPool pool_;
};

TEST_F(TableHeapTest, InsertGetRoundTrip) {
  TableHeap heap(&pool_);
  auto a = heap.Insert("row-one");
  ASSERT_TRUE(a.ok());
  auto v = heap.Get(*a);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "row-one");
  EXPECT_EQ(heap.live_tuples(), 1u);
}

TEST_F(TableHeapTest, AddressesAreStableAcrossUpdates) {
  TableHeap heap(&pool_);
  auto a = heap.Insert("v1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.Update(*a, "v2-much-longer-than-before").ok());
  auto v = heap.Get(*a);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2-much-longer-than-before");
}

TEST_F(TableHeapTest, DeleteRemovesTuple) {
  TableHeap heap(&pool_);
  auto a = heap.Insert("gone");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.Delete(*a).ok());
  EXPECT_TRUE(heap.Get(*a).status().IsNotFound());
  auto ex = heap.Exists(*a);
  ASSERT_TRUE(ex.ok());
  EXPECT_FALSE(*ex);
  EXPECT_EQ(heap.live_tuples(), 0u);
}

TEST_F(TableHeapTest, SentinelAddressesRejected) {
  TableHeap heap(&pool_);
  EXPECT_TRUE(heap.Get(Address::Origin()).status().IsInvalidArgument());
  EXPECT_TRUE(heap.Delete(Address::Null()).IsInvalidArgument());
  auto ex = heap.Exists(Address::Origin());
  ASSERT_TRUE(ex.ok());
  EXPECT_FALSE(*ex);
}

TEST_F(TableHeapTest, IterationIsInAddressOrder) {
  TableHeap heap(&pool_);
  const std::string tuple(200, 'x');
  std::vector<Address> addrs;
  for (int i = 0; i < 100; ++i) {
    auto a = heap.Insert(tuple + std::to_string(i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  EXPECT_GT(heap.pages().size(), 1u);  // spans pages

  std::vector<Address> seen;
  ASSERT_TRUE(heap.ForEach([&](Address a, std::string_view) {
                    seen.push_back(a);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), addrs.size());
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1], seen[i]);
  }
}

TEST_F(TableHeapTest, IterationSkipsDeleted) {
  TableHeap heap(&pool_);
  std::vector<Address> addrs;
  for (int i = 0; i < 20; ++i) {
    auto a = heap.Insert("t" + std::to_string(i));
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  std::set<Address> deleted;
  for (size_t i = 0; i < addrs.size(); i += 3) {
    ASSERT_TRUE(heap.Delete(addrs[i]).ok());
    deleted.insert(addrs[i]);
  }
  size_t count = 0;
  ASSERT_TRUE(heap.ForEach([&](Address a, std::string_view) {
                    EXPECT_FALSE(deleted.contains(a));
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, addrs.size() - deleted.size());
  EXPECT_EQ(heap.live_tuples(), count);
}

TEST_F(TableHeapTest, EmptyHeapIteration) {
  TableHeap heap(&pool_);
  auto it = heap.Begin();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  size_t count = 0;
  ASSERT_TRUE(heap.ForEach([&](Address, std::string_view) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 0u);
}

TEST_F(TableHeapTest, FirstFitReusesHoles) {
  TableHeap heap(&pool_, PlacementPolicy::kFirstFit);
  std::vector<Address> addrs;
  for (int i = 0; i < 10; ++i) {
    auto a = heap.Insert("abcdefgh");
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  ASSERT_TRUE(heap.Delete(addrs[3]).ok());
  auto re = heap.Insert("reused!!");
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(*re, addrs[3]);
}

TEST_F(TableHeapTest, AppendNeverReusesHoles) {
  TableHeap heap(&pool_, PlacementPolicy::kAppend);
  std::vector<Address> addrs;
  for (int i = 0; i < 10; ++i) {
    auto a = heap.Insert("abcdefgh");
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
  }
  ASSERT_TRUE(heap.Delete(addrs[3]).ok());
  auto re = heap.Insert("appended");
  ASSERT_TRUE(re.ok());
  EXPECT_GT(*re, addrs.back());
}

TEST_F(TableHeapTest, AppendAddressesAreMonotone) {
  TableHeap heap(&pool_, PlacementPolicy::kAppend);
  Address prev = Address::Origin();
  for (int i = 0; i < 500; ++i) {
    auto a = heap.Insert(std::string(50, char('a' + i % 26)));
    ASSERT_TRUE(a.ok());
    EXPECT_GT(*a, prev);
    prev = *a;
  }
}

TEST_F(TableHeapTest, RandomPolicyStillStoresEverything) {
  TableHeap heap(&pool_, PlacementPolicy::kRandom, /*seed=*/99);
  std::set<Address> addrs;
  for (int i = 0; i < 300; ++i) {
    auto a = heap.Insert("r" + std::to_string(i));
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(addrs.insert(*a).second) << "duplicate address";
  }
  size_t count = 0;
  ASSERT_TRUE(heap.ForEach([&](Address a, std::string_view) {
                    EXPECT_TRUE(addrs.contains(a));
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 300u);
}

TEST_F(TableHeapTest, ManyTuplesAcrossEvictions) {
  // Pool of 8 frames, table far larger: exercises pin/unpin + eviction.
  BufferPool small_pool(&disk_, 8);
  TableHeap heap(&small_pool);
  std::vector<Address> addrs;
  for (int i = 0; i < 2000; ++i) {
    auto a = heap.Insert("tuple-" + std::to_string(i));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    addrs.push_back(*a);
  }
  for (int i = 0; i < 2000; i += 97) {
    auto v = heap.Get(addrs[i]);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "tuple-" + std::to_string(i));
  }
  EXPECT_EQ(heap.live_tuples(), 2000u);
}

TEST_F(TableHeapTest, CursorVisitsAllRowsInAddressOrder) {
  TableHeap heap(&pool_);
  std::vector<std::pair<Address, std::string>> rows;
  for (int i = 0; i < 500; ++i) {
    std::string data = "row-" + std::to_string(i);
    auto a = heap.Insert(data);
    ASSERT_TRUE(a.ok());
    rows.emplace_back(*a, std::move(data));
  }
  auto cur = heap.OpenCursor();
  ASSERT_TRUE(cur.ok());
  size_t i = 0;
  while (cur->Valid()) {
    ASSERT_LT(i, rows.size());
    EXPECT_EQ(cur->address(), rows[i].first);
    EXPECT_EQ(cur->tuple(), rows[i].second);
    ASSERT_TRUE(cur->Next().ok());
    ++i;
  }
  EXPECT_EQ(i, rows.size());
}

TEST_F(TableHeapTest, CursorOnEmptyHeapIsInvalid) {
  TableHeap heap(&pool_);
  auto cur = heap.OpenCursor();
  ASSERT_TRUE(cur.ok());
  EXPECT_FALSE(cur->Valid());
}

TEST_F(TableHeapTest, CursorHoldsOnePinSoTinyPoolsCanScanManyPages) {
  // The cursor pins only its current page: a 2-frame pool must be able to
  // scan a heap dozens of pages long (one frame for the cursor, one spare).
  BufferPool tiny(&disk_, 2);
  TableHeap heap(&tiny);
  std::vector<std::string> expect;
  for (int i = 0; i < 3000; ++i) {
    std::string data(40, char('a' + i % 26));
    ASSERT_TRUE(heap.Insert(data).ok());
    expect.push_back(std::move(data));
  }
  ASSERT_GT(heap.pages().size(), 10u);
  size_t i = 0;
  ASSERT_TRUE(heap.ForEach([&](Address, std::string_view bytes) {
                    EXPECT_EQ(bytes, expect[i]);
                    ++i;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, expect.size());
}

TEST_F(TableHeapTest, CursorPageRangeValidation) {
  TableHeap heap(&pool_);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap.Insert(std::string(50, 'x')).ok());
  }
  const size_t pages = heap.pages().size();
  ASSERT_GT(pages, 1u);
  EXPECT_TRUE(heap.OpenCursor(pages, 1).status().IsInvalidArgument());
  EXPECT_TRUE(heap.OpenCursor(0, pages + 1).status().IsInvalidArgument());
  // Empty range is a valid, immediately exhausted cursor.
  auto empty = heap.OpenCursor(1, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->Valid());
}

TEST_F(TableHeapTest, GetViewPinKeepsBytesStableUnderEvictionPressure) {
  BufferPool small(&disk_, 4);
  TableHeap heap(&small);
  auto first = heap.Insert("pinned-row-payload");
  ASSERT_TRUE(first.ok());
  // Spill onto many more pages than the pool holds.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(heap.Insert(std::string(60, char('a' + i % 26))).ok());
  }
  auto view = heap.GetView(*first);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->bytes, "pinned-row-payload");
  // Churn the pool: every fetch below must evict, but never the pinned
  // frame. Under ASan a violated pin would read freed/rewritten memory.
  for (int i = 0; i < 500; ++i) {
    auto v = heap.Get(Address::FromPageSlot(
        heap.pages()[1 + i % (heap.pages().size() - 1)], 0));
    (void)v;
  }
  EXPECT_EQ(view->bytes, "pinned-row-payload");
}

TEST_F(TableHeapTest, GetMutablePatchesInPlace) {
  TableHeap heap(&pool_);
  auto a = heap.Insert("abcdef");
  ASSERT_TRUE(a.ok());
  {
    auto ref = heap.GetMutable(*a);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref->size, 6u);
    ref->data[0] = 'X';
    ref->data[5] = 'Z';
  }
  auto got = heap.Get(*a);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "XbcdeZ");
  EXPECT_EQ(heap.stats().updates, 1u);
}

TEST_F(TableHeapTest, GetViewMissingRowIsNotFound) {
  TableHeap heap(&pool_);
  auto a = heap.Insert("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.Delete(*a).ok());
  EXPECT_TRUE(heap.GetView(*a).status().IsNotFound());
  EXPECT_TRUE(heap.GetMutable(*a).status().IsNotFound());
}

TEST_F(TableHeapTest, ConcurrentCursorsAndPointReadsChurnPins) {
  // Read-only concurrency: several threads scan with cursors while others
  // hammer point reads through GetView, all over a pool much smaller than
  // the table so pins and evictions interleave constantly. ASan verifies
  // no view ever outlives its pin.
  BufferPool small(&disk_, 8);
  TableHeap heap(&small);
  std::vector<Address> addrs;
  std::vector<std::string> expect;
  for (int i = 0; i < 1500; ++i) {
    std::string data = "payload-" + std::to_string(i);
    auto a = heap.Insert(data);
    ASSERT_TRUE(a.ok());
    addrs.push_back(*a);
    expect.push_back(std::move(data));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {  // scanner
      for (int round = 0; round < 3; ++round) {
        size_t i = 0;
        Status st = heap.ForEach([&](Address, std::string_view bytes) {
          if (bytes != expect[i]) ++failures;
          ++i;
          return Status::OK();
        });
        if (!st.ok() || i != expect.size()) ++failures;
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {  // point reader
      for (int i = t; i < 1500 * 2; i += 3) {
        const size_t k = static_cast<size_t>(i) % addrs.size();
        auto view = heap.GetView(addrs[k]);
        if (!view.ok() || view->bytes != expect[k]) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(TableHeapTest, StatsTrackOperations) {
  TableHeap heap(&pool_);
  auto a = heap.Insert("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(heap.Update(*a, "y").ok());
  ASSERT_TRUE(heap.Delete(*a).ok());
  EXPECT_EQ(heap.stats().inserts, 1u);
  EXPECT_EQ(heap.stats().updates, 1u);
  EXPECT_EQ(heap.stats().deletes, 1u);
  EXPECT_GE(heap.stats().page_allocations, 1u);
}

// --- First-fit fit keys vs. the pinned scan they replace. ---

/// The page a first-fit scan that pins every page and asks
/// SlottedPage::CanInsert picks for `len` bytes; nullopt when none fits
/// (the heap then allocates a new page).
std::optional<PageId> PinnedFirstFit(BufferPool* pool, const TableHeap& heap,
                                     size_t len) {
  for (PageId id : heap.pages()) {
    auto page = pool->FetchPage(id);
    EXPECT_TRUE(page.ok());
    if (!page.ok()) return std::nullopt;
    PageGuard guard(pool, *page);
    if (SlottedPage(*page).CanInsert(len, /*reuse_slots=*/true)) return id;
  }
  return std::nullopt;
}

/// Logs each heap mutation as BaseTable does (page redo record, then the
/// page LSN stamp), so a crash can be recovered by RecoveryManager.
struct WalMirror {
  LogManager* wal = nullptr;
  TableId table = 0;
  TxnId next_txn = 1;
};

/// A seeded mix of inserts, deletes and updates with varied tuple lengths.
/// Every insert must land on the page PinnedFirstFit chose just before it.
void RunFirstFitOracle(BufferPool* pool, TableHeap* heap,
                       std::vector<Address>* live, uint64_t seed, int ops,
                       WalMirror* mirror = nullptr) {
  Random rng(seed);
  auto tuple = [&rng](uint64_t i) {
    // Mostly small rows, some wide ones, so holes come in many sizes.
    const size_t len = rng.Bernoulli(0.2) ? 300 + rng.Uniform(900)
                                          : 8 + rng.Uniform(120);
    return std::string(len, static_cast<char>('a' + i % 26));
  };
  for (int op = 0; op < ops; ++op) {
    const uint64_t dice = rng.Uniform(100);
    const TxnId txn = mirror != nullptr ? mirror->next_txn++ : 0;
    if (mirror != nullptr) mirror->wal->LogBegin(txn);
    Lsn lsn = kInvalidLsn;
    Address touched;
    if (live->empty() || dice < 45) {
      const std::string bytes = tuple(static_cast<uint64_t>(op));
      const std::optional<PageId> expect =
          PinnedFirstFit(pool, *heap, bytes.size());
      const size_t pages_before = heap->pages().size();
      auto addr = heap->Insert(bytes);
      ASSERT_TRUE(addr.ok()) << addr.status().ToString();
      if (expect.has_value()) {
        ASSERT_EQ(addr->page(), *expect) << "op " << op;
      } else {
        ASSERT_EQ(heap->pages().size(), pages_before + 1) << "op " << op;
        ASSERT_EQ(addr->page(), heap->pages().back()) << "op " << op;
        if (mirror != nullptr) {
          mirror->wal->LogAllocPage(txn, mirror->table, addr->page());
        }
      }
      live->push_back(*addr);
      touched = *addr;
      if (mirror != nullptr) {
        lsn = mirror->wal->LogPageInsert(txn, mirror->table, touched, bytes);
      }
    } else {
      const size_t k = rng.Uniform(live->size());
      touched = (*live)[k];
      auto before = heap->Get(touched);
      ASSERT_TRUE(before.ok());
      if (dice < 75) {
        ASSERT_TRUE(heap->Delete(touched).ok());
        (*live)[k] = live->back();
        live->pop_back();
        if (mirror != nullptr) {
          lsn = mirror->wal->LogPageDelete(txn, mirror->table, touched,
                                           *before);
        }
      } else {
        std::string after = tuple(static_cast<uint64_t>(op));
        const Status updated = heap->Update(touched, after);
        // A grow that no longer fits its page is refused, page unchanged.
        if (!updated.ok()) {
          ASSERT_TRUE(updated.IsResourceExhausted()) << updated.ToString();
          after = *before;
        }
        if (mirror != nullptr) {
          lsn = mirror->wal->LogPageUpdate(txn, mirror->table, touched,
                                           *before, after);
        }
      }
    }
    if (mirror != nullptr) {
      ASSERT_TRUE(heap->StampPageLsn(touched.page(), lsn).ok());
      mirror->wal->LogCommit(txn);
    }
  }
}

std::vector<std::pair<Address, std::string>> Contents(TableHeap* heap) {
  std::vector<std::pair<Address, std::string>> rows;
  EXPECT_TRUE(heap->ForEach([&](Address a, std::string_view bytes) {
                    rows.emplace_back(a, std::string(bytes));
                    return Status::OK();
                  })
                  .ok());
  return rows;
}

TEST_F(TableHeapTest, FirstFitKeysMatchPinnedScanThenAfterAttach) {
  BufferPool small(&disk_, 8);  // far smaller than the heap: evictions
  TableHeap heap(&small);
  std::vector<Address> live;
  ASSERT_NO_FATAL_FAILURE(
      RunFirstFitOracle(&small, &heap, &live, /*seed=*/41, /*ops=*/3000));
  ASSERT_GT(heap.pages().size(), 16u);

  // Reattach to the same pages: the keys are rebuilt from the pages.
  ASSERT_TRUE(small.FlushAll().ok());
  auto attached = TableHeap::Attach(&small, heap.pages());
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ((*attached)->live_tuples(), heap.live_tuples());
  ASSERT_NO_FATAL_FAILURE(RunFirstFitOracle(&small, attached->get(), &live,
                                            /*seed=*/42, /*ops=*/2000));
  EXPECT_EQ((*attached)->live_tuples(), live.size());
}

TEST_F(TableHeapTest, FirstFitKeysRebuiltByCrashRecovery) {
  const Schema schema({{"Blob", TypeId::kString, false}});
  LogManager wal;
  std::vector<Address> live;
  std::vector<std::pair<Address, std::string>> before_crash;
  {
    BufferPool pool(&disk_, 8);
    Catalog catalog(&pool);
    auto table = catalog.CreateTable("t", schema);
    ASSERT_TRUE(table.ok());
    WalMirror mirror{&wal, (*table)->id};
    ASSERT_NO_FATAL_FAILURE(RunFirstFitOracle(&pool, (*table)->heap.get(),
                                              &live, /*seed=*/43,
                                              /*ops=*/2500, &mirror));
    before_crash = Contents((*table)->heap.get());
    // Crash: the pool's dirty frames are lost; only pages it evicted
    // reached the disk. Redo must write the rest behind the heap's back.
  }
  BufferPool pool(&disk_, 8);
  Catalog catalog(&pool);
  auto table = catalog.CreateTable("t", schema);
  ASSERT_TRUE(table.ok());
  RecoveryManager recovery(&wal, &catalog);
  auto stats = recovery.Recover();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->records_replayed, 0u);
  TableHeap* heap = (*table)->heap.get();
  ASSERT_EQ(Contents(heap), before_crash);
  EXPECT_EQ(heap->live_tuples(), live.size());
  WalMirror mirror{&wal, (*table)->id, /*next_txn=*/100000};
  ASSERT_NO_FATAL_FAILURE(RunFirstFitOracle(&pool, heap, &live, /*seed=*/44,
                                            /*ops=*/2000, &mirror));
}

TEST_F(TableHeapTest, FirstFitPinsOnlyTheChosenPage) {
  // 400-byte rows: ten fill a page, and the 40 bytes left fit no eleventh.
  const std::string row(400, 'r');
  for (const size_t n_pages : {8u, 32u}) {
    BufferPool pool(&disk_, 64);  // every page stays resident
    TableHeap heap(&pool);
    std::vector<Address> addrs;
    while (heap.pages().size() < n_pages || addrs.size() % 10 != 0) {
      auto a = heap.Insert(row);
      ASSERT_TRUE(a.ok());
      addrs.push_back(*a);
    }
    ASSERT_EQ(heap.pages().size(), n_pages);
    // The only hole: one row freed on page k, near the end of the heap.
    const size_t k = n_pages - 2;
    const Address hole = addrs[k * 10 + 3];
    ASSERT_EQ(hole.page(), heap.pages()[k]);
    ASSERT_TRUE(heap.Delete(hole).ok());

    const uint64_t fetches_before = pool.stats().hits + pool.stats().misses;
    auto a = heap.Insert(row);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, hole);  // the freed slot is reused
    // Only the insert's own pin; a pinned first-fit would fetch k + 1
    // more, growing with the heap.
    EXPECT_EQ(pool.stats().hits + pool.stats().misses - fetches_before, 1u)
        << "n_pages=" << n_pages;
  }
}

}  // namespace
}  // namespace snapdiff
