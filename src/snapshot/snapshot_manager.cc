#include "snapshot/snapshot_manager.h"

#include <algorithm>

#include "catalog/catalog_persistence.h"
#include "common/logging.h"
#include "obs/log.h"
#include "expr/parser.h"
#include "snapshot/differential_refresh.h"
#include "snapshot/full_refresh.h"
#include "snapshot/ideal_refresh.h"
#include "snapshot/log_refresh.h"

namespace snapdiff {

namespace {

// Reserved pages of a file-backed base site. The catalog superblock is
// dual-slot: saves ping-pong between the two pages so a torn write never
// damages the live generation.
constexpr PageId kOraclePage = 0;
constexpr PageId kCatalogSuperblock = 1;
constexpr PageId kCatalogSuperblockAlt = 2;

std::unique_ptr<DiskManager> MakeBaseDisk(
    const SnapshotSystemOptions& options) {
  if (options.base_data_path.empty()) {
    return std::make_unique<MemoryDiskManager>();
  }
  auto disk = FileDiskManager::Open(options.base_data_path);
  SNAPDIFF_CHECK(disk.ok()) << "cannot open base data file "
                            << options.base_data_path << ": "
                            << disk.status().ToString();
  return std::move(*disk);
}

/// The base site's demand link and the per-site data links get distinct
/// metric prefixes so a data link's counters reconcile exactly with
/// RefreshStats::traffic (request traffic would otherwise pollute them).
ChannelOptions WithMetricsPrefix(ChannelOptions options, const char* prefix) {
  options.metrics_prefix = prefix;
  return options;
}

/// Runs `fn` on every exit path unless it was cleared first.
struct OnExit {
  std::function<void()> fn;
  ~OnExit() {
    if (fn) fn();
  }
};

}  // namespace

SnapshotSystem::SnapshotSystem(SnapshotSystemOptions options)
    : options_(options),
      base_disk_(MakeBaseDisk(options)),
      base_pool_(base_disk_.get(), options.base_pool_pages),
      base_catalog_(&base_pool_),
      request_channel_(
          WithMetricsPrefix(options.channel, "net.channel.request")) {
  if (options_.wire_encoding) wire_memo_ = std::make_shared<WireEncodeMemo>();
  auto main_site = sites_.emplace(
      "main", std::make_unique<SnapshotSite>(
                  options_.snap_pool_pages,
                  WithMetricsPrefix(options_.channel, "net.channel.data")));
  AttachWireCodecs(main_site.first->second.get());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_refreshes_ = reg.GetCounter("snapshot.refresh.count");
  metric_refresh_retries_ = reg.GetCounter("snapshot.refresh.retries");
  metric_refresh_resumes_ = reg.GetCounter("snapshot.refresh.resumes");
  metric_refresh_duration_ = reg.GetHistogram(
      "snapshot.refresh.duration_us", obs::DefaultLatencyBucketsUs());
  metric_snapshot_count_ = reg.GetGauge("snapshot.count");
  metric_refreshes_concurrent_ = reg.GetGauge("snapshot.refreshes_concurrent");
  if (options_.delta_cache_enabled) {
    delta_cache_ = std::make_unique<DeltaCache>(options_.delta_cache_bytes);
  }
  if (options_.enable_wal) wal_ = std::make_unique<LogManager>();
  if (!options_.base_data_path.empty()) {
    crash_switch_ = std::make_shared<CrashSwitch>();
    if (auto* file_disk = dynamic_cast<FileDiskManager*>(base_disk_.get())) {
      // An empty plan binds the crash switch without arming any fault.
      file_disk->Arm(DiskFaultPlan{}, crash_switch_);
    }
    if (wal_ != nullptr) {
      auto wal_file = WalFile::Open(options_.base_data_path + ".wal");
      SNAPDIFF_CHECK(wal_file.ok())
          << "cannot open WAL " << options_.base_data_path
          << ".wal: " << wal_file.status().ToString();
      wal_file_ = std::move(*wal_file);
      wal_file_->BindCrashSwitch(crash_switch_);
    }
    if (base_disk_->page_count() == 0) {
      // Fresh file: reserve the oracle page and both catalog superblock
      // slots.
      SNAPDIFF_CHECK(base_disk_->AllocatePage().ok());
      SNAPDIFF_CHECK(base_disk_->AllocatePage().ok());
      SNAPDIFF_CHECK(base_disk_->AllocatePage().ok());
      if (wal_ != nullptr) {
        // A fresh data file invalidates whatever WAL a previous incarnation
        // left at this path: discard its records and truncate the file so
        // LSNs restart at 1 alongside the empty site.
        wal_file_->TakeRecoveredRecords();
        SNAPDIFF_CHECK(wal_file_->Rewrite({}).ok());
        wal_->AttachSink(wal_file_.get());
      }
    } else {
      // RestoreBaseSite attaches the sink itself, after handing the WAL
      // file's recovered records to the log manager.
      Status restored = RestoreBaseSite();
      SNAPDIFF_CHECK(restored.ok())
          << "base data file failed restart recovery: " << restored.ToString();
    }
    if (wal_ != nullptr) {
      // WAL-before-data: capture a full image of every dirty page and make
      // it durable before the (possibly torn) write reaches the data file.
      // Installed after restore so recovery's own page traffic is not
      // re-logged.
      base_pool_.SetPreFlushHook([this](PageId page, const char* data) {
        wal_->LogPageImage(page, std::string(data, Page::kPageSize));
        return wal_->Sync();
      });
    }
  }
}

RefreshExecution SnapshotSystem::MakeRefreshExecution() {
  RefreshExecution exec;
  exec.workers = std::max<size_t>(options_.refresh_workers, 1);
  exec.batch_size = std::max<size_t>(options_.refresh_batch_size, 1);
  if (exec.workers > 1) {
    if (refresh_pool_ == nullptr) {
      refresh_pool_ = std::make_unique<ThreadPool>(exec.workers);
    }
    exec.pool = refresh_pool_.get();
  }
  exec.delta_cache = delta_cache_.get();
  return exec;
}

SnapshotSystem::AdmissionGuard SnapshotSystem::AdmitRefresh(
    std::vector<TableId> tables) {
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::unique_lock<std::mutex> lock(admission_mu_);
  // All-or-nothing admission over the sorted set: a joint wait cannot
  // deadlock against another admission because no waiter holds any table
  // while waiting.
  admission_cv_.wait(lock, [&] {
    for (TableId t : tables) {
      if (admitted_tables_.contains(t)) return false;
    }
    return true;
  });
  admitted_tables_.insert(tables.begin(), tables.end());
  ++admitted_refreshes_;
  uint64_t hw = admission_high_water_.load(std::memory_order_relaxed);
  while (admitted_refreshes_ > hw &&
         !admission_high_water_.compare_exchange_weak(
             hw, admitted_refreshes_, std::memory_order_acq_rel)) {
  }
  metric_refreshes_concurrent_->Set(
      static_cast<int64_t>(admitted_refreshes_));
  return AdmissionGuard(this, std::move(tables));
}

void SnapshotSystem::ReleaseAdmission(const std::vector<TableId>& tables) {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    for (TableId t : tables) admitted_tables_.erase(t);
    --admitted_refreshes_;
    metric_refreshes_concurrent_->Set(
        static_cast<int64_t>(admitted_refreshes_));
  }
  admission_cv_.notify_all();
}

Status SnapshotSystem::RestoreBaseSite() {
  const bool has_wal = wal_ != nullptr && wal_file_ != nullptr;
  Status loaded = LoadCatalog(&base_catalog_, base_disk_.get(),
                              kCatalogSuperblock, kCatalogSuperblockAlt);
  if (loaded.IsNotFound()) {
    // A logged site may crash before its first catalog save; the WAL tail
    // then mentions no tables and replays onto an empty site. Without a WAL
    // the file must hold a checkpointed catalog.
    if (!has_wal) return loaded;
  } else if (!loaded.ok()) {
    return loaded;
  }
  Result<TimestampOracle> recovered =
      TimestampOracle::Recover(base_disk_.get(), kOraclePage);
  if (recovered.ok()) {
    base_oracle_ = *recovered;
  } else if (!has_wal) {
    // Without a WAL the checkpointed oracle is the only timestamp source.
    return recovered.status();
  }
  for (const std::string& name : base_catalog_.TableNames()) {
    ASSIGN_OR_RETURN(TableInfo * info, base_catalog_.GetTable(name));
    const AnnotationMode mode = info->schema.HasAnnotations()
                                    ? AnnotationMode::kLazy
                                    : AnnotationMode::kNone;
    base_tables_[name] =
        std::make_unique<BaseTable>(info, mode, &base_oracle_, wal_.get());
  }
  if (has_wal) {
    RETURN_IF_ERROR(wal_->RestoreFrom(wal_file_->TakeRecoveredRecords()));
    // The sink must be live before recovery: it appends and syncs kAbort
    // records for the losers it rolls back.
    wal_->AttachSink(wal_file_.get());
    RecoveryManager recovery(wal_.get(), &base_catalog_);
    ASSIGN_OR_RETURN(RecoveryStats stats, recovery.Recover());
    base_oracle_.AdvanceTo(stats.max_timestamp + 1);
    for (auto& [name, table] : base_tables_) {
      table->set_next_txn(std::max(table->next_txn(), stats.max_txn + 1));
    }
    if (stats.found_checkpoint) restored_checkpoint_ = stats.checkpoint;
    last_recovery_ = std::move(stats);
  }
  return Status::OK();
}

Status SnapshotSystem::CheckpointBaseSite() {
  if (options_.base_data_path.empty()) {
    return Status::InvalidArgument(
        "base site is memory-backed; nothing durable to checkpoint");
  }
  RETURN_IF_ERROR(base_pool_.FlushDirty());
  RETURN_IF_ERROR(SaveCatalog(&base_catalog_, base_disk_.get(),
                              kCatalogSuperblock, kCatalogSuperblockAlt));
  RETURN_IF_ERROR(base_oracle_.Checkpoint(base_disk_.get(), kOraclePage));
  RETURN_IF_ERROR(base_disk_->Sync());
  // Checkpoints are not concurrent with mutations, so once the flush and
  // disk sync succeed every record logged so far — the flush's own page
  // images included — has durable page effects: redo may skip the lot.
  const Lsn redo_start = wal_ != nullptr ? wal_->LastLsn() : 0;
  if (wal_ != nullptr && wal_->sink() != nullptr) {
    CheckpointPayload payload;
    payload.oracle_next = base_oracle_.PeekNext();
    payload.redo_start_lsn = redo_start;
    // Compaction is additionally bounded by the log positions the log-based
    // refresh alternative still needs.
    Lsn keep_after = redo_start;
    for (const auto& [name, entry] : snapshots_) {
      CheckpointPayload::SnapshotState s;
      s.snapshot_id = entry.descriptor.id;
      s.snap_time =
          entry.table != nullptr ? entry.table->snap_time() : kNullTimestamp;
      s.last_refresh_lsn = entry.descriptor.last_refresh_lsn;
      payload.snapshots.push_back(s);
      if (entry.descriptor.method == RefreshMethod::kLogBased) {
        keep_after = std::min(keep_after, entry.descriptor.last_refresh_lsn);
      }
    }
    std::string bytes;
    payload.SerializeTo(&bytes);
    wal_->LogCheckpoint(std::move(bytes));
    RETURN_IF_ERROR(wal_->Sync());
    RETURN_IF_ERROR(wal_file_->Rewrite(wal_->Scan(keep_after)));
  }
  return Status::OK();
}

Status SnapshotSystem::PersistCatalogIfDurable() {
  if (options_.base_data_path.empty()) return Status::OK();
  RETURN_IF_ERROR(SaveCatalog(&base_catalog_, base_disk_.get(),
                              kCatalogSuperblock, kCatalogSuperblockAlt));
  return base_disk_->Sync();
}

Status SnapshotSystem::ArmBaseDiskFault(DiskFaultPlan plan) {
  auto* file_disk = dynamic_cast<FileDiskManager*>(base_disk_.get());
  if (file_disk == nullptr) {
    return Status::InvalidArgument(
        "base site is memory-backed; no disk faults to arm");
  }
  file_disk->Arm(std::move(plan), crash_switch_);
  return Status::OK();
}

bool SnapshotSystem::crashed() const {
  return crash_switch_ != nullptr && crash_switch_->dead.load();
}

Result<BaseTable*> SnapshotSystem::CreateBaseTable(const std::string& name,
                                                   Schema user_schema,
                                                   AnnotationMode mode,
                                                   PlacementPolicy policy) {
  if (base_tables_.contains(name)) {
    return Status::AlreadyExists("base table " + name + " already exists");
  }
  Schema stored = std::move(user_schema);
  if (mode != AnnotationMode::kNone) {
    ASSIGN_OR_RETURN(stored, stored.WithAnnotations());
  }
  ASSIGN_OR_RETURN(TableInfo * info,
                   base_catalog_.CreateTable(name, std::move(stored), policy));
  auto table = std::make_unique<BaseTable>(info, mode, &base_oracle_,
                                           wal_.get());
  BaseTable* ptr = table.get();
  base_tables_[name] = std::move(table);
  // The WAL logs by table id, so the id→schema mapping must be durable
  // before any logged mutation can reference it.
  RETURN_IF_ERROR(PersistCatalogIfDurable());
  return ptr;
}

Result<BaseTable*> SnapshotSystem::GetBaseTable(const std::string& name) {
  auto it = base_tables_.find(name);
  if (it == base_tables_.end()) {
    return Status::NotFound("no base table named " + name);
  }
  return it->second.get();
}

Status SnapshotSystem::AddSnapshotSite(const std::string& site_name) {
  if (sites_.contains(site_name)) {
    return Status::AlreadyExists("site " + site_name + " already exists");
  }
  auto inserted = sites_.emplace(
      site_name, std::make_unique<SnapshotSite>(
                     options_.snap_pool_pages,
                     WithMetricsPrefix(options_.channel, "net.channel.data")));
  AttachWireCodecs(inserted.first->second.get());
  return Status::OK();
}

WireCodecStats SnapshotSystem::WireEncoderStats() const {
  WireCodecStats total;
  for (const auto& [name, site] : sites_) {
    if (site->encoder == nullptr) continue;
    const WireCodecStats s = site->encoder->stats();
    total.encoded_messages += s.encoded_messages;
    total.delta_rows += s.delta_rows;
    total.columnar_rows += s.columnar_rows;
    total.opaque_rows += s.opaque_rows;
    total.compressed_blocks += s.compressed_blocks;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.stream_resets += s.stream_resets;
  }
  // The memo is shared across sites; per-encoder stats each report the
  // shared total, so take it once instead of summing.
  total.memo_hits = wire_memo_ != nullptr ? wire_memo_->hits() : 0;
  return total;
}

const Schema* SnapshotSystem::ResolveValueSchema(SnapshotId id) const {
  auto it = snapshots_by_id_.find(id);
  if (it == snapshots_by_id_.end()) return nullptr;
  return &it->second->table->value_schema();
}

void SnapshotSystem::AttachWireCodecs(SnapshotSite* site) {
  if (!options_.wire_encoding) return;
  WireCodecOptions codec;
  codec.compression = options_.wire_compression;
  // The resolver closes over the registry: snapshots may be created and
  // dropped after the site exists, and a dropped snapshot simply resolves
  // to no schema (rows ride opaque, which is always sound).
  WireSchemaResolver resolver = [this](SnapshotId id) -> const Schema* {
    return ResolveValueSchema(id);
  };
  site->encoder = std::make_unique<WireEncoder>(codec, resolver, wire_memo_);
  site->decoder = std::make_unique<WireDecoder>(codec, resolver);
  site->applier = SessionApplier(site->decoder.get());
}

std::vector<std::string> SnapshotSystem::SnapshotSiteNames() const {
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, site] : sites_) names.push_back(name);
  return names;
}

Result<SnapshotSystem::SnapshotSite*> SnapshotSystem::GetSite(
    const std::string& name) {
  auto it = sites_.find(name);
  if (it == sites_.end()) {
    return Status::NotFound("no snapshot site named " + name);
  }
  return it->second.get();
}

void SnapshotSystem::SetPartitioned(bool partitioned) {
  sites_.at("main")->channel.SetPartitioned(partitioned);
}

Status SnapshotSystem::SetSitePartitioned(const std::string& site_name,
                                          bool partitioned) {
  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite(site_name));
  site->channel.SetPartitioned(partitioned);
  return Status::OK();
}

Channel* SnapshotSystem::data_channel() {
  return &sites_.at("main")->channel;
}

Result<Channel*> SnapshotSystem::site_channel(const std::string& site_name) {
  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite(site_name));
  return &site->channel;
}

Result<BaseTable*> SnapshotSystem::ResolveSource(const std::string& name) {
  auto base = GetBaseTable(name);
  if (base.ok()) return base;
  // A snapshot's storage can source a cascaded snapshot.
  auto snap = snapshots_.find(name);
  if (snap != snapshots_.end()) return snap->second.table->storage();
  return Status::NotFound("no base table or snapshot named " + name);
}

Result<SnapshotTable*> SnapshotSystem::CreateSnapshot(
    const std::string& snapshot_name, const std::string& source_name,
    const std::string& restriction_text, SnapshotOptions options) {
  if (snapshots_.contains(snapshot_name)) {
    return Status::AlreadyExists("snapshot " + snapshot_name +
                                 " already exists");
  }
  ASSIGN_OR_RETURN(BaseTable * source, ResolveSource(source_name));

  // Compile the restriction now (CREATE SNAPSHOT-time binding).
  ASSIGN_OR_RETURN(ExprPtr restriction, ParsePredicate(restriction_text));
  RETURN_IF_ERROR(ValidateAgainstSchema(*restriction, source->user_schema()));

  if (options.method == RefreshMethod::kDifferential &&
      source->mode() == AnnotationMode::kNone) {
    // R*: "the extra fields are added automatically to the base table when
    // the first snapshot using differential refresh is created".
    RETURN_IF_ERROR(base_catalog_.AddAnnotationColumns(source->info()));
    RETURN_IF_ERROR(source->SetMode(AnnotationMode::kLazy));
    RETURN_IF_ERROR(PersistCatalogIfDurable());
  }
  if (options.method == RefreshMethod::kLogBased && wal_ == nullptr) {
    return Status::InvalidArgument("log-based refresh requires the WAL");
  }

  std::vector<std::string> projection = options.projection;
  if (projection.empty()) {
    projection = source->UserColumnNames();
    // Cascaded snapshots: the source's own $BASEADDR$ bookkeeping column is
    // not user data at the next level.
    std::erase(projection, std::string(SnapshotTable::kBaseAddrColumn));
  }
  std::set<std::string> seen;
  for (const std::string& col : projection) {
    ASSIGN_OR_RETURN(size_t idx, source->user_schema().IndexOf(col));
    (void)idx;
    if (!seen.insert(col).second) {
      return Status::InvalidArgument("duplicate projected column: " + col);
    }
  }
  ASSIGN_OR_RETURN(Schema value_schema,
                   source->user_schema().Project(projection));

  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite(options.site));
  ASSIGN_OR_RETURN(auto table,
                   SnapshotTable::Create(&site->catalog, snapshot_name,
                                         std::move(value_schema),
                                         &site->oracle));

  SnapshotEntry entry;
  entry.site = site;
  entry.descriptor.id = next_snapshot_id_++;
  entry.descriptor.name = snapshot_name;
  entry.descriptor.method = options.method;
  entry.descriptor.restriction = std::move(restriction);
  entry.descriptor.restriction_text = restriction_text;
  entry.descriptor.projection = std::move(projection);
  entry.descriptor.anchor_optimization = options.anchor_optimization;
  // First refresh replays the log (or transmits in full). Checkpointed
  // per-snapshot positions (see restored_checkpoint()) are deliberately NOT
  // spliced into a re-created descriptor: the snapshot site is volatile in
  // this collapsed process, so the re-created snapshot starts empty and a
  // differential continuation would leave it incomplete.
  entry.descriptor.last_refresh_lsn = 0;
  entry.table = std::move(table);
  entry.source = source;

  auto [it, inserted] = snapshots_.emplace(snapshot_name, std::move(entry));
  SNAPDIFF_CHECK(inserted);
  snapshots_by_id_[it->second.descriptor.id] = &it->second;
  if (options.method == RefreshMethod::kAsap) {
    // Constructed only after the entry has its final home: the propagator
    // keeps a pointer to the descriptor.
    it->second.asap = std::make_unique<AsapPropagator>(
        &it->second.descriptor, source, &it->second.site->channel,
        options.asap_buffer_on_partition);
    source->AddObserver(it->second.asap.get());
  }
  metric_snapshot_count_->Set(static_cast<int64_t>(snapshots_.size()));
  SNAPDIFF_LOG(Info) << "snapshot created"
                     << obs::kv("name", snapshot_name)
                     << obs::kv("source", source_name)
                     << obs::kv("method",
                                RefreshMethodToString(options.method));
  return it->second.table.get();
}

Result<SnapshotTable*> SnapshotSystem::CreateJoinSnapshot(
    const std::string& snapshot_name, const std::string& left_table,
    const std::string& right_table, const std::string& join_left_column,
    const std::string& join_right_column,
    const std::string& restriction_text,
    std::vector<std::string> projection) {
  if (snapshots_.contains(snapshot_name)) {
    return Status::AlreadyExists("snapshot " + snapshot_name +
                                 " already exists");
  }
  ASSIGN_OR_RETURN(BaseTable * left, ResolveSource(left_table));
  ASSIGN_OR_RETURN(BaseTable * right, ResolveSource(right_table));
  if (left == right) {
    return Status::NotSupported("self-joins are not supported");
  }
  ASSIGN_OR_RETURN(Schema combined,
                   BuildJoinSchema(left, right, join_left_column,
                                   join_right_column));
  ASSIGN_OR_RETURN(ExprPtr restriction, ParsePredicate(restriction_text));
  RETURN_IF_ERROR(ValidateAgainstSchema(*restriction, combined));

  if (projection.empty()) {
    for (const Column& c : combined.columns()) projection.push_back(c.name);
  }
  std::set<std::string> seen;
  for (const std::string& col : projection) {
    ASSIGN_OR_RETURN(size_t idx, combined.IndexOf(col));
    (void)idx;
    if (!seen.insert(col).second) {
      return Status::InvalidArgument("duplicate projected column: " + col);
    }
  }
  ASSIGN_OR_RETURN(Schema value_schema, combined.Project(projection));
  ASSIGN_OR_RETURN(SnapshotSite * site, GetSite("main"));
  ASSIGN_OR_RETURN(auto table,
                   SnapshotTable::Create(&site->catalog, snapshot_name,
                                         std::move(value_schema),
                                         &site->oracle));

  SnapshotEntry entry;
  entry.site = site;
  entry.descriptor.id = next_snapshot_id_++;
  entry.descriptor.name = snapshot_name;
  entry.descriptor.method = RefreshMethod::kFull;  // re-evaluation only
  entry.descriptor.restriction = restriction;
  entry.descriptor.restriction_text = restriction_text;
  entry.descriptor.projection = projection;
  entry.table = std::move(table);
  entry.source = left;  // lock anchor; Refresh locks both inputs

  auto join = std::make_unique<JoinDescriptor>();
  join->id = entry.descriptor.id;
  join->name = snapshot_name;
  join->left = left;
  join->right = right;
  join->join_left_column = join_left_column;
  join->join_right_column = join_right_column;
  join->restriction = std::move(restriction);
  join->restriction_text = restriction_text;
  join->projection = std::move(projection);
  join->combined_schema = std::move(combined);
  entry.join = std::move(join);

  auto [it, inserted] = snapshots_.emplace(snapshot_name, std::move(entry));
  SNAPDIFF_CHECK(inserted);
  snapshots_by_id_[it->second.descriptor.id] = &it->second;
  metric_snapshot_count_->Set(static_cast<int64_t>(snapshots_.size()));
  return it->second.table.get();
}

Status SnapshotSystem::DropSnapshot(const std::string& snapshot_name) {
  auto it = snapshots_.find(snapshot_name);
  if (it == snapshots_.end()) {
    return Status::NotFound("no snapshot named " + snapshot_name);
  }
  if (it->second.asap != nullptr) {
    it->second.source->RemoveObserver(it->second.asap.get());
  }
  // Any live served session of this snapshot loses its meaning (and must
  // not leak its base-table lock).
  EvictServeSessionsOf(it->second.descriptor.id);
  snapshots_by_id_.erase(it->second.descriptor.id);
  RETURN_IF_ERROR(it->second.site->catalog.DropTable(snapshot_name));
  snapshots_.erase(it);
  metric_snapshot_count_->Set(static_cast<int64_t>(snapshots_.size()));
  return Status::OK();
}

Result<SnapshotSystem::SnapshotEntry*> SnapshotSystem::GetEntry(
    const std::string& name) {
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return Status::NotFound("no snapshot named " + name);
  }
  return &it->second;
}

Result<SnapshotTable*> SnapshotSystem::GetSnapshot(
    const std::string& snapshot_name) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(snapshot_name));
  return entry->table.get();
}

Result<uint64_t> SnapshotSystem::DeliverPending(
    SnapshotSite* site, const std::map<SnapshotId, RefreshStats*>& attributed) {
  uint64_t applied = 0;
  const SessionApplier::ApplyFn apply =
      [&](const Message& msg, const Message& arrived) -> Status {
    auto it = snapshots_by_id_.find(msg.snapshot_id);
    if (it == snapshots_by_id_.end()) return Status::OK();  // dropped since
    auto attr = attributed.find(msg.snapshot_id);
    RefreshStats* stats = attr == attributed.end() ? nullptr : attr->second;
    if (stats != nullptr) {
      CountMessage(arrived, arrived.SerializedSize(), &stats->traffic);
    }
    RETURN_IF_ERROR(it->second->table->ApplyMessage(msg, stats));
    ++applied;
    return Status::OK();
  };
  while (site->channel.HasPending()) {
    ASSIGN_OR_RETURN(Message msg, site->channel.Receive());
    // A dropped snapshot's messages are discarded unread (not decoded).
    if (!snapshots_by_id_.contains(msg.snapshot_id)) continue;
    RETURN_IF_ERROR(site->applier.Offer(msg, apply));
  }
  return applied;
}

Status SnapshotSystem::DrainChannel() {
  for (auto& [name, site] : sites_) {
    RETURN_IF_ERROR(DeliverPending(site.get()).status());
  }
  return Status::OK();
}

Status SnapshotSystem::RunRefreshAttempt(
    SnapshotEntry* entry, RefreshMethod method, Timestamp request_time,
    RefreshSession* session, obs::Tracer* tracer, RefreshStats* stats,
    const TableEpoch& epoch) {
  SnapshotDescriptor* desc = &entry->descriptor;
  BaseTable* base = entry->source;
  const RefreshExecution exec = MakeRefreshExecution();
  switch (method) {
    case RefreshMethod::kAsap:
      // The demand's SnapTime, not the local replica's: a remote client
      // reports its own SnapTime, and for the in-process site the two are
      // identical (the request echoes entry->table->snap_time()).
      if (request_time != kNullTimestamp) {
        // Changes are already streamed; flush any partition backlog and
        // stamp the snapshot with the cut's time. The flush re-sends
        // buffered (session-less) propagation messages; only the END rides
        // the session.
        if (entry->asap != nullptr) {
          RETURN_IF_ERROR(entry->asap->FlushBuffered());
        }
        return session->Send(
            MakeEndOfRefresh(desc->id, Address::Null(), epoch.cut_time));
      }
      // The first refresh initializes the replica with a full copy of the
      // cut; changes made before the snapshot existed were never streamed.
      // Buffered changes may postdate the cut — the caller paused
      // propagation and flushes them after the copy (idempotent for the
      // pre-cut ones).
      [[fallthrough]];
    case RefreshMethod::kFull:
      RETURN_IF_ERROR(ExecuteFullRefresh(base, epoch, desc, session, stats,
                                         tracer, exec));
      if (desc->method == RefreshMethod::kLogBased) {
        // A full override of a log-based snapshot subsumes the backlog up
        // to the cut, exactly like the executor's own truncation fallback.
        desc->pending_refresh_lsn = epoch.cut_lsn;
      }
      return Status::OK();
    case RefreshMethod::kDifferential:
      return ExecuteDifferentialRefresh(base, epoch, desc, request_time,
                                        session, stats, tracer, exec);
    case RefreshMethod::kIdeal:
      return ExecuteIdealRefresh(base, epoch, desc, session, stats, tracer);
    case RefreshMethod::kLogBased:
      return ExecuteLogBasedRefresh(base, epoch, desc, session, stats,
                                    tracer, exec);
  }
  return Status::Internal("bad refresh method");
}

Status SnapshotSystem::ServeSessions(
    std::vector<SessionDemand>* demands, obs::Tracer* tracer,
    const std::function<void()>& on_epoch_open) {
  SnapshotEntry* const lead = demands->front().entry;
  if (lead->join != nullptr) {
    // Sessionless join: a full re-evaluation under shared locks on both
    // inputs, held only for this attempt — there is no resumable stream to
    // keep frozen.
    const TableId left = lead->join->left->info()->id;
    const TableId right = lead->join->right->info()->id;
    const AdmissionGuard admission = AdmitRefresh({left, right});
    const TxnId txn = refresh_txn_++;
    const OnExit unlock{[&] { locks_.ReleaseAll(txn); }};
    RETURN_IF_ERROR(locks_.Acquire(txn, left, LockMode::kShared));
    RETURN_IF_ERROR(locks_.Acquire(txn, right, LockMode::kShared));
    const obs::Tracer::Span span(tracer, "execute join-full");
    return ExecuteJoinFullRefresh(lead->join.get(), demands->front().wire,
                                  &demands->front().outcome.stats, tracer);
  }

  // The paper obtains "a table level lock on the base table during the fix
  // up (and refresh) procedures"; this implementation deviates: each
  // session reads a copy-on-write scan epoch under a *shared* lock, so
  // writers run concurrently and fix-ups go through the conditional
  // WriteAnnotationsIf. Admission keeps other refreshes of the table (which
  // would race on fix-ups and staged outcomes) out for this attempt only:
  // the session's epoch, not admission, keeps a RESUME byte-identical, so
  // other snapshots of the table refresh freely between a stream and its
  // ack.
  BaseTable* base = lead->source;
  const TableId table = base->info()->id;
  const AdmissionGuard admission = AdmitRefresh({table});
  std::shared_ptr<TableEpoch> epoch;
  bool fresh = true;
  {
    std::lock_guard<std::mutex> guard(serve_mu_);
    SessionDemand& lone = demands->front();
    auto live = serve_sessions_.find(lone.request.resume_session_id);
    if (demands->size() == 1 && live != serve_sessions_.end() &&
        live->second.snapshot_id == lone.entry->descriptor.id) {
      // RESUME of a live session: its epoch still pins the cut, so the
      // deterministic re-run emits the byte-identical stream (writers
      // mutated the live table freely in between) and suppress-by-sequence
      // names exactly the applied prefix.
      fresh = false;
      lone.method = live->second.method;
      lone.request.client_snap_time = live->second.request_time;
      lone.outcome.session_id = live->first;
      lone.outcome.resumed = lone.request.resume_after_seq > 0;
      epoch = live->second.epoch;
    } else {
      epoch = base->OpenEpoch();
      for (SessionDemand& d : *demands) {
        SnapshotDescriptor& desc = d.entry->descriptor;
        // Supersede any dangling session of the snapshot. Staged outcomes
        // live only as long as their session, so the eviction discards
        // whatever it staged.
        EvictServeSessionsOf(desc.id);
        // Only an exclusive holder (an admin operation) refuses the shared
        // lock — on the first member, as a granted one keeps it out; the
        // refresh then fails and the client re-demands.
        const TxnId txn = refresh_txn_++;
        RETURN_IF_ERROR(locks_.Acquire(txn, table, LockMode::kShared));
        d.request.resume_after_seq = 0;
        d.outcome.resumed = false;
        d.outcome.session_id = next_session_id_++;
        serve_sessions_[d.outcome.session_id] = ServeSession{
            desc.id, txn, d.method, d.request.client_snap_time, epoch};
      }
    }
  }
  if (fresh && on_epoch_open) on_epoch_open();

  std::vector<RefreshSession> sessions;
  sessions.reserve(demands->size());
  for (SessionDemand& d : *demands) {
    const ServeRequest& r = d.request;
    if (r.encoder != nullptr) {
      // Adopt the peer decoder's committed generation (a mismatch resets
      // the shadow and flags the stream). Syncing on RESUME too is what
      // makes reconnects work: a new connection's encoder starts at
      // generation 0 while the decoder is at G. Matching ones are a no-op.
      r.encoder->SyncGeneration(d.entry->descriptor.id, r.client_codec_gen);
      r.encoder->BeginStream(d.entry->descriptor.id, d.outcome.session_id,
                             r.resume_after_seq > 0);
    }
    sessions.emplace_back(d.wire, d.outcome.session_id, r.resume_after_seq,
                          r.encoder);
  }
  Status status;
  if (demands->size() == 1) {
    SessionDemand& d = demands->front();
    const obs::Tracer::Span span(
        tracer,
        std::string("execute ").append(RefreshMethodToString(d.method)));
    status = RunRefreshAttempt(d.entry, d.method, d.request.client_snap_time,
                               &sessions.front(), tracer, &d.outcome.stats,
                               *epoch);
  } else {
    // One shared scan fans out to every member's own session, so each
    // stream keeps its session identity and sequence stamping on the wire.
    std::vector<GroupRefreshMember> members;
    members.reserve(demands->size());
    for (size_t i = 0; i < demands->size(); ++i) {
      SessionDemand& d = (*demands)[i];
      members.push_back({&d.entry->descriptor, d.request.client_snap_time,
                         &d.outcome.stats, &sessions[i]});
    }
    const obs::Tracer::Span span(tracer, "execute group-differential");
    status = ExecuteGroupDifferentialRefresh(base, *epoch, &members, tracer,
                                             MakeRefreshExecution());
  }
  for (size_t i = 0; i < demands->size(); ++i) {
    (*demands)[i].outcome.last_seq = sessions[i].last_seq();
    (*demands)[i].outcome.suppressed = sessions[i].suppressed();
  }
  // A real executor failure: these sessions cannot be resumed soundly.
  // Unavailable (the transport died mid-stream) leaves them live, epoch and
  // all, for the client's RESUME.
  if (!status.ok() && !status.IsUnavailable()) EvictSessions(*demands);
  return status;
}

void SnapshotSystem::EvictSessions(const std::vector<SessionDemand>& demands) {
  std::lock_guard<std::mutex> guard(serve_mu_);
  for (const SessionDemand& d : demands) {
    EvictServeSession(d.outcome.session_id);
  }
}

Result<std::vector<RefreshReport>> SnapshotSystem::RefreshLocally(
    const std::vector<SnapshotEntry*>& entries, RefreshMethod method,
    const std::string& trace_name, const RefreshRequest& request) {
  // Only a lone member retries: a retry RESUMEs one session.
  SNAPDIFF_DCHECK(entries.size() == 1 || request.retry.max_retries == 0);
  SnapshotSite* site = entries.front()->site;
  Channel* channel = &site->channel;

  tracer_.Begin(trace_name);
  OnExit end_trace{[this] { if (tracer_.active()) tracer_.End(); }};

  // Deliver anything still in flight — ASAP streams, and the applied
  // prefix of an interrupted earlier session — before measuring.
  {
    obs::Tracer::Span drain_span(&tracer_, "drain");
    RETURN_IF_ERROR(DrainChannel());
  }

  // A scripted per-request fault window: armed before the first attempt,
  // healed (at the latest) when the call returns.
  OnExit heal;
  if (request.fault.has_value() && !request.fault->empty()) {
    channel->Arm(*request.fault);
    heal.fn = [channel] { channel->Heal(); };
  }

  // This call is a local client of the refresh core, like a remote site:
  // one demand per member (snapshot → base, carrying SnapTime +
  // restriction), then the first attempt opens the sessions and their
  // epoch and a retry RESUMEs, so all attempts re-transmit one frozen cut.
  std::vector<SessionDemand> demands(entries.size());
  std::map<SnapshotId, RefreshStats*> attributed;
  obs::Tracer::Span request_span(&tracer_, "request");
  for (size_t i = 0; i < entries.size(); ++i) {
    SnapshotEntry* entry = entries[i];
    const SnapshotDescriptor& desc = entry->descriptor;
    RETURN_IF_ERROR(request_channel_.Send(MakeRefreshRequest(
        desc.id, entry->table->snap_time(), desc.restriction_text)));
    ASSIGN_OR_RETURN(Message demand, request_channel_.Receive());
    SessionDemand& d = demands[i];
    d.entry = entry;
    d.method = method;
    d.wire = channel;
    d.request.client_snap_time = demand.timestamp;
    // Compact wire mode: both codec halves are local, so the generation a
    // remote client carries in its demand is read off the site decoder. One
    // encoder serves a whole group, so its memo encodes each message the
    // shared scan fans out once.
    if (entry->join == nullptr) d.request.encoder = site->encoder.get();
    attributed[desc.id] = &d.outcome.stats;
  }
  request_span.Note("members", demands.size());
  request_span.Close();

  // ASAP delivery order vs. the cut: changes propagated after the epoch
  // opens must not land at the site before the copy's (older) image of the
  // same row. Pause propagation into the buffer across the stream and
  // flush once the call ends; re-sent pre-cut changes are idempotent. A
  // failed flush (still-partitioned channel) leaves the messages buffered
  // for the next flush. Only a lone member can be ASAP.
  OnExit resume_asap;
  AsapPropagator* asap = entries.front()->asap.get();
  if (method == RefreshMethod::kAsap && asap != nullptr) {
    asap->PauseToBuffer();
    resume_asap.fn = [asap] { (void)asap->ResumeAndFlush(); };
  }

  // Every member whose END does not apply fails the call; its session and
  // every other one not yet acknowledged are evicted.
  OnExit evict{[&] { EvictSessions(demands); }};
  std::vector<RefreshReport> reports(entries.size());
  RefreshReport call;  // the call's retry story, shared by every member
  size_t acked = 0;    // members acknowledged so far, in member order
  const ChannelStats before = channel->stats();
  for (;;) {
    for (SessionDemand& d : demands) {
      if (d.request.encoder != nullptr) {
        d.request.client_codec_gen =
            site->decoder->generation(d.entry->descriptor.id);
      }
    }
    Status exec = ServeSessions(&demands, &tracer_, request.on_epoch_open);
    for (size_t i = 0; i < demands.size(); ++i) {
      reports[i].session_id = demands[i].outcome.session_id;
      reports[i].suppressed_messages += demands[i].outcome.suppressed;
    }
    if (!exec.ok() && !exec.IsUnavailable()) return exec;

    Status failure = exec;
    if (exec.ok()) {
      // Snapshot site: receive and apply.
      obs::Tracer::Span apply_span(&tracer_, "apply");
      ASSIGN_OR_RETURN(const uint64_t applied,
                       DeliverPending(site, attributed));
      apply_span.Note("messages", applied);
      apply_span.Close();
      // A stream succeeded end-to-end only if its END actually applied —
      // with lossy delivery, executor success alone proves nothing.
      // Session-less joins settle for the SnapTime stamp.
      for (; acked < demands.size(); ++acked) {
        SessionDemand& d = demands[acked];
        const SnapshotDescriptor& desc = d.entry->descriptor;
        const uint64_t session_id = d.outcome.session_id;
        const bool sessionless = d.entry->join != nullptr;
        const bool complete =
            sessionless
                ? d.entry->table->snap_time() != d.request.client_snap_time
                : site->applier.Complete(desc.id, session_id);
        if (!complete) {
          failure = Status::Unavailable(
              "refresh " + desc.name + " session " +
              std::to_string(session_id) +
              " incomplete: messages lost in transit");
          break;
        }
        // The in-process analogue of SESSION_ACK: the encoder's folds and
        // the staged outcome commit, and the session's lock and epoch are
        // released. NotFound means a concurrent serve of this snapshot
        // superseded the session; harmless, as on the serve path.
        if (!sessionless) {
          if (d.request.encoder != nullptr) {
            d.request.encoder->CommitStream(desc.id, session_id);
          }
          (void)AcknowledgeServe(desc.id, session_id);
        }
        CountRefreshed(desc.name, *d.entry->table);
      }
      if (acked == demands.size()) break;
    }
    if (call.retries >= request.retry.max_retries) {
      // Out of attempts. With retries disabled this preserves the classic
      // contract: the error surfaces and the partial prefix stays queued
      // for the next call's drain.
      return failure;
    }

    // --- retry ---
    ++call.retries;
    ++call.attempts;
    metric_refresh_retries_->Inc();
    obs::Tracer::Span retry_span(&tracer_, "retry");
    if (!exec.ok()) {
      // The attempt died mid-stream; deliver whatever arrived before the
      // fault so the site's resume checkpoint is current.
      RETURN_IF_ERROR(DeliverPending(site, attributed).status());
    }
    SessionDemand& lone = demands.front();
    const SnapshotId id = lone.entry->descriptor.id;
    const uint64_t session_id = lone.outcome.session_id;
    uint64_t resume_after = 0;
    if (lone.entry->join == nullptr && request.retry.resume) {
      // RESUME_REFRESH negotiation: the snapshot site reports its durably
      // applied prefix over the demand link; the base re-runs the refresh
      // with that prefix suppressed.
      const uint64_t checkpoint = site->applier.LastApplied(id, session_id);
      RETURN_IF_ERROR(request_channel_.Send(
          MakeResumeRefresh(id, session_id, checkpoint)));
      ASSIGN_OR_RETURN(Message resume, request_channel_.Receive());
      resume_after = resume.seq;
      if (resume_after > 0) {
        ++call.resumes;
        metric_refresh_resumes_->Inc();
      }
    }
    lone.request.resume_session_id = session_id;
    lone.request.resume_after_seq = resume_after;
    // Capped exponential backoff in simulated ticks; advancing the link's
    // clock is also what fires FaultPlan::WithHealAfter.
    uint64_t backoff = request.retry.initial_backoff_ticks;
    for (uint64_t step = 1;
         step < call.retries && backoff < request.retry.max_backoff_ticks;
         ++step) {
      backoff *= 2;
    }
    backoff = std::min(backoff, request.retry.max_backoff_ticks);
    call.backoff_ticks += backoff;
    if (backoff > 0) channel->AdvanceTime(backoff);
    retry_span.Note("attempt", call.attempts);
    retry_span.Note("backoff_ticks", backoff);
    retry_span.Note("resume_after_seq", resume_after);
    retry_span.Close();
    SNAPDIFF_LOG(Warn) << "refresh retrying"
                       << obs::kv("snapshot", lone.entry->descriptor.name)
                       << obs::kv("session", session_id)
                       << obs::kv("attempt", call.attempts)
                       << obs::kv("resume_after_seq", resume_after)
                       << obs::kv("backoff_ticks", backoff)
                       << obs::kv("reason", failure.ToString());
  }
  evict.fn = nullptr;
  tracer_.End();
  metric_refresh_duration_->Observe(
      static_cast<double>(tracer_.duration_us()));

  // A lone member reports the link's send-side meters (drops and
  // duplicates included) in place of its receive-side attribution. Group
  // members keep their attribution, which sums to the burst's message
  // totals; frames and wire bytes are whole-burst figures every member
  // reports.
  const ChannelStats burst = channel->stats() - before;
  for (size_t i = 0; i < demands.size(); ++i) {
    RefreshStats& stats = demands[i].outcome.stats;
    if (demands.size() == 1) {
      stats.traffic = burst;
    } else {
      stats.traffic.frames = burst.frames;
      stats.traffic.wire_bytes = burst.wire_bytes;
    }
    const SnapshotDescriptor& desc = demands[i].entry->descriptor;
    SNAPDIFF_LOG(Info) << "refresh complete"
                       << obs::kv("snapshot", desc.name)
                       << obs::kv("method", RefreshMethodToString(method))
                       << obs::kv("messages", stats.traffic.messages)
                       << obs::kv("wire_bytes", stats.traffic.wire_bytes)
                       << obs::kv("duration_us", tracer_.duration_us());
    RefreshReport& report = reports[i];
    report.attempts = call.attempts;
    report.retries = call.retries;
    report.resumes = call.resumes;
    report.backoff_ticks = call.backoff_ticks;
    report.trace_id = tracer_.name();
    report.stats = std::move(stats);
  }
  return reports;
}

Result<RefreshReport> SnapshotSystem::Refresh(const RefreshRequest& request) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(request.snapshot));
  const SnapshotDescriptor& desc = entry->descriptor;
  // Per-call method override: a snapshot refreshes by its own method or by
  // full re-transmission (always safe; switching between incremental
  // methods would desynchronize their per-method base-site state).
  RefreshMethod method = desc.method;
  if (request.method.has_value() && *request.method != desc.method) {
    if (entry->join != nullptr || *request.method != RefreshMethod::kFull) {
      return Status::InvalidArgument(
          "refresh method override for " + request.snapshot + " must be " +
          std::string(RefreshMethodToString(desc.method)) +
          (entry->join != nullptr ? "" : " or full"));
    }
    method = RefreshMethod::kFull;
  }
  ASSIGN_OR_RETURN(std::vector<RefreshReport> reports,
                   RefreshLocally({entry}, method,
                                  "refresh " + request.snapshot, request));
  return std::move(reports.front());
}

void SnapshotSystem::CountRefreshed(const std::string& snapshot_name,
                                    const SnapshotTable& snap) {
  metric_refreshes_->Inc();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("snapshot." + snapshot_name + ".refreshes")->Inc();
  const int64_t staleness = static_cast<int64_t>(base_oracle_.Current()) -
                            static_cast<int64_t>(snap.snap_time());
  reg.GetGauge("snapshot." + snapshot_name + ".staleness")->Set(staleness);
}

Result<SnapshotSystem::SnapshotWireInfo> SnapshotSystem::DescribeSnapshot(
    const std::string& name) {
  std::lock_guard<std::mutex> guard(serve_mu_);
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(name));
  SnapshotWireInfo info;
  info.id = entry->descriptor.id;
  info.value_schema = entry->table->value_schema();
  info.method = entry->descriptor.method;  // kFull for joins
  return info;
}

void SnapshotSystem::EvictServeSession(uint64_t session_id) {
  auto it = serve_sessions_.find(session_id);
  if (it == serve_sessions_.end()) return;
  auto by_id = snapshots_by_id_.find(it->second.snapshot_id);
  if (by_id != snapshots_by_id_.end()) {
    by_id->second->descriptor.pending_ideal_shadow.reset();
    by_id->second->descriptor.pending_refresh_lsn.reset();
  }
  locks_.ReleaseAll(it->second.txn);
  serve_sessions_.erase(it);
}

void SnapshotSystem::EvictServeSessionsOf(SnapshotId snapshot_id) {
  std::vector<uint64_t> stale;
  for (const auto& [sid, session] : serve_sessions_) {
    if (session.snapshot_id == snapshot_id) stale.push_back(sid);
  }
  for (uint64_t sid : stale) EvictServeSession(sid);
}

Result<SnapshotSystem::ServeOutcome> SnapshotSystem::ServeRefresh(
    const ServeRequest& request, MessageSink* wire) {
  std::vector<SessionDemand> demands(1);
  SessionDemand& remote = demands.front();
  {
    // Registry lookup only; execution is NOT under serve_mu_, so server
    // threads refreshing different tables stream concurrently.
    std::lock_guard<std::mutex> guard(serve_mu_);
    auto by_id = snapshots_by_id_.find(request.snapshot_id);
    if (by_id == snapshots_by_id_.end()) {
      return Status::NotFound("no snapshot with wire id " +
                              std::to_string(request.snapshot_id));
    }
    remote.entry = by_id->second;
  }
  // After the initial copy, ASAP changes stream into the in-process site
  // link only. A demand carrying a SnapTime is past its initial copy (an
  // interrupted copy RESUMEs with none), so it is refused.
  const SnapshotDescriptor& desc = remote.entry->descriptor;
  if (desc.method == RefreshMethod::kAsap &&
      request.client_snap_time != kNullTimestamp) {
    return Status::InvalidArgument(
        "ASAP propagation is in-process only; a remote site receives "
        "the initial full copy and must re-attach for a fresh copy");
  }
  remote.method = desc.method;  // kFull for joins
  remote.wire = wire;
  remote.request = request;
  RETURN_IF_ERROR(ServeSessions(&demands, /*tracer=*/nullptr));
  return std::move(remote.outcome);
}

Status SnapshotSystem::AcknowledgeServe(SnapshotId snapshot_id,
                                        uint64_t session_id) {
  std::lock_guard<std::mutex> guard(serve_mu_);
  auto it = serve_sessions_.find(session_id);
  if (it == serve_sessions_.end() || it->second.snapshot_id != snapshot_id) {
    return Status::NotFound("serve session " + std::to_string(session_id) +
                            " is no longer live");
  }
  auto by_id = snapshots_by_id_.find(snapshot_id);
  if (by_id != snapshots_by_id_.end()) {
    SnapshotDescriptor* desc = &by_id->second->descriptor;
    if (desc->pending_ideal_shadow.has_value()) {
      desc->ideal_shadow = std::move(*desc->pending_ideal_shadow);
      desc->pending_ideal_shadow.reset();
    }
    if (desc->pending_refresh_lsn.has_value()) {
      desc->last_refresh_lsn = *desc->pending_refresh_lsn;
      desc->pending_refresh_lsn.reset();
    }
  }
  locks_.ReleaseAll(it->second.txn);
  serve_sessions_.erase(it);
  return Status::OK();
}

Result<std::map<std::string, RefreshStats>> SnapshotSystem::RefreshGroup(
    const std::vector<std::string>& snapshot_names) {
  if (snapshot_names.empty()) {
    return Status::InvalidArgument("empty refresh group");
  }
  std::vector<SnapshotEntry*> entries;
  entries.reserve(snapshot_names.size());
  for (const std::string& name : snapshot_names) {
    ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(name));
    if (entry->descriptor.method != RefreshMethod::kDifferential) {
      return Status::InvalidArgument(
          "group refresh supports only differential snapshots; " + name +
          " is " +
          std::string(RefreshMethodToString(entry->descriptor.method)));
    }
    if (std::find(entries.begin(), entries.end(), entry) != entries.end()) {
      return Status::InvalidArgument("duplicate group member " + name);
    }
    if (!entries.empty() && entries.front()->source != entry->source) {
      return Status::InvalidArgument(
          "group members must share one base table");
    }
    if (!entries.empty() && entries.front()->site != entry->site) {
      return Status::InvalidArgument(
          "group members must live at one snapshot site (one transmission "
          "burst, one link)");
    }
    entries.push_back(entry);
  }
  // No policy: a group fails fast, and its members re-demand together.
  ASSIGN_OR_RETURN(std::vector<RefreshReport> reports,
                   RefreshLocally(entries, RefreshMethod::kDifferential,
                                  "refresh-group", RefreshRequest{}));
  std::map<std::string, RefreshStats> results;
  for (size_t i = 0; i < entries.size(); ++i) {
    results[entries[i]->descriptor.name] = std::move(reports[i].stats);
  }
  return results;
}

Status SnapshotSystem::FlushAsapBuffers() {
  for (auto& [name, entry] : snapshots_) {
    if (entry.asap != nullptr) {
      RETURN_IF_ERROR(entry.asap->FlushBuffered());
    }
  }
  return DrainChannel();
}

Result<std::map<Address, Tuple>> SnapshotSystem::ExpectedContents(
    const std::string& snapshot_name) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(snapshot_name));
  if (entry->join != nullptr) {
    return ExpectedJoinContents(entry->join.get());
  }
  const SnapshotDescriptor& desc = entry->descriptor;
  BaseTable* base = entry->source;
  std::map<Address, Tuple> out;
  RETURN_IF_ERROR(base->ScanAnnotated(
      [&](Address addr, const BaseTable::AnnotatedView& row) -> Status {
        ASSIGN_OR_RETURN(bool qualified,
                         EvaluatePredicate(*desc.restriction, row.user,
                                           base->user_schema()));
        if (!qualified) return Status::OK();
        ASSIGN_OR_RETURN(Tuple user, row.user.Materialize());
        ASSIGN_OR_RETURN(Tuple projected,
                         user.Project(base->user_schema(), desc.projection));
        out.emplace(addr, std::move(projected));
        return Status::OK();
      }));
  return out;
}

Result<const AsapPropagator::Stats*> SnapshotSystem::AsapStats(
    const std::string& snapshot_name) {
  ASSIGN_OR_RETURN(SnapshotEntry * entry, GetEntry(snapshot_name));
  if (entry->asap == nullptr) {
    return Status::InvalidArgument(snapshot_name + " is not an ASAP snapshot");
  }
  return &entry->asap->stats();
}

std::vector<std::string> SnapshotSystem::SnapshotNames() const {
  std::vector<std::string> names;
  names.reserve(snapshots_.size());
  for (const auto& [name, entry] : snapshots_) names.push_back(name);
  return names;
}

}  // namespace snapdiff
