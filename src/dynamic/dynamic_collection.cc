#include "dynamic/dynamic_collection.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "catalog/catalog.h"
#include "common/logging.h"
#include "dynamic/compaction.h"
#include "dynamic/internal_format.h"
#include "storage/coding.h"

namespace textjoin {

namespace di = dynamic_internal;

int64_t DynamicCollection::num_live_documents() const {
  return base_->num_documents() - base_dead_ +
         static_cast<int64_t>(delta_.size()) - delta_dead_;
}

std::vector<const DynamicCollection::DeltaDoc*> DynamicCollection::AliveDelta()
    const {
  std::vector<const DeltaDoc*> out;
  out.reserve(delta_.size());
  for (const DeltaEntry& e : delta_) {
    if (e.alive) out.push_back(&e);
  }
  return out;
}

void DynamicCollection::DeleteBase(DocId id, const Document& doc) {
  if (df_minus_.use_count() > 1) {
    df_minus_ = std::make_shared<DfMap>(*df_minus_);
  }
  for (const DCell& c : doc.cells()) ++(*df_minus_)[c.term];
  alive_[id] = 0;
  ++base_dead_;
}

DocKey DynamicCollection::KeyOfMerged(DocId merged) const {
  const int64_t base_n = base_->num_documents();
  if (static_cast<int64_t>(merged) < base_n) {
    TEXTJOIN_CHECK(alive_[merged] != 0);
    return base_keys_[merged];
  }
  int64_t j = static_cast<int64_t>(merged) - base_n;
  for (const DeltaEntry& e : delta_) {
    if (!e.alive) continue;
    if (j == 0) return e.key;
    --j;
  }
  TEXTJOIN_CHECK(false);
  return 0;
}

std::vector<DocKey> DynamicCollection::LiveKeys() const {
  std::vector<DocKey> keys;
  keys.reserve(static_cast<size_t>(num_live_documents()));
  for (int64_t d = 0; d < base_->num_documents(); ++d) {
    if (alive_[d]) keys.push_back(base_keys_[d]);
  }
  for (const DeltaEntry& e : delta_) {
    if (e.alive) keys.push_back(e.key);
  }
  return keys;
}

Status DynamicCollection::CommitManifest(int64_t generation, int64_t epoch,
                                         DocKey next_key) {
  di::ManifestSlot slot;
  slot.commit = manifest_commits_ + 1;
  slot.generation = generation;
  slot.epoch = epoch;
  slot.next_key = next_key;
  const std::vector<uint8_t> bytes = di::EncodeSlot(slot);
  TEXTJOIN_RETURN_IF_ERROR(disk_->WritePage(
      manifest_file_, static_cast<PageNumber>(slot.commit % 2), bytes.data(),
      static_cast<int64_t>(bytes.size())));
  manifest_commits_ = slot.commit;
  return Status::OK();
}

Result<std::unique_ptr<DynamicCollection>> DynamicCollection::Create(
    Disk* disk, const std::string& name,
    const std::vector<Document>& initial_docs) {
  if (disk->page_size() < di::kManifestSlotBytes) {
    return Status::InvalidArgument("page size too small for manifest slot");
  }
  if (disk->FindFile(di::ManifestName(name)).ok()) {
    return Status::AlreadyExists("dynamic collection '" + name +
                                 "' already exists");
  }
  auto dc = std::unique_ptr<DynamicCollection>(new DynamicCollection());
  dc->disk_ = disk;
  dc->name_ = name;
  dc->manifest_file_ = disk->CreateFile(di::ManifestName(name));
  for (int i = 0; i < 2; ++i) {
    TEXTJOIN_RETURN_IF_ERROR(
        disk->AppendPage(dc->manifest_file_, nullptr, 0).status());
  }

  const di::GenerationFiles files = di::FilesOf(name, 1);
  CollectionBuilder builder(disk, files.data);
  std::vector<DocKey> keys;
  keys.reserve(initial_docs.size());
  for (const Document& doc : initial_docs) {
    TEXTJOIN_RETURN_IF_ERROR(builder.AddDocument(doc).status());
    keys.push_back(static_cast<DocKey>(keys.size()) + 1);
  }
  TEXTJOIN_ASSIGN_OR_RETURN(DocumentCollection col, builder.Finish());
  TEXTJOIN_ASSIGN_OR_RETURN(InvertedFile inv,
                            InvertedFile::Build(disk, files.inv, col));
  TEXTJOIN_RETURN_IF_ERROR(SaveCollectionCatalog(col, files.col));
  TEXTJOIN_RETURN_IF_ERROR(SaveInvertedFileCatalog(inv, files.idx));
  TEXTJOIN_RETURN_IF_ERROR(di::WriteKeysFile(disk, files.keys, keys));
  TEXTJOIN_ASSIGN_OR_RETURN(WalWriter wal,
                            WalWriter::Create(disk, files.wal));
  const DocKey next_key = static_cast<DocKey>(initial_docs.size()) + 1;
  TEXTJOIN_RETURN_IF_ERROR(dc->CommitManifest(1, 1, next_key));

  dc->generation_ = 1;
  dc->epoch_ = 1;
  dc->next_key_ = next_key;
  dc->base_ = std::make_shared<const DocumentCollection>(std::move(col));
  dc->index_ = std::make_shared<const InvertedFile>(std::move(inv));
  dc->base_keys_ = std::move(keys);
  for (size_t i = 0; i < dc->base_keys_.size(); ++i) {
    dc->base_by_key_[dc->base_keys_[i]] = static_cast<DocId>(i);
  }
  dc->alive_.assign(dc->base_keys_.size(), 1);
  dc->wal_ = std::make_unique<WalWriter>(std::move(wal));
  dc->last_recovery_ = RecoveryReport{0, 0, dc->epoch_};
  return dc;
}

Status DynamicCollection::LoadGeneration(int64_t gen) {
  const di::GenerationFiles files = di::FilesOf(name_, gen);
  TEXTJOIN_ASSIGN_OR_RETURN(DocumentCollection col,
                            OpenCollection(disk_, files.col));
  TEXTJOIN_ASSIGN_OR_RETURN(InvertedFile inv,
                            OpenInvertedFile(disk_, files.idx));
  TEXTJOIN_ASSIGN_OR_RETURN(std::vector<DocKey> keys,
                            di::ReadKeysFile(disk_, files.keys));
  if (static_cast<int64_t>(keys.size()) != col.num_documents()) {
    return Status::DataLoss("key sidecar of '" + name_ +
                            "' disagrees with the collection");
  }
  base_ = std::make_shared<const DocumentCollection>(std::move(col));
  index_ = std::make_shared<const InvertedFile>(std::move(inv));
  base_keys_ = std::move(keys);
  base_by_key_.clear();
  for (size_t i = 0; i < base_keys_.size(); ++i) {
    base_by_key_[base_keys_[i]] = static_cast<DocId>(i);
  }
  alive_.assign(base_keys_.size(), 1);
  base_dead_ = 0;
  delta_.clear();
  delta_dead_ = 0;
  df_minus_ = std::make_shared<DfMap>();
  generation_ = gen;
  return Status::OK();
}

Status DynamicCollection::Apply(WalRecordType type,
                                const std::vector<uint8_t>& payload) {
  if (type == WalRecordType::kInsert) {
    if (payload.size() < 12) {
      return Status::DataLoss("short WAL insert record");
    }
    const DocKey key = GetFixed64(payload.data());
    const uint32_t count = GetFixed32(payload.data() + 8);
    if (payload.size() != 12 + static_cast<size_t>(count) * 6) {
      return Status::DataLoss("WAL insert record length mismatch");
    }
    std::vector<DCell> cells;
    cells.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      const uint8_t* p = payload.data() + 12 + i * 6;
      cells.push_back(DCell{GetFixed32(p), GetFixed16(p + 4)});
    }
    delta_.push_back(
        DeltaEntry{{key, Document::FromSortedCells(std::move(cells))}, true});
    next_key_ = std::max(next_key_, key + 1);
    ++epoch_;
    return Status::OK();
  }
  if (type == WalRecordType::kDelete) {
    if (payload.size() != 8) {
      return Status::DataLoss("WAL delete record length mismatch");
    }
    const DocKey key = GetFixed64(payload.data());
    for (DeltaEntry& e : delta_) {
      if (e.key == key && e.alive) {
        e.alive = false;
        ++delta_dead_;
        ++epoch_;
        return Status::OK();
      }
    }
    auto it = base_by_key_.find(key);
    if (it == base_by_key_.end() || !alive_[it->second]) {
      return Status::DataLoss("WAL delete references unknown document key " +
                              std::to_string(key));
    }
    TEXTJOIN_ASSIGN_OR_RETURN(Document doc,
                              base_->ReadDocument(it->second));
    DeleteBase(it->second, doc);
    ++epoch_;
    return Status::OK();
  }
  return Status::DataLoss("WAL record with unknown type");
}

Result<std::unique_ptr<DynamicCollection>> DynamicCollection::Open(
    Disk* disk, const std::string& name) {
  auto dc = std::unique_ptr<DynamicCollection>(new DynamicCollection());
  dc->disk_ = disk;
  dc->name_ = name;
  TEXTJOIN_ASSIGN_OR_RETURN(dc->manifest_file_,
                            disk->FindFile(di::ManifestName(name)));
  std::vector<uint8_t> page(static_cast<size_t>(disk->page_size()));
  di::ManifestSlot best;
  bool any_valid = false;
  bool any_nonzero = false;
  for (PageNumber p = 0; p < 2; ++p) {
    TEXTJOIN_RETURN_IF_ERROR(disk->ReadPage(dc->manifest_file_, p,
                                            page.data()));
    for (uint8_t b : page) any_nonzero |= (b != 0);
    di::ManifestSlot slot;
    if (di::DecodeSlot(page.data(), &slot)) {
      if (!any_valid || slot.commit > best.commit) best = slot;
      any_valid = true;
    }
  }
  if (!any_valid) {
    if (any_nonzero) {
      return Status::DataLoss("both manifest slots of '" + name +
                              "' are corrupt");
    }
    return Status::NotFound("dynamic collection '" + name +
                            "' was never committed");
  }
  dc->manifest_commits_ = best.commit;
  dc->epoch_ = best.epoch;
  dc->next_key_ = best.next_key;
  TEXTJOIN_RETURN_IF_ERROR(dc->LoadGeneration(best.generation));

  const di::GenerationFiles files = di::FilesOf(name, best.generation);
  TEXTJOIN_ASSIGN_OR_RETURN(FileId wal_file, disk->FindFile(files.wal));
  TEXTJOIN_ASSIGN_OR_RETURN(WalRecovery recovery,
                            RecoverWal(disk, wal_file));
  for (const WalRecord& rec : recovery.records) {
    TEXTJOIN_RETURN_IF_ERROR(dc->Apply(rec.type, rec.payload));
  }
  TEXTJOIN_ASSIGN_OR_RETURN(WalWriter wal,
                            WalWriter::Open(disk, wal_file, recovery));
  dc->wal_ = std::make_unique<WalWriter>(std::move(wal));
  dc->last_recovery_ =
      RecoveryReport{static_cast<int64_t>(recovery.records.size()),
                     recovery.tail_bytes_discarded, dc->epoch_};
  return dc;
}

Result<DocKey> DynamicCollection::Insert(const Document& doc) {
  const DocKey key = next_key_;
  std::vector<uint8_t> payload = di::EncodeInsertPayload(key, doc);
  TEXTJOIN_RETURN_IF_ERROR(wal_->Append(WalRecordType::kInsert, payload));
  delta_.push_back(DeltaEntry{{key, doc}, true});
  next_key_ = key + 1;
  ++epoch_;
  if (active_job_ != nullptr) {
    active_job_->Capture(WalRecordType::kInsert, std::move(payload));
  }
  return key;
}

Status DynamicCollection::Delete(DocKey key) {
  // Resolve the target (and pre-read a base document for its term list)
  // BEFORE the WAL write, so a logged delete always applies cleanly.
  DeltaEntry* delta_target = nullptr;
  for (DeltaEntry& e : delta_) {
    if (e.key == key && e.alive) {
      delta_target = &e;
      break;
    }
  }
  DocId base_id = 0;
  Document base_doc;
  if (delta_target == nullptr) {
    auto it = base_by_key_.find(key);
    if (it == base_by_key_.end() || !alive_[it->second]) {
      return Status::NotFound("no live document with key " +
                              std::to_string(key));
    }
    base_id = it->second;
    TEXTJOIN_ASSIGN_OR_RETURN(base_doc, base_->ReadDocument(base_id));
  }
  std::vector<uint8_t> payload = di::EncodeDeletePayload(key);
  TEXTJOIN_RETURN_IF_ERROR(wal_->Append(WalRecordType::kDelete, payload));
  if (delta_target != nullptr) {
    delta_target->alive = false;
    ++delta_dead_;
  } else {
    DeleteBase(base_id, base_doc);
  }
  ++epoch_;
  if (active_job_ != nullptr) {
    active_job_->Capture(WalRecordType::kDelete, std::move(payload));
  }
  return Status::OK();
}

Status DynamicCollection::InstallGeneration(
    int64_t gen, int64_t epoch, DocumentCollection col, InvertedFile inv,
    std::vector<DocKey> keys, WalWriter wal,
    const std::vector<std::pair<WalRecordType, std::vector<uint8_t>>>&
        carried) {
  base_ = std::make_shared<const DocumentCollection>(std::move(col));
  index_ = std::make_shared<const InvertedFile>(std::move(inv));
  base_keys_ = std::move(keys);
  base_by_key_.clear();
  for (size_t i = 0; i < base_keys_.size(); ++i) {
    base_by_key_[base_keys_[i]] = static_cast<DocId>(i);
  }
  alive_.assign(base_keys_.size(), 1);
  base_dead_ = 0;
  delta_.clear();
  delta_dead_ = 0;
  df_minus_ = std::make_shared<DfMap>();
  wal_ = std::make_unique<WalWriter>(std::move(wal));
  generation_ = gen;
  epoch_ = epoch;
  // Re-apply the carried records (already durable in the new WAL): each
  // bumps the epoch once, landing at `epoch + carried.size()` — strictly
  // above every epoch the pre-commit state ever served.
  for (const auto& [type, payload] : carried) {
    TEXTJOIN_RETURN_IF_ERROR(Apply(type, payload));
  }
  return Status::OK();
}

Status DynamicCollection::Compact() {
  // The synchronous path is the sliced path with an unbounded slice:
  // exactly the write sequence CompactionJob performs, driven to
  // completion here (crash/recovery tests sweep this shared sequence).
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<CompactionJob> job,
      CompactionJob::Begin(this, std::numeric_limits<int64_t>::max() / 2));
  for (;;) {
    TEXTJOIN_ASSIGN_OR_RETURN(bool done, job->Step(nullptr));
    if (done) return Status::OK();
  }
}

}  // namespace textjoin
