#ifndef TEXTJOIN_DYNAMIC_DYNAMIC_COLLECTION_H_
#define TEXTJOIN_DYNAMIC_DYNAMIC_COLLECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/inverted_file.h"
#include "storage/disk.h"
#include "storage/wal.h"
#include "text/collection.h"
#include "text/document.h"
#include "text/types.h"

namespace textjoin {

class CompactionJob;

// Stable identity of a document in a dynamic collection: an insertion
// counter that survives compaction (which renumbers the dense DocIds).
using DocKey = uint64_t;

// What replay found when a dynamic collection was (re)opened.
struct RecoveryReport {
  int64_t records_replayed = 0;
  int64_t tail_bytes_discarded = 0;
  int64_t epoch = 0;  // epoch after replay
};

// A document collection that accepts inserts and deletes, built from the
// static machinery (DESIGN.md §11):
//
//   * A durable BASE: a DocumentCollection + InvertedFile + catalogs +
//     key sidecar, all under a generation-suffixed name
//     ("<name>.g<G>", "<name>.g<G>.col", ".inv", ".idx", ".keys", ".wal").
//   * A checksummed WAL recording every mutation since the base was built.
//   * An in-memory DELTA: inserted documents not yet compacted, plus a
//     liveness mask over base documents.
//   * A two-slot ping-pong MANIFEST ("<name>.dyn.manifest"): one page
//     write atomically commits {generation, epoch, next_key}. Compaction
//     builds the ENTIRE next generation (collection, index, catalogs,
//     keys, fresh WAL) before that single commit, so a crash at any stage
//     leaves the old generation fully intact (orphan files of the unborn
//     generation are unreferenced and generation numbers never repeat, so
//     they can never be resolved by mistake — FindFile returns the first
//     match and the manifest names exactly one generation).
//
// Reopening replays the WAL over the manifest's generation; the epoch
// (manifest epoch + one per replayed record, + one per live mutation) is
// what invalidates ResultCache entries and refreshes planner statistics.
class DynamicCollection {
 public:
  // Creates generation 1 from `initial_docs` (keys 1..N in order) and
  // commits it.
  static Result<std::unique_ptr<DynamicCollection>> Create(
      Disk* disk, const std::string& name,
      const std::vector<Document>& initial_docs);

  // Reopens from the manifest, replaying the WAL. Corruption (flipped
  // bytes mid-log, seq gaps, bad manifest slots) surfaces as kDataLoss;
  // a torn WAL tail is discarded and reported, never an error.
  static Result<std::unique_ptr<DynamicCollection>> Open(
      Disk* disk, const std::string& name);

  DynamicCollection(const DynamicCollection&) = delete;
  DynamicCollection& operator=(const DynamicCollection&) = delete;

  // WAL-first mutations: the record is durable before the in-memory state
  // changes, so a failed write leaves the collection exactly as it was.
  Result<DocKey> Insert(const Document& doc);
  Status Delete(DocKey key);

  // Folds the delta and the deletes into a new base generation behind one
  // atomic manifest commit. On failure the old state stays live.
  // Implemented as a CompactionJob (compaction.h) driven to completion in
  // one call; schedulers that must keep serving queries run the job a
  // slice at a time instead.
  Status Compact();

  const std::string& name() const { return name_; }
  int64_t epoch() const { return epoch_; }
  int64_t generation() const { return generation_; }
  const RecoveryReport& last_recovery() const { return last_recovery_; }
  int64_t wal_bytes() const { return wal_->committed_bytes(); }

  // -- Query-time view (used by join/delta merging) ---------------------

  const DocumentCollection& base() const { return *base_; }
  const InvertedFile& base_index() const { return *index_; }

  // Owning handles to the current base generation. A serving scheduler
  // pins these in per-query snapshots so a background compaction can swap
  // the live generation without yanking it out from under in-flight
  // queries — the old generation's files stay on disk and its in-memory
  // catalogs stay alive until the last pinned query finishes.
  std::shared_ptr<const DocumentCollection> base_shared() const {
    return base_;
  }
  std::shared_ptr<const InvertedFile> index_shared() const { return index_; }

  // alive[id] != 0 <=> base document `id` has not been deleted.
  const std::vector<char>& base_alive() const { return alive_; }
  int64_t num_live_documents() const;

  struct DeltaDoc {
    DocKey key = 0;
    Document doc;
  };
  // Alive delta documents in insertion order. The j-th entry's merged doc
  // id is base().num_documents() + j; merged ids are order-isomorphic to
  // the dense ids a from-scratch rebuild would assign, so top-k ties
  // break identically.
  std::vector<const DeltaDoc*> AliveDelta() const;

  // Document frequencies of the deleted base documents: live df is the
  // base catalog's minus this map plus the alive delta's terms. A frozen
  // view (dynamic/delta_join.h) pins the map; a delete copies it before
  // changing it whenever a view shares it, and compaction starts a new one,
  // so a pinned map keeps the counts of the epoch it was pinned at.
  using DfMap = std::unordered_map<TermId, int64_t>;
  std::shared_ptr<const DfMap> deleted_df() const { return df_minus_; }

  // Stable key of a merged doc id (which must be live).
  DocKey KeyOfMerged(DocId merged) const;

  // Keys of all live documents in merged-id order.
  std::vector<DocKey> LiveKeys() const;

 private:
  friend class CompactionJob;

  DynamicCollection() = default;

  // Loads generation `gen`'s base files and key sidecar.
  Status LoadGeneration(int64_t gen);

  // Applies a WAL record to the in-memory state (no WAL write). Shared by
  // replay and live mutations.
  Status Apply(WalRecordType type, const std::vector<uint8_t>& payload);

  // Marks base document `id` deleted and counts its terms into df_minus_,
  // copying the map first when a view shares it.
  void DeleteBase(DocId id, const Document& doc);

  Status CommitManifest(int64_t generation, int64_t epoch, DocKey next_key);

  // Swaps in a freshly committed generation (called by CompactionJob right
  // after its manifest commit) and re-applies the carried records — the
  // mutations that landed while the job ran, already appended to the new
  // generation's WAL before the commit.
  Status InstallGeneration(
      int64_t gen, int64_t epoch, DocumentCollection col, InvertedFile inv,
      std::vector<DocKey> keys, WalWriter wal,
      const std::vector<std::pair<WalRecordType, std::vector<uint8_t>>>&
          carried);

  Disk* disk_ = nullptr;
  std::string name_;
  FileId manifest_file_ = kInvalidFileId;
  uint64_t manifest_commits_ = 0;  // ping-pong slot = commits % 2

  int64_t generation_ = 0;
  int64_t epoch_ = 0;
  DocKey next_key_ = 1;
  RecoveryReport last_recovery_;

  // shared_ptr (not unique_ptr) so query snapshots can pin a generation
  // across the compaction swap; the collection itself always points at the
  // latest.
  std::shared_ptr<const DocumentCollection> base_;
  std::shared_ptr<const InvertedFile> index_;
  std::vector<DocKey> base_keys_;  // key of each base DocId
  std::unordered_map<DocKey, DocId> base_by_key_;
  std::vector<char> alive_;  // over base DocIds
  int64_t base_dead_ = 0;

  struct DeltaEntry : DeltaDoc {
    bool alive = true;
  };
  std::vector<DeltaEntry> delta_;  // insertion order
  int64_t delta_dead_ = 0;
  // df of the deleted base documents (see deleted_df()); never changed
  // while a view shares it.
  std::shared_ptr<DfMap> df_minus_ = std::make_shared<DfMap>();

  std::unique_ptr<WalWriter> wal_;

  // The one in-flight background compaction, if any. Insert/Delete hand it
  // a copy of every WAL record they append (carried records), so the job
  // can fold a begin-time snapshot and still commit a generation whose WAL
  // replays to the current state. Detached by the job on commit/abort.
  CompactionJob* active_job_ = nullptr;
};

}  // namespace textjoin

#endif  // TEXTJOIN_DYNAMIC_DYNAMIC_COLLECTION_H_
