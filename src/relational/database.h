#ifndef TEXTJOIN_RELATIONAL_DATABASE_H_
#define TEXTJOIN_RELATIONAL_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dynamic/delta_join.h"
#include "dynamic/dynamic_collection.h"
#include "exec/admission.h"
#include "exec/governor.h"
#include "index/inverted_file.h"
#include "planner/planner.h"
#include "relational/text_join_query.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "storage/disk_manager.h"
#include "storage/reliable_disk.h"
#include "text/collection.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace textjoin {

// Convenience facade over the whole stack: one simulated disk, one shared
// vocabulary (the paper's standard term-number mapping), named document
// collections and inverted files, planner-driven joins, and save/open via
// disk snapshots + durable catalogs.
//
//   Database db;
//   db.AddCollectionFromText("resumes", {...lines...});
//   db.AddCollectionFromText("jobs", {...lines...});
//   db.BuildIndex("resumes");
//   auto result = db.Join("resumes", "jobs", spec);
//   db.Save("/tmp/db.tjsn");
//   ...
//   auto db2 = Database::Open("/tmp/db.tjsn");
//   auto again = (*db2)->Join("resumes", "jobs", spec);
//
// Persisted: collections, inverted files, dynamic collections (their
// generations and WAL travel with the disk image), the vocabulary. Tables
// (relational rows) are not persisted. Save() may be called once per
// Database instance (the snapshot format has no file replacement).
// Storage configuration of a Database.
struct DatabaseOptions {
  int64_t page_size = 4096;
  // Route all page I/O through a ReliableDisk decorator: per-page
  // checksums at build time, verified reads, retry with backoff. Turn on
  // for deployments whose device may fail (see storage/reliable_disk.h);
  // recovery counters surface in EXPLAIN ANALYZE.
  bool reliable_storage = false;
  RetryPolicy retry;
  // Query-lifecycle governance: max concurrent queries, bounded wait
  // queue, total memory budget, default deadline (exec/admission.h).
  // All-zero defaults keep admission control off.
  AdmissionOptions admission;
};

class Database {
 public:
  explicit Database(int64_t page_size = 4096)
      : Database(DatabaseOptions{page_size, false, RetryPolicy(),
                                 AdmissionOptions()}) {}
  explicit Database(const DatabaseOptions& options);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  static Result<std::unique_ptr<Database>> Open(const std::string& path);
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                const DatabaseOptions& options);

  Status Save(const std::string& path);

  // The device all collections and indexes of this database live on: the
  // reliable decorator when the database was opened with
  // DatabaseOptions::reliable_storage, else the simulated disk itself.
  Disk* disk() { return active_disk_; }
  // The underlying simulated device (fault injection, snapshots).
  SimulatedDisk* simulated_disk() { return disk_.get(); }
  // The reliability layer, or nullptr when reliable_storage is off.
  ReliableDisk* reliable_disk() { return reliable_.get(); }
  Vocabulary* vocabulary() { return &vocabulary_; }

  // Builds a collection by tokenizing one document per string.
  Result<const DocumentCollection*> AddCollectionFromText(
      const std::string& name, const std::vector<std::string>& documents);

  // Registers an already-built collection under `name`.
  Result<const DocumentCollection*> AddCollection(
      const std::string& name, DocumentCollection collection);

  // Builds (and registers) the inverted file + B+tree on a collection.
  Result<const InvertedFile*> BuildIndex(
      const std::string& collection_name,
      PostingCompression compression = PostingCompression::kNone);

  const DocumentCollection* collection(const std::string& name) const;
  const InvertedFile* index(const std::string& collection_name) const;
  std::vector<std::string> collection_names() const;

  // ---- Dynamic collections (dynamic/dynamic_collection.h) ----
  //
  // A dynamic collection accepts inserts and deletes after creation. Every
  // mutation is WAL-logged before it is applied, so a crash (or a snapshot
  // taken at any moment) loses nothing that was acknowledged; Open replays
  // the tail. Joins over dynamic collections merge the delta at query time
  // and return exactly what a from-scratch rebuild would.

  // Creates a dynamic collection by tokenizing one document per string.
  // The name must not collide with any static or dynamic collection.
  Result<DynamicCollection*> AddDynamicCollectionFromText(
      const std::string& name, const std::vector<std::string>& documents);

  // Appends a new document; returns its stable DocKey. Bumps the
  // collection's epoch (cached joins touching it are dropped).
  Result<DocKey> InsertDocument(const std::string& name,
                                const std::string& text);

  // Deletes a document by key. Bumps the epoch.
  Status DeleteDocument(const std::string& name, DocKey key);

  // Folds the delta into a fresh on-disk generation (atomic swap). Bumps
  // the epoch.
  Status CompactCollection(const std::string& name);

  DynamicCollection* dynamic_collection(const std::string& name);
  const DynamicCollection* dynamic_collection(const std::string& name) const;
  std::vector<std::string> dynamic_names() const;

  // Planner-driven join: for each document of `outer_name`, the
  // spec.lambda most similar documents of `inner_name`. Either side may be
  // static or dynamic; a dynamic side's delta is merged at query time
  // (dynamic/delta_join.h), and `spec` subsets are rejected on a side that
  // has a delta or deletions.
  Result<JoinResult> Join(const std::string& inner_name,
                          const std::string& outer_name, const JoinSpec& spec,
                          PlanChoice* chosen = nullptr);

  // Join with per-phase instrumentation: also returns the QueryStats tree
  // and the rendered EXPLAIN ANALYZE report. Static collections only: a
  // dynamic one is rejected with InvalidArgument.
  Result<AnalyzedJoin> JoinAnalyze(const std::string& inner_name,
                                   const std::string& outer_name,
                                   const JoinSpec& spec,
                                   const ExplainOptions& options = {});

  // Registers a relation for ExecuteSql FROM clauses. The table is not
  // owned and must outlive the database's SQL use.
  Status RegisterTable(const Table* table);

  struct SqlOutput {
    QueryResult result;
    std::vector<std::string> rows;  // formatted per the select list
  };

  // Parses and runs one extended-SQL query against the registered tables
  // (see relational/sql_parser.h for the grammar, including the
  // `EXPLAIN ANALYZE` prefix; the report lands in result.explain).
  // Inverted files registered for the referenced collections are used
  // automatically.
  Result<SqlOutput> ExecuteSql(const std::string& sql);

  // System parameters used by Join (default: B=10000, P=page size,
  // alpha=5).
  void set_system_params(const SystemParams& sys) { sys_ = sys; }
  const SystemParams& system_params() const { return sys_; }

  // The admission controller every Join/JoinAnalyze/SQL query passes
  // through (a pass-through when DatabaseOptions::admission is all-zero).
  AdmissionController* admission() { return &admission_; }

  // The database's result cache over Join/JoinAnalyze and SQL SIMILAR_TO
  // queries (serve/result_cache.h). Disabled (capacity 0) by default;
  // enable with `SET result_cache_entries = N` or set_capacity().
  ResultCache* result_cache() { return &result_cache_; }

  // Content epoch of a registered collection (1 at registration), or -1
  // when unknown. Cache keys include epochs, so a bump makes every cached
  // result over the collection unreachable — and eagerly erased.
  int64_t CollectionEpoch(const std::string& name) const;
  Status BumpCollectionEpoch(const std::string& name);

  // Builds a serving scheduler (serve/scheduler.h) over this database's
  // disk and vocabulary, with every indexed collection and every dynamic
  // collection registered. The scheduler owns its OWN admission
  // controller, buffer pool, cache and epochs (a static collection starts
  // at epoch 1 there, a dynamic one at the collection's current epoch) —
  // a serving tier beside the ad-hoc query path, not a wrapper around it.
  Result<std::unique_ptr<QueryScheduler>> NewScheduler(
      const ServeOptions& options);

  // Session-level lifecycle defaults, settable through SQL:
  //   SET deadline_ms = 250
  //   SET memory_budget_pages = 500
  // 0 clears the knob (falls back to DatabaseOptions::admission defaults).
  double session_deadline_ms() const { return session_deadline_ms_; }
  int64_t session_memory_budget_pages() const {
    return session_memory_budget_pages_;
  }

 private:
  // One query's admission ticket + governor, released by EndGoverned.
  struct GovernedRun {
    bool admission_active = false;
    AdmissionGrant grant;
    std::unique_ptr<QueryGovernor> governor;
  };

  // Admission (predicted cost -> admit/queue/shed) and governor creation
  // for one join about to run on `ctx`.
  Result<GovernedRun> BeginGoverned(const JoinContext& ctx,
                                    const JoinSpec& spec);
  void EndGoverned(GovernedRun* run);

  // Handles a `SET <knob> = <value>` statement; returns true when `sql`
  // was one.
  Result<bool> TryExecuteSet(const std::string& sql, SqlOutput* out);
  // The collection view (dynamic/delta_join.h) of a static or dynamic
  // collection; a static one is the view with no delta and no deletes.
  Result<DynamicJoinSide> View(const std::string& name) const;
  // The one governed join path behind Join and JoinAnalyze: views, cache
  // lookup, similarity, admission and governor, plan and execute, cache
  // insert. With `explain` set the run is metered and the report rendered.
  Result<AnalyzedJoin> RunJoin(const std::string& inner_name,
                               const std::string& outer_name,
                               const JoinSpec& spec,
                               const ExplainOptions* explain);
  // Replaces the device (snapshot reopen), rebuilding the reliable layer.
  void InstallDisk(std::unique_ptr<SimulatedDisk> disk);

  DatabaseOptions options_;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<ReliableDisk> reliable_;  // non-null iff reliable_storage
  Disk* active_disk_ = nullptr;
  Vocabulary vocabulary_;
  Tokenizer tokenizer_;
  SystemParams sys_;
  AdmissionController admission_;
  ResultCache result_cache_{0};  // disabled until SET result_cache_entries
  std::unordered_map<std::string, int64_t> epochs_;
  double session_deadline_ms_ = 0;
  int64_t session_memory_budget_pages_ = 0;
  // node-stable maps: executors hold pointers into these.
  std::unordered_map<std::string, std::unique_ptr<DocumentCollection>>
      collections_;
  std::unordered_map<std::string, std::unique_ptr<InvertedFile>> indexes_;
  std::unordered_map<std::string, std::unique_ptr<DynamicCollection>>
      dynamic_;
  std::vector<const Table*> tables_;  // not owned
  bool saved_ = false;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_DATABASE_H_
