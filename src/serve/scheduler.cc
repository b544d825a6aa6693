#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "dynamic/compaction.h"
#include "dynamic/delta_join.h"
#include "join/executor.h"
#include "storage/disk.h"

namespace textjoin {

namespace {

// Simulated cost of applying one insert/delete (WAL append + delta
// update). Writes run on the same single-core timeline as queries, so each
// one delays every in-flight query by this much.
constexpr double kMsPerWrite = 0.05;

// The accumulator holds one double per inner document; its footprint in
// pages is what the governor's memory budget caps (forcing multi-partition
// degraded execution, exactly like HVNL under a shrunken budget).
int64_t AccumulatorPages(int64_t num_documents, int64_t page_size) {
  int64_t bytes = num_documents * static_cast<int64_t>(sizeof(double));
  return std::max<int64_t>(1, (bytes + page_size - 1) / page_size);
}

}  // namespace

// An immutable view of one collection at one epoch. Queries pin the
// snapshot current when they are admitted and execute every step against
// it; writes swap the Served's snapshot pointer for a new one, never
// mutating an existing snapshot (the similarity is built lazily but
// depends only on the snapshot's own view). A dynamic collection's view is
// frozen (dynamic/delta_join.h): it pins a compacted-away generation until
// the last query holding the snapshot finishes.
struct QueryScheduler::Snapshot {
  int64_t epoch = 1;
  DynamicJoinSide view;

  // Scoring context per SimilarityConfig combination, built on first use
  // (catalog setup, like SimilarityContext before a join).
  std::optional<SimilarityContext> sim[4];

  Result<const SimilarityContext*> Similarity(const SimilarityConfig& config) {
    std::optional<SimilarityContext>& slot =
        sim[(config.cosine_normalize ? 2 : 0) + (config.use_idf ? 1 : 0)];
    if (!slot.has_value()) {
      TEXTJOIN_ASSIGN_OR_RETURN(slot, ViewSimilarity(view, nullptr, config));
    }
    return &*slot;
  }
};

struct QueryScheduler::Served {
  std::string name;
  // Non-null for dynamic collections. After a wound the pointer may
  // dangle (the owner reopened the collection); it is never dereferenced
  // until ReattachDynamic replaces it.
  DynamicCollection* dc = nullptr;
  bool wounded = false;
  std::shared_ptr<Snapshot> snapshot;
};

struct QueryScheduler::Task {
  int64_t id = 0;
  ServeQuery query;
  Served* served = nullptr;
  std::shared_ptr<Snapshot> snap;  // pinned at admission
  const SimilarityContext* sim = nullptr;
  Document doc;  // normalized query vector, terms ascending
  double query_norm = 1;
  double predicted_cost_pages = 0;
  int64_t pages_needed = 1;  // accumulator footprint = memory claim

  int64_t ticket = -1;
  std::unique_ptr<QueryGovernor> governor;
  std::string key;
  bool hit = false;
  std::vector<Match> hit_matches;

  TopKAccumulator topk{0};
  std::vector<double> acc;
  int64_t partitions = 1;
  int64_t part = 0;
  int64_t docs_per_part = 0;
  DocId part_lo = 0;
  DocId part_hi = 0;
  size_t term_idx = 0;
  bool delta_pending = false;  // base partitions done; delta docs next

  int64_t attempt = 0;  // failed admission tries so far
  double retry_at_ms = 0;

  bool done = false;
  bool finished = false;  // record fully written
  QueryRecord record;

  double Finalize(double accumulated, DocId doc) const {
    if (!query.similarity.cosine_normalize) return accumulated;
    double denom = sim->inner_norms.of(doc) * query_norm;
    return denom > 0 ? accumulated / denom : 0.0;
  }
};

struct QueryScheduler::PendingWrite {
  int64_t id = 0;
  ServeWrite write;
  Served* served = nullptr;
  Document doc;  // tokenized insert payload
  bool finished = false;
  WriteRecord record;
};

struct QueryScheduler::Compaction {
  PendingWrite* write = nullptr;
  Served* served = nullptr;
  std::unique_ptr<CompactionJob> job;
  std::unique_ptr<QueryGovernor> governor;
};

QueryScheduler::QueryScheduler(Disk* disk, Vocabulary* vocabulary,
                               ServeOptions options)
    : disk_(disk),
      vocabulary_(vocabulary),
      options_(std::move(options)),
      pool_(std::make_unique<BufferPool>(
          disk, std::max<int64_t>(1, options_.buffer_pool_pages))),
      admission_(options_.admission),
      cache_(options_.result_cache_entries),
      registrar_(options_.shared_scans),
      retry_(options_.retry) {
  if (!options_.tenants.empty()) {
    Status st = pool_->Partition(options_.tenants);
    TEXTJOIN_CHECK(st.ok());
  }
}

QueryScheduler::~QueryScheduler() = default;

Status QueryScheduler::AddCollection(const std::string& name,
                                     const DocumentCollection* collection,
                                     const InvertedFile* index) {
  if (name.empty() || collection == nullptr || index == nullptr) {
    return Status::InvalidArgument(
        "serving needs a named collection and its inverted file");
  }
  if (collections_.count(name) != 0) {
    return Status::AlreadyExists("collection '" + name +
                                 "' is already registered for serving");
  }
  auto served = std::make_unique<Served>();
  served->name = name;
  // Borrowed: static collections are owned by the caller for the
  // scheduler's whole lifetime.
  served->snapshot = std::make_shared<Snapshot>();
  served->snapshot->view = MakeJoinSide(*collection, index);
  collections_[name] = std::move(served);
  return Status::OK();
}

Status QueryScheduler::AddDynamicCollection(const std::string& name,
                                            DynamicCollection* dc) {
  if (name.empty() || dc == nullptr) {
    return Status::InvalidArgument(
        "serving needs a named dynamic collection");
  }
  if (collections_.count(name) != 0) {
    return Status::AlreadyExists("collection '" + name +
                                 "' is already registered for serving");
  }
  auto served = std::make_unique<Served>();
  served->name = name;
  served->dc = dc;
  RefreshSnapshot(served.get());
  collections_[name] = std::move(served);
  return Status::OK();
}

Status QueryScheduler::ReattachDynamic(const std::string& name,
                                       DynamicCollection* dc) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name +
                            "' is not registered for serving");
  }
  if (it->second->dc == nullptr) {
    return Status::InvalidArgument("collection '" + name +
                                   "' is not dynamic");
  }
  if (dc == nullptr) {
    return Status::InvalidArgument("reattach needs a dynamic collection");
  }
  it->second->dc = dc;
  it->second->wounded = false;
  RefreshSnapshot(it->second.get());
  cache_.EraseCollection(name);
  return Status::OK();
}

void QueryScheduler::RefreshSnapshot(Served* served) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = served->dc->epoch();
  snap->view = FrozenJoinSide(*served->dc);
  served->snapshot = std::move(snap);
}

void QueryScheduler::InvalidateOnWrite(const std::string& name) {
  cache_.EraseCollection(name);
  // Scans registered earlier this round belong to the pre-write epoch.
  registrar_.InvalidateRound();
}

Status QueryScheduler::BumpEpoch(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + name +
                            "' is not registered for serving");
  }
  Served* served = it->second.get();
  if (served->dc != nullptr && !served->wounded) {
    RefreshSnapshot(served);
  } else if (served->dc == nullptr) {
    auto snap = std::make_shared<Snapshot>();
    snap->epoch = served->snapshot->epoch + 1;
    snap->view = served->snapshot->view;
    served->snapshot = std::move(snap);
  }
  cache_.EraseCollection(name);
  return Status::OK();
}

int64_t QueryScheduler::epoch(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? -1 : it->second->snapshot->epoch;
}

bool QueryScheduler::wounded(const std::string& name) const {
  auto it = collections_.find(name);
  return it != collections_.end() && it->second->wounded;
}

Result<int64_t> QueryScheduler::Submit(const ServeQuery& query) {
  auto it = collections_.find(query.collection);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + query.collection +
                            "' is not registered for serving");
  }
  if (query.lambda <= 0) {
    return Status::InvalidArgument("lambda must be positive");
  }
  if (!std::isfinite(query.arrival_ms)) {
    // A NaN or infinite arrival never becomes due, so Run() could not
    // finish the query.
    return Status::InvalidArgument("arrival_ms must be finite");
  }
  if (pool_->partitioned() && pool_->tenant_quota(query.tenant) < 0) {
    return Status::InvalidArgument("unknown tenant '" + query.tenant +
                                   "' in partitioned serving pool");
  }
  auto task = std::make_unique<Task>();
  task->id = next_id_++;
  task->query = query;
  task->served = it->second.get();

  TEXTJOIN_ASSIGN_OR_RETURN(
      task->doc, query.cells.empty()
                     ? tokenizer_.MakeDocument(query.text, vocabulary_)
                     : Document::FromUnsorted(query.cells));

  // Admission estimates against the snapshot current at submission; the
  // authoritative figures are re-derived from the ADMISSION snapshot in
  // ActivateTask (writes may land in between).
  const DynamicJoinSide& view = task->served->snapshot->view;
  task->pages_needed =
      AccumulatorPages(view.base->num_documents(), disk_->page_size());
  task->predicted_cost_pages = static_cast<double>(task->pages_needed);
  for (const DCell& c : task->doc.cells()) {
    int64_t entry = view.index->FindEntry(c.term);
    if (entry >= 0) {
      task->predicted_cost_pages +=
          static_cast<double>(view.index->EntryPageSpan(entry));
    }
  }

  task->record.id = task->id;
  task->record.tenant = query.tenant;
  task->record.arrival_ms = query.arrival_ms;
  int64_t id = task->id;
  tasks_.push_back(std::move(task));
  return id;
}

Result<int64_t> QueryScheduler::SubmitWrite(const ServeWrite& write) {
  auto it = collections_.find(write.collection);
  if (it == collections_.end()) {
    return Status::NotFound("collection '" + write.collection +
                            "' is not registered for serving");
  }
  if (it->second->dc == nullptr) {
    return Status::InvalidArgument(
        "collection '" + write.collection +
        "' is static; writes need a dynamic collection");
  }
  if (!std::isfinite(write.arrival_ms)) {
    return Status::InvalidArgument("arrival_ms must be finite");
  }
  auto w = std::make_unique<PendingWrite>();
  w->id = next_write_id_++;
  w->write = write;
  w->served = it->second.get();
  if (write.kind == ServeWrite::Kind::kInsert) {
    if (!write.cells.empty()) {
      auto doc = Document::FromUnsorted(write.cells);
      TEXTJOIN_RETURN_IF_ERROR(doc.status());
      w->doc = std::move(doc).value();
    } else {
      auto doc = tokenizer_.MakeDocument(write.text, vocabulary_);
      TEXTJOIN_RETURN_IF_ERROR(doc.status());
      w->doc = std::move(doc).value();
    }
  } else if (write.kind == ServeWrite::Kind::kDelete && write.key == 0) {
    return Status::InvalidArgument("delete needs a document key");
  }
  w->record.id = w->id;
  w->record.collection = write.collection;
  w->record.kind = write.kind == ServeWrite::Kind::kInsert   ? "insert"
                   : write.kind == ServeWrite::Kind::kDelete ? "delete"
                                                             : "compact";
  w->record.key = write.key;
  w->record.arrival_ms = write.arrival_ms;
  int64_t id = w->id;
  writes_.push_back(std::move(w));
  return id;
}

std::vector<WriteRecord> QueryScheduler::TakeWriteRecords() {
  std::vector<WriteRecord> out = std::move(write_records_);
  write_records_.clear();
  return out;
}

void QueryScheduler::Advance(double ms) {
  if (ms <= 0) return;
  now_ms_ += ms;
  admission_.AdvanceTimeMs(ms);
}

void QueryScheduler::ApplyWriteOp(PendingWrite* write,
                                  std::vector<Compaction>* compacting) {
  WriteRecord& r = write->record;
  r.arrival_ms = std::max(write->write.arrival_ms, now_ms_);
  Served* served = write->served;
  auto finish = [&](const char* outcome, const Status& status) {
    r.outcome = outcome;
    if (!status.ok()) r.error = status.message();
    r.finish_ms = now_ms_;
    write->finished = true;
  };
  if (served->wounded) {
    finish("failed",
           Status::FailedPrecondition(
               "collection '" + served->name +
               "' is wounded by an earlier write failure; reopen it and "
               "ReattachDynamic"));
    return;
  }
  DynamicCollection* dc = served->dc;
  switch (write->write.kind) {
    case ServeWrite::Kind::kInsert: {
      Result<DocKey> key = dc->Insert(write->doc);
      Advance(kMsPerWrite);
      if (!key.ok()) {
        // WAL-first: the in-memory state did not change, but the WAL
        // writer must not be reused after a failed append.
        served->wounded = true;
        finish("failed", key.status());
        return;
      }
      r.key = key.value();
      RefreshSnapshot(served);
      InvalidateOnWrite(served->name);
      r.epoch_after = dc->epoch();
      finish("applied", Status::OK());
      return;
    }
    case ServeWrite::Kind::kDelete: {
      Status st = dc->Delete(write->write.key);
      Advance(kMsPerWrite);
      if (!st.ok()) {
        // A missing key is a semantic miss, not a broken log.
        if (st.code() != StatusCode::kNotFound) served->wounded = true;
        finish("failed", st);
        return;
      }
      RefreshSnapshot(served);
      InvalidateOnWrite(served->name);
      r.epoch_after = dc->epoch();
      finish("applied", Status::OK());
      return;
    }
    case ServeWrite::Kind::kCompact: {
      auto job = CompactionJob::Begin(
          dc, std::max<int64_t>(1, options_.compact_docs_per_slice));
      if (!job.ok()) {
        finish("failed", job.status());
        return;
      }
      Compaction c;
      c.write = write;
      c.served = served;
      c.job = std::move(job).value();
      c.governor = std::make_unique<QueryGovernor>(GovernorLimits{});
      if (write->write.foreground) {
        // The stall the background path exists to avoid: every slice runs
        // back to back at arrival, with no query stepping in between.
        while (!StepCompactionSlice(&c)) {
        }
        return;
      }
      compacting->push_back(std::move(c));
      return;
    }
  }
}

bool QueryScheduler::StepCompactionSlice(Compaction* c) {
  Result<bool> done = c->job->Step(c->governor.get());
  Advance(options_.compact_ms_per_slice);
  WriteRecord& r = c->write->record;
  if (!done.ok()) {
    const Status& st = done.status();
    r.slices = c->job->slices();
    r.finish_ms = now_ms_;
    r.error = st.message();
    if (c->job->committed()) {
      // The new generation is durable on disk but the in-memory install
      // failed: the served state no longer matches the device. Queries
      // keep the last good snapshot; recovery is reopen + reattach.
      c->served->wounded = true;
      r.outcome = "failed";
    } else {
      r.outcome =
          st.code() == StatusCode::kCancelled ? "aborted" : "failed";
    }
    c->write->finished = true;
    return true;
  }
  if (!done.value()) return false;
  RefreshSnapshot(c->served);
  InvalidateOnWrite(c->served->name);
  r.slices = c->job->slices();
  r.epoch_after = c->served->dc->epoch();
  r.outcome = "applied";
  r.finish_ms = now_ms_;
  c->write->finished = true;
  return true;
}

Status QueryScheduler::ActivateTask(Task* task, double queue_wait_ms) {
  const ServeQuery& q = task->query;
  // Snapshot-at-admission: everything this query reads from here on —
  // postings, liveness, delta, idf, norms, epoch — comes from this one
  // immutable snapshot, regardless of writes landing while it runs.
  task->snap = task->served->snapshot;
  Snapshot* snap = task->snap.get();

  TEXTJOIN_ASSIGN_OR_RETURN(task->sim, snap->Similarity(q.similarity));
  task->query_norm = q.similarity.cosine_normalize
                         ? WeightedNorm(task->doc.cells(), task->sim->idf)
                         : 1;
  const int64_t n = snap->view.base->num_documents();
  task->pages_needed = AccumulatorPages(n, disk_->page_size());

  GovernorLimits limits;
  limits.deadline_ms = q.deadline_ms > 0
                           ? q.deadline_ms
                           : options_.admission.default_deadline_ms;
  int64_t budget = 0;
  if (pool_->partitioned()) budget = pool_->tenant_quota(q.tenant);
  int64_t granted = task->record.governance.memory_granted_pages;
  if (granted > 0 && granted < task->pages_needed) {
    budget = budget > 0 ? std::min(budget, granted) : granted;
  }
  limits.memory_budget_pages = budget;
  task->governor = std::make_unique<QueryGovernor>(limits);
  if (q.cancel_at_checkpoint > 0) {
    task->governor->CancelAtCheckpoint(q.cancel_at_checkpoint);
  }

  task->record.start_ms = now_ms_;
  task->record.queue_wait_ms = queue_wait_ms;
  task->record.serving.queue_wait_ms = queue_wait_ms;
  task->record.serving.tenant = q.tenant;
  task->record.serving.snapshot_epoch = snap->epoch;
  if (pool_->partitioned()) {
    task->record.serving.tenant_quota_pages = pool_->tenant_quota(q.tenant);
  }

  // Cache lookup happens at admission, against the snapshot's epoch — an
  // epoch bump between submission and admission correctly misses, and a
  // same-round write-then-read can never see the pre-write entry (the
  // write erased it before this query could be admitted).
  task->key = ServeQueryCacheKey(q.collection, snap->epoch,
                                 task->doc.cells(), q.lambda, q.similarity);
  if (auto cached = cache_.Lookup(task->key); cached.has_value()) {
    task->hit = true;
    task->hit_matches = cached->rows.empty() ? std::vector<Match>{}
                                             : cached->rows.front().matches;
    return Status::OK();
  }

  // Cold execution setup: partition the accumulator under the governor's
  // memory budget (PR 4 degraded path — more partitions, more re-fetches,
  // identical bits).
  int64_t budget_pages = task->governor->CapBufferPages(task->pages_needed);
  task->partitions = (task->pages_needed + budget_pages - 1) /
                     std::max<int64_t>(1, budget_pages);
  task->docs_per_part =
      task->partitions > 0 ? (n + task->partitions - 1) / task->partitions : 0;
  task->topk = TopKAccumulator(q.lambda);
  task->part = 0;
  task->part_lo = 0;
  task->part_hi =
      static_cast<DocId>(std::min<int64_t>(task->docs_per_part, n));
  task->acc.assign(static_cast<size_t>(task->part_hi - task->part_lo), 0.0);
  task->term_idx = 0;
  task->delta_pending = false;
  return Status::OK();
}

void QueryScheduler::FlushPartition(Task* task) {
  const DynamicJoinSide& view = task->snap->view;
  for (size_t i = 0; i < task->acc.size(); ++i) {
    double a = task->acc[i];
    if (a > 0) {
      DocId doc = task->part_lo + static_cast<DocId>(i);
      // Deleted base documents still sit in the snapshot's posting lists;
      // they are dropped here, never surfacing in results.
      if (!view.live(doc)) continue;
      task->topk.Add(doc, task->Finalize(a, doc));
    }
  }
  ++task->part;
  if (task->part >= task->partitions) {
    // Base partitions exhausted: delta documents (in memory, no I/O) are
    // scored in one final step at snapshot ids base_n + j.
    if (!view.delta.empty() && !task->doc.cells().empty()) {
      task->delta_pending = true;
    } else {
      task->done = true;
    }
    return;
  }
  const int64_t n = view.base->num_documents();
  task->part_lo = task->part_hi;
  task->part_hi = static_cast<DocId>(
      std::min<int64_t>(task->part_lo + task->docs_per_part, n));
  task->acc.assign(static_cast<size_t>(task->part_hi - task->part_lo), 0.0);
  task->term_idx = 0;
}

Result<double> QueryScheduler::StepTask(Task* task) {
  QueryGovernor* governor = task->governor.get();
  // Steps are serialized, so scoping the stepping query's governor onto
  // the shared disk routes PollIo cancellation to the right query.
  ScopedDiskGovernor scoped(disk_, governor);
  TEXTJOIN_RETURN_IF_ERROR(governor->Checkpoint("serve step"));

  double cost = options_.ms_per_step;
  if (task->hit) {
    // A cached response still takes one step: look up, serialize, reply.
    task->done = true;
    governor->ChargeSimulatedMs(cost);
    return cost;
  }
  if (task->delta_pending) {
    // Score every snapshot delta document: WeightedDot accumulates
    // (w_q * w_d) * idf(t)^2 in ascending term order — the products and
    // the summation order of the partitioned base pass, so a rebuild that
    // holds these documents in its base produces the identical doubles.
    const DynamicJoinSide& view = task->snap->view;
    const int64_t base_n = view.base->num_documents();
    for (size_t j = 0; j < view.delta.size(); ++j) {
      const double acc = WeightedDot(task->doc, *view.delta[j], *task->sim);
      if (acc > 0) {
        const DocId doc = static_cast<DocId>(base_n + static_cast<int64_t>(j));
        task->topk.Add(doc, task->Finalize(acc, doc));
      }
    }
    task->delta_pending = false;
    task->done = true;
    governor->ChargeSimulatedMs(cost);
    return cost;
  }
  const std::vector<DCell>& cells = task->doc.cells();
  if (task->term_idx >= cells.size()) {
    // Empty query (or end of a partition's terms): flush and move on.
    FlushPartition(task);
    governor->ChargeSimulatedMs(cost);
    return cost;
  }

  const DCell& qc = cells[task->term_idx];
  auto fetched = registrar_.Fetch(*task->snap->view.index, qc.term,
                                  pool_.get(), task->query.tenant);
  TEXTJOIN_RETURN_IF_ERROR(fetched.status());
  if (fetched.value().shared) {
    ++task->record.serving.shared_scans;
  } else {
    ++task->record.serving.scan_fetches;
  }
  const double factor = task->sim->TermFactor(qc.term);
  const double qw = static_cast<double>(qc.weight);
  for (const ICell& ic : *fetched.value().cells) {
    if (ic.doc < task->part_lo) continue;
    if (ic.doc >= task->part_hi) {
      // i-cells ascend by document, so this cell ends the partition. In
      // the last one it names no base document of the snapshot, and the
      // query fails with DATA_LOSS, as HVNL and VVM do.
      TEXTJOIN_RETURN_IF_ERROR(CheckPostingDocs(
          {&ic, 1}, task->snap->view.base->num_documents()));
      break;
    }
    task->acc[static_cast<size_t>(ic.doc - task->part_lo)] +=
        qw * static_cast<double>(ic.weight) * factor;
  }
  cost +=
      static_cast<double>(fetched.value().pages_read) * options_.ms_per_page;
  if (pool_->partitioned()) {
    task->record.serving.tenant_peak_pages =
        std::max(task->record.serving.tenant_peak_pages,
                 pool_->tenant_frames(task->query.tenant));
  }
  ++task->term_idx;
  if (task->term_idx >= cells.size()) FlushPartition(task);
  governor->ChargeSimulatedMs(cost);
  return cost;
}

void QueryScheduler::FinishTask(Task* task, std::string outcome,
                                const Status& status) {
  QueryRecord& r = task->record;
  r.finish_ms = now_ms_;
  r.latency_ms = r.finish_ms - r.arrival_ms;
  r.outcome = std::move(outcome);
  if (!status.ok()) r.error = status.message();

  if (r.outcome == "completed") {
    if (task->hit) {
      r.matches = std::move(task->hit_matches);
    } else {
      r.matches = task->topk.TakeSorted();
      // Only a FULLY completed query is inserted — a cancelled or shed
      // query can never poison the cache — and only while its snapshot is
      // still the collection's current one: a result computed at epoch E
      // must not be inserted after a write moved the collection to E+1
      // (the write's invalidation already ran; inserting now would plant
      // a stale entry the next E+1 lookup could not tell apart).
      CachedResult value;
      value.rows.push_back(OuterMatches{0, r.matches});
      if (task->snap != nullptr &&
          task->snap->epoch == task->served->snapshot->epoch) {
        cache_.Insert(task->key, std::move(value), {task->query.collection});
      }
    }
  }

  if (task->governor != nullptr) {
    double queue_wait = r.governance.queue_wait_ms;
    std::string admission = r.governance.admission;
    int64_t granted = r.governance.memory_granted_pages;
    r.governance = GovernanceStats::FromGovernor(*task->governor);
    r.governance.queue_wait_ms = queue_wait;
    r.governance.admission = admission;
    r.governance.memory_granted_pages = granted;
  }
  r.cache_hit = task->hit;
  r.serving.active = true;
  r.serving.cache_hit = task->hit;
  r.serving.cache_hits = cache_.stats().hits;
  r.serving.cache_misses = cache_.stats().misses;

  if (task->ticket >= 0 &&
      admission_.StateOf(task->ticket) == TicketState::kRunning) {
    admission_.Release(task->ticket, 0);
  }
  task->done = true;
  task->finished = true;
}

void QueryScheduler::RecordShed(Task* task, double queue_wait_ms,
                                const Status& status) {
  QueryRecord& r = task->record;
  r.outcome = "shed";
  r.error = status.message();
  r.queue_wait_ms = queue_wait_ms;
  r.finish_ms = now_ms_;
  r.latency_ms = r.finish_ms - r.arrival_ms;
  r.governance.active = true;
  r.governance.admission = "shed";
  r.governance.outcome = "cancelled";
  r.governance.queue_wait_ms = queue_wait_ms;
  r.serving.active = true;
  r.serving.tenant = task->query.tenant;
  r.serving.queue_wait_ms = queue_wait_ms;
  task->done = true;
  task->finished = true;
  any_shed_ = true;
}

Result<std::vector<QueryRecord>> QueryScheduler::Run() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::unique_ptr<Task>> batch = std::move(tasks_);
  tasks_.clear();
  std::vector<std::unique_ptr<PendingWrite>> wbatch = std::move(writes_);
  writes_.clear();
  std::stable_sort(batch.begin(), batch.end(),
                   [](const std::unique_ptr<Task>& a,
                      const std::unique_ptr<Task>& b) {
                     return a->query.arrival_ms < b->query.arrival_ms;
                   });
  std::stable_sort(wbatch.begin(), wbatch.end(),
                   [](const std::unique_ptr<PendingWrite>& a,
                      const std::unique_ptr<PendingWrite>& b) {
                     return a->write.arrival_ms < b->write.arrival_ms;
                   });

  size_t next = 0;
  size_t wnext = 0;
  std::vector<Task*> active;
  std::vector<Task*> parked;
  std::vector<Task*> retryq;  // shed, waiting out their backoff
  std::vector<Compaction> compacting;

  // A shed query gets a bounded, deterministic second (third, ...) chance
  // instead of a hard failure, when the policy allows: it re-arrives after
  // an exponential backoff, keeping its original arrival time so the
  // latency it reports covers the whole ordeal.
  auto shed_or_retry = [&](Task* task, double waited, const Status& st) {
    ++task->attempt;
    if (retry_.ShouldRetry(st, task->attempt)) {
      task->retry_at_ms = now_ms_ + retry_.BackoffMs(task->attempt);
      ++task->record.serving.admission_retries;
      task->ticket = -1;
      retryq.push_back(task);
    } else {
      RecordShed(task, waited, st);
    }
  };

  auto arrive = [&](Task* task) -> Status {
    // The effective arrival: a query "arriving" before the clock (e.g.
    // submitted between Run() calls) arrives now. Retries keep theirs.
    if (task->attempt == 0) {
      task->record.arrival_ms = std::max(task->query.arrival_ms, now_ms_);
    }
    auto grant = admission_.Submit(task->predicted_cost_pages,
                                   task->pages_needed,
                                   task->query.deadline_ms);
    if (!grant.ok()) {
      shed_or_retry(task, 0, grant.status());
      return Status::OK();
    }
    task->ticket = grant.value().ticket;
    task->record.governance.memory_granted_pages =
        grant.value().memory_granted_pages;
    if (grant.value().outcome == AdmissionOutcome::kQueued) {
      task->record.governance.admission = "queued";
      parked.push_back(task);
      return Status::OK();
    }
    task->record.governance.admission = "admitted";
    task->record.governance.queue_wait_ms = grant.value().queue_wait_ms;
    Status st = ActivateTask(task, grant.value().queue_wait_ms);
    if (!st.ok()) {
      // Activation I/O failed (e.g. a norms scan hit a bad page): this
      // query failed, not the scheduler.
      FinishTask(task, "failed", st);
      return Status::OK();
    }
    active.push_back(task);
    return Status::OK();
  };

  // Admits everything due at the current clock, interleaving by arrival
  // time: writes beat queries (and retries) arriving at the same instant,
  // so a same-timestamp write-then-read sees the written state.
  auto admit_all = [&]() -> Status {
    for (;;) {
      double wt = wnext < wbatch.size() ? wbatch[wnext]->write.arrival_ms
                                        : kInf;
      double qt = next < batch.size() ? batch[next]->query.arrival_ms : kInf;
      double rt = kInf;
      size_t ri = retryq.size();
      for (size_t i = 0; i < retryq.size(); ++i) {
        if (retryq[i]->retry_at_ms < rt) {
          rt = retryq[i]->retry_at_ms;
          ri = i;
        }
      }
      if (wt <= now_ms_ && wt <= qt && wt <= rt) {
        ApplyWriteOp(wbatch[wnext].get(), &compacting);
        ++wnext;
        continue;
      }
      if (rt <= now_ms_ && rt <= qt) {
        Task* task = retryq[ri];
        retryq.erase(retryq.begin() + static_cast<int64_t>(ri));
        TEXTJOIN_RETURN_IF_ERROR(arrive(task));
        continue;
      }
      if (qt <= now_ms_) {
        TEXTJOIN_RETURN_IF_ERROR(arrive(batch[next].get()));
        ++next;
        continue;
      }
      return Status::OK();
    }
  };

  // Resolves a parked ticket the controller has already decided about.
  auto resolve_parked = [&](Task* task) -> Status {
    auto grant = admission_.Await(task->ticket);
    if (grant.ok()) {
      task->record.governance.queue_wait_ms = grant.value().queue_wait_ms;
      task->record.governance.memory_granted_pages =
          grant.value().memory_granted_pages;
      Status st = ActivateTask(task, grant.value().queue_wait_ms);
      if (!st.ok()) {
        FinishTask(task, "failed", st);
        return Status::OK();
      }
      active.push_back(task);
      return Status::OK();
    }
    double waited = admission_.shed_wait_ms(task->ticket);
    shed_or_retry(task, waited < 0 ? 0 : waited, grant.status());
    return Status::OK();
  };

  auto poll_parked = [&]() -> Status {
    for (auto it = parked.begin(); it != parked.end();) {
      TicketState state = admission_.StateOf((*it)->ticket);
      if (state == TicketState::kPromoted || state == TicketState::kTimedOut) {
        Task* task = *it;
        it = parked.erase(it);
        TEXTJOIN_RETURN_IF_ERROR(resolve_parked(task));
      } else {
        ++it;
      }
    }
    return Status::OK();
  };

  auto step_compactions = [&]() {
    for (auto it = compacting.begin(); it != compacting.end();) {
      if (StepCompactionSlice(&*it)) {
        it = compacting.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (next < batch.size() || wnext < wbatch.size() || !active.empty() ||
         !parked.empty() || !retryq.empty() || !compacting.empty()) {
    TEXTJOIN_RETURN_IF_ERROR(admit_all());
    TEXTJOIN_RETURN_IF_ERROR(poll_parked());
    if (active.empty()) {
      if (!compacting.empty()) {
        // No queries to yield to: compaction soaks up the idle time, one
        // slice per job, the clock advancing underneath so arrivals and
        // queue timeouts interleave naturally.
        step_compactions();
        continue;
      }
      double t = kInf;
      if (next < batch.size()) t = std::min(t, batch[next]->query.arrival_ms);
      if (wnext < wbatch.size()) {
        t = std::min(t, wbatch[wnext]->write.arrival_ms);
      }
      for (Task* task : retryq) t = std::min(t, task->retry_at_ms);
      if (t < kInf) {
        // Idle: jump the clock to the next arrival / write / retry.
        Advance(t - now_ms_);
        TEXTJOIN_RETURN_IF_ERROR(admit_all());
        continue;
      }
      if (!parked.empty()) {
        // Nothing running and nothing arriving: the remaining waiters can
        // only be resolved directly (Await promotes or sheds them).
        std::vector<Task*> waiters;
        waiters.swap(parked);
        for (Task* task : waiters) {
          TEXTJOIN_RETURN_IF_ERROR(resolve_parked(task));
        }
        continue;
      }
      break;
    }

    // One round: every active query takes one step; same-round fetches of
    // the same posting list are shared.
    registrar_.BeginRound();
    std::vector<Task*> stepping = active;
    for (Task* task : stepping) {
      if (task->done) continue;
      auto cost = StepTask(task);
      if (!cost.ok()) {
        Advance(options_.ms_per_step);
        const Status& s = cost.status();
        const char* outcome = s.code() == StatusCode::kCancelled
                                  ? "cancelled"
                                  : s.code() == StatusCode::kDeadlineExceeded
                                        ? "deadline"
                                        : "failed";
        FinishTask(task, outcome, s);
      } else {
        Advance(cost.value());
        if (task->done) FinishTask(task, "completed", Status::OK());
      }
      // Arrivals — and writes — during the round join at its end; a write
      // landing mid-round invalidates the registrar so later fetches this
      // round cannot ride a pre-write scan.
      TEXTJOIN_RETURN_IF_ERROR(admit_all());
    }
    registrar_.EndRound();
    active.erase(std::remove_if(active.begin(), active.end(),
                                [](Task* t) { return t->done; }),
                 active.end());
    if (!compacting.empty()) {
      if (options_.compact_abort_on_shed && any_shed_) {
        // Overload: sacrifice the rewrite rather than the queries.
        for (Compaction& c : compacting) c.governor->Cancel();
      }
      // Background pacing: one slice per round, unless queries are queued
      // behind the ones running — then the compaction yields its slot.
      if (parked.empty() || active.empty()) step_compactions();
    }
    any_shed_ = false;
    TEXTJOIN_RETURN_IF_ERROR(poll_parked());
  }

  std::stable_sort(wbatch.begin(), wbatch.end(),
                   [](const std::unique_ptr<PendingWrite>& a,
                      const std::unique_ptr<PendingWrite>& b) {
                     return a->id < b->id;
                   });
  for (std::unique_ptr<PendingWrite>& w : wbatch) {
    TEXTJOIN_CHECK(w->finished);
    write_records_.push_back(std::move(w->record));
  }

  std::stable_sort(batch.begin(), batch.end(),
                   [](const std::unique_ptr<Task>& a,
                      const std::unique_ptr<Task>& b) { return a->id < b->id; });
  std::vector<QueryRecord> records;
  records.reserve(batch.size());
  for (std::unique_ptr<Task>& task : batch) {
    TEXTJOIN_CHECK(task->finished);
    records.push_back(std::move(task->record));
  }
  return records;
}

}  // namespace textjoin
