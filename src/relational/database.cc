#include "relational/database.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "catalog/catalog.h"
#include "common/crc32.h"
#include "relational/sql_parser.h"
#include "storage/coding.h"
#include "storage/page_stream.h"
#include "storage/snapshot.h"

namespace textjoin {

namespace {

constexpr const char* kManifestFile = "__db.manifest";
constexpr const char* kVocabularyFile = "__db.vocab";
constexpr const char* kDynamicFile = "__db.dynamic";
constexpr uint32_t kManifestMagic = 0x544A444Du;  // "TJDM"

std::string CatalogName(const std::string& object_name, bool is_index) {
  return "__cat." + object_name + (is_index ? ".idx" : ".col");
}

}  // namespace

Database::Database(const DatabaseOptions& options)
    : options_(options),
      sys_{10000, options.page_size, 5.0},
      admission_(options.admission) {
  InstallDisk(std::make_unique<SimulatedDisk>(options.page_size));
}

void Database::InstallDisk(std::unique_ptr<SimulatedDisk> disk) {
  disk_ = std::move(disk);
  if (options_.reliable_storage) {
    reliable_ = std::make_unique<ReliableDisk>(disk_.get(), options_.retry);
    active_disk_ = reliable_.get();
  } else {
    reliable_.reset();
    active_disk_ = disk_.get();
  }
}

Result<const DocumentCollection*> Database::AddCollectionFromText(
    const std::string& name, const std::vector<std::string>& documents) {
  CollectionBuilder builder(active_disk_, name);
  for (const std::string& text : documents) {
    TEXTJOIN_ASSIGN_OR_RETURN(Document doc,
                              tokenizer_.MakeDocument(text, &vocabulary_));
    TEXTJOIN_RETURN_IF_ERROR(builder.AddDocument(doc).status());
  }
  TEXTJOIN_ASSIGN_OR_RETURN(DocumentCollection collection, builder.Finish());
  return AddCollection(name, std::move(collection));
}

Result<const DocumentCollection*> Database::AddCollection(
    const std::string& name, DocumentCollection collection) {
  if (collections_.count(name) > 0 || dynamic_.count(name) > 0) {
    return Status::AlreadyExists("collection '" + name + "' exists");
  }
  if (collection.disk() != active_disk_) {
    return Status::InvalidArgument(
        "collection lives on a different disk");
  }
  auto owned = std::make_unique<DocumentCollection>(std::move(collection));
  const DocumentCollection* ptr = owned.get();
  collections_.emplace(name, std::move(owned));
  epochs_[name] = 1;
  return ptr;
}

int64_t Database::CollectionEpoch(const std::string& name) const {
  if (auto it = dynamic_.find(name); it != dynamic_.end()) {
    return it->second->epoch();
  }
  if (collections_.count(name) == 0) return -1;
  auto it = epochs_.find(name);
  return it == epochs_.end() ? 1 : it->second;
}

Status Database::BumpCollectionEpoch(const std::string& name) {
  if (collections_.count(name) == 0) {
    return Status::NotFound("no collection '" + name + "'");
  }
  ++epochs_[name];
  result_cache_.EraseCollection(name);
  return Status::OK();
}

Result<std::unique_ptr<QueryScheduler>> Database::NewScheduler(
    const ServeOptions& options) {
  auto scheduler =
      std::make_unique<QueryScheduler>(active_disk_, &vocabulary_, options);
  for (const std::string& name : collection_names()) {
    const InvertedFile* idx = index(name);
    if (idx == nullptr) continue;  // serving needs the inverted file
    TEXTJOIN_RETURN_IF_ERROR(
        scheduler->AddCollection(name, collection(name), idx));
  }
  // Dynamic collections serve too: queries snapshot their live state at
  // admission and SubmitWrite accepts mutations against them.
  for (const std::string& name : dynamic_names()) {
    TEXTJOIN_RETURN_IF_ERROR(
        scheduler->AddDynamicCollection(name, dynamic_collection(name)));
  }
  return scheduler;
}

Result<const InvertedFile*> Database::BuildIndex(
    const std::string& collection_name, PostingCompression compression) {
  auto it = collections_.find(collection_name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection '" + collection_name + "'");
  }
  if (indexes_.count(collection_name) > 0) {
    return Status::AlreadyExists("index on '" + collection_name +
                                 "' exists");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(
      InvertedFile inv,
      InvertedFile::Build(active_disk_, collection_name + ".inv",
                          *it->second,
                          InvertedFile::BuildOptions{compression}));
  auto owned = std::make_unique<InvertedFile>(std::move(inv));
  const InvertedFile* ptr = owned.get();
  indexes_.emplace(collection_name, std::move(owned));
  return ptr;
}

const DocumentCollection* Database::collection(const std::string& name) const {
  auto it = collections_.find(name);
  return it == collections_.end() ? nullptr : it->second.get();
}

const InvertedFile* Database::index(const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::collection_names() const {
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, col] : collections_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<DynamicCollection*> Database::AddDynamicCollectionFromText(
    const std::string& name, const std::vector<std::string>& documents) {
  if (collections_.count(name) > 0 || dynamic_.count(name) > 0) {
    return Status::AlreadyExists("collection '" + name + "' exists");
  }
  std::vector<Document> docs;
  docs.reserve(documents.size());
  for (const std::string& text : documents) {
    TEXTJOIN_ASSIGN_OR_RETURN(Document doc,
                              tokenizer_.MakeDocument(text, &vocabulary_));
    docs.push_back(std::move(doc));
  }
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<DynamicCollection> dc,
      DynamicCollection::Create(active_disk_, name, docs));
  DynamicCollection* ptr = dc.get();
  dynamic_.emplace(name, std::move(dc));
  return ptr;
}

Result<DocKey> Database::InsertDocument(const std::string& name,
                                        const std::string& text) {
  auto it = dynamic_.find(name);
  if (it == dynamic_.end()) {
    return Status::NotFound("no dynamic collection '" + name + "'");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(Document doc,
                            tokenizer_.MakeDocument(text, &vocabulary_));
  TEXTJOIN_ASSIGN_OR_RETURN(DocKey key, it->second->Insert(doc));
  // The mutation bumped the collection's epoch: cached joins over the old
  // contents are unreachable by key and eagerly dropped.
  result_cache_.EraseCollection(name);
  return key;
}

Status Database::DeleteDocument(const std::string& name, DocKey key) {
  auto it = dynamic_.find(name);
  if (it == dynamic_.end()) {
    return Status::NotFound("no dynamic collection '" + name + "'");
  }
  TEXTJOIN_RETURN_IF_ERROR(it->second->Delete(key));
  result_cache_.EraseCollection(name);
  return Status::OK();
}

Status Database::CompactCollection(const std::string& name) {
  auto it = dynamic_.find(name);
  if (it == dynamic_.end()) {
    return Status::NotFound("no dynamic collection '" + name + "'");
  }
  TEXTJOIN_RETURN_IF_ERROR(it->second->Compact());
  result_cache_.EraseCollection(name);
  return Status::OK();
}

DynamicCollection* Database::dynamic_collection(const std::string& name) {
  auto it = dynamic_.find(name);
  return it == dynamic_.end() ? nullptr : it->second.get();
}

const DynamicCollection* Database::dynamic_collection(
    const std::string& name) const {
  auto it = dynamic_.find(name);
  return it == dynamic_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::dynamic_names() const {
  std::vector<std::string> names;
  names.reserve(dynamic_.size());
  for (const auto& [name, dc] : dynamic_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<Database::GovernedRun> Database::BeginGoverned(const JoinContext& ctx,
                                                      const JoinSpec& spec) {
  GovernedRun run;
  const AdmissionOptions& adm = options_.admission;

  // Per-query limits win over session knobs, which win over the
  // database-wide defaults.
  double deadline_ms = spec.deadline_ms > 0 ? spec.deadline_ms
                       : session_deadline_ms_ > 0
                           ? session_deadline_ms_
                           : adm.default_deadline_ms;
  int64_t memory_budget = spec.memory_budget_pages > 0
                              ? spec.memory_budget_pages
                              : session_memory_budget_pages_;

  run.admission_active = adm.max_concurrent > 0 ||
                         adm.memory_budget_pages > 0 || adm.cost_unit_ms > 0;
  if (run.admission_active) {
    // The planner's cost estimate is the predicted runtime/memory claim
    // the controller charges against the system's budgets.
    double predicted_pages = 0;
    JoinPlanner planner;
    Result<PlanChoice> plan = planner.Plan(ctx, spec);
    if (plan.ok()) {
      predicted_pages = plan->costs.of(plan->algorithm).seq;
    }
    TEXTJOIN_ASSIGN_OR_RETURN(
        run.grant,
        admission_.Submit(predicted_pages, ctx.sys.buffer_pages, deadline_ms));
    if (run.grant.outcome == AdmissionOutcome::kQueued) {
      TEXTJOIN_ASSIGN_OR_RETURN(run.grant, admission_.Await(run.grant.ticket));
    }
    if (adm.memory_budget_pages > 0 &&
        run.grant.memory_granted_pages > 0 &&
        run.grant.memory_granted_pages < ctx.sys.buffer_pages) {
      // Partial memory grant: the governor budget makes the join degrade
      // to the granted pages instead of failing.
      memory_budget = memory_budget > 0
                          ? std::min(memory_budget,
                                     run.grant.memory_granted_pages)
                          : run.grant.memory_granted_pages;
    }
  }

  // No governor when nothing governs: ungoverned runs keep their exact
  // pre-governance behaviour (and EXPLAIN ANALYZE output).
  if (deadline_ms > 0 || memory_budget > 0 || run.admission_active) {
    run.governor = std::make_unique<QueryGovernor>(
        GovernorLimits{deadline_ms, memory_budget});
  }
  return run;
}

void Database::EndGoverned(GovernedRun* run) {
  if (run->admission_active && run->grant.ticket >= 0) {
    admission_.Release(
        run->grant.ticket,
        run->governor != nullptr ? run->governor->ElapsedMs() : 0);
  }
}

Result<DynamicJoinSide> Database::View(const std::string& name) const {
  if (auto it = dynamic_.find(name); it != dynamic_.end()) {
    return MakeJoinSide(*it->second);
  }
  const DocumentCollection* col = collection(name);
  if (col == nullptr) {
    return Status::NotFound("unknown collection '" + name + "' in join");
  }
  return MakeJoinSide(*col, index(name));
}

Result<AnalyzedJoin> Database::RunJoin(const std::string& inner_name,
                                       const std::string& outer_name,
                                       const JoinSpec& spec,
                                       const ExplainOptions* explain) {
  TEXTJOIN_ASSIGN_OR_RETURN(DynamicJoinSide inner, View(inner_name));
  TEXTJOIN_ASSIGN_OR_RETURN(DynamicJoinSide outer, View(outer_name));

  // Result cache: a repeat of the same logical join under the same
  // collection epochs skips admission, planning and execution entirely. A
  // dynamic collection's epoch moves with every mutation, so hits are only
  // possible between unchanged contents.
  AnalyzedJoin out;
  std::string cache_key;
  std::optional<CachedResult> cached;
  if (result_cache_.enabled()) {
    cache_key = JoinCacheKey(inner_name, CollectionEpoch(inner_name),
                             outer_name, CollectionEpoch(outer_name), spec);
    cached = result_cache_.Lookup(cache_key);
  }
  const bool hit = cached.has_value() && cached->has_plan;
  if (hit) {
    out.result = std::move(cached->rows);
    out.plan = std::move(cached->plan);
  } else {
    TEXTJOIN_ASSIGN_OR_RETURN(SimilarityContext similarity,
                              ViewSimilarity(inner, &outer, spec.similarity));
    JoinContext ctx = ViewContext(inner, outer, &similarity, sys_);
    TEXTJOIN_ASSIGN_OR_RETURN(GovernedRun run, BeginGoverned(ctx, spec));
    ScopedDiskGovernor disk_governor(active_disk_, run.governor.get());
    ctx.governor = run.governor.get();
    std::optional<QueryStatsCollector> collector;
    if (explain != nullptr) ctx.stats = &collector.emplace(ctx.outer->disk());
    Result<JoinResult> rows = JoinViews(inner, outer, ctx, spec, &out.plan);
    if (rows.ok() && collector.has_value()) {
      out.stats = collector->Finish();
      GovernanceStats& g = out.stats.governance;
      if (run.governor != nullptr) {
        g = GovernanceStats::FromGovernor(*run.governor);
      }
      if (run.admission_active) {
        g.admission = AdmissionOutcomeName(run.grant.outcome);
        g.queue_wait_ms = run.grant.queue_wait_ms;
        g.memory_granted_pages = run.grant.memory_granted_pages;
      }
    }
    EndGoverned(&run);
    TEXTJOIN_RETURN_IF_ERROR(rows.status());
    out.result = std::move(rows).value();
    if (result_cache_.enabled()) {
      // Only a fully completed join is cached — a cancelled or shed run
      // returned above with its error.
      CachedResult value;
      value.rows = out.result;
      value.plan = out.plan;
      value.has_plan = true;
      result_cache_.Insert(cache_key, std::move(value),
                           {inner_name, outer_name});
    }
  }
  if (explain != nullptr) {
    if (result_cache_.enabled()) {
      ServingStats& serving = out.stats.serving;
      serving.active = true;
      serving.cache_hit = hit;
      serving.cache_hits = result_cache_.stats().hits;
      serving.cache_misses = result_cache_.stats().misses;
    }
    out.report =
        RenderExplainAnalyze(out.plan.ToExplainPlan(), out.stats, *explain);
  }
  return out;
}

Result<JoinResult> Database::Join(const std::string& inner_name,
                                  const std::string& outer_name,
                                  const JoinSpec& spec, PlanChoice* chosen) {
  TEXTJOIN_ASSIGN_OR_RETURN(AnalyzedJoin joined,
                            RunJoin(inner_name, outer_name, spec, nullptr));
  if (chosen != nullptr) *chosen = std::move(joined.plan);
  return std::move(joined.result);
}

Result<AnalyzedJoin> Database::JoinAnalyze(const std::string& inner_name,
                                           const std::string& outer_name,
                                           const JoinSpec& spec,
                                           const ExplainOptions& options) {
  // The report meters the executor's phases; a delta merge would run
  // outside them, so analysis stays on static collections.
  for (const std::string* name : {&inner_name, &outer_name}) {
    if (dynamic_.count(*name) > 0) {
      return Status::InvalidArgument(
          "EXPLAIN ANALYZE is not supported on dynamic collection '" + *name +
          "'");
    }
  }
  return RunJoin(inner_name, outer_name, spec, &options);
}

Status Database::RegisterTable(const Table* table) {
  if (table == nullptr) {
    return Status::InvalidArgument("null table");
  }
  for (const Table* t : tables_) {
    if (t == table || t->name() == table->name()) {
      return Status::AlreadyExists("table '" + table->name() +
                                   "' is already registered");
    }
  }
  tables_.push_back(table);
  return Status::OK();
}

namespace {

// Case-insensitive keyword match at `pos`, followed by a non-identifier
// character (or end of string).
bool KeywordAt(const std::string& s, size_t pos, const char* kw) {
  size_t n = std::strlen(kw);
  if (pos + n > s.size()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::toupper(static_cast<unsigned char>(s[pos + i])) != kw[i]) {
      return false;
    }
  }
  return pos + n == s.size() ||
         !(std::isalnum(static_cast<unsigned char>(s[pos + n])) ||
           s[pos + n] == '_');
}

}  // namespace

Result<bool> Database::TryExecuteSet(const std::string& sql, SqlOutput* out) {
  size_t pos = sql.find_first_not_of(" \t\r\n");
  if (pos == std::string::npos || !KeywordAt(sql, pos, "SET")) return false;
  pos += 3;

  // SET <name> = <value>  (a trailing ';' is tolerated).
  size_t name_begin = sql.find_first_not_of(" \t\r\n", pos);
  if (name_begin == std::string::npos) {
    return Status::InvalidArgument("SET: missing knob name");
  }
  size_t name_end = name_begin;
  while (name_end < sql.size() &&
         (std::isalnum(static_cast<unsigned char>(sql[name_end])) ||
          sql[name_end] == '_')) {
    ++name_end;
  }
  std::string name = sql.substr(name_begin, name_end - name_begin);
  size_t eq = sql.find_first_not_of(" \t\r\n", name_end);
  if (eq == std::string::npos || sql[eq] != '=') {
    return Status::InvalidArgument("SET " + name + ": expected '='");
  }
  std::string value_str = sql.substr(eq + 1);
  while (!value_str.empty() &&
         (value_str.back() == ';' || std::isspace(static_cast<unsigned char>(
                                         value_str.back())))) {
    value_str.pop_back();
  }
  size_t value_begin = value_str.find_first_not_of(" \t\r\n");
  value_str.erase(0, value_begin == std::string::npos ? value_str.size()
                                                      : value_begin);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(value_str.c_str(), &end);
  // strtod also accepts "inf" and "nan"; NaN compares false with 0.
  if (value_str.empty() || end != value_str.c_str() + value_str.size() ||
      errno == ERANGE || !std::isfinite(value) || value < 0) {
    return Status::InvalidArgument("SET " + name + ": '" + value_str +
                                   "' is not a finite non-negative number");
  }
  // The integer knobs: a double at or above 2^63 has no int64 value.
  if ((name == "memory_budget_pages" || name == "result_cache_entries") &&
      value >= static_cast<double>(std::numeric_limits<int64_t>::max())) {
    return Status::InvalidArgument("SET " + name + ": '" + value_str +
                                   "' does not fit in a 64-bit integer");
  }

  if (name == "deadline_ms") {
    session_deadline_ms_ = value;
  } else if (name == "memory_budget_pages") {
    session_memory_budget_pages_ = static_cast<int64_t>(value);
  } else if (name == "result_cache_entries") {
    result_cache_.set_capacity(static_cast<int64_t>(value));
  } else {
    return Status::InvalidArgument(
        "SET: unknown knob '" + name +
        "' (supported: deadline_ms, memory_budget_pages, "
        "result_cache_entries)");
  }
  out->rows.push_back("SET " + name + " = " + value_str);
  return true;
}

Result<Database::SqlOutput> Database::ExecuteSql(const std::string& sql) {
  {
    SqlOutput set_out;
    TEXTJOIN_ASSIGN_OR_RETURN(bool was_set, TryExecuteSet(sql, &set_out));
    if (was_set) return set_out;
  }
  SqlParser parser(tables_);
  TEXTJOIN_ASSIGN_OR_RETURN(BoundQuery bound, parser.Parse(sql));

  // The registered collection name a text column is attached to.
  auto name_of = [&](const Table* table,
                     const std::string& column) -> std::string {
    int64_t c = table->ColumnIndex(column);
    if (c < 0) return std::string();
    const DocumentCollection* col = table->CollectionOf(c);
    for (const auto& [name, owned] : collections_) {
      if (owned.get() == col) return name;
    }
    return std::string();
  };

  // The inverted file (if any) registered for the collection a text
  // column is attached to.
  auto index_of = [&](const Table* table,
                      const std::string& column) -> const InvertedFile* {
    std::string name = name_of(table, column);
    if (name.empty()) return nullptr;
    auto it = indexes_.find(name);
    return it == indexes_.end() ? nullptr : it->second.get();
  };

  // Session lifecycle knobs apply to every SIMILAR_TO query; the executor
  // builds the governor from these fields.
  TextJoinQuery query = bound.query();
  query.deadline_ms = session_deadline_ms_ > 0
                          ? session_deadline_ms_
                          : options_.admission.default_deadline_ms;
  query.memory_budget_pages = session_memory_budget_pages_;

  const bool admission_active = options_.admission.max_concurrent > 0 ||
                                options_.admission.memory_budget_pages > 0 ||
                                options_.admission.cost_unit_ms > 0;
  AdmissionGrant grant;
  if (admission_active) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        grant, admission_.Submit(/*predicted_cost_pages=*/0,
                                 sys_.buffer_pages, query.deadline_ms));
    if (grant.outcome == AdmissionOutcome::kQueued) {
      TEXTJOIN_ASSIGN_OR_RETURN(grant, admission_.Await(grant.ticket));
    }
    if (options_.admission.memory_budget_pages > 0 &&
        grant.memory_granted_pages > 0 &&
        grant.memory_granted_pages < sys_.buffer_pages) {
      query.memory_budget_pages =
          query.memory_budget_pages > 0
              ? std::min(query.memory_budget_pages,
                         grant.memory_granted_pages)
              : grant.memory_granted_pages;
    }
  }

  // Attach the result cache when it is enabled and both sides resolve to
  // registered collections (the hook keys on their names + epochs).
  QueryCacheHook hook;
  const QueryCacheHook* hook_ptr = nullptr;
  if (result_cache_.enabled()) {
    hook.inner_name = name_of(query.inner_table, query.inner_text_column);
    hook.outer_name = name_of(query.outer_table, query.outer_text_column);
    if (!hook.inner_name.empty() && !hook.outer_name.empty()) {
      hook.cache = &result_cache_;
      hook.inner_epoch = CollectionEpoch(hook.inner_name);
      hook.outer_epoch = CollectionEpoch(hook.outer_name);
      hook_ptr = &hook;
    }
  }

  TextJoinQueryExecutor executor(sys_);
  Result<QueryResult> run =
      executor.Run(query, index_of(query.inner_table, query.inner_text_column),
                   index_of(query.outer_table, query.outer_text_column),
                   hook_ptr);
  if (admission_active) admission_.Release(grant.ticket);
  TEXTJOIN_RETURN_IF_ERROR(run.status());
  QueryResult result = std::move(*run);
  if (admission_active && result.stats.governance.active) {
    GovernanceStats& g = result.stats.governance;
    g.admission = AdmissionOutcomeName(grant.outcome);
    g.queue_wait_ms = grant.queue_wait_ms;
    g.memory_granted_pages = grant.memory_granted_pages;
    if (query.explain_analyze) {
      result.explain = RenderExplainAnalyze(result.plan.ToExplainPlan(),
                                            result.stats,
                                            query.explain_options);
    }
  }
  SqlOutput out;
  out.rows.reserve(result.rows.size());
  for (const QueryResultRow& row : result.rows) {
    out.rows.push_back(bound.FormatRow(row));
  }
  out.result = std::move(result);
  return out;
}

Status Database::Save(const std::string& path) {
  if (saved_) {
    return Status::FailedPrecondition(
        "Save may be called once per Database instance");
  }
  saved_ = true;

  // Vocabulary: term strings in id order, CRC-protected.
  {
    std::vector<uint8_t> payload;
    PutFixed64(&payload, static_cast<uint64_t>(vocabulary_.size()));
    for (int64_t id = 0; id < vocabulary_.size(); ++id) {
      TEXTJOIN_ASSIGN_OR_RETURN(std::string term,
                                vocabulary_.TermOf(static_cast<TermId>(id)));
      PutFixed32(&payload, static_cast<uint32_t>(term.size()));
      payload.insert(payload.end(), term.begin(), term.end());
    }
    FileId file = active_disk_->CreateFile(kVocabularyFile);
    PageStreamWriter writer(active_disk_, file);
    std::vector<uint8_t> header;
    PutFixed32(&header, kManifestMagic);
    PutFixed64(&header, static_cast<uint64_t>(payload.size()));
    PutFixed32(&header, Crc32(payload.data(), payload.size()));
    writer.Append(header);
    writer.Append(payload);
    TEXTJOIN_RETURN_IF_ERROR(writer.Finish());
  }

  // Catalogs for every registered object.
  std::vector<uint8_t> manifest;
  PutFixed64(&manifest, static_cast<uint64_t>(collections_.size()));
  for (const std::string& name : collection_names()) {
    TEXTJOIN_RETURN_IF_ERROR(SaveCollectionCatalog(
        *collections_.at(name), CatalogName(name, /*is_index=*/false)));
    PutFixed32(&manifest, static_cast<uint32_t>(name.size()));
    manifest.insert(manifest.end(), name.begin(), name.end());
    uint8_t has_index = indexes_.count(name) > 0 ? 1 : 0;
    manifest.push_back(has_index);
    if (has_index) {
      TEXTJOIN_RETURN_IF_ERROR(SaveInvertedFileCatalog(
          *indexes_.at(name), CatalogName(name, /*is_index=*/true)));
    }
  }
  {
    FileId file = active_disk_->CreateFile(kManifestFile);
    PageStreamWriter writer(active_disk_, file);
    std::vector<uint8_t> header;
    PutFixed32(&header, kManifestMagic);
    PutFixed64(&header, static_cast<uint64_t>(manifest.size()));
    PutFixed32(&header, Crc32(manifest.data(), manifest.size()));
    writer.Append(header);
    writer.Append(manifest);
    TEXTJOIN_RETURN_IF_ERROR(writer.Finish());
  }

  // Dynamic collections: their generations, manifests and WALs are disk
  // files already, so the snapshot carries them verbatim (including any
  // un-compacted WAL tail — Open replays it). Only the names need
  // recording.
  {
    std::vector<uint8_t> payload;
    const std::vector<std::string> names = dynamic_names();
    PutFixed64(&payload, static_cast<uint64_t>(names.size()));
    for (const std::string& name : names) {
      PutFixed32(&payload, static_cast<uint32_t>(name.size()));
      payload.insert(payload.end(), name.begin(), name.end());
    }
    FileId file = active_disk_->CreateFile(kDynamicFile);
    PageStreamWriter writer(active_disk_, file);
    std::vector<uint8_t> header;
    PutFixed32(&header, kManifestMagic);
    PutFixed64(&header, static_cast<uint64_t>(payload.size()));
    PutFixed32(&header, Crc32(payload.data(), payload.size()));
    writer.Append(header);
    writer.Append(payload);
    TEXTJOIN_RETURN_IF_ERROR(writer.Finish());
  }
  return SaveDiskSnapshot(*disk_, path);
}

namespace {

// Reads one "TJDM" record written by Save.
Result<std::vector<uint8_t>> ReadDbRecord(Disk* disk,
                                          const std::string& file_name) {
  TEXTJOIN_ASSIGN_OR_RETURN(FileId file, disk->FindFile(file_name));
  PageStreamReader reader(disk, file);
  std::vector<uint8_t> header;
  TEXTJOIN_RETURN_IF_ERROR(reader.Read(0, 16, &header));
  if (GetFixed32(header.data()) != kManifestMagic) {
    return Status::InvalidArgument(file_name + " has the wrong magic");
  }
  const uint64_t len = GetFixed64(header.data() + 4);
  const uint32_t crc = GetFixed32(header.data() + 12);
  std::vector<uint8_t> payload;
  TEXTJOIN_RETURN_IF_ERROR(
      reader.Read(16, static_cast<int64_t>(len), &payload));
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::Internal(file_name + " failed its checksum");
  }
  return payload;
}

}  // namespace

Result<std::unique_ptr<Database>> Database::Open(const std::string& path) {
  return Open(path, DatabaseOptions());
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& path, const DatabaseOptions& options) {
  TEXTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<SimulatedDisk> disk,
                            LoadDiskSnapshot(path));
  DatabaseOptions opts = options;
  opts.page_size = disk->page_size();
  auto db = std::make_unique<Database>(opts);
  db->InstallDisk(std::move(disk));
  if (db->reliable_ != nullptr) {
    // Adopt the snapshot's pages so every subsequent read is verified.
    TEXTJOIN_RETURN_IF_ERROR(db->reliable_->SealExistingFiles());
  }
  db->sys_ = SystemParams{10000, db->disk_->page_size(), 5.0};
  db->saved_ = true;  // the snapshot already contains catalogs

  // Vocabulary.
  {
    TEXTJOIN_ASSIGN_OR_RETURN(
        std::vector<uint8_t> payload,
        ReadDbRecord(db->active_disk_, kVocabularyFile));
    if (payload.size() < 8) {
      return Status::InvalidArgument("truncated vocabulary record");
    }
    const uint8_t* p = payload.data();
    const uint8_t* end = payload.data() + payload.size();
    uint64_t count = GetFixed64(p);
    p += 8;
    for (uint64_t i = 0; i < count; ++i) {
      if (p + 4 > end) return Status::InvalidArgument("bad vocabulary");
      uint32_t len = GetFixed32(p);
      p += 4;
      if (p + len > end) return Status::InvalidArgument("bad vocabulary");
      TEXTJOIN_RETURN_IF_ERROR(
          db->vocabulary_
              .AddOrGet(std::string_view(
                  reinterpret_cast<const char*>(p), len))
              .status());
      p += len;
    }
  }

  // Manifest -> collections and indexes.
  TEXTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> manifest,
                            ReadDbRecord(db->active_disk_, kManifestFile));
  const uint8_t* p = manifest.data();
  const uint8_t* end = manifest.data() + manifest.size();
  if (p + 8 > end) return Status::InvalidArgument("truncated manifest");
  uint64_t count = GetFixed64(p);
  p += 8;
  for (uint64_t i = 0; i < count; ++i) {
    if (p + 4 > end) return Status::InvalidArgument("truncated manifest");
    uint32_t len = GetFixed32(p);
    p += 4;
    if (p + len + 1 > end) return Status::InvalidArgument("bad manifest");
    std::string name(reinterpret_cast<const char*>(p), len);
    p += len;
    uint8_t has_index = *p++;
    TEXTJOIN_ASSIGN_OR_RETURN(
        DocumentCollection col,
        OpenCollection(db->active_disk_, CatalogName(name, false)));
    db->collections_.emplace(
        name, std::make_unique<DocumentCollection>(std::move(col)));
    if (has_index != 0) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          InvertedFile inv,
          OpenInvertedFile(db->active_disk_, CatalogName(name, true)));
      db->indexes_.emplace(name,
                           std::make_unique<InvertedFile>(std::move(inv)));
    }
  }

  // Dynamic collections (absent from images saved before they existed).
  // Each reopen replays that collection's WAL; flipped bytes surface here
  // as kDataLoss.
  Result<std::vector<uint8_t>> dyn =
      ReadDbRecord(db->active_disk_, kDynamicFile);
  if (dyn.ok()) {
    const uint8_t* q = dyn->data();
    const uint8_t* qend = q + dyn->size();
    if (q + 8 > qend) {
      return Status::InvalidArgument("truncated dynamic record");
    }
    uint64_t dyn_count = GetFixed64(q);
    q += 8;
    for (uint64_t i = 0; i < dyn_count; ++i) {
      if (q + 4 > qend) {
        return Status::InvalidArgument("truncated dynamic record");
      }
      uint32_t len = GetFixed32(q);
      q += 4;
      if (q + len > qend) {
        return Status::InvalidArgument("bad dynamic record");
      }
      std::string name(reinterpret_cast<const char*>(q), len);
      q += len;
      TEXTJOIN_ASSIGN_OR_RETURN(
          std::unique_ptr<DynamicCollection> dc,
          DynamicCollection::Open(db->active_disk_, name));
      db->dynamic_.emplace(name, std::move(dc));
    }
  } else if (dyn.status().code() != StatusCode::kNotFound) {
    return dyn.status();
  }
  return db;
}

}  // namespace textjoin
