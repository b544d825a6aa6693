// bench_e2e: the wall-clock end-to-end benchmark of textjoin. One workload
// per process, single-threaded.
//
//   bench_e2e --workload=<name> --seed=<n> [--seconds=<s>] [--trace=<file>]
//   bench_e2e --smoke
//
// Workloads (README.md in this directory says why each one exists):
//   join-self-wsj     Database::Join, two WSJ-shaped collections (HHNL)
//   join-select-doe   Database::ExecuteSql with a selection on B (HVNL)
//   join-cross-frdoe  Database::Join, FR-shaped inner x DOE-shaped outer (VVM)
//   serve-read        closed-loop QueryScheduler reads over a static index
//   serve-churn       the same loop over a dynamic collection, 30% writes
//
// Inputs come from --seed through the benchmark's own generator: synthetic
// text ("t<id> t<id> ..."), terms drawn Zipf(1.0) from a fixed universe
// until a document holds k distinct terms. The library only ever sees that
// text, through its public API.
//
// Each run sets up at least three times (setup_s is the median; serve-churn
// also sets up a fresh collection for every repetition), runs one untimed
// warm-up, then timed repetitions until --seconds have passed. Output is one
// line per metric on stdout: "name value unit n=<samples>".
//
// --trace=<file> is the per-layer run. Untraced and traced repetitions
// alternate; a traced repetition makes the same public calls one at a time,
// each inside a span (name, start, end, parent, request id). Spans are kept
// in memory and written to <file> as Chrome trace JSON at exit. Per-layer
// metrics come from the spans and from the executors' PhaseStats trees;
// obs.trace_overhead = traced / untraced wall - 1.
//
// --smoke runs all five workloads at toy size in the traced mode, so every
// correctness check runs, and writes no trace file.
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include <sys/resource.h>

#include "index/posting_cursor.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "kernel/calibrate.h"
#include "kernel/dispatch.h"
#include "planner/planner.h"
#include "relational/database.h"
#include "relational/predicate.h"
#include "relational/sql_parser.h"
#include "relational/table.h"

namespace textjoin {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kAlpha = 5.0;
constexpr int64_t kJoinLambda = 20;
constexpr int64_t kServeLambda = 10;

// ---------------------------------------------------------------------------
// Input generation. The generator belongs to the benchmark, so a change to
// the library's own Rng cannot change the inputs.

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Independent streams of one seed (documents of A, of B, queries, ...).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(seed * 0x2545f4914f6cdd1dull + stream).Next();
}

// Rank r in [0, n) with probability proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double sum = 0;
    for (int64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[static_cast<size_t>(r)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  int64_t Sample(SplitMix64* rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng->Uniform());
    return std::min<int64_t>(it - cdf_.begin(),
                             static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Shape {
  int64_t docs = 0;
  int64_t terms = 0;     // distinct terms per document
  int64_t universe = 0;  // distinct terms the Zipf draw ranges over
};

// Draws terms until the document holds `distinct` different ones; a term
// drawn r times occurs r times in the text.
std::string MakeText(SplitMix64* rng, const Zipf& zipf, int64_t distinct) {
  std::unordered_set<int64_t> seen;
  std::string text;
  while (static_cast<int64_t>(seen.size()) < distinct) {
    const int64_t term = zipf.Sample(rng);
    seen.insert(term);
    if (!text.empty()) text.push_back(' ');
    text.push_back('t');
    text += std::to_string(term);
  }
  return text;
}

// The paper's standard term-number mapping shared by all sites: "t<r>" gets
// term number r in every set-up, whatever the seed. Without it numbers
// follow first appearance, which differs per seed, and HVNL's term order,
// hence its pruning, changes with it: two seeds doing the same counted work
// measured 0.9 s and 1.4 s per join-select-doe query.
Status RegisterTerms(Database* db, int64_t universe) {
  for (int64_t t = 0; t < universe; ++t) {
    TEXTJOIN_RETURN_IF_ERROR(
        db->vocabulary()->AddOrGet("t" + std::to_string(t)).status());
  }
  return Status::OK();
}

std::vector<std::string> MakeTexts(uint64_t seed, const Shape& shape) {
  SplitMix64 rng(seed);
  const Zipf zipf(shape.universe, 1.0);
  std::vector<std::string> texts;
  texts.reserve(static_cast<size_t>(shape.docs));
  for (int64_t d = 0; d < shape.docs; ++d) {
    texts.push_back(MakeText(&rng, zipf, shape.terms));
  }
  return texts;
}

// ---------------------------------------------------------------------------
// Statistics and output.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// A percentile is reported only with at least ten samples beyond it.
bool Supported(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return static_cast<double>(n) - rank >= 10;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// FNV-1a over every doc id and score bit pattern of a result.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void AddScore(double score) {
    uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit,
           int64_t n) {
    std::printf("%s %.17g %s n=%" PRId64 "\n", name.c_str(), value, unit, n);
  }
  void AddDigest(uint64_t digest, int64_t n) {
    std::printf("result_digest %016" PRIx64 " hex n=%" PRId64 "\n", digest,
                n);
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
    ++failures_;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as Chrome trace JSON at exit.

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  int64_t Begin(const char* name, int64_t request) {
    const int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back(
        Span{name, NowUs(), 0, open_.empty() ? -1 : open_.back(), request});
    open_.push_back(id);
    return id;
  }
  void End(int64_t id) {
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    open_.pop_back();
  }

  // Durations in seconds of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_us - s.start_us) / 1e6);
    }
    return out;
  }

  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%" PRId64 ",\"request\":%" PRId64 "}}\n",
                   i == 0 ? "" : ",", s.name, s.start_us,
                   s.end_us - s.start_us, i, s.parent, s.request);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;  // -1 at top level
    int64_t request;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

// RAII span; a no-op without a tracer, so untraced runs pay one branch.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// What every workload function receives.
struct Env {
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  Tracer* tracer = nullptr;  // non-null in the per-layer (traced) run
  Report* report = nullptr;
};

// Set-up timing shared by all workloads.
struct SetupTimes {
  std::vector<double> total_s, ingest_s, build_s;

  void Record(double ingest, double build) {
    ingest_s.push_back(ingest);
    build_s.push_back(build);
    total_s.push_back(ingest + build);
  }
  // At least three set-ups; cheap ones repeat up to 15 times within 2 s so
  // their median is not one noisy tenth of a second.
  bool WantMore() const {
    return total_s.size() < 3 || (total_s.size() < 15 && Sum(total_s) < 2.0);
  }
};

void ReportCommon(const Env& env, const SetupTimes& setup, int64_t attempted,
                  int64_t failed) {
  Report& r = *env.report;
  const int64_t n = static_cast<int64_t>(setup.total_s.size());
  r.Add("setup_s", Median(setup.total_s), "s", n);
  r.Add("text.ingest_s", Median(setup.ingest_s), "s", n);
  r.Add("index.build_s", Median(setup.build_s), "s", n);
  r.Add("ops_attempted", static_cast<double>(attempted), "count", 1);
  r.Add("ops_failed", static_cast<double>(failed), "count", 1);
  r.Add("failed_frac",
        Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "ratio", attempted);
  r.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
}

// Layer metrics every workload reports: the calibrated kernel costs of the
// active dispatch level and a PostingCursor sweep of the workload's index.
Status ReportKernelAndDecode(const Env& env, const InvertedFile& index) {
  const kernel::CalibratedCosts& cal = kernel::Calibrated();
  Report& r = *env.report;
  r.Add("kernel.level", static_cast<double>(kernel::ActiveLevel()), "level",
        1);
  r.Add("kernel.ns_per_merge_step", cal.ns_per_merge_step, "ns", 1);
  r.Add("kernel.ns_per_accumulation", cal.ns_per_accumulation, "ns", 1);
  r.Add("kernel.ns_per_cell_gv", cal.ns_per_cell_gv, "ns", 1);

  int64_t cells = 0;
  const Clock::time_point t0 = Clock::now();
  {
    SpanScope span(env.tracer, "index.decode_sweep", 0);
    for (int64_t e = 0; e < index.num_terms(); ++e) {
      PostingCursor cursor(&index, e);
      TEXTJOIN_RETURN_IF_ERROR(cursor.Init());
      while (!cursor.done()) TEXTJOIN_RETURN_IF_ERROR(cursor.Next());
      cells += cursor.cells_decoded();
    }
  }
  const double elapsed = SecondsSince(t0);
  r.Add("index.decode_ns_per_cell",
        Ratio(elapsed * 1e9, static_cast<double>(cells)), "ns", cells);
  r.Add("index.pages", static_cast<double>(index.size_in_pages()), "pages",
        1);
  return Status::OK();
}

// The planner's choice (0 HHNL, 1 HVNL, 2 VVM) and its predicted sequential
// cost of each algorithm, so the margin behind the choice is visible.
void ReportPlan(Report* r, const PlanChoice& plan) {
  r->Add("planner.algorithm", static_cast<double>(plan.algorithm), "id", 1);
  for (Algorithm a : {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
    r->Add(std::string("planner.predicted_") + AlgorithmName(a),
           plan.costs.of(a).seq, "pages", 1);
  }
}

// ---------------------------------------------------------------------------
// Join workloads: Database::Join / Database::ExecuteSql, one join per
// operation.

struct JoinWorkload {
  Shape inner;  // collection A, C1 of the paper
  Shape outer;  // collection B, C2
  int64_t page_size = 4096;
  int64_t buffer_pages = 10000;
  bool idf_cosine = true;
  // > 0: the ExecuteSql form, `B.grp = k` selecting 1/groups of B's rows.
  int64_t groups = 0;
  Algorithm intended = Algorithm::kHhnl;
};

// Shapes follow the paper's TREC statistics (WSJ K=329 T=156k, FR K=1017
// T=126k, DOE K=89 T=186k), with K/4 terms per document and T/5 terms in the
// universe, at sizes one join runs in about a second. B is set so the
// planner's choice is the one the workload exists to measure.
JoinWorkload MakeJoinWorkload(const std::string& name, bool smoke) {
  JoinWorkload w;
  if (name == "join-self-wsj") {
    w.inner = w.outer = {1000, 82, 30000};
    w.page_size = 512;
    w.buffer_pages = 200;  // about D/4, the paper's B/D ratio
    w.intended = Algorithm::kHhnl;
    if (smoke) w.inner = w.outer = {60, 20, 2000};
  } else if (name == "join-select-doe") {
    w.inner = w.outer = {60000, 22, 37000};
    w.page_size = 512;
    w.buffer_pages = 2048;
    w.idf_cosine = false;  // SIMILAR_TO in SQL scores raw dot products
    w.groups = 600;
    w.intended = Algorithm::kHvnl;
    if (smoke) {
      w.inner = w.outer = {1200, 10, 2000};
      w.groups = 60;
    }
  } else {  // join-cross-frdoe
    w.inner = {300, 254, 25000};
    w.outer = {3000, 22, 37000};
    w.page_size = 4096;
    w.buffer_pages = 128;
    w.intended = Algorithm::kVvm;
    if (smoke) {
      w.inner = {30, 40, 2000};
      w.outer = {200, 10, 2000};
    }
  }
  return w;
}

// A join output as (outer, inner, score) triples in result order: document
// numbers for Database::Join, table rows for ExecuteSql.
struct Pair {
  int64_t outer = 0;
  int64_t inner = 0;
  double score = 0;
};
using Pairs = std::vector<Pair>;

bool SamePairs(const Pairs& a, const Pairs& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].outer != b[i].outer || a[i].inner != b[i].inner ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void AddPairs(const Pairs& pairs, Digest* digest) {
  for (const Pair& p : pairs) {
    digest->Add(static_cast<uint64_t>(p.outer));
    digest->Add(static_cast<uint64_t>(p.inner));
    digest->AddScore(p.score);
  }
}

Pairs FromJoin(const JoinResult& result) {
  Pairs pairs;
  for (const OuterMatches& om : result) {
    for (const Match& m : om.matches) {
      pairs.push_back(Pair{om.outer_doc, m.doc, m.score});
    }
  }
  return pairs;
}

// Tables own nothing the Database needs at destruction, but the Database
// must not outlive them while it runs SQL: tables are declared first so the
// database is destroyed first.
struct JoinSetup {
  std::vector<std::unique_ptr<Table>> tables;
  std::unique_ptr<Database> db;
};

Result<std::unique_ptr<Table>> MakeTable(Database* db, const std::string& name,
                                         int64_t groups) {
  auto table = std::make_unique<Table>(
      name, std::vector<Column>{{"id", ColumnType::kInt},
                                {"grp", ColumnType::kInt},
                                {"body", ColumnType::kText}});
  const DocumentCollection* collection = db->collection(name);
  TEXTJOIN_RETURN_IF_ERROR(table->AttachCollection("body", collection));
  for (int64_t r = 0; r < collection->num_documents(); ++r) {
    TEXTJOIN_RETURN_IF_ERROR(table->AddRow(
        {Value(r), Value(r % groups), Value(TextRef{static_cast<DocId>(r)})}));
  }
  TEXTJOIN_RETURN_IF_ERROR(db->RegisterTable(table.get()));
  return table;
}

Result<JoinSetup> SetUpJoin(const JoinWorkload& w,
                            const std::vector<std::string>& inner,
                            const std::vector<std::string>& outer,
                            Tracer* tracer, SetupTimes* times) {
  JoinSetup s;
  s.db = std::make_unique<Database>(w.page_size);
  s.db->set_system_params(SystemParams{w.buffer_pages, w.page_size, kAlpha});
  Clock::time_point t0 = Clock::now();
  {
    SpanScope span(tracer, "text.ingest", 0);
    TEXTJOIN_RETURN_IF_ERROR(RegisterTerms(
        s.db.get(), std::max(w.inner.universe, w.outer.universe)));
    TEXTJOIN_RETURN_IF_ERROR(s.db->AddCollectionFromText("A", inner).status());
    TEXTJOIN_RETURN_IF_ERROR(s.db->AddCollectionFromText("B", outer).status());
    if (w.groups > 0) {
      for (const char* name : {"A", "B"}) {
        TEXTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                                  MakeTable(s.db.get(), name, w.groups));
        s.tables.push_back(std::move(table));
      }
    }
  }
  const double ingest = SecondsSince(t0);
  t0 = Clock::now();
  {
    SpanScope span(tracer, "index.build", 0);
    for (const char* name : {"A", "B"}) {
      TEXTJOIN_RETURN_IF_ERROR(
          s.db->BuildIndex(name, PostingCompression::kGroupVarint).status());
    }
  }
  times->Record(ingest, SecondsSince(t0));
  return s;
}

struct JoinRun {
  Pairs pairs;
  double wall_s = 0;
  double io_cost = 0;
  PlanChoice plan;
};

// One untraced operation, exactly as a user issues it.
Result<JoinRun> RunJoin(JoinSetup* s, const JoinWorkload& w,
                        const std::string& sql, const JoinSpec& spec) {
  JoinRun run;
  const IoStats before = s->db->disk()->stats();
  const Clock::time_point t0 = Clock::now();
  if (w.groups > 0) {
    TEXTJOIN_ASSIGN_OR_RETURN(Database::SqlOutput out, s->db->ExecuteSql(sql));
    run.wall_s = SecondsSince(t0);
    for (const QueryResultRow& row : out.result.rows) {
      run.pairs.push_back(Pair{row.outer_row, row.inner_row, row.score});
    }
    run.plan = std::move(out.result.plan);
  } else {
    TEXTJOIN_ASSIGN_OR_RETURN(JoinResult result,
                              s->db->Join("A", "B", spec, &run.plan));
    run.wall_s = SecondsSince(t0);
    run.pairs = FromJoin(result);
  }
  run.io_cost = (s->db->disk()->stats() - before).Cost(kAlpha);
  return run;
}

// The calls one operation makes, one at a time: for SQL the parse and the
// selections, then the similarity context, the plan and the executor. Kept
// on the heap because `ctx.similarity` points into it.
struct PreparedJoin {
  JoinSpec spec;
  SimilarityContext similarity;
  JoinContext ctx;
  // ExecuteSql form: document -> selected table row, -1 when unselected.
  std::vector<int64_t> inner_row;
  std::vector<int64_t> outer_row;
};

// The participating documents of one SQL side, mirroring the executor:
// every document a selected row references, ascending, and the map back.
Status ResolveSide(const Table& table, const std::string& column,
                   const std::vector<const Predicate*>& predicates,
                   std::vector<DocId>* subset, std::vector<int64_t>* row_of) {
  const int64_t c = table.ColumnIndex(column);
  const DocumentCollection* collection = table.CollectionOf(c);
  if (collection == nullptr) {
    return Status::FailedPrecondition("no collection on " + column);
  }
  row_of->assign(static_cast<size_t>(collection->num_documents()), -1);
  std::vector<DocId> docs;
  for (int64_t r : SelectRows(table, predicates)) {
    const DocId doc = std::get<TextRef>(table.at(r, c)).doc;
    (*row_of)[doc] = r;
    docs.push_back(doc);
  }
  std::sort(docs.begin(), docs.end());
  if (static_cast<int64_t>(docs.size()) < collection->num_documents()) {
    *subset = std::move(docs);
  }
  return Status::OK();
}

Result<std::unique_ptr<PreparedJoin>> PrepareJoin(
    JoinSetup* s, const JoinWorkload& w, const std::string& sql,
    const JoinSpec& spec, Tracer* tracer, int64_t request,
    double* similarity_pages) {
  auto p = std::make_unique<PreparedJoin>();
  p->spec = spec;
  if (w.groups > 0) {
    std::vector<const Table*> tables;
    for (const auto& t : s->tables) tables.push_back(t.get());
    Result<BoundQuery> bound = Status::Internal("unparsed");
    {
      SpanScope span(tracer, "relational.parse", request);
      bound = SqlParser(tables).Parse(sql);
    }
    TEXTJOIN_RETURN_IF_ERROR(bound.status());
    const TextJoinQuery& q = bound->query();
    p->spec.lambda = q.lambda;
    p->spec.similarity = q.similarity;
    SpanScope span(tracer, "relational.select", request);
    TEXTJOIN_RETURN_IF_ERROR(ResolveSide(*q.inner_table, q.inner_text_column,
                                         q.inner_predicates,
                                         &p->spec.inner_subset,
                                         &p->inner_row));
    TEXTJOIN_RETURN_IF_ERROR(ResolveSide(*q.outer_table, q.outer_text_column,
                                         q.outer_predicates,
                                         &p->spec.outer_subset,
                                         &p->outer_row));
  }
  const DocumentCollection* inner = s->db->collection("A");
  const DocumentCollection* outer = s->db->collection("B");
  {
    SpanScope span(tracer, "join.similarity", request);
    const IoStats before = s->db->disk()->stats();
    TEXTJOIN_ASSIGN_OR_RETURN(
        p->similarity,
        SimilarityContext::Create(*inner, *outer, p->spec.similarity));
    *similarity_pages = (s->db->disk()->stats() - before).Cost(kAlpha);
  }
  p->ctx.inner = inner;
  p->ctx.outer = outer;
  p->ctx.inner_index = s->db->index("A");
  p->ctx.outer_index = s->db->index("B");
  p->ctx.similarity = &p->similarity;
  p->ctx.sys = s->db->system_params();
  return p;
}

// Maps an executor's document-level result the way the SQL executor does.
Pairs MapPairs(const PreparedJoin& p, const JoinResult& result) {
  if (p.outer_row.empty()) return FromJoin(result);
  Pairs pairs;
  for (const OuterMatches& om : result) {
    const int64_t orow = p.outer_row[om.outer_doc];
    if (orow < 0) continue;
    for (const Match& m : om.matches) {
      const int64_t irow = p.inner_row[m.doc];
      if (irow >= 0) pairs.push_back(Pair{orow, irow, m.score});
    }
  }
  return pairs;
}

// Per-layer measurements of the traced join operations.
struct JoinLayers {
  std::vector<double> op_s;
  double similarity_pages = 0;
  PlanChoice plan;
  QueryStats stats;  // of the last traced run; identical across runs but wall
  std::map<std::string, std::vector<double>> phase_wall_s;
};

Result<Pairs> TracedJoin(JoinSetup* s, const JoinWorkload& w,
                         const std::string& sql, const JoinSpec& spec,
                         Tracer* tracer, int64_t request, JoinLayers* layers,
                         std::unique_ptr<PreparedJoin>* kept) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<PreparedJoin> p;
  Result<AnalyzedJoin> analyzed = Status::Internal("not run");
  {
    SpanScope op(tracer, "join.op", request);
    TEXTJOIN_ASSIGN_OR_RETURN(p, PrepareJoin(s, w, sql, spec, tracer, request,
                                             &layers->similarity_pages));
    {
      SpanScope span(tracer, "planner.plan", request);
      Result<PlanChoice> plan = JoinPlanner().Plan(p->ctx, p->spec);
      TEXTJOIN_RETURN_IF_ERROR(plan.status());
      layers->plan = std::move(plan).value();
    }
    SpanScope span(tracer, "join.exec", request);
    analyzed = JoinPlanner().ExecuteAnalyze(p->ctx, p->spec);
  }
  layers->op_s.push_back(SecondsSince(t0));
  TEXTJOIN_RETURN_IF_ERROR(analyzed.status());
  for (const PhaseStats& phase : analyzed->stats.root.children) {
    layers->phase_wall_s[phase.label].push_back(phase.wall_seconds);
  }
  layers->stats = std::move(analyzed->stats);
  Pairs pairs = MapPairs(*p, analyzed->result);
  *kept = std::move(p);
  return pairs;
}

std::string MetricLabel(std::string label) {
  std::replace(label.begin(), label.end(), ' ', '_');
  return label;
}

// Every executor forced on the traced context: each must return the chosen
// plan's result, and their walls give planner.regret. Executors predicted
// more than 20x the chosen one's cost are skipped.
void ForceExecutors(const Env& env, const PreparedJoin& p,
                    const PlanChoice& plan, const Pairs& expected) {
  Report& r = *env.report;
  const double chosen_cost = plan.costs.of(plan.algorithm).seq;
  double chosen_s = 0;
  double fastest_s = 0;
  for (Algorithm a : {Algorithm::kHhnl, Algorithm::kHvnl, Algorithm::kVvm}) {
    const AlgorithmCost& cost = plan.costs.of(a);
    std::string name = AlgorithmName(a);
    for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
    if (!cost.feasible || cost.seq > 20 * chosen_cost) {
      std::printf("# join.%s_s skipped: predicted %.0f pages vs chosen %.0f\n",
                  name.c_str(), cost.seq, chosen_cost);
      continue;
    }
    std::unique_ptr<TextJoinAlgorithm> executor;
    if (a == Algorithm::kHhnl) {
      executor = std::make_unique<HhnlJoin>(
          HhnlJoin::Options{plan.hhnl_backward});
    } else if (a == Algorithm::kHvnl) {
      executor = std::make_unique<HvnlJoin>();
    } else {
      executor = std::make_unique<VvmJoin>();
    }
    const Clock::time_point t0 = Clock::now();
    Result<JoinResult> result = Status::Internal("not run");
    {
      SpanScope span(env.tracer, "join.forced", 0);
      result = executor->Run(p.ctx, p.spec);
    }
    const double wall = SecondsSince(t0);
    r.Check(result.ok() && SamePairs(MapPairs(p, *result), expected),
            "forced " + name + " result differs from the chosen plan's");
    r.Add("join." + name + "_s", wall, "s", 1);
    if (a == plan.algorithm) chosen_s = wall;
    if (fastest_s == 0 || wall < fastest_s) fastest_s = wall;
  }
  r.Add("planner.regret", Ratio(chosen_s, fastest_s), "ratio", 1);
}

void ReportJoinLayers(const Env& env, const JoinLayers& layers) {
  Report& r = *env.report;
  const Tracer& t = *env.tracer;
  const int64_t n = static_cast<int64_t>(layers.op_s.size());
  auto span_median = [&](const char* span, const char* metric) {
    const std::vector<double> d = t.Durations(span);
    r.Add(metric, Median(d), "s", static_cast<int64_t>(d.size()));
  };
  span_median("relational.parse", "relational.parse_s");
  span_median("relational.select", "relational.select_s");
  span_median("join.similarity", "join.similarity_s");
  span_median("planner.plan", "planner.plan_s");
  span_median("join.exec", "join.exec_s");
  r.Add("join.similarity_pages", layers.similarity_pages, "pages", n);

  const PhaseStats& root = layers.stats.root;
  const double measured = root.io.Cost(kAlpha);
  const double predicted = layers.plan.costs.of(layers.plan.algorithm).seq;
  r.Add("planner.cost_error", Ratio(predicted, measured) - 1, "ratio", n);
  for (const PhaseStats& phase : root.children) {
    const std::string base = "join.phase." + MetricLabel(phase.label);
    auto it = layers.phase_wall_s.find(phase.label);
    r.Add(base + ".wall_s",
          it == layers.phase_wall_s.end() ? 0 : Median(it->second), "s", n);
    r.Add(base + ".pages", phase.io.Cost(kAlpha), "pages", n);
  }
  const CpuStats& c = root.cpu;
  r.Add("join.cell_compares", static_cast<double>(c.cell_compares), "count", n);
  r.Add("join.accumulations", static_cast<double>(c.accumulations), "count", n);
  r.Add("join.heap_offers", static_cast<double>(c.heap_offers), "count", n);
  r.Add("join.cells_decoded", static_cast<double>(c.cells_decoded), "count", n);
  r.Add("join.bound_checks", static_cast<double>(c.bound_checks), "count", n);
  r.Add("join.pairs_pruned", static_cast<double>(c.pairs_pruned), "count", n);
  r.Add("join.blocks_skipped", static_cast<double>(c.blocks_skipped), "count",
        n);
  r.Add("join.prune_ratio",
        Ratio(static_cast<double>(c.pairs_pruned),
              static_cast<double>(c.bound_checks)),
        "ratio", n);
  r.Add("join.ns_per_step",
        Ratio(Median(t.Durations("join.exec")) * 1e9, c.Total()), "ns", n);
}

Status RunJoinWorkload(const Env& env, const std::string& name) {
  const JoinWorkload w = MakeJoinWorkload(name, env.smoke);
  Report& r = *env.report;
  const std::vector<std::string> inner_texts =
      MakeTexts(StreamSeed(env.seed, 1), w.inner);
  const std::vector<std::string> outer_texts =
      MakeTexts(StreamSeed(env.seed, 2), w.outer);

  JoinSpec spec;
  spec.lambda = kJoinLambda;
  spec.similarity = SimilarityConfig{w.idf_cosine, w.idf_cosine};
  // Operations cycle through the queries: one for Database::Join; for the
  // SQL form, kSelections groups spread over the seed's range. One group's
  // 100 rows alone moved the query time by +-8% between groups, so a run's
  // median has to span several.
  constexpr int kSelections = 5;
  std::vector<std::string> queries = {""};
  if (w.groups > 0) {
    queries.clear();
    const uint64_t k0 = SplitMix64(StreamSeed(env.seed, 4)).Next();
    for (int q = 0; q < kSelections; ++q) {
      const uint64_t k = (k0 + static_cast<uint64_t>(q * w.groups /
                                                      kSelections)) %
                         static_cast<uint64_t>(w.groups);
      queries.push_back("SELECT A.id, B.id FROM A, B WHERE B.grp = " +
                        std::to_string(k) + " AND A.body SIMILAR_TO(" +
                        std::to_string(kJoinLambda) + ") B.body");
    }
  }

  SetupTimes setup;
  JoinSetup s;
  while (setup.WantMore()) {
    s = JoinSetup();  // release the previous set-up before the next
    TEXTJOIN_ASSIGN_OR_RETURN(
        s, SetUpJoin(w, inner_texts, outer_texts, env.tracer, &setup));
  }

  // The first run of each query is the reference its later runs must
  // equal; the warm-up is the first run of query 0.
  std::vector<JoinRun> reference;
  {
    TEXTJOIN_ASSIGN_OR_RETURN(JoinRun warm, RunJoin(&s, w, queries[0], spec));
    reference.push_back(std::move(warm));
  }
  const PlanChoice plan = reference[0].plan;  // `reference` grows below
  if (!env.smoke && plan.algorithm != w.intended) {
    std::fprintf(stderr, "bench_e2e: %s: the planner chose %s, not %s\n",
                 name.c_str(), AlgorithmName(plan.algorithm),
                 AlgorithmName(w.intended));
  }

  std::vector<double> walls;
  JoinLayers layers;
  std::unique_ptr<PreparedJoin> prepared;
  size_t prepared_query = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  const Clock::time_point start = Clock::now();
  const size_t min_ops = std::max<size_t>(env.smoke ? 1 : 3, queries.size());
  for (size_t op = 0; op < min_ops || SecondsSince(start) < env.seconds;
       ++op) {
    const size_t q = op % queries.size();
    ++attempted;
    TEXTJOIN_ASSIGN_OR_RETURN(JoinRun run, RunJoin(&s, w, queries[q], spec));
    walls.push_back(run.wall_s);
    if (q == reference.size()) {
      reference.push_back(std::move(run));
    } else if (!SamePairs(run.pairs, reference[q].pairs) ||
               run.io_cost != reference[q].io_cost) {
      ++failed;
      r.Check(false, "join result or I/O differs from its first run");
    }
    if (env.tracer != nullptr) {
      Result<Pairs> traced = TracedJoin(&s, w, queries[q], spec, env.tracer,
                                        static_cast<int64_t>(op) + 1, &layers,
                                        &prepared);
      prepared_query = q;
      r.Check(traced.ok() && SamePairs(*traced, reference[q].pairs),
              "traced step-by-step result differs from the untraced one");
    }
  }

  Digest digest;
  double io_cost = 0;
  int64_t pairs = 0;
  for (const JoinRun& ref : reference) {
    AddPairs(ref.pairs, &digest);
    io_cost += ref.io_cost / static_cast<double>(reference.size());
    pairs += static_cast<int64_t>(ref.pairs.size());
  }
  const int64_t n = static_cast<int64_t>(walls.size());
  r.Add("latency_p50_ms", Median(walls) * 1e3, "ms", n);
  r.Add("join_s", Median(walls), "s", n);
  r.Add("ops_per_s", Ratio(static_cast<double>(n), Sum(walls)), "1/s", n);
  r.Add("io_pages_per_op", io_cost, "pages", n);
  r.Add("join_io_cost", io_cost, "pages", n);
  r.Add("result_pairs", static_cast<double>(pairs), "count",
        static_cast<int64_t>(reference.size()));
  ReportPlan(&r, plan);
  r.AddDigest(digest.value(), static_cast<int64_t>(reference.size()));
  if (env.tracer != nullptr) {
    ReportJoinLayers(env, layers);
    r.Add("obs.trace_overhead", Median(layers.op_s) / Median(walls) - 1,
          "ratio", n);
    ForceExecutors(env, *prepared, layers.plan,
                   reference[prepared_query].pairs);
  }
  TEXTJOIN_RETURN_IF_ERROR(ReportKernelAndDecode(env, *s.db->index("A")));
  ReportCommon(env, setup, attempted, failed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Serving workloads: a closed loop of kClients clients against the
// QueryScheduler. Every batch, each client submits one operation, then
// Run() drains the batch; a batch's latency is the wall time from its first
// submission to Run()'s return.

constexpr int kClients = 4;

struct ServeWorkload {
  Shape docs;
  int64_t vectors = 1000;      // distinct query vectors, Zipf(1.0)-drawn
  int64_t ops_per_rep = 0;
  double write_frac = 0;       // 0: static collection, reads only
  int64_t compact_every = 0;   // writes between background compactions
  int64_t probe_docs = 0;      // outer side of the delta joins
  int64_t delta_joins = 0;     // per repetition
  int64_t direct_inserts = 0;  // traced run: Database::InsertDocument calls
};

ServeWorkload MakeServeWorkload(const std::string& name, bool smoke) {
  ServeWorkload w;
  w.docs = {20000, 40, 20000};
  if (name == "serve-read") {
    w.ops_per_rep = 40000;
  } else {  // serve-churn
    w.ops_per_rep = 12000;
    w.write_frac = 0.3;
    w.compact_every = 500;
    w.probe_docs = 20;
    w.delta_joins = 3;
    w.direct_inserts = 200;
  }
  if (smoke) {
    w.docs = {400, 20, 2000};
    w.vectors = 100;
    w.ops_per_rep = 400;
    w.compact_every = 30;
    w.direct_inserts = 10;
  }
  return w;
}

// The pool is smaller than the index and the cache holds a fraction of the
// query vectors, so both pool misses and cache misses happen.
ServeOptions MakeServeOptions() {
  ServeOptions o;
  o.buffer_pool_pages = 256;
  o.result_cache_entries = 64;
  o.shared_scans = true;
  for (int c = 0; c < kClients; ++c) {
    o.tenants.push_back({"c" + std::to_string(c), 64});
  }
  return o;
}

struct ServeOp {
  enum class Kind { kQuery, kInsert, kDelete };
  Kind kind = Kind::kQuery;
  int64_t vector = 0;  // query: index into the vector pool
  std::string text;    // insert payload
  uint64_t pick = 0;   // delete: chooses among the live keys at submission
};

struct ServeInputs {
  std::vector<std::string> docs;
  std::vector<std::string> probe;
  std::vector<std::string> vectors;
  std::vector<ServeOp> ops;
  std::vector<std::string> direct_inserts;
};

ServeInputs MakeServeInputs(uint64_t seed, const ServeWorkload& w) {
  ServeInputs in;
  in.docs = MakeTexts(StreamSeed(seed, 1), w.docs);
  in.probe = MakeTexts(StreamSeed(seed, 2), {w.probe_docs, w.docs.terms,
                                             w.docs.universe});
  // Vector v has 3 + v % 6 terms. Its length does not depend on the seed,
  // because the few most popular vectors carry much of the load: at random
  // lengths their I/O made pages per operation vary 7% between seeds.
  const Zipf terms(w.docs.universe, 1.0);
  SplitMix64 rng(StreamSeed(seed, 3));
  for (int64_t v = 0; v < w.vectors; ++v) {
    in.vectors.push_back(MakeText(&rng, terms, 3 + v % 6));
  }
  const Zipf popularity(w.vectors, 1.0);
  for (int64_t i = 0; i < w.ops_per_rep; ++i) {
    ServeOp op;
    if (rng.Uniform() < w.write_frac) {
      if (rng.Uniform() < 2.0 / 3.0) {
        op.kind = ServeOp::Kind::kInsert;
        op.text = MakeText(&rng, terms, w.docs.terms);
      } else {
        op.kind = ServeOp::Kind::kDelete;
        op.pick = rng.Next();
      }
    } else {
      op.vector = popularity.Sample(&rng);
    }
    in.ops.push_back(std::move(op));
  }
  for (int64_t i = 0; i < w.direct_inserts; ++i) {
    in.direct_inserts.push_back(MakeText(&rng, terms, w.docs.terms));
  }
  return in;
}

Result<std::unique_ptr<Database>> SetUpServe(const ServeWorkload& w,
                                             const ServeInputs& in,
                                             Tracer* tracer,
                                             SetupTimes* times) {
  auto db = std::make_unique<Database>();
  // The delta joins read each side once under HHNL and under VVM alike when
  // memory is plentiful, so the planner's choice between them flipped with
  // the seed (VVM also peaks 25 MB higher). With B = 32 pages VVM needs a
  // second pass and HHNL wins on every seed.
  db->set_system_params(SystemParams{32, db->disk()->page_size(), kAlpha});
  Clock::time_point t0 = Clock::now();
  {
    SpanScope span(tracer, "text.ingest", 0);
    TEXTJOIN_RETURN_IF_ERROR(RegisterTerms(db.get(), w.docs.universe));
    if (w.write_frac > 0) {
      TEXTJOIN_RETURN_IF_ERROR(
          db->AddDynamicCollectionFromText("docs", in.docs).status());
      TEXTJOIN_RETURN_IF_ERROR(
          db->AddCollectionFromText("probe", in.probe).status());
    } else {
      TEXTJOIN_RETURN_IF_ERROR(
          db->AddCollectionFromText("docs", in.docs).status());
    }
  }
  const double ingest = SecondsSince(t0);
  t0 = Clock::now();
  {
    // A dynamic collection builds its index inside AddDynamicCollection-
    // FromText; here only the static side is indexed.
    SpanScope span(tracer, "index.build", 0);
    TEXTJOIN_RETURN_IF_ERROR(
        db->BuildIndex(w.write_frac > 0 ? "probe" : "docs",
                       PostingCompression::kGroupVarint)
            .status());
  }
  times->Record(ingest, SecondsSince(t0));
  return db;
}

struct ServeRep {
  double loop_s = 0;
  std::vector<double> batch_ms;
  std::vector<double> write_batch_ms;    // batches carrying a write
  std::vector<double> compact_batch_ms;  // batches carrying a compaction
  std::vector<double> delta_join_s;
  std::vector<double> sim_ms;            // simulated latency per query
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t queries = 0;
  int64_t cache_hits = 0;
  int64_t shared_scans = 0;
  int64_t scan_fetches = 0;
  int64_t shed = 0;
  int64_t admission_retries = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  IoStats io;
  uint64_t digest = 0;
  PlanChoice delta_plan;
  double delta_io_cost = 0;
  // First completed matches of every 100th query vector (the isolation
  // check re-runs them alone).
  std::map<int64_t, std::vector<Match>> checked;
};

void AddMatches(const std::vector<Match>& matches, Digest* digest) {
  digest->Add(matches.size());
  for (const Match& m : matches) {
    digest->Add(m.doc);
    digest->AddScore(m.score);
  }
}

// One repetition over ops[0, op_count) through a fresh scheduler (fresh
// cache and pool); on serve-churn `db` is a fresh set-up as well.
Status RunServeRep(Database* db, const ServeWorkload& w, const ServeInputs& in,
                   size_t op_count, Tracer* tracer, int64_t* request,
                   ServeRep* out) {
  TEXTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<QueryScheduler> sched,
                            db->NewScheduler(MakeServeOptions()));
  const bool churn = w.write_frac > 0;
  std::vector<DocKey> live;
  if (churn) live = db->dynamic_collection("docs")->LiveKeys();
  Digest digest;
  int64_t writes = 0;
  std::vector<int64_t> batch_vectors;
  const IoStats io_before = db->disk()->stats();
  const Clock::time_point loop_start = Clock::now();
  for (size_t first = 0; first < op_count; first += kClients) {
    const size_t last = std::min(op_count, first + kClients);
    bool has_write = false;
    bool has_compact = false;
    batch_vectors.clear();
    const int64_t req = ++*request;
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<QueryRecord>> records = Status::Internal("not run");
    {
      SpanScope batch(tracer, "serve.batch", req);
      for (size_t i = first; i < last; ++i) {
        const ServeOp& op = in.ops[i];
        ++out->attempted;
        if (op.kind == ServeOp::Kind::kQuery) {
          ServeQuery q;
          q.tenant = "c" + std::to_string(i - first);
          q.collection = "docs";
          q.text = in.vectors[static_cast<size_t>(op.vector)];
          q.lambda = kServeLambda;
          q.arrival_ms = sched->now_ms();
          SpanScope span(tracer, "serve.submit", req);
          TEXTJOIN_RETURN_IF_ERROR(sched->Submit(q).status());
          batch_vectors.push_back(op.vector);
          continue;
        }
        ServeWrite write;
        write.collection = "docs";
        write.arrival_ms = sched->now_ms();
        if (op.kind == ServeOp::Kind::kInsert) {
          write.kind = ServeWrite::Kind::kInsert;
          write.text = op.text;
        } else {
          if (live.empty()) {
            return Status::FailedPrecondition("no live document to delete");
          }
          const size_t at = static_cast<size_t>(op.pick % live.size());
          write.kind = ServeWrite::Kind::kDelete;
          write.key = live[at];
          live[at] = live.back();
          live.pop_back();
        }
        has_write = true;
        {
          SpanScope span(tracer, "serve.submit_write", req);
          TEXTJOIN_RETURN_IF_ERROR(sched->SubmitWrite(write).status());
        }
        if (w.compact_every > 0 && ++writes % w.compact_every == 0) {
          ServeWrite compact;
          compact.kind = ServeWrite::Kind::kCompact;
          compact.collection = "docs";
          compact.arrival_ms = sched->now_ms();
          TEXTJOIN_RETURN_IF_ERROR(sched->SubmitWrite(compact).status());
          has_compact = true;
        }
      }
      SpanScope span(tracer, "serve.run", req);
      records = sched->Run();
    }
    const double ms = SecondsSince(t0) * 1e3;
    TEXTJOIN_RETURN_IF_ERROR(records.status());
    out->batch_ms.push_back(ms);
    if (has_write) out->write_batch_ms.push_back(ms);
    if (has_compact) out->compact_batch_ms.push_back(ms);

    for (size_t q = 0; q < records->size(); ++q) {
      const QueryRecord& rec = (*records)[q];
      ++out->queries;
      out->shared_scans += rec.serving.shared_scans;
      out->scan_fetches += rec.serving.scan_fetches;
      out->admission_retries += rec.serving.admission_retries;
      if (rec.outcome == "shed") ++out->shed;
      if (rec.outcome != "completed") {
        ++out->failed;
        digest.Add(~0ull);
        continue;
      }
      if (rec.cache_hit) ++out->cache_hits;
      out->sim_ms.push_back(rec.latency_ms);
      AddMatches(rec.matches, &digest);
      const int64_t v = batch_vectors[q];
      if (v % 100 == 0 && out->checked.count(v) == 0) {
        out->checked[v] = rec.matches;
      }
    }
    for (const WriteRecord& rec : sched->TakeWriteRecords()) {
      if (rec.outcome != "applied") {
        if (rec.kind != "compact") ++out->failed;
        digest.Add(~0ull);
        continue;
      }
      if (rec.kind == "insert") live.push_back(rec.key);
      digest.Add(rec.key);
    }
  }
  out->loop_s = SecondsSince(loop_start);
  out->io = db->disk()->stats() - io_before;
  out->pool_hits = sched->pool()->hit_count();
  out->pool_misses = sched->pool()->miss_count();

  // The live dynamic collection joined against a small static probe; the
  // join merges the delta at query time.
  JoinSpec spec;
  spec.lambda = kJoinLambda;
  spec.similarity = SimilarityConfig{true, true};
  for (int64_t j = 0; j < w.delta_joins; ++j) {
    const IoStats before = db->disk()->stats();
    const Clock::time_point t0 = Clock::now();
    Result<JoinResult> joined = Status::Internal("not run");
    {
      SpanScope span(tracer, "dynamic.delta_join", ++*request);
      joined = db->Join("docs", "probe", spec, &out->delta_plan);
    }
    out->delta_join_s.push_back(SecondsSince(t0));
    out->delta_io_cost = (db->disk()->stats() - before).Cost(kAlpha);
    TEXTJOIN_RETURN_IF_ERROR(joined.status());
    AddPairs(FromJoin(*joined), &digest);
  }
  out->digest = digest.value();
  return Status::OK();
}

// The scheduler's invariant: a query's matches do not depend on the cache,
// shared scans or what it was interleaved with. Re-run each checked vector
// alone through a fresh scheduler with both off.
void CheckIsolated(const Env& env, Database* db, const ServeInputs& in,
                   const ServeRep& rep) {
  ServeOptions options = MakeServeOptions();
  options.result_cache_entries = 0;
  options.shared_scans = false;
  for (const auto& [vector, matches] : rep.checked) {
    Result<std::unique_ptr<QueryScheduler>> sched = db->NewScheduler(options);
    bool same = false;
    if (sched.ok()) {
      ServeQuery q;
      q.tenant = "c0";
      q.collection = "docs";
      q.text = in.vectors[static_cast<size_t>(vector)];
      q.lambda = kServeLambda;
      Result<std::vector<QueryRecord>> records = Status::Internal("not run");
      if ((*sched)->Submit(q).ok()) records = (*sched)->Run();
      same = records.ok() && records->size() == 1 &&
             (*records)[0].outcome == "completed" &&
             (*records)[0].matches == matches;
    }
    env.report->Check(same, "query vector " + std::to_string(vector) +
                                " differs when run alone");
  }
}

// Per-rep percentile, then the median across reps.
void AddLatency(Report* r, const std::vector<ServeRep>& reps,
                std::vector<double> ServeRep::*field, const char* name,
                double q) {
  std::vector<double> per_rep;
  size_t n = 0;
  for (const ServeRep& rep : reps) {
    const std::vector<double>& v = rep.*field;
    if (v.empty() || (q != 0.5 && !Supported(v.size(), q))) return;
    per_rep.push_back(Percentile(v, q));
    n = v.size();
  }
  if (!per_rep.empty()) {
    r->Add(name, Median(per_rep), "ms", static_cast<int64_t>(n));
  }
}

Status RunServeWorkload(const Env& env, const std::string& name) {
  const ServeWorkload w = MakeServeWorkload(name, env.smoke);
  const bool churn = w.write_frac > 0;
  Report& r = *env.report;
  const ServeInputs in = MakeServeInputs(env.seed, w);

  SetupTimes setup;
  std::unique_ptr<Database> db;
  while (setup.WantMore()) {
    db.reset();
    TEXTJOIN_ASSIGN_OR_RETURN(db, SetUpServe(w, in, env.tracer, &setup));
  }

  // Warm-up: the first tenth of the operations on the last set-up (which
  // serve-churn then discards).
  int64_t request = 0;
  {
    ServeRep warm;
    TEXTJOIN_RETURN_IF_ERROR(RunServeRep(db.get(), w, in, in.ops.size() / 10,
                                         nullptr, &request, &warm));
  }

  // One repetition; serve-churn sets up a fresh collection for each.
  auto run_rep = [&](Tracer* tracer, std::vector<ServeRep>* into) -> Status {
    if (churn) {
      db.reset();
      TEXTJOIN_ASSIGN_OR_RETURN(db, SetUpServe(w, in, env.tracer, &setup));
    }
    ServeRep rep;
    TEXTJOIN_RETURN_IF_ERROR(RunServeRep(db.get(), w, in, in.ops.size(),
                                         tracer, &request, &rep));
    into->push_back(std::move(rep));
    return Status::OK();
  };
  std::vector<ServeRep> reps;    // untraced
  std::vector<ServeRep> traced;  // per-layer run: alternates with `reps`
  const Clock::time_point start = Clock::now();
  const size_t min_reps = env.smoke || env.tracer != nullptr ? 1 : 2;
  while (reps.size() < min_reps || SecondsSince(start) < env.seconds) {
    TEXTJOIN_RETURN_IF_ERROR(run_rep(nullptr, &reps));
    if (env.tracer != nullptr) {
      TEXTJOIN_RETURN_IF_ERROR(run_rep(env.tracer, &traced));
    }
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> ops_per_s;
  for (const ServeRep& rep : reps) {
    attempted += rep.attempted;
    failed += rep.failed;
    ops_per_s.push_back(
        static_cast<double>(rep.attempted - rep.failed) / rep.loop_s);
  }
  for (const std::vector<ServeRep>* set : {&reps, &traced}) {
    for (const ServeRep& rep : *set) {
      r.Check(rep.digest == reps.front().digest,
              "result digest differs between repetitions");
    }
  }
  const ServeRep& first = reps.front();
  const int64_t n = static_cast<int64_t>(reps.size());
  AddLatency(&r, reps, &ServeRep::batch_ms, "latency_p50_ms", 0.5);
  AddLatency(&r, reps, &ServeRep::batch_ms, "query_p50_ms", 0.5);
  AddLatency(&r, reps, &ServeRep::batch_ms, "query_p99_ms", 0.99);
  r.Add("ops_per_s", Median(ops_per_s), "1/s", n);
  r.Add("io_pages_per_op",
        first.io.Cost(kAlpha) / static_cast<double>(first.attempted), "pages",
        first.attempted);
  if (churn) {
    AddLatency(&r, reps, &ServeRep::write_batch_ms, "write_p50_ms", 0.5);
    AddLatency(&r, reps, &ServeRep::write_batch_ms, "write_p99_ms", 0.99);
    std::vector<double> joins;
    for (const ServeRep& rep : reps) {
      joins.insert(joins.end(), rep.delta_join_s.begin(),
                   rep.delta_join_s.end());
    }
    r.Add("delta_join_s", Median(joins), "s",
          static_cast<int64_t>(joins.size()));
    ReportPlan(&r, first.delta_plan);
  } else {
    CheckIsolated(env, db.get(), in, first);
    r.Add("isolation_checks", static_cast<double>(first.checked.size()),
          "count", 1);
  }
  r.AddDigest(first.digest, n);

  if (env.tracer != nullptr) {
    const Tracer& t = *env.tracer;
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<double> compact_ms;
    for (const ServeRep& rep : reps) {
      untraced_s.push_back(rep.loop_s);
      compact_ms.insert(compact_ms.end(), rep.compact_batch_ms.begin(),
                        rep.compact_batch_ms.end());
    }
    for (const ServeRep& rep : traced) traced_s.push_back(rep.loop_s);
    r.Add("obs.trace_overhead", Median(traced_s) / Median(untraced_s) - 1,
          "ratio", static_cast<int64_t>(traced_s.size()));
    const std::vector<double> submit = t.Durations("serve.submit");
    const std::vector<double> run = t.Durations("serve.run");
    r.Add("serve.submit_us", Median(submit) * 1e6, "us",
          static_cast<int64_t>(submit.size()));
    r.Add("serve.run_ms", Median(run) * 1e3, "ms",
          static_cast<int64_t>(run.size()));
    const double queries = static_cast<double>(first.queries);
    r.Add("serve.cache_hit_ratio",
          Ratio(static_cast<double>(first.cache_hits), queries), "ratio",
          first.queries);
    r.Add("serve.shared_scan_ratio",
          Ratio(static_cast<double>(first.shared_scans),
                static_cast<double>(first.shared_scans + first.scan_fetches)),
          "ratio", first.queries);
    r.Add("serve.pages_per_query",
          Ratio(static_cast<double>(first.io.total_reads()), queries), "pages",
          first.queries);
    r.Add("serve.pool_hit_ratio",
          Ratio(static_cast<double>(first.pool_hits),
                static_cast<double>(first.pool_hits + first.pool_misses)),
          "ratio", first.queries);
    const int64_t sims = static_cast<int64_t>(first.sim_ms.size());
    r.Add("serve.sim_p50_ms", Percentile(first.sim_ms, 0.5), "sim-ms", sims);
    if (Supported(first.sim_ms.size(), 0.99)) {
      r.Add("serve.sim_p99_ms", Percentile(first.sim_ms, 0.99), "sim-ms",
            sims);
    }
    r.Add("exec.shed", static_cast<double>(first.shed), "count",
          first.queries);
    r.Add("exec.admission_retries",
          static_cast<double>(first.admission_retries), "count",
          first.queries);
    if (churn) {
      r.Add("dynamic.compact_batch_ms", Median(compact_ms), "ms",
            static_cast<int64_t>(compact_ms.size()));
      const double predicted =
          first.delta_plan.costs.of(first.delta_plan.algorithm).seq;
      r.Add("planner.cost_error", Ratio(predicted, first.delta_io_cost) - 1,
            "ratio", 1);
      // Direct writes through the Database, then one foreground compaction.
      const IoStats before = db->disk()->stats();
      for (const std::string& text : in.direct_inserts) {
        SpanScope span(env.tracer, "dynamic.insert", ++request);
        TEXTJOIN_RETURN_IF_ERROR(db->InsertDocument("docs", text).status());
      }
      const IoStats inserted = db->disk()->stats() - before;
      const std::vector<double> inserts = t.Durations("dynamic.insert");
      r.Add("dynamic.insert_us", Median(inserts) * 1e6, "us",
            static_cast<int64_t>(inserts.size()));
      r.Add("dynamic.pages_per_insert",
            Ratio(static_cast<double>(inserted.page_writes),
                  static_cast<double>(inserts.size())),
            "pages", static_cast<int64_t>(inserts.size()));
      const Clock::time_point t0 = Clock::now();
      {
        SpanScope span(env.tracer, "dynamic.compact", ++request);
        TEXTJOIN_RETURN_IF_ERROR(db->CompactCollection("docs"));
      }
      r.Add("dynamic.compact_s", SecondsSince(t0), "s", 1);
    }
  }
  const InvertedFile& index = churn
                                  ? db->dynamic_collection("docs")->base_index()
                                  : *db->index("docs");
  TEXTJOIN_RETURN_IF_ERROR(ReportKernelAndDecode(env, index));
  ReportCommon(env, setup, attempted, failed);
  return Status::OK();
}

// ---------------------------------------------------------------------------

constexpr const char* kWorkloads[] = {"join-self-wsj", "join-select-doe",
                                      "join-cross-frdoe", "serve-read",
                                      "serve-churn"};

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

int RunOne(const Env& env, const std::string& workload) {
  const Status status = workload.rfind("join-", 0) == 0
                            ? RunJoinWorkload(env, workload)
                            : RunServeWorkload(env, workload);
  if (!status.ok()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return env.report->failures() == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace;
  bool smoke = false;
};

bool ParseUnsigned(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::stoull(s);
  return true;
}

// Returns an error message, or "" when the arguments are valid.
std::string ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--smoke") {
      args->smoke = true;
    } else if (key == "--workload" && eq != std::string::npos) {
      if (!KnownWorkload(value)) return "unknown workload '" + value + "'";
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed" && eq != std::string::npos) {
      if (!ParseUnsigned(value, &args->seed)) {
        return "--seed needs a non-negative integer, got '" + value + "'";
      }
    } else if (key == "--seconds" && eq != std::string::npos) {
      uint64_t s = 0;
      if (!ParseUnsigned(value, &s) || s < 1 || s > 600) {
        return "--seconds needs an integer in [1, 600], got '" + value + "'";
      }
      args->seconds = static_cast<double>(s);
    } else if (key == "--trace" && eq != std::string::npos && !value.empty()) {
      args->trace = value;
    } else {
      return "unknown argument '" + arg + "'";
    }
  }
  if (args->smoke == have_workload) {
    return "give exactly one of --workload=<name> and --smoke";
  }
  return "";
}

}  // namespace
}  // namespace textjoin

int main(int argc, char** argv) {
  using namespace textjoin;
  Args args;
  const std::string error = ParseArgs(argc, argv, &args);
  if (!error.empty()) {
    std::fprintf(stderr,
                 "bench_e2e: %s (usage: bench_e2e --workload=<name> "
                 "--seed=<n> [--seconds=<s>] [--trace=<file>] | --smoke)\n",
                 error.c_str());
    return 2;
  }

  if (args.smoke) {
    int rc = 0;
    for (const char* workload : kWorkloads) {
      std::printf("# %s\n", workload);
      Report report;
      Tracer tracer;
      Env env{args.seed, 0, true, &tracer, &report};
      rc |= RunOne(env, workload);
    }
    return rc;
  }

  Report report;
  Tracer tracer;
  Env env{args.seed, args.seconds, false,
          args.trace.empty() ? nullptr : &tracer, &report};
  int rc = RunOne(env, args.workload);
  if (env.tracer != nullptr && !tracer.WriteChromeJson(args.trace)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.trace.c_str());
    rc = 1;
  }
  return rc;
}
