// A2: google-benchmark microbenchmarks of the computational kernels the
// executors are built from — the similarity merge, top-k maintenance,
// cell decoding, B+tree lookups and the HVNL accumulation loop.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "storage/disk_manager.h"
#include "common/logging.h"

#include "common/random.h"
#include "index/btree.h"
#include "index/inverted_file.h"
#include "join/similarity.h"
#include "join/topk.h"
#include "kernel/aligned.h"
#include "text/collection.h"

namespace textjoin {

// Process-wide heap-allocation counter, bumped by the replaced global
// operator new below. BM_BlockDecodeZeroAlloc diffs it across the timed
// loop to prove the steady-state block-decode path never allocates.
std::atomic<int64_t> g_heap_allocs{0};

namespace {

Document MakeDoc(int64_t terms, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> used(static_cast<size_t>(vocab), 0);
  std::vector<DCell> cells;
  while (static_cast<int64_t>(cells.size()) < terms) {
    TermId t = static_cast<TermId>(rng.NextBounded(static_cast<uint64_t>(vocab)));
    if (used[t]) continue;
    used[t] = 1;
    cells.push_back(DCell{t, static_cast<Weight>(1 + rng.NextBounded(4))});
  }
  std::sort(cells.begin(), cells.end(),
            [](const DCell& a, const DCell& b) { return a.term < b.term; });
  return Document::FromSortedCells(std::move(cells));
}

void BM_DotSimilarity(benchmark::State& state) {
  const int64_t terms = state.range(0);
  Document a = MakeDoc(terms, terms * 4, 1);
  Document b = MakeDoc(terms, terms * 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DotSimilarity(a, b));
  }
  state.SetItemsProcessed(state.iterations() * terms * 2);
  state.SetBytesProcessed(state.iterations() * terms * 2 *
                          static_cast<int64_t>(sizeof(DCell)));
}
BENCHMARK(BM_DotSimilarity)->Arg(32)->Arg(64)->Arg(128)->Arg(512)->Arg(2048);

void BM_WeightedDot(benchmark::State& state) {
  const int64_t terms = state.range(0);
  SimulatedDisk disk(4096);
  CollectionBuilder b1(&disk, "a"), b2(&disk, "b");
  TEXTJOIN_CHECK_OK(
      b1.AddDocument(Document::FromSortedCells({{1, 1}})).status());
  TEXTJOIN_CHECK_OK(
      b2.AddDocument(Document::FromSortedCells({{1, 1}})).status());
  auto c1 = std::move(b1.Finish()).value();
  auto c2 = std::move(b2.Finish()).value();
  auto ctx = SimilarityContext::Create(c1, c2, {});
  Document a = MakeDoc(terms, terms * 4, 1);
  Document b = MakeDoc(terms, terms * 4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeightedDot(a, b, *ctx));
  }
  state.SetItemsProcessed(state.iterations() * terms * 2);
  state.SetBytesProcessed(state.iterations() * terms * 2 *
                          static_cast<int64_t>(sizeof(DCell)));
}
BENCHMARK(BM_WeightedDot)->Arg(32)->Arg(64)->Arg(512);

void BM_TopKAdd(benchmark::State& state) {
  const int64_t k = state.range(0);
  Rng rng(7);
  std::vector<Match> stream;
  for (int i = 0; i < 10000; ++i) {
    stream.push_back(Match{static_cast<DocId>(i),
                           static_cast<double>(rng.NextBounded(1000) + 1)});
  }
  for (auto _ : state) {
    TopKAccumulator acc(k);
    for (const Match& m : stream) acc.Add(m.doc, m.score);
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_TopKAdd)->Arg(1)->Arg(20)->Arg(200);

void BM_DecodeICells(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<ICell> cells;
  for (int64_t i = 0; i < n; ++i) {
    cells.push_back(ICell{static_cast<DocId>(i), 2});
  }
  std::vector<uint8_t> bytes;
  EncodeICells(cells, &bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecodeICells(bytes.data(), static_cast<int64_t>(bytes.size()), n));
  }
  state.SetBytesProcessed(state.iterations() * n * kICellBytes);
}
BENCHMARK(BM_DecodeICells)->Arg(64)->Arg(4096);

void BM_BTreeLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  SimulatedDisk disk(4096);
  std::vector<BPlusTree::LeafCell> cells;
  for (int64_t i = 0; i < n; ++i) {
    cells.push_back(BPlusTree::LeafCell{static_cast<TermId>(i * 2),
                                        static_cast<uint32_t>(i), 1});
  }
  auto tree = BPlusTree::BulkLoad(&disk, "t", cells);
  TEXTJOIN_CHECK_OK(tree.status());
  Rng rng(9);
  for (auto _ : state) {
    TermId t = static_cast<TermId>(rng.NextBounded(static_cast<uint64_t>(n)) * 2);
    benchmark::DoNotOptimize(tree->Lookup(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000);

// The steady-state block-decode path must not allocate: PostingCursor
// sizes its cell buffer once per entry and DecodePostingBlockInto fills
// caller-owned storage, so per-block decode work is pure compute. The
// replaced global operator new (bottom of this file) counts every heap
// allocation in the process; allocs_per_iter over 64 decoded blocks must
// read 0.000 for both representations.
void BM_BlockDecodeZeroAlloc(benchmark::State& state) {
  const auto compression = static_cast<PostingCompression>(state.range(0));
  const int64_t num_blocks = 64;
  std::vector<ICell> cells;
  for (int64_t i = 0; i < num_blocks * kPostingBlockCells; ++i) {
    cells.push_back(
        ICell{static_cast<DocId>(i * 3), static_cast<Weight>(1 + i % 9)});
  }
  std::vector<uint8_t> bytes;
  std::vector<InvertedFile::PostingBlockMeta> blocks;
  EncodePostings(cells, compression, &bytes, &blocks);
  kernel::ICellBuffer scratch(static_cast<size_t>(kPostingBlockCells));
  const auto decode_all = [&] {
    for (size_t b = 0; b < blocks.size(); ++b) {
      const int64_t end = b + 1 < blocks.size()
                              ? blocks[b + 1].offset_bytes
                              : static_cast<int64_t>(bytes.size());
      TEXTJOIN_CHECK_OK(DecodePostingBlockInto(
          bytes.data() + blocks[b].offset_bytes,
          end - blocks[b].offset_bytes, blocks[b].cell_count, compression,
          scratch.data()));
    }
  };
  decode_all();  // warm up before the allocation snapshot
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    decode_all();
    benchmark::DoNotOptimize(scratch.data());
  }
  const int64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) /
      static_cast<double>(std::max<int64_t>(1, state.iterations()));
  state.SetItemsProcessed(state.iterations() * num_blocks *
                          kPostingBlockCells);
}
BENCHMARK(BM_BlockDecodeZeroAlloc)
    ->Arg(static_cast<int64_t>(PostingCompression::kDeltaVarint))
    ->Arg(static_cast<int64_t>(PostingCompression::kGroupVarint));

void BM_AccumulateEntry(benchmark::State& state) {
  // The HVNL inner loop: scatter one inverted entry's contributions into
  // the dense accumulator over C1.
  const int64_t n = state.range(0);
  std::vector<ICell> entry;
  for (int64_t i = 0; i < n; ++i) {
    entry.push_back(ICell{static_cast<DocId>(i * 3), 2});
  }
  std::vector<double> acc(static_cast<size_t>(3 * n), 0.0);
  const double w2 = static_cast<double>(1 + n % 7);
  const double factor = 1.0 + 1.0 / static_cast<double>(n);
  for (auto _ : state) {
    for (const ICell& c : entry) {
      acc[c.doc] += static_cast<double>(c.weight) * w2 * factor;
    }
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AccumulateEntry)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace textjoin

// Counting replacements of the global allocation functions, for
// BM_BlockDecodeZeroAlloc. operator new[] funnels through operator new by
// default, so these cover every heap allocation in the process. They stay
// out of line: inlined into this file's new-expressions, GCC 12 sees
// malloc or free where it expects operator new or delete and warns
// -Wmismatched-new-delete, though both sides are these replacements.
[[gnu::noinline]] void* operator new(std::size_t n) {
  textjoin::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t align) {
  textjoin::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

BENCHMARK_MAIN();
