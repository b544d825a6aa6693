#include <gtest/gtest.h>

#include "storage/disk_manager.h"
#include "index/inverted_file.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BuildCollection;

TEST(InvertedFileTest, PostingsMatchCollection) {
  SimulatedDisk disk(64);
  auto col = BuildCollection(&disk, "c",
                             {{{1, 2}, {3, 1}},        // doc 0
                              {{2, 5}},                // doc 1
                              {{1, 1}, {2, 1}, {3, 4}}});  // doc 2
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->num_terms(), 3);

  auto e1 = inv->FetchEntry(1);
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e1, (std::vector<ICell>{{0, 2}, {2, 1}}));
  auto e2 = inv->FetchEntry(2);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(*e2, (std::vector<ICell>{{1, 5}, {2, 1}}));
  auto e3 = inv->FetchEntry(3);
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(*e3, (std::vector<ICell>{{0, 1}, {2, 4}}));
}

TEST(InvertedFileTest, FetchUnknownTermFails) {
  SimulatedDisk disk(64);
  auto col = BuildCollection(&disk, "c", {{{1, 1}}});
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  EXPECT_FALSE(inv->FetchEntry(99).ok());
  EXPECT_EQ(inv->FindEntry(99), -1);
}

TEST(InvertedFileTest, SizeEqualsCollectionSize) {
  // The paper: if |d#| == |t#|, the inverted file has the same total size
  // as the collection (same number of 5-byte cells).
  SimulatedDisk disk(64);
  auto col = testing_util::RandomCollection(&disk, "c", 50, 8, 100, 1);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv->size_in_bytes(), col.total_cells() * kICellBytes);
  EXPECT_EQ(inv->size_in_pages(), col.size_in_pages());
}

TEST(InvertedFileTest, EntriesSortedByTermWithCorrectCounts) {
  SimulatedDisk disk(64);
  auto col = testing_util::RandomCollection(&disk, "c", 30, 5, 40, 2);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  int64_t total = 0;
  TermId prev = 0;
  for (size_t i = 0; i < inv->entries().size(); ++i) {
    const auto& e = inv->entries()[i];
    if (i > 0) {
      EXPECT_GT(e.term, prev);
    }
    prev = e.term;
    EXPECT_EQ(e.cell_count, col.DocumentFrequency(e.term));
    total += e.cell_count;
  }
  EXPECT_EQ(total, col.total_cells());
}

TEST(InvertedFileTest, BTreeAgreesWithCatalog) {
  SimulatedDisk disk(64);
  auto col = testing_util::RandomCollection(&disk, "c", 30, 5, 40, 3);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  for (const auto& e : inv->entries()) {
    auto leaf = inv->btree().Lookup(e.term);
    ASSERT_TRUE(leaf.ok());
    EXPECT_EQ(leaf->address, static_cast<uint32_t>(e.offset_bytes));
    EXPECT_EQ(leaf->doc_freq, static_cast<uint16_t>(e.cell_count));
  }
}

TEST(InvertedFileTest, ScanVisitsEntriesInOrderOnePassIo) {
  SimulatedDisk disk(64);
  auto col = testing_util::RandomCollection(&disk, "c", 40, 6, 50, 4);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  disk.ResetStats();
  disk.ResetHeads();

  auto scan = inv->Scan();
  size_t i = 0;
  while (!scan.Done()) {
    EXPECT_EQ(scan.NextTerm(), inv->entries()[i].term);
    auto cells = scan.Next();
    ASSERT_TRUE(cells.ok());
    EXPECT_EQ(static_cast<int64_t>(cells->size()),
              inv->entries()[i].cell_count);
    ++i;
  }
  EXPECT_EQ(static_cast<int64_t>(i), inv->num_terms());
  EXPECT_EQ(disk.stats().total_reads(), inv->size_in_pages());
  EXPECT_EQ(disk.stats().random_reads, 1);
}

TEST(InvertedFileTest, SkipEntryStillPaysIo) {
  SimulatedDisk disk(64);
  auto col = testing_util::RandomCollection(&disk, "c", 40, 6, 50, 5);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  disk.ResetStats();
  disk.ResetHeads();
  auto scan = inv->Scan();
  while (!scan.Done()) ASSERT_TRUE(scan.SkipEntry().ok());
  EXPECT_EQ(disk.stats().total_reads(), inv->size_in_pages());
}

TEST(InvertedFileTest, FetchEntryMetersPositionedRead) {
  SimulatedDisk disk(64);
  auto col = testing_util::RandomCollection(&disk, "c", 40, 6, 50, 6);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  disk.ResetStats();
  disk.ResetHeads();
  TermId t = inv->entries().front().term;
  ASSERT_TRUE(inv->FetchEntry(t).ok());
  int64_t span = inv->EntryPageSpan(0);
  EXPECT_EQ(disk.stats().total_reads(), span);
  EXPECT_EQ(disk.stats().random_reads, 1);
}

TEST(InvertedFileTest, EntryPageSpan) {
  SimulatedDisk disk(64);
  // One term with many cells: entry spans multiple pages.
  std::vector<std::vector<DCell>> docs;
  for (int d = 0; d < 40; ++d) docs.push_back({{7, 1}});
  auto col = BuildCollection(&disk, "c", docs);
  auto inv = InvertedFile::Build(&disk, "c.inv", col);
  ASSERT_TRUE(inv.ok());
  // 40 cells * 5 bytes = 200 bytes starting at offset 0 -> pages 0..3.
  EXPECT_EQ(inv->EntryPageSpan(0), 4);
  EXPECT_DOUBLE_EQ(inv->avg_entry_size_pages(), 200.0 / 64.0);
}

TEST(ICellCodingTest, RoundTrip) {
  std::vector<ICell> cells{{0, 1}, {0xABCDEF, 0xFFFF}, {7, 3}};
  std::vector<uint8_t> bytes;
  EncodeICells(cells, &bytes);
  EXPECT_EQ(bytes.size(), cells.size() * kICellBytes);
  auto decoded =
      DecodeICells(bytes.data(), static_cast<int64_t>(bytes.size()), 3);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, cells);
  // Short buffers fail closed instead of reading out of bounds.
  EXPECT_EQ(DecodeICells(bytes.data(), static_cast<int64_t>(bytes.size()) - 1,
                         3)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace textjoin
