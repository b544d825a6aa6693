#ifndef TEXTJOIN_INDEX_POSTING_CURSOR_H_
#define TEXTJOIN_INDEX_POSTING_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/inverted_file.h"
#include "kernel/aligned.h"
#include "text/types.h"

namespace textjoin {

// An inverted entry held as raw encoded bytes with block-granular lazy
// decode. The I/O to fetch the byte span is identical to eagerly decoding
// the whole entry (the span is read once, page by page); what becomes lazy
// is only the CPU-side decode, so a traversal that skips a block via its
// summary (VVM's pass-slice skip) never pays to decode it. Backs both the
// HVNL entry cache and VVM's merge scan, plus the PostingCursor below.
//
// The EntryMeta pointer must outlive this object; it points into
// InvertedFile::entries(), whose storage is stable.
class BlockLazyEntry {
 public:
  BlockLazyEntry() = default;
  BlockLazyEntry(const InvertedFile::EntryMeta* meta,
                 PostingCompression compression, std::vector<uint8_t> raw);

  const InvertedFile::EntryMeta& meta() const { return *meta_; }
  int64_t cell_count() const { return meta_->cell_count; }
  int64_t num_blocks() const {
    return static_cast<int64_t>(meta_->blocks.size());
  }
  const InvertedFile::PostingBlockMeta& block(int64_t b) const {
    return meta_->blocks[static_cast<size_t>(b)];
  }

  // First cell index of block `b` (blocks tile the list in
  // kPostingBlockCells strides).
  static int64_t BlockCellBegin(int64_t b) { return b * kPostingBlockCells; }

  // Pointer to the decoded cells of block `b`, decoding it on first use.
  // `newly_decoded` (may be null) receives the number of cells decoded by
  // THIS call — 0 on a repeat visit — so callers can meter cells_decoded.
  Result<const ICell*> Block(int64_t b, int64_t* newly_decoded);

  // Decodes every remaining block and returns the full cell vector.
  Result<const kernel::ICellBuffer*> All(int64_t* newly_decoded);

 private:
  const InvertedFile::EntryMeta* meta_ = nullptr;
  PostingCompression compression_ = PostingCompression::kNone;
  std::vector<uint8_t> raw_;
  // Sized once to cell_count at construction (32-byte aligned for the
  // SIMD kernels) and filled in place per block — block decode after
  // construction never allocates.
  kernel::ICellBuffer cells_;
  std::vector<char> decoded_;  // per-block flags
};

// Forward iteration over one entry's posting list, backed by a metered
// positioned PageStream read of the entry's byte span; each block is
// decoded when the cursor first steps into it.
class PostingCursor {
 public:
  // `entry_index` indexes InvertedFile::entries().
  PostingCursor(const InvertedFile* file, int64_t entry_index);

  // Reads the entry's bytes (metered: first page positioned, rest
  // sequential — same cost as InvertedFile::FetchEntry).
  Status Init();

  bool done() const { return at_ >= entry_->cell_count; }
  const ICell& current() const { return *current_; }

  Status Next();

  // Cells decoded so far (traversal telemetry).
  int64_t cells_decoded() const { return cells_decoded_; }

 private:
  Status LoadCurrent();

  const InvertedFile* file_;
  const InvertedFile::EntryMeta* entry_;
  BlockLazyEntry lazy_;
  int64_t at_ = 0;                 // cell index
  const ICell* current_ = nullptr;
  int64_t cells_decoded_ = 0;
};

}  // namespace textjoin

#endif  // TEXTJOIN_INDEX_POSTING_CURSOR_H_
