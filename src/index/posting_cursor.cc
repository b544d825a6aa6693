#include "index/posting_cursor.h"

#include "common/logging.h"
#include "storage/page_stream.h"

namespace textjoin {

BlockLazyEntry::BlockLazyEntry(const InvertedFile::EntryMeta* meta,
                               PostingCompression compression,
                               std::vector<uint8_t> raw)
    : meta_(meta), compression_(compression), raw_(std::move(raw)) {
  cells_.resize(static_cast<size_t>(meta_->cell_count));
  decoded_.assign(meta_->blocks.size(), 0);
}

Result<const ICell*> BlockLazyEntry::Block(int64_t b, int64_t* newly_decoded) {
  TEXTJOIN_CHECK_GE(b, 0);
  TEXTJOIN_CHECK_LT(b, num_blocks());
  const InvertedFile::PostingBlockMeta& bm = block(b);
  const int64_t begin = BlockCellBegin(b);
  if (newly_decoded != nullptr) *newly_decoded = 0;
  if (!decoded_[static_cast<size_t>(b)]) {
    const int64_t end_offset = b + 1 < num_blocks()
                                   ? block(b + 1).offset_bytes
                                   : meta_->byte_length;
    if (bm.offset_bytes < 0 || end_offset > static_cast<int64_t>(raw_.size()) ||
        bm.offset_bytes > end_offset ||
        begin + bm.cell_count > cell_count()) {
      return Status::DataLoss("posting block metadata out of range");
    }
    // Decode straight into the entry's cell storage: cells_ was sized at
    // construction, so the hot path performs no allocation and no copy.
    // On failure the block's decoded_ flag stays clear, so no partially-
    // written cells are ever observable.
    TEXTJOIN_RETURN_IF_ERROR(
        DecodePostingBlockInto(raw_.data() + bm.offset_bytes,
                               end_offset - bm.offset_bytes, bm.cell_count,
                               compression_, cells_.data() + begin));
    decoded_[static_cast<size_t>(b)] = 1;
    if (newly_decoded != nullptr) *newly_decoded = bm.cell_count;
  }
  return cells_.data() + begin;
}

Result<const kernel::ICellBuffer*> BlockLazyEntry::All(
    int64_t* newly_decoded) {
  int64_t total = 0;
  for (int64_t b = 0; b < num_blocks(); ++b) {
    int64_t n = 0;
    TEXTJOIN_RETURN_IF_ERROR(Block(b, &n).status());
    total += n;
  }
  if (newly_decoded != nullptr) *newly_decoded = total;
  return &cells_;
}

PostingCursor::PostingCursor(const InvertedFile* file, int64_t entry_index)
    : file_(file),
      entry_(&file->entries()[static_cast<size_t>(entry_index)]) {}

Status PostingCursor::Init() {
  std::vector<uint8_t> bytes;
  PageStreamReader reader(file_->disk(), file_->file());
  TEXTJOIN_RETURN_IF_ERROR(
      reader.Read(entry_->offset_bytes, entry_->byte_length, &bytes));
  lazy_ = BlockLazyEntry(entry_, file_->compression(), std::move(bytes));
  at_ = 0;
  return entry_->cell_count > 0 ? LoadCurrent() : Status::OK();
}

Status PostingCursor::LoadCurrent() {
  const int64_t b = at_ / kPostingBlockCells;
  int64_t n = 0;
  TEXTJOIN_ASSIGN_OR_RETURN(const ICell* cells, lazy_.Block(b, &n));
  cells_decoded_ += n;
  current_ = cells + (at_ - BlockLazyEntry::BlockCellBegin(b));
  return Status::OK();
}

Status PostingCursor::Next() {
  if (done()) return Status::OutOfRange("posting cursor past end");
  ++at_;
  if (done()) return Status::OK();
  return LoadCurrent();
}

}  // namespace textjoin
