#include "index/inverted_file.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"
#include "index/varint.h"
#include "kernel/dispatch.h"
#include "kernel/group_varint.h"
#include "storage/coding.h"

namespace textjoin {

void EncodeICells(const std::vector<ICell>& cells, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(cells.size() * kICellBytes);
  for (const ICell& c : cells) {
    PutFixed24(out, c.doc);
    PutFixed16(out, c.weight);
  }
}

Result<std::vector<ICell>> DecodeICells(const uint8_t* bytes,
                                        int64_t byte_length, int64_t count) {
  if (byte_length < count * kICellBytes) {
    return Status::DataLoss("i-cell array shorter than its cell count");
  }
  std::vector<ICell> cells;
  cells.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const uint8_t* p = bytes + i * kICellBytes;
    cells.push_back(ICell{GetFixed24(p), GetFixed16(p + 3)});
  }
  return cells;
}

void EncodePostings(const std::vector<ICell>& cells,
                    PostingCompression compression, std::vector<uint8_t>* out,
                    std::vector<InvertedFile::PostingBlockMeta>* blocks) {
  out->clear();
  if (blocks != nullptr) blocks->clear();
  InvertedFile::PostingBlockMeta block;
  for (size_t i = 0; i < cells.size(); ++i) {
    const bool block_start = (i % kPostingBlockCells) == 0;
    if (block_start) {
      block = InvertedFile::PostingBlockMeta{};
      block.first_doc = cells[i].doc;
      block.offset_bytes = static_cast<int64_t>(out->size());
    }
    if (compression == PostingCompression::kNone) {
      PutFixed24(out, cells[i].doc);
      PutFixed16(out, cells[i].weight);
    } else if (compression == PostingCompression::kDeltaVarint) {
      // Ascending document numbers; delta encoding restarts at each block
      // boundary, so the first gap of a block is the document number
      // itself and later gaps are strictly positive deltas.
      uint64_t gap = block_start ? cells[i].doc : cells[i].doc - block.last_doc;
      PutVarint(out, gap);
      PutVarint(out, cells[i].weight);
    }
    block.last_doc = cells[i].doc;
    ++block.cell_count;
    if (i + 1 == cells.size() || ((i + 1) % kPostingBlockCells) == 0) {
      // Group-varint is a whole-block format (control bytes up front), so
      // the block encodes in one go at the boundary. Deltas restart here
      // too, same as kDeltaVarint.
      if (compression == PostingCompression::kGroupVarint) {
        kernel::GvEncodeBlock(cells.data() + (i + 1 - block.cell_count),
                              block.cell_count, out);
      }
      if (blocks != nullptr) blocks->push_back(block);
    }
  }
}

void EncodePostings(const std::vector<ICell>& cells,
                    PostingCompression compression,
                    std::vector<uint8_t>* out) {
  EncodePostings(cells, compression, out, nullptr);
}

Status DecodePostingBlockInto(const uint8_t* bytes, int64_t byte_length,
                              int64_t count, PostingCompression compression,
                              ICell* out) {
  if (count < 0) {
    return Status::DataLoss("negative posting block cell count");
  }
  if (compression == PostingCompression::kNone) {
    if (byte_length < count * kICellBytes) {
      return Status::DataLoss("posting block shorter than its cell count");
    }
    for (int64_t i = 0; i < count; ++i) {
      const uint8_t* p = bytes + i * kICellBytes;
      out[i] = ICell{GetFixed24(p), GetFixed16(p + 3)};
    }
    return Status::OK();
  }
  if (compression == PostingCompression::kGroupVarint) {
    int64_t consumed = 0;
    return kernel::Active().gv_decode(bytes, byte_length, count, out,
                                      &consumed);
  }
  const uint8_t* p = bytes;
  const uint8_t* limit = bytes + byte_length;
  DocId doc = 0;
  for (int64_t i = 0; i < count; ++i) {
    uint64_t gap = 0, w = 0;
    TEXTJOIN_RETURN_IF_ERROR(GetVarint(&p, limit, &gap));
    TEXTJOIN_RETURN_IF_ERROR(GetVarint(&p, limit, &w));
    const uint64_t next = (i == 0 ? uint64_t{0} : uint64_t{doc}) + gap;
    if (next > 0xFFFFFFull || w > 0xFFFFull) {
      return Status::DataLoss("posting cell out of range (corrupt block)");
    }
    doc = static_cast<DocId>(next);
    out[i] = ICell{doc, static_cast<Weight>(w)};
  }
  return Status::OK();
}

Status DecodePostingBlock(const uint8_t* bytes, int64_t byte_length,
                          int64_t count, PostingCompression compression,
                          std::vector<ICell>* out) {
  if (count < 0) {
    return Status::DataLoss("negative posting block cell count");
  }
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(count));
  const Status s =
      DecodePostingBlockInto(bytes, byte_length, count, compression,
                             out->data() + base);
  // Fail closed: a corrupt block leaves no partially-decoded cells behind.
  if (!s.ok()) out->resize(base);
  return s;
}

Result<std::vector<ICell>> DecodePostings(const uint8_t* bytes,
                                          int64_t byte_length, int64_t count,
                                          PostingCompression compression) {
  if (count < 0) {
    return Status::DataLoss("negative posting cell count");
  }
  std::vector<ICell> cells;
  cells.reserve(static_cast<size_t>(count));
  if (compression == PostingCompression::kNone) {
    TEXTJOIN_RETURN_IF_ERROR(
        DecodePostingBlock(bytes, byte_length, count, compression, &cells));
    return cells;
  }
  if (compression == PostingCompression::kGroupVarint) {
    // Blocks are self-delimiting (the decoder reports the bytes it
    // consumed), so the entry decodes block after block like varint does.
    cells.resize(static_cast<size_t>(count));
    const kernel::KernelTable& k = kernel::Active();
    const uint8_t* p = bytes;
    int64_t bytes_left = byte_length;
    int64_t done = 0;
    while (done < count) {
      const int64_t n = std::min<int64_t>(count - done, kPostingBlockCells);
      int64_t consumed = 0;
      TEXTJOIN_RETURN_IF_ERROR(
          k.gv_decode(p, bytes_left, n, cells.data() + done, &consumed));
      p += consumed;
      bytes_left -= consumed;
      done += n;
    }
    return cells;
  }
  // Delta encoding restarts every kPostingBlockCells cells; decode block
  // by block, tracking the byte cursor across restarts.
  const uint8_t* p = bytes;
  const uint8_t* limit = bytes + byte_length;
  int64_t remaining = count;
  while (remaining > 0) {
    const int64_t n = std::min<int64_t>(remaining, kPostingBlockCells);
    DocId doc = 0;
    for (int64_t i = 0; i < n; ++i) {
      uint64_t gap = 0, w = 0;
      TEXTJOIN_RETURN_IF_ERROR(GetVarint(&p, limit, &gap));
      TEXTJOIN_RETURN_IF_ERROR(GetVarint(&p, limit, &w));
      const uint64_t next = (i == 0 ? uint64_t{0} : uint64_t{doc}) + gap;
      if (next > 0xFFFFFFull || w > 0xFFFFull) {
        return Status::DataLoss("posting cell out of range (corrupt entry)");
      }
      doc = static_cast<DocId>(next);
      cells.push_back(ICell{doc, static_cast<Weight>(w)});
    }
    remaining -= n;
  }
  return cells;
}

Result<InvertedFile> InvertedFile::Build(Disk* disk,
                                         std::string name,
                                         const DocumentCollection& collection) {
  return Build(disk, std::move(name), collection, BuildOptions{});
}

Result<InvertedFile> InvertedFile::Build(Disk* disk,
                                         std::string name,
                                         const DocumentCollection& collection,
                                         const BuildOptions& options) {
  // Accumulate postings. Documents are scanned in ascending document
  // number, so each posting list comes out sorted by document number.
  std::unordered_map<TermId, std::vector<ICell>> postings;
  postings.reserve(
      static_cast<size_t>(collection.num_distinct_terms()) * 2 + 1);
  auto scanner = collection.Scan();
  while (!scanner.Done()) {
    DocId doc = scanner.next_doc();
    TEXTJOIN_ASSIGN_OR_RETURN(Document d, scanner.Next());
    for (const DCell& c : d.cells()) {
      postings[c.term].push_back(ICell{doc, c.weight});
    }
  }

  std::vector<TermId> terms;
  terms.reserve(postings.size());
  for (const auto& [term, cells] : postings) terms.push_back(term);
  std::sort(terms.begin(), terms.end());

  InvertedFile inv;
  inv.disk_ = disk;
  inv.name_ = std::move(name);
  inv.file_ = disk->CreateFile(inv.name_);
  inv.compression_ = options.compression;

  PageStreamWriter writer(disk, inv.file_);
  std::vector<BPlusTree::LeafCell> leaf_cells;
  leaf_cells.reserve(terms.size());
  std::vector<uint8_t> bytes;
  std::vector<PostingBlockMeta> blocks;
  for (TermId term : terms) {
    const std::vector<ICell>& cells = postings[term];
    EncodePostings(cells, options.compression, &bytes, &blocks);
    int64_t offset = writer.Append(bytes);
    if (offset > 0xFFFFFFFFll) {
      return Status::ResourceExhausted(
          "inverted file exceeds 4-byte address space");
    }
    EntryMeta meta;
    meta.term = term;
    meta.offset_bytes = offset;
    meta.cell_count = static_cast<int64_t>(cells.size());
    meta.byte_length = static_cast<int64_t>(bytes.size());
    meta.blocks = blocks;
    inv.entries_.push_back(std::move(meta));
    uint16_t df16 = cells.size() > 0xFFFF
                        ? uint16_t{0xFFFF}
                        : static_cast<uint16_t>(cells.size());
    leaf_cells.push_back(
        BPlusTree::LeafCell{term, static_cast<uint32_t>(offset), df16});
  }
  inv.total_bytes_ = writer.size();
  TEXTJOIN_RETURN_IF_ERROR(writer.Finish());
  TEXTJOIN_ASSIGN_OR_RETURN(
      inv.btree_, BPlusTree::BulkLoad(disk, inv.name_ + ".btree", leaf_cells));
  return inv;
}

InvertedFile InvertedFile::FromParts(Disk* disk, FileId file,
                                     std::string name, BPlusTree btree,
                                     std::vector<EntryMeta> entries,
                                     int64_t total_bytes,
                                     PostingCompression compression) {
  InvertedFile inv;
  inv.disk_ = disk;
  inv.file_ = file;
  inv.name_ = std::move(name);
  inv.btree_ = std::move(btree);
  inv.entries_ = std::move(entries);
  inv.total_bytes_ = total_bytes;
  inv.compression_ = compression;
  return inv;
}

int64_t InvertedFile::size_in_pages() const {
  auto size = disk_->FileSizeInPages(file_);
  TEXTJOIN_CHECK(size.ok());
  return size.value();
}

double InvertedFile::avg_entry_size_pages() const {
  if (entries_.empty()) return 0.0;
  return static_cast<double>(total_bytes_) /
         static_cast<double>(num_terms()) /
         static_cast<double>(disk_->page_size());
}

int64_t InvertedFile::FindEntry(TermId term) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), term,
      [](const EntryMeta& e, TermId t) { return e.term < t; });
  if (it == entries_.end() || it->term != term) return -1;
  return it - entries_.begin();
}

Result<std::vector<ICell>> InvertedFile::FetchEntry(TermId term) const {
  int64_t idx = FindEntry(term);
  if (idx < 0) {
    return Status::NotFound("term " + std::to_string(term) +
                            " has no inverted entry");
  }
  const EntryMeta& e = entries_[static_cast<size_t>(idx)];
  std::vector<uint8_t> bytes;
  PageStreamReader reader(disk_, file_);
  TEXTJOIN_RETURN_IF_ERROR(
      reader.Read(e.offset_bytes, e.byte_length, &bytes));
  return DecodePostings(bytes.data(), e.byte_length, e.cell_count,
                        compression_);
}

Result<std::vector<uint8_t>> InvertedFile::FetchEntryRaw(TermId term) const {
  int64_t idx = FindEntry(term);
  if (idx < 0) {
    return Status::NotFound("term " + std::to_string(term) +
                            " has no inverted entry");
  }
  const EntryMeta& e = entries_[static_cast<size_t>(idx)];
  std::vector<uint8_t> bytes;
  PageStreamReader reader(disk_, file_);
  TEXTJOIN_RETURN_IF_ERROR(
      reader.Read(e.offset_bytes, e.byte_length, &bytes));
  return bytes;
}

int64_t InvertedFile::EntryPageSpan(int64_t index) const {
  TEXTJOIN_CHECK_GE(index, 0);
  TEXTJOIN_CHECK_LT(index, static_cast<int64_t>(entries_.size()));
  const EntryMeta& e = entries_[static_cast<size_t>(index)];
  if (e.byte_length == 0) return 0;
  const int64_t page_size = disk_->page_size();
  int64_t first = e.offset_bytes / page_size;
  int64_t last = (e.offset_bytes + e.byte_length - 1) / page_size;
  return last - first + 1;
}

InvertedFile::Scanner::Scanner(const InvertedFile* file)
    : file_(file), reader_(file->disk_, file->file_) {}

Result<std::vector<ICell>> InvertedFile::Scanner::Next() {
  if (Done()) return Status::OutOfRange("scan past end of inverted file");
  const EntryMeta& e = file_->entries_[static_cast<size_t>(next_)];
  ++next_;
  std::vector<uint8_t> bytes(static_cast<size_t>(e.byte_length));
  TEXTJOIN_RETURN_IF_ERROR(reader_.Read(e.byte_length, bytes.data()));
  return DecodePostings(bytes.data(), e.byte_length, e.cell_count,
                        file_->compression_);
}

Result<std::vector<uint8_t>> InvertedFile::Scanner::NextRaw() {
  if (Done()) return Status::OutOfRange("scan past end of inverted file");
  const EntryMeta& e = file_->entries_[static_cast<size_t>(next_)];
  ++next_;
  std::vector<uint8_t> bytes(static_cast<size_t>(e.byte_length));
  TEXTJOIN_RETURN_IF_ERROR(reader_.Read(e.byte_length, bytes.data()));
  return bytes;
}

Status InvertedFile::Scanner::SkipEntry() {
  if (Done()) return Status::OutOfRange("scan past end of inverted file");
  const EntryMeta& e = file_->entries_[static_cast<size_t>(next_)];
  ++next_;
  std::vector<uint8_t> bytes(static_cast<size_t>(e.byte_length));
  return reader_.Read(e.byte_length, bytes.data());
}

}  // namespace textjoin
