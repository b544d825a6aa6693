#include "catalog/catalog.h"

#include <cstring>
#include <string>

#include "common/crc32.h"
#include "storage/coding.h"
#include "storage/page_stream.h"

namespace textjoin {

namespace {

// The records carry no version field, so a layout change takes a new
// magic: a record in an older layout then fails the magic check instead
// of being misparsed. "TJCC" and "TJIC" were the layouts that still
// carried per-document and posting max-weight summaries.
constexpr uint32_t kCollectionMagic = 0x544A4332;  // "TJC2"
constexpr uint32_t kInvertedMagic = 0x544A4932;    // "TJI2"

// The fewest payload bytes one item of each counted list occupies. A
// count read from a record is bounded by the bytes left over this size
// before anything is reserved for it.
constexpr size_t kDocumentBytes = 8 + 4 + 8;       // offset, terms, norm
constexpr size_t kDocFreqBytes = 4 + 8;            // term, df
constexpr size_t kEntryBytes = 4 + 8 + 8 + 8 + 4;  // term ... block count
constexpr size_t kBlockBytes = 4 + 4 + 4 + 8;      // span, cells, offset

void PutDouble(std::vector<uint8_t>* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutFixed64(dst, bits);
}

double GetDouble(const uint8_t* p) {
  uint64_t bits = GetFixed64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void PutString(std::vector<uint8_t>* dst, const std::string& s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->insert(dst->end(), s.begin(), s.end());
}

// Sequential payload reader with bounds checking.
class PayloadReader {
 public:
  PayloadReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }

  // Whether `count` items of at least `item_bytes` each fit in what is
  // left of the payload.
  bool Fits(uint64_t count, size_t item_bytes) const {
    return count <= (bytes_.size() - pos_) / item_bytes;
  }

  uint32_t U32() {
    if (!Require(4)) return 0;
    uint32_t v = GetFixed32(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Require(8)) return 0;
    uint64_t v = GetFixed64(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  double F64() {
    if (!Require(8)) return 0;
    double v = GetDouble(bytes_.data() + pos_);
    pos_ += 8;
    return v;
  }

  uint8_t U8() {
    if (!Require(1)) return 0;
    return bytes_[pos_++];
  }

  std::string String() {
    uint32_t len = U32();
    if (!Require(len)) return "";
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || pos_ + n > bytes_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Writes a CRC-protected record as its own file.
Status WriteRecord(Disk* disk, const std::string& file_name,
                   uint32_t magic, const std::vector<uint8_t>& payload) {
  FileId file = disk->CreateFile(file_name);
  PageStreamWriter writer(disk, file);
  std::vector<uint8_t> header;
  PutFixed32(&header, magic);
  PutFixed64(&header, static_cast<uint64_t>(payload.size()));
  PutFixed32(&header, Crc32(payload.data(), payload.size()));
  writer.Append(header);
  writer.Append(payload);
  return writer.Finish();
}

Result<std::vector<uint8_t>> ReadRecord(Disk* disk,
                                        const std::string& file_name,
                                        uint32_t expected_magic) {
  TEXTJOIN_ASSIGN_OR_RETURN(FileId file, disk->FindFile(file_name));
  PageStreamReader reader(disk, file);
  std::vector<uint8_t> header;
  TEXTJOIN_RETURN_IF_ERROR(reader.Read(0, 16, &header));
  if (GetFixed32(header.data()) != expected_magic) {
    return Status::InvalidArgument(file_name + " has the wrong magic");
  }
  const uint64_t len = GetFixed64(header.data() + 4);
  const uint32_t crc = GetFixed32(header.data() + 12);
  TEXTJOIN_ASSIGN_OR_RETURN(int64_t pages, disk->FileSizeInPages(file));
  if (len > static_cast<uint64_t>(pages) *
                static_cast<uint64_t>(disk->page_size())) {
    return Status::InvalidArgument(file_name + " has an implausible length");
  }
  std::vector<uint8_t> payload;
  TEXTJOIN_RETURN_IF_ERROR(
      reader.Read(16, static_cast<int64_t>(len), &payload));
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::Internal(file_name + " failed its checksum");
  }
  return payload;
}

Status CountOverrun(const std::string& file_name, const char* what,
                    uint64_t count) {
  return Status::DataLoss(file_name + ": " + what + " count " +
                          std::to_string(count) + " overruns the record");
}

}  // namespace

Status SaveCollectionCatalog(const DocumentCollection& collection,
                             const std::string& catalog_file_name) {
  std::vector<uint8_t> payload;
  PutString(&payload, collection.name());
  const int64_t n = collection.num_documents();
  PutFixed64(&payload, static_cast<uint64_t>(n));
  for (int64_t d = 0; d < n; ++d) {
    const auto& e = collection.directory_entry(static_cast<DocId>(d));
    PutFixed64(&payload, static_cast<uint64_t>(e.offset_bytes));
    PutFixed32(&payload, static_cast<uint32_t>(e.term_count));
  }
  for (int64_t d = 0; d < n; ++d) {
    PutDouble(&payload, collection.raw_norm(static_cast<DocId>(d)));
  }
  PutFixed64(&payload, static_cast<uint64_t>(collection.doc_freq_map().size()));
  for (const auto& [term, df] : collection.doc_freq_map()) {
    PutFixed32(&payload, term);
    PutFixed64(&payload, static_cast<uint64_t>(df));
  }
  PutFixed64(&payload, static_cast<uint64_t>(collection.total_cells()));
  return WriteRecord(collection.disk(), catalog_file_name, kCollectionMagic,
                     payload);
}

Result<DocumentCollection> OpenCollection(
    Disk* disk, const std::string& catalog_file_name) {
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      ReadRecord(disk, catalog_file_name, kCollectionMagic));
  PayloadReader r(payload);
  std::string data_name = r.String();
  const uint64_t n = r.U64();
  if (!r.Fits(n, kDocumentBytes)) {
    return CountOverrun(catalog_file_name, "document", n);
  }
  std::vector<DocumentCollection::DirectoryEntry> directory;
  directory.reserve(n);
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    int64_t offset = static_cast<int64_t>(r.U64());
    int32_t count = static_cast<int32_t>(r.U32());
    directory.push_back(
        DocumentCollection::DirectoryEntry{offset, count});
  }
  std::vector<double> norms;
  norms.reserve(n);
  for (uint64_t i = 0; i < n && r.ok(); ++i) norms.push_back(r.F64());
  const uint64_t terms = r.U64();
  if (!r.Fits(terms, kDocFreqBytes)) {
    return CountOverrun(catalog_file_name, "term", terms);
  }
  std::unordered_map<TermId, int64_t> doc_freq;
  doc_freq.reserve(terms * 2 + 1);
  for (uint64_t i = 0; i < terms && r.ok(); ++i) {
    TermId term = r.U32();
    doc_freq[term] = static_cast<int64_t>(r.U64());
  }
  int64_t total_cells = static_cast<int64_t>(r.U64());
  if (!r.ok()) {
    return Status::InvalidArgument(catalog_file_name + " is truncated");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(FileId data_file, disk->FindFile(data_name));
  return DocumentCollection::FromParts(
      disk, data_file, std::move(data_name), std::move(directory),
      std::move(norms), std::move(doc_freq), total_cells);
}

Status SaveInvertedFileCatalog(const InvertedFile& inverted,
                               const std::string& catalog_file_name) {
  std::vector<uint8_t> payload;
  PutString(&payload, inverted.name());
  PutString(&payload, inverted.disk()->FileName(inverted.btree().file()));
  payload.push_back(static_cast<uint8_t>(inverted.compression()));
  PutFixed64(&payload, static_cast<uint64_t>(inverted.size_in_bytes()));
  PutFixed64(&payload, static_cast<uint64_t>(inverted.entries().size()));
  for (const auto& e : inverted.entries()) {
    PutFixed32(&payload, e.term);
    PutFixed64(&payload, static_cast<uint64_t>(e.offset_bytes));
    PutFixed64(&payload, static_cast<uint64_t>(e.cell_count));
    PutFixed64(&payload, static_cast<uint64_t>(e.byte_length));
    PutFixed32(&payload, static_cast<uint32_t>(e.blocks.size()));
    for (const auto& b : e.blocks) {
      PutFixed32(&payload, b.first_doc);
      PutFixed32(&payload, b.last_doc);
      PutFixed32(&payload, static_cast<uint32_t>(b.cell_count));
      PutFixed64(&payload, static_cast<uint64_t>(b.offset_bytes));
    }
  }
  const BPlusTree& tree = inverted.btree();
  PutFixed64(&payload, static_cast<uint64_t>(tree.root_page()));
  PutFixed64(&payload, static_cast<uint64_t>(tree.leaf_pages()));
  PutFixed64(&payload, static_cast<uint64_t>(tree.num_terms()));
  PutFixed32(&payload, static_cast<uint32_t>(tree.height()));
  return WriteRecord(inverted.disk(), catalog_file_name, kInvertedMagic,
                     payload);
}

Result<InvertedFile> OpenInvertedFile(Disk* disk,
                                      const std::string& catalog_file_name) {
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::vector<uint8_t> payload,
      ReadRecord(disk, catalog_file_name, kInvertedMagic));
  PayloadReader r(payload);
  std::string data_name = r.String();
  std::string btree_name = r.String();
  const uint8_t compression_byte = r.U8();
  if (compression_byte >
      static_cast<uint8_t>(PostingCompression::kGroupVarint)) {
    return Status::DataLoss(catalog_file_name + ": unknown compression code " +
                            std::to_string(compression_byte));
  }
  auto compression = static_cast<PostingCompression>(compression_byte);
  int64_t total_bytes = static_cast<int64_t>(r.U64());
  const uint64_t count = r.U64();
  if (!r.Fits(count, kEntryBytes)) {
    return CountOverrun(catalog_file_name, "entry", count);
  }
  std::vector<InvertedFile::EntryMeta> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    InvertedFile::EntryMeta e;
    e.term = r.U32();
    e.offset_bytes = static_cast<int64_t>(r.U64());
    e.cell_count = static_cast<int64_t>(r.U64());
    e.byte_length = static_cast<int64_t>(r.U64());
    const uint32_t num_blocks = r.U32();
    if (!r.Fits(num_blocks, kBlockBytes)) {
      return CountOverrun(catalog_file_name, "block", num_blocks);
    }
    e.blocks.reserve(num_blocks);
    for (uint32_t b = 0; b < num_blocks && r.ok(); ++b) {
      InvertedFile::PostingBlockMeta block;
      block.first_doc = r.U32();
      block.last_doc = r.U32();
      block.cell_count = static_cast<int32_t>(r.U32());
      block.offset_bytes = static_cast<int64_t>(r.U64());
      e.blocks.push_back(block);
    }
    entries.push_back(std::move(e));
  }
  PageNumber root = static_cast<PageNumber>(r.U64());
  int64_t leaf_pages = static_cast<int64_t>(r.U64());
  int64_t num_terms = static_cast<int64_t>(r.U64());
  int height = static_cast<int>(r.U32());
  if (!r.ok()) {
    return Status::InvalidArgument(catalog_file_name + " is truncated");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(FileId data_file, disk->FindFile(data_name));
  TEXTJOIN_ASSIGN_OR_RETURN(FileId btree_file, disk->FindFile(btree_name));
  BPlusTree tree = BPlusTree::FromParts(disk, btree_file, root, leaf_pages,
                                        num_terms, height);
  return InvertedFile::FromParts(disk, data_file, std::move(data_name),
                                 std::move(tree), std::move(entries),
                                 total_bytes, compression);
}

}  // namespace textjoin
