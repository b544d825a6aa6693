#include "text/collection.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "storage/coding.h"

namespace textjoin {

void EncodeDCells(const std::vector<DCell>& cells, std::vector<uint8_t>* out) {
  out->clear();
  out->reserve(cells.size() * kDCellBytes);
  for (const DCell& c : cells) {
    PutFixed24(out, c.term);
    PutFixed16(out, c.weight);
  }
}

std::vector<DCell> DecodeDCells(const uint8_t* bytes, int64_t count) {
  std::vector<DCell> cells;
  cells.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const uint8_t* p = bytes + i * kDCellBytes;
    cells.push_back(DCell{GetFixed24(p), GetFixed16(p + 3)});
  }
  return cells;
}

int64_t DocumentCollection::size_in_pages() const {
  auto size = disk_->FileSizeInPages(file_);
  TEXTJOIN_CHECK(size.ok());
  return size.value();
}

double DocumentCollection::avg_doc_size_pages() const {
  return avg_terms_per_doc() * static_cast<double>(kDCellBytes) /
         static_cast<double>(disk_->page_size());
}

int64_t DocumentCollection::DocumentFrequency(TermId term) const {
  auto it = doc_freq_.find(term);
  return it == doc_freq_.end() ? 0 : it->second;
}

const std::vector<TermId>& DocumentCollection::distinct_terms() const {
  if (distinct_terms_.empty() && !doc_freq_.empty()) {
    distinct_terms_.reserve(doc_freq_.size());
    for (const auto& [term, df] : doc_freq_) distinct_terms_.push_back(term);
    std::sort(distinct_terms_.begin(), distinct_terms_.end());
  }
  return distinct_terms_;
}

const DocumentCollection::DirectoryEntry& DocumentCollection::directory_entry(
    DocId doc) const {
  TEXTJOIN_CHECK_LT(doc, directory_.size());
  return directory_[doc];
}

double DocumentCollection::raw_norm(DocId doc) const {
  TEXTJOIN_CHECK_LT(doc, norms_.size());
  return norms_[doc];
}

Result<Document> DocumentCollection::ReadDocument(DocId doc) const {
  if (doc >= directory_.size()) {
    return Status::OutOfRange("document " + std::to_string(doc) +
                              " out of range in collection " + name_);
  }
  const DirectoryEntry& e = directory_[doc];
  std::vector<uint8_t> bytes;
  PageStreamReader reader(disk_, file_);
  TEXTJOIN_RETURN_IF_ERROR(
      reader.Read(e.offset_bytes, int64_t{e.term_count} * kDCellBytes,
                  &bytes));
  return Document::FromSortedCells(DecodeDCells(bytes.data(), e.term_count));
}

DocumentCollection::Scanner::Scanner(const DocumentCollection* collection)
    : collection_(collection),
      reader_(collection->disk_, collection->file_) {}

Result<Document> DocumentCollection::Scanner::Next() {
  if (Done()) return Status::OutOfRange("scan past end of collection");
  const DirectoryEntry& e = collection_->directory_[next_];
  ++next_;
  std::vector<uint8_t> bytes(static_cast<size_t>(e.term_count) * kDCellBytes);
  TEXTJOIN_RETURN_IF_ERROR(
      reader_.Read(int64_t{e.term_count} * kDCellBytes, bytes.data()));
  return Document::FromSortedCells(DecodeDCells(bytes.data(), e.term_count));
}

DocumentCollection DocumentCollection::FromParts(
    Disk* disk, FileId file, std::string name,
    std::vector<DirectoryEntry> directory, std::vector<double> norms,
    std::unordered_map<TermId, int64_t> doc_freq, int64_t total_cells) {
  TEXTJOIN_CHECK_EQ(directory.size(), norms.size());
  DocumentCollection c;
  c.disk_ = disk;
  c.file_ = file;
  c.name_ = std::move(name);
  c.directory_ = std::move(directory);
  c.norms_ = std::move(norms);
  c.doc_freq_ = std::move(doc_freq);
  c.total_cells_ = total_cells;
  return c;
}

CollectionBuilder::CollectionBuilder(Disk* disk, std::string name)
    : disk_(disk),
      name_(std::move(name)),
      file_(disk->CreateFile(name_)),
      writer_(disk, file_) {}

Result<DocId> CollectionBuilder::AddDocument(const Document& doc) {
  if (finished_) return Status::FailedPrecondition("builder already finished");
  if (directory_.size() > kMaxDocId) {
    return Status::ResourceExhausted("3-byte document id space exhausted");
  }
  std::vector<uint8_t> bytes;
  EncodeDCells(doc.cells(), &bytes);
  int64_t offset = writer_.Append(bytes);
  directory_.push_back(DocumentCollection::DirectoryEntry{
      offset, static_cast<int32_t>(doc.num_terms())});
  for (const DCell& c : doc.cells()) ++doc_freq_[c.term];
  norms_.push_back(doc.Norm());
  total_cells_ += doc.num_terms();
  return static_cast<DocId>(directory_.size() - 1);
}

Result<DocumentCollection> CollectionBuilder::Finish() {
  if (finished_) return Status::FailedPrecondition("builder already finished");
  finished_ = true;
  TEXTJOIN_RETURN_IF_ERROR(writer_.Finish());
  DocumentCollection c;
  c.disk_ = disk_;
  c.file_ = file_;
  c.name_ = std::move(name_);
  c.directory_ = std::move(directory_);
  c.norms_ = std::move(norms_);
  c.doc_freq_ = std::move(doc_freq_);
  c.total_cells_ = total_cells_;
  return c;
}

}  // namespace textjoin
