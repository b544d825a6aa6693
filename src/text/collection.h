#ifndef TEXTJOIN_TEXT_COLLECTION_H_
#define TEXTJOIN_TEXT_COLLECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/disk.h"
#include "storage/page_stream.h"
#include "text/document.h"
#include "text/types.h"

namespace textjoin {

// A document collection stored on a Disk: documents are packed in
// consecutive storage locations in document-number order, 5 bytes per
// d-cell with no per-record header (the catalog below knows each
// document's offset and length, matching the paper's model where the
// collection size is exactly 5*K*N bytes).
//
// The in-memory catalog (directory, document frequencies, aggregate
// statistics) corresponds to metadata an IR system keeps anyway; access to
// it is not metered. All *document data* reads go through the disk and are
// metered.
class DocumentCollection {
 public:
  struct DirectoryEntry {
    int64_t offset_bytes = 0;
    int32_t term_count = 0;
  };

  DocumentCollection(const DocumentCollection&) = delete;
  DocumentCollection& operator=(const DocumentCollection&) = delete;
  DocumentCollection(DocumentCollection&&) = default;
  DocumentCollection& operator=(DocumentCollection&&) = default;

  const std::string& name() const { return name_; }
  Disk* disk() const { return disk_; }
  FileId file() const { return file_; }

  // N_i: number of documents.
  int64_t num_documents() const {
    return static_cast<int64_t>(directory_.size());
  }

  // T_i: number of distinct terms in the collection.
  int64_t num_distinct_terms() const {
    return static_cast<int64_t>(doc_freq_.size());
  }

  // K_i: average number of terms per document.
  double avg_terms_per_doc() const {
    return num_documents() == 0
               ? 0.0
               : static_cast<double>(total_cells_) /
                     static_cast<double>(num_documents());
  }

  int64_t total_cells() const { return total_cells_; }

  // D_i: collection size in pages (tightly packed).
  int64_t size_in_pages() const;

  // S_i: average size of a document in pages (5 * K_i / P).
  double avg_doc_size_pages() const;

  // Document frequency of `term` (number of documents containing it), or 0.
  int64_t DocumentFrequency(TermId term) const;

  // All distinct terms, ascending. Built lazily on first call.
  const std::vector<TermId>& distinct_terms() const;

  const std::unordered_map<TermId, int64_t>& doc_freq_map() const {
    return doc_freq_;
  }

  const DirectoryEntry& directory_entry(DocId doc) const;

  // Precomputed Euclidean norm of the document's raw occurrence vector
  // (the paper: "the normalization can be carried out by pre-computing the
  // norms of the documents [and] storing them"). Unmetered catalog access.
  double raw_norm(DocId doc) const;

  // Reads one document by number. Random access: the first page touched is
  // a positioned (random) read, pages after it sequential.
  Result<Document> ReadDocument(DocId doc) const;

  // Forward scanner over documents in storage order; consuming the whole
  // collection reads each page exactly once.
  class Scanner {
   public:
    explicit Scanner(const DocumentCollection* collection);

    bool Done() const { return next_ >= collection_->num_documents(); }
    DocId next_doc() const { return static_cast<DocId>(next_); }

    // Reads the next document and advances.
    Result<Document> Next();

   private:
    const DocumentCollection* collection_;
    SequentialByteReader reader_;
    int64_t next_ = 0;
  };

  Scanner Scan() const { return Scanner(this); }

  // Reassembles a collection from catalog parts (used by catalog/ when
  // reopening a snapshot; the data file must already exist on `disk`).
  static DocumentCollection FromParts(
      Disk* disk, FileId file, std::string name,
      std::vector<DirectoryEntry> directory, std::vector<double> norms,
      std::unordered_map<TermId, int64_t> doc_freq, int64_t total_cells);

 private:
  friend class CollectionBuilder;

  DocumentCollection() = default;

  Disk* disk_ = nullptr;
  FileId file_ = kInvalidFileId;
  std::string name_;
  std::vector<DirectoryEntry> directory_;
  std::vector<double> norms_;
  std::unordered_map<TermId, int64_t> doc_freq_;
  int64_t total_cells_ = 0;
  mutable std::vector<TermId> distinct_terms_;  // lazy cache
};

// Builds a DocumentCollection by appending documents in document-number
// order. Build-time writes are metered as page_writes only; benchmark
// drivers reset I/O stats after setup.
class CollectionBuilder {
 public:
  CollectionBuilder(Disk* disk, std::string name);

  // Appends a document; its DocId is the number of documents added before.
  Result<DocId> AddDocument(const Document& doc);

  // Finalizes the packed file and returns the collection.
  Result<DocumentCollection> Finish();

 private:
  Disk* disk_;
  std::string name_;
  FileId file_;
  PageStreamWriter writer_;
  std::vector<DocumentCollection::DirectoryEntry> directory_;
  std::vector<double> norms_;
  std::unordered_map<TermId, int64_t> doc_freq_;
  int64_t total_cells_ = 0;
  bool finished_ = false;
};

// Serializes sorted d-cells to the 5-byte on-disk format.
void EncodeDCells(const std::vector<DCell>& cells, std::vector<uint8_t>* out);

// Parses `count` d-cells from `bytes`.
std::vector<DCell> DecodeDCells(const uint8_t* bytes, int64_t count);

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_COLLECTION_H_
