#include "join/vvm.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/math_util.h"
#include "index/posting_cursor.h"
#include "kernel/aligned.h"
#include "kernel/dispatch.h"
#include "obs/query_stats.h"

namespace textjoin {

// Accumulator keys pack the (outer, inner) document pair into 64 bits:
// outer in the high word, inner in the low word (document numbers are
// 3 bytes, so this is lossless).

int64_t VvmJoin::Passes(const JoinContext& ctx, const JoinSpec& spec) {
  const double P = static_cast<double>(ctx.sys.page_size);
  // A governor memory budget shrinks the matrix partition M: more, smaller
  // passes over the same data, identical results.
  const double B = static_cast<double>(EffectiveBufferPages(ctx));
  const double M = B - std::ceil(ctx.inner_index->avg_entry_size_pages()) -
                   std::ceil(ctx.outer_index->avg_entry_size_pages());
  if (M <= 0.0) return -1;
  const double m =
      spec.outer_subset.empty()
          ? static_cast<double>(ctx.outer->num_documents())
          : static_cast<double>(spec.outer_subset.size());
  const double SM = 4.0 * spec.delta *
                    static_cast<double>(ctx.inner->num_documents()) * m / P;
  return std::max<int64_t>(1, CeilPages(SM / M));
}

Result<JoinResult> VvmJoin::Run(const JoinContext& ctx,
                                const JoinSpec& spec) {
  TEXTJOIN_RETURN_IF_ERROR(ValidateJoinInputs(ctx, spec));
  if (ctx.inner_index == nullptr || ctx.outer_index == nullptr) {
    return Status::InvalidArgument(
        "VVM needs the inverted files on both collections");
  }
  int64_t passes = Passes(ctx, spec);
  if (passes < 0) {
    return Status::ResourceExhausted(
        "VVM: buffer cannot hold two inverted entries");
  }

  const std::vector<DocId> participating = ParticipatingOuterDocs(ctx, spec);
  // No point in more passes than participating documents.
  passes = std::min<int64_t>(
      passes, std::max<int64_t>(1, static_cast<int64_t>(participating.size())));
  // Map every outer document to its subcollection (pass index), -1 if it
  // does not participate. Subcollections are contiguous equal-count slices
  // of the participating documents.
  std::vector<int32_t> pass_of(
      static_cast<size_t>(ctx.outer->num_documents()), -1);
  const int64_t per_pass =
      CeilDiv(static_cast<int64_t>(participating.size()),
              std::max<int64_t>(passes, 1));
  for (size_t i = 0; i < participating.size(); ++i) {
    pass_of[participating[i]] =
        per_pass == 0 ? 0 : static_cast<int32_t>(i / per_pass);
  }

  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("VVM");
    stats->SetCounter("passes", passes);
  }

  JoinResult result;
  result.reserve(participating.size());
  std::unordered_map<uint64_t, double> acc;
  // Per-cell contributions of one C1 entry against one outer cell, from
  // the dispatched scoring kernel. Sized once to the largest C1 entry so
  // the merge's accumulation loops never reallocate.
  kernel::DoubleBuffer contribs;
  {
    int64_t max_cells = 0;
    for (const auto& e : ctx.inner_index->entries()) {
      max_cells = std::max(max_cells, e.cell_count);
    }
    contribs.resize(static_cast<size_t>(max_cells));
  }
  for (int64_t pass = 0; pass < passes; ++pass) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "VVM merge pass"));
    acc.clear();

    // This pass's contiguous slice of the (ascending) participating outer
    // documents. Every outer cell outside [pass_first, pass_last] fails the
    // pass filter, so with pruning on a C2 posting block whose document
    // span misses the slice is passed over undecoded.
    const size_t slice_lo = static_cast<size_t>(pass * per_pass);
    const size_t slice_hi = std::min(
        participating.size(), static_cast<size_t>((pass + 1) * per_pass));
    const bool slice_empty = slice_lo >= slice_hi;
    const DocId pass_first = slice_empty ? 0 : participating[slice_lo];
    const DocId pass_last = slice_empty ? 0 : participating[slice_hi - 1];

    PhaseScope merge(stats, phase::kMergeScan);
    // Parallel scan of both inverted files, merging on term number.
    auto scan1 = ctx.inner_index->Scan();
    auto scan2 = ctx.outer_index->Scan();
    while (!scan1.Done() && !scan2.Done()) {
      TermId t1 = scan1.NextTerm();
      TermId t2 = scan2.NextTerm();
      if (t1 < t2) {
        if (cpu != nullptr) cpu->cells_decoded += scan1.NextCellCount();
        TEXTJOIN_RETURN_IF_ERROR(scan1.SkipEntry());
      } else if (t2 < t1) {
        if (cpu != nullptr) cpu->cells_decoded += scan2.NextCellCount();
        TEXTJOIN_RETURN_IF_ERROR(scan2.SkipEntry());
      } else {
        // Both entries are read raw and decoded lazily, so with pruning on
        // a C2 block outside this pass's slice is never decoded, nor is the
        // C1 entry when no cell of the slice names its term.
        const InvertedFile::EntryMeta* meta1 = &scan1.NextMeta();
        TEXTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> raw1,
                                  scan1.NextRaw());
        BlockLazyEntry e1(meta1, ctx.inner_index->compression(),
                          std::move(raw1));
        const InvertedFile::EntryMeta* meta2 = &scan2.NextMeta();
        TEXTJOIN_ASSIGN_OR_RETURN(std::vector<uint8_t> raw2,
                                  scan2.NextRaw());
        BlockLazyEntry e2(meta2, ctx.outer_index->compression(),
                          std::move(raw2));
        if (!spec.prune) {
          // The paper's merge scan decodes both entries up front.
          int64_t newly1 = 0, newly2 = 0;
          TEXTJOIN_RETURN_IF_ERROR(e1.All(&newly1).status());
          TEXTJOIN_RETURN_IF_ERROR(e2.All(&newly2).status());
          if (cpu != nullptr) cpu->cells_decoded += newly1 + newly2;
        }
        const double factor = ctx.similarity->TermFactor(t1);
        auto process_cell = [&](const ICell& oc) -> Status {
          if (pass_of[oc.doc] != pass) return Status::OK();
          int64_t newly = 0;
          TEXTJOIN_ASSIGN_OR_RETURN(const kernel::ICellBuffer* cells1,
                                    e1.All(&newly));
          const double w2 = static_cast<double>(oc.weight);
          const uint64_t base = static_cast<uint64_t>(oc.doc) << 32;
          // Vectorized contributions, sequential in-document-order scatter
          // — bit-identical to the scalar accumulation loop.
          const int64_t n1 = static_cast<int64_t>(cells1->size());
          kernel::Active().scale_cells(cells1->data(), n1, w2, factor,
                                       contribs.data());
          int64_t performed = 0;
          for (int64_t k1 = 0; k1 < n1; ++k1) {
            const ICell& icell = (*cells1)[static_cast<size_t>(k1)];
            if (!inner_member.empty() && !inner_member[icell.doc]) continue;
            acc[base | icell.doc] += contribs[static_cast<size_t>(k1)];
            ++performed;
          }
          if (cpu != nullptr) {
            cpu->cells_decoded += newly;
            cpu->accumulations += performed;
            // Every C1 cell is visited for this outer cell.
            cpu->cell_compares += n1;
          }
          return Status::OK();
        };

        // C2 traversal. With pruning on, blocks whose document span misses
        // [pass_first, pass_last] hold no cell of this pass's subcollection
        // — they are passed over undecoded, so a multi-pass run stops
        // re-decoding (and re-filtering) the whole outer entry once per
        // pass. With pruning off All() is already decoded.
        if (spec.prune && e2.num_blocks() > 0) {
          for (int64_t b2 = 0; b2 < e2.num_blocks(); ++b2) {
            const auto& bm2 = e2.block(b2);
            if (slice_empty || bm2.last_doc < pass_first ||
                bm2.first_doc > pass_last) {
              if (cpu != nullptr) ++cpu->blocks_skipped;
              continue;
            }
            int64_t newly2 = 0;
            TEXTJOIN_ASSIGN_OR_RETURN(const ICell* cells2,
                                      e2.Block(b2, &newly2));
            if (cpu != nullptr) {
              cpu->cells_decoded += newly2;
              // Every decoded C2 cell is visited for the pass filter.
              cpu->cell_compares += static_cast<int64_t>(bm2.cell_count);
            }
            for (int64_t k = 0; k < bm2.cell_count; ++k) {
              TEXTJOIN_RETURN_IF_ERROR(process_cell(cells2[k]));
            }
          }
        } else {
          int64_t newly2 = 0;
          TEXTJOIN_ASSIGN_OR_RETURN(const kernel::ICellBuffer* cells2,
                                    e2.All(&newly2));
          if (cpu != nullptr) {
            cpu->cells_decoded += newly2;
            cpu->cell_compares += static_cast<int64_t>(cells2->size());
          }
          for (const ICell& oc : *cells2) {
            TEXTJOIN_RETURN_IF_ERROR(process_cell(oc));
          }
        }
      }
    }
    // The scan's one-pass property covers the whole file: drain whichever
    // side is left so the measured I/O equals I1 + I2 per pass, as the
    // cost model assumes.
    while (!scan1.Done()) {
      if (cpu != nullptr) cpu->cells_decoded += scan1.NextCellCount();
      TEXTJOIN_RETURN_IF_ERROR(scan1.SkipEntry());
    }
    while (!scan2.Done()) {
      if (cpu != nullptr) cpu->cells_decoded += scan2.NextCellCount();
      TEXTJOIN_RETURN_IF_ERROR(scan2.SkipEntry());
    }

    // Emit results for this pass's subcollection, ascending by document.
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "VVM matrix partition"));
    const size_t lo = slice_lo;
    const size_t hi = slice_hi;
    std::unordered_map<DocId, TopKAccumulator> heaps;
    for (size_t i = lo; i < hi; ++i) {
      heaps.emplace(participating[i], TopKAccumulator(spec.lambda));
    }
    if (cpu != nullptr) {
      cpu->heap_offers += static_cast<int64_t>(acc.size());
    }
    for (const auto& [key, a] : acc) {
      DocId outer_doc = static_cast<DocId>(key >> 32);
      DocId inner_doc = static_cast<DocId>(key & 0xFFFFFFFFu);
      heaps.at(outer_doc).Add(
          inner_doc, ctx.similarity->Finalize(a, inner_doc, outer_doc));
    }
    for (size_t i = lo; i < hi; ++i) {
      result.push_back(OuterMatches{participating[i],
                                    heaps.at(participating[i]).TakeSorted()});
    }
  }
  return result;
}

}  // namespace textjoin
