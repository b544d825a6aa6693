#include "join/vvm.h"

#include <algorithm>
#include <span>

#include "common/logging.h"
#include "common/math_util.h"
#include "index/posting_cursor.h"
#include "obs/query_stats.h"

namespace textjoin {

int64_t VvmJoin::Passes(const JoinContext& ctx, const JoinSpec& spec) {
  // A governor memory budget shrinks the matrix partition M: more, smaller
  // passes over the same data, identical results.
  return VvmPasses(MeasuredMemory(ctx, spec));
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
  const int64_t m = static_cast<int64_t>(participating.size());
  // No point in more passes than participating documents.
  passes = std::min<int64_t>(passes, std::max<int64_t>(1, m));
  // Map every outer document to its position among the participating
  // documents, -1 if it does not participate. Subcollections are
  // contiguous equal-count slices of the participating documents, so the
  // position gives both the pass and the slot within it.
  const int64_t n1 = ctx.inner->num_documents();
  const int64_t n2 = ctx.outer->num_documents();
  std::vector<int32_t> index_of(static_cast<size_t>(n2), -1);
  for (size_t i = 0; i < participating.size(); ++i) {
    index_of[participating[i]] = static_cast<int32_t>(i);
  }
  const int64_t per_pass = CeilDiv(m, passes);

  const std::vector<char> inner_member = InnerMembership(ctx, spec);
  QueryStatsCollector* stats = ctx.stats;
  CpuStats* cpu = stats != nullptr ? stats->cpu() : nullptr;
  if (stats != nullptr) {
    stats->SetRootLabel("VVM");
    stats->SetCounter("passes", passes);
  }

  JoinResult result;
  result.reserve(participating.size());
  // The pass's similarity matrix: one row of N1 sums per slot of the
  // slice, slot-major, allocated once and reset row by row as each pass is
  // drained.
  std::vector<double> acc(static_cast<size_t>(per_pass * n1), 0.0);
  TopKAccumulator heap(spec.lambda);  // reused across outer documents
  for (int64_t pass = 0; pass < passes; ++pass) {
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "VVM merge pass"));

    // This pass's contiguous slice of the (ascending) participating outer
    // documents. Every outer cell outside [pass_first, pass_last] fails the
    // pass filter, so a C2 posting block whose document span misses the
    // slice is passed over undecoded.
    const int64_t slice_lo = std::min(pass * per_pass, m);
    const int64_t slots = std::min(slice_lo + per_pass, m) - slice_lo;
    const bool slice_empty = slots == 0;
    const DocId pass_first = slice_empty ? 0 : participating[slice_lo];
    const DocId pass_last =
        slice_empty ? 0 : participating[slice_lo + slots - 1];

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
        // Both entries are read raw and decoded lazily: a C2 block outside
        // this pass's slice is never decoded, nor is the C1 entry when no
        // cell of the slice names its term.
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
        const double factor = ctx.similarity->TermFactor(t1);

        // C2 traversal, block by block. Blocks whose document span misses
        // [pass_first, pass_last] hold no cell of this pass's subcollection
        // and are passed over undecoded, so a multi-pass run decodes (and
        // pass-filters) a C2 block only in the passes whose slices its span
        // overlaps. Every cell is checked once, when it is decoded: the
        // scatter indexes index_of by C2 document numbers and the slab (and
        // Finalize the norms) by C1's.
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
          const std::span<const ICell> block2(
              cells2, static_cast<size_t>(bm2.cell_count));
          if (newly2 > 0) {
            TEXTJOIN_RETURN_IF_ERROR(CheckPostingDocs(block2, n2));
          }
          if (cpu != nullptr) {
            cpu->cells_decoded += newly2;
            // Every decoded C2 cell is visited for the pass filter.
            cpu->cell_compares += bm2.cell_count;
          }
          for (const ICell& oc : block2) {
            const int64_t slot = index_of[oc.doc] - slice_lo;
            if (slot < 0 || slot >= slots) continue;
            int64_t newly1 = 0;
            TEXTJOIN_ASSIGN_OR_RETURN(const kernel::ICellBuffer* cells1,
                                      e1.All(&newly1));
            if (newly1 > 0) {
              TEXTJOIN_RETURN_IF_ERROR(CheckPostingDocs(*cells1, n1));
              if (cpu != nullptr) cpu->cells_decoded += newly1;
            }
            const double w2 = static_cast<double>(oc.weight);
            double* row = acc.data() + slot * n1;
            int64_t performed = 0;
            for (const ICell& icell : *cells1) {
              if (!inner_member.empty() && !inner_member[icell.doc]) continue;
              row[icell.doc] +=
                  static_cast<double>(icell.weight) * w2 * factor;
              ++performed;
            }
            if (cpu != nullptr) {
              cpu->accumulations += performed;
              // Every C1 cell is visited for this outer cell.
              cpu->cell_compares += static_cast<int64_t>(cells1->size());
            }
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

    // Emit results for this pass's subcollection, ascending by document:
    // drain each slot's row, which leaves it zeroed for the next pass.
    TEXTJOIN_RETURN_IF_ERROR(GovernorCheckpoint(ctx, "VVM matrix partition"));
    for (int64_t slot = 0; slot < slots; ++slot) {
      const DocId outer_doc = participating[slice_lo + slot];
      const std::span<double> row(acc.data() + slot * n1,
                                  static_cast<size_t>(n1));
      const int64_t offers = DrainPositive(row, [&](size_t i, double sum) {
        const DocId inner_doc = static_cast<DocId>(i);
        heap.Add(inner_doc,
                 ctx.similarity->Finalize(sum, inner_doc, outer_doc));
      });
      if (cpu != nullptr) cpu->heap_offers += offers;
      result.push_back(OuterMatches{outer_doc, heap.TakeSorted()});
    }
  }
  return result;
}

}  // namespace textjoin
