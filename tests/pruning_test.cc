#include <gtest/gtest.h>

#include <cstdlib>

#include "storage/disk_manager.h"
#include "join/hhnl.h"
#include "join/hvnl.h"
#include "join/vvm.h"
#include "test_util.h"

namespace textjoin {
namespace {

using testing_util::BruteForceJoin;
using testing_util::MakeFixture;
using testing_util::RandomCollection;

// Exactness is the executors' hard contract, VVM's pass-slice block skip
// included: every executor must return BIT-identical results — scores
// compared with ==, including tie-breaking at the heap boundary — to the
// brute-force reference. The sweep below drives that contract across the
// three algorithms (plus HHNL's backward order), the weighting
// configurations and several seeds; `ctest -L stress` re-runs it under
// TEXTJOIN_STRESS_SEED offsets.

uint64_t SeedOffset() {
  const char* s = std::getenv("TEXTJOIN_STRESS_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
}

struct Variant {
  const char* name;
  bool cosine;
  bool idf;
};

constexpr Variant kVariants[] = {
    {"raw", false, false},
    {"idf", false, true},
    {"cosine", true, false},
    {"cosine+idf", true, true},
};

Result<JoinResult> RunOne(int executor, const JoinContext& ctx,
                          const JoinSpec& spec) {
  switch (executor) {
    case 0: {
      HhnlJoin join;
      return join.Run(ctx, spec);
    }
    case 1: {
      HhnlJoin join(HhnlJoin::Options{/*backward=*/true});
      return join.Run(ctx, spec);
    }
    case 2: {
      HvnlJoin join;
      return join.Run(ctx, spec);
    }
    default: {
      VvmJoin join;
      return join.Run(ctx, spec);
    }
  }
}

constexpr const char* kExecutorNames[] = {"HHNL", "HHNL backward", "HVNL",
                                          "VVM"};

TEST(ExactnessSweepTest, EveryExecutorMatchesBruteForce) {
  const uint64_t base = SeedOffset();
  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t seed = base * 1000 + round * 17 + 1;
    for (const Variant& v : kVariants) {
      SimulatedDisk disk(256);
      auto inner = RandomCollection(&disk, "c1", 40, 6, 50, seed);
      auto outer = RandomCollection(&disk, "c2", 30, 5, 50, seed + 7);
      SimilarityConfig config;
      config.cosine_normalize = v.cosine;
      config.use_idf = v.idf;
      auto f = MakeFixture(&disk, std::move(inner), std::move(outer), config);

      JoinSpec spec;
      spec.lambda = 4;
      spec.similarity = config;
      const JoinResult expected =
          BruteForceJoin(f->inner, f->outer, f->simctx, spec);

      JoinContext ctx = f->Context(60);
      for (int executor = 0; executor < 4; ++executor) {
        auto got = RunOne(executor, ctx, spec);
        ASSERT_TRUE(got.ok()) << kExecutorNames[executor] << "/" << v.name
                              << ": " << got.status();
        EXPECT_EQ(*got, expected)
            << kExecutorNames[executor] << "/" << v.name << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace textjoin
