#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/status.h"

namespace textjoin {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kUnavailable, StatusCode::kDataLoss,
        StatusCode::kCancelled, StatusCode::kDeadlineExceeded}) {
    EXPECT_STRNE(StatusCodeToString(code), "UNKNOWN");
  }
}

TEST(StatusTest, LifecycleCodesAndClassification) {
  Status cancelled = Status::Cancelled("user hit ^C");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "CANCELLED: user hit ^C");
  EXPECT_TRUE(IsCancellation(cancelled));

  Status late = Status::DeadlineExceeded("5ms was not enough");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DEADLINE_EXCEEDED: 5ms was not enough");
  EXPECT_TRUE(IsCancellation(late));

  // Cancellation must stay disjoint from I/O failure: the planner re-plans
  // I/O failures but must never re-plan a cancelled query.
  EXPECT_FALSE(IsIoFailure(cancelled));
  EXPECT_FALSE(IsIoFailure(late));
  EXPECT_FALSE(IsCancellation(Status::Unavailable("device busy")));
  EXPECT_FALSE(IsCancellation(Status::OK()));

  // Admission sheds are retriable by the client; cancellations are not.
  Status shed = Status::ResourceExhausted("queue full");
  EXPECT_TRUE(IsRetriableAdmission(shed));
  EXPECT_FALSE(IsRetriableAdmission(cancelled));
  EXPECT_FALSE(IsRetriableAdmission(late));
  EXPECT_FALSE(IsRetriableAdmission(Status::OK()));
}

TEST(StatusTest, IoErrorCodesAndClassification) {
  Status transient = Status::Unavailable("device busy");
  EXPECT_EQ(transient.code(), StatusCode::kUnavailable);
  EXPECT_EQ(transient.ToString(), "UNAVAILABLE: device busy");
  EXPECT_TRUE(IsTransientIoError(transient));
  EXPECT_TRUE(IsIoFailure(transient));

  Status loss = Status::DataLoss("bits rotted");
  EXPECT_EQ(loss.code(), StatusCode::kDataLoss);
  EXPECT_EQ(loss.ToString(), "DATA_LOSS: bits rotted");
  EXPECT_FALSE(IsTransientIoError(loss));
  EXPECT_TRUE(IsIoFailure(loss));

  // Ordinary errors are neither transient nor I/O failures.
  EXPECT_FALSE(IsIoFailure(Status::Internal("bug")));
  EXPECT_FALSE(IsTransientIoError(Status::OK()));
  EXPECT_FALSE(IsIoFailure(Status::OK()));
}

TEST(ResultTest, HoldsValue) {
  // On the heap: for a stack Result<int> read through status(), GCC 12
  // reports a false -Wmaybe-uninitialized on the variant's Status member
  // at destruction.
  auto r = std::make_unique<Result<int>>(42);
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->value(), 42);
  EXPECT_TRUE(r->status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TEXTJOIN_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0);
  EXPECT_EQ(CeilDiv(1, 4), 1);
  EXPECT_EQ(CeilDiv(4, 4), 1);
  EXPECT_EQ(CeilDiv(5, 4), 2);
}

TEST(MathTest, CeilPages) {
  EXPECT_EQ(CeilPages(0.0), 0);
  EXPECT_EQ(CeilPages(0.1), 1);
  EXPECT_EQ(CeilPages(1.0), 1);
  EXPECT_EQ(CeilPages(1.0001), 2);
}

// A percentile prints only with at least ten samples beyond it: p99 needs
// 1001 samples (index 990, samples 991..1000 beyond), p999 10 011.
TEST(MathTest, PercentileNeedsTenSamplesBeyond) {
  std::vector<double> sorted(1000);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<double>(i);
  }
  EXPECT_EQ(Percentile(sorted, 0.99), "-");
  EXPECT_EQ(Percentile(sorted, 0.50), "500.00");
  sorted.push_back(1000);
  EXPECT_EQ(Percentile(sorted, 0.99), "990.00");
  EXPECT_EQ(Percentile(sorted, 0.999), "-");
  EXPECT_EQ(Percentile({}, 0.50), "-");
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextInRange(-2, 2));
  EXPECT_EQ(seen.size(), 5u);  // all of -2..2 hit
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(ZipfTest, UniformWhenSIsZero) {
  ZipfSampler zipf(4, 0.0);
  Rng rng(31);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(37);
  int head = 0, tail = 0;
  for (int i = 0; i < 20000; ++i) {
    uint64_t r = zipf.Sample(&rng);
    if (r < 10) ++head;
    if (r >= 990) ++tail;
  }
  EXPECT_GT(head, 10 * std::max(tail, 1));
}

TEST(ZipfTest, SamplesInRange) {
  ZipfSampler zipf(5, 1.5);
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(&rng), 5u);
}

}  // namespace
}  // namespace textjoin
