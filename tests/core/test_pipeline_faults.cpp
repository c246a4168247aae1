// BatchPipeline under failure: retry, graceful degradation, error
// context and clean drain.
//
// Two tiers:
//   * Always-on tests exercise the failure paths reachable in a default
//     build — a sink callback throwing mid-run, the unsplittable-
//     overflow fatal, retry-policy validation. The drain contract: ANY
//     error must stop the run without deadlock or std::terminate (the
//     transfer stream drains first), and run() must rethrow the error
//     with the failing batch named.
//   * Chaos tests (skipped unless built with -DSJ_FAULTS=ON) inject
//     seeded faults at the gpusim seams and assert the pipeline's
//     recovery is INVISIBLE in the output: byte-identical pairs with
//     nonzero retry/split counters, and typed errors once retries are
//     exhausted.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/datagen.hpp"
#include "common/fault.hpp"
#include "core/join.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

namespace sj {
namespace {

struct FaultGuard {
  FaultGuard() { fault::disable(); }
  ~FaultGuard() { fault::disable(); }
};

ResultSet run_plain(const Dataset& d, double eps,
                    GpuSelfJoinOptions opt = {}) {
  auto r = GpuSelfJoin(opt).run(d, eps);
  r.pairs.normalize();
  return r.pairs;
}

// ----------------------------------------------------- default builds

TEST(PipelineFaults, RejectsNegativeRetryPolicy) {
  const auto d = datagen::uniform(50, 2, 0.0, 5.0, 11);
  GpuSelfJoinOptions opt;
  opt.retry.retries = -1;
  EXPECT_THROW(GpuSelfJoin(opt).run(d, 1.0), std::invalid_argument);
  GpuSelfJoinOptions opt2;
  opt2.retry.backoff_ms = -0.5;
  EXPECT_THROW(GpuSelfJoin(opt2).run(d, 1.0), std::invalid_argument);
}

TEST(PipelineFaults, SinkThrowMidRunDrainsAndRethrows) {
  // A sink callback that throws must neither escape a worker thread
  // (std::terminate) nor strand the transfer stream: the run stops, the
  // stream drains, and run() rethrows the sink's error with the batch
  // named.
  const auto d = datagen::uniform(400, 2, 0.0, 10.0, 13);
  GpuSelfJoinOptions opt;
  opt.min_batches = 8;
  opt.mode = ResultMode::kSink;
  int calls = 0;
  opt.sink = [&calls](const Pair*, std::size_t) {
    ++calls;
    throw std::runtime_error("sink rejected the segment");
  };
  try {
    GpuSelfJoin(opt).run(d, 1.0);
    FAIL() << "expected the sink's error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("sink rejected the segment"),
              std::string::npos)
        << e.what();
  }
  EXPECT_GE(calls, 1);
}

TEST(PipelineFaults, UnsplittableOverflowNamesTheBatch) {
  // Every point in one spot: splitting bottoms out at a single query
  // whose neighbourhood alone exceeds the buffer. The error must stay
  // typed (DeviceOutOfMemory, so callers' catch clauses keep working)
  // and carry the batch context (errors name their batch): 200
  // coincident points give every point 200 pairs against 8.
  Dataset d(2);
  for (int i = 0; i < 200; ++i) {
    const double p[2] = {1.0, 1.0};
    d.push_back(p);
  }
  GpuSelfJoinOptions opt;
  opt.max_buffer_pairs = 8;
  try {
    GpuSelfJoin(opt).run(d, 1.0);
    FAIL() << "expected DeviceOutOfMemory";
  } catch (const gpu::DeviceOutOfMemory& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("batch"), std::string::npos) << what;
    EXPECT_NE(what.find("neighbourhood overflows"), std::string::npos)
        << what;
  }
}

// ------------------------------------------------------- chaos builds

#define SJ_REQUIRE_CHAOS_BUILD()                                      \
  do {                                                                \
    if (!fault::kFaultsCompiledIn)                                    \
      GTEST_SKIP() << "fault hooks compiled out (-DSJ_FAULTS=OFF)";   \
  } while (0)

TEST(ChaosPipeline, TransientFaultsRetryToParity) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::ippp(800, 2, 10.0, 501);
  const auto want = run_plain(d, 0.5);

  fault::configure_from_text("stream:0.3,sync:0.1,seed:5");
  GpuSelfJoinOptions opt;
  opt.min_batches = 8;
  opt.retry.retries = 20;
  opt.retry.backoff_ms = 0.0;
  auto r = GpuSelfJoin(opt).run(d, 0.5);
  r.pairs.normalize();
  EXPECT_TRUE(r.pairs.pairs() == want.pairs());
  EXPECT_GT(r.stats.batch.retries, 0u);
  EXPECT_GT(fault::injected_total(), 0u);
}

TEST(ChaosPipeline, AllocFaultsSplitToParity) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::ippp(800, 2, 10.0, 503);
  const auto want = run_plain(d, 0.5);

  // Allocation faults surface as ResourceExhausted; the pipeline
  // degrades by halving the batch's unit range instead of failing the
  // run.
  fault::configure_from_text("alloc:0.3,seed:11");
  GpuSelfJoinOptions opt;
  opt.min_batches = 16;
  opt.retry.retries = 20;
  opt.retry.backoff_ms = 0.0;
  auto r = GpuSelfJoin(opt).run(d, 0.5);
  r.pairs.normalize();
  EXPECT_TRUE(r.pairs.pairs() == want.pairs());
  EXPECT_GT(r.stats.batch.batches_split_on_oom, 0u);
}

TEST(ChaosPipeline, RetriesExhaustedFailTyped) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::uniform(200, 2, 0.0, 10.0, 505);
  // Every launch faults: the failure must surface as the pipeline's
  // typed, batch-annotated error once the retries are spent.
  fault::configure_from_text("stream:1,seed:1");
  GpuSelfJoinOptions opt;
  opt.mode = ResultMode::kCountOnly;
  opt.retry.retries = 2;
  opt.retry.backoff_ms = 0.0;
  try {
    GpuSelfJoin(opt).run(d, 1.0);
    FAIL() << "expected TransientDeviceError";
  } catch (const fault::TransientDeviceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("batch"), std::string::npos) << what;
    EXPECT_NE(what.find("retries exhausted"), std::string::npos) << what;
  }
}

TEST(ChaosPipeline, ZeroRetriesFailFastButDrainCleanly) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::uniform(400, 2, 0.0, 10.0, 507);
  // The first sync fault (a fill waiting for its buffer) is fatal with
  // retries=0 — the transfer stream must still drain (the test
  // completing at all is the assertion; a drain bug hangs it).
  fault::configure_from_text("sync:1,seed:1");
  GpuSelfJoinOptions opt;
  opt.min_batches = 8;
  opt.retry.retries = 0;
  EXPECT_THROW(GpuSelfJoin(opt).run(d, 1.0), fault::TransientDeviceError);
}

TEST(ChaosPipeline, CountAndHistogramModesRecoverToo) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  const auto d = datagen::ippp(600, 2, 8.0, 509);
  fault::disable();
  GpuSelfJoinOptions base;
  base.min_batches = 8;
  base.mode = ResultMode::kCountOnly;
  const auto want_count = GpuSelfJoin(base).run(d, 0.5).total_pairs;
  base.mode = ResultMode::kHistogram;
  const auto want_hist = GpuSelfJoin(base).run(d, 0.5).histogram;

  fault::configure_from_text("stream:0.3,seed:17");
  GpuSelfJoinOptions opt = base;
  opt.retry.retries = 20;
  opt.retry.backoff_ms = 0.0;
  opt.mode = ResultMode::kCountOnly;
  EXPECT_EQ(GpuSelfJoin(opt).run(d, 0.5).total_pairs, want_count);
  opt.mode = ResultMode::kHistogram;
  EXPECT_EQ(GpuSelfJoin(opt).run(d, 0.5).histogram, want_hist);
}

TEST(ChaosPipeline, MaskedFillsReplayExactly) {
  SJ_REQUIRE_CHAOS_BUILD();
  FaultGuard guard;
  // A retried or halved fill re-reads the count pass's match masks: the
  // raw bytes are the fault-free run's, and so is the distance count —
  // count-pass faults fire before any kernel thread runs, and a fill
  // re-run after a faulted landing copy computes no distance.
  const auto d = datagen::ippp(800, 2, 10.0, 511);
  const auto queries = datagen::uniform(500, 2, 0.0, 10.0, 513);
  GpuSelfJoinOptions opt;
  opt.unicomp = true;
  opt.min_batches = 8;
  opt.retry.retries = 20;
  opt.retry.backoff_ms = 0.0;
  GpuJoinOptions jopt;
  jopt.min_batches = 8;
  jopt.retry = opt.retry;
  const auto want = GpuSelfJoin(opt).run(d, 0.5);
  const auto want_join = gpu_join(queries, d, 0.5, jopt);

  fault::configure_from_text("alloc:0.2,stream:0.2,sync:0.1,seed:7");
  const auto got = GpuSelfJoin(opt).run(d, 0.5);
  const auto got_join = gpu_join(queries, d, 0.5, jopt);
  EXPECT_EQ(got.pairs.pairs(), want.pairs.pairs());
  EXPECT_EQ(got.stats.metrics.distance_calcs,
            want.stats.metrics.distance_calcs);
  EXPECT_GT(got.stats.batch.retries, 0u);
  EXPECT_GT(got.stats.batch.batches_split_on_oom, 0u);
  EXPECT_EQ(got_join.pairs.pairs(), want_join.pairs.pairs());
  EXPECT_EQ(got_join.stats.metrics.distance_calcs,
            want_join.stats.metrics.distance_calcs);
  EXPECT_GT(got_join.stats.batch.retries, 0u);
  EXPECT_GT(got_join.stats.batch.batches_split_on_oom, 0u);
}

}  // namespace
}  // namespace sj
