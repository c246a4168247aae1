// QuerySession (api/session.hpp): the always-on service layer. The
// contract under test is robustness under concurrency — every submitted
// query resolves exactly once (result or typed error), admission control
// sheds typed, deadlines and cancellation land typed, snapshot restore
// is validated, and the surviving answers are byte-identical to the
// one-shot engines. The whole file must run clean under TSan (CI runs
// the sanitizer matrix over the test suite).
#include "api/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "common/datagen.hpp"
#include "core/join.hpp"
#include "core/knn.hpp"
#include "core/self_join.hpp"
#include "core/snapshot.hpp"

namespace sj {
namespace {

// Brute-force reference for one range query: ids of data points within
// eps, ascending.
std::vector<std::uint32_t> brute_range(const Dataset& d,
                                       const std::vector<double>& q,
                                       double eps) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < d.size(); ++i) {
    double s = 0.0;
    for (int k = 0; k < d.dim(); ++k) {
      const double diff = d.pt(i)[k] - q[k];
      s += diff * diff;
    }
    if (std::sqrt(s) <= eps) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<double> point_of(const Dataset& d, std::size_t i) {
  return {d.pt(i), d.pt(i) + d.dim()};
}

TEST(QuerySession, RangeResultsMatchBruteForceAndAreSorted) {
  const auto data = datagen::gaussian_mixture(1200, 2, 5, 5.0, 0.0, 80.0, 3);
  const double eps = 2.0;
  api::QuerySession session(data, eps);

  std::vector<std::future<api::RangeResult>> futures;
  std::vector<std::vector<double>> queries;
  for (std::size_t q = 0; q < 32; ++q)
    queries.push_back(point_of(data, (q * 37) % data.size()));
  for (auto& q : queries) futures.push_back(session.range(q));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto r = futures[q].get();
    const auto expected = brute_range(data, queries[q], eps);
    EXPECT_EQ(r.neighbors, expected) << "query " << q;
    EXPECT_EQ(r.count, expected.size());
    EXPECT_TRUE(std::is_sorted(r.neighbors.begin(), r.neighbors.end()));
  }
}

TEST(QuerySession, CountOnlySkipsMaterialisationButCountsExactly) {
  const auto data = datagen::uniform(900, 2, 0.0, 40.0, 13);
  const double eps = 1.5;
  api::QuerySession session(data, eps);
  api::QueryOptions q;
  q.count_only = true;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto pt = point_of(data, i * 100);
    const auto r = session.range(pt, q).get();
    EXPECT_TRUE(r.neighbors.empty());
    EXPECT_EQ(r.count, brute_range(data, pt, eps).size());
  }
}

TEST(QuerySession, JoinSelfJoinAndKnnMatchOneShotEngines) {
  const auto data = datagen::uniform(1000, 2, 0.0, 40.0, 23);
  const auto queries = datagen::uniform(300, 2, 0.0, 40.0, 24);
  const double eps = 1.2;
  api::SessionOptions so;
  api::QuerySession session(data, eps, so);

  auto join_f = session.join(queries);
  auto self_f = session.self_join();
  auto knn_f = session.knn(queries, 4);

  // The session runs the engines' defaults, so its answers are the
  // one-shot engines' bytes, pair order included.
  const auto join_ref = gpu_join(queries, data, eps);
  const auto join_got = join_f.get();
  EXPECT_EQ(join_ref.pairs.pairs(), join_got.pairs.pairs());

  const auto self_ref = GpuSelfJoin().run(data, eps);
  const auto self_got = self_f.get();
  EXPECT_EQ(self_ref.pairs.pairs(), self_got.pairs.pairs());

  auto knn_ref = gpu_knn(queries, data, [] {
    KnnOptions o;
    o.k = 4;
    return o;
  }());
  auto knn_got = knn_f.get();
  ASSERT_EQ(knn_ref.num_queries(), knn_got.num_queries());
  for (std::size_t q = 0; q < knn_ref.num_queries(); ++q) {
    ASSERT_EQ(knn_ref.count(q), knn_got.count(q)) << "query " << q;
    for (int j = 0; j < knn_ref.count(q); ++j)
      EXPECT_EQ(knn_ref.neighbor(q, j), knn_got.neighbor(q, j));
  }
}

TEST(QuerySession, RejectsDimensionMismatch) {
  const auto data = datagen::uniform(200, 2, 0.0, 10.0, 33);
  api::QuerySession session(data, 1.0);
  EXPECT_THROW((void)session.range({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(QuerySession, FullQueueShedsTypedAtSubmitAndAnswersTheRest) {
  const auto data = datagen::uniform(3000, 2, 0.0, 30.0, 43);
  api::SessionOptions so;
  so.workers = 1;
  so.max_queue_depth = 2;
  so.coalesce_limit = 1;  // keep the worker busy one query at a time
  api::QuerySession session(data, 1.0, so);

  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < 20; ++q) {
        try {
          (void)session
              .range(point_of(data,
                              static_cast<std::size_t>(c * 20 + q) * 7 %
                                  data.size()))
              .get();
          ok.fetch_add(1);
        } catch (const exec::Overloaded&) {
          shed.fetch_add(1);
        } catch (const std::exception&) {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  // Conservation: every query resolved exactly one way, none vanished.
  EXPECT_EQ(ok.load() + shed.load(), 120);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(shed.load(), 0);  // a 2-deep queue cannot absorb 6 clients
  const auto st = session.stats();
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(st.shed, static_cast<std::uint64_t>(shed.load()));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(ok.load()));
}

TEST(QuerySession, ExpiredDeadlineFailsTypedThroughTheFuture) {
  const auto data = datagen::uniform(2000, 2, 0.0, 30.0, 53);
  api::QuerySession session(data, 1.0);
  api::QueryOptions q;
  q.deadline_ms = 1e-4;  // expires before any worker can pick it up
  auto f = session.range(point_of(data, 0), q);
  EXPECT_THROW((void)f.get(), exec::DeadlineExceeded);
  EXPECT_GE(session.stats().expired, 1u);
}

TEST(QuerySession, CancellationFailsTypedThroughTheFuture) {
  const auto data = datagen::uniform(2000, 2, 0.0, 30.0, 63);
  api::QuerySession session(data, 1.0);
  exec::CancelToken token;
  token.cancel();  // cancelled before submit: must never reach the device
  api::QueryOptions q;
  q.cancel = &token;
  auto f = session.self_join(q);
  EXPECT_THROW((void)f.get(), exec::Cancelled);
  EXPECT_GE(session.stats().cancelled, 1u);
}

TEST(QuerySession, QueueAgeSheddingExpiresStaleWork) {
  const auto data = datagen::uniform(4000, 2, 0.0, 30.0, 73);
  api::SessionOptions so;
  so.workers = 1;
  so.coalesce_limit = 1;
  so.max_queue_age_ms = 1e-4;  // everything is stale by the time it pops
  api::QuerySession session(data, 1.0, so);

  std::vector<std::future<api::RangeResult>> futures;
  for (int q = 0; q < 8; ++q)
    futures.push_back(session.range(point_of(data, 0)));
  int aged = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const exec::Overloaded&) {
      ++aged;
    }
  }
  // The first query may have been popped before it aged; the backlog
  // behind it cannot all have been fresh.
  EXPECT_GT(aged, 0);
}

TEST(QuerySession, DestructorShedsQueuedWorkTyped) {
  const auto data = datagen::uniform(3000, 2, 0.0, 30.0, 83);
  std::vector<std::future<api::RangeResult>> futures;
  {
    api::SessionOptions so;
    so.workers = 1;
    so.coalesce_limit = 1;
    api::QuerySession session(data, 1.0, so);
    for (int q = 0; q < 16; ++q)
      futures.push_back(session.range(point_of(data, 0)));
    // Session destroyed with most of the queue still pending.
  }
  int resolved = 0, shed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++resolved;
    } catch (const exec::Overloaded&) {
      ++shed;
    }
  }
  // No future may hang or be abandoned: all 16 resolved one way.
  EXPECT_EQ(resolved + shed, 16);
}

TEST(QuerySession, ConcurrentMixedStressEveryFutureResolvesTyped) {
  // The TSan satellite: many client threads, all four query kinds,
  // racing cancellations and tight deadlines, all against one session.
  // Success = every future resolves (no hang), only typed outcomes, the
  // counters add up, and untyped failures are zero.
  const auto data = datagen::gaussian_mixture(2000, 2, 4, 4.0, 0.0, 60.0, 93);
  const double eps = 1.5;
  api::SessionOptions so;
  so.workers = 3;
  so.max_queue_depth = 64;
  api::QuerySession session(data, eps, so);

  constexpr int kClients = 6;
  constexpr int kPerClient = 30;
  std::atomic<int> ok{0}, shed{0}, expired{0}, cancelled{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // One token per client, tripped halfway through its own stream so
      // cancellation races against execution of its in-flight queries.
      exec::CancelToken token;
      for (int q = 0; q < kPerClient; ++q) {
        api::QueryOptions qo;
        const int kind = (c * kPerClient + q) % 10;
        if (kind == 7) qo.deadline_ms = 1e-3;  // near-certain expiry
        if (q % 3 == 0) qo.cancel = &token;
        if (q == kPerClient / 2) token.cancel();
        try {
          const std::size_t idx =
              (static_cast<std::size_t>(c) * 2654435761ULL +
               static_cast<std::size_t>(q) * 40503ULL) %
              data.size();
          if (kind == 8) {
            Dataset qs(data.dim(), std::vector<double>(
                                       data.pt(idx), data.pt(idx) + data.dim()));
            (void)session.knn(qs, 3, qo).get();
          } else if (kind == 9) {
            (void)session.self_join(qo).get();
          } else {
            qo.count_only = (q % 2 == 0);
            (void)session.range(point_of(data, idx), qo).get();
          }
          ok.fetch_add(1);
        } catch (const exec::Cancelled&) {
          cancelled.fetch_add(1);
        } catch (const exec::DeadlineExceeded&) {
          expired.fetch_add(1);
        } catch (const exec::Overloaded&) {
          shed.fetch_add(1);
        } catch (const std::exception&) {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(other.load(), 0) << "untyped failures under concurrent stress";
  EXPECT_EQ(ok.load() + shed.load() + expired.load() + cancelled.load(),
            kClients * kPerClient);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(cancelled.load(), 0);  // the tripped tokens must have landed

  const auto st = session.stats();
  EXPECT_EQ(st.admitted,
            static_cast<std::uint64_t>(kClients * kPerClient - shed.load()));
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(st.completed + st.expired + st.cancelled + st.failed,
            st.admitted);
  EXPECT_EQ(st.latency_samples == 0, st.p50_ms == 0.0);
}

TEST(QuerySession, CoalescedAnswersEqualUncoalescedAnswers) {
  // Force heavy coalescing (1 worker, many queued range queries) and
  // compare against a coalesce_limit=1 session: grouping queries into
  // shared launches must never change any individual answer.
  const auto data = datagen::uniform(1500, 2, 0.0, 40.0, 103);
  const double eps = 1.4;
  std::vector<std::vector<double>> queries;
  for (std::size_t q = 0; q < 48; ++q)
    queries.push_back(point_of(data, (q * 31) % data.size()));

  api::SessionOptions coalesced;
  coalesced.workers = 1;
  api::SessionOptions solo;
  solo.workers = 1;
  solo.coalesce_limit = 1;

  std::vector<api::RangeResult> a, b;
  {
    api::QuerySession s(data, eps, coalesced);
    std::vector<std::future<api::RangeResult>> fs;
    for (auto& q : queries) fs.push_back(s.range(q));
    for (auto& f : fs) a.push_back(f.get());
    EXPECT_GT(s.stats().coalesced_queries, 0u);
  }
  {
    api::QuerySession s(data, eps, solo);
    std::vector<std::future<api::RangeResult>> fs;
    for (auto& q : queries) fs.push_back(s.range(q));
    for (auto& f : fs) b.push_back(f.get());
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    EXPECT_EQ(a[q].neighbors, b[q].neighbors) << "query " << q;
    EXPECT_EQ(a[q].count, b[q].count) << "query " << q;
  }
}

class SessionSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sj_session_snap_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(SessionSnapshotTest, ColdBootWritesSnapshotWarmBootRestoresIt) {
  const auto data = datagen::uniform(800, 2, 0.0, 30.0, 113);
  const double eps = 1.1;
  api::SessionOptions so;
  so.snapshot = path("s.snap");

  {
    api::QuerySession cold(data, eps, so);
    EXPECT_FALSE(cold.restored_from_snapshot());
    EXPECT_TRUE(std::filesystem::exists(so.snapshot));
  }
  api::QuerySession warm(data, eps, so);
  EXPECT_TRUE(warm.restored_from_snapshot());
  const auto pt = point_of(data, 7);
  EXPECT_EQ(warm.range(pt).get().neighbors, brute_range(data, pt, eps));
}

TEST_F(SessionSnapshotTest, MismatchedSnapshotIsRejectedAndRebuilt) {
  const auto data = datagen::uniform(600, 2, 0.0, 30.0, 123);
  api::SessionOptions so;
  so.snapshot = path("m.snap");
  { api::QuerySession seed(data, 1.0, so); }

  // Same file, different eps: the restore must be rejected (a grid built
  // for eps=1.0 is wrong for eps=2.0) and the session rebuilt cold.
  api::QuerySession other_eps(data, 2.0, so);
  EXPECT_FALSE(other_eps.restored_from_snapshot());
  const auto pt = point_of(data, 3);
  EXPECT_EQ(other_eps.range(pt).get().neighbors,
            brute_range(data, pt, 2.0));

  // Different dataset under the same path: also rejected.
  const auto foreign = datagen::uniform(600, 2, 0.0, 30.0, 124);
  api::QuerySession other_data(foreign, 2.0, so);
  EXPECT_FALSE(other_data.restored_from_snapshot());
}

TEST_F(SessionSnapshotTest, CorruptSnapshotDegradesToColdBuildAndRewrites) {
  const auto data = datagen::uniform(500, 2, 0.0, 30.0, 133);
  api::SessionOptions so;
  so.snapshot = path("c.snap");
  { api::QuerySession seed(data, 1.0, so); }

  // Truncate the snapshot to half: boot must warn, rebuild cold, serve
  // correctly, and leave a fresh valid snapshot behind.
  const auto full = std::filesystem::file_size(so.snapshot);
  std::filesystem::resize_file(so.snapshot, full / 2);
  {
    api::QuerySession recovered(data, 1.0, so);
    EXPECT_FALSE(recovered.restored_from_snapshot());
    const auto pt = point_of(data, 11);
    EXPECT_EQ(recovered.range(pt).get().neighbors,
              brute_range(data, pt, 1.0));
  }
  std::string why;
  EXPECT_TRUE(snapshot::try_load(so.snapshot, &why).has_value()) << why;
}

}  // namespace
}  // namespace sj
