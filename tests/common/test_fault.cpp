// The fault-injection module: spec parsing, the typed error taxonomy,
// deterministic draws, thread arming and the dead-device model.
//
// Everything here runs in BOTH build flavours. The hooks (the
// SJ_FAULT_POINT macros) compile out of a default build, but the
// injector machinery behind them — configure(), detail::check(),
// detail::check_batch() — is always built, so the determinism and
// taxonomy contracts are enforced even where the chaos CI job does not
// run. Only configure_from_text() distinguishes the flavours: it must
// REJECT a fault request in a compiled-out binary (a silently inert
// --faults flag would invalidate a chaos run).
#include "common/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/arena.hpp"

namespace sj::fault {
namespace {

/// Every test leaves the process-wide injector disabled, whatever path
/// it exits through.
struct FaultGuard {
  FaultGuard() { disable(); }
  ~FaultGuard() { disable(); }
};

// ------------------------------------------------------------- parsing

TEST(FaultSpec, ParsesFullSpec) {
  const Spec s = parse_spec(
      "alloc:0.01,stream:0.005,sync:0.25,seed:42,device:shard2@batch7");
  EXPECT_DOUBLE_EQ(s.rate[static_cast<int>(Site::kAlloc)], 0.01);
  EXPECT_DOUBLE_EQ(s.rate[static_cast<int>(Site::kStream)], 0.005);
  EXPECT_DOUBLE_EQ(s.rate[static_cast<int>(Site::kSync)], 0.25);
  EXPECT_EQ(s.seed, 42u);
  ASSERT_TRUE(s.has_loss);
  EXPECT_EQ(s.loss.device, 2);
  EXPECT_EQ(s.loss.batch, 7u);
}

TEST(FaultSpec, DefaultsWhenEntriesOmitted) {
  const Spec s = parse_spec("stream:0.5");
  EXPECT_DOUBLE_EQ(s.rate[static_cast<int>(Site::kAlloc)], 0.0);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_FALSE(s.has_loss);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",                        // empty
      "alloc",                   // no colon
      "alloc:",                  // no value
      ":0.5",                    // no key
      "bogus:0.5",               // unknown site
      "sort:0.5",                // no device sort to fault any more
      "alloc:2",                 // rate out of range
      "alloc:-0.1",              // rate out of range
      "alloc:x",                 // not a number
      "alloc:0.5zzz",            // trailing characters
      "seed:12x",                // trailing characters
      "device:foo",              // not shard<S>@batch<B>
      "device:shard2",           // missing @batch
      "device:shard64@batch1",   // shard index too large
      "device:shard1@batch0",    // batch ordinal is 1-based
      "alloc:0.1,,sync:0.1",     // empty entry
  };
  for (const auto& spec : bad) {
    EXPECT_THROW(parse_spec(spec), std::invalid_argument) << spec;
  }
  // Errors teach the grammar: the message embeds spec_grammar().
  try {
    parse_spec("bogus:0.5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(spec_grammar()), std::string::npos);
  }
}

TEST(FaultSpec, SiteNamesRoundTrip) {
  EXPECT_STREQ(site_name(Site::kAlloc), "alloc");
  EXPECT_STREQ(site_name(Site::kStream), "stream");
  EXPECT_STREQ(site_name(Site::kSync), "sync");
}

// ------------------------------------------------------------ taxonomy

TEST(FaultTaxonomy, HierarchyDispatchesAsDocumented) {
  // The retry layer catches FaultError subtypes in order; these is-a
  // relations are what that dispatch rests on.
  EXPECT_THROW(throw TransientDeviceError("t"), FaultError);
  EXPECT_THROW(throw DeviceLost(3, "d"), FaultError);
  EXPECT_THROW(throw ResourceExhausted("r"), FaultError);
  EXPECT_THROW(throw FaultError("f"), std::runtime_error);
  // A DeviceLost names its device so the shard engine can fail over the
  // right one even when the error crossed a pipeline boundary.
  try {
    throw DeviceLost(5, "gone");
  } catch (const DeviceLost& e) {
    EXPECT_EQ(e.device, 5);
  }
}

TEST(FaultTaxonomy, DeviceOutOfMemoryIsResourceExhausted) {
  // The pre-existing OOM type slots under ResourceExhausted, so the
  // pipeline's degrade-by-splitting path handles real arena exhaustion
  // and injected allocation faults identically.
  EXPECT_THROW(throw gpu::DeviceOutOfMemory(1024, 512), ResourceExhausted);
  EXPECT_THROW(throw gpu::DeviceOutOfMemory(1024, 512), FaultError);
  try {
    throw gpu::DeviceOutOfMemory(1024, 512);
  } catch (const gpu::DeviceOutOfMemory& e) {
    EXPECT_EQ(e.requested, 1024u);
    EXPECT_EQ(e.free_bytes, 512u);
  }
}

// --------------------------------------------------------- determinism

TEST(FaultDraws, Hash01IsDeterministicAndInRange) {
  for (std::uint64_t n = 0; n < 200; ++n) {
    const double a = detail::hash01(42, 1, n);
    const double b = detail::hash01(42, 1, n);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 1.0);
  }
}

TEST(FaultDraws, SeedAndSiteDecorrelate) {
  int seed_diff = 0;
  int site_diff = 0;
  for (std::uint64_t n = 0; n < 64; ++n) {
    if (detail::hash01(1, 0, n) != detail::hash01(2, 0, n)) ++seed_diff;
    if (detail::hash01(1, 0, n) != detail::hash01(1, 1, n)) ++site_diff;
  }
  EXPECT_GT(seed_diff, 32);
  EXPECT_GT(site_diff, 32);
}

// -------------------------------------------------------------- arming

TEST(FaultArming, DeviceScopesNestAndRestore) {
  EXPECT_FALSE(detail::armed());
  {
    DeviceScope outer(3);
    EXPECT_TRUE(detail::armed());
    EXPECT_EQ(detail::scope_device(), 3);
    {
      DeviceScope inner(-1);
      EXPECT_TRUE(detail::armed());
      EXPECT_EQ(detail::scope_device(), -1);
    }
    EXPECT_EQ(detail::scope_device(), 3);
  }
  EXPECT_FALSE(detail::armed());
}

TEST(FaultArming, UnarmedThreadsNeverFault) {
  FaultGuard guard;
  Spec spec;
  spec.rate[static_cast<int>(Site::kStream)] = 1.0;  // would always fire
  configure(spec);
  EXPECT_NO_THROW(detail::check(Site::kStream));
  EXPECT_EQ(injected_total(), 0u);
}

// ----------------------------------------------------------- injection
//
// These drive detail::check()/check_batch() directly, which works in
// both build flavours: the macros compile out of a default build, but
// the machinery behind them does not.

TEST(FaultInject, RateOneAlwaysFiresWithTypedErrors) {
  FaultGuard guard;
  Spec spec;
  spec.rate[static_cast<int>(Site::kAlloc)] = 1.0;
  spec.rate[static_cast<int>(Site::kSync)] = 1.0;
  configure(spec);
  DeviceScope scope(-1);
  // Allocation faults degrade (ResourceExhausted); the rest retry.
  EXPECT_THROW(detail::check(Site::kAlloc), ResourceExhausted);
  EXPECT_THROW(detail::check(Site::kSync), TransientDeviceError);
  EXPECT_NO_THROW(detail::check(Site::kStream));  // rate 0
  EXPECT_EQ(injected(Site::kAlloc), 1u);
  EXPECT_EQ(injected(Site::kSync), 1u);
  EXPECT_EQ(injected_total(), 2u);
}

TEST(FaultInject, SequenceIsReproducibleAcrossReconfigures) {
  FaultGuard guard;
  const auto fire_pattern = [] {
    Spec spec;
    spec.rate[static_cast<int>(Site::kStream)] = 0.3;
    spec.seed = 99;
    configure(spec);  // resets the per-site hit counters
    DeviceScope scope(0);
    std::vector<bool> fired;
    for (int i = 0; i < 100; ++i) {
      try {
        detail::check(Site::kStream);
        fired.push_back(false);
      } catch (const TransientDeviceError&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const auto first = fire_pattern();
  const auto second = fire_pattern();
  EXPECT_EQ(first, second);
  // ~30 of 100 draws should fire; allow a wide deterministic margin.
  const auto fires = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 10u);
  EXPECT_LT(fires, 60u);
}

TEST(FaultInject, TargetedLossKillsDeviceAndStaysDead) {
  FaultGuard guard;
  Spec spec;
  spec.has_loss = true;
  spec.loss.device = 1;
  spec.loss.batch = 3;
  configure(spec);

  // Batches 1 and 2 on device 1 pass; batch 3 kills it.
  EXPECT_NO_THROW(detail::check_batch(1, 1));
  EXPECT_NO_THROW(detail::check_batch(1, 2));
  try {
    detail::check_batch(1, 3);
    FAIL() << "expected DeviceLost";
  } catch (const DeviceLost& e) {
    EXPECT_EQ(e.device, 1);
  }
  EXPECT_EQ(devices_lost(), 1u);

  // Dead is dead: every later operation on device 1 fails, including
  // batches that did not match the plan, while device 0 is untouched.
  EXPECT_THROW(detail::check_batch(1, 1), DeviceLost);
  {
    DeviceScope scope(1);
    EXPECT_THROW(detail::check(Site::kStream), DeviceLost);
  }
  EXPECT_NO_THROW(detail::check_batch(0, 3));

  // reset_devices() revives it (what a fresh sharded run does).
  reset_devices();
  EXPECT_NO_THROW(detail::check_batch(1, 1));
}

TEST(FaultInject, DisableDropsSpecAndCounters) {
  FaultGuard guard;
  Spec spec;
  spec.rate[static_cast<int>(Site::kSync)] = 1.0;
  configure(spec);
  EXPECT_TRUE(enabled());
  {
    DeviceScope scope(-1);
    EXPECT_THROW(detail::check(Site::kSync), TransientDeviceError);
  }
  disable();
  EXPECT_FALSE(enabled());
  EXPECT_EQ(injected_total(), 0u);
  DeviceScope scope(-1);
  EXPECT_NO_THROW(detail::check(Site::kSync));
}

// ------------------------------------------------- build-flavour gate

TEST(FaultConfig, ConfigureFromTextHonoursBuildFlavour) {
  FaultGuard guard;
  if (kFaultsCompiledIn) {
    configure_from_text("stream:0.5,seed:7");
    EXPECT_TRUE(enabled());
  } else {
    // A compiled-out binary must refuse, not silently no-op, and the
    // error must say how to get a chaos-capable build.
    try {
      configure_from_text("stream:0.5,seed:7");
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("-DSJ_FAULTS=ON"),
                std::string::npos);
    }
    EXPECT_FALSE(enabled());
  }
  // A malformed spec is rejected in either flavour (the compiled-out
  // rejection and the parse error are both std::invalid_argument).
  EXPECT_THROW(configure_from_text("bogus:1"), std::invalid_argument);
}

}  // namespace
}  // namespace sj::fault
