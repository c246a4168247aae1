// BackendRegistry semantics: built-in registration, lookup, aliases,
// error reporting, extension with external backends, and the RunConfig
// option plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "common/datagen.hpp"

namespace sj::api {
namespace {

TEST(BackendRegistry, BuiltinsAreRegistered) {
  const auto names = BackendRegistry::instance().names();
  for (const char* name :
       {"gpu", "gpu_unicomp", "ego", "rtree", "brute", "gpu_bf"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << name;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(BackendRegistry, FindReturnsNullForUnknown) {
  // A retired engine name is unknown, not an alias.
  for (const char* name : {"no_such_backend", "gpu_async"}) {
    EXPECT_EQ(BackendRegistry::instance().find(name), nullptr) << name;
  }
}

TEST(BackendRegistry, AtThrowsListingRegisteredNames) {
  try {
    BackendRegistry::instance().at("no_such_backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_backend"), std::string::npos);
    for (const auto& name : BackendRegistry::instance().names()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
  }
}

TEST(BackendRegistry, SuperegoAliasResolvesToEgo) {
  const auto& registry = BackendRegistry::instance();
  EXPECT_EQ(registry.find("superego"), registry.find("ego"));
  EXPECT_NE(registry.find("superego"), nullptr);
  // The alias is not a primary name.
  const auto names = registry.names();
  EXPECT_TRUE(std::find(names.begin(), names.end(), "superego") ==
              names.end());
  const auto aliases = registry.aliases();
  EXPECT_TRUE(std::find(aliases.begin(), aliases.end(), "superego -> ego") !=
              aliases.end());
}

TEST(BackendRegistry, CapabilitiesDistinguishEngines) {
  const auto& registry = BackendRegistry::instance();
  EXPECT_TRUE(registry.at("gpu").capabilities().gpu);
  EXPECT_TRUE(registry.at("gpu").capabilities().supports_knn);
  EXPECT_TRUE(registry.at("gpu_unicomp").capabilities().supports_join);
  EXPECT_FALSE(registry.at("ego").capabilities().gpu);
  EXPECT_FALSE(registry.at("rtree").capabilities().supports_knn);
  EXPECT_FALSE(registry.at("brute").capabilities().gpu);
}

TEST(BackendRegistry, DuplicateNameIsRejected) {
  class FakeGpu final : public Backend {
   public:
    std::string_view name() const override { return "gpu"; }
    std::string_view description() const override { return "dup"; }
    Capabilities capabilities() const override { return {}; }
    JoinOutcome run(const Dataset&, double,
                    const RunConfig&) const override {
      return {};
    }
  };
  EXPECT_THROW(BackendRegistry::instance().add(std::make_unique<FakeGpu>()),
               std::invalid_argument);
  EXPECT_THROW(BackendRegistry::instance().add(nullptr),
               std::invalid_argument);
}

TEST(BackendRegistry, AliasValidation) {
  auto& registry = BackendRegistry::instance();
  EXPECT_THROW(registry.add_alias("gpu", "brute"), std::invalid_argument);
  EXPECT_THROW(registry.add_alias("superego", "brute"),
               std::invalid_argument);
  EXPECT_THROW(registry.add_alias("fresh_alias", "no_such_target"),
               std::invalid_argument);
}

TEST(BackendRegistry, ExternalBackendExtendsTheSystem) {
  // The extension point future PRs (sharded/async/multi-GPU engines) use:
  // register, resolve by name, run through the uniform interface.
  class EchoBrute final : public Backend {
   public:
    std::string_view name() const override { return "test_echo"; }
    std::string_view description() const override { return "test double"; }
    Capabilities capabilities() const override { return {}; }
    JoinOutcome run(const Dataset& d, double eps,
                    const RunConfig& config) const override {
      return BackendRegistry::instance().at("brute").run(d, eps, config);
    }
  };
  auto& registry = BackendRegistry::instance();
  if (!registry.contains("test_echo")) {
    registry.add(std::make_unique<EchoBrute>());
  }
  const auto d = datagen::uniform(50, 2, 0.0, 10.0, 1);
  auto got = registry.at("test_echo").run(d, 1.0);
  auto want = registry.at("brute").run(d, 1.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(RunConfig, TypedExtraAccessors) {
  RunConfig config;
  config.extra = {{"a", "1"}, {"b", "0"}, {"c", "2.5"}, {"d", "off"},
                  {"e", "text"}};
  EXPECT_TRUE(config.flag("a", false));
  EXPECT_FALSE(config.flag("b", true));
  EXPECT_FALSE(config.flag("d", true));
  EXPECT_TRUE(config.flag("missing", true));
  EXPECT_EQ(config.integer("a", 7), 1);
  EXPECT_EQ(config.integer("missing", 7), 7);
  EXPECT_DOUBLE_EQ(config.number("c", 0.0), 2.5);
  EXPECT_EQ(config.text("e", "def"), "text");
  EXPECT_EQ(config.text("missing", "def"), "def");
}

TEST(RunConfig, CheckKeysAcceptsKnownRejectsUnknown) {
  RunConfig config;
  config.extra = {{"block_size", "128"}};
  EXPECT_NO_THROW(config.check_keys("gpu", "block_size,min_batches"));
  EXPECT_THROW(config.check_keys("gpu", "min_batches,num_streams"),
               std::invalid_argument);
  // Key names must match whole tokens, not substrings.
  EXPECT_THROW(config.check_keys("gpu", "block_size_x,xblock_size"),
               std::invalid_argument);
}

TEST(RunConfig, UnknownExtraKeySurfacesFromBackends) {
  const auto d = datagen::uniform(20, 2, 0.0, 10.0, 2);
  RunConfig config;
  config.extra["definitely_not_a_knob"] = "1";
  for (const auto& name : BackendRegistry::instance().names()) {
    if (name == "test_echo") continue;  // registered by a test above
    EXPECT_THROW(BackendRegistry::instance().at(name).run(d, 1.0, config),
                 std::invalid_argument)
        << name;
  }
  // Retired knobs are unknown keys too, not silently accepted: those of
  // the sampled estimator, host assembly stage and AoS scan, gpu_shard's
  // measured plan and its one-value layout, and gpu_bf's second spelling
  // of --mode count.
  const std::map<std::string, std::vector<std::string>> retired = {
      {"gpu_unicomp", {"assembly_threads", "sample_rate", "safety", "soa"}},
      {"gpu_shard",
       {"assembly_threads", "sample_rate", "safety", "soa", "plan",
        "plan_cache", "layout"}},
      {"gpu_bf", {"materialize"}},
  };
  for (const auto& [name, keys] : retired) {
    for (const std::string& removed : keys) {
      RunConfig stale;
      stale.extra.emplace(removed, "1");
      try {
        BackendRegistry::instance().at(name).run(d, 1.0, stale);
        ADD_FAILURE() << name << " accepted " << removed;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("(known: "), std::string::npos)
            << name << ": " << e.what();
      }
    }
  }
}

TEST(RunConfig, NonThreadedBackendsRejectThreads) {
  const auto d = datagen::uniform(30, 2, 0.0, 10.0, 5);
  const auto& registry = BackendRegistry::instance();
  RunConfig config;
  config.threads = 4;
  for (const char* name : {"gpu", "gpu_unicomp", "gpu_bf", "rtree"}) {
    EXPECT_THROW(registry.at(name).run(d, 1.0, config),
                 std::invalid_argument)
        << name;
  }
  for (const char* name : {"ego", "brute"}) {
    EXPECT_NO_THROW(registry.at(name).run(d, 1.0, config)) << name;
  }
}

TEST(RunConfig, NonPositiveGpuKnobsAreRejected) {
  const auto d = datagen::uniform(30, 2, 0.0, 10.0, 6);
  const auto& gpu = BackendRegistry::instance().at("gpu_unicomp");
  for (const char* bad : {"min_batches=-1", "block_size=0",
                          "num_streams=-3", "max_buffer_pairs=-1"}) {
    RunConfig config;
    const std::string spec(bad);
    const auto eq = spec.find('=');
    config.extra[spec.substr(0, eq)] = spec.substr(eq + 1);
    EXPECT_THROW(gpu.run(d, 1.0, config), std::invalid_argument) << bad;
  }
  // Malformed values name the offending key.
  RunConfig config;
  config.extra["block_size"] = "fast";
  try {
    gpu.run(d, 1.0, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("block_size"), std::string::npos);
  }
}

TEST(RunConfig, EngineKnobsChangeEngineBehaviour) {
  const auto d = datagen::uniform(400, 2, 0.0, 20.0, 3);
  const auto& registry = BackendRegistry::instance();

  // min_batches is honoured by the GPU engine.
  RunConfig config;
  config.extra["min_batches"] = "7";
  const auto r = registry.at("gpu_unicomp").run(d, 1.0, config);
  EXPECT_GE(r.stats.native_value("batches_run"), 7.0);

  // build_mode changes the R-tree construction (results stay identical).
  RunConfig str_config;
  str_config.extra["build_mode"] = "str";
  auto str_run = registry.at("rtree").run(d, 1.0, str_config);
  auto binned_run = registry.at("rtree").run(d, 1.0);
  EXPECT_TRUE(
      ResultSet::equal_normalized(str_run.pairs, binned_run.pairs));

  RunConfig bad_mode;
  bad_mode.extra["build_mode"] = "upside_down";
  EXPECT_THROW(registry.at("rtree").run(d, 1.0, bad_mode),
               std::invalid_argument);
}

TEST(BackendStats, NormalisedFieldsArePopulated) {
  const auto d = datagen::uniform(300, 2, 0.0, 20.0, 4);
  const auto& registry = BackendRegistry::instance();
  for (const auto& name : registry.names()) {
    if (name == "test_echo") continue;
    const auto r = registry.at(name).run(d, 1.5);
    EXPECT_GT(r.stats.seconds, 0.0) << name;
    EXPECT_GE(r.stats.total_seconds, r.stats.seconds * 0.999) << name;
    EXPECT_GT(r.stats.distance_calcs, 0u) << name;
  }
  // Native stats preserve engine-specific detail.
  const auto gpu = registry.at("gpu_unicomp").run(d, 1.5);
  EXPECT_GT(gpu.stats.native_value("batches_run"), 0.0);
  EXPECT_GT(gpu.stats.native_value("grid_nonempty_cells"), 0.0);
  const auto rt = registry.at("rtree").run(d, 1.5);
  EXPECT_GT(rt.stats.native_value("tree_height"), 0.0);
  const auto eg = registry.at("ego").run(d, 1.5);
  EXPECT_GT(eg.stats.native_value("sort_seconds"), 0.0);
}

}  // namespace
}  // namespace sj::api
