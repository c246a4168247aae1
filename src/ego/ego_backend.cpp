// Adapter shim exposing the Super-EGO reimplementation through the
// unified backend interface as "ego" (alias "superego", the paper's name
// for the algorithm).
#include "ego/ego_backend.hpp"

#include <memory>

#include "api/registry.hpp"
#include "ego/ego.hpp"

namespace sj::backends {

namespace {

class EgoBackend final : public api::Backend {
 public:
  std::string_view name() const override { return "ego"; }
  std::string_view description() const override {
    return "Super-EGO CPU self-join (Kalashnikov 2013), the paper's "
           "state-of-the-art CPU baseline";
  }

  api::Capabilities capabilities() const override { return {}; }

  api::JoinOutcome run(const Dataset& d, double eps,
                       const api::RunConfig& config) const override {
    config.check_keys(name(), "use_float,reorder_dims,simple_threshold");
    api::check_result_mode(name(), config, /*supports_sink=*/true);
    ego::Options opt;
    opt.threads = config.threads < 0 ? 0 : config.threads;
    opt.use_float = config.flag("use_float", opt.use_float);
    opt.reorder_dims = config.flag("reorder_dims", opt.reorder_dims);
    opt.simple_threshold =
        config.integer("simple_threshold", opt.simple_threshold);

    auto r = ego::self_join(d, eps, opt);

    api::JoinOutcome out;
    // Super-EGO materialises its pairs either way; non-pairs modes are a
    // reduction over them (finalize_outcome), not a cheaper join.
    api::finalize_outcome(out, std::move(r.pairs), config, d.size());
    const ego::EgoStats& s = r.stats;
    // Paper convention: "the total time to ego-sort and join".
    out.stats.seconds = s.total_seconds();
    out.stats.total_seconds = s.total_seconds();
    out.stats.build_seconds = s.sort_seconds;
    out.stats.distance_calcs = s.distance_calcs;
    out.stats.native = {
        {"sort_seconds", s.sort_seconds},
        {"join_seconds", s.join_seconds},
        {"sequence_pairs_pruned",
         static_cast<double>(s.sequence_pairs_pruned)},
        {"simple_joins", static_cast<double>(s.simple_joins)},
    };
    return out;
  }
};

}  // namespace

void register_ego(api::BackendRegistry& registry) {
  registry.add(std::make_unique<EgoBackend>());
  registry.add_alias("superego", "ego");
}

}  // namespace sj::backends
