// Registration hook for the GPU-SJ adapters ("gpu", "gpu_unicomp", the
// sharded "gpu_shard") and the GPU brute-force lower bound ("gpu_bf").
// Called once by BackendRegistry::instance(); external code never needs
// this directly.
#pragma once

namespace sj::api {
class BackendRegistry;
}

namespace sj::backends {

void register_gpu(api::BackendRegistry& registry);

}  // namespace sj::backends
