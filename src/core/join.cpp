#include "core/join.hpp"

#include <stdexcept>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/prepared.hpp"

namespace sj {

GpuJoinResult gpu_join(const Dataset& queries, const Dataset& data,
                       double eps, GpuJoinOptions opt) {
  parse::non_negative("argument 'eps' of gpu_join", eps);
  parse::matching_dims("argument 'queries' of gpu_join", queries.dim(),
                       "argument 'data'", data.dim());
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(
        "gpu_join: result mode 'sink' needs a sink callback");
  }
  // Entry checkpoint: an already-expired or cancelled query must not pay
  // for the index build.
  if (opt.control != nullptr) opt.control->check("join entry");
  Timer total;
  const PreparedJoin prepared(data, eps, opt.device, opt.layout);
  GpuJoinResult result = prepared.run(queries, opt);
  result.stats.index_build_seconds = prepared.index_build_seconds();
  result.stats.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
