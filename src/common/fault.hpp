// Typed failure taxonomy + deterministic fault injection for the
// simulated-GPU pipeline.
//
// The error hierarchy is what the retry/failover layers dispatch on:
//
//   FaultError
//   ├── TransientDeviceError   retry the batch (bounded backoff)
//   ├── DeviceLost             fail the device; gpu_shard re-plans the
//   │                          shard onto a surviving device
//   └── ResourceExhausted      degrade: halve the batch through the
//       └── gpu::DeviceOutOfMemory (gpusim/arena.hpp)   range-halving
//
// The injector is seeded and deterministic: whether hit #n at a site
// fires depends only on (seed, site, n), never on wall clock or
// scheduling. Hooks are placed at the gpusim seams — arena allocation,
// kernel launch, stream transfer, event sync — and ALWAYS BEFORE the
// operation's side effects, so an injected failure leaves the batch
// untouched and a retry is exact. Hooks only fire on threads armed with
// a DeviceScope (the pipeline arms exactly the span of one batch or of
// the count pass), which keeps every injected fault attributable to a
// range and therefore recoverable; setup phases (upload, adjacency,
// buffer allocation) run unarmed.
//
// Spec grammar (SJ_FAULTS env var, sjtool --faults, --opt faults=):
//
//   alloc:0.01,stream:0.005,device:shard2@batch7,seed:42
//
//   <site>:<rate>           inject at `site` with probability `rate`
//                           (site: alloc | stream | sync)
//   device:shard<S>@batch<B> kill device S when it starts its B-th batch
//                           (1-based); later work on S throws DeviceLost
//   seed:<N>                decorrelate runs (default 1)
//
// The hooks compile to nothing unless the build sets -DSJ_FAULTS=ON
// (compile definition SJ_FAULTS_ENABLED); the taxonomy, the parser and
// the runtime configuration API are always built, so release binaries
// can reject a --faults request with a clear error.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace sj::fault {

/// Root of the typed failure taxonomy.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

/// A failure expected to succeed on re-execution (spurious launch/
/// transfer/sync faults). The pipeline retries the batch.
class TransientDeviceError : public FaultError {
 public:
  explicit TransientDeviceError(const std::string& what) : FaultError(what) {}
};

/// A simulated device died; everything it was running is gone. The shard
/// engine re-plans the device's shard onto a surviving device.
class DeviceLost : public FaultError {
 public:
  DeviceLost(int device, const std::string& what)
      : FaultError(what), device(device) {}

  int device;  ///< the dead device's id (shard index), -1 if unknown
};

/// A resource limit was hit (device memory, buffers). The pipeline
/// degrades gracefully: the batch's unit range is halved instead of
/// failing the run.
class ResourceExhausted : public FaultError {
 public:
  explicit ResourceExhausted(const std::string& what) : FaultError(what) {}
};

/// Injection sites, one per gpusim seam.
enum class Site : int {
  kAlloc = 0,   ///< GlobalMemoryArena::allocate -> ResourceExhausted
  kStream = 1,  ///< kernel launch / stream transfer -> TransientDeviceError
  kSync = 2,    ///< Event::wait -> TransientDeviceError
};
inline constexpr int kNumSites = 3;

const char* site_name(Site site);

/// Parsed `device:shard<S>@batch<B>` entry.
struct DeviceLossPlan {
  int device = -1;          ///< simulated device (shard index), < 64
  std::uint64_t batch = 0;  ///< 1-based batch ordinal on that device
};

struct Spec {
  double rate[kNumSites] = {0.0, 0.0, 0.0};
  std::uint64_t seed = 1;
  bool has_loss = false;
  DeviceLossPlan loss;
};

/// One-line description of the spec grammar, embedded in parse errors.
std::string spec_grammar();

/// Parse a fault spec; throws std::invalid_argument (quoting the
/// offending entry and the grammar) on malformed input. Always
/// available, even when the hooks are compiled out.
Spec parse_spec(const std::string& text);

#ifdef SJ_FAULTS_ENABLED
inline constexpr bool kFaultsCompiledIn = true;
#else
inline constexpr bool kFaultsCompiledIn = false;
#endif

/// Install `spec` and reset all injection counters and dead devices.
void configure(const Spec& spec);

/// parse_spec + configure, but first rejects the request with a clear
/// std::invalid_argument when the binary compiled the hooks out — a
/// silently inert --faults flag would invalidate a chaos run.
void configure_from_text(const std::string& text);

/// Turn injection off (installed spec is discarded).
void disable();

/// True when a spec is installed (explicitly or lazily from the
/// SJ_FAULTS environment variable on first query).
bool enabled();

/// Revive all dead devices. The shard engines call this at run entry so
/// each run observes exactly one deterministic loss per plan entry.
void reset_devices();

/// Injection counters (cumulative since the last configure()).
std::uint64_t injected(Site site);
std::uint64_t injected_total();
std::uint64_t devices_lost();

/// RAII arming of the calling thread: hooks fire only between
/// construction and destruction, attributed to simulated device
/// `device` (-1 for the unsharded engines). Scopes nest; the previous
/// arming is restored on destruction.
class DeviceScope {
 public:
  explicit DeviceScope(int device);
  ~DeviceScope();

  DeviceScope(const DeviceScope&) = delete;
  DeviceScope& operator=(const DeviceScope&) = delete;

 private:
  int prev_device_;
  bool prev_armed_;
};

namespace detail {

/// Deterministic per-hit draw in [0, 1): depends only on (seed, site, n).
double hash01(std::uint64_t seed, int site, std::uint64_t n);

/// Hook slow path: no-op unless the thread is armed and a spec is
/// enabled; throws the site's error type when the seeded draw fires, and
/// DeviceLost when the scope's device is already dead.
void check(Site site);

/// Targeted device loss: called once per batch with the pipeline's
/// device id and 1-based batch ordinal; marks the device dead and throws
/// DeviceLost when the installed loss plan matches.
void check_batch(int device, std::uint64_t ordinal);

/// Introspection for tests.
bool armed();
int scope_device();

}  // namespace detail

}  // namespace sj::fault

// The hooks themselves: statements that compile to nothing unless the
// build opts in. Arguments are NOT evaluated in compiled-out builds.
#ifdef SJ_FAULTS_ENABLED
#define SJ_FAULT_POINT(site) ::sj::fault::detail::check(::sj::fault::Site::site)
#define SJ_FAULT_BATCH(device, ordinal) \
  ::sj::fault::detail::check_batch((device), (ordinal))
#else
#define SJ_FAULT_POINT(site) ((void)0)
#define SJ_FAULT_BATCH(device, ordinal) ((void)0)
#endif
