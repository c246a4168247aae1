#include "common/fault.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <vector>

namespace sj::fault {
namespace {

// Injection mode: lazily initialised from the SJ_FAULTS environment
// variable on first query, then overridable via configure()/disable().
enum : int { kUninit = 0, kDisabled = 1, kEnabled = 2 };

std::mutex g_mu;                      // guards g_spec + init
Spec g_spec;                          // installed spec (valid when enabled)
std::atomic<int> g_mode{kUninit};
std::atomic<std::uint64_t> g_dead{0};  // bitmask of dead devices (< 64)
std::atomic<std::uint64_t> g_losses{0};
std::array<std::atomic<std::uint64_t>, kNumSites> g_hits = {};      // draws
std::array<std::atomic<std::uint64_t>, kNumSites> g_injected = {};  // fires

thread_local int t_device = -1;
thread_local bool t_armed = false;

// splitmix64 finalizer: a high-quality 64-bit mix, cheap and stateless.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void bad_entry(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("fault spec entry \"" + entry + "\": " + why +
                              "\n" + spec_grammar());
}

double parse_rate(const std::string& entry, const std::string& value) {
  std::size_t pos = 0;
  double rate = 0.0;
  try {
    rate = std::stod(value, &pos);
  } catch (const std::exception&) {
    bad_entry(entry, "rate is not a number");
  }
  if (pos != value.size()) bad_entry(entry, "trailing characters after rate");
  if (!(rate >= 0.0 && rate <= 1.0)) bad_entry(entry, "rate must be in [0, 1]");
  return rate;
}

std::uint64_t parse_u64(const std::string& entry, const std::string& value) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(value, &pos);
  } catch (const std::exception&) {
    bad_entry(entry, "expected an unsigned integer");
  }
  if (pos != value.size())
    bad_entry(entry, "trailing characters after integer");
  return static_cast<std::uint64_t>(n);
}

// "shard<S>@batch<B>" -> DeviceLossPlan.
DeviceLossPlan parse_loss(const std::string& entry, const std::string& value) {
  const std::string shard_tag = "shard";
  const std::string batch_tag = "batch";
  const std::size_t at = value.find('@');
  if (at == std::string::npos || value.compare(0, shard_tag.size(), shard_tag) != 0 ||
      value.compare(at + 1, batch_tag.size(), batch_tag) != 0) {
    bad_entry(entry, "expected device:shard<S>@batch<B>");
  }
  const std::uint64_t shard =
      parse_u64(entry, value.substr(shard_tag.size(), at - shard_tag.size()));
  const std::uint64_t batch =
      parse_u64(entry, value.substr(at + 1 + batch_tag.size()));
  if (shard >= 64) bad_entry(entry, "shard index must be < 64");
  if (batch == 0) bad_entry(entry, "batch ordinal is 1-based; must be >= 1");
  DeviceLossPlan plan;
  plan.device = static_cast<int>(shard);
  plan.batch = batch;
  return plan;
}

void reset_counters() {
  g_dead.store(0, std::memory_order_relaxed);
  g_losses.store(0, std::memory_order_relaxed);
  for (auto& c : g_hits) c.store(0, std::memory_order_relaxed);
  for (auto& c : g_injected) c.store(0, std::memory_order_relaxed);
}

// Lazy env init: the first enabled()/hook query in a process reads
// SJ_FAULTS. A malformed env spec must not crash an unrelated binary, so
// it warns to stderr and disables injection instead of throwing.
void ensure_init() {
  if (g_mode.load(std::memory_order_acquire) != kUninit) return;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_mode.load(std::memory_order_relaxed) != kUninit) return;
  const char* env = std::getenv("SJ_FAULTS");
  if (env == nullptr || *env == '\0' || !kFaultsCompiledIn) {
    g_mode.store(kDisabled, std::memory_order_release);
    return;
  }
  try {
    g_spec = parse_spec(env);
    reset_counters();
    g_mode.store(kEnabled, std::memory_order_release);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sj::fault: ignoring SJ_FAULTS: %s\n", e.what());
    g_mode.store(kDisabled, std::memory_order_release);
  }
}

}  // namespace

const char* site_name(Site site) {
  switch (site) {
    case Site::kAlloc:
      return "alloc";
    case Site::kStream:
      return "stream";
    case Site::kSync:
      return "sync";
  }
  return "?";
}

std::string spec_grammar() {
  return "spec grammar: comma-separated entries of "
         "<site>:<rate> (site: alloc|stream|sync, rate in [0,1]), "
         "device:shard<S>@batch<B> (S < 64, B >= 1), seed:<N> — "
         "e.g. \"alloc:0.01,stream:0.005,device:shard2@batch7,seed:42\"";
}

Spec parse_spec(const std::string& text) {
  Spec spec;
  if (text.empty())
    throw std::invalid_argument("fault spec is empty\n" + spec_grammar());
  std::stringstream ss(text);
  std::string entry;
  bool any = false;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) bad_entry(entry, "empty entry");
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= entry.size())
      bad_entry(entry, "expected <key>:<value>");
    const std::string key = entry.substr(0, colon);
    const std::string value = entry.substr(colon + 1);
    if (key == "alloc") {
      spec.rate[static_cast<int>(Site::kAlloc)] = parse_rate(entry, value);
    } else if (key == "stream") {
      spec.rate[static_cast<int>(Site::kStream)] = parse_rate(entry, value);
    } else if (key == "sync") {
      spec.rate[static_cast<int>(Site::kSync)] = parse_rate(entry, value);
    } else if (key == "seed") {
      spec.seed = parse_u64(entry, value);
    } else if (key == "device") {
      spec.loss = parse_loss(entry, value);
      spec.has_loss = true;
    } else {
      bad_entry(entry, "unknown site \"" + key + "\"");
    }
    any = true;
  }
  if (!any)
    throw std::invalid_argument("fault spec is empty\n" + spec_grammar());
  return spec;
}

void configure(const Spec& spec) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spec = spec;
  reset_counters();
  g_mode.store(kEnabled, std::memory_order_release);
}

void configure_from_text(const std::string& text) {
  if (!kFaultsCompiledIn) {
    throw std::invalid_argument(
        "fault injection requested (\"" + text +
        "\") but the hooks are compiled out of this binary; rebuild with "
        "-DSJ_FAULTS=ON");
  }
  configure(parse_spec(text));
}

void disable() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spec = Spec{};
  reset_counters();
  g_mode.store(kDisabled, std::memory_order_release);
}

bool enabled() {
  ensure_init();
  return g_mode.load(std::memory_order_acquire) == kEnabled;
}

void reset_devices() { g_dead.store(0, std::memory_order_relaxed); }

std::uint64_t injected(Site site) {
  return g_injected[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t injected_total() {
  std::uint64_t total = 0;
  for (const auto& c : g_injected) total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t devices_lost() { return g_losses.load(std::memory_order_relaxed); }

DeviceScope::DeviceScope(int device)
    : prev_device_(t_device), prev_armed_(t_armed) {
  t_device = device;
  t_armed = true;
}

DeviceScope::~DeviceScope() {
  t_device = prev_device_;
  t_armed = prev_armed_;
}

namespace detail {

double hash01(std::uint64_t seed, int site, std::uint64_t n) {
  const std::uint64_t h = mix64(seed ^ mix64(n * static_cast<std::uint64_t>(
                                                     kNumSites) +
                                             static_cast<std::uint64_t>(site)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void check(Site site) {
  if (!t_armed) return;
  if (!enabled()) return;
  double rate = 0.0;
  std::uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    rate = g_spec.rate[static_cast<std::size_t>(site)];
    seed = g_spec.seed;
  }
  // A dead device fails everything thrown at it, rates aside.
  if (t_device >= 0 && t_device < 64 &&
      (g_dead.load(std::memory_order_acquire) & (1ULL << t_device)) != 0) {
    throw DeviceLost(t_device, "device " + std::to_string(t_device) +
                                   " is lost (operation: " +
                                   site_name(site) + ")");
  }
  if (rate <= 0.0) return;
  const std::uint64_t n = g_hits[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  if (hash01(seed, static_cast<int>(site), n) >= rate) return;
  g_injected[static_cast<std::size_t>(site)].fetch_add(
      1, std::memory_order_relaxed);
  const std::string where = std::string(site_name(site)) + " (hit " +
                            std::to_string(n) + ", device " +
                            std::to_string(t_device) + ")";
  if (site == Site::kAlloc) {
    throw ResourceExhausted("injected allocation failure at " + where);
  }
  throw TransientDeviceError("injected transient fault at " + where);
}

void check_batch(int device, std::uint64_t ordinal) {
  if (!enabled()) return;
  if (device < 0 || device >= 64) return;
  if ((g_dead.load(std::memory_order_acquire) & (1ULL << device)) != 0) {
    throw DeviceLost(device,
                     "device " + std::to_string(device) + " is lost");
  }
  bool match = false;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    match = g_spec.has_loss && g_spec.loss.device == device &&
            g_spec.loss.batch == ordinal;
  }
  if (!match) return;
  g_dead.fetch_or(1ULL << device, std::memory_order_acq_rel);
  g_losses.fetch_add(1, std::memory_order_relaxed);
  throw DeviceLost(device, "device " + std::to_string(device) +
                               " lost (injected at batch " +
                               std::to_string(ordinal) + ")");
}

bool armed() { return t_armed; }

int scope_device() { return t_device; }

}  // namespace detail

}  // namespace sj::fault
