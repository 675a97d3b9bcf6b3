#include "src/failpoint/failpoint.h"

#include <pthread.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <vector>

namespace soft {
namespace failpoint {

namespace {

// Local split (keeps empty fields) so this library has no link dependency:
// Status construction is header-inline, so soft_failpoint can sit below
// soft_util, whose io.cc instruments failpoint sites.
std::vector<std::string> SplitSpec(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

struct SiteState {
  Mode mode = Mode::kOff;
  double probability = 0.0;
  uint64_t skip = 0;        // evaluations to pass before becoming eligible
  int64_t fire_limit = -1;  // max fires, -1 = unlimited
  SiteStats stats;
};

constexpr uint64_t kDefaultProbabilitySeed = 0x5af7f01d2026ULL;

struct Registry {
  std::mutex mu;
  std::map<std::string, SiteState, std::less<>> sites;  // guarded by mu
  uint64_t prob_state = kDefaultProbabilitySeed;        // guarded by mu
};

Registry& GetRegistry() {
  // Leaked: outlives exit hooks. The fork handlers hold `mu` across fork(),
  // so a worker forked while a sibling thread evaluates a site does not
  // inherit the mutex locked and hang at its own first site.
  static Registry* registry = [] {
    ::pthread_atfork([] { GetRegistry().mu.lock(); }, [] { GetRegistry().mu.unlock(); },
                     [] { GetRegistry().mu.unlock(); });
    return new Registry();
  }();
  return *registry;
}

// Count of armed sites; the fast path at every instrumented site is a single
// relaxed load of this counter being zero.
std::atomic<int> g_armed_count{0};

// splitmix64 — same deterministic stream generator family the campaign RNG
// fingerprints use; no platform dependence, reseedable for reproducibility.
uint64_t NextProbDraw(Registry& registry) {
  registry.prob_state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = registry.prob_state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool AnyArmed() {
  return g_armed_count.load(std::memory_order_relaxed) != 0;
}

bool Evaluate(std::string_view name) {
  Registry& registry = GetRegistry();
  bool throw_oom = false;
  bool fired = false;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.sites.find(name);
    if (it == registry.sites.end()) {
      return false;
    }
    SiteState& state = it->second;
    uint64_t ordinal = state.stats.evaluations++;
    if (ordinal < state.skip) {
      return false;
    }
    if (state.fire_limit >= 0 &&
        state.stats.fires >= static_cast<uint64_t>(state.fire_limit)) {
      return false;
    }
    switch (state.mode) {
      case Mode::kOff:
        break;
      case Mode::kError:
      case Mode::kAfterN:
        fired = true;
        break;
      case Mode::kOomThrow:
        fired = true;
        throw_oom = true;
        break;
      case Mode::kProbability: {
        // Top 53 bits → uniform double in [0, 1).
        double draw =
            static_cast<double>(NextProbDraw(registry) >> 11) * 0x1.0p-53;
        fired = draw < state.probability;
        break;
      }
    }
    if (fired) {
      ++state.stats.fires;
    }
  }
  if (throw_oom) {
    throw std::bad_alloc();
  }
  return fired;
}

Status Arm(std::string_view name, Mode mode, double probability, uint64_t skip,
           int64_t fire_limit) {
  const SiteInfo* site = FindSite(name);
  if (site == nullptr) {
    return InvalidArgument("unknown failpoint '" + std::string(name) +
                           "' (not in failpoint::kInventory)");
  }
  if (mode == Mode::kProbability && !(probability >= 0.0 && probability <= 1.0)) {
    return InvalidArgument("failpoint '" + std::string(name) +
                           "': probability must be in [0, 1]");
  }
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(name);
  if (mode == Mode::kOff) {
    if (it != registry.sites.end()) {
      registry.sites.erase(it);
      g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    return OkStatus();
  }
  if (it == registry.sites.end()) {
    it = registry.sites.emplace(std::string(name), SiteState{}).first;
    g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  it->second = SiteState{mode, probability, skip, fire_limit, SiteStats{}};
  return OkStatus();
}

namespace {

// One "name=mode[:a[:b]]" entry of a chaos spec.
Status ArmOneSpec(std::string_view entry) {
  size_t eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return InvalidArgument("chaos spec entry '" + std::string(entry) +
                           "' is not name=mode[:a[:b]]");
  }
  std::string_view name = entry.substr(0, eq);
  std::string_view mode_spec = entry.substr(eq + 1);
  std::vector<std::string> parts = SplitSpec(mode_spec, ':');
  if (parts.empty() || parts[0].empty()) {
    return InvalidArgument("chaos spec entry '" + std::string(entry) +
                           "' has an empty mode");
  }
  const std::string& mode_name = parts[0];
  auto parse_u64 = [&](const std::string& text, uint64_t* out) -> bool {
    if (text.empty()) return false;
    uint64_t value = 0;
    for (char c : text) {
      if (c < '0' || c > '9') return false;
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = value;
    return true;
  };
  auto bad = [&](const char* why) {
    return InvalidArgument("chaos spec entry '" + std::string(entry) + "': " +
                           why);
  };
  if (mode_name == "off") {
    if (parts.size() != 1) return bad("off takes no arguments");
    return Arm(name, Mode::kOff);
  }
  if (mode_name == "error") {
    if (parts.size() != 1) return bad("error takes no arguments");
    return Arm(name, Mode::kError);
  }
  if (mode_name == "prob") {
    if (parts.size() != 2) return bad("prob takes exactly one argument (prob:P)");
    char* end = nullptr;
    double p = std::strtod(parts[1].c_str(), &end);
    if (end == parts[1].c_str() || *end != '\0') {
      return bad("prob argument is not a number");
    }
    return Arm(name, Mode::kProbability, p);
  }
  if (mode_name == "after") {
    if (parts.size() != 2 && parts.size() != 3) {
      return bad("after takes one or two arguments (after:N[:M])");
    }
    uint64_t skip = 0;
    if (!parse_u64(parts[1], &skip)) return bad("after:N is not a number");
    int64_t fire_limit = -1;
    if (parts.size() == 3) {
      uint64_t limit = 0;
      if (!parse_u64(parts[2], &limit)) return bad("after:N:M is not a number");
      fire_limit = static_cast<int64_t>(limit);
    }
    return Arm(name, Mode::kAfterN, 0.0, skip, fire_limit);
  }
  if (mode_name == "oom") {
    if (parts.size() != 1 && parts.size() != 2) {
      return bad("oom takes at most one argument (oom[:N])");
    }
    uint64_t skip = 0;
    if (parts.size() == 2 && !parse_u64(parts[1], &skip)) {
      return bad("oom:N is not a number");
    }
    return Arm(name, Mode::kOomThrow, 0.0, skip);
  }
  return bad("unknown mode (expected off|error|prob:P|after:N[:M]|oom[:N])");
}

}  // namespace

Status ArmFromSpec(std::string_view spec) {
  if (spec.empty()) {
    return InvalidArgument("empty chaos spec");
  }
  for (const std::string& entry : SplitSpec(spec, ',')) {
    if (entry.empty()) {
      continue;
    }
    SOFT_RETURN_IF_ERROR(ArmOneSpec(entry));
  }
  return OkStatus();
}

void Disarm(std::string_view name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(name);
  if (it != registry.sites.end()) {
    registry.sites.erase(it);
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  g_armed_count.fetch_sub(static_cast<int>(registry.sites.size()),
                          std::memory_order_relaxed);
  registry.sites.clear();
  registry.prob_state = kDefaultProbabilitySeed;
}

void SetProbabilitySeed(uint64_t seed) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.prob_state = seed;
}

SiteStats Stats(std::string_view name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(name);
  if (it == registry.sites.end()) {
    return SiteStats{};
  }
  return it->second.stats;
}

Status InjectedStatus(std::string_view name) {
  const SiteInfo* site = FindSite(name);
  std::string message = "injected fault at failpoint '" + std::string(name) + "'";
  if (site == nullptr || site->site_class == SiteClass::kEngine) {
    return ResourceExhausted(std::move(message));
  }
  return IoError(std::move(message));
}

}  // namespace failpoint
}  // namespace soft
