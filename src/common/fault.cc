#include "common/fault.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace spanners {
namespace fault {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

enum class Kind { kFail, kShort, kDelay, kKill };

struct Rule {
  std::string point;
  Kind kind = Kind::kFail;
  int err = EIO;             // fail: injected errno
  uint64_t after = 0;        // skip the first `after` hits
  uint64_t every = 1;        // then fire every Nth eligible hit
  uint64_t limit = UINT64_MAX;  // stop after `limit` fires
  size_t bytes = 1;          // short: transfer clamp
  uint32_t delay_ms = 10;    // delay: stall length
  double prob = 1.0;         // fire probability per eligible hit
  uint64_t seed = 1;         // PRNG seed for prob

  // Mutable across hits; a schedule swap resets them (fresh Rule objects).
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fired{0};
};

struct RuleSet {
  std::vector<std::shared_ptr<Rule>> rules;
};

std::mutex g_mu;
std::shared_ptr<const RuleSet> g_rules;  // guarded by g_mu for writes

std::shared_ptr<const RuleSet> LoadRules() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_rules;
}

// Counter-indexed splitmix64: stream position `i` of seed `s`. Stateless,
// so concurrent hits draw deterministically without shared PRNG state.
uint64_t SplitMix64(uint64_t s, uint64_t i) {
  uint64_t z = s + (i + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct ErrnoName {
  const char* name;
  int value;
};
constexpr ErrnoName kErrnoNames[] = {
    {"EIO", EIO},         {"ENOSPC", ENOSPC},   {"EINTR", EINTR},
    {"EAGAIN", EAGAIN},   {"EPIPE", EPIPE},     {"ECONNRESET", ECONNRESET},
    {"ECONNREFUSED", ECONNREFUSED},             {"ETIMEDOUT", ETIMEDOUT},
    {"ENOENT", ENOENT},   {"EACCES", EACCES},   {"EMFILE", EMFILE},
    {"ENFILE", ENFILE},   {"EBADF", EBADF},     {"EDQUOT", EDQUOT},
    {"EFBIG", EFBIG},     {"ENOMEM", ENOMEM},
};

bool ParseUint(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - (c - '0')) / 10) return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

bool ParseErrno(std::string_view s, int* out) {
  for (const ErrnoName& e : kErrnoNames) {
    if (s == e.name) {
      *out = e.value;
      return true;
    }
  }
  uint64_t v = 0;
  if (ParseUint(s, &v) && v > 0 && v < 4096) {
    *out = static_cast<int>(v);
    return true;
  }
  return false;
}

bool KnownPoint(std::string_view point) {
  for (const char* p : kPoints)
    if (point == p) return true;
  return false;
}

Status ParseRule(std::string_view text, std::shared_ptr<Rule>* out) {
  const size_t eq = text.find('=');
  if (eq == std::string_view::npos)
    return Status::InvalidArgument("fault rule missing '=': " +
                                   std::string(text));
  auto rule = std::make_shared<Rule>();
  rule->point = std::string(text.substr(0, eq));
  if (!KnownPoint(rule->point))
    return Status::InvalidArgument("unknown fault point: " + rule->point);

  std::string_view rest = text.substr(eq + 1);
  bool first = true;
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    std::string_view tok = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    if (first) {
      first = false;
      if (tok == "fail") rule->kind = Kind::kFail;
      else if (tok == "short") rule->kind = Kind::kShort;
      else if (tok == "delay") rule->kind = Kind::kDelay;
      else if (tok == "kill") rule->kind = Kind::kKill;
      else
        return Status::InvalidArgument("unknown fault kind: " +
                                       std::string(tok));
      continue;
    }
    const size_t keq = tok.find('=');
    if (keq == std::string_view::npos)
      return Status::InvalidArgument("fault param missing '=': " +
                                     std::string(tok));
    const std::string_view key = tok.substr(0, keq);
    const std::string_view val = tok.substr(keq + 1);
    uint64_t n = 0;
    if (key == "errno") {
      if (!ParseErrno(val, &rule->err))
        return Status::InvalidArgument("bad errno: " + std::string(val));
    } else if (key == "after") {
      if (!ParseUint(val, &rule->after))
        return Status::InvalidArgument("bad after=: " + std::string(val));
    } else if (key == "every") {
      if (!ParseUint(val, &n) || n == 0)
        return Status::InvalidArgument("bad every=: " + std::string(val));
      rule->every = n;
    } else if (key == "count") {
      if (!ParseUint(val, &rule->limit))
        return Status::InvalidArgument("bad count=: " + std::string(val));
    } else if (key == "bytes") {
      if (!ParseUint(val, &n))
        return Status::InvalidArgument("bad bytes=: " + std::string(val));
      rule->bytes = static_cast<size_t>(n);
    } else if (key == "ms") {
      if (!ParseUint(val, &n) || n > 600000)
        return Status::InvalidArgument("bad ms=: " + std::string(val));
      rule->delay_ms = static_cast<uint32_t>(n);
    } else if (key == "prob") {
      char* end = nullptr;
      const std::string v(val);
      const double p = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || p < 0.0 || p > 1.0)
        return Status::InvalidArgument("bad prob=: " + v);
      rule->prob = p;
    } else if (key == "seed") {
      if (!ParseUint(val, &rule->seed))
        return Status::InvalidArgument("bad seed=: " + std::string(val));
    } else {
      return Status::InvalidArgument("unknown fault param: " +
                                     std::string(key));
    }
  }
  *out = std::move(rule);
  return Status::OK();
}

obs::Counter* FiredMetric() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("fault.fired");
  return c;
}

}  // namespace

Action Hit(const char* point) {
  std::shared_ptr<const RuleSet> set = LoadRules();
  if (set == nullptr) return Action{};
  for (const std::shared_ptr<Rule>& r : set->rules) {
    if (r->point != point) continue;
    const uint64_t idx = r->hits.fetch_add(1, std::memory_order_relaxed);
    if (idx < r->after) continue;
    if ((idx - r->after) % r->every != 0) continue;
    if (r->prob < 1.0) {
      const uint64_t draw = SplitMix64(r->seed, idx);
      // Fire iff draw < prob * 2^64, computed without overflow at p=1.
      const double scaled = r->prob * 18446744073709551616.0;  // 2^64
      if (static_cast<double>(draw) >= scaled) continue;
    }
    // Claim a fire slot without overshooting the count= cap.
    uint64_t f = r->fired.load(std::memory_order_relaxed);
    bool claimed = false;
    while (f < r->limit) {
      if (r->fired.compare_exchange_weak(f, f + 1,
                                         std::memory_order_relaxed)) {
        claimed = true;
        break;
      }
    }
    if (!claimed) continue;
    if (obs::Enabled()) FiredMetric()->Add();
    switch (r->kind) {
      case Kind::kFail:
        return Action{true, r->err, SIZE_MAX};
      case Kind::kShort: {
        Action a;
        a.clamp = r->bytes;
        return a;
      }
      case Kind::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(r->delay_ms));
        continue;  // a delay does not change the operation's outcome
      case Kind::kKill:
        std::fprintf(stderr, "fault: kill at %s (hit %llu)\n", point,
                     static_cast<unsigned long long>(idx));
        std::fflush(stderr);
        _exit(137);
    }
  }
  return Action{};
}

Status Configure(const std::string& spec) {
  auto set = std::make_shared<RuleSet>();
  std::string_view rest = spec;
  while (!rest.empty()) {
    const size_t semi = rest.find(';');
    std::string_view tok = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (tok.empty()) continue;
    std::shared_ptr<Rule> rule;
    SPANNERS_RETURN_NOT_OK(ParseRule(tok, &rule));
    set->rules.push_back(std::move(rule));
  }
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (set->rules.empty()) {
      g_rules = nullptr;
      internal::g_armed.store(false, std::memory_order_relaxed);
    } else {
      g_rules = std::move(set);
      internal::g_armed.store(true, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status ConfigureFromEnv() {
  const char* spec = std::getenv("SPANNERS_FAULT");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return Configure(spec);
}

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_rules = nullptr;
  internal::g_armed.store(false, std::memory_order_relaxed);
}

uint64_t FiredCount() {
  std::shared_ptr<const RuleSet> set = LoadRules();
  if (set == nullptr) return 0;
  uint64_t sum = 0;
  for (const auto& r : set->rules)
    sum += r->fired.load(std::memory_order_relaxed);
  return sum;
}

uint64_t FiredCount(const std::string& point) {
  std::shared_ptr<const RuleSet> set = LoadRules();
  if (set == nullptr) return 0;
  uint64_t sum = 0;
  for (const auto& r : set->rules)
    if (r->point == point) sum += r->fired.load(std::memory_order_relaxed);
  return sum;
}

uint64_t HitCount(const std::string& point) {
  std::shared_ptr<const RuleSet> set = LoadRules();
  if (set == nullptr) return 0;
  uint64_t sum = 0;
  for (const auto& r : set->rules)
    if (r->point == point) sum += r->hits.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace fault
}  // namespace spanners
