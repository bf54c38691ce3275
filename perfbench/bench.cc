#include "bench.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

namespace perfbench {

namespace {

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---- configuration ---------------------------------------------------------

Config LoadConfig(const std::string& workload) {
  std::ifstream in("perfbench/workloads.json");
  if (!in) Die("cannot read perfbench/workloads.json (run from the root)");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto parsed = spanners::server::ParseJson(text);
  if (!parsed.ok()) Die("workloads.json: " + parsed.status().ToString());
  Config config;
  config.root = std::move(parsed).value();
  const JsonValue* all = config.root.Find("workloads");
  config.workload = all == nullptr ? nullptr : all->Find(workload);
  if (config.workload == nullptr) Die("unknown workload '" + workload + "'");
  return config;
}

double Config::Num(std::string_view key) const {
  const JsonValue* v = workload->Find(key);
  if (v == nullptr || !v->is_number())
    Die("workloads.json: missing number '" + std::string(key) + "'");
  return v->AsDouble();
}

std::vector<double> Config::NumList(std::string_view key) const {
  const JsonValue* v = workload->Find(key);
  if (v == nullptr || !v->is_array())
    Die("workloads.json: missing list '" + std::string(key) + "'");
  std::vector<double> out;
  for (const JsonValue& item : v->items()) out.push_back(item.AsDouble());
  return out;
}

double Config::Global(std::string_view key) const {
  const JsonValue* v = root.Find(key);
  if (v == nullptr || !v->is_number())
    Die("workloads.json: missing number '" + std::string(key) + "'");
  return v->AsDouble();
}

// ---- result line -----------------------------------------------------------

void Result::Fail(const std::string& what) {
  constexpr uint64_t kPrinted = 10;
  if (failed < kPrinted)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  else if (failed == kPrinted)
    std::fprintf(stderr, "perfbench: further failed checks not printed\n");
  correct = false;
  ++failed;
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " +
           FormatNumber(metrics[i].second.first) + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

// ---- statistics ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: that one survives exec, so a child
  // of a larger parent (python3 run.py) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

CpuSet::CpuSet(size_t count, bool keepers) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus_.size() < count; --cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus_.insert(cpus_.begin(), cpu);
  for (size_t i = 0; keepers && i < cpus_.size(); ++i) {
    keepers_.emplace_back([this, i] {
      Pin(static_cast<int>(i));
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

CpuSet::~CpuSet() {
  stop_.store(true);
  for (std::thread& t : keepers_) t.join();
}

void CpuSet::Pin(int index) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (index >= 0) {
    CPU_SET(cpus_[index], &set);
  } else {
    for (int cpu : cpus_) CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

void EndToEnd::AddTo(Result* result) const {
  const size_t n = latencies_us.size();
  std::fprintf(stderr,
               "perfbench: %zu requests timed, %zu beyond p99; p50 %.1f "
               "p90 %.1f p99 %.1f p99.9 %.1f us\n",
               n, n - static_cast<size_t>(0.99 * n),
               Quantile(latencies_us, 0.5), Quantile(latencies_us, 0.9),
               Quantile(latencies_us, 0.99), Quantile(latencies_us, 0.999));
  result->Add("docs_per_s", docs_per_s, "docs/s");
  result->Add("req_p50_us", Quantile(latencies_us, 0.5), "us");
  result->Add("max_qps", max_qps, "req/s");
  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", peak_rss_mb, "MiB");
  result->Add("bytes_per_input_byte", bytes_per_input_byte, "B/B");
}

// ---- stored inputs ---------------------------------------------------------

uint64_t WriteDelimited(const std::vector<Document>& docs,
                        const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  uint64_t bytes = 0;
  for (const Document& d : docs) {
    out.write(d.text().data(), d.text().size());
    out.put('\0');
    bytes += d.text().size() + 1;
  }
  out.close();
  if (!out) Die("cannot write " + path);
  return bytes;
}

Corpus LoadDelimited(const std::string& path) {
  auto corpus = Corpus::FromFile(path, '\0');
  if (!corpus.ok()) Die(corpus.status().ToString());
  return std::move(corpus).value();
}

namespace {

struct RunDirHolder {
  std::string path;
  RunDirHolder() {
    const char* base = std::getenv("CARGO_TARGET_DIR");
    path = std::string(base != nullptr && *base != '\0' ? base
                                                         : ".bench_build") +
           "/run-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) Die("cannot create " + path + ": " + ec.message());
  }
  ~RunDirHolder() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

const std::string& RunDir() {
  static RunDirHolder holder;
  return holder.path;
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ---- spans -----------------------------------------------------------------

int32_t SpanRecorder::Open(const char* name, uint64_t id) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const int32_t index = static_cast<int32_t>(spans_.size());
  const int32_t root = parent < 0 ? index : spans_[parent].root;
  spans_.push_back({name, NowNs(), 0, parent, root, id,
                    std::string_view(name) == kProbe});
  open_.push_back(index);
  return index;
}

void SpanRecorder::Close(int32_t span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void SpanRecorder::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                       int32_t parent, uint64_t id, bool excluded) {
  const int32_t index = static_cast<int32_t>(spans_.size());
  const int32_t root = parent < 0 ? index : spans_[parent].root;
  spans_.push_back({name, start_ns, end_ns, parent, root, id, excluded});
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    size_t max_events) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "[\n";
  const size_t n = std::min(max_events, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << (s.excluded ? 2 : 1) << ",\"ts\":" << (s.start_ns - t0) / 1e3
        << ",\"dur\":" << (s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"id\":" << s.id << ",\"excluded\":" << (s.excluded ? 1 : 0)
        << "}}" << (i + 1 < n ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---- ledger ----------------------------------------------------------------

Ledger ComputeLedger(const SpanRecorder& rec) {
  const auto& spans = rec.spans();
  std::vector<double> child_ns(spans.size(), 0);
  std::vector<double> excluded_in_root(spans.size(), 0);
  for (const auto& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.excluded) excluded_in_root[s.root] += dur;
    // A replay splits its parent layer's time; a probe under the root is
    // already out of the wall, so it must not also count as a child.
    if (s.parent >= 0 && !(s.excluded && spans[s.parent].parent < 0))
      child_ns[s.parent] += dur;
  }
  Ledger ledger;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent < 0) {
      ledger.wall_ns += dur - excluded_in_root[i];
      ledger.unattributed_ns += dur - child_ns[i] - excluded_in_root[i];
    } else if (std::string_view(s.name) != kProbe) {
      ledger.self_ns[s.name] += dur - child_ns[i];
    }
  }
  return ledger;
}

double Ledger::Share(const std::string& layer) const {
  const auto it = self_ns.find(layer);
  return it == self_ns.end() || wall_ns <= 0 ? 0 : it->second / wall_ns;
}

std::string Ledger::ToString() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << "wall " << wall_ns / 1e6 << " ms:";
  for (const auto& [layer, ns] : self_ns)
    os << " " << layer << "=" << 100 * ns / wall_ns << "%";
  os << " unattributed=" << 100 * UnattributedRatio() << "%";
  return os.str();
}

}  // namespace perfbench
