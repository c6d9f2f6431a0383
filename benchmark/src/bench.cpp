#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>

namespace lsbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

rss_sampler::rss_sampler() {
  peak_.store(rss_mb(), std::memory_order_relaxed);
  thread_ = std::thread{[this] {
    while (!done_.load(std::memory_order_acquire)) {
      const double now = rss_mb();
      if (now > peak_.load(std::memory_order_relaxed)) {
        peak_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }};
}

rss_sampler::~rss_sampler() {
  if (thread_.joinable()) stop();
}

double rss_sampler::stop() {
  done_.store(true, std::memory_order_release);
  thread_.join();
  return std::max(peak_.load(std::memory_order_relaxed), rss_mb());
}

std::uint32_t tracer::open(const char* name, std::uint64_t id,
                           std::uint32_t parent) {
  const clock_type::time_point now = clock_type::now();
  const std::lock_guard lock{mu_};
  spans_.push_back(span{name, parent, id, now, now});
  return static_cast<std::uint32_t>(spans_.size());
}

void tracer::close(std::uint32_t handle) {
  const clock_type::time_point now = clock_type::now();
  const std::lock_guard lock{mu_};
  spans_[handle - 1].end = now;
}

void tracer::add(const char* name, std::uint64_t id,
                 clock_type::time_point start, clock_type::time_point end,
                 std::uint32_t parent) {
  const std::lock_guard lock{mu_};
  spans_.push_back(span{name, parent, id, start, end});
}

std::size_t tracer::size() const {
  const std::lock_guard lock{mu_};
  return spans_.size();
}

std::map<std::string, double> tracer::self_seconds() const {
  const std::lock_guard lock{mu_};
  // Children may overlap each other (a producer and a worker thread under
  // one round), so a parent loses the union of its children's intervals.
  std::vector<std::vector<std::pair<clock_type::time_point,
                                    clock_type::time_point>>>
      children(spans_.size());
  for (const span& s : spans_) {
    if (s.parent != 0) children[s.parent - 1].emplace_back(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    double self = seconds_between(spans_[i].start, spans_[i].end);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    clock_type::time_point covered_to = spans_[i].start;
    for (const auto& [start, end] : kids) {
      const clock_type::time_point from = std::max(start, covered_to);
      if (end > from) {
        self -= seconds_between(from, end);
        covered_to = end;
      }
    }
    out[spans_[i].name] += self;
  }
  return out;
}

bool tracer::write(const std::string& path) const {
  const std::lock_guard lock{mu_};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id), s.parent,
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         s.start - origin_)
                         .count()),
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         s.end - origin_)
                         .count()));
  }
  return std::fclose(f) == 0;
}

std::vector<leishen::service::monitor_incident> dump_store(
    const leishen::store::incident_store& store) {
  std::vector<leishen::service::monitor_incident> out;
  std::optional<leishen::store::incident_key> cursor;
  while (true) {
    const leishen::store::incident_page page = store.query({}, cursor, 512);
    for (const leishen::store::stored_incident& s : page.items) {
      out.push_back(s.incident);
    }
    if (!page.has_more) break;
    cursor = page.next;
  }
  return out;
}

std::uint64_t dir_bytes(const std::string& path) {
  std::error_code ec;
  std::uint64_t total = 0;
  if (!std::filesystem::exists(path, ec)) return 0;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator{path, ec}) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

namespace {

// A dependent multiply-add chain the compiler cannot fold or vectorize.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

std::atomic<std::uint64_t> g_spin_sink{0};

}  // namespace

double effective_parallelism(unsigned threads) {
  // Calibrate one thread to ~40 ms of work.
  std::uint64_t iters = 1 << 20;
  double t1 = 0.0;
  while (true) {
    const clock_type::time_point t0 = clock_type::now();
    g_spin_sink.fetch_add(spin(iters), std::memory_order_relaxed);
    t1 = seconds_since(t0);
    if (t1 >= 0.04) break;
    iters *= 2;
  }
  const clock_type::time_point t0 = clock_type::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([iters] {
      g_spin_sink.fetch_add(spin(iters), std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  const double tn = seconds_since(t0);
  return tn > 0.0 ? threads * t1 / tn : 0.0;
}

}  // namespace lsbench

namespace lsbench {

void finish_trace(const options& o, const tracer& tr, result& r) {
  const std::map<std::string, double> self = tr.self_seconds();
  for (const char* layer : {"corpus", "core", "service", "fleet", "store",
                            "api"}) {
    const std::string prefix = std::string{layer} + ".";
    double total = 0.0;
    for (const auto& [name, secs] : self) {
      if (name.compare(0, prefix.size(), prefix) == 0) total += secs;
    }
    r.metric("self." + std::string{layer} + "_ms", total * 1e3, "ms");
  }
  r.metric("trace.spans", static_cast<double>(tr.size()), "count");
  const std::filesystem::path dir =
      std::filesystem::current_path() / ".bench_out";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / ("trace-" + o.workload + "-" +
                                   std::to_string(o.seed) + ".jsonl"))
                               .string();
  r.check(tr.write(path), "trace: cannot write " + path);
}

}  // namespace lsbench
