// Shared plumbing for the lsbench workloads: clocks, percentiles, the RSS
// sampler, the span recorder behind traced runs, the operator-new counter
// and the result every workload hands back to main().
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/incident_sink.h"
#include "store/incident_store.h"

namespace lsbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_between(clock_type::time_point a,
                              clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(clock_type::time_point t0) {
  return seconds_between(t0, clock_type::now());
}

/// Linear-interpolated q-quantile (q in [0,1]); sorts `v` in place. 0 for
/// an empty sample.
double quantile(std::vector<double>& v, double q);
/// Median of a copy.
double median(std::vector<double> v);

/// Heap allocations made by the calling thread (counted by the binary's own
/// operator new).
std::uint64_t thread_allocations() noexcept;

/// Current VmRSS in MB.
double rss_mb();

/// Samples VmRSS every few milliseconds on a background thread between
/// construction and stop(); stop() returns the peak in MB.
class rss_sampler {
 public:
  rss_sampler();
  ~rss_sampler();
  double stop();

 private:
  std::atomic<bool> done_{false};
  std::atomic<double> peak_{0.0};
  std::thread thread_;
};

/// One recorded span: a layer call with its start, end and parent.
struct span {
  const char* name = "";
  std::uint32_t parent = 0;  // index + 1 into the span list; 0 = root
  std::uint64_t id = 0;      // block number, request number or item index
  clock_type::time_point start, end;
};

/// In-memory span log for traced runs. Spans are kept until the run ends
/// and then written out as JSON lines; `self_seconds` folds them into
/// per-name self time (duration minus direct children). Thread-safe.
class tracer {
 public:
  /// Opens a span and returns its handle (index + 1).
  std::uint32_t open(const char* name, std::uint64_t id,
                     std::uint32_t parent = 0);
  void close(std::uint32_t handle);
  /// Records an already-timed span.
  void add(const char* name, std::uint64_t id, clock_type::time_point start,
           clock_type::time_point end, std::uint32_t parent = 0);
  [[nodiscard]] std::size_t size() const;
  /// Self time in seconds per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Writes every span as one JSON object per line; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<span> spans_;
  clock_type::time_point origin_ = clock_type::now();
};

/// RAII span; a no-op when the tracer is null.
class scoped_span {
 public:
  scoped_span(tracer* t, const char* name, std::uint64_t id,
              std::uint32_t parent = 0)
      : t_{t}, h_{t != nullptr ? t->open(name, id, parent) : 0} {}
  ~scoped_span() {
    if (t_ != nullptr) t_->close(h_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  [[nodiscard]] std::uint32_t handle() const noexcept { return h_; }

 private:
  tracer* t_;
  std::uint32_t h_;
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for corpora, state and WALs.
  std::string work_dir;
  clock_type::time_point process_start;
};

/// What a workload run hands back: the operation tally, the correctness
/// verdict (with reasons), metrics by name, and context lines.
struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;
  /// Free-form context (shares, offered rates, sample counts), printed as
  /// one JSON object ahead of the result line.
  std::map<std::string, double> detail;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

/// Every incident in the store, in canonical (block, tx, id) order.
std::vector<leishen::service::monitor_incident> dump_store(
    const leishen::store::incident_store& store);

/// Bytes under a directory tree (0 if it does not exist).
std::uint64_t dir_bytes(const std::string& path);

/// Measured parallelism: a calibrated spin loop run on 1 thread and then
/// on `threads` threads at once; returns threads * t1 / tN.
double effective_parallelism(unsigned threads);

/// Ends a traced run: emits per-layer self time from the spans and writes
/// them to .bench_out/trace-<workload>-<seed>.jsonl in the working directory.
void finish_trace(const options& o, const tracer& tr, result& r);

// The three workloads. Each fills `r` and returns when done.
void run_backfill(const options& o, result& r);
void run_live(const options& o, result& r);
void run_serve(const options& o, result& r);

}  // namespace lsbench
