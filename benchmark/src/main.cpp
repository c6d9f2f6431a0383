// lsbench: LeiShen's benchmark program.
//
//   lsbench --workload backfill|live|serve --seed N --seconds S --trace 0|1
//
// Runs one workload, checks its outputs against computations made apart
// from the measured path, and prints as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ledger. The line before it is a JSON object of context figures (shares,
// offered rates, sample counts, measured parallelism). Exits 0 only when
// every check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <new>
#include <string>
#include <thread>

#include "bench.h"

namespace {

thread_local std::uint64_t t_allocations = 0;

// Taken during static initialization: the set-up clock starts here.
const lsbench::clock_type::time_point g_process_start =
    lsbench::clock_type::now();

void* counted_alloc(std::size_t n) {
  ++t_allocations;
  if (n == 0) n = 1;
  return std::malloc(n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lsbench {
std::uint64_t thread_allocations() noexcept { return t_allocations; }
}  // namespace lsbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lsbench --workload backfill|live|serve --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

void print_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  lsbench::options o;
  o.process_start = g_process_start;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) return usage();

  const std::filesystem::path work =
      std::filesystem::current_path() / ".bench_work" /
      (o.workload + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  o.work_dir = work.string();

  lsbench::result r;
  try {
    if (o.workload == "backfill") {
      lsbench::run_backfill(o, r);
    } else if (o.workload == "live") {
      lsbench::run_live(o, r);
    } else if (o.workload == "serve") {
      lsbench::run_serve(o, r);
    } else {
      std::filesystem::remove_all(work);
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    std::filesystem::remove_all(work);
    return 1;
  }
  std::filesystem::remove_all(work);

  const unsigned nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  const unsigned hw = std::thread::hardware_concurrency();
  r.detail["env.nproc"] = nproc;
  r.detail["env.hardware_concurrency"] = hw;
  r.detail["env.effective_parallelism"] =
      lsbench::effective_parallelism(std::max(1U, nproc));
  if (o.trace) {
    r.metric("env.nproc", nproc, "count");
    r.metric("env.effective_parallelism",
             r.detail["env.effective_parallelism"], "threads");
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "lsbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"detail\":{",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed));
  bool first = true;
  for (const auto& [name, value] : r.detail) {
    std::printf("%s\"%s\":", first ? "" : ",", name.c_str());
    print_number(value);
    first = false;
  }
  std::printf("}}\n");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  1, r.attempted)),
              static_cast<unsigned long long>(r.failed));
  first = true;
  for (const auto& [name, vu] : r.metrics) {
    std::printf("%s\"%s\":{\"value\":", first ? "" : ",", name.c_str());
    print_number(vu.first);
    std::printf(",\"unit\":\"%s\"}", vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
