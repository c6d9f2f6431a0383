// Benchmark-side decorators and helpers around the library's public layer
// APIs: a (optionally paced) block source that records when each block was
// due and emitted, a sink that records when each incident reached it, the
// query mix, a keep-alive HTTP client, and the in-isolation per-layer
// ledger every traced run prints.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/scanner.h"
#include "service/block_source.h"
#include "service/incident_sink.h"
#include "store/incident_store.h"
#include "verify/receipt_gen.h"

namespace lsbench {

/// Wraps a block source. With a schedule, block k (0-based emission order)
/// is held until `start + k / rate`; blocks at index >= `paced_blocks` are
/// released at once (the catch-up burst). Records, per emission: when the
/// producer asked for the block (`called`), when it was due, and when
/// next() returned it.
class probe_source final : public leishen::service::block_source {
 public:
  struct stamp {
    std::uint64_t number = 0;
    clock_type::time_point called, due, emitted;
  };

  /// With a tracer, each next() is recorded as a span under `parent`.
  probe_source(leishen::service::block_source& inner, tracer* tr,
               std::uint32_t parent = 0)
      : inner_{inner}, tr_{tr}, parent_{parent} {}

  /// Open-loop schedule; call before the monitor starts.
  void pace(clock_type::time_point start, double blocks_per_s,
            std::uint64_t paced_blocks);

  std::optional<leishen::service::block> next() override;

  [[nodiscard]] const std::vector<stamp>& stamps() const { return stamps_; }
  /// Emission time of the first unpaced block (catch-up start).
  [[nodiscard]] clock_type::time_point release_time() const {
    return release_;
  }

 private:
  leishen::service::block_source& inner_;
  tracer* tr_;
  std::uint32_t parent_;
  bool paced_ = false;
  clock_type::time_point start_{}, release_{};
  double interval_s_ = 0.0;
  std::uint64_t paced_blocks_ = 0;
  std::vector<stamp> stamps_;
};

/// Registered after the store sink: on_incident runs right after the store
/// insert (WAL append + fsync included) returned.
class probe_sink final : public leishen::service::incident_sink {
 public:
  struct stamp {
    std::uint64_t block = 0;
    clock_type::time_point enqueued, arrived;
  };
  void on_incident(const leishen::service::monitor_incident& inc) override {
    stamps_.push_back({inc.block_number, inc.enqueued_at, clock_type::now()});
  }
  [[nodiscard]] const std::vector<stamp>& stamps() const { return stamps_; }

 private:
  std::vector<stamp> stamps_;
};

/// A store sink whose insert calls are recorded as spans (traced runs).
class traced_store_sink final : public leishen::service::incident_sink {
 public:
  traced_store_sink(leishen::store::incident_store& store, tracer* tr,
                    std::uint32_t parent)
      : store_{store}, tr_{tr}, parent_{parent} {}
  void on_incident(const leishen::service::monitor_incident& inc) override {
    const scoped_span s{tr_, "store.insert", inc.block_number, parent_};
    store_.insert(inc);
  }
  void on_retract(const leishen::service::monitor_incident& inc) override {
    store_.retract(inc);
  }

 private:
  leishen::store::incident_store& store_;
  tracer* tr_;
  std::uint32_t parent_;
};

/// Serial prefilter-off scan of receipts: the reference every workload's
/// store is compared against.
class reference_scan {
 public:
  reference_scan(const leishen::verify::synthetic_world& world,
                 leishen::core::scanner_options opts);
  void add(const std::vector<leishen::chain::tx_receipt>& receipts);
  [[nodiscard]] const std::vector<leishen::service::monitor_incident>&
  incidents() const {
    return incidents_;
  }
  [[nodiscard]] const leishen::core::scan_stats& stats() const {
    return stats_;
  }

 private:
  leishen::core::scanner scanner_;
  leishen::core::scan_stats stats_;
  std::vector<leishen::service::monitor_incident> incidents_;
  std::vector<leishen::core::incident> scratch_;
};

/// The scanner configuration every workload detects with.
leishen::core::scanner_options detector_options();

/// Writes receipts (chain order) to a .lsc corpus; returns its bytes.
std::uint64_t write_corpus(const std::string& path,
                           const std::vector<leishen::chain::tx_receipt>& rs);

/// One filter of the query mix: its /incidents query string (without
/// limit or page) and the same filter as a store query.
struct filter_spec {
  std::string query;  // e.g. "attacker=0xabc..." ("" for all)
  leishen::store::incident_filter filter;
};

/// Filters drawn from the terms that occur in `incidents`: attackers, apps,
/// tokens, every pattern, block ranges, and the unfiltered list. Seeded.
std::vector<filter_spec> make_filters(
    const std::vector<leishen::service::monitor_incident>& incidents,
    std::uint64_t seed, std::size_t per_kind);

/// Brute-force filter over a plain incident list.
bool matches(const leishen::store::incident_filter& f,
             const leishen::service::monitor_incident& inc);

/// Blocking keep-alive HTTP/1.1 client on 127.0.0.1.
class http_client {
 public:
  http_client(std::uint16_t port, std::string api_key);
  ~http_client();
  http_client(const http_client&) = delete;
  http_client& operator=(const http_client&) = delete;
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// One round trip; returns the status (0 on transport failure) and
  /// leaves the body in `body`.
  int get(const std::string& target, std::string& body);

 private:
  int fd_ = -1;
  std::string key_;
  std::string buf_;
};

/// Parsed /incidents page: the (block, tx, id) keys in order plus cursor.
struct page_view {
  bool well_formed = false;
  std::vector<leishen::store::incident_key> keys;
  bool has_more = false;
  std::string next;
};
page_view parse_page(const std::string& body);
/// Shallow JSON well-formedness: balanced braces/brackets outside strings,
/// one top-level object.
bool well_formed_json(const std::string& body);

/// Everything the in-isolation ledger needs from a workload.
struct ledger_input {
  std::string corpus_path;  // the workload's input as a .lsc corpus
  std::shared_ptr<const leishen::verify::synthetic_world> world;
  std::vector<leishen::service::monitor_incident> incidents;  // reference
  std::string work_dir;
  std::uint64_t seed = 1;
  tracer* tr = nullptr;
  /// Measured natively by the workload; the ledger skips its own probe.
  bool has_monitor_probe = false;
  bool has_server_probe = false;
};

/// Per-layer metrics measured by calling each layer alone on the
/// workload's inputs (see README.md for the list and what each moves).
void measure_ledger(const ledger_input& in, result& r);

/// Emits the service.* probe metrics from a probe source/sink pair.
void emit_monitor_probe(const probe_source& src, const probe_sink& sink,
                        std::size_t queue_high_water, result& r);

/// Fleet state-directory checkpoint cadence, as `chain_monitor --backfill`
/// runs it.
inline constexpr std::uint64_t kBackfillCheckpointEvery = 256;

}  // namespace lsbench
