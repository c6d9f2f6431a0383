// backfill: the paper's offline job in the shape operators run it — a
// seeded ~1M-block .lsc corpus in the realistic mix, scanned by the
// corpus-mode fleet with one shard and a state directory at the
// `chain_monitor --backfill` checkpoint cadence, WAL off.
//
// ops_per_s is blocks/s over whole passes. The context line's latency.p50_ms
// / p90_ms are the times from a pass's start until the fleet's committed
// (durable, resumable) watermark covers the corpus's median / 90th-percentile
// block.
// Every figure is the median over the run's passes.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "corpus/corpus_generator.h"
#include "corpus/corpus_reader.h"
#include "fleet/shard_coordinator.h"
#include "layers.h"

namespace lsbench {

using namespace leishen;

namespace {

constexpr std::uint64_t kBlocks = 1'000'000;

struct pass_result {
  double seconds = 0.0;
  double p50_s = 0.0, p90_s = 0.0;
  std::map<std::string, std::uint64_t> counters;
  std::vector<service::monitor_incident> incidents;
};

/// One resumable fleet pass over the whole corpus into a fresh store and a
/// fresh state directory.
pass_result fleet_pass(const verify::synthetic_world& world,
                       const corpus::corpus_reader& reader,
                       const std::string& state_dir, tracer* tr,
                       std::uint64_t pass) {
  std::filesystem::remove_all(state_dir);
  const std::uint64_t n = reader.block_count();
  const std::uint64_t b50 = reader.block(
      static_cast<std::uint64_t>(std::ceil(0.50 * n)) - 1).number;
  const std::uint64_t b90 = reader.block(
      static_cast<std::uint64_t>(std::ceil(0.90 * n)) - 1).number;

  fleet::fleet_options fo;
  fo.shards = 1;
  fo.scan = detector_options();
  fo.checkpoint_every = kBackfillCheckpointEvery;
  fo.state_dir = state_dir;
  store::incident_store store;
  pass_result out;
  const scoped_span s{tr, "fleet.pass", pass};
  const clock_type::time_point t0 = clock_type::now();
  fleet::shard_coordinator fleet{world.creations, world.labels,
                                 world.weth_token, reader, store, fo};
  std::atomic<bool> done{false};
  std::thread poller{[&] {
    bool got50 = false;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t w = fleet.committed_watermark();
      if (!got50 && w >= b50) {
        out.p50_s = seconds_since(t0);
        got50 = true;
      }
      if (w >= b90) {
        out.p90_s = seconds_since(t0);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }};
  const auto stop_poller = [&] {
    done.store(true, std::memory_order_release);
    poller.join();
  };
  try {
    fleet.run();
  } catch (...) {
    stop_poller();
    throw;
  }
  out.seconds = seconds_since(t0);
  stop_poller();
  // A pass too quick for the poller to see the watermark move reads as
  // complete at its end.
  if (out.p50_s == 0.0) out.p50_s = out.seconds;
  if (out.p90_s == 0.0) out.p90_s = out.seconds;
  out.counters = fleet.merged_counters();
  out.incidents = dump_store(store);
  return out;
}

}  // namespace

void run_backfill(const options& o, result& r) {
  // ---- set-up: build the corpus, open + verify it --------------------------
  const std::string corpus_path = o.work_dir + "/backfill.lsc";
  corpus::corpus_build_options bo;
  bo.blocks = kBlocks;
  const corpus::corpus_build_result built =
      corpus::build_corpus(corpus_path, o.seed, bo);
  const corpus::corpus_reader reader{corpus_path};
  const double setup_s = seconds_since(o.process_start);

  // ---- timed phase: whole resumable passes for the run length --------------
  const std::string state_dir = o.work_dir + "/state";
  std::vector<double> rates, p50, p90;
  std::vector<pass_result> passes;
  double peak_mb = 0.0;
  {
    rss_sampler rss;
    const clock_type::time_point t0 = clock_type::now();
    do {
      pass_result p = fleet_pass(*built.world, reader, state_dir, nullptr,
                                 passes.size());
      rates.push_back(static_cast<double>(reader.block_count()) / p.seconds);
      p50.push_back(p.p50_s * 1e3);
      p90.push_back(p.p90_s * 1e3);
      // Every pass must build the same store; keep the first one's.
      if (!passes.empty()) {
        r.check(p.incidents == passes.front().incidents,
                "backfill: pass " + std::to_string(passes.size()) +
                    " built a different store than pass 0");
        p.incidents.clear();
      }
      passes.push_back(std::move(p));
    } while (seconds_since(t0) < o.seconds);
    peak_mb = rss.stop();
  }

  // ---- checks ---------------------------------------------------------------
  // Reference: receipts regenerated in memory from (seed, options) and
  // scanned serially with the prefilter off — no corpus file, signature
  // column, monitor, fleet or store involved.
  std::vector<service::monitor_incident> fleet_store = passes.front().incidents;
  {
    verify::generator_options gen;
    gen.block_span = bo.block_span;
    gen.plain_transfer_fraction = bo.plain_transfer_fraction;
    gen.noise_fraction = bo.noise_fraction;
    gen.huge_amount_fraction = bo.huge_amount_fraction;
    const std::shared_ptr<verify::synthetic_world> world =
        verify::make_world(o.seed);
    verify::generation_cursor cursor = verify::start_generation(o.seed, gen);
    reference_scan ref{*world, detector_options()};
    std::vector<chain::tx_receipt> chunk;
    std::uint64_t blocks = 0, last = 0, txs = 0;
    bool done = false;
    while (!done) {
      chunk.clear();
      verify::generate_receipts_into(*world, gen, cursor, 1 << 15, chunk);
      std::size_t keep = 0;
      for (; keep < chunk.size(); ++keep) {
        if (blocks == 0 || chunk[keep].block_number != last) {
          if (blocks == kBlocks) {
            done = true;
            break;
          }
          ++blocks;
          last = chunk[keep].block_number;
        }
      }
      chunk.resize(keep);
      txs += chunk.size();
      ref.add(chunk);
    }
    r.check(fleet_store == ref.incidents(),
            "backfill: fleet store differs from the serial reference scan");
    r.check(blocks == reader.block_count() && txs == reader.tx_count(),
            "backfill: regenerated history differs from the corpus header");
    const core::scan_stats& st = ref.stats();
    r.detail["input.transactions"] = static_cast<double>(txs);
    r.detail["input.flash_loan_share"] =
        static_cast<double>(st.flash_loans) / static_cast<double>(txs);
    r.detail["input.flagged_share"] =
        static_cast<double>(st.incidents) / static_cast<double>(txs);
    r.detail["input.incidents_per_block"] =
        static_cast<double>(st.incidents) / static_cast<double>(blocks);
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const auto& c = passes[i].counters;
    const auto get = [&c](const char* k) {
      const auto it = c.find(k);
      return it == c.end() ? std::uint64_t{0} : it->second;
    };
    r.check(get("monitor_blocks_processed") == reader.block_count(),
            "backfill: pass " + std::to_string(i) +
                " processed a different block count than the header");
    r.check(get("monitor_prefilter_accepts") +
                    get("monitor_prefilter_rejects") ==
                reader.tx_count(),
            "backfill: pass " + std::to_string(i) +
                " prefilter accepts + rejects differ from the header");
    r.attempted += get("monitor_blocks_processed") + get("monitor_incidents");
  }
  {
    // A second store rebuilt from the last pass's state directory.
    fleet::fleet_options fo;
    fo.shards = 1;
    fo.scan = detector_options();
    fo.checkpoint_every = kBackfillCheckpointEvery;
    fo.state_dir = state_dir;
    store::incident_store resumed;
    fleet::shard_coordinator fleet{built.world->creations, built.world->labels,
                                   built.world->weth_token, reader, resumed,
                                   fo};
    r.check(fleet.resume(), "backfill: no fleet checkpoint to resume from");
    fleet.run();
    r.check(dump_store(resumed) == fleet_store,
            "backfill: store rebuilt by resume() differs from the live one");
  }

  const double ops = median(rates);
  r.detail["input.blocks"] = static_cast<double>(reader.block_count());
  r.detail["input.file_bytes"] = static_cast<double>(reader.file_bytes());
  r.detail["input.incidents"] = static_cast<double>(fleet_store.size());
  r.detail["samples.passes"] = static_cast<double>(passes.size());
  r.detail["build.seconds"] = setup_s;

  r.detail["latency.p50_ms"] = median(p50);
  r.detail["latency.p90_ms"] = median(p90);
  if (!o.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", ops, "1/s");
    r.metric("peak_rss_mb", peak_mb, "MB");
    return;
  }

  // ---- traced run: one traced pass, then the ledger -------------------------
  tracer tr;
  const pass_result traced =
      fleet_pass(*built.world, reader, state_dir, &tr, passes.size());
  const double traced_ops =
      static_cast<double>(reader.block_count()) / traced.seconds;
  ledger_input in;
  in.corpus_path = corpus_path;
  in.world = built.world;
  in.incidents = fleet_store;
  in.work_dir = o.work_dir;
  in.seed = o.seed;
  in.tr = &tr;
  measure_ledger(in, r);
  r.metric("trace.overhead_pct", (ops / traced_ops - 1.0) * 100.0, "%");
  finish_trace(o, tr, r);
}

}  // namespace lsbench
