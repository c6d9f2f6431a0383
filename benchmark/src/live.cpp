// live: an attack-dense verify::receipt_gen stream (default mix) through one
// monitor_service whose store_sink feeds an incident_store with a WAL
// attached, fsync per record. Each round has two phases:
//   - paced: a benchmark-owned source releases blocks on a fixed open-loop
//     schedule (kOfferedBlocksPerS);
//   - catch-up: the rest of the stream is released at once, like a node
//     reconnecting after an outage.
// ops_per_s is catch-up blocks/s. The context line's latency.p50_ms / p90_ms
// run from a block's scheduled arrival to the return of its incidents' store insert
// (WAL append + fsync included), over the paced phase. Every figure is the
// median over the run's rounds.
#include <filesystem>

#include "bench.h"
#include "core/scanner.h"
#include "layers.h"
#include "scenarios/known_attacks.h"
#include "scenarios/population.h"
#include "service/monitor_service.h"
#include "store/store_sink.h"
#include "store/wal.h"

namespace lsbench {

using namespace leishen;

namespace {

constexpr int kTransactions = 60'000;
/// Offered load of the paced phase: about a third of the catch-up rate
/// measured with the WAL on when this benchmark was written (see README.md),
/// so a neighbour's transient load does not build a backlog.
constexpr double kOfferedBlocksPerS = 5'000.0;
/// Share of the stream's blocks released on the schedule.
constexpr double kPacedShare = 0.25;

struct round_result {
  double catchup_blocks_per_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> gen_late_us, backpressure_us;
  std::uint64_t blocks_processed = 0, blocks_dropped = 0, incidents = 0;
  std::vector<service::monitor_incident> store_dump;
  std::string wal_dir;
};

round_result run_round(const verify::synthetic_world& world,
                       const std::vector<chain::tx_receipt>& receipts,
                       std::uint64_t blocks, const std::string& wal_dir,
                       tracer* tr, result* probe_out) {
  std::filesystem::remove_all(wal_dir);
  // Traced: the round is the parent of its source and store-insert spans,
  // so the monitor's own work is the round's self time.
  const scoped_span round_span{tr, "service.monitor_round", 0};
  store::incident_store st;
  store::wal_options wo;
  wo.dir = wal_dir;
  store::wal_writer wal{wo};
  st.attach_wal(&wal);

  service::metrics_registry metrics;
  service::monitor_options mo;
  mo.scan = detector_options();
  service::monitor_service monitor{world.creations, world.labels,
                                   world.weth_token, metrics, mo};
  store::store_sink plain_sink{st};
  traced_store_sink traced_sink{st, tr, round_span.handle()};
  probe_sink probe;
  if (tr != nullptr) {
    monitor.add_sink(traced_sink);
  } else {
    monitor.add_sink(plain_sink);
  }
  monitor.add_sink(probe);  // runs right after the store insert returned

  service::simulated_block_source inner{receipts};
  probe_source src{inner, tr, round_span.handle()};
  const std::uint64_t paced =
      static_cast<std::uint64_t>(kPacedShare * static_cast<double>(blocks));
  // Small lead so the first due time is not already in the past.
  src.pace(clock_type::now() + std::chrono::milliseconds(2),
           kOfferedBlocksPerS, paced);
  monitor.run(src);
  const clock_type::time_point end = clock_type::now();
  st.attach_wal(nullptr);

  round_result out;
  out.catchup_blocks_per_s =
      static_cast<double>(blocks - paced) / seconds_between(src.release_time(), end);
  const std::vector<probe_source::stamp>& stamps = src.stamps();
  std::size_t j = 0;
  for (const probe_sink::stamp& s : probe.stamps()) {
    while (j < stamps.size() && stamps[j].number < s.block) ++j;
    if (j >= paced) break;
    out.latency_ms.push_back(seconds_between(stamps[j].due, s.arrived) * 1e3);
  }
  for (std::size_t k = 0; k < paced && k < stamps.size(); ++k) {
    const probe_source::stamp& s = stamps[k];
    out.gen_late_us.push_back(
        seconds_between(std::max(s.due, s.called), s.emitted) * 1e6);
    out.backpressure_us.push_back(
        std::max(0.0, seconds_between(s.due, s.called)) * 1e6);
  }
  out.blocks_processed = monitor.blocks_processed();
  out.blocks_dropped = metrics.counter_value("monitor_blocks_dropped");
  out.incidents = monitor.incidents_emitted();
  out.store_dump = dump_store(st);
  out.wal_dir = wal_dir;
  if (probe_out != nullptr) {
    emit_monitor_probe(src, probe, monitor.queue().high_water(), *probe_out);
  }
  return out;
}

/// Runs the labelled scenario population (the known-attack
/// reconstructions plus `scenarios::generate_population`) through the
/// workload's detector configuration; every ground-truth KRP/SBS/MBS
/// transaction must be flagged with that pattern.
void check_labelled_population(std::uint64_t seed, result& r) {
  const auto flagged_with = [](core::scanner& s, const chain::tx_receipt& rec,
                               core::attack_pattern p) {
    const core::incident* inc = s.scan(rec);
    if (inc == nullptr) return false;
    for (const core::pattern_match& m : inc->matches) {
      if (m.pattern == p) return true;
    }
    return false;
  };
  std::uint64_t truths = 0, missed = 0;
  {
    scenarios::universe u;
    const std::vector<scenarios::known_attack> attacks =
        scenarios::run_known_attacks(u);
    core::scanner s{u.bc().creations(), u.labels(), u.weth().id(),
                    detector_options()};
    for (const scenarios::known_attack& a : attacks) {
      if (!a.leishen_expected) continue;  // Table IV: LeiShen misses these
      for (const core::attack_pattern p : a.true_patterns) {
        ++truths;
        missed += !flagged_with(s, u.bc().receipt(a.tx_index), p);
      }
    }
  }
  {
    scenarios::universe u;
    scenarios::population_params pp;
    pp.seed = seed;
    pp.benign_txs = 200;
    const scenarios::population pop = scenarios::generate_population(u, pp);
    core::scanner s{u.bc().creations(), u.labels(), u.weth().id(),
                    detector_options()};
    for (const scenarios::population_tx& tx : pop.txs) {
      const chain::tx_receipt& rec = u.bc().receipt(tx.tx_index);
      const std::pair<bool, core::attack_pattern> truth[] = {
          {tx.truth_krp, core::attack_pattern::krp},
          {tx.truth_sbs, core::attack_pattern::sbs},
          {tx.truth_mbs, core::attack_pattern::mbs}};
      for (const auto& [is_true, p] : truth) {
        if (!is_true) continue;
        ++truths;
        missed += !flagged_with(s, rec, p);
      }
    }
  }
  r.detail["labelled.truths"] = static_cast<double>(truths);
  r.check(truths > 0 && missed == 0,
          "live: " + std::to_string(missed) + " of " + std::to_string(truths) +
              " ground-truth pattern instances not flagged");
}

}  // namespace

void run_live(const options& o, result& r) {
  // ---- set-up: the stream, and the labelled scenario population ------------
  verify::generator_options gen;
  gen.transactions = kTransactions;
  const verify::generated_population pop =
      verify::generate_receipts(o.seed, gen);
  std::uint64_t blocks = 0;
  for (std::size_t i = 0; i < pop.receipts.size(); ++i) {
    if (i == 0 || pop.receipts[i].block_number != pop.receipts[i - 1].block_number) {
      ++blocks;
    }
  }
  check_labelled_population(o.seed, r);
  const double setup_s = seconds_since(o.process_start);

  // ---- timed phase: whole rounds for the run length ------------------------
  std::vector<double> rates, p50, p90, gen_late, backpressure;
  std::uint64_t latency_samples = 0;
  std::vector<round_result> rounds;
  double peak_mb = 0.0;
  {
    rss_sampler rss;
    const clock_type::time_point t0 = clock_type::now();
    do {
      round_result rr = run_round(*pop.world, pop.receipts, blocks,
                                  o.work_dir + "/wal", nullptr, nullptr);
      rates.push_back(rr.catchup_blocks_per_s);
      latency_samples += rr.latency_ms.size();
      p50.push_back(quantile(rr.latency_ms, 0.5));
      p90.push_back(quantile(rr.latency_ms, 0.9));
      gen_late.insert(gen_late.end(), rr.gen_late_us.begin(),
                      rr.gen_late_us.end());
      backpressure.insert(backpressure.end(), rr.backpressure_us.begin(),
                          rr.backpressure_us.end());
      rounds.push_back(std::move(rr));
    } while (seconds_since(t0) < o.seconds);
    peak_mb = rss.stop();
  }

  // ---- checks ---------------------------------------------------------------
  reference_scan ref{*pop.world, detector_options()};
  ref.add(pop.receipts);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const round_result& rr = rounds[i];
    const std::string tag = "live: round " + std::to_string(i) + ": ";
    r.check(rr.store_dump == ref.incidents(),
            tag + "store differs from the serial reference scan");
    r.check(rr.blocks_processed == blocks && rr.blocks_dropped == 0,
            tag + "blocks processed differ from blocks sent");
    r.attempted += rr.blocks_processed + rr.incidents;
  }
  {
    store::incident_store recovered;
    store::recover_wal(rounds.back().wal_dir, recovered);
    r.check(dump_store(recovered) == rounds.back().store_dump,
            "live: store recovered from the WAL differs from the live store");
  }

  const core::scan_stats& st = ref.stats();
  const double txs = static_cast<double>(pop.receipts.size());
  r.detail["input.transactions"] = txs;
  r.detail["input.blocks"] = static_cast<double>(blocks);
  r.detail["input.flash_loan_share"] = static_cast<double>(st.flash_loans) / txs;
  r.detail["input.flagged_share"] = static_cast<double>(st.incidents) / txs;
  r.detail["input.incidents_per_block"] =
      static_cast<double>(st.incidents) / static_cast<double>(blocks);
  r.detail["offered.blocks_per_s"] = kOfferedBlocksPerS;
  r.detail["samples.rounds"] = static_cast<double>(rounds.size());
  r.detail["samples.latency"] = static_cast<double>(latency_samples);
  r.detail["schedule.source_late_p50_us"] = quantile(gen_late, 0.5);
  r.detail["schedule.source_late_p99_us"] = quantile(gen_late, 0.99);
  r.detail["schedule.backpressure_late_p50_us"] = quantile(backpressure, 0.5);
  r.detail["schedule.backpressure_late_p99_us"] = quantile(backpressure, 0.99);

  r.detail["latency.p50_ms"] = median(p50);
  r.detail["latency.p90_ms"] = median(p90);
  const double ops = median(rates);
  if (!o.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", ops, "1/s");
    r.metric("peak_rss_mb", peak_mb, "MB");
    return;
  }

  // ---- traced run: one decorated round, then the ledger ---------------------
  tracer tr;
  const round_result traced = run_round(*pop.world, pop.receipts, blocks,
                                        o.work_dir + "/wal", &tr, &r);
  r.check(traced.store_dump == ref.incidents(),
          "live: traced round store differs from the reference scan");
  ledger_input in;
  in.corpus_path = o.work_dir + "/live.lsc";
  write_corpus(in.corpus_path, pop.receipts);
  in.world = pop.world;
  in.incidents = ref.incidents();
  in.work_dir = o.work_dir;
  in.seed = o.seed;
  in.tr = &tr;
  in.has_monitor_probe = true;
  measure_ledger(in, r);
  r.metric("trace.overhead_pct",
           (ops / traced.catchup_blocks_per_s - 1.0) * 100.0, "%");
  finish_trace(o, tr, r);
}

}  // namespace lsbench
