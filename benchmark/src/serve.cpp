// serve: closed loop. Two keep-alive HTTP clients, each with a configured
// API key whose rate-limit bucket exceeds the offered load, run rounds of a
// varied query mix (keyset pagination walks, attacker / app / token /
// pattern / block-range filters, detail fetches, /stats) against a store
// preloaded with tens of thousands of detected incidents, while one writer
// thread inserts further incidents at a fixed rate through the WAL (fsync
// per record). ops_per_s is queries/s; the context line's
// latency.p50_ms / p90_ms are client round trips.
#include <filesystem>
#include <random>
#include <set>

#include "api/http_server.h"
#include "bench.h"
#include "core/scanner.h"
#include "layers.h"
#include "store/wal.h"

namespace lsbench {

using namespace leishen;

namespace {

constexpr int kTransactions = 150'000;
constexpr double kWriterInsertsPerS = 200.0;
constexpr unsigned kClients = 2;
constexpr std::size_t kWalkLimit = 50;
constexpr std::size_t kFullWalkLimit = 500;

/// One pagination walk: the keys it returned, in order.
struct walk_record {
  std::size_t filter = 0;
  std::uint64_t written_before = 0;  // writer inserts visible at its start
  std::vector<store::incident_key> keys;
  bool ordered = true;
};

struct client_result {
  std::vector<double> latency_ms;
  std::uint64_t requests = 0, failed = 0, rounds = 0, walks = 0;
  std::vector<std::string> errors;
};

/// The writer's published progress: ids of the incidents it inserted.
/// ids[i] is written before `done` moves past i (release/acquire).
struct writer_state {
  std::vector<std::uint64_t> ids;
  std::atomic<std::uint64_t> done{0};
  std::string error;  // set when an insert threw; read after the join
};

/// What a walk over each filter must contain: the preload's matches, and
/// the matches among the writer's inserts visible when the walk began.
struct walk_oracle {
  std::vector<std::vector<store::incident_key>> preload;  // per filter
  std::vector<std::vector<std::size_t>> pending;  // per filter, ascending
  const std::vector<service::monitor_incident>* pending_incidents = nullptr;
  const writer_state* writer = nullptr;

  /// The id of an incident the walk should hold but lacks; 0 if none.
  [[nodiscard]] std::uint64_t missing(const walk_record& w) const {
    const auto has = [&w](const store::incident_key& k) {
      return std::binary_search(w.keys.begin(), w.keys.end(), k);
    };
    for (const store::incident_key& k : preload[w.filter]) {
      if (!has(k)) return k.id;
    }
    for (const std::size_t i : pending[w.filter]) {
      if (i >= w.written_before) break;
      const service::monitor_incident& inc = (*pending_incidents)[i];
      const store::incident_key k{inc.block_number, inc.incident.tx_index,
                                  writer->ids[i]};
      if (!has(k)) return k.id;
    }
    return 0;
  }
};

/// Walks one filter to its end; false on a failed or malformed response.
bool walk(http_client& c, const filter_spec& f, std::size_t limit,
          walk_record& w, client_result& cr, tracer* tr, std::string& body) {
  std::string target = "/incidents?" + f.query + (f.query.empty() ? "" : "&") +
                       "limit=" + std::to_string(limit);
  std::string page;
  while (true) {
    const clock_type::time_point t0 = clock_type::now();
    const int status = c.get(target + page, body);
    const clock_type::time_point t1 = clock_type::now();
    if (tr != nullptr) tr->add("api.request", cr.requests, t0, t1);
    ++cr.requests;
    cr.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
    const page_view v = status == 200 ? parse_page(body) : page_view{};
    if (!v.well_formed) {
      ++cr.failed;
      cr.errors.push_back("GET " + target + page + " answered " +
                          std::to_string(status) + " or a malformed page");
      return false;
    }
    for (const store::incident_key& k : v.keys) {
      if (!w.keys.empty() && !(w.keys.back() < k)) w.ordered = false;
      w.keys.push_back(k);
    }
    if (!v.has_more) return true;
    page = "&page=" + v.next;
  }
}

client_result run_client(std::uint16_t port, const std::string& key,
                         const std::vector<filter_spec>& filters,
                         std::uint64_t max_id, const walk_oracle& oracle,
                         std::uint64_t seed, double seconds, tracer* tr) {
  client_result cr;
  http_client c{port, key};
  if (!c.ok()) {
    cr.errors.push_back("cannot connect");
    ++cr.failed;
    return cr;
  }
  std::mt19937_64 rng{seed};
  std::string body;
  const auto single = [&](const std::string& target) {
    const clock_type::time_point t0 = clock_type::now();
    const int status = c.get(target, body);
    const clock_type::time_point t1 = clock_type::now();
    if (tr != nullptr) tr->add("api.request", cr.requests, t0, t1);
    ++cr.requests;
    cr.latency_ms.push_back(seconds_between(t0, t1) * 1e3);
    if (status != 200 || !well_formed_json(body)) {
      ++cr.failed;
      cr.errors.push_back("GET " + target + " answered " +
                          std::to_string(status) + " or a malformed body");
    }
  };
  // Checked as it completes, so a walk's keys are not kept.
  const auto checked_walk = [&](std::size_t fi, std::size_t limit) {
    walk_record w;
    w.filter = fi;
    w.written_before = oracle.writer->done.load(std::memory_order_acquire);
    if (!walk(c, filters[fi], limit, w, cr, tr, body)) return;
    ++cr.walks;
    const std::uint64_t lost = w.ordered ? oracle.missing(w) : 0;
    if (!w.ordered || lost != 0) {
      cr.errors.push_back("walk over '" + filters[fi].query + "' " +
                          (w.ordered ? "missed incident " + std::to_string(lost)
                                     : std::string{"repeated or reordered keys"}));
    }
  };
  const clock_type::time_point start = clock_type::now();
  do {
    // One round: a filtered walk, five single filtered pages, five detail
    // fetches, /stats; every fourth round also walks everything.
    checked_walk(1 + cr.rounds % (filters.size() - 1), kWalkLimit);
    for (int i = 0; i < 5; ++i) {
      const filter_spec& f = filters[(cr.rounds * 5 + i) % filters.size()];
      single("/incidents?" + f.query + (f.query.empty() ? "" : "&") +
             "limit=20");
    }
    for (int i = 0; i < 5; ++i) {
      single("/incidents/" + std::to_string(1 + rng() % max_id));
    }
    single("/stats");
    if (cr.rounds % 4 == 0) checked_walk(0, kFullWalkLimit);
    ++cr.rounds;
  } while (seconds_since(start) < seconds);
  return cr;
}

struct phase_result {
  double queries_per_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<client_result> clients;
};

/// Clients and writer for `seconds`; the writer inserts `pending` from
/// position `writer.done` on, at kWriterInsertsPerS.
phase_result run_phase(std::uint16_t port,
                       const std::vector<filter_spec>& filters,
                       std::uint64_t max_id, store::incident_store& st,
                       const std::vector<service::monitor_incident>& pending,
                       writer_state& writer, const walk_oracle& oracle,
                       std::uint64_t seed, double seconds, tracer* tr) {
  std::atomic<bool> stop{false};
  std::thread writer_thread{[&] {
    const clock_type::time_point t0 = clock_type::now();
    try {
      for (std::uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
        const std::uint64_t i = writer.done.load(std::memory_order_relaxed);
        if (i >= pending.size()) break;
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<clock_type::duration>(
                     std::chrono::duration<double>(k / kWriterInsertsPerS)));
        const scoped_span s{tr, "store.insert", i};
        writer.ids[i] = st.insert(pending[i]);
        writer.done.store(i + 1, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      writer.error = e.what();
    }
  }};
  phase_result out;
  out.clients.resize(kClients);
  const clock_type::time_point t0 = clock_type::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        out.clients[i] =
            run_client(port, "k" + std::to_string(i + 1), filters, max_id,
                       oracle, seed * 31 + i, seconds, tr);
      } catch (const std::exception& e) {
        out.clients[i].errors.push_back(std::string{"client threw: "} +
                                        e.what());
        ++out.clients[i].failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_since(t0);
  stop.store(true, std::memory_order_release);
  writer_thread.join();
  std::uint64_t requests = 0;
  for (const client_result& c : out.clients) {
    requests += c.requests;
    out.latency_ms.insert(out.latency_ms.end(), c.latency_ms.begin(),
                          c.latency_ms.end());
  }
  out.queries_per_s = static_cast<double>(requests) / elapsed;
  return out;
}

}  // namespace

void run_serve(const options& o, result& r) {
  // ---- set-up: detect a stream, preload the store, start the server --------
  verify::generator_options gen;
  gen.transactions = kTransactions;
  const verify::generated_population pop =
      verify::generate_receipts(o.seed, gen);
  std::vector<service::monitor_incident> detected;
  {
    core::scanner s{pop.world->creations, pop.world->labels,
                    pop.world->weth_token, detector_options()};
    for (const chain::tx_receipt& rec : pop.receipts) {
      if (const core::incident* inc = s.scan(rec)) {
        detected.push_back({rec.block_number, *inc, {}});
      }
    }
  }
  // Held back for the writer: 40 s of inserts, more than a 20 s timed phase
  // plus a 10 s traced one need.
  const std::size_t hold = std::min<std::size_t>(detected.size() / 2, 8'000);
  const std::vector<service::monitor_incident> preload(
      detected.begin(), detected.end() - static_cast<std::ptrdiff_t>(hold));
  const std::vector<service::monitor_incident> pending(
      detected.end() - static_cast<std::ptrdiff_t>(hold), detected.end());

  store::incident_store st;
  st.insert_batch(preload);
  store::wal_options wo;
  wo.dir = o.work_dir + "/wal";
  store::wal_writer wal{wo};
  st.attach_wal(&wal);

  service::metrics_registry metrics;
  api::server_config cfg;
  cfg.endpoint.host = "127.0.0.1";
  cfg.endpoint.port = 0;
  cfg.workers = 2;
  cfg.rate.enabled = true;
  cfg.rate.refill_per_sec = 1e6;
  cfg.rate.burst = 1e6;
  cfg.api_keys = {"k1", "k2"};
  api::http_server server{st, metrics, cfg};
  server.start();
  const std::vector<filter_spec> filters = make_filters(preload, o.seed, 16);
  const double setup_s = seconds_since(o.process_start);

  writer_state writer;
  writer.ids.assign(pending.size(), 0);
  walk_oracle oracle;
  oracle.preload.resize(filters.size());
  oracle.pending.resize(filters.size());
  oracle.pending_incidents = &pending;
  oracle.writer = &writer;
  for (std::size_t f = 0; f < filters.size(); ++f) {
    for (std::size_t i = 0; i < preload.size(); ++i) {
      if (matches(filters[f].filter, preload[i])) {
        oracle.preload[f].push_back(
            {preload[i].block_number, preload[i].incident.tx_index, i + 1});
      }
    }
    std::sort(oracle.preload[f].begin(), oracle.preload[f].end());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (matches(filters[f].filter, pending[i])) oracle.pending[f].push_back(i);
    }
  }

  // ---- timed phase ----------------------------------------------------------
  phase_result main;
  double peak_mb = 0.0;
  {
    rss_sampler rss;
    main = run_phase(server.port(), filters, preload.size(), st, pending,
                     writer, oracle, o.seed, o.seconds, nullptr);
    peak_mb = rss.stop();
  }
  const double hits =
      static_cast<double>(metrics.counter_value("api_cache_hits_total"));
  const double misses =
      static_cast<double>(metrics.counter_value("api_cache_misses_total"));
  const double server_p50_us =
      metrics.get_histogram("api_request_seconds").quantile(0.5) * 1e6;
  const double rate_limited =
      static_cast<double>(metrics.counter_value("api_rate_limited_total"));

  tracer tr;
  phase_result traced;
  if (o.trace) {
    traced = run_phase(server.port(), filters, preload.size(), st, pending,
                       writer, oracle, o.seed + 1, o.seconds / 2, &tr);
  }

  // ---- checks ---------------------------------------------------------------
  // The benchmark's own list of inserted incidents, with their store ids.
  const std::uint64_t written = writer.done.load();
  std::vector<std::pair<store::incident_key, const service::monitor_incident*>>
      inserted;
  for (std::size_t i = 0; i < preload.size(); ++i) {
    inserted.push_back({{preload[i].block_number,
                         preload[i].incident.tx_index, i + 1},
                        &preload[i]});
  }
  for (std::size_t i = 0; i < written; ++i) {
    inserted.push_back({{pending[i].block_number,
                         pending[i].incident.tx_index, writer.ids[i]},
                        &pending[i]});
  }
  std::sort(inserted.begin(), inserted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (const phase_result* ph : {&main, &traced}) {
    for (const client_result& c : ph->clients) {
      for (const std::string& e : c.errors) r.check(false, "serve: " + e);
      r.attempted += c.requests;
      r.failed += c.failed;
    }
  }
  r.attempted += written;
  r.check(writer.error.empty(), "serve: writer insert failed: " + writer.error);
  {
    // After the writer stopped: each filter's full walk equals a
    // brute-force filter over the inserted list, and /stats agrees.
    http_client c{server.port(), "k1"};
    client_result cr;
    std::string body;
    for (std::size_t i = 0; i < filters.size(); ++i) {
      std::vector<store::incident_key> want;
      for (const auto& [key, inc] : inserted) {
        if (matches(filters[i].filter, *inc)) want.push_back(key);
      }
      walk_record w;
      r.check(walk(c, filters[i], kFullWalkLimit, w, cr, nullptr, body),
              "serve: final walk over '" + filters[i].query + "' failed");
      r.check(w.keys == want, "serve: final walk over '" + filters[i].query +
                                  "' differs from the brute-force filter");
    }
    r.check(c.get("/stats", body) == 200 &&
                body.find("\"active\":" + std::to_string(inserted.size()) +
                          ",") != std::string::npos,
            "serve: /stats active count differs from the inserted list");
  }
  r.check(rate_limited == 0.0, "serve: the rate limiter refused requests");
  server.stop();
  st.attach_wal(nullptr);

  std::uint64_t walks = 0;
  for (const client_result& c : main.clients) walks += c.walks;
  r.detail["input.transactions"] = static_cast<double>(pop.receipts.size());
  r.detail["input.preloaded_incidents"] = static_cast<double>(preload.size());
  r.detail["input.filters"] = static_cast<double>(filters.size());
  r.detail["offered.writer_inserts_per_s"] = kWriterInsertsPerS;
  r.detail["samples.requests"] = static_cast<double>(main.latency_ms.size());
  r.detail["samples.walks"] = static_cast<double>(walks);
  r.detail["writer.inserted"] = static_cast<double>(written);
  r.detail["api.cache_hit_share"] = hits / std::max(1.0, hits + misses);

  r.detail["latency.p50_ms"] = quantile(main.latency_ms, 0.5);
  r.detail["latency.p90_ms"] = quantile(main.latency_ms, 0.9);
  if (!o.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("ops_per_s", main.queries_per_s, "1/s");
    r.metric("peak_rss_mb", peak_mb, "MB");
    return;
  }

  r.metric("api.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  r.metric("api.cache_hits", hits, "count");
  r.metric("api.cache_misses", misses, "count");
  r.metric("api.server_p50_us", server_p50_us, "us");
  ledger_input in;
  in.corpus_path = o.work_dir + "/serve.lsc";
  write_corpus(in.corpus_path, pop.receipts);
  in.world = pop.world;
  in.incidents = detected;
  in.work_dir = o.work_dir;
  in.seed = o.seed;
  in.tr = &tr;
  in.has_server_probe = true;
  measure_ledger(in, r);
  r.metric("trace.overhead_pct",
           (main.queries_per_s / traced.queries_per_s - 1.0) * 100.0, "%");
  finish_trace(o, tr, r);
}

}  // namespace lsbench
