#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>

#include "api/http.h"
#include "api/http_server.h"
#include "common/net.h"
#include "core/detector.h"
#include "corpus/corpus_block_source.h"
#include "corpus/corpus_reader.h"
#include "corpus/corpus_scan.h"
#include "corpus/corpus_writer.h"
#include "fleet/shard_coordinator.h"
#include "replay/replayer.h"
#include "service/monitor_service.h"
#include "store/store_sink.h"
#include "store/wal.h"

namespace lsbench {

using namespace leishen;

namespace {

/// Sleeps most of the way, then spins the rest, so a paced release lands
/// within a few microseconds of its due time. The spin window is kept short:
/// a spinning source takes a core from the monitor it feeds.
void wait_until(clock_type::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(60);
  const clock_type::time_point now = clock_type::now();
  if (due - now > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (clock_type::now() < due) std::this_thread::yield();
}

double us(double seconds) { return seconds * 1e6; }

}  // namespace

void probe_source::pace(clock_type::time_point start, double blocks_per_s,
                        std::uint64_t paced_blocks) {
  paced_ = true;
  start_ = start;
  interval_s_ = 1.0 / blocks_per_s;
  paced_blocks_ = paced_blocks;
}

std::optional<service::block> probe_source::next() {
  const clock_type::time_point called = clock_type::now();
  const std::size_t k = stamps_.size();
  std::optional<service::block> b = inner_.next();
  if (!b) return b;
  clock_type::time_point due = called;
  if (paced_ && k < paced_blocks_) {
    due = start_ + std::chrono::duration_cast<clock_type::duration>(
                       std::chrono::duration<double>(interval_s_ *
                                                     static_cast<double>(k)));
    wait_until(due);
  } else if (paced_ && k == paced_blocks_) {
    release_ = called;
  }
  const clock_type::time_point emitted = clock_type::now();
  stamps_.push_back({b->number, called, due, emitted});
  if (tr_ != nullptr) {
    tr_->add("service.source_next", b->number, called, emitted, parent_);
  }
  return b;
}

reference_scan::reference_scan(const verify::synthetic_world& world,
                               core::scanner_options opts)
    : scanner_{world.creations, world.labels, world.weth_token,
               [&] {
                 opts.prefilter = false;
                 return opts;
               }()} {}

void reference_scan::add(const std::vector<chain::tx_receipt>& receipts) {
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    const chain::tx_receipt& rec = receipts[i];
    scratch_.clear();
    scanner_.scan_range(receipts, i, i + 1, stats_, scratch_);
    for (core::incident& inc : scratch_) {
      incidents_.push_back(
          service::monitor_incident{rec.block_number, std::move(inc), {}});
    }
  }
}

core::scanner_options detector_options() { return core::scanner_options{}; }

std::uint64_t write_corpus(const std::string& path,
                           const std::vector<chain::tx_receipt>& rs) {
  corpus::corpus_writer w{path};
  for (const chain::tx_receipt& r : rs) w.append(r);
  return w.finish();
}

namespace {

std::string url_encode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (const unsigned char c : s) {
    if (std::isalnum(c) != 0 || c == '-' || c == '_' || c == '.') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

}  // namespace

std::vector<filter_spec> make_filters(
    const std::vector<service::monitor_incident>& incidents,
    std::uint64_t seed, std::size_t per_kind) {
  std::set<std::string> attackers, apps;
  std::set<chain::asset> tokens;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const service::monitor_incident& inc : incidents) {
    attackers.insert(inc.incident.borrower_tag.str());
    for (const core::pattern_match& m : inc.incident.matches) {
      apps.insert(m.counterparty.str());
      if (!m.target.is_ether()) tokens.insert(m.target);
    }
    lo = std::min(lo, inc.block_number);
    hi = std::max(hi, inc.block_number);
  }
  std::mt19937_64 rng{seed ^ 0x5eedf11e75ULL};
  const auto pick = [&](const auto& set) {
    std::vector<typename std::decay_t<decltype(set)>::value_type> v(
        set.begin(), set.end());
    std::shuffle(v.begin(), v.end(), rng);
    if (v.size() > per_kind) v.resize(per_kind);
    return v;
  };
  std::vector<filter_spec> out;
  out.push_back({"", {}});
  for (const std::string& a : pick(attackers)) {
    filter_spec f{"attacker=" + url_encode(a), {}};
    f.filter.attacker = a;
    out.push_back(f);
  }
  for (const std::string& a : pick(apps)) {
    filter_spec f{"app=" + url_encode(a), {}};
    f.filter.app = a;
    out.push_back(f);
  }
  for (const chain::asset& t : pick(tokens)) {
    filter_spec f{"token=" + t.contract_address().to_hex(), {}};
    f.filter.token = t.contract_address();
    out.push_back(f);
  }
  for (const core::attack_pattern p :
       {core::attack_pattern::krp, core::attack_pattern::sbs,
        core::attack_pattern::mbs}) {
    filter_spec f{std::string{"pattern="} + core::to_string(p), {}};
    f.filter.pattern = p;
    out.push_back(f);
  }
  if (!incidents.empty()) {
    const std::uint64_t span = hi - lo + 1;
    for (std::size_t i = 0; i < per_kind; ++i) {
      const std::uint64_t from = lo + rng() % span;
      const std::uint64_t to =
          std::min(hi, from + std::max<std::uint64_t>(1, span / 16));
      filter_spec f{
          "from=" + std::to_string(from) + "&to=" + std::to_string(to), {}};
      f.filter.from_block = from;
      f.filter.to_block = to;
      out.push_back(f);
    }
  }
  return out;
}

bool matches(const store::incident_filter& f,
             const service::monitor_incident& inc) {
  if (inc.block_number < f.from_block || inc.block_number > f.to_block) {
    return false;
  }
  if (f.attacker && inc.incident.borrower_tag.str() != *f.attacker) {
    return false;
  }
  const auto any_match = [&](const auto& pred) {
    for (const core::pattern_match& m : inc.incident.matches) {
      if (pred(m)) return true;
    }
    return false;
  };
  if (f.token && !any_match([&](const core::pattern_match& m) {
        return m.target == chain::asset::token(*f.token);
      })) {
    return false;
  }
  if (f.app && !any_match([&](const core::pattern_match& m) {
        return m.counterparty.str() == *f.app;
      })) {
    return false;
  }
  if (f.pattern && !any_match([&](const core::pattern_match& m) {
        return m.pattern == *f.pattern;
      })) {
    return false;
  }
  return true;
}

http_client::http_client(std::uint16_t port, std::string api_key)
    : key_{std::move(api_key)} {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

http_client::~http_client() {
  if (fd_ >= 0) ::close(fd_);
}

int http_client::get(const std::string& target, std::string& body) {
  body.clear();
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: lsbench\r\n";
  if (!key_.empty()) req += "x-api-key: " + key_ + "\r\n";
  req += "\r\n";
  if (!net::send_all(fd_, req)) return 0;
  std::size_t head_end = std::string::npos;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (net::recv_some(fd_, buf_, 5000) <= 0) return 0;
  }
  head_end += 4;
  std::size_t want = 0;
  const std::size_t cl = buf_.find("Content-Length: ");
  if (cl != std::string::npos && cl < head_end) {
    want = std::strtoull(buf_.c_str() + cl + 16, nullptr, 10);
  }
  while (buf_.size() < head_end + want) {
    if (net::recv_some(fd_, buf_, 5000) <= 0) return 0;
  }
  const int status = std::atoi(buf_.c_str() + 9);  // "HTTP/1.1 NNN"
  body.assign(buf_, head_end, want);
  buf_.erase(0, head_end + want);
  return status;
}

namespace {

bool read_u64_after(const std::string& s, std::size_t& pos, const char* tag,
                    std::uint64_t& out) {
  const std::size_t at = s.find(tag, pos);
  if (at == std::string::npos) return false;
  pos = at + std::strlen(tag);
  char* end = nullptr;
  out = std::strtoull(s.c_str() + pos, &end, 10);
  if (end == s.c_str() + pos) return false;
  pos = static_cast<std::size_t>(end - s.c_str());
  return true;
}

}  // namespace

bool well_formed_json(const std::string& body) {
  if (body.empty() || body.front() != '{' || body.back() != '}') return false;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0 && i + 1 != body.size()) return false;
    }
  }
  return depth == 0 && !in_string;
}

page_view parse_page(const std::string& body) {
  page_view v;
  if (!well_formed_json(body)) return v;
  std::uint64_t count = 0;
  std::size_t pos = 0;
  if (!read_u64_after(body, pos, "\"count\":", count)) return v;
  v.has_more = body.compare(pos, 16, ",\"has_more\":true") == 0;
  if (v.has_more) {
    const std::size_t at = body.find("\"next\":\"", pos);
    if (at == std::string::npos) return v;
    const std::size_t end = body.find('"', at + 8);
    v.next = body.substr(at + 8, end - (at + 8));
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    store::incident_key k;
    if (!read_u64_after(body, pos, "{\"id\":", k.id) ||
        !read_u64_after(body, pos, "\"incident\":{\"block\":", k.block) ||
        !read_u64_after(body, pos, ",\"tx\":", k.tx)) {
      return v;
    }
    v.keys.push_back(k);
  }
  v.well_formed = true;
  return v;
}

void emit_monitor_probe(const probe_source& src, const probe_sink& sink,
                        std::size_t queue_high_water, result& r) {
  // Blocks are emitted in order, so stamps are sorted by block number.
  const std::vector<probe_source::stamp>& st = src.stamps();
  std::vector<double> lag, to_sink;
  std::size_t j = 0;
  for (const probe_sink::stamp& s : sink.stamps()) {
    while (j < st.size() && st[j].number < s.block) ++j;
    if (j == st.size()) break;
    lag.push_back(us(seconds_between(st[j].due, s.enqueued)));
    to_sink.push_back(us(seconds_between(s.enqueued, s.arrived)));
  }
  r.metric("service.source_lag_us", median(lag), "us");
  r.metric("service.enqueue_to_sink_us", median(to_sink), "us");
  r.metric("service.queue_high_water",
           static_cast<double>(queue_high_water), "count");
  // The source's own lateness (emitted after it was both due and asked
  // for) kept apart from backpressure (asked for after it was due, because
  // the producer was still pushing the previous block).
  std::vector<double> own, back;
  for (const probe_source::stamp& s : st) {
    own.push_back(us(seconds_between(std::max(s.due, s.called), s.emitted)));
    back.push_back(us(std::max(0.0, seconds_between(s.due, s.called))));
  }
  r.metric("service.source_late_p99_us", quantile(own, 0.99), "us");
  r.metric("service.backpressure_late_p99_us", quantile(back, 0.99), "us");
}

void measure_ledger(const ledger_input& in, result& r) {
  tracer* tr = in.tr;
  const verify::synthetic_world& world = *in.world;
  const core::scanner_options scan = detector_options();

  // ---- corpus: open + verify, then a bare drain of the block source -------
  clock_type::time_point t0 = clock_type::now();
  std::unique_ptr<corpus::corpus_reader> reader;
  {
    const scoped_span s{tr, "corpus.open_verify", 0};
    reader = std::make_unique<corpus::corpus_reader>(in.corpus_path);
  }
  r.metric("corpus.open_verify_s", seconds_since(t0), "s");
  const std::uint64_t blocks = reader->block_count();
  const double nblocks = static_cast<double>(std::max<std::uint64_t>(1, blocks));
  {
    const scoped_span s{tr, "corpus.drain", 0};
    corpus::corpus_block_source src{*reader, 0, blocks};
    std::uint64_t materialized = 0;
    t0 = clock_type::now();
    while (std::optional<service::block> b = src.next()) {
      for (const chain::tx_receipt& rec : b->receipts) {
        if (!rec.events.empty()) ++materialized;
      }
    }
    r.metric("corpus.next_ns_per_block", seconds_since(t0) * 1e9 / nblocks,
             "ns");
    r.metric("corpus.materialized_txs", static_cast<double>(materialized),
             "count");
  }

  // ---- core: serial scan_corpus, the no-queue floor ------------------------
  {
    const scoped_span s{tr, "core.scan_corpus", 0};
    const core::scanner scanner{world.creations, world.labels,
                                world.weth_token, scan};
    const std::uint64_t a0 = thread_allocations();
    t0 = clock_type::now();
    const corpus::corpus_scan_result res =
        corpus::scan_corpus(*reader, scanner, 0, blocks);
    const double secs = seconds_since(t0);
    const std::uint64_t allocs = thread_allocations() - a0;
    r.metric("core.scan_corpus_ns_per_block", secs * 1e9 / nblocks, "ns");
    r.metric("core.prefilter_accepts",
             static_cast<double>(res.stats.prefilter_accepts), "count");
    r.metric("core.prefilter_rejects",
             static_cast<double>(res.stats.prefilter_rejects), "count");
    r.metric("core.incidents", static_cast<double>(res.incidents.size()),
             "count");
    r.metric("core.allocs_per_tx",
             static_cast<double>(allocs) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, res.transactions)),
             "count");
    r.check(res.incidents == in.incidents,
            "ledger: scan_corpus incidents differ from the reference scan");
  }

  // ---- core: each pipeline stage alone, per prefilter-accepted tx ----------
  {
    const scoped_span s{tr, "core.stages", 0};
    constexpr std::size_t kMaxTxs = 20000;
    std::vector<chain::tx_receipt> accepted;
    for (std::uint64_t b = 0; b < blocks && accepted.size() < kMaxTxs; ++b) {
      const corpus::block_rec& br = reader->block(b);
      for (std::uint64_t t = br.first_tx; t < br.first_tx + br.tx_count; ++t) {
        if (!reader->tx_may_be_flash_loan(t)) continue;
        accepted.emplace_back();
        reader->materialize_tx(t, br.number, accepted.back());
        if (accepted.size() == kMaxTxs) break;
      }
    }
    const core::detector det{world.creations, world.labels, world.weth_token};
    core::flashloan_info flash;
    chain::transfer_list transfers;
    core::app_transfer_list tagged, simplified, scratch;
    core::trade_list trades;
    std::vector<core::pattern_match> found;
    double t_flash = 0, t_extract = 0, t_tag = 0, t_simplify = 0,
           t_trades = 0, t_patterns = 0;
    const auto lap = [](clock_type::time_point& t) {
      const clock_type::time_point now = clock_type::now();
      const double d = seconds_between(t, now);
      t = now;
      return d;
    };
    // Warm the taggers' memo the way a running scanner is warm.
    for (const chain::tx_receipt& rec : accepted) {
      core::identify_flash_loan_into(rec, flash);
      if (flash.is_flash_loan) (void)det.tagger().tag_of(flash.borrower);
    }
    for (const chain::tx_receipt& rec : accepted) {
      clock_type::time_point t = clock_type::now();
      core::identify_flash_loan_into(rec, flash);
      t_flash += lap(t);
      if (!flash.is_flash_loan) continue;
      const tag_id borrower = det.tagger().tag_of(flash.borrower);
      t = clock_type::now();
      replay::extract_transfers_into(rec, transfers);
      t_extract += lap(t);
      det.tagger().lift_into(transfers, tagged);
      t_tag += lap(t);
      core::simplify_params sp;
      sp.protected_tag = borrower;
      core::simplify_into(tagged, world.weth_token, sp, simplified, scratch);
      t_simplify += lap(t);
      core::identify_trades_into(simplified, trades);
      t_trades += lap(t);
      core::match_patterns_into(trades, borrower, det.params(), found);
      t_patterns += lap(t);
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, accepted.size()));
    r.metric("core.flashloan_id_ns", t_flash * 1e9 / n, "ns");
    r.metric("core.extract_ns", t_extract * 1e9 / n, "ns");
    r.metric("core.tag_ns", t_tag * 1e9 / n, "ns");
    r.metric("core.simplify_ns", t_simplify * 1e9 / n, "ns");
    r.metric("core.trades_ns", t_trades * 1e9 / n, "ns");
    r.metric("core.patterns_ns", t_patterns * 1e9 / n, "ns");
    r.detail["ledger.stage_txs"] = static_cast<double>(accepted.size());
  }

  // ---- service: one monitor over the corpus source, no fleet, no state ----
  {
    const scoped_span s{tr, "service.monitor", 0};
    service::metrics_registry metrics;
    service::monitor_options mo;
    mo.scan = scan;
    mo.checkpoint_path.clear();
    service::monitor_service monitor{world.creations, world.labels,
                                     world.weth_token, metrics, mo};
    std::uint64_t seen = 0;
    service::callback_sink sink{
        [&seen](const service::monitor_incident&) { ++seen; }};
    monitor.add_sink(sink);
    corpus::corpus_block_source src{*reader, 0, blocks};
    t0 = clock_type::now();
    monitor.run(src);
    r.metric("service.monitor_ns_per_block",
             seconds_since(t0) * 1e9 / nblocks, "ns");
    r.check(seen == in.incidents.size(),
            "ledger: monitor emitted a different incident count");
  }
  if (!in.has_monitor_probe) {
    const scoped_span s{tr, "service.monitor_probe", 0};
    service::metrics_registry metrics;
    service::monitor_options mo;
    mo.scan = scan;
    service::monitor_service monitor{world.creations, world.labels,
                                     world.weth_token, metrics, mo};
    probe_sink sink;
    monitor.add_sink(sink);
    corpus::corpus_block_source inner{*reader, 0, blocks};
    // Per-block spans only where they stay small.
    probe_source src{inner, blocks <= 100000 ? tr : nullptr, s.handle()};
    monitor.run(src);
    emit_monitor_probe(src, sink, monitor.queue().high_water(), r);
  }

  // ---- fleet: in memory, then with a state directory -----------------------
  {
    const scoped_span s{tr, "fleet.in_memory", 0};
    fleet::fleet_options fo;
    fo.shards = 1;
    fo.scan = scan;
    fo.checkpoint_every = 0;
    store::incident_store st;
    fleet::shard_coordinator fleet{world.creations, world.labels,
                                   world.weth_token, *reader, st, fo};
    t0 = clock_type::now();
    fleet.run();
    r.metric("fleet.in_memory_ns_per_block", seconds_since(t0) * 1e9 / nblocks,
             "ns");
    r.check(dump_store(st) == in.incidents,
            "ledger: in-memory fleet store differs from the reference scan");
  }
  {
    const scoped_span s{tr, "fleet.state", 0};
    const std::string state = in.work_dir + "/ledger-state";
    std::filesystem::remove_all(state);
    fleet::fleet_options fo;
    fo.shards = 1;
    fo.scan = scan;
    fo.checkpoint_every = kBackfillCheckpointEvery;
    fo.state_dir = state;
    store::incident_store st;
    fleet::shard_coordinator fleet{world.creations, world.labels,
                                   world.weth_token, *reader, st, fo};
    fleet.run();
    r.metric("fleet.state_bytes_written", static_cast<double>(dir_bytes(state)),
             "bytes");
    r.metric("service.checkpoints_written",
             static_cast<double>(
                 fleet.merged_counters()["monitor_checkpoints_written"]),
             "count");
    std::filesystem::remove_all(state);
  }
  reader.reset();

  // ---- store: WAL-backed inserts, then queries over the mix ----------------
  {
    const scoped_span s{tr, "store.insert_wal", 0};
    constexpr std::size_t kMaxInserts = 4000;
    const std::string wal_dir = in.work_dir + "/ledger-wal";
    std::filesystem::remove_all(wal_dir);
    store::incident_store st;
    store::wal_options wo;
    wo.dir = wal_dir;
    store::wal_writer wal{wo};
    st.attach_wal(&wal);
    const std::size_t n = std::min(kMaxInserts, in.incidents.size());
    t0 = clock_type::now();
    for (std::size_t i = 0; i < n; ++i) st.insert(in.incidents[i]);
    const double secs = seconds_since(t0);
    const double dn = static_cast<double>(std::max<std::size_t>(1, n));
    r.metric("store.insert_us", us(secs) / dn, "us");
    r.metric("store.wal_fsyncs_per_insert",
             static_cast<double>(wal.fsyncs()) / dn, "count");
    st.attach_wal(nullptr);
    r.metric("store.wal_bytes_per_insert",
             static_cast<double>(dir_bytes(wal_dir)) / dn, "bytes");
    std::filesystem::remove_all(wal_dir);
  }
  store::incident_store st;
  st.insert_batch(in.incidents);
  const std::vector<filter_spec> filters = make_filters(in.incidents, in.seed, 8);
  {
    const scoped_span s{tr, "store.query", 0};
    constexpr int kReps = 20;
    t0 = clock_type::now();
    std::uint64_t sink = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const filter_spec& f : filters) {
        sink += st.query(f.filter, std::nullopt, 50).items.size();
      }
    }
    r.metric("store.query_us",
             us(seconds_since(t0)) / (kReps * static_cast<double>(filters.size())),
             "us");
    r.detail["ledger.query_items"] = static_cast<double>(sink);
  }

  // ---- api: parse and route in process, no socket --------------------------
  std::vector<std::string> targets;
  for (const filter_spec& f : filters) {
    targets.push_back("/incidents?" + f.query + (f.query.empty() ? "" : "&") +
                      "limit=50");
  }
  targets.push_back("/stats");
  for (std::uint64_t id = 1; id <= std::min<std::uint64_t>(8, in.incidents.size());
       ++id) {
    targets.push_back("/incidents/" + std::to_string(id));
  }
  {
    const scoped_span s{tr, "api.parse", 0};
    std::vector<std::string> heads;
    for (const std::string& t : targets) {
      heads.push_back("GET " + t +
                      " HTTP/1.1\r\nHost: lsbench\r\nx-api-key: k1");
    }
    constexpr int kReps = 200;
    api::parse_limits limits;
    api::http_request req;
    std::uint64_t ok = 0;
    t0 = clock_type::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const std::string& h : heads) {
        req = api::http_request{};
        ok += api::parse_request_head(h, limits, req) == api::parse_result::ok;
      }
    }
    r.metric("api.parse_us",
             us(seconds_since(t0)) / (kReps * static_cast<double>(heads.size())),
             "us");
    r.check(ok == kReps * heads.size(), "ledger: a mix request failed to parse");
  }
  {
    const scoped_span s{tr, "api.handle", 0};
    service::metrics_registry metrics;
    api::server_config cfg;
    cfg.rate.enabled = false;
    api::http_server server{st, metrics, cfg};
    std::vector<api::http_request> reqs(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      api::parse_request_head("GET " + targets[i] + " HTTP/1.1\r\nHost: b",
                              api::parse_limits{}, reqs[i]);
    }
    std::uint64_t ok = 0;
    t0 = clock_type::now();
    for (const api::http_request& req : reqs) {
      ok += server.handle(req, "ledger").status == 200;
    }
    r.metric("api.handle_us",
             us(seconds_since(t0)) / static_cast<double>(reqs.size()), "us");
    r.check(ok == reqs.size(), "ledger: a mix request was not answered 200");
  }
  if (!in.has_server_probe) {
    const scoped_span s{tr, "api.serve_probe", 0};
    service::metrics_registry metrics;
    api::server_config cfg;
    cfg.endpoint.host = "127.0.0.1";
    cfg.endpoint.port = 0;
    cfg.rate.enabled = false;
    api::http_server server{st, metrics, cfg};
    server.start();
    {
      http_client client{server.port(), ""};
      std::string body;
      for (int rep = 0; rep < 3; ++rep) {
        for (const std::string& t : targets) {
          r.check(client.get(t, body) == 200,
                  "ledger: probe request " + t + " failed");
        }
      }
    }
    server.stop();
    const double hits =
        static_cast<double>(metrics.counter_value("api_cache_hits_total"));
    const double misses =
        static_cast<double>(metrics.counter_value("api_cache_misses_total"));
    r.metric("api.cache_hit_ratio", hits / std::max(1.0, hits + misses),
             "ratio");
    r.metric("api.cache_hits", hits, "count");
    r.metric("api.cache_misses", misses, "count");
    r.metric("api.server_p50_us",
             us(metrics.get_histogram("api_request_seconds").quantile(0.5)),
             "us");
  }
}

}  // namespace lsbench
