/// serve_hot and serve_live: HTTP over loopback to an in-process
/// net::HttpServer with the JSON API routes, one QueryService per
/// schema behind it, driven by keep-alive connections in a closed loop
/// (each sends its next request when the previous answer is in): two for
/// serve_hot, one for serve_live.
///
/// serve_hot repeats 32 warmed bodies, so every timed request is an
/// answer-cache hit and the work is in net (parse, poll loop, JSON
/// bodies) and service (fingerprint, cache probe). serve_live mixes in
/// ingests that fence cached answers and always-new threshold queries,
/// so o-sharing re-evaluation, the operator store and the columnar
/// scans do the work.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/workload.h"
#include "net/api.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

using urm::core::RequestKind;

/// serve_hot's two connections interleave freely: every request is a
/// hit, so the interleaving changes waits, not work. serve_live uses
/// one, so its server sees the same sequence in every run: with two, the
/// interleaving decided which requests found fenced answers and which
/// operators the store had evicted, and so how much was re-evaluated.
constexpr int kHotConnections = 2;
constexpr int kLiveConnections = 1;
constexpr size_t kTopK = 5;
constexpr double kHotThreshold = 0.1;
constexpr double kEps = 1e-9;
/// Requests per --seconds (all connections together).
constexpr int kHotRequestsPerSecond = 750;
constexpr int kLiveRequestsPerSecond = 36;
/// serve_live: every 40th request is an ingest, and requests 10 and 30 of
/// every 40 are threshold queries with a fresh value.
constexpr int kLiveCycle = 40;
/// Traced serve_hot replays each body this many times in-process.
constexpr int kReplayRepeats = 40;
/// serve_hot: ingest batches per burst, sent on the idle stack after each
/// round's timed slice, alternating an insert and a delete of the same
/// eight lineitem rows (about 3 ms each).
constexpr int kIngestsPerBurst = 200;
/// Each timed phase runs in this many sub-slices, with this many
/// host-speed samples between two (serve_live's sub-slices are whole
/// 40-request cycles).
constexpr int kHotSubSlices = 10;
constexpr int kLiveSubSlices = 10;
constexpr int kSamplesBetweenSlices = 3;
/// Host-speed samples right after each set-up.
constexpr int kSamplesAfterSetup = 4;

struct Body {
  std::string label;  ///< "Q4 evaluate"
  size_t query = 0;  ///< index into the paper workload (left operand)
  RequestKind kind = RequestKind::kEvaluate;
  std::string json;
  std::string http;  ///< the complete POST /v1/query request
};

std::vector<Body> HotBodies(bool with_setops) {
  const std::vector<urm::core::WorkloadQuery> workload =
      urm::core::PaperWorkload();
  std::vector<Body> bodies;
  auto add = [&bodies, &workload](size_t q, RequestKind kind,
                                  const std::string& label,
                                  const std::string& json) {
    Body body;
    body.label = workload[q].id + " " + label;
    body.query = q;
    body.kind = kind;
    body.json = json;
    body.http = PostBytes("/v1/query", json);
    bodies.push_back(std::move(body));
  };
  for (size_t q = 0; q < workload.size(); ++q) {
    const std::string head = "{\"version\":1,\"query\":\"" + workload[q].id;
    add(q, RequestKind::kEvaluate, "evaluate",
        head + "\",\"kind\":\"evaluate\",\"method\":\"o-sharing\"}");
    add(q, RequestKind::kTopK, "topk",
        head + "\",\"kind\":\"topk\",\"k\":" + std::to_string(kTopK) + "}");
    add(q, RequestKind::kThreshold, "threshold",
        head + "\",\"kind\":\"threshold\",\"threshold\":0.1}");
  }
  if (with_setops) {
    for (const auto& [left, right] :
         std::vector<std::pair<size_t, size_t>>{{2, 3}, {8, 9}}) {
      add(left, RequestKind::kSetOp, "union " + workload[right].id,
          "{\"version\":1,\"query\":\"" + workload[left].id +
              "\",\"kind\":\"setop\",\"right\":\"" + workload[right].id +
              "\",\"set_op\":\"union\"}");
    }
  }
  return bodies;
}

enum class OpType { kHot, kFresh, kIngest };

struct Op {
  OpType type = OpType::kHot;
  int body = 0;           ///< kHot: body index; kFresh: query index
  double threshold = 0.0; ///< kFresh
  bool insert = false;    ///< kIngest
  std::string http;       ///< kFresh / kIngest request bytes
};

/// What the client keeps per request: timestamps, status, and the few
/// response fields the checks and the trace need.
struct Record {
  int64_t t_send = 0;
  int64_t t_recv = 0;
  int status = 0;
  double row_count = std::numeric_limits<double>::quiet_NaN();
  bool cache_hit = false;
  double engine_s = 0.0;  ///< total_seconds / seconds the response reports
  size_t bytes = 0;
  std::string receipt;    ///< ingest responses only (small)
};

uint64_t ConnectionSeed(uint64_t seed, int connection) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(connection) + 1;
}

/// Deals 0..n-1 from seeded, reshuffled decks, so every card comes up
/// equally often per deck: the seed changes the order of the mix, not
/// its composition (and so not its cost).
class Deck {
 public:
  Deck(size_t n, urm::Rng* rng) : cards_(n), pos_(n), rng_(rng) {
    for (size_t i = 0; i < n; ++i) cards_[i] = i;
  }

  size_t Next() {
    if (pos_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i) {  // Fisher-Yates
        std::swap(cards_[i - 1],
                  cards_[static_cast<size_t>(rng_->Uniform(
                      0, static_cast<int64_t>(i) - 1))]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  std::vector<size_t> cards_;
  size_t pos_;
  urm::Rng* rng_;
};

/// Fresh thresholds per query are spread over this many equal strata of
/// [0.05, 0.95].
constexpr size_t kThresholdStrata = 4;

/// The seeded request sequence of each connection and its digest.
std::vector<std::vector<Op>> MakePlan(bool live, uint64_t seed, int total,
                                      const std::vector<Body>& bodies,
                                      std::vector<std::string>* digests) {
  const std::vector<urm::core::WorkloadQuery> workload =
      urm::core::PaperWorkload();
  const std::vector<urm::relational::Row> rows = IngestRows(seed);
  const std::string insert_http =
      PostBytes("/v1/ingest", IngestBody(rows, true));
  const std::string delete_http =
      PostBytes("/v1/ingest", IngestBody(rows, false));
  const int connections = live ? kLiveConnections : kHotConnections;
  std::vector<std::vector<Op>> plan(connections);
  std::set<std::string> thresholds;
  int ingests = 0;
  for (int c = 0; c < connections; ++c) {
    urm::Rng rng(ConnectionSeed(seed, c));
    Deck hot(bodies.size(), &rng);
    Deck fresh(workload.size() * kThresholdStrata, &rng);
    const int n = total / connections;
    uint64_t digest = Fnv1a("");
    for (int i = 0; i < n; ++i) {
      Op op;
      if (live && c == 0 && i % kLiveCycle == 0) {
        op.type = OpType::kIngest;
        op.insert = ingests++ % 2 == 0;
        op.http = op.insert ? insert_http : delete_http;
      } else if (live && i % (kLiveCycle / 2) == kLiveCycle / 4) {
        op.type = OpType::kFresh;
        const size_t card = fresh.Next();
        op.body = static_cast<int>(card / kThresholdStrata);
        const double stratum = static_cast<double>(card % kThresholdStrata);
        std::string value;
        do {  // a value never sent before: always a new fingerprint
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.9f",
                        0.05 + 0.9 * (stratum + rng.NextDouble()) /
                                   kThresholdStrata);
          value = buf;
        } while (!thresholds.insert(value).second);
        op.threshold = std::strtod(value.c_str(), nullptr);
        op.http = PostBytes(
            "/v1/query", "{\"version\":1,\"query\":\"" +
                             workload[op.body].id +
                             "\",\"kind\":\"threshold\",\"threshold\":" +
                             value + "}");
      } else {
        op.body = static_cast<int>(hot.Next());
      }
      digest = Fnv1a(op.type == OpType::kHot ? bodies[op.body].http : op.http,
                     digest);
      plan[c].push_back(std::move(op));
    }
    digests->push_back(Hex64(digest));
  }
  return plan;
}

size_t RowCount(const urm::core::Response& response) {
  switch (response.kind) {
    case RequestKind::kEvaluate:
    case RequestKind::kSetOp:
      return response.evaluate.answers.tuples().size();
    case RequestKind::kTopK:
      return response.top_k.tuples.size();
    case RequestKind::kThreshold:
      return response.threshold.tuples.size();
  }
  return 0;
}

/// Exact answer probabilities of one query in one catalog state, sorted
/// descending; the reference for every row count derived from it.
struct AnswerProbs {
  std::vector<double> probs;

  explicit AnswerProbs(const urm::reformulation::AnswerSet& answers) {
    for (const auto& tuple : answers.tuples()) probs.push_back(tuple.probability);
    std::sort(probs.rbegin(), probs.rend());
  }
  size_t AtLeast(double t) const {
    return static_cast<size_t>(
        std::count_if(probs.begin(), probs.end(),
                      [t](double p) { return p >= t; }));
  }
  /// Whether a threshold query may return `n` rows (probabilities
  /// within kEps of `t` may fall on either side).
  bool ThresholdCountOk(double t, double n) const {
    return n >= AtLeast(t + kEps) && n <= AtLeast(t - kEps);
  }
  bool CountOk(RequestKind kind, double t, double n) const {
    switch (kind) {
      case RequestKind::kEvaluate:
        return n == probs.size();
      case RequestKind::kTopK:
        return n == std::min(kTopK, probs.size());
      case RequestKind::kThreshold:
        return ThresholdCountOk(t, n);
      case RequestKind::kSetOp:
        return false;
    }
    return false;
  }
};

/// Start and finish signals between the main thread and the
/// connections of one closed loop.
struct LoopSync {
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;     ///< connections connected
  int released = 0;  ///< sub-slices started
  int finished = 0;  ///< (connection, sub-slice) pairs done
};

/// The ops of sub-slice `k` of `slices` in a connection's sequence.
std::pair<size_t, size_t> SliceRange(size_t ops, int slices, int k) {
  const size_t per = ops / static_cast<size_t>(slices);
  return {k * per, k + 1 == slices ? ops : (k + 1) * per};
}

void RunConnection(uint16_t port, const std::vector<Op>& ops, int slices,
                   const std::vector<Body>& bodies,
                   std::vector<Record>* records, LoopSync* sync) {
  HttpClient client(port);
  records->reserve(ops.size());
  {
    std::lock_guard<std::mutex> lock(sync->mu);
    ++sync->ready;
  }
  sync->cv.notify_all();
  std::string body;
  for (int k = 0; k < slices; ++k) {
    {
      std::unique_lock<std::mutex> lock(sync->mu);
      sync->cv.wait(lock, [sync, k] { return sync->released > k; });
    }
    const auto [begin, end] = SliceRange(ops.size(), slices, k);
    for (size_t i = begin; i < end; ++i) {
      const Op& op = ops[i];
      const std::string& bytes =
          op.type == OpType::kHot ? bodies[op.body].http : op.http;
      Record r;
      r.t_send = NowNs();
      r.status = client.RoundTrip(bytes, &body);
      r.t_recv = NowNs();
      r.bytes = body.size();
      if (op.type == OpType::kIngest) {
        r.receipt = body;
      } else {
        r.row_count = FindNumberField(body, "row_count");
        r.cache_hit = FindTrueField(body, "cache_hit");
        r.engine_s = FindNumberField(body, "total_seconds");
        if (std::isnan(r.engine_s)) {
          r.engine_s = FindNumberField(body, "seconds");
        }
      }
      records->push_back(std::move(r));
    }
    {
      std::lock_guard<std::mutex> lock(sync->mu);
      ++sync->finished;
    }
    sync->cv.notify_all();
  }
}

/// Runs the plan's connections as one closed loop over keep-alive
/// connections, in `slices` sub-slices: after each, every connection
/// waits while this thread samples the host's speed on the idle stack,
/// then the next starts. Returns the sub-slices' windows and CPU.
std::vector<Interval> RunClosedLoop(uint16_t port,
                                    const std::vector<std::vector<Op>>& plan,
                                    int slices,
                                    const std::vector<Body>& bodies,
                                    HostSpeed* speed,
                                    std::vector<std::vector<Record>>* records) {
  records->assign(plan.size(), {});
  LoopSync sync;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plan.size(); ++c) {
    threads.emplace_back(RunConnection, port, std::cref(plan[c]), slices,
                         std::cref(bodies), &(*records)[c], &sync);
  }
  const int connections = static_cast<int>(plan.size());
  {
    std::unique_lock<std::mutex> lock(sync.mu);
    sync.cv.wait(lock, [&] { return sync.ready == connections; });
  }
  std::vector<Interval> windows;
  for (int k = 0; k < slices; ++k) {
    speed->Sample(kSamplesBetweenSlices);
    Interval window;
    window.cpu_s = ProcessCpuSeconds();
    window.t0 = NowNs();
    {
      std::unique_lock<std::mutex> lock(sync.mu);
      sync.released = k + 1;
      sync.cv.notify_all();
      sync.cv.wait(lock,
                   [&] { return sync.finished == (k + 1) * connections; });
    }
    window.t1 = NowNs();
    window.cpu_s = ProcessCpuSeconds() - window.cpu_s;
    windows.push_back(window);
  }
  speed->Sample(kSamplesBetweenSlices);
  for (std::thread& t : threads) t.join();
  return windows;
}

/// serve_live only: confines this thread, and every thread it starts
/// from now on (the services' pools, the server's loop, the client), to
/// the last hardware thread it may run on. With one connection the
/// server does one thing at a time, so this takes no parallelism away;
/// it takes away the cross-CPU wake-ups of each round trip (client ->
/// loop thread -> client), whose cost on this shared VM doubled for tens
/// of minutes at a time and moved the p50 of the cache hits with it.
/// Returns the CPU, or -1 when the affinity could not be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// Parsed ingest receipt: rows inserted / deleted and encode seconds.
struct Receipt {
  bool ok = false;
  int64_t inserted = -1;
  int64_t deleted = -1;
  double encode_s = 0.0;
};

Receipt ParseReceipt(const Record& r) {
  Receipt out;
  if (r.status != 200) return out;
  auto parsed = urm::json::Parse(r.receipt);
  if (!parsed.ok()) return out;
  const urm::json::Value& root = parsed.ValueOrDie();
  const urm::json::Value* rows = root.Find("rows");
  const urm::json::Value* encode = root.Find("encode_seconds");
  if (rows == nullptr || encode == nullptr) return out;
  const urm::json::Value* ins = rows->Find("inserted");
  const urm::json::Value* del = rows->Find("deleted");
  if (ins == nullptr || del == nullptr || !ins->is_number() ||
      !del->is_number() || !encode->is_number()) {
    return out;
  }
  out.ok = true;
  out.inserted = ins->AsInt64();
  out.deleted = del->AsInt64();
  out.encode_s = encode->AsDouble();
  return out;
}

bool ReceiptOk(const Receipt& receipt, bool insert) {
  return receipt.ok && receipt.inserted == (insert ? 8 : 0) &&
         receipt.deleted == (insert ? 0 : 8);
}

/// One traced request: a root span over the client round trip, the
/// hub-callback boundary as its first child, then the time the program
/// reports for the request's work (engine time of a miss, re-encode
/// time of an ingest).
struct TracedRecord {
  const Record* record = nullptr;
  bool ingest = false;
  int64_t req = 0;
  double work_s = 0.0;  ///< engine / encode seconds to lay out (0 = none)
  int64_t hub_t = -1;
};

/// Matches each hub callback to the request it served: the earliest-sent
/// request of the same type that was in flight at that moment (the loop
/// thread handles one request at a time, in arrival order).
void AttributeHubEvents(std::vector<TracedRecord>* traced,
                        std::vector<HubEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const HubEvent& a, const HubEvent& b) { return a.t < b.t; });
  for (bool ingest : {false, true}) {
    std::vector<TracedRecord*> recs;
    for (TracedRecord& t : *traced) {
      if (t.ingest == ingest) recs.push_back(&t);
    }
    std::sort(recs.begin(), recs.end(),
              [](const TracedRecord* a, const TracedRecord* b) {
                return a->record->t_send < b->record->t_send;
              });
    size_t start = 0;
    for (const HubEvent& e : events) {
      if (e.ingest != ingest) continue;
      while (start < recs.size() &&
             (recs[start]->hub_t >= 0 || recs[start]->record->t_recv < e.t)) {
        ++start;
      }
      for (size_t j = start;
           j < recs.size() && recs[j]->record->t_send <= e.t; ++j) {
        if (recs[j]->hub_t < 0 && recs[j]->record->t_recv >= e.t) {
          recs[j]->hub_t = e.t;
          break;
        }
      }
    }
  }
}

void TraceRecords(Tracer* tracer, std::vector<TracedRecord>* traced,
                  std::vector<HubEvent> events) {
  AttributeHubEvents(traced, std::move(events));
  for (const TracedRecord& t : *traced) {
    const Record& r = *t.record;
    int64_t root = tracer->Add(
        t.ingest ? "http.ingest" : "http.query", t.req, -1, r.t_send,
        r.t_recv,
        {{"hit", r.cache_hit ? 1.0 : 0.0},
         {"bytes", static_cast<double>(r.bytes)}});
    if (t.hub_t < 0) continue;
    tracer->Add(t.ingest ? "live.route" : "net.route", t.req, root, r.t_send,
                t.hub_t);
    if (t.work_s > 0.0) {
      tracer->AddSequentialChildren(
          root, t.req, t.hub_t, r.t_recv,
          {{t.ingest ? "columnar.encode" : "core.eval", t.work_s}});
    }
  }
}

/// Adds the counter deltas of one measured window to `total`.
void Accumulate(ServingCounters* total, const ServingCounters& before,
                const ServingCounters& after) {
  total->cache.hits += after.cache.hits - before.cache.hits;
  total->cache.misses += after.cache.misses - before.cache.misses;
  total->cache.evictions += after.cache.evictions - before.cache.evictions;
  total->cache.bytes = after.cache.bytes;  // snapshot, not a delta
  total->store.hits += after.store.hits - before.store.hits;
  total->store.misses += after.store.misses - before.store.misses;
  total->store.evictions += after.store.evictions - before.store.evictions;
  total->store.bytes = after.store.bytes;  // snapshot, not a delta
  total->pool_tasks += after.pool_tasks - before.pool_tasks;
  total->scans.bytes_scanned +=
      after.scans.bytes_scanned - before.scans.bytes_scanned;
  total->scans.logical_bytes_scanned +=
      after.scans.logical_bytes_scanned - before.scans.logical_bytes_scanned;
  total->scans.columnar_scans +=
      after.scans.columnar_scans - before.scans.columnar_scans;
  total->scans.row_scans += after.scans.row_scans - before.scans.row_scans;
  total->ingest.batches += after.ingest.batches - before.ingest.batches;
  total->ingest.rows_inserted +=
      after.ingest.rows_inserted - before.ingest.rows_inserted;
  total->ingest.rows_deleted +=
      after.ingest.rows_deleted - before.ingest.rows_deleted;
  total->ingest.fenced_answers +=
      after.ingest.fenced_answers - before.ingest.fenced_answers;
  total->ingest.fenced_operators +=
      after.ingest.fenced_operators - before.ingest.fenced_operators;
}

/// Writes the serving tier's counters over the timed phase (`timed`) and
/// the ingest counters over every ingest window (`ingest`).
void WriteCounters(Tracer* tracer, const ServingCounters& timed,
                   const ServingCounters& ingest) {
  auto n = [](auto v) { return static_cast<double>(v); };
  const double lookups = n(timed.cache.hits + timed.cache.misses);
  tracer->Counter("service.lookups", lookups);
  tracer->Counter("service.hit_rate",
                  lookups > 0 ? n(timed.cache.hits) / lookups : 0.0);
  tracer->Counter("service.misses", n(timed.cache.misses));
  tracer->Counter("service.cache_evictions", n(timed.cache.evictions));
  tracer->Counter("service.cache_bytes", n(timed.cache.bytes));
  tracer->Counter("service.fenced_answers", n(timed.ingest.fenced_answers));
  tracer->Counter("service.pool_tasks", n(timed.pool_tasks));
  tracer->Counter("osharing.store_hits", n(timed.store.hits));
  tracer->Counter("osharing.store_misses", n(timed.store.misses));
  tracer->Counter("osharing.store_evictions", n(timed.store.evictions));
  tracer->Counter("osharing.store_bytes", n(timed.store.bytes));
  tracer->Counter("osharing.fenced_operators",
                  n(timed.ingest.fenced_operators));
  tracer->Counter("columnar.scans", n(timed.scans.columnar_scans));
  tracer->Counter("relational.row_scans", n(timed.scans.row_scans));
  tracer->Counter("columnar.bytes_scanned", n(timed.scans.bytes_scanned));
  tracer->Counter("columnar.logical_bytes_scanned",
                  n(timed.scans.logical_bytes_scanned));
  tracer->Counter("live.batches", n(ingest.ingest.batches));
  tracer->Counter("live.rows_inserted", n(ingest.ingest.rows_inserted));
  tracer->Counter("live.rows_deleted", n(ingest.ingest.rows_deleted));
}

/// serve_hot only: every body replayed in-process through the handler's
/// own composition — ParseQueryBody, QueryService::Submit (a warmed
/// hit), AppendResponseJson + Serialize — under one span each.
void TraceReplay(Tracer* tracer, BenchHub* hub,
                 const std::vector<Body>& bodies, RunResult* result) {
  int64_t req = 20000000;
  for (int rep = 0; rep < kReplayRepeats; ++rep) {
    for (const Body& body : bodies) {
      const int64_t t0 = NowNs();
      urm::net::api::ParsedQuery parsed;
      urm::net::api::ApiError error;
      const bool parsed_ok =
          urm::net::api::ParseQueryBody(body.json, &parsed, &error);
      const int64_t t1 = NowNs();
      if (!parsed_ok) {
        result->Check(false, body.label + " replay parse: " + error.message);
        return;
      }
      urm::service::QueryResponse response =
          hub->service(SchemaIndex(parsed.schema))->Submit(parsed.request);
      const int64_t t2 = NowNs();
      if (!response.status.ok()) {
        result->Check(false, body.label + " replay submit: " +
                                 response.status.ToString());
        return;
      }
      urm::json::Value root = urm::json::Value::Object();
      root.Set("query", urm::json::Value::Str(parsed.query_id));
      urm::net::api::AppendResponseJson(response, &root);
      const std::string out = root.Serialize();
      const int64_t t3 = NowNs();
      int64_t id = tracer->Add("replay", req, -1, t0, t3,
                               {{"bytes", static_cast<double>(out.size())},
                                {"hit", response.cache_hit ? 1.0 : 0.0}});
      tracer->Add("net.parse", req, id, t0, t1);
      tracer->Add("service.submit", req, id, t1, t2);
      tracer->Add("net.serialize", req, id, t2, t3);
      ++req;
    }
  }
}

/// One serve_hot ingest burst over a fresh connection: sends, records
/// and checks kIngestsPerBurst batches.
void IngestBurst(uint16_t port, uint64_t seed, std::vector<Record>* records,
                 RunResult* result) {
  const std::vector<urm::relational::Row> rows = IngestRows(seed);
  const std::string insert_http =
      PostBytes("/v1/ingest", IngestBody(rows, true));
  const std::string delete_http =
      PostBytes("/v1/ingest", IngestBody(rows, false));
  HttpClient client(port);
  for (int j = 0; j < kIngestsPerBurst; ++j) {
    Record r;
    r.t_send = NowNs();
    r.status = client.RoundTrip(j % 2 == 0 ? insert_http : delete_http,
                                &r.receipt);
    r.t_recv = NowNs();
    result->Check(ReceiptOk(ParseReceipt(r), j % 2 == 0),
                  "ingest burst " + std::to_string(j) + ": " + r.receipt);
    records->push_back(std::move(r));
  }
}

/// Everything set-up leaves behind for the timed phase and the checks.
struct Prepared {
  std::unique_ptr<ServingStack> stack;
  /// In-process reference row count per hot body.
  std::vector<size_t> reference;
  /// Per paper query: answer probabilities before / after the ingest
  /// rows are inserted (equal for the schemas no ingest touches).
  std::vector<AnswerProbs> state_a, state_b;
};

/// One set-up: three engines, (serve_live) the reference answers of the
/// post-insert catalog state, the serving stack, then the warm-up pass:
/// every distinct body submitted in-process (filling the answer cache
/// and recording the reference) and once over HTTP (full JSON check).
bool Prepare(bool live, const std::vector<Body>& bodies, uint64_t seed,
             Tracer* tracer, RunResult* result, Prepared* out) {
  auto built = BuildEngines(tracer);
  if (!built.ok()) {
    result->Check(false, "engine build: " + built.status().ToString());
    return false;
  }
  Engines engines = std::move(built).ValueOrDie();
  const std::vector<urm::core::WorkloadQuery> workload =
      urm::core::PaperWorkload();
  std::map<size_t, AnswerProbs> after_insert;
  if (live) {
    const std::vector<urm::relational::Row> rows = IngestRows(seed);
    auto inserted = engines[0]->ApplyDelta(IngestBatch(rows, true));
    for (size_t q = 0; q < workload.size() && inserted.ok(); ++q) {
      if (SchemaIndex(workload[q].schema) != 0) continue;
      auto run = engines[0]->Run(urm::core::Request::MethodEval(
          workload[q].query, urm::core::Method::kOSharing));
      if (!run.ok()) {
        result->Check(false, workload[q].id + " reference: " +
                                 run.status().ToString());
        return false;
      }
      after_insert.emplace(q, AnswerProbs(run.ValueOrDie().evaluate.answers));
    }
    auto deleted = engines[0]->ApplyDelta(IngestBatch(rows, false));
    if (!inserted.ok() || !deleted.ok() ||
        inserted.ValueOrDie().rows_inserted != 8 ||
        deleted.ValueOrDie().rows_deleted != 8) {
      result->Check(false, "reference ingest cycle failed");
      return false;
    }
  }

  auto started = StartServing(std::move(engines));
  if (!started.ok()) {
    result->Check(false, "server start: " + started.status().ToString());
    return false;
  }
  out->stack = std::move(started).ValueOrDie();
  BenchHub* hub = out->stack->hub.get();

  const int64_t w0 = NowNs();
  out->reference.clear();
  out->state_a.clear();
  out->state_b.clear();
  std::vector<std::shared_ptr<const urm::core::Response>> responses;
  for (const Body& body : bodies) {
    urm::net::api::ParsedQuery parsed;
    urm::net::api::ApiError error;
    if (!urm::net::api::ParseQueryBody(body.json, &parsed, &error)) {
      result->Check(false, body.label + " parse: " + error.message);
      return false;
    }
    urm::service::QueryResponse response =
        hub->service(SchemaIndex(parsed.schema))->Submit(parsed.request);
    if (!response.status.ok()) {
      result->Check(false, body.label + " warm-up: " +
                               response.status.ToString());
      return false;
    }
    out->reference.push_back(RowCount(*response.response));
    responses.push_back(response.response);
  }
  // Bodies come in (evaluate, topk, threshold) triples per query; the
  // evaluate answers are the reference for the other two.
  for (size_t q = 0; q < workload.size(); ++q) {
    out->state_a.emplace_back(responses[3 * q]->evaluate.answers);
    auto it = after_insert.find(q);
    out->state_b.push_back(it != after_insert.end() ? it->second
                                                    : out->state_a.back());
    const AnswerProbs& a = out->state_a.back();
    result->Check(a.CountOk(RequestKind::kTopK, 0.0,
                            static_cast<double>(out->reference[3 * q + 1])) &&
                      a.CountOk(RequestKind::kThreshold, kHotThreshold,
                                static_cast<double>(out->reference[3 * q + 2])),
                  workload[q].id + " warm-up: top-k / threshold counts "
                                   "disagree with the evaluate answers");
  }
  HttpClient client(out->stack->server->port());
  std::string reply;
  for (size_t b = 0; b < bodies.size(); ++b) {
    int status = client.RoundTrip(bodies[b].http, &reply);
    auto parsed = urm::json::Parse(reply);
    const urm::json::Value* res =
        parsed.ok() ? parsed.ValueOrDie().Find("result") : nullptr;
    const urm::json::Value* rows =
        res != nullptr ? res->Find("row_count") : nullptr;
    result->Check(status == 200 && rows != nullptr && rows->is_number() &&
                      rows->AsInt64() ==
                          static_cast<int64_t>(out->reference[b]) &&
                      FindNumberField(reply, "row_count") ==
                          static_cast<double>(out->reference[b]),
                  bodies[b].label + " warm-up over HTTP: status " +
                      std::to_string(status));
  }
  tracer->Add("setup.warmup", -1, -1, w0, NowNs());
  return true;
}

/// Checks one timed segment's records against the set-up's references
/// and lists every record (for its latency and the trace) in `traced`.
/// Returns the completed operations.
int64_t CheckSegment(bool live, const std::vector<std::vector<Op>>& plan,
                     const std::vector<std::vector<Record>>& records,
                     const std::vector<Body>& bodies,
                     const Prepared& prepared, int64_t req_base,
                     RunResult* result, std::vector<TracedRecord>* traced) {
  int64_t completed = 0;
  for (size_t c = 0; c < plan.size(); ++c) {
    for (size_t i = 0; i < plan[c].size(); ++i) {
      const Op& op = plan[c][i];
      if (i >= records[c].size()) {
        result->Check(false, "connection " + std::to_string(c) + " stopped");
        continue;
      }
      const Record& r = records[c][i];
      if (r.status != 0) ++completed;
      TracedRecord t{&r, op.type == OpType::kIngest,
                     req_base + static_cast<int64_t>(c * 10000000 + i)};
      if (op.type == OpType::kIngest) {
        Receipt receipt = ParseReceipt(r);
        t.work_s = receipt.encode_s;
        result->Check(ReceiptOk(receipt, op.insert),
                      "ingest " + std::to_string(i) + ": status " +
                          std::to_string(r.status) + " " + r.receipt);
      } else {
        bool ok = r.status == 200;
        std::string what;
        if (op.type == OpType::kFresh) {
          what = "fresh threshold " + std::to_string(op.threshold) + " on Q" +
                 std::to_string(op.body + 1);
          ok = ok && (prepared.state_a[op.body].ThresholdCountOk(
                          op.threshold, r.row_count) ||
                      prepared.state_b[op.body].ThresholdCountOk(
                          op.threshold, r.row_count));
        } else {
          const Body& body = bodies[op.body];
          what = body.label;
          if (live) {
            ok = ok && (prepared.state_a[body.query].CountOk(
                            body.kind, kHotThreshold, r.row_count) ||
                        prepared.state_b[body.query].CountOk(
                            body.kind, kHotThreshold, r.row_count));
          } else {
            // Every timed serve_hot request must be a warmed hit.
            ok = ok && r.cache_hit &&
                 r.row_count ==
                     static_cast<double>(prepared.reference[op.body]);
          }
        }
        if (!r.cache_hit) t.work_s = r.engine_s;
        result->Check(ok, what + ": status " + std::to_string(r.status) +
                              ", row_count " + std::to_string(r.row_count));
      }
      traced->push_back(t);
    }
  }
  return completed;
}

/// Runs either serving workload. A run is kRounds rounds, each a fresh
/// set-up. serve_hot times one slice of its request sequence per round,
/// then sends an ingest burst, which spreads the measurement over the
/// whole run; serve_live times its whole sequence on the last round's
/// stack, whose operator store must fill and evict.
void RunServing(bool live, const RunOptions& options, Tracer* tracer,
                RunResult* result) {
  const std::vector<Body> bodies = HotBodies(/*with_setops=*/!live);
  const int per_second = live ? kLiveRequestsPerSecond : kHotRequestsPerSecond;
  // serve_hot: equal slices per round and connection. serve_live: whole
  // 40-request cycles in every sub-slice, and an even
  // number of ingests, so the catalog ends where it began.
  const int connections = live ? kLiveConnections : kHotConnections;
  const int unit = live ? kLiveConnections * kLiveCycle * kLiveSubSlices
                        : kHotConnections * kRounds * kHotSubSlices;
  int total =
      std::max(unit, (options.seconds * per_second + unit - 1) / unit * unit);
  if (live && (total / (kLiveConnections * kLiveCycle)) % 2 != 0) {
    total += unit;
  }
  std::vector<std::string> digests;
  const std::vector<std::vector<Op>> plan =
      MakePlan(live, options.seed, total, bodies, &digests);
  int queries = 0, ingests = 0;
  for (const auto& ops : plan) {
    for (const Op& op : ops) (op.type == OpType::kIngest ? ingests : queries)++;
  }
  result->meta.Set("queries", urm::json::Value::Int(queries));
  result->meta.Set("ingests",
                   urm::json::Value::Int(live ? ingests
                                              : kIngestsPerBurst * kRounds));
  result->meta.Set("connections", urm::json::Value::Int(connections));
  urm::json::Value digest_json = urm::json::Value::Array();
  for (const std::string& d : digests) {
    digest_json.Append(urm::json::Value::Str(d));
  }
  result->meta.Set("sequence_digests", std::move(digest_json));
  if (options.plan_only) return;

  const int segments = live ? 1 : kRounds;
  const int sub_slices = live ? kLiveSubSlices : kHotSubSlices;
  if (live) {
    result->meta.Set("pinned_cpu", urm::json::Value::Int(PinToOneCpu()));
  }
  HostSpeed speed;
  std::vector<std::vector<std::vector<Record>>> records(segments);
  std::vector<std::vector<std::vector<Op>>> slices(segments);
  std::vector<Record> bursts;
  bursts.reserve(static_cast<size_t>(kRounds) * kIngestsPerBurst);
  ServingCounters timed_counters, ingest_counters;
  // Per timed slice (serve_hot: one per round; serve_live: one) and per
  // ingest window; the reported value is the median over them, so a
  // slow spell of this host during one round does not move it. Every
  // time is also divided by the host's slowdown around it (HostSpeed):
  // a request's by its sub-slice's, a set-up's or a burst's by its own.
  Series rps, p50_ms, p99_ms, cpu_ms, ingest_p50_ms;
  std::vector<Interval> setups;
  std::vector<double> peak_rss_mb;
  double timed_s = 0.0;
  Prepared prepared;
  for (int round = 0; round < kRounds; ++round) {
    // Tearing down the previous round's stack is not part of the set-up.
    prepared = Prepared();
    ResetPeakRss();
    Interval setup;
    setup.t0 = round == 0 ? 0 : NowNs();
    if (!Prepare(live, bodies, options.seed, tracer, result, &prepared)) {
      return;
    }
    setup.t1 = NowNs();
    setups.push_back(setup);
    speed.Sample(kSamplesAfterSetup);
    BenchHub* hub = prepared.stack->hub.get();
    const uint16_t port = prepared.stack->server->port();
    std::vector<TracedRecord> traced;
    std::vector<HubEvent> events;
    Series query_ms, ingest_ms;

    const int segment = live ? round - (kRounds - 1) : round;
    if (segment >= 0) {
      for (const std::vector<Op>& ops : plan) {
        const size_t n = ops.size() / segments;
        slices[segment].emplace_back(ops.begin() + segment * n,
                                     ops.begin() + (segment + 1) * n);
      }
      const ServingCounters before = ReadCounters(hub);
      hub->set_recording(tracer->enabled());
      const std::vector<Interval> windows =
          RunClosedLoop(port, slices[segment], sub_slices, bodies, &speed,
                        &records[segment]);
      hub->set_recording(false);
      const ServingCounters after = ReadCounters(hub);
      Accumulate(&timed_counters, before, after);
      Accumulate(&ingest_counters, before, after);
      events = hub->TakeEvents();

      double wall = 0.0, norm_wall = 0.0, cpu = 0.0, norm_cpu = 0.0;
      std::vector<double> slowdowns;
      for (const Interval& w : windows) {
        slowdowns.push_back(speed.Factor(w.t0, w.t1));
        wall += w.Seconds();
        norm_wall += w.Seconds() / slowdowns.back();
        cpu += w.cpu_s;
        norm_cpu += w.cpu_s / slowdowns.back();
      }
      // The slowdown of the sub-slice a request was sent in.
      auto slowdown_at = [&windows, &slowdowns](int64_t t) {
        size_t k = 0;
        while (k + 1 < windows.size() && t >= windows[k + 1].t0) ++k;
        return slowdowns[k];
      };
      timed_s += wall;
      // Checks, outside the timed window.
      const int64_t completed = CheckSegment(
          live, slices[segment], records[segment], bodies, prepared,
          int64_t{100000000} * segment, result, &traced);
      for (const TracedRecord& t : traced) {
        const double ms = (t.record->t_recv - t.record->t_send) * 1e-6;
        (t.ingest ? ingest_ms : query_ms)
            .Add(ms, slowdown_at(t.record->t_send));
      }
      const double n = static_cast<double>(std::max<int64_t>(1, completed));
      rps.raw.push_back(n / wall);
      rps.norm.push_back(n / norm_wall);
      cpu_ms.Add(cpu * 1e3 / n, cpu / norm_cpu);
      const Corrected p50 = query_ms.Percentile(0.50);
      const Corrected p99 = query_ms.Percentile(0.99);
      p50_ms.raw.push_back(p50.raw);
      p50_ms.norm.push_back(p50.value);
      p99_ms.raw.push_back(p99.raw);
      p99_ms.norm.push_back(p99.value);
      if (tracer->enabled() && !live && round == kRounds - 1) {
        TraceReplay(tracer, hub, bodies, result);
      }
    }
    if (!live) {
      // Ingests on the idle stack; the fences they cause no longer matter.
      const ServingCounters before = ReadCounters(hub);
      hub->set_recording(tracer->enabled());
      const size_t first = bursts.size();
      speed.Sample(kSamplesBetweenSlices);
      const int64_t b0 = NowNs();
      IngestBurst(port, options.seed, &bursts, result);
      const int64_t b1 = NowNs();
      speed.Sample(kSamplesBetweenSlices);
      hub->set_recording(false);
      Accumulate(&ingest_counters, before, ReadCounters(hub));
      std::vector<HubEvent> burst_events = hub->TakeEvents();
      events.insert(events.end(), burst_events.begin(), burst_events.end());
      const double slowdown = speed.Factor(b0, b1);
      for (size_t j = first; j < bursts.size(); ++j) {
        ingest_ms.Add((bursts[j].t_recv - bursts[j].t_send) * 1e-6, slowdown);
        traced.push_back({&bursts[j], true,
                          static_cast<int64_t>(900000000 + j),
                          ParseReceipt(bursts[j]).encode_s});
      }
    }
    if (!ingest_ms.raw.empty()) {
      const Corrected p50 = ingest_ms.Percentile(0.50);
      ingest_p50_ms.raw.push_back(p50.raw);
      ingest_p50_ms.norm.push_back(p50.value);
    }
    peak_rss_mb.push_back(PeakRssMb());
    if (tracer->enabled()) TraceRecords(tracer, &traced, std::move(events));
  }
  if (tracer->enabled()) {
    WriteCounters(tracer, timed_counters, ingest_counters);
  }

  Series setup_s;
  for (const Interval& setup : setups) {
    setup_s.Add(setup.Seconds(), speed.Factor(setup.t0, setup.t1));
  }
  result->meta.Set("timed_s", urm::json::Value::Number(timed_s));
  result->meta.Set("host_speed", speed.SummaryJson());
  result->Metric("setup_s", setup_s.Median(), "s");
  result->Metric("throughput_rps", rps.Median(), "1/s");
  result->Metric("latency_p50_ms", p50_ms.Median(), "ms");
  result->Metric("latency_p99_ms", p99_ms.Median(), "ms");
  result->Metric("cpu_ms_per_request", cpu_ms.Median(), "ms");
  result->Metric("ingest_p50_ms", ingest_p50_ms.Median(), "ms");
  // Each round's peak covers its set-up and its timed slice; serve_live
  // times everything on the last round.
  result->Metric("peak_rss_mb",
                 live ? peak_rss_mb.back() : Median(peak_rss_mb), "MB");
}

}  // namespace

void RunServeHot(const RunOptions& options, Tracer* tracer,
                 RunResult* result) {
  RunServing(/*live=*/false, options, tracer, result);
}

void RunServeLive(const RunOptions& options, Tracer* tracer,
                  RunResult* result) {
  RunServing(/*live=*/true, options, tracer, result);
}

}  // namespace perfbench
