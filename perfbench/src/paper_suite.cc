/// paper_suite: the paper's own experiment (Table III queries under the
/// five methods, plus top-k and threshold), one in-process caller
/// issuing Engine::Run in a closed loop with no service tier. This is
/// the workload where reformulation, the baselines, q-sharing and
/// o-sharing do the work and net / service / live do none.

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "live/ingest.h"
#include "stack.h"
#include "workloads.h"

namespace perfbench {

namespace {

using urm::core::Method;

/// The seven request kinds of one query, in the order they are sent; the
/// names are the per-layer metric prefixes.
constexpr int kKinds = 7;
constexpr int kMethods = 5;
const char* const kKindNames[kKinds] = {"basic",     "e_basic",   "e_mqo",
                                        "q_sharing", "o_sharing", "topk",
                                        "threshold"};
const Method kMethodOrder[kMethods] = {Method::kBasic, Method::kEBasic,
                                       Method::kEMqo, Method::kQSharing,
                                       Method::kOSharing};
constexpr size_t kTopK = 5;
constexpr double kThreshold = 0.1;
constexpr double kEps = 1e-9;
/// One pass (70 requests) takes about this long on a 4-thread host.
constexpr int kSecondsPerPass = 13;
/// Host-speed samples right after each set-up; one more precedes every
/// request.
constexpr int kSamplesAfterSetup = 4;

struct PaperRequest {
  size_t query = 0;  ///< index into the paper workload
  int kind = 0;      ///< index into kKindNames
};

urm::core::Request MakeRequest(const urm::core::WorkloadQuery& q, int kind) {
  if (kind < kMethods) {
    return urm::core::Request::MethodEval(q.query, kMethodOrder[kind]);
  }
  if (kind == 5) return urm::core::Request::TopK(q.query, kTopK);
  return urm::core::Request::Threshold(q.query, kThreshold);
}

struct RowHash {
  size_t operator()(const urm::relational::Row& row) const {
    return urm::relational::HashRow(row);
  }
};
struct RowEq {
  bool operator()(const urm::relational::Row& a,
                  const urm::relational::Row& b) const {
    return urm::relational::RowsEqual(a, b);
  }
};
using ProbabilityIndex =
    std::unordered_map<urm::relational::Row, double, RowHash, RowEq>;

/// Exact probability of `values` in the indexed answers, or -1 when
/// absent.
double ProbabilityOf(const ProbabilityIndex& index,
                     const urm::relational::Row& values) {
  auto it = index.find(values);
  return it == index.end() ? -1.0 : it->second;
}

/// AnswerSet::ApproxEquals through a hash index of the reference: same
/// rows, same null mass, probabilities within kEps. (ApproxEquals sorts
/// both sides on every call, which costs seconds on Q7's 186k tuples.)
bool SameAnswers(const urm::reformulation::AnswerSet& reference,
                 const ProbabilityIndex& index,
                 const urm::reformulation::AnswerSet& other) {
  if (other.tuples().size() != reference.tuples().size() ||
      std::fabs(other.null_probability() - reference.null_probability()) >
          kEps) {
    return false;
  }
  for (const auto& tuple : other.tuples()) {
    double p = ProbabilityOf(index, tuple.values);
    if (p < 0.0 || std::fabs(p - tuple.probability) > kEps) return false;
  }
  return true;
}

/// Checks one query's seven responses: every method equals basic,
/// top-k returns the k most probable tuples with bounds that bracket
/// their exact probabilities, threshold returns exactly Pr >= 0.1.
/// Returns one error per request kind (empty = passed).
std::vector<std::string> CheckQuery(
    const std::vector<const urm::Result<urm::core::Response>*>& runs) {
  std::vector<std::string> errors(kKinds);
  for (int kind = 0; kind < kKinds; ++kind) {
    if (!runs[kind]->ok()) errors[kind] = runs[kind]->status().ToString();
  }
  if (!runs[0]->ok()) {
    for (int kind = 1; kind < kKinds; ++kind) {
      if (errors[kind].empty()) errors[kind] = "no basic reference";
    }
    return errors;
  }
  const urm::reformulation::AnswerSet& reference =
      runs[0]->ValueOrDie().evaluate.answers;
  if (reference.tuples().empty()) errors[0] = "empty answer";
  ProbabilityIndex index;
  for (const auto& tuple : reference.tuples()) {
    index.emplace(tuple.values, tuple.probability);
  }
  for (int kind = 1; kind < kMethods; ++kind) {
    if (runs[kind]->ok() &&
        !SameAnswers(reference, index,
                     runs[kind]->ValueOrDie().evaluate.answers)) {
      errors[kind] = "answers disagree with basic";
    }
  }
  if (runs[5]->ok()) {
    const auto& tuples = runs[5]->ValueOrDie().top_k.tuples;
    bool ok = tuples.size() == std::min(kTopK, reference.tuples().size());
    double lowest = 1.0;
    for (const auto& entry : tuples) {
      double p = ProbabilityOf(index, entry.values);
      ok = ok && p >= 0.0 && p >= entry.lower_bound - kEps &&
           p <= entry.upper_bound + kEps;
      lowest = std::min(lowest, p);
    }
    // No tuple left out may be more probable than one returned.
    ProbabilityIndex returned;
    for (const auto& entry : tuples) returned.emplace(entry.values, 0.0);
    for (const auto& tuple : reference.tuples()) {
      ok = ok && (returned.count(tuple.values) > 0 ||
                  tuple.probability <= lowest + kEps);
    }
    if (!ok) errors[5] = "not the top " + std::to_string(kTopK);
  }
  if (runs[6]->ok()) {
    const auto& tuples = runs[6]->ValueOrDie().threshold.tuples;
    bool ok = true;
    for (const auto& entry : tuples) {
      double p = ProbabilityOf(index, entry.values);
      ok = ok && p >= kThreshold - kEps && p >= entry.lower_bound - kEps &&
           p <= entry.upper_bound + kEps;
    }
    size_t expected = 0;
    for (const auto& tuple : reference.tuples()) {
      if (tuple.probability >= kThreshold + kEps) ++expected;
    }
    if (!ok || tuples.size() < expected) errors[6] = "not exactly Pr >= 0.1";
  }
  return errors;
}

std::map<std::string, double> StatsCounts(const urm::algebra::EvalStats& s) {
  return {{"tuples", static_cast<double>(s.tuples_produced)},
          {"operators", static_cast<double>(s.operators_executed)},
          {"scans", static_cast<double>(s.scans)},
          {"memo_hits", static_cast<double>(s.cache_hits)},
          {"memo_misses", static_cast<double>(s.cache_misses)},
          {"columnar_scans", static_cast<double>(s.columnar_scans)},
          {"row_scans", static_cast<double>(s.row_scans)},
          {"bytes_scanned", static_cast<double>(s.bytes_scanned)},
          {"logical_bytes_scanned",
           static_cast<double>(s.logical_bytes_scanned)}};
}

/// Root span per request (its wall time), with the program's own phase
/// accounting laid out as children and its counters attached.
void TraceRequest(Tracer* tracer, int64_t req, int kind, int64_t t0,
                  int64_t t1, const urm::core::Response& response) {
  const std::string name = kKindNames[kind];
  std::map<std::string, double> counts;
  std::vector<std::pair<std::string, double>> children;
  if (kind < kMethods) {
    const urm::baselines::MethodResult& r = response.evaluate;
    counts = StatsCounts(r.stats);
    counts["source_queries"] = static_cast<double>(r.source_queries);
    counts["partitions"] = static_cast<double>(r.partitions);
    children = {{name + ".rewrite", r.rewrite_seconds},
                {name + ".plan", r.plan_seconds},
                {name + ".eval", r.eval_seconds},
                {name + ".aggregate", r.aggregate_seconds}};
  } else if (kind == 5) {
    counts = StatsCounts(response.top_k.stats);
    counts["leaves_visited"] =
        static_cast<double>(response.top_k.leaves_visited);
    children = {{name + ".scan", response.top_k.seconds}};
  } else {
    counts = StatsCounts(response.threshold.stats);
    counts["leaves_visited"] =
        static_cast<double>(response.threshold.leaves_visited);
    children = {{name + ".scan", response.threshold.seconds}};
  }
  int64_t root = tracer->Add(name, req, -1, t0, t1, std::move(counts));
  tracer->AddSequentialChildren(root, req, t0, t1, children);
}

}  // namespace

void RunPaperSuite(const RunOptions& options, Tracer* tracer,
                   RunResult* result) {
  const std::vector<urm::core::WorkloadQuery> workload =
      urm::core::PaperWorkload();
  // Passes are dealt to the rounds in turn; a round may get none and
  // only set up (two passes at --seconds 30).
  const int passes = std::max(1, options.seconds / kSecondsPerPass);
  // The paper's experiment has no random input: the order is fixed and
  // the workload seed only names the run (and the ingest rows).
  std::vector<PaperRequest> pass;
  for (size_t q = 0; q < workload.size(); ++q) {
    for (int kind = 0; kind < kKinds; ++kind) pass.push_back({q, kind});
  }
  std::string plan;
  for (const PaperRequest& r : pass) {
    plan += workload[r.query].id + ":" + kKindNames[r.kind] + "\n";
  }
  result->meta.Set("passes", urm::json::Value::Int(passes));
  result->meta.Set("queries", urm::json::Value::Int(static_cast<int64_t>(
                                  passes * pass.size())));
  result->meta.Set("ingests", urm::json::Value::Int(static_cast<int64_t>(
                                  passes * workload.size() * 2)));
  urm::json::Value digests = urm::json::Value::Array();
  digests.Append(urm::json::Value::Str(Hex64(Fnv1a(plan))));
  result->meta.Set("sequence_digests", std::move(digests));
  if (options.plan_only) return;

  std::vector<urm::core::Request> requests;
  for (const PaperRequest& r : pass) {
    requests.push_back(MakeRequest(workload[r.query], r.kind));
  }
  const std::vector<urm::relational::Row> rows = IngestRows(options.seed);
  HostSpeed speed;
  // What each round measured, kept until the run ends, when every
  // host-speed sample is in and each interval can be divided by the
  // slowdown around it.
  struct RoundData {
    Interval setup;
    std::vector<Interval> requests;  ///< pass order, passes back to back
    std::vector<Interval> ingests;
    double peak_rss_mb = 0.0;
  };
  std::vector<RoundData> rounds(kRounds);
  int64_t ingests = 0;
  urm::live::IngestStats ingest_stats;
  Engines engines;
  for (int round = 0; round < kRounds; ++round) {
    RoundData& data = rounds[round];
    // Set-up: the three engine builds plus a warm-up that runs every
    // query once under o-sharing (pages in the catalogs and encodings).
    // Tearing down the previous round's engines is not part of it.
    engines = Engines();
    ResetPeakRss();
    data.setup.t0 = round == 0 ? 0 : NowNs();
    auto built = BuildEngines(tracer);
    if (!built.ok()) {
      result->Check(false, "engine build: " + built.status().ToString());
      return;
    }
    engines = std::move(built).ValueOrDie();
    const int64_t w0 = NowNs();
    for (const urm::core::WorkloadQuery& q : workload) {
      auto warm = engines[SchemaIndex(q.schema)]->Run(
          urm::core::Request::MethodEval(q.query, Method::kOSharing));
      if (!warm.ok()) {
        result->Check(false, q.id + " warm-up: " + warm.status().ToString());
        return;
      }
    }
    data.setup.t1 = NowNs();
    tracer->Add("setup.warmup", -1, -1, w0, data.setup.t1);
    speed.Sample(kSamplesAfterSetup);

    // Engine-only ingests (no service to fence) against the Excel
    // catalog: an insert and a delete after every query's block, outside
    // the timed blocks, so each block sees the same catalog and the
    // ingest samples spread over the whole pass.
    urm::live::IngestOptions ingest_options;
    ingest_options.enable_metrics = false;
    urm::live::IngestController ingest(engines[0].get(), nullptr,
                                       ingest_options);
    for (int p = round; p < passes; p += kRounds) {
      for (size_t base = 0; base < pass.size(); base += kKinds) {
        const urm::core::Engine& engine =
            *engines[SchemaIndex(workload[pass[base].query].schema)];
        std::vector<urm::Result<urm::core::Response>> responses;
        for (int kind = 0; kind < kKinds; ++kind) {
          speed.Sample();
          Interval timed;
          timed.cpu_s = ProcessCpuSeconds();
          timed.t0 = NowNs();
          responses.push_back(engine.Run(requests[base + kind]));
          timed.t1 = NowNs();
          timed.cpu_s = ProcessCpuSeconds() - timed.cpu_s;
          data.requests.push_back(timed);
        }

        std::vector<const urm::Result<urm::core::Response>*> runs;
        for (int kind = 0; kind < kKinds; ++kind) {
          const size_t i = base + kind;
          runs.push_back(&responses[kind]);
          if (tracer->enabled() && responses[kind].ok()) {
            const Interval& timed = data.requests[data.requests.size() -
                                                  kKinds + kind];
            TraceRequest(tracer, static_cast<int64_t>(p * pass.size() + i),
                         kind, timed.t0, timed.t1,
                         responses[kind].ValueOrDie());
          }
        }
        std::vector<std::string> errors = CheckQuery(runs);
        for (int kind = 0; kind < kKinds; ++kind) {
          result->Check(errors[kind].empty(),
                        workload[pass[base].query].id + " " +
                            kKindNames[kind] + ": " + errors[kind]);
        }

        for (bool insert : {true, false}) {
          const int64_t req = 1000000 + ingests++;
          Interval timed;
          timed.t0 = NowNs();
          auto report = ingest.Apply(IngestBatch(rows, insert));
          timed.t1 = NowNs();
          data.ingests.push_back(timed);
          result->Check(
              report.ok() &&
                  report.ValueOrDie().rows_inserted == (insert ? 8u : 0u) &&
                  report.ValueOrDie().rows_deleted == (insert ? 0u : 8u),
              "ingest " + std::to_string(req) + ": wrong receipt");
          if (tracer->enabled() && report.ok()) {
            int64_t root = tracer->Add("ingest", req, -1, timed.t0, timed.t1);
            tracer->AddSequentialChildren(
                root, req, timed.t0, timed.t1,
                {{"columnar.encode", report.ValueOrDie().encode_seconds}});
          }
        }
      }
    }
    data.peak_rss_mb = PeakRssMb();
    const urm::live::IngestStats stats = ingest.stats();
    ingest_stats.batches += stats.batches;
    ingest_stats.rows_inserted += stats.rows_inserted;
    ingest_stats.rows_deleted += stats.rows_deleted;
  }
  tracer->Counter("live.batches", static_cast<double>(ingest_stats.batches));
  tracer->Counter("live.rows_inserted",
                  static_cast<double>(ingest_stats.rows_inserted));
  tracer->Counter("live.rows_deleted",
                  static_cast<double>(ingest_stats.rows_deleted));

  // Each interval is divided by the host's slowdown around it; `raw`
  // keeps the value as measured. Throughput, CPU and ingest latency pool
  // the passes; set-up is the median over the rounds.
  Series setup_s, ingest_ms;
  // latency_ms[i]: request i of the pass, once per pass.
  std::vector<Series> latency_ms(pass.size());
  std::vector<double> peak_rss_mb;
  double wall = 0.0, norm_wall = 0.0, cpu = 0.0, norm_cpu = 0.0;
  for (const RoundData& data : rounds) {
    setup_s.Add(data.setup.Seconds(),
                speed.Factor(data.setup.t0, data.setup.t1));
    for (size_t r = 0; r < data.requests.size(); ++r) {
      const Interval& timed = data.requests[r];
      const double slowdown = speed.Factor(timed.t0, timed.t1);
      wall += timed.Seconds();
      norm_wall += timed.Seconds() / slowdown;
      cpu += timed.cpu_s;
      norm_cpu += timed.cpu_s / slowdown;
      latency_ms[r % pass.size()].Add(timed.Seconds() * 1e3, slowdown);
    }
    for (const Interval& timed : data.ingests) {
      ingest_ms.Add(timed.Seconds() * 1e3, speed.Factor(timed.t0, timed.t1));
    }
    // A round without a pass peaks lower; only rounds that ran one count.
    if (!data.requests.empty()) peak_rss_mb.push_back(data.peak_rss_mb);
  }
  const double n = static_cast<double>(passes * pass.size());

  // A request's latency is its median over the passes (each in its own
  // round, tens of seconds apart); the percentiles are over those 70
  // per-request medians.
  Series request_ms;
  for (const Series& samples : latency_ms) {
    request_ms.raw.push_back(Median(samples.raw));
    request_ms.norm.push_back(Median(samples.norm));
  }
  result->meta.Set("timed_s", urm::json::Value::Number(wall));
  result->meta.Set("host_speed", speed.SummaryJson());
  result->Metric("setup_s", setup_s.Median(), "s");
  result->Metric("throughput_rps", Corrected{n / norm_wall, n / wall}, "1/s");
  result->Metric("latency_p50_ms", request_ms.Percentile(0.50), "ms");
  // 70 requests: the nearest-rank p99 is the slowest one (basic on Q4).
  result->Metric("latency_p99_ms", request_ms.Percentile(0.99), "ms");
  result->Metric("cpu_ms_per_request",
                 Corrected{norm_cpu * 1e3 / n, cpu * 1e3 / n}, "ms");
  result->Metric("ingest_p50_ms", ingest_ms.Percentile(0.50), "ms");
  result->Metric("peak_rss_mb", Median(peak_rss_mb), "MB");
}

}  // namespace perfbench
