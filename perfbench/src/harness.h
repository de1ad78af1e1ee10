#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

/// \file harness.h
/// Shared pieces of urm_perfbench: the monotonic clock every
/// timestamp is taken from, the in-memory span recorder of traced runs,
/// the run result (metrics, attempted/failed counts, run metadata),
/// percentiles, process CPU/RSS readings, the host-speed probe the time
/// metrics are corrected with and a blocking keep-alive HTTP client for
/// the loopback workloads.

namespace perfbench {

/// Nanoseconds on the steady clock since the first call (made at the
/// top of main, so timestamps read as "ns since process start").
int64_t NowNs();

inline double NsToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One traced interval. Spans of one request share `req`; `parent` is
/// the id of the enclosing span or -1 for a root. `counts` carries the
/// per-request accounting the program returned at this boundary.
struct Span {
  int64_t id = 0;
  int64_t req = -1;
  int64_t parent = -1;
  std::string name;
  int64_t t0 = 0;
  int64_t t1 = 0;
  std::map<std::string, double> counts;
};

/// Keeps spans in memory for the whole run; Write() emits them once,
/// after the timed phase. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a span and returns its id (-1 when disabled). Thread-safe.
  int64_t Add(std::string name, int64_t req, int64_t parent, int64_t t0,
              int64_t t1, std::map<std::string, double> counts = {});

  /// Sets the end of span `id` (a parent opened before its children).
  void Close(int64_t id, int64_t t1);

  /// Lays `children` (name, seconds) out back to back from the start of
  /// `parent`, clamped to its end: the per-request phase accounting the
  /// program reports has durations but no timestamps.
  /// Returns the end of the last child.
  int64_t AddSequentialChildren(
      int64_t parent_id, int64_t req, int64_t t0, int64_t t1,
      const std::vector<std::pair<std::string, double>>& children);

  /// A run-level counter (cache/store/pool/ingest deltas, replay sizes).
  void Counter(const std::string& name, double value);

  /// Writes one JSON object per line: a header with `meta`, every span,
  /// then a footer with the counters.
  urm::Status Write(const std::string& path, const urm::json::Value& meta);

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// One timed interval: its window on the NowNs clock and the process
/// CPU seconds it used.
struct Interval {
  int64_t t0 = 0;
  int64_t t1 = 0;
  double cpu_s = 0.0;
  double Seconds() const { return NsToSeconds(t1 - t0); }
};

/// A metric value both as measured and corrected for the host's speed.
struct Corrected {
  double value = 0.0;  ///< divided by the host's slowdown (HostSpeed)
  double raw = 0.0;    ///< as measured
};

/// Samples of one metric, as measured (`raw`) and divided by the host's
/// slowdown around each (`norm`).
struct Series {
  std::vector<double> raw, norm;

  void Add(double value, double slowdown) {
    raw.push_back(value);
    norm.push_back(value / slowdown);
  }
  /// Nearest-rank percentile of both.
  Corrected Percentile(double p);
  Corrected Median() const;
};

/// Outcome of one workload run: the end-to-end metrics plus the
/// attempted/failed operation counts of the output checks.
struct RunResult {
  std::map<std::string, std::pair<double, std::string>> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Per-failure descriptions, printed (capped) to stderr.
  std::vector<std::string> failures;
  urm::json::Value meta = urm::json::Value::Object();

  /// Time metrics as measured, before HostSpeed's correction; the meta
  /// line carries them beside the corrected ones.
  std::map<std::string, double> raw_metrics;

  void Metric(const std::string& name, double value, std::string unit) {
    metrics[name] = {value, std::move(unit)};
  }
  void Metric(const std::string& name, Corrected value, std::string unit) {
    Metric(name, value.value, std::move(unit));
    raw_metrics[name] = value.raw;
  }
  /// Counts one checked operation; records `what` when it failed.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 50) failures.push_back(what);
    }
  }
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

/// Process user+sys CPU seconds so far.
double ProcessCpuSeconds();
/// Peak resident set of this process in MB since the last
/// ResetPeakRss (VmHWM; ru_maxrss where /proc is unavailable).
double PeakRssMb();
/// Returns freed heap to the OS (malloc_trim) and restarts the peak-RSS
/// count from the current resident set, so each round's peak covers its
/// own set-up and timed work, not the allocator's leftovers from the
/// rounds before.
void ResetPeakRss();

/// The host's speed, read by running a fixed reference query on the
/// calling thread between timed requests: a hash join of 20,000 by 4,000
/// generated rows on integer keys with string payloads, a group-by of
/// the joined rows and a sort of the groups, in the benchmark's own code,
/// so no change to the program moves it. Its containers allocate from a
/// buffer of its own, touched once up front, so neither the process
/// heap's state nor page faults enter its time. This VM
/// shares its host with other tenants, and the same work runs up to 1.7x
/// faster or slower for minutes at a time; each time metric is divided
/// by the slowdown the reference query saw around its window, so it
/// reads as it would at the reference speed (see README.md, "Host-speed
/// correction").
class HostSpeed {
 public:
  /// Typical median sample on a 4-thread host, in ms.
  static constexpr double kReferenceMs = 3.5;

  HostSpeed();

  /// Runs the reference query `repeats` times on the calling thread.
  void Sample(int repeats = 1);
  /// Slowdown over [t0, t1] (NowNs): 1 means the reference speed, 1.5
  /// half as fast again. The median of the samples inside the window, or
  /// of the kWindowSamples samples nearest its middle when it holds
  /// fewer, so the correction follows the host's drift over seconds, not
  /// the noise of single samples.
  double Factor(int64_t t0, int64_t t1) const;
  /// Sample count and the run's median sample in ms.
  urm::json::Value SummaryJson() const;

 private:
  static constexpr size_t kWindowSamples = 24;
  struct Row {
    int64_t key = 0;
    double value = 0.0;
    std::string tag;
  };
  struct Reading {
    int64_t t = 0;
    double ms = 0.0;
  };

  std::vector<Row> probe_, build_;
  std::vector<std::byte> arena_;
  uint64_t sink_ = 0;
  std::vector<Reading> readings_;
};

/// 64-bit FNV-1a, used for the request-sequence digests.
uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 1469598103934665603ull);
std::string Hex64(uint64_t value);

/// Minimal blocking keep-alive HTTP/1.1 client for one loopback
/// connection (TCP_NODELAY, Content-Length framing).
class HttpClient {
 public:
  explicit HttpClient(uint16_t port);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `request_bytes` (a complete request) and reads one response.
  /// Returns the HTTP status (0 on a transport failure); the body is
  /// left in `*body`.
  int RoundTrip(const std::string& request_bytes, std::string* body);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A full POST request for `path` with a JSON `body`.
std::string PostBytes(const std::string& path, const std::string& body);

/// The number following `"key":` in a response body, searched near the
/// head and the tail (where the serializer puts the scalar fields), so a
/// 100 KB answer body is not scanned. NaN when absent.
double FindNumberField(const std::string& body, const std::string& key);
/// True when `"key":true` appears near the head of the body.
bool FindTrueField(const std::string& body, const std::string& key);

}  // namespace perfbench
