#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory_resource>
#include <string_view>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

int64_t Tracer::Add(std::string name, int64_t req, int64_t parent,
                    int64_t t0, int64_t t1,
                    std::map<std::string, double> counts) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.req = req;
  span.parent = parent;
  span.name = std::move(name);
  span.t0 = t0;
  span.t1 = std::max(t0, t1);
  span.counts = std::move(counts);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Close(int64_t id, int64_t t1) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.t1 = std::max(span.t0, t1);
}

int64_t Tracer::AddSequentialChildren(
    int64_t parent_id, int64_t req, int64_t t0, int64_t t1,
    const std::vector<std::pair<std::string, double>>& children) {
  int64_t cursor = t0;
  for (const auto& [name, seconds] : children) {
    int64_t end = std::min(
        t1, cursor + static_cast<int64_t>(std::llround(seconds * 1e9)));
    Add(name, req, parent_id, cursor, end);
    cursor = end;
  }
  return cursor;
}

void Tracer::Counter(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

namespace {

urm::json::Value CountsJson(const std::map<std::string, double>& counts) {
  urm::json::Value out = urm::json::Value::Object();
  for (const auto& [name, value] : counts) {
    out.Set(name, urm::json::Value::Number(value));
  }
  return out;
}

}  // namespace

urm::Status Tracer::Write(const std::string& path,
                          const urm::json::Value& meta) {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return urm::Status::Internal("cannot open trace file " + path);
  urm::json::Value header = urm::json::Value::Object();
  header.Set("type", urm::json::Value::Str("meta"));
  header.Set("meta", meta);
  out << header.Serialize() << "\n";
  for (const Span& span : spans_) {
    urm::json::Value line = urm::json::Value::Object();
    line.Set("type", urm::json::Value::Str("span"));
    line.Set("id", urm::json::Value::Int(span.id));
    line.Set("req", urm::json::Value::Int(span.req));
    line.Set("parent", urm::json::Value::Int(span.parent));
    line.Set("name", urm::json::Value::Str(span.name));
    line.Set("t0", urm::json::Value::Int(span.t0));
    line.Set("t1", urm::json::Value::Int(span.t1));
    if (!span.counts.empty()) line.Set("counts", CountsJson(span.counts));
    out << line.Serialize() << "\n";
  }
  urm::json::Value footer = urm::json::Value::Object();
  footer.Set("type", urm::json::Value::Str("counters"));
  footer.Set("counters", CountsJson(counters_));
  out << footer.Serialize() << "\n";
  out.flush();
  if (!out) return urm::Status::Internal("short write to " + path);
  return urm::Status::OK();
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  // Nearest rank: the smallest value with at least p of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values->size())));
  if (rank == 0) rank = 1;
  return (*values)[std::min(rank, values->size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Corrected Series::Percentile(double p) {
  return {perfbench::Percentile(&norm, p), perfbench::Percentile(&raw, p)};
}

Corrected Series::Median() const {
  return {perfbench::Median(norm), perfbench::Median(raw)};
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak RSS to the current RSS
}

namespace {

constexpr size_t kArenaBytes = size_t{16} << 20;
constexpr size_t kProbeRows = 20000;
constexpr size_t kBuildRows = 4000;
constexpr uint64_t kJoinKeys = 8000;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

HostSpeed::HostSpeed() : arena_(kArenaBytes) {
  uint64_t state = 1;
  auto make = [&state](size_t n, const std::string& prefix, uint64_t tags,
                       std::vector<Row>* rows) {
    for (size_t i = 0; i < n; ++i) {
      Row row;
      row.key = static_cast<int64_t>(SplitMix(&state) % kJoinKeys);
      row.value = static_cast<double>(SplitMix(&state) % 1000) / 7.0;
      row.tag = prefix + std::to_string(SplitMix(&state) % tags);
      rows->push_back(std::move(row));
    }
  };
  make(kProbeRows, "customer#", 300, &probe_);
  make(kBuildRows, "nation-", 25, &build_);
}

void HostSpeed::Sample(int repeats) {
  using String = std::pmr::string;
  for (int r = 0; r < repeats; ++r) {
    const int64_t t0 = NowNs();
    size_t groups_size = 0;
    {
      std::pmr::monotonic_buffer_resource arena(arena_.data(), arena_.size());
      std::pmr::unordered_map<int64_t, std::pmr::vector<size_t>> index(&arena);
      for (size_t i = 0; i < build_.size(); ++i) {
        index[build_[i].key].push_back(i);
      }
      std::pmr::vector<std::pair<String, double>> joined(&arena);
      for (const Row& row : probe_) {
        auto it = index.find(row.key);
        if (it == index.end()) continue;
        for (size_t j : it->second) {
          String tag(row.tag.begin(), row.tag.end(), &arena);
          tag += build_[j].tag;
          joined.emplace_back(std::move(tag), row.value * build_[j].value);
        }
      }
      std::pmr::unordered_map<String, double> groups(&arena);
      for (const auto& [tag, value] : joined) groups[tag] += value;
      std::pmr::vector<std::pair<double, String>> sorted(&arena);
      for (const auto& [tag, sum] : groups) sorted.emplace_back(sum, tag);
      std::sort(sorted.begin(), sorted.end());
      groups_size = sorted.size();
    }
    const int64_t t1 = NowNs();
    sink_ += groups_size;
    readings_.push_back({t1, (t1 - t0) * 1e-6});
  }
}

double HostSpeed::Factor(int64_t t0, int64_t t1) const {
  std::vector<Reading> window;
  for (const Reading& s : readings_) {
    if (s.t >= t0 && s.t <= t1) window.push_back(s);
  }
  if (window.size() < kWindowSamples) {
    window = readings_;
    const int64_t mid = t0 + (t1 - t0) / 2;
    std::sort(window.begin(), window.end(),
              [mid](const Reading& a, const Reading& b) {
                return std::llabs(a.t - mid) < std::llabs(b.t - mid);
              });
    window.resize(std::min(window.size(), kWindowSamples));
  }
  if (window.empty()) return 1.0;
  std::vector<double> ms;
  for (const Reading& s : window) ms.push_back(s.ms);
  return Median(std::move(ms)) / kReferenceMs;
}

urm::json::Value HostSpeed::SummaryJson() const {
  std::vector<double> ms;
  for (const Reading& s : readings_) ms.push_back(s.ms);
  urm::json::Value out = urm::json::Value::Object();
  out.Set("samples", urm::json::Value::Int(static_cast<int64_t>(ms.size())));
  out.Set("sample_ms_p50", urm::json::Value::Number(Median(std::move(ms))));
  return out;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

HttpClient::HttpClient(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return;
  }
  fd_ = fd;
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

int HttpClient::RoundTrip(const std::string& request_bytes,
                          std::string* body) {
  if (fd_ < 0) return 0;
  size_t sent = 0;
  while (sent < request_bytes.size()) {
    ssize_t n = ::send(fd_, request_bytes.data() + sent,
                       request_bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return 0;
    sent += static_cast<size_t>(n);
  }
  static const std::string kLength = "Content-Length:";
  while (true) {
    size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end != std::string::npos) {
      head_end += 4;
      size_t cl = buffer_.find(kLength);
      if (cl == std::string::npos || cl > head_end) return 0;
      size_t body_len = static_cast<size_t>(
          std::strtoull(buffer_.c_str() + cl + kLength.size(), nullptr, 10));
      if (buffer_.size() >= head_end + body_len) {
        int code = std::atoi(buffer_.c_str() + 9);  // "HTTP/1.1 200"
        body->assign(buffer_, head_end, body_len);
        buffer_.erase(0, head_end + body_len);
        return code;
      }
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return 0;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string PostBytes(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

namespace {

constexpr size_t kHeadWindow = 160;
constexpr size_t kTailWindow = 512;

size_t FindKey(const std::string& body, const std::string& quoted_key) {
  size_t tail_from =
      body.size() > kTailWindow ? body.size() - kTailWindow : 0;
  size_t at = body.find(quoted_key, tail_from);
  if (at != std::string::npos) return at;
  return std::string_view(body).substr(0, kHeadWindow).find(quoted_key);
}

}  // namespace

double FindNumberField(const std::string& body, const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  size_t at = FindKey(body, quoted);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(body.c_str() + at + quoted.size(), nullptr);
}

bool FindTrueField(const std::string& body, const std::string& key) {
  const std::string quoted = "\"" + key + "\":true";
  return std::string_view(body).substr(0, kHeadWindow).find(quoted) !=
         std::string_view::npos;
}

}  // namespace perfbench
