// serve_daemon: an in-process net::Daemon on an ephemeral loopback port,
// driven by one client thread over one connection. The daemon runs at
// time_scale 0, so what is measured is the program's own request path
// (socket IO, parsing, admission, batching, hand-off, response writing)
// with the search already paid for by the prewarm.
//
// Phase "open": seeded Poisson arrivals at a fixed rate, each request timed
// from its due send time; mostly deadline flushes and small batches.
// Phase "closed": a fixed window of outstanding requests; mostly size
// flushes and full batches. The two use the batcher in opposite ways.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "api/optimizer.hpp"
#include "measure.hpp"
#include "net/daemon.hpp"
#include "net/protocol.hpp"
#include "serve/clock.hpp"
#include "serve/engine.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace iosbench {
namespace {

/// Served models, the traffic mix weights (6:3:1) and the batch sizes.
const std::vector<std::string> kServed = {"squeezenet", "inception_v3", "resnet50"};
constexpr int kMixWeights[] = {6, 3, 1};
const std::vector<int> kBatchSizes = {1, 2, 4, 8};
constexpr double kOpenRatePerS = 10000;
constexpr int kClosedWindow = 32;
/// The open and closed phases alternate in this many slices each, so both
/// sample the whole run, and the closed phase's throughput is the median
/// over its slices: a stall in one slice does not move it.
constexpr int kSlices = 10;
/// Repetitions of the served-set search (per-point lower quartiles).
constexpr int kServedSearchRepeats = 10;
/// Ping round trips a traced run sends before each of its traced slices.
constexpr int kPingsPerSlice = 50;
/// How long a phase may wait for its last responses before the missing
/// ones count as unanswered.
constexpr double kDrainTimeoutS = 10;
/// Request ids at or above this are control verbs (stats), not inference.
constexpr std::int64_t kControlIdBase = std::int64_t{1} << 50;

ios::net::DaemonOptions daemon_options() {
  ios::net::DaemonOptions o;
  o.port = 0;
  o.serving.device = "v100";
  o.serving.num_workers = 2;
  o.serving.batching.batch_sizes = kBatchSizes;
  o.serving.batching.max_queue_delay_us = 200;
  o.prewarm_models = kServed;
  o.prewarm_threads = 2;
  o.time_scale = 0;
  o.io_threads = 1;
  return o;
}

/// The seeded traffic generator of one phase: model choice by the 6:3:1
/// mix and exponential inter-arrival gaps.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed) {}
  int next_model() {
    const std::uint64_t total = 10;
    std::uint64_t r = rng_() % total;
    int m = 0;
    while (r >= static_cast<std::uint64_t>(kMixWeights[m])) r -= kMixWeights[m++];
    return m;
  }
  double next_gap_ns(double rate_per_s) {
    const double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
    return -std::log1p(-u) / rate_per_s * 1e9;
  }

 private:
  std::mt19937_64 rng_;
};

std::string request_line(std::int64_t id, int model) {
  return "{\"id\":" + std::to_string(id) + ",\"model\":\"" + kServed[static_cast<std::size_t>(model)] +
         "\"}\n";
}

/// The raw text of `"key":<value>` in a flat JSON object line (quotes of a
/// string value stripped), or nullopt.
std::optional<std::string_view> field(std::string_view line, std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view v = line.substr(at + pattern.size());
  if (!v.empty() && v.front() == '"') {
    const std::size_t close = v.find('"', 1);
    if (close == std::string_view::npos) return std::nullopt;
    return v.substr(1, close - 1);
  }
  return v.substr(0, v.find_first_of(",}"));
}

template <typename T>
bool parse_number(std::optional<std::string_view> text, T& out) {
  if (!text) return false;
  const auto [ptr, ec] = std::from_chars(text->data(), text->data() + text->size(), out);
  return ec == std::errc() && ptr == text->data() + text->size();
}

/// One client TCP connection, driven from one thread: non-blocking reads
/// into a line buffer, writes that keep reading while the send buffer is
/// full (so the client can never deadlock against the daemon's writes), and
/// waits with nanosecond timeouts. net::Socket waits in whole milliseconds,
/// too coarse for an open loop that sends every 100 us on average.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        data.remove_prefix(static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        wait(POLLOUT, -1);
      } else if (n < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
      }
    }
  }

  /// Waits up to `timeout_ns` (< 0 = forever) for data, then reads what is
  /// there. Throws on EOF or a read error.
  void pump(std::int64_t timeout_ns) { wait(0, timeout_ns); }

  /// Pops the next complete line (without its newline) into `line`.
  bool next_line(std::string& line) {
    const std::size_t nl = buffer_.find('\n', consumed_);
    if (nl == std::string::npos) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
      return false;
    }
    line.assign(buffer_, consumed_, nl - consumed_);
    consumed_ = nl + 1;
    return true;
  }

 private:
  /// Polls for readability plus `extra` events; reads whatever arrived.
  void wait(short extra, std::int64_t timeout_ns) {
    pollfd p{fd_, static_cast<short>(POLLIN | extra), 0};
    timespec ts{};
    if (timeout_ns >= 0) {
      ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
      ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
    }
    const int ready = ::ppoll(&p, 1, timeout_ns >= 0 ? &ts : nullptr, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR))) return;
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(chunk)) return;
      } else if (n == 0) {
        throw std::runtime_error("daemon closed the connection");
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      } else if (errno != EINTR) {
        throw std::runtime_error(std::string("recv failed: ") + std::strerror(errno));
      }
    }
  }

  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// One answered inference request, as the client saw it.
struct Sample {
  std::int64_t id = 0;
  int model = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  double wall_latency_us = 0;  ///< daemon residence, from the response
  int batch_size = 0;
  double service_us = 0;
  double rtt_us() const { return static_cast<double>(recv_ns - due_ns) / 1e3; }
};

/// Counters of the daemon's stats verb.
struct DaemonCounters {
  std::int64_t completed = 0, batches = 0, rejected = 0, shed = 0, protocol_errors = 0,
               cache_hits = 0, cache_misses = 0, optimizations = 0;
  DaemonCounters operator-(const DaemonCounters& o) const {
    return {completed - o.completed, batches - o.batches, rejected - o.rejected,
            shed - o.shed, protocol_errors - o.protocol_errors, cache_hits - o.cache_hits,
            cache_misses - o.cache_misses, optimizations - o.optimizations};
  }
  DaemonCounters& operator+=(const DaemonCounters& o) {
    completed += o.completed;
    batches += o.batches;
    rejected += o.rejected;
    shed += o.shed;
    protocol_errors += o.protocol_errors;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    optimizations += o.optimizations;
    return *this;
  }
};

/// What the slices of one phase produced, accumulated over the run.
struct PhaseResult {
  /// Answered requests; the closed phase keeps them only when traced.
  std::vector<Sample> samples;
  std::int64_t answered = 0;
  std::vector<std::string> lines;  ///< open phase: the request lines, in order
  /// Open phase: due times on one schedule spanning all slices, and models.
  std::vector<std::int64_t> due_offsets_ns;
  std::vector<int> models;
  std::int64_t schedule_ns = 0;
  std::vector<double> send_lag_us;  ///< open phase: sent - due
  std::vector<double> slice_rps;    ///< closed phase: answers/s per slice
  DaemonCounters delta;             ///< daemon counters over the slices
};

/// Drives phases over one connection and checks every answer.
class Client {
 public:
  Client(int port, Report& report, Tracer& tracer)
      : conn_(port), report_(report), tracer_(tracer) {}

  /// One open-loop slice of `seconds`: seeded Poisson arrivals, each
  /// request timed from its due send time.
  void open_slice(PhaseResult& r, std::uint64_t seed, double seconds, bool traced) {
    Mix mix(seed);
    const std::size_t first = r.lines.size();
    for (double t = mix.next_gap_ns(kOpenRatePerS); t < seconds * 1e9;
         t += mix.next_gap_ns(kOpenRatePerS)) {
      const int model = mix.next_model();
      r.due_offsets_ns.push_back(r.schedule_ns + static_cast<std::int64_t>(t));
      r.models.push_back(model);
      r.lines.push_back(request_line(next_id_ + static_cast<std::int64_t>(r.lines.size() - first), model));
    }
    const DaemonCounters before = stats();
    const std::int64_t answered_before = r.answered;
    const std::int64_t start = now_ns() + 1000000 - r.schedule_ns;
    const std::int64_t drain_deadline =
        start + r.schedule_ns + static_cast<std::int64_t>((seconds + kDrainTimeoutS) * 1e9);
    std::size_t next = first;
    for (;;) {
      std::int64_t now = now_ns();
      while (next < r.lines.size() && start + r.due_offsets_ns[next] <= now) {
        const std::int64_t due = start + r.due_offsets_ns[next];
        send_request(r.lines[next], r.models[next], due);
        r.send_lag_us.push_back(static_cast<double>(outstanding_.at(next_id_ - 1).sent_ns - due) / 1e3);
        ++next;
        now = now_ns();
      }
      if (next == r.lines.size() && (outstanding_.empty() || now >= drain_deadline)) break;
      conn_.pump(next < r.lines.size() ? start + r.due_offsets_ns[next] - now : drain_deadline - now);
      receive(r, traced, true);
    }
    settle_unanswered();
    r.schedule_ns += static_cast<std::int64_t>(seconds * 1e9);
    r.delta += counters_since(before, r.answered - answered_before);
  }

  /// One closed-loop slice of `seconds`: exactly kClosedWindow requests
  /// outstanding, each answer replaced by a new request until the slice
  /// ends; then the window drains.
  /// `keep`: store the samples (a traced run reconciles with them).
  void closed_slice(PhaseResult& r, std::uint64_t seed, double seconds, bool traced, bool keep) {
    Mix mix(seed);
    const DaemonCounters before = stats();
    const std::int64_t answered_before = r.answered;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t drain_deadline = end + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    auto send_next = [&] {
      const int model = mix.next_model();
      send_request(request_line(next_id_, model), model, now_ns());
    };
    for (int i = 0; i < kClosedWindow; ++i) send_next();
    std::int64_t in_window = 0;
    for (;;) {
      const std::int64_t now = now_ns();
      if (outstanding_.empty() || now >= drain_deadline) break;
      conn_.pump(drain_deadline - now);
      const std::size_t answered = receive(r, traced, keep);
      if (now_ns() >= end) continue;
      in_window += static_cast<std::int64_t>(answered);
      for (std::size_t i = 0; i < answered; ++i) send_next();
    }
    settle_unanswered();
    r.slice_rps.push_back(static_cast<double>(in_window) / seconds);
    r.delta += counters_since(before, r.answered - answered_before);
  }

  /// Sends `count` ping verbs one at a time and appends each round trip, in
  /// us, to `rtts_us`: what the net layer costs a request without the
  /// serving engine (loopback both ways, the daemon's read, parse and
  /// write, the client's wake-up). Timed from the end of the send, as a
  /// request's send lag already covers its send. Nothing else may be
  /// outstanding.
  void ping(std::vector<double>& rtts_us, int count) {
    for (int i = 0; i < count; ++i) {
      const std::int64_t id = kControlIdBase + control_++;
      conn_.send("{\"id\":" + std::to_string(id) + ",\"cmd\":\"ping\"}\n");
      const std::int64_t sent = now_ns();
      const ios::JsonValue v = control_answer(id);
      const std::int64_t recv = now_ns();
      report_.check(v.contains("pong"), "ping was not answered with a pong");
      rtts_us.push_back(static_cast<double>(recv - sent) / 1e3);
      tracer_.add("net.ping", sent, recv, -1, id);
    }
  }

  /// (model, batch size, service_us) triples the daemon answered with.
  const std::set<std::tuple<int, int, double>>& served() const { return served_; }

 private:
  struct Outstanding {
    int model = 0;
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
  };

  void send_request(const std::string& line, int model, std::int64_t due_ns) {
    conn_.send(line);
    outstanding_.emplace(next_id_++, Outstanding{model, due_ns, now_ns()});
    ++report_.attempted;
  }

  /// Handles every complete response line; returns how many inference
  /// requests were settled. `keep` stores the samples.
  std::size_t receive(PhaseResult& r, bool traced, bool keep) {
    std::size_t settled = 0;
    std::string line;
    while (conn_.next_line(line)) {
      const std::int64_t recv = now_ns();
      std::int64_t id = 0;
      if (!parse_number(field(line, "id"), id)) {
        report_.check(false, "response without an id: " + line);
        continue;
      }
      auto it = outstanding_.find(id);
      if (it == outstanding_.end()) {
        report_.check(false, "response for an id that is not outstanding: " + line);
        continue;
      }
      const Outstanding sent = it->second;
      outstanding_.erase(it);
      ++settled;
      if (field(line, "ok") != std::optional<std::string_view>("true")) {
        ++report_.failed;  // overloaded, shed or an error: a failed request
        continue;
      }
      Sample s{id, sent.model, sent.due_ns, sent.sent_ns, recv, 0, 0, 0};
      const bool parsed = parse_number(field(line, "wall_latency_us"), s.wall_latency_us) &&
                          parse_number(field(line, "batch_size"), s.batch_size) &&
                          parse_number(field(line, "service_us"), s.service_us);
      const bool right_model = field(line, "model") ==
                               std::optional<std::string_view>(kServed[static_cast<std::size_t>(sent.model)]);
      const bool known_size =
          std::find(kBatchSizes.begin(), kBatchSizes.end(), s.batch_size) != kBatchSizes.end();
      if (!parsed || !right_model || !known_size) {
        ++report_.failed;
        report_.check(false, "wrong answer to request " + std::to_string(id) + ": " + line);
        continue;
      }
      served_.emplace(s.model, s.batch_size, s.service_us);
      ++r.answered;
      if (traced) {
        const int root = tracer_.add("client.request", s.due_ns, recv, -1, id);
        if (s.sent_ns > s.due_ns) tracer_.add("client.send_lag", s.due_ns, s.sent_ns, root, id);
        tracer_.add("daemon.residence", recv - static_cast<std::int64_t>(s.wall_latency_us * 1e3),
                    recv, root, id);
      }
      if (keep) r.samples.push_back(s);
    }
    return settled;
  }

  void settle_unanswered() {
    for (const auto& [id, sent] : outstanding_) {
      ++report_.failed;
      report_.check(false, "request " + std::to_string(id) + " was never answered");
    }
    outstanding_.clear();
  }

  /// Counter deltas since `before`. The daemon bumps its completed counter
  /// after writing a response, so right after the last answer the count can
  /// lag by the increments still in flight: re-read briefly until it covers
  /// the `answered` responses the client received.
  DaemonCounters counters_since(const DaemonCounters& before, std::int64_t answered) {
    DaemonCounters delta = stats() - before;
    for (int retry = 0; retry < 100 && delta.completed < answered; ++retry) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      delta = stats() - before;
    }
    return delta;
  }

  DaemonCounters stats() {
    const std::int64_t id = kControlIdBase + control_++;
    conn_.send("{\"id\":" + std::to_string(id) + ",\"cmd\":\"stats\"}\n");
    const ios::JsonValue v = control_answer(id);
    auto get = [&](const char* key) { return v.at(key).as_int(); };
    return {get("completed"), get("batches"), get("rejected"), get("shed"),
            get("protocol_errors"), get("cache_hits"), get("cache_misses"),
            get("optimizations")};
  }

  /// Waits for the answer to control verb `id`; any other line is an error.
  ios::JsonValue control_answer(std::int64_t id) {
    std::string line;
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    for (;;) {
      while (conn_.next_line(line)) {
        ios::JsonValue v = ios::JsonValue::parse(line);
        if (!v.contains("id") || v.at("id").as_int() != id) {
          report_.check(false, "unexpected line while waiting for a control answer: " + line);
          continue;
        }
        return v;
      }
      const std::int64_t left = deadline - now_ns();
      if (left <= 0) throw std::runtime_error("no answer to control verb " + std::to_string(id));
      conn_.pump(left);
    }
  }

  Connection conn_;
  Report& report_;
  Tracer& tracer_;
  std::unordered_map<std::int64_t, Outstanding> outstanding_;
  std::set<std::tuple<int, int, double>> served_;
  std::int64_t next_id_ = 1;
  std::int64_t control_ = 0;
};

std::vector<double> rtts_us(const PhaseResult& r) {
  std::vector<double> out;
  out.reserve(r.samples.size());
  for (const Sample& s : r.samples) out.push_back(s.rtt_us());
  return out;
}

/// Optimizes every served (model, batch) point on a fresh Optimizer,
/// `repeats` times: the search cost of the daemon's served set, and the
/// reference latency each response's service_us must equal.
struct ServedSearch {
  std::map<std::string, std::vector<double>> wall_ms;  // per point
  std::map<std::pair<int, int>, double> latency_us;    // (model, batch)
  std::vector<double> speedups;
};

ServedSearch search_served_set(int repeats, Report& report) {
  ServedSearch out;
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t m = 0; m < kServed.size(); ++m) {
      for (int batch : kBatchSizes) {
        ios::OptimizationRequest req = ios::OptimizationRequest::for_model(kServed[m], "v100", batch);
        req.options.num_threads = 2;
        ios::Optimizer optimizer;
        const std::int64_t t0 = now_ns();
        const ios::OptimizationResult r = optimizer.optimize(req);
        out.wall_ms[kServed[m] + "@" + std::to_string(batch)].push_back(
            static_cast<double>(now_ns() - t0) / 1e6);
        const auto key = std::make_pair(static_cast<int>(m), batch);
        auto [it, first] = out.latency_us.emplace(key, r.latency_us);
        report.check(it->second == r.latency_us, "served-set search is not deterministic");
        if (first) out.speedups.push_back(r.baselines.at(0).latency_us / r.latency_us);
      }
    }
  }
  return out;
}

void check_served(const Client& client, const ServedSearch& search, Report& report) {
  for (const auto& [model, batch, service_us] : client.served()) {
    auto it = search.latency_us.find({model, batch});
    report.check(it != search.latency_us.end() && it->second == service_us,
                 kServed[static_cast<std::size_t>(model)] + " batch " + std::to_string(batch) +
                     ": served service_us " + std::to_string(service_us) +
                     " is not the optimized schedule's latency");
  }
}

void check_phase_counters(const PhaseResult& r, const char* phase, Report& report) {
  report.check(r.delta.optimizations == 0 && r.delta.cache_misses == 0,
               std::string(phase) + ": the daemon searched during a measured phase");
  report.check(r.delta.completed == r.answered,
               std::string(phase) + ": daemon completed count differs from the answers received");
}

/// Mean ns per call of the wire parser and formatter on this run's traffic.
std::pair<double, double> wire_costs(const PhaseResult& r) {
  std::int64_t t0 = now_ns();
  std::int64_t ids = 0;
  for (const std::string& line : r.lines) {
    ids += ios::net::parse_request(std::string_view(line).substr(0, line.size() - 1)).id;
  }
  const double parse_ns = static_cast<double>(now_ns() - t0) / static_cast<double>(r.lines.size());
  std::vector<ios::net::WireResponse> responses;
  for (const Sample& s : r.samples) {
    ios::net::WireResponse w;
    w.id = s.id;
    w.ok = true;
    w.model = kServed[static_cast<std::size_t>(s.model)];
    w.device = "Tesla V100";
    w.batch_size = s.batch_size;
    w.service_us = s.service_us;
    w.wall_latency_us = s.wall_latency_us;
    responses.push_back(std::move(w));
  }
  t0 = now_ns();
  std::size_t bytes = 0;
  for (const ios::net::WireResponse& w : responses) bytes += ios::net::format_response(w).size();
  const double format_ns =
      static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::size_t>(1, responses.size()));
  if (ids == 0 || bytes == 0) throw std::logic_error("wire replay did no work");
  return {parse_ns, format_ns};
}

/// Mean ns per ServingEngine::submit and ::poll, replaying the open phase's
/// arrivals on a manually advanced clock.
std::pair<double, double> engine_costs(const PhaseResult& open, Report& report) {
  ios::serve::VirtualClock clock;
  ios::serve::ServingEngine engine(daemon_options().serving, &clock);
  engine.prewarm(kServed, 2);
  std::int64_t submit_ns = 0, polls = 0, poll_ns = 0;
  std::size_t formed = 0;
  for (std::size_t i = 0; i < open.models.size(); ++i) {
    const double arrival = static_cast<double>(open.due_offsets_ns[i]) / 1e3;
    while (engine.next_deadline_us() <= arrival) {
      clock.advance_to(std::max(clock.now_us(), engine.next_deadline_us()));
      const std::int64_t t0 = now_ns();
      formed += engine.poll().size();
      poll_ns += now_ns() - t0;
      ++polls;
      if (engine.next_deadline_us() <= clock.now_us()) break;  // nothing more due now
    }
    clock.advance_to(arrival);
    const std::int64_t t0 = now_ns();
    formed += engine.submit(static_cast<std::int64_t>(i), kServed[static_cast<std::size_t>(open.models[i])]).size();
    submit_ns += now_ns() - t0;
  }
  formed += engine.drain().size();
  report.check(formed > 0 && engine.take_shed().empty(), "engine replay formed no batches");
  return {static_cast<double>(submit_ns) / static_cast<double>(open.models.size()),
          polls ? static_cast<double>(poll_ns) / static_cast<double>(polls) : 0.0};
}

void report_phase_layers(const PhaseResult& r, const std::string& phase, Report& report) {
  const std::vector<double> rtt = rtts_us(r);
  if (rtt.empty()) return;
  const double tail = highest_supported_percentile(rtt.size());
  report.set("client.rtt_p50_us." + phase, percentile(rtt, 50), "us");
  report.set("client.rtt_p99_us." + phase, percentile(rtt, 99), "us");
  report.set("client.rtt_tail_us." + phase, percentile(rtt, tail), "us");
  report.set("client.rtt_tail_pct." + phase, tail, "%");
  report.set("client.samples." + phase, static_cast<double>(rtt.size()), "count");
  std::vector<double> residence, overhead;
  for (const Sample& s : r.samples) {
    residence.push_back(s.wall_latency_us);
    overhead.push_back(s.rtt_us() - s.wall_latency_us);
  }
  report.set("daemon.residence_p50_us." + phase, percentile(residence, 50), "us");
  report.set("net.overhead_p50_us." + phase, percentile(overhead, 50), "us");
  report.set("serve.batch_size_mean." + phase,
             r.delta.batches ? static_cast<double>(r.delta.completed) / static_cast<double>(r.delta.batches) : 0.0,
             "count");
}

}  // namespace

Report run_serve_daemon(const RunOptions& options) {
  Report report;
  Tracer tracer(options.trace);
  ios::net::Daemon daemon(daemon_options());
  daemon.start();
  Client client(daemon.port(), report, tracer);
  signal_ready();
  if (options.setup_only) return report;

  // Every slice draws its own seeded stream, so its traffic does not depend
  // on how many requests an earlier slice managed to send.
  std::uint64_t stream = options.seed * 1000;
  auto run_slices = [&](PhaseResult& open, PhaseResult& closed, double seconds, bool traced) {
    client.open_slice(open, stream++, seconds, traced);
    client.closed_slice(closed, stream++, seconds, traced, options.trace);
  };
  if (!options.trace) {
    PhaseResult open, closed;
    for (int i = 0; i < kSlices; ++i) run_slices(open, closed, options.seconds / 2 / kSlices, false);
    check_phase_counters(open, "open", report);
    check_phase_counters(closed, "closed", report);
    // Read before the served-set search below, whose fresh Optimizers would
    // otherwise set the daemon workload's peak.
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    const ServedSearch search = search_served_set(kServedSearchRepeats, report);
    check_served(client, search, report);
    report.check(!open.samples.empty() && closed.answered > 0, "a phase answered nothing");
    if (!open.samples.empty()) report.set("latency_p50_us", percentile(rtts_us(open), 50), "us");
    report.set("throughput_rps", median(closed.slice_rps), "1/s");
    report.set("optimize_s", sum_of_percentiles(search.wall_ms, kWallPercentile) / 1e3, "s");
    report.set("optimize_ms_geomean", geomean_of_percentiles(search.wall_ms, kWallPercentile), "ms");
    report.set("speedup_geomean", ios::geomean(search.speedups), "x");
    return report;
  }

  // Traced run: untraced and traced slices alternate, each a quarter of the
  // time; the traced ones give the breakdown, the untraced ones the figures
  // it must reconcile with. Pings before each traced pair price the net
  // transit.
  PhaseResult open_plain, closed_plain, open, closed;
  std::vector<double> ping_us;
  for (int i = 0; i < kSlices; ++i) {
    run_slices(open_plain, closed_plain, options.seconds / 4 / kSlices, false);
    client.ping(ping_us, kPingsPerSlice);
    run_slices(open, closed, options.seconds / 4 / kSlices, true);
  }
  DaemonCounters total;
  for (const PhaseResult* r : {&open_plain, &closed_plain, &open, &closed}) {
    check_phase_counters(*r, "phase", report);
    total += r->delta;
  }
  const ServedSearch search = search_served_set(1, report);
  check_served(client, search, report);

  report_phase_layers(open, "open", report);
  report_phase_layers(closed, "closed", report);
  report.set("client.send_lag_p99_us.open", open.send_lag_us.empty() ? 0 : percentile(open.send_lag_us, 99), "us");

  // Reconciliation: a traced request's layers are its send lag and daemon
  // residence (self times of its child spans) plus the net transit, the
  // median ping round trip. The client.request root's own self time is
  // what none of them explains, so it is not a layer. Per phase, the median
  // over requests of the layer sum must match the untraced slices' median
  // client RTT. Medians, because a host stall that hits a few hundred
  // requests moves a mean by more than the tolerance.
  report.check(!ping_us.empty(), "no ping was answered");
  const double transit_us = ping_us.empty() ? 0 : median(ping_us);
  report.set("net.transit_p50_us", transit_us, "us");
  const std::vector<std::int64_t> self = self_times_ns(tracer.spans());
  std::unordered_map<std::int64_t, double> layers_us;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (span.name == "client.send_lag" || span.name == "daemon.residence") {
      layers_us[span.request] += static_cast<double>(self[i]) / 1e3;
    }
  }
  double worst = 0;
  for (const auto& [plain, traced] : {std::pair{&open_plain, &open}, std::pair{&closed_plain, &closed}}) {
    if (plain->samples.empty() || traced->samples.empty()) continue;
    std::vector<double> layers;
    for (const Sample& s : traced->samples) layers.push_back(layers_us.at(s.id) + transit_us);
    const double untraced_us = percentile(rtts_us(*plain), 50);
    const Reconciliation rec = reconcile(median(layers), untraced_us, kReconcileTolerance);
    worst = std::max(worst, rec.rel_error);
    report.check(rec.ok, "client RTT layers (median " + std::to_string(median(layers)) +
                             " us) do not reconcile with the untraced RTT (median " +
                             std::to_string(untraced_us) + " us)");
  }
  report.set("trace.reconcile_frac", worst, "1");
  if (!open.samples.empty() && !open_plain.samples.empty()) {
    report.set("trace.overhead_frac",
               percentile(rtts_us(open), 50) / percentile(rtts_us(open_plain), 50) - 1, "1");
  }

  const std::int64_t lookups = total.cache_hits + total.cache_misses;
  const double hit_ratio = lookups ? static_cast<double>(total.cache_hits) / static_cast<double>(lookups) : 0.0;
  report.check(hit_ratio == 1.0, "recipe cache missed after prewarm");
  report.set("serve.recipe_hit_ratio", hit_ratio, "1");
  report.set("daemon.rejected", static_cast<double>(total.rejected), "count");
  report.set("daemon.shed", static_cast<double>(total.shed), "count");
  report.set("daemon.protocol_errors", static_cast<double>(total.protocol_errors), "count");

  const auto [parse_ns, format_ns] = wire_costs(open);
  report.set("net.parse_ns", parse_ns, "ns");
  report.set("net.format_ns", format_ns, "ns");
  const auto [submit_ns, poll_ns] = engine_costs(open, report);
  report.set("serve.submit_ns", submit_ns, "ns");
  report.set("serve.poll_ns", poll_ns, "ns");

  daemon.stop();
  write_trace(options, tracer);
  return report;
}

}  // namespace iosbench
