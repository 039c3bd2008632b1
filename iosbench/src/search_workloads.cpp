// search_cold and search_warm: the paper's four networks optimized over and
// over, cold (every stage simulated) and warm (every stage read from a
// profile database written by an earlier process).
//
// The untraced path times Optimizer::optimize as a user calls it. The traced
// path replays the same cache-miss pipeline call by call (traced_optimize),
// with a span around each call into a layer, and checks that it reproduces
// the Optimizer's result bit for bit and that its layers add up to the
// untraced wall time.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "api/optimizer.hpp"
#include "core/scheduler.hpp"
#include "measure.hpp"
#include "models/models.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/executor.hpp"
#include "runtime/profile_db.hpp"
#include "schedule/baselines.hpp"
#include "schedule/schedule.hpp"
#include "sim/device.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace iosbench {
namespace {

// The paper's networks at batch 1 on the V100, exact pruning, default
// baselines (sequential, greedy).
const std::vector<std::string> kZoo = {"inception_v3", "randwire", "nasnet", "squeezenet"};
// At one thread SearchEngine::kAuto picks the serial engine; two threads keep
// the wave engine, the default for multi-threaded callers, under test on
// search_cold and in search_warm's cold set-up pass.
constexpr int kColdThreads = 2;
// search_warm's rounds simulate nothing, so at two threads the wave engine's
// per-wave barriers dominate and their wake-ups swing with host scheduling:
// at 10% hypervisor steal its rounds took 70% longer (search_cold: 15%).
// The serial engine keeps the warm figures steady.
constexpr int kWarmThreads = 1;

ios::OptimizationRequest zoo_request(const std::string& model, const std::string& profile_db,
                                     int threads) {
  ios::OptimizationRequest r = ios::OptimizationRequest::for_model(model, "v100", 1);
  r.options.num_threads = threads;
  r.profile_db = profile_db;
  return r;
}

double ms_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) / 1e6; }

/// What one optimize produced, in the form the checks compare.
struct Outcome {
  double latency_us = 0;
  double sequential_us = 0;
  double greedy_us = 0;
  ios::SchedulerStats stats;
  std::int64_t measurements = 0;
  std::uint64_t fingerprint = 0;
};

/// The traced replay of Optimizer::optimize's cache-miss path. The graph and
/// cost model are returned so a warm replay can reuse the measured profile.
struct TracedOptimize {
  std::unique_ptr<ios::Graph> graph;
  std::unique_ptr<ios::CostModel> cost;
  ios::Schedule schedule;
  Outcome outcome;
};

/// Runs the pipeline of Optimizer::optimize (src/api/optimizer.cpp) call by
/// call under one "api.optimize" span. With `db`, stage latencies are loaded
/// from it before the search and merged back after, and a database that grew
/// (or is not on disk yet) is rewritten to `db_path`, as the Optimizer does.
TracedOptimize traced_optimize(Tracer& tr, const std::string& model, int threads,
                               std::int64_t request, ios::ProfileDb* db,
                               const std::string& db_path, bool* db_on_disk) {
  TracedOptimize t;
  ScopedSpan root(tr, "api.optimize", request);
  const ios::OptimizationRequest req = zoo_request(model, db_path, threads);
  req.options.validate();
  const ios::DeviceSpec device = ios::device_by_name(req.device);
  {
    ScopedSpan s(tr, "models.build", request);
    t.graph = std::make_unique<ios::Graph>(ios::models::build_model(model, req.batch));
  }
  const ios::Graph& g = *t.graph;
  const ios::ExecConfig config{device, ios::KernelModelParams{}};
  {
    ScopedSpan s(tr, "api.cache_key", request);
    t.outcome.fingerprint =
        ios::hash_bytes(ios::request_cache_key(g, device.name, req.options, req.protocol));
  }
  t.cost = std::make_unique<ios::CostModel>(g, config, req.protocol);
  if (db) {
    ScopedSpan s(tr, "runtime.profile_load", request);
    t.cost->load_profile(*db);
  }
  {
    ScopedSpan s(tr, "core.search", request);
    t.schedule = ios::IosScheduler(*t.cost, req.options).schedule_graph(&t.outcome.stats);
  }
  ios::validate_schedule(g, t.schedule);
  t.outcome.measurements = t.cost->num_measurements();
  if (db) {
    const std::size_t before = db->num_entries();
    {
      ScopedSpan s(tr, "runtime.profile_merge", request);
      t.cost->save_profile(*db);
    }
    if (db->num_entries() != before || !*db_on_disk) {
      ScopedSpan s(tr, "runtime.db_save", request);
      db->save(db_path);
      *db_on_disk = true;
    }
  }
  const ios::Executor executor(g, config);
  {
    ScopedSpan s(tr, "runtime.exec", request);
    t.outcome.latency_us = executor.schedule_latency_us(t.schedule);
  }
  {
    ScopedSpan s(tr, "schedule.baselines", request);
    t.outcome.sequential_us = executor.schedule_latency_us(ios::sequential_schedule(g));
    t.outcome.greedy_us = executor.schedule_latency_us(ios::greedy_schedule(g));
  }
  return t;
}

/// Layer spans of traced_optimize and the per-layer metric each one feeds.
/// The "api.optimize" root's own self time (option checks, cost-model
/// construction, schedule validation) is not a layer: it lands, with the
/// Optimizer's cache bookkeeping, in api.other_ms.
const std::vector<std::pair<std::string, std::string>> kLayerSpans = {
    {"models.build", "models.build_ms"},
    {"api.cache_key", "api.cache_key_ms"},
    {"runtime.profile_load", "runtime.profile_load_ms"},
    {"core.search", "core.search_ms"},
    {"runtime.profile_merge", "runtime.profile_merge_ms"},
    {"runtime.exec", "runtime.exec_ms"},
    {"schedule.baselines", "schedule.baselines_ms"},
};

/// Everything a search workload accumulates while it runs.
class SearchRun {
 public:
  SearchRun(const RunOptions& options, Report& report)
      : report_(report), tracer_(options.trace) {
    for (const std::string& m : kZoo) graphs_.emplace(m, ios::models::build_model(m, 1));
  }

  Tracer& tracer() { return tracer_; }

  /// One round over the zoo on a fresh Optimizer (no recipe cache carried
  /// over), timed per call. `measured` = the samples count toward metrics.
  void untraced_round(const std::string& profile_db, int threads,
                      std::int64_t expect_measurements_of, bool measured) {
    ios::Optimizer optimizer;
    double round_ms = 0;
    std::vector<double> speedups;
    for (const std::string& model : kZoo) {
      if (measured) ++report_.attempted;
      const std::int64_t t0 = now_ns();
      ios::OptimizationResult r;
      try {
        r = optimizer.optimize(zoo_request(model, profile_db, threads));
      } catch (const std::exception& e) {
        fail_call(measured, model + ": optimize threw: " + e.what());
        continue;
      }
      const double ms = ms_since(t0);
      Outcome o{r.latency_us, r.baselines.at(0).latency_us, r.baselines.at(1).latency_us,
                r.stats, r.new_measurements, r.fingerprint};
      if (!check_outcome(model, o, r.schedule, expect_measurements_of)) {
        fail_call(measured, "");
        continue;
      }
      round_ms += ms;
      speedups.push_back(o.sequential_us / o.latency_us);
      if (measured) wall_ms_[model].push_back(ms);
    }
    if (measured && speedups.size() == kZoo.size()) {
      round_s_.push_back(round_ms / 1e3);
      // The peak is read when the first measured round ends: the wave
      // engine's pooled arenas keep growing over many rounds, so a peak read
      // later would depend on how many rounds fit into the run, and vary
      // more from run to run.
      if (round_s_.size() == 1) peak_rss_mb_ = peak_rss_mb();
      check_speedup(ios::geomean(speedups));
    }
  }

  /// One traced round: traced_optimize per model (against `db` when set).
  /// With `warm_replay`, each model's freshly measured profile is then
  /// loaded into a new cost model and searched again, to price the search
  /// without the simulator.
  void traced_round(ios::ProfileDb* db, const std::string& db_path, bool* db_on_disk,
                    int threads, bool warm_replay) {
    for (const std::string& model : kZoo) {
      ++report_.attempted;
      const std::int64_t request = next_request_++;
      request_model_[request] = model;
      TracedOptimize t;
      try {
        t = traced_optimize(tracer_, model, threads, request, db, db_path, db_on_disk);
      } catch (const std::exception& e) {
        fail_call(true, model + ": traced optimize threw: " + e.what());
        continue;
      }
      if (!check_outcome(model, t.outcome, t.schedule, db ? 0 : -1)) {
        fail_call(true, "");
        continue;
      }
      traced_counts_[model] = t.outcome;
      if (warm_replay) replay_warm(model, t);
    }
  }

  /// The traced cold pass that builds a profile database during set-up.
  void traced_setup_pass(ios::ProfileDb& db, const std::string& db_path) {
    bool on_disk = false;
    for (const std::string& model : kZoo) {
      const std::int64_t request = next_request_++;
      setup_requests_.insert(request);
      TracedOptimize t =
          traced_optimize(tracer_, model, kColdThreads, request, &db, db_path, &on_disk);
      report_.check(check_outcome(model, t.outcome, t.schedule, -1), model + ": set-up pass");
      setup_measurements_ += t.outcome.measurements;
    }
  }

  /// End-to-end metrics of the untraced measured rounds.
  void report_end_to_end() {
    report_.check(!round_s_.empty(), "no complete measured round");
    if (round_s_.empty()) return;
    const double round_s = percentile(round_s_, kWallPercentile);
    report_.set("optimize_s", round_s, "s");
    report_.set("optimize_ms_geomean", geomean_of_percentiles(wall_ms_, kWallPercentile), "ms");
    report_.set("speedup_geomean", *speedup_, "x");
    // Both are the lower-quartile round seen per optimize call. The median
    // of the per-model figures would hang on nasnet alone, whose short,
    // barrier-bound waves swing most with host scheduling.
    report_.set("throughput_rps", static_cast<double>(kZoo.size()) / round_s, "1/s");
    report_.set("latency_p50_us", round_s * 1e6 / static_cast<double>(kZoo.size()), "us");
    report_.set("peak_rss_mb", peak_rss_mb_, "MiB");
  }

  /// Per-layer metrics of the traced rounds, reconciled against the
  /// untraced rounds.
  void report_layers() {
    std::map<std::string, std::map<std::string, std::vector<double>>> layer_ms;  // name -> model
    for (const auto& [request, names] : self_time_by_request(tracer_.spans())) {
      auto measured = request_model_.find(request);
      if (measured == request_model_.end()) continue;
      report_.check(!names.count("runtime.db_save"), "a measured round rewrote the profile db");
      for (const auto& [span, metric] : kLayerSpans) {
        auto it = names.find(span);
        layer_ms[metric][measured->second].push_back(
            it == names.end() ? 0.0 : static_cast<double>(it->second) / 1e6);
      }
    }
    std::map<std::string, std::vector<double>> traced_total_ms;
    for (const Span& s : tracer_.spans()) {
      auto measured = request_model_.find(s.request);
      if (measured != request_model_.end() && s.name == "api.optimize") {
        traced_total_ms[measured->second].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
    double layer_sum = 0;
    for (const auto& [span, metric] : kLayerSpans) {
      const double ms = sum_of_percentiles(layer_ms[metric], 50);
      report_.set(metric, ms, "ms");
      layer_sum += ms;
    }
    const double untraced_ms = sum_of_percentiles(wall_ms_, 50);
    const Reconciliation rec = reconcile(layer_sum, untraced_ms, kReconcileTolerance);
    report_.set("api.other_ms", rec.remainder, "ms");
    report_.set("trace.reconcile_frac", rec.rel_error, "1");
    report_.check(rec.ok, "per-layer self times (" + std::to_string(layer_sum) +
                              " ms) do not reconcile with the untraced optimize wall (" +
                              std::to_string(untraced_ms) + " ms)");
    if (!traced_total_ms.empty() && !wall_ms_.empty()) {
      report_.set("trace.overhead_frac",
                  geomean_of_percentiles(traced_total_ms, 50) / geomean_of_percentiles(wall_ms_, 50) - 1, "1");
    }

    ios::SchedulerStats sum;
    std::int64_t sims = 0;
    for (const auto& [model, o] : traced_counts_) {
      sum += o.stats;
      sims += o.measurements;
    }
    report_.set("core.states", static_cast<double>(sum.states), "count");
    report_.set("core.transitions", static_cast<double>(sum.transitions), "count");
    report_.set("core.pruned_endings", static_cast<double>(sum.pruned_endings), "count");
    report_.set("core.ending_cache_hits", static_cast<double>(sum.cache_hits), "count");
    report_.set("runtime.stage_sims", static_cast<double>(sims), "count");
    // Simulation cost per stage: cold minus warm search time of one zoo
    // pass, over the stages the cold pass simulated. On search_cold the warm
    // search is the replay of each traced round; on search_warm the cold
    // search is the set-up pass that built the profile db.
    const bool cold = !warm_search_ms_.empty();
    const double cold_search_ms =
        cold ? sum_of_percentiles(layer_ms["core.search_ms"], 50) : setup_spans("core.search").first;
    const double warm_search_ms =
        cold ? sum_of_percentiles(warm_search_ms_, 50)
             : sum_of_percentiles(layer_ms["core.search_ms"], 50);
    const std::int64_t cold_sims = cold ? sims : setup_measurements_;
    report_.check(cold_sims > 0, "no stage simulations to price");
    if (cold_sims > 0) {
      report_.set("runtime.sim_us_per_stage",
                  (cold_search_ms - warm_search_ms) * 1e3 / static_cast<double>(cold_sims), "us");
    }
  }

  /// Sum and count of set-up spans named `name`.
  std::pair<double, int> setup_spans(const std::string& name) const {
    double ms = 0;
    int n = 0;
    for (const Span& s : tracer_.spans()) {
      if (s.name == name && (setup_requests_.count(s.request) || s.request < 0)) {
        ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        ++n;
      }
    }
    return {ms, n};
  }

 private:
  void fail_call(bool measured, const std::string& why) {
    if (measured) ++report_.failed;
    if (!why.empty()) report_.check(false, why);
  }

  /// Validates the schedule and compares the outcome with the model's
  /// reference bit for bit. `expect_measurements`: -1 = equal to the
  /// reference's count, otherwise exactly this count.
  bool check_outcome(const std::string& model, const Outcome& o, const ios::Schedule& schedule,
                     std::int64_t expect_measurements) {
    try {
      ios::validate_schedule(graphs_.at(model), schedule);
    } catch (const std::exception& e) {
      report_.check(false, model + ": invalid schedule: " + e.what());
      return false;
    }
    auto [it, first] = reference_.emplace(model, o);
    const Outcome& ref = it->second;
    const std::int64_t want = expect_measurements < 0 ? ref.measurements : expect_measurements;
    bool ok = true;
    auto expect = [&](bool cond, const std::string& what) {
      report_.check(cond, model + ": " + what);
      ok = ok && cond;
    };
    expect(o.measurements == want, "stage simulations " + std::to_string(o.measurements) +
                                       ", expected " + std::to_string(want));
    if (first) {
      expect(o.measurements > 0, "the first optimize of a model simulated no stage");
      return ok;
    }
    expect(o.latency_us == ref.latency_us, "IOS latency differs from the first optimize");
    expect(o.sequential_us == ref.sequential_us && o.greedy_us == ref.greedy_us,
           "baseline latency differs from the first optimize");
    expect(o.stats.states == ref.stats.states && o.stats.transitions == ref.stats.transitions &&
               o.stats.pruned_endings == ref.stats.pruned_endings &&
               o.stats.cache_hits == ref.stats.cache_hits,
           "search counts differ from the first optimize");
    expect(o.fingerprint == ref.fingerprint, "recipe-cache key differs from the Optimizer's");
    return ok;
  }

  void check_speedup(double speedup) {
    if (!speedup_) speedup_ = speedup;
    report_.check(speedup == *speedup_, "speedup_geomean differs between rounds");
  }

  void replay_warm(const std::string& model, TracedOptimize& t) {
    ios::ProfileDb profile;
    t.cost->save_profile(profile);
    ios::CostModel warm(*t.graph, ios::ExecConfig{t.cost->executor().device(), {}},
                        t.cost->protocol());
    warm.load_profile(profile);
    ios::SchedulerOptions options = zoo_request(model, "", kColdThreads).options;
    const std::int64_t t0 = now_ns();
    const int span = tracer_.begin("core.search_warm_replay", -1);
    const ios::Schedule schedule = ios::IosScheduler(warm, options).schedule_graph();
    tracer_.end(span);
    warm_search_ms_[model].push_back(ms_since(t0));
    report_.check(warm.num_measurements() == 0, model + ": warm replay simulated stages");
    report_.check(ios::Executor(*t.graph, ios::ExecConfig{warm.executor().device(), {}})
                          .schedule_latency_us(schedule) == t.outcome.latency_us,
                  model + ": warm replay found a different schedule latency");
  }

  Report& report_;
  Tracer tracer_;
  std::map<std::string, ios::Graph> graphs_;
  std::map<std::string, Outcome> reference_;
  std::map<std::string, std::vector<double>> wall_ms_;
  std::map<std::string, std::vector<double>> warm_search_ms_;
  std::vector<double> round_s_;
  std::optional<double> speedup_;
  double peak_rss_mb_ = 0;
  std::map<std::int64_t, std::string> request_model_;  // measured traced requests
  std::map<std::string, Outcome> traced_counts_;
  std::set<std::int64_t> setup_requests_;
  std::int64_t next_request_ = 0;
  std::int64_t setup_measurements_ = 0;
};

/// Runs rounds until `seconds` have passed, at least one: untraced rounds,
/// alternating with traced rounds in a traced run.
template <typename Round>
void measure_rounds(double seconds, Round&& round) {
  const std::int64_t start = now_ns();
  do {
    round();
  } while (static_cast<double>(now_ns() - start) / 1e9 < seconds);
}

/// Deletes the run's profile databases however the run ends.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    for (const std::string& p : paths) {
      std::error_code ignored;
      std::filesystem::remove(p, ignored);
    }
  }
};

}  // namespace

Report run_search_cold(const RunOptions& options) {
  Report report;
  SearchRun run(options, report);
  // Set-up: one unmeasured round, so lazy state (thread pool, arena pool,
  // first-touch page faults) is in place before timing. It also fixes each
  // model's reference outcome.
  run.untraced_round("", kColdThreads, -1, false);
  signal_ready();
  if (options.setup_only) return report;

  measure_rounds(options.seconds, [&] {
    run.untraced_round("", kColdThreads, -1, true);
    if (options.trace) run.traced_round(nullptr, "", nullptr, kColdThreads, true);
  });
  if (options.trace) {
    run.report_layers();
    report.set("runtime.db_parse_ms", 0, "ms");
    report.set("runtime.db_save_ms", 0, "ms");
    report.set("runtime.db_saves", 0, "count");
    write_trace(options, run.tracer());
  } else {
    run.report_end_to_end();
  }
  return report;
}

Report run_search_warm(const RunOptions& options) {
  Report report;
  SearchRun run(options, report);
  namespace fs = std::filesystem;
  const std::string stem = options.out_dir + "/search_warm-" + std::to_string(::getpid());
  const std::string build_path = stem + "-build.json";
  const std::string restart_path = stem + "-restart.json";
  const RemoveOnExit cleanup{{build_path, restart_path}};
  fs::remove(build_path);  // a crashed run with the same pid may have left it
  fs::remove(restart_path);

  // Set-up, part 1: a cold pass over the zoo writes a fresh profile db.
  ios::ProfileDb restarted;
  if (options.trace) {
    ios::ProfileDb built;
    run.traced_setup_pass(built, build_path);
  } else {
    run.untraced_round(build_path, kColdThreads, -1, false);
  }
  // Part 2: read it back from disk as a restarted process would. A copy
  // under a new path forces a parse: the Optimizer keeps each path it has
  // opened in memory for the life of the process.
  fs::copy_file(build_path, restart_path, fs::copy_options::overwrite_existing);
  if (options.trace) {
    const int span = run.tracer().begin("runtime.db_parse", -1);
    restarted = ios::ProfileDb::load(restart_path);
    run.tracer().end(span);
  }
  run.untraced_round(restart_path, kWarmThreads, 0, false);
  signal_ready();
  if (options.setup_only) return report;

  struct stat before {};
  ::stat(restart_path.c_str(), &before);
  bool on_disk = true;
  measure_rounds(options.seconds, [&] {
    run.untraced_round(restart_path, kWarmThreads, 0, true);
    if (options.trace) run.traced_round(&restarted, restart_path, &on_disk, kWarmThreads, false);
  });
  struct stat after {};
  ::stat(restart_path.c_str(), &after);
  report.check(before.st_ino == after.st_ino && before.st_mtim.tv_sec == after.st_mtim.tv_sec &&
                   before.st_mtim.tv_nsec == after.st_mtim.tv_nsec,
               "a warm round rewrote the profile database");

  if (options.trace) {
    run.report_layers();
    const auto [parse_ms, parses] = run.setup_spans("runtime.db_parse");
    const auto [save_ms, saves] = run.setup_spans("runtime.db_save");
    report.check(parses == 1, "set-up did not read the profile db back");
    report.set("runtime.db_parse_ms", parse_ms, "ms");
    report.set("runtime.db_save_ms", save_ms, "ms");
    report.set("runtime.db_saves", saves, "count");
    write_trace(options, run.tracer());
  } else {
    run.report_end_to_end();
  }
  return report;
}

}  // namespace iosbench
