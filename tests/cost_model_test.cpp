#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "models/models.hpp"
#include "runtime/cost_model.hpp"
#include "schedule/baselines.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ios {
namespace {

ExecConfig v100_config() { return ExecConfig{tesla_v100(), {}}; }

/// Seeded random stages of `g`: concurrent stages over random op subsets of
/// one block, grouped either into weakly connected components or at random,
/// and merge stages over mergeable sibling sets.
std::vector<Stage> random_stages(const Graph& g, std::uint64_t seed,
                                 int count) {
  std::vector<std::vector<OpId>> mergeable;
  for (const Op& op : g.ops()) {
    const auto succs = g.succs(op.id);
    for (std::size_t i = 0; i + 1 < succs.size(); ++i) {
      const OpId pair[] = {succs[i], succs[i + 1]};
      if (analyze_merge(g, pair)) mergeable.push_back({pair[0], pair[1]});
    }
    if (succs.size() > 2 && analyze_merge(g, succs)) {
      mergeable.emplace_back(succs.begin(), succs.end());
    }
  }
  const std::vector<std::vector<OpId>> blocks = g.blocks();
  Rng rng(seed);
  std::vector<Stage> stages;
  while (static_cast<int>(stages.size()) < count) {
    Stage stage;
    if (!mergeable.empty() && rng.uniform_int(8) == 0) {
      stage.strategy = StageStrategy::kMerge;
      stage.groups.push_back(
          Group{mergeable[static_cast<std::size_t>(
              rng.uniform_int(static_cast<int>(mergeable.size())))]});
      stages.push_back(std::move(stage));
      continue;
    }
    const auto& block = blocks[static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(blocks.size())))];
    if (block.empty()) continue;
    std::vector<OpId> ops;
    const double keep = 0.1 + 0.5 * rng.uniform();
    for (OpId id : block) {
      if (ops.size() < 12 && rng.bernoulli(keep)) ops.push_back(id);
    }
    if (ops.empty()) ops.push_back(block.front());
    if (rng.bernoulli(0.5)) {
      stage.groups = partition_groups(g, ops);
    } else {
      stage.groups.resize(static_cast<std::size_t>(1 + rng.uniform_int(4)));
      for (OpId id : ops) {
        stage.groups[static_cast<std::size_t>(rng.uniform_int(
                         static_cast<int>(stage.groups.size())))]
            .ops.push_back(id);
      }
    }
    stages.push_back(std::move(stage));
  }
  return stages;
}

TEST(CostModel, CachesRepeatedMeasurements) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  const Schedule q = sequential_schedule(g);
  const double first = cost.measure(q.stages[0]);
  const auto measurements = cost.num_measurements();
  const double second = cost.measure(q.stages[0]);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(cost.num_measurements(), measurements);  // cache hit
}

TEST(CostModel, DistinctStagesMeasuredSeparately) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  const Schedule q = sequential_schedule(g);
  cost.measure(q.stages[0]);
  cost.measure(q.stages[1]);
  EXPECT_EQ(cost.num_measurements(), 2);
}

TEST(CostModel, StrategyPartOfCacheKey) {
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1});
  CostModel cost(g, v100_config());
  Stage concurrent{StageStrategy::kConcurrent, {Group{{a}}, Group{{b}}}};
  Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  cost.measure(concurrent);
  cost.measure(merged);
  EXPECT_EQ(cost.num_measurements(), 2);
}

TEST(CostModel, ProfilingCostAccumulatesPerProtocol) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config(), /*warmup=*/2, /*repeats=*/5);
  const Schedule q = sequential_schedule(g);
  const double latency = cost.measure(q.stages[0]);
  EXPECT_DOUBLE_EQ(cost.profiling_cost_us(), latency * 7);
}

TEST(CostModel, ResetCounters) {
  const Graph g = models::fig5_graph(1);
  CostModel cost(g, v100_config());
  cost.measure(sequential_schedule(g).stages[0]);
  cost.reset_counters();
  EXPECT_EQ(cost.num_measurements(), 0);
  EXPECT_DOUBLE_EQ(cost.profiling_cost_us(), 0);
}

TEST(CostModel, GenerateStagePicksCheaperStrategy) {
  // Two mergeable convolutions whose consumers are a concat: merging elides
  // the splits and saves a kernel launch, so merge must win at batch 1.
  Graph g(1);
  const OpId in = g.input(16, 14, 14);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 16, .kh = 1, .kw = 1},
                          "a");
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 16, .kh = 3, .kw = 3,
                                          .ph = 1, .pw = 1},
                          "b");
  const OpId ins[] = {a, b};
  g.concat(ins);
  CostModel cost(g, v100_config());
  const OpId ops[] = {a, b};
  const StageChoice choice = cost.generate_stage(ops);
  EXPECT_EQ(choice.strategy, StageStrategy::kMerge);
  EXPECT_GT(choice.latency_us, 0);
}

TEST(CostModel, SingleShardBehavesLikeDefault) {
  // Shard count is a pure contention knob: values and counters must not
  // depend on it.
  const Graph g = models::squeezenet(1);
  CostModel one(g, v100_config(), ProfilingProtocol{}, /*cache_shards=*/1);
  CostModel many(g, v100_config(), ProfilingProtocol{}, /*cache_shards=*/64);
  EXPECT_EQ(one.num_cache_shards(), 1);
  EXPECT_EQ(many.num_cache_shards(), 64);
  const Schedule q = sequential_schedule(g);
  for (const Stage& s : q.stages) {
    EXPECT_DOUBLE_EQ(one.measure(s), many.measure(s));
  }
  EXPECT_EQ(one.num_measurements(), many.num_measurements());
  EXPECT_DOUBLE_EQ(one.profiling_cost_us(), many.profiling_cost_us());
}

TEST(CostModel, ConcurrentMeasurementsCountDistinctStagesOnce) {
  // Many threads hammering the same stages: the striped cache must keep the
  // distinct-measurement counter exact.
  const Graph g = models::squeezenet(1);
  CostModel cost(g, v100_config());
  const Schedule q = sequential_schedule(g);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 3; ++rep) {
        for (const Stage& s : q.stages) cost.measure(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CostModel fresh(g, v100_config());
  for (const Stage& s : q.stages) fresh.measure(s);
  EXPECT_EQ(cost.num_measurements(), fresh.num_measurements());
  EXPECT_NEAR(cost.profiling_cost_us(), fresh.profiling_cost_us(),
              1e-9 * fresh.profiling_cost_us());
}

TEST(CostModel, StageFingerprintIsTheCacheKey) {
  // The canonical fingerprint distinguishes strategy and group structure —
  // the properties the cache and the profile database rely on.
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const Stage two_groups{StageStrategy::kConcurrent,
                         {Group{{a}}, Group{{b}}}};
  const Stage one_group{StageStrategy::kConcurrent, {Group{{a, b}}}};
  const Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  EXPECT_NE(stage_fingerprint(two_groups), stage_fingerprint(one_group));
  EXPECT_NE(stage_fingerprint(one_group), stage_fingerprint(merged));
  EXPECT_EQ(stage_fingerprint(merged), stage_fingerprint(merged));
}

TEST(CostModel, GenerateStageFallsBackToConcurrent) {
  // SepConv units cannot merge.
  Graph g(1);
  const OpId in = g.input(16, 14, 14);
  g.begin_block();
  const OpId a = g.sepconv(in, SepConvAttrs{.out_channels = 16});
  const OpId b = g.sepconv(in, SepConvAttrs{.out_channels = 16});
  CostModel cost(g, v100_config());
  const OpId ops[] = {a, b};
  EXPECT_EQ(cost.generate_stage(ops).strategy, StageStrategy::kConcurrent);
}

// The search path (a makespan-only simulation from the executor's kernel
// table) must report exactly what the traced path reports.
TEST(Executor, StageLatencyMatchesTracedRunOnEveryModel) {
  for (const std::string& name : models::model_names()) {
    const Graph g = models::build_model(name, 1);
    const Executor ex(g, v100_config());
    const Engine engine(ex.device());
    const DeviceSpec& dev = ex.device();
    int merges = 0;
    for (const Stage& stage : random_stages(g, 14, 300)) {
      const std::vector<KernelStream> streams = ex.stage_streams(stage);
      double expected = engine.run(streams).makespan_us;
      if (streams.size() > 1) {
        expected +=
            dev.stage_sync_us +
            dev.stream_sync_us * static_cast<double>(streams.size() - 1);
      }
      ASSERT_EQ(ex.stage_latency_us(stage), expected) << name;
      merges += stage.strategy == StageStrategy::kMerge;
    }
    if (name == "inception_v3" || name == "squeezenet") {
      EXPECT_GT(merges, 0) << name;  // the merge path is covered too
    }
  }
}

TEST(Executor, ScheduleLatencyMatchesRunScheduleOnEveryModel) {
  for (const std::string& name : models::model_names()) {
    const Graph g = models::build_model(name, 1);
    CostModel cost(g, v100_config());
    SchedulerOptions options;
    options.prune = PruneMode::kBeam;  // any IOS schedule will do; keep it fast
    options.beam_width = 2;
    const Executor& ex = cost.executor();
    for (const Schedule& q : {IosScheduler(cost, options).schedule_graph(),
                              sequential_schedule(g), greedy_schedule(g)}) {
      EXPECT_EQ(ex.schedule_latency_us(q), ex.run_schedule(q).makespan_us)
          << name;
    }
  }
}

TEST(CostModel, CanonicalKeyHashesTheExpandedStreams) {
  // Canonical keys persist in profile databases, so reading the kernel
  // table must hash exactly what hashing stage_streams() does.
  auto streams_key = [](const CostModel& cost, const Stage& stage) {
    std::uint64_t h = cost.environment_fingerprint();
    for (const KernelStream& stream : cost.executor().stage_streams(stage)) {
      h = hash_combine(h, 0x73ull);
      for (const KernelDesc& k : stream) {
        for (double v : {k.flops, k.bytes, k.warps, k.efficiency}) {
          h = hash_combine(h, std::bit_cast<std::uint64_t>(v));
        }
      }
    }
    return h;
  };
  for (const char* name : {"inception_v3", "nasnet", "randwire"}) {
    const Graph g = models::build_model(name, 1);
    const CostModel cost(g, v100_config());
    for (const Stage& stage : random_stages(g, 3, 200)) {
      ASSERT_EQ(cost.canonical_stage_key(stage), streams_key(cost, stage))
          << name;
    }
  }
  // Pinned keys, as saved profile databases hold them: the expand convs of
  // squeezenet's first fire module, run concurrently and merged.
  const Graph g = models::build_model("squeezenet", 1);
  const CostModel cost(g, v100_config());
  const Stage concurrent{StageStrategy::kConcurrent, {Group{{4}}, Group{{5}}}};
  const Stage merged{StageStrategy::kMerge, {Group{{4, 5}}}};
  EXPECT_EQ(cost.canonical_stage_key(concurrent), 0x695c25a98f6e58ecull);
  EXPECT_EQ(cost.canonical_stage_key(merged), 0xd298d590bc558167ull);
}

TEST(Executor, SequentialLatencyIsSumOfStages) {
  const Graph g = models::fig5_graph(1);
  Executor ex(g, v100_config());
  const Schedule q = sequential_schedule(g);
  double sum = 0;
  for (const Stage& s : q.stages) sum += ex.stage_latency_us(s);
  EXPECT_DOUBLE_EQ(ex.schedule_latency_us(q), sum);
}

TEST(Executor, MultiStreamStagePaysSync) {
  Graph g(1);
  const OpId in = g.input(4, 4, 4);
  g.begin_block();
  const OpId a = g.identity(in, "a");
  const OpId b = g.identity(in, "b");
  Executor ex(g, v100_config());
  Stage two{StageStrategy::kConcurrent, {Group{{a}}, Group{{b}}}};
  Stage one{StageStrategy::kConcurrent, {Group{{a, b}}}};
  const DeviceSpec dev = tesla_v100();
  // Identity kernels are near-free: the two-stream stage is dominated by
  // launch + sync overhead; the single-stream stage only by launches.
  EXPECT_NEAR(ex.stage_latency_us(two),
              dev.kernel_launch_us + dev.stage_sync_us + dev.stream_sync_us,
              1.0);
  EXPECT_NEAR(ex.stage_latency_us(one), 2 * dev.kernel_launch_us, 1.0);
}

TEST(Executor, MergeStageRequiresMergeableOps) {
  Graph g(1);
  const OpId in = g.input(4, 4, 4);
  g.begin_block();
  const OpId a = g.sepconv(in, SepConvAttrs{.out_channels = 4});
  const OpId b = g.sepconv(in, SepConvAttrs{.out_channels = 4});
  Executor ex(g, v100_config());
  Stage bad{StageStrategy::kMerge, {Group{{a, b}}}};
  EXPECT_THROW(ex.stage_latency_us(bad), std::runtime_error);
}

TEST(Executor, RunScheduleTraceSpansAllStages) {
  const Graph g = models::fig2_graph(1);
  Executor ex(g, v100_config());
  const Schedule q = greedy_schedule(g);
  const SimResult r = ex.run_schedule(q);
  EXPECT_EQ(r.makespan_us, ex.schedule_latency_us(q));
  EXPECT_EQ(r.timeline.size(), static_cast<std::size_t>(q.num_ops()));
  EXPECT_FALSE(r.warp_trace.empty());
}

TEST(Executor, SplitElisionForConcatConsumers) {
  // Merged convs feeding only a concat produce no split kernels.
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId ins[] = {a, b};
  g.concat(ins);
  Executor ex(g, v100_config());
  Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  const auto streams = ex.stage_streams(merged);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 1u);  // only the merged conv, no splits
}

TEST(Executor, SplitMaterializedForNonConcatConsumers) {
  Graph g(1);
  const OpId in = g.input(8, 8, 8);
  g.begin_block();
  const OpId a = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  const OpId b = g.conv2d(in, Conv2dAttrs{.out_channels = 8, .kh = 1, .kw = 1});
  g.conv2d(a, Conv2dAttrs{.out_channels = 4, .kh = 1, .kw = 1});  // conv eats a
  const OpId ins[] = {a, b};
  g.concat(ins);
  Executor ex(g, v100_config());
  Stage merged{StageStrategy::kMerge, {Group{{a, b}}}};
  const auto streams = ex.stage_streams(merged);
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].size(), 2u);  // merged conv + split for a only
}

}  // namespace
}  // namespace ios
