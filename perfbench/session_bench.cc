// End-to-end mining-session benchmark.
//
// Times whole mining sessions through the public API on three workloads
// and checks every answer bit for bit against a reference built during
// set-up (see perfbench/README.md for the workloads, the metrics, and
// which layer metric should move which end-to-end metric):
//
//   mem_allpairs      MiningEngine over an in-memory Relation on the
//                     default thread pool (boundary planning + the
//                     row-sharded in-memory scan).
//   disk_partitioned  MiningEngine over a K=4 partitioned table larger
//                     than the default BufferPool (storage readers, the
//                     pool, the coordinator).
//   serve_mix         an in-process MiningServer under an open-loop
//                     Poisson load; a writer republishes the table
//                     between sessions.
//
// Phases (perfbench/run.py drives them):
//   --phase setup    one set-up in a fresh process; prints
//                    {"setup_s":..,"cold_session_s":..}.
//   --phase measure  set-up, reference, then --seconds of sessions;
//                    prints a report and, as the last line, the result
//                    JSON. --trace 0 reports the end-to-end metrics,
//                    --trace 1 the per-layer metrics of a traced run.
//
// Exit codes: 0 ok, 1 a wrong answer (the JSON still prints, with
// "correct": false), 2 usage or environment error (nothing printed).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bucketing/boundaries.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/table_generator.h"
#include "dist/manifest.h"
#include "dist/partitioned_table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/miner.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/buffer_pool.h"
#include "storage/columnar_batch.h"
#include "storage/paged_file.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace optrules::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using rules::MinerOptions;
using rules::MiningEngine;
using serve::QueryAnswer;
using serve::ServeQuery;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ metrics ----

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by --trace 0; BENCHMARK.json lists the same names and units.
/// session_tail_s and cold_session_s are printed in the report but not
/// gated: on this host their run-to-run spreads exceed the largest bound
/// (see README.md). setup_s includes the cold session.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"session_p50_s", "s"},
    {"mrows_per_s", "Mrows/s"}, {"goodput_sps", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Reported by --trace 1, on every workload (0 where a layer does not run
/// or the benchmark cannot observe it there; see README.md).
constexpr MetricDef kPerLayer[] = {
    {"rules.prepare_s", "s"},
    {"rules.prepare_self_s", "s"},
    {"rules.mine_s.allpairs", "s"},
    {"rules.mine_s.sweep", "s"},
    {"rules.mine_s.pair", "s"},
    {"rules.mine_s.generalized", "s"},
    {"rules.counting_scans", "count"},
    {"bucketing.plan_s", "s"},
    {"bucketing.scan_s", "s"},
    {"bucketing.locate_s", "s"},
    {"bucketing.mask_s", "s"},
    {"bucketing.scatter_s", "s"},
    {"bucketing.prescan_s", "s"},
    {"bucketing.shard_skew", "ratio"},
    {"threadpool.tasks", "count"},
    {"threadpool.task_wait_s", "s"},
    {"storage.page_fetches", "count"},
    {"storage.page_loads", "count"},
    {"storage.reuse_ratio", "ratio"},
    {"storage.demand_hit_ratio", "ratio"},
    {"storage.io_wait_s", "s"},
    {"storage.read_s", "s"},
    {"storage.pages_skipped", "count"},
    {"storage.republish_s", "s"},
    {"storage.space_amp", "ratio"},
    {"dist.scan_s", "s"},
    {"dist.partition_scan_s", "s"},
    {"dist.partition_skew", "ratio"},
    {"dist.merge_s", "s"},
    {"dist.partition_scans", "count"},
    {"dist.retries", "count"},
    {"dist.partitions_stolen", "count"},
    {"region.mine_s", "s"},
    {"hull.mine_s", "s"},
    {"hull.contexts_built", "count"},
    {"serve.queue_wait_s", "s"},
    {"serve.window_s", "s"},
    {"serve.sessions_per_window", "ratio"},
    {"serve.sessions_per_scan", "ratio"},
    {"serve.engine_cache_hit_ratio", "ratio"},
    {"serve.supplemental_scans", "count"},
    {"serve.rejected.connection_limit", "count"},
    {"serve.rejected.admission", "count"},
    {"serve.rejected.queue_deadline", "count"},
    {"serve.failed.InvalidArgument", "count"},
    {"serve.failed.NotFound", "count"},
    {"serve.failed.IoError", "count"},
    {"serve.failed.Corruption", "count"},
    {"serve.failed.OutOfRange", "count"},
    {"serve.failed.Internal", "count"},
    {"serve.failed.DeadlineExceeded", "count"},
    {"load.late_p99_s", "s"},
    {"load.failed_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unaccounted_ratio", "ratio"},
    {"trace.dropped_spans", "count"},
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/// A session-latency tail: the nearest-rank quantile `q`, with the number
/// of samples beyond it. Each workload fixes its q (so a faster program,
/// which fits more sessions into a run, is compared at the same
/// percentile): the highest percentile that leaves ten samples beyond it
/// at the workload's nominal session count.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  size_t n = 0;
  size_t beyond = 0;

  std::string Describe() const {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "session_tail_s is p%.1f over n=%zu sessions (%zu beyond "
                  "it%s)",
                  100.0 * q, n, beyond,
                  beyond < 10 ? "; fewer than 10, so a rough tail" : "");
    return line;
  }
};

Tail TailOf(const std::vector<double>& values, double q) {
  Tail tail;
  tail.q = q;
  tail.n = values.size();
  tail.value = Quantile(values, q);
  tail.beyond = static_cast<size_t>(std::count_if(
      values.begin(), values.end(),
      [&](double v) { return v > tail.value; }));
  return tail;
}

/// Per-layer samples by metric name; each metric reports the median of
/// its samples (0 when a layer produced none on this workload).
class Samples {
 public:
  void Add(const std::string& name, double value) {
    if (std::isfinite(value)) samples_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// What one workload run produced.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;  ///< failed + refused + wrong answers
  int64_t wrong = 0;   ///< answers differing from the reference
  bool reference_ok = true;  ///< reference cross-checks passed
  std::map<std::string, int64_t> failures_by_code;
  std::map<std::string, double> end_to_end;
  Samples layers;
  std::vector<std::string> info;  ///< extra report lines
  std::vector<obs::SpanRecord> spans;  ///< every traced span, for the dump

  void Info(const std::string& line) { info.push_back(line); }
  void Fail(const Status& status) {
    ++failed;
    ++failures_by_code[StatusCodeName(status.code())];
  }
  void Wrong() {
    ++failed;
    ++wrong;
    ++failures_by_code["wrong_answer"];
  }
};

// ---------------------------------------------------------- host info ----

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Peak resident set size (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS so the peak covers only the measured
/// sessions. Returns false when the kernel refuses (then the peak
/// includes set-up).
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

// --------------------------------------------------------------- data ----

/// A synthetic table: uniform numeric columns with a few planted
/// numeric -> Boolean rules. With `rare_flag`, the last Boolean column is
/// replaced by a rare flag that is true only inside one contiguous block
/// of rows (2% of the table), so zone maps can prune the pages outside it.
storage::Relation MakeTable(int64_t rows, int num_numeric, int num_boolean,
                            uint64_t seed, bool rare_flag) {
  datagen::TableConfig config;
  config.num_rows = rows;
  config.num_numeric = num_numeric;
  config.num_boolean = num_boolean;
  const int planted =
      std::min({4, num_numeric, num_boolean - (rare_flag ? 1 : 0)});
  for (int r = 0; r < planted; ++r) {
    datagen::PlantedRule rule;
    rule.numeric_attr = r;
    rule.boolean_attr = r;
    rule.lo = 100000.0 + 150000.0 * r;
    rule.hi = rule.lo + 200000.0;
    rule.prob_inside = 0.7;
    rule.prob_outside = 0.1;
    config.planted_rules.push_back(rule);
  }
  Rng rng(seed);
  storage::Relation table = datagen::GenerateTable(config, rng);
  if (rare_flag) {
    std::vector<uint8_t>& flag = table.MutableBooleanColumn(num_boolean - 1);
    const int64_t block = std::max<int64_t>(1, rows / 50);
    const int64_t start =
        static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(
            std::max<int64_t>(1, rows - block))));
    for (int64_t i = 0; i < rows; ++i) {
      flag[static_cast<size_t>(i)] =
          (i >= start && i < start + block && rng.NextBernoulli(0.5)) ? 1
                                                                      : 0;
    }
  }
  return table;
}

/// Bytes of all regular files under `dir`.
int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

/// Raw row bytes: 8 per numeric value plus 1 per Boolean value.
double RawBytes(const storage::Schema& schema, int64_t rows) {
  return static_cast<double>(rows) *
         (8.0 * schema.num_numeric() + schema.num_boolean());
}

/// The table generation the server keys engines by: FNV-1a over the
/// manifest bytes.
Result<uint64_t> ManifestGeneration(const std::string& dir) {
  std::ifstream in(dir + "/" + dist::kManifestFileName, std::ios::binary);
  if (!in) return Status::NotFound("no manifest in " + dir);
  bytes::Fnv1a hash;
  char c = 0;
  while (in.get(c)) hash.Mix(static_cast<uint8_t>(c));
  return hash.digest();
}

/// One full boundary-planning pass over every numeric column of `table`
/// with the session's plan (the engine's base boundary set).
double TimePlanningPass(const storage::Relation& table,
                        const MinerOptions& options) {
  const bucketing::BoundaryPlan plan = rules::ToBoundaryPlan(options);
  const Clock::time_point start = Clock::now();
  int64_t buckets = 0;
  for (int a = 0; a < table.schema().num_numeric(); ++a) {
    buckets += bucketing::BuildBoundaries(table.NumericColumn(a), plan,
                                          static_cast<uint64_t>(a))
                   .num_buckets();
  }
  const double seconds = Since(start);
  OPTRULES_CHECK(buckets > 0);
  return seconds;
}

// ------------------------------------------------------------ answers ----

/// Encodes answers the way the serve protocol ships them (doubles as raw
/// bit patterns), so equal bytes mean bit-identical answers.
std::vector<uint8_t> EncodeAnswers(std::vector<QueryAnswer> answers) {
  serve::SessionReply reply;
  reply.answers = std::move(answers);
  std::vector<uint8_t> out;
  serve::EncodeSessionResult(reply, &out);
  return out;
}

/// Stores a query result in the answer field its type belongs to (or its
/// error in the answer's status), as the serve protocol ships it.
void Store(Result<std::vector<rules::MinedRule>> result, QueryAnswer* a) {
  if (result.ok()) {
    a->rules = std::move(result).value();
  } else {
    a->status = result.status();
  }
}
void Store(Result<rules::MinedAggregateRange> result, QueryAnswer* a) {
  if (result.ok()) {
    a->aggregate = std::move(result).value();
  } else {
    a->status = result.status();
  }
}
void Store(Result<rules::MinedRegion> result, QueryAnswer* a) {
  if (result.ok()) {
    a->region = std::move(result).value();
  } else {
    a->status = result.status();
  }
}

/// Registers the channels `query` needs (before the shared scan).
void Register(MiningEngine* engine, const ServeQuery& query) {
  switch (query.kind) {
    case ServeQuery::Kind::kGeneralized:
      (void)engine->RequestGeneralized(query.conditions);
      break;
    case ServeQuery::Kind::kAverageRange:
    case ServeQuery::Kind::kSupportRange:
      (void)engine->RequestAverageTarget(query.attr_b);
      break;
    case ServeQuery::Kind::kRegion:
      (void)engine->RequestRegionPair(query.attr_a, query.attr_b);
      break;
    case ServeQuery::Kind::kAllPairs:
    case ServeQuery::Kind::kPair:
      break;
  }
}

/// Answers `query` from a standalone engine, as the server would.
QueryAnswer Answer(MiningEngine* engine, const ServeQuery& query) {
  QueryAnswer answer;
  switch (query.kind) {
    case ServeQuery::Kind::kAllPairs:
      answer.rules = engine->MineAllPairs();
      break;
    case ServeQuery::Kind::kPair:
      Store(engine->MinePair(query.attr_a, query.attr_b), &answer);
      break;
    case ServeQuery::Kind::kGeneralized:
      Store(engine->MineGeneralized(query.attr_a, query.conditions,
                                    query.attr_b),
            &answer);
      break;
    case ServeQuery::Kind::kAverageRange:
      Store(engine->MineMaximumAverageRange(query.attr_a, query.attr_b,
                                            query.threshold),
            &answer);
      break;
    case ServeQuery::Kind::kSupportRange:
      Store(engine->MineMaximumSupportRange(query.attr_a, query.attr_b,
                                            query.threshold),
            &answer);
      break;
    case ServeQuery::Kind::kRegion:
      Store(engine->MineOptimizedRegion(query.attr_a, query.attr_b,
                                        query.target),
            &answer);
      break;
  }
  return answer;
}

// ------------------------------------------------------ local session ----

/// The session of the closed-loop workloads: one generalized condition,
/// one average target and one region pair registered up front, then the
/// all-pairs rules, a 3-set threshold sweep, one pair, and the
/// generalized, average and region queries. Attributes are drawn from the
/// seed.
struct SessionSpec {
  std::string condition;
  std::string gen_numeric, gen_objective;
  std::string avg_range, avg_target;
  std::string region_x, region_y, region_target;
  std::string pair_numeric, pair_boolean;
};

SessionSpec MakeSessionSpec(const storage::Schema& schema, uint64_t seed) {
  Rng rng(seed ^ 0x5e55107ull);
  const int nn = schema.num_numeric();
  const int nb = schema.num_boolean();
  auto num = [&](int i) { return schema.NumericName(i); };
  auto boolean = [&](int i) { return schema.BooleanName(i); };
  const int x = static_cast<int>(rng.NextBounded(nn));
  const int y = (x + 1 + static_cast<int>(rng.NextBounded(nn - 1))) % nn;
  const int c = static_cast<int>(rng.NextBounded(nb));
  const int o = (c + 1 + static_cast<int>(rng.NextBounded(nb - 1))) % nb;
  SessionSpec spec;
  spec.condition = boolean(c);
  spec.gen_numeric = num(static_cast<int>(rng.NextBounded(nn)));
  spec.gen_objective = boolean(o);
  spec.avg_range = num(x);
  spec.avg_target = num(y);
  spec.region_x = num(y);
  spec.region_y = num(x);
  spec.region_target = boolean(static_cast<int>(rng.NextBounded(nb)));
  spec.pair_numeric = num(static_cast<int>(rng.NextBounded(nn)));
  spec.pair_boolean = boolean(static_cast<int>(rng.NextBounded(nb)));
  return spec;
}

constexpr rules::ThresholdSet kSweep[] = {
    {0.01, 0.3}, {0.10, 0.6}, {0.25, 0.9}};

/// One whole session: engine construction to last answer.
struct SessionRun {
  double wall_s = 0.0;
  Status status;
  std::vector<QueryAnswer> answers;
  int64_t counting_scans = 0;
  int64_t hull_contexts = 0;
};

using EngineFactory = std::function<std::unique_ptr<MiningEngine>()>;

/// Runs one session. Every call into the library sits in a benchmark-side
/// span, so the library's own spans (bucketing.scan, dist.scan, ...) nest
/// under bench.prepare when the tracer is on.
SessionRun RunSession(const EngineFactory& make, const SessionSpec& spec) {
  SessionRun run;
  const Clock::time_point start = Clock::now();
  obs::Span session_span("bench.session");
  std::unique_ptr<MiningEngine> engine;
  {
    obs::Span span("bench.engine");
    engine = make();
    for (const Status& s :
         {engine->RequestGeneralized({spec.condition}),
          engine->RequestAverageTarget(spec.avg_target),
          engine->RequestRegionPair(spec.region_x, spec.region_y)}) {
      if (!s.ok() && run.status.ok()) run.status = s;
    }
  }
  if (run.status.ok()) {
    obs::Span span("bench.prepare");
    run.status = engine->TryPrepare();
  }
  if (!run.status.ok()) {
    run.wall_s = Since(start);
    return run;
  }
  run.answers.resize(6);
  {
    obs::Span span("bench.mine.allpairs");
    run.answers[0].rules = engine->MineAllPairs();
  }
  {
    obs::Span span("bench.mine.sweep");
    run.answers[1].rules = engine->MineAllPairs(kSweep);
  }
  {
    obs::Span span("bench.mine.pair");
    Store(engine->MinePair(spec.pair_numeric, spec.pair_boolean),
          &run.answers[2]);
  }
  {
    obs::Span span("bench.mine.generalized");
    Store(engine->MineGeneralized(spec.gen_numeric, {spec.condition},
                                  spec.gen_objective),
          &run.answers[3]);
  }
  {
    obs::Span span("bench.mine.average");
    Store(engine->MineMaximumAverageRange(spec.avg_range, spec.avg_target,
                                          0.05),
          &run.answers[4]);
  }
  {
    obs::Span span("bench.mine.region");
    Store(engine->MineOptimizedRegion(spec.region_x, spec.region_y,
                                      spec.region_target),
          &run.answers[5]);
  }
  run.wall_s = Since(start);
  run.counting_scans = engine->counting_scans();
  run.hull_contexts = engine->hull_contexts_built();
  return run;
}

// -------------------------------------------------------------- trace ----

/// Takes every buffered span out of the process tracer. Called only at
/// quiescent points (no library span can finish concurrently), so nothing
/// recorded between the snapshot and the clear is lost.
std::vector<obs::SpanRecord> DrainSpans() {
  obs::Tracer& tracer = obs::Tracer::Default();
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  tracer.Clear();
  return spans;
}

/// Parent -> children lookup over one batch of spans.
class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<obs::SpanRecord>& spans)
      : spans_(spans) {
    for (size_t i = 0; i < spans_.size(); ++i) {
      children_[spans_[i].parent_id].push_back(i);
    }
  }

  std::vector<const obs::SpanRecord*> Named(std::string_view name) const {
    std::vector<const obs::SpanRecord*> out;
    for (const obs::SpanRecord& span : spans_) {
      if (span.name == name) out.push_back(&span);
    }
    return out;
  }

  /// Direct children of `parent`, optionally only those named `name`.
  std::vector<const obs::SpanRecord*> Children(
      const obs::SpanRecord& parent, std::string_view name = {}) const {
    std::vector<const obs::SpanRecord*> out;
    auto it = children_.find(parent.id);
    if (it == children_.end()) return out;
    for (const size_t i : it->second) {
      if (name.empty() || spans_[i].name == name) out.push_back(&spans_[i]);
    }
    return out;
  }

 private:
  const std::vector<obs::SpanRecord>& spans_;
  std::map<uint64_t, std::vector<size_t>> children_;
};

double DurationSum(const std::vector<const obs::SpanRecord*>& spans) {
  double total = 0.0;
  for (const obs::SpanRecord* span : spans) total += span->duration_seconds;
  return total;
}

/// Per-layer samples that come from span durations: stage times of the
/// benchmark's own spans, and scan structure from the library's spans.
void SampleSpans(const std::vector<obs::SpanRecord>& spans,
                 Samples* samples) {
  const SpanIndex index(spans);
  for (const obs::SpanRecord* prepare : index.Named("bench.prepare")) {
    samples->Add("rules.prepare_s", prepare->duration_seconds);
    samples->Add("rules.prepare_self_s",
                 prepare->duration_seconds -
                     DurationSum(index.Children(*prepare)));
  }
  const std::pair<const char*, const char*> stages[] = {
      {"bench.mine.allpairs", "rules.mine_s.allpairs"},
      {"bench.mine.sweep", "rules.mine_s.sweep"},
      {"bench.mine.pair", "rules.mine_s.pair"},
      {"bench.mine.generalized", "rules.mine_s.generalized"},
      {"bench.mine.average", "hull.mine_s"},
      {"bench.mine.region", "region.mine_s"},
  };
  for (const auto& [span_name, metric] : stages) {
    for (const obs::SpanRecord* span : index.Named(span_name)) {
      samples->Add(metric, span->duration_seconds);
    }
  }
  for (const obs::SpanRecord* scan : index.Named("bucketing.scan")) {
    samples->Add("bucketing.scan_s", scan->duration_seconds);
    const auto shards = index.Children(*scan, "bucketing.shard");
    if (shards.empty()) continue;
    double first = shards.front()->start_seconds;
    double longest = 0.0;
    std::vector<double> durations;
    for (const obs::SpanRecord* shard : shards) {
      first = std::min(first, shard->start_seconds);
      longest = std::max(longest, shard->duration_seconds);
      durations.push_back(shard->duration_seconds);
    }
    double wait = 0.0;
    for (const obs::SpanRecord* shard : shards) {
      wait += shard->start_seconds - first;
    }
    samples->Add("bucketing.prescan_s", first - scan->start_seconds);
    samples->Add("bucketing.shard_skew", longest / Median(durations));
    samples->Add("threadpool.task_wait_s",
                 wait / static_cast<double>(shards.size()));
  }
  for (const obs::SpanRecord* scan : index.Named("dist.scan")) {
    samples->Add("dist.scan_s", scan->duration_seconds);
    const auto parts = index.Children(*scan, "dist.partition");
    if (parts.empty()) continue;
    double longest = 0.0;
    std::vector<double> durations;
    for (const obs::SpanRecord* part : parts) {
      samples->Add("dist.partition_scan_s", part->duration_seconds);
      longest = std::max(longest, part->duration_seconds);
      durations.push_back(part->duration_seconds);
    }
    samples->Add("dist.partition_skew", longest / Median(durations));
    samples->Add("dist.merge_s", scan->duration_seconds - longest);
  }
  // Closed-loop sessions only: their stages are children of the session
  // span (a served session's client span has none; see RunServeMix).
  for (const obs::SpanRecord* session : index.Named("bench.session")) {
    const auto stages = index.Children(*session);
    if (stages.empty() || session->duration_seconds <= 0.0) continue;
    samples->Add("trace.unaccounted_ratio",
                 (session->duration_seconds - DurationSum(stages)) /
                     session->duration_seconds);
  }
}

/// Registry instruments moved over an interval.
class RegistryDelta {
 public:
  RegistryDelta() : before_(obs::MetricsRegistry::Default().Snapshot()) {}

  void Finish() { after_ = obs::MetricsRegistry::Default().Snapshot(); }

  double Counter(const std::string& name) const {
    return static_cast<double>(Get(after_.counters, name) -
                               Get(before_.counters, name));
  }
  double HistSum(const std::string& name) const {
    return HistField(name, [](const obs::HistogramSnapshot& h) {
      return h.sum;
    });
  }
  double HistCount(const std::string& name) const {
    return HistField(name, [](const obs::HistogramSnapshot& h) {
      return static_cast<double>(h.count);
    });
  }

 private:
  static int64_t Get(const std::map<std::string, int64_t>& map,
                     const std::string& name) {
    auto it = map.find(name);
    return it == map.end() ? 0 : it->second;
  }
  template <typename F>
  double HistField(const std::string& name, F field) const {
    auto a = after_.histograms.find(name);
    if (a == after_.histograms.end()) return 0.0;
    auto b = before_.histograms.find(name);
    return field(a->second) -
           (b == before_.histograms.end() ? 0.0 : field(b->second));
  }

  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

/// Buffer-pool residency, for deriving page loads: the pool's hit/miss
/// counters see only demand fetches (prefetch loads bypass them), so
/// loads = evictions + growth in resident pages.
double PoolBytes() {
  storage::BufferPool* pool = storage::BufferPool::Default();
  return pool == nullptr ? 0.0 : static_cast<double>(pool->bytes_used());
}

/// Per-layer samples from registry deltas, per session.
void SampleRegistry(const RegistryDelta& delta, double sessions,
                    double pool_growth_bytes, double page_bytes,
                    Samples* samples) {
  const double scans = delta.Counter("scan.executions");
  if (scans > 0) {
    samples->Add("bucketing.locate_s",
                 delta.HistSum("scan.locate_seconds") / scans);
    samples->Add("bucketing.mask_s",
                 delta.HistSum("scan.mask_seconds") / scans);
    samples->Add("bucketing.scatter_s",
                 delta.HistSum("scan.scatter_seconds") / scans);
  }
  samples->Add("threadpool.tasks",
               delta.Counter("threadpool.tasks") / sessions);
  const double hits = delta.Counter("bufferpool.hits");
  const double fetches = hits + delta.Counter("bufferpool.misses");
  const double loads =
      delta.Counter("bufferpool.evictions") +
      (page_bytes > 0 ? std::max(0.0, pool_growth_bytes) / page_bytes : 0.0);
  samples->Add("storage.page_fetches", fetches / sessions);
  samples->Add("storage.page_loads", loads / sessions);
  if (fetches > 0) {
    samples->Add("storage.reuse_ratio",
                 std::max(0.0, 1.0 - loads / fetches));
    samples->Add("storage.demand_hit_ratio", hits / fetches);
  }
  samples->Add("storage.io_wait_s",
               delta.HistSum("storage.page_io_wait_seconds") / sessions);
  samples->Add("storage.pages_skipped",
               delta.Counter("storage.pages_skipped") / sessions);
  samples->Add("dist.partition_scans",
               delta.Counter("dist.partition_scans") / sessions);
  samples->Add("dist.retries", delta.Counter("dist.retries") / sessions);
  samples->Add("dist.partitions_stolen",
               delta.Counter("dist.partitions_stolen") / sessions);
}

// ---------------------------------------------------------- workloads ----

struct Args {
  std::string workload;
  std::string phase = "measure";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  bool corrupt_reference = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  std::vector<double> extra_setup;
  std::vector<double> extra_cold;
  std::vector<double> extra_rss;
};

/// A private scratch directory, removed at exit.
class WorkDir {
 public:
  WorkDir(const std::string& root, const std::string& workload)
      : path_(root + "/" + workload + "-" + std::to_string(::getpid())) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Set-up results shared by the phases.
struct SetupResult {
  double setup_s = 0.0;
  double cold_session_s = 0.0;
};

/// Peak RSS of one warm session: the second session of a set-up-only
/// process. Allocator state differs from process to process, so the
/// closed loops take peak_rss_mb as a median over processes.
double WarmSessionPeakRss(const EngineFactory& make,
                          const SessionSpec& spec) {
  ResetPeakRss();
  const SessionRun run = RunSession(make, spec);
  return run.status.ok() ? PeakRssMb() : 0.0;
}

/// Fills the end-to-end metrics common to both closed-loop workloads.
void ClosedLoopMetrics(const std::vector<double>& walls, int64_t good,
                       double loop_wall, int64_t rows, Outcome* out) {
  // About 20 sessions fit a 20 s run of either closed-loop workload, so
  // p90 is as far into the tail as the samples reach.
  const Tail tail = TailOf(walls, 0.9);
  out->end_to_end["session_p50_s"] = Median(walls);
  out->end_to_end["session_tail_s"] = tail.value;
  out->end_to_end["mrows_per_s"] =
      static_cast<double>(rows) * static_cast<double>(good) / loop_wall /
      1e6;
  out->end_to_end["goodput_sps"] = static_cast<double>(good) / loop_wall;
  out->Info(tail.Describe());
}

/// Latency limit of goodput for the closed-loop workloads: a session
/// counts as good when correct and done within this many seconds.
constexpr double kClosedLoopLimitS = 10.0;

/// The closed-loop measurement shared by mem_allpairs and
/// disk_partitioned: sessions back to back for `seconds`, each compared
/// with the reference bytes. Traced runs alternate untraced and traced
/// sessions (per-layer samples come from the traced ones only).
void RunClosedLoop(const EngineFactory& make, const SessionSpec& spec,
                   const std::vector<uint8_t>& reference, const Args& args,
                   int64_t rows, double page_bytes, Outcome* out) {
  obs::Tracer& tracer = obs::Tracer::Default();
  std::vector<double> walls, traced_walls, rss_mb;
  int64_t good = 0;
  bool reset = true;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    std::optional<RegistryDelta> delta;
    double pool_before = 0.0;
    if (traced) {
      delta.emplace();
      pool_before = PoolBytes();
      tracer.set_enabled(true);
    }
    reset = ResetPeakRss() && reset;
    SessionRun run = RunSession(make, spec);
    rss_mb.push_back(PeakRssMb());
    if (traced) {
      tracer.set_enabled(false);
      delta->Finish();
      std::vector<obs::SpanRecord> spans = DrainSpans();
      SampleSpans(spans, &out->layers);
      SampleRegistry(*delta, 1.0, PoolBytes() - pool_before, page_bytes,
                     &out->layers);
      out->layers.Add("rules.counting_scans",
                      static_cast<double>(run.counting_scans));
      out->layers.Add("hull.contexts_built",
                      static_cast<double>(run.hull_contexts));
      out->spans.insert(out->spans.end(), spans.begin(), spans.end());
    }
    ++out->attempted;
    if (!run.status.ok()) {
      out->Fail(run.status);
    } else if (EncodeAnswers(std::move(run.answers)) != reference) {
      out->Wrong();
    } else {
      (traced ? traced_walls : walls).push_back(run.wall_s);
      if (run.wall_s <= kClosedLoopLimitS) ++good;
    }
    const bool enough = !args.trace || (walls.size() >= 2 &&
                                        traced_walls.size() >= 2);
    if (Since(start) >= args.seconds && enough) break;
  }
  const double loop_wall = Since(start);
  std::string list = "session walls (s):";
  for (const double wall : walls) {
    char item[16];
    std::snprintf(item, sizeof(item), " %.3f", wall);
    list += item;
  }
  out->Info(list);
  ClosedLoopMetrics(walls, good, loop_wall, rows, out);
  out->end_to_end["peak_rss_mb"] = Median(rss_mb);
  if (!reset) out->Info("peak_rss_mb includes set-up (VmHWM not resettable)");
  if (args.trace && !walls.empty() && !traced_walls.empty()) {
    out->layers.Add("trace.overhead_ratio",
                    Median(traced_walls) / Median(walls));
  }
}

/// Corrupts one byte of a reference (self-test of the correctness gate).
void MaybeCorrupt(const Args& args, std::vector<uint8_t>* reference) {
  if (args.corrupt_reference && !reference->empty()) {
    (*reference)[reference->size() / 2] ^= 0x01;
  }
}

// ------------------------------------------------------- mem_allpairs ----

struct MemShape {
  int64_t rows;
  int num_numeric;
  int num_boolean;
  int num_buckets;
};

MemShape MemShapeFor(const Args& args) {
  return args.toy ? MemShape{20000, 6, 6, 100}
                  : MemShape{1000000, 20, 20, 1000};
}

MinerOptions MemOptions(const MemShape& shape) {
  MinerOptions options;
  options.num_buckets = shape.num_buckets;
  return options;
}

/// Set-up: generate the relation, then the first (cold) session of the
/// process on the default pool.
SetupResult MemSetup(const Args& args, storage::Relation* table,
                     SessionRun* warmup) {
  const MemShape shape = MemShapeFor(args);
  const Clock::time_point start = Clock::now();
  *table = MakeTable(shape.rows, shape.num_numeric, shape.num_boolean,
                     args.seed, false);
  const MinerOptions options = MemOptions(shape);
  const SessionSpec spec = MakeSessionSpec(table->schema(), args.seed);
  *warmup = RunSession(
      [&] {
        return std::make_unique<MiningEngine>(table, options,
                                              &DefaultThreadPool());
      },
      spec);
  return {Since(start), warmup->wall_s};
}

/// Cross-checks the serial reference against the legacy per-attribute
/// Miner: all pairs, the pair, and the generalized, average and region
/// queries (the legacy miner has no threshold sweep).
bool LegacyCrossCheck(const storage::Relation& table,
                      const MinerOptions& options, const SessionSpec& spec,
                      const std::vector<QueryAnswer>& reference,
                      Outcome* out) {
  rules::Miner miner(&table, options);
  std::vector<QueryAnswer> legacy(6);
  legacy[0].rules = miner.MineAll();
  Store(miner.MinePair(spec.pair_numeric, spec.pair_boolean), &legacy[2]);
  Store(miner.MineGeneralized(spec.gen_numeric, {spec.condition},
                              spec.gen_objective),
        &legacy[3]);
  Store(miner.MineMaximumAverageRange(spec.avg_range, spec.avg_target, 0.05),
        &legacy[4]);
  Store(miner.MineOptimizedRegion(spec.region_x, spec.region_y,
                                  spec.region_target),
        &legacy[5]);
  const char* names[] = {"all pairs", "", "pair", "generalized", "average",
                         "region"};
  bool ok = true;
  for (const size_t q : {0, 2, 3, 4, 5}) {
    if (EncodeAnswers({legacy[q]}) != EncodeAnswers({reference[q]})) {
      out->Info(std::string("legacy Miner disagrees with the serial engine "
                            "on the ") +
                names[q] + " query");
      ok = false;
    }
  }
  return ok;
}

Outcome RunMemAllPairs(const Args& args, SetupResult* setup) {
  Outcome out;
  storage::Relation table;
  SessionRun warmup;
  *setup = MemSetup(args, &table, &warmup);
  const MemShape shape = MemShapeFor(args);
  const MinerOptions options = MemOptions(shape);
  const SessionSpec spec = MakeSessionSpec(table.schema(), args.seed);

  // Reference: the same session on a one-thread pool. A pool of any size
  // takes the same row-shard layout, so its bits must equal the 4-thread
  // sessions'; it is itself cross-checked against the legacy Miner.
  ThreadPool serial_pool(1);
  SessionRun reference = RunSession(
      [&] {
        return std::make_unique<MiningEngine>(&table, options, &serial_pool);
      },
      spec);
  if (!reference.status.ok()) {
    out.Info("reference session failed: " + reference.status.ToString());
    out.reference_ok = false;
  }
  if (out.reference_ok &&
      !LegacyCrossCheck(table, options, spec, reference.answers, &out)) {
    out.reference_ok = false;
  }
  std::vector<uint8_t> reference_bytes = EncodeAnswers(reference.answers);
  MaybeCorrupt(args, &reference_bytes);
  if (!warmup.status.ok()) {
    out.Info("warm-up session failed: " + warmup.status.ToString());
    out.reference_ok = false;
  } else if (EncodeAnswers(warmup.answers) != reference_bytes) {
    out.Info("warm-up session disagrees with the reference");
    out.reference_ok = false;
  }
  if (args.trace) {
    std::vector<double> plans;
    for (int r = 0; r < 3; ++r) {
      plans.push_back(TimePlanningPass(table, options));
    }
    out.layers.Add("bucketing.plan_s", Median(plans));
  }

  RunClosedLoop(
      [&] {
        return std::make_unique<MiningEngine>(&table, options,
                                              &DefaultThreadPool());
      },
      spec, reference_bytes, args, shape.rows, 0.0, &out);
  char line[200];
  std::snprintf(line, sizeof(line),
                "table: %lld rows x %d numeric x %d Boolean in memory, M=%d, "
                "pool %d threads",
                static_cast<long long>(shape.rows), shape.num_numeric,
                shape.num_boolean, shape.num_buckets,
                DefaultThreadPool().size());
  out.Info(line);
  return out;
}

// --------------------------------------------------- disk_partitioned ----

struct DiskShape {
  int64_t rows;
  int num_numeric;
  int num_boolean;
  int num_buckets;
  int partitions;
};

DiskShape DiskShapeFor(const Args& args) {
  return args.toy ? DiskShape{40000, 4, 4, 100, 4}
                  : DiskShape{2000000, 8, 8, 1000, 4};
}

/// Set-up: generate, write the K-partition table (v2 pages with zone
/// maps, the writer default), then the first session of the process.
SetupResult DiskSetup(const Args& args, const std::string& dir,
                      storage::Relation* table,
                      std::unique_ptr<dist::PartitionedTable>* opened,
                      SessionRun* warmup, double* write_s) {
  const DiskShape shape = DiskShapeFor(args);
  const Clock::time_point start = Clock::now();
  *table = MakeTable(shape.rows, shape.num_numeric, shape.num_boolean,
                     args.seed, false);
  dist::PartitionOptions partition;
  partition.num_partitions = shape.partitions;
  const Clock::time_point write_start = Clock::now();
  Result<dist::PartitionedTable> written =
      dist::PartitionRelation(*table, dir, partition);
  *write_s = Since(write_start);
  if (!written.ok()) {
    warmup->status = written.status();
    return {Since(start), 0.0};
  }
  *opened = std::make_unique<dist::PartitionedTable>(
      std::move(written).value());
  MinerOptions options;
  options.num_buckets = shape.num_buckets;
  const SessionSpec spec = MakeSessionSpec(table->schema(), args.seed);
  const dist::PartitionedTable* t = opened->get();
  *warmup = RunSession(
      [&] { return std::make_unique<MiningEngine>(t, options); }, spec);
  return {Since(start), warmup->wall_s};
}

/// Drains every partition through a plain PagedFileBatchSource reader
/// without counting: the storage read floor of one pass over the table.
double TimeReadPass(const dist::PartitionedTable& table) {
  const Clock::time_point start = Clock::now();
  int64_t rows = 0;
  for (int p = 0; p < table.num_partitions(); ++p) {
    auto source = storage::PagedFileBatchSource::Open(table.PartitionPath(p));
    OPTRULES_CHECK(source.ok());
    std::unique_ptr<storage::BatchReader> reader =
        source.value()->CreateReader();
    storage::ColumnarBatch batch;
    while (reader->Next(&batch)) rows += batch.num_rows();
  }
  const double seconds = Since(start);
  OPTRULES_CHECK(rows == table.total_rows());
  return seconds;
}

/// Storage metrics that describe the table rather than a session.
void SampleTableStorage(const dist::PartitionedTable& table, Outcome* out) {
  std::vector<double> reads;
  for (int r = 0; r < 3; ++r) reads.push_back(TimeReadPass(table));
  out->layers.Add("storage.read_s", Median(reads));
  out->layers.Add("storage.space_amp",
                  static_cast<double>(DirectoryBytes(table.dir())) /
                      RawBytes(table.schema(), table.total_rows()));
}

double PageBytes(const dist::PartitionedTable& table) {
  Result<storage::PagedFileInfo> info =
      storage::ReadPagedFileInfo(table.PartitionPath(0));
  return info.ok() && info.value().format_version == 2
             ? static_cast<double>(info.value().page_stride())
             : 0.0;
}

Outcome RunDiskPartitioned(const Args& args, const WorkDir& work,
                           SetupResult* setup) {
  Outcome out;
  const DiskShape shape = DiskShapeFor(args);
  storage::Relation table;
  std::unique_ptr<dist::PartitionedTable> opened;
  SessionRun warmup;
  double write_s = 0.0;
  *setup = DiskSetup(args, work.path() + "/table", &table, &opened, &warmup,
                     &write_s);
  if (opened == nullptr) {
    out.Info("writing the table failed: " + warmup.status.ToString());
    out.reference_ok = false;
    return out;
  }
  MinerOptions options;
  options.num_buckets = shape.num_buckets;
  const SessionSpec spec = MakeSessionSpec(table.schema(), args.seed);
  if (args.trace) {
    std::vector<double> plans;
    for (int r = 0; r < 3; ++r) {
      plans.push_back(TimePlanningPass(table, options));
    }
    out.layers.Add("bucketing.plan_s", Median(plans));
    out.layers.Add("storage.republish_s", write_s);
  }
  table = storage::Relation();  // sessions read only the disk copy

  // Reference: the same session with one worker slot. The coordinator
  // merges partials in partition order, so worker count never changes
  // bits.
  const dist::PartitionedTable* t = opened.get();
  dist::DistributedScanOptions one_worker;
  one_worker.max_workers = 1;
  SessionRun reference = RunSession(
      [&] { return std::make_unique<MiningEngine>(t, options, one_worker); },
      spec);
  if (!reference.status.ok()) {
    out.Info("reference session failed: " + reference.status.ToString());
    out.reference_ok = false;
  }
  std::vector<uint8_t> reference_bytes = EncodeAnswers(reference.answers);
  MaybeCorrupt(args, &reference_bytes);
  if (!warmup.status.ok() ||
      EncodeAnswers(warmup.answers) != reference_bytes) {
    out.Info("warm-up session failed or disagrees with the reference");
    out.reference_ok = false;
  }

  RunClosedLoop([&] { return std::make_unique<MiningEngine>(t, options); },
                spec, reference_bytes, args, shape.rows, PageBytes(*t),
                &out);
  if (args.trace) SampleTableStorage(*t, &out);
  const double on_disk = static_cast<double>(DirectoryBytes(t->dir()));
  const storage::BufferPool* pool = storage::BufferPool::Default();
  char line[240];
  std::snprintf(line, sizeof(line),
                "table: %lld rows x %d numeric x %d Boolean, K=%d, %.1f MB on "
                "disk = %.2fx the %.1f MB buffer pool",
                static_cast<long long>(shape.rows), shape.num_numeric,
                shape.num_boolean, shape.partitions, on_disk / 1e6,
                pool == nullptr ? 0.0
                                : on_disk / static_cast<double>(
                                                pool->capacity_bytes()),
                pool == nullptr ? 0.0 : pool->capacity_bytes() / 1e6);
  out.Info(line);
  std::snprintf(line, sizeof(line),
                "space_amp %.4f (bytes on disk / raw row bytes); table write "
                "%.3f s",
                on_disk / RawBytes(t->schema(), t->total_rows()), write_s);
  out.Info(line);
  return out;
}

// ----------------------------------------------------------- serve_mix ----

struct ServeShape {
  int64_t rows;
  int num_numeric;
  int num_boolean;
  int partitions;
  double rate;              ///< sessions per second (open loop)
  double republish_every_s;
  int connections;
};

ServeShape ServeShapeFor(const Args& args) {
  return args.toy ? ServeShape{20000, 8, 8, 4, 20.0, 1.0, 3}
                  : ServeShape{400000, 8, 8, 4, 20.0, 2.0, 3};
}

/// Table generations the writer cycles through.
constexpr int kVariants = 3;

/// The two options sets of the mix: most sessions share the first.
MinerOptions ServeOptions(int index) {
  MinerOptions options;
  if (index == 1) {
    options.num_buckets = 250;
    options.min_support = 0.1;
    options.min_confidence = 0.6;
  }
  return options;
}

/// Latency limit of goodput on serve_mix.
constexpr double kServeLimitS = 0.5;

/// One scheduled session of the open loop.
struct PlannedSession {
  double due_s = 0.0;  ///< offset from the start of the schedule
  int options_index = 0;
  std::vector<ServeQuery> queries;
};

/// The seeded open-loop schedule: exactly rate x seconds arrivals placed
/// as sorted uniforms over the run (a Poisson process conditioned on its
/// count). The mix has fixed proportions -- 75% single pair, 7% all
/// pairs, 8% region, 10% rare-flag generalized; one session in five on
/// the second options set -- dealt in a seeded order, so the number of
/// expensive sessions does not vary from seed to seed.
std::vector<PlannedSession> MakeSchedule(const storage::Schema& schema,
                                         const ServeShape& shape,
                                         double seconds, uint64_t seed) {
  Rng rng(seed ^ 0x5e77e5ull);
  const int n = std::max(1, static_cast<int>(std::lround(shape.rate *
                                                         seconds)));
  std::vector<double> dues(static_cast<size_t>(n));
  for (double& due : dues) due = rng.NextUniform(0.0, seconds);
  std::sort(dues.begin(), dues.end());
  const int nn = schema.num_numeric();
  const int plain = schema.num_boolean() - 1;  // the last one is the flag
  const std::string flag = schema.BooleanName(plain);
  auto num = [&] {
    return schema.NumericName(static_cast<int>(rng.NextBounded(nn)));
  };
  auto boolean = [&] {
    return schema.BooleanName(static_cast<int>(rng.NextBounded(plain)));
  };
  // Deals fraction * n copies of each value, in a seeded order.
  auto deal = [&](const std::vector<std::pair<int, double>>& shares) {
    std::vector<int> deck;
    for (const auto& [value, share] : shares) {
      deck.insert(deck.end(), static_cast<size_t>(std::lround(share * n)),
                  value);
    }
    deck.resize(static_cast<size_t>(n), shares.front().first);
    for (size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.NextBounded(i)]);
    }
    return deck;
  };
  const std::vector<int> kinds =
      deal({{0, 0.75}, {1, 0.07}, {2, 0.08}, {3, 0.10}});
  const std::vector<int> option_sets = deal({{0, 0.8}, {1, 0.2}});
  std::vector<PlannedSession> sessions(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    PlannedSession& s = sessions[static_cast<size_t>(i)];
    s.due_s = dues[static_cast<size_t>(i)];
    s.options_index = option_sets[static_cast<size_t>(i)];
    const int kind = kinds[static_cast<size_t>(i)];
    ServeQuery q;
    if (kind == 0) {
      q.kind = ServeQuery::Kind::kPair;
      q.attr_a = num();
      q.attr_b = boolean();
    } else if (kind == 1) {
      q.kind = ServeQuery::Kind::kAllPairs;
    } else if (kind == 2) {
      // Two fixed region pairs: the first use per engine costs a
      // supplemental scan, later ones reuse the grid.
      const int pair = static_cast<int>(rng.NextBounded(2));
      q.kind = ServeQuery::Kind::kRegion;
      q.attr_a = schema.NumericName(2 * pair);
      q.attr_b = schema.NumericName(2 * pair + 1);
      q.target = boolean();
    } else {
      // A generalized query whose condition (the rare flag and one or two
      // plain Booleans) is most likely new to the engine: a supplemental
      // scan that zone maps can prune to the flag's row block.
      q.kind = ServeQuery::Kind::kGeneralized;
      q.attr_a = num();
      q.conditions = {flag, boolean()};
      if (rng.NextBernoulli(0.5)) q.conditions.push_back(boolean());
      q.attr_b = boolean();
    }
    s.queries.push_back(std::move(q));
  }
  return sessions;
}

std::string QueryKey(const ServeQuery& q) {
  std::string key = std::to_string(static_cast<int>(q.kind)) + "|" +
                    q.attr_a + "|" + q.attr_b + "|" + q.target + "|" +
                    std::to_string(q.threshold);
  for (const std::string& c : q.conditions) key += "|" + c;
  return key;
}

/// One served session, completed or failed.
struct ServedSession {
  int index = -1;  ///< into the schedule; -1 = the warm-up
  double due_s = 0.0;
  int options_index = 0;
  std::vector<ServeQuery> queries;
  double late_s = 0.0;     ///< generator lateness: ready time - due time
  double held_s = 0.0;     ///< held back by a republish: send - ready time
  double latency_s = 0.0;  ///< reply time - due time
  uint64_t published = 0;  ///< the live manifest generation when sent
  bool traced = false;
  Status status;
  serve::SessionReply reply;
  bool mismatch = false;  ///< set by VerifyServed
};

/// The staged copies of the table generations, by manifest generation.
struct Generations {
  std::vector<std::string> dirs;
  std::map<uint64_t, int> of_generation;
};

/// Writes a copy of every generation for the reference engines. Writing a
/// relation is deterministic, so each copy has the manifest, and thus the
/// generation, of the same variant published live. Done after the load:
/// it is the benchmark's bookkeeping, not part of a user's set-up.
Result<Generations> StageGenerations(
    const WorkDir& work, const std::vector<storage::Relation>& variants,
    const dist::PartitionOptions& partition) {
  Generations gens;
  for (int v = 0; v < kVariants; ++v) {
    const std::string dir = work.path() + "/gen" + std::to_string(v);
    OPTRULES_RETURN_IF_ERROR(
        dist::PartitionRelation(variants[static_cast<size_t>(v)], dir,
                                partition)
            .status());
    Result<uint64_t> generation = ManifestGeneration(dir);
    OPTRULES_RETURN_IF_ERROR(generation.status());
    gens.of_generation[generation.value()] = v;
    gens.dirs.push_back(dir);
  }
  return gens;
}

/// What the load phase observed.
struct LoadRun {
  ServedSession warmup;
  std::vector<ServedSession> served;  ///< schedule order
  std::vector<double> republish_s;
  std::vector<double> drain_s;  ///< writer's wait for in-flight sessions
  int republish_failures = 0;
  std::vector<double> rss_mb;
  int64_t partition_scans = 0;  ///< dist.partition_scans over the load
  double wall = 0.0;
};

/// Keeps sessions and republishes apart. PartitionRelation replaces the
/// live table directory in steps (it deletes the old one before renaming
/// the staged one into place), so a session in flight across a republish
/// may fail with NotFound, be keyed by one generation and scan the next,
/// or abort the server on a CHECK. A session enters when no republish
/// runs; a republish waits until the sessions in flight have their replies
/// and holds new ones back until it is done. Held sessions pay the wait in
/// their latency.
class RepublishGate {
 public:
  explicit RepublishGate(uint64_t generation) : generation_(generation) {}

  /// Blocks while a republish runs; returns the live generation and sets
  /// `held` when it had to wait.
  uint64_t EnterSession(bool* held) {
    std::unique_lock<std::mutex> lock(mu_);
    *held = writing_;
    cv_.wait(lock, [&] { return !writing_; });
    ++in_flight_;
    return generation_;
  }
  void LeaveSession() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--in_flight_ == 0) cv_.notify_all();
  }
  /// Blocks new sessions and waits until none is in flight.
  void BeginRepublish() {
    std::unique_lock<std::mutex> lock(mu_);
    writing_ = true;
    cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  void EndRepublish(uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    generation_ = generation;
    writing_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int in_flight_ = 0;
  bool writing_ = false;
  uint64_t generation_;
};

/// Everything the serve workload sets up: the table variants, the
/// published directory, the server.
struct ServeFixture {
  std::vector<storage::Relation> variants;
  dist::PartitionOptions partition;
  std::string table_dir;
  std::string socket;
  std::unique_ptr<serve::MiningServer> server;
};

ServeQuery WarmupQuery(const storage::Schema& schema) {
  ServeQuery q;
  q.kind = ServeQuery::Kind::kPair;
  q.attr_a = schema.NumericName(0);
  q.attr_b = schema.BooleanName(0);
  return q;
}

Status ServeSetup(const Args& args, const WorkDir& work,
                  ServeFixture* fixture, ServedSession* warm,
                  SetupResult* setup) {
  const ServeShape shape = ServeShapeFor(args);
  const Clock::time_point start = Clock::now();
  fixture->partition.num_partitions = shape.partitions;
  for (int v = 0; v < kVariants; ++v) {
    fixture->variants.push_back(MakeTable(shape.rows, shape.num_numeric,
                                          shape.num_boolean,
                                          args.seed * kVariants + v, true));
  }
  fixture->table_dir = work.path() + "/table";
  OPTRULES_RETURN_IF_ERROR(
      dist::PartitionRelation(fixture->variants[0], fixture->table_dir,
                              fixture->partition)
          .status());
  Result<uint64_t> live = ManifestGeneration(fixture->table_dir);
  OPTRULES_RETURN_IF_ERROR(live.status());
  warm->published = live.value();
  fixture->server = std::make_unique<serve::MiningServer>();
  // Unix socket paths are limited to ~108 bytes; the work directory sits
  // under the checkout, so bind relative to the working directory.
  fixture->socket = fs::relative(work.path() + "/s.sock").string();
  OPTRULES_RETURN_IF_ERROR(fixture->server->ListenUnix(fixture->socket));
  OPTRULES_RETURN_IF_ERROR(fixture->server->Start());

  // Warm-up: the first session after the server starts (engine build and
  // the first scan), timed from send to reply.
  Result<serve::MiningClient> client =
      serve::MiningClient::ConnectUnix(fixture->socket);
  OPTRULES_RETURN_IF_ERROR(client.status());
  warm->queries = {WarmupQuery(fixture->variants[0].schema())};
  serve::SessionRequest request;
  request.table_dir = fixture->table_dir;
  request.options = ServeOptions(0);
  request.queries = warm->queries;
  const Clock::time_point sent = Clock::now();
  Result<serve::SessionReply> reply = client.value().RunSession(request);
  warm->latency_s = Since(sent);
  if (reply.ok()) {
    warm->reply = std::move(reply).value();
  } else {
    warm->status = reply.status();
  }
  *setup = {Since(start), warm->latency_s};
  return warm->status;
}

/// Checks that every reply names the generation that was live while its
/// session was in flight, and every served answer against a standalone
/// engine over that generation, built from the staged copy of it with
/// every channel the mix used registered up front. Sets `mismatch` on each
/// session that fails either check.
void VerifyServed(const Generations& gens,
                  const std::vector<ServedSession*>& sessions, bool corrupt,
                  Outcome* out) {
  std::map<std::pair<int, int>, std::vector<ServedSession*>> groups;
  for (ServedSession* s : sessions) {
    auto it = gens.of_generation.find(s->reply.generation);
    if (it == gens.of_generation.end() ||
        s->reply.generation != s->published) {
      s->mismatch = true;
      out->Info("a reply names a generation other than the live one");
      continue;
    }
    groups[{it->second, s->options_index}].push_back(s);
  }
  for (const auto& [key, members] : groups) {
    Result<dist::PartitionedTable> table = dist::PartitionedTable::Open(
        gens.dirs[static_cast<size_t>(key.first)]);
    OPTRULES_CHECK(table.ok());
    MiningEngine engine(&table.value(), ServeOptions(key.second));
    for (const ServedSession* s : members) {
      for (const ServeQuery& q : s->queries) Register(&engine, q);
    }
    std::map<std::string, std::vector<uint8_t>> expected;
    OPTRULES_CHECK(engine.TryPrepare().ok());
    for (ServedSession* s : members) {
      bool same = s->reply.answers.size() == s->queries.size();
      for (size_t i = 0; same && i < s->queries.size(); ++i) {
        const std::string qk = QueryKey(s->queries[i]);
        auto e = expected.find(qk);
        if (e == expected.end()) {
          e = expected.emplace(qk, EncodeAnswers({Answer(&engine,
                                                         s->queries[i])}))
                  .first;
          if (corrupt) e->second[e->second.size() / 2] ^= 0x01;
        }
        same = EncodeAnswers({s->reply.answers[i]}) == e->second;
      }
      if (!same) {
        s->mismatch = true;
        char line[200];
        std::snprintf(line, sizeof(line),
                      "answer differs from its generation's reference: "
                      "session %d (sent %.3f s, replied %.3f s), query kind "
                      "%d, options set %d, generation %d",
                      s->index, s->due_s + s->late_s,
                      s->due_s + s->latency_s,
                      static_cast<int>(s->queries.front().kind),
                      s->options_index, key.first);
        out->Info(line);
      }
    }
  }
}

/// Verifies and scores a load phase: failures by kind, the end-to-end
/// metrics, and the report lines. Returns the latencies of the untraced
/// and traced sessions that answered correctly.
std::pair<std::vector<double>, std::vector<double>> ScoreServed(
    const Args& args, const ServeShape& shape, const Generations& gens,
    LoadRun* run, Outcome* out) {
  std::vector<ServedSession*> answered;
  if (run->warmup.status.ok()) answered.push_back(&run->warmup);
  for (ServedSession& s : run->served) {
    if (s.status.ok()) answered.push_back(&s);
  }
  VerifyServed(gens, answered, args.corrupt_reference, out);
  if (run->warmup.mismatch || !run->warmup.status.ok()) {
    out->reference_ok = false;
  }
  std::vector<double> latencies, traced, lateness, held;
  int64_t good = 0;
  for (const ServedSession& s : run->served) {
    ++out->attempted;
    lateness.push_back(s.late_s);
    if (s.held_s > 0.0) held.push_back(s.held_s);
    if (!s.status.ok()) {
      out->Fail(s.status);
    } else if (s.mismatch) {
      out->Wrong();
    } else {
      (s.traced ? traced : latencies).push_back(s.latency_s);
      if (s.latency_s <= kServeLimitS) ++good;
    }
  }
  // 20 sessions/s for 20 s: p97.5 leaves ten of 400 beyond it. Traced
  // runs report end-to-end numbers from their untraced phases only.
  const Tail tail = TailOf(latencies, 0.975);
  out->end_to_end["session_p50_s"] = Median(latencies);
  out->end_to_end["session_tail_s"] = tail.value;
  out->end_to_end["goodput_sps"] = static_cast<double>(good) / run->wall;
  // Rows the server's counting scans read per second: most sessions share
  // a scan or a cached engine, so this is not rows x sessions.
  out->end_to_end["mrows_per_s"] =
      static_cast<double>(run->partition_scans) *
      static_cast<double>(shape.rows) / shape.partitions / run->wall / 1e6;
  out->end_to_end["peak_rss_mb"] = Median(run->rss_mb);
  out->layers.Add("storage.republish_s", Median(run->republish_s));
  out->layers.Add("load.late_p99_s", Quantile(lateness, 0.99));
  for (const auto& [code, count] : out->failures_by_code) {
    out->layers.Add("serve.failed." + code, static_cast<double>(count));
  }

  char line[240];
  out->Info(tail.Describe());
  std::snprintf(line, sizeof(line),
                "latency p90 %.4f s, p95 %.4f s, p97.5 %.4f s, p99 %.4f s, "
                "max %.4f s",
                Quantile(latencies, 0.9), Quantile(latencies, 0.95),
                Quantile(latencies, 0.975), Quantile(latencies, 0.99),
                Quantile(latencies, 1.0));
  out->Info(line);
  std::snprintf(line, sizeof(line),
                "open loop at %.1f sessions/s over %d connections, %zu "
                "scheduled, wall %.2f s",
                shape.rate, shape.connections, run->served.size(),
                run->wall);
  out->Info(line);
  std::snprintf(line, sizeof(line),
                "republish_p50_s %.4f over %zu republishes (%d failed); "
                "goodput latency limit %.2f s",
                Median(run->republish_s), run->republish_s.size(),
                run->republish_failures, kServeLimitS);
  out->Info(line);
  std::snprintf(line, sizeof(line),
                "%zu sessions held back by a republish, %.4f s at most; "
                "the writer waited %.4f s at most for sessions in flight",
                held.size(), Quantile(held, 1.0), Quantile(run->drain_s, 1.0));
  out->Info(line);
  return {latencies, traced};
}

/// The share of each traced client span that no serve.window span
/// overlaps: coalescing wait and transport. The server's spans are roots
/// on its scheduler thread, so overlap in time is the only link.
void SampleServeCoverage(const std::vector<obs::SpanRecord>& spans,
                         Samples* samples) {
  const SpanIndex index(spans);
  const auto windows = index.Named("serve.window");
  std::vector<double> shares;
  for (const obs::SpanRecord* session : index.Named("bench.session")) {
    const double s0 = session->start_seconds;
    const double s1 = s0 + session->duration_seconds;
    if (s1 <= s0) continue;
    std::vector<std::pair<double, double>> cover;
    for (const obs::SpanRecord* w : windows) {
      const double a = std::max(s0, w->start_seconds);
      const double b = std::min(s1, w->start_seconds + w->duration_seconds);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, reach = s0;
    for (const auto& [a, b] : cover) {
      if (b > reach) {
        covered += b - std::max(a, reach);
        reach = b;
      }
    }
    shares.push_back(1.0 - covered / (s1 - s0));
  }
  if (!shares.empty()) samples->Add("trace.unaccounted_ratio", Median(shares));
}

/// Per-layer numbers of the serve layer from registry deltas over the run.
void SampleServeRegistry(const RegistryDelta& delta, double sessions,
                         Samples* samples) {
  const double physical = delta.Counter("serve.physical_scans");
  const double served = delta.Counter("serve.sessions_served");
  const double batches = delta.Counter("serve.batches_executed");
  const double hits = delta.Counter("serve.engine_cache_hits");
  const double misses = delta.Counter("serve.engine_cache_misses");
  samples->Add("rules.counting_scans", physical / sessions);
  for (const auto& [metric, histogram] :
       {std::pair<const char*, const char*>{"serve.queue_wait_s",
                                            "serve.queue_wait_seconds"},
        {"serve.window_s", "serve.window_seconds"}}) {
    if (delta.HistCount(histogram) > 0) {
      samples->Add(metric,
                   delta.HistSum(histogram) / delta.HistCount(histogram));
    }
  }
  if (batches > 0) samples->Add("serve.sessions_per_window", served / batches);
  if (physical > 0) samples->Add("serve.sessions_per_scan", served / physical);
  if (hits + misses > 0) {
    samples->Add("serve.engine_cache_hit_ratio", hits / (hits + misses));
  }
  // Each cache miss builds an engine whose first scan is its prepare;
  // every other physical scan is a supplemental one.
  samples->Add("serve.supplemental_scans", std::max(0.0, physical - misses));
  for (const char* reason :
       {"connection_limit", "admission", "queue_deadline"}) {
    samples->Add(std::string("serve.rejected.") + reason,
                 delta.Counter(std::string("serve.rejected_") + reason));
  }
}

/// The schedule's sessions with their plans filled in, none answered yet.
std::vector<ServedSession> PlannedServed(
    const std::vector<PlannedSession>& schedule) {
  std::vector<ServedSession> served(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    served[i].due_s = schedule[i].due_s;
    served[i].options_index = schedule[i].options_index;
    served[i].queries = schedule[i].queries;
  }
  return served;
}

Outcome RunServeMix(const Args& args, const WorkDir& work,
                    SetupResult* setup) {
  Outcome out;
  const ServeShape shape = ServeShapeFor(args);
  ServeFixture fixture;
  LoadRun run;
  const Status ready = ServeSetup(args, work, &fixture, &run.warmup, setup);
  if (!ready.ok()) {
    out.Info("serve set-up failed: " + ready.ToString());
    out.reference_ok = false;
    if (fixture.server != nullptr) fixture.server->Stop();
    return out;
  }
  const storage::Schema& schema = fixture.variants[0].schema();
  if (args.trace) {
    std::vector<double> plans;
    for (int r = 0; r < 3; ++r) {
      plans.push_back(TimePlanningPass(fixture.variants[0], ServeOptions(0)));
    }
    out.layers.Add("bucketing.plan_s", Median(plans));
  }
  const std::vector<PlannedSession> schedule =
      MakeSchedule(schema, shape, args.seconds, args.seed);
  run.served = PlannedServed(schedule);

  std::vector<serve::MiningClient> clients;
  for (int c = 0; c < shape.connections; ++c) {
    Result<serve::MiningClient> client =
        serve::MiningClient::ConnectUnix(fixture.socket);
    OPTRULES_CHECK(client.ok());
    client.value().set_timeouts({0, 120'000});
    clients.push_back(std::move(client).value());
  }
  obs::Tracer& tracer = obs::Tracer::Default();
  RegistryDelta delta;
  const double pool_before = PoolBytes();
  obs::Counter* const partition_scans =
      obs::MetricsRegistry::Default().GetCounter("dist.partition_scans");
  const int64_t scans_before = partition_scans->Value();
  RepublishGate gate(run.warmup.published);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  auto at = [&](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
  };

  // Writer: republish the next generation every few seconds.
  std::thread writer([&] {
    for (int k = 1; k * shape.republish_every_s < args.seconds; ++k) {
      std::this_thread::sleep_until(at(k * shape.republish_every_s));
      obs::Span span("bench.republish");
      const Clock::time_point due = Clock::now();
      gate.BeginRepublish();
      const Clock::time_point start = Clock::now();
      const Status status =
          dist::PartitionRelation(
              fixture.variants[static_cast<size_t>(k % kVariants)],
              fixture.table_dir, fixture.partition)
              .status();
      run.republish_s.push_back(Since(start));
      const Result<uint64_t> live = ManifestGeneration(fixture.table_dir);
      gate.EndRepublish(live.ok() ? live.value() : 0);
      run.drain_s.push_back(std::chrono::duration<double>(start - due).count());
      if (!status.ok()) ++run.republish_failures;
    }
  });

  // Load: each connection takes the next due session, waits for its due
  // time and for any republish in progress, and blocks for the reply.
  std::atomic<size_t> next{0};
  std::vector<std::thread> loaders;
  for (serve::MiningClient& client : clients) {
    loaders.emplace_back([&, c = &client] {
      for (size_t i = next++; i < schedule.size(); i = next++) {
        const PlannedSession& plan = schedule[i];
        ServedSession& s = run.served[i];
        serve::SessionRequest request;
        request.table_dir = fixture.table_dir;
        request.options = ServeOptions(plan.options_index);
        request.queries = plan.queries;
        const Clock::time_point due = at(plan.due_s);
        std::this_thread::sleep_until(due);
        const Clock::time_point ready_at = Clock::now();
        bool held = false;
        s.published = gate.EnterSession(&held);
        obs::Span span("bench.session");
        s.traced = span.active();
        const Clock::time_point sent = Clock::now();
        Result<serve::SessionReply> reply = c->RunSession(request);
        const Clock::time_point done = Clock::now();
        gate.LeaveSession();
        s.index = static_cast<int>(i);
        s.late_s = std::chrono::duration<double>(ready_at - due).count();
        if (held) {
          s.held_s = std::chrono::duration<double>(sent - ready_at).count();
        }
        s.latency_s = std::chrono::duration<double>(done - due).count();
        if (reply.ok()) {
          s.reply = std::move(reply).value();
        } else {
          s.status = reply.status();
        }
      }
    });
  }
  // Every 40th of the run: sample the peak RSS since the last tick. Traced
  // runs also alternate untraced and traced phases of a tenth of the run
  // each; sessions are classed by whether their client span recorded.
  ResetPeakRss();
  for (int tick = 1; tick <= 40; ++tick) {
    std::this_thread::sleep_until(at(tick * args.seconds / 40.0));
    run.rss_mb.push_back(PeakRssMb());
    ResetPeakRss();
    if (args.trace && tick % 4 == 0) tracer.set_enabled(tick % 8 == 4);
  }
  for (std::thread& loader : loaders) loader.join();
  run.wall = std::max(args.seconds, Since(t0));
  writer.join();
  run.partition_scans = partition_scans->Value() - scans_before;
  tracer.set_enabled(false);
  delta.Finish();
  const double pool_growth = PoolBytes() - pool_before;
  std::vector<obs::SpanRecord> spans = DrainSpans();
  fixture.server->Stop();

  Result<Generations> staged =
      StageGenerations(work, fixture.variants, fixture.partition);
  if (!staged.ok()) {
    out.Info("staging the reference generations failed: " +
             staged.status().ToString());
    out.reference_ok = false;
    return out;
  }
  const Generations& gens = staged.value();
  const auto [untraced_lat, traced_lat] =
      ScoreServed(args, shape, gens, &run, &out);
  const double sessions = static_cast<double>(schedule.size());
  SampleSpans(spans, &out.layers);
  SampleRegistry(delta, sessions, pool_growth,
                 PageBytes(dist::PartitionedTable::Open(gens.dirs[0])
                               .value()),
                 &out.layers);
  SampleServeRegistry(delta, sessions, &out.layers);
  if (args.trace) {
    Result<dist::PartitionedTable> gen0 =
        dist::PartitionedTable::Open(gens.dirs[0]);
    OPTRULES_CHECK(gen0.ok());
    SampleTableStorage(gen0.value(), &out);
    if (!traced_lat.empty() && !untraced_lat.empty()) {
      out.layers.Add("trace.overhead_ratio",
                     Median(traced_lat) / Median(untraced_lat));
    }
    SampleServeCoverage(spans, &out.layers);
  }
  out.spans = std::move(spans);
  const double on_disk =
      static_cast<double>(DirectoryBytes(gens.dirs[0]));
  char line[240];
  std::snprintf(line, sizeof(line),
                "table: %lld rows x %d x %d, K=%d, %.1f MB on disk "
                "(space_amp %.4f), %d generations",
                static_cast<long long>(shape.rows), shape.num_numeric,
                shape.num_boolean, shape.partitions, on_disk / 1e6,
                on_disk / RawBytes(schema, shape.rows), kVariants);
  out.Info(line);
  return out;
}

// ------------------------------------------------------------- output ----

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void WriteTrace(const std::string& path, const Args& args,
                const std::vector<obs::SpanRecord>& spans) {
  if (path.empty()) return;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << "{\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent_id << ",\"name\":" << JsonString(s.name)
        << ",\"start_s\":" << JsonNumber(s.start_seconds)
        << ",\"duration_s\":" << JsonNumber(s.duration_seconds) << "}";
  }
  out << "]}\n";
}

std::vector<double> ParseList(const std::string& text) {
  std::vector<double> values;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) values.push_back(std::strtod(item.c_str(), nullptr));
  }
  return values;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--phase") {
      args->phase = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      args->toy = value == "toy";
    } else if (key == "--corrupt-reference") {
      args->corrupt_reference = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--extra-setup") {
      args->extra_setup = ParseList(value);
    } else if (key == "--extra-cold") {
      args->extra_cold = ParseList(value);
    } else if (key == "--extra-rss") {
      args->extra_rss = ParseList(value);
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) &&
         (args->workload == "mem_allpairs" ||
          args->workload == "disk_partitioned" ||
          args->workload == "serve_mix") &&
         (args->phase == "setup" || args->phase == "measure") &&
         args->seconds > 0;
}

/// Prints the report and, as the last line, the result JSON. Returns the
/// exit code: 0, 1 on a wrong answer, 2 when no session ran.
int Report(const Args& args, const SetupResult& setup, Outcome* result) {
  Outcome& out = *result;
  if (out.attempted == 0) {
    for (const std::string& line : out.info) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fprintf(stderr, "session_bench: no session ran\n");
    return 2;
  }
  std::vector<double> setups = args.extra_setup;
  std::vector<double> colds = args.extra_cold;
  setups.push_back(setup.setup_s);
  colds.push_back(setup.cold_session_s);
  out.end_to_end["setup_s"] = Median(setups);
  out.end_to_end["cold_session_s"] = Median(colds);
  if (!args.extra_rss.empty()) {
    std::vector<double> rss = args.extra_rss;
    rss.push_back(out.end_to_end["peak_rss_mb"]);
    out.end_to_end["peak_rss_mb"] = Median(rss);
  }
  const double failed_ratio = static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted);
  out.layers.Add("load.failed_ratio", failed_ratio);
  out.layers.Add("trace.dropped_spans",
                 static_cast<double>(obs::Tracer::Default().dropped_spans()));
  const bool correct = out.wrong == 0 && out.reference_ok;

  // Report: metadata, every end-to-end metric, failures by code.
  const storage::BufferPool* pool = storage::BufferPool::Default();
  std::printf("# session_bench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.toy ? "toy" : "full");
  std::printf("# host: nproc=%d hardware_threads=%u cpu=\"%s\" build=%s "
              "buffer_pool_bytes=%zu\n",
              AffinityCpus(), std::thread::hardware_concurrency(),
              CpuModel().c_str(), PERFBENCH_BUILD_TYPE,
              pool == nullptr ? size_t{0} : pool->capacity_bytes());
  std::printf("# samples: %lld sessions attempted, %zu set-up samples\n",
              static_cast<long long>(out.attempted), setups.size());
  if (!args.trace) {
    std::string list = "# set-up samples (s):";
    for (size_t i = 0; i < setups.size(); ++i) {
      char item[48];
      std::snprintf(item, sizeof(item), " %.3f/%.3f", setups[i], colds[i]);
      list += item;
    }
    std::printf("%s (setup_s/cold_session_s per fresh process)\n",
                list.c_str());
  }
  for (const std::string& line : out.info) std::printf("# %s\n", line.c_str());
  if (!args.trace) {
    for (const MetricDef& def : kEndToEnd) {
      std::printf("%-16s %14.6f %s\n", def.name, out.end_to_end[def.name],
                  def.unit);
    }
    for (const char* name : {"cold_session_s", "session_tail_s"}) {
      std::printf("%-16s %14.6f s  (reported, not gated)\n", name,
                  out.end_to_end[name]);
    }
  }
  std::printf("%-16s %14.6f ratio  (failed %lld of %lld)\n", "failed_ratio",
              failed_ratio, static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  for (const auto& [code, count] : out.failures_by_code) {
    std::printf("  failed.%s %lld\n", code.c_str(),
                static_cast<long long>(count));
  }
  if (!correct) std::printf("# CORRECTNESS GATE FAILED\n");
  if (args.trace) WriteTrace(args.trace_out, args, out.spans);

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def, double value) {
    json += (first ? "" : ", ") + JsonString(def.name) +
            ": {\"value\": " + JsonNumber(value) +
            ", \"unit\": " + JsonString(def.unit) + "}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) {
      emit(def, out.layers.MedianOf(def.name));
    }
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def, out.end_to_end[def.name]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: session_bench --workload "
                 "mem_allpairs|disk_partitioned|serve_mix [--phase "
                 "setup|measure] [--seed N] [--seconds S] [--trace 0|1] "
                 "[--scale full|toy] [--work-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "session_bench: refusing to report from a non-optimised "
                 "build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  obs::Tracer::Default().set_enabled(false);
  WorkDir work(args.work_dir, args.workload);

  if (args.phase == "setup") {
    SetupResult setup;
    Status status;
    double rss_mb = 0.0;
    if (args.workload == "mem_allpairs") {
      storage::Relation table;
      SessionRun warmup;
      setup = MemSetup(args, &table, &warmup);
      status = warmup.status;
      const MinerOptions options = MemOptions(MemShapeFor(args));
      rss_mb = WarmSessionPeakRss(
          [&] {
            return std::make_unique<MiningEngine>(&table, options,
                                                  &DefaultThreadPool());
          },
          MakeSessionSpec(table.schema(), args.seed));
    } else if (args.workload == "disk_partitioned") {
      storage::Relation table;
      std::unique_ptr<dist::PartitionedTable> opened;
      SessionRun warmup;
      double write_s = 0.0;
      setup = DiskSetup(args, work.path() + "/table", &table, &opened,
                        &warmup, &write_s);
      status = warmup.status;
      if (status.ok()) {
        MinerOptions options;
        options.num_buckets = DiskShapeFor(args).num_buckets;
        const dist::PartitionedTable* t = opened.get();
        rss_mb = WarmSessionPeakRss(
            [&] { return std::make_unique<MiningEngine>(t, options); },
            MakeSessionSpec(table.schema(), args.seed));
      }
    } else {
      ServeFixture fixture;
      ServedSession warmup;
      status = ServeSetup(args, work, &fixture, &warmup, &setup);
      if (fixture.server != nullptr) fixture.server->Stop();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 2;
    }
    std::printf("{\"setup_s\": %s, \"cold_session_s\": %s, "
                "\"peak_rss_mb\": %s}\n",
                JsonNumber(setup.setup_s).c_str(),
                JsonNumber(setup.cold_session_s).c_str(),
                JsonNumber(rss_mb).c_str());
    return 0;
  }

  SetupResult setup;
  Outcome out = args.workload == "mem_allpairs"
                    ? RunMemAllPairs(args, &setup)
                : args.workload == "disk_partitioned"
                    ? RunDiskPartitioned(args, work, &setup)
                    : RunServeMix(args, work, &setup);
  return Report(args, setup, &out);
}

}  // namespace
}  // namespace optrules::perfbench

int main(int argc, char** argv) {
  return optrules::perfbench::Main(argc, argv);
}
