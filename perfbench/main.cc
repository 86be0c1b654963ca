// The repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// One process, one client, closed loop: the workload's slots run in a
// fixed interleaved round (each with+ query followed by its native
// counterpart) until --seconds have passed and the stream holds enough
// queries for a p90 with ten samples beyond it. Every result is checked
// against its native reference. The last line of stdout is the result
// object; the line before it records the run (sizes, build, failures).
//
// --trace 0 prints the end-to-end metrics: with+ over native time ratios,
// set-up time and peak RSS. --trace 1 alternates untraced rounds with
// traced ones (each stream query stepped through the engine's public
// calls, one span per step, then its operators replayed) and prints the
// per-layer metrics, wall times included; the spans go to --trace-out as
// Chrome trace-event JSON.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gpr::Result;
using gpr::core::WithPlusResult;

/// A p90 needs this many samples for ten of them to lie beyond it.
constexpr size_t kMinStreamQueries = 110;
/// Set-up is sampled this many times before the warm-up and again at as
/// many even points of the measured time, so its median sees the machine
/// the queries saw. One sample repeats the set-up for at least
/// kSetupSampleMs and takes the mean.
constexpr int kSetupSamples = 8;
constexpr double kSetupSampleMs = 20;
/// Warm-up: at least two rounds and this long.
constexpr double kWarmupMs = 1000;
/// A native call is repeated until one sample covers this much time.
constexpr double kNativeSampleMs = 0.5;
/// The reference native run is re-timed when its last sample is older.
constexpr double kReferenceEveryMs = 100;
/// Stop measuring here even if the stream is short, to end well within
/// the 180 s a run may take.
constexpr double kHardStopMs = 120e3;
constexpr size_t kMaxFailureNotes = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || a->seconds < 1 || a->seconds > 60) return false;
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || (a->trace != 0 && a->trace != 1)) return false;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && WorkloadDop(a->workload) > 0;
}

// --- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

/// JSON number with every digit; non-finite values (which JSON cannot
/// carry) print as 0 and are flagged by the caller.
std::string Num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Row-for-row equality, types included.
bool SameRows(const gpr::ra::Table& a, const gpr::ra::Table& b) {
  if (a.NumRows() != b.NumRows() ||
      a.schema().NumColumns() != b.schema().NumColumns()) {
    return false;
  }
  for (size_t i = 0; i < a.NumRows(); ++i) {
    const auto& x = a.row(i);
    const auto& y = b.row(i);
    for (size_t c = 0; c < x.size(); ++c) {
      if (x[c].type() != y[c].type() || !x[c].Equals(y[c])) return false;
    }
  }
  return true;
}

/// Per-call time of `fn`, after one untimed call that warms the caches the
/// with+ query before it has just walked over.
double TimeNative(const std::function<void()>& fn) {
  fn();
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = MillisSince(t0);
  } while (elapsed < kNativeSampleMs);
  return elapsed / reps;
}

// --- the run ---------------------------------------------------------------

struct SlotStats {
  std::vector<double> ms;
  std::vector<double> native_ms;
  /// with+ time over the latest sample of the workload's reference run.
  std::vector<double> ref;
  std::vector<double> iterations;
};

/// One traced stream query and what its WithPlusResult reported.
struct TracedQuery {
  int root = -1;
  double iterations = 0;
  double loop_ms = 0;
  double delta_rows = 0;
  std::vector<double> iter_ms;
  gpr::core::ExecCounters counters;
  double dispatched = 0;
};

/// The closed loop and everything it observed.
struct Runner {
  Runner(Workload& workload, Tracer& spans)
      : w(workload), tracer(spans), stats(workload.slots.size()),
        public_tables(workload.slots.size()) {}

  /// Runs every slot's public call and its stepped copy, keeps the public
  /// result for the traced run's identity check, then rounds until warm.
  void Warmup() {
    for (size_t i = 0; i < w.slots.size(); ++i) {
      Slot& s = w.slots[i];
      Result<WithPlusResult> pub = s.run();
      if (!Accept(s, pub)) continue;
      public_tables[i] = pub->table;
      Result<WithPlusResult> stepped = s.run_traced(tracer);
      if (Accept(s, stepped)) {
        CheckStepped(i, *stepped);
        stats[i].iterations.push_back(
            static_cast<double>(stepped->iterations));
      }
    }
    const auto t0 = Clock::now();
    for (int r = 0; r < 2 || MillisSince(t0) < kWarmupMs; ++r) {
      for (Slot& s : w.slots) {
        Accept(s, s.run());
        s.native();
      }
    }
  }

  /// The closed loop over the public calls. With `traced`, every other
  /// round instead steps and spans its stream queries and replays their
  /// operators (side slots stay untraced), so the traced and untraced
  /// samples share the machine's drift and their gap is the overhead.
  /// `after_round` gets the elapsed milliseconds after every round.
  void Measure(double seconds, bool with_trace,
               const std::function<void(double)>& after_round) {
    const auto t0 = Clock::now();
    double ref_ms = 0;
    auto ref_at = Clock::now();
    for (size_t round = 0;; ++round) {
      if (round == 0 || MillisSince(ref_at) >= kReferenceEveryMs) {
        ref_ms = TimeNative(w.reference);
        ref_at = Clock::now();
        reference_ms.push_back(ref_ms);
      }
      const bool traced_round = with_trace && round % 2 == 1;
      tracer.set_enabled(traced_round);
      for (size_t i = 0; i < w.slots.size(); ++i) {
        Slot& s = w.slots[i];
        double ms = -1;
        if (traced_round && s.main) {
          RunTraced(i);
        } else {
          const auto q0 = Clock::now();
          Result<WithPlusResult> r = s.run();
          ms = MillisSince(q0);
          if (!Accept(s, r)) ms = -1;
        }
        stats[i].native_ms.push_back(TimeNative(s.native));
        if (ms < 0) continue;
        stats[i].ms.push_back(ms);
        stats[i].ref.push_back(ms / ref_ms);
        if (s.main) {
          stream.push_back(ms);
          stream_ref.push_back(ms / ref_ms);
        }
      }
      ++rounds;
      after_round(MillisSince(t0));
      const double el = MillisSince(t0);
      const size_t need =
          with_trace ? kMinStreamQueries / 2 : kMinStreamQueries;
      if (el >= kHardStopMs ||
          (el >= seconds * 1e3 && stream.size() >= need)) {
        break;
      }
    }
    tracer.set_enabled(false);
  }

  void RunTraced(size_t i) {
    Slot& s = w.slots[i];
    tracer.set_query(next_query++);
    auto& pool = gpr::exec::ThreadPool::Global();
    const uint64_t b0 = pool.dispatched_batches();
    const int root = tracer.Begin("query." + s.algo);
    const auto q0 = Clock::now();
    Result<WithPlusResult> r = s.run_traced(tracer);
    const double ms = MillisSince(q0);
    tracer.End(root);
    const uint64_t b1 = pool.dispatched_batches();
    if (!Accept(s, r) || !CheckStepped(i, *r)) return;
    traced_stream.push_back(ms);
    TracedQuery tq;
    tq.root = root;
    tq.iterations = static_cast<double>(r->iterations);
    for (const auto& it : r->iters) {
      tq.iter_ms.push_back(it.millis);
      tq.loop_ms += it.millis;
      tq.delta_rows += static_cast<double>(it.delta_rows);
    }
    tq.counters = r->counters;
    tq.dispatched = static_cast<double>(b1 - b0);
    traced.push_back(std::move(tq));
    stats[i].iterations.push_back(static_cast<double>(r->iterations));
    const int rr = tracer.Begin("replay." + s.algo);
    const gpr::Status st = s.replay(tracer, *r);
    tracer.End(rr);
    ++attempted;
    if (!st.ok()) Fail(s.algo + " replay: " + st.ToString());
  }

  /// Counts the query; "" from the check = correct.
  bool Accept(const Slot& s, const Result<WithPlusResult>& r) {
    ++attempted;
    if (!r.ok()) {
      Fail(s.algo + ": " + r.status().ToString());
      return false;
    }
    const std::string why = s.check(r->table);
    if (!why.empty()) {
      Fail(s.algo + ": " + why);
      return false;
    }
    return true;
  }

  /// The stepped copy must be row-identical to the public call.
  bool CheckStepped(size_t i, const WithPlusResult& r) {
    if (SameRows(r.table, public_tables[i])) return true;
    Fail(w.slots[i].algo + ": stepped copy differs from the public call");
    return false;
  }

  void Fail(std::string note) {
    ++failed;
    if (failures.size() < kMaxFailureNotes) {
      failures.push_back(std::move(note));
    }
  }

  Workload& w;
  Tracer& tracer;
  std::vector<SlotStats> stats;
  std::vector<gpr::ra::Table> public_tables;
  std::vector<double> stream, stream_ref, traced_stream;
  std::vector<double> reference_ms;
  std::vector<TracedQuery> traced;
  int64_t next_query = 0;
  size_t rounds = 0;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

/// Ordered metric list: name -> (value, unit).
struct Metrics {
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) nonfinite.push_back(name);
    items.push_back({name, value, unit});
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items;
  std::vector<std::string> nonfinite;
};

const char* const kAlgos[] = {"pr", "wcc", "sssp", "ts", "kc", "lp"};
const char* const kGapAlgos[] = {"pr", "wcc", "sssp"};

const SlotStats* StatsFor(const Runner& r, const std::string& algo) {
  for (size_t i = 0; i < r.w.slots.size(); ++i) {
    if (r.w.slots[i].algo == algo) return &r.stats[i];
  }
  return nullptr;
}

double SlotMedian(const Runner& r, const std::string& algo,
                  std::vector<double> SlotStats::*field) {
  const SlotStats* s = StatsFor(r, algo);
  return s == nullptr ? 0 : Median(s->*field);
}

/// The user-visible figures of the untraced queries: latency, throughput
/// and per-algorithm medians in wall time.
void WallTimes(const Runner& r, Metrics* m) {
  const std::vector<double>& q = r.stream;
  m->Add("query_ms_p50", Median(q), "ms");
  m->Add("query_ms_p90", Quantile(q, 0.9), "ms");
  m->Add("queries_per_s", static_cast<double>(q.size()) / (Sum(q) / 1e3),
         "1/s");
  for (const char* a : kAlgos) {
    m->Add(std::string(a) + "_ms_p50", SlotMedian(r, a, &SlotStats::ms),
           "ms");
  }
}

/// The gated figures. Each with+ time is divided by the latest sample of
/// the workload's reference native run: the machine's drift (up to 1.6x
/// over minutes on a shared VM) moves both alike, so the ratio holds still
/// where wall times cannot. native_gap_x compares each algorithm with its
/// own native counterpart.
void EndToEnd(const Runner& r, double setup_s, double peak_rss_mb,
              Metrics* m) {
  m->Add("query_ref_x_p50", Median(r.stream_ref), "x");
  m->Add("query_ref_x_p90", Quantile(r.stream_ref, 0.9), "x");
  for (const char* a : kAlgos) {
    m->Add(std::string(a) + "_ref_x", SlotMedian(r, a, &SlotStats::ref),
           "x");
  }
  double log_sum = 0;
  for (const char* a : kGapAlgos) {
    log_sum += std::log(SlotMedian(r, a, &SlotStats::ms) /
                        SlotMedian(r, a, &SlotStats::native_ms));
  }
  m->Add("native_gap_x", std::exp(log_sum / 3), "x");
  m->Add("setup_s", setup_s, "s");
  m->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void PerLayer(const Runner& r, const Tracer& tracer, double generate_ms,
              double register_ms, double answers_ms, Metrics* m,
              std::map<std::string, std::string>* absent) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfMillis();
  std::vector<int> root_of(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root_of[i] = spans[i].parent < 0 ? static_cast<int>(i)
                                     : root_of[spans[i].parent];
  }
  // Stream queries: per step name, summed over queries (means below).
  // Replays: per operator, one sample per call (medians below).
  std::map<int, size_t> query_of_root;
  for (size_t k = 0; k < r.traced.size(); ++k) {
    query_of_root[r.traced[k].root] = k;
  }
  std::map<std::string, double> step_sum;
  std::vector<double> call_ms(r.traced.size(), 0);
  std::map<std::string, std::vector<double>> replay;
  double root_total = 0, root_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const bool is_root = root_of[i] == static_cast<int>(i);
    const auto it = query_of_root.find(root_of[i]);
    if (it == query_of_root.end()) {
      if (!is_root && spans[root_of[i]].Layer() == "replay") {
        replay[spans[i].name].push_back(spans[i].Millis());
      }
      continue;
    }
    if (is_root) {
      root_total += spans[i].Millis();
      root_self += self[i];
      continue;
    }
    step_sum[spans[i].name] += spans[i].Millis();
    // On fig7-relational the whole algos:: call stands in for core.call.
    if (spans[i].name == "core.call" || spans[i].name == "algos.call") {
      call_ms[it->second] += spans[i].Millis();
    }
  }
  const double n = std::max<double>(1, static_cast<double>(r.traced.size()));
  auto step = [&](const std::string& name) {
    const auto it = step_sum.find(name);
    return it == step_sum.end() ? 0.0 : it->second / n;
  };
  auto replayed = [&](const std::string& name) {
    const auto it = replay.find(name);
    if (it != replay.end()) return Median(it->second);
    (*absent)[name + "_ms"] = "no stream query of this workload replays it";
    return 0.0;
  };
  auto mean_of = [&](auto field) {
    double s = 0;
    for (const TracedQuery& q : r.traced) s += field(q);
    return s / n;
  };

  WallTimes(r, m);
  m->Add("graph.generate_ms", generate_ms, "ms");
  m->Add("graph.register_ms", register_ms, "ms");
  m->Add("baseline.answers_ms", answers_ms, "ms");
  for (const char* s : {"sql.parse", "sql.bind", "core.validate",
                        "core.stratify", "analysis.gate", "core.compile",
                        "exec.governor", "core.final_select"}) {
    m->Add(std::string(s) + "_us", step(s) * 1e3, "us");
  }
  m->Add("algos.prep_ms", step("algos.prep"), "ms");
  m->Add("algos.cleanup_ms", step("algos.cleanup"), "ms");
  const double call = Mean(call_ms);
  const double loop = mean_of([](const TracedQuery& q) { return q.loop_ms; });
  std::vector<double> iter_ms;
  for (const TracedQuery& q : r.traced) {
    iter_ms.insert(iter_ms.end(), q.iter_ms.begin(), q.iter_ms.end());
  }
  m->Add("core.call_ms", call, "ms");
  m->Add("core.loop_ms", loop, "ms");
  m->Add("core.iter_ms_p50", Median(iter_ms), "ms");
  m->Add("core.prologue_ms", call - loop, "ms");
  m->Add("core.hoist_ms", mean_of([](const TracedQuery& q) {
           return static_cast<double>(q.counters.hoist_setup_us) / 1e3;
         }),
         "ms");
  m->Add("core.iterations",
         mean_of([](const TracedQuery& q) { return q.iterations; }), "count");
  m->Add("core.delta_rows",
         mean_of([](const TracedQuery& q) { return q.delta_rows; }), "count");
  m->Add("analysis.facts_ms", replayed("analysis.facts"), "ms");
  m->Add("analysis.facts_setup_ms", mean_of([](const TracedQuery& q) {
           return static_cast<double>(q.counters.facts_setup_us) / 1e3;
         }),
         "ms");
  for (const char* s : {"core.mvjoin", "ra.csr_build", "ra.spmv", "core.ubu",
                        "core.antijoin", "ra.hash_join", "ra.group_by"}) {
    m->Add(std::string(s) + "_ms", replayed(s), "ms");
  }
  const double hits = mean_of([](const TracedQuery& q) {
    return static_cast<double>(q.counters.cache_hits);
  });
  const double misses = mean_of([](const TracedQuery& q) {
    return static_cast<double>(q.counters.cache_misses);
  });
  m->Add("ra.cache_hits", hits, "count");
  m->Add("ra.cache_misses", misses, "count");
  m->Add("ra.cache_lookups", hits + misses, "count");
  m->Add("ra.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         "ratio");
  using C = gpr::core::ExecCounters;
  const std::pair<const char*, size_t C::*> counters[] = {
      {"ra.cache_bytes", &C::cache_bytes},
      {"ra.csr_builds", &C::csr_builds},
      {"ra.kernel_hits", &C::kernel_hits},
      {"ra.kernel_fallbacks", &C::kernel_fallbacks},
      {"ra.vector_batches", &C::vector_batches},
      {"ra.vector_fallbacks", &C::vector_fallbacks},
      {"core.rows_joined", &C::rows_joined},
  };
  for (const auto& [name, field] : counters) {
    m->Add(name, mean_of([f = field](const TracedQuery& q) {
             return static_cast<double>(q.counters.*f);
           }),
           name == std::string("ra.cache_bytes") ? "bytes" : "count");
  }
  m->Add("exec.dispatched_batches",
         mean_of([](const TracedQuery& q) { return q.dispatched; }), "count");
  for (const char* a : kGapAlgos) {
    m->Add(std::string("baseline.") + a + "_ms",
           SlotMedian(r, a, &SlotStats::native_ms), "ms");
  }
  m->Add("baseline.ref_ms", Median(r.reference_ms), "ms");
  const double untraced = Mean(r.stream);
  const double traced = Mean(r.traced_stream);
  m->Add("trace.overhead_frac", traced / untraced - 1, "frac");
  m->Add("trace.unaccounted_frac", root_total > 0 ? root_self / root_total : 0,
         "frac");
  const double steps = (root_total - root_self) / n;
  m->Add("trace.reconcile_err_frac", std::abs(steps - untraced) / untraced,
         "frac");
}

long PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fig11-mv|fig7-relational|"
                 "short-sql|fig11-mv-dop2> --seed <n> --seconds <1..60> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  // The pool is sized on first use: never more threads than the DOP needs
  // or the machine has.
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const int dop = WorkloadDop(args.workload);
  const long threads = std::min<long>(dop, nproc);
  setenv("GPR_THREADS", std::to_string(threads).c_str(), 1);

  SetupTimes first;
  Result<Workload> built = BuildWorkload(args.workload, args.seed, &first);
  if (!built.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  Workload& w = *built;

  // Set-up samples: per-build means of generation, registration and the
  // reference answers (the builds are discarded).
  std::vector<double> setup_ms, generate_ms, register_ms, answers_ms;
  bool setup_ok = true;
  auto sample_setup = [&] {
    SetupTimes t;
    int builds = 0;
    const auto t0 = Clock::now();
    do {
      setup_ok &= BuildWorkload(args.workload, args.seed, &t).ok();
      ++builds;
    } while (MillisSince(t0) < kSetupSampleMs);
    const double n = builds;
    setup_ms.push_back(MillisSince(t0) / n);
    generate_ms.push_back(t.generate_ms / n);
    register_ms.push_back(t.register_ms / n);
    answers_ms.push_back(t.answers_ms / n);
  };
  for (int k = 0; k < kSetupSamples; ++k) sample_setup();

  Tracer tracer;
  Runner runner(w, tracer);
  runner.Warmup();
  int next_sample = 1;
  runner.Measure(args.seconds, /*with_trace=*/args.trace == 1,
                 [&](double elapsed_ms) {
                   if (next_sample <= kSetupSamples &&
                       elapsed_ms >=
                           next_sample * args.seconds * 1e3 / kSetupSamples) {
                     sample_setup();
                     ++next_sample;
                   }
                 });
  if (!setup_ok) runner.Fail("a set-up sample failed");

  Metrics m;
  std::map<std::string, std::string> absent;
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  if (args.trace == 0) {
    EndToEnd(runner, Median(setup_ms) / 1e3, peak_rss_mb, &m);
  } else {
    PerLayer(runner, tracer, Median(generate_ms), Median(register_ms),
             Median(answers_ms), &m, &absent);
  }
  for (const std::string& name : m.nonfinite) {
    runner.Fail("metric " + name + " is not finite");
  }
  bool trace_written = false;
  if (args.trace == 1 && !args.trace_out.empty()) {
    trace_written = tracer.WriteChromeJson(args.trace_out);
    if (!trace_written) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  // The record line.
  std::string info = "{\"perfbench\": {";
  info += "\"workload\": " + Quote(w.name);
  info += ", \"seed\": " + std::to_string(args.seed);
  info += ", \"seconds\": " + std::to_string(args.seconds);
  info += ", \"trace\": " + std::to_string(args.trace);
  info += ", \"dop\": " + std::to_string(w.dop);
  info += ", \"pool_threads\": " + std::to_string(threads);
  info += ", \"nproc\": " + std::to_string(nproc);
  info += ", \"nodes\": " + std::to_string(w.nodes);
  info += ", \"edges\": " + std::to_string(w.edges);
  info += ", \"side_nodes\": " + std::to_string(w.side_nodes);
  info += ", \"side_edges\": " + std::to_string(w.side_edges);
  info += ", \"setups\": " + std::to_string(setup_ms.size());
  info += ", \"rounds\": " + std::to_string(runner.rounds);
  info += ", \"stream_queries\": " + std::to_string(runner.stream.size());
  info += ", \"traced_queries\": " + std::to_string(runner.traced.size());
  info += ", \"reference\": " + Quote(w.reference_name);
  info += ", \"reference_ms_p50\": " + Num(Median(runner.reference_ms));
  info += ", \"per_algo\": {";
  for (size_t i = 0; i < w.slots.size(); ++i) {
    const SlotStats& st = runner.stats[i];
    info += (i ? ", " : "") + Quote(w.slots[i].algo) + ": {\"main\": " +
            (w.slots[i].main ? "true" : "false") +
            ", \"queries\": " + std::to_string(st.ms.size()) +
            ", \"iterations_p50\": " + Num(Median(st.iterations)) +
            ", \"ms_p50\": " + Num(Median(st.ms)) +
            ", \"native_ms_p50\": " + Num(Median(st.native_ms)) +
            ", \"ref_x_p50\": " + Num(Median(st.ref)) + "}";
  }
  info += "}";
  info += ", \"attempted\": " + std::to_string(runner.attempted);
  info += ", \"failed\": " + std::to_string(runner.failed);
  info += ", \"failed_frac\": " +
          Num(static_cast<double>(runner.failed) /
              static_cast<double>(std::max<size_t>(1, runner.attempted)));
  info += ", \"failures\": [";
  for (size_t i = 0; i < runner.failures.size(); ++i) {
    info += (i ? ", " : "") + Quote(runner.failures[i]);
  }
  info += "], \"absent\": {";
  size_t k = 0;
  for (const auto& [name, why] : absent) {
    info += (k++ ? ", " : "") + Quote(name) + ": " + Quote(why);
  }
  info += "}";
  info += ", \"build_type\": " + Quote(GPR_BUILD_TYPE);
  info += ", \"compiler\": " + Quote(GPR_CXX_COMPILER);
  info += ", \"cxx_flags\": " + Quote(GPR_CXX_FLAGS);
  info += std::string(", \"optimized\": ") + (Optimized() ? "true" : "false");
  info += std::string(", \"sanitized\": ") + (Sanitized() ? "true" : "false");
  if (trace_written) info += ", \"trace_file\": " + Quote(args.trace_out);
  info += "}}";
  std::printf("%s\n", info.c_str());
  if (!Optimized() || Sanitized()) {
    std::fprintf(stderr,
                 "perfbench: WARNING: not an optimized, sanitizer-free build; "
                 "timings are not comparable\n");
  }

  // The result line, last on stdout.
  std::string out = "{\"correct\": ";
  out += runner.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(runner.attempted);
  out += ", \"failed\": " + std::to_string(runner.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.items.size(); ++i) {
    const auto& it = m.items[i];
    out += (i ? ", " : "") + Quote(it.name) + ": {\"value\": " +
           Num(it.value) + ", \"unit\": " + Quote(it.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
