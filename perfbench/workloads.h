// The benchmark's workloads: seeded graphs, the queries run on them, and
// the native reference answer each query result is checked against.
//
// A workload is a fixed, interleaved round of slots. A slot is one query
// shape with four entry points: the public call it stands for (run), the
// same query broken into the public steps that call performs, each in
// its own span (run_traced), replays of its hot operators on
// iteration-shaped inputs (replay), and the check against gpr::baseline
// or a native loop of the same algorithm (check).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/with_plus.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct Slot {
  /// Metric stem: "pr", "wcc", "sssp", "ts", "kc", "lp" (or "tc").
  std::string algo;
  /// Main slots make up the workload's query stream (query_ms_*,
  /// queries_per_s, the traced breakdown). Side slots exist only so every
  /// per-algorithm metric is measured on every workload: they run once a
  /// round on a small side graph and are checked, but kept out of the
  /// stream statistics.
  bool main = true;
  std::function<gpr::Result<gpr::core::WithPlusResult>()> run;
  std::function<gpr::Result<gpr::core::WithPlusResult>(Tracer&)> run_traced;
  std::function<gpr::Status(Tracer&, const gpr::core::WithPlusResult&)>
      replay;
  /// "" when `table` equals the reference answer, else the first mismatch.
  std::function<std::string(const gpr::ra::Table&)> check;
  /// The native counterpart of the same algorithm on the same input,
  /// timed right after the query.
  std::function<void()> native;
};

/// Wall time of the parts of one set-up, in milliseconds.
struct SetupTimes {
  double generate_ms = 0;   ///< graph generation
  double register_ms = 0;   ///< relations built and registered
  double answers_ms = 0;    ///< native reference answers
};

struct Workload {
  std::string name;
  int dop = 1;
  int64_t nodes = 0;  ///< the main graph
  size_t edges = 0;
  int64_t side_nodes = 0;  ///< the side graph (0 when none)
  size_t side_edges = 0;
  std::vector<Slot> slots;
  /// The workload's reference native run: its heaviest native algorithm on
  /// its stream graph, which the machine's load slows the way it slows
  /// the stream's with+ queries. Query times are reported as multiples of
  /// it (the *_ref_x metrics).
  std::function<void()> reference;
  std::string reference_name;
  /// Graphs, catalogs and references the slots point into.
  std::shared_ptr<void> state;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Degree of parallelism the workload runs its queries at (0 = unknown).
int WorkloadDop(const std::string& name);

/// Generates the workload's inputs from `seed`, registers them, and
/// computes the reference answers; `times` receives the set-up breakdown.
gpr::Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                                    SetupTimes* times);

}  // namespace perfbench
