#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "algos/algos.h"
#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "baseline/native_algos.h"
#include "core/aggregate_join.h"
#include "core/anti_join.h"
#include "core/plan.h"
#include "core/psm.h"
#include "core/semiring.h"
#include "core/stratify.h"
#include "core/union_by_update.h"
#include "exec/exec_context.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/relations.h"
#include "ra/csr.h"
#include "ra/operators.h"
#include "ra/vectorized.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using gpr::Result;
using gpr::Status;
using gpr::core::WithPlusQuery;
using gpr::core::WithPlusResult;
using gpr::graph::Graph;
using gpr::graph::NodeId;
namespace algos = gpr::algos;
namespace analysis = gpr::analysis;
namespace baseline = gpr::baseline;
namespace core = gpr::core;
namespace exec = gpr::exec;
namespace graph = gpr::graph;
namespace ra = gpr::ra;
namespace ops = gpr::ra::ops;

// Sizes. The Fig 11 graph is the LJ analogue of graph::PaperDatasets() at
// 5/8 of its size (10k nodes, so the MV kernel's CSR rows clear the default
// parallel-admission threshold of 8192 and the DOP-2 leg runs parallel), and
// the Fig 7 graph a directed R-MAT of 2000 nodes. At full size one with+
// query takes 0.2-0.9 s, too slow for one run to hold the 110 stream queries
// a p90 with ten samples beyond it needs.
constexpr double kFig11Scale = 0.625;
constexpr NodeId kFig7Nodes = 2000;
// Side graphs (the other algorithm family, once a round): a few hundred
// nodes each.
constexpr double kSideMvScale = 1.0 / 64;
constexpr NodeId kSideRelNodes = 250;
constexpr NodeId kSqlNodes = 64;
constexpr int kIterations = 15;  // PR and LP, as in the paper
constexpr int kCoreK = 5;        // algos::AlgoOptions default
constexpr double kDamping = 0.85;
constexpr double kPrTolerance = 1e-9;

// The seed shuffles the row order of every base relation; it does not
// change a graph. Each graph role has one fixed structure (R-MAT, DAG
// orientation, weights, labels), so every seed runs the same iterations
// over the same row counts, with and without the engine, while row order,
// hash-table build order and CSR group order differ from seed to seed.
// (Renaming nodes instead would change how many passes the native
// Bellman-Ford needs from seed to seed.)
constexpr uint64_t kStructureSeed = 20170514;

uint64_t SubSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Stopwatch {
 public:
  explicit Stopwatch(double* acc_ms) : acc_ms_(acc_ms), t0_(Clock::now()) {}
  ~Stopwatch() { *acc_ms_ += MillisSince(t0_); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double* acc_ms_;
  Clock::time_point t0_;
};

// --- graphs ------------------------------------------------------------

/// The LJ analogue of graph::MakeDataset at `scale`. Edge weights stay 1,
/// as in MakeDataset: algos::Wcc folds labels with min/× over ew, so it
/// returns component ids only on unit weights, and SSSP then gives hop
/// distances.
Graph LjShaped(double scale) {
  const graph::DatasetSpec spec = *graph::DatasetByAbbrev("LJ");
  const auto n = static_cast<NodeId>(static_cast<double>(spec.nodes) * scale);
  const auto m = static_cast<size_t>(static_cast<double>(spec.edges) * scale);
  const Graph directed = graph::Rmat(n, m, SubSeed(kStructureSeed, 1));
  Graph g(directed.num_nodes(),
          graph::DedupeEdges(graph::Symmetrize(directed.EdgeList())));
  graph::AttachRandomNodeData(&g, SubSeed(kStructureSeed, 2));
  return g;
}

/// A directed R-MAT with average out-degree 7.5 and node labels for LP.
Graph DirectedRmat(NodeId n) {
  Graph g = graph::Rmat(n, static_cast<size_t>(n) * 15 / 2,
                        SubSeed(kStructureSeed, 3));
  graph::AttachRandomNodeData(&g, SubSeed(kStructureSeed, 4));
  return g;
}

Graph CopyNodeData(const Graph& from, Graph to) {
  if (!from.node_weights().empty()) to.set_node_weights(from.node_weights());
  if (!from.node_labels().empty()) to.set_node_labels(from.node_labels());
  return to;
}

/// `g` plus a self-loop of weight `w` on every node.
Graph WithSelfLoops(const Graph& g, double w) {
  std::vector<graph::Edge> edges = g.EdgeList();
  for (NodeId v = 0; v < g.num_nodes(); ++v) edges.push_back({v, v, w});
  return CopyNodeData(g, Graph(g.num_nodes(), std::move(edges)));
}

/// `g` with every edge weighted 1/outdeg(from), as algos::PageRank prepares.
Graph Normalized(const Graph& g) {
  std::vector<graph::Edge> edges = g.EdgeList();
  for (auto& e : edges) {
    e.weight = 1.0 / static_cast<double>(g.OutDegree(e.from));
  }
  return CopyNodeData(g, Graph(g.num_nodes(), std::move(edges)));
}

/// Registers `t` as a base table, its rows in a seeded random order.
Status Register(ra::Catalog& cat, ra::Table t, uint64_t seed) {
  std::vector<ra::Tuple>& rows = t.mutable_rows();
  gpr::Xoshiro256 rng(seed);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
  }
  t.Analyze();
  return cat.CreateTable(std::move(t));
}

/// graph::RegisterGraph (E, V, VL) with shuffled rows.
Status RegisterShuffled(const Graph& g, ra::Catalog& cat, uint64_t seed) {
  GPR_RETURN_NOT_OK(Register(cat, graph::EdgeRelation(g), SubSeed(seed, 20)));
  GPR_RETURN_NOT_OK(Register(cat, graph::NodeRelation(g), SubSeed(seed, 21)));
  return Register(cat, graph::LabelRelation(g), SubSeed(seed, 22));
}

// --- reference checks ----------------------------------------------------

template <typename T>
std::vector<double> AsDoubles(const std::vector<T>& v) {
  return std::vector<double>(v.begin(), v.end());
}

/// `t` must hold one row (id, value) per node 0..n-1 with value equal to
/// want[id], within `tol` relative to max(1, |want|) (0 = exactly).
std::string CheckVector(const ra::Table& t, const std::vector<double>& want,
                        double tol) {
  if (t.schema().NumColumns() < 2) return "result has fewer than 2 columns";
  std::vector<bool> seen(want.size(), false);
  for (const auto& row : t.rows()) {
    if (row[0].is_null() || row[1].is_null()) return "NULL in result";
    const int64_t id = row[0].ToInt64();
    if (id < 0 || static_cast<size_t>(id) >= want.size() || seen[id]) {
      return "unexpected or repeated node " + std::to_string(id);
    }
    seen[id] = true;
    const double got = row[1].ToDouble();
    const double diff = std::abs(got - want[id]);
    if (!(diff <= tol * std::max(1.0, std::abs(want[id])))) {
      return "node " + std::to_string(id) + ": got " + std::to_string(got) +
             ", want " + std::to_string(want[id]);
    }
  }
  for (size_t v = 0; v < seen.size(); ++v) {
    if (!seen[v]) return "node " + std::to_string(v) + " missing";
  }
  return "";
}

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

/// The first two columns of `t`, as a multiset, must equal `want`.
std::string CheckPairs(const ra::Table& t, const Pairs& want) {
  if (t.schema().NumColumns() < 2) return "result has fewer than 2 columns";
  Pairs got;
  got.reserve(t.NumRows());
  for (const auto& row : t.rows()) {
    if (row[0].is_null() || row[1].is_null()) return "NULL in result";
    got.emplace_back(row[0].ToInt64(), row[1].ToInt64());
  }
  std::sort(got.begin(), got.end());
  if (got == want) return "";
  return "got " + std::to_string(got.size()) + " pairs, want " +
         std::to_string(want.size()) + " (or the pairs differ)";
}

/// Edges of `g` with both endpoints in the k-core, sorted.
Pairs CoreEdges(const Graph& g, const std::vector<bool>& in_core) {
  Pairs out;
  for (const auto& e : g.EdgeList()) {
    if (in_core[e.from] && in_core[e.to]) out.emplace_back(e.from, e.to);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The examples/label_propagation.sql semantics: each round a node takes
/// the minimum label over its in-neighbours; nodes without any keep theirs.
std::vector<double> MinLabelPropagation(const Graph& g, int rounds) {
  std::vector<int64_t> cur = g.node_labels();
  for (int r = 0; r < rounds; ++r) {
    std::vector<int64_t> next = cur;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto in = g.InNeighbors(v);
      if (in.size == 0) continue;
      int64_t m = std::numeric_limits<int64_t>::max();
      for (NodeId u : in) m = std::min(m, cur[u]);
      next[v] = m;
    }
    cur = std::move(next);
  }
  return AsDoubles(cur);
}

// --- the engine's public steps, one span each -----------------------------

/// core::ExecuteWithPlus, step by step.
Result<WithPlusResult> SteppedExecute(Tracer& t, const WithPlusQuery& q,
                                      ra::Catalog& cat,
                                      const core::EngineProfile& profile,
                                      uint64_t seed) {
  {
    ScopedSpan s(t, "core.validate");
    GPR_RETURN_NOT_OK(core::ValidateWithPlus(q));
  }
  if (q.check_stratification) {
    ScopedSpan s(t, "core.stratify");
    GPR_RETURN_NOT_OK(core::CheckWithPlusStratified(q));
  }
  size_t gate_warnings = 0;
  if (profile.static_analysis_gate) {
    ScopedSpan s(t, "analysis.gate");
    GPR_RETURN_NOT_OK(analysis::GateWithPlus(q, cat, &gate_warnings));
  }
  core::PsmProcedure proc;
  {
    ScopedSpan s(t, "core.compile");
    GPR_ASSIGN_OR_RETURN(proc, core::CompileToPsm(q));
  }
  std::optional<exec::ExecContext> gov;
  {
    ScopedSpan s(t, "exec.governor");
    GPR_ASSIGN_OR_RETURN(
        gov, exec::MakeGovernor(q.governor, q.cancel, q.fault_spec));
  }
  Result<WithPlusResult> result = [&] {
    ScopedSpan s(t, "core.call");
    return core::CallProcedure(proc, cat, profile, seed,
                               gov ? &*gov : nullptr);
  }();
  if (result.ok()) result->gate_warnings = gate_warnings;
  return result;
}

/// The EvalContext a fixpoint gives its operators under default knobs:
/// the workload's DOP, CSR kernels and vectorized batches on, no cache.
struct ReplayContext {
  explicit ReplayContext(const core::EngineProfile& profile) : rng(42) {
    ctx.rng = &rng;
    ctx.dop = std::max(1, profile.degree_of_parallelism);
    ctx.kernels = &kernels;
    ctx.vectors = &vectors;
    ctx.min_parallel_rows =
        exec::ResolveMinParallelRows(profile.parallel_min_rows);
  }
  ReplayContext(const ReplayContext&) = delete;
  ReplayContext& operator=(const ReplayContext&) = delete;

  gpr::Xoshiro256 rng;
  ra::KernelCounters kernels;
  ra::VectorCounters vectors;
  ra::EvalContext ctx;
};

// --- Fig 11: PR / WCC / SSSP as MV-join fixpoints ------------------------
//
// The query builders below copy src/algos (ranking.cc, traversal.cc) so the
// traced run can step through them; the traced run checks every stepped
// result row-identical to the algos:: call, so a drifting copy shows up as
// failed queries.

using core::MVJoinOp;
using core::ProjectOp;
using core::Scan;
using core::Subquery;
using ra::Col;
using ra::Lit;

/// What algos::RunWithPlus copies from the options into the query.
void ApplyRunOptions(WithPlusQuery* q, const algos::AlgoOptions& o) {
  q->governor = o.governor;
  q->cancel = o.cancel;
  q->fault_spec = o.fault_spec;
  if (o.degree_of_parallelism > 0) {
    q->degree_of_parallelism = o.degree_of_parallelism;
  }
}

Status PrepPageRank(ra::Catalog& cat, const algos::AlgoOptions& o) {
  return algos::CreateNormalizedEdges(cat, "E", "E_pr", o.profile);
}

Result<WithPlusQuery> PageRankQuery(const ra::Catalog& cat,
                                    const algos::AlgoOptions& o) {
  GPR_ASSIGN_OR_RETURN(const ra::Table* v, cat.Get("V"));
  const double n = static_cast<double>(v->NumRows());
  const double c = o.damping;
  WithPlusQuery q;
  q.rec_name = "P";
  q.rec_schema = ra::Schema{{"ID", ra::ValueType::kInt64},
                            {"W", ra::ValueType::kDouble}};
  q.init.push_back(Subquery{
      ProjectOp(Scan("V"),
                {ops::As(Col("ID"), "ID"), ops::As(Lit(0.0), "W")}),
      {}});
  core::PlanPtr agg =
      MVJoinOp(Scan("E_pr"), Scan("P"), core::PlusTimes(),
               core::MVOrientation::kTransposed, {}, {"ID", "W"});
  q.recursive.push_back(Subquery{
      ProjectOp(agg, {ops::As(Col("ID"), "ID"),
                      ops::As(ra::Add(ra::Mul(Lit(c), Col("vw")),
                                      Lit((1.0 - c) / n)),
                              "W")}),
      {}});
  q.mode = core::UnionMode::kUnionByUpdate;
  q.update_keys = {"ID"};
  q.ubu_impl = o.ubu_impl;
  q.maxrecursion = o.max_iterations > 0 ? o.max_iterations : 15;
  ApplyRunOptions(&q, o);
  return q;
}

Status PrepWcc(ra::Catalog& cat, const algos::AlgoOptions&) {
  return algos::CreateLoopedEdges(cat, "E", "V", "E_wcc", 1.0,
                                  /*symmetrize=*/true);
}

Result<WithPlusQuery> WccQuery(const ra::Catalog&,
                               const algos::AlgoOptions& o) {
  WithPlusQuery q;
  q.rec_name = "R_wcc";
  q.rec_schema = ra::Schema{{"ID", ra::ValueType::kInt64},
                            {"vw", ra::ValueType::kDouble}};
  q.init.push_back(Subquery{
      ProjectOp(Scan("V"), {ops::As(Col("ID"), "ID"),
                            ops::As(ra::Mul(Col("ID"), Lit(1.0)), "vw")}),
      {}});
  q.recursive.push_back(Subquery{
      MVJoinOp(Scan("E_wcc"), Scan("R_wcc"), core::MinTimes(),
               core::MVOrientation::kTransposed),
      {}});
  q.mode = core::UnionMode::kUnionByUpdate;
  q.update_keys = {"ID"};
  q.ubu_impl = o.ubu_impl;
  q.maxrecursion = o.max_iterations > 0 ? o.max_iterations : 0;
  ApplyRunOptions(&q, o);
  return q;
}

Status PrepSssp(ra::Catalog& cat, const algos::AlgoOptions&) {
  return algos::CreateLoopedEdges(cat, "E", "V", "E_sssp", 0.0);
}

Result<WithPlusQuery> SsspQuery(const ra::Catalog&,
                                const algos::AlgoOptions& o) {
  WithPlusQuery q;
  q.rec_name = "R_sssp";
  q.rec_schema = ra::Schema{{"ID", ra::ValueType::kInt64},
                            {"vw", ra::ValueType::kDouble}};
  q.init.push_back(Subquery{
      ProjectOp(Scan("V"),
                {ops::As(Col("ID"), "ID"),
                 ops::As(ra::Mul(ra::Sub(Lit(1.0),
                                         ra::Eq(Col("ID"), Lit(o.source))),
                                 Lit(core::kInfDistance)),
                         "vw")}),
      {}});
  q.recursive.push_back(Subquery{
      MVJoinOp(Scan("E_sssp"), Scan("R_sssp"), core::MinPlus(),
               core::MVOrientation::kTransposed),
      {}});
  q.mode = core::UnionMode::kUnionByUpdate;
  q.update_keys = {"ID"};
  q.ubu_impl = o.ubu_impl;
  q.maxrecursion = o.max_iterations > 0 ? o.max_iterations : 0;
  ApplyRunOptions(&q, o);
  return q;
}

struct MvAlgo {
  const char* algo;
  const char* temp;  ///< the prepared edge table the query reads
  const core::Semiring& (*semiring)();
  const char* vw;  ///< the recursive relation's value column
  Result<WithPlusResult> (*call)(ra::Catalog&, const algos::AlgoOptions&);
  Status (*prep)(ra::Catalog&, const algos::AlgoOptions&);
  Result<WithPlusQuery> (*query)(const ra::Catalog&,
                                 const algos::AlgoOptions&);
};

const MvAlgo kMvAlgos[] = {
    {"pr", "E_pr", core::PlusTimes, "W", algos::PageRank, PrepPageRank,
     PageRankQuery},
    {"wcc", "E_wcc", core::MinTimes, "vw", algos::Wcc, PrepWcc, WccQuery},
    {"sssp", "E_sssp", core::MinPlus, "vw", algos::SsspBellmanFord, PrepSssp,
     SsspQuery},
};

/// algos::PageRank / Wcc / SsspBellmanFord, step by step.
Result<WithPlusResult> SteppedMv(Tracer& t, const MvAlgo& a, ra::Catalog& cat,
                                 const algos::AlgoOptions& o) {
  {
    ScopedSpan s(t, "algos.prep");
    GPR_RETURN_NOT_OK(a.prep(cat, o));
  }
  Result<WithPlusResult> result = [&]() -> Result<WithPlusResult> {
    GPR_ASSIGN_OR_RETURN(WithPlusQuery q, a.query(cat, o));
    return SteppedExecute(t, q, cat, o.profile, o.seed);
  }();
  ScopedSpan s(t, "algos.cleanup");
  algos::DropQuietly(cat, {a.temp});
  return result;
}

/// Facts, MV-join, CSR build, SpMV and ⊎ on the query's own prepared
/// edges and its final vector state.
Status ReplayMv(Tracer& t, const MvAlgo& a, ra::Catalog& cat,
                const algos::AlgoOptions& o, const WithPlusResult& res) {
  {
    ScopedSpan s(t, "replay.prep");
    GPR_RETURN_NOT_OK(a.prep(cat, o));
  }
  ra::TempTableScope drop(cat);
  drop.Track(a.temp);
  GPR_ASSIGN_OR_RETURN(WithPlusQuery q, a.query(cat, o));
  {
    ScopedSpan s(t, "analysis.facts");
    analysis::ComputeQueryFacts(q, cat);
  }
  GPR_ASSIGN_OR_RETURN(const ra::Table* m, cat.Get(a.temp));
  const ra::Table& v = res.table;
  core::EngineProfile profile = o.profile;
  profile.degree_of_parallelism = std::max(1, o.degree_of_parallelism);
  ReplayContext rc(profile);
  const core::Semiring& sr = a.semiring();
  {
    ScopedSpan s(t, "core.mvjoin");
    GPR_RETURN_NOT_OK(core::MVJoin(*m, v, sr, core::MVOrientation::kTransposed,
                                   profile, {}, {"ID", a.vw}, &rc.ctx)
                          .status());
  }
  GPR_ASSIGN_OR_RETURN(size_t f_idx, m->schema().Resolve("F"));
  GPR_ASSIGN_OR_RETURN(size_t t_idx, m->schema().Resolve("T"));
  GPR_ASSIGN_OR_RETURN(size_t w_idx, m->schema().Resolve("ew"));
  GPR_ASSIGN_OR_RETURN(size_t id_idx, v.schema().Resolve("ID"));
  GPR_ASSIGN_OR_RETURN(size_t vw_idx, v.schema().Resolve(a.vw));
  std::shared_ptr<const ra::CsrMatrix> csr;
  {
    ScopedSpan s(t, "ra.csr_build");
    GPR_ASSIGN_OR_RETURN(csr, ra::BuildCsr(*m, t_idx, f_idx, w_idx, &rc.ctx));
  }
  {
    ScopedSpan s(t, "ra.spmv");
    GPR_RETURN_NOT_OK(ra::SpmvKernel(*csr, *m, t_idx, w_idx, v, id_idx, vw_idx,
                                     sr.add, sr.multiply, &rc.ctx)
                          .status());
  }
  ScopedSpan s(t, "core.ubu");
  return core::UnionByUpdate(v, v, {"ID"},
                             core::UnionByUpdateImpl::kFullOuterJoin, profile,
                             nullptr, &rc.ctx)
      .status();
}

struct MvGraph {
  Graph g;
  ra::Catalog cat;
  std::vector<double> pr, wcc, sssp;
};

Result<std::unique_ptr<MvGraph>> BuildMv(double scale, uint64_t seed,
                                         SetupTimes* times) {
  auto mg = std::make_unique<MvGraph>();
  {
    Stopwatch w(&times->generate_ms);
    mg->g = LjShaped(scale);
  }
  {
    Stopwatch w(&times->register_ms);
    GPR_RETURN_NOT_OK(RegisterShuffled(mg->g, mg->cat, seed));
  }
  Stopwatch w(&times->answers_ms);
  mg->pr = baseline::PaperPageRank(Normalized(mg->g), kIterations, kDamping);
  mg->wcc = AsDoubles(baseline::Wcc(mg->g));
  mg->sssp = baseline::SsspBellmanFord(mg->g, 0);
  return mg;
}

std::vector<Slot> MvSlots(MvGraph* mg, int dop, bool main) {
  algos::AlgoOptions o;
  o.degree_of_parallelism = dop;
  o.max_iterations = 0;
  std::vector<Slot> slots;
  for (const MvAlgo& a : kMvAlgos) {
    Slot s;
    s.algo = a.algo;
    s.main = main;
    algos::AlgoOptions ao = o;
    if (s.algo == "pr") ao.max_iterations = kIterations;
    const MvAlgo* ap = &a;
    s.run = [mg, ap, ao] { return ap->call(mg->cat, ao); };
    s.run_traced = [mg, ap, ao](Tracer& t) {
      return SteppedMv(t, *ap, mg->cat, ao);
    };
    s.replay = [mg, ap, ao](Tracer& t, const WithPlusResult& r) {
      return ReplayMv(t, *ap, mg->cat, ao, r);
    };
    const std::vector<double>* want =
        s.algo == "pr" ? &mg->pr : s.algo == "wcc" ? &mg->wcc : &mg->sssp;
    const double tol = s.algo == "pr" ? kPrTolerance : 0.0;
    s.check = [want, tol](const ra::Table& t) {
      return CheckVector(t, *want, tol);
    };
    const Graph* g = &mg->g;
    if (s.algo == "pr") {
      s.native = [g] { baseline::PageRank(*g, kIterations, kDamping); };
    } else if (s.algo == "wcc") {
      s.native = [g] { baseline::Wcc(*g); };
    } else {
      s.native = [g] { baseline::SsspBellmanFord(*g, 0); };
    }
    slots.push_back(std::move(s));
  }
  return slots;
}

// --- Fig 7: TopoSort / KCore / LP through the generic operators ----------

struct RelGraph {
  Graph g, dag;
  ra::Catalog cat, dag_cat;
  std::vector<double> ts, lp;
  Pairs kc;
};

Result<std::unique_ptr<RelGraph>> BuildRel(NodeId n, uint64_t seed,
                                           SetupTimes* times) {
  auto rg = std::make_unique<RelGraph>();
  {
    Stopwatch w(&times->generate_ms);
    rg->g = DirectedRmat(n);
    rg->dag = graph::DagifyByPermutation(rg->g, SubSeed(kStructureSeed, 5));
  }
  {
    Stopwatch w(&times->register_ms);
    GPR_RETURN_NOT_OK(RegisterShuffled(rg->g, rg->cat, seed));
    GPR_RETURN_NOT_OK(RegisterShuffled(rg->dag, rg->dag_cat, SubSeed(seed, 1)));
  }
  Stopwatch w(&times->answers_ms);
  rg->ts = AsDoubles(baseline::TopoSortLevels(rg->dag));
  rg->kc = CoreEdges(rg->g, baseline::KCore(rg->g, kCoreK));
  rg->lp = AsDoubles(baseline::LabelPropagation(rg->g, kIterations));
  return rg;
}

/// Join-, anti-join- and group-by-shaped replays over the base relations
/// and the query's final state.
Status ReplayRel(Tracer& t, const std::string& algo, ra::Catalog& cat,
                 const algos::AlgoOptions& o, const WithPlusResult& res) {
  core::EngineProfile profile = o.profile;
  profile.degree_of_parallelism = std::max(1, o.degree_of_parallelism);
  ReplayContext rc(profile);
  GPR_ASSIGN_OR_RETURN(const ra::Table* e, cat.Get("E"));
  GPR_ASSIGN_OR_RETURN(const ra::Table* v, cat.Get("V"));
  if (algo == "ts") {
    // The init step: V ▷ E on ID = T (nodes without in-edges).
    ScopedSpan s(t, "core.antijoin");
    return core::AntiJoin(*v, *e, {{"ID"}, {"T"}}, o.anti_impl, profile,
                          &rc.ctx)
        .status();
  }
  // KCore: EC ⋈ V_kc and the degree group-by; LP: E ⋈ L and its
  // per-(target, label) count.
  const ra::Table& probe = algo == "lp" ? res.table : *v;
  ops::JoinOptions jo;
  jo.ctx = &rc.ctx;
  jo.left_qualifier = "E";
  jo.right_qualifier = "R";
  ra::Table joined;
  {
    ScopedSpan s(t, "ra.hash_join");
    GPR_ASSIGN_OR_RETURN(joined,
                         ops::JoinWithOptions(*e, probe, {{"F"}, {"ID"}}, jo));
  }
  ScopedSpan s(t, "ra.group_by");
  if (algo == "lp") {
    return ops::GroupBy(joined, {"E.T", "R.label"}, {ra::CountStar("c")},
                        &rc.ctx)
        .status();
  }
  return ops::GroupBy(*e, {"F"}, {ra::CountStar("d")}, &rc.ctx).status();
}

std::vector<Slot> RelSlots(RelGraph* rg, int dop, bool main) {
  algos::AlgoOptions o;
  o.degree_of_parallelism = dop;
  o.k = kCoreK;
  struct Entry {
    const char* algo;
    Result<WithPlusResult> (*call)(ra::Catalog&, const algos::AlgoOptions&);
    ra::Catalog* cat;
    const std::vector<double>* want;
    std::function<void()> native;
  };
  const Graph* g = &rg->g;
  const Graph* dag = &rg->dag;
  const Entry entries[] = {
      {"ts", algos::TopoSort, &rg->dag_cat, &rg->ts,
       [dag] { baseline::TopoSortLevels(*dag); }},
      {"kc", algos::KCore, &rg->cat, nullptr,
       [g] { baseline::KCore(*g, kCoreK); }},
      {"lp", algos::LabelPropagation, &rg->cat, &rg->lp,
       [g] { baseline::LabelPropagation(*g, kIterations); }},
  };
  std::vector<Slot> slots;
  for (const Entry& en : entries) {
    Slot s;
    s.algo = en.algo;
    s.main = main;
    algos::AlgoOptions ao = o;
    if (s.algo == "lp") ao.max_iterations = kIterations;
    auto call = en.call;
    ra::Catalog* cat = en.cat;
    s.run = [call, cat, ao] { return call(*cat, ao); };
    // Spanned whole: its phases come from the WithPlusResult it returns.
    s.run_traced = [call, cat, ao](Tracer& t) {
      ScopedSpan span(t, "algos.call");
      return call(*cat, ao);
    };
    const std::string algo = s.algo;
    s.replay = [algo, cat, ao](Tracer& t, const WithPlusResult& r) {
      return ReplayRel(t, algo, *cat, ao, r);
    };
    if (en.want != nullptr) {
      const std::vector<double>* want = en.want;
      s.check = [want](const ra::Table& t) { return CheckVector(t, *want, 0); };
    } else {
      const Pairs* want = &rg->kc;
      s.check = [want](const ra::Table& t) { return CheckPairs(t, *want); };
    }
    s.native = en.native;
    slots.push_back(std::move(s));
  }
  return slots;
}

// --- short with+ statements as SQL text ----------------------------------
//
// The shapes of examples/{pagerank,connected_components,toposort,
// label_propagation,transitive_closure}.sql without their tuning hints,
// plus an SSSP and a k-core statement so every per-algorithm metric has
// a SQL counterpart. One catalog serves them all:
//   E  = a symmetric R-MAT with a weight-0 self-loop per node (the loop
//        keeps a node's own value in the min folds, so CC and SSSP reach a
//        fixpoint and equal baseline::Wcc / SsspBellmanFord),
//   EN = E with weights 1/outdeg (PageRank), ES = E without the loops
//        (k-core), ED = a DAG on the same nodes (TopoSort, TC),
//   V, VL = the nodes and their labels.

struct SqlGraph {
  Graph base, looped, norm, dag;
  ra::Catalog cat;
  std::vector<double> pr, cc, sssp, ts, lp;
  Pairs kc, tc;
};

// The k-core statement keeps endpoints with out-degree >= 2 (`d >= 2`); on
// a symmetric graph that is total degree >= 4.
constexpr int kSqlCoreOutDegree = 2;

std::string PageRankSql(NodeId n) {
  return "with P (ID, W) as (\n"
         "  (select V.ID, 0.0 from V)\n"
         "  union by update ID\n"
         "  (select EN.T, 0.85 * sum(W * ew) + 0.15 / " +
         std::to_string(n) +
         ".0 from P, EN\n"
         "   where P.ID = EN.F group by EN.T)\n"
         "  maxrecursion 15)\n"
         "select ID, W from P";
}

const char* const kCcSql =
    "with CC (ID, comp) as (\n"
    "  (select ID, ID from V)\n"
    "  union by update ID\n"
    "  (select E.T, min(comp) from CC, E where CC.ID = E.F group by E.T))\n"
    "select ID, comp from CC";

const char* const kSsspSql =
    "with D (ID, d) as (\n"
    "  (select ID, 1000000000000000.0 * (1 - (ID = 0)) from V)\n"
    "  union by update ID\n"
    "  (select E.T, min(D.d + E.ew) from D, E where D.ID = E.F\n"
    "   group by E.T))\n"
    "select ID, d from D";

const char* const kTopoSql =
    "with Topo (ID, L) as (\n"
    "  (select ID, 0 from V where ID not in (select ED.T from ED))\n"
    "  union all\n"
    "  (select ID, L from T_n\n"
    "   computed by\n"
    "     L_n(L) as select max(L) + 1 from Topo;\n"
    "     V_1(ID) as select V.ID from V where ID not in (select ID from Topo);\n"
    "     E_1(T) as select ED.T from V_1, ED where V_1.ID = ED.F;\n"
    "     T_n as select ID, L from V_1, L_n\n"
    "           where ID not in (select T from E_1);))\n"
    "select * from Topo";

const char* const kLpSql =
    "with L (ID, label) as (\n"
    "  (select ID, label from VL)\n"
    "  union by update ID\n"
    "  (select E.T, min(label) from L, E where L.ID = E.F group by E.T)\n"
    "  maxrecursion 15)\n"
    "select ID, label from L";

const char* const kCoreSql =
    "with EC (F, T, ew) as (\n"
    "  (select F, T, ew from ES)\n"
    "  union by update\n"
    "  (select EC.F, EC.T, EC.ew from EC, K1, K2\n"
    "   where EC.F = K1.ID and EC.T = K2.ID\n"
    "   computed by\n"
    "     DG(ID, d) as select F, count(*) from EC group by F;\n"
    "     K1(ID) as select ID from DG where d >= 2;\n"
    "     K2(ID) as select ID from DG where d >= 2;))\n"
    "select F, T, ew from EC";

const char* const kTcSql =
    "with TC (F, T) as (\n"
    "  (select F, T from ED)\n"
    "  union\n"
    "  (select TC.F, ED.T from TC, ED where TC.T = ED.F))\n"
    "select * from TC";

Result<std::unique_ptr<SqlGraph>> BuildSql(uint64_t seed, SetupTimes* times) {
  auto sg = std::make_unique<SqlGraph>();
  {
    Stopwatch w(&times->generate_ms);
    const Graph directed =
        graph::Rmat(kSqlNodes, 3 * kSqlNodes, SubSeed(kStructureSeed, 6));
    Graph sym(kSqlNodes,
              graph::DedupeEdges(graph::Symmetrize(directed.EdgeList())));
    sym = graph::WithRandomEdgeWeights(sym, SubSeed(kStructureSeed, 7), 1.0,
                                       10.0);
    graph::AttachRandomNodeData(&sym, SubSeed(kStructureSeed, 8));
    sg->base = std::move(sym);
    sg->looped = WithSelfLoops(sg->base, 0.0);
    sg->norm = Normalized(sg->looped);
    sg->dag = graph::DagifyByPermutation(
        graph::Rmat(kSqlNodes, 3 * kSqlNodes, SubSeed(kStructureSeed, 9)),
        SubSeed(kStructureSeed, 10));
  }
  {
    Stopwatch w(&times->register_ms);
    ra::Catalog& cat = sg->cat;
    const std::pair<ra::Table, uint64_t> tables[] = {
        {graph::EdgeRelation(sg->looped, "E"), 1},
        {graph::EdgeRelation(sg->norm, "EN"), 2},
        {graph::EdgeRelation(sg->base, "ES"), 3},
        {graph::EdgeRelation(sg->dag, "ED"), 4},
        {graph::NodeRelation(sg->base, "V"), 5},
        {graph::LabelRelation(sg->base, "VL"), 6},
    };
    for (const auto& [table, k] : tables) {
      GPR_RETURN_NOT_OK(Register(cat, table, SubSeed(seed, k)));
    }
  }
  Stopwatch w(&times->answers_ms);
  sg->pr = baseline::PaperPageRank(sg->norm, kIterations, kDamping);
  sg->cc = AsDoubles(baseline::Wcc(sg->base));
  sg->sssp = baseline::SsspBellmanFord(sg->looped, 0);
  sg->ts = AsDoubles(baseline::TopoSortLevels(sg->dag));
  sg->lp = MinLabelPropagation(sg->looped, kIterations);
  sg->kc =
      CoreEdges(sg->base, baseline::KCore(sg->base, 2 * kSqlCoreOutDegree));
  for (const auto& [f, t] : baseline::TransitiveClosure(sg->dag)) {
    sg->tc.emplace_back(f, t);
  }
  std::sort(sg->tc.begin(), sg->tc.end());
  return sg;
}

/// sql::RunSql, step by step.
Result<WithPlusResult> SteppedSql(Tracer& t, const std::string& text,
                                  ra::Catalog& cat,
                                  const core::EngineProfile& profile) {
  gpr::sql::WithStatementAst ast;
  {
    ScopedSpan s(t, "sql.parse");
    GPR_ASSIGN_OR_RETURN(ast, gpr::sql::ParseWithStatement(text));
  }
  gpr::sql::BoundWithStatement bound;
  {
    ScopedSpan s(t, "sql.bind");
    GPR_ASSIGN_OR_RETURN(bound, gpr::sql::BindWithStatement(ast, cat));
  }
  GPR_ASSIGN_OR_RETURN(WithPlusResult result,
                       SteppedExecute(t, bound.query, cat, profile, 42));
  if (!bound.final_select) return result;
  ScopedSpan s(t, "core.final_select");
  const std::string& rec = bound.query.rec_name;
  result.table.set_name(rec);
  if (cat.Has(rec)) {
    return Status::AlreadyExists("table '" + rec +
                                 "' already exists in the catalog");
  }
  GPR_RETURN_NOT_OK(cat.CreateTempTable(rec, result.table.schema()));
  GPR_RETURN_NOT_OK(cat.ReplaceTable(rec, std::move(result.table)));
  auto fin = core::ExecutePlan(bound.final_select, cat, profile);
  (void)cat.DropTable(rec);
  GPR_ASSIGN_OR_RETURN(result.table, std::move(fin));
  return result;
}

Status ReplaySql(Tracer& t, const std::string& text, ra::Catalog& cat) {
  gpr::sql::BoundWithStatement bound;
  {
    ScopedSpan s(t, "replay.bind");
    GPR_ASSIGN_OR_RETURN(gpr::sql::WithStatementAst ast,
                         gpr::sql::ParseWithStatement(text));
    GPR_ASSIGN_OR_RETURN(bound, gpr::sql::BindWithStatement(ast, cat));
  }
  ScopedSpan s(t, "analysis.facts");
  analysis::ComputeQueryFacts(bound.query, cat);
  return Status::OK();
}

std::vector<Slot> SqlSlots(SqlGraph* sg) {
  struct Entry {
    const char* algo;
    std::string text;
    const std::vector<double>* want;  ///< null: compare pairs
    const Pairs* pairs;
    double tol;
    std::function<void()> native;
  };
  const Graph* looped = &sg->looped;
  const Graph* base = &sg->base;
  const Graph* dag = &sg->dag;
  const std::vector<Entry> entries = {
      {"pr", PageRankSql(kSqlNodes), &sg->pr, nullptr, kPrTolerance,
       [looped] { baseline::PageRank(*looped, kIterations, kDamping); }},
      {"wcc", kCcSql, &sg->cc, nullptr, 0, [base] { baseline::Wcc(*base); }},
      {"sssp", kSsspSql, &sg->sssp, nullptr, 0,
       [looped] { baseline::SsspBellmanFord(*looped, 0); }},
      {"ts", kTopoSql, &sg->ts, nullptr, 0,
       [dag] { baseline::TopoSortLevels(*dag); }},
      {"lp", kLpSql, &sg->lp, nullptr, 0,
       [looped] { MinLabelPropagation(*looped, kIterations); }},
      {"kc", kCoreSql, nullptr, &sg->kc, 0,
       [base] { baseline::KCore(*base, 2 * kSqlCoreOutDegree); }},
      {"tc", kTcSql, nullptr, &sg->tc, 0,
       [dag] { baseline::TransitiveClosure(*dag); }},
  };
  const core::EngineProfile profile = core::OracleLike();
  ra::Catalog* cat = &sg->cat;
  std::vector<Slot> slots;
  for (const Entry& en : entries) {
    Slot s;
    s.algo = en.algo;
    const std::string text = en.text;
    s.run = [text, cat, profile]() -> Result<WithPlusResult> {
      GPR_ASSIGN_OR_RETURN(ra::Table table,
                           gpr::sql::RunSql(text, *cat, profile));
      WithPlusResult r;
      r.table = std::move(table);
      return r;
    };
    s.run_traced = [text, cat, profile](Tracer& t) {
      return SteppedSql(t, text, *cat, profile);
    };
    s.replay = [text, cat](Tracer& t, const WithPlusResult&) {
      return ReplaySql(t, text, *cat);
    };
    if (en.want != nullptr) {
      const std::vector<double>* want = en.want;
      const double tol = en.tol;
      s.check = [want, tol](const ra::Table& t) {
        return CheckVector(t, *want, tol);
      };
    } else {
      const Pairs* want = en.pairs;
      s.check = [want](const ra::Table& t) { return CheckPairs(t, *want); };
    }
    s.native = en.native;
    slots.push_back(std::move(s));
  }
  return slots;
}

struct State {
  std::unique_ptr<MvGraph> mv;
  std::unique_ptr<RelGraph> rel;
  std::unique_ptr<SqlGraph> sql;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "fig11-mv", "fig7-relational", "short-sql", "fig11-mv-dop2"};
  return kNames;
}

int WorkloadDop(const std::string& name) {
  if (name == "fig11-mv-dop2") return 2;
  for (const auto& n : WorkloadNames()) {
    if (n == name) return 1;
  }
  return 0;
}

Result<Workload> BuildWorkload(const std::string& name, uint64_t seed,
                               SetupTimes* times) {
  Workload w;
  w.name = name;
  w.dop = WorkloadDop(name);
  if (w.dop == 0) {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  auto state = std::make_shared<State>();
  if (name == "short-sql") {
    GPR_ASSIGN_OR_RETURN(state->sql, BuildSql(seed, times));
    w.nodes = state->sql->base.num_nodes();
    w.edges = state->sql->looped.num_edges();
    w.slots = SqlSlots(state->sql.get());
    const Graph* g = &state->sql->looped;
    w.reference = [g] { baseline::PageRank(*g, kIterations, kDamping); };
    w.reference_name = "baseline::PageRank on E";
  } else if (name == "fig7-relational") {
    GPR_ASSIGN_OR_RETURN(state->rel, BuildRel(kFig7Nodes, seed, times));
    GPR_ASSIGN_OR_RETURN(state->mv,
                         BuildMv(kSideMvScale, SubSeed(seed, 12), times));
    w.nodes = state->rel->g.num_nodes();
    w.edges = state->rel->g.num_edges();
    w.side_nodes = state->mv->g.num_nodes();
    w.side_edges = state->mv->g.num_edges();
    w.slots = RelSlots(state->rel.get(), w.dop, /*main=*/true);
    const Graph* g = &state->rel->g;
    w.reference = [g] { baseline::LabelPropagation(*g, kIterations); };
    w.reference_name = "baseline::LabelPropagation on the stream graph";
    for (Slot& s : MvSlots(state->mv.get(), w.dop, /*main=*/false)) {
      w.slots.push_back(std::move(s));
    }
  } else {
    GPR_ASSIGN_OR_RETURN(state->mv, BuildMv(kFig11Scale, seed, times));
    GPR_ASSIGN_OR_RETURN(state->rel,
                         BuildRel(kSideRelNodes, SubSeed(seed, 12), times));
    w.nodes = state->mv->g.num_nodes();
    w.edges = state->mv->g.num_edges();
    w.side_nodes = state->rel->g.num_nodes();
    w.side_edges = state->rel->g.num_edges();
    w.slots = MvSlots(state->mv.get(), w.dop, /*main=*/true);
    const Graph* g = &state->mv->g;
    w.reference = [g] { baseline::PageRank(*g, kIterations, kDamping); };
    w.reference_name = "baseline::PageRank on the stream graph";
    for (Slot& s : RelSlots(state->rel.get(), w.dop, /*main=*/false)) {
      w.slots.push_back(std::move(s));
    }
  }
  w.state = state;
  return w;
}

}  // namespace perfbench
