/// \file main.cpp
/// \brief Flow benchmark binary: runs one workload as a closed loop of full
/// flow passes and prints its metrics, or (--trace 1) replays the flows
/// stage by stage and prints per-layer metrics.
///
///   flowbench --workload ladder-signoff-t1 --seed 1 --seconds 20 --trace 0
///   flowbench --workload ladder-place-t4 --setup-only
///   flowbench --self-test
///
/// Workloads: ladder-signoff-t1 (aes, jpeg, ariane, BlackParrot through the
/// default and the ours flow, then route/CTS/STA, 1 thread), ladder-place-t4
/// (the same up to legal placement, 4 threads), sharded-100k-t1
/// (scale-100k, MFC clustering, uniform shapes, 8-region sharded placement,
/// 1 thread) and sharded-100k-t2 / -t4 (the same at 2 and 4 threads). The
/// seed fixes the order of the operations within a pass.
///
/// Untraced runs call the library's flow entry points (try_run_default_flow,
/// try_run_clustered_flow, try_run_sharded_flow, try_evaluate_ppa). Each pass
/// starts after the previous one completes, from fresh copies of the
/// generated netlists made outside the timed interval. An operation is one
/// flow on one design within a pass; it fails when its entry point returns
/// an error, records a degradation, or fails one of the output checks.
///
/// The binary prints "SETUP_DONE" once the designs are generated and one
/// untimed warm-up pass has run, and its result as the last stdout line,
/// prefixed "FLOWBENCH_RESULT ". flowbench/run.py turns that into the
/// benchmark's result. A pass that runs longer than kPassLimitS seconds
/// ends the process with exit code 3 and a "FAILURE pass-timeout" line.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "telemetry/telemetry.hpp"

namespace flowbench {
namespace {

// --- Workloads ---------------------------------------------------------------

struct OpSpec {
  const char* design;
  FlowKind flow;
};

struct Workload {
  const char* name;
  int threads;
  bool signoff;  ///< route + CTS + STA after placement
  std::vector<OpSpec> ops;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    // The Table-3 routable designs, each through the flat and the clustered
    // (V-P&R shapes) flow.
    std::vector<OpSpec> ladder;
    for (const char* design : {"aes", "jpeg", "ariane", "BlackParrot"}) {
      ladder.push_back({design, FlowKind::kDefault});
      ladder.push_back({design, FlowKind::kOurs});
    }
    return std::vector<Workload>{
        {"ladder-signoff-t1", 1, true, ladder},
        {"ladder-place-t4", 4, false, ladder},
        {"sharded-100k-t1", 1, false, {{"scale-100k", FlowKind::kSharded}}},
        {"sharded-100k-t2", 2, false, {{"scale-100k", FlowKind::kSharded}}},
        {"sharded-100k-t4", 4, false, {{"scale-100k", FlowKind::kSharded}}},
    };
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

flow::FlowOptions flow_options(FlowKind kind, const gen::DesignSpec& spec) {
  flow::FlowOptions options = bench::design_flow_options(spec);
  if (kind == FlowKind::kSharded) {
    // As bench_sharded: plain MFC clustering, uniform shapes, 8 regions.
    options.cluster_method = flow::ClusterMethod::kMfc;
    options.shape_mode = flow::ShapeMode::kUniform;
    options.sharding.shards = 8;
  }
  return options;
}

/// One operation's inputs; `base` is the generated netlist it copies.
struct Input {
  FlowKind flow;
  gen::DesignSpec spec;
  flow::FlowOptions options;
  const netlist::Netlist* base = nullptr;
};

struct Inputs {
  std::vector<netlist::Netlist> designs;  ///< one per distinct design
  std::vector<Input> ops;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  std::vector<std::string> names;
  for (const OpSpec& op : w.ops) {
    if (std::find(names.begin(), names.end(), op.design) == names.end()) {
      names.push_back(op.design);
    }
  }
  in.designs.reserve(names.size());
  for (const std::string& name : names) {
    in.designs.push_back(bench::make_design(gen::design_spec(name)));
  }
  for (const OpSpec& op : w.ops) {
    const std::size_t d = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), op.design) - names.begin());
    Input input{op.flow, gen::design_spec(op.design), {}, &in.designs[d]};
    input.options = flow_options(op.flow, input.spec);
    in.ops.push_back(std::move(input));
  }
  // The seed fixes the order in which every pass of the run issues its
  // operations (a Fisher-Yates shuffle). The netlists and options are the
  // named designs' own, so results -- and hpwl_um -- do not depend on it.
  std::uint64_t state = splitmix64(seed);
  for (std::size_t i = in.ops.size(); i > 1; --i) {
    state = splitmix64(state);
    std::swap(in.ops[i - 1], in.ops[state % i]);
  }
  return in;
}

std::string op_label(const Input& in) {
  return in.spec.name + "/" + to_string(in.flow);
}

// --- Watchdog ----------------------------------------------------------------

/// A pass takes a few seconds; one this long is hung (see the README on the
/// router's bucket-queue fault), and the run ends instead of waiting.
constexpr double kPassLimitS = 90.0;

/// Ends the process with a named failure when an armed pass overruns.
class Watchdog {
 public:
  explicit Watchdog(double limit_s) : limit_s_(limit_s), thread_([this] { loop(); }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  void arm(std::string what) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      what_ = std::move(what);
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(limit_s_));
      armed_ = true;
    }
    cv_.notify_all();
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
  }

 private:
  using Clock = std::chrono::steady_clock;
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (!armed_) {
        cv_.wait(lock, [this] { return stop_ || armed_; });
        continue;
      }
      const Clock::time_point deadline = deadline_;
      const bool changed = cv_.wait_until(lock, deadline, [this, deadline] {
        return stop_ || !armed_ || deadline_ != deadline;
      });
      if (changed) continue;
      std::fprintf(stderr, "flowbench: FAILURE pass-timeout: %s ran longer than %.0f s\n",
                   what_.c_str(), limit_s_);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  double limit_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string what_;
  Clock::time_point deadline_{};
  bool armed_ = false;
  bool stop_ = false;
  std::thread thread_;
};

// --- Entry-point passes --------------------------------------------------------

struct EntryOp {
  std::string failure;  ///< empty when the operation succeeded
  flow::FlowResult result;
};

struct EntryPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double hpwl_um = 0.0;
  std::vector<netlist::Netlist> netlists;  ///< the copies the flows ran on
  std::vector<EntryOp> ops;
};

fault::Expected<flow::FlowResult, fault::FlowError> run_entry(FlowKind kind,
                                                             netlist::Netlist& nl,
                                                             const flow::FlowOptions& o) {
  switch (kind) {
    case FlowKind::kDefault: return flow::try_run_default_flow(nl, o);
    case FlowKind::kOurs: return flow::try_run_clustered_flow(nl, o);
    case FlowKind::kSharded: return flow::try_run_sharded_flow(nl, o);
  }
  return fault::err("unknown-flow", "flowbench", "unknown flow kind");
}

std::string degradation_failure(std::size_t before) {
  const std::vector<fault::Degradation> log = fault::degradation_log();
  if (log.size() == before) return {};
  return "degraded " + log.back().site + " " + log.back().error_code;
}

EntryPass run_entry_pass(const Workload& w, const Inputs& in, Watchdog& dog,
                         const std::string& label) {
  EntryPass pass;
  pass.netlists.reserve(in.ops.size());
  for (const Input& op : in.ops) pass.netlists.push_back(*op.base);
  pass.ops.resize(in.ops.size());
  fault::reset_log();
  telemetry::reset_spans();

  dog.arm(label);
  const double cpu0 = cpu_s();
  const double t0 = wall_s();
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Input& input = in.ops[i];
    EntryOp& op = pass.ops[i];
    const std::size_t degraded = fault::degradation_log().size();
    auto placed = run_entry(input.flow, pass.netlists[i], input.options);
    if (!placed.has_value()) {
      op.failure = "flow-error " + placed.error().code;
      continue;
    }
    op.result = std::move(placed).value();
    if (w.signoff) {
      auto ppa = flow::try_evaluate_ppa(pass.netlists[i], op.result.place.positions,
                                        input.options);
      if (!ppa.has_value()) {
        op.failure = "ppa-error " + ppa.error().code;
        continue;
      }
      op.result.ppa = ppa.value();
    }
    op.failure = degradation_failure(degraded);
  }
  pass.wall_s = wall_s() - t0;
  pass.cpu_s = cpu_s() - cpu0;
  dog.disarm();
  for (const EntryOp& op : pass.ops) pass.hpwl_um += op.result.place.hpwl_um;
  return pass;
}

/// Per-operation reference from the warm-up pass: what every later pass
/// must reproduce, and the overflow count recounted from a replayed route.
struct Reference {
  std::vector<geom::Point> positions;
  double hpwl_um = 0.0;
  flow::PpaOutcome ppa;
  int recounted_overflow = -1;
};

bool same_positions(const std::vector<geom::Point>& a, const std::vector<geom::Point>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(geom::Point)) == 0);
}

bool same_ppa(const flow::PpaOutcome& a, const flow::PpaOutcome& b) {
  return a.rwl_um == b.rwl_um && a.wns_ps == b.wns_ps && a.tns_ns == b.tns_ns &&
         a.power_w == b.power_w && a.clock_skew_ps == b.clock_skew_ps &&
         a.route_overflow_edges == b.route_overflow_edges;
}

/// The output checks for one entry-point operation; empty when all pass.
std::string check_entry_op(const Workload& w, const Input& input, const netlist::Netlist& nl,
                           const flow::FlowResult& r, const Reference* ref) {
  const flow::PlaceOutcome& place = r.place;
  std::string bad = check_legality(nl, place.positions, input.options.floorplan_utilization);
  if (bad.empty()) bad = check_hpwl(nl, place.positions, place.hpwl_um);
  if (bad.empty() && input.flow != FlowKind::kDefault && place.cluster_count <= 0) {
    bad = "partition: no clusters";
  }
  if (bad.empty() && input.flow == FlowKind::kSharded &&
      (place.shard_fallbacks != 0 || place.shard_count != input.options.sharding.shards)) {
    bad = "shards: " + std::to_string(place.shard_count) + " shards, " +
          std::to_string(place.shard_fallbacks) + " fallbacks";
  }
  if (bad.empty() && w.signoff) bad = check_timing(r.ppa.wns_ps, r.ppa.tns_ns);
  if (bad.empty() && ref != nullptr) {
    if (!same_positions(place.positions, ref->positions) || place.hpwl_um != ref->hpwl_um) {
      bad = "determinism: placement differs from the warm-up pass";
    } else if (w.signoff && !same_ppa(r.ppa, ref->ppa)) {
      bad = "determinism: PPA differs from the warm-up pass";
    } else if (w.signoff && r.ppa.route_overflow_edges != ref->recounted_overflow) {
      bad = "route: reported " + std::to_string(r.ppa.route_overflow_edges) +
            " overflow edges, recounted " + std::to_string(ref->recounted_overflow);
    }
  }
  return bad;
}

// --- Traced replay passes -----------------------------------------------------

struct TracedOp {
  std::string failure;
  std::optional<netlist::Netlist> nl;
  ReplayPlacement place;
  std::optional<ReplaySignoff> signoff;
};

struct TracedPass {
  std::size_t span_begin = 0;
  std::size_t span_end = 0;
  std::vector<TracedOp> ops;
};

/// Replays every operation of a pass through the module calls. With
/// `spans` null it is the untraced reference replay.
TracedPass run_traced_pass(const Workload& w, const Inputs& in, Spans* spans,
                           Watchdog& dog, const std::string& label) {
  TracedPass pass;
  pass.ops.resize(in.ops.size());
  fault::reset_log();
  telemetry::reset_spans();
  dog.arm(label);
  pass.span_begin = spans != nullptr ? spans->size() : 0;
  {
    Scope pass_scope(spans, "pass", label);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Input& input = in.ops[i];
      TracedOp& op = pass.ops[i];
      Scope op_scope(spans, "op", op_label(input));
      {
        Scope gen_scope(spans, "gen.design");
        op.nl.emplace(bench::make_design(input.spec));
      }
      const std::size_t degraded = fault::degradation_log().size();
      auto placed = replay_flow(input.flow, *op.nl, input.options, spans);
      if (!placed.has_value()) {
        op.failure = "flow-error " + placed.error().code;
        continue;
      }
      op.place = std::move(placed).value();
      if (w.signoff) {
        auto signoff = replay_signoff(*op.nl, op.place.positions, input.options, spans);
        if (!signoff.has_value()) {
          op.failure = "ppa-error " + signoff.error().code;
          continue;
        }
        op.signoff = std::move(signoff).value();
      }
      op.failure = degradation_failure(degraded);
    }
  }
  pass.span_end = spans != nullptr ? spans->size() : 0;
  dog.disarm();
  return pass;
}

std::string check_traced_op(const Input& input, const TracedOp& op) {
  const ReplayPlacement& p = op.place;
  std::string bad = check_legality(*op.nl, p.positions, input.options.floorplan_utilization);
  if (bad.empty()) bad = check_hpwl(*op.nl, p.positions, p.hpwl_um);
  if (bad.empty() && p.clustered) bad = check_partition(*op.nl, p.clusters);
  if (bad.empty() && input.flow == FlowKind::kSharded) {
    bad = check_shards(*op.nl, p.shard_of_cell, p.shard_movables, p.shard_count,
                       p.shard_fallbacks);
  }
  if (bad.empty() && op.signoff) bad = check_route(op.signoff->route);
  if (bad.empty() && op.signoff) {
    bad = check_timing(op.signoff->ppa.wns_ps, op.signoff->ppa.tns_ns);
  }
  return bad;
}

// --- Metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Layers timed in the traced replay, named after the library modules.
const std::vector<std::string>& timed_layers() {
  static const std::vector<std::string> layers = {
      "gen.design",  "sta.extract", "hier.group",     "cluster.cluster", "vpr.shape",
      "place.seed",  "place.gp",    "place.incr",     "place.shard",     "place.legalize",
      "route.route", "cts.tree",    "sta.signoff"};
  return layers;
}

/// Per-layer values of one traced pass, keyed by metric name.
std::map<std::string, double> layer_values(const Workload& w, const Spans& spans,
                                           const std::vector<SelfValues>& self,
                                           const TracedPass& pass) {
  std::map<std::string, double> v;
  for (const std::string& layer : timed_layers()) {
    v[layer + "_s"] = 0.0;
    v[layer + "_cpu_s"] = 0.0;
    v[layer + "_allocs"] = 0.0;
  }
  double pass_wall = 0.0;
  double pass_cpu = 0.0;
  for (std::size_t i = pass.span_begin; i < pass.span_end; ++i) {
    const Span& s = spans.all()[i];
    if (s.name == "pass") {
      pass_wall = s.end_s - s.start_s;
      pass_cpu = s.cpu_end_s - s.cpu_start_s;
      continue;
    }
    if (v.count(s.name + "_s") == 0) continue;
    v[s.name + "_s"] += self[i].wall_s;
    v[s.name + "_cpu_s"] += self[i].cpu_s;
    v[s.name + "_allocs"] += self[i].allocs;
  }
  const char* counts[] = {"cluster.clusters",   "vpr.runs",          "vpr.clusters_shaped",
                          "place.seed_iters",   "place.gp_iters",    "place.incr_iters",
                          "place.shards",       "place.shard_fallbacks", "route.rwl_um",
                          "route.overflow_edges", "route.failed_nets"};
  for (const char* name : counts) v[name] = 0.0;
  for (const TracedOp& op : pass.ops) {
    const ReplayPlacement& p = op.place;
    v["cluster.clusters"] += p.cluster_count;
    v["vpr.runs"] += p.vpr_runs;
    v["vpr.clusters_shaped"] += p.clusters_shaped;
    v["place.seed_iters"] += p.seed_iters;
    v["place.gp_iters"] += p.gp_iters;
    v["place.incr_iters"] += p.incr_iters;
    v["place.shards"] += p.shard_count;
    v["place.shard_fallbacks"] += p.shard_fallbacks;
    if (op.signoff) {
      v["route.rwl_um"] += op.signoff->route.wirelength_um;
      v["route.overflow_edges"] += op.signoff->route.overflow_edges;
      v["route.failed_nets"] += op.signoff->route.failed_nets;
    }
  }
  // Thread use over the flow part of the pass (design generation excluded).
  const double flow_wall = pass_wall - v["gen.design_s"];
  const double flow_cpu = pass_cpu - v["gen.design_cpu_s"];
  v["exec.util"] = flow_wall > 0.0 ? flow_cpu / (flow_wall * w.threads) : 0.0;
  return v;
}

const char* layer_unit(const std::string& name) {
  auto ends_with = [&name](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with("_um")) return "um";
  if (name == "exec.util") return "ratio";
  return "count";
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  std::string line = "FLOWBENCH_RESULT {\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void announce_setup_done() {
  std::printf("SETUP_DONE\n");
  std::fflush(stdout);
}

// --- Modes ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  bool self_test = false;
  std::string trace_out;
};

int run_untraced(const Workload& w, const Args& args, Watchdog& dog) {
  exec::set_thread_count(w.threads);
  const Inputs in = make_inputs(w, args.seed);
  EntryPass warm = run_entry_pass(w, in, dog, std::string(w.name) + " warm-up pass");
  announce_setup_done();
  if (args.setup_only) return 0;

  // References from the warm-up pass. Signoff operations are also replayed
  // (route, CTS, STA) so the overflow count can be recounted from the
  // router's edge utilisation; every later pass must reproduce both.
  bool correct = true;
  std::vector<Reference> refs(in.ops.size());
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const EntryOp& op = warm.ops[i];
    if (!op.failure.empty()) continue;
    refs[i].positions = op.result.place.positions;
    refs[i].hpwl_um = op.result.place.hpwl_um;
    refs[i].ppa = op.result.ppa;
    if (!w.signoff) continue;
    auto replayed = replay_signoff(warm.netlists[i], op.result.place.positions,
                                   in.ops[i].options, nullptr);
    if (!replayed.has_value() || !check_route(replayed.value().route).empty() ||
        !same_ppa(replayed.value().ppa, op.result.ppa)) {
      std::fprintf(stderr, "flowbench: %s: replayed signoff disagrees with try_evaluate_ppa\n",
                   op_label(in.ops[i]).c_str());
      correct = false;
      continue;
    }
    refs[i].recounted_overflow = replayed.value().route.overflow_edges;
  }
  warm = EntryPass{};

  long attempted = 0;
  long failed = 0;
  std::vector<double> walls;
  std::vector<double> cpus;
  double hpwl = 0.0;
  const double start = wall_s();
  int index = 0;
  do {
    EntryPass pass = run_entry_pass(w, in, dog, std::string(w.name) + " pass " +
                                                    std::to_string(index));
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      std::string failure = pass.ops[i].failure;
      if (failure.empty()) {
        failure = check_entry_op(w, in.ops[i], pass.netlists[i], pass.ops[i].result, &refs[i]);
      }
      ++attempted;
      if (!failure.empty()) {
        ++failed;
        std::fprintf(stderr, "flowbench: pass %d %s failed: %s\n", index,
                     op_label(in.ops[i]).c_str(), failure.c_str());
      }
    }
    if (index > 0 && pass.hpwl_um != hpwl) correct = false;
    hpwl = pass.hpwl_um;
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    std::fprintf(stderr, "flowbench: pass %d wall %.4f s cpu %.4f s hpwl %.6g um\n", index,
                 pass.wall_s, pass.cpu_s, pass.hpwl_um);
    ++index;
  } while (wall_s() - start < args.seconds);

  print_result(correct, attempted, failed,
               {{"flow_s", median(walls), "s"},
                {"cpu_s", median(cpus), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"hpwl_um", hpwl, "um"}});
  return 0;
}

SelfTestSample sample_from(const Input& input, const TracedOp& op) {
  SelfTestSample s;
  s.nl = &*op.nl;
  s.positions = op.place.positions;
  s.utilization = input.options.floorplan_utilization;
  s.hpwl_um = op.place.hpwl_um;
  if (op.place.clustered) s.clusters = &op.place.clusters;
  s.shard_of_cell = op.place.shard_of_cell;
  s.shard_movables = op.place.shard_movables;
  s.shard_count = op.place.shard_count;
  if (op.signoff) {
    s.route = &op.signoff->route;
    s.wns_ps = op.signoff->ppa.wns_ps;
    s.tns_ns = op.signoff->ppa.tns_ns;
    s.has_timing = true;
  }
  return s;
}

/// Runs the self-test on one traced operation; false if a case failed.
bool run_self_test(const Input& input, const TracedOp& op) {
  bool ok = true;
  for (const std::string& line : self_test(sample_from(input, op))) {
    std::fprintf(stderr, "flowbench: self-test %s: %s\n", op_label(input).c_str(),
                 line.c_str());
    ok = ok && line.rfind("ok ", 0) == 0;
  }
  return ok;
}

int run_traced(const Workload& w, const Args& args, Watchdog& dog) {
  exec::set_thread_count(w.threads);
  const Inputs in = make_inputs(w, args.seed);
  bool correct = true;

  // References: the flow entry points at the workload's thread count, and
  // for multi-threaded workloads the same inputs replayed at 1 thread.
  const EntryPass entry = run_entry_pass(w, in, dog, std::string(w.name) + " entry pass");
  std::optional<TracedPass> serial;
  if (w.threads > 1) {
    exec::set_thread_count(1);
    serial = run_traced_pass(w, in, nullptr, dog, std::string(w.name) + " 1-thread replay");
    exec::set_thread_count(w.threads);
  }
  announce_setup_done();

  Spans spans;
  const double origin = wall_s();
  std::vector<TracedPass> passes;
  std::map<std::string, std::vector<double>> series;
  std::vector<double> replay_walls;
  long attempted = 0;
  long failed = 0;
  int index = 0;
  do {
    TracedPass pass = run_traced_pass(w, in, &spans, dog,
                                      std::string(w.name) + " traced pass " +
                                          std::to_string(index));
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const TracedOp& op = pass.ops[i];
      std::string failure = op.failure;
      if (failure.empty()) failure = check_traced_op(in.ops[i], op);
      if (failure.empty() && (!entry.ops[i].failure.empty() ||
                              !same_positions(op.place.positions,
                                              entry.ops[i].result.place.positions))) {
        failure = "equality: replay placement differs from the flow entry point";
      }
      if (failure.empty() && op.signoff && !same_ppa(op.signoff->ppa, entry.ops[i].result.ppa)) {
        failure = "equality: replay PPA differs from try_evaluate_ppa";
      }
      if (failure.empty() && serial &&
          !same_positions(op.place.positions, serial->ops[i].place.positions)) {
        failure = "equality: " + std::to_string(w.threads) +
                  "-thread placement differs from the 1-thread replay";
      }
      ++attempted;
      if (!failure.empty()) {
        ++failed;
        std::fprintf(stderr, "flowbench: traced pass %d %s failed: %s\n", index,
                     op_label(in.ops[i]).c_str(), failure.c_str());
      }
    }
    const std::vector<SelfValues> self = spans.self_values();
    for (const auto& [name, value] : layer_values(w, spans, self, pass)) {
      series[name].push_back(value);
    }
    const Span& pass_span = spans.all()[pass.span_begin];
    replay_walls.push_back(pass_span.end_s - pass_span.start_s);
    // Keep the first pass for the self-test; later ones only as spans.
    if (passes.empty()) passes.push_back(std::move(pass));
    ++index;
  } while (wall_s() - origin < args.seconds);

  // Self-test on the first clustered operation of the first traced pass.
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    if (passes[0].ops[i].place.clustered && passes[0].ops[i].failure.empty()) {
      correct = run_self_test(in.ops[i], passes[0].ops[i]) && correct;
      break;
    }
  }

  std::fprintf(stderr,
               "flowbench: tracing overhead: replay pass %.4f s (median of %zu, design "
               "generation %.4f s) vs entry-point pass %.4f s\n",
               median(replay_walls), replay_walls.size(), median(series["gen.design_s"]),
               entry.wall_s);
  if (!args.trace_out.empty()) {
    if (spans.write_chrome_trace(args.trace_out, origin)) {
      std::fprintf(stderr, "flowbench: %zu spans written to %s\n", spans.size(),
                   args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "flowbench: could not write %s\n", args.trace_out.c_str());
      correct = false;
    }
  }
  std::vector<Metric> metrics;
  for (const auto& [name, values] : series) {
    metrics.push_back({name, median(values), layer_unit(name)});
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

/// Replays aes through the clustered flow with signoff and jpeg through the
/// sharded flow, then seeds each corruption into their outputs.
int run_self_test_mode(const Args& args, Watchdog& dog) {
  const Workload w{"self-test", 1, true,
                   {{"aes", FlowKind::kOurs}, {"jpeg", FlowKind::kSharded}}};
  exec::set_thread_count(w.threads);
  const Inputs in = make_inputs(w, args.seed);
  const TracedPass pass = run_traced_pass(w, in, nullptr, dog, "self-test replay");
  bool ok = true;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const std::string failure =
        pass.ops[i].failure.empty() ? check_traced_op(in.ops[i], pass.ops[i])
                                    : pass.ops[i].failure;
    if (!failure.empty()) {
      std::fprintf(stderr, "flowbench: self-test %s: clean output fails: %s\n",
                   op_label(in.ops[i]).c_str(), failure.c_str());
      ok = false;
      continue;
    }
    ok = run_self_test(in.ops[i], pass.ops[i]) && ok;
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "flowbench: %s\nusage: flowbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH] [--setup-only]\n"
               "       flowbench --self-test [--seed N]\nworkloads:",
               message);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  using namespace flowbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (arg == "--self-test") {
      args.self_test = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      args.trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out") {
      args.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  Watchdog dog(kPassLimitS);
  if (args.self_test) return run_self_test_mode(args, dog);
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());
  return args.trace != 0 ? run_traced(*w, args, dog) : run_untraced(*w, args, dog);
}
