// serve-stream: a seeded request stream through serve::ServeEngine, one
// closed-loop client with one request in flight (serve() is a blocking
// library call).
//
// Every pass replays the same stream through a fresh engine, so each pass
// does the same work and hit/warm/cold counts repeat exactly. The traced
// run replays the stream a second time through the engine's steps rebuilt
// from the public API (canonicalize, ResultCache probes, an annealing solve
// through TracedCost, insert) and requires every response to match the
// engine's bitwise.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "layers.hpp"
#include "nocmap/core/explorer.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/serve/canonical.hpp"
#include "nocmap/serve/engine.hpp"
#include "nocmap/serve/result_cache.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/workload/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = nocmap::core;
namespace graph = nocmap::graph;
namespace mapping = nocmap::mapping;
namespace noc = nocmap::noc;
namespace serve = nocmap::serve;
namespace sim = nocmap::sim;

/// The catalogue the stream's apps are drawn from, in order. Larger than the
/// number of apps any stream uses.
const char* const kPopulation = "apps=256,cores=9,seed=7";
constexpr std::uint32_t kMeshSide = 3;

/// Request mix: every catalogue app the stream uses is sent once fresh (a
/// cold solve), `near` times as a payload-perturbed relabeled copy (a warm
/// start) and `dup` times as a relabeled exact copy (a cache hit): 5 % cold,
/// 63 % warm and 32 % hits. p50 then falls inside the warm starts, which
/// take most of the time, and p99 inside the cold solves. Every seed sends
/// the same apps the same number of times each.
struct StreamShape {
  std::uint32_t bases, near, dup;
  std::uint32_t requests() const { return bases * (1 + near + dup); }
};
constexpr StreamShape kStream{60, 12, 6};
/// The smoke size still has enough requests for a p99 with ten beyond it.
constexpr StreamShape kSmokeStream{53, 12, 6};

enum class Kind : std::uint8_t { kFresh, kNear, kDup };

/// One request as the client describes it; the graph itself is made by
/// make_request() just before it is sent, as a client would decode it.
struct RequestSpec {
  Kind kind = Kind::kFresh;
  std::uint32_t base = 0;          ///< Index into StreamPlan::apps.
  std::vector<std::size_t> perm;   ///< Relabeling of a copy.
  std::uint64_t perturb_seed = 0;  ///< Payload perturbation of a kNear.
};

/// The inputs of serve-stream: the catalogue apps and the request list.
struct StreamPlan {
  std::vector<graph::Cdcg> apps;
  std::vector<RequestSpec> requests;
};

using Stream = std::vector<graph::Cdcg>;

/// `cdcg` with core c renamed perm[c]; packet and dependence order kept.
graph::Cdcg relabel(const graph::Cdcg& cdcg,
                    const std::vector<std::size_t>& perm) {
  graph::Cdcg out;
  for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
    out.add_core("c" + std::to_string(c));
  }
  for (const graph::Packet& p : cdcg.packets()) {
    out.add_packet(static_cast<graph::CoreId>(perm[p.src]),
                   static_cast<graph::CoreId>(perm[p.dst]), p.comp_time,
                   p.bits);
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    for (const graph::PacketId s : cdcg.successors(id)) {
      out.add_dependence(id, s);
    }
  }
  return out;
}

/// Same structure, every payload and computation time scaled by a factor
/// drawn from [0.75, 1.25): a near-duplicate of the same family.
graph::Cdcg perturb(const graph::Cdcg& cdcg, nocmap::util::Rng& rng) {
  graph::Cdcg out;
  for (graph::CoreId c = 0; c < cdcg.num_cores(); ++c) {
    out.add_core("c" + std::to_string(c));
  }
  for (const graph::Packet& p : cdcg.packets()) {
    const double fb = 0.75 + 0.5 * rng.uniform01();
    const double fc = 0.75 + 0.5 * rng.uniform01();
    const auto scaled = [](std::uint64_t v, double f) {
      return static_cast<std::uint64_t>(
          std::llround(static_cast<double>(v) * f));
    };
    out.add_packet(p.src, p.dst, scaled(p.comp_time, fc),
                   std::max<std::uint64_t>(1, scaled(p.bits, fb)));
  }
  for (graph::PacketId id = 0; id < cdcg.num_packets(); ++id) {
    for (const graph::PacketId s : cdcg.successors(id)) {
      out.add_dependence(id, s);
    }
  }
  return out;
}

/// The plan is a pure function of the seed: the seed orders the requests
/// and draws each copy's relabeling and perturbation. The apps are the
/// catalogue's first ones that fit the board, verbatim, so every seed pays
/// for the same cold solves; an app's first request is its fresh one.
StreamPlan build_plan(const StreamShape& shape, std::uint64_t seed) {
  const nocmap::workload::SyntheticPopulation population(
      nocmap::workload::SyntheticSpec::parse(kPopulation));
  StreamPlan plan;
  for (std::size_t i = 0; plan.apps.size() < shape.bases; ++i) {
    graph::Cdcg app = population.app(i).cdcg;
    if (app.num_cores() >= 2 && app.num_cores() <= kMeshSide * kMeshSide &&
        app.num_packets() > 0) {
      plan.apps.push_back(std::move(app));
    }
  }

  nocmap::util::Rng rng(seed);
  std::vector<std::uint32_t> order;
  std::vector<std::vector<Kind>> copies(shape.bases);
  for (std::uint32_t b = 0; b < shape.bases; ++b) {
    order.insert(order.end(), 1 + shape.near + shape.dup, b);
    copies[b].insert(copies[b].end(), shape.near, Kind::kNear);
    copies[b].insert(copies[b].end(), shape.dup, Kind::kDup);
    rng.shuffle(copies[b]);
  }
  rng.shuffle(order);
  std::vector<std::size_t> sent(shape.bases, 0);
  plan.requests.reserve(order.size());
  for (const std::uint32_t b : order) {
    RequestSpec r;
    r.base = b;
    if (sent[b]++ > 0) {
      r.kind = copies[b][sent[b] - 2];
      r.perm = rng.permutation(plan.apps[b].num_cores());
      if (r.kind == Kind::kNear) r.perturb_seed = rng();
    }
    plan.requests.push_back(std::move(r));
  }
  return plan;
}

graph::Cdcg make_request(const StreamPlan& plan, const RequestSpec& r) {
  const graph::Cdcg& app = plan.apps[r.base];
  if (r.kind == Kind::kFresh) return app;
  graph::Cdcg twin = relabel(app, r.perm);
  if (r.kind == Kind::kDup) return twin;
  nocmap::util::Rng rng(r.perturb_seed);
  return perturb(twin, rng);
}

Stream make_stream(const StreamPlan& plan) {
  Stream s;
  s.reserve(plan.requests.size());
  for (const RequestSpec& r : plan.requests) {
    s.push_back(make_request(plan, r));
  }
  return s;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.objective = serve::Objective::kCdcm;
  o.explorer.method = core::SearchMethod::kSimulatedAnnealing;
  o.threads = 1;
  return o;
}

bool same_response(const serve::MapResponse& a, const serve::MapResponse& b) {
  return a.assignment == b.assignment && same_bits(a.cost_j, b.cost_j) &&
         a.served == b.served;
}

/// One pass through a fresh engine; per-request seconds go to `latency`.
/// Each request graph is made just before it is sent, outside its latency,
/// so the engine reads it from cache as it would a freshly decoded request.
std::vector<serve::MapResponse> serve_pass(const noc::Mesh& mesh,
                                           const StreamPlan& plan,
                                           std::vector<double>& latency,
                                           serve::CacheStats* cache = nullptr) {
  serve::ServeEngine engine(mesh, serve_options());
  std::vector<serve::MapResponse> out;
  out.reserve(plan.requests.size());
  latency.clear();
  for (const RequestSpec& spec : plan.requests) {
    const graph::Cdcg request = make_request(plan, spec);
    const Clock::time_point start = Clock::now();
    out.push_back(engine.serve_one(request));
    latency.push_back(seconds_since(start));
  }
  if (cache) *cache = engine.cache().stats();
  return out;
}

struct Quality {
  double cwm_cost = 0.0, texec = 0.0, energy = 0.0, served_cost = 0.0;
};

/// Checks every response against fresh evaluations of its assignment in the
/// request's own labeling, and collects the quality geomeans.
Quality check_responses(const noc::Mesh& mesh, const Stream& stream,
                        const std::vector<serve::MapResponse>& responses,
                        Checks& checks) {
  const core::ExplorerOptions x = serve_options().explorer;
  const sim::SimOptions so = sim_options(x);
  std::vector<double> cwm, texec, energy, served;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const graph::Cdcg& cdcg = stream[i];
    const serve::MapResponse& r = responses[i];
    const std::string what = "request " + std::to_string(i) + " (" +
                             serve::served_name(r.served) + "): ";
    if (!checks.expect(injective(r.assignment, cdcg.num_cores(),
                                 mesh.num_tiles()),
                       what + "assignment is not an injective mapping")) {
      continue;
    }
    const mapping::Mapping m =
        mapping::Mapping::from_assignment(mesh, r.assignment);
    const double fresh =
        mapping::CdcmCost(cdcg, mesh, x.tech, x.routing, so).cost(m);
    if (!checks.expect(same_bits(fresh, r.cost_j),
                       what + "cost_j " + num(r.cost_j) +
                           " differs from a fresh evaluation " + num(fresh))) {
      continue;
    }
    const sim::SimulationResult truth =
        sim::simulate(cdcg, mesh, m, x.tech, so);
    cwm.push_back(
        mapping::CwmCost(cdcg.to_cwg(), mesh, x.tech, x.routing).cost(m));
    texec.push_back(truth.texec_ns);
    energy.push_back(truth.energy.total_j());
    served.push_back(r.cost_j);
  }
  return Quality{geomean(cwm), geomean(texec), geomean(energy),
                 geomean(served)};
}

std::size_t count_served(const std::vector<serve::MapResponse>& responses,
                         serve::Served kind) {
  return static_cast<std::size_t>(std::count_if(
      responses.begin(), responses.end(),
      [&](const serve::MapResponse& r) { return r.served == kind; }));
}

WorkloadResult untraced(const RunConfig& config, Checks& checks) {
  const StreamShape shape = config.smoke ? kSmokeStream : kStream;
  const auto build = [&] { return build_plan(shape, config.seed); };
  std::vector<double> setup_times;
  time_setup(build, setup_times);
  const StreamPlan plan = build();
  const noc::Mesh mesh(kMeshSide, kMeshSide);

  // An untimed warm-up pass gives the reference every timed pass must
  // reproduce. A pass's time is the time the engine spent serving, the sum
  // of its request latencies.
  std::vector<double> latency;
  const std::vector<serve::MapResponse> reference =
      serve_pass(mesh, plan, latency);
  std::vector<double> pass_s, all_latency;
  double timed_s = 0.0;
  do {
    const std::vector<serve::MapResponse> got =
        serve_pass(mesh, plan, latency);
    pass_s.push_back(0.0);
    for (const double l : latency) pass_s.back() += l;
    timed_s += pass_s.back();
    all_latency.insert(all_latency.end(), latency.begin(), latency.end());
    for (std::size_t i = 0; i < got.size(); ++i) {
      checks.attempt();
      checks.expect(same_response(got[i], reference[i]),
                    "request " + std::to_string(i) + " of pass " +
                        std::to_string(pass_s.size()) +
                        " differs from the warm-up pass");
    }
    time_setup(build, setup_times);
  } while (!config.smoke && timed_s < config.seconds);
  for (std::size_t i = 0; i < reference.size(); ++i) checks.attempt();
  const Quality q =
      check_responses(mesh, make_stream(plan), reference, checks);

  for (double& l : all_latency) l *= 1e3;
  const Percentile p99 = percentile(all_latency, 0.99);
  checks.attempt();
  checks.expect(p99.beyond >= 10, "request_p99_ms has only " +
                                      std::to_string(p99.beyond) +
                                      " samples beyond it");
  WorkloadResult r;
  add(r.metrics, "setup_s", median(setup_times), "s");
  add(r.metrics, "wall_s", median(pass_s), "s");
  add(r.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  add(r.metrics, "throughput_rps",
      static_cast<double>(shape.requests()) / median(pass_s), "1/s");
  add(r.metrics, "request_p50_ms", median(all_latency), "ms");
  add(r.metrics, "request_p99_ms", p99.value, "ms");
  add(r.metrics, "cwm_cost_geomean_j", q.cwm_cost, "J");
  add(r.metrics, "cdcm_texec_geomean_ns", q.texec, "sim_ns");
  add(r.metrics, "cdcm_energy_geomean_j", q.energy, "J");
  add(r.metrics, "served_cost_geomean_j", q.served_cost, "J");
  r.report =
      "\"requests_per_pass\": " + std::to_string(shape.requests()) +
      ", \"passes\": " + std::to_string(pass_s.size()) +
      ", \"wall_s_pass_range\": " + num(range_spread(pass_s)) +
      ", \"latency_samples\": " + std::to_string(all_latency.size()) +
      ", \"setup_samples\": " + std::to_string(setup_times.size()) +
      ", \"p99_samples_beyond\": " + std::to_string(p99.beyond) +
      ", \"cold\": " +
      std::to_string(count_served(reference, serve::Served::kCold)) +
      ", \"warm\": " +
      std::to_string(count_served(reference, serve::Served::kWarmStart)) +
      ", \"exact_hits\": " +
      std::to_string(count_served(reference, serve::Served::kExactHit));
  return r;
}

// --- Traced run --------------------------------------------------------------

std::vector<noc::TileId> to_request_labels(
    const serve::CanonicalForm& form, const std::vector<noc::TileId>& canon) {
  std::vector<noc::TileId> out(form.canon_of_core.size());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = canon[form.canon_of_core[c]];
  }
  return out;
}

std::vector<noc::TileId> to_canon_labels(const serve::CanonicalForm& form,
                                         const std::vector<noc::TileId>& orig) {
  std::vector<noc::TileId> out(form.core_of_canon.size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = orig[form.core_of_canon[k]];
  }
  return out;
}

/// Serving-layer counters of the decomposed replay.
struct ServeTally {
  CallTally canonicalize;
  double serve_s = 0.0;   ///< Canonicalize, probes, label translation, insert.
  double solve_s = 0.0;   ///< Whole solves (core).
};

/// ServeEngine::serve_one rebuilt from the public API, every layer timed.
serve::MapResponse decomposed_serve(const graph::Cdcg& cdcg,
                                    const noc::Mesh& mesh,
                                    const serve::ServeOptions& options,
                                    const std::string& context,
                                    serve::ResultCache& cache, Tally& t,
                                    ServeTally& st) {
  Clock::time_point start = Clock::now();
  const serve::CanonicalForm form = serve::canonicalize(cdcg);
  const double canon_s = seconds_since(start);
  st.canonicalize.seconds += canon_s;
  ++st.canonicalize.calls;
  st.serve_s += canon_s;

  serve::MapResponse out;
  start = Clock::now();
  if (const std::optional<serve::CachedResult> hit =
          cache.find_exact(form, context)) {
    out.assignment = to_request_labels(form, hit->canon_assignment);
    out.cost_j = hit->cost_j;
    out.served = serve::Served::kExactHit;
    st.serve_s += seconds_since(start);
    return out;
  }
  std::vector<noc::TileId> seed;
  if (const std::optional<serve::CachedResult> fam =
          cache.find_family(form, context)) {
    seed = to_request_labels(form, fam->canon_assignment);
  }
  st.serve_s += seconds_since(start);

  // The solve: Explorer::optimize_cdcm for one annealing chain.
  start = Clock::now();
  core::ExplorerOptions o = options.explorer;
  const bool warm = !seed.empty();
  if (warm) {
    o.sa.max_steps = options.warm_max_steps;
    o.sa.max_stale_steps = options.warm_max_stale;
  }
  Clock::time_point span = Clock::now();
  const graph::Cwg cwg = cdcg.to_cwg();  // As the Explorer builds it.
  t.graph_s += seconds_since(span);
  ++t.cwgs;
  std::optional<mapping::Mapping> initial;
  if (warm) initial = mapping::Mapping::from_assignment(mesh, seed);
  span = Clock::now();
  const mapping::CdcmCost inner(cdcg, mesh, o.tech, o.routing, sim_options(o));
  t.cdcm.ctor.seconds += seconds_since(span);
  ++t.cdcm.ctor.calls;
  const nocmap::search::SearchResult sr = traced_anneal(
      inner, t.cdcm, mesh, o, initial ? &*initial : nullptr, t);
  ground_truth(cdcg, mesh, o, sr.best, t);
  st.solve_s += seconds_since(start);

  start = Clock::now();
  out.assignment = assignment_of(sr.best);
  out.cost_j = sr.best_cost;
  out.served = warm ? serve::Served::kWarmStart : serve::Served::kCold;
  cache.insert(form, context, to_canon_labels(form, out.assignment),
               out.cost_j);
  st.serve_s += seconds_since(start);
  return out;
}

WorkloadResult traced(const RunConfig& config, Checks& checks) {
  const StreamShape shape = config.smoke ? kSmokeStream : kStream;
  const auto build = [&] { return build_plan(shape, config.seed); };
  std::vector<double> setup_times;
  for (int r = 0; r < 5; ++r) time_setup(build, setup_times);
  const StreamPlan plan = build();
  const Stream stream = make_stream(plan);
  const noc::Mesh mesh(kMeshSide, kMeshSide);
  std::vector<double> tables;
  time_setup([&] { return noc::RouteTable(mesh, noc::RoutingAlgorithm::kXY); },
             tables);

  // Reference: the engine itself, untraced. Both passes are timed per
  // request, without making the request graphs.
  std::vector<double> latency;
  serve::CacheStats cache_stats;
  const std::vector<serve::MapResponse> reference =
      serve_pass(mesh, plan, latency, &cache_stats);
  double untraced_s = 0.0;
  for (const double l : latency) untraced_s += l;
  for (std::size_t i = 0; i < reference.size(); ++i) checks.attempt();
  check_responses(mesh, stream, reference, checks);
  std::vector<double> hit_us, cold_ms, warm_ms;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    switch (reference[i].served) {
      case serve::Served::kExactHit:
        hit_us.push_back(1e6 * latency[i]);
        break;
      case serve::Served::kCold:
        cold_ms.push_back(1e3 * latency[i]);
        break;
      case serve::Served::kWarmStart:
        warm_ms.push_back(1e3 * latency[i]);
        break;
      case serve::Served::kBatchHit:  // One request per batch: never.
        break;
    }
  }

  // Decomposed replay.
  const serve::ServeOptions options = serve_options();
  const std::string context = serve::ServeEngine(mesh, options).context();
  serve::ResultCache cache(options.cache_capacity);
  Tally t;
  ServeTally st;
  std::vector<serve::MapResponse> decomposed;
  decomposed.reserve(stream.size());
  double traced_s = 0.0;
  for (const RequestSpec& spec : plan.requests) {
    const graph::Cdcg request = make_request(plan, spec);
    const Clock::time_point start = Clock::now();
    decomposed.push_back(
        decomposed_serve(request, mesh, options, context, cache, t, st));
    traced_s += seconds_since(start);
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    checks.attempt();
    checks.expect(same_response(decomposed[i], reference[i]),
                  "request " + std::to_string(i) +
                      ": traced decomposition differs from the engine");
  }
  // Warm-start quality: each warm answer against a cold solve of the same
  // request.
  std::vector<double> warm_ratio;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i].served != serve::Served::kWarmStart) continue;
    const core::ModelOutcome cold =
        core::Explorer(stream[i], mesh, options.explorer)
            .optimize_cdcm();
    warm_ratio.push_back(reference[i].cost_j / cold.objective_j);
  }

  const double n = static_cast<double>(reference.size());
  WorkloadResult r;
  auto& m = r.metrics;
  add(m, "workload.build_ms", 1e3 * median(setup_times), "ms");
  add(m, "noc.route_table_us", 1e6 * median(tables), "us");
  add(m, "core.cdcm_phase_s", st.solve_s, "s");
  add_cost_metrics(m, t);
  add(m, "serve.self_ms", 1e3 * st.serve_s, "ms");
  add(m, "serve.canonicalize_us", per_call(st.canonicalize, 1e6), "us");
  add(m, "serve.hit_us_p50", median(hit_us), "us");
  add(m, "serve.cold_ms_p50", median(cold_ms), "ms");
  add(m, "serve.warm_ms_p50", median(warm_ms), "ms");
  const auto share = [&](std::size_t k) { return static_cast<double>(k) / n; };
  add(m, "serve.exact_hit_rate", share(hit_us.size()), "ratio");
  add(m, "serve.warm_rate", share(warm_ms.size()), "ratio");
  add(m, "serve.cold_rate", share(cold_ms.size()), "ratio");
  add(m, "serve.cache_evictions", static_cast<double>(cache_stats.evictions),
      "count");
  add(m, "serve.verify_rejects",
      static_cast<double>(cache_stats.verify_rejects), "count");
  add(m, "serve.warm_cost_ratio", geomean(warm_ratio), "ratio");
  // Every layer below the solve is inside solve_s, so the pass splits into
  // serving work, solves and the replay loop itself.
  check_accounting(checks, m, traced_s, untraced_s, st.serve_s + st.solve_s);
  r.report = "\"requests\": " + std::to_string(reference.size()) +
             ", \"hit_samples\": " + std::to_string(hit_us.size()) +
             ", \"cold_samples\": " + std::to_string(cold_ms.size()) +
             ", \"warm_samples\": " + std::to_string(warm_ms.size());
  return r;
}

}  // namespace

WorkloadResult run_serve_stream(const RunConfig& config, Checks& checks) {
  return config.trace ? traced(config, checks) : untraced(config, checks);
}

}  // namespace perfbench
