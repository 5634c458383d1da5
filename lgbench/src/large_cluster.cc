// large-cluster: one single-threaded sim::Simulator with 1024 members, the
// Lifeguard config and the harness's default network (both read from the
// committed steady-state scenario), record_failures_only, and no faults,
// checks or sampler. Set-up is construction; the job is formation
// (start_all() until converged, polls untimed) plus a fixed 60-virtual-s
// steady window — two push-pull intervals, so the window holds the
// post-formation push-pull round and a settled one.

#include <memory>
#include <optional>

#include "harness/scenariofile.h"
#include "probes.h"

namespace lgbench {

namespace {

constexpr int kFormationCapVs = 60;

}  // namespace

void run_large_cluster(const Options& o, Tracer& tr, Result& r) {
  const bool toy = o.scale == Scale::kToy;
  const int n = toy ? 64 : 1024;
  const int steady_vs = toy ? 30 : 60;
  const std::string file = o.root + "/scenarios/steady-state.json";

  std::optional<lg::harness::Scenario> s;
  std::vector<double> setup, load_ms;
  {
    auto span = tr.open("setup");
    for (const double t0 = now_s();
         more_setups(static_cast<int>(setup.size()), t0);) {
      const double a = now_s();
      std::string err;
      s = lg::harness::ScenarioFile::load(file, err);
      if (!s) {
        r.fail("cannot load " + file + ": " + err);
        return;
      }
      s->cluster_size = n;
      const double b = now_s();
      auto sim = std::make_unique<lg::sim::Simulator>(n, s->config,
                                                      sim_params(*s, o.seed));
      setup.push_back(now_s() - a);
      load_ms.push_back((b - a) * 1e3);
    }
  }
  r.set("setup_s", setup_median(setup), "s");

  std::vector<double> job_wall, job_cpu;
  double spent = 0;
  do {
    auto sim = std::make_unique<lg::sim::Simulator>(n, s->config,
                                                    sim_params(*s, o.seed));
    const double c0 = cpu_s();
    const double traced0 = tr.overhead_s();
    ClusterRun run;
    {
      auto job = tr.open("job");
      run = drive_cluster(*sim, kFormationCapVs, steady_vs, tr);
    }
    const double cpu = cpu_s() - c0;
    const double traced = tr.overhead_s() - traced0;
    ++r.attempted;
    if (!run.converged) {
      ++r.failed;
      r.fail("cluster of " + std::to_string(n) + " did not converge within " +
             std::to_string(kFormationCapVs) + " virtual s");
      return;
    }
    const double wall = run.formation_s + run.steady_s;
    job_wall.push_back(wall);
    job_cpu.push_back(cpu);
    spent += wall;

    const lg::Metrics m = sim->aggregate_metrics();
    const std::int64_t fp = failures_declared(*sim);
    Digest d;
    d.add("n", n);
    d.add("formation_vs", run.formation_vs);
    d.add("events", static_cast<std::int64_t>(sim->queue().executed()));
    d.add("datagrams", sim->datagrams_routed());
    d.add("steady_msgs", run.steady_msgs);
    for (const std::string& type : sent_types()) {
      d.add("sent." + type, m.counter_value("net.sent." + type));
    }
    d.add("fp", fp);
    d.add("detections", 0);
    d.add("converged_end", sim->converged(n) ? 1 : 0);
    if (job_wall.size() == 1) {
      r.digest = d;
      const double msgs_per_member_s =
          static_cast<double>(run.steady_msgs) / (n * run.steady_vs);
      r.note("formation_s", run.formation_s, "s");
      r.note("formation_vs", run.formation_vs, "vs");
      r.note("steady_vsps", run.steady_vs / run.steady_s, "vs/s");
      r.note("msgs_per_member_s", msgs_per_member_s, "msg/member/s");
      r.note("fp", static_cast<double>(fp), "count");

      if (tr.enabled()) {
        auto probes = tr.open("layer-probes");
        cluster_layer_metrics(*sim, run, sim->queue().executed(), wall, o.seed,
                              r);
        std::map<std::string, std::int64_t> counters;
        for (const auto& [name, c] : m.counters()) counters[name] = c.value();
        counter_layer_metrics(counters, r);
        r.set("proto.msgs_per_member_s", msgs_per_member_s, "msg/member/s");
        // No checker, sampler or faults run in this workload.
        r.set("check.events", 0, "count");
        r.set("check.share", 0, "share");
        r.set("obs.samples", 0, "count");
        r.set("obs.share", 0, "share");
        r.set("fault.entries", 0, "count");
        // The one cluster is this workload's only trial.
        r.set("harness.trial_wall_p50_s", wall, "s");
        r.set("harness.trial_wall_max_s", wall, "s");
        r.set("harness.pool_busy_share", 1, "share");
        r.set("harness.load_ms", median(load_ms), "ms");
        r.set("harness.trials_per_s", 1 / wall, "1/s");
        r.set("harness.fp_swim", 0, "count");
        r.set("harness.fp_lifeguard", static_cast<double>(fp), "count");
        r.set("harness.detect_p50_s", 0, "vs");
        r.set("fuzz.mutate_us", mutate_probe_us(n, o.seed), "us");
        r.set("trace.overhead_share", traced / wall, "share");
        break;
      }
    } else if (d.value() != r.digest.value()) {
      r.fail("job " + std::to_string(job_wall.size()) +
             " digest differs from job 1 on the same seed: " + d.text());
    }
  } while (spent < o.seconds);

  r.set("job_s", median(job_wall), "s");
  r.set("cpu_s", median(job_cpu), "s");
  r.note("jobs", static_cast<double>(job_wall.size()), "count");
}

}  // namespace lgbench
