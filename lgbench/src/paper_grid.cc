// paper-grid: one harness::Campaign over the committed scenario files
// fig2-total-false-positives (interval), fig1-cpu-exhaustion (stress) and
// table5-latency (block), crossed with the {swim, lifeguard} configs, with
// the invariant checks on, the sampler at 500 ms and a 2-worker pool — the
// way users reproduce the paper. The job is one pass over the grid.

#include <memory>
#include <optional>

#include "harness/scenariofile.h"
#include "probes.h"
#include "swim/config.h"

namespace lgbench {

namespace {

constexpr int kWorkers = 2;
const char* const kFiles[] = {"fig2-total-false-positives",
                              "fig1-cpu-exhaustion", "table5-latency"};

struct Grid {
  std::vector<lg::harness::Scenario> files;
  int reps = 3;
};

/// Loads the committed scenario files and turns on the invariant checks and
/// the 500 ms sampler; toy scale shrinks the clusters.
std::optional<Grid> load_grid(const Options& o, Result& r) {
  Grid g;
  for (const char* name : kFiles) {
    const std::string path = o.root + "/scenarios/" + name + ".json";
    std::string err;
    auto s = lg::harness::ScenarioFile::load(path, err);
    if (!s) {
      r.fail("cannot load " + path + ": " + err);
      return std::nullopt;
    }
    if (o.scale == Scale::kToy) s->cluster_size = 24;
    s->checks.enabled = true;
    s->metrics_interval = lg::msec(500);
    g.files.push_back(std::move(*s));
  }
  if (o.scale == Scale::kToy) g.reps = 1;
  return g;
}

/// The campaign: scenario axis (distinct salts: different schedules) ×
/// config axis (shared salt: paired runs), `reps` repetitions each. With
/// `observer_variants`, a last axis runs every cell as is, with the checks
/// off and with the sampler off (shared salt: the same trial three times).
lg::harness::Campaign make_campaign(const Grid& g, std::uint64_t seed,
                                    int reps, bool observer_variants) {
  lg::harness::Campaign c;
  c.name = "paper-grid";
  c.base = g.files.front();
  c.repetitions = reps;
  c.base_seed = seed;
  c.jobs = kWorkers;
  std::vector<lg::harness::AxisPoint> files;
  for (std::size_t i = 0; i < g.files.size(); ++i) {
    files.push_back({g.files[i].name, i + 1,
                     [s = g.files[i]](lg::harness::Scenario& x) { x = s; }});
  }
  c.axes.push_back(lg::harness::Axis::custom("scenario", std::move(files)));
  c.axes.push_back(lg::harness::Axis::custom(
      "config",
      {{"swim", 0,
        [](lg::harness::Scenario& x) {
          x.config = lg::swim::Config::swim_baseline();
        }},
       {"lifeguard", 0,
        [](lg::harness::Scenario& x) {
          x.config = lg::swim::Config::lifeguard();
        }}}));
  if (observer_variants) {
    c.axes.push_back(lg::harness::Axis::custom(
        "observers",
        {{"all", 0, [](lg::harness::Scenario&) {}},
         {"checks-off", 0,
          [](lg::harness::Scenario& x) { x.checks.enabled = false; }},
         {"sampler-off", 0,
          [](lg::harness::Scenario& x) { x.metrics_interval = {}; }}}));
  }
  return c;
}

/// Mean FP per trial over the points whose config label is `config`.
double fp_per_trial(const TrialFold& f, const std::string& config, int reps) {
  std::int64_t fp = 0;
  int trials = 0;
  for (std::size_t p = 0; p < f.point_fp.size(); ++p) {
    if (!f.point_label[p].ends_with("/" + config)) continue;
    fp += f.point_fp[p];
    trials += reps;
  }
  return trials == 0 ? 0 : static_cast<double>(fp) / trials;
}

std::vector<double> lifeguard_detections(const TrialFold& f) {
  std::vector<double> out;
  for (std::size_t p = 0; p < f.point_detect.size(); ++p) {
    if (f.point_label[p].ends_with("/lifeguard")) {
      out.insert(out.end(), f.point_detect[p].begin(), f.point_detect[p].end());
    }
  }
  return out;
}

}  // namespace

void run_paper_grid(const Options& o, Tracer& tr, Result& r) {
  std::optional<Grid> grid;
  std::vector<double> setup, load_ms;
  {
    auto span = tr.open("setup");
    for (const double t0 = now_s();
         more_setups(static_cast<int>(setup.size()), t0);) {
      const double a = now_s();
      grid = load_grid(o, r);
      if (!grid) return;
      const double b = now_s();
      const lg::harness::Campaign c =
          make_campaign(*grid, o.seed, grid->reps, false);
      if (auto errors = c.validate(); !errors.empty()) {
        r.fail("campaign does not validate: " + errors.front());
        return;
      }
      const std::vector<lg::harness::GridPoint> points =
          lg::harness::expand_grid(c);
      const lg::harness::Scenario& first = points.front().scenario;
      const std::uint64_t seed0 =
          lg::harness::trial_seed(c.base_seed, points.front().salts, 0);
      auto sim = std::make_unique<lg::sim::Simulator>(
          first.cluster_size, first.config, sim_params(first, seed0));
      setup.push_back(now_s() - a);
      load_ms.push_back((b - a) * 1e3);
    }
  }
  r.set("setup_s", setup_median(setup), "s");
  const int reps = grid->reps;
  const int total = static_cast<int>(grid->files.size()) * 2 * reps;
  const bool full = o.scale == Scale::kFull;

  std::vector<double> job_wall, job_cpu;
  double spent = 0;
  do {
    TrialFold fold(tr);
    const double traced0 = tr.overhead_s();
    const Pass p = run_campaign(make_campaign(*grid, o.seed, reps, false),
                                fold, tr, "job", r);
    const double traced = tr.overhead_s() - traced0;
    r.attempted += total;
    if (!p.ok) {
      r.failed += total - fold.trials + fold.violating_trials;
      return;
    }
    r.failed += fold.violating_trials;
    if (fold.violations > 0) {
      r.fail(std::to_string(fold.violating_trials) +
             " trial(s) broke an invariant");
    }
    job_wall.push_back(p.wall);
    job_cpu.push_back(p.cpu);
    spent += p.wall;

    Digest d;
    fold.digest(d);
    if (job_wall.size() > 1) {
      if (d.value() != r.digest.value()) {
        r.fail("job " + std::to_string(job_wall.size()) +
               " digest differs from job 1 on the same seed: " + d.text());
      }
      continue;
    }
    r.digest = d;
    const double fp_swim = fp_per_trial(fold, "swim", reps);
    const double fp_lifeguard = fp_per_trial(fold, "lifeguard", reps);
    const std::vector<double> detections = lifeguard_detections(fold);
    const double detect_p50 = percentile(detections, 0.5);
    const double msgs_per_member_s =
        static_cast<double>(fold.msgs) / fold.member_seconds;
    r.note("trials_per_s", total / p.wall, "1/s");
    r.note("fp_swim", fp_swim, "count");
    r.note("fp_lifeguard", fp_lifeguard, "count");
    r.note("detect_p50_s", detect_p50, "vs");
    r.note("msgs_per_member_s", msgs_per_member_s, "msg/member/s");
    // The paper's claims, checked on every run at full scale: Lifeguard
    // declares fewer false positives than SWIM, and still detects the
    // blocked members of table5-latency.
    if (full && !(fp_lifeguard < fp_swim)) {
      r.fail("Lifeguard FP per trial (" + std::to_string(fp_lifeguard) +
             ") is not below SWIM's (" + std::to_string(fp_swim) + ")");
    }
    if (full && detections.empty()) {
      r.fail("no first detections on the Lifeguard points");
    }

    if (tr.enabled()) {
      // Every cell once more with all observers, checks off, sampler off.
      TrialFold variants(tr);
      run_campaign(make_campaign(*grid, o.seed, 1, true), variants, tr,
                   "observer-variants", r);
      r.set("check.share", paired_share(variants, 3, 1), "share");
      r.set("obs.share", paired_share(variants, 3, 2), "share");

      trial_layer_metrics(fold, p.wall, kWorkers, r);
      r.set("harness.load_ms", median(load_ms), "ms");
      r.set("harness.trials_per_s", total / p.wall, "1/s");
      r.set("harness.fp_swim", fp_swim, "count");
      r.set("harness.fp_lifeguard", fp_lifeguard, "count");
      r.set("harness.detect_p50_s", detect_p50, "vs");
      r.set("trace.overhead_share", traced / p.wall, "share");

      lg::harness::Scenario shape = grid->files.front();
      shape.config = lg::swim::Config::lifeguard();
      probe_cluster(shape, o.seed, tr, r);
      r.set("fuzz.mutate_us", mutate_probe_us(shape.cluster_size, o.seed),
            "us");
      break;
    }
  } while (spent < o.seconds);

  r.set("job_s", median(job_wall), "s");
  r.set("cpu_s", median(job_cpu), "s");
  r.note("jobs", static_cast<double>(job_wall.size()), "count");
}

}  // namespace lgbench
