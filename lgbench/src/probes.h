// Shared measurement pieces: driving a sim::Simulator through formation and
// a steady window, timing calls into the layers of a formed cluster, and a
// campaign Reporter that times and folds harness trials.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "check/events.h"
#include "harness/campaign.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "proto/broadcast.h"
#include "sim/simulator.h"

namespace lgbench {

namespace lg = lifeguard;

/// The simulator parameters harness::run uses for a scenario.
lg::sim::SimParams sim_params(const lg::harness::Scenario& s,
                              std::uint64_t seed);

// ---------------------------------------------------------------------------
// One cluster: formation, then a steady window

struct ClusterRun {
  bool converged = false;
  /// Virtual seconds from start_all() to the first converged poll.
  int formation_vs = 0;
  /// Wall seconds inside run_for during formation (polls not timed).
  double formation_s = 0;
  /// Wall seconds and virtual seconds of the steady window.
  double steady_s = 0;
  double steady_vs = 0;
  /// Messages sent during the steady window, all members.
  std::int64_t steady_msgs = 0;
  // ---- traced only ----
  /// Wall milliseconds of each 1-virtual-s slice of the steady window.
  std::vector<double> slice_ms;
  std::size_t queue_depth_max = 0;
  std::size_t bcast_pending_max = 0;
  /// Copy of the deepest broadcast queue seen, and its member count then.
  std::optional<lg::proto::BroadcastQueue> deepest;
  int deepest_active = 0;
};

/// start_all(), poll converged(n) after every 1-virtual-s slice up to
/// `cap_vs`, then run `steady_vs` more virtual seconds in 1-s slices. The
/// simulation is identical with tracing on or off; a traced run also samples
/// the event queue and broadcast queues between slices, and charges that
/// time to the tracer.
ClusterRun drive_cluster(lg::sim::Simulator& sim, int cap_vs, int steady_vs,
                         Tracer& tr);

/// Failure declarations recorded by any member (record_failures_only).
std::int64_t failures_declared(const lg::sim::Simulator& sim);

/// Per-layer metrics of a driven cluster: sim.*, proto.gossip_transmits,
/// proto.bcast_pending_max and the timed probes (proto.bcast_select_us,
/// proto.pushpull_decode_us, swim.select_us, swim.find_ns,
/// membership.view_us). `events`/`events_wall_s` scope sim.events and
/// sim.events_per_s.
void cluster_layer_metrics(lg::sim::Simulator& sim, const ClusterRun& run,
                           std::uint64_t events, double events_wall_s,
                           std::uint64_t seed, Result& r);

/// fuzz.mutate_us: Mutator::mutate over a seeded corpus of random timelines
/// for an n-member cluster.
double mutate_probe_us(int n, std::uint64_t seed);

/// Builds a cluster of the scenario's shape, drives it through formation and
/// a 30-virtual-s steady window, and records its layer metrics. The
/// harness-driven workloads use this for the engine-internal numbers that
/// harness::run does not expose.
void probe_cluster(const lg::harness::Scenario& s, std::uint64_t seed,
                   Tracer& tr, Result& r);

// ---------------------------------------------------------------------------
// Harness trials

/// Observes a Campaign: times every trial (start at the trial_sinks factory
/// call, end at progress() on the same worker thread) and folds the results
/// in trial-index order.
class TrialFold final : public lg::harness::Reporter {
 public:
  explicit TrialFold(Tracer& tr) : tr_(tr) {}

  /// Install as Campaign::trial_sinks before harness::run; trial spans go
  /// under the span open at this call.
  std::function<std::vector<lg::check::TraceSink*>(
      const lg::harness::TrialResult&)>
  factory();

  void begin(const lg::harness::Campaign& c,
             const std::vector<lg::harness::GridPoint>& grid,
             int total) override;
  void progress(int done, int total) override;
  void on_trial(const lg::harness::TrialResult& t) override;

  /// Adds every folded statistic to `d` (deterministic for a seed).
  void digest(Digest& d) const;

  int trials = 0;
  int violating_trials = 0;
  std::int64_t violations = 0;
  std::int64_t check_events = 0;
  std::int64_t samples = 0;
  std::int64_t msgs = 0;
  /// Σ cluster_size × virtual seconds over the folded trials.
  double member_seconds = 0;
  /// Summed counters of every trial's metrics registry.
  std::map<std::string, std::int64_t> counters;
  /// Per grid point: FP events and first-detection samples.
  std::vector<std::int64_t> point_fp;
  std::vector<std::vector<double>> point_detect;
  std::vector<std::string> point_label;
  /// Wall seconds of each trial, trial-index order.
  std::vector<double> trial_wall;
  /// Fault timeline entries over the folded trials.
  std::int64_t fault_entries = 0;

 private:
  Tracer& tr_;
  int parent_ = -1;
  std::mutex mu_;
  std::vector<double> start_;
  std::map<std::size_t, int> running_;  // worker thread hash -> trial
  std::vector<double> point_virtual_s_;
  std::vector<int> point_n_;
  std::vector<int> point_entries_;
  Digest trial_digests_;
};

struct Pass {
  double wall = 0;
  double cpu = 0;
  bool ok = false;
};

/// Runs `c` inside a span named `span`, with `fold` as its reporter and
/// trial_sinks factory. A campaign that throws fails the run.
Pass run_campaign(lg::harness::Campaign c, TrialFold& fold, Tracer& tr,
                  const std::string& span, Result& r);

/// proto.sent.*, proto.bytes_sent, the swim.* counts, net.dropped and
/// sim.datagrams (datagrams sent on either channel) from a summed metrics
/// registry.
void counter_layer_metrics(const std::map<std::string, std::int64_t>& counters,
                           Result& r);

/// Per-layer metrics read from folded trials: proto.sent.*, bytes,
/// proto.msgs_per_member_s, swim counts, sim.datagrams, check/obs/fault
/// counts, and the harness trial-wall distribution of a pool that ran
/// `workers` threads for `pool_wall_s`.
void trial_layer_metrics(const TrialFold& f, double pool_wall_s, int workers,
                         Result& r);

/// For a one-repetition campaign whose last axis has `variants` points:
/// 1 − the median over grid cells of wall(variant `off`) / wall(variant 0).
/// Each cell's variants are adjacent in trial order, so the two trials of a
/// pair run moments apart and the host's slow drift cancels.
double paired_share(const TrialFold& f, int variants, int off);

}  // namespace lgbench
