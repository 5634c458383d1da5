#include "probes.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <thread>

#include "common/bytes.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "fuzz/mutator.h"
#include "proto/wire.h"
#include "swim/membership.h"
#include "swim/node.h"

namespace lgbench {

using lg::sec;

namespace {

/// Keeps probe results observable so timed calls are not optimized away.
volatile std::size_t g_keep = 0;

std::size_t thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

lg::sim::SimParams sim_params(const lg::harness::Scenario& s,
                              std::uint64_t seed) {
  lg::sim::SimParams p;
  p.network = s.network;
  p.seed = seed;
  p.record_failures_only = true;
  p.msg_proc_cost = s.msg_proc_cost;
  p.recv_buffer_bytes = s.recv_buffer_bytes;
  p.membership = s.membership;
  return p;
}

// ---------------------------------------------------------------------------
// Cluster driving

ClusterRun drive_cluster(lg::sim::Simulator& sim, int cap_vs, int steady_vs,
                         Tracer& tr) {
  ClusterRun out;
  const bool traced = tr.enabled();
  const int n = sim.size();
  auto sample = [&] {
    const double a = now_s();
    out.queue_depth_max = std::max(out.queue_depth_max, sim.queue().pending());
    int deepest = -1;
    for (int i = 0; i < n; ++i) {
      const std::size_t p = sim.agent(i).pending_broadcast_count();
      if (p > out.bcast_pending_max) {
        out.bcast_pending_max = p;
        deepest = i;
      }
    }
    if (deepest >= 0) {
      out.deepest = sim.node(deepest).broadcasts();
      out.deepest_active = sim.agent(deepest).active_members();
    }
    tr.charge(now_s() - a);
  };

  {
    auto formation = tr.open("formation");
    sim.start_all();
    while (out.formation_vs < cap_vs) {
      const double a = now_s();
      sim.run_for(sec(1));
      out.formation_s += now_s() - a;
      ++out.formation_vs;
      if (traced) sample();
      if (sim.converged(n)) {
        out.converged = true;
        break;
      }
    }
  }
  if (!out.converged) return out;

  auto steady = tr.open("steady");
  const std::int64_t msgs0 =
      sim.aggregate_metrics().counter_value("net.msgs_sent");
  for (int i = 0; i < steady_vs; ++i) {
    const double a = now_s();
    sim.run_for(sec(1));
    const double w = now_s() - a;
    out.steady_s += w;
    if (traced) {
      out.slice_ms.push_back(w * 1e3);
      sample();
    }
  }
  out.steady_vs = steady_vs;
  out.steady_msgs =
      sim.aggregate_metrics().counter_value("net.msgs_sent") - msgs0;
  return out;
}

std::int64_t failures_declared(const lg::sim::Simulator& sim) {
  std::int64_t n = 0;
  for (int i = 0; i < sim.size(); ++i) {
    for (const auto& e : sim.events(i).events()) {
      if (e.type == lg::swim::EventType::kFailed && e.originated) ++n;
    }
  }
  return n;
}

void cluster_layer_metrics(lg::sim::Simulator& sim, const ClusterRun& run,
                           std::uint64_t events, double events_wall_s,
                           std::uint64_t seed, Result& r) {
  const int n = sim.size();
  r.set("sim.events", static_cast<double>(events), "count");
  r.set("sim.events_per_s",
        static_cast<double>(events) / std::max(events_wall_s, 1e-9), "1/s");
  r.set("sim.queue_depth_max", static_cast<double>(run.queue_depth_max),
        "count");
  r.set("sim.vs_wall_p50_ms", percentile(run.slice_ms, 0.5), "ms");
  r.set("sim.vs_wall_max_ms", percentile(run.slice_ms, 1.0), "ms");
  r.set("sim.formation_s", run.formation_s, "s");
  r.set("sim.steady_vsps", run.steady_vs / std::max(run.steady_s, 1e-9),
        "vs/s");

  std::int64_t transmits = 0;
  for (int i = 0; i < n; ++i) {
    transmits += sim.agent(i).gossip_transmits_total();
  }
  r.set("proto.gossip_transmits", static_cast<double>(transmits), "count");
  r.set("proto.bcast_pending_max", static_cast<double>(run.bcast_pending_max),
        "count");

  const lg::swim::Node& node0 = sim.node(0);
  const lg::swim::Config& cfg = node0.config();

  // get_broadcasts on a fresh copy of the deepest queue per call: the call
  // consumes transmit budget, so every repetition must see the same queue.
  double select_us = 0;
  if (run.deepest) {
    std::vector<double> t;
    for (int i = 0; i < 101; ++i) {
      lg::proto::BroadcastQueue q = *run.deepest;
      const double a = now_s();
      auto frames = q.get_broadcasts(
          0, cfg.max_packet_bytes - lg::proto::kCompoundHeaderBytes,
          run.deepest_active);
      t.push_back((now_s() - a) * 1e6);
      g_keep = g_keep + frames.size();
    }
    select_us = median(t);
  }
  r.set("proto.bcast_select_us", select_us, "us");

  // A push-pull carrying node 0's full member state.
  lg::proto::PushPull pp;
  pp.from = node0.name();
  pp.from_addr = node0.address();
  for (const lg::swim::Member* m : node0.members().all()) {
    pp.members.push_back(lg::proto::MemberSnapshot{
        m->name, m->addr, m->incarnation, static_cast<std::uint8_t>(m->state)});
  }
  const std::vector<std::uint8_t> wire =
      lg::proto::encode_datagram(lg::proto::Message{pp});
  r.set("proto.pushpull_decode_us", median_us(51, [&] {
          lg::BufReader rd(wire);
          auto m = lg::proto::decode(rd);
          g_keep = g_keep + (m ? 1 : 0);
        }),
        "us");

  // Target selection and lookup on a private copy of node 0's table, with a
  // private Rng, so the cluster itself is not touched.
  lg::swim::MembershipTable table = node0.members();
  lg::Rng rng(seed ^ 0x73656c656374ULL);
  r.set("swim.select_us", median_us(201, [&] {
          auto picked = table.random_active(cfg.gossip_fanout, rng, {});
          g_keep = g_keep + picked.size();
        }),
        "us");
  std::vector<std::string> names;
  for (const lg::swim::Member* m : table.all()) names.push_back(m->name);
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.uniform(i)]);
  }
  const double find_pass_us = median_us(21, [&] {
    for (const std::string& name : names) {
      g_keep = g_keep + (table.find(name) != nullptr ? 1 : 0);
    }
  });
  r.set("swim.find_ns",
        find_pass_us * 1e3 / static_cast<double>(std::max<std::size_t>(
                                 names.size(), 1)),
        "ns");

  const double view_pass_us = median_us(5, [&] {
    for (int i = 0; i < n; ++i) {
      g_keep = g_keep + sim.agent(i).active_view().size();
    }
  });
  r.set("membership.view_us", view_pass_us / n, "us");
}

double mutate_probe_us(int n, std::uint64_t seed) {
  const lg::fuzz::Mutator mutator(n);
  lg::Rng rng(seed ^ 0x6d7574617465ULL);
  std::vector<lg::fault::Timeline> corpus;
  for (int i = 0; i < 16; ++i) corpus.push_back(mutator.random_timeline(rng));
  std::size_t i = 0;
  return median_us(401, [&] {
    const auto& a = corpus[i % corpus.size()];
    const auto& b = corpus[(i * 7 + 3) % corpus.size()];
    ++i;
    g_keep = g_keep + mutator.mutate(a, b, rng).size();
  });
}

void probe_cluster(const lg::harness::Scenario& s, std::uint64_t seed,
                   Tracer& tr, Result& r) {
  auto span = tr.open("probe-cluster");
  lg::sim::Simulator sim(s.cluster_size, s.config, sim_params(s, seed));
  const ClusterRun run = drive_cluster(sim, 60, 30, tr);
  if (!run.converged) {
    r.fail("probe cluster of '" + s.name + "' did not converge in 60 vs");
    return;
  }
  auto probes = tr.open("layer-probes");
  cluster_layer_metrics(sim, run, sim.queue().executed(),
                        run.formation_s + run.steady_s, seed, r);
}

// ---------------------------------------------------------------------------
// Harness trials

std::function<std::vector<lg::check::TraceSink*>(
    const lg::harness::TrialResult&)>
TrialFold::factory() {
  parent_ = tr_.current();
  return [this](const lg::harness::TrialResult& t) {
    std::lock_guard<std::mutex> lock(mu_);
    start_[static_cast<std::size_t>(t.trial_index)] = now_s();
    running_[thread_key()] = t.trial_index;
    return std::vector<lg::check::TraceSink*>{};
  };
}

void TrialFold::begin(const lg::harness::Campaign&,
                      const std::vector<lg::harness::GridPoint>& grid,
                      int total) {
  const auto n = static_cast<std::size_t>(total);
  start_.assign(n, 0);
  trial_wall.assign(n, 0);
  for (const lg::harness::GridPoint& g : grid) {
    const lg::harness::Scenario& s = g.scenario;
    const lg::Duration run = lg::fault::FaultInjector::plan_total_run(
        s.effective_timeline(), s.run_length);
    point_virtual_s_.push_back((s.quiesce + run).seconds());
    point_n_.push_back(s.cluster_size);
    point_entries_.push_back(static_cast<int>(s.effective_timeline().size()));
    std::string label;
    for (const std::string& l : g.labels) {
      label += (label.empty() ? "" : "/") + l;
    }
    point_label.push_back(label);
  }
  point_fp.assign(grid.size(), 0);
  point_detect.assign(grid.size(), {});
}

void TrialFold::progress(int, int) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = running_.find(thread_key());
  if (it == running_.end()) return;
  const auto i = static_cast<std::size_t>(it->second);
  const double end = now_s();
  trial_wall[i] = end - start_[i];
  tr_.add("trial", parent_, start_[i], end);
  running_.erase(it);
}

void TrialFold::on_trial(const lg::harness::TrialResult& t) {
  const lg::harness::RunResult& res = t.result;
  const auto p = static_cast<std::size_t>(t.point_index);
  ++trials;
  violations += res.checks.total_violations;
  if (res.checks.total_violations > 0) ++violating_trials;
  check_events += res.checks.events_seen;
  samples += static_cast<std::int64_t>(res.series.size());
  msgs += res.msgs_sent;
  member_seconds += point_n_[p] * point_virtual_s_[p];
  for (const auto& [name, c] : res.metrics.counters()) {
    counters[name] += c.value();
  }
  point_fp[p] += res.fp_events;
  for (double d : res.first_detect) point_detect[p].push_back(d);
  fault_entries += point_entries_[p];

  std::int64_t detect_us = 0;
  for (double d : res.first_detect) detect_us += std::llround(d * 1e6);
  Digest d;
  d.add("fp", res.fp_events);
  d.add("fp_healthy", res.fp_healthy_events);
  d.add("msgs", res.msgs_sent);
  d.add("bytes", res.bytes_sent);
  d.add("detections", static_cast<std::int64_t>(res.first_detect.size()));
  d.add("detect_us", detect_us);
  d.add("check_events", res.checks.events_seen);
  d.add("violations", res.checks.total_violations);
  d.add("samples", static_cast<std::int64_t>(res.series.size()));
  trial_digests_.add("trial", static_cast<std::int64_t>(d.value()));
}

void TrialFold::digest(Digest& d) const {
  d.add("trials", trials);
  d.add("trial_fnv", static_cast<std::int64_t>(trial_digests_.value()));
  std::int64_t fp = 0, detections = 0;
  for (std::size_t p = 0; p < point_fp.size(); ++p) {
    fp += point_fp[p];
    detections += static_cast<std::int64_t>(point_detect[p].size());
  }
  d.add("fp", fp);
  d.add("detections", detections);
  d.add("check_events", check_events);
  d.add("msgs", msgs);
  for (const std::string& type : sent_types()) {
    const auto it = counters.find("net.sent." + type);
    d.add("sent." + type, it == counters.end() ? 0 : it->second);
  }
}

Pass run_campaign(lg::harness::Campaign c, TrialFold& fold, Tracer& tr,
                  const std::string& span, Result& r) {
  auto s = tr.open(span);
  c.trial_sinks = fold.factory();
  Pass p;
  const double c0 = cpu_s();
  const double a = now_s();
  try {
    lg::harness::run(c, {&fold});
    p.ok = true;
  } catch (const std::exception& e) {
    r.fail(span + ": campaign threw: " + e.what());
  }
  p.wall = now_s() - a;
  p.cpu = cpu_s() - c0;
  return p;
}

void counter_layer_metrics(const std::map<std::string, std::int64_t>& counters,
                           Result& r) {
  auto get = [&](const std::string& name) {
    const auto it = counters.find(name);
    return static_cast<double>(it == counters.end() ? 0 : it->second);
  };
  for (const std::string& type : sent_types()) {
    r.set("proto.sent." + type, get("net.sent." + type), "count");
  }
  r.set("proto.bytes_sent", get("net.bytes_sent"), "bytes");
  r.set("swim.join_learned", get("swim.join_learned"), "count");
  r.set("swim.suspicion_started", get("suspicion.started"), "count");
  r.set("swim.refutations", get("swim.refutations"), "count");
  r.set("swim.probe_failed", get("probe.failed"), "count");
  r.set("swim.nack_sent", get("probe.nack_sent"), "count");
  double dropped = 0;
  for (const auto& [name, v] : counters) {
    if (name.rfind("net.dropped.", 0) == 0) dropped += static_cast<double>(v);
  }
  r.set("net.dropped", dropped, "count");
  r.set("sim.datagrams", get("net.sent_ch.udp") + get("net.sent_ch.reliable"),
        "count");
}

void trial_layer_metrics(const TrialFold& f, double pool_wall_s, int workers,
                         Result& r) {
  counter_layer_metrics(f.counters, r);
  r.set("proto.msgs_per_member_s",
        static_cast<double>(f.msgs) / std::max(f.member_seconds, 1e-9),
        "msg/member/s");
  r.set("check.events", static_cast<double>(f.check_events), "count");
  r.set("obs.samples", static_cast<double>(f.samples), "count");
  r.set("fault.entries", static_cast<double>(f.fault_entries), "count");
  double busy = 0;
  for (double w : f.trial_wall) busy += w;
  r.set("harness.trial_wall_p50_s", percentile(f.trial_wall, 0.5), "s");
  r.set("harness.trial_wall_max_s", percentile(f.trial_wall, 1.0), "s");
  r.set("harness.pool_busy_share",
        busy / std::max(workers * pool_wall_s, 1e-9), "share");
}

double paired_share(const TrialFold& f, int variants, int off) {
  std::vector<double> ratios;
  const auto v = static_cast<std::size_t>(variants);
  for (std::size_t cell = 0; cell + v <= f.trial_wall.size(); cell += v) {
    const double on = f.trial_wall[cell];
    if (on > 0) {
      ratios.push_back(f.trial_wall[cell + static_cast<std::size_t>(off)] /
                       on);
    }
  }
  return 1 - median(ratios);
}

}  // namespace lgbench
