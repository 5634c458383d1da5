// lgbench — the repository's end-to-end benchmark.
//
// Two workloads drive the library from outside, through its public entry
// points only (sim::Simulator, harness::ScenarioFile, harness::run(Campaign)
// with Reporters and trial_sinks, fuzz::Mutator). An untraced run measures the
// end-to-end metrics; a traced run (--trace 1) times calls into each layer's
// public functions, reads its public counters, and records spans. Every run
// checks its outputs and prints a digest of the simulated statistics that
// two runs on one seed must reproduce exactly.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace lgbench {

// ---------------------------------------------------------------------------
// Run options

enum class Scale { kFull, kToy };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Untraced runs repeat the workload's job until this much wall time has
  /// been spent in jobs (at least one job).
  double seconds = 20;
  bool trace = false;
  /// kToy shrinks every workload to a few seconds (the smoke test).
  Scale scale = Scale::kFull;
  /// Checkout root: scenario files are read from <root>/scenarios.
  std::string root = ".";
  /// Where a traced run writes its spans.
  std::string out_dir;
  /// Provenance passed in by run.py.
  std::string commit = "none";
  std::string src_digest = "none";
};

// ---------------------------------------------------------------------------
// Clocks, statistics, process counters

/// Wall seconds since the process started (steady clock).
double now_s();
/// User + system CPU seconds of this process.
double cpu_s();
/// VmHWM of this process in MB (the workload's own peak: one process runs
/// one workload).
double peak_rss_mb();

double median(const std::vector<double>& v);
/// Linear-interpolated percentile (lifeguard::Histogram), q in [0, 1]; 0
/// when empty.
double percentile(const std::vector<double>& v, double q);

/// Set-up is repeated for at least kSetupWindowS wall seconds, and at least
/// kMinSetups times. The host switches between a fast and a ~1.5x slower
/// speed in stretches of 0.1-1 s, so the median single repetition jumps
/// between the two; setup_s is instead the median over batches of
/// consecutive repetitions, each batch at least kSetupBatchS long, of the
/// batch's mean repetition (see setup_median).
constexpr double kSetupWindowS = 5.0;
constexpr double kSetupBatchS = 0.25;
constexpr int kMinSetups = 11;

/// setup_s from the wall seconds of consecutive set-up repetitions: the
/// median of the mean repetition of each batch of at least kSetupBatchS.
/// A set-up slower than a batch is a batch of its own.
double setup_median(const std::vector<double>& setups);

/// True while another set-up repetition is due, `done` repetitions after
/// the loop started at `started` (now_s()).
inline bool more_setups(int done, double started) {
  return done < kMinSetups || now_s() - started < kSetupWindowS;
}

/// Calls fn() `reps` times and returns the median wall microseconds of one
/// call.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double a = now_s();
    fn();
    t.push_back((now_s() - a) * 1e6);
  }
  return median(t);
}

// ---------------------------------------------------------------------------
// Spans

/// In-memory span recorder: name, start, end, parent. Disabled tracers
/// record nothing. Main-thread spans nest through open(); worker threads add
/// finished spans with add(), naming their parent explicitly.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }

   private:
    Tracer* t_;
    int id_;
  };

  /// Opens a span under the innermost open main-thread span.
  Scope open(const std::string& name);
  /// Records a finished span (thread-safe).
  void add(const std::string& name, int parent, double start, double end);
  /// Innermost open main-thread span; -1 at top level.
  int current() const;

  bool enabled() const { return enabled_; }
  /// Adds `s` seconds of instrumentation work done outside the tracer.
  void charge(double s);
  /// Wall seconds spent in instrumentation so far: the tracer's own calls
  /// plus charge(). Work a traced run does that an untraced one does not.
  double overhead_s() const;
  /// Writes one JSON object per span; returns false on I/O failure.
  bool write(const std::string& path, const std::string& header) const;
  /// Self time per span name (duration minus the part its children cover),
  /// summed over spans of that name, largest first.
  std::vector<std::pair<std::string, double>> self_times() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0;
    double end = -1;
  };
  void close(int id);

  bool enabled_;
  mutable std::mutex mu_;
  double overhead_s_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0;
  std::string unit;
};

/// FNV-1a over labelled integers: the run's digest of simulated statistics.
class Digest {
 public:
  void add(const std::string& label, std::int64_t v);
  std::uint64_t value() const { return h_; }
  /// "label=value ..." in insertion order.
  const std::string& text() const { return text_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::string text_;
};

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::map<std::string, Metric> metrics;
  /// The workload's headline numbers for people, printed in every run.
  std::vector<std::pair<std::string, Metric>> report;
  Digest digest;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.emplace_back(name, Metric{value, unit});
  }
  void fail(const std::string& why) { errors.push_back(why); }
};

/// Metric names every run must emit, with units: the benchmark's contract
/// with BENCHMARK.json (the smoke test holds them equal).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// The message types counted under proto.sent.<type>.
const std::vector<std::string>& sent_types();

// ---------------------------------------------------------------------------
// Workloads

void run_large_cluster(const Options& o, Tracer& tr, Result& r);
void run_paper_grid(const Options& o, Tracer& tr, Result& r);

}  // namespace lgbench
