#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/metrics.h"

namespace lgbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double setup_median(const std::vector<double>& setups) {
  std::vector<double> batches;
  double sum = 0;
  int n = 0;
  for (double s : setups) {
    sum += s;
    ++n;
    if (sum >= kSetupBatchS) {
      batches.push_back(sum / n);
      sum = 0;
      n = 0;
    }
  }
  // A trailing partial batch joins the median only when it is the only one.
  if (batches.empty() && n > 0) batches.push_back(sum / n);
  return median(batches);
}

double percentile(const std::vector<double>& v, double q) {
  lifeguard::Histogram h;
  h.reserve(v.size());
  for (double x : v) h.record(x);
  return h.percentile(q);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope Tracer::open(const std::string& name) {
  if (!enabled_) return Scope(nullptr, -1);
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, t, -1});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  overhead_s_ += now_s() - t;
  return Scope(this, id);
}

void Tracer::close(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  overhead_s_ += now_s() - t;
}

void Tracer::add(const std::string& name, int parent, double start,
                 double end) {
  if (!enabled_) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, start, end});
  overhead_s_ += now_s() - t;
}

void Tracer::charge(double s) {
  std::lock_guard<std::mutex> lock(mu_);
  overhead_s_ += s;
}

double Tracer::overhead_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overhead_s_;
}

int Tracer::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stack_.empty() ? -1 : stack_.back();
}

bool Tracer::write(const std::string& path, const std::string& header) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.6f, \"end_s\": %.6f}\n",
                 i, s.parent, s.name.c_str(), s.start, s.end);
  }
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, double>> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children may run concurrently (pool trials), so a child's cover is the
  // union of child intervals, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, reach = s.start;
    for (auto [a, b] : k) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[s.name] += (s.end - s.start) - covered;
  }
  std::vector<std::pair<std::string, double>> out(self.begin(), self.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

// ---------------------------------------------------------------------------
// Digest

void Digest::add(const std::string& label, std::int64_t v) {
  auto feed = [this](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  };
  feed(label.data(), label.size());
  const auto u = static_cast<std::uint64_t>(v);
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(u >> (8 * i));
  }
  feed(bytes, sizeof(bytes));
  if (!text_.empty()) text_ += ' ';
  text_ += label + '=' + std::to_string(v);
}

// ---------------------------------------------------------------------------
// Metric catalog

const std::vector<std::string>& sent_types() {
  static const std::vector<std::string> types = {
      "ping", "ping-req", "ack", "nack", "gossip", "push-pull-req",
      "push-pull-resp"};
  return types;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.datagrams", "count"},
        {"sim.queue_depth_max", "count"},
        {"sim.vs_wall_p50_ms", "ms"},
        {"sim.vs_wall_max_ms", "ms"},
        {"sim.formation_s", "s"},
        {"sim.steady_vsps", "vs/s"},
    };
    for (const std::string& t : sent_types()) {
      v.emplace_back("proto.sent." + t, "count");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"proto.bytes_sent", "bytes"},
        {"proto.gossip_transmits", "count"},
        {"proto.bcast_pending_max", "count"},
        {"proto.bcast_select_us", "us"},
        {"proto.pushpull_decode_us", "us"},
        {"proto.msgs_per_member_s", "msg/member/s"},
        {"swim.select_us", "us"},
        {"swim.find_ns", "ns"},
        {"swim.join_learned", "count"},
        {"swim.suspicion_started", "count"},
        {"swim.refutations", "count"},
        {"swim.probe_failed", "count"},
        {"swim.nack_sent", "count"},
        {"membership.view_us", "us"},
        {"check.events", "count"},
        {"check.share", "share"},
        {"obs.samples", "count"},
        {"obs.share", "share"},
        {"fault.entries", "count"},
        {"net.dropped", "count"},
        {"harness.trial_wall_p50_s", "s"},
        {"harness.trial_wall_max_s", "s"},
        {"harness.pool_busy_share", "share"},
        {"harness.load_ms", "ms"},
        {"harness.trials_per_s", "1/s"},
        {"harness.fp_swim", "count"},
        {"harness.fp_lifeguard", "count"},
        {"harness.detect_p50_s", "vs"},
        {"fuzz.mutate_us", "us"},
        {"trace.overhead_share", "share"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

}  // namespace lgbench
