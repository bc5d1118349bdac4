#pragma once
// Shared plumbing of the MPROS benchmark: wall/CPU clocks, sample
// statistics, the ground-truth check ledger, and the in-memory span tracer
// the traced run wraps around every call it makes into an MPROS module.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user+sys CPU seconds, all threads.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Current resident set size (Linux /proc/self/statm), 0 if unreadable.
inline double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Ground-truth checks: every one attempted is counted, every failure is
/// counted and described, so each share is always printed against its base.
///
/// Two classes. Integrity checks say the program did every operation and
/// agreed with itself (every scheduled test and scan ran; nothing lost,
/// duplicated or corrupted; tiers and twins agree); they are the result's
/// attempted/failed counts, and one failing makes the output incorrect.
/// Diagnostic checks score the fused conclusions against injected ground
/// truth (missed faults, false alarms, order-sensitive fusion); the program
/// has known failures there at a rate the host's timing can shift, so they
/// are reported as fail_share and the diag_pass_share metric instead.
class Checks {
 public:
  enum class Kind { Integrity, Diagnostic };

  void check(bool ok, Kind cls, const std::string& kind,
             const std::string& what) {
    Count& c = cls == Kind::Integrity ? integrity_ : diagnostic_;
    ++c.attempted;
    ++by_kind_[kind].first;
    if (ok) return;
    ++c.failed;
    ++by_kind_[kind].second;
    if (failures_.size() < 64) failures_.push_back(kind + ": " + what);
  }
  struct Count {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  [[nodiscard]] const Count& integrity() const { return integrity_; }
  [[nodiscard]] const Count& diagnostic() const { return diagnostic_; }
  void print(std::FILE* out) const {
    for (const auto& [kind, v] : by_kind_) {
      std::fprintf(out, "check %-34s failed %llu of %llu\n", kind.c_str(),
                   static_cast<unsigned long long>(v.second),
                   static_cast<unsigned long long>(v.first));
    }
    for (const auto& f : failures_) std::fprintf(out, "  failed: %s\n", f.c_str());
  }

 private:
  Count integrity_;
  Count diagnostic_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_kind_;
  std::vector<std::string> failures_;
};

/// Spans recorded around the benchmark's own calls into MPROS modules.
/// Single-threaded (the benchmark's driver thread); disabled, a Scope costs
/// one branch and reads no clock.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint32_t step = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    bool replica = false;
  };

  struct Layer {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_enabled(bool on) { enabled_ = on; }
  void set_step(std::uint32_t step) { step_ = step; }
  /// Spans begun while set mark work the benchmark re-does through a twin
  /// to time it (not work the workload itself performs).
  void set_replica(bool on) { replica_ = on; }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (t_.enabled_) index_ = t_.begin(name);
    }
    ~Scope() {
      if (index_ >= 0) t_.end(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_ = -1;
  };

  /// Add `n` to a named work counter (reports decoded, tests run, ...).
  void count(const std::string& name, double n) {
    if (enabled_) counts_[name] += n;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

  /// Calls, total and self time per span name. Self time is a span's
  /// duration minus the part its direct children cover.
  [[nodiscard]] std::map<std::string, Layer> layers() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Layer& l = out[names_[s.name]];
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      ++l.calls;
      l.total_s += d;
      l.self_s += d - child_s[i];
    }
    return out;
  }

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

  /// Self time of the spans around the workload's own calls (no replicas).
  [[nodiscard]] double direct_self_s() const {
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (!s.replica && s.parent < 0) {
        covered += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    return covered;
  }

  /// Write every span as CSV (name, parent index, step, replica flag, start
  /// and end in ns).
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index,name,parent,step,replica,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%d,%u,%d,%lld,%lld\n", i, names_[s.name].c_str(),
                   s.parent, s.step, s.replica ? 1 : 0,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int32_t begin(const char* name) {
    auto it = name_ids_.find(name);
    if (it == name_ids_.end()) {
      it = name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()))
               .first;
      names_.emplace_back(name);
    }
    Span s;
    s.name = it->second;
    s.parent = open_.empty() ? -1 : open_.back();
    s.step = step_;
    s.replica = replica_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }
  void end(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }
  [[nodiscard]] std::int64_t ns_since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  [[nodiscard]] std::int64_t now_ns() const { return ns_since_epoch(Clock::now()); }

  bool enabled_;
  bool replica_ = false;
  std::uint32_t step_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::map<std::string, double> counts_;
};

/// The disabled tracer untraced runs pass around.
inline Tracer& trace_off() {
  static Tracer off(false);
  return off;
}

/// What one episode (or, merged, a run's episodes) measured; untraced
/// metrics come from here.
struct Totals {
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  double step_wall_s = 0.0;
  double step_cpu_s = 0.0;
  double sim_hours = 0.0;
  double reports_fused = 0.0;
  std::size_t episodes = 0;
  /// Per-episode rates, so a run reports their medians and one disturbed
  /// episode does not move it.
  std::vector<double> sim_hours_per_s;
  std::vector<double> reports_per_s;
  std::vector<double> cpu_ms_per_step;
  /// Resident set at the end of each episode's steps, the episode's largest
  /// point (the OOSM and the DC databases only grow).
  std::vector<double> rss_mb;

  void merge(const Totals& o) {
    setup_s.insert(setup_s.end(), o.setup_s.begin(), o.setup_s.end());
    step_ms.insert(step_ms.end(), o.step_ms.begin(), o.step_ms.end());
    step_wall_s += o.step_wall_s;
    step_cpu_s += o.step_cpu_s;
    sim_hours += o.sim_hours;
    reports_fused += o.reports_fused;
    episodes += o.episodes;
    rss_mb.insert(rss_mb.end(), o.rss_mb.begin(), o.rss_mb.end());
    if (o.episodes == 1) {
      sim_hours_per_s.push_back(o.sim_hours / o.step_wall_s);
      reports_per_s.push_back(o.reports_fused / o.step_wall_s);
      cpu_ms_per_step.push_back(o.step_cpu_s * 1e3 /
                                static_cast<double>(o.step_ms.size()));
    }
  }
};

}  // namespace perfbench
