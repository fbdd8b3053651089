// Shared reporting helpers for the bench binaries: every BENCH_*.json gets
// the same provenance header (bench name, git SHA, ISO-8601 UTC timestamp,
// hardware_concurrency) so series from different checkouts/hosts can be
// compared, and the same sample summaries (min/mean/stddev, percentiles)
// so no emitter reports a bare 2-iteration mean again.
#ifndef SNAPDIFF_BENCH_BENCH_REPORT_H_
#define SNAPDIFF_BENCH_BENCH_REPORT_H_

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace snapdiff {
namespace bench {

struct SampleStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  // population stddev; 0 for n < 2
  size_t n = 0;
};

inline SampleStats Summarize(const std::vector<double>& samples) {
  SampleStats s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.min = samples[0];
  s.max = samples[0];
  double sum = 0.0;
  for (double v : samples) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
  }
  s.mean = sum / double(samples.size());
  double var = 0.0;
  for (double v : samples) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / double(samples.size()));
  return s;
}

/// Linear-interpolated percentile (p in [0, 100]) of a sample set.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * double(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - double(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// The current checkout's short SHA: $SNAPDIFF_GIT_SHA if set (CI exports
/// it so benches need no .git), else `git rev-parse`, else "unknown".
inline std::string GitSha() {
  if (const char* env = std::getenv("SNAPDIFF_GIT_SHA")) {
    if (*env != '\0') return env;
  }
  std::string sha;
  if (std::FILE* pipe =
          ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      sha = buf;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    ::pclose(pipe);
  }
  return sha.empty() ? "unknown" : sha;
}

inline std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

/// The uniform provenance header, as JSON member lines (no surrounding
/// braces) indented two spaces, ending with a trailing comma:
///   "bench": "...", "git_sha": "...", "timestamp": "...",
///   "hardware_concurrency": N
inline std::string ReportHeaderFields(const std::string& bench_name) {
  std::string out;
  out += "  \"bench\": \"" + bench_name + "\",\n";
  out += "  \"git_sha\": \"" + GitSha() + "\",\n";
  out += "  \"timestamp\": \"" + IsoTimestampUtc() + "\",\n";
  out += "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  return out;
}

/// Renders a SampleStats as an inline JSON object.
inline std::string RenderStats(const SampleStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"min\": %.1f, \"max\": %.1f, \"mean\": %.1f, "
                "\"stddev\": %.1f, \"n\": %zu}",
                s.min, s.max, s.mean, s.stddev, s.n);
  return buf;
}

/// Strict command-line parsing shared by every bench: positional arguments
/// in a fixed order plus `--name=value` flags in any order. Read each
/// argument with its default (none = required), then call Finish(). A
/// missing required argument, an unknown flag (`--help` included), a
/// surplus positional, a value that is not entirely a number, or a zero
/// size prints the usage line and exits with status 2.
class BenchArgs {
 public:
  BenchArgs(int argc, char** argv, std::string usage)
      : program_(argc > 0 ? argv[0] : "bench"), usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) Fail("flag without a value: " + arg);
      flags_.push_back({arg.substr(2, eq - 2), arg.substr(eq + 1), false});
    }
  }

  /// The next positional argument: a size must be > 0, a count may be 0.
  uint64_t Size(std::optional<uint64_t> fallback = std::nullopt) {
    return ToSize(NextPositional(), fallback, "positional argument");
  }
  uint64_t Count(std::optional<uint64_t> fallback = std::nullopt) {
    return ToCount(NextPositional(), fallback, "positional argument");
  }
  double Number(std::optional<double> fallback = std::nullopt) {
    return ToNumber(NextPositional(), fallback, "positional argument");
  }
  std::string Text(std::optional<std::string> fallback = std::nullopt) {
    std::optional<std::string> v = NextPositional();
    if (!v.has_value() && !fallback.has_value()) {
      Fail("missing positional argument");
    }
    return v.has_value() ? *v : *fallback;
  }

  /// `--name=value` flags.
  uint64_t SizeFlag(const std::string& name, uint64_t fallback) {
    return ToSize(FindFlag(name), fallback, "--" + name);
  }
  double NumberFlag(const std::string& name, double fallback) {
    return ToNumber(FindFlag(name), fallback, "--" + name);
  }
  bool BoolFlag(const std::string& name, bool fallback) {
    const uint64_t v = ToCount(FindFlag(name), fallback ? 1 : 0, "--" + name);
    if (v > 1) Fail("--" + name + " takes 0 or 1");
    return v == 1;
  }
  std::string TextFlag(const std::string& name, std::string fallback) {
    std::optional<std::string> v = FindFlag(name);
    return v.has_value() ? *v : fallback;
  }

  /// Rejects every argument no read consumed.
  void Finish() const {
    if (next_ < positional_.size()) {
      Fail("unexpected argument: " + positional_[next_]);
    }
    for (const Flag& f : flags_) {
      if (!f.used) Fail("unknown flag: --" + f.name);
    }
  }

  [[noreturn]] void Fail(const std::string& why) const {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", program_.c_str(),
                 why.c_str(), program_.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  struct Flag {
    std::string name;
    std::string value;
    bool used;
  };

  std::optional<std::string> NextPositional() {
    if (next_ >= positional_.size()) return std::nullopt;
    return positional_[next_++];
  }
  std::optional<std::string> FindFlag(const std::string& name) {
    for (Flag& f : flags_) {
      if (f.name == name) {
        f.used = true;
        return f.value;
      }
    }
    return std::nullopt;
  }

  uint64_t ToCount(const std::optional<std::string>& v,
                   std::optional<uint64_t> fallback, const std::string& what) {
    if (!v.has_value()) {
      if (!fallback.has_value()) Fail("missing " + what);
      return *fallback;
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v->c_str(), &end, 10);
    if (v->empty() || (*v)[0] == '-' || *end != '\0' || errno != 0) {
      Fail(what + " is not a non-negative integer: " + *v);
    }
    return n;
  }
  uint64_t ToSize(const std::optional<std::string>& v,
                  std::optional<uint64_t> fallback, const std::string& what) {
    const uint64_t n = ToCount(v, fallback, what);
    if (v.has_value() && n == 0) Fail(what + " must be > 0");
    return n;
  }
  double ToNumber(const std::optional<std::string>& v,
                  std::optional<double> fallback, const std::string& what) {
    if (!v.has_value()) {
      if (!fallback.has_value()) Fail("missing " + what);
      return *fallback;
    }
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0' || errno != 0 || !std::isfinite(d)) {
      Fail(what + " is not a number: " + *v);
    }
    return d;
  }

  std::string program_;
  std::string usage_;
  std::vector<std::string> positional_;
  size_t next_ = 0;
  std::vector<Flag> flags_;
};

}  // namespace bench
}  // namespace snapdiff

#endif  // SNAPDIFF_BENCH_BENCH_REPORT_H_
