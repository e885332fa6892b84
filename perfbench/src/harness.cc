#include "harness.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>

#include "obs/trace.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void CheckOk(const ccs::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double FlipLowBit(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

// ------------------------------------------------------------- Tracer

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->stack_.push_back({name, NowNs(), 0});
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const uint64_t end = NowNs();
  const Open open = tracer_->stack_.back();
  tracer_->stack_.pop_back();
  const uint64_t duration = end - open.start_ns;
  Totals& totals = tracer_->totals_[open.name];
  totals.self_ns += duration - std::min(duration, open.child_ns);
  ++totals.count;
  if (!tracer_->stack_.empty()) tracer_->stack_.back().child_ns += duration;
}

double Tracer::SelfMs(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0
                             : static_cast<double>(it->second.self_ns) * 1e-6;
}

uint64_t Tracer::Count(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.count;
}

double Tracer::AccountedMs() const {
  uint64_t ns = 0;
  for (const auto& entry : totals_) ns += entry.second.self_ns;
  return static_cast<double>(ns) * 1e-6;
}

double Samples::MedianOf(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : Median(it->second);
}

std::map<std::string, double> Samples::Medians() const {
  std::map<std::string, double> medians;
  for (const auto& entry : values_) medians[entry.first] = Median(entry.second);
  return medians;
}

double SessionOverheadPct(double seconds,
                          const std::function<double()>& pass) {
  std::vector<double> off;
  std::vector<double> on;
  const uint64_t start = NowNs();
  for (size_t i = 0; i < 6 || Seconds(start, NowNs()) < seconds; ++i) {
    std::optional<ccs::obs::ObsSession> session;
    if (i % 2 == 1) session.emplace();
    (i % 2 == 1 ? on : off).push_back(pass());
  }
  return (Median(off) / Median(on) - 1.0) * 100.0;
}

// ------------------------------------------------- process probes

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 * 1e-6;
    }
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------ TimedStreambuf

TimedStreambuf::TimedStreambuf(const std::string& bytes,
                               std::vector<uint64_t>* hand_ns)
    : bytes_(bytes), hand_ns_(hand_ns) {
  if (hand_ns_ != nullptr) {
    hand_ns_->assign(BlockOf(bytes_.size()) + 1, 0);
  }
}

TimedStreambuf::int_type TimedStreambuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (next_ >= bytes_.size()) return traits_type::eof();
  const size_t end = std::min(next_ + kBlockBytes, bytes_.size());
  // The reader only reads through the get area; the bytes stay const.
  char* base = const_cast<char*>(bytes_.data());
  if (hand_ns_ != nullptr) (*hand_ns_)[BlockOf(next_)] = NowNs();
  setg(base + next_, base + next_, base + end);
  next_ = end;
  return traits_type::to_int_type(*gptr());
}

// -------------------------------------------------------------- Result

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += (gates_ok && failed == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
