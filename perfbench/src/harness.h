// Measurement plumbing shared by every perfbench workload: clocks,
// order statistics, the benchmark-owned span tracer, process memory and
// CPU probes, the timed in-memory stream, and the result line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <streambuf>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the self-test; every gate still runs.
  bool tiny = false;
  /// Flip one bit of the first checked result before comparing it, to
  /// prove the bitwise gate reports the mismatch.
  bool plant_mismatch = false;
};

/// Score lanes for every workload: two stage threads plus two lanes keep
/// runnable threads at or below four cores. Pinned through both
/// StreamPipelineOptions::num_threads and common::SetDefaultThreadCount.
constexpr size_t kLanes = 2;

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

inline double Seconds(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

/// Order statistic by linear interpolation between closest ranks; 0 for
/// an empty sample. `p` in [0, 100].
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Aborts the run (exit code 2, no result line) on a library error the
/// benchmark cannot count as a failed operation.
void CheckOk(const ccs::Status& status, const char* what);

/// Bit-exact double comparison (NaN equals an identical NaN, -0 != +0).
bool SameBits(double a, double b);
/// Flips the lowest mantissa bit: the planted mismatch.
double FlipLowBit(double value);

/// Benchmark-owned spans around calls into the library, for the staged
/// run. Strictly nested (one thread, LIFO), so a span's self time is
/// its duration minus the durations of the spans opened inside it.
class Tracer {
 public:
  /// RAII span; a null tracer makes it a no-op.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  double SelfMs(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  /// Sum of every span's self time, in ms: what the spans account for.
  double AccountedMs() const;

 private:
  struct Totals {
    uint64_t self_ns = 0;
    uint64_t count = 0;
  };
  struct Open {
    const char* name;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
};

/// Per-pass values of named metrics, reduced to medians at the end.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const;
  /// The median of every named metric held.
  std::map<std::string, double> Medians() const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// obs.session_overhead_pct: runs `pass` (one pass, returning its rows/s)
/// alternately without and with an active obs::ObsSession, so drift in
/// machine speed hits both sides alike, for at least `seconds` and three
/// passes a side. Returns median rows/s without over with, minus 1, in %.
double SessionOverheadPct(double seconds, const std::function<double()>& pass);

/// Resets the process's peak resident set (VmHWM) to its current size,
/// after returning freed heap pages to the kernel.
void ResetPeakRss();
/// VmHWM in MB (10^6 bytes).
double PeakRssMb();
/// CPU seconds consumed by every thread of the process so far.
double ProcessCpuSeconds();

/// An in-memory byte stream that hands its reader fixed-size blocks and,
/// when `hand_ns` is non-null, stamps the moment each block is handed
/// over: the start of a window's latency.
class TimedStreambuf : public std::streambuf {
 public:
  static constexpr size_t kBlockBytes = 4096;

  TimedStreambuf(const std::string& bytes, std::vector<uint64_t>* hand_ns);

  /// Block index holding byte `offset`.
  static size_t BlockOf(size_t offset) { return offset / kBlockBytes; }

 protected:
  int_type underflow() override;

 private:
  const std::string& bytes_;
  std::vector<uint64_t>* hand_ns_;
  size_t next_ = 0;
};

/// The result line the benchmark prints last.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Cleared by run-level gates that are not per operation (the alarm
  /// gate on the reference history).
  bool gates_ok = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
