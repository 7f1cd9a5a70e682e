// Metric bookkeeping and result output for the repository benchmark.
//
// A workload run fills a RunOutcome: its correctness verdict, the operation
// counts, two metric sets (end-to-end, printed with --trace 0; per-layer,
// printed with --trace 1), and the deterministic values (counts and digests)
// that the compare mode requires to repeat exactly for a given seed.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Insertion-ordered metric list; setting a name twice overwrites it.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // NaN when absent.
  double Get(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Every metric the benchmark reports, in output order. Each workload prints
// all of them; a per-layer metric of a layer the workload does not exercise
// reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& PerLayerSpecs();

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  // Deterministic for a given workload and seed: counts, digests.
  std::map<std::string, std::string> exact;
  // Human-readable reasons behind correct == false.
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
// empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& samples);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Metric names are [A-Za-z0-9_.-]+ and start with a letter or digit.
bool ValidMetricName(const std::string& name);

// 64-bit FNV-1a over a stream of words; doubles are folded bit-exactly.
class Digest {
 public:
  void Add(std::uint64_t word);
  void AddDouble(double value);
  std::string Hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

// `measured` laid out in `specs` order, absent metrics as 0. Adds to
// `unknown` the names measured but missing from `specs`.
MetricSet Complete(const MetricSet& measured, const std::vector<MetricSpec>& specs,
                   std::vector<std::string>* unknown);

// The last stdout line the benchmark contract asks for: correct, attempted,
// failed, and `metrics` as {name: {value, unit}}.
std::string ResultLine(const RunOutcome& outcome, const MetricSet& metrics);

// A richer record for --out files, read back by the compare mode: the result
// line's fields plus workload, seed, trace flag and the exact values.
std::string RecordLine(const std::string& workload, std::uint64_t seed,
                       bool trace, const RunOutcome& outcome,
                       const MetricSet& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
