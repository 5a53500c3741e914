// Hardware performance counters via perf_event_open.
//
// The paper's cost model (Section 2) is stated in cache-line transfers, so
// the observability layer samples the memory hierarchy directly: cycles,
// instructions, LLC loads/misses, L1D misses, dTLB misses and branch
// misses around every pass. Counters are opened per thread (each worker
// measures only its own work) or with `inherit` so one group observes a
// whole thread pool spawned after Open().
//
// Degradation is graceful and per event: on non-Linux builds, in
// containers without CAP_PERFMON, or under perf_event_paranoid >= 3,
// Open() simply reports fewer (possibly zero) usable events and every
// sample marks the missing events invalid — callers never crash and JSON
// output renders them as null. When the kernel multiplexes the PMU the
// readings are scaled by time_enabled/time_running (the standard perf
// estimate), so mixes of more events than hardware counters stay usable.

#ifndef CEA_OBS_PERF_COUNTERS_H_
#define CEA_OBS_PERF_COUNTERS_H_

#include <array>
#include <cstdint>

namespace cea::obs {

// Index into PerfSample::value. Order is the serialization order of every
// JSON record; append only.
enum PerfEvent : int {
  kCycles = 0,
  kInstructions,
  kLLCLoads,
  kLLCMisses,
  kL1DMisses,
  kDTLBMisses,
  kBranchMisses,
  kNumPerfEvents
};

// Stable snake_case name used as the JSON key ("cycles", "llc_misses", ...).
const char* PerfEventName(int event);

// Counter deltas of one measurement interval. An event that could not be
// opened, or that the kernel never scheduled during the interval, has
// valid[e] == false (value 0). scaled[e] is true when the value is a
// multiplex estimate (scaled by time_enabled/time_running) rather than a
// raw count; an interval whose time_enabled delta is zero is reported raw
// and unscaled — scaling it would divide by zero or fabricate counts.
struct PerfSample {
  std::array<uint64_t, kNumPerfEvents> value{};
  std::array<bool, kNumPerfEvents> valid{};
  std::array<bool, kNumPerfEvents> scaled{};

  bool any_valid() const {
    for (bool v : valid) {
      if (v) return true;
    }
    return false;
  }

  // Event-wise sum; an event is valid in the total once any contribution
  // was valid, and scaled once any contribution was an estimate.
  void Accumulate(const PerfSample& other) {
    for (int e = 0; e < kNumPerfEvents; ++e) {
      if (other.valid[e]) {
        value[e] += other.value[e];
        valid[e] = true;
        if (other.scaled[e]) scaled[e] = true;
      }
    }
  }
};

// A set of hardware counters attached to the calling thread. Not a kernel
// "event group": each event is opened standalone so one unavailable event
// (common for the cache events on older or virtualized PMUs) never takes
// the others down, and so `inherit` (which kernel groups do not support
// for reads) works.
class PerfCounterGroup {
 public:
  struct Options {
    // Also count threads/processes *created after* Open() by the opening
    // thread (perf inherit). Use for whole-operator measurements where the
    // scheduler pool is constructed between Open() and Start().
    bool inherit = false;
  };

  PerfCounterGroup() = default;
  explicit PerfCounterGroup(Options opts) : opts_(opts) {}
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  // Opens the events on the calling thread. Returns the number of events
  // that opened (0 = counting unavailable). Safe to call repeatedly; a
  // second call on the same instance is a no-op unless Close() ran.
  int Open();
  void Close();
  bool available() const { return num_open_ > 0; }

  // Enables the counters and snapshots a baseline. Start/Stop pairs may
  // repeat without reopening. (No IOC_RESET: with inherit, child counts
  // are not reset by the kernel, so deltas against a baseline are the only
  // portable interval semantics.)
  void Start();
  // Disables the counters and returns multiplex-scaled deltas since the
  // matching Start(). All-invalid when the group is unavailable.
  PerfSample Stop();

 private:
  struct Reading {
    uint64_t value = 0;
    uint64_t enabled = 0;
    uint64_t running = 0;
  };
  bool Read(int event, Reading* out) const;

  Options opts_{};
  std::array<int, kNumPerfEvents> fd_{
      {-1, -1, -1, -1, -1, -1, -1}};
  std::array<Reading, kNumPerfEvents> base_{};
  int num_open_ = 0;
  bool opened_ = false;
};

// Per-worker counter bundle used by the operator. perf events attach to
// the opening thread, so the group opens lazily on the first interval, on
// the slot's pool worker: only that worker's thread measures the slot.
// Also accumulates interval deltas into a total that the operator merges
// at result collection.
class WorkerCounters {
 public:
  // Begins an interval; the first one opens the group on this thread.
  void BeginInterval() {
    if (!open_attempted_) {
      group_.Open();
      open_attempted_ = true;
    }
    group_.Start();
  }

  // Ends the interval; the delta is returned and added to total().
  PerfSample EndInterval() {
    PerfSample s = group_.Stop();
    total_.Accumulate(s);
    return s;
  }

  bool available() const { return group_.available(); }
  const PerfSample& total() const { return total_; }
  PerfSample TakeTotal() {
    PerfSample t = total_;
    total_ = PerfSample{};
    return t;
  }

 private:
  PerfCounterGroup group_;
  PerfSample total_;
  bool open_attempted_ = false;
};

}  // namespace cea::obs

#endif  // CEA_OBS_PERF_COUNTERS_H_
