/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * A span is one call into a module's public function, timed from the
 * benchmark's own code (see layers.cpp): its layer, the function, start
 * and end on the steady clock, the span that was open on the same thread
 * when it began (its parent), and the id of the figure render it belongs
 * to. Spans stay in memory while the run lasts; the benchmark derives
 * per-layer self time from them and writes one Chrome trace at the end.
 *
 * Recording is off unless a traced iteration switches it on, so the
 * untraced iterations pay one relaxed load per intercepted call.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** The repo's modules. Power and tech run inside thermal's fixed
 *  point, so their time is thermal's. */
enum class Layer : std::uint8_t
{
    Service,
    Runner,
    Model,
    Thermal,
    Sim,
    Workloads,
};

inline constexpr int kLayerCount = 6;

const char* layerName(Layer layer);

/** Span names: the public function each intercepted call entered. */
namespace call {
inline constexpr const char* kRender = "service::renderFigure";
inline constexpr const char* kExperiment = "runner::Experiment";
inline constexpr const char* kMeasure = "runner::Experiment::tryMeasureApp";
inline constexpr const char* kRow1 = "runner::Experiment::scenario1Row";
inline constexpr const char* kRow2 = "runner::Experiment::scenario2Row";
inline constexpr const char* kStoreOpen = "runner::PersistentRawStore::open";
inline constexpr const char* kScenario1 = "model::Scenario1::solve";
inline constexpr const char* kScenario1Batch = "model::Scenario1::solveBatch";
inline constexpr const char* kScenario2 = "model::Scenario2::solve";
inline constexpr const char* kArbitrate = "model::arbitrateCoSchedule";
inline constexpr const char* kCoupled = "thermal::solveCoupled";
inline constexpr const char* kCoupledAccel = "thermal::solveCoupledAccelerated";
inline constexpr const char* kCoupledBatch = "thermal::solveCoupledBatch";
inline constexpr const char* kCmpRun = "sim::Cmp::run";
inline constexpr const char* kMake = "workloads::WorkloadInfo::make";
} // namespace call

/** One finished call. The sim fields are filled only for sim.run. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0: no span was open on this thread
    std::uint32_t render = 0; ///< figure render the call belongs to
    std::uint32_t tid = 0;
    Layer layer = Layer::Service;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    // Arguments: the figure of a render, else the operating point. The
    // name must live as long as the process, since spans outlive calls.
    const char* what = nullptr; ///< figure or workload name
    int n = 0;
    double vdd = 0.0;
    double freq_hz = 0.0;
    // sim.run results.
    std::uint64_t events = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t queue_high_water = 0;
    std::uint64_t busy = 0;
    std::uint64_t stall_mem = 0;
    std::uint64_t stall_sync = 0;
};

/** Totals over every intercepted sim::Cmp::run, traced or not: the
 *  exact-count ledger reads them on untraced iterations too. */
struct SimTotals
{
    std::atomic<std::uint64_t> runs{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> instructions{0};
};

SimTotals& simTotals();

/** Nanoseconds on the steady clock. */
std::int64_t nowNs();

/** Recording switch, and the render id stamped on new spans. */
void setRecording(bool on);
void setRender(std::uint32_t render);

/** Open a span on the calling thread; it ends, and is stored, on scope
 *  exit. Inert while recording is off. */
class ScopedSpan
{
  public:
    ScopedSpan(Layer layer, const char* name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** The span's fields, to fill arguments and results in. */
    Span& span() { return span_; }

  private:
    bool active_ = false;
    Span span_;
};

/** Take every span stored so far, emptying the recorder. */
std::vector<Span> drainSpans();

/**
 * Per-layer metrics of one traced iteration, under the names
 * BENCHMARK.json lists: self time per layer, time and calls at each
 * layer boundary, and the trace's own checks. @p workers is the sweep
 * worker count (1: no pool).
 */
std::map<std::string, double> layerMetrics(const std::vector<Span>& spans,
                                           int workers);

/** Write @p spans as Chrome trace-event JSON, which Perfetto opens. */
bool writeChromeTrace(const std::string& path,
                      const std::vector<Span>& spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
