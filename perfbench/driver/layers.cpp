/**
 * @file
 * Layer-boundary spans, recorded from the benchmark's own code.
 *
 * The benchmark links the repo's objects with `ld --wrap=SYMBOL` for each
 * mangled name quoted in this file (CMakeLists.txt collects them from
 * here), so every call that crosses into one of these public functions
 * from another translation unit lands in the wrapper below, which opens
 * a span and calls the original through its `__real_` alias. Calls made
 * inside the defining file are not intercepted; the layer boundaries
 * chosen here are all crossed between files.
 *
 * The `__real_` aliases are weak: a function that a later change removes
 * or re-signs leaves its wrapper unreferenced instead of breaking the
 * link. missingHooks() names every such function, and the driver then
 * refuses a traced run, whose layer metrics would read 0 for it.
 *
 * Itanium C++ ABI on x86-64: a member function takes `this` as its first
 * argument, so each wrapper is a free function with an explicit object
 * pointer first.
 */

#include "layers.hpp"

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/multiprog.hpp"
#include "model/scenario1.hpp"
#include "model/scenario2.hpp"
#include "runner/experiment.hpp"
#include "runner/persistent_raw_store.hpp"
#include "sim/cmp.hpp"
#include "spans.hpp"
#include "thermal/rc_model.hpp"
#include "workloads/workload.hpp"

// Each mangled name stays on one line: CMakeLists.txt collects them for
// --wrap with a regex over this file.
#define PERFBENCH_REAL(sym) __asm__("__real_" sym) __attribute__((weak))
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

using namespace tlp;

namespace perfbench {
// The wrappers and __real_ aliases need external linkage for the linker
// to bind them, so they live in a named namespace.
namespace hooks {

using PowerOfTemp =
    std::function<std::vector<double>(const std::vector<double>&)>;

// ---- sim ---------------------------------------------------------------

#define SYM_CMP_RUN "_ZNK3tlp3sim3Cmp3runERKNS0_7ProgramEd"
sim::RunResult realCmpRun(const sim::Cmp*, const sim::Program&, double)
    PERFBENCH_REAL(SYM_CMP_RUN);
sim::RunResult wrapCmpRun(const sim::Cmp*, const sim::Program&, double)
    PERFBENCH_WRAP(SYM_CMP_RUN);

sim::RunResult
wrapCmpRun(const sim::Cmp* self, const sim::Program& program, double freq_hz)
{
    ScopedSpan scope(Layer::Sim, call::kCmpRun);
    sim::RunResult run = realCmpRun(self, program, freq_hz);
    SimTotals& totals = simTotals();
    totals.runs.fetch_add(1, std::memory_order_relaxed);
    totals.events.fetch_add(run.events, std::memory_order_relaxed);
    totals.cycles.fetch_add(run.cycles, std::memory_order_relaxed);
    totals.instructions.fetch_add(run.instructions,
                                  std::memory_order_relaxed);
    Span& s = scope.span();
    s.n = program.nThreads();
    s.freq_hz = freq_hz;
    s.events = run.events;
    s.cycles = run.cycles;
    s.instructions = run.instructions;
    s.queue_high_water = run.queue_high_water;
    for (const sim::CoreCycleBreakdown& core : run.core_cycles) {
        s.busy += core.busy;
        s.stall_mem += core.stall_mem;
        s.stall_sync += core.stall_sync;
    }
    return run;
}

// ---- workloads: every generator behind WorkloadInfo::make --------------

sim::Program
timedMake(const char* workload, sim::Program (*real)(int, double), int n,
          double scale)
{
    ScopedSpan scope(Layer::Workloads, call::kMake);
    scope.span().what = workload;
    scope.span().n = n;
    return real(n, scale);
}

#define PERFBENCH_GENERATOR(fn, label, sym)                                  \
    sim::Program real_##fn(int, double) PERFBENCH_REAL(sym);               \
    sim::Program wrap_##fn(int, double) PERFBENCH_WRAP(sym);               \
    sim::Program wrap_##fn(int n, double scale)                            \
    {                                                                      \
        return timedMake(label, &real_##fn, n, scale);                     \
    }

PERFBENCH_GENERATOR(makeBarnes, "Barnes", "_ZN3tlp9workloads10makeBarnesEid")
PERFBENCH_GENERATOR(makeCholesky, "Cholesky",
                    "_ZN3tlp9workloads12makeCholeskyEid")
PERFBENCH_GENERATOR(makeFft, "FFT", "_ZN3tlp9workloads7makeFftEid")
PERFBENCH_GENERATOR(makeFmm, "FMM", "_ZN3tlp9workloads7makeFmmEid")
PERFBENCH_GENERATOR(makeLu, "LU", "_ZN3tlp9workloads6makeLuEid")
PERFBENCH_GENERATOR(makeOcean, "Ocean", "_ZN3tlp9workloads9makeOceanEid")
PERFBENCH_GENERATOR(makeRadiosity, "Radiosity",
                    "_ZN3tlp9workloads13makeRadiosityEid")
PERFBENCH_GENERATOR(makeRadix, "Radix", "_ZN3tlp9workloads9makeRadixEid")
PERFBENCH_GENERATOR(makeRaytrace, "Raytrace",
                    "_ZN3tlp9workloads12makeRaytraceEid")
PERFBENCH_GENERATOR(makeVolrend, "Volrend",
                    "_ZN3tlp9workloads11makeVolrendEid")
PERFBENCH_GENERATOR(makeWaterNsq, "Water-Nsq",
                    "_ZN3tlp9workloads12makeWaterNsqEid")
PERFBENCH_GENERATOR(makeWaterSp, "Water-Sp",
                    "_ZN3tlp9workloads11makeWaterSpEid")
PERFBENCH_GENERATOR(makePowerVirus, "power-virus",
                    "_ZN3tlp9workloads14makePowerVirusEid")

// ---- thermal (power and tech run inside its fixed point) ---------------

#define SYM_COUPLED "_ZN3tlp7thermal12solveCoupledERKNS0_7RCModelERKSt8functionIFSt6vectorIdSaIdEERKS7_EEdid"
thermal::CoupledResult realCoupled(const thermal::RCModel&,
                                   const PowerOfTemp&, double, int, double)
    PERFBENCH_REAL(SYM_COUPLED);
thermal::CoupledResult wrapCoupled(const thermal::RCModel&,
                                   const PowerOfTemp&, double, int, double)
    PERFBENCH_WRAP(SYM_COUPLED);

thermal::CoupledResult
wrapCoupled(const thermal::RCModel& model, const PowerOfTemp& power,
            double tol_c, int max_iter, double damping)
{
    ScopedSpan scope(Layer::Thermal, call::kCoupled);
    scope.span().n = 1;
    return realCoupled(model, power, tol_c, max_iter, damping);
}

#define SYM_COUPLED_SCRATCH "_ZN3tlp7thermal12solveCoupledERKNS0_7RCModelERKSt8functionIFSt6vectorIdSaIdEERKS7_EERNS0_14CoupledScratchEdid"
thermal::CoupledResult realCoupledScratch(const thermal::RCModel&,
                                          const PowerOfTemp&,
                                          thermal::CoupledScratch&, double,
                                          int, double)
    PERFBENCH_REAL(SYM_COUPLED_SCRATCH);
thermal::CoupledResult wrapCoupledScratch(const thermal::RCModel&,
                                          const PowerOfTemp&,
                                          thermal::CoupledScratch&, double,
                                          int, double)
    PERFBENCH_WRAP(SYM_COUPLED_SCRATCH);

thermal::CoupledResult
wrapCoupledScratch(const thermal::RCModel& model, const PowerOfTemp& power,
                   thermal::CoupledScratch& scratch, double tol_c,
                   int max_iter, double damping)
{
    ScopedSpan scope(Layer::Thermal, call::kCoupled);
    scope.span().n = 1;
    return realCoupledScratch(model, power, scratch, tol_c, max_iter,
                              damping);
}

#define SYM_COUPLED_ACCEL "_ZN3tlp7thermal23solveCoupledAcceleratedERKNS0_7RCModelERKSt8functionIFSt6vectorIdSaIdEERKS7_EEdi"
thermal::CoupledResult realCoupledAccel(const thermal::RCModel&,
                                        const PowerOfTemp&, double, int)
    PERFBENCH_REAL(SYM_COUPLED_ACCEL);
thermal::CoupledResult wrapCoupledAccel(const thermal::RCModel&,
                                        const PowerOfTemp&, double, int)
    PERFBENCH_WRAP(SYM_COUPLED_ACCEL);

thermal::CoupledResult
wrapCoupledAccel(const thermal::RCModel& model, const PowerOfTemp& power,
                 double tol_c, int max_iter)
{
    ScopedSpan scope(Layer::Thermal, call::kCoupledAccel);
    scope.span().n = 1;
    return realCoupledAccel(model, power, tol_c, max_iter);
}

#define SYM_COUPLED_BATCH "_ZN3tlp7thermal17solveCoupledBatchERKNS0_7RCModelEmRKSt8functionIFvmRKSt6vectorIdSaIdEERS7_EERNS0_19CoupledBatchScratchEdid"
std::vector<thermal::CoupledResult>
realCoupledBatch(const thermal::RCModel&, std::size_t,
                 const thermal::BatchPowerFn&, thermal::CoupledBatchScratch&,
                 double, int, double) PERFBENCH_REAL(SYM_COUPLED_BATCH);
std::vector<thermal::CoupledResult>
wrapCoupledBatch(const thermal::RCModel&, std::size_t,
                 const thermal::BatchPowerFn&, thermal::CoupledBatchScratch&,
                 double, int, double) PERFBENCH_WRAP(SYM_COUPLED_BATCH);

std::vector<thermal::CoupledResult>
wrapCoupledBatch(const thermal::RCModel& model, std::size_t n_points,
                 const thermal::BatchPowerFn& power,
                 thermal::CoupledBatchScratch& scratch, double tol_c,
                 int max_iter, double damping)
{
    ScopedSpan scope(Layer::Thermal, call::kCoupledBatch);
    scope.span().n = static_cast<int>(n_points);
    return realCoupledBatch(model, n_points, power, scratch, tol_c,
                            max_iter, damping);
}

// ---- model -------------------------------------------------------------

#define SYM_SCENARIO1 "_ZNK3tlp5model9Scenario15solveEid"
model::Scenario1Result realScenario1(const model::Scenario1*, int, double)
    PERFBENCH_REAL(SYM_SCENARIO1);
model::Scenario1Result wrapScenario1(const model::Scenario1*, int, double)
    PERFBENCH_WRAP(SYM_SCENARIO1);

model::Scenario1Result
wrapScenario1(const model::Scenario1* self, int n, double eps_n)
{
    ScopedSpan scope(Layer::Model, call::kScenario1);
    scope.span().n = n;
    return realScenario1(self, n, eps_n);
}

#define SYM_SCENARIO1_BATCH "_ZNK3tlp5model9Scenario110solveBatchERKSt6vectorISt4pairIidESaIS4_EE"
std::vector<model::Scenario1Result>
realScenario1Batch(const model::Scenario1*,
                   const std::vector<std::pair<int, double>>&)
    PERFBENCH_REAL(SYM_SCENARIO1_BATCH);
std::vector<model::Scenario1Result>
wrapScenario1Batch(const model::Scenario1*,
                   const std::vector<std::pair<int, double>>&)
    PERFBENCH_WRAP(SYM_SCENARIO1_BATCH);

std::vector<model::Scenario1Result>
wrapScenario1Batch(const model::Scenario1* self,
                   const std::vector<std::pair<int, double>>& points)
{
    ScopedSpan scope(Layer::Model, call::kScenario1Batch);
    scope.span().n = static_cast<int>(points.size());
    return realScenario1Batch(self, points);
}

#define SYM_SCENARIO2 "_ZNK3tlp5model9Scenario25solveEid"
model::Scenario2Result realScenario2(const model::Scenario2*, int, double)
    PERFBENCH_REAL(SYM_SCENARIO2);
model::Scenario2Result wrapScenario2(const model::Scenario2*, int, double)
    PERFBENCH_WRAP(SYM_SCENARIO2);

model::Scenario2Result
wrapScenario2(const model::Scenario2* self, int n, double eps_n)
{
    ScopedSpan scope(Layer::Model, call::kScenario2);
    scope.span().n = n;
    return realScenario2(self, n, eps_n);
}

#define SYM_ARBITRATE "_ZN3tlp5model19arbitrateCoScheduleERKNS_6runner10ExperimentERKNS0_10CoScheduleESt6vectorIdSaIdEEd"
util::Expected<model::MultiprogResult>
realArbitrate(const runner::Experiment&, const model::CoSchedule&,
              std::vector<double>, double) PERFBENCH_REAL(SYM_ARBITRATE);
util::Expected<model::MultiprogResult>
wrapArbitrate(const runner::Experiment&, const model::CoSchedule&,
              std::vector<double>, double) PERFBENCH_WRAP(SYM_ARBITRATE);

util::Expected<model::MultiprogResult>
wrapArbitrate(const runner::Experiment& exp, const model::CoSchedule& sched,
              std::vector<double> freqs_hz, double budget_w)
{
    ScopedSpan scope(Layer::Model, call::kArbitrate);
    // The schedule dies with the render; spans outlive it, so no name.
    scope.span().n = static_cast<int>(sched.apps.size());
    return realArbitrate(exp, sched, std::move(freqs_hz), budget_w);
}

// ---- runner ------------------------------------------------------------

#define SYM_EXPERIMENT "_ZN3tlp6runner10ExperimentC1EdNS_3sim9CmpConfigEPNS0_11RawRunCacheE"
void realExperiment(runner::Experiment*, double, sim::CmpConfig,
                    runner::RawRunCache*) PERFBENCH_REAL(SYM_EXPERIMENT);
void wrapExperiment(runner::Experiment*, double, sim::CmpConfig,
                    runner::RawRunCache*) PERFBENCH_WRAP(SYM_EXPERIMENT);

void
wrapExperiment(runner::Experiment* self, double scale, sim::CmpConfig config,
               runner::RawRunCache* raw_cache)
{
    ScopedSpan scope(Layer::Runner, call::kExperiment);
    realExperiment(self, scale, std::move(config), raw_cache);
}

#define SYM_MEASURE "_ZNK3tlp6runner10Experiment13tryMeasureAppERKNS_9workloads12WorkloadInfoEidd"
util::Expected<runner::Measurement>
realMeasure(const runner::Experiment*, const workloads::WorkloadInfo&, int,
            double, double) PERFBENCH_REAL(SYM_MEASURE);
util::Expected<runner::Measurement>
wrapMeasure(const runner::Experiment*, const workloads::WorkloadInfo&, int,
            double, double) PERFBENCH_WRAP(SYM_MEASURE);

util::Expected<runner::Measurement>
wrapMeasure(const runner::Experiment* self, const workloads::WorkloadInfo& app,
            int n, double vdd, double freq_hz)
{
    ScopedSpan scope(Layer::Runner, call::kMeasure);
    Span& s = scope.span();
    s.what = app.name.c_str();
    s.n = n;
    s.vdd = vdd;
    s.freq_hz = freq_hz;
    return realMeasure(self, app, n, vdd, freq_hz);
}

#define SYM_ROW1 "_ZNK3tlp6runner10Experiment12scenario1RowERKNS_9workloads12WorkloadInfoEiRKNS0_11MeasurementES8_"
runner::Scenario1Row realRow1(const runner::Experiment*,
                              const workloads::WorkloadInfo&, int,
                              const runner::Measurement&,
                              const runner::Measurement&)
    PERFBENCH_REAL(SYM_ROW1);
runner::Scenario1Row wrapRow1(const runner::Experiment*,
                              const workloads::WorkloadInfo&, int,
                              const runner::Measurement&,
                              const runner::Measurement&)
    PERFBENCH_WRAP(SYM_ROW1);

runner::Scenario1Row
wrapRow1(const runner::Experiment* self, const workloads::WorkloadInfo& app,
         int n, const runner::Measurement& base,
         const runner::Measurement& nominal_n)
{
    ScopedSpan scope(Layer::Runner, call::kRow1);
    scope.span().what = app.name.c_str();
    scope.span().n = n;
    return realRow1(self, app, n, base, nominal_n);
}

#define SYM_ROW2 "_ZNK3tlp6runner10Experiment12scenario2RowERKNS_9workloads12WorkloadInfoEiRKNS0_11MeasurementES8_RKSt6vectorIdSaIdEEd"
runner::Scenario2Row realRow2(const runner::Experiment*,
                              const workloads::WorkloadInfo&, int,
                              const runner::Measurement&,
                              const runner::Measurement&,
                              const std::vector<double>&, double)
    PERFBENCH_REAL(SYM_ROW2);
runner::Scenario2Row wrapRow2(const runner::Experiment*,
                              const workloads::WorkloadInfo&, int,
                              const runner::Measurement&,
                              const runner::Measurement&,
                              const std::vector<double>&, double)
    PERFBENCH_WRAP(SYM_ROW2);

runner::Scenario2Row
wrapRow2(const runner::Experiment* self, const workloads::WorkloadInfo& app,
         int n, const runner::Measurement& base,
         const runner::Measurement& nominal_n,
         const std::vector<double>& freqs_hz, double budget_w)
{
    ScopedSpan scope(Layer::Runner, call::kRow2);
    scope.span().what = app.name.c_str();
    scope.span().n = n;
    return realRow2(self, app, n, base, nominal_n, freqs_hz, budget_w);
}

#define SYM_STORE_OPEN "_ZN3tlp6runner18PersistentRawStore4openERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEjNS_4util8FileLock4ModeE"
util::Expected<std::unique_ptr<runner::PersistentRawStore>>
realStoreOpen(const std::string&, std::uint32_t, util::FileLock::Mode)
    PERFBENCH_REAL(SYM_STORE_OPEN);
util::Expected<std::unique_ptr<runner::PersistentRawStore>>
wrapStoreOpen(const std::string&, std::uint32_t, util::FileLock::Mode)
    PERFBENCH_WRAP(SYM_STORE_OPEN);

util::Expected<std::unique_ptr<runner::PersistentRawStore>>
wrapStoreOpen(const std::string& dir, std::uint32_t fingerprint,
              util::FileLock::Mode mode)
{
    ScopedSpan scope(Layer::Runner, call::kStoreOpen);
    return realStoreOpen(dir, fingerprint, mode);
}

} // namespace hooks

std::vector<std::string>
missingHooks()
{
    using namespace hooks;
#define GENERATOR(fn)                                                        \
    {"workloads::" #fn, reinterpret_cast<const void*>(&real_##fn)}
    const std::pair<const char*, const void*> table[] = {
        {call::kCmpRun, reinterpret_cast<const void*>(&realCmpRun)},
        GENERATOR(makeBarnes),
        GENERATOR(makeCholesky),
        GENERATOR(makeFft),
        GENERATOR(makeFmm),
        GENERATOR(makeLu),
        GENERATOR(makeOcean),
        GENERATOR(makeRadiosity),
        GENERATOR(makeRadix),
        GENERATOR(makeRaytrace),
        GENERATOR(makeVolrend),
        GENERATOR(makeWaterNsq),
        GENERATOR(makeWaterSp),
        GENERATOR(makePowerVirus),
        {call::kCoupled, reinterpret_cast<const void*>(&realCoupled)},
        {call::kCoupled,
         reinterpret_cast<const void*>(&realCoupledScratch)},
        {call::kCoupledAccel,
         reinterpret_cast<const void*>(&realCoupledAccel)},
        {call::kCoupledBatch,
         reinterpret_cast<const void*>(&realCoupledBatch)},
        {call::kScenario1, reinterpret_cast<const void*>(&realScenario1)},
        {call::kScenario1Batch,
         reinterpret_cast<const void*>(&realScenario1Batch)},
        {call::kScenario2, reinterpret_cast<const void*>(&realScenario2)},
        {call::kArbitrate, reinterpret_cast<const void*>(&realArbitrate)},
        {call::kExperiment, reinterpret_cast<const void*>(&realExperiment)},
        {call::kMeasure, reinterpret_cast<const void*>(&realMeasure)},
        {call::kRow1, reinterpret_cast<const void*>(&realRow1)},
        {call::kRow2, reinterpret_cast<const void*>(&realRow2)},
        {call::kStoreOpen, reinterpret_cast<const void*>(&realStoreOpen)},
    };
#undef GENERATOR
    std::vector<std::string> missing;
    for (const auto& [name, address] : table) {
        if (address == nullptr)
            missing.emplace_back(name);
    }
    return missing;
}

} // namespace perfbench
