/**
 * @file
 * Benchmark driver: renders the paper figures of one workload through
 * service::renderFigure, one figure at a time, in a closed loop.
 *
 *   perfbench_driver --mode setup --workload NAME --scale S --work DIR
 *                    --reference DIR
 *   perfbench_driver --mode measure --workload NAME --scale S --work DIR
 *                    --reference DIR --seconds T --trace 0|1
 *                    [--trace-out FILE]
 *   perfbench_driver --mode reference --workload NAME --work DIR
 *                    --reference DIR
 *
 * setup is the preparation before the first timed render: it loads the
 * tables the renders must reproduce and, for a workload that reads a raw
 * store, fills a fresh store under the work directory with one cold pass
 * over its figures. perfbench/run.py times whole setup processes.
 * measure renders passes for T seconds; with --trace 1 every second pass
 * records spans (spans.hpp).
 *
 * At the paper scale (S = 1) every render is checked byte for byte
 * against the tables in the --reference directory. At any other scale
 * there is no reference: the first render of each figure, or the cold
 * fill's (kept under the work directory), becomes what later renders
 * must reproduce, and a parallel workload is re-rendered serially too.
 * reference writes the paper-scale tables, rendered serially without a
 * store, into the --reference directory.
 *
 * setup and measure print one JSON object of raw samples on stdout;
 * perfbench/run.py turns them into the benchmark's metrics. They run as
 * separate processes so that the measured process's peak memory is that
 * of the timed renders alone.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "layers.hpp"
#include "service/figures.hpp"
#include "spans.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

/** One benchmark workload: which figures a pass renders, and how. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> figures;
    int jobs;   ///< workers of the timed renders
    bool store; ///< set-up fills a raw store the timed renders read
    int passes; ///< passes per timed iteration
};

/** Workers of the cold store fill: more than the warm renders use, so
 *  that a warm table is checked against one rendered in parallel. */
constexpr int kFillJobs = 2;

// Why these: analytic is all model + thermal (no simulation);
// sim_paper is nearly all sim::Cmp::run and the only user of the
// work-stealing pool; warm_store prices stored runs (no simulation),
// 16 passes so that one iteration lasts about as long as the others.
const std::vector<WorkloadSpec> kWorkloads = {
    {"analytic", {"fig1", "fig2"}, 1, false, 1},
    {"sim_paper", {"fig3", "fig4"}, 2, false, 1},
    {"warm_store", {"fig3", "fig4", "fig5_multiprog"}, 1, true, 16},
};

struct Args
{
    std::string mode;
    std::string workload;
    double scale = 1.0;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    std::string reference_dir;
    std::string trace_out;
};

[[noreturn]] void
usage(const std::string& what)
{
    std::cerr << "perfbench_driver: " << what << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--mode")
                args.mode = value;
            else if (flag == "--workload")
                args.workload = value;
            else if (flag == "--scale")
                args.scale = std::stod(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = value == "1";
            else if (flag == "--work")
                args.work_dir = value;
            else if (flag == "--reference")
                args.reference_dir = value;
            else if (flag == "--trace-out")
                args.trace_out = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (args.mode != "setup" && args.mode != "measure" &&
        args.mode != "reference")
        usage("--mode must be setup, measure or reference");
    if (args.work_dir.empty() || args.reference_dir.empty())
        usage("--work DIR and --reference DIR are required");
    if (!(args.scale > 0.0 && args.scale <= 1.0))
        usage("--scale must be in (0, 1]");
    return args;
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto sec = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/** The integer after "key": in a flat metrics JSON object (0 if absent). */
std::uint64_t
jsonCount(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

/** What one renderFigure call did. */
struct Render
{
    std::string figure;
    double wall_s = 0.0;
    std::string output;
    std::string error; ///< empty: rendered
    std::map<std::string, std::uint64_t> counts;
};

Render
render(const std::string& figure, int jobs, double scale,
       const std::string& store, std::uint32_t id)
{
    tlp::service::FigureOptions options;
    options.jobs = jobs;
    options.scale = scale;
    options.raw_store = store;
    Render r;
    r.figure = figure;
    setRender(id);
    const std::int64_t t0 = nowNs();
    try {
        ScopedSpan scope(Layer::Service, call::kRender);
        scope.span().what = figure.c_str();
        auto run = tlp::service::renderFigure(figure, options);
        if (run) {
            r.output = std::move(run.value().output);
            const tlp::runner::SweepReport& rep = run.value().report;
            const std::string& json = run.value().metrics_json;
            const bool sim = run.value().simulated;
            r.counts = {
                {"points_ok", rep.ok},
                {"points_failed", rep.failed.size()},
                {"sim_calls", rep.sim_calls},
                {"sim_events", rep.sim_events},
                {"price_calls", rep.price_calls},
                {"raw_hits", rep.raw_hits},
                {"raw_misses", rep.raw_misses},
                {"priced_hits", rep.priced_hits},
                {"priced_misses", rep.priced_misses},
                {"thermal_solves", sim ? rep.thermal_solves
                                       : jsonCount(json, "thermal_solves")},
                {"thermal_solve_passes",
                 sim ? rep.thermal_solve_passes
                     : jsonCount(json, "thermal_solve_passes")},
                {"thermal_factorizations",
                 sim ? rep.thermal_factorizations
                     : jsonCount(json, "thermal_factorizations")},
                {"thermal_fallback_solves", rep.thermal_fallback_solves},
                {"pool_steals", rep.pool_steals},
                {"store_hits", rep.store_hits},
                {"store_misses", rep.store_misses},
                {"store_appends", rep.store_appends},
                {"store_loaded", rep.store_loaded},
            };
        } else {
            r.error = run.error().describe();
        }
    } catch (const std::exception& e) {
        r.error = e.what();
    }
    r.wall_s = (nowNs() - t0) * 1e-9;
    return r;
}

/** Checks every render and keeps the operation ledger. */
class Checker
{
  public:
    explicit Checker(std::map<std::string, std::string> expected)
        : expected_(std::move(expected))
    {}

    /** Count @p r's operations; a figure without an expected table
     *  takes its first output as one. A warm render must be served
     *  entirely from the store. */
    void check(const Render& r, const char* phase, bool warm)
    {
        attempted_ += 1;
        std::uint64_t points_failed = 0;
        if (r.error.empty()) {
            attempted_ += r.counts.at("points_ok") +
                          r.counts.at("points_failed");
            points_failed = r.counts.at("points_failed");
        }
        failed_ += points_failed;
        std::string why;
        if (!r.error.empty()) {
            why = "error: " + r.error;
        } else {
            auto [it, first] = expected_.emplace(r.figure, r.output);
            if (!first && it->second != r.output)
                why = "output differs from the reference";
            else if (points_failed > 0)
                why = std::to_string(points_failed) + " failed point(s)";
            else if (warm && (r.counts.at("sim_calls") != 0 ||
                              r.counts.at("store_misses") != 0))
                why = "warm render missed the store";
        }
        if (!why.empty()) {
            failed_ += 1;
            // The first few name what failed; the count has the rest.
            if (failures_.size() < 20) {
                failures_.push_back(r.figure + " (" + phase + "): " + why);
                std::cerr << "perfbench: FAILED " << failures_.back()
                          << "\n";
            }
        }
    }

    /** Each figure's table, as every render of it must print it. */
    const std::map<std::string, std::string>& expected() const
    {
        return expected_;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::map<std::string, std::string> expected_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

struct Iteration
{
    bool traced = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<Render> renders;
    std::uint64_t sim_runs = 0, sim_events = 0, sim_cycles = 0,
                  sim_instructions = 0;
    std::map<std::string, double> layers;
};

std::string
readFile(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usage("cannot read " + path.string());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const fs::path& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        usage("cannot write " + path.string());
}

std::uint64_t
directoryBytes(const std::string& dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    }
    return bytes;
}

/** JSON string literal (names and error messages only). */
std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

void
printResult(std::ostream& out, const std::vector<Iteration>& iterations,
            const Checker& checker, std::uint64_t store_bytes)
{
    out << std::setprecision(17) << "{\"build\": {\"type\": "
        << quoted(PERFBENCH_BUILD_TYPE)
        << ", \"sanitize\": " << quoted(PERFBENCH_SANITIZE)
        << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
        << "}, \"iterations\": [";
    for (std::size_t i = 0; i < iterations.size(); ++i) {
        const Iteration& it = iterations[i];
        out << (i ? ", " : "") << "{\"traced\": "
            << (it.traced ? "true" : "false") << ", \"wall_s\": "
            << it.wall_s << ", \"cpu_s\": " << it.cpu_s
            << ", \"sim_runs\": " << it.sim_runs
            << ", \"sim_events\": " << it.sim_events
            << ", \"sim_cycles\": " << it.sim_cycles
            << ", \"sim_instructions\": " << it.sim_instructions
            << ", \"layers\": {";
        bool first = true;
        for (const auto& [key, value] : it.layers) {
            out << (first ? "" : ", ") << quoted(key) << ": " << value;
            first = false;
        }
        out << "}, \"renders\": [";
        for (std::size_t k = 0; k < it.renders.size(); ++k) {
            const Render& r = it.renders[k];
            out << (k ? ", " : "") << "{\"figure\": " << quoted(r.figure)
                << ", \"wall_s\": " << r.wall_s;
            for (const auto& [key, value] : r.counts)
                out << ", " << quoted(key) << ": " << value;
            out << "}";
        }
        out << "]}";
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out << "], \"attempted\": " << checker.attempted()
        << ", \"failed\": " << checker.failed() << ", \"failures\": [";
    for (std::size_t i = 0; i < checker.failures().size(); ++i)
        out << (i ? ", " : "") << quoted(checker.failures()[i]);
    out << "], \"peak_rss_kb\": " << usage.ru_maxrss
        << ", \"store_bytes\": " << store_bytes << "}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
        if (w.name == args.workload)
            spec = &w;
    }
    if (spec == nullptr)
        usage("unknown workload '" + args.workload +
              "' (analytic, sim_paper, warm_store)");

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) &&            \
    !defined(__SANITIZE_THREAD__)
    const bool timing_build = std::string_view(PERFBENCH_SANITIZE).empty();
#else
    const bool timing_build = false;
#endif
    if (!timing_build) {
        std::cerr << "perfbench: refusing to time an unoptimized or "
                     "sanitizer build (build type '"
                  << PERFBENCH_BUILD_TYPE << "', TLPPM_SANITIZE '"
                  << PERFBENCH_SANITIZE << "')\n";
        return 3;
    }
    const std::vector<std::string> missing =
        args.mode == "measure" ? missingHooks() : std::vector<std::string>();
    for (const std::string& hook : missing)
        std::cerr << "perfbench: " << hook << " is not intercepted\n";
    if (args.trace && !missing.empty()) {
        std::cerr << "perfbench: refusing a traced run: the layer metrics "
                     "of calls not intercepted would read 0; update "
                     "perfbench/driver/layers.cpp\n";
        return 4;
    }

    fs::create_directories(args.work_dir);
    const std::string store =
        spec->store ? (fs::path(args.work_dir) / "store").string() : "";
    std::uint32_t render_id = 0;

    if (args.mode == "reference") {
        fs::create_directories(args.reference_dir);
        for (const std::string& figure : spec->figures) {
            const Render r = render(figure, 1, 1.0, "", ++render_id);
            if (!r.error.empty())
                usage(figure + ": " + r.error);
            writeFile(fs::path(args.reference_dir) / (figure + ".txt"),
                      r.output);
        }
        return 0;
    }

    // What every render must print: the paper-scale references, or on a
    // held-out scale the cold fill's tables once a set-up has kept them.
    const bool held_out = args.scale != 1.0;
    const fs::path expected_dir =
        held_out ? fs::path(args.work_dir) / "expected"
                 : fs::path(args.reference_dir);
    std::map<std::string, std::string> expected;
    for (const std::string& figure : spec->figures) {
        const fs::path path = expected_dir / (figure + ".txt");
        if (!held_out || fs::exists(path))
            expected[figure] = readFile(path);
    }
    Checker checker(std::move(expected));
    std::vector<Iteration> iterations;

    if (args.mode == "setup") {
        if (spec->store) {
            fs::remove_all(store);
            fs::create_directories(store);
            for (const std::string& figure : spec->figures) {
                checker.check(render(figure, kFillJobs, args.scale,
                                     store, ++render_id),
                              "set-up", false);
            }
            if (held_out) {
                fs::create_directories(expected_dir);
                for (const auto& [figure, table] : checker.expected())
                    writeFile(expected_dir / (figure + ".txt"), table);
            }
        }
        printResult(std::cout, iterations, checker, 0);
        return 0;
    }

    std::vector<Span> last_trace;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    int traced_count = 0, untraced_count = 0;
    while (nowNs() < deadline || untraced_count == 0 ||
           (args.trace && traced_count == 0)) {
        Iteration it;
        it.traced = args.trace && untraced_count > traced_count;
        SimTotals& totals = simTotals();
        const std::uint64_t runs0 = totals.runs, events0 = totals.events,
                            cycles0 = totals.cycles,
                            instr0 = totals.instructions;
        setRecording(it.traced);
        const double cpu0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        for (int pass = 0; pass < spec->passes; ++pass) {
            for (const std::string& figure : spec->figures) {
                it.renders.push_back(render(figure, spec->jobs, args.scale,
                                            store, ++render_id));
            }
        }
        it.wall_s = (nowNs() - t0) * 1e-9;
        it.cpu_s = cpuSeconds() - cpu0;
        setRecording(false);
        it.sim_runs = totals.runs - runs0;
        it.sim_events = totals.events - events0;
        it.sim_cycles = totals.cycles - cycles0;
        it.sim_instructions = totals.instructions - instr0;
        if (it.traced) {
            last_trace = drainSpans();
            it.layers = layerMetrics(last_trace, spec->jobs);
            ++traced_count;
        } else {
            ++untraced_count;
        }
        for (Render& r : it.renders) {
            checker.check(r, it.traced ? "traced" : "timed", spec->store);
            std::string().swap(r.output); // checked; keep only the counts
        }
        iterations.push_back(std::move(it));
    }

    // On a held-out scale a parallel workload is checked against a
    // serial render as well.
    if (held_out && spec->jobs > 1) {
        for (const std::string& figure : spec->figures) {
            checker.check(render(figure, 1, args.scale, "", ++render_id),
                          "serial check", false);
        }
    }

    if (args.trace && !args.trace_out.empty() &&
        !writeChromeTrace(args.trace_out, last_trace))
        std::cerr << "perfbench: cannot write " << args.trace_out << "\n";

    printResult(std::cout, iterations, checker,
                spec->store ? directoryBytes(store) : 0);
    return 0;
}
