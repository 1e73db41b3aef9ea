#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::uint32_t> g_render{0};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};

std::mutex g_spans_mutex;
std::vector<Span> g_spans; // guarded by g_spans_mutex

thread_local const std::uint32_t t_tid = g_next_tid.fetch_add(1);
thread_local std::vector<std::uint32_t> t_open; // ids, innermost last

bool
named(const Span& span, const char* name)
{
    return std::string_view(span.name) == name;
}

/** Length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> spans)
{
    std::sort(spans.begin(), spans.end());
    std::int64_t total = 0;
    std::int64_t start = 0, end = 0;
    bool open = false;
    for (const auto& [s, e] : spans) {
        if (open && s <= end) {
            end = std::max(end, e);
            continue;
        }
        if (open)
            total += end - start;
        start = s;
        end = e;
        open = true;
    }
    if (open)
        total += end - start;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
writeEscaped(std::FILE* out, const char* text)
{
    std::fputc('"', out);
    for (const char* p = text; *p != '\0'; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        if (c == '"' || c == '\\')
            std::fprintf(out, "\\%c", c);
        else if (c < 0x20)
            std::fprintf(out, "\\u%04x", c);
        else
            std::fputc(c, out);
    }
    std::fputc('"', out);
}

} // namespace

const char*
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Service:
        return "service";
    case Layer::Runner:
        return "runner";
    case Layer::Model:
        return "model";
    case Layer::Thermal:
        return "thermal";
    case Layer::Sim:
        return "sim";
    case Layer::Workloads:
        return "workloads";
    }
    return "?";
}

SimTotals&
simTotals()
{
    static SimTotals totals;
    return totals;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setRecording(bool on)
{
    g_recording.store(on, std::memory_order_relaxed);
}

void
setRender(std::uint32_t render)
{
    g_render.store(render, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(Layer layer, const char* name)
{
    if (!g_recording.load(std::memory_order_relaxed))
        return;
    active_ = true;
    span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    span_.parent = t_open.empty() ? 0 : t_open.back();
    span_.render = g_render.load(std::memory_order_relaxed);
    span_.tid = t_tid;
    span_.layer = layer;
    span_.name = name;
    t_open.push_back(span_.id);
    span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.end_ns = nowNs();
    t_open.pop_back();
    const std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_spans.push_back(span_);
}

std::vector<Span>
drainSpans()
{
    const std::lock_guard<std::mutex> lock(g_spans_mutex);
    std::vector<Span> out;
    out.swap(g_spans);
    return out;
}

std::map<std::string, double>
layerMetrics(const std::vector<Span>& spans, int workers)
{
    std::unordered_map<std::uint32_t, const Span*> by_id;
    for (const Span& s : spans)
        by_id[s.id] = &s;
    const auto parentOf = [&](const Span& s) -> const Span* {
        const auto it = by_id.find(s.parent);
        return it == by_id.end() ? nullptr : it->second;
    };
    const auto seconds = [](std::int64_t ns) { return ns * 1e-9; };
    const auto isPoint = [](const Span& s) {
        return named(s, call::kMeasure) || named(s, call::kRow1) ||
               named(s, call::kRow2);
    };

    // Time each span's children cover, and the part of it that the
    // simulator and the generators (not pricing) took.
    std::unordered_map<std::uint32_t, std::int64_t> child_ns;
    std::unordered_map<std::uint32_t, std::int64_t> sim_ns;
    for (const Span& s : spans) {
        const std::int64_t dur = s.end_ns - s.start_ns;
        if (const Span* p = parentOf(s))
            child_ns[p->id] += dur;
        if (s.layer == Layer::Sim || s.layer == Layer::Workloads) {
            for (const Span* a = parentOf(s); a != nullptr; a = parentOf(*a))
                sim_ns[a->id] += dur;
        }
    }

    std::map<std::string, double> m;
    std::int64_t self_ns[kLayerCount] = {};
    std::int64_t render_ns = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> below_service;
    std::int64_t price_ns = 0;
    std::uint64_t busy = 0, stall_mem = 0, stall_sync = 0;
    // Pool accounting: time each worker thread spent in calls of its
    // own (spans with no parent on that thread), per render.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t>
        worker_ns;

    for (const char* key :
         {"sim.run_s", "sim.runs", "sim.events", "sim.cycles",
          "sim.instructions", "sim.queue_high_water", "workloads.make_s",
          "workloads.make_calls", "model.scenario2_s",
          "model.scenario2_solves", "model.scenario1_s",
          "thermal.scalar_calls", "thermal.scalar_s", "thermal.batch_calls",
          "thermal.batch_s",
          "runner.calibrate_s", "runner.store_open_s"})
        m[key] = 0.0;

    for (const Span& s : spans) {
        const std::int64_t dur = s.end_ns - s.start_ns;
        if (s.layer == Layer::Service) {
            render_ns += dur;
            continue;
        }
        below_service.emplace_back(s.start_ns, s.end_ns);
        self_ns[static_cast<int>(s.layer)] += dur - child_ns[s.id];
        if (s.parent == 0)
            worker_ns[{s.render, s.tid}] += dur;

        if (named(s, call::kCmpRun)) {
            m["sim.run_s"] += seconds(dur);
            m["sim.runs"] += 1;
            m["sim.events"] += static_cast<double>(s.events);
            m["sim.cycles"] += static_cast<double>(s.cycles);
            m["sim.instructions"] += static_cast<double>(s.instructions);
            m["sim.queue_high_water"] =
                std::max(m["sim.queue_high_water"],
                         static_cast<double>(s.queue_high_water));
            busy += s.busy;
            stall_mem += s.stall_mem;
            stall_sync += s.stall_sync;
        } else if (named(s, call::kMake)) {
            m["workloads.make_s"] += seconds(dur);
            m["workloads.make_calls"] += 1;
        } else if (named(s, call::kCoupled) ||
                   named(s, call::kCoupledAccel)) {
            m["thermal.scalar_s"] += seconds(dur);
            m["thermal.scalar_calls"] += 1;
        } else if (named(s, call::kCoupledBatch)) {
            m["thermal.batch_s"] += seconds(dur);
            m["thermal.batch_calls"] += 1;
        } else if (named(s, call::kScenario2)) {
            m["model.scenario2_s"] += seconds(dur);
            m["model.scenario2_solves"] += 1;
        } else if (named(s, call::kScenario1) ||
                   named(s, call::kScenario1Batch)) {
            m["model.scenario1_s"] += seconds(dur);
        } else if (named(s, call::kExperiment)) {
            m["runner.calibrate_s"] += seconds(dur);
        } else if (named(s, call::kStoreOpen)) {
            m["runner.store_open_s"] += seconds(dur);
        } else if (isPoint(s)) {
            // Pricing is what a measured point costs beyond simulating
            // it; a point nested in another point is counted once.
            bool nested = false;
            for (const Span* a = parentOf(s); a != nullptr && !nested;
                 a = parentOf(*a))
                nested = isPoint(*a);
            if (!nested)
                price_ns += dur - sim_ns[s.id];
        }
    }

    const std::int64_t covered = unionLength(std::move(below_service));
    self_ns[static_cast<int>(Layer::Service)] =
        std::max<std::int64_t>(0, render_ns - covered);
    std::int64_t self_total = 0;
    for (std::int64_t ns : self_ns)
        self_total += ns;
    for (int l = 0; l < kLayerCount; ++l) {
        const std::string layer = layerName(static_cast<Layer>(l));
        m[layer + ".self_s"] = seconds(self_ns[l]);
        m[layer + ".self_share"] =
            ratio(static_cast<double>(self_ns[l]),
                  static_cast<double>(self_total));
    }
    m["trace.unattributed_share"] =
        ratio(static_cast<double>(self_ns[static_cast<int>(Layer::Service)]),
              static_cast<double>(render_ns));

    m["sim.ns_per_event"] = ratio(m["sim.run_s"] * 1e9, m["sim.events"]);
    m["sim.minstr_per_s"] =
        ratio(m["sim.instructions"] * 1e-6, m["sim.run_s"]);
    const double core_cycles = static_cast<double>(busy + stall_mem +
                                                   stall_sync);
    m["sim.stall_mem_share"] = ratio(static_cast<double>(stall_mem),
                                     core_cycles);
    m["sim.stall_sync_share"] = ratio(static_cast<double>(stall_sync),
                                      core_cycles);
    m["model.ms_per_scenario2"] =
        ratio(m["model.scenario2_s"] * 1e3, m["model.scenario2_solves"]);
    m["runner.price_s"] = seconds(price_ns);

    // Worker imbalance: the busiest worker's time over the mean, summed
    // over renders (0 without a pool).
    double max_sum = 0.0, mean_sum = 0.0;
    if (workers > 1) {
        std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>>
            per_render; // render -> (max, total)
        for (const auto& [key, ns] : worker_ns) {
            auto& [mx, total] = per_render[key.first];
            mx = std::max(mx, ns);
            total += ns;
        }
        for (const auto& [render, agg] : per_render) {
            max_sum += static_cast<double>(agg.first);
            mean_sum += static_cast<double>(agg.second) / workers;
        }
    }
    m["runner.worker_imbalance"] = ratio(max_sum, mean_sum);
    return m;
}

bool
writeChromeTrace(const std::string& path, const std::vector<Span>& spans)
{
    const std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!out)
        return false;
    std::int64_t t0 = 0;
    if (!spans.empty()) {
        t0 = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                  return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
    }
    std::FILE* f = out.get();
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
    bool first = true;
    for (const Span& s : spans) {
        std::fputs(first ? "  {" : ",\n  {", f);
        first = false;
        std::fputs("\"name\": ", f);
        writeEscaped(f, s.name);
        std::fprintf(f,
                     ", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %u, \"parent\": %u, "
                     "\"render\": %u",
                     layerName(s.layer), s.tid, (s.start_ns - t0) * 1e-3,
                     (s.end_ns - s.start_ns) * 1e-3, s.id, s.parent,
                     s.render);
        if (s.what != nullptr) {
            std::fputs(s.layer == Layer::Service ? ", \"figure\": "
                                                 : ", \"workload\": ",
                       f);
            writeEscaped(f, s.what);
        }
        if (s.n != 0)
            std::fprintf(f, ", \"n\": %d", s.n);
        if (s.vdd != 0.0)
            std::fprintf(f, ", \"vdd\": %.6g", s.vdd);
        if (s.freq_hz != 0.0)
            std::fprintf(f, ", \"f_ghz\": %.6g", s.freq_hz * 1e-9);
        if (s.layer == Layer::Sim) {
            std::fprintf(f,
                         ", \"events\": %llu, \"cycles\": %llu, "
                         "\"instructions\": %llu",
                         static_cast<unsigned long long>(s.events),
                         static_cast<unsigned long long>(s.cycles),
                         static_cast<unsigned long long>(s.instructions));
        }
        std::fputs("}}", f);
    }
    std::fputs("\n]}\n", f);
    return std::ferror(f) == 0;
}

} // namespace perfbench
