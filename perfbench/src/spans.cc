#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "common/error.hh"
#include "common/stats.hh"

namespace imo::perfbench
{

namespace
{

thread_local std::uint64_t tlsCurrent = 0;

std::uint64_t
threadIndex()
{
    static std::atomic<std::uint64_t> next{0};
    thread_local const std::uint64_t index = next.fetch_add(1);
    return index;
}

} // anonymous namespace

std::int64_t
nowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
Tracer::current()
{
    return tlsCurrent;
}

void
Tracer::push(SpanRecord rec)
{
    std::lock_guard<std::mutex> lock(_mu);
    _spans.push_back(std::move(rec));
}

std::uint64_t
Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t parent, std::uint64_t tid)
{
    if (!_enabled)
        return 0;
    SpanRecord rec;
    rec.name = std::move(name);
    rec.startNs = start_ns;
    rec.endNs = std::max(start_ns, end_ns);
    rec.id = nextId();
    rec.parent = parent;
    rec.run = _run.load();
    rec.tid = tid;
    const std::uint64_t id = rec.id;
    push(std::move(rec));
    return id;
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord *>>
        children;
    for (const SpanRecord &s : _spans) {
        if (s.parent)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : _spans) {
        // Union of the children's intervals, clipped to the span:
        // children may overlap when they ran on several pool threads.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        if (const auto it = children.find(s.id); it != children.end()) {
            for (const SpanRecord *c : it->second) {
                const std::int64_t b = std::max(c->startNs, s.startNs);
                const std::int64_t e = std::min(c->endNs, s.endNs);
                if (e > b)
                    iv.emplace_back(b, e);
            }
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        const double dur = static_cast<double>(s.endNs - s.startNs);
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalMs += dur / 1e6;
        t.selfMs += (dur - static_cast<double>(covered)) / 1e6;
    }
    return out;
}

void
Tracer::writeChrome(const std::string &path,
                    const std::string &run_label) const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    sim_throw_if(!os, ErrCode::BadConfig,
                 "perfbench: cannot write trace '%s'", path.c_str());
    os << "{\"traceEvents\":[";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
          "\"args\":{\"name\":\""
       << stats::jsonEscape("imo-perfbench " + run_label) << "\"}}";
    std::int64_t origin = 0;
    for (const SpanRecord &s : _spans)
        origin = origin ? std::min(origin, s.startNs) : s.startNs;
    char buf[64];
    for (const SpanRecord &s : _spans) {
        os << ",{\"name\":\"" << stats::jsonEscape(s.name)
           << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << s.tid;
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                      (s.startNs - origin) / 1e3,
                      (s.endNs - s.startNs) / 1e3);
        os << buf << ",\"args\":{\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"run\":" << s.run
           << ",\"run_label\":\"" << stats::jsonEscape(run_label)
           << "\"}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
    sim_throw_if(!os.flush(), ErrCode::BadConfig,
                 "perfbench: short write to trace '%s'", path.c_str());
}

Span::Span(Tracer &tracer, const char *name, std::uint64_t parent)
    : _tracer(tracer)
{
    if (!_tracer._enabled)
        return;
    _rec.name = name;
    _rec.id = _tracer.nextId();
    _rec.parent = parent ? parent : tlsCurrent;
    _rec.run = _tracer._run.load();
    _rec.tid = threadIndex();
    _savedCurrent = tlsCurrent;
    tlsCurrent = _rec.id;
    _rec.startNs = nowNs();
}

Span::~Span()
{
    if (!_tracer._enabled)
        return;
    _rec.endNs = nowNs();
    tlsCurrent = _savedCurrent;
    _tracer.push(std::move(_rec));
}

} // namespace imo::perfbench
