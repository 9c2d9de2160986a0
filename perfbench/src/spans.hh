/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark wraps each call it makes into a layer's public
 * function in a Span. Spans are kept in memory (name, start, end,
 * parent, run id, thread) and written once at exit as Chrome
 * trace_event JSON, which Perfetto opens. A disabled recorder makes
 * Span a no-op that never reads the clock, so the untraced run pays
 * nothing for the instrumentation.
 */

#ifndef IMO_PERFBENCH_SPANS_HH
#define IMO_PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace imo::perfbench
{

/** steady_clock time in ns; the same clock as the library's
 *  per-point millisecond records. */
std::int64_t nowNs();

/** One finished span. Times are nowNs() values. */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint32_t run = 0;    //!< repetition the span belongs to
    std::uint64_t tid = 0;    //!< small per-thread index
};

/** Per-name aggregate over all recorded spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double totalMs = 0.0; //!< sum of span durations
    double selfMs = 0.0;  //!< durations minus the union of child spans
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Repetition id stamped on spans begun from now on. */
    void setRun(std::uint32_t run) { _run = run; }

    /**
     * Record an already-timed interval (e.g. a per-point record the
     * library returned) as a span. @return its id, 0 when disabled.
     */
    std::uint64_t add(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent,
                      std::uint64_t tid = 0);

    /** Span id of the innermost open Span on the calling thread. */
    static std::uint64_t current();

    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as Chrome trace_event JSON. */
    void writeChrome(const std::string &path,
                     const std::string &run_label) const;

  private:
    friend class Span;
    std::uint64_t nextId() { return _nextId.fetch_add(1) + 1; }
    void push(SpanRecord rec);

    bool _enabled;
    std::atomic<std::uint32_t> _run{0};
    std::atomic<std::uint64_t> _nextId{0};
    mutable std::mutex _mu; //!< guards _spans
    std::vector<SpanRecord> _spans;
};

/**
 * RAII span: opened on construction, recorded on destruction. The
 * parent is the innermost open span on this thread, or @p parent when
 * given (for work handed to a pool thread).
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::uint64_t parent = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return _rec.id; }

  private:
    Tracer &_tracer;
    SpanRecord _rec;
    std::uint64_t _savedCurrent = 0;
};

} // namespace imo::perfbench

#endif // IMO_PERFBENCH_SPANS_HH
