/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * the simulator's layers. A span is (name, start, end, parent); spans
 * are kept in memory and written out when the run ends. A layer's self
 * time is its span's duration minus the time its child spans cover.
 *
 * The same ScopedSpan times every measured call whether or not a
 * recorder is attached: without one it only reads the clock, so the
 * untraced and traced runs time identical code and differ only by the
 * recording itself (reported as trace.overhead).
 */

#ifndef PAPERBENCH_SPANS_HH
#define PAPERBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace paperbench
{

/** Host monotonic time in nanoseconds (CLOCK_MONOTONIC). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** In-memory span store with parent tracking. Single-threaded. */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        int64_t start = 0;
        int64_t end = 0;
        /** Index of the enclosing span, -1 at top level. */
        int32_t parent = -1;
    };

    /** Aggregate of every span sharing one name. */
    struct LedgerRow
    {
        std::string name;
        uint64_t count = 0;
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };

    /** Open a span nested in the innermost open one; @return its id. */
    int32_t open(std::string name, int64_t start);

    /** Close the innermost open span, which must be `id`. */
    void close(int32_t id, int64_t end);

    const std::vector<Span> &spans() const { return _spans; }

    /** Total and self time per span name, in first-seen order. */
    std::vector<LedgerRow> ledger() const;

    /**
     * Write every span as one JSON object per line.
     * @retval false when the file cannot be written
     */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> _spans;
    std::vector<int32_t> _open;
};

/** Times one scope; records it as a span when a recorder is given. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, std::string name);
    ~ScopedSpan() { stop(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** End the span now (idempotent); @return its duration in ns. */
    int64_t stop();

  private:
    SpanRecorder *_recorder;
    int32_t _id = -1;
    int64_t _start;
    int64_t _duration = -1;
};

} // namespace paperbench

#endif // PAPERBENCH_SPANS_HH
