/**
 * @file
 * Structured event tracing for the whole VMM/cloak/OS stack.
 *
 * Three pieces:
 *
 *   - TraceBuffer: a fixed-capacity ring of POD TraceEvents. Recording
 *     is a couple of stores; when the ring is full the oldest events
 *     are overwritten (the aggregate metrics keep counting). The ring
 *     is allocated on the first record, so an untraced machine never
 *     pays for it.
 *   - Tracer: the handle every component holds. It owns the ring and a
 *     MetricsRegistry, knows the simulated clock (a raw pointer to the
 *     cost model's cycle counter), and gates everything behind a
 *     runtime `enabled` flag.
 *   - OSH_TRACE_* macros: the only way instrumentation sites should
 *     emit events. Compiling with -DOSH_TRACE_ENABLED=0 turns every
 *     site into `(void)0`, so a no-trace build carries zero code.
 *
 * Tracing never charges simulated cycles and never consumes simulation
 * randomness, so cycle counts are bit-identical with tracing enabled,
 * disabled, or compiled out.
 */

#ifndef OSH_TRACE_TRACE_HH
#define OSH_TRACE_TRACE_HH

#include "base/types.hh"
#include "trace/metrics.hh"

#include <cstdint>
#include <vector>

#ifndef OSH_TRACE_ENABLED
#define OSH_TRACE_ENABLED 1
#endif

namespace osh::trace
{

/** Event categories, one per instrumented subsystem. */
enum class Category : std::uint8_t
{
    Vmm,       ///< World switches, shadow resolution, hypercalls.
    Cloak,     ///< Page encrypt/decrypt/clean-reencrypt.
    Transfer,  ///< Secure control transfer entries/exits.
    Shim,      ///< Shim syscall marshalling.
    Syscall,   ///< Guest-kernel syscall dispatch.
    Swap,      ///< Swap-device slot traffic.
    Vfs,       ///< Page-cache fills and writebacks.
    Attack,    ///< Hostile-kernel attack injections (campaigns).
    User,      ///< Free for examples/tests.
    NumCategories,
};

constexpr std::size_t numCategories =
    static_cast<std::size_t>(Category::NumCategories);

const char* categoryName(Category cat);

/** One trace event. POD; `name` must point at a static string. */
struct TraceEvent
{
    Category category = Category::User;
    const char* name = "";
    DomainId domain = systemDomain;  ///< Rendered as the trace "pid".
    Pid pid = 0;                     ///< Rendered as the trace "tid".
    Cycles begin = 0;
    Cycles end = 0;                  ///< == begin for instant events.
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;

    bool isInstant() const { return end == begin; }
    Cycles duration() const { return end - begin; }
};

/**
 * Fixed-capacity ring buffer of trace events. The ring's storage is
 * allocated by the first record(); before that every accessor reports
 * an empty buffer of the configured capacity.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity = 1 << 16);

    void record(const TraceEvent& ev);

    std::size_t capacity() const { return capacity_; }

    /** Events currently held (<= capacity). */
    std::size_t size() const;

    /** Events ever recorded, including overwritten ones. */
    std::uint64_t totalRecorded() const { return total_; }

    /** Has the ring overwritten old events at least once? */
    bool wrapped() const { return total_ > capacity_; }

    /** Copy of the live events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    void clear();

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_; ///< Empty until the first record.
    std::size_t head_ = 0;     ///< Next write position.
    std::uint64_t total_ = 0;
};

/** Static configuration of a Tracer. */
struct TraceConfig
{
    /** Record events and metrics at runtime? */
    bool enabled = false;
};

/**
 * The per-machine tracing handle. Components never talk to the ring or
 * registry directly; they go through the OSH_TRACE_* macros, which
 * check `enabled()` first.
 *
 * One host thread: every emitter runs on the thread that drives the
 * simulation (guest bodies are fibers on it, and the crypto pool's
 * workers never trace), so nothing here is locked. A parallel
 * page-seal batch emits every event from the one seal body in
 * submission order, so the ring contents are identical for any worker
 * count.
 */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig& config = {});

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * Bind the simulated clock. @p cycle_counter must outlive the
     * tracer (it is the cost model's accumulator).
     */
    void bindClock(const Cycles* cycle_counter) { clock_ = cycle_counter; }

    /** Current simulated time (0 if no clock is bound). */
    Cycles now() const { return clock_ != nullptr ? *clock_ : 0; }

    TraceBuffer& buffer() { return buffer_; }
    const TraceBuffer& buffer() const { return buffer_; }
    MetricsRegistry& metrics() { return metrics_; }
    const MetricsRegistry& metrics() const { return metrics_; }

    /** Record a completed span + its latency histogram sample. */
    void complete(Category cat, const char* name, Cycles begin,
                  Cycles end, DomainId domain = systemDomain,
                  Pid pid = 0, std::uint64_t arg0 = 0,
                  std::uint64_t arg1 = 0);

    /** Record a point event + bump its counter. */
    void instant(Category cat, const char* name,
                 DomainId domain = systemDomain, Pid pid = 0,
                 std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);

    /** Drop all events and metrics (per-phase reports). */
    void
    clear()
    {
        buffer_.clear();
        metrics_.reset();
    }

  private:
    bool enabled_;
    const Cycles* clock_ = nullptr;
    TraceBuffer buffer_;
    MetricsRegistry metrics_;
};

/**
 * RAII span: samples the simulated clock at construction and records a
 * complete event (plus a histogram sample) at destruction. Destruction
 * during unwinding still records — a syscall that kills the process
 * shows up in the trace with its true duration.
 */
class TraceScope
{
  public:
    TraceScope(Tracer* tracer, Category cat, const char* name,
               DomainId domain = systemDomain, Pid pid = 0,
               std::uint64_t arg0 = 0, std::uint64_t arg1 = 0)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer
                                                         : nullptr),
          cat_(cat), name_(name), domain_(domain), pid_(pid),
          arg0_(arg0), arg1_(arg1),
          begin_(tracer_ != nullptr ? tracer_->now() : 0)
    {
    }

    ~TraceScope()
    {
        if (tracer_ != nullptr) {
            tracer_->complete(cat_, name_, begin_, tracer_->now(),
                              domain_, pid_, arg0_, arg1_);
        }
    }

    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

    /** Amend payload args discovered mid-scope. */
    void setArgs(std::uint64_t arg0, std::uint64_t arg1)
    {
        arg0_ = arg0;
        arg1_ = arg1;
    }

  private:
    Tracer* tracer_;
    Category cat_;
    const char* name_;
    DomainId domain_;
    Pid pid_;
    std::uint64_t arg0_;
    std::uint64_t arg1_;
    Cycles begin_;
};

} // namespace osh::trace

// ---------------------------------------------------------------------------
// Instrumentation macros. `tracer` is a `trace::Tracer*` (may be null).
// ---------------------------------------------------------------------------

#if OSH_TRACE_ENABLED

#define OSH_TRACE_CONCAT2(a, b) a##b
#define OSH_TRACE_CONCAT(a, b) OSH_TRACE_CONCAT2(a, b)

/** Open a scoped span lasting until the end of the enclosing block. */
#define OSH_TRACE_SCOPE(tracer, cat, name, ...)                             \
    ::osh::trace::TraceScope OSH_TRACE_CONCAT(osh_trace_scope_,            \
                                              __COUNTER__)(                \
        (tracer), (cat), (name), ##__VA_ARGS__)

/** Like OSH_TRACE_SCOPE but binds the scope to a local variable so the
 *  site can call setArgs() on it. */
#define OSH_TRACE_SCOPE_NAMED(var, tracer, cat, name, ...)                  \
    ::osh::trace::TraceScope var((tracer), (cat), (name), ##__VA_ARGS__)

/** Record a point event. */
#define OSH_TRACE_INSTANT(tracer, cat, name, ...)                           \
    do {                                                                    \
        ::osh::trace::Tracer* osh_trace_t_ = (tracer);                      \
        if (osh_trace_t_ != nullptr && osh_trace_t_->enabled())             \
            osh_trace_t_->instant((cat), (name), ##__VA_ARGS__);            \
    } while (0)

#else // !OSH_TRACE_ENABLED

namespace osh::trace
{
/** Stand-in for a named TraceScope in no-trace builds. */
struct NullTraceScope
{
    void setArgs(std::uint64_t, std::uint64_t) {}
};
} // namespace osh::trace

#define OSH_TRACE_SCOPE(tracer, cat, name, ...) ((void)0)
#define OSH_TRACE_SCOPE_NAMED(var, tracer, cat, name, ...)                  \
    [[maybe_unused]] ::osh::trace::NullTraceScope var
#define OSH_TRACE_INSTANT(tracer, cat, name, ...) ((void)0)

#endif // OSH_TRACE_ENABLED

#endif // OSH_TRACE_TRACE_HH
